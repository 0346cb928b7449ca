import importlib
import json
import pkgutil
from fractions import Fraction

import mpmath as mp
import pytest

import glcoeff
from glcoeff import zeta as Z
from glcoeff.numeric import to_mpf, working
from glcoeff.rootdata import (base_profile, covolume, enumerate_parabolics,
                              group_profile, simple_data)


def test_place_set_parsing():
    s = Z.PlaceSet.parse("5, 2,inf")
    assert s.primes == (2, 5) and s.include_archimedean
    assert s.label() == "2,5,inf"
    assert Z.PlaceSet.parse("").primes == ()
    with pytest.raises(ValueError):
        Z.PlaceSet((4,))
    with pytest.raises(ValueError):
        Z.PlaceSet((3, 3))
    with pytest.raises(ValueError):
        Z.PlaceSet.parse("inf,2,inf")


def test_zeta_jet_against_mpmath():
    with working(96):
        j = Z.zeta_jet(2, 4)
        for k in range(4):
            ref = mp.diff(mp.zeta, 2, k) / mp.factorial(k)
            assert abs(j.coeff(k) - ref) < mp.mpf(2) ** -90
        jh = Z.zeta_jet(Fraction(3, 10), 3)
        for k in range(3):
            ref = mp.diff(mp.zeta, mp.mpf(3) / 10, k) / mp.factorial(k)
            assert abs(jh.coeff(k) - ref) < mp.mpf(2) ** -88


def test_zeta_pole_expansion():
    # around the pole: 1/t + gamma_0 - gamma_1 t + ...
    with working(96):
        j = Z.zeta_jet(1, 5)
        assert j.low == -1
        assert j.coeff(-1) == 1
        for k in range(4):
            ref = (-1) ** k * mp.stieltjes(k) / mp.factorial(k)
            assert abs(j.coeff(k) - ref) < mp.mpf(2) ** -90


def test_gamma_jet_against_mpmath():
    with working(96):
        for center in (Fraction(1, 2), 3, Fraction(7, 3)):
            g = Z.gamma_jet(center, 4)
            c = mp.mpf(center.numerator) / center.denominator \
                if isinstance(center, Fraction) else mp.mpf(center)
            for k in range(4):
                ref = mp.diff(mp.gamma, c, k) / mp.factorial(k)
                assert abs(g.coeff(k) - ref) < mp.mpf(2) ** -80


HIGH_ORDER = 12


def _mpf(q) -> mp.mpf:
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def _max_rel_error(jet, ref, orders):
    return max(abs(jet.coeff(k) - ref[k]) / max(1, abs(ref[k])) for k in orders)


def _gamma_taylor(z, order):
    """Taylor coefficients of Gamma(z + t): exp of the log-Gamma series
    loggamma(z) + sum_k psi(k-1, z) t^k / k!."""
    lg = [mp.loggamma(z)] + [mp.psi(k - 1, z) / mp.factorial(k)
                             for k in range(1, order)]
    out = [mp.exp(lg[0])]
    for k in range(1, order):
        out.append(sum(i * lg[i] * out[k - i] for i in range(1, k + 1)) / k)
    return out


@pytest.mark.parametrize("prec", [512, 1024])
def test_zeta_jet_high_order_against_mpmath(prec):
    with working(prec):
        tol = mp.mpf(2) ** -prec
        for center in (2, Fraction(5, 2), Fraction(3, 10)):
            jet = Z.zeta_jet(center, HIGH_ORDER)
            ref = [mp.zeta(_mpf(center), 1, k) / mp.factorial(k)
                   for k in range(HIGH_ORDER)]
            assert _max_rel_error(jet, ref, range(HIGH_ORDER)) < tol
        # around the pole: 1/t + sum_k (-1)^k gamma_k t^k / k!; a Stieltjes
        # constant costs 1-5 s at these precisions, so only some are drawn
        pole = Z.zeta_jet(1, HIGH_ORDER + 1)
        assert pole.low == -1 and pole.coeff(-1) == 1
        orders = (0, 1, 2, 5, 8, 11) if prec == 512 else (0, 11)
        ref = {k: (-1) ** k * mp.stieltjes(k) / mp.factorial(k) for k in orders}
        assert _max_rel_error(pole, ref, orders) < tol


@pytest.mark.parametrize("prec", [512, 1024])
def test_gamma_jet_high_order_against_mpmath(prec):
    with working(prec):
        tol = mp.mpf(2) ** -prec
        for center in (Fraction(1, 2), Fraction(7, 3), 3):
            jet = Z.gamma_jet(center, HIGH_ORDER)
            ref = _gamma_taylor(_mpf(center), HIGH_ORDER)
            assert _max_rel_error(jet, ref, range(HIGH_ORDER)) < tol
        # Gamma(t-2) = Gamma(1+t) / (t (t-1) (t-2)): residue 1/2 at -2
        jet = Z.gamma_jet(-2, HIGH_ORDER)
        assert (jet.low, jet.trunc) == (-1, HIGH_ORDER)
        assert abs(jet.coeff(-1) - mp.mpf(1) / 2) < tol
        a = _gamma_taylor(mp.mpf(1), HIGH_ORDER + 1)
        q = []  # Gamma(1+t) / ((t-1)(t-2)) = Gamma(1+t) / (2 - 3t + t^2)
        for k in range(HIGH_ORDER + 1):
            q.append((a[k] + (3 * q[k - 1] if k >= 1 else 0)
                      - (q[k - 2] if k >= 2 else 0)) / 2)
        ref = {k - 1: q[k] for k in range(HIGH_ORDER + 1)}
        assert _max_rel_error(jet, ref, range(-1, HIGH_ORDER)) < tol


def _agree_on_shared_orders(jets):
    """Every jet keeps the orders of the shorter ones bit for bit."""
    for short, long in zip(jets, jets[1:]):
        assert short.low == long.low
        for k in range(short.low, short.trunc):
            assert short.coeff(k) == long.coeff(k), k


@pytest.mark.parametrize("prec", [256, 512])
def test_truncated_jets_keep_their_orders_bit_for_bit(prec):
    """A jet cut at a lower order is the longer jet cut there, exactly:
    a limit route may build its jets only to the order it reads."""
    orders = (1, 3, 8)
    with working(prec):
        for d in (1, 2):
            for label in ("", "2,3", "2,inf"):
                places = Z.PlaceSet.parse(label)
                _agree_on_shared_orders(
                    [Z.ztilde_s_jet(d, places, d, m) for m in orders])
        _agree_on_shared_orders([Z.zeta_jet(1, m) for m in orders])
        _agree_on_shared_orders([Z.gamma_jet(0, m) for m in orders])


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(glcoeff.__path__):
        module = importlib.import_module(f"glcoeff.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters"):
                caches[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert len(caches) >= 7
    assert all(size is not None for size in caches.values()), caches


def test_gamma_poles():
    with working(96):
        for m in range(4):
            g = Z.gamma_jet(-m, 2)
            assert g.low == -1
            residue = mp.mpf(-1) ** m / mp.factorial(m)
            assert abs(g.coeff(-1) - residue) < mp.mpf(2) ** -90


def test_completed_zeta_special_values():
    with working(128):
        x2 = Z.xi_jet(2, 1)
        assert abs(x2.coeff(0) - mp.pi / 6) < mp.mpf(2) ** -120
        x1 = Z.xi_jet(1, 2)
        assert abs(x1.coeff(-1) - 1) < mp.mpf(2) ** -120
        x0 = Z.xi_jet(0, 2)
        assert abs(x0.coeff(-1) + 1) < mp.mpf(2) ** -120


def test_completed_zeta_functional_equation():
    with working(96):
        a = Z.xi_jet(Fraction(3, 10), 3)
        b = Z.xi_jet(Fraction(7, 10), 3)
        assert abs(a.coeff(0) - b.coeff(0)) < mp.mpf(2) ** -85
        assert abs(a.coeff(1) + b.coeff(1)) < mp.mpf(2) ** -85
        assert abs(a.coeff(2) - b.coeff(2)) < mp.mpf(2) ** -82


def test_local_factor_exact_values():
    with working(96):
        for p, s, value in ((2, 2, Fraction(4, 3)), (3, 1, Fraction(3, 2)),
                            (3, -1, Fraction(-1, 2))):
            jet = Z.xi_local_jet(p, s, 1)
            assert abs(jet.coeff(0) - to_mpf(value)) < mp.mpf(2) ** -90
        # (1 - 5^-s)^-1 has a pole at s = 0
        assert Z.xi_local_jet(5, 0, 1).low == -1


def test_local_factor_jet_and_composition():
    with working(96):
        lj = Z.xi_local_jet(2, 3, 3)
        f = lambda s: 1 / (1 - mp.power(2, -s))
        for k in range(3):
            ref = mp.diff(f, 3, k) / mp.factorial(k)
            assert abs(lj.coeff(k) - ref) < mp.mpf(2) ** -85
        # pole of the local factor at the center 0
        l0 = Z.xi_local_jet(2, 0, 3)
        assert l0.low == -1
        assert abs(l0.coeff(-1) - 1 / mp.log(2)) < mp.mpf(2) ** -88


def test_archimedean_local_factor():
    with working(64):
        lj = Z.xi_local_jet("inf", 2, 2)
        assert abs(lj.coeff(0) - 1 / mp.pi) < mp.mpf(2) ** -60


def test_tower_values():
    with working(128):
        zt1 = Z.ztilde_jet(1, 1, 2)
        assert abs(zt1.coeff(0) - 1) < mp.mpf(2) ** -120
        ref = mp.euler / 2 - mp.log(2) - mp.log(mp.pi) / 2
        assert abs(zt1.coeff(1) - ref) < mp.mpf(2) ** -118
        zt2 = Z.ztilde_jet(2, 2, 1)
        assert abs(zt2.coeff(0) - mp.pi / 6) < mp.mpf(2) ** -118


def test_tower_with_places_removed():
    with working(128):
        zs = Z.ztilde_s_jet(1, Z.PlaceSet((2,)), 1, 2)
        assert abs(zs.coeff(0) - Fraction(1, 2)) < mp.mpf(2) ** -118
        # reference digits computed independently at high precision
        oracle = mp.mpf("-0.1418785552369668283842288")
        assert abs(zs.coeff(1) - oracle) < mp.mpf("1e-24")
        # removing no places changes nothing
        zs0 = Z.ztilde_s_jet(1, Z.EMPTY_PLACES, 1, 2)
        zt1 = Z.ztilde_jet(1, 1, 2)
        assert abs(zs0.coeff(1) - zt1.coeff(1)) < mp.mpf(2) ** -120


def test_tower_place_removal_is_division():
    with working(96):
        places = Z.PlaceSet((2, 3))
        full = Z.z_jet(2, Fraction(5, 2), 3)
        local = Z.z_s_local_jet(2, places, Fraction(5, 2), 3)
        removed = Z.z_s_jet(2, places, Fraction(5, 2), 3)
        recombined = removed * local
        for k in range(3):
            assert abs(recombined.coeff(k) - full.coeff(k)) < mp.mpf(2) ** -80


def test_volume_values():
    with working(96):
        assert abs(Z.vol_gl_one(1) - 1) < mp.mpf(2) ** -90
        # sqrt(2) * (s-2) xi(s-1) xi(s) at 2: sqrt(2) * xi(1)res... known value
        v2 = Z.vol_gl_one(2)
        ref = mp.sqrt(2) * Z.ztilde_jet(2, 2, 1).coeff(0)
        assert abs(v2 - ref) < mp.mpf(2) ** -90
        prof = group_profile(2, 3)
        vd = Z.ztilde_jet(2, 2, 1).coeff(0)
        assert abs(Z.vol_block_levi(prof) - 2 * vd / mp.sqrt(6)) < mp.mpf(2) ** -88
        assert abs(Z.vol_minimal_levi(2, 3) - (mp.sqrt(2) * vd) ** 3) < mp.mpf(2) ** -88


def test_volume_ratio_identity():
    # covolume ratio times volume ratio times the tower value power is 1
    with working(96):
        for d, r in [(1, 2), (2, 2), (1, 3), (3, 2)]:
            base = base_profile(d, r)
            G = group_profile(d, r)
            vd = Z.ztilde_jet(d, d, 1).coeff(0)
            cov_G = covolume(simple_data(base, G).coweights)
            vol_G = Z.vol_block_levi(G)
            for P in enumerate_parabolics(d, r):
                cov_P = covolume(simple_data(base, P).coweights)
                vol_P = Z.vol_block_levi(P)
                prod = (cov_P / cov_G) * (vol_G / vol_P) * (d * vd) ** (P.k - 1)
                assert abs(prod - 1) < mp.mpf(2) ** -88


def test_precision_budget_error_when_unreachable():
    # pushing the truncation cutoff high enough to hit the retry limit is
    # impractical for the rational provider, so probe the guard directly
    with working(64):
        with pytest.raises(ValueError):
            Z.zeta_jet(2, 0)


def test_gaussian_field_loading(gaussian_field_file):
    F = Z.NumberFieldData.from_file(gaussian_field_file)
    assert F.degree == 2 and F.signature == (0, 1)
    assert F.euler_factor(5) == (1, -2, 1)
    assert F.euler_factor(3) == (1, 0, -1)
    assert F.euler_factor(2) == (1, -1, 0)
    assert 0.3 < F.growth_exponent() < 0.6


def test_gaussian_field_values(gaussian_field_file):
    F = Z.NumberFieldData.from_file(gaussian_field_file)
    with mp.workprec(40):
        j = Z.xi_jet(6, 2, F)

        def beta(s):
            return mp.power(4, -s) * (mp.zeta(s, mp.mpf(1) / 4)
                                      - mp.zeta(s, mp.mpf(3) / 4))

        def ref(s):
            return (mp.power(2, s) * mp.power(2 * mp.pi, 1 - s)
                    * mp.gamma(s) * mp.zeta(s) * beta(s))

        assert abs(j.coeff(0) - ref(mp.mpf(6))) < mp.mpf("1e-9")
        assert abs(j.coeff(1) - mp.diff(ref, 6)) < mp.mpf("1e-9")
    # the exact Euler factors behind the local factors over the field
    assert F.euler_factor(5) == (1, -2, 1)
    assert F.euler_factor(3) == (1, 0, -1)


def test_gaussian_field_refuses_low_centers(gaussian_field_file):
    F = Z.NumberFieldData.from_file(gaussian_field_file)
    with mp.workprec(40):
        with pytest.raises(Z.ProviderError):
            Z.xi_jet(1, 1, F)
        with pytest.raises(Z.PrecisionBudgetError):
            Z.xi_jet(2, 1, F)
    with mp.workprec(300):
        with pytest.raises(Z.PrecisionBudgetError):
            Z.xi_jet(6, 1, F)


def test_field_file_validation(tmp_path, gaussian_field_file):
    raw = json.loads(open(gaussian_field_file).read())
    bad = dict(raw)
    bad["gamma_factor_shifts"] = [0, 0]
    p = tmp_path / "bad_shifts.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(Z.ProviderError):
        Z.NumberFieldData.from_file(str(p))
    bad2 = dict(raw)
    bad2["signature"] = [1, 1]
    p2 = tmp_path / "bad_sig.json"
    p2.write_text(json.dumps(bad2))
    with pytest.raises(Z.ProviderError):
        Z.NumberFieldData.from_file(str(p2))
    bad3 = dict(raw)
    bad3["dirichlet_coefficients"] = list(raw["dirichlet_coefficients"])
    bad3["dirichlet_coefficients"][24] = 7  # breaks the Euler product at 5
    p3 = tmp_path / "bad_coeffs.json"
    p3.write_text(json.dumps(bad3))
    F = Z.NumberFieldData.from_file(str(p3))
    with pytest.raises(Z.ProviderError):
        F.euler_factor(5)


def test_rational_euler_factor():
    assert Z.RATIONAL_FIELD.euler_factor(7) == (1, -1)
    with pytest.raises(Z.ProviderError):
        Z.RATIONAL_FIELD.euler_factor(6)
