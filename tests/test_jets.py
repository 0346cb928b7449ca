import random
from fractions import Fraction

import mpmath as mp
import pytest

from glcoeff.jets import (CancellationError, EXACT, Jet, exp_jet, split_pole,
                          strip_leading_zeros)
from glcoeff.numeric import working


def random_jet(rng, low=0, order=6):
    coeffs = tuple(mp.mpf(rng.randint(-9, 9)) / rng.randint(1, 7)
                   for _ in range(order - low))
    return Jet(low, coeffs, order)


def close(a: Jet, b: Jet, tol=1e-12):
    lo = min(a.low, b.low)
    hi = min(a.trunc, b.trunc)
    return all(abs(a.coeff(k) - b.coeff(k)) < tol for k in range(lo, hi))


def test_ring_axioms():
    rng = random.Random(11)
    for _ in range(40):
        a = random_jet(rng)
        b = random_jet(rng)
        c = random_jet(rng)
        assert close(a * b, b * a)
        assert close((a + b) + c, a + (b + c))
        assert close(a * (b + c), a * b + a * c)
        assert close((a * b) * c, a * (b * c))


def test_polynomial_vs_evaluate():
    p = Jet.polynomial({0: 2, 1: -3, 3: Fraction(1, 2)})
    assert p.low == 0
    assert p.coeffs == (2, -3, 0, mp.mpf(1) / 2)


def test_truncation_propagates_through_mul():
    a = Jet(0, (mp.mpf(1), mp.mpf(2)), 2)
    b = Jet(0, (mp.mpf(1),) * 5, 5)
    prod = a * b
    assert prod.trunc == 2
    with pytest.raises(ValueError):
        prod.coeff(2)


def test_laurent_mul_gains_orders():
    # t^-1 factor shifts the reliable window down
    a = Jet(-1, (mp.mpf(1),), 4)
    b = Jet(0, (mp.mpf(1), mp.mpf(1), mp.mpf(1)), 3)
    prod = a * b
    assert prod.low == -1
    assert prod.trunc == 2
    assert prod.coeff(-1) == 1


def test_reciprocal_is_inverse():
    rng = random.Random(5)
    with working(64):
        for _ in range(20):
            a = random_jet(rng, order=7)
            if abs(a.coeff(0)) < 1e-3:
                a = a + Jet.polynomial({0: 1})
            prod = a * a.reciprocal()
            assert abs(prod.coeff(0) - 1) < 1e-12
            for k in range(1, prod.trunc):
                assert abs(prod.coeff(k)) < 1e-10


def test_reciprocal_of_exact_needs_order():
    p = Jet.polynomial({0: 1, 1: 1})
    with pytest.raises(ValueError):
        p.reciprocal()
    inv = p.reciprocal(5)
    # geometric series 1 - t + t^2 - ...
    for k in range(5):
        assert abs(inv.coeff(k) - (-1) ** k) < 1e-15


def test_shift_and_scale_arg():
    a = Jet.polynomial({0: 1, 1: 2, 2: 3})
    assert a.shift(2).coeff(3) == 2
    b = a.scale_arg(Fraction(1, 2))
    assert abs(b.coeff(2) - mp.mpf(3) / 4) < 1e-15
    with pytest.raises(ZeroDivisionError):
        Jet(-1, (mp.mpf(1),), 3).scale_arg(0)


def test_strip_leading_zeros():
    a = Jet(0, (mp.mpf(0), mp.mpf(0), mp.mpf(5)), 6)
    s = strip_leading_zeros(a)
    assert s.low == 2 and s.coeffs == (mp.mpf(5),)
    assert s.trunc == 6
    z = strip_leading_zeros(Jet(0, (mp.mpf(0),), 4))
    assert z.coeffs == ()


def test_split_monomial_and_division():
    """split_pole checks against numeric.tolerance(), 2^-(requested // 2):
    below 1e-20 at 192 bits and 1e-8 at 64, above 1e-3 at 16."""
    jet = Jet(0, (mp.mpf(0), mp.mpf(0), mp.mpf(3), mp.mpf(1)), 5)
    with working(192):
        out, _ = split_pole(jet, 2)
    assert out.low == 0 and abs(out.coeff(0) - 3) < 1e-15
    dirty = Jet(0, (mp.mpf("1e-3"), mp.mpf(2)), 4)
    with working(64), pytest.raises(CancellationError):
        split_pole(dirty, 1)
    with working(16):
        analytic, resid = split_pole(dirty, 1)
    assert resid > 1e-8
    assert abs(analytic.coeff(0) - 2) < 1e-15


def test_exp_jet_matches_series():
    a = Jet.polynomial({1: 1}).truncate(8)
    e = exp_jet(a, 8)
    for k in range(8):
        assert abs(e.coeff(k) - 1 / mp.factorial(k)) < 1e-15


def test_exp_jet_homomorphism():
    rng = random.Random(3)
    a = random_jet(rng, order=6)
    b = random_jet(rng, order=6)
    lhs = exp_jet(a + b, 6)
    rhs = exp_jet(a, 6) * exp_jet(b, 6)
    assert close(lhs, rhs, tol=1e-10)


def test_exact_jets_never_truncate():
    p = Jet.polynomial({0: 1, 1: 1})
    q = p * p * p
    assert q.trunc == EXACT
    assert q.coeff(3) == 1 and q.coeff(2) == 3



def test_jets_over_fractions_stay_exact():
    """A jet keeps the ring it was given: products, reciprocals, scalars,
    rates and the pole read-off of Fraction jets stay Fractions, an exact
    cancellation leaves residual exactly 0, and jets over different rings
    refuse to meet."""
    a = Jet.polynomial({0: Fraction(1, 3), 1: Fraction(-2, 7)}, Fraction)
    one = (a * a.reciprocal(6)).scale(Fraction(5, 2)).scale_arg(3)
    assert one.coeffs == (Fraction(5, 2),) + (Fraction(0),) * 5
    assert all(type(c) is Fraction for c in one.coeffs)
    cancelled = one - Jet.polynomial({0: Fraction(5, 2)}, Fraction)
    analytic, residual = split_pole(cancelled, 1)
    assert type(residual) is Fraction and residual == 0
    assert analytic.coeffs == (Fraction(0),) * 5
    for op in (Jet.__add__, Jet.__mul__):
        with pytest.raises(TypeError):
            op(a, Jet.polynomial({0: 1}))
