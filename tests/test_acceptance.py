"""Acceptance gate: every headline guarantee of the package, one test
per criterion, each at its stated tolerance.

Run with -v for one pass/fail line per criterion; each test also prints
a short audit line with the measured extremes.
"""
import json
import random
from fractions import Fraction as Q

import mpmath as mp
import pytest

from glcoeff.cli import _random_germ, main
from glcoeff.coefficients import (a_coefficient,
                                  prolongation_identity_residuals)
from glcoeff.gmfamily import alternating_sum, draw_generic_direction
from glcoeff.numeric import working
from glcoeff.orbits import (LeviDatum, Partition, induce,
                            induced_type_oracle, partitions)
from glcoeff.rootdata import (BlockProfile, base_profile, covolume,
                              enumerate_parabolics, gram_determinant,
                              group_profile, simple_data)
from glcoeff.zeta import PlaceSet, vol_minimal_levi, xi_jet, ztilde_jet


def _shapes(n_max, min_r=1):
    return [(d, r) for d in range(1, n_max + 1)
            for r in range(min_r, n_max // d + 1)]


def _report(number, detail):
    print(f"criterion {number:02d} PASS: {detail}")


def test_criterion_01_covolume_law_exact():
    for n in range(2, 13):
        det = gram_determinant(simple_data(base_profile(1, n)).coroots)
        assert det == Q(n), n
    _report(1, "coroot Gram determinant equals n exactly for n = 2..12")


def test_criterion_02_dual_lattice_product():
    worst = mp.mpf(0)
    with working(256):
        for d, r in _shapes(8, min_r=2):
            for P in enumerate_parabolics(d, r):
                data = simple_data(base_profile(d, r), P)
                product = covolume(data.coroots) * covolume(data.coweights)
                worst = max(worst, abs(product - 1))
        assert worst < mp.mpf("1e-30")
    _report(2, f"max |covolume product - 1| = {mp.nstr(worst, 3)} over n <= 8")


def test_criterion_03_residue_normalization():
    with working(256):
        residue = xi_jet(1, 1).coeff(-1)
        value = xi_jet(2, 1).coeff(0)
        gap1 = abs(residue - 1)
        gap2 = abs(value - mp.pi / 6)
        assert gap1 < mp.mpf("1e-60")
        assert gap2 < mp.mpf("1e-60")
    _report(3, f"|(s-1)xi(s)|_1 - 1| = {mp.nstr(gap1, 3)}, "
               f"|xi(2) - pi/6| = {mp.nstr(gap2, 3)}")


def test_criterion_04_alternating_routes_agree():
    worst = mp.mpf(0)
    with working(256):
        for d, r in _shapes(6, min_r=2):
            level = group_profile(d, r)
            direction = draw_generic_direction(d, (r,), 0)
            rng = random.Random(f"acceptance:cp:{d}:{r}")
            for _ in range(20):
                germ = _random_germ(rng, d * r)
                upper = alternating_sum(germ, level, direction, False)
                lower = alternating_sum(germ, level, direction, True)
                gap = abs(upper.value - lower.value) / max(mp.mpf(1),
                                                           abs(upper.value))
                worst = max(worst, gap)
        assert worst < mp.mpf("1e-25")
    _report(4, f"max c vs c-tilde gap = {mp.nstr(worst, 3)} "
               f"on 20 germs per shape, n <= 6")


def test_criterion_05_route_agreement_for_coefficients():
    worst_gap = mp.mpf(0)
    worst_resid = mp.mpf(0)
    with working(256):
        for d, r in _shapes(6):
            for mu in partitions(r):
                for label in ("", "2", "2,3,5"):
                    res = a_coefficient(BlockProfile(d, mu),
                                        PlaceSet.parse(label))
                    worst_gap = max(worst_gap,
                                    res.diagnostics["max_disagreement"])
                    worst_resid = max(worst_resid,
                                      max(res.diagnostics["residuals"]
                                          .values()))
        assert worst_gap < mp.mpf("1e-25")
        assert worst_resid <= mp.mpf(2) ** -128
    _report(5, f"max route disagreement = {mp.nstr(worst_gap, 3)}, "
               f"max residual = {mp.nstr(worst_resid, 3)}")


def test_criterion_06_gl2_closed_forms():
    with working(256):
        root2 = mp.sqrt(2)
        oracle_empty = (mp.euler / 2 - mp.log(2) - mp.log(mp.pi) / 2) / root2
        oracle_two = (mp.euler / 2 - mp.log(mp.pi) / 2) / root2
        got_empty = a_coefficient(group_profile(1, 2)).a_value
        got_two = a_coefficient(group_profile(1, 2),
                                PlaceSet.parse("2")).a_value
        gap1 = abs(got_empty - oracle_empty)
        gap2 = abs(got_two - oracle_two)
        assert gap1 < mp.mpf("1e-30")
        assert gap2 < mp.mpf("1e-30")
    _report(6, f"|a(empty) - oracle| = {mp.nstr(gap1, 3)}, "
               f"|a({{2}}) - oracle| = {mp.nstr(gap2, 3)}")


def test_criterion_07_minimal_levi_anchor():
    worst = mp.mpf(0)
    with working(256):
        for d, r in _shapes(8):
            res = a_coefficient(base_profile(d, r))
            anchor = (mp.sqrt(d) * ztilde_jet(d, d, 1).coeff(0)) ** r
            worst = max(worst, abs(res.a_value - 1))
            worst = max(worst, abs(res.a_tilde_value - anchor) / anchor)
        for label in ("2", "2,3"):
            res = a_coefficient(base_profile(2, 2), PlaceSet.parse(label))
            worst = max(worst, abs(res.a_value - 1))
        assert worst < mp.mpf("1e-25")
    _report(7, f"minimal-level anchor max deviation = {mp.nstr(worst, 3)} "
               f"over n <= 8")


def test_criterion_08_continuation_identity():
    worst = mp.mpf(0)
    with working(256):
        for d, r in _shapes(6, min_r=2):
            for P in enumerate_parabolics(d, r):
                residuals = prolongation_identity_residuals(P, samples=10)
                worst = max(worst, max(residuals))
        assert worst < mp.mpf("1e-25")
    _report(8, f"max continuation residual = {mp.nstr(worst, 3)} "
               f"at 10 points per parabolic, n <= 6")


def test_criterion_09_induction_matches_rank_oracle():
    checked = 0
    for total in range(1, 9):
        for parts in partitions(total):
            menus = [tuple(partitions(p)) for p in parts]
            def walk(i, chosen):
                nonlocal checked
                if i == len(parts):
                    levi = LeviDatum(parts, tuple(Partition(o)
                                                  for o in chosen))
                    assert induce(levi) == induced_type_oracle(levi), levi
                    checked += 1
                    return
                for o in menus[i]:
                    walk(i + 1, chosen + (o,))
            walk(0, ())
    block_checked = 0
    for d, r in _shapes(10):
        levi = LeviDatum((d,) * r, (Partition((1,) * d),) * r)
        assert induced_type_oracle(levi) == Partition.block_regular(d, r)
        block_checked += 1
    _report(9, f"{checked} Levi/orbit tuples (n <= 8) and {block_checked} "
               f"block-regular elements (n <= 10) match exactly")


def test_criterion_10_determinism(capsys):
    argv = ["coeff", "--d", "2", "--r", "2", "--S", "2", "--prec", "128"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second

    argv_high = ["coeff", "--d", "2", "--r", "2", "--S", "2",
                 "--prec", "256"]
    assert main(list(argv_high)) == 0
    high = capsys.readouterr().out
    worst = mp.mpf(0)
    with working(320):
        for row_low, row_high in zip(json.loads(first)["results"],
                                     json.loads(high)["results"]):
            for key in ("a", "a_tilde"):
                a, b = mp.mpf(row_low[key]), mp.mpf(row_high[key])
                worst = max(worst, abs(a - b) / max(mp.mpf(1), abs(b)))
        assert worst <= mp.mpf(2) ** -120
    _report(10, f"byte-identical JSON; doubling precision moved values by "
                f"{mp.nstr(worst, 3)}")
