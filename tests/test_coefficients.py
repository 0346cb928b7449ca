"""Tests for the coefficient calculator.

Closed forms for GL(2), route cross-checks, the regularized unit value,
the pointwise continuation identity, and the consistency of the
assembled expansion evaluated on the unit function.
"""
import ast
import concurrent.futures
import pathlib
import random
from fractions import Fraction as Q
from functools import partial

import mpmath as mp
import pytest

import glcoeff
from glcoeff import coefficients
from glcoeff import gmfamily as gm
from glcoeff.coefficients import (ROUTE_NAMES, J_o_unit,
                                  RouteDisagreementError, a_coefficient,
                                  a_tilde, expansion, phi_for_L,
                                  prolongation_identity_residuals,
                                  unit_expansion_residual)
from glcoeff.gmfamily import (RouteValue, SmoothGerm, draw_generic_direction,
                              symmetrized_value)
from glcoeff.jets import Jet, split_pole
from glcoeff.numeric import to_mpf, tolerance, working
from glcoeff.orbits import (LeviDatum, Partition, enumerate_inducing_pairs,
                            partitions)
from glcoeff.rootdata import (BlockProfile, base_profile, enumerate_parabolics,
                              group_profile, pairing, project, simple_data,
                              theta_factor)
from glcoeff.zeta import (EMPTY_PLACES, RATIONAL_FIELD, NumberFieldData,
                          PlaceSet, ProviderError, tower_ratio_jet,
                          vol_minimal_levi, z_s_local_jet)
from test_gmfamily import value_at_zero

# value of the top coefficient for GL(2) over the rationals:
# (euler_gamma/2 - log(2) - log(pi)/2) / sqrt(2) with no places removed,
# and the same with the log(2) dropped once the place 2 is removed.
GL2_NO_PLACES = "-0.690775648760292394792103027502"
GL2_PLACE_TWO = "-0.200646577026018798935152165684"


def test_gl2_closed_form_no_places():
    with working(256):
        res = a_coefficient(group_profile(1, 2))
        assert abs(res.a_value - mp.mpf(GL2_NO_PLACES)) < mp.mpf("1e-29")
        assert abs(res.a_tilde_value - res.a_value) < mp.mpf("1e-29")


def test_gl2_closed_form_place_two():
    with working(256):
        res = a_coefficient(group_profile(1, 2), PlaceSet.parse("2"))
        assert abs(res.a_value - mp.mpf(GL2_PLACE_TWO)) < mp.mpf("1e-29")


@pytest.mark.parametrize("d,r", [(1, 1), (1, 3), (2, 2)])
def test_minimal_level_coefficient_is_one(d, r):
    with working(128):
        res = a_coefficient(base_profile(d, r))
        assert res.a_value == 1
        assert res.a_tilde_value == vol_minimal_levi(d, r)
        assert res.orbit == Partition.block_regular(d, r)


@pytest.mark.parametrize("d,parts,places", [
    (1, (2, 1), ""),
    (2, (2, 1), "2"),
])
def test_parts_order_does_not_matter(d, parts, places):
    S = PlaceSet.parse(places)
    with working(160):
        ref = a_coefficient(BlockProfile(d, parts), S).a_value
        for perm in [parts[::-1]]:
            other = a_coefficient(BlockProfile(d, perm), S).a_value
            assert abs(ref - other) < mp.mpf("1e-30")


def test_diagnostics_record_all_routes():
    with working(128):
        res = a_coefficient(BlockProfile(1, (2, 1)))
    routes = res.diagnostics["routes"]
    assert set(routes) == {"symmetrized", "alternating-upper",
                           "alternating-lower"}
    assert res.diagnostics["max_disagreement"] < mp.mpf(2) ** -40
    assert set(res.diagnostics["residuals"]) == set(routes)
    assert res.diagnostics["direction_seed"] == 0


@pytest.mark.parametrize("d,parts", [(1, (3,)), (1, (2, 1)), (2, (2,))])
def test_line_jets_stop_at_the_order_read(monkeypatch, d, parts):
    """Every route reads coefficient k (the pole order) of a summed line
    jet, so every tower it composes is built to order k + 1 and no
    further."""
    orders = []
    compose_linear = gm.compose_linear

    def recording(jets, rates):
        orders.extend(jet.trunc for jet in jets)
        return compose_linear(jets, rates)

    monkeypatch.setattr(gm, "compose_linear", recording)
    with working(128):
        a_coefficient(BlockProfile(d, parts))
    k = sum(parts) - len(parts)
    assert orders and set(orders) == {k + 1}


def test_phi_is_one_at_the_origin():
    with working(128):
        for level in (BlockProfile(1, (3,)), BlockProfile(2, (2, 1))):
            germ = phi_for_L(level, PlaceSet.parse("2"))
            assert abs(value_at_zero(germ) - 1) < mp.mpf(2) ** -120


def test_a_tilde_agrees_with_pair_enumeration():
    with working(128):
        for pair in enumerate_inducing_pairs(2, 2):
            res = a_tilde(pair.levi, 2)
            assert res.weyl_weight == pair.weyl_weight
            assert res.levi == pair.levi
            assert res.orbit == Partition.block_regular(2, 2)


def test_a_tilde_rejects_wrong_orbit():
    levi = LeviDatum((4,), (Partition((3, 1)),))
    with pytest.raises(ValueError):
        a_tilde(levi, 2)


def test_a_tilde_rejects_indivisible_part():
    levi = LeviDatum((3,), (Partition((3,)),))
    with pytest.raises(ValueError):
        a_tilde(levi, 2)


def place_correction(d, place, order):
    """The normalized reciprocal of the local factor of one more place,
    to the given order: the tower series of the larger place set is the
    smaller one's times this."""
    jet = z_s_local_jet(d, PlaceSet.parse(place), d, order + 2)
    return jet.scale(1 / jet.coeff(0)).reciprocal(order + 1)


@pytest.mark.parametrize("d,small,extra", [
    (1, "2", "3"),
    (2, "", "2"),
])
def test_place_growth_matches_correction_germ(d, small, extra):
    """Removing one more place equals multiplying the tower series by the
    normalized reciprocal of that place's local factor."""
    level = group_profile(d, 2)
    S0 = PlaceSet.parse(small)
    S1 = PlaceSet.parse(small + "," + extra if small else extra)
    with working(192):
        direct = a_coefficient(level, S1).a_value
        tower = tower_ratio_jet(d, S0, 2) * place_correction(d, extra, 2)
        direction = draw_generic_direction(d, level.parts, 0)
        via_tower = symmetrized_value(tower, direction).value
        assert abs(direct - via_tower) < mp.mpf("1e-40")


@pytest.mark.parametrize("d,r", [(1, 2), (1, 3), (2, 2)])
def test_continuation_identity_pointwise(d, r):
    """The regularized value at a projected point factors through the
    parabolic jet times both pairing products."""
    with working(256):
        for P in enumerate_parabolics(d, r):
            residuals = prolongation_identity_residuals(P, samples=4)
            assert max(residuals) < mp.mpf("1e-50"), P.parts


@pytest.mark.parametrize("d,r", [(1, 3), (2, 2), (3, 2)])
def test_continuation_reads_true_off_center_tower_values(monkeypatch, d, r):
    """Both sides of the continuation identity multiply the same
    off-center tower values, so its residuals cannot see them: recompute
    every such value the check reads at seed 0, over its first two
    samples, as (s - d) prod_j xi(s - d + j) from mpmath's zeta and
    gamma."""
    seen = {}
    ztilde_jet = coefficients.ztilde_jet

    def recording(n, center, order, field=RATIONAL_FIELD):
        jet = ztilde_jet(n, center, order, field)
        if center != n:
            seen[n, center] = jet.coeff(0)
        return jet

    def xi(s):
        return mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)

    monkeypatch.setattr(coefficients, "ztilde_jet", recording)
    with working(256):
        for P in enumerate_parabolics(d, r):
            prolongation_identity_residuals(P, seed=0, samples=2)
        assert seen
        for (n, center), value in seen.items():
            s = to_mpf(center)
            expected = (s - n) * mp.fprod(xi(s - n + j)
                                          for j in range(1, n + 1))
            assert abs(value - expected) < mp.mpf(2) ** -240 * abs(expected)


def test_unit_value_gl1_and_gl2():
    with working(256):
        assert abs(J_o_unit(1, 1).value - 1) < mp.mpf("1e-50")
        v = J_o_unit(1, 2)
        assert abs(v.value - mp.mpf(GL2_NO_PLACES)) < mp.mpf("1e-29")


def test_unit_value_checks_every_route(monkeypatch):
    lower = coefficients.c

    def perturbed(*args):
        rv = lower(*args)
        return RouteValue(rv.value + mp.mpf("1e-6"), rv.residual, rv.route)

    monkeypatch.setattr(coefficients, "c", perturbed)
    with working(128):
        with pytest.raises(RouteDisagreementError):
            J_o_unit(1, 3)


def test_unit_value_is_direction_independent():
    with working(192):
        a = J_o_unit(1, 3, seed=0).value
        b = J_o_unit(1, 3, seed=7).value
        assert abs(a - b) < mp.mpf("1e-45")


@pytest.mark.parametrize("d,r,places", [
    (1, 2, "2"),
    (1, 2, "2,inf"),
    (1, 3, "2"),
    (1, 3, "2,3"),
    (2, 2, "2,3"),
    (1, 7, "2"),
])
def test_expansion_of_the_unit_function(d, r, places):
    """End to end: the ambient regularized value equals the weighted sum
    of coefficients times local family values."""
    with working(192):
        gap = unit_expansion_residual(d, r, PlaceSet.parse(places))
        assert gap < mp.mpf("1e-40")


def _ordering_sum(d, comp, values, tower):
    """Sum over every ordering of the coarse blocks of the fine tower
    product over the coarse theta, or None if theta over the coarse
    coroots or a fine-coweight pairing vanishes in some ordering; with
    tower None, only that check.

    The orderings are walked depth-first in lexicographic order.  A block
    placed after a prefix brings the fine coweights of its own boundaries,
    whose pairings with the ordered vector depend on the prefix only, so
    orderings that share a prefix share its pairings and partial products.
    """
    m, r = len(comp), sum(comp)
    fine = simple_data(base_profile(d, r)).coweights
    total = Jet.polynomial({})
    thetas = {}

    def walk(prefix, vec, jet):
        nonlocal total
        if len(prefix) == m:
            sizes = tuple(comp[i] for i in prefix)
            if sizes not in thetas:
                thetas[sizes] = theta_factor(BlockProfile(d, sizes))
            th = thetas[sizes]
            rat = th.rational_part(vec)
            if rat == 0:
                return False
            if tower is not None:
                total = total + jet.scale(th.covolume() / to_mpf(rat))
            return True
        start = len(vec) // d
        for j in range(m):
            if j in prefix:
                continue
            grown = vec + (values[j],) * (d * comp[j])
            # the pairings of the boundaries up to grown's end do not
            # depend on the order of the blocks after it
            rest = [i for i in range(m) if i not in prefix and i != j]
            full = grown + tuple(values[i] for i in rest
                                 for _ in range(d * comp[i]))
            step = jet
            for b in range(start + 1, min(start + comp[j], r - 1) + 1):
                x = pairing(full, fine[b - 1])
                if x == 0:
                    return False
                if tower is not None:
                    step = step * tower.scale_arg(x / d)
            if not walk(prefix + (j,), grown, step):
                return False
        return True

    return total if walk((), (), Jet.polynomial({0: 1})) else None


def _coarse_generic_by_orderings(d, comp, values):
    """The oracle of _coarse_pairings: theta over the coarse coroots and
    every fine-coweight pairing are nonzero in each of the m! orderings."""
    return _ordering_sum(d, comp, values, None) is not None


def _coarse_family_by_orderings(d, comp, places, seed=0):
    """The oracle of _coarse_family_value: the m!-checked draw, its
    rejected candidates, and the sum over every ordering of the coarse
    blocks of the fine tower product over the coarse theta."""
    m = len(comp)
    rng = random.Random(f"coarse:{seed}:{d}:{comp}:{places.label()}")
    tower = z_s_local_jet(d, places, d, m)
    rejected = []
    while True:
        values = tuple(Q(rng.randint(1, 999) * rng.choice((1, -1)),
                         rng.randint(1, 9)) for _ in range(m))
        total = _ordering_sum(d, comp, values, tower)
        if total is not None:
            break
        rejected.append(values)
    analytic, _ = split_pole(total, m - 1)
    return values, rejected, analytic.coeff(0)


@pytest.mark.parametrize("d,r", [(1, r) for r in range(2, 8)]
                         + [(2, 2), (2, 3)])
def test_coarse_family_matches_the_ordering_sum(d, r):
    """The Held-Karp coarse family equals the permutation sum on every
    partition of r, and its draw accepts the same direction values as the
    m!-checked one.  At r = 7 the sum over 5040 orderings runs with one
    place set, the one the unit-expansion test uses."""
    worst = mp.mpf(0)
    with working(256):
        for comp in partitions(r):
            if len(comp) == 1:
                continue
            for label in ("2",) if r == 7 else ("", "2", "2,3,5"):
                places = PlaceSet.parse(label)
                values, rejected, slow = _coarse_family_by_orderings(
                    d, comp, places)
                assert coefficients._coarse_pairings(comp, values) is not None
                for candidate in rejected:
                    assert coefficients._coarse_pairings(comp, candidate) is None
                fast = coefficients._coarse_family_value(d, comp, places,
                                                         RATIONAL_FIELD)
                worst = max(worst, abs(fast - slow) / max(1, abs(slow)))
        assert worst < tolerance()


@pytest.mark.parametrize("d,comp", [(1, (1, 1, 1)), (1, (2, 1)),
                                    (2, (2, 1, 1)), (1, (1, 1, 1, 1))])
def test_coarse_draw_check_matches_the_ordering_check(d, comp):
    """On small integer values, where collisions and vanishing pairings
    are common, _coarse_pairings accepts exactly what the check of every
    ordering accepts."""
    rng = random.Random(f"{d}:{comp}")
    verdicts = set()
    for _ in range(200):
        values = tuple(Q(rng.randint(-3, 3)) for _ in comp)
        accepted = _coarse_generic_by_orderings(d, comp, values)
        assert (coefficients._coarse_pairings(comp, values) is not None) \
            == accepted, values
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_expansion_terms_follow_the_enumeration():
    with working(128):
        exp = expansion(2, 2, PlaceSet.parse("2"))
        pairs = enumerate_inducing_pairs(2, 2)
        assert len(exp.terms) == len(pairs)
        for term, pair in zip(exp.terms, pairs):
            assert term.coefficient.levi == pair.levi
            assert term.coefficient.weyl_weight == pair.weyl_weight
            assert term.class_size == pair.class_size
            assert term.standard_levi_count == pair.standard_levi_count
        assert exp.orbit == Partition.block_regular(2, 2)
        assert exp.field_label == "Q"


def test_expansion_symbols_are_fully_labeled():
    with working(128):
        exp = expansion(2, 2, PlaceSet.parse("2"))
    symbols = [t.local_symbol for t in exp.terms]
    assert symbols == [
        "J_L^G[L=(2, 2); o'=((1, 1),(1, 1)); S=2]",
        "J_L^G[L=(4,); o'=((2, 2)); S=2]",
    ]


def test_expansion_values_for_gl2():
    with working(256):
        exp = expansion(1, 2)
        by_levi = {t.coefficient.levi.parts: t.coefficient for t in exp.terms}
        minimal = by_levi[(1, 1)]
        full = by_levi[(2,)]
        assert minimal.a_value == 1
        assert abs(minimal.a_tilde_value - 1) < mp.mpf("1e-50")
        assert abs(full.a_value - mp.mpf(GL2_NO_PLACES)) < mp.mpf("1e-29")
        assert minimal.weyl_weight == Q(1, 2)
        assert full.weyl_weight == 1


def test_parallel_expansion_is_bitwise_identical():
    with working(256):
        serial = expansion(2, 2, PlaceSet.parse("2"), jobs=1)
        parallel = expansion(2, 2, PlaceSet.parse("2"), jobs=2)
    for a, b in zip(serial.terms, parallel.terms):
        assert a.coefficient.a_value == b.coefficient.a_value
        assert a.coefficient.a_tilde_value == b.coefficient.a_tilde_value
        assert a.local_symbol == b.local_symbol


def test_file_backed_field_failure_propagates(gaussian_field_file):
    field = NumberFieldData.from_file(gaussian_field_file)
    with working(64):
        with pytest.raises(ProviderError):
            a_coefficient(group_profile(1, 2), field=field)


def _enumeration_refused(*args, **kwargs):
    raise AssertionError("an enumeration ran on the coefficient path")


def test_coefficient_paths_never_enumerate(monkeypatch):
    """a_coefficient, J_o_unit and expansion hand the routes a tower
    series, so no Weyl or parabolic enumeration runs."""
    for name in ("symmetrized_sum", "alternating_sum"):
        monkeypatch.setattr(gm, name, _enumeration_refused)
    with working(128):
        a_coefficient(BlockProfile(2, (2, 1)), PlaceSet.parse("2"))
        J_o_unit(1, 4)
        exp = expansion(1, 4, PlaceSet.parse("3"))
    assert len(exp.terms) == 5


def _theta_refused(*args, **kwargs):
    raise AssertionError("a theta factor or level enumeration was built")


def test_coefficient_paths_build_no_theta_factor(monkeypatch):
    """The direction certificate and the block routes read value and
    interval-mean gaps only: no theta factor, hat theta factor or
    intermediate level is built on the coefficient path."""
    for name in ("hat_theta_factor", "theta_factor", "levels_between"):
        monkeypatch.setattr(gm, name, _theta_refused)
    with working(128):
        for level in (BlockProfile(1, (4,)), BlockProfile(1, (2, 2)),
                      BlockProfile(2, (3,))):
            res = a_coefficient(level, PlaceSet.parse("2"))
            assert res.diagnostics["max_disagreement"] < tolerance()


def _vector_refused(*args, **kwargs):
    raise AssertionError("a vector pairing ran on a block route")


def test_block_routes_pair_block_values_only(monkeypatch):
    """The group routes and the continuation check take every pairing from
    prefix sums of the direction's block values: no projection, no block
    permutation of a vector and no line jet of a germ."""
    for name in ("project", "permute_blocks"):
        monkeypatch.setattr(gm, name, _vector_refused)
    monkeypatch.setattr(SmoothGerm, "line_jet", _vector_refused)
    with working(128):
        a_coefficient(BlockProfile(2, (2, 1)), PlaceSet.parse("2"))
        J_o_unit(1, 4)
        expansion(1, 4, PlaceSet.parse("3"))
        assert unit_expansion_residual(1, 3, PlaceSet.parse("2")) < tolerance()
        for P in enumerate_parabolics(1, 3):
            assert max(prolongation_identity_residuals(P, samples=2)) \
                < tolerance()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_continuation_pairings_match_the_vector_pairings(d):
    """On every parabolic P of r <= 7 inner blocks, the pairings over d of
    the upper projection on P with the coweights inside P's blocks (xs)
    and with every inner coweight (ys) equal the vector pairings."""
    for r in range(1, 8):
        direction = draw_generic_direction(d, (r,), seed=r)
        base = base_profile(d, r)
        for P in enumerate_parabolics(d, r):
            upper, _ = project(direction.vector, P)
            xs, ys = coefficients._upper_pairings(P, direction.values)
            assert xs == [pairing(upper, w) / d
                          for w in simple_data(base, P).coweights]
            assert ys == [pairing(upper, w) / d
                          for w in simple_data(base).coweights]


def test_pool_starts_no_more_workers_than_terms(monkeypatch):
    """A fork pool starts all of its workers up front, so expansion asks
    for at most one per group size m = 2..r, and none for a single one."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    with working(128):
        assert len(expansion(1, 3, jobs=64).terms) == 3
        assert started == [2]
        assert len(expansion(1, 2, jobs=64).terms) == 2
    assert started == [2]


@pytest.mark.parametrize("d,small,extra", [(1, "2", "3"), (2, "", "2")])
def test_correction_germ_takes_the_block_routes(monkeypatch, d, small, extra):
    """The tower ratio times the place correction is one tower series,
    and the block routes on it reproduce the coefficient with the larger
    place set, with no enumeration."""
    level = group_profile(d, 3)
    S1 = PlaceSet.parse(small + "," + extra if small else extra)
    with working(192):
        direct = a_coefficient(level, S1).a_value
        tower = (tower_ratio_jet(d, PlaceSet.parse(small), 3)
                 * place_correction(d, extra, 3))
        for name in ("symmetrized_sum", "alternating_sum"):
            monkeypatch.setattr(gm, name, _enumeration_refused)
        direction = draw_generic_direction(d, level.parts, 0)
        via_tower = symmetrized_value(tower, direction).value
        assert abs(direct - via_tower) < mp.mpf("1e-40")


@pytest.mark.parametrize("d,r", [(d, r) for d in range(1, 7)
                                 for r in range(1, 6 // d + 1)])
def test_block_routes_match_their_enumerations(d, r):
    """On every level of (r^d) with d*r <= 6 and several place sets, each
    per-route product of group values that a_coefficient reports agrees
    with the Weyl or parabolic enumeration of phi_for_L(level) along the
    level's own direction."""
    oracles = {
        "symmetrized": gm.symmetrized_sum,
        "alternating-upper": partial(gm.alternating_sum, lower=False),
        "alternating-lower": partial(gm.alternating_sum, lower=True),
    }
    worst = mp.mpf(0)
    with working(256):
        for mu in partitions(r):
            level = BlockProfile(d, mu)
            direction = draw_generic_direction(d, mu, 0)
            for label in ("", "2", "2,3,inf"):
                places = PlaceSet.parse(label)
                routes = a_coefficient(level, places).diagnostics["routes"]
                germ = phi_for_L(level, places)
                for name, oracle in oracles.items():
                    slow = oracle(germ, level, direction).value
                    gap = abs(routes[name] - slow) / max(1, abs(slow))
                    worst = max(worst, gap)
        assert worst < tolerance()
    print(f"\ngroup products vs enumerations, (d, r) = ({d}, {r}): "
          f"worst relative gap {mp.nstr(worst, 3)}")


@pytest.mark.parametrize("places", ["", "2"])
@pytest.mark.parametrize("d,parts", [(1, (3, 2, 1)), (2, (2, 1)),
                                     (1, (2, 2, 1))])
def test_levi_coefficient_is_the_product_of_group_values(d, parts, places):
    """a(d; p_1..p_k) is the product of the group values a(GL(d*p_j)) in
    part order, bit for bit: the routes never run on a Levi level."""
    S = PlaceSet.parse(places)
    with working(256):
        value = a_coefficient(BlockProfile(d, parts), S).a_value
        product = mp.mpf(1)
        for p in parts:
            if p > 1:
                product *= a_coefficient(group_profile(d, p), S).a_value
    assert value == product


def test_expansion_runs_the_routes_once_per_group_size(monkeypatch):
    """expansion(1, 6) has 11 terms but runs the routes on the five
    groups GL(2)..GL(6) only, each once."""
    levels = []
    symmetrized = coefficients.symmetrized_value

    def counting(tower, direction):
        levels.append(direction.parts)
        return symmetrized(tower, direction)

    monkeypatch.setattr(coefficients, "symmetrized_value", counting)
    with working(128):
        assert len(expansion(1, 6).terms) == 11
    assert sorted(levels) == [(m,) for m in range(2, 7)]


def _refused(*args, **kwargs):
    raise AssertionError("a coefficient result was built for a group value")


def test_group_values_build_no_coefficient_result(monkeypatch):
    """A group value is its route values and residuals only: no inducing
    pair and no volume is built for it."""
    for name in ("block_pair", "vol_minimal_levi"):
        monkeypatch.setattr(coefficients, name, _refused)
    with working(128):
        groups = coefficients._group_coefficients(
            1, range(2, 5), EMPTY_PLACES, RATIONAL_FIELD, 0)
    assert sorted(groups) == [2, 3, 4]
    for group in groups.values():
        assert set(group) == {"routes", "residuals"}
        assert tuple(group["routes"]) == ROUTE_NAMES


def _route_references(node) -> int:
    return sum(1 for n in ast.walk(node)
               if getattr(n, "id", getattr(n, "attr", None))
               == "_cross_checked_routes")


def test_routes_run_from_two_places_only():
    """_cross_checked_routes is reached from _group_routes (every
    coefficient) and J_o_unit (the unit value), and from nowhere else."""
    users = {}
    total = 0
    for path in sorted(pathlib.Path(glcoeff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += _route_references(tree)
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and _route_references(func):
                users[f"{path.stem}.{func.name}"] = _route_references(func)
    assert users == {"coefficients._group_routes": 1,
                     "coefficients.J_o_unit": 1}
    assert total == 2


def test_three_routes_agree_on_gl8():
    with working(256):
        res = a_coefficient(group_profile(1, 8))
        assert len(res.diagnostics["routes"]) == 3
        assert res.diagnostics["max_disagreement"] < tolerance()


def test_one_read_off_and_no_unchecked_route():
    """No function of the package takes a `checked` flag, so every route
    reads its pole off through jets.split_pole, and coefficients sums no
    ordering by permutations."""
    for path in sorted(pathlib.Path(glcoeff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs]
                assert "checked" not in names, f"{path.stem}: {node}"
            if isinstance(node, ast.ImportFrom) and path.stem == "coefficients":
                assert "permutations" not in [a.name for a in node.names]
