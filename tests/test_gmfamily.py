"""Tests for the germ evaluation engine: the three limit routes on a tower
series, the enumerations that take any germ, genericity certificates,
and the structural invariants that tie them together."""

import random
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb

import mpmath as mp
import pytest

from glcoeff import gmfamily as gm
from glcoeff import jets
from glcoeff.gmfamily import (
    GenericDirection,
    NotGenericError,
    SmoothGerm,
    alternating_sum,
    arthur_derivative_value,
    c,
    certify_direction,
    draw_generic_direction,
    levels_between,
    symmetrized_sum,
    symmetrized_value,
    tilde_c,
)
from glcoeff.jets import CancellationError, Jet, LinearFactor
from glcoeff.numeric import to_mpf, tolerance, working
from glcoeff.rootdata import (BlockProfile, base_profile, block_permutations,
                              compositions, hat_theta_factor, pairing,
                              permute_blocks, project, simple_data,
                              theta_factor)

Q = Fraction


def upper_sum(germ, level, direction):
    return alternating_sum(germ, level, direction, False)


def lower_sum(germ, level, direction):
    return alternating_sum(germ, level, direction, True)


# the germ API: the three enumerations, on any germ and any level
ENUMERATIONS = (upper_sum, lower_sum, symmetrized_sum)
# the routes on a tower series, each with the enumeration it replaces
ORACLES = {tilde_c: upper_sum, c: lower_sum,
           symmetrized_value: symmetrized_sum}


def value_at_zero(germ):
    """The germ evaluated at the origin, term by term."""
    acc = mp.mpf(0)
    for coef, factors in germ.terms:
        term = to_mpf(coef)
        for f in factors:
            term *= f.scalar_jet(1).coeff(0)
        acc += term
    return acc


def block_permuted(germ, d, sigma):
    """The germ composed with the block permutation sigma."""
    return SmoothGerm(tuple(
        (coef, tuple(LinearFactor(f.scalar_jet,
                                  permute_blocks(d, sigma, f.form),
                                  f.rate_scale) for f in factors))
        for coef, factors in germ.terms), germ.label)


def random_germ(rng, n):
    """A small random smooth germ on n coordinates: a two-term combination
    of exponentials, shifted linear factors, and monomial powers."""
    def form():
        return tuple(Q(rng.randint(-4, 4)) for _ in range(n))

    def atom():
        kind = rng.randrange(3)
        if kind == 0:
            return SmoothGerm.exp_pairing(form())
        if kind == 1:
            return SmoothGerm.linear(form(), shift=rng.randint(1, 4))
        return SmoothGerm.power(form(), rng.randint(0, 2))

    first = atom() * atom()
    second = atom().scaled(Q(rng.randint(-3, 3), rng.randint(1, 3)))
    return first + second


def spread(values):
    scale = max(mp.mpf(1), max(abs(v) for v in values))
    return max(abs(a - b) for a in values for b in values) / scale


def test_constant_germ_gives_zero_in_gl2():
    level = BlockProfile(1, (2,))
    direction = draw_generic_direction(1, (2,), seed=1)
    germ = SmoothGerm(((Q(7, 3), ()),))
    with working(128):
        for route in ENUMERATIONS:
            assert abs(route(germ, level, direction).value) < mp.mpf(2) ** -100


def test_exponential_germ_gives_sqrt2_in_gl2():
    """The standard rank-one example: the exponential of the pairing with
    (1, -1) evaluates to sqrt(2) under every route."""
    level = BlockProfile(1, (2,))
    direction = draw_generic_direction(1, (2,), seed=1)
    germ = SmoothGerm.exp_pairing((Q(1), Q(-1)))
    with working(128):
        target = mp.sqrt(2)
        for route in ENUMERATIONS:
            assert abs(route(germ, level, direction).value - target) < mp.mpf(10) ** -30


def test_trivial_level_returns_germ_value_at_zero():
    # At the minimal level there is nothing to collapse, so every route
    # degenerates to plain evaluation at the origin.
    level = BlockProfile(2, (1, 1))
    direction = draw_generic_direction(2, (1, 1), seed=2)
    germ = SmoothGerm.exp_pairing((Q(1), Q(1), Q(-2), Q(0))) * SmoothGerm.linear(
        (Q(1), Q(0), Q(0), Q(-1)), shift=3
    )
    with working(128):
        exact = value_at_zero(germ)
        assert exact == 3
        for route in ENUMERATIONS:
            assert abs(route(germ, level, direction).value - 3) < mp.mpf(10) ** -30


@pytest.mark.parametrize(
    "d,parts",
    [(1, (2,)), (1, (3,)), (2, (2,)), (1, (2, 1)), (1, (2, 2)), (3, (2,)), (2, (2, 1))],
)
def test_route_agreement_on_random_germs(d, parts):
    """All four limit routes agree on seeded random germs."""
    rng = random.Random(f"{d}:{parts}:20240814")
    level = BlockProfile(d, parts)
    n = d * sum(parts)
    direction = draw_generic_direction(d, parts, seed=11)
    with working(160):
        for _ in range(3):
            germ = random_germ(rng, n)
            values = [route(germ, level, direction).value
                      for route in ENUMERATIONS]
            assert spread(values) < mp.mpf(10) ** -30


def test_value_independent_of_direction():
    level = BlockProfile(1, (3, 2))
    rng = random.Random(99)
    germ = random_germ(rng, 5)
    with working(160):
        first = draw_generic_direction(1, (3, 2), seed=4, salt=0)
        second = draw_generic_direction(1, (3, 2), seed=4, salt=1)
        assert first.values != second.values
        a = upper_sum(germ, level, first).value
        b = upper_sum(germ, level, second).value
        assert abs(a - b) < mp.mpf(10) ** -30 * max(1, abs(a))


def test_value_independent_of_direction_scaling():
    # The limit is taken along a ray, so rescaling the direction vector by a
    # positive rational changes nothing at all.
    level = BlockProfile(1, (2, 2))
    rng = random.Random(5)
    germ = random_germ(rng, 4)
    with working(128):
        base = draw_generic_direction(1, (2, 2), seed=8)
        scaled_values = tuple(v * Q(3, 2) for v in base.values)
        scaled = GenericDirection(
            1, (2, 2), scaled_values, certify_direction(1, (2, 2), scaled_values)
        )
        a = upper_sum(germ, level, base).value
        b = upper_sum(germ, level, scaled).value
        assert abs(a - b) < mp.mpf(2) ** -100


@pytest.mark.parametrize("d,parts", [(1, (3,)), (1, (2, 2))])
def test_symmetrized_value_invariant_under_direction_permutation(d, parts):
    """The symmetrized sum is a symmetric function of the direction: permuting
    the block values of the ray leaves the value unchanged."""
    level = BlockProfile(d, parts)
    rng = random.Random(f"{d}:{parts}:77")
    germ = random_germ(rng, d * sum(parts))
    with working(128):
        base = draw_generic_direction(d, parts, seed=6)
        reference = symmetrized_sum(germ, level, base).value
        for sigma in block_permutations(parts):
            values = tuple(base.values[sigma[i]] for i in range(len(sigma)))
            moved = GenericDirection(
                d, parts, values, certify_direction(d, parts, values)
            )
            got = symmetrized_sum(germ, level, moved).value
            assert abs(got - reference) < mp.mpf(10) ** -30 * max(1, abs(reference))


def test_routes_agree_on_block_permuted_germs():
    # Precomposing the germ with a block permutation changes the value in
    # general (the functional is not symmetric in its argument), but the four
    # routes must keep agreeing with one another on the permuted germ.
    level = BlockProfile(1, (3,))
    germ = SmoothGerm.exp_pairing((Q(1), Q(-2), Q(1))) * SmoothGerm.linear(
        (Q(2), Q(0), Q(-1)), shift=3
    )
    direction = draw_generic_direction(1, (3,), seed=1)
    with working(128):
        reference = upper_sum(germ, level, direction).value
        seen_different = False
        for sigma in block_permutations((3,)):
            moved = block_permuted(germ, 1, sigma)
            values = [route(moved, level, direction).value
                      for route in ENUMERATIONS]
            assert spread(values) < mp.mpf(10) ** -30
            if abs(values[0] - reference) > mp.mpf("1e-6"):
                seen_different = True
        assert seen_different


def test_functional_is_linear():
    level = BlockProfile(1, (3,))
    direction = draw_generic_direction(1, (3,), seed=3)
    rng = random.Random(17)
    f, g = random_germ(rng, 3), random_germ(rng, 3)
    with working(128):
        vf = upper_sum(f, level, direction).value
        vg = upper_sum(g, level, direction).value
        combined = upper_sum(f + g.scaled(Q(-5, 2)), level, direction).value
        assert abs(combined - (vf - Q(5, 2) * vg)) < mp.mpf(10) ** -30


def test_homogeneous_degree_selection():
    """Only the homogeneous part of degree equal to the collapsed rank
    contributes; every other pure power evaluates to zero."""
    level = BlockProfile(1, (3,))
    direction = draw_generic_direction(1, (3,), seed=5)
    form = (Q(3), Q(-1), Q(2))
    with working(128):
        for degree in range(5):
            germ = SmoothGerm.power(form, degree)
            value = upper_sum(germ, level, direction).value
            if degree == 2:
                assert abs(value) > mp.mpf("1e-6")
            else:
                assert abs(value) < mp.mpf(2) ** -100


def test_draws_are_deterministic_and_salted():
    a = draw_generic_direction(2, (2, 1), seed=42)
    b = draw_generic_direction(2, (2, 1), seed=42)
    assert a == b
    assert a.values != draw_generic_direction(2, (2, 1), seed=42, salt=1).values
    assert len(a.values) == 3
    assert len(a.vector) == 6
    assert a.vector[0] == a.vector[1] == a.values[0]


def test_certificate_entries_are_exact_and_nonzero():
    direction = draw_generic_direction(1, (2, 2), seed=9)
    assert direction.certificate
    for label, witness in direction.certificate:
        assert isinstance(witness, Fraction)
        assert witness != 0
        assert isinstance(label, str) and label


def test_colliding_block_values_are_rejected():
    with pytest.raises(NotGenericError):
        certify_direction(1, (3,), (Q(1), Q(1), Q(2)))
    with pytest.raises(NotGenericError):
        certify_direction(2, (2,), (Q(5), Q(5)))
    # distinct within each coarse block is fine even if blocks repeat a value
    certify_direction(1, (2, 2), (Q(1), Q(2), Q(1), Q(2)))


def _level_products_nonzero(d, parts, values):
    """The certificate as the alternating enumerations state it: distinct
    values within each coarse block, and a nonzero hat theta and theta
    pairing product at every intermediate level."""
    level, base = BlockProfile(d, parts), base_profile(d, sum(parts))
    vec = tuple(v for v in values for _ in range(d))
    off = 0
    for p in parts:
        block = values[off:off + p]
        if len(set(block)) < p:
            return False
        off += p
    return all(hat_theta_factor(base, P).rational_part(vec)
               * theta_factor(P, level).rational_part(vec) != 0
               for P in levels_between(base, level))


def test_gap_certificate_matches_level_products():
    """On every composition of r <= 6, with values from a small range so
    that coincident values and interval means are common, the gap
    certificate accepts exactly the draws the level products accept."""
    rng = random.Random(20261018)
    rejected = accepted = 0
    for d in (1, 2):
        for r in range(1, 7):
            for parts in compositions(r):
                for _ in range(12):
                    values = tuple(Q(rng.randint(-3, 3), rng.randint(1, 2))
                                   for _ in range(r))
                    try:
                        certify_direction(d, parts, values)
                        passed = True
                    except NotGenericError:
                        passed = False
                    assert passed == _level_products_nonzero(d, parts, values), \
                        (d, parts, values)
                    rejected += not passed
                    accepted += passed
    assert rejected > 0 and accepted > 0
    print(f"\ngap certificate: {accepted} accepted, {rejected} rejected")


@pytest.mark.parametrize("d,parts", [(1, (1,)), (1, (4,)), (2, (3, 2)),
                                     (1, (2, 1, 3)), (3, (5,))])
def test_certificate_has_value_and_mean_gaps_per_block(d, parts):
    """Each coarse block of p inner blocks certifies its C(p, 2) value gaps
    and its C(p + 1, 3) interval-mean gaps, whatever the other blocks."""
    direction = draw_generic_direction(d, parts, seed=5)
    assert len(direction.certificate) == sum(comb(p, 2) + comb(p + 1, 3)
                                             for p in parts)


def test_wrong_value_count_is_rejected():
    with pytest.raises(ValueError):
        certify_direction(1, (3,), (Q(1), Q(2)))


def test_direction_level_mismatch_is_rejected():
    direction = draw_generic_direction(1, (2, 1), seed=1)
    germ = SmoothGerm(((Q(1), ()),))
    for route in ENUMERATIONS:
        with pytest.raises(ValueError):
            route(germ, BlockProfile(1, (3,)), direction)


def test_unachievable_tolerance_raises(monkeypatch):
    level = BlockProfile(1, (3,))
    germ = SmoothGerm.exp_pairing((Q(1), Q(-2), Q(1))) * SmoothGerm.linear(
        (Q(2), Q(0), Q(-1)), shift=3
    )
    direction = draw_generic_direction(1, (3,), seed=1)
    with working(128):
        residual = upper_sum(germ, level, direction).residual
        assert residual > 0
        monkeypatch.setattr(jets, "tolerance", lambda: mp.mpf(0))
        with pytest.raises(CancellationError):
            upper_sum(germ, level, direction)


def random_tower(rng, r):
    """A random tower series to order r: rational coefficients, and a
    constant term other than 1."""
    coeffs = {k: Q(rng.randint(-9, 9), rng.randint(1, 5)) for k in range(r)}
    coeffs[0] = Q(rng.randint(14, 40), 13)
    return Jet.polynomial(coeffs).truncate(r)


def tower_germ(tower, level):
    """The product germ "tower at rate 1/d on every coweight" of (base,
    level): the coefficient germ, with the tower in place of T."""
    coweights = simple_data(base_profile(level.d, level.r), level).coweights
    return SmoothGerm.product(LinearFactor(tower.truncate, w, Q(1, level.d))
                              for w in coweights)


@pytest.mark.parametrize(
    "d,parts",
    [(1, (2,)), (1, (4,)), (2, (3,)), (1, (3, 2)), (1, (2, 1, 3)), (2, (2, 2)),
     (3, (1, 2))],
)
def test_block_routes_match_their_enumerations_on_product_germs(d, parts):
    """On the group each route on a random tower series equals the
    permutation or composition sum it replaces, on the product germ of that
    tower.  A Levi level has no route: its product germs take the
    enumerations, and they agree."""
    rng = random.Random(f"{d}:{parts}:product")
    level = BlockProfile(d, parts)
    direction = draw_generic_direction(d, parts, seed=3)
    with working(160):
        for _ in range(3):
            tower = random_tower(rng, level.r)
            germ = tower_germ(tower, level)
            if len(parts) > 1:
                values = [enumeration(germ, level, direction).value
                          for enumeration in ENUMERATIONS]
                assert spread(values) < tolerance()
                continue
            for route, oracle in ORACLES.items():
                fast = route(tower, direction).value
                slow = oracle(germ, level, direction).value
                assert abs(fast - slow) < tolerance() * max(1, abs(slow)), route


def test_germ_off_the_coweights_takes_the_enumeration():
    """The routes take a tower series only, so a germ with one factor on a
    root instead of a coweight takes the enumerations, and they agree; the
    extra factor moves the value off the route value of the tower."""
    level = BlockProfile(1, (4,))
    direction = draw_generic_direction(1, (4,), seed=2)
    with working(160):
        tower = random_tower(random.Random(2), 4)
        germ = tower_germ(tower, level) * SmoothGerm.linear(
            (Q(1), Q(-1), Q(0), Q(0)), shift=2)
        values = [enumeration(germ, level, direction).value
                  for enumeration in ENUMERATIONS]
        assert spread(values) < tolerance()
        route = tilde_c(tower, direction).value
        assert abs(values[0] - route) > mp.mpf("1e-6") * max(1, abs(route))


def test_block_routes_check_cancellation(monkeypatch):
    """The route jet of a tower series must cancel below its pole order;
    the derivative identity reports no residual of its own."""
    direction = draw_generic_direction(1, (4,), seed=1)
    with working(128):
        tower = random_tower(random.Random(4), 4)
        assert tilde_c(tower, direction).residual > 0
        assert arthur_derivative_value(tower, direction).residual == 0
        monkeypatch.setattr(jets, "tolerance", lambda: mp.mpf(0))
        for route in ORACLES:
            with pytest.raises(CancellationError):
                route(tower, direction)


def test_derivative_route_is_tilde_c_read_unchecked():
    """arthur_derivative_value is tilde_c's value relabelled, with
    residual 0."""
    rng = random.Random(8)
    with working(160):
        for d, r in ((1, 4), (2, 3)):
            tower = random_tower(rng, r)
            direction = draw_generic_direction(d, (r,), seed=2)
            derivative = arthur_derivative_value(tower, direction)
            assert derivative.value == tilde_c(tower, direction).value
            assert derivative.residual == 0
            assert derivative.route == "derivative"


@pytest.mark.parametrize("r", range(2, 7))
def test_routes_are_homogeneous_of_degree_r_minus_1_in_the_tower(r):
    """Each inner boundary 0 < i < r brings one tower factor and the outer
    boundaries 0 and r none, so scaling the tower by c scales every route
    by c^(r-1); a factor on an outer boundary would make it c^r.  A
    direction certified for a Levi level is rejected."""
    rng = random.Random(f"scale:{r}")
    direction = draw_generic_direction(1, (r,), seed=r)
    levi = draw_generic_direction(1, (r - 1, 1), seed=r)
    factor = Q(5, 3)
    with working(160):
        tower = random_tower(rng, r)
        for route in ORACLES:
            plain = route(tower, direction).value
            assert abs(plain) > mp.mpf("1e-6")
            target = to_mpf(factor) ** (r - 1) * plain
            scaled = route(tower.scale(factor), direction).value
            assert abs(scaled - target) < tolerance() * max(1, abs(target))
            with pytest.raises(ValueError):
                route(tower, levi)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_prefix_sum_pairings_match_the_vector_pairings(d):
    """The block routes pair lambda with coweights through partial sums of
    the block values; the enumerations pair vectors.  For r <= 7, every set
    S of leading blocks pairs the permuted vector with the coweight of
    boundary |S|, and every interval [s, e) pairs the upper and lower
    projections on the level merging [s, e) alone with the coweights of
    the boundaries in (s, e], exactly as the vectors do.  The outer
    boundaries 0 and r carry no coweight and pair to zero."""
    checked = 0
    for r in range(1, 8):
        direction = draw_generic_direction(d, (r,), seed=r)
        lam, values = direction.vector, direction.values
        zero = (Q(0),) * (d * r)
        coweights = (zero,) + simple_data(base_profile(d, r)).coweights + (zero,)
        for S in range(1 << r):
            sigma = tuple(sorted(range(r), key=lambda m: not S >> m & 1))
            assert gm.leading_pairing(d, values, S) == pairing(
                permute_blocks(d, sigma, lam), coweights[S.bit_count()])
            checked += 1
        prefix = list(accumulate(values, initial=Q(0)))
        for s, e in combinations(range(r + 1), 2):
            merged = BlockProfile(d, (1,) * s + (e - s,) + (1,) * (r - e))
            upper, lower = project(lam, merged)
            ups, lows = gm.interval_pairings(d, prefix, s, e)
            assert list(ups) == list(lows) == list(range(s + 1, e + 1))
            for i in ups:
                assert ups[i] == pairing(upper, coweights[i])
                assert lows[i] == pairing(lower, coweights[i])
                checked += 2
    print(f"\nd={d}: {checked} exact pairings")
