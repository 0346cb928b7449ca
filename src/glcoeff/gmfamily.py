"""Limit values of alternating parabolic sums along certified generic lines.

Everything here evaluates expressions of the shape

    sum over parabolic levels of  (sign) * phi(projected lambda)
                                  / (products of pairing factors)

restricted to a line lambda = t*lam0 and continued to t = 0.  Each
individual term blows up like t^-k; the sum is analytic, and the code
makes that literal: it adds the numerator jets and `jets.split_pole`
checks that the k lowest coefficients cancel to the tolerance, divides
by t^k once and hands back the constant term.  That constant term is
coefficient k of the sum, so every jet is built to order k + 1 and no
further.

Three independent routes to the same number are provided: two
alternating sums over parabolics (tilde_c, c) and a Weyl-symmetrized sum
(symmetrized_value).  Their agreement is the main correctness instrument
of the package.  arthur_derivative_value, the k-th derivative formula at
one generic point, reads the same coefficient of the same sum as tilde_c
and is kept only as that identity.

The routes run on the group GL(d r) and take the tower series T: phi is
T at rate 1/d times the pairing with each of the r - 1 inner coweights,
the coefficient germ of the package.  Every pairing is a partial sum of
the direction's r block values, so the routes build no vector: the
symmetrized route is a Held-Karp sum over (set of leading inner blocks,
last block), r * 2^r jet products, and the alternating routes are a
chain over the last P-interval, O(r^3) jet operations, whose hat theta
is the product of the interior upper pairings.  Germs go to the
enumerations over the Weyl group and the 2^(r-1) intermediate levels
(symmetrized_sum, alternating_sum), on any level.  They pair vectors
with coweights and share no pairing code with the routes, whose oracles
they are.
`held_karp` is the one ordering sum of the package; the coarse-block
family of `coefficients` runs through it too.

Directions are never trusted to be generic: they are drawn
deterministically from a seed and certified by exact rational
non-vanishing checks, with the certificate kept on the object.  Every
pairing product a route divides by factors into gaps inside one coarse
block, of two values or of the means of two adjacent intervals, so the
certificate is those O(r^3) gaps, not the products of 2^(r-1) levels.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, product
from math import factorial, prod
import random

import mpmath as mp

from .jets import (Jet, LinearFactor, compose_linear, exp_linear_jet,
                   split_pole)
from .numeric import sqrt_fraction, to_mpf
from .rootdata import (BlockProfile, base_profile, block_permutations,
                       compositions, epsilon, hat_theta_factor, pairing,
                       permute_blocks, project, theta_factor)

Q = Fraction


class NotGenericError(ValueError):
    """A candidate direction failed an exact non-vanishing check."""


# ---------------------------------------------------------------------------
# germs


@dataclass(frozen=True)
class SmoothGerm:
    """A finite sum of products of scalar functions of linear forms.

    The enumerations need one capability, line_jet: the Taylor
    expansion of t -> phi(t*lam0) for an arbitrary direction lam0.
    Sums and products of germs are germs again, which is enough to
    build polynomials, exponentials and the coefficient germ the routes
    are checked on.
    """

    terms: tuple[tuple[Fraction, tuple[LinearFactor, ...]], ...]
    label: str = ""

    def line_jet(self, lam0: tuple, order: int) -> Jet:
        total = Jet.polynomial({})
        for coef, factors in self.terms:
            jets = [f.scalar_jet(order) for f in factors]
            rates = [f.rate_scale * pairing(lam0, f.form) for f in factors]
            total = total + compose_linear(jets, rates).scale(coef)
        return total.truncate(order)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "SmoothGerm") -> "SmoothGerm":
        return SmoothGerm(self.terms + other.terms)

    def __mul__(self, other: "SmoothGerm") -> "SmoothGerm":
        out = []
        for ca, fa in self.terms:
            for cb, fb in other.terms:
                out.append((ca * cb, fa + fb))
        return SmoothGerm(tuple(out))

    def scaled(self, c) -> "SmoothGerm":
        c = Q(c)
        return SmoothGerm(tuple((c * coef, fs) for coef, fs in self.terms),
                          self.label)

    # -- constructors -------------------------------------------------------

    @classmethod
    def product(cls, factors, label: str = "") -> "SmoothGerm":
        return cls(((Q(1), tuple(factors)),), label=label)

    @classmethod
    def exp_pairing(cls, form: tuple, scale=1) -> "SmoothGerm":
        f = LinearFactor(partial(exp_linear_jet, 1), tuple(form), Q(scale))
        return cls.product((f,), label="exp")

    @classmethod
    def linear(cls, form: tuple, shift=0) -> "SmoothGerm":
        base = Jet.polynomial({0: Q(shift), 1: 1})
        f = LinearFactor(lambda order: base, tuple(form))
        return cls.product((f,), label="linear")

    @classmethod
    def power(cls, form: tuple, exponent: int) -> "SmoothGerm":
        base = Jet.polynomial({exponent: 1})
        f = LinearFactor(lambda order: base, tuple(form))
        return cls.product((f,), label=f"power{exponent}")


# ---------------------------------------------------------------------------
# generic directions


def levels_between(base: BlockProfile, level: BlockProfile):
    """Standard intermediate profiles base <= P <= level, deterministically
    ordered (per-part compositions, reverse-lex within each part)."""
    for combo in product(*(compositions(p) for p in level.parts)):
        parts = tuple(x for c in combo for x in c)
        yield BlockProfile(level.d, parts)


def _mean_gaps(values) -> dict[tuple[int, int, int], Fraction]:
    """mean(values[s:i]) - mean(values[i:e]) for every s < i < e <= len(values)."""
    prefix = list(accumulate(values, initial=Q(0)))
    return {(s, i, e): ((prefix[i] - prefix[s]) / (i - s)
                        - (prefix[e] - prefix[i]) / (e - i))
            for s, i, e in combinations(range(len(values) + 1), 3)}


@dataclass(frozen=True)
class GenericDirection:
    """A certified direction: one rational value per inner block.

    certificate holds every exact factor the evaluation routes divide
    by, each verified nonzero at draw time: the value gaps and the
    interval-mean gaps inside each coarse block (see certify_direction).
    """

    d: int
    parts: tuple[int, ...]
    values: tuple[Fraction, ...]
    certificate: tuple[tuple[str, Fraction], ...] = field(repr=False)

    @property
    def vector(self) -> tuple[Fraction, ...]:
        return tuple(v for v in self.values for _ in range(self.d))


def certify_direction(d: int, parts: tuple[int, ...],
                      values: tuple[Fraction, ...]):
    """Exact genericity certificate for the given level, or raise.

    Every pairing a route divides by factors into gaps inside one coarse
    block of values v: the symmetrized sum's v_i - v_j, and the alternating
    sums' mean(v[s:i]) - mean(v[i:e]) for s < i < e.  In a P-interval
    [s, e) hat theta pairs boundary i to d (i - s)(e - i)/(e - s) times
    that gap, and theta^level_P pairs adjacent P-blocks [s, i), [i, e) to
    it.  So the C(p, 2) + C(p + 1, 3) gaps of each block of p accept
    exactly the draws the pairing products of all 2^(r-1) levels accept.
    """
    if len(values) != sum(parts):
        raise ValueError("need one value per inner block")
    BlockProfile(d, parts)  # rejects an invalid level
    entries: list[tuple[str, Fraction]] = []
    off = 0
    for b, p in enumerate(parts):
        block = values[off:off + p]
        for i, j in combinations(range(p), 2):
            diff = block[i] - block[j]
            if diff == 0:
                raise NotGenericError(f"values {off + i} and {off + j} "
                                      f"collide inside coarse block {b}")
            entries.append((f"gap[{off + i},{off + j}]", diff))
        for (s, i, e), gap in _mean_gaps(block).items():
            if gap == 0:
                raise NotGenericError(
                    f"means of [{off + s},{off + i}) and [{off + i},{off + e}) "
                    f"coincide inside coarse block {b}")
            entries.append((f"mean[{off + s},{off + i},{off + e}]", gap))
        off += p
    return tuple(entries)


def draw_generic_direction(d: int, parts: tuple[int, ...], seed: int,
                           salt: int = 0) -> GenericDirection:
    """Deterministic certified-generic direction for a level.

    Draws rational candidate values from a seeded generator and keeps
    the first draw that passes the exact certificate; the draw sequence
    is fully determined by (seed, salt, d, parts).
    """
    r = sum(parts)
    rng = random.Random(f"{seed}:{salt}:{d}:{parts}")
    for _ in range(256):
        values = tuple(Q(rng.randint(1, 999) * rng.choice((1, -1)),
                         rng.randint(1, 9)) for _ in range(r))
        try:
            cert = certify_direction(d, parts, values)
        except NotGenericError:
            continue
        return GenericDirection(d, parts, values, cert)
    raise RuntimeError("could not draw a generic direction (seed exhausted)")


# ---------------------------------------------------------------------------
# the evaluation routes


@dataclass(frozen=True)
class RouteValue:
    """Value of one route plus its cancellation residual (0 when the
    route divides by nothing)."""

    value: mp.mpf
    residual: mp.mpf
    route: str


_ALTERNATING = {False: "alternating-upper", True: "alternating-lower"}


def _read_off(jet: Jet, k: int, route: str) -> RouteValue:
    """Coefficient k of the summed jet, the k below it checked to cancel."""
    analytic, residual = split_pole(jet, k, route)
    return RouteValue(analytic.coeff(0), residual, route)


# -- the group routes: functions of the tower series ----------------------


def _group_size(direction: GenericDirection) -> int:
    """The r of a direction certified for the group GL(d r), else
    ValueError: the routes never run on a Levi level."""
    r = len(direction.values)
    if direction.parts != (r,):
        raise ValueError("the routes take a direction certified for the group")
    return r


def _jet_sum(jets) -> Jet:
    total = Jet.polynomial({})
    for jet in jets:
        total = total + jet
    return total


def held_karp(values, after) -> Jet:
    """Sum over the orderings w of the blocks of prod_j after(S_j)(w_j),
    S_j the set of blocks before position j, over the product of the
    consecutive gaps v_(w_j) - v_(w_(j+1)).

    The sum over the orderings of S + {m} that end in m is F(S + {m}, m) =
    after(S)(m) * sum over l in S of F(S, l) / (v_l - v_m) (Held & Karp,
    J. SIAM 10, 1962): r * 2^r jet products instead of r! * r, and one
    after(S) call per set S.
    """
    r = len(values)
    inv_gap = [[1 / to_mpf(values[l] - values[m]) if l != m else None
                for m in range(r)] for l in range(r)]
    layer: dict[int, dict[int, Jet]] = {0: {}}
    for _ in range(r):
        grown: dict[int, dict[int, Jet]] = {}
        for S, ends in layer.items():
            factor = after(S)
            for m in range(r):
                if S >> m & 1:
                    continue
                jet = factor(m)
                if ends:
                    jet = _jet_sum(F.scale(inv_gap[l][m])
                                   for l, F in ends.items()) * jet
                grown.setdefault(S | 1 << m, {})[m] = jet
        layer = grown
    (ends,) = layer.values()
    return _jet_sum(ends.values())


def _boundary_jet(tower: Jet, d: int, r: int,
                  pairings: dict[int, Fraction]) -> Jet:
    """Jet of the product, over the inner boundaries 0 < i < r of
    `pairings` in order, of the tower at rate 1/d times the pairing of
    lambda with coweight i that `pairings` holds.  The outer boundaries 0
    and r carry no coweight and contribute nothing."""
    inner = [x for i, x in pairings.items() if 0 < i < r]
    return compose_linear([tower] * len(inner), [x / d for x in inner])


def leading_pairing(d: int, values, S: int) -> Fraction:
    """The pairing of w lam with the coweight of boundary |S|, along any
    ordering w of the inner blocks that puts the set S first:
    d (sum of the values v over S - |S| mean v)."""
    inside = [v for m, v in enumerate(values) if S >> m & 1]
    mean = sum(values, Q(0)) / len(values)
    return d * (sum(inside, Q(0)) - len(inside) * mean)


def interval_pairings(d: int, prefix, s: int, e: int):
    """({i: upper pairing}, {i: lower pairing}) of the coweights of the
    boundaries i in (s, e] with the projections of lam on the level that
    merges the inner blocks [s, e) alone, from the prefix sums P of lam's
    block values (P_0 = 0 .. P_r).  With m = (P_e - P_s) / (e - s) they
    are d (P_i - P_s - (i - s) m), zero at i = e, and
    d (P_s + (i - s) m - i P_r / r)."""
    m = (prefix[e] - prefix[s]) / (e - s)
    mean = prefix[-1] / (len(prefix) - 1)
    ups = {i: d * (prefix[i] - prefix[s] - (i - s) * m)
           for i in range(s + 1, e + 1)}
    return ups, {i: d * (prefix[s] + (i - s) * m - i * mean) for i in ups}


def symmetrized_value(tower: Jet, direction: GenericDirection) -> RouteValue:
    """Limit at 0 of the Weyl average of the tower product over the
    permuted pairing product, on the group's r inner blocks.

    In an ordering w of the blocks, the coweight of boundary i pairs w lam
    through the set S of the first i inner blocks only (leading_pairing),
    and theta is the product of consecutive gaps.  So held_karp sums the
    orderings, a block after S bringing the boundary-|S| tower at that
    pairing along any w that puts S first.
    """
    r = _group_size(direction)
    d, values = direction.d, direction.values

    def after(S):
        jet = _boundary_jet(tower, d, r,
                            {S.bit_count(): leading_pairing(d, values, S)})
        return lambda m: jet

    covol = sqrt_fraction(Q(d * r, d ** r))
    block = held_karp(values, after).scale(covol / factorial(r)).truncate(r)
    return _read_off(block, r - 1, "symmetrized")


def _alternating(tower: Jet, direction: GenericDirection,
                 lower: bool) -> RouteValue:
    """Alternating sum over the compositions of the group's r inner blocks,
    as a chain over the P-intervals [s, e).

    The towers of the boundaries in (s, e] pair the projection of lam
    through the interval alone: the upper part vanishes on the other
    intervals, and the lower part keeps the prefix sums of lam at every
    P-boundary.  So their pairings are those of the level P_I that merges
    [s, e) only, partial sums of the values (interval_pairings), and the
    rational part of hat theta of P_I is the product of the interior upper
    pairings.  Hat theta, the covolumes and the signs are products over
    the intervals, and theta^group_P couples adjacent intervals through
    the gap of their means.  With one state per last interval that is
    O(r^3) jet operations instead of 2^(r-1) line jets.
    """
    r = _group_size(direction)
    d, values = direction.d, direction.values
    prefix = list(accumulate(values, initial=Q(0)))
    gaps = _mean_gaps(values)
    chain: dict[tuple[int, int], Jet] = {}
    for e in range(1, r + 1):
        for s in range(e):
            size = e - s
            ups, lows = interval_pairings(d, prefix, s, e)
            jet = _boundary_jet(tower, d, r, lows if lower else ups)
            # hat theta of P_I (Gram determinant d^size / (d * size)) times
            # the interval's share 1/(d * size) of the theta^group_P Gram
            # determinant
            hat = prod((ups[i] for i in range(s + 1, e)), start=Q(1))
            weight = sqrt_fraction(Q(d ** size, (d * size) ** 2)) / to_mpf(hat)
            if lower and size % 2 == 0:
                weight = -weight  # epsilon(P_0, P), one interval at a time
            if s:
                # epsilon(P, group) gives each upper link a sign
                jet = jet * _jet_sum(
                    chain[t, s].scale(1 / to_mpf(
                        gaps[t, s, e] if lower else -gaps[t, s, e]))
                    for t in range(s))
            chain[s, e] = jet.scale(weight)
    block = _jet_sum(chain[s, r] for s in range(r))
    block = block.scale(sqrt_fraction(Q(d * r))).truncate(r)
    return _read_off(block, r - 1, _ALTERNATING[lower])


def tilde_c(tower: Jet, direction: GenericDirection) -> RouteValue:
    """Limit at 0 of the alternating sum pairing the tower with the upper
    (block-mean-free) projections."""
    return _alternating(tower, direction, False)


def c(tower: Jet, direction: GenericDirection) -> RouteValue:
    """Limit at 0 of the alternating sum pairing the tower with the lower
    (block-mean) projections."""
    return _alternating(tower, direction, True)


def arthur_derivative_value(tower: Jet,
                            direction: GenericDirection) -> RouteValue:
    """tilde_c's value relabelled "derivative", with residual 0: the k-th
    derivative formula at one generic point reads the same coefficient of
    the same sum, so it is no independent route and no cross-check runs
    it.  The benchmark's tracer still wraps it by name."""
    return RouteValue(tilde_c(tower, direction).value, mp.mpf(0),
                      "derivative")


# -- the enumerations: the germ API, and the oracles of the routes -----------


def _pole_order(level: BlockProfile) -> int:
    return level.r - level.k


def _check_direction(direction: GenericDirection, level: BlockProfile) -> None:
    if (direction.d, direction.parts) != (level.d, level.parts):
        raise ValueError("direction was certified for a different level")


def alternating_sum(germ: SmoothGerm, level: BlockProfile,
                    direction: GenericDirection, lower: bool) -> RouteValue:
    """Limit at 0 of the alternating sum over the intermediate levels of
    phi on the upper (lower: block-mean) projections of the line."""
    _check_direction(direction, level)
    d = level.d
    base = base_profile(d, level.r)
    k = _pole_order(level)
    lam0 = direction.vector
    total = Jet.polynomial({})
    for P in levels_between(base, level):
        hat = hat_theta_factor(base, P)
        th = theta_factor(P, level)
        if hat.degree + th.degree != k:
            raise RuntimeError(f"pairing products of degree {hat.degree} + "
                               f"{th.degree} at {P.parts}, pole order {k}")
        rat = hat.rational_part(lam0) * th.rational_part(lam0)
        sign = epsilon(base, P) if lower else epsilon(P, level)
        upper, low_part = project(lam0, P)
        jet = germ.line_jet(low_part if lower else upper, k + 1)
        scalar = sign * hat.covolume() * th.covolume() / to_mpf(rat)
        total = total + jet.scale(scalar)
    return _read_off(total, k, _ALTERNATING[lower])


def symmetrized_sum(germ: SmoothGerm, level: BlockProfile,
                    direction: GenericDirection) -> RouteValue:
    """Limit at 0 of the Weyl average of phi(w lam) over the permuted
    pairing product."""
    _check_direction(direction, level)
    d = level.d
    base = base_profile(d, level.r)
    th0 = theta_factor(base, level)
    k = th0.degree
    if k != _pole_order(level):
        raise RuntimeError(f"pairing product of degree {k}, pole order "
                           f"{_pole_order(level)} at {level.parts}")
    lam0 = direction.vector
    covol = th0.covolume()
    perms = list(block_permutations(level.parts))
    total = Jet.polynomial({})
    for sigma in perms:
        wlam = permute_blocks(d, sigma, lam0)
        rat = th0.rational_part(wlam)
        jet = germ.line_jet(wlam, k + 1)
        total = total + jet.scale(covol / to_mpf(rat))
    return _read_off(total.scale(Q(1, len(perms))), k, "symmetrized")
