"""Limit values of alternating parabolic sums along certified generic lines.

Everything here evaluates expressions of the shape

    sum over parabolic levels of  (sign) * phi(projected lambda)
                                  / (products of pairing factors)

restricted to a line lambda = t*lam0 and continued to t = 0.  Each
individual term blows up like t^-k; the sum is analytic, and the code
makes that literal: it adds the numerator jets, checks that the k
lowest coefficients cancel to working precision, divides by t^k once
and reads the constant term.  That constant term is coefficient k of
the sum, so every line jet is built to order k + 1 and no further.

Four routes to the same number are provided (two alternating sums over
parabolics, a Weyl-symmetrized sum, and a k-th derivative formula
evaluated at a single generic point).  Three are independent: the
derivative route reads coefficient k of the same upper alternating sum
as tilde_c, so the two agree bit for bit.  The agreement of the routes
is the main correctness instrument of the package.

Directions are never trusted to be generic: they are drawn
deterministically from a seed and certified by exact rational
non-vanishing checks, with the certificate kept on the object.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
import random

import mpmath as mp

from .jets import (CancellationError, Jet, LinearFactor, compose_linear,
                   split_monomial)
from .numeric import to_mpf, tolerance
from .rootdata import (BlockProfile, base_profile, block_permutations,
                       compositions, epsilon, hat_theta_factor, pairing,
                       permute_blocks, project, theta_factor)

Q = Fraction


class NotGenericError(ValueError):
    """A candidate direction failed an exact non-vanishing check."""


# ---------------------------------------------------------------------------
# germs


def _exp_unit_jet(order: int) -> Jet:
    out = [mp.mpf(1)]
    for k in range(1, order):
        out.append(out[-1] / k)
    return Jet(0, tuple(out), order)


@dataclass(frozen=True)
class SmoothGerm:
    """A finite sum of products of scalar functions of linear forms.

    The only capability required downstream is line_jet: the Taylor
    expansion of t -> phi(t*lam0) for an arbitrary direction lam0.
    Sums and products of germs are germs again, which is enough to
    build polynomials, exponentials and the zeta-tower products the
    coefficient formulas use.
    """

    terms: tuple[tuple[Fraction, tuple[LinearFactor, ...]], ...]
    label: str = ""

    def line_jet(self, lam0: tuple, order: int) -> Jet:
        total = Jet.polynomial({})
        for coef, factors in self.terms:
            jet = compose_linear(factors, lam0, order)
            total = total + jet.scale(coef)
        return total.truncate(order)

    def value_at_zero(self):
        acc = mp.mpf(0)
        for coef, factors in self.terms:
            prod = to_mpf(coef)
            for f in factors:
                prod *= f.scalar_jet(1).coeff(0)
            acc += prod
        return acc

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

    def block_permuted(self, d: int, sigma: tuple[int, ...]) -> "SmoothGerm":
        """The germ composed with the block permutation sigma."""
        out = []
        for coef, factors in self.terms:
            moved = tuple(
                LinearFactor(f.scalar_jet, permute_blocks(d, sigma, f.form),
                             f.rate_scale)
                for f in factors)
            out.append((coef, moved))
        return SmoothGerm(tuple(out), self.label)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "SmoothGerm":
        return cls(((Q(c), ()),), label=f"const({c})")

    @classmethod
    def product(cls, factors, label: str = "") -> "SmoothGerm":
        return cls(((Q(1), tuple(factors)),), label=label)

    @classmethod
    def exp_pairing(cls, form: tuple, scale=1) -> "SmoothGerm":
        f = LinearFactor(_exp_unit_jet, tuple(form), Q(scale))
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


@dataclass(frozen=True)
class GenericDirection:
    """A certified direction: one rational value per inner block.

    certificate holds every exact pairing the evaluation routes divide
    by, each verified nonzero at draw time.
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

    Checks, in order: pairwise distinct values within each coarse block
    (the symmetrized sum divides by every permuted pairing product), and
    for every intermediate profile the two pairing products appearing in
    the alternating sums.
    """
    r = sum(parts)
    if len(values) != r:
        raise ValueError("need one value per inner block")
    level = BlockProfile(d, parts)
    base = base_profile(d, r)
    vec = tuple(v for v in values for _ in range(d))
    entries: list[tuple[str, Fraction]] = []
    off = 0
    for b, p in enumerate(parts):
        for i, j in combinations(range(off, off + p), 2):
            diff = values[i] - values[j]
            if diff == 0:
                raise NotGenericError(
                    f"values {i} and {j} collide inside coarse block {b}")
            entries.append((f"gap[{i},{j}]", diff))
        off += p
    for P in levels_between(base, level):
        rat_hat = hat_theta_factor(base, P).rational_part(vec)
        if rat_hat == 0:
            raise NotGenericError(f"dual pairing product vanishes at {P.parts}")
        entries.append((f"dual{P.parts}", rat_hat))
        rat_th = theta_factor(P, level).rational_part(vec)
        if rat_th == 0:
            raise NotGenericError(f"pairing product vanishes at {P.parts}")
        entries.append((f"prim{P.parts}", rat_th))
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
# the four evaluation routes


@dataclass(frozen=True)
class RouteValue:
    """Value of one route plus its cancellation residual (0 when the
    route divides by nothing)."""

    value: mp.mpf
    residual: mp.mpf
    route: str


def _pole_order(level: BlockProfile) -> int:
    return level.r - level.k


def _read_off(total: Jet, k: int, route: str) -> RouteValue:
    analytic, residual = split_monomial(total, k)
    if residual > tolerance():
        raise CancellationError(residual, where=route)
    return RouteValue(analytic.coeff(0), residual, route)


def _alternating(germ: SmoothGerm, level: BlockProfile,
                 direction: GenericDirection, lower: bool) -> RouteValue:
    d = level.d
    base = base_profile(d, level.r)
    if (direction.d, direction.parts) != (d, level.parts):
        raise ValueError("direction was certified for a different level")
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
    route = "alternating-lower" if lower else "alternating-upper"
    return _read_off(total, k, route)


def tilde_c(germ: SmoothGerm, level: BlockProfile,
            direction: GenericDirection) -> RouteValue:
    """Limit at 0 of the alternating sum pairing phi with the upper
    (block-mean-free) projections."""
    return _alternating(germ, level, direction, lower=False)


def c(germ: SmoothGerm, level: BlockProfile,
      direction: GenericDirection) -> RouteValue:
    """Limit at 0 of the alternating sum pairing phi with the lower
    (block-mean) projections."""
    return _alternating(germ, level, direction, lower=True)


def symmetrized_value(germ: SmoothGerm, level: BlockProfile,
                      direction: GenericDirection) -> RouteValue:
    """Limit at 0 of the Weyl average of phi(w lam) over the permuted
    pairing product."""
    d = level.d
    base = base_profile(d, level.r)
    if (direction.d, direction.parts) != (d, level.parts):
        raise ValueError("direction was certified for a different level")
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
    total = total.scale(Q(1, len(perms)))
    return _read_off(total, k, "symmetrized")


def arthur_derivative_value(germ: SmoothGerm, level: BlockProfile,
                            direction: GenericDirection) -> RouteValue:
    """The k-th derivative formula at one generic point: no limit and
    no cancellation, hence no residual."""
    d = level.d
    base = base_profile(d, level.r)
    if (direction.d, direction.parts) != (d, level.parts):
        raise ValueError("direction was certified for a different level")
    k = _pole_order(level)
    lam0 = direction.vector
    acc = mp.mpf(0)
    for P in levels_between(base, level):
        hat = hat_theta_factor(base, P)
        th = theta_factor(P, level)
        rat = hat.rational_part(lam0) * th.rational_part(lam0)
        sign = epsilon(P, level)
        upper, _ = project(lam0, P)
        jet = germ.line_jet(upper, k + 1)
        acc += sign * hat.covolume() * th.covolume() / to_mpf(rat) * jet.coeff(k)
    return RouteValue(acc, mp.mpf(0), "derivative")
