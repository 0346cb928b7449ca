"""Global coefficients of the fine expansion at block-regular nilpotent orbits.

The payload of the package.  On the group GL(d*m) the coefficient is
the limit at 0 of a Weyl-symmetrized product of partial zeta-tower jets,
computed by the three independent routes of `gmfamily` on the tower
series and cross-checked (`_group_routes`, the only place the routes run
for a coefficient).  A Levi grouping the r inner d-blocks into parts
gets the product of the group coefficients of its parts, route by route.
The module also evaluates the regularized unit-function integral, checks
the analytic continuation identity that glues the unit-function
integrals, and assembles the full expansion as a formal object whose
local integrals stay opaque symbols.  The unit-function check sums the
orderings of the coarse blocks with the engine's Held-Karp recursion.

All values carry diagnostics: which routes were run, how far apart they
landed, and the cancellation residuals of the removable poles.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import factorial, prod

import mpmath as mp

from .gmfamily import (GenericDirection, RouteValue, SmoothGerm, c,
                       draw_generic_direction, held_karp, interval_pairings,
                       symmetrized_value, tilde_c)
from .jets import Jet, LinearFactor, split_pole
from .numeric import (requested_prec, sqrt_fraction, to_mpf, tolerance,
                      working)
from .orbits import (LeviDatum, Partition, block_pair,
                     enumerate_inducing_pairs, induce, partitions)
from .rootdata import (BlockProfile, base_profile, group_profile,
                       hat_theta_factor, simple_data, theta_factor)
from .zeta import (EMPTY_PLACES, RATIONAL_FIELD, NumberFieldData, PlaceSet,
                   tower_ratio_jet, vol_block_levi, vol_group,
                   vol_minimal_levi, z_s_local_jet, ztilde_jet)

Q = Fraction


class RouteDisagreementError(ArithmeticError):
    """Independent evaluation routes for the same coefficient landed
    further apart than the configured tolerance."""

    def __init__(self, disagreement, tolerance, where: str = ""):
        self.disagreement = disagreement
        self.tolerance = tolerance
        self.where = where
        super().__init__(
            f"route disagreement {mp.nstr(disagreement, 8)} exceeds "
            f"{mp.nstr(tolerance, 8)} ({where})")


ROUTE_NAMES = ("symmetrized", "alternating-upper", "alternating-lower")


def _route_gap(values, where: str) -> mp.mpf:
    """Largest relative gap between route values; a gap above the
    tolerance raises RouteDisagreementError."""
    scale = max(mp.mpf(1), max(abs(v) for v in values))
    gap = max(abs(a - b) for a in values for b in values) / scale
    if gap > tolerance():
        raise RouteDisagreementError(gap, tolerance(), where)
    return gap


def _cross_checked_routes(tower: Jet, direction: GenericDirection,
                          where: str) -> tuple[RouteValue, ...]:
    """The three routes on the tower series, in ROUTE_NAMES order,
    checked by _route_gap."""
    routes = (
        symmetrized_value(tower, direction),
        tilde_c(tower, direction),
        c(tower, direction),
    )
    _route_gap([rv.value for rv in routes], where)
    return routes


# ---------------------------------------------------------------------------
# the coefficient germ and its value


def phi_for_L(level: BlockProfile, places: PlaceSet = EMPTY_PLACES,
              field: NumberFieldData = RATIONAL_FIELD) -> SmoothGerm:
    """The coefficient germ at this level, on which the enumerations check
    the routes.

    One normalized partial-tower factor per within-block coweight; the
    argument of each factor is shifted by 1/d times the pairing, so the
    germ is exactly 1 at the origin.  The minimal level gives the empty
    product.  The routes take its one factor, the tower series, instead.
    """
    provider = partial(tower_ratio_jet, level.d, places, field=field)
    coweights = simple_data(base_profile(level.d, level.r), level).coweights
    factors = tuple(LinearFactor(provider, w, Q(1, level.d)) for w in coweights)
    return SmoothGerm(((Q(1), factors),),
                      label=f"phi[{level.parts}|S={places.label()}]")


@dataclass(frozen=True)
class CoefficientResult:
    """One global coefficient with its audit trail.

    a_tilde_value is the volume-weighted variant; weyl_weight is the
    exact |W_L|/|W| of the ambient symmetric groups.
    """

    levi: LeviDatum
    orbit: Partition
    a_value: mp.mpf
    a_tilde_value: mp.mpf
    weyl_weight: Fraction
    places: PlaceSet
    diagnostics: dict


def _levi_coefficient(level: BlockProfile, groups: dict[int, dict],
                      places: PlaceSet, field: NumberFieldData,
                      seed: int) -> CoefficientResult:
    """The coefficient at `level` from the group values a(GL(d*p)) of its
    parts, as `_group_routes` gives them: route by route the product over
    the parts, a part of size 1 contributing exactly 1, with the largest
    group residual.  The symmetrized product is reported."""
    routes = dict.fromkeys(ROUTE_NAMES, mp.mpf(1))
    residuals = dict.fromkeys(ROUTE_NAMES, mp.mpf(0))
    for group in (groups[p] for p in level.parts if p > 1):
        for name in ROUTE_NAMES:
            routes[name] *= group["routes"][name]
            residuals[name] = max(residuals[name], group["residuals"][name])
    disagreement = _route_gap(list(routes.values()),
                              f"level {level.parts}, S={places.label()}")
    a_value = routes["symmetrized"]
    pair = block_pair(level)
    return CoefficientResult(
        levi=pair.levi,
        orbit=induce(pair.levi),
        a_value=a_value,
        a_tilde_value=vol_minimal_levi(level.d, level.r, field) * a_value,
        weyl_weight=pair.weyl_weight,
        places=places,
        diagnostics={
            "routes": routes,
            "residuals": residuals,
            "max_disagreement": disagreement,
            "direction_seed": seed,
            "requested_bits": requested_prec(),
            "working_bits": mp.mp.prec,
        },
    )


def _group_routes(d: int, m: int, places: PlaceSet, field: NumberFieldData,
                  seed: int) -> dict:
    """Values and residuals of the three cross-checked routes of a(GL(d*m))."""
    routes = _cross_checked_routes(tower_ratio_jet(d, places, m, field),
                                   draw_generic_direction(d, (m,), seed),
                                   f"level {(m,)}, S={places.label()}")
    return {"routes": {rv.route: rv.value for rv in routes},
            "residuals": {rv.route: rv.residual for rv in routes}}


def _term_worker(args) -> dict:
    (d, m, places, field, seed, prec) = args
    with working(prec):
        return _group_routes(d, m, places, field, seed)


def _group_coefficients(d: int, sizes, places: PlaceSet,
                        field: NumberFieldData, seed: int,
                        jobs: int = 1) -> dict[int, dict]:
    """_group_routes of GL(d*m) for every distinct m > 1 in sizes.  With
    jobs > 1 each m is one pool task, largest first."""
    sizes = sorted({m for m in sizes if m > 1}, reverse=True)
    workers = min(jobs, len(sizes))  # a fork pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        args = [(d, m, places, field, seed, requested_prec()) for m in sizes]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return dict(zip(sizes, pool.map(_term_worker, args)))
    return {m: _group_routes(d, m, places, field, seed) for m in sizes}


@working()
def a_coefficient(level: BlockProfile, places: PlaceSet = EMPTY_PLACES,
                  field: NumberFieldData = RATIONAL_FIELD,
                  seed: int = 0) -> CoefficientResult:
    """Coefficient for the Levi grouping the d-blocks per `level.parts`.

    The three routes run on GL(d*p) for each distinct part p > 1 and must
    agree within numeric.tolerance(), else RouteDisagreementError; each
    route value of the level is the product of its group values, held to
    the same tolerance, and the symmetrized route supplies the value.
    """
    groups = _group_coefficients(level.d, level.parts, places, field, seed)
    return _levi_coefficient(level, groups, places, field, seed)


@working()
def a_tilde(levi: LeviDatum, d: int, places: PlaceSet = EMPTY_PLACES,
            field: NumberFieldData = RATIONAL_FIELD,
            seed: int = 0) -> CoefficientResult:
    """Volume-weighted coefficient for a (Levi, orbit) conjugacy class.

    The class must be one of the inducing pairs of the block-regular
    orbit with block size d, else ValueError; a_coefficient runs on its
    block profile.
    """
    if d < 1 or levi.n % d:
        raise ValueError(f"a Levi of GL({levi.n}) does not induce a "
                         f"block-regular orbit with d={d}")
    for pair in enumerate_inducing_pairs(d, levi.n // d):
        if pair.levi == levi:
            return a_coefficient(pair.profile, places, field, seed)
    raise ValueError(f"Levi {levi.parts} with orbits "
                     f"{[o.parts for o in levi.orbits]} does not induce the "
                     f"block-regular orbit with d={d}")


# ---------------------------------------------------------------------------
# unit-function weighted integrals


def _j_tilde_prefactor(d: int, r: int, field: NumberFieldData) -> mp.mpf:
    hat = hat_theta_factor(base_profile(d, r), group_profile(d, r))
    return to_mpf(d) ** (r - 1) * vol_group(d, r, field) / hat.covolume()


def _upper_pairings(P: BlockProfile, values) -> tuple[list, list]:
    """(xs, ys): the pairings over d of the upper projection of lam on P
    with the coweights of the boundaries inside P's blocks (nonzero,
    certified) and of all r - 1 inner boundaries (zero at P's block
    edges, harmless).  Inside a P-block [s, e) they are the upper pairings
    of the level merging [s, e) alone."""
    edges = list(accumulate(P.parts, initial=0))
    prefix = list(accumulate(values, initial=Q(0)))
    upper = {}
    for s, e in zip(edges, edges[1:]):
        upper.update(interval_pairings(1, prefix, s, e)[0])
    return ([upper[i] for i in range(1, P.r) if i not in edges],
            [upper[i] for i in range(1, P.r)])


def prolongation_identity_residuals(P: BlockProfile,
                                    field: NumberFieldData = RATIONAL_FIELD,
                                    seed: int = 0,
                                    samples: int = 10) -> tuple:
    """Pointwise check that the ambient regularized integral evaluated at
    the projected point equals the two pairing products times the
    P-integral, at `samples` certified-generic rescaled points.

    Points are rescaled so every tower argument stays within 1/2 of the
    expansion center, clear of all pole hyperplanes.  Returns one
    relative residual per sample.

    Both sides multiply the same off-center tower values, so the check
    rests on ztilde_d(d), the volumes and the pairing products alone:
    with those values replaced by arbitrary numbers, the largest residual
    over (d, r) = (1,3), (1,4), (2,2), (2,3), (3,2) stayed below 2e-96.
    """
    d, r = P.d, P.r
    th = theta_factor(P)
    hat = hat_theta_factor(base_profile(d, r), P)
    const = _j_tilde_prefactor(d, r, field)
    vol_P = vol_block_levi(P, field)
    out = []
    for sample in range(samples):
        direction = draw_generic_direction(d, (r,), seed, salt=sample)
        lam = direction.vector
        xs, ys = _upper_pairings(P, direction.values)
        bound = max((abs(v) for v in xs + ys), default=Q(0))
        # keep every tower argument within 1/2 of the center; the minimal
        # parabolic with singleton blocks projects to zero and needs none
        scale = Q(1, 2) / bound if bound else Q(1)
        lam_c = tuple(scale * v for v in lam)
        lhs = const
        for y in ys:
            lhs *= ztilde_jet(d, d + y * scale, 1, field).coeff(0)
        jp = vol_P / th.evaluate(lam_c)
        for x in xs:
            x_c = x * scale
            jp *= ztilde_jet(d, d + x_c, 1, field).coeff(0) / to_mpf(x_c)
        rhs = hat.evaluate(lam_c) * jp * th.evaluate(lam_c)
        out.append(abs(lhs - rhs) / max(abs(lhs), mp.mpf(1)))
    return tuple(out)


@working()
def J_o_unit(d: int, r: int, field: NumberFieldData = RATIONAL_FIELD,
             seed: int = 0) -> RouteValue:
    """Value at 0 of the Weyl-symmetrized regularized ambient integral.

    The three routes take the complete d-tower series Z(x) =
    ztilde_d(d + x), unnormalized, and are cross-checked.
    """
    direction = draw_generic_direction(d, (r,), seed)
    sym, *_ = _cross_checked_routes(ztilde_jet(d, d, r, field), direction,
                                    f"unit value ({d},{r})")
    const = _j_tilde_prefactor(d, r, field)
    return RouteValue(const * sym.value, sym.residual, "symmetrized")


# ---------------------------------------------------------------------------
# consistency of the assembled expansion for the unit function


def _coarse_pairings(comp: tuple[int, ...], values: tuple[Fraction, ...]):
    """{(S, j): the fine-coweight pairings over d that coarse block j
    brings after the set S}, or None unless the values are distinct (theta
    over the coarse coroots is the product of consecutive value gaps) and
    every pairing is nonzero: exactly the draws every ordering accepts.

    Block j holds values[j] on comp[j] inner blocks, so boundary b pairs to
    d * (prefix_b - b * mean); j brings b from its left edge (S nonempty)
    through its interior, whose prefix depends on S, j and the offset only.
    """
    m = len(comp)
    if len(set(values)) < m:
        return None
    mean = sum(c * v for c, v in zip(comp, values)) / sum(comp)
    out = {}
    for S in range(1 << m):
        inside = [l for l in range(m) if S >> l & 1]
        prefix = sum(comp[l] * values[l] for l in inside)
        offset = sum(comp[l] for l in inside)
        for j in set(range(m)).difference(inside):
            xs = [prefix + i * values[j] - (offset + i) * mean
                  for i in range(0 if S else 1, comp[j])]
            if not all(xs):
                return None
            out[S, j] = xs
    return out


def _coarse_family_value(d: int, comp: tuple[int, ...], places: PlaceSet,
                         field: NumberFieldData, seed: int = 0) -> mp.mpf:
    """Value at 0 of the arrangement-summed local family for one Levi class.

    held_karp sums over all orderings of the coarse blocks the full set of
    minimal-level tower factors (one per fine coweight, paired against the
    block-constant direction, as _coarse_pairings gives them) over the
    coarse pairing product.  The removable pole has order (blocks - 1).
    """
    m, r = len(comp), sum(comp)
    local_value = z_s_local_jet(d, places, d, 1, field).coeff(0)
    if m == 1:
        return local_value ** (r - 1)
    rng = random.Random(f"coarse:{seed}:{d}:{comp}:{places.label()}")
    for _ in range(256):
        values = tuple(Q(rng.randint(1, 999) * rng.choice((1, -1)),
                         rng.randint(1, 9)) for _ in range(m))
        pairings = _coarse_pairings(comp, values)
        if pairings is not None:
            break
    else:
        raise RuntimeError("could not draw a generic coarse direction")
    tower = z_s_local_jet(d, places, d, m, field)
    one = Jet.polynomial({0: 1})

    def after(S):
        return lambda j: prod((tower.scale_arg(x) for x in pairings[S, j]),
                              start=one)

    covol = sqrt_fraction(Q(d * r, d ** m * prod(comp)))
    analytic, _ = split_pole(held_karp(values, after).scale(covol), m - 1,
                             f"coarse family {comp}")
    return analytic.coeff(0)


def unit_expansion_residual(d: int, r: int, places: PlaceSet,
                            field: NumberFieldData = RATIONAL_FIELD,
                            seed: int = 0) -> mp.mpf:
    """End-to-end check of the assembled expansion on the unit function.

    The regularized ambient value (complete towers, independent of the
    splitting) must equal the volume-weighted sum over Levi classes of
    coefficient times local family value.  Returns the relative gap.
    """
    lhs = J_o_unit(d, r, field, seed).value
    local_value = z_s_local_jet(d, places, d, 1, field).coeff(0)
    groups = _group_coefficients(d, range(2, r + 1), places, field, seed)
    acc = mp.mpf(0)
    for mu in partitions(r):
        mult: dict[int, int] = {}
        for p in mu:
            mult[p] = mult.get(p, 0) + 1
        class_weight = Q(1)
        for m_j in mult.values():
            class_weight /= factorial(m_j)
        a_val = _levi_coefficient(BlockProfile(d, mu), groups, places, field,
                                  seed).a_value
        psi = _coarse_family_value(d, mu, places, field, seed)
        acc += to_mpf(class_weight) * a_val * psi / local_value ** (r - 1)
    rhs = vol_minimal_levi(d, r, field) * acc
    return abs(lhs - rhs) / max(mp.mpf(1), abs(lhs))


# ---------------------------------------------------------------------------
# the formal expansion


@dataclass(frozen=True)
class ExpansionTerm:
    """One Levi class: its computed coefficient, the opaque local-integral
    symbol, and the size bookkeeping of the conjugacy class."""

    coefficient: CoefficientResult
    local_symbol: str
    class_size: int
    standard_levi_count: int


@dataclass(frozen=True)
class FormalExpansion:
    d: int
    r: int
    orbit: Partition
    places: PlaceSet
    field_label: str
    terms: tuple[ExpansionTerm, ...]


def _local_symbol(levi: LeviDatum, places: PlaceSet) -> str:
    orbit_label = ",".join(str(o.parts) for o in levi.orbits)
    return f"J_L^G[L={levi.parts}; o'=({orbit_label}); S={places.label()}]"


@working()
def expansion(d: int, r: int, places: PlaceSet = EMPTY_PLACES,
              field: NumberFieldData = RATIONAL_FIELD, seed: int = 0,
              jobs: int = 1) -> FormalExpansion:
    """The fine expansion at the block-regular orbit as a formal object.

    One term per conjugacy class of inducing pairs, in the canonical
    enumeration order.  Each coefficient is a product of the group
    coefficients a(GL(d*m)), m = 2..r, computed once each; with jobs > 1
    they are computed in worker processes, at most one per group size.
    Each group value is independent, so the output is identical to the
    serial run.
    """
    groups = _group_coefficients(d, range(2, r + 1), places, field, seed, jobs)
    terms = tuple(
        ExpansionTerm(
            coefficient=_levi_coefficient(pair.profile, groups, places, field,
                                          seed),
            local_symbol=_local_symbol(pair.levi, places),
            class_size=pair.class_size,
            standard_levi_count=pair.standard_levi_count,
        )
        for pair in enumerate_inducing_pairs(d, r))
    return FormalExpansion(
        d=d,
        r=r,
        orbit=Partition.block_regular(d, r),
        places=places,
        field_label=field.label,
        terms=terms,
    )
