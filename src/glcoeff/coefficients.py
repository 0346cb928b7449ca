"""Global coefficients of the fine expansion at block-regular nilpotent orbits.

The payload of the package.  For a Levi given by a grouping of the r
inner d-blocks, the coefficient is the limit at 0 of a Weyl-symmetrized
product of partial zeta-tower jets; it is computed here through every
route the germ engine offers and cross-checked before being reported.
The module also evaluates the unit-function weighted integrals in
closed form (as jets along certified lines), checks the analytic
continuation identity that glues them, and assembles the full expansion
as a formal object whose local integrals stay opaque symbols.

All values carry diagnostics: which routes were run, how far apart they
landed, and the cancellation residuals of the removable poles.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import mpmath as mp

from .gmfamily import (GenericDirection, RouteValue, SmoothGerm,
                       arthur_derivative_value, c, draw_generic_direction,
                       symmetrized_value, tilde_c)
from .jets import Jet, LinearFactor, split_monomial
from .numeric import default_tol, to_mpf
from .orbits import (InducingPair, LeviDatum, Partition, block_pair,
                     enumerate_inducing_pairs, induce, partitions)
from .rootdata import (BlockProfile, base_profile, group_profile,
                       hat_theta_factor, pairing, project, simple_data,
                       theta_factor)
from .zeta import (CACHE_SIZE, EMPTY_PLACES, NumberFieldData, PlaceSet,
                   _resolve_field, vol_block_levi, vol_group, vol_minimal_levi,
                   z_s_local_jet, ztilde_jet, ztilde_s_jet)

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


# ---------------------------------------------------------------------------
# scalar jet providers (cached per precision)


@lru_cache(maxsize=CACHE_SIZE)
def _tower_ratio_cached(d: int, places: PlaceSet, field: NumberFieldData,
                        order: int, prec: int) -> Jet:
    jet = ztilde_s_jet(d, places, d, order, field)
    return jet.scale(1 / jet.coeff(0))


def _tower_ratio_provider(d: int, places: PlaceSet, field: NumberFieldData):
    def provider(order: int) -> Jet:
        return _tower_ratio_cached(d, places, field, order, mp.mp.prec)
    return provider


@lru_cache(maxsize=CACHE_SIZE)
def _tower_cached(d: int, field: NumberFieldData, order: int, prec: int) -> Jet:
    return ztilde_jet(d, d, order, field)


def _tower_provider(d: int, field: NumberFieldData):
    def provider(order: int) -> Jet:
        return _tower_cached(d, field, order, mp.mp.prec)
    return provider


# ---------------------------------------------------------------------------
# the coefficient germ and its value


def phi_for_L(level: BlockProfile, places: PlaceSet = EMPTY_PLACES,
              field: NumberFieldData | None = None) -> SmoothGerm:
    """The product germ feeding the coefficient at this level.

    One normalized partial-tower factor per within-block coweight; the
    argument of each factor is shifted by 1/d times the pairing, so the
    germ is exactly 1 at the origin.  The minimal level gives the empty
    product.
    """
    field = _resolve_field(field)
    base = base_profile(level.d, level.r)
    data = simple_data(base, level)
    provider = _tower_ratio_provider(level.d, places, field)
    factors = tuple(LinearFactor(provider, w, Q(1, level.d))
                    for w in data.coweights)
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


def a_coefficient(level: BlockProfile, places: PlaceSet = EMPTY_PLACES,
                  field: NumberFieldData | None = None, seed: int = 0,
                  tol=None, order_pad: int = 4) -> CoefficientResult:
    """Coefficient for the Levi grouping the d-blocks per `level.parts`.

    The symmetrized route supplies the reported value; the two
    alternating routes and the derivative route are always run as well
    and must agree within tol (default 2^(-prec/2) relative), else
    RouteDisagreementError.
    """
    field = _resolve_field(field)
    if tol is None:
        tol = default_tol()
    germ = phi_for_L(level, places, field)
    direction = draw_generic_direction(level.d, level.parts, seed)
    routes = (
        symmetrized_value(germ, level, direction, tol, order_pad),
        tilde_c(germ, level, direction, tol, order_pad),
        c(germ, level, direction, tol, order_pad),
        arthur_derivative_value(germ, level, direction),
    )
    values = [rv.value for rv in routes]
    scale = max(mp.mpf(1), max(abs(v) for v in values))
    disagreement = max(abs(a - b) for a in values for b in values) / scale
    if disagreement > tol:
        raise RouteDisagreementError(disagreement, tol,
                                     f"level {level.parts}, S={places.label()}")
    a_value = routes[0].value
    vol = vol_minimal_levi(level.d, level.r, field)
    diagnostics = {
        "routes": {rv.route: rv.value for rv in routes},
        "residuals": {rv.route: rv.residual for rv in routes},
        "max_disagreement": disagreement,
        "direction_seed": seed,
        "precision_bits": mp.mp.prec,
    }
    pair = block_pair(level)
    return CoefficientResult(
        levi=pair.levi,
        orbit=induce(pair.levi),
        a_value=a_value,
        a_tilde_value=vol * a_value,
        weyl_weight=pair.weyl_weight,
        places=places,
        diagnostics=diagnostics,
    )


def a_tilde(levi: LeviDatum, d: int, places: PlaceSet = EMPTY_PLACES,
            field: NumberFieldData | None = None, seed: int = 0,
            tol=None, order_pad: int = 4) -> CoefficientResult:
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
            return a_coefficient(pair.profile, places, field, seed, tol,
                                 order_pad)
    raise ValueError(f"Levi {levi.parts} with orbits "
                     f"{[o.parts for o in levi.orbits]} does not induce the "
                     f"block-regular orbit with d={d}")


# ---------------------------------------------------------------------------
# unit-function weighted integrals as jets


def J_P_unit(P: BlockProfile, direction: GenericDirection, order: int,
             field: NumberFieldData | None = None) -> Jet:
    """Laurent jet of the unit-function integral attached to P along the
    certified line: block-Levi volume, inverse pairing product, and one
    complete d-tower factor per within-block coweight."""
    field = _resolve_field(field)
    if (direction.d, direction.parts) != (P.d, (P.r,)):
        raise ValueError("direction must be certified for the ambient group")
    d = P.d
    lam0 = direction.vector
    upper, _ = project(lam0, P)
    internal = order + P.r + 2
    tower = _tower_cached(d, field, internal, mp.mp.prec)
    out = Jet.polynomial({0: vol_block_levi(P, field)})
    for w in simple_data(base_profile(d, P.r), P).coweights:
        rate = pairing(upper, w) / d
        # the tower value at d + rate*t over its removed linear factor
        out = out * tower.scale_arg(rate) * Jet.polynomial({-1: 1 / to_mpf(rate)})
    th = theta_factor(P)
    if th.degree:
        rat = th.rational_part(lam0)
        out = out * Jet.polynomial({-th.degree: th.covolume() / to_mpf(rat)})
    return out.truncate(order)


def _j_tilde_prefactor(d: int, r: int, field: NumberFieldData) -> mp.mpf:
    hat = hat_theta_factor(base_profile(d, r), group_profile(d, r))
    return to_mpf(d) ** (r - 1) * vol_group(d, r, field) / hat.covolume()


def _j_tilde_jet_along(d: int, r: int, vec, order: int,
                       field: NumberFieldData) -> Jet:
    internal = order + 2
    tower = _tower_cached(d, field, internal, mp.mp.prec)
    out = Jet.polynomial({0: _j_tilde_prefactor(d, r, field)})
    for w in simple_data(base_profile(d, r)).coweights:
        out = out * tower.scale_arg(pairing(vec, w) / Q(d))
    return out.truncate(order)


def J_tilde_unit(d: int, r: int, direction: GenericDirection, order: int,
                 field: NumberFieldData | None = None) -> Jet:
    """Analytic jet of the regularized ambient integral along the line;
    no negative orders for any direction."""
    field = _resolve_field(field)
    if (direction.d, direction.parts) != (d, (r,)):
        raise ValueError("direction must be certified for the ambient group")
    return _j_tilde_jet_along(d, r, direction.vector, order, field)


@lru_cache(maxsize=CACHE_SIZE)
def _tower_value_cached(d: int, shift: Fraction, field: NumberFieldData,
                        prec: int) -> mp.mpf:
    return ztilde_jet(d, d + shift, 1, field).coeff(0)


def prolongation_identity_residuals(P: BlockProfile,
                                    field: NumberFieldData | None = None,
                                    seed: int = 0,
                                    samples: int = 10) -> tuple:
    """Pointwise check that the ambient regularized integral evaluated at
    the projected point equals the two pairing products times the
    P-integral, at `samples` certified-generic rescaled points.

    Points are rescaled so every tower argument stays within 1/2 of the
    expansion center, clear of all pole hyperplanes.  Returns one
    relative residual per sample.
    """
    field = _resolve_field(field)
    d, r = P.d, P.r
    base = base_profile(d, r)
    cw_P = simple_data(base, P).coweights
    cw_G = simple_data(base).coweights
    th = theta_factor(P)
    hat = hat_theta_factor(base, P)
    const = _j_tilde_prefactor(d, r, field)
    vol_P = vol_block_levi(P, field)
    out = []
    for i in range(samples):
        direction = draw_generic_direction(d, (r,), seed, salt=i)
        lam = direction.vector
        upper, _ = project(lam, P)
        xs = [pairing(upper, w) / d for w in cw_P]      # nonzero, certified
        ys = [pairing(upper, w) / d for w in cw_G]      # may vanish, harmless
        bound = max((abs(v) for v in xs + ys), default=Q(0))
        # keep every tower argument within 1/2 of the center; the minimal
        # parabolic with singleton blocks projects to zero and needs none
        scale = Q(1, 2) / bound if bound else Q(1)
        lam_c = tuple(scale * v for v in lam)
        lhs = const
        for y in ys:
            lhs *= _tower_value_cached(d, y * scale, field, mp.mp.prec)
        jp = vol_P / th.evaluate(lam_c)
        for x in xs:
            x_c = x * scale
            jp *= _tower_value_cached(d, x_c, field, mp.mp.prec) / to_mpf(x_c)
        rhs = hat.evaluate(lam_c) * jp * th.evaluate(lam_c)
        out.append(abs(lhs - rhs) / max(abs(lhs), mp.mpf(1)))
    return tuple(out)


def J_o_unit(d: int, r: int, field: NumberFieldData | None = None,
             seed: int = 0, tol=None, order_pad: int = 4) -> RouteValue:
    """Value at 0 of the Weyl-symmetrized regularized ambient integral.

    Computed with the germ engine on the product of complete d-tower
    factors, cross-checked against the alternating route.
    """
    field = _resolve_field(field)
    if tol is None:
        tol = default_tol()
    level = group_profile(d, r)
    provider = _tower_provider(d, field)
    factors = tuple(LinearFactor(provider, w, Q(1, d))
                    for w in simple_data(base_profile(d, r)).coweights)
    germ = SmoothGerm(((Q(1), factors),), label=f"unit[{d},{r}]")
    direction = draw_generic_direction(d, (r,), seed)
    sym = symmetrized_value(germ, level, direction, tol, order_pad)
    alt = tilde_c(germ, level, direction, tol, order_pad)
    const = _j_tilde_prefactor(d, r, field)
    gap = abs(sym.value - alt.value) / max(mp.mpf(1), abs(sym.value))
    if gap > tol:
        raise RouteDisagreementError(gap, tol, f"unit value ({d},{r})")
    return RouteValue(const * sym.value, sym.residual, "symmetrized")


# ---------------------------------------------------------------------------
# consistency of the assembled expansion for the unit function


def _coarse_family_value(d: int, comp: tuple[int, ...], places: PlaceSet,
                         field: NumberFieldData, seed: int = 0,
                         order_pad: int = 4, tol=None) -> mp.mpf:
    """Value at 0 of the arrangement-summed local family for one Levi class.

    Sums over all orderings of the coarse blocks; each term carries the
    full set of minimal-level tower factors (one per fine coweight,
    paired against the block-constant direction) over the coarse pairing
    product.  The removable pole has order (number of blocks - 1).
    """
    m = len(comp)
    r = sum(comp)
    local_value = z_s_local_jet(d, places, d, 1, field).coeff(0)
    if m == 1:
        return local_value ** (r - 1)
    if tol is None:
        tol = default_tol()
    fine_coweights = simple_data(base_profile(d, r)).coweights
    rng = random.Random(f"coarse:{seed}:{d}:{comp}:{places.label()}")

    def draw():
        for _ in range(256):
            vals = tuple(Q(rng.randint(1, 999) * rng.choice((1, -1)),
                           rng.randint(1, 9)) for _ in range(m))
            ok = True
            for sigma in permutations(range(m)):
                prof = BlockProfile(d, tuple(comp[i] for i in sigma))
                vec = tuple(v for i in sigma for v in (vals[i],) * (d * comp[i]))
                if theta_factor(prof).rational_part(vec) == 0:
                    ok = False
                    break
                if any(pairing(vec, w) == 0 for w in fine_coweights):
                    ok = False
                    break
            if ok:
                return vals
        raise RuntimeError("could not draw a generic coarse direction")

    vals = draw()
    k = m - 1
    order = k + order_pad
    tower = z_s_local_jet(d, places, d, order, field)
    total = Jet.polynomial({})
    for sigma in permutations(range(m)):
        prof = BlockProfile(d, tuple(comp[i] for i in sigma))
        vec = tuple(v for i in sigma for v in (vals[i],) * (d * comp[i]))
        th = theta_factor(prof)
        jet = Jet.polynomial({0: 1})
        for w in fine_coweights:
            jet = jet * tower.scale_arg(pairing(vec, w) / Q(d))
        total = total + jet.scale(th.covolume() / to_mpf(th.rational_part(vec)))
    analytic, residual = split_monomial(total, k)
    if residual > tol:
        from .jets import CancellationError
        raise CancellationError(residual, where=f"coarse family {comp}")
    return analytic.coeff(0)


def unit_expansion_residual(d: int, r: int, places: PlaceSet,
                            field: NumberFieldData | None = None,
                            seed: int = 0) -> mp.mpf:
    """End-to-end check of the assembled expansion on the unit function.

    The regularized ambient value (complete towers, independent of the
    splitting) must equal the volume-weighted sum over Levi classes of
    coefficient times local family value.  Returns the relative gap.
    """
    field = _resolve_field(field)
    lhs = J_o_unit(d, r, field, seed).value
    local_value = z_s_local_jet(d, places, d, 1, field).coeff(0)
    acc = mp.mpf(0)
    for mu in partitions(r):
        mult: dict[int, int] = {}
        for p in mu:
            mult[p] = mult.get(p, 0) + 1
        class_weight = Q(1)
        for m_j in mult.values():
            class_weight /= factorial(m_j)
        a_val = a_coefficient(BlockProfile(d, mu), places, field, seed).a_value
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


def _term_for_pair(pair: InducingPair, places: PlaceSet,
                   field: NumberFieldData, seed: int, tol,
                   order_pad: int) -> ExpansionTerm:
    return ExpansionTerm(
        coefficient=a_coefficient(pair.profile, places, field, seed, tol,
                                  order_pad),
        local_symbol=_local_symbol(pair.levi, places),
        class_size=pair.class_size,
        standard_levi_count=pair.standard_levi_count,
    )


def _term_worker(args) -> ExpansionTerm:
    (pair, places, field, seed, tol, order_pad, prec) = args
    mp.mp.prec = prec
    return _term_for_pair(pair, places, field, seed, tol, order_pad)


def expansion(d: int, r: int, places: PlaceSet = EMPTY_PLACES,
              field: NumberFieldData | None = None, seed: int = 0,
              tol=None, order_pad: int = 4, jobs: int = 1) -> FormalExpansion:
    """The fine expansion at the block-regular orbit as a formal object.

    One term per conjugacy class of inducing pairs, in the canonical
    enumeration order.  With jobs > 1 the terms are computed in worker
    processes; each term is independent and the assembly order is fixed,
    so the output is identical to the serial run.
    """
    field = _resolve_field(field)
    pairs = enumerate_inducing_pairs(d, r)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        args = [(pair, places, field, seed, tol, order_pad, mp.mp.prec)
                for pair in pairs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            terms = tuple(pool.map(_term_worker, args))
    else:
        terms = tuple(_term_for_pair(pair, places, field, seed, tol,
                                     order_pad) for pair in pairs)
    return FormalExpansion(
        d=d,
        r=r,
        orbit=Partition.block_regular(d, r),
        places=places,
        field_label=field.label,
        terms=terms,
    )
