"""Completed zeta machinery: values, jets, local factors, towers, volumes.

The default ground field is the rationals, RATIONAL_FIELD, where the
completed zeta is
pi^(-s/2) * Gamma(s/2) * zeta(s) with a simple pole of residue 1 at
s = 1.  Jets of zeta come from Euler-Maclaurin summation with the
truncation term checked explicitly; Gamma jets come from the Stirling
series after shifting the argument into its region of fast convergence.
Nothing is ever silently truncated: when a requested precision cannot
be met the computation raises PrecisionBudgetError with the offending
bound, and local jets are built to the orders their products read,
whatever the pole order of a factor.  `numeric.memo` memoizes gamma_jet,
xi_jet, ztilde_jet and the normalized tower ratio tower_ratio_jet.

Other number fields are supported through a JSON data file carrying
the Dirichlet coefficients of their zeta function; such providers only
work to the right of the convergence edge and up to the precision the
supplied coefficient list can justify.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .jets import Jet, exp_jet, exp_linear_jet, strip_leading_zeros
from .numeric import memo, requested_prec, sqrt_fraction, to_mpf
from .rootdata import BlockProfile, base_profile, group_profile

TAIL_MARGIN_BITS = 8


class ProviderError(ValueError):
    """The field provider cannot serve the request at all."""


class PrecisionBudgetError(ArithmeticError):
    """The request is legitimate but the configured precision cannot be
    certified; carries the achieved bound in the message."""


def _tail_threshold() -> mp.mpf:
    return mp.mpf(2) ** (-(mp.mp.prec + TAIL_MARGIN_BITS))


# ---------------------------------------------------------------------------
# places


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PlaceSet:
    """A finite set of places: rational primes, optionally the real place."""

    primes: tuple[int, ...] = ()
    include_archimedean: bool = False

    def __post_init__(self):
        primes = tuple(int(p) for p in self.primes)
        if len(set(primes)) != len(primes):
            raise ValueError("duplicate primes in place set")
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", tuple(sorted(primes)))

    @classmethod
    def parse(cls, text: str) -> "PlaceSet":
        """Comma-separated primes with an optional 'inf' token."""
        primes = []
        arch = False
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if tok == "inf":
                if arch:
                    raise ValueError("duplicate place inf in place set")
                arch = True
            else:
                primes.append(int(tok))
        return cls(tuple(primes), arch)

    def label(self) -> str:
        toks = [str(p) for p in self.primes]
        if self.include_archimedean:
            toks.append("inf")
        return ",".join(toks)


EMPTY_PLACES = PlaceSet()


# ---------------------------------------------------------------------------
# number fields


@dataclass(frozen=True)
class NumberFieldData:
    """Ground-field description.

    The rationals are built in (dirichlet_coefficients is None and all
    completed-zeta machinery is closed-form).  File-backed fields carry
    a truncated Dirichlet coefficient list; their zeta data is only
    available where that list converges fast enough, which excludes in
    particular any center <= 1.
    """

    degree: int
    discriminant: int
    signature: tuple[int, int]
    dirichlet_coefficients: tuple[int, ...] | None
    label: str

    @classmethod
    def from_file(cls, path: str) -> "NumberFieldData":
        with open(path) as fh:
            raw = json.load(fh)

        def integer(x):
            if type(x) is not int:  # JSON integers only: no bool, float or str
                raise TypeError(f"{x!r} is not an integer")
            return x

        try:
            degree = integer(raw["degree"])
            disc = integer(raw["discriminant"])
            r1, r2 = (integer(x) for x in raw["signature"])
            coeffs = tuple(integer(a) for a in raw["dirichlet_coefficients"])
            shifts = [integer(s) for s in raw["gamma_factor_shifts"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed field data file {path}: {exc}") from exc
        if disc == 0:
            raise ProviderError("the discriminant must be nonzero")
        if degree < 1 or r1 + 2 * r2 != degree:
            raise ProviderError("signature does not match the degree")
        if shifts != [0] * r1 + [0, 1] * r2:
            raise ProviderError(
                "unsupported gamma factor shifts; expected the standard "
                "[0]*r1 + [0,1]*r2 pattern")
        if not coeffs or coeffs[0] != 1:
            raise ProviderError("dirichlet_coefficients must start with a_1 = 1")
        return cls(degree, disc, (r1, r2), coeffs, f"file:{path}")

    @property
    def is_rational(self) -> bool:
        return self.dirichlet_coefficients is None

    def growth_exponent(self) -> float:
        """Empirical max of log|a_n|/log n over the supplied list."""
        if self.is_rational:
            return 0.0
        out = 0.0
        for n, a in enumerate(self.dirichlet_coefficients, start=1):
            if n >= 2 and a not in (0, 1, -1):
                out = max(out, math.log(abs(a)) / math.log(n))
        return out

    def euler_factor(self, p: int) -> tuple[int, ...]:
        """Local denominator polynomial (d_0 .. d_deg) in X = p^-s.

        Reconstructed from a_{p^k} by series inversion; the remaining
        prime-power coefficients are checked for consistency, so a list
        that does not come from a degree-N Euler product is rejected.
        """
        if not is_prime(p):
            raise ProviderError(f"{p} is not prime")
        if self.is_rational:
            return (1, -1)
        coeffs = self.dirichlet_coefficients
        a = []
        q = 1
        while q <= len(coeffs):
            a.append(coeffs[q - 1])
            q *= p
        if len(a) <= self.degree:
            raise ProviderError(
                f"need coefficients up to {p}^{self.degree} to reconstruct "
                f"the Euler factor at {p}")
        d = [1]
        for k in range(1, self.degree + 1):
            d.append(-sum(a[i] * d[k - i] for i in range(1, k + 1)))
        for k in range(self.degree + 1, len(a)):
            if sum(a[i] * d[k - i] for i in range(max(0, k - self.degree), k + 1)
                   if i < len(a)) != 0:
                raise ProviderError(
                    f"coefficients at powers of {p} are inconsistent with a "
                    f"degree-{self.degree} Euler factor")
        return tuple(d)


RATIONAL_FIELD = NumberFieldData(1, 1, (1, 0), None, "Q")


# ---------------------------------------------------------------------------
# elementary jets


def _times_linear(jet: Jet, a, trunc: int) -> Jet:
    """jet * (a + t) cut to orders below `trunc`.  No kept order reads a
    cut one, so a product of such factors matches the exact polynomial
    product bit for bit on the orders it keeps."""
    return (jet * Jet.polynomial({0: a, 1: 1})).truncate(trunc)


def _log_shift_jet(a, order: int) -> Jet:
    """Jet of log(a + t) for a > 0."""
    am = to_mpf(a)
    out = [mp.log(am)]
    p = 1 / am
    for j in range(1, order):
        out.append(-p / j if j % 2 == 0 else p / j)
        p /= am
    return Jet(0, tuple(out), order)


# ---------------------------------------------------------------------------
# zeta jets by Euler-Maclaurin


def zeta_jet(center, order: int) -> Jet:
    """Jet of the Riemann zeta function at a rational center.

    Laurent with a simple pole when center == 1.  The truncation term
    of the underlying Euler-Maclaurin formula is evaluated explicitly;
    if it cannot be pushed below the working-precision threshold the
    call raises PrecisionBudgetError rather than degrade quietly.
    """
    if order < 1:
        raise ValueError("order must be positive")
    center = Fraction(center)
    threshold = _tail_threshold()
    m_terms = max(8, (mp.mp.prec + 40) // 6)
    n_cut = max(2 * m_terms, 2 * order + 10, 32)
    for _ in range(8):
        jet, omitted = _euler_maclaurin_zeta(center, order, n_cut, m_terms)
        if omitted <= threshold:
            return jet
        n_cut *= 2
    raise PrecisionBudgetError(
        f"zeta jet at {center}: Euler-Maclaurin tail stuck at "
        f"{mp.nstr(omitted, 5)} > {mp.nstr(threshold, 5)}")


def _euler_maclaurin_zeta(c: Fraction, order: int, n_cut: int, m_terms: int):
    c_mpf = to_mpf(c)
    pole = c == 1
    head = _dirichlet_jet((1,) * (n_cut - 1), c, order)

    # n_cut^-t; at the pole, dividing by t costs the piece n_cut^(1-s)/(s-1)
    # one order, so only this jet is built one order longer
    exp_n = exp_linear_jet(-mp.log(n_cut), order + 1 if pole else order)
    n_pow_c = mp.power(n_cut, -c_mpf)
    if pole:
        pole_piece = exp_n.scale(mp.power(n_cut, 1 - c_mpf)).shift(-1)
    else:
        denom = Jet.polynomial({0: c - 1, 1: 1})
        pole_piece = exp_n.scale(mp.power(n_cut, 1 - c_mpf)) * denom.reciprocal(order)
    half_piece = exp_n.scale(n_pow_c / 2)

    tail_poly = Jet.polynomial({})
    rising = Jet.polynomial({0: 1})  # jet of (s)_(2j-1) in t
    for j in range(1, m_terms + 1):
        if j == 1:
            rising = _times_linear(rising, c, order)
        else:
            rising = _times_linear(_times_linear(rising, c + 2 * j - 3, order),
                                   c + 2 * j - 2, order)
        scale = mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.power(n_cut, 1 - 2 * j)
        tail_poly = tail_poly + rising.scale(scale)
    tail = tail_poly * exp_n.scale(n_pow_c)

    # each kept order of the omitted term's jet is a sum of at most
    # `order` products of a rising and an exp_n coefficient
    next_rising = _times_linear(_times_linear(rising, c + 2 * m_terms - 1, order),
                                c + 2 * m_terms, order)
    omit_scale = (abs(mp.bernoulli(2 * m_terms + 2)) / mp.factorial(2 * m_terms + 2)
                  * mp.power(n_cut, -1 - 2 * m_terms) * n_pow_c)
    omitted = (next_rising.scale_norm() * omit_scale
               * max(mp.mpf(1), exp_n.scale_norm()) * order)

    return head + pole_piece + half_piece + tail, omitted


# ---------------------------------------------------------------------------
# Gamma jets by Stirling with shift


@memo
def gamma_jet(center, order: int) -> Jet:
    """Jet of Gamma at a rational center; Laurent (simple pole) at
    nonpositive integers."""
    if order < 1:
        raise ValueError("order must be positive")
    center = Fraction(center)
    threshold = _tail_threshold()
    pole = 1 if center <= 0 and center.denominator == 1 else 0
    internal = order + pole
    base_shift = max(mp.mp.prec // 3, internal + 4, 16)
    shift = max(0, base_shift + math.ceil(-center))
    for _ in range(6):
        w0 = center + shift
        lg, omitted = _stirling_loggamma(w0, internal)
        if omitted <= threshold:
            break
        shift += base_shift
    else:
        raise PrecisionBudgetError(
            f"loggamma jet at {center}: Stirling tail stuck at "
            f"{mp.nstr(omitted, 5)}")
    g = exp_jet(lg, internal)
    denom = Jet.polynomial({0: 1})
    for i in range(shift):
        if center + i != 0:
            denom = _times_linear(denom, center + i, internal)
    out = g * denom.reciprocal(internal)
    if pole:
        # the skipped zero factor turned Gamma(center + t) into its
        # analytic multiple t * Gamma(center + t); undo the t
        out = out.shift(-1)
    return out.truncate(order)


def _stirling_loggamma(w0: Fraction, order: int):
    """Jet of log Gamma at w0 (w0 large and positive) plus the magnitude
    of the first omitted Stirling term."""
    j_terms = max(4, (mp.mp.prec + 40) // 6)
    ln_jet = _log_shift_jet(w0, order)
    lg = Jet.polynomial({0: w0 - Fraction(1, 2), 1: 1}) * ln_jet
    lg = lg - Jet.polynomial({0: w0, 1: 1}).truncate(order)
    lg = lg + Jet.polynomial({0: 1}).scale(mp.log(2 * mp.pi) / 2).truncate(order)
    w = to_mpf(w0)
    acc = [mp.mpf(0)] * order
    for j in range(1, j_terms + 1):
        for k, c in enumerate(_stirling_term(w, j, order)):
            acc[k] += c
    lg = lg + Jet(0, tuple(acc), order)
    omitted = max(abs(c) for c in _stirling_term(w, j_terms + 1, order))
    return lg, omitted


def _stirling_term(w: mp.mpf, j: int, order: int) -> list:
    """Taylor coefficients of B_2j/(2j(2j-1)) * (w+t)^(1-2j) at t = 0.

    With m = 2j-1 the binomial series gives c_k = c_(k-1) * -(m+k-1)/(k*w).
    """
    m = 2 * j - 1
    c = mp.bernoulli(2 * j) / (2 * j * m) * mp.power(w, -m)
    out = [c]
    for k in range(1, order):
        c = c * -(m + k - 1) / (k * w)
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# completed zeta jets


@memo
def xi_jet(center, order: int,
           field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of the completed zeta of the field at a rational center.

    Over the rationals this is analytic away from {0, 1} and has simple
    poles there (the returned jet is Laurent, lowest order -1).  File
    fields serve only centers in their certified convergence range.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if field.is_rational:
        return _xi_jet_q(Fraction(center), order)
    return _xi_jet_file(field, Fraction(center), order)


def _xi_jet_q(c: Fraction, order: int) -> Jet:
    half = Fraction(1, 2) * c
    z_pole = 1 if c == 1 else 0
    g_pole = 1 if half <= 0 and half.denominator == 1 else 0
    internal = order + z_pole + g_pole
    zeta_part = zeta_jet(c, internal)
    if g_pole and c:
        # a trivial zero of zeta cancels the pole of Gamma(s/2) exactly
        zeta_part = Jet(1, zeta_part.coeffs[1:], internal)
    gamma_part = gamma_jet(half, internal).scale_arg(Fraction(1, 2))
    pi_part = exp_linear_jet(-mp.log(mp.pi) / 2, internal).scale(
        mp.power(mp.pi, -to_mpf(c) / 2))
    return (pi_part * zeta_part * gamma_part).truncate(order)


def _xi_jet_file(field: NumberFieldData, c: Fraction, order: int) -> Jet:
    _check_dirichlet_budget(field, c, order)
    # the tail budget is certified against the caller's precision; the
    # summation itself runs with guard bits so rounding noise from the
    # long coefficient sum stays below that resolution
    m_cut = len(field.dirichlet_coefficients)
    with mp.workprec(mp.mp.prec + 32 + m_cut.bit_length()):
        zeta_part = _dirichlet_jet(field.dirichlet_coefficients, c, order)
        r1, r2 = field.signature
        disc = abs(field.discriminant)
        out = exp_linear_jet(mp.log(disc) / 2, order).scale(
            mp.power(disc, to_mpf(c) / 2))
        if r1:
            real_factor = _gamma_r_jet(c, order)
            for _ in range(r1):
                out = out * real_factor
        if r2:
            two_pi = 2 * mp.pi
            cplx_factor = (exp_linear_jet(-mp.log(two_pi), order).scale(
                mp.power(two_pi, 1 - to_mpf(c)))
                * gamma_jet(c, order))
            for _ in range(r2):
                out = out * cplx_factor
        return (out * zeta_part).truncate(order)


def _check_dirichlet_budget(field: NumberFieldData, c: Fraction, order: int):
    """Certify the Dirichlet tail against the current precision.

    The bound assumes the growth observed on the supplied coefficients
    persists beyond the cutoff, which holds for genuine zeta data.
    """
    tau = field.growth_exponent()
    edge = tau + 1
    c_f = float(c)
    if c_f <= edge + 0.5:
        raise ProviderError(
            f"file-backed field {field.label}: center {c} is too close to "
            f"the convergence edge (need center > {edge + 0.5:.2f})")
    m_cut = len(field.dirichlet_coefficients)
    s_eff = mp.mpf(c_f - tau)
    if s_eff * mp.log(m_cut) < order:
        raise ProviderError(
            f"coefficient list too short to control order-{order} jets at "
            f"center {c}")
    bound = mp.mpf(0)
    for j in range(order):
        bound = max(bound, _dirichlet_tail_bound(s_eff, j, m_cut))
    threshold = _tail_threshold()
    if bound > threshold:
        achievable = int(-mp.log(bound, 2)) - TAIL_MARGIN_BITS
        raise PrecisionBudgetError(
            f"file-backed field {field.label}: {m_cut} coefficients support "
            f"about {max(achievable, 0)} bits at center {c}, "
            f"{requested_prec()} requested ({mp.mp.prec} working)")


def _dirichlet_jet(coeffs, c: Fraction, order: int) -> Jet:
    """Jet of sum over n of coeffs[n - 1] * n^-s at s = c, over the given
    coefficients only (any tail is the caller's to bound)."""
    c_mpf = to_mpf(c)
    out = [mp.mpf(0)] * order
    for n, a in enumerate(coeffs, start=1):
        if a == 0:
            continue
        term = mp.power(n, -c_mpf)
        if a != 1:  # every term of a zeta head sum skips the product
            term *= a
        out[0] += term
        if n > 1:
            neg_log = -mp.log(n)
            for j in range(1, order):
                term = term * neg_log / j
                out[j] += term
    return Jet(0, tuple(out), order)


def _dirichlet_tail_bound(s, j: int, m_cut: int) -> mp.mpf:
    """Upper bound for sum_{n>M} n^-s (ln n)^j / j!, s > 1, decreasing tail."""
    ln_m = mp.log(m_cut)
    first = mp.power(m_cut, -s) * ln_m**j / mp.factorial(j)
    integral = mp.mpf(0)
    weight = mp.mpf(1)
    for i in range(j + 1):
        integral += weight * ln_m**(j - i) / (s - 1)**(i + 1)
        weight *= (j - i)
    integral *= mp.power(m_cut, 1 - s) / mp.factorial(j)
    return first + integral


# ---------------------------------------------------------------------------
# local factors


def _gamma_r_jet(c: Fraction, order: int) -> Jet:
    """Jet of the real gamma factor pi^(-s/2) * Gamma(s/2) at s = c."""
    return (exp_linear_jet(-mp.log(mp.pi) / 2, order).scale(
        mp.power(mp.pi, -to_mpf(c) / 2))
        * gamma_jet(Fraction(1, 2) * c, order).scale_arg(Fraction(1, 2)))


def _local_pole_order(place, center: Fraction, field: NumberFieldData) -> int:
    """Pole order of a local factor: 1 at 0, -2, ... for Gamma_R; at p the
    multiplicity of the Euler polynomial's zero at X = p^-center.  With
    center = a/b in lowest terms X^b = p^-a is rational and 1, X, ...,
    X^(b-1) are independent over Q, so the count is exact."""
    if place == "inf":
        return 1 if center <= 0 and center % 2 == 0 else 0
    p, b = int(place), center.denominator
    x_b = Fraction(p) ** -center.numerator
    poly = field.euler_factor(p)
    pole = 0
    while all(sum(c * x_b**i for i, c in enumerate(poly[j::b])) == 0
              for j in range(b)):
        poly = [k * c for k, c in enumerate(poly)][1:]
        pole += 1
    return pole


def xi_local_jet(place, center, order: int,
                 field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of the local factor in its scalar argument at a rational center,
    known to `order` whatever its pole order."""
    center = Fraction(center)
    pole = _local_pole_order(place, center, field)
    if place == "inf":
        if not field.is_rational:
            raise ProviderError("archimedean local factors are only built in "
                                "for the rationals")
        return _gamma_r_jet(center, order + pole)
    p = int(place)
    internal = order + 2 * pole  # its zero, then its reciprocal, cost `pole`
    x_jet = exp_linear_jet(-mp.log(p), internal).scale(mp.power(p, -to_mpf(center)))
    acc = Jet.polynomial({})
    for d_k in reversed(field.euler_factor(p)):
        acc = (acc * x_jet).truncate(internal) + Jet.polynomial({0: d_k})
    acc = Jet(pole, acc.coeffs[pole:], internal)  # orders below `pole` vanish
    return acc.reciprocal(internal - pole)


# ---------------------------------------------------------------------------
# towers


def z_jet(n: int, center, order: int,
          field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of the n-step completed-zeta product xi(s-n+1)...xi(s) at `center`."""
    center = Fraction(center)
    internal = order + n + 2
    out = Jet.polynomial({0: 1})
    for j in range(1, n + 1):
        out = out * xi_jet(center - n + j, internal, field)
    return out.truncate(order)


def _times_s_minus_n(n: int, center, jet: Jet, order: int) -> Jet:
    """(s - n) * jet at s = center, cut to `order`; at center n the factor
    is t itself, which removes the simple pole of the top factor."""
    prefactor = strip_leading_zeros(
        Jet.polynomial({0: Fraction(center) - n, 1: 1}))
    return (prefactor * jet).truncate(order)


@memo
def ztilde_jet(n: int, center, order: int,
               field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of (s - n) * z_n(s): the pole of the top factor is removed at
    center n, where the value is the tower's regularized volume constant."""
    return _times_s_minus_n(n, center, z_jet(n, center, order + 1, field),
                            order)


def z_s_local_jet(n: int, places: PlaceSet, center, order: int,
                  field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of the product of local factors over the places of S,
    arguments s-n+1 .. s."""
    center = Fraction(center)
    tokens = places.primes + (("inf",) if places.include_archimedean else ())
    factors = [(p, center - n + j) for p in tokens for j in range(1, n + 1)]
    poles = [_local_pole_order(p, c, field) for p, c in factors]
    out = Jet.polynomial({0: 1})
    for (p, c), pole in zip(factors, poles):
        # the other factors' poles cost this one as many orders
        out = out * xi_local_jet(p, c, order + sum(poles) - pole, field)
    return out.truncate(order)


def z_s_jet(n: int, places: PlaceSet, center, order: int,
            field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of z_n with the Euler factors at S removed: z_n / z_{n,S}."""
    internal = order + n + 2
    num = z_jet(n, center, internal, field)
    den = strip_leading_zeros(z_s_local_jet(n, places, center, internal, field))
    return (num * den.reciprocal(internal - den.low)).truncate(order)


def ztilde_s_jet(n: int, places: PlaceSet, center, order: int,
                 field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of (s - n) * z_n^S(s); analytic at center n."""
    return _times_s_minus_n(n, center,
                            z_s_jet(n, places, center, order + 1, field), order)


@memo
def tower_ratio_jet(n: int, places: PlaceSet, order: int,
                    field: NumberFieldData = RATIONAL_FIELD) -> Jet:
    """Jet of the normalized tower ratio T(x) = ztilde_n^S(n + x) /
    ztilde_n^S(n), the tower series the group routes take."""
    jet = ztilde_s_jet(n, places, n, order, field)
    return jet.scale(1 / jet.coeff(0))


# ---------------------------------------------------------------------------
# volumes


def vol_gl_one(m: int, field: NumberFieldData = RATIONAL_FIELD) -> mp.mpf:
    """Volume of the norm-one quotient of GL(m): sqrt(m) times the
    regularized tower value at m."""
    return sqrt_fraction(m) * ztilde_jet(m, m, 1, field).coeff(0)


def vol_block_levi(profile: BlockProfile, field: NumberFieldData = RATIONAL_FIELD) -> mp.mpf:
    """Volume of the norm-one block Levi of a profile.

    Equals (d * v_d)^k divided by the product of the per-block coroot
    covolumes sqrt(block size), with v_d the regularized d-tower value.
    """
    d = profile.d
    v_d = ztilde_jet(d, d, 1, field).coeff(0)
    return (d * v_d) ** profile.k / sqrt_fraction(math.prod(profile.sizes))


def vol_minimal_levi(d: int, r: int, field: NumberFieldData = RATIONAL_FIELD) -> mp.mpf:
    return vol_block_levi(base_profile(d, r), field)


def vol_group(d: int, r: int, field: NumberFieldData = RATIONAL_FIELD) -> mp.mpf:
    return vol_block_levi(group_profile(d, r), field)


def volumes(profile: BlockProfile, field: NumberFieldData = RATIONAL_FIELD) -> dict:
    """The volume table for a profile: the ambient group, the block Levi
    of the profile, and the minimal block Levi."""
    d, r = profile.d, profile.r
    return {
        "gl_ambient": vol_gl_one(profile.n, field),
        "block_levi": vol_block_levi(profile, field),
        "minimal_levi": vol_minimal_levi(d, r, field),
        "group_block": vol_group(d, r, field),
    }
