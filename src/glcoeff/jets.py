"""Truncated power/Laurent series in one variable over mpmath reals.

Every removable-singularity evaluation in this package is done along a
generic line through the origin, which reduces the multivariate limits
to arithmetic in this ring.  A Jet holds coefficients for the orders
[low, trunc); orders >= trunc are unknown.  Stored coefficients may stop
short of trunc, in which case the remaining known orders are exactly
zero; exactly-known jets (constants, monomials, polynomials) use
trunc = EXACT so they never degrade a product's truncation order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .numeric import to_mpf, tolerance

EXACT = 1 << 60


class CancellationError(ArithmeticError):
    """A Laurent tail that should have cancelled did not.

    Raised by split_pole; carries the offending relative residual.
    This is the principal bug detector of the whole package: a residual
    above tolerance means some identity guaranteeing holomorphy failed.
    """

    def __init__(self, residual, where: str = ""):
        self.residual = residual
        self.where = where
        msg = f"cancellation failure, residual {mp.nstr(mp.mpf(residual), 8)}"
        if where:
            msg += f" in {where}"
        super().__init__(msg)


@dataclass(frozen=True)
class Jet:
    low: int
    coeffs: tuple
    trunc: int

    def __post_init__(self):
        if self.trunc != EXACT and len(self.coeffs) > self.trunc - self.low:
            raise ValueError("stored coefficients exceed the truncation order")

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: dict[int, object]) -> "Jet":
        """Exactly-known finite Laurent polynomial {order: coefficient}."""
        if not coeffs:
            return cls(0, (), EXACT)
        low = min(coeffs)
        high = max(coeffs)
        data = tuple(to_mpf(coeffs.get(i, 0)) for i in range(low, high + 1))
        return cls(low, data, EXACT)

    # -- basic access ------------------------------------------------------

    @property
    def stored_high(self) -> int:
        """One past the highest stored order."""
        return self.low + len(self.coeffs)

    def coeff(self, k: int):
        if k >= self.trunc:
            raise ValueError(f"order {k} beyond truncation order {self.trunc}")
        if self.low <= k < self.stored_high:
            return self.coeffs[k - self.low]
        return mp.mpf(0)

    def scale_norm(self) -> mp.mpf:
        return max((abs(c) for c in self.coeffs), default=mp.mpf(0))

    def truncate(self, new_trunc: int) -> "Jet":
        if new_trunc >= self.trunc:
            return self
        low = min(self.low, new_trunc)
        keep = max(0, min(len(self.coeffs), new_trunc - self.low))
        return Jet(low, self.coeffs[:keep], new_trunc)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Jet") -> "Jet":
        trunc = min(self.trunc, other.trunc)
        low = min(self.low, other.low)
        high = min(max(self.stored_high, other.stored_high), trunc)
        coeffs = tuple(self.coeff(k) + other.coeff(k) for k in range(low, high))
        return Jet(min(low, trunc), coeffs, trunc)

    def __neg__(self) -> "Jet":
        return Jet(self.low, tuple(-c for c in self.coeffs), self.trunc)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, c) -> "Jet":
        c = to_mpf(c)
        return Jet(self.low, tuple(c * x for x in self.coeffs), self.trunc)

    def __mul__(self, other: "Jet") -> "Jet":
        low = self.low + other.low
        if self.trunc == EXACT and other.trunc == EXACT:
            trunc = EXACT
            out_len = max(0, len(self.coeffs) + len(other.coeffs) - 1)
        else:
            trunc = min(self.trunc + other.low, other.trunc + self.low)
            out_len = trunc - low
        out = [mp.mpf(0)] * out_len
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            jmax = min(len(other.coeffs), out_len - i)
            for j in range(jmax):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Jet(low, tuple(out), trunc)

    def shift(self, k: int) -> "Jet":
        """Multiply by t^k exactly (k may be negative)."""
        trunc = EXACT if self.trunc == EXACT else self.trunc + k
        return Jet(self.low + k, self.coeffs, trunc)

    def scale_arg(self, c) -> "Jet":
        """Substitute t -> c*t: coefficient at order k picks up c^k."""
        c = to_mpf(c)
        if c == 0 and self.low < 0:
            raise ZeroDivisionError("zero rate applied to a Laurent jet")
        coeffs = tuple(x * c**k
                       for k, x in zip(range(self.low, self.stored_high), self.coeffs))
        return Jet(self.low, coeffs, self.trunc)

    def reciprocal(self, order: int | None = None) -> "Jet":
        """Invert a jet with nonzero leading coefficient.

        `order` (number of output coefficients) is required when the
        input is exactly known, since the reciprocal is a full series.
        """
        if not self.coeffs or self.coeffs[0] == 0:
            raise ZeroDivisionError("jet with vanishing leading coefficient")
        if order is None:
            if self.trunc == EXACT:
                raise ValueError("reciprocal of an exact jet needs an explicit order")
            order = self.trunc - self.low
        if self.trunc != EXACT:
            order = min(order, self.trunc - self.low)
        a = [self.coeffs[j] if j < len(self.coeffs) else mp.mpf(0)
             for j in range(order)]
        inv0 = 1 / a[0]
        out = [inv0] + [mp.mpf(0)] * (order - 1)
        for k in range(1, order):
            acc = mp.mpf(0)
            for j in range(1, k + 1):
                if a[j] != 0:
                    acc += a[j] * out[k - j]
            out[k] = -inv0 * acc
        return Jet(-self.low, tuple(out), -self.low + order)


def strip_leading_zeros(jet: Jet) -> Jet:
    """Advance `low` past stored coefficients that are exactly zero.

    Useful before reciprocal() when a leading coefficient vanished for
    structural (exact) reasons rather than by numeric cancellation.
    """
    low, coeffs = jet.low, jet.coeffs
    while coeffs and coeffs[0] == 0:
        low += 1
        coeffs = coeffs[1:]
    if not coeffs:
        low = 0 if jet.trunc == EXACT else min(jet.low, jet.trunc)
    return Jet(low, coeffs, jet.trunc)


def split_pole(jet: Jet, k: int, where: str = "") -> tuple[Jet, mp.mpf]:
    """Divide by t^k; the exposed negative orders must cancel.

    Returns the analytic part and the relative residual of the discarded
    coefficients, measured against the largest coefficient of the input
    (floored at 1 so an all-tiny jet cannot mask a real failure).  A
    residual above numeric.tolerance() raises CancellationError: an
    identity that should have made the pole removable did not hold.
    """
    shifted = jet.shift(-k)
    residual = mp.mpf(0)
    for order in range(shifted.low, min(0, shifted.stored_high)):
        residual = max(residual, abs(shifted.coeff(order)))
    residual /= max(jet.scale_norm(), mp.mpf(1))
    if residual > tolerance():
        raise CancellationError(residual, where)
    low = max(shifted.low, 0)
    if shifted.trunc != EXACT and shifted.trunc < low:
        return Jet(shifted.trunc, (), shifted.trunc), residual
    coeffs = tuple(shifted.coeff(i) for i in range(low, max(shifted.stored_high, low)))
    return Jet(low, coeffs, shifted.trunc), residual


def exp_jet(arg: Jet, order: int | None = None) -> Jet:
    """exp of an analytic jet, to `order` coefficients."""
    if arg.low < 0 and any(c != 0 for c in arg.coeffs[: -arg.low]):
        raise ValueError("exp of a Laurent jet")
    if order is None:
        if arg.trunc == EXACT:
            raise ValueError("exp of an exact jet needs an explicit order")
        order = arg.trunc
    order = min(order, arg.trunc)
    a = [arg.coeff(k) if k >= arg.low else mp.mpf(0) for k in range(order)]
    out = [mp.exp(a[0])] + [mp.mpf(0)] * (order - 1)
    for k in range(1, order):
        acc = mp.mpf(0)
        for j in range(1, k + 1):
            if a[j] != 0:
                acc += j * a[j] * out[k - j]
        out[k] = acc / k
    return Jet(0, tuple(out), order)


def exp_linear_jet(rate, order: int) -> Jet:
    """Jet of exp(rate*t) to truncation order `order`."""
    rate = to_mpf(rate)
    out = [mp.mpf(1)]
    for j in range(1, order):
        out.append(out[-1] * rate / j)
    return Jet(0, tuple(out), order)


@dataclass(frozen=True)
class LinearFactor:
    """One factor f(rate_scale * <lam, form>) of a product of scalar functions.

    scalar_jet(order) must return the jet of f at its own center in a
    scalar variable s (trunc = order); restricted to the line lam = t*lam0
    the factor contributes that jet with s = rate * t, where
    rate = rate_scale * <lam0, form>.
    """

    scalar_jet: object  # Callable[[int], Jet]
    form: tuple
    rate_scale: Fraction = Fraction(1)


def compose_linear(jets, rates) -> Jet:
    """Jet in t of prod_i f_i(rate_i * t), from the jet of each f_i in its
    own variable, one rate per jet.

    An empty product is the exact constant jet 1.
    """
    out = Jet.polynomial({0: 1})
    for jet, rate in zip(jets, rates, strict=True):
        out = out * jet.scale_arg(rate)
    return out
