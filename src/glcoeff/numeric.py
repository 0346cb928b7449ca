"""The precision policy and shared numeric plumbing.

`working(prec)` is the only place that sets precision: it records `prec`
as the requested precision and runs its block at `prec + GUARD_BITS`, so
values handed back to the caller are correct essentially to the last bit
of the requested precision.  The route and cancellation tolerance,
2^-(requested // 2), follows from the requested precision alone.  Exact
data (pairings, Gram determinants, rates) stays in `fractions.Fraction`
for as long as possible.

`memo` is the one memo rule of the package: it keys a value by its
arguments and the working precision, so no `working` block is served a
value made in another.
"""
from __future__ import annotations

import inspect
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache, wraps

import mpmath as mp
from mpmath import libmp

DEFAULT_PREC = 256
GUARD_BITS = 64
MIN_PREC = 16
# Entries kept by each memo of the package, least recently used evicted
# first.  The commands of one perfbench round fill at most 19 entries of
# a memo and `verify prolongement4 --n 4` fills 68.
CACHE_SIZE = 256

_requested: ContextVar[int | None] = ContextVar("requested_prec", default=None)


def requested_prec() -> int:
    """The prec of the innermost `working` block, else DEFAULT_PREC."""
    prec = _requested.get()
    return DEFAULT_PREC if prec is None else prec


@contextmanager
def working(prec: int | None = None):
    """Request prec bits (default: the precision already requested) and
    work at prec + GUARD_BITS.  `@working()` runs each call of an entry
    point at the requested precision, whatever mpmath's global state."""
    if prec is None:
        prec = requested_prec()
    token = _requested.set(prec)
    try:
        with mp.workprec(prec + GUARD_BITS):
            yield
    finally:
        _requested.reset(token)


def memo(fn):
    """Memoize fn on its arguments, bound with their defaults so that
    every spelling of a call fills one entry, and the working precision."""
    signature = inspect.signature(fn)

    @lru_cache(maxsize=CACHE_SIZE)
    def cached(args, prec):
        return fn(*args)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(bound.args, mp.mp.prec)

    wrapper.cache_info = cached.cache_info
    wrapper.cache_parameters = cached.cache_parameters
    return wrapper


def tolerance_exponent(prec: int) -> int:
    return prec // 2


def tolerance() -> mp.mpf:
    """Relative route and cancellation tolerance: 2^-(requested // 2)."""
    return mp.mpf(2) ** -tolerance_exponent(requested_prec())


def to_mpf(x) -> mp.mpf:
    """Convert int/Fraction/float/str to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def sqrt_fraction(q: Fraction) -> mp.mpf:
    if q < 0:
        raise ValueError("square root of a negative rational")
    return mp.sqrt(to_mpf(q))


def decimal_str(x) -> str:
    """Decimal string at the requested precision (round-trips to <= 1 ulp)."""
    digits = libmp.prec_to_dps(requested_prec()) + 3
    return mp.nstr(mp.mpf(x), digits)


def parse_exact(text: str) -> Fraction:
    """Parse '3', '-1/2' or '0.35' into an exact rational; ValueError
    naming the text otherwise."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text!r}") from None
