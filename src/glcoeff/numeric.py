"""Shared precision plumbing.

Every numeric routine in this package takes an explicit binary precision
`prec` and does its internal work at `prec + GUARD_BITS` so that values
handed back to the caller are correct essentially to the last bit of the
requested precision.  Exact data (pairings, Gram determinants, rates)
stays in `fractions.Fraction` for as long as possible.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

DEFAULT_PREC = 256
GUARD_BITS = 64
MIN_PREC = 16


def default_prec() -> int:
    """Default binary precision; the ARTHUR_COEFF_PREC env var overrides it."""
    raw = os.environ.get("ARTHUR_COEFF_PREC")
    if raw is None:
        return DEFAULT_PREC
    prec = int(raw)
    if prec < MIN_PREC:
        raise ValueError(f"ARTHUR_COEFF_PREC must be at least {MIN_PREC} bits")
    return prec


@contextmanager
def working(prec: int, guard: int = GUARD_BITS):
    """Context manager: mpmath working precision prec + guard bits."""
    with mp.workprec(prec + guard):
        yield


def default_tol() -> mp.mpf:
    """Route and cancellation tolerance when none is given: 2^(-prec/2)
    relative, at the current working precision."""
    return mp.mpf(2) ** (-(mp.mp.prec // 2))


def to_mpf(x) -> mp.mpf:
    """Convert int/Fraction/float/str to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def sqrt_fraction(q: Fraction) -> mp.mpf:
    if q < 0:
        raise ValueError("square root of a negative rational")
    return mp.sqrt(to_mpf(q))


def decimal_str(x, prec: int) -> str:
    """Decimal string carrying the full precision (round-trips to <= 1 ulp)."""
    digits = libmp.prec_to_dps(prec) + 3
    return mp.nstr(mp.mpf(x), digits)


def parse_exact(text: str) -> Fraction:
    """Parse '3', '-1/2' or '0.35' into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(text)
