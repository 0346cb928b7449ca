"""Nilpotent orbit bookkeeping for gl(n).

Partitions as Jordan types, orbit induction from a Levi by padded
componentwise partition sums, and the (Levi, orbit) pairs that induce a
given block-regular orbit: one per partition of r in closed form, with
the exhaustive search kept as its oracle.
Everything here is exact integer or rational arithmetic.  The rank-of-
powers oracle is deliberately independent of the combinatorial rules so
the two can certify each other in the test suite.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .rootdata import BlockProfile


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of positive integers (a Jordan type)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @classmethod
    def zero_orbit(cls, m: int) -> "Partition":
        """Jordan type of the zero matrix of gl(m)."""
        return cls((1,) * m)

    @classmethod
    def block_regular(cls, d: int, r: int) -> "Partition":
        """The orbit with d Jordan blocks of size r."""
        return cls((r,) * d)


def dominates(a: Partition, b: Partition) -> bool:
    """Dominance order on partitions of the same integer."""
    if a.n != b.n:
        raise ValueError("dominance needs equal totals")
    acc_a = acc_b = 0
    width = max(len(a.parts), len(b.parts))
    for i in range(width):
        acc_a += a.parts[i] if i < len(a.parts) else 0
        acc_b += b.parts[i] if i < len(b.parts) else 0
        if acc_a < acc_b:
            return False
    return True


def partitions(m: int, max_part: int | None = None):
    """Yield all partitions of m as weakly decreasing tuples."""
    if max_part is None or max_part > m:
        max_part = m
    if m == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


# -- exact matrix helpers ----------------------------------------------------


def zero_matrix(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def mat_mul(a, b):
    n = len(a)
    out = zero_matrix(n)
    for i in range(n):
        row = a[i]
        orow = out[i]
        for k in range(n):
            x = row[k]
            if x:
                brow = b[k]
                for j in range(n):
                    if brow[j]:
                        orow[j] += x * brow[j]
    return out

def mat_rank(m) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in m]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def jordan_matrix(p: Partition) -> list[list[int]]:
    """Block-diagonal nilpotent with one Jordan block per part."""
    m = zero_matrix(p.n)
    off = 0
    for part in p.parts:
        for i in range(part - 1):
            m[off + i][off + i + 1] = 1
        off += part
    return m


def rank_powers_oracle(m) -> Partition:
    """Jordan type from the rank sequence of powers.

    The multiplicity of parts >= j equals rank(m^(j-1)) - rank(m^j);
    exact arithmetic throughout, so the answer is certified, not
    approximated.  Raises on non-nilpotent input.
    """
    n = len(m)
    if n == 0:
        return Partition(())
    ranks = [n]
    power = [list(row) for row in m]
    for _ in range(n):
        r = mat_rank(power)
        ranks.append(r)
        if r == 0:
            break
        power = mat_mul(power, m)
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    counts_ge = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    parts = []
    for j, c in enumerate(counts_ge, start=1):
        mult = c - (counts_ge[j] if j < len(counts_ge) else 0)
        if mult < 0:
            raise ValueError("rank sequence is not a Jordan profile")
        parts.extend([j] * mult)
    return Partition(tuple(sorted(parts, reverse=True)))


# -- Levi data and induction -------------------------------------------------


@dataclass(frozen=True)
class LeviDatum:
    """A Levi up to conjugacy (multiset of parts) with one orbit per part.

    Construction canonicalizes the (part, orbit) couples into decreasing
    order, so two data describing the same conjugacy class compare equal.
    """

    parts: tuple[int, ...]
    orbits: tuple[Partition, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.orbits):
            raise ValueError("one orbit per part is required")
        orbits = tuple(o if isinstance(o, Partition) else Partition(tuple(o))
                       for o in self.orbits)
        couples = sorted(zip(self.parts, orbits),
                         key=lambda c: (c[0], c[1].parts), reverse=True)
        object.__setattr__(self, "parts", tuple(int(c[0]) for c in couples))
        object.__setattr__(self, "orbits", tuple(c[1] for c in couples))
        for part, orbit in zip(self.parts, self.orbits):
            if part <= 0:
                raise ValueError("Levi parts must be positive")
            if orbit.n != part:
                raise ValueError(f"orbit {orbit.parts} does not sum to {part}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def couples(self) -> tuple:
        return tuple(zip(self.parts, self.orbits))


def induce(levi: LeviDatum) -> Partition:
    """Orbit induced to gl(n): componentwise sum of the orbit partitions
    after zero padding to a common length."""
    width = max((len(o.parts) for o in levi.orbits), default=0)
    if width == 0:
        return Partition(())
    summed = [0] * width
    for orbit in levi.orbits:
        for i, p in enumerate(orbit.parts):
            summed[i] += p
    return Partition(tuple(sorted(summed, reverse=True)))


def _int_stream(seed: int):
    # 64-bit LCG; values spread over a small signed range, never zero
    state = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        v = (state >> 33) % 101 - 50
        yield v if v != 0 else 7


def generic_induced_element(levi: LeviDatum, salt: int = 0) -> list[list[int]]:
    """Jordan realization of the orbits on the diagonal blocks, strict
    upper block entries drawn from a deterministic seeded stream.

    A generic such element lies in the induced (dense) orbit; a given
    filling might be non-generic, which the caller detects by comparing
    several salts.
    """
    n = levi.n
    m = zero_matrix(n)
    offsets = []
    off = 0
    for part, orbit in levi.couples:
        offsets.append((off, part))
        block = jordan_matrix(orbit)
        for i in range(part):
            for j in range(part):
                m[off + i][off + j] = block[i][j]
        off += part
    stream = _int_stream(2 * salt + 1)
    for bi, (oi, pi) in enumerate(offsets):
        for oj, pj in offsets[bi + 1:]:
            for i in range(pi):
                for j in range(pj):
                    m[oi + i][oj + j] = next(stream)
    return m


def induced_type_oracle(levi: LeviDatum, tries: int = 4) -> Partition:
    """Jordan type of a generic element above the given Levi orbit.

    Ranks of powers are maximized exactly on the dense induced orbit, so
    the dominance-largest type over a few seeded fillings is the induced
    type.  Incomparable outcomes would mean every filling was degenerate;
    that is reported rather than guessed around.
    """
    best = None
    for salt in range(tries):
        t = rank_powers_oracle(generic_induced_element(levi, salt))
        if best is None or dominates(t, best):
            best = t
        elif not dominates(best, t):
            raise RuntimeError(
                "seeded fillings gave incomparable Jordan types; increase tries")
    return best


@dataclass(frozen=True)
class InducingPair:
    """One conjugacy class of (Levi, orbit) couples inducing the target.

    weyl_weight is |W_L| / |W| as an exact fraction; standard_levi_count
    is the number of standard Levis in the class, and class_size the
    number of couples in the full conjugation orbit of the pair.
    profile is the block profile (d, p) whose Levi GL(d*p_1) x ... carries
    the rectangular orbits (p_j^d); the exhaustive search, which does not
    assume that shape, leaves it None.
    """

    levi: LeviDatum
    weyl_weight: Fraction
    standard_levi_count: int
    class_size: int
    profile: BlockProfile | None = None


def block_pair(profile: BlockProfile) -> InducingPair:
    """The class of the block Levi of a profile with its rectangular orbits.

    Closed form: the Levi is GL(d*p_1) x ... x GL(d*p_k) with orbit
    (p_j^d) on factor j, |W_L| = prod (d*p_j)!, its standard Levis are
    the distinct orderings of p, and a couple is fixed by permuting
    equal factors.
    """
    d, parts = profile.d, profile.parts
    levi = LeviDatum(profile.sizes, tuple(Partition((p,) * d) for p in parts))
    w_levi = 1
    for size in profile.sizes:
        w_levi *= factorial(size)
    repeats = 1
    for p in set(parts):
        repeats *= factorial(parts.count(p))
    return InducingPair(levi, Fraction(w_levi, factorial(profile.n)),
                        factorial(len(parts)) // repeats,
                        factorial(profile.n) // (w_levi * repeats), profile)


def enumerate_inducing_pairs(d: int, r: int) -> list[InducingPair]:
    """All classes of (Levi, orbit) pairs inducing the (r^d) orbit.

    A padded sum of partitions is the rectangle (r^d) only if every
    summand is a rectangle with d rows, so the classes are exactly the
    block Levis of the partitions p of r.  Ordered by decreasing number
    of parts, then increasing parts; `search_inducing_pairs` is the
    exhaustive oracle for this.
    """
    if d < 1 or r < 1:
        raise ValueError(f"block size and block count must be at least 1, "
                         f"got d={d}, r={r}")
    ordered = sorted(partitions(r), key=lambda p: (-len(p), p))
    return [block_pair(BlockProfile(d, p)) for p in ordered]


def search_inducing_pairs(d: int, r: int) -> list[InducingPair]:
    """Exhaustive oracle for `enumerate_inducing_pairs` (without profiles).

    Tries every multiset of parts of n = rd and every multiset of orbit
    partitions on equal parts.  Fine for desk-scale n.
    """
    n = d * r
    target = Partition.block_regular(d, r)
    found = []
    for parts in partitions(n):
        mult: dict[int, int] = {}
        for v in parts:
            mult[v] = mult.get(v, 0) + 1
        values = sorted(mult, reverse=True)
        per_value = [
            list(itertools.combinations_with_replacement(
                [Partition(p) for p in partitions(v)], mult[v]))
            for v in values
        ]
        for combo in itertools.product(*per_value):
            part_list: list[int] = []
            orbit_list: list[Partition] = []
            for v, chosen in zip(values, combo):
                for orbit in chosen:
                    part_list.append(v)
                    orbit_list.append(orbit)
            levi = LeviDatum(tuple(part_list), tuple(orbit_list))
            if induce(levi) != target:
                continue
            found.append(_with_counts(levi))
    found.sort(key=lambda ip: (-len(ip.levi.parts), ip.levi.parts,
                               tuple(o.parts for o in ip.levi.orbits)))
    return found


def _with_counts(levi: LeviDatum) -> InducingPair:
    n = levi.n
    w_levi = 1
    for part in levi.parts:
        w_levi *= factorial(part)
    value_mult: dict[int, int] = {}
    couple_mult: dict[tuple, int] = {}
    for part, orbit in levi.couples:
        value_mult[part] = value_mult.get(part, 0) + 1
        key = (part, orbit.parts)
        couple_mult[key] = couple_mult.get(key, 0) + 1
    standard = factorial(len(levi.parts))
    for c in value_mult.values():
        standard //= factorial(c)
    repeats = 1
    for c in couple_mult.values():
        repeats *= factorial(c)
    class_size, rem = divmod(factorial(n), w_levi * repeats)
    if rem:
        raise AssertionError("stabilizer order does not divide the group order")
    return InducingPair(levi, Fraction(w_levi, factorial(n)), standard, class_size)
