"""Exact root data for block parabolic subgroups of GL(n).

The (co)character space of the diagonal torus is identified with R^n
carrying the standard inner product, so a linear form and a vector are
the same kind of object: a tuple of n rationals.  A standard parabolic
subgroup is encoded by the ordered composition of its diagonal block
sizes.  Everything in this module is exact rational arithmetic; square
roots (covolumes) are taken lazily at a caller-supplied precision.

Conventions, validated by the duality and covolume tests rather than
assumed: for adjacent blocks i, i+1 of sizes m_i, m_{i+1}, the simple
root *and* its coroot are both represented by the vector
indicator(block i)/m_i - indicator(block i+1)/m_{i+1}; the weights and
coweights are the dual basis inside the sum-zero subspace of each
enclosing block.  Both bases and the coroot Gram determinants are built
in closed form; `gram_determinant` and `covolume` eliminate from scratch
and serve as the oracle the closed forms are checked against.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import mpmath as mp

from .numeric import sqrt_fraction, to_mpf

Q = Fraction
Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vectors

def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def pairing(u: Vector, v: Vector) -> Fraction:
    """Euclidean pairing <u, v>; exact."""
    return sum((a * b for a, b in zip(u, v, strict=True)), Q(0))


# ---------------------------------------------------------------------------
# compositions and profiles

def compositions(r: int) -> list[tuple[int, ...]]:
    """All 2^(r-1) ordered compositions of r, reverse-lexicographic."""
    if r < 1:
        raise ValueError("r must be positive")
    out: list[tuple[int, ...]] = []

    def rec(rest: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for first in range(rest, 0, -1):
            rec(rest - first, prefix + (first,))

    rec(r, ())
    return out


@dataclass(frozen=True)
class BlockProfile:
    """A standard parabolic P with P_0 <= P <= G.

    `parts` is the composition of r counting how many of the r inner
    blocks (each of size d) each diagonal block of P swallows; block i
    of P has size d*parts[i].
    """

    d: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if self.d < 1 or any(p < 1 for p in self.parts) or not self.parts:
            raise ValueError("invalid block profile")

    @property
    def r(self) -> int:
        return sum(self.parts)

    @property
    def n(self) -> int:
        return self.d * self.r

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.d * p for p in self.parts)


def group_profile(d: int, r: int) -> BlockProfile:
    return BlockProfile(d, (r,))


def base_profile(d: int, r: int) -> BlockProfile:
    return BlockProfile(d, (1,) * r)


def enumerate_parabolics(d: int, r: int) -> list[BlockProfile]:
    """All standard parabolics between P_0 and G, reverse-lex composition order."""
    return [BlockProfile(d, parts) for parts in compositions(r)]


def _boundaries(sizes: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    acc = 0
    for s in sizes:
        acc += s
        out.append(acc)
    return tuple(out)


def _block_ranges(sizes: tuple[int, ...]) -> list[range]:
    out = []
    start = 0
    for s in sizes:
        out.append(range(start, start + s))
        start += s
    return out


def _step(n: int, lo: int, mid: int, hi: int, a: Fraction, b: Fraction) -> Vector:
    """The vector equal to a on coordinates [lo, mid), b on [mid, hi), 0 elsewhere."""
    zero = Q(0)
    return (zero,) * lo + (a,) * (mid - lo) + (b,) * (hi - mid) + (zero,) * (n - hi)


# ---------------------------------------------------------------------------
# simple roots, coroots and their dual bases

@dataclass(frozen=True)
class SimpleData:
    coroots: tuple[Vector, ...]
    coweights: tuple[Vector, ...]
    coroot_gram_det: Fraction


def _simple_data_sizes(fine: tuple[int, ...], coarse: tuple[int, ...]) -> SimpleData:
    """Closed forms, one coarse block at a time.

    In a coarse block of size M cut into fine blocks of sizes m_1..m_k,
    with partial sums S_i = m_1 + ... + m_i, the coweight dual to the
    i-th coroot is (M - S_i)/M on the first i fine blocks and -S_i/M on
    the rest: it sums to zero over the block and drops by exactly 1
    across boundary i only.  The coroot Gram determinant of the block is
    M / (m_1 ... m_k).
    """
    n = sum(fine)
    fine_ends = _boundaries(fine)
    coarse_ends = _boundaries(coarse)
    if sum(coarse) != n or not set(coarse_ends) <= set(fine_ends):
        raise ValueError("first profile must refine the second")
    coroots: list[Vector] = []
    coweights: list[Vector] = []
    det = Q(1)
    start = 0
    for end in coarse_ends:
        size = end - start
        edges = [start] + [b for b in fine_ends if start < b < end] + [end]
        for lo, mid, hi in zip(edges, edges[1:], edges[2:]):
            coroots.append(_step(n, lo, mid, hi, Q(1, mid - lo), Q(-1, hi - mid)))
            done = mid - start
            coweights.append(_step(n, start, mid, end,
                                   Q(size - done, size), Q(-done, size)))
        det *= size
        for lo, hi in zip(edges, edges[1:]):
            det /= hi - lo
        start = end

    return SimpleData(coroots=tuple(coroots), coweights=tuple(coweights),
                      coroot_gram_det=det)


def simple_data(fine: BlockProfile, coarse: BlockProfile | None = None) -> SimpleData:
    """Coroots of A_P on the Levi of Q and their dual coweights, P <= Q."""
    if coarse is None:
        coarse = group_profile(fine.d, fine.r)
    if fine.n != coarse.n:
        raise ValueError("profiles live in different spaces")
    return _simple_data_sizes(fine.sizes, coarse.sizes)


# ---------------------------------------------------------------------------
# covolumes and theta factors

def gram_determinant(vectors: list[Vector] | tuple[Vector, ...]) -> Fraction:
    """Exact determinant of the Gram matrix; 1 for the empty family."""
    vectors = list(vectors)
    if not vectors:
        return Q(1)
    gram = [[pairing(a, b) for b in vectors] for a in vectors]
    size = len(gram)
    det = Q(1)
    for col in range(size):
        piv = next((i for i in range(col, size) if gram[i][col] != 0), None)
        if piv is None:
            raise ValueError("linearly dependent vectors")
        if piv != col:
            gram[col], gram[piv] = gram[piv], gram[col]
            det = -det
        det *= gram[col][col]
        inv = Q(1) / gram[col][col]
        for i in range(col + 1, size):
            if gram[i][col] != 0:
                f = gram[i][col] * inv
                gram[i] = [a - f * b for a, b in zip(gram[i], gram[col])]
    if det <= 0:
        raise ValueError("linearly dependent vectors")
    return det


def covolume(vectors) -> mp.mpf:
    """sqrt(det Gram) at the current working precision; empty family -> 1."""
    return sqrt_fraction(gram_determinant(tuple(vectors)))


@dataclass(frozen=True)
class ThetaFactor:
    """Normalized product of pairings: evaluates to covolume^-1 * prod <lam, f>."""

    forms: tuple[Vector, ...]
    gram_det: Fraction

    @property
    def degree(self) -> int:
        return len(self.forms)

    def covolume(self) -> mp.mpf:
        return sqrt_fraction(self.gram_det)

    def rational_part(self, lam: Vector) -> Fraction:
        out = Q(1)
        for f in self.forms:
            out *= pairing(lam, f)
        return out

    def evaluate(self, lam: Vector) -> mp.mpf:
        return to_mpf(self.rational_part(lam)) / self.covolume()


def theta_factor(P: BlockProfile, Q_prof: BlockProfile | None = None) -> ThetaFactor:
    """theta_P^Q: covolume-normalized product over the coroots of (P, Q)."""
    data = simple_data(P, Q_prof)
    return ThetaFactor(data.coroots, data.coroot_gram_det)


def hat_theta_factor(fine: BlockProfile, coarse: BlockProfile) -> ThetaFactor:
    """hat theta for the pair (fine, coarse): product over the coweights,
    whose Gram matrix is the inverse of the coroot Gram matrix."""
    data = simple_data(fine, coarse)
    return ThetaFactor(data.coweights, 1 / data.coroot_gram_det)


def epsilon(P: BlockProfile, Q_prof: BlockProfile | None = None) -> int:
    """(-1)^(dim a_P^Q), the parity sign of the alternating sums."""
    k_coarse = 1 if Q_prof is None else Q_prof.k
    return -1 if (P.k - k_coarse) % 2 else 1


def project(lam: Vector, P: BlockProfile) -> tuple[Vector, Vector]:
    """Orthogonal decomposition lam = lam_upper + lam_lower.

    lam_lower (second entry) is constant on each P-block (the block-mean
    part); lam_upper sums to zero within each P-block.  Exact.
    """
    n = len(lam)
    if n != P.n:
        raise ValueError("dimension mismatch")
    lower: list[Fraction] = []
    for rng in _block_ranges(P.sizes):
        mean = sum((lam[i] for i in rng), Q(0)) / len(rng)
        lower.extend([mean] * len(rng))
    low = tuple(lower)
    return vec_sub(lam, low), low


# ---------------------------------------------------------------------------
# the block-permutation Weyl action

def block_permutations(parts: tuple[int, ...]):
    """All permutations of the inner blocks preserving the given grouping.

    Yields tuples sigma over range(r); sigma is the identity outside the
    grouped ranges.  Deterministic order.
    """
    ranges = []
    start = 0
    for c in parts:
        ranges.append(list(range(start, start + c)))
        start += c

    def rec(i: int, current: list[int]):
        if i == len(ranges):
            yield tuple(current)
            return
        for perm in permutations(ranges[i]):
            yield from rec(i + 1, current + list(perm))

    yield from rec(0, [])


def permute_blocks(d: int, sigma: tuple[int, ...], v: Vector) -> Vector:
    """Permute the r size-d blocks of v: block i of the result is block sigma[i] of v."""
    out: list[Fraction] = []
    for i in range(len(sigma)):
        src = sigma[i] * d
        out.extend(v[src:src + d])
    return tuple(out)
