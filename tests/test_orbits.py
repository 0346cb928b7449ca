import random
from dataclasses import replace
from fractions import Fraction

import pytest

from glcoeff.orbits import (LeviDatum, Partition, dominates,
                            enumerate_inducing_pairs, generic_induced_element,
                            induce, induced_type_oracle, jordan_matrix,
                            partitions, rank_powers_oracle,
                            search_inducing_pairs)


def test_partition_basics():
    p = Partition((3, 2, 2))
    assert p.n == 7
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition.block_regular(3, 2) == Partition((2, 2, 2))


def test_partitions_enumeration():
    assert len(list(partitions(5))) == 7
    assert len(list(partitions(8))) == 22
    for p in partitions(6, max_part=2):
        assert all(part <= 2 for part in p)


def test_dominance():
    assert dominates(Partition((4,)), Partition((2, 2)))
    assert dominates(Partition((2, 2)), Partition((2, 1, 1)))
    assert not dominates(Partition((2, 2)), Partition((3, 1)))
    assert not dominates(Partition((3, 1)), Partition((4,)))


def test_rank_powers_oracle_matches_jordan_type():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(1, 7)
        parts = []
        left = n
        while left:
            part = rng.randint(1, left)
            parts.append(part)
            left -= part
        p = Partition(tuple(sorted(parts, reverse=True)))
        assert rank_powers_oracle(jordan_matrix(p)) == p


def test_rank_oracle_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        rank_powers_oracle([[1]])


def test_induce_padded_sum():
    levi = LeviDatum((2, 2), (Partition((1, 1)), Partition((2,))))
    assert induce(levi) == Partition((3, 1))
    triv = LeviDatum((4,), (Partition((2, 2)),))
    assert induce(triv) == Partition((2, 2))


def test_induce_matches_rank_oracle():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 7)
        parts, orbs = [], []
        left = n
        while left:
            m = rng.randint(1, left)
            opts = list(partitions(m))
            parts.append(m)
            orbs.append(opts[rng.randrange(len(opts))])
            left -= m
        levi = LeviDatum(tuple(parts), tuple(orbs))
        assert induce(levi) == induced_type_oracle(levi)


def test_induce_transitive_through_intermediate_levi():
    # inducing in two steps agrees with one step
    inner = LeviDatum((1, 2), (Partition((1,)), Partition((2,))))
    once = induce(inner)  # orbit of gl(3)
    outer = LeviDatum((3, 2), (once, Partition((1, 1))))
    direct = LeviDatum((1, 2, 2),
                       (Partition((1,)), Partition((2,)), Partition((1, 1))))
    assert induce(outer) == induce(direct)


def test_generic_element_deterministic():
    levi = LeviDatum((2, 1), (Partition((2,)), Partition((1,))))
    a = generic_induced_element(levi, salt=3)
    b = generic_induced_element(levi, salt=3)
    assert a == b
    c = generic_induced_element(levi, salt=4)
    assert c != a


def test_enumerate_inducing_pairs_d2_r2():
    pairs = enumerate_inducing_pairs(2, 2)
    keyed = {(tuple(part for part, _ in pair.levi.couples),
              tuple(orb.parts for _, orb in pair.levi.couples)): pair
             for pair in pairs}
    assert ((2, 2), ((1, 1), (1, 1))) in keyed
    assert ((4,), ((2, 2),)) in keyed
    assert len(pairs) == 2
    split = keyed[((2, 2), ((1, 1), (1, 1)))]
    assert split.weyl_weight == Fraction(1, 6)
    assert split.class_size == 3
    full = keyed[((4,), ((2, 2),))]
    assert full.weyl_weight == 1
    assert full.class_size == 1


def test_inducing_pairs_all_induce_to_target():
    for d, r in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        target = Partition.block_regular(d, r)
        pairs = enumerate_inducing_pairs(d, r)
        assert pairs, "the full Levi always works"
        for pair in pairs:
            assert induce(pair.levi) == target
        # the one-block Levi carrying the target itself is always present
        tops = [p for p in pairs if len(p.levi.couples) == 1]
        assert len(tops) == 1
        assert tops[0].levi.couples[0][1] == target


def test_closed_form_pairs_match_exhaustive_search():
    # same classes, order, Weyl weights and counts for every d*r <= 12
    shapes = 0
    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            pairs = enumerate_inducing_pairs(d, n // d)
            assert [replace(p, profile=None) for p in pairs] == \
                search_inducing_pairs(d, n // d)
            for pair in pairs:
                assert pair.profile.d == d
                assert pair.levi.parts == pair.profile.sizes
                assert pair.levi.orbits == tuple(
                    Partition((p,) * d) for p in pair.profile.parts)
            shapes += 1
    assert shapes == 35


@pytest.mark.parametrize("d,r", [(0, 3), (-1, 2), (2, 0), (1, -4)])
def test_enumeration_rejects_nonpositive_shape(d, r):
    with pytest.raises(ValueError):
        enumerate_inducing_pairs(d, r)
