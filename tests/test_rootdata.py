import random
from fractions import Fraction

import mpmath as mp
import pytest

from glcoeff.numeric import working
from glcoeff.rootdata import (BlockProfile, base_profile, block_permutations,
                              compositions, covolume, enumerate_parabolics,
                              epsilon, gram_determinant, group_profile,
                              hat_theta_factor, pairing, permute_blocks,
                              project, simple_data, theta_factor)

Q = Fraction


def refinement_pairs(n_max: int):
    """Every composition of every n <= n_max as the fine profile, under
    every coarsening of it (consecutive fine blocks merged)."""
    for n in range(1, n_max + 1):
        for fine in compositions(n):
            for grouping in compositions(len(fine)):
                coarse, used = [], 0
                for g in grouping:
                    coarse.append(sum(fine[used:used + g]))
                    used += g
                yield BlockProfile(1, fine), BlockProfile(1, tuple(coarse))


def test_compositions_order():
    assert list(compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert sum(1 for _ in compositions(6)) == 32


def test_profile_validation():
    with pytest.raises(ValueError):
        BlockProfile(2, ())
    with pytest.raises(ValueError):
        BlockProfile(0, (1,))
    p = BlockProfile(3, (2, 1))
    assert p.n == 9 and p.sizes == (6, 3)


def test_gl2_coroot_and_coweight():
    sd = simple_data(base_profile(1, 2))
    assert sd.coroots == ((Q(1), Q(-1)),)
    assert sd.coweights == ((Q(1, 2), Q(-1, 2)),)
    assert pairing(sd.coweights[0], sd.coroots[0]) == 1


def test_dual_bases_all_parabolics():
    # the closed-form coweights are the exact dual basis of the coroots,
    # for block sizes of every shape, not only multiples of one d
    for fine, coarse in refinement_pairs(9):
        sd = simple_data(fine, coarse)
        assert len(sd.coweights) == len(sd.coroots) == fine.k - coarse.k
        for i, w in enumerate(sd.coweights):
            for j, a in enumerate(sd.coroots):
                expected = Q(1) if i == j else Q(0)
                assert pairing(w, a) == expected


def test_closed_form_gram_determinant_matches_elimination():
    checked = 0
    for fine, coarse in refinement_pairs(9):
        sd = simple_data(fine, coarse)
        coroot_det = gram_determinant(sd.coroots)
        coweight_det = gram_determinant(sd.coweights)
        assert sd.coroot_gram_det == coroot_det
        assert 1 / sd.coroot_gram_det == coweight_det
        assert theta_factor(fine, coarse).gram_det == coroot_det
        assert hat_theta_factor(fine, coarse).gram_det == coweight_det
        checked += 1
    assert checked == (3 ** 9 - 1) // 2


def test_covolume_of_full_coroot_lattice():
    # covolume of the simple coroots of a size-n block is sqrt(n)
    for n in (2, 3, 5, 8):
        sd = simple_data(base_profile(1, n))
        cov = covolume(sd.coroots)
        assert abs(cov - mp.sqrt(n)) < 1e-12
    assert covolume(()) == 1


def test_project_splits_lambda():
    lam = (Q(1), Q(0), Q(-1))
    P = BlockProfile(1, (2, 1))
    upper, lower = project(lam, P)
    assert tuple(a + b for a, b in zip(upper, lower)) == lam
    # lower part is constant on the blocks of P
    assert lower[0] == lower[1] == Q(1, 2)
    assert lower[2] == Q(-1)
    # upper part has zero block means
    assert upper[0] + upper[1] == 0 and upper[2] == 0


def test_epsilon_alternates_in_block_count():
    G = group_profile(1, 4)
    for P in enumerate_parabolics(1, 4):
        assert epsilon(P) == (-1) ** (P.k - G.k)
        assert epsilon(P, P) == 1


def test_theta_factor_gl2():
    # theta is the product of coroot pairings over the covolume
    P0 = base_profile(1, 2)
    tf = theta_factor(P0)
    with working(64):
        lam = (Q(3), Q(-3))
        assert abs(tf.evaluate(lam) - 6 / mp.sqrt(2)) < 1e-15
    htf = hat_theta_factor(P0, group_profile(1, 2))
    with working(64):
        # single coweight (1/2, -1/2): pairing 3, covolume 1/sqrt(2)
        assert abs(htf.evaluate(lam) - 3 * mp.sqrt(2)) < 1e-15


def test_theta_vanishes_iff_pairing_vanishes():
    P = BlockProfile(1, (2, 1))
    tf = theta_factor(P)
    with working(64):
        # equal block means kill the single pairing
        assert tf.evaluate((Q(1), Q(1), Q(1))) == 0


def test_block_permutations_and_action():
    # permutations of the inner blocks within each grouped range
    assert list(block_permutations((2, 1))) == [(0, 1, 2), (1, 0, 2)]
    assert list(block_permutations((1, 1, 1))) == [(0, 1, 2)]
    assert len(list(block_permutations((3,)))) == 6
    v = (Q(1), Q(2), Q(3), Q(4))
    moved = permute_blocks(2, (1, 0), v)
    assert moved == (Q(3), Q(4), Q(1), Q(2))


def test_permutation_acts_by_rearranging_blocks():
    rng = random.Random(7)
    vals = [Q(rng.randint(-9, 9)) for _ in range(6)]
    lam = tuple(vals)
    for sigma in block_permutations((3,)):
        moved = permute_blocks(2, sigma, lam)
        assert sorted(moved) == sorted(lam)
        blocks = [lam[2 * i:2 * i + 2] for i in range(3)]
        expect = []
        for i in range(3):
            expect.extend(blocks[sigma[i]])
        assert moved == tuple(expect)
