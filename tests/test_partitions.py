"""Partition lattices: enumeration counts, crossing detection, Mobius
values (against the defining recursion), Kreweras complement, and the
bi-non-crossing image of NC(n)."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bipoisson.errors import CapExceededError, ShapeMismatchError
from bipoisson.partitions import (
    ChiShape,
    SetPartition,
    catalan,
    enumerate_bnc,
    enumerate_nc,
    is_noncrossing,
    kreweras_complement,
    mobius_nc_one,
)
from oracles import (
    apply_by_relabel,
    enumerate_nc_from_blocks,
    enumerate_partitions,
    ker_map,
    mobius_nc,
    num_blocks,
    one_partition,
    refines,
    unapply,
    zero_partition,
)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        prev = row[-1]
        new = [prev]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition.from_blocks(4, [[3, 1], [4, 2]])
        assert p.blocks == ((1, 3), (2, 4))
        assert p == SetPartition.from_blocks(4, [[2, 4], [1, 3]])

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ShapeMismatchError):
            SetPartition.from_blocks(3, [[1, 2]])
        with pytest.raises(ShapeMismatchError):
            SetPartition.from_blocks(3, [[1, 2], [2, 3]])

    def test_zero_one(self):
        assert zero_partition(3).blocks == ((1,), (2,), (3,))
        assert one_partition(3).blocks == ((1, 2, 3),)

    def test_refines(self):
        lo = SetPartition.from_blocks(4, [[1], [2], [3, 4]])
        hi = SetPartition.from_blocks(4, [[1, 2], [3, 4]])
        assert refines(lo, hi)
        assert not refines(hi, lo)
        assert refines(lo, lo)

    @given(st.integers(1, 6))
    def test_refinement_extremes(self, n):
        for p in enumerate_partitions(n):
            assert refines(zero_partition(n), p)
            assert refines(p, one_partition(n))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_partitions_bell_count(self, n):
        parts = enumerate_partitions(n)
        assert len(parts) == bell(n)
        assert len(set(parts)) == len(parts)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nc_count_is_catalan(self, n):
        assert len(enumerate_nc(n)) == catalan(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_nc_order_matches_block_list_generator(self, n):
        # the CLI lists NC(n) in this order, so the order is output
        assert enumerate_nc(n) == enumerate_nc_from_blocks(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_nc_agrees_with_filtered_bruteforce(self, n):
        brute = {p for p in enumerate_partitions(n) if is_noncrossing(p)}
        assert set(enumerate_nc(n)) == brute

    def test_crossing_examples(self):
        assert not is_noncrossing(SetPartition.from_blocks(4, [[1, 3], [2, 4]]))
        assert is_noncrossing(SetPartition.from_blocks(4, [[1, 4], [2, 3]]))
        assert not is_noncrossing(
            SetPartition.from_blocks(6, [[1, 4], [2, 5], [3, 6]])
        )

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_nc(13)
        with pytest.raises(CapExceededError):
            enumerate_nc(0)


class TestKreweras:
    def test_known_complements(self):
        # complement of 0_n is 1_n and vice versa
        for n in range(1, 6):
            assert kreweras_complement(zero_partition(n)) == one_partition(n)
        assert kreweras_complement(
            SetPartition.from_blocks(4, [[1, 2], [3, 4]])
        ) == SetPartition.from_blocks(4, [[1], [2, 4], [3]])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complement_is_noncrossing_bijection(self, n):
        images = {kreweras_complement(p) for p in enumerate_nc(n)}
        assert len(images) == catalan(n)
        assert all(is_noncrossing(p) for p in images)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_block_count_identity(self, n):
        # |pi| + |K(pi)| = n + 1
        for p in enumerate_nc(n):
            assert num_blocks(p) + num_blocks(kreweras_complement(p)) == n + 1


class TestMobius:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_zero_to_one_closed_form(self, n):
        val = mobius_nc_one(zero_partition(n))
        assert val == (-1) ** (n - 1) * catalan(n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_defining_recursion_at_one(self, n):
        # sum over sigma in [pi, 1_n] of mu(sigma, 1_n) = [pi == 1_n]
        for pi in enumerate_nc(n):
            total = sum(
                mobius_nc_one(sigma)
                for sigma in enumerate_nc(n)
                if refines(pi, sigma)
            )
            assert total == (1 if pi == one_partition(n) else 0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_general_interval_recursion(self, n):
        # sum over tau in [pi, sigma] of mu(tau, sigma) = [pi == sigma]
        ncs = enumerate_nc(n)
        for pi in ncs:
            for sigma in ncs:
                if not refines(pi, sigma):
                    assert mobius_nc(pi, sigma) == 0
                    continue
                total = sum(
                    mobius_nc(tau, sigma)
                    for tau in ncs
                    if refines(pi, tau) and refines(tau, sigma)
                )
                assert total == (1 if pi == sigma else 0)

    def test_rejects_crossing(self):
        with pytest.raises(ShapeMismatchError):
            mobius_nc_one(SetPartition.from_blocks(4, [[1, 3], [2, 4]]))


class TestChiShape:
    def test_s_chi_frozen_examples(self):
        assert ChiShape(tuple("llll")).s_chi == (1, 2, 3, 4)
        assert ChiShape(tuple("lrlr")).s_chi == (1, 3, 4, 2)
        assert ChiShape(tuple("rrrr")).s_chi == (4, 3, 2, 1)
        assert ChiShape(tuple("rllr")).s_chi == (2, 3, 4, 1)

    def test_bad_tags_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ChiShape(("l", "x"))

    @given(st.lists(st.sampled_from("lr"), min_size=1, max_size=8))
    def test_s_chi_is_permutation(self, tags):
        s = ChiShape(tuple(tags)).s_chi
        assert sorted(s) == list(range(1, len(tags) + 1))

    @given(st.lists(st.sampled_from("lr"), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_apply_unapply_roundtrip(self, tags):
        shape = ChiShape(tuple(tags))
        for pi in enumerate_nc(shape.n):
            assert unapply(shape, shape.apply(pi)) == pi


class TestBNC:
    @pytest.mark.parametrize(
        "chi", ["l", "r", "lr", "rl", "lrlr", "llrr", "rllr", "lrrrl"]
    )
    def test_count_is_catalan(self, chi):
        shape = ChiShape(tuple(chi))
        bncs = enumerate_bnc(shape)
        assert len(bncs) == catalan(shape.n)
        assert len(set(bncs)) == catalan(shape.n)

    def test_all_left_is_plain_nc(self):
        shape = ChiShape(tuple("lllll"))
        assert set(enumerate_bnc(shape)) == set(enumerate_nc(5))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_relabel_path(self, n):
        # every chi of length n, as ordered tuples of canonical partitions
        ncs = enumerate_nc(n)
        for chi in itertools.product("lr", repeat=n):
            shape = ChiShape(chi)
            got = enumerate_bnc(shape)
            assert all(p.n == n for p in got)
            want = tuple(apply_by_relabel(shape, pi).blocks for pi in ncs)
            assert tuple(p.blocks for p in got) == want, chi

    def test_preimage_roundtrip(self):
        shape = ChiShape(tuple("lrrl"))
        for b in enumerate_bnc(shape):
            assert shape.apply(unapply(shape, b)) == b
            assert isinstance(b, SetPartition)

    def test_order_isomorphism(self):
        # pi <= rho in NC iff their s_chi images refine in the same way
        shape = ChiShape(tuple("lrlr"))
        ncs = enumerate_nc(4)
        for pi, rho in itertools.product(ncs, repeat=2):
            assert refines(pi, rho) == refines(shape.apply(pi), shape.apply(rho))


class TestKerMap:
    def test_examples(self):
        assert ker_map("aba") == SetPartition.from_blocks(3, [[1, 3], [2]])
        assert ker_map([1, 1, 1]) == one_partition(3)
        assert ker_map([1, 2, 3]) == zero_partition(3)
