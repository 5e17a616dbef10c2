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
    _block,
    catalan,
    enumerate_nc,
    is_noncrossing,
    mobius_nc_one,
    nc_heads,
    tail_mobius,
)
from oracles import (
    apply_by_relabel,
    enumerate_nc_from_blocks,
    enumerate_partitions,
    from_blocks,
    ker_map,
    kreweras,
    mobius_nc,
    nc_partitions,
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
        p = from_blocks(4, [[3, 1], [4, 2]])
        assert p.blocks == ((1, 3), (2, 4))
        assert p == from_blocks(4, [[2, 4], [1, 3]])

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ShapeMismatchError):
            from_blocks(3, [[1, 2]])
        with pytest.raises(ShapeMismatchError):
            from_blocks(3, [[1, 2], [2, 3]])

    def test_zero_one(self):
        assert zero_partition(3).blocks == ((1,), (2,), (3,))
        assert one_partition(3).blocks == ((1, 2, 3),)

    def test_refines(self):
        lo = from_blocks(4, [[1], [2], [3, 4]])
        hi = from_blocks(4, [[1, 2], [3, 4]])
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
        assert not is_noncrossing(from_blocks(4, [[1, 3], [2, 4]]))
        assert is_noncrossing(from_blocks(4, [[1, 4], [2, 3]]))
        assert not is_noncrossing(
            from_blocks(6, [[1, 4], [2, 5], [3, 6]])
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
            assert kreweras(zero_partition(n)) == one_partition(n)
        assert kreweras(from_blocks(4, [[1, 2], [3, 4]])) == from_blocks(4, [[1], [2, 4], [3]])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complement_is_noncrossing_bijection(self, n):
        images = {kreweras(p) for p in nc_partitions(n)}
        assert len(images) == catalan(n)
        assert all(is_noncrossing(p) for p in images)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_block_count_identity(self, n):
        # |pi| + |K(pi)| = n + 1
        for p in nc_partitions(n):
            assert num_blocks(p) + num_blocks(kreweras(p)) == n + 1


class TestMobius:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_zero_to_one_closed_form(self, n):
        val = mobius_nc_one(zero_partition(n))
        assert val == (-1) ** (n - 1) * catalan(n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_defining_recursion_at_one(self, n):
        # sum over sigma in [pi, 1_n] of mu(sigma, 1_n) = [pi == 1_n]
        for pi in nc_partitions(n):
            total = sum(
                mobius_nc_one(sigma)
                for sigma in nc_partitions(n)
                if refines(pi, sigma)
            )
            assert total == (1 if pi == one_partition(n) else 0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_general_interval_recursion(self, n):
        # sum over tau in [pi, sigma] of mu(tau, sigma) = [pi == sigma]
        ncs = nc_partitions(n)
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
            mobius_nc_one(from_blocks(4, [[1, 3], [2, 4]]))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_values_match_per_partition(self, n):
        # mu(pi, 1_n) as `nc mobius` reads it off the recursion's heads: a
        # head's share with its tails' inner and outer, in enumeration order
        values = [mu for _, share, (_, inners, outers) in nc_heads(n, _block, _block)
                  for mu in tail_mobius(share, inners, outers)]
        assert values == [mobius_nc_one(p) for p in nc_partitions(n)]
        # sum over pi in [0_n, 1_n] of mu(pi, 1_n) = [0_n == 1_n]
        assert sum(values) == (1 if n == 1 else 0)

    @pytest.mark.parametrize("n", [0, 13])
    def test_values_share_enumeration_cap(self, n):
        # the heads' cap is checked at the call, before a head is read
        with pytest.raises(CapExceededError) as rows_err:
            nc_heads(n, _block, _block)
        with pytest.raises(CapExceededError) as enum_err:
            enumerate_nc(n)
        assert str(rows_err.value) == str(enum_err.value)


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

    def test_apply_memo_belongs_to_its_shape(self):
        # two shapes of one n, called in turn on the same partitions, so that
        # a block image kept for one shape and read by the other shows up
        shapes = [ChiShape(tuple("lrlrl")), ChiShape(tuple("rrlll"))]
        for _ in range(2):
            for pi in nc_partitions(5):
                for shape in shapes:
                    s = dict(zip(range(1, 6), shape.s_chi))
                    want = tuple(sorted(tuple(sorted(s[x] for x in b)) for b in pi.blocks))
                    assert shape.apply(pi) == SetPartition(5, want)

    @given(st.lists(st.sampled_from("lr"), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_apply_unapply_roundtrip(self, tags):
        shape = ChiShape(tuple(tags))
        for pi in nc_partitions(shape.n):
            assert unapply(shape, shape.apply(pi)) == pi


class TestBNC:
    @pytest.mark.parametrize(
        "chi", ["l", "r", "lr", "rl", "lrlr", "llrr", "rllr", "lrrrl"]
    )
    def test_count_is_catalan(self, chi):
        shape = ChiShape(tuple(chi))
        bncs = [shape.apply(pi) for pi in nc_partitions(shape.n)]
        assert len(bncs) == catalan(shape.n)
        assert len(set(bncs)) == catalan(shape.n)

    def test_all_left_is_plain_nc(self):
        shape = ChiShape(tuple("lllll"))
        assert [shape.apply(pi) for pi in nc_partitions(5)] == list(nc_partitions(5))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_relabel_path(self, n):
        # every chi of length n, as ordered tuples of canonical partitions
        ncs = nc_partitions(n)
        for chi in itertools.product("lr", repeat=n):
            shape = ChiShape(chi)
            got = [shape.apply(pi) for pi in ncs]
            assert all(p.n == n for p in got)
            want = tuple(apply_by_relabel(shape, pi).blocks for pi in ncs)
            assert tuple(p.blocks for p in got) == want, chi

    def test_preimage_roundtrip(self):
        shape = ChiShape(tuple("lrrl"))
        for b in map(shape.apply, nc_partitions(4)):
            assert shape.apply(unapply(shape, b)) == b
            assert isinstance(b, SetPartition)

    def test_order_isomorphism(self):
        # pi <= rho in NC iff their s_chi images refine in the same way
        shape = ChiShape(tuple("lrlr"))
        ncs = nc_partitions(4)
        for pi, rho in itertools.product(ncs, repeat=2):
            assert refines(pi, rho) == refines(shape.apply(pi), shape.apply(rho))


class TestKerMap:
    def test_examples(self):
        assert ker_map("aba") == from_blocks(3, [[1, 3], [2]])
        assert ker_map([1, 1, 1]) == one_partition(3)
        assert ker_map([1, 2, 3]) == zero_partition(3)
