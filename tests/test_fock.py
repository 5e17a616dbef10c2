"""Truncated Fock-space model: basis indexing, creation/annihilation
adjointness, vacuum moments, and the exact cumulant structure of the
series operators."""

import numpy as np
import pytest

from oracles import creation_by_words

from bipoisson.errors import CapExceededError, ShapeMismatchError
from bipoisson.cumulants import Alphabet, MomentFunctional
from bipoisson.fock import (
    FockBasis,
    annihilation,
    build_w_operators,
    check_commuting,
    creation,
    fock_moments,
    vacuum_moment,
    verify_fock_cumulants,
)
from bipoisson.partitions import LEFT, RIGHT


def vacuum(basis: FockBasis) -> np.ndarray:
    v = np.zeros(basis.size)
    v[0] = 1.0
    return v


def index_of(basis: FockBasis, word: tuple[int, ...]) -> int:
    """offset(len(word)) plus the word's base-dim rank, first letter most
    significant."""
    rank = 0
    for letter in word:
        rank = rank * basis.dim + letter - 1
    return basis.offset(len(word)) + rank


def product_jump(m1: float, m2: float, cap: int) -> MomentFunctional:
    """Commuting pair of independent point masses at m1 (left) and m2."""
    a = Alphabet(("a1",), ("a2",))
    return MomentFunctional.from_function(
        a, cap, lambda w: m1 ** w.count("a1") * m2 ** w.count("a2")
    )


def shared_jump(cap: int) -> MomentFunctional:
    """a1 = a2, one variable with law (delta_{0.5} + delta_{-1.2}) / 2."""
    a = Alphabet(("a1",), ("a2",))
    return MomentFunctional.from_function(
        a, cap, lambda w: (0.5 ** len(w) + (-1.2) ** len(w)) / 2
    )


class TestBasis:
    def test_sizes(self):
        assert FockBasis(2, 0).size == 1
        assert FockBasis(2, 3).size == 1 + 2 + 4 + 8
        assert FockBasis(1, 4).size == 5

    def test_budget(self):
        with pytest.raises(CapExceededError):
            FockBasis(2, 25)

    def test_vacuum(self):
        # the vacuum is the only word before offset(1), at index 0
        for dim in (1, 2, 3):
            basis = FockBasis(dim, 2)
            assert basis.offset(0) == 0 and basis.offset(1) == 1
            assert basis.offset(3) == basis.size


class TestOperators:
    def test_left_prepends_right_appends(self):
        basis = FockBasis(2, 2)
        l1 = creation(basis, LEFT, 1)
        r2 = creation(basis, RIGHT, 2)
        v = l1 @ vacuum(basis)
        assert v[index_of(basis, (1,))] == 1.0
        w = r2 @ v
        assert w[index_of(basis, (1, 2))] == 1.0
        w2 = l1 @ (r2 @ vacuum(basis))
        assert w2[index_of(basis, (1, 2))] == 1.0

    def test_truncation_kills_top_level(self):
        basis = FockBasis(2, 1)
        l1 = creation(basis, LEFT, 1)
        assert np.all((l1 @ (l1 @ vacuum(basis))) == 0)

    def test_annihilation_is_adjoint(self):
        basis = FockBasis(2, 3)
        for side in (LEFT, RIGHT):
            for i in (1, 2):
                c = creation(basis, side, i).toarray()
                a = annihilation(basis, side, i).toarray()
                assert np.array_equal(a, c.T)

    def test_left_right_creations_commute_up_to_truncation(self):
        basis = FockBasis(2, 4)
        l1 = creation(basis, LEFT, 1).toarray()
        r2 = creation(basis, RIGHT, 2).toarray()
        # on states below the truncation boundary the actions commute
        v = vacuum(basis)
        assert np.allclose(l1 @ r2 @ v, r2 @ l1 @ v)

    def test_bad_args(self):
        basis = FockBasis(2, 2)
        with pytest.raises(ShapeMismatchError):
            creation(basis, LEFT, 3)
        with pytest.raises(ShapeMismatchError):
            creation(basis, "m", 1)

    def test_vacuum_moment_basic(self):
        basis = FockBasis(2, 2)
        l1 = creation(basis, LEFT, 1)
        a1 = annihilation(basis, LEFT, 1)
        assert vacuum_moment([a1, l1]) == 1.0
        assert vacuum_moment([l1, a1]) == 0.0

    def test_vacuum_moment_rejects_mixed_shapes(self):
        l1 = creation(FockBasis(2, 2), LEFT, 1)
        l1_deeper = creation(FockBasis(2, 3), LEFT, 1)
        with pytest.raises(ShapeMismatchError):
            vacuum_moment([l1, l1_deeper])
        with pytest.raises(ShapeMismatchError):
            vacuum_moment([l1[:, :3]])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_creation_matches_word_enumeration(self, dim):
        for depth in range(6):
            basis = FockBasis(dim, depth)
            for side in (LEFT, RIGHT):
                for i in range(1, dim + 1):
                    got = creation(basis, side, i)
                    want = creation_by_words(basis, side, i)
                    assert got.shape == want.shape
                    # same CSR arrays, so products and mat-vecs sum alike
                    assert np.array_equal(got.indptr, want.indptr)
                    assert np.array_equal(got.indices, want.indices)
                    assert np.array_equal(got.data, want.data)


class TestCommutingCheck:
    def test_accepts_product_law(self):
        check_commuting(product_jump(0.7, 0.3, 4))

    def test_rejects_order_dependent(self):
        a = Alphabet(("a1",), ("a2",))
        phi = MomentFunctional.from_function(
            a, 2, lambda w: 2.0 if w == ("a1", "a2") else 1.0
        )
        with pytest.raises(ShapeMismatchError):
            check_commuting(phi)


class TestWOperators:
    def test_order_one_is_constant_plus_annihilator(self):
        basis = FockBasis(2, 2)
        jump = product_jump(0.7, 0.3, 2)
        w_l, w_r = build_w_operators(2.0, jump, 1, basis)
        expect_l = annihilation(basis, LEFT, 1).toarray() + 2.0 * 0.7 * np.eye(
            basis.size
        )
        assert np.allclose(w_l.toarray(), expect_l)
        assert vacuum_moment([w_r]) == pytest.approx(2.0 * 0.3)

    def test_validation(self):
        jump = product_jump(0.5, 0.5, 4)
        with pytest.raises(ValueError):
            build_w_operators(1.0, jump, 0, FockBasis(2, 3))
        with pytest.raises(CapExceededError):
            build_w_operators(1.0, jump, 4, FockBasis(2, 2))
        with pytest.raises(CapExceededError):
            build_w_operators(1.0, product_jump(0.5, 0.5, 1), 3, FockBasis(2, 8))


class TestCumulantStructure:
    @pytest.mark.parametrize("N", [2, 3])
    def test_exact_truncation(self, N):
        rows = verify_fock_cumulants(0.5, product_jump(0.7, 0.3, N + 1), N, N + 1)
        assert max(r.abs_err for r in rows) < 1e-10

    def test_shared_variable_law(self):
        # a1 = a2 fully correlated: moments depend on total count
        a = Alphabet(("a1",), ("a2",))
        jump = MomentFunctional.from_function(a, 4, lambda w: 0.5 ** len(w))
        rows = verify_fock_cumulants(1.5, jump, 3, 4)
        assert max(r.abs_err for r in rows) < 1e-10

    @pytest.mark.parametrize("law", ["product", "shared"])
    @pytest.mark.parametrize(
        "N,max_m,depth", [(2, 4, 8), (3, 5, 9), (3, 5, 4), (2, 3, 2)]
    )
    def test_block_moments_match_full_matvecs(self, N, max_m, depth, law):
        jump = product_jump(0.7, -0.4, N) if law == "product" else shared_jump(N)
        basis = FockBasis(2, depth)
        w_l, w_r = build_w_operators(1.3, jump, N, basis)
        phi = fock_moments(w_l, w_r, basis, max_m)
        ops = {"wl": w_l, "wr": w_r}
        assert len(phi.values) == 2 ** (max_m + 1) - 2
        for word, value in phi.values.items():
            v = vacuum(basis)
            for x in reversed(word):
                v = ops[x] @ v
            assert value == v[0], word

    def test_depth_doubling_leaves_moments_unchanged(self):
        jump = product_jump(0.6, 0.4, 3)
        vals = []
        for depth in (6, 12):
            basis = FockBasis(2, depth)
            w_l, w_r = build_w_operators(0.75, jump, 2, basis)
            phi = fock_moments(w_l, w_r, basis, 3)
            vals.append({w: phi(w) for w in phi.values})
        worst = max(abs(vals[0][w] - vals[1][w]) for w in vals[0])
        assert worst < 1e-12
