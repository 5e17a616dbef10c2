"""Truncated Fock-space model: basis indexing, creation strings as sorted
index maps against word enumeration, adjointness, vacuum moments, and the
exact cumulant structure of the series operators."""

import itertools

import numpy as np
import pytest

from oracles import creation_by_words, creation_product_by_words, w_operators_by_words

from bipoisson.errors import CapExceededError, ShapeMismatchError
from bipoisson.cumulants import Alphabet, CumulantTable
from bipoisson.fock import (
    FockBasis,
    IndexMap,
    build_w_operators,
    creation_string,
    fock_moments,
    vacuum_moment,
    verify_fock_cumulants,
)
from bipoisson.partitions import LEFT, RIGHT
from bipoisson.poisson import CbpSpec, JumpLaw, cbp_cumulants

PAIR = Alphabet(("a1",), ("a2",))


def vacuum(basis: FockBasis) -> np.ndarray:
    v = np.zeros(basis.size)
    v[0] = 1.0
    return v


def dense(op: IndexMap) -> np.ndarray:
    out = np.zeros((op.size, op.size))
    out[op.rows, op.cols] = op.data
    return out


def annihilators(basis: FockBasis, max_len: int) -> tuple[IndexMap, IndexMap]:
    """(l_1^*, r_2^*) on the words of length <= max_len: the W operators of
    the all-zero cumulant table of order 1, where every series term
    vanishes, for moments to length max_len + 1."""
    return build_w_operators(CumulantTable(PAIR, 1, [0.0, 0.0]), basis, max_len + 1)


def assert_sorted(op: IndexMap) -> None:
    """Entries strictly ascending by (row, col): sorted, no repeats."""
    assert np.all(np.diff(op.rows * op.size + op.cols) > 0)


def index_of(basis: FockBasis, word: tuple[int, ...]) -> int:
    """offset(len(word)) plus the word's base-dim rank, first letter most
    significant."""
    rank = 0
    for letter in word:
        rank = rank * basis.dim + letter - 1
    return basis.offset(len(word)) + rank


def product_jump(m1: float, m2: float) -> JumpLaw:
    """Commuting pair of independent point masses at m1 (left) and m2."""
    return JumpLaw.independent(PAIR, (((m1,), (1.0,)), ((m2,), (1.0,))))


def cbp_law(rate: float, jump: JumpLaw, N: int) -> CumulantTable:
    """The cumulant table to cap N of the compound Poisson law (rate, jump)."""
    return cbp_cumulants(CbpSpec(rate, jump.moments(N)))


def shared_jump() -> JumpLaw:
    """a1 = a2, one variable with law (delta_{0.5} + delta_{-1.2}) / 2."""
    return JumpLaw(PAIR, ((0.5, 0.5), (-1.2, -1.2)), (0.5, 0.5))


class TestBasis:
    def test_sizes(self):
        assert FockBasis(2, 0).size == 1
        assert FockBasis(2, 3).size == 1 + 2 + 4 + 8
        assert FockBasis(1, 4).size == 5

    def test_budget(self):
        with pytest.raises(CapExceededError):
            FockBasis(2, 25)
        # refused before its size, a 2**(10**12 + 1) integer, is formed
        with pytest.raises(CapExceededError, match="dim 2 and depth 1000000000000 "):
            FockBasis(2, 10**12)

    def test_vacuum(self):
        # the vacuum is the only word before offset(1), at index 0
        for dim in (1, 2, 3):
            basis = FockBasis(dim, 2)
            assert basis.offset(0) == 0 and basis.offset(1) == 1
            assert basis.offset(3) == basis.size


class TestOperators:
    def test_left_prepends_right_appends(self):
        basis = FockBasis(2, 2)
        l1 = dense(creation_string(basis, LEFT, (1,), 2))
        r2 = dense(creation_string(basis, RIGHT, (2,), 2))
        v = l1 @ vacuum(basis)
        assert v[index_of(basis, (1,))] == 1.0
        w = r2 @ v
        assert w[index_of(basis, (1, 2))] == 1.0
        w2 = l1 @ (r2 @ vacuum(basis))
        assert w2[index_of(basis, (1, 2))] == 1.0
        # a string goes in front of the word on the left, after it on the right
        basis = FockBasis(2, 3)
        for side, want in ((LEFT, (1, 2, 2)), (RIGHT, (2, 1, 2))):
            op = dense(creation_string(basis, side, (1, 2), 3))
            v = op @ (dense(creation_string(basis, side, (2,), 3)) @ vacuum(basis))
            assert v[index_of(basis, want)] == 1.0 and v.sum() == 1.0

    def test_truncation_kills_top_level(self):
        basis = FockBasis(2, 1)
        l1 = dense(creation_string(basis, LEFT, (1,), 1))
        assert np.all((l1 @ (l1 @ vacuum(basis))) == 0)

    def test_annihilation_is_adjoint(self):
        # W's annihilators are the transposes of their sides' creations
        for depth, max_len in ((3, 3), (4, 2)):
            basis = FockBasis(2, depth)
            for side, i, a in zip((LEFT, RIGHT), (1, 2), annihilators(basis, max_len)):
                c = creation_string(basis, side, (i,), max_len)
                assert_sorted(a)
                assert np.array_equal(dense(a), dense(c).T)
                size = basis.offset(max_len + 1)
                want = creation_by_words(basis, side, i).T.toarray()[:size, :size]
                assert np.array_equal(dense(a), want)

    def test_left_right_creations_commute_up_to_truncation(self):
        basis = FockBasis(2, 4)
        l1 = dense(creation_string(basis, LEFT, (1,), 4))
        r2 = dense(creation_string(basis, RIGHT, (2,), 4))
        # on states below the truncation boundary the actions commute
        v = vacuum(basis)
        assert np.allclose(l1 @ r2 @ v, r2 @ l1 @ v)

    def test_bad_args(self):
        basis = FockBasis(2, 2)
        with pytest.raises(ShapeMismatchError):
            creation_string(basis, LEFT, (3,), 2)
        with pytest.raises(ShapeMismatchError):
            creation_string(basis, "m", (1,), 2)
        for max_len in (-1, 3):
            with pytest.raises(ValueError):
                creation_string(basis, LEFT, (1,), max_len)

    def test_vacuum_moment_basic(self):
        basis = FockBasis(2, 2)
        l1 = creation_string(basis, LEFT, (1,), 2)
        a1, _ = annihilators(basis, 2)
        assert vacuum_moment([a1, l1]) == 1.0
        assert vacuum_moment([l1, a1]) == 0.0

    def test_vacuum_moment_rejects_mixed_shapes(self):
        l1 = creation_string(FockBasis(2, 2), LEFT, (1,), 2)
        l1_deeper = creation_string(FockBasis(2, 3), LEFT, (1,), 3)
        with pytest.raises(ShapeMismatchError):
            vacuum_moment([l1, l1_deeper])
        # one basis, two blocks
        l1_block = creation_string(FockBasis(2, 3), LEFT, (1,), 2)
        with pytest.raises(ShapeMismatchError):
            vacuum_moment([l1_block, l1_deeper])
        with pytest.raises(ShapeMismatchError):
            vacuum_moment([])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_creation_matches_word_enumeration(self, dim):
        for depth in range(6):
            basis = FockBasis(dim, depth)
            for side, k in itertools.product((LEFT, RIGHT), range(4)):
                for string in itertools.product(range(1, dim + 1), repeat=k):
                    # l_{s_1}..l_{s_k} prepends the string, r_{s_k}..r_{s_1}
                    # appends it
                    letters = string if side == LEFT else string[::-1]
                    want = creation_product_by_words(basis, side, letters).toarray()
                    for max_len in range(depth + 1):
                        got = creation_string(basis, side, string, max_len)
                        size = basis.offset(max_len + 1)
                        assert got.size == size
                        assert_sorted(got)
                        assert np.array_equal(dense(got), want[:size, :size])


class TestWOperators:
    def test_order_one_is_constant_plus_annihilator(self):
        basis = FockBasis(2, 2)
        jump = product_jump(0.7, 0.3)
        # moments to length 3 read W on every word of length <= 2
        w_l, w_r = build_w_operators(cbp_law(2.0, jump, 1), basis, 3)
        expect_l = creation_by_words(basis, LEFT, 1).T.toarray() + 2.0 * 0.7 * np.eye(
            basis.size
        )
        assert np.allclose(dense(w_l), expect_l)
        assert vacuum_moment([w_r]) == pytest.approx(2.0 * 0.3)

    def test_validation(self):
        jump = product_jump(0.5, 0.5)
        with pytest.raises(ValueError):
            build_w_operators(cbp_law(1.0, jump, 0), FockBasis(2, 3), 3)
        with pytest.raises(CapExceededError):
            build_w_operators(cbp_law(1.0, jump, 4), FockBasis(2, 2), 3)
        with pytest.raises(ValueError):
            build_w_operators(cbp_law(1.0, jump, 2), FockBasis(2, 3), -1)
        with pytest.raises(ValueError, match="moment length 0"):
            build_w_operators(cbp_law(1.0, jump, 2), FockBasis(2, 3), 0)
        with pytest.raises(ShapeMismatchError):
            build_w_operators(cbp_law(1.0, jump, 2), FockBasis(3, 3), 3)
        # W needs one left and one right jump variable
        two_left = JumpLaw(Alphabet(("a1", "a2")), ((0.5, 0.5),), (1.0,))
        with pytest.raises(ShapeMismatchError, match="one left and one right"):
            build_w_operators(cbp_law(1.0, two_left, 2), FockBasis(2, 3), 3)

    def test_moments_need_the_whole_block(self):
        jump = product_jump(0.7, 0.3)
        basis, law = FockBasis(2, 6), cbp_law(0.5, jump, 2)
        w_l, w_r = build_w_operators(law, basis, 3)
        with pytest.raises(ShapeMismatchError):
            fock_moments(w_l, w_r, basis, 4)
        # a larger block gives the same moments
        small = fock_moments(*build_w_operators(law, basis, 2), basis, 2)
        big = fock_moments(w_l, w_r, basis, 2)
        assert w_l.size > basis.offset(2) and small.values == big.values


class TestCumulantStructure:
    @pytest.mark.parametrize("N", [2, 3])
    def test_exact_truncation(self, N):
        jump = product_jump(0.7, 0.3)
        _, kappa, target = verify_fock_cumulants(cbp_law(0.5, jump, N), N + 1)
        assert np.abs(kappa.row - target).max() < 1e-10

    def test_shared_variable_law(self):
        # a1 = a2 fully correlated: moments depend on total count
        jump = JumpLaw(PAIR, ((0.5, 0.5),), (1.0,))
        _, kappa, target = verify_fock_cumulants(cbp_law(1.5, jump, 3), 4)
        assert np.abs(kappa.row - target).max() < 1e-10

    @pytest.mark.parametrize("mean, bound",
                             [((0.0, 0.0), 1e-12), ((0.4, -1.1), 1e-10)])
    def test_realizes_a_bi_free_gaussian_pair(self, mean, bound):
        # not a compound Poisson law: W reads only its cumulant table, whose
        # entries past order 2 are zero
        law = CumulantTable(PAIR, 2, [*mean, 1.0, 0.5, 0.5, 2.0])
        for max_m in (2, 4, 6):
            _, kappa, target = verify_fock_cumulants(law, max_m)
            assert np.abs(kappa.row - target).max() <= bound, max_m

    @pytest.mark.parametrize("law", ["product", "shared"])
    @pytest.mark.parametrize(
        "N,max_m,depth", [(2, 4, 8), (3, 5, 9), (3, 5, 4), (2, 3, 2), (3, 2, 6)]
    )
    def test_block_moments_match_full_matvecs(self, N, max_m, depth, law):
        jump = product_jump(0.7, -0.4) if law == "product" else shared_jump()
        basis = FockBasis(2, depth)
        w_l, w_r = build_w_operators(cbp_law(1.3, jump, N), basis, max_m)
        phi = fock_moments(w_l, w_r, basis, max_m)
        by_words = w_operators_by_words(1.3, jump.moments(N), N, basis)
        ops = dict(zip(("wl", "wr"), by_words))
        # W on the block is the top-left corner of the whole-space operators
        size = basis.offset(min(max_m - 1, depth) + 1)
        for got, want in ((w_l, ops["wl"]), (w_r, ops["wr"])):
            assert got.size == size
            assert_sorted(got)
            assert np.array_equal(dense(got), want[:size, :size].toarray())
        assert len(phi.values) == 2 ** (max_m + 1) - 2
        for word, value in phi.values.items():
            v = vacuum(basis)
            for x in reversed(word):
                v = ops[x] @ v
            assert value == v[0], word

    def test_depth_doubling_leaves_moments_unchanged(self):
        jump = product_jump(0.6, 0.4)
        vals = []
        for depth in (6, 12):
            basis = FockBasis(2, depth)
            w_l, w_r = build_w_operators(cbp_law(0.75, jump, 2), basis, 3)
            phi = fock_moments(w_l, w_r, basis, 3)
            vals.append({w: phi(w) for w in phi.values})
        worst = max(abs(vals[0][w] - vals[1][w]) for w in vals[0])
        assert worst < 1e-12
