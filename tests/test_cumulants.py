"""Moment/cumulant transforms: frozen examples, round trips, independent
single-face and BNC Mobius-sum oracles, additivity, the side-sorted
reordering identity on commuting bipartite families, and the compiled plan
against the per-word first-block recursion, bit for bit."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bipoisson import cumulants
from bipoisson.errors import CapExceededError, MissingEntryError, ShapeMismatchError
from bipoisson.cumulants import (
    Alphabet,
    CumulantTable,
    MomentFunctional,
    all_words,
    kappa_from_moments,
    moments_from_kappa,
    transform_rows,
    word_offset,
)
from bipoisson.errors import LEFT, RIGHT
from bipoisson.partitions import catalan, mobius_nc_one
from bipoisson.poisson import convolve, semigroup_element
from oracles import (
    bnc_cumulant,
    bnc_moment,
    cumulants_by_words,
    from_blocks,
    moment_of_word,
    moments_by_words,
    nc_partitions,
    num_blocks,
    one_partition,
    phi_pi,
    reorder_by_s_chi,
    zero_partition,
)


def single_face_free_cumulant(moments: dict[int, float], n: int) -> float:
    """Independent classical free-cumulant inversion over NC(n), written
    directly against the enumeration (no shared code paths with the
    bi-free engine beyond the NC list itself)."""
    total = 0.0
    for pi in nc_partitions(n):
        term = float(mobius_nc_one(pi))
        for b in pi.blocks:
            term *= moments[len(b)]
        total += term
    return total


class TestAlphabet:
    def test_sides(self):
        a = Alphabet(("x", "y"), ("u",))
        assert a.side_of("x") == LEFT
        assert a.side_of("u") == RIGHT
        assert a.sides_of(("x", "u", "y")) == (LEFT, RIGHT, LEFT)
        with pytest.raises(MissingEntryError):
            a.side_of("w")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ShapeMismatchError):
            Alphabet(("x",), ("x",))

    def test_word_count(self):
        a = Alphabet(("x",), ("u",))
        assert len(list(all_words(a, 3))) == 2 + 4 + 8


class TestTables:
    def test_empty_word_is_unit(self):
        phi = MomentFunctional.from_function(Alphabet(("x",)), 2, lambda w: 7.0)
        assert phi(()) == 1.0

    def test_missing_entry_and_cap(self):
        a = Alphabet(("x",))
        with pytest.raises(ShapeMismatchError):
            MomentFunctional(a, 2, [1.0])
        phi = MomentFunctional.from_function(a, 2, lambda w: 1.0)
        with pytest.raises(MissingEntryError):
            phi(("y",))
        with pytest.raises(CapExceededError):
            phi(("x",) * 3)

    @given(
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(0, 4),
        st.sampled_from([MomentFunctional, CumulantTable]),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_indexing(self, nleft, nright, cap, cls):
        a = Alphabet(
            tuple(f"x{i}" for i in range(nleft)),
            tuple(f"u{i}" for i in range(nright)),
        )
        words = list(all_words(a, cap))
        table = cls(a, cap, np.arange(len(words), dtype=float))
        assert list(table.values) == words
        for w in words:
            assert table(w) == table.values[w]
        if cap:
            with pytest.raises(MissingEntryError):
                table(("x0",) * (cap - 1) + ("nope",))
        with pytest.raises(ValueError):
            table.row[:] = 0.0
        with pytest.raises(TypeError):
            table.values[("x0",)] = 0.0

    def test_add_scale(self):
        a = Alphabet(("x",))
        k1 = CumulantTable.from_function(a, 2, lambda w: 1.0)
        k2 = CumulantTable.from_function(a, 2, lambda w: 2.0)
        assert convolve(k1, k2)(("x",)) == 3.0
        assert semigroup_element(k1, 5.0)(("x", "x")) == 5.0
        with pytest.raises(ShapeMismatchError):
            convolve(k1, CumulantTable.from_function(Alphabet(("y",)), 2, lambda w: 0.0))


class TestPhiPi:
    def test_block_products(self):
        phi = MomentFunctional.from_function(
            Alphabet(("z1", "z2", "z3")), 3, lambda w: float(len(w))
        )
        word = ("z1", "z2", "z3")
        assert phi_pi(phi, word, one_partition(3)) == 3.0
        assert phi_pi(phi, word, zero_partition(3)) == 1.0
        mixed = from_blocks(3, [[1, 3], [2]])
        assert phi_pi(phi, word, mixed) == 2.0 * 1.0

    def test_length_mismatch(self):
        phi = MomentFunctional.from_function(Alphabet(("z1",)), 3, lambda w: 1.0)
        with pytest.raises(ShapeMismatchError):
            phi_pi(phi, ("z1", "z1"), one_partition(3))


class TestSingleFaceInversion:
    def test_semicircle(self):
        # moments 0, 1, 0, 2, 0, 5 (Catalan at even orders)
        m = {n: 0.0 if n % 2 else float(catalan(n // 2)) for n in range(1, 7)}
        phi = MomentFunctional.from_function(
            Alphabet(("s",)), 6, lambda w: m[len(w)]
        )
        kappa = kappa_from_moments(phi)
        expected = {1: 0.0, 2: 1.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0}
        for n, v in expected.items():
            assert kappa(("s",) * n) == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_free_poisson(self, lam):
        # free Poisson moments: sum over NC(n) of lam^{#blocks}
        m = {
            n: sum(lam ** num_blocks(p) for p in nc_partitions(n))
            for n in range(1, 7)
        }
        phi = MomentFunctional.from_function(
            Alphabet(("p",)), 6, lambda w: m[len(w)]
        )
        kappa = kappa_from_moments(phi)
        for n in range(1, 7):
            assert kappa(("p",) * n) == pytest.approx(lam, abs=1e-10)

    @given(st.lists(st.floats(-1, 1), min_size=6, max_size=6))
    @settings(max_examples=30)
    def test_matches_independent_oracle(self, ms):
        m = {n: ms[n - 1] for n in range(1, 7)}
        phi = MomentFunctional.from_function(
            Alphabet(("x",)), 6, lambda w: m[len(w)]
        )
        kappa = kappa_from_moments(phi)
        for n in range(1, 7):
            assert kappa(("x",) * n) == pytest.approx(
                single_face_free_cumulant(m, n), abs=1e-10
            )

    def test_first_cumulant_is_first_moment(self):
        phi = MomentFunctional.from_function(
            Alphabet(("x",), ("u",)), 1, lambda w: 0.37
        )
        kappa = kappa_from_moments(phi)
        assert kappa(("x",)) == 0.37
        assert kappa(("u",)) == 0.37


class TestBipartiteExamples:
    def test_degree_two_mixed_moment(self):
        # kappa_l = lam*alpha, kappa_r = lam*beta, kappa_lr = lam*alpha*beta
        lam, alpha, beta = 0.8, 1.3, -0.4
        a = Alphabet(("zl",), ("zr",))

        def k(w):
            return lam * alpha ** w.count("zl") * beta ** w.count("zr")

        kappa = CumulantTable.from_function(a, 2, k)
        phi = moments_from_kappa(kappa)
        assert phi(("zl", "zr")) == pytest.approx(
            lam * alpha * beta + lam**2 * alpha * beta, abs=1e-12
        )
        assert phi(("zl", "zl")) == pytest.approx(
            lam * alpha**2 + (lam * alpha) ** 2, abs=1e-12
        )

    def test_only_first_cumulant(self):
        # kappa_1 = c, all higher zero -> phi(word) = c^n
        c = 0.6
        a = Alphabet(("x",), ("u",))
        kappa = CumulantTable.from_function(
            a, 4, lambda w: c if len(w) == 1 else 0.0
        )
        phi = moments_from_kappa(kappa)
        for w in all_words(a, 4):
            assert phi(w) == pytest.approx(c ** len(w), abs=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("nleft,nright", [(1, 0), (1, 1), (2, 1)])
    def test_random_tables(self, nleft, nright):
        rng = random.Random(1234 + nleft * 10 + nright)
        a = Alphabet(
            tuple(f"x{i}" for i in range(nleft)),
            tuple(f"u{i}" for i in range(nright)),
        )
        cap = 4 if nleft + nright > 2 else 5
        for _ in range(8):
            phi = MomentFunctional.from_function(
                a, cap, lambda w: rng.uniform(-1, 1)
            )
            back = moments_from_kappa(kappa_from_moments(phi))
            err = max(abs(back(w) - phi(w)) for w in all_words(a, cap))
            assert err < 1e-12


class TestAdditivity:
    def test_sum_of_tables_is_convolution(self):
        rng = random.Random(77)
        a = Alphabet(("x",), ("u",))
        k1 = CumulantTable.from_function(a, 4, lambda w: rng.uniform(-1, 1))
        k2 = CumulantTable.from_function(a, 4, lambda w: rng.uniform(-1, 1))
        # build moments from each, convert back, add, compare
        back1 = kappa_from_moments(moments_from_kappa(k1))
        back2 = kappa_from_moments(moments_from_kappa(k2))
        summed = convolve(back1, back2)
        direct = convolve(k1, k2)
        for w in all_words(a, 4):
            assert summed(w) == pytest.approx(direct(w), abs=1e-12)


def commuting_bipartite_moments(
    left_law_moments, right_law_moments, cap: int
) -> MomentFunctional:
    """phi over one left and one right letter that commute and are
    classically independent: phi factors through letter counts."""
    a = Alphabet(("x",), ("u",))
    return MomentFunctional.from_function(
        a,
        cap,
        lambda w: left_law_moments[w.count("x")] * right_law_moments[w.count("u")],
    )


class TestReorderIdentity:
    @pytest.mark.parametrize(
        "lmoms,rmoms",
        [
            # point masses alpha=1.1, beta=0.7
            ([1.1**k for k in range(6)], [0.7**k for k in range(6)]),
            # Bernoulli(0.3) on {0,2} and point mass 1.5
            (
                [0.3 * 2**k if k else 1.0 for k in range(6)],
                [1.5**k for k in range(6)],
            ),
        ],
    )
    def test_matches_bifree_cumulants(self, lmoms, rmoms):
        phi = commuting_bipartite_moments(lmoms, rmoms, 5)
        kappa = kappa_from_moments(phi)
        for w in all_words(phi.alphabet, 5):
            assert reorder_by_s_chi(phi, w) == pytest.approx(
                kappa(w), abs=1e-10
            )

    def test_all_left_is_identity(self):
        rng = random.Random(5)
        a = Alphabet(("x", "y"))
        phi = MomentFunctional.from_function(a, 4, lambda w: rng.uniform(-1, 1))
        kappa = kappa_from_moments(phi)
        for w in all_words(a, 4):
            assert reorder_by_s_chi(phi, w) == pytest.approx(kappa(w), abs=1e-12)


ORACLE_ALPHABETS = {
    "1L1R": Alphabet(("x",), ("u",)),
    "2L1R": Alphabet(("x", "y"), ("u",)),
    "1L2R": Alphabet(("x",), ("u", "v")),
    "2L": Alphabet(("x", "y")),
}


class TestBncMobiusOracle:
    """Both transforms against the literal Mobius sum over BNC(n, chi),
    which shares no code with the first-block recursion."""

    @given(
        st.sampled_from(sorted(ORACLE_ALPHABETS)),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_transforms_match_bnc_sum(self, name, seed, data):
        a = ORACLE_ALPHABETS[name]
        rng = random.Random(seed)
        phi = MomentFunctional.from_function(a, 6, lambda w: rng.uniform(-1, 1))
        kappa = CumulantTable.from_function(a, 6, lambda w: rng.uniform(-1, 1))
        kappa_fast = kappa_from_moments(phi)
        phi_fast = moments_from_kappa(kappa)
        word = st.lists(st.sampled_from(a.names), min_size=1, max_size=6)
        for w in data.draw(st.lists(word.map(tuple), min_size=1, max_size=8)):
            ref = bnc_cumulant(phi, w)
            assert abs(kappa_fast(w) - ref) <= 1e-12 * max(1.0, abs(ref))
            ref = bnc_moment(kappa, w)
            assert abs(phi_fast(w) - ref) <= 1e-12 * max(1.0, abs(ref))


def bits(values) -> bytes:
    """The float64 bytes of `values`, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


class TestCompiledPlan:
    """The compiled transforms against the per-word recursion in `oracles`,
    bit for bit, and a batch of rows against one call per row."""

    @given(
        st.integers(1, 2),
        st.integers(0, 2),  # one letter: numpy's pairwise sums would show
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_per_word_recursion(self, nleft, nright, cap, batch, seed):
        a = Alphabet(
            tuple(f"x{i}" for i in range(nleft)),
            tuple(f"u{i}" for i in range(nright)),
        )
        rng = random.Random(seed)
        words = list(all_words(a, cap))

        def value():
            # exact zeros of both signs reach the recursion's early exit
            r = rng.random()
            return 0.0 if r < 0.1 else -0.0 if r < 0.15 else rng.uniform(-2, 2)

        rows = np.array([[value() for _ in words] for _ in range(batch)])
        kappas = transform_rows(a, cap, rows, to_cumulants=True)
        moments = transform_rows(a, cap, rows, to_cumulants=False)
        for r, row in enumerate(rows):
            table = dict(zip(words, row.tolist()))
            want = cumulants_by_words(
                MomentFunctional.from_function(a, cap, table.__getitem__))
            assert bits(kappas[r]) == bits([want[w] for w in words])
            want = moments_by_words(
                CumulantTable.from_function(a, cap, table.__getitem__))
            assert bits(moments[r]) == bits([want[w] for w in words])
            one = rows[r:r + 1]
            assert bits(transform_rows(a, cap, one, to_cumulants=True)) == bits(kappas[r])
            assert bits(transform_rows(a, cap, one, to_cumulants=False)) == bits(moments[r])

    def test_tables_match_rows(self):
        rng = random.Random(8)
        a = Alphabet(("x",), ("u",))
        words = list(all_words(a, 5))
        row = [rng.uniform(-1, 1) for _ in words]
        phi = MomentFunctional(a, 5, row)
        kappa = CumulantTable(a, 5, row)
        got = kappa_from_moments(phi).values
        assert list(got) == words
        assert bits(list(got.values())) == bits(transform_rows(a, 5, [row], to_cumulants=True))
        got = moments_from_kappa(kappa).values
        assert list(got) == words
        assert bits(list(got.values())) == bits(transform_rows(a, 5, [row], to_cumulants=False))

    def test_row_width_must_match(self):
        a = Alphabet(("x",), ("u",))
        with pytest.raises(ShapeMismatchError):
            transform_rows(a, 3, [[0.0] * 13], to_cumulants=True)
        with pytest.raises(ShapeMismatchError):
            transform_rows(a, 3, [0.0] * 14, to_cumulants=False)


class TestPlanGuards:
    def test_word_longer_than_cap_rejected(self):
        with pytest.raises(CapExceededError):
            phi = MomentFunctional.from_function(Alphabet(("x",)), 13, lambda w: 1.0)
            kappa_from_moments(phi)

    def test_cap_checked_before_any_word(self):
        def fn(w):
            raise AssertionError(f"fn called on {w!r} past the cap")

        with pytest.raises(CapExceededError):
            MomentFunctional.from_function(Alphabet(("x",)), 13, fn)
        with pytest.raises(CapExceededError):
            CumulantTable(Alphabet(("x",)), 13, ())

    @pytest.mark.parametrize(
        "left, cap, admitted",
        [(("x",), 12, True), (("x", "y"), 9, True), (("x", "y"), 11, False)],
        ids=["1L1R_cap12", "2L1R_cap9", "2L1R_cap11"],
    )
    def test_plan_budget(self, monkeypatch, left, cap, admitted):
        # 2L1R at cap 11 is within DEFAULT_CAP, yet its plan would be 1024
        # terms x 177147 words; a rejection comes before any compile
        class Compiled(Exception):
            pass

        def compile_plan(*args):
            raise Compiled

        monkeypatch.setattr(cumulants, "_length_plan", compile_plan)
        a = Alphabet(left, ("u",))
        rows = np.zeros((1, len(list(all_words(a, cap)))))
        with pytest.raises(Compiled if admitted else CapExceededError):
            transform_rows(a, cap, rows, to_cumulants=True)

    def test_unknown_side_tag_rejected(self):
        with pytest.raises(ShapeMismatchError):
            moment_of_word(lambda w: 1.0, lambda w: 1.0, (LEFT, "x"), ("a", "b"))


def _isin_plan(n_left, size, n):
    """`_length_plan` with each cut set's and run's members found by
    `np.isin`, as the plan found them before it tested membership in
    Python."""
    digits = np.arange(size**n)[:, None] // size ** np.arange(n - 1, -1, -1) % size
    right = digits >= n_left
    slot = np.where(right, n - right.cumsum(1), (~right).cumsum(1) - 1)
    sets, runs, gaps = [], {(): 0}, []
    for k in range(n):
        for chosen in itertools.combinations(range(1, n), k):
            cuts = (0,) + chosen + (n,)
            sets.append(cuts[:-1])
            gap = [runs.setdefault(tuple(range(a + 1, b)), len(runs))
                   for a, b in zip(cuts, cuts[1:]) if b > a + 1]
            gaps.append(gap + [0] * (n // 2 - len(gap)))
    members = np.array([np.isin(np.arange(n), s) for s in sets + list(runs)])
    rank = np.zeros((len(members), len(digits)), dtype=np.intp)
    for i in range(n):
        rank = np.where(members[:, slot[:, i]], rank * size + digits[:, i], rank)
    index = word_offset(size, members.sum(1))[:, None] + rank
    return index[: len(sets)], index[len(sets):], np.array(gaps, dtype=np.intp).T



class TestPlanMembers:
    @pytest.mark.parametrize("n_left, size", [(1, 1), (1, 2), (0, 2), (2, 3)])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_plan_matches_isin_construction(self, n_left, size, n):
        got = cumulants._length_plan.__wrapped__(n_left, size, n)
        for a, b in zip(got, _isin_plan(n_left, size, n)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
