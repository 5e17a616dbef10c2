"""Random-matrix models: joint jump laws and ensemble specs, bimodule word
evaluation, commutation of left and right actions, and small Monte Carlo
convergence checks (heavier configurations live in the acceptance tests)."""

import collections
import gc
import importlib.util
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bipoisson.errors import CapExceededError, ShapeMismatchError
from bipoisson.cumulants import Alphabet, all_words
from bipoisson.matrix_models import (
    TRIAL_VALUE_BUDGET,
    EnsembleSpec,
    build_wishart_model,
    estimate_empirical_cumulants,
    evaluate_bimatrix_word,
    key_values,
)
from bipoisson.partitions import LEFT, RIGHT
from bipoisson.poisson import JOINT_ATOM_BUDGET, CbpSpec, JumpLaw, cbp_cumulants
from oracles import (
    bimodule_operators,
    bimodule_residue,
    direct_wishart_model,
    model_letters,
    operator_word_value,
)

# (atoms, weights) marginals
TWO_ATOM = ((1.0, 2.0), (0.5, 0.5))
OTHER_ATOM = ((0.5, 3.0), (0.5, 0.5))
PAIR = Alphabet(("zl",), ("zr",))
# Largest imaginary part any trial's word value may keep
IMAG_RESIDUE_TOLERANCE = 1e-9


def pair_law(right=TWO_ATOM, shared=False):
    """zl over the two-atom law and zr over `right`, the same variable
    (the diagonal law) or an independent one."""
    if shared:
        return JumpLaw(PAIR, tuple((a, a) for a in TWO_ATOM[0]), TWO_ATOM[1])
    return JumpLaw.independent(PAIR, (TWO_ATOM, right))


def four_variable_law(shared_xu):
    """Left x, y and right u, v, each over a law of its own and independent,
    or with u and x one variable (equal columns)."""
    y, u, v = ((0.0, 3.0), (0.25, 0.75)), ((-1.0, 0.5), (0.4, 0.6)), ((0.5,), (1.0,))
    alphabet = Alphabet(("x", "y"), ("u", "v"))
    if not shared_xu:
        return JumpLaw.independent(alphabet, (TWO_ATOM, y, u, v))
    xyv = JumpLaw.independent(Alphabet(("x", "y", "v")), (TWO_ATOM, y, v))
    return JumpLaw(alphabet, tuple((x, y, x, v) for x, y, v in xyv.atoms),
                   xyv.weights)


def two_sided_spec(rate, sizes=(16,), trials=8, seed=11, max_word=3, shared=True):
    return EnsembleSpec(
        rate=rate,
        jump=pair_law(shared=shared),
        sizes=sizes,
        trials=trials,
        seed=seed,
        max_word_len=max_word,
    )


class TestJumpLaw:
    def test_moments(self):
        jump = JumpLaw.independent(Alphabet(("z",)), (TWO_ATOM,)).moments(4)
        assert jump(("z",)) == 1.5
        assert jump(("z", "z")) == 2.5
        point = JumpLaw(PAIR, ((3.0, -1.0),), (1.0,)).moments(5)
        assert point(("zl",) * 4) == 81.0
        assert point(("zr", "zl", "zr")) == 3.0
        # a word's moment is read from the joint law
        correlated = JumpLaw(PAIR, ((1.0, 0.5), (2.0, 3.0)), (0.5, 0.5)).moments(2)
        assert correlated(("zl", "zr")) == 0.5 * 0.5 + 0.5 * 6.0

    def test_moments_match_an_explicit_loop(self):
        # powers multiply in variable order and the weighted atoms add left
        # to right from 0.0; a pairwise sum changes bits from 8 atoms on
        rng = np.random.default_rng(24)
        weights = (0.1, 0.3, 0.15, 0.25, 0.2)
        marginals = [(tuple(rng.uniform(-2, 2, 5).tolist()), weights) for _ in range(3)]
        alphabet = Alphabet(("x", "y"), ("u",))
        law = JumpLaw.independent(alphabet, marginals)
        var = dict(zip(alphabet.names, law.variables))
        columns = dict(zip(law.variables, zip(*law.atoms)))
        jump = law.moments(4)
        for w in all_words(alphabet, 4):
            counts = sorted(collections.Counter(var[x] for x in w).items())
            want = 0.0
            for j, weight in enumerate(law.weights):
                product = 1.0
                for v, count in counts:
                    product *= columns[v][j] ** count
                want += weight * product
            assert jump(w) == want, w

    def test_validation(self):
        with pytest.raises(ValueError, match="probability vector"):
            JumpLaw(PAIR, ((1.0, 1.0),), (0.5,))
        with pytest.raises(ShapeMismatchError):
            JumpLaw(PAIR, ((1.0, 1.0), (2.0, 2.0)), (1.0,))
        with pytest.raises(ValueError, match="must be finite"):
            JumpLaw(PAIR, ((math.nan, 1.0),), (1.0,))
        # an atom needs one coordinate per name
        with pytest.raises(ShapeMismatchError, match="one coordinate per name"):
            JumpLaw(PAIR, ((1.0, 2.0), (3.0,)), (0.5, 0.5))
        with pytest.raises(ValueError, match="overflows"):
            JumpLaw(PAIR, ((1e300, 1.0),), (1.0,)).moments(2)
        # each marginal is checked, not only their product
        with pytest.raises(ValueError, match="probability vector"):
            JumpLaw.independent(PAIR, (((1.0,), (0.5,)), ((2.0,), (2.0,))))

    def test_independent_is_product_of_marginals(self):
        marginals = (TWO_ATOM, ((0.0, 3.0), (0.25, 0.75)), ((-1.0, 0.5), (0.4, 0.6)))
        alphabet = Alphabet(("x", "y"), ("u",))
        law = JumpLaw.independent(alphabet, marginals)
        assert len(law.atoms) == 8 and law.variables == (0, 1, 2)
        single = [JumpLaw.independent(Alphabet(("z",)), (m,)).moments(4)
                  for m in marginals]
        jump = law.moments(4)
        for w in all_words(alphabet, 4):
            want = math.prod(m(("z",) * w.count(x)) for m, x in zip(single, "xyu"))
            assert abs(jump(w) - want) <= 1e-12 * abs(want), w

    def test_equal_columns_are_one_variable(self):
        shared = pair_law(shared=True)
        assert shared.variables == (0, 0)
        jump = shared.moments(3)
        assert jump(("zl", "zr")) == jump(("zl", "zl")) == 2.5
        assert jump(("zr", "zl", "zr")) == 4.5
        assert four_variable_law(shared_xu=True).variables == (0, 1, 0, 2)
        assert four_variable_law(shared_xu=False).variables == (0, 1, 2, 3)
        # one matrix for both names
        mats = build_wishart_model(two_sided_spec(1.0), 8, np.random.default_rng(0))
        assert mats["zl"] is mats["zr"]

    def test_product_budget(self):
        side = math.isqrt(JOINT_ATOM_BUDGET) + 1
        big = (tuple(map(float, range(side))), (1 / side,) * side)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="joint atom budget"):
                JumpLaw.independent(PAIR, (big, big))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rejected before any atom of the product is listed
        assert peak < 1_000_000


class TestWordEvaluation:
    def test_left_only_is_trace_of_product(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        got = evaluate_bimatrix_word([(a, LEFT), (b, LEFT)])
        assert got == pytest.approx(np.trace(a @ b) / 5)

    def test_right_actions_anti_compose(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        got = evaluate_bimatrix_word([(a, RIGHT), (b, RIGHT)])
        assert got == pytest.approx(np.trace(b @ a) / 5)

    def test_mixed_word(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        got = evaluate_bimatrix_word([(a, LEFT), (b, RIGHT)])
        assert got == pytest.approx(np.trace(a @ b) / 4)

    def test_empty_word_rejected(self):
        with pytest.raises(ShapeMismatchError):
            evaluate_bimatrix_word([])


class CountingMatrix(np.ndarray):
    """An array view that counts the matrix products it takes part in."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(other) @ np.asarray(self)


class TestKeyValues:
    @pytest.mark.parametrize("shared, products", [(True, 1), (False, 3)])
    def test_products_formed_once(self, shared, products):
        # 1L1R words up to length 4 split into halves of at most two
        # factors: over one shared variable every half is T or T², one matmul;
        # with independent matrices A and B the halves of two factors are
        # AA, AB and BB
        spec = two_sided_spec(2.5, sizes=(8,), max_word=4, shared=shared)
        views = {}
        mats = {
            name: views.setdefault(id(m), m.view(CountingMatrix))
            for name, m in build_wishart_model(spec, 8, np.random.default_rng(3)).items()
        }
        assert (mats["zl"] is mats["zr"]) == shared
        keys = list(dict.fromkeys(
            (tuple(x for x in w if x == "zl"), tuple(x for x in w if x == "zr"))
            for w in all_words(spec.alphabet, spec.max_word_len)
        ))
        CountingMatrix.products = 0
        got = key_values(mats, keys)
        assert CountingMatrix.products == products
        expected = [
            evaluate_bimatrix_word(
                [(np.asarray(mats["zl"]), LEFT)] * len(lefts)
                + [(np.asarray(mats["zr"]), RIGHT)] * len(rights)
            )
            for lefts, rights in keys
        ]
        assert got.tolist() == expected

    def test_matches_bimodule_operators(self):
        # four distinct matrices with unequal laws, so that reversing either
        # side's product changes the real part of mixed keys
        spec = EnsembleSpec(
            rate=1.5,
            jump=four_variable_law(shared_xu=False),
            sizes=(8,),
            trials=2,
            seed=0,
            max_word_len=5,
        )
        left = set(spec.alphabet.left)
        keys = list(dict.fromkeys(
            (tuple(x for x in w if x in left), tuple(x for x in w if x not in left))
            for w in all_words(spec.alphabet, spec.max_word_len)
        ))
        assert any(not lefts or not rights for lefts, rights in keys)
        mats = build_wishart_model(spec, 8, np.random.default_rng(19))
        names = spec.alphabet.names
        ops = bimodule_operators([(mats[x], spec.alphabet.side_of(x)) for x in names])
        expected = np.array([
            operator_word_value(ops, [names.index(x) for x in lefts + rights])
            for lefts, rights in keys
        ])
        got = key_values(mats, keys)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1, np.abs(expected)))

    def test_no_reference_cycle_keeps_matrices_alive(self):
        # with the cycle collector off, only reference counting frees the
        # inputs: a cycle through them would keep each trial's matrices
        rng = np.random.default_rng(8)
        mats = {name: rng.normal(size=(4, 4)) for name in ("x", "y", "u")}
        refs = [weakref.ref(m) for m in mats.values()]
        keys = [(("x", "y"), ("u",)), (("x",), ()), ((), ("u", "u"))]
        gc.disable()
        try:
            key_values(mats, keys)
            del mats
            alive = [r() is not None for r in refs]
        finally:
            gc.enable()
        assert not any(alive)


def law_spec(law, rate, n):
    """zl and zr over one of JOINT_LAWS, at one size."""
    return EnsembleSpec(
        rate=rate,
        jump=JOINT_LAWS[law],
        sizes=(n,),
        trials=2,
        seed=0,
        max_word_len=1,
    )


def trial_traces(sampler, spec, n, trials, seed, words):
    """tr(F_1 ... F_k)/n of each word (a tuple of variable names) over
    `trials` draws of `sampler`, one row per trial."""
    rng = np.random.default_rng(seed)
    out = np.empty((trials, len(words)))
    for t in range(trials):
        mats = sampler(spec, n, rng)
        for j, w in enumerate(words):
            prod = mats[w[0]]
            for name in w[1:]:
                prod = prod @ mats[name]
            out[t, j] = np.trace(prod).real / n
    return out


def mean_and_se(rows):
    return rows.mean(axis=0), rows.std(axis=0, ddof=1) / math.sqrt(len(rows))


# zr the same variable as zl (True), independent of it (False), or
# correlated with it, E[ab] = 3.25 against E[a]E[b] = 2.625
JOINT_LAWS = {
    True: pair_law(shared=True),
    False: pair_law(OTHER_ATOM),
    "correlated": JumpLaw(PAIR, ((1.0, 0.5), (2.0, 3.0)), (0.5, 0.5)),
}
# (law, rate, n): at p = 10, n = 4 the two classes of a two-atom law mostly
# hold k >= n rows and the four classes of the product law mostly k < n,
# with the other kind in a share of trials; at p = 4, n = 8 every class has
# k < n rows
LAW_CASES = [(True, 2.5, 4), (True, 0.5, 8), (False, 2.5, 4), (False, 0.5, 8),
             ("correlated", 2.5, 4)]


class TestModelLaw:
    """The Bartlett-factor sampler draws the law of T_s = G*·diag(b_s)·G."""

    @pytest.mark.parametrize("law, rate, n", LAW_CASES)
    def test_exact_finite_n_moments(self, law, rate, n):
        # rows r of G are i.i.d. with E|g_r|^4 = 1 + 1/n and
        # E|<g_r, g_r'>|^2 = 1/n for r != r', so at every n
        # E tr T/n = (p/n) m1, E tr T^2/n = (p/n) m2 (1 + 1/n) + p(p-1) m1^2/n^2
        # and E tr(T_l T_r)/n is the second with E[ab] and E[a]E[b], each
        # read from the joint law
        spec = law_spec(law, rate, n)
        p = math.floor(rate * n + 0.5)
        jump = spec.jump.moments(2)
        a, b = jump(("zl",)), jump(("zr",))

        def second(word):
            return p / n * jump(word) * (1 + 1 / n) + p * (p - 1) * math.prod(
                map(jump, zip(word))) / n**2

        words = [("zl",), ("zr",), ("zl", "zl"), ("zr", "zr"), ("zl", "zr")]
        expected = [p / n * a, p / n * b, *map(second, words[2:])]
        mean, se = mean_and_se(
            trial_traces(build_wishart_model, spec, n, 1500, 5, words)
        )
        assert (np.abs(mean - expected) <= 4 * se).all(), (mean, expected, se)

    @pytest.mark.parametrize("law, rate, n", LAW_CASES)
    def test_higher_traces_match_direct_sampler(self, law, rate, n):
        # two independent samples, the library's and the oracle's direct
        # Gaussian G: their means of third and fourth traces agree within
        # four standard errors of the difference
        spec = law_spec(law, rate, n)
        words = [("zl",) * 3, ("zl",) * 4, ("zr",) * 3, ("zr",) * 4,
                 ("zl", "zr", "zl", "zr")]
        got, got_se = mean_and_se(
            trial_traces(build_wishart_model, spec, n, 1500, 6, words)
        )
        ref, ref_se = mean_and_se(
            trial_traces(direct_wishart_model, spec, n, 1500, 7, words)
        )
        assert (np.abs(got - ref) <= 4 * np.hypot(got_se, ref_se)).all(), (got, ref)


class TestRecordChecks:
    # each record's constructor rejects bad input by type and message
    @pytest.mark.parametrize("make, error, message", [
        (lambda: JumpLaw(PAIR, (), ()), ShapeMismatchError,
         "need as many atoms as weights, at least one, each with one coordinate "
         "per name in ('zl', 'zr')"),
        (lambda: JumpLaw(PAIR, ((1.0,),), (1.0,)), ShapeMismatchError,
         "need as many atoms as weights, at least one, each with one coordinate "
         "per name in ('zl', 'zr')"),
        (lambda: JumpLaw(PAIR, ((1.0, 1.0),), (math.nan,)), ValueError,
         "atoms and weights must be finite"),
        (lambda: JumpLaw(PAIR, ((1.0, math.inf),), (1.0,)), ValueError,
         "atoms and weights must be finite"),
        (lambda: JumpLaw(PAIR, ((1.0, 1.0), (2.0, 2.0)), (1.5, -0.5)), ValueError,
         "weights must be a probability vector, got sum 1.0 and min -0.5"),
        (lambda: CbpSpec(0.0, {}), ValueError, "rate must be finite and positive, got 0.0"),
        (lambda: CbpSpec(-1.0, {}), ValueError, "rate must be finite and positive, got -1.0"),
        (lambda: CbpSpec(math.inf, {}), ValueError,
         "rate must be finite and positive, got inf"),
        (lambda: two_sided_spec(math.nan), ValueError,
         "rate must be finite and positive, got nan"),
        (lambda: two_sided_spec(1.0, sizes=()), ValueError,
         "sizes must be nonempty and >= 1: ()"),
        (lambda: two_sided_spec(1.0, sizes=(0, 4)), ValueError,
         "sizes must be nonempty and >= 1: (0, 4)"),
        (lambda: two_sided_spec(1.0, max_word=0), ValueError, "max_word_len must be >= 1"),
        (lambda: two_sided_spec(1.0, trials=1), ValueError,
         "trials must be >= 2 for standard errors"),
        (lambda: two_sided_spec(0.01), ValueError,
         "rate * n must be >= 1/2 so that p = round(rate * n) >= 1, got rate 0.01 at n = 16"),
        (lambda: two_sided_spec(1e308), CapExceededError,
         "Gaussian factor of round(rate * n) x n entries at n = 16 exceeds budget 4000000"),
    ], ids=["jump_no_atoms", "jump_short_atom", "jump_nan_weight", "jump_inf_atom",
            "jump_negative_weight", "cbp_zero_rate", "cbp_negative_rate", "cbp_inf_rate",
            "ensemble_nan_rate", "ensemble_no_sizes", "ensemble_zero_size",
            "ensemble_max_word", "ensemble_one_trial", "ensemble_empty_model",
            "ensemble_overflowing_rate"])
    def test_message(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    def test_tracer_reads_the_ensemble_spec(self):
        # perfbench/tracer.py counts the simulated words and keys from the
        # spec's alphabet, sizes and max_word_len: 14 words of length <= 3
        # over (zl, zr), with 9 (zl^i, zr^j) keys, at each of two sizes
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(tracer)
        spec = two_sided_spec(1.0, sizes=(8, 16), max_word=3)
        assert tracer._estimate_counts({"spec": spec}, None) == {"words": 28, "keys": 18}


class TestEnsembleSpec:
    def test_validation(self):
        for sizes in ((32, 16), (16, 16)):
            with pytest.raises(ValueError):
                two_sided_spec(1.0, sizes=sizes)
        # a p x n Gaussian factor past the budget, before any trial is drawn
        with pytest.raises(CapExceededError, match="exceeds budget"):
            two_sided_spec(1e7, sizes=(8,))
        # a negative seed is the spec's error, not SeedSequence's at the first trial
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            two_sided_spec(1.0, seed=-1)

    def test_trial_budget(self):
        # max_word 3 over two letters: 14 words, so 15 values a trial
        at_budget = TRIAL_VALUE_BUDGET // 15
        assert two_sided_spec(1.0, trials=at_budget).trials == at_budget
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="trial budget"):
                two_sided_spec(1.0, trials=at_budget + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rejected before the trials' values or seeds exist
        assert peak < 1_000_000

    def test_jump_moment_factors_over_slots(self):
        # the spec's jump table: independent variables factor, one shared
        # variable does not
        spec = two_sided_spec(1.0, shared=False, max_word=2)
        assert spec.law.jump_law(("zl", "zr")) == pytest.approx(1.5 * 1.5)
        shared = two_sided_spec(1.0, shared=True, max_word=2)
        assert shared.law.jump_law(("zl", "zr")) == pytest.approx(2.5)

    def test_targets(self):
        spec = two_sided_spec(0.5)
        t = cbp_cumulants(spec.law)
        assert t(("zl",)) == pytest.approx(0.5 * 1.5)
        assert t(("zl", "zr")) == pytest.approx(0.5 * 2.5)


class TestModelConvergence:
    def test_commutation_exact(self):
        spec = two_sided_spec(0.5)
        rng = np.random.default_rng(6)
        assert bimodule_residue(model_letters(spec, 8, rng), rng) < 1e-10

    def test_each_key_value_reaches_every_word(self):
        # 2L2R, so that the order within each subword shows in the real
        # part of a trace; words sharing a key outnumber the keys
        spec = EnsembleSpec(
            rate=1.5,
            jump=four_variable_law(shared_xu=True),
            sizes=(6, 10),
            trials=3,
            seed=17,
            max_word_len=4,
        )
        reports = estimate_empirical_cumulants(spec)
        words = list(all_words(spec.alphabet, spec.max_word_len))
        root = np.random.SeedSequence(spec.seed)
        for n, size_seed, rep in zip(spec.sizes, root.spawn(len(spec.sizes)), reports):
            values = []
            for child in size_seed.spawn(spec.trials):
                mats = build_wishart_model(spec, n, np.random.default_rng(child))
                values.append([
                    evaluate_bimatrix_word(
                        [(mats[x], spec.alphabet.side_of(x)) for x in w]
                    ).real
                    for w in words
                ])
            mean = np.mean(values, axis=0)
            assert rep.moments.tolist() == mean.tolist()

    def test_first_cumulant_unbiased(self):
        # a class of k rows of G has E tr(G_c* G_c) = k, and so has its
        # Bartlett factor: row i holds E|R_ii|^2 = (k - i)/n and n - 1 - i
        # entries of variance 1/n. So E tr T/n = (p/n) E[b] exactly at any
        # size; p/n is 24/48 = 0.5, so the rate-0.5 first cumulant estimate
        # converges fast
        spec = two_sided_spec(0.5, sizes=(48,), trials=60, seed=9, max_word=1)
        rep = estimate_empirical_cumulants(spec)[0]
        target = cbp_cumulants(spec.law).row
        assert abs(rep.cumulants[0] - target[0]) < 4 * max(rep.moment_se[0], 1e-3)

    def test_independent_slots_reach_targets(self):
        # both variables share one G, so the mixed cumulant is
        # rate * E[a] * E[b] = 1 * 1.5 * 1.75; a G per variable would make
        # the two matrices asymptotically free and that cumulant 0
        spec = EnsembleSpec(
            rate=1.0,
            jump=pair_law(OTHER_ATOM),
            sizes=(32,),
            trials=40,
            seed=0,
            max_word_len=2,
        )
        rep = estimate_empirical_cumulants(spec)[0]
        target = cbp_cumulants(spec.law).row
        mixed = list(all_words(spec.alphabet, 2)).index(("zl", "zr"))
        assert target[mixed] == pytest.approx(2.625)
        assert (np.abs(rep.cumulants - target) <= 4 * rep.moment_se).all()

    @pytest.mark.parametrize("rate", [0.5, 2.5])
    def test_determinism(self, rate):
        spec = two_sided_spec(rate, sizes=(12,), trials=5, seed=21, max_word=2)
        r1 = estimate_empirical_cumulants(spec)
        r2 = estimate_empirical_cumulants(spec)
        assert r1[0].moments.tolist() == r2[0].moments.tolist()
        assert r1[0].cumulants.tolist() == r2[0].cumulants.tolist()

    def test_imag_residue_small(self):
        spec = two_sided_spec(1.0, sizes=(16,), trials=5, seed=2, max_word=3)
        rep = estimate_empirical_cumulants(spec)[0]
        assert rep.max_imag_residue < IMAG_RESIDUE_TOLERANCE

    def test_rate_above_one_runs(self):
        spec = two_sided_spec(2.5, sizes=(12,), trials=4, seed=13, max_word=2)
        rep = estimate_empirical_cumulants(spec)[0]
        assert np.isfinite(rep.cumulants).all()
