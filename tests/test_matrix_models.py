"""Random-matrix models: samplers, padded diagonals, bimodule word
evaluation, commutation of left and right actions, and small Monte Carlo
convergence checks (heavier configurations live in the acceptance tests)."""

import gc
import math
import weakref

import numpy as np
import pytest

from bipoisson.errors import ShapeMismatchError
from bipoisson.cumulants import all_words
from bipoisson.matrix_models import (
    IMAG_RESIDUE_TOLERANCE,
    AtomLaw,
    EnsembleSpec,
    VariableSpec,
    build_wishart_model,
    estimate_empirical_cumulants,
    evaluate_bimatrix_word,
    key_values,
    padded_diagonal,
    rate_split,
    sample_gue,
    sample_haar_unitary,
)
from bipoisson.partitions import LEFT, RIGHT
from oracles import (
    bimodule_operators,
    bimodule_residue,
    model_letters,
    operator_word_value,
)

TWO_ATOM = AtomLaw((1.0, 2.0), (0.5, 0.5))


def two_sided_spec(rate, sizes=(16,), trials=8, seed=11, max_word=3, shared=True):
    return EnsembleSpec(
        rate=rate,
        variables=(
            VariableSpec("zl", LEFT, TWO_ATOM, 0),
            VariableSpec("zr", RIGHT, TWO_ATOM, 0 if shared else 1),
        ),
        sizes=sizes,
        trials=trials,
        seed=seed,
        max_word_len=max_word,
    )


class TestAtomLaw:
    def test_moments(self):
        assert TWO_ATOM.moment(1) == 1.5
        assert TWO_ATOM.moment(2) == 2.5
        assert AtomLaw((3.0,), (1.0,)).moment(4) == 81.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomLaw((1.0,), (0.5,))
        with pytest.raises(ShapeMismatchError):
            AtomLaw((1.0, 2.0), (1.0,))


class TestSamplers:
    def test_gue_statistics(self):
        rng = np.random.default_rng(0)
        n, reps = 64, 200
        diag_vals, off_re = [], []
        for _ in range(reps):
            x = sample_gue(n, rng)
            assert np.allclose(x, x.conj().T)
            diag_vals.extend(np.diagonal(x).real)
            off_re.extend(x[0, 1:].real)
        assert np.var(diag_vals) == pytest.approx(1.0 / n, rel=0.1)
        assert np.var(off_re) == pytest.approx(1.0 / (2 * n), rel=0.1)

    def test_haar_unitary(self):
        rng = np.random.default_rng(1)
        u = sample_haar_unitary(32, rng)
        assert np.allclose(u @ u.conj().T, np.eye(32), atol=1e-12)
        # mean of |u_11|^2 is 1/n
        vals = [abs(sample_haar_unitary(16, rng)[0, 0]) ** 2 for _ in range(400)]
        assert np.mean(vals) == pytest.approx(1 / 16, rel=0.25)


class TestDiagonalModel:
    def test_padded_diagonal(self):
        rng = np.random.default_rng(2)
        d = padded_diagonal(TWO_ATOM, 3, 8, rng)
        assert d.shape == (8,)
        assert np.all(d[3:] == 0)
        assert set(d[:3]) <= {1.0, 2.0}


class TestRateSplit:
    def test_fractional(self):
        assert rate_split(0.5, 100) == (0, 50)

    def test_integer_folds_into_delta(self):
        assert rate_split(2.0, 100) == (1, 100)

    def test_mixed(self):
        assert rate_split(2.5, 100) == (2, 50)


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
    @pytest.mark.parametrize("shared, products", [(True, 3), (False, 6)])
    def test_products_formed_once(self, shared, products):
        # 1L1R words up to length 4 need the powers 2..4 of each side's
        # matrix; over a shared slot both sides take the same three
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
            variables=(
                VariableSpec("x", LEFT, TWO_ATOM, 0),
                VariableSpec("y", LEFT, AtomLaw((0.0, 3.0), (0.25, 0.75)), 1),
                VariableSpec("u", RIGHT, AtomLaw((-1.0, 0.5), (0.4, 0.6)), 2),
                VariableSpec("v", RIGHT, AtomLaw((0.5,), (1.0,)), 3),
            ),
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
        names = [v.name for v in spec.variables]
        ops = bimodule_operators([(mats[v.name], v.side) for v in spec.variables])
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


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            two_sided_spec(1.0, sizes=(32, 16))
        with pytest.raises(ShapeMismatchError):
            EnsembleSpec(
                1.0,
                (
                    VariableSpec("a", LEFT, TWO_ATOM, 0),
                    VariableSpec("b", RIGHT, AtomLaw((1.0,), (1.0,)), 0),
                ),
                (8,),
                1,
                0,
                2,
            )

    def test_jump_moment_factors_over_slots(self):
        spec = two_sided_spec(1.0, shared=False)
        assert spec.jump_moment(("zl", "zr")) == pytest.approx(1.5 * 1.5)
        shared = two_sided_spec(1.0, shared=True)
        assert shared.jump_moment(("zl", "zr")) == pytest.approx(2.5)

    def test_targets(self):
        spec = two_sided_spec(0.5)
        t = spec.target_cumulants()
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
            variables=(
                VariableSpec("x", LEFT, TWO_ATOM, 0),
                VariableSpec("y", LEFT, AtomLaw((0.0, 3.0), (0.25, 0.75)), 1),
                VariableSpec("u", RIGHT, TWO_ATOM, 0),
                VariableSpec("v", RIGHT, AtomLaw((0.5,), (1.0,)), 2),
            ),
            sizes=(6, 10),
            trials=3,
            seed=17,
            max_word_len=4,
        )
        reports = estimate_empirical_cumulants(spec)
        root = np.random.SeedSequence(spec.seed)
        for n, size_seed, rep in zip(spec.sizes, root.spawn(len(spec.sizes)), reports):
            values = []
            for child in size_seed.spawn(spec.trials):
                mats = build_wishart_model(spec, n, np.random.default_rng(child))
                values.append([
                    evaluate_bimatrix_word(
                        [(mats[x], spec.alphabet.side_of(x)) for x in e.word]
                    ).real
                    for e in rep.estimates
                ])
            mean = np.mean(values, axis=0)
            assert [e.empirical_moment for e in rep.estimates] == mean.tolist()

    def test_first_cumulant_unbiased(self):
        # E tr((X D X)) = (p/n) E[atom]: exact at any size, so the rate-0.5
        # first cumulant estimate converges fast
        spec = two_sided_spec(0.5, sizes=(48,), trials=60, seed=9, max_word=1)
        rep = estimate_empirical_cumulants(spec)[0]
        est = rep.estimates[0]
        assert abs(est.empirical_cumulant - est.target_cumulant) < 4 * max(
            est.moment_std_err, 1e-3
        )

    @pytest.mark.parametrize("rate", [0.5, 2.5])
    def test_determinism(self, rate):
        spec = two_sided_spec(rate, sizes=(12,), trials=5, seed=21, max_word=2)
        r1 = estimate_empirical_cumulants(spec)
        r2 = estimate_empirical_cumulants(spec)
        for e1, e2 in zip(r1[0].estimates, r2[0].estimates):
            assert e1.empirical_moment == e2.empirical_moment
            assert e1.empirical_cumulant == e2.empirical_cumulant

    def test_imag_residue_small(self):
        spec = two_sided_spec(1.0, sizes=(16,), trials=5, seed=2, max_word=3)
        rep = estimate_empirical_cumulants(spec)[0]
        assert rep.max_imag_residue < IMAG_RESIDUE_TOLERANCE

    def test_rate_above_one_runs(self):
        spec = two_sided_spec(2.5, sizes=(12,), trials=4, seed=13, max_word=2)
        rep = estimate_empirical_cumulants(spec)[0]
        assert all(math.isfinite(e.empirical_cumulant) for e in rep.estimates)
