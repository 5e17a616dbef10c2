"""Compound bi-free Poisson laws: cumulant structure, convolution
semigroup, compression against a brute-force oracle, the Poisson limit
theorem rate, approximation of infinitely divisible laws, and positivity."""

import math
import random

import numpy as np
import pytest

from bipoisson.errors import CapExceededError, ShapeMismatchError
from bipoisson.cumulants import (
    Alphabet,
    CumulantTable,
    MomentFunctional,
    all_words,
    kappa_from_moments,
    moments_from_kappa,
)
from bipoisson import grid
from bipoisson.poisson import (
    CbpSpec,
    JumpLaw,
    cbp_cumulants,
    cbp_moments,
    compress,
    convolve,
    limit_theorem_moments,
    poisson_approximation,
    psd_check,
    semigroup_element,
)
from oracles import compression_oracle, count_grid


def point_mass_jump(alpha: float, beta: float, cap: int) -> MomentFunctional:
    a = Alphabet(("zl",), ("zr",))
    return MomentFunctional.from_function(
        a, cap, lambda w: alpha ** w.count("zl") * beta ** w.count("zr")
    )


class TestCbp:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            CbpSpec(0.0, point_mass_jump(1, 1, 2))

    @pytest.mark.parametrize("lam,alpha,beta", [(1.0, 1.0, 1.0), (2.0, 1.5, -0.5)])
    def test_point_mass_cumulants(self, lam, alpha, beta):
        spec = CbpSpec(lam, point_mass_jump(alpha, beta, 4))
        kappa = cbp_cumulants(spec)
        for w in all_words(kappa.alphabet, 4):
            expected = lam * alpha ** w.count("zl") * beta ** w.count("zr")
            assert kappa(w) == pytest.approx(expected, abs=1e-12)

    def test_degree_two_moments(self):
        lam, alpha, beta = 0.9, 1.2, 0.4
        phi = cbp_moments(CbpSpec(lam, point_mass_jump(alpha, beta, 2)))
        assert phi(("zl", "zr")) == pytest.approx(
            lam * alpha * beta + lam**2 * alpha * beta, abs=1e-12
        )


class TestConvolution:
    def test_rates_add(self):
        jump = point_mass_jump(1.3, 0.8, 4)
        mu = cbp_cumulants(CbpSpec(0.7, jump))
        nu = cbp_cumulants(CbpSpec(1.1, jump))
        out = convolve(mu, nu)
        target = cbp_cumulants(CbpSpec(1.8, jump))
        for w in all_words(jump.alphabet, 4):
            assert out(w) == pytest.approx(target(w), abs=1e-12)

    def test_semigroup(self):
        nu = cbp_cumulants(CbpSpec(1.0, point_mass_jump(1, 1, 4)))
        half = semigroup_element(nu, 0.5)
        back = convolve(half, half)
        for w in all_words(nu.alphabet, 4):
            assert back(w) == pytest.approx(nu(w), abs=1e-12)

    def test_time_zero_is_point_mass(self):
        nu = cbp_cumulants(CbpSpec(1.0, point_mass_jump(1, 1, 3)))
        zero = moments_from_kappa(semigroup_element(nu, 0.0))
        for w in all_words(nu.alphabet, 3):
            assert zero(w) == 0.0

    def test_divisibility(self):
        # the n-th convolution root at rate lam/n recovers the law exactly
        jump = point_mass_jump(1.0, 1.0, 5)
        lam = 1.5
        target = cbp_cumulants(CbpSpec(lam, jump))
        for n in (2, 3, 5):
            piece = cbp_cumulants(CbpSpec(lam / n, jump))
            acc = semigroup_element(piece, 0.0)
            for _ in range(n):
                acc = convolve(acc, piece)
            err = max(abs(acc(w) - target(w)) for w in all_words(jump.alphabet, 5))
            assert err < 1e-12


class TestCompression:
    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.25])
    def test_scaling_matches_oracle(self, lam):
        rng = random.Random(42)
        a = Alphabet(("z1", "z2"))
        phi = MomentFunctional.from_function(a, 4, lambda w: rng.uniform(-1, 1))
        kappa = kappa_from_moments(phi)
        compressed = compress(kappa, lam)
        oracle = compression_oracle(phi, lam, 4)
        err = max(abs(compressed(w) - oracle(w)) for w in all_words(a, 4))
        assert err < 1e-10

    def test_identity_at_full_rate(self):
        a = Alphabet(("z1",))
        kappa = CumulantTable.from_function(a, 3, lambda w: 2.0)
        out = compress(kappa, 1.0)
        for w in all_words(a, 3):
            assert out(w) == kappa(w)

    def test_invalid_ratio(self):
        kappa = CumulantTable.from_function(Alphabet(("z",)), 2, lambda w: 1.0)
        with pytest.raises(ValueError):
            compress(kappa, 0.0)
        with pytest.raises(ValueError):
            compress(kappa, 1.5)

    def test_oracle_rejects_two_faces(self):
        phi = point_mass_jump(1, 1, 2)
        with pytest.raises(ShapeMismatchError):
            compression_oracle(phi, 0.5, 2)


def counts(w) -> tuple[int, int]:
    return w.count("zl"), w.count("zr")


class TestLimitTheorem:
    def test_slope_near_minus_one(self):
        spec = CbpSpec(1.0, point_mass_jump(1.0, 1.0, 4))
        target = cbp_moments(spec)
        words = list(all_words(target.alphabet, 4))
        sizes = [8, 16, 32, 64]
        errs = [max(abs(approx[counts(w)] - target(w)) for w in words)
                for approx in limit_theorem_moments(
                    CbpSpec(spec.rate, count_grid(spec.jump_law)), sizes)]
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -1.15 <= slope <= -0.85

    def test_rejects_small_n(self):
        spec = CbpSpec(4.0, count_grid(point_mass_jump(1, 1, 2)))
        with pytest.raises(ValueError):
            limit_theorem_moments(spec, [2])


class TestPoissonApproximation:
    def test_cumulants_converge(self):
        nu = cbp_cumulants(CbpSpec(1.0, point_mass_jump(1.0, 0.5, 4)))
        words = list(all_words(nu.alphabet, 4))
        prev = None
        for approx in poisson_approximation(count_grid(nu), (2, 4, 8, 16, 32)):
            err = max(abs(approx[counts(w)] - nu(w)) for w in words)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 0.2


class TestSizeSequences:
    # two atoms a side, so that the grids vary from class to class
    SPEC = CbpSpec(2.5, JumpLaw.independent(
        Alphabet(("zl",), ("zr",)),
        (((0.5, -1.5), (0.3, 0.7)), ((2.0, 0.25), (0.6, 0.4)))).grid(5))

    def law(self, fn):
        if fn is limit_theorem_moments:
            return self.SPEC
        return {c: self.SPEC.rate * x for c, x in self.SPEC.jump_law.items()}

    @pytest.mark.parametrize("fn", [limit_theorem_moments, poisson_approximation],
                             ids=["limit", "approx"])
    def test_each_size_equals_its_own_call(self, fn):
        # grids do not mix: one call over every size gives each size's grid
        # bit for bit as a call with that size alone
        sizes = [64, 3, 17, 8]
        tables = fn(self.law(fn), sizes)
        assert len(tables) == len(sizes)
        for n, table in zip(sizes, tables):
            assert repr(table) == repr(fn(self.law(fn), [n])[0])

    @pytest.mark.parametrize("fn, sizes, message", [
        (limit_theorem_moments, [8, 2, 1], "N=2 below rate 2.5"),
        (poisson_approximation, [4, 0, -1], "n must be >= 1, got 0")],
        ids=["limit", "approx"])
    def test_first_bad_size_raises_before_any_transform(self, monkeypatch, fn, sizes,
                                                        message):
        def transform(*args):
            raise AssertionError("a transform ran before every size was checked")

        monkeypatch.setattr(grid, "transform_grids", transform)
        with pytest.raises(ValueError) as exc:
            fn(self.law(fn), sizes)
        assert str(exc.value) == message


class TestPositivity:
    def test_cbp_gram_psd(self):
        for lam, alpha, beta in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.5), (3.0, 1.0, 2.0)]:
            phi = cbp_moments(CbpSpec(lam, point_mass_jump(alpha, beta, 4)))
            ok, min_eig = psd_check(phi, 2)
            assert ok, min_eig

    def test_cap_errors(self):
        phi = cbp_moments(CbpSpec(1.0, point_mass_jump(1, 1, 3)))
        with pytest.raises(CapExceededError):
            psd_check(phi, 2)
