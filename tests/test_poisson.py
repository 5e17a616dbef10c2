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
)
from bipoisson.poisson import (
    CbpSpec,
    cbp_cumulants,
    cbp_moments,
    compress,
    convolve,
    limit_theorem_moments,
    poisson_approximation,
    psd_check,
    semigroup_element,
)
from oracles import compression_oracle


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
        dist = cbp_moments(CbpSpec(lam, point_mass_jump(alpha, beta, 2)))
        assert dist.moments(("zl", "zr")) == pytest.approx(
            lam * alpha * beta + lam**2 * alpha * beta, abs=1e-12
        )


class TestConvolution:
    def test_rates_add(self):
        jump = point_mass_jump(1.3, 0.8, 4)
        mu = cbp_moments(CbpSpec(0.7, jump))
        nu = cbp_moments(CbpSpec(1.1, jump))
        out = convolve(mu, nu)
        target = cbp_cumulants(CbpSpec(1.8, jump))
        for w in all_words(jump.alphabet, 4):
            assert out.cumulants(w) == pytest.approx(target(w), abs=1e-12)

    def test_semigroup(self):
        nu = cbp_moments(CbpSpec(1.0, point_mass_jump(1, 1, 4)))
        half = semigroup_element(nu, 0.5)
        back = convolve(half, half)
        for w in all_words(nu.moments.alphabet, 4):
            assert back.cumulants(w) == pytest.approx(nu.cumulants(w), abs=1e-12)

    def test_time_zero_is_point_mass(self):
        nu = cbp_moments(CbpSpec(1.0, point_mass_jump(1, 1, 3)))
        zero = semigroup_element(nu, 0.0)
        for w in all_words(nu.moments.alphabet, 3):
            assert zero.moments(w) == 0.0

    def test_divisibility(self):
        # the n-th convolution root at rate lam/n recovers the law exactly
        jump = point_mass_jump(1.0, 1.0, 5)
        lam = 1.5
        target = cbp_cumulants(CbpSpec(lam, jump))
        for n in (2, 3, 5):
            piece = cbp_moments(CbpSpec(lam / n, jump))
            acc = semigroup_element(piece, 0.0)
            for _ in range(n):
                acc = convolve(acc, piece)
            err = max(
                abs(acc.cumulants(w) - target(w)) for w in all_words(jump.alphabet, 5)
            )
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


class TestLimitTheorem:
    def test_slope_near_minus_one(self):
        spec = CbpSpec(1.0, point_mass_jump(1.0, 1.0, 4))
        target = cbp_moments(spec)
        words = list(all_words(target.moments.alphabet, 4))
        sizes = [8, 16, 32, 64]
        errs = []
        for n in sizes:
            approx = limit_theorem_moments(spec, n)
            errs.append(
                max(abs(approx.moments(w) - target.moments(w)) for w in words)
            )
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -1.15 <= slope <= -0.85

    def test_rejects_small_n(self):
        spec = CbpSpec(4.0, point_mass_jump(1, 1, 2))
        with pytest.raises(ValueError):
            limit_theorem_moments(spec, 2)


class TestPoissonApproximation:
    def test_cumulants_converge(self):
        nu = cbp_moments(CbpSpec(1.0, point_mass_jump(1.0, 0.5, 4)))
        words = list(all_words(nu.moments.alphabet, 4))
        prev = None
        for n in (2, 4, 8, 16, 32):
            approx = poisson_approximation(nu, n)
            err = max(abs(approx.cumulants(w) - nu.cumulants(w)) for w in words)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 0.2


class TestPositivity:
    def test_cbp_gram_psd(self):
        for lam, alpha, beta in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.5), (3.0, 1.0, 2.0)]:
            dist = cbp_moments(CbpSpec(lam, point_mass_jump(alpha, beta, 4)))
            ok, min_eig = psd_check(dist, 2)
            assert ok, min_eig

    def test_cap_errors(self):
        dist = cbp_moments(CbpSpec(1.0, point_mass_jump(1, 1, 3)))
        with pytest.raises(CapExceededError):
            psd_check(dist, 2)
