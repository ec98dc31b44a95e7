import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ckrig import (
    DesignMatrix,
    SimulationConfig,
    SingularSystem,
    TrendBasis,
    build_design,
    feature_vector,
    gls_beta,
    kkt_solve,
    kriging_weights,
    monte_carlo_mse,
    predict,
    simulate_process,
    zero_variance_points,
)
from ckrig.validation import BLOCK
from conftest import EXAMPLE_X, _basis_for, _random_correlation


class TestKktSolve:
    def test_constant_uniform(self):
        d = build_design(TrendBasis.constant(), [1.0, 2.0, 3.0, 4.0])
        w, mu = kkt_solve(d, None, [1.0])
        assert_allclose(w, [0.25] * 4, atol=1e-14)
        assert_allclose(mu, [-0.25], atol=1e-14)

    def test_matches_closed_form_at_complex_point(self, example_oracle):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        point = complex(example_oracle["m_n"], example_oracle["sigma_n"])
        f = feature_vector(TrendBasis.linear(), point)
        w, mu = kkt_solve(d, None, f)
        sol = kriging_weights(d, None, f)
        assert np.max(np.abs(w - sol.weights)) <= 1e-10
        assert np.max(np.abs(mu - sol.multipliers)) <= 1e-10

    def test_all_equal_covariates_singular(self):
        d = build_design(TrendBasis.linear(), [5.0, 5.0, 5.0])
        with pytest.raises(SingularSystem):
            kkt_solve(d, None, [1.0, 5.0])

    def test_residual_above_tolerance_singular(self):
        # Two columns 1e-14 apart: the solve succeeds, but its residual (~2.5e-5) fails the check.
        t = np.linspace(0.0, 1.0, 6)
        d = DesignMatrix(np.column_stack([np.ones(6), t, t + 1e-14]))
        with pytest.raises(SingularSystem, match="residual .* exceeds"):
            kkt_solve(d, None, [1.0, 0.5, 0.5 + 1e-14])

    def test_feature_length_checked(self):
        d = build_design(TrendBasis.linear(), [1.0, 2.0])
        with pytest.raises(ValueError):
            kkt_solve(d, None, [1.0])


def test_oracle_equivalence_randomized():
    # 200 randomized configurations; closed form vs the bordered solve.
    rng = np.random.default_rng(987654321)
    for trial in range(200):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 31))
        covariates = np.linspace(-4.0, 4.0, n) + rng.uniform(-0.05, 0.05, n)
        design = build_design(_basis_for(k), covariates)
        corr = _random_correlation(rng, n) if trial % 2 == 0 else None
        f = rng.uniform(-3.0, 3.0, k)
        if trial % 4 < 2:
            f = f + 1j * rng.uniform(-3.0, 3.0, k)
        w, mu = kkt_solve(design, corr, f)
        sol = kriging_weights(design, corr, f)
        assert np.max(np.abs(w - sol.weights)) <= 1e-9, f"trial {trial}"
        assert np.max(np.abs(mu - sol.multipliers)) <= 1e-9, f"trial {trial}"


def _block_draw(cfg, block):
    """The whole (BLOCK, n) noise matrix of ``block``, as the stream contract defines it."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(block))
    if cfg.noise_kind == "gaussian":
        return cfg.sigma * rng.standard_normal((BLOCK, cfg.n))
    half_width = cfg.sigma * math.sqrt(3.0)
    return rng.uniform(-half_width, half_width, (BLOCK, cfg.n))


class TestSimulateProcess:
    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_replicate_is_row_of_its_block(self, noise_kind):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(1.0, 0.5), sigma=1.5, replicates=1,
            seed=4242, noise_kind=noise_kind,
        )
        assert BLOCK == 4096  # the block size is part of the stream contract
        trend = build_design(cfg.basis, cfg.covariates).F @ np.asarray(cfg.beta)
        blocks = {0: _block_draw(cfg, 0), 1: _block_draw(cfg, 1)}
        for r in (0, BLOCK - 1, BLOCK, BLOCK + 6):
            expected = trend + blocks[r // BLOCK][r % BLOCK]
            np.testing.assert_array_equal(simulate_process(cfg, r).observations, expected)

    def test_zero_noise_recovers_trend(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 9)), beta=(2.0, -0.5), sigma=0.0, replicates=1, seed=3
        )
        s = simulate_process(cfg)
        expected = 2.0 - 0.5 * np.asarray(cfg.covariates)
        assert_allclose(s.observations, expected, rtol=0, atol=0)
        design = build_design(TrendBasis.linear(), s.covariates)
        assert_allclose(gls_beta(design, None, s.observations), [2.0, -0.5], atol=1e-12)

    def test_deterministic_per_seed(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(1.0,), sigma=2.0, replicates=1, seed=77
        )
        a = simulate_process(cfg, replicate=5)
        b = simulate_process(cfg, replicate=5)
        assert np.array_equal(a.observations, b.observations)

    def test_replicates_differ(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(1.0,), sigma=2.0, replicates=1, seed=77
        )
        a = simulate_process(cfg, replicate=0)
        b = simulate_process(cfg, replicate=1)
        assert not np.array_equal(a.observations, b.observations)

    def test_neighbouring_seeds_differ(self):
        base = dict(covariates=tuple(range(1, 12)), beta=(0.0, 1.0), sigma=1.0, replicates=1)
        for seed in range(100):
            a = simulate_process(SimulationConfig(seed=seed, **base))
            b = simulate_process(SimulationConfig(seed=seed + 1, **base))
            assert not np.array_equal(a.observations, b.observations)

    def test_uniform_noise_moments(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 20001)),
            beta=(0.0,),
            sigma=2.0,
            replicates=1,
            seed=11,
            noise_kind="uniform",
        )
        s = simulate_process(cfg)
        assert abs(float(np.mean(s.observations))) <= 0.1
        assert float(np.var(s.observations)) == pytest.approx(4.0, rel=0.1)
        # uniform support is bounded at sigma * sqrt(3)
        assert float(np.max(np.abs(s.observations))) <= 2.0 * math.sqrt(3.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(covariates=(1.0,), beta=(), sigma=1.0, replicates=1, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(covariates=(1.0,), beta=(0.0, 1.0, 2.0), sigma=1.0, replicates=1, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(covariates=(1.0,), beta=(0.0,), sigma=-1.0, replicates=1, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(covariates=(1.0,), beta=(0.0,), sigma=1.0, replicates=0, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(
                covariates=(1.0,), beta=(0.0,), sigma=1.0, replicates=1, seed=0, noise_kind="levy"
            )

    @pytest.mark.parametrize(
        "field",
        [
            {"seed": 1.5},  # Philox(key=1.5) would run seed 1's stream
            {"seed": -1},
            {"seed": 2**128},
            {"seed": True},
            {"seed": "3"},
            {"replicates": 2.5},
            {"replicates": np.True_},
        ],
        ids=repr,
    )
    def test_config_count_rule(self, field):
        base = {"covariates": (1.0, 2.0), "beta": (0.0, 1.0), "sigma": 1.0, "replicates": 1, "seed": 0}
        (name,) = field
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SimulationConfig(**{**base, **field})

    def test_config_counts_accept_numpy_integers(self):
        base = {"covariates": tuple(range(1, 12)), "beta": (1.0, 0.5), "sigma": 1.0}
        numpy = SimulationConfig(**base, replicates=np.int64(50), seed=np.uint64(2**64 - 1))
        plain = SimulationConfig(**base, replicates=50, seed=2**64 - 1)
        assert (type(numpy.replicates), type(numpy.seed)) == (int, int)
        assert monte_carlo_mse(numpy, 4.6) == monte_carlo_mse(plain, 4.6)
        # The widest Philox key is accepted.
        assert SimulationConfig(**base, replicates=1, seed=2**128 - 1).seed == 2**128 - 1

    @pytest.mark.parametrize("replicate", [1.5, -1, True])
    def test_replicate_index_rule(self, replicate):
        cfg = SimulationConfig(covariates=(1.0, 2.0), beta=(0.0,), sigma=1.0, replicates=1, seed=0)
        with pytest.raises(ValueError, match="replicate"):
            simulate_process(cfg, replicate)

    @pytest.mark.parametrize(
        "field", [{"beta": (float("nan"), 1.0)}, {"covariates": (1.0, float("inf"))}]
    )
    def test_config_rejects_non_finite_vectors(self, field):
        base = {"covariates": (1.0, 2.0), "beta": (0.0, 1.0), "sigma": 1.0}
        with pytest.raises(ValueError, match="must be finite"):
            SimulationConfig(**{**base, **field}, replicates=1, seed=0)


class TestMonteCarlo:
    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_batched_matches_per_replicate_loop(self, noise_kind):
        # Crosses a block boundary; four covariates keep the O(BLOCK^2)
        # partial-block draws of the reference loop cheap.
        cfg = SimulationConfig(
            covariates=(1.0, 2.0, 3.0, 4.0), beta=(1.0, 0.5), sigma=1.0,
            replicates=BLOCK + 7, seed=20260810, noise_kind=noise_kind,
        )
        point = zero_variance_points(cfg.covariates).plus
        report = monte_carlo_mse(cfg, point)

        f = feature_vector(cfg.basis, point)
        solution = kriging_weights(build_design(cfg.basis, cfg.covariates), None, f)
        truth = complex(f @ np.asarray(cfg.beta))
        obs = np.array([simulate_process(cfg, r).observations for r in range(cfg.replicates)])
        errors = np.array([predict(solution, v) - truth for v in obs])
        re, im = errors.real, errors.imag
        re_c, im_c = re - np.mean(re), im - np.mean(im)

        # Set from float64 eps, not fitted: each error is a length-n dot
        # product summed in another order, off by at most 2(n+2)·eps times
        # sum |w_i|(|trend_i| + |noise_i|); the report's 1/R reductions add
        # under log2(R) < 16 eps relative on top.
        trend = build_design(cfg.basis, cfg.covariates).F @ np.asarray(cfg.beta)
        scale = np.sum(np.abs(solution.weights)) * np.max(np.abs(trend) + np.abs(obs - trend))
        emax = float(np.max(np.abs(errors)))
        tol = 32 * (cfg.n + 2) * np.finfo(float).eps * scale * (1.0 + 2.0 * emax)

        assert report.replicates_used == cfg.replicates
        assert abs(report.mean_error_re - np.mean(re)) <= tol
        assert abs(report.mean_error_im - np.mean(im)) <= tol
        assert abs(report.var_re - np.mean(re_c * re_c)) <= tol
        assert abs(report.var_im - np.mean(im_c * im_c)) <= tol
        assert abs(report.cov_re_im - np.mean(re_c * im_c)) <= tol
        assert abs(report.bilinear_mse - np.mean(errors * errors)) <= tol

    def test_tiny_noise(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(1.0, 0.3), sigma=0.001, replicates=1000, seed=5
        )
        point = zero_variance_points(cfg.covariates).plus
        report = monte_carlo_mse(cfg, point)
        assert report.var_re <= 1e-5
        assert report.var_im <= 1e-5
        assert abs(report.bilinear_mse) <= 1e-5

    def test_zero_noise_zero_errors(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(2.0, 1.0), sigma=0.0, replicates=50, seed=5
        )
        report = monte_carlo_mse(cfg, 3.0 + 1.0j)
        assert abs(report.mean_error_re) <= 1e-12
        assert abs(report.mean_error_im) <= 1e-12
        assert report.var_re <= 1e-24
        assert report.var_im <= 1e-24

    def test_deterministic(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(1.0, 0.5), sigma=1.0, replicates=500, seed=99
        )
        point = zero_variance_points(cfg.covariates).plus
        assert monte_carlo_mse(cfg, point) == monte_carlo_mse(cfg, point)

    def test_constant_basis_real_point(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(4.0,), sigma=1.0, replicates=20000, seed=13
        )
        report = monte_carlo_mse(cfg, 12.0)
        assert report.var_re == pytest.approx(1.0 / 11.0, rel=0.1)
        assert report.var_im == 0.0

    def test_covariance_bounded_by_cauchy_schwarz(self):
        cfg = SimulationConfig(
            covariates=tuple(range(1, 12)), beta=(1.0, 0.5), sigma=1.0, replicates=2000, seed=21
        )
        report = monte_carlo_mse(cfg, 4.0 + 2.0j)
        bound = math.sqrt(report.var_re * report.var_im)
        assert abs(report.cov_re_im) <= bound + 1e-12

    def test_empirical_unbiasedness_fixed_seeds(self):
        # |mean error| within 4 standard errors in at least 95% of runs.
        replicates = 2000
        point = zero_variance_points(tuple(range(1, 12))).plus
        hits = 0
        runs = 20
        for seed in range(runs):
            cfg = SimulationConfig(
                covariates=tuple(range(1, 12)),
                beta=(1.0, 0.25),
                sigma=1.0,
                replicates=replicates,
                seed=1000 + seed,
            )
            report = monte_carlo_mse(cfg, point)
            bound_re = 4.0 * math.sqrt(report.var_re / replicates)
            bound_im = 4.0 * math.sqrt(report.var_im / replicates)
            if abs(report.mean_error_re) <= bound_re and abs(report.mean_error_im) <= bound_im:
                hits += 1
        assert hits >= math.ceil(0.95 * runs)
