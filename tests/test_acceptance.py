"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single [acceptance] PASS/FAIL line (visible with -s or -rA)
so the gate can be read off the log.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ckrig import (
    Sample,
    SimulationConfig,
    TrendBasis,
    build_design,
    complex_mean,
    complex_variance,
    feature_vector,
    gls_beta,
    imaginary_standard_error,
    index_moments,
    kkt_solve,
    kriging_weights,
    monte_carlo_mse,
    predict,
    real_standard_error,
    slope,
    trend_variance,
    zero_variance_points,
)
from ckrig.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main, render_one_decimal
from conftest import (
    DATA_DIR,
    EXAMPLE_X,
    EXAMPLE_Y,
    _basis_for,
    _random_correlation,
    summation_oracle,
)


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL {name}")
        raise
    print(f"[acceptance] PASS {name} ({time.perf_counter() - started:.2f}s)")


def test_example_reproduction():
    with criterion("reference example reproduction"):
        started = time.perf_counter()
        sample = Sample(covariates=EXAMPLE_X, observations=EXAMPLE_Y)
        oracle = summation_oracle(EXAMPLE_X, EXAMPLE_Y)

        mean = complex_mean(sample)
        real_se = real_standard_error(sample)
        imag_se = imaginary_standard_error(sample)

        # full precision against the independent summation oracle
        assert abs(mean.plus.real - oracle["vbar"]) <= 1e-10
        assert abs(mean.plus - oracle["mean_plus"]) <= 1e-10
        assert abs(real_se - oracle["real_se"]) <= 1e-10
        assert abs(imag_se - oracle["imag_se"]) <= 1e-10
        assert slope(sample) < 0.0
        assert mean.plus.imag < 0.0

        # one-decimal renderings, round-half-even
        assert render_one_decimal(mean.plus.real) == "6.1"
        assert render_one_decimal(real_se) == "0.5"
        assert render_one_decimal(imag_se) == "0.2"
        assert time.perf_counter() - started < 1.0


def test_zero_variance_property():
    with criterion("zero-variance property"):
        started = time.perf_counter()

        def check(covariates):
            design = build_design(TrendBasis.linear(), covariates)
            points = zero_variance_points(covariates)
            for point in (points.plus, points.minus):
                sol = kriging_weights(design, None, feature_vector(TrendBasis.linear(), point))
                assert abs(trend_variance(sol, 1.0)) <= 1e-10

        check(np.asarray(EXAMPLE_X))
        for n in range(2, 101):
            check(np.arange(1.0, n + 1.0))
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(2, 41))
            covariates = rng.uniform(-50.0, 50.0, n)
            check(covariates)
        assert time.perf_counter() - started < 1.0


def test_constant_mean_precision():
    with criterion("constant-mean precision sigma^2/n"):
        rng = np.random.default_rng(5)
        sizes = set(range(1, 4097))
        sizes.update(2**p for p in range(1, 21))
        sizes.update(int(v) for v in rng.integers(4097, 2**20 + 1, size=50))
        for n in sorted(sizes):
            design = build_design(TrendBasis.constant(), np.arange(1.0, n + 1.0))
            sol = kriging_weights(design, None, [1.0])
            assert abs(sol.variance_factor - 1.0 / n) <= 1e-15 / n, f"n={n}"


def test_oracle_equivalence():
    with criterion("closed form matches bordered KKT solve"):
        started = time.perf_counter()
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
        assert time.perf_counter() - started < 10.0


@pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
def test_monte_carlo_confirmation(noise_kind):
    with criterion(f"monte-carlo error moments at the complex point ({noise_kind})"):
        started = time.perf_counter()
        covariates = tuple(float(i) for i in range(1, 12))
        point = zero_variance_points(covariates).plus
        config = SimulationConfig(
            covariates=covariates,
            beta=(1.0, 0.5),
            sigma=1.0,
            replicates=100_000,
            seed=20260810,
            noise_kind=noise_kind,
        )
        report = monte_carlo_mse(config, point)
        target = 1.0 / 11.0
        assert abs(report.var_re - target) <= 0.05 * target
        assert abs(report.var_im - target) <= 0.05 * target
        assert abs(report.cov_re_im) <= 0.005
        assert abs(report.bilinear_mse) <= 0.01
        # the bilinear mean square collapses an order of magnitude below the
        # per-component variances
        assert abs(report.bilinear_mse) <= report.var_re / 10.0
        assert time.perf_counter() - started < 30.0


def test_invariant_suite():
    with criterion("algebraic invariant suite"):
        rng = np.random.default_rng(24680)
        for trial in range(100):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k + 1, 31))
            covariates = np.linspace(-5.0, 5.0, n) + rng.uniform(-0.02, 0.02, n)
            design = build_design(_basis_for(k), covariates)
            corr = _random_correlation(rng, n) if trial % 2 == 0 else None
            f = rng.uniform(-3.0, 3.0, k) + 1j * rng.uniform(-3.0, 3.0, k)
            obs = rng.uniform(-10.0, 10.0, n)

            sol = kriging_weights(design, corr, f, obs=obs)

            # unbiasedness w'F = f'
            assert np.max(np.abs(sol.weights @ design.F - f)) <= 1e-10

            # variance chain  w'Λw = -f'μ = f'(F'Λ⁻¹F)⁻¹f
            lam_w = sol.weights if corr is None else corr @ sol.weights
            quad_w = np.dot(sol.weights, lam_w)
            quad_mu = -np.dot(f, sol.multipliers)
            scale = max(abs(quad_w), abs(quad_mu), abs(sol.variance_factor))
            if scale > 1e-8:
                assert abs(quad_w - quad_mu) <= 1e-10 * scale
                assert abs(quad_w - sol.variance_factor) <= 1e-10 * scale

            # predictor equivalence w'v = f'β̂
            via_weights = predict(sol, obs)
            via_beta = complex(np.dot(f, sol.beta_hat))
            assert abs(via_weights - via_beta) <= 1e-10 * max(1.0, abs(via_weights))

            # conjugation symmetry
            sol_conj = kriging_weights(design, corr, np.conj(f))
            assert np.max(np.abs(sol_conj.weights - np.conj(sol.weights))) <= 1e-12 * (
                1.0 + np.max(np.abs(sol.weights))
            )

        # sample statistics invariants, on random samples and the example
        samples = [Sample(covariates=EXAMPLE_X, observations=EXAMPLE_Y)]
        for _ in range(50):
            n = int(rng.integers(3, 26))
            x = np.linspace(-4.0, 4.0, n) + rng.uniform(-0.1, 0.1, n)
            samples.append(Sample(covariates=x, observations=rng.uniform(-10.0, 10.0, n)))

        for sample in samples:
            mean = complex_mean(sample)
            vbar = float(np.mean(sample.observations))
            assert abs(mean.plus.real - vbar) <= 1e-12 * max(1.0, abs(vbar))

            design = build_design(TrendBasis.linear(), sample.covariates)
            a_hat = gls_beta(design, None, sample.observations)[1]
            sigma_n = index_moments(sample.covariates).sigma_n
            expected_im = a_hat * sigma_n
            assert abs(mean.plus.imag - expected_im) <= 1e-12 * max(1.0, abs(expected_im))

            stats = complex_variance(sample)
            assert stats.mean.minus == stats.mean.plus.conjugate()
            assert stats.variance.minus == stats.variance.plus.conjugate()

            shift = float(rng.uniform(-30.0, 30.0))
            shifted = Sample(covariates=sample.covariates + shift, observations=sample.observations)
            assert abs(complex_mean(shifted).plus - mean.plus) <= 1e-10 * max(1.0, abs(mean.plus))
            shifted_var = complex_variance(shifted).variance.plus
            assert abs(shifted_var - stats.variance.plus) <= 1e-10 * max(
                1.0, abs(stats.variance.plus)
            )


def test_cli_contract(capsys, tmp_path):
    with criterion("cli golden file and exit codes"):
        example = DATA_DIR / "example.csv"

        code = main(["complex-mean", str(example), "--json"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        golden = (DATA_DIR / "complex_mean_golden.json").read_text()
        assert out == golden
        json.loads(out)

        bad = tmp_path / "bad.csv"
        bad.write_text("x,v\n1.7,abc\n")
        assert main(["fit", str(bad)]) == EXIT_INPUT
        capsys.readouterr()

        flat = tmp_path / "flat.csv"
        flat.write_text("x,v\n2.0,1.0\n2.0,5.0\n")
        assert main(["complex-mean", str(flat)]) == EXIT_DEGENERATE
        capsys.readouterr()

        one = tmp_path / "one.csv"
        one.write_text("x,v\n1.0,2.0\n")
        assert main(["fit", str(one), "--basis", "linear"]) == EXIT_DEGENERATE
        capsys.readouterr()
