import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

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
from ckrig import validation
from ckrig.validation import BLOCK
from conftest import EXAMPLE_X, _basis_for, _random_correlation, record_calls, traced_peak


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

    def test_singular_system_above_the_small_order(self):
        # Two equal columns over 70 covariates: the bordered system of order 72 goes to LAPACK's
        # gesv, not numpy's solve, and gesv finds it singular.
        d = build_design(TrendBasis.columns(lambda t: 1.0, lambda t: 1.0), np.linspace(0.0, 1.0, 70))
        with pytest.raises(SingularSystem, match="bordered kriging system is singular"):
            kkt_solve(d, None, [1.0, 1.0])

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

    def test_only_a_given_correlation_is_scanned(self, monkeypatch):
        scans = record_calls(monkeypatch, validation, "check_symmetric", np.shape)
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        kkt_solve(d, None, [1.0, 4.6])
        assert scans == []
        kkt_solve(d, _random_correlation(np.random.default_rng(3), d.n), [1.0, 4.6])
        assert scans == [(d.n, d.n)]


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


@pytest.mark.parametrize("kind", [float, complex])
def test_kkt_solve_makes_one_bordered_copy(kind):
    # The bordered matrix is built once, real, solved in place by LAPACK's dgesv (no working copy,
    # traced or not), and freed before the residual check makes its own matrix-sized temporary.
    n = 300
    design = build_design(TrendBasis.linear(), np.linspace(-4.0, 4.0, n))
    corr = _random_correlation(np.random.default_rng(8), n)
    f = np.array([1.0, 0.5], dtype=kind)
    kkt_solve(design, corr, f)  # imports scipy.linalg before tracing starts
    _, peak = traced_peak(kkt_solve, design, corr, f)
    assert peak < 1.25 * (n + 2) ** 2 * np.dtype(kind).itemsize


def test_kkt_solve_keeps_a_complex_feature_real():
    # A complex f is two real right-hand sides of the real bordered matrix, which a complex one
    # would double to (n+k)²·16 bytes; the weights still agree with the closed form.
    n = 300
    design = build_design(TrendBasis.linear(), np.linspace(-4.0, 4.0, n))
    corr = _random_correlation(np.random.default_rng(8), n)
    f = feature_vector(TrendBasis.linear(), 0.5 + 0.3j)
    kkt_solve(design, corr, f)  # imports scipy.linalg before tracing starts
    (weights, multipliers), peak = traced_peak(kkt_solve, design, corr, f)
    assert peak < 1.25 * (n + 2) ** 2 * 8
    closed = kriging_weights(design, corr, f)
    assert np.max(np.abs(weights - closed.weights)) <= 1e-9
    assert np.max(np.abs(multipliers - closed.multipliers)) <= 1e-9


@pytest.mark.parametrize("kind", [float, complex])
def test_white_kkt_solve_makes_no_identity(kind):
    # White noise is the bordered matrix's unit diagonal and Λω = ω in the residual, so the white
    # referee peaks as a dense one does: at its one bordered matrix, with no n×n identity beside it.
    n = 1000
    design = build_design(TrendBasis.linear(), np.linspace(-4.0, 4.0, n))
    f = np.array([1.0, 0.5 + 0.3j] if kind is complex else [1.0, 0.5])
    kkt_solve(design, None, f)  # imports scipy.linalg before tracing starts
    (weights, multipliers), peak = traced_peak(kkt_solve, design, None, f)
    assert peak < 1.25 * (n + 2) ** 2 * 8
    closed = kriging_weights(design, None, f)
    assert np.max(np.abs(weights - closed.weights)) <= 1e-9
    assert np.max(np.abs(multipliers - closed.multipliers)) <= 1e-9


@pytest.mark.parametrize("n", [11, 300, 1000])
@pytest.mark.parametrize("point", [0.5, 0.5 + 0.3j])
def test_white_kkt_solve_has_the_bits_of_an_identity_correlation(n, point):
    # The bordered matrix is the same either way, so the solve, and every bit of its result, is too.
    design = build_design(TrendBasis.linear(), np.linspace(-4.0, 4.0, n))
    f = feature_vector(TrendBasis.linear(), point)
    white, identity = kkt_solve(design, None, f), kkt_solve(design, np.eye(n), f)
    for got, want in zip(white, identity):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_kkt_residual_keeps_the_correlation_real(monkeypatch):
    # A complex ω meets the real Λ as Λ·Re ω and Λ·Im ω; Λ @ ω would cast Λ to an n×n
    # complex temporary.  Tracing starts afresh when the bordered solve returns, so the
    # peak counts only what the residual check allocates.
    n = 300
    design = build_design(TrendBasis.linear(), np.linspace(-4.0, 4.0, n))
    corr = _random_correlation(np.random.default_rng(8), n)
    solve = validation._solve_bordered

    def solve_then_clear_traces(a, b):
        x = solve(a, b)
        tracemalloc.clear_traces()  # forgets every traced block and resets the peak
        return x

    monkeypatch.setattr(validation, "_solve_bordered", solve_then_clear_traces)
    _, peak = traced_peak(lambda: kkt_solve(design, corr, feature_vector(TrendBasis.linear(), 0.5 + 0.3j)))
    assert peak < n * n * 8


def _block_draw(cfg, block):
    """The whole (BLOCK, n) noise matrix of ``block``, as the stream contract defines it."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(block))
    if cfg.noise_kind == "gaussian":
        return cfg.sigma * rng.standard_normal((BLOCK, cfg.n))
    half_width = cfg.sigma * math.sqrt(3.0)
    return rng.uniform(-half_width, half_width, (BLOCK, cfg.n))


# SHA-256 of the bytes of _block_noise (covariates 1..11, sigma 0.37, seed 20261019), taken
# before the driver kept its errors in real columns: the draws are part of the stream contract.
_NOISE_DIGESTS = {
    ("gaussian", 0, BLOCK): "f3f567e50928a9ca577d3432d454a199bf0a88989fef787fa470ae0f343239cd",
    ("gaussian", 3, 100): "ac25dfc42884da1ddaa3d87b9103e18b8b2b11238c967f76dcf8856b850bba4f",
    ("uniform", 0, BLOCK): "adcd27ec3032e88b4a7f1c8fb58e9423eae5664ba9e3ec4229cebfb010f46345",
    ("uniform", 3, 100): "6073f620ed0b53081d1179d5a44f3a41a5efaab76f1423ecde298bb9037db003",
}


@pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
def test_block_noise_bytes_are_pinned(noise_kind):
    cfg = SimulationConfig(
        covariates=tuple(float(i) for i in range(1, 12)), beta=(1.0, 0.5), sigma=0.37,
        replicates=1, seed=20261019, noise_kind=noise_kind,
    )
    for block, rows in ((0, BLOCK), (3, 100)):
        noise = validation._block_noise(cfg, block, rows)
        assert noise.shape == (rows, cfg.n) and noise.dtype == np.float64
        digest = hashlib.sha256(np.ascontiguousarray(noise).tobytes()).hexdigest()
        assert digest == _NOISE_DIGESTS[noise_kind, block, rows]


@pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**128 - 1])
def test_block_noise_is_the_jumped_philox_stream(seed, noise_kind):
    # _block_noise builds each block's Philox state from its counter; the contract defines it by
    # jumps, bit for bit.
    cfg = SimulationConfig(
        covariates=(1.0, 2.0, 3.0), beta=(1.0,), sigma=0.37, replicates=1, seed=seed,
        noise_kind=noise_kind,
    )
    for block in (0, 1, 24, 2**20):
        np.testing.assert_array_equal(validation._block_noise(cfg, block, 5), _block_draw(cfg, block)[:5])


def test_a_thread_builds_one_generator_for_all_its_blocks(monkeypatch):
    # Building a Philox draws an OS-entropy seed; a thread builds one and sets its state per block.
    built = record_calls(monkeypatch, np.random, "Philox", lambda *a, **kw: threading.current_thread())
    _fill_with(monkeypatch, 1)
    cfg = _acceptance_config(8 * BLOCK, 11, "uniform")
    point = zero_variance_points(cfg.covariates).plus
    reports = []
    thread = threading.Thread(target=lambda: reports.extend(monte_carlo_mse(cfg, point) for _ in range(2)))
    thread.start()
    thread.join()
    assert built == [thread]
    monkeypatch.undo()
    assert reports == [monte_carlo_mse(cfg, point)] * 2


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


def _assert_matches_loop(cfg, point, obs):
    """``monte_carlo_mse`` equals ``predict`` on the replicate observations ``obs``, one by one."""
    report = monte_carlo_mse(cfg, point)

    f = feature_vector(cfg.basis, point)
    solution = kriging_weights(build_design(cfg.basis, cfg.covariates), None, f)
    truth = complex(f @ np.asarray(cfg.beta))
    errors = np.array([predict(solution, v) - truth for v in obs])
    re, im = errors.real, errors.imag
    re_c, im_c = re - np.mean(re), im - np.mean(im)

    # Set from float64 eps, not fitted: each error is a length-n dot
    # product summed in another order, off by at most 2(n+2)·eps times
    # sum |w_i|(|trend_i| + |noise_i|).  The report's reductions over the R
    # errors (pairwise means, BLAS dot products summed in blocks) add about
    # (√R + log2 R)·eps·emax² on top, well inside this margin up to a few blocks.
    trend = build_design(cfg.basis, cfg.covariates).F @ np.asarray(cfg.beta)
    scale = np.sum(np.abs(solution.weights)) * np.max(np.abs(trend) + np.abs(obs - trend))
    emax = float(np.max(np.abs(errors)))
    tol = 32 * (cfg.n + 2) * np.finfo(float).eps * scale * (1.0 + 2.0 * emax)

    assert report.replicates_used == cfg.replicates == len(obs)
    assert abs(report.mean_error_re - np.mean(re)) <= tol
    assert abs(report.mean_error_im - np.mean(im)) <= tol
    assert abs(report.var_re - np.mean(re_c * re_c)) <= tol
    assert abs(report.var_im - np.mean(im_c * im_c)) <= tol
    assert abs(report.cov_re_im - np.mean(re_c * im_c)) <= tol
    assert abs(report.bilinear_mse - np.mean(errors * errors)) <= tol


# repr of monte_carlo_mse away from the zero-variance point (covariates 1..11, beta (1e3, -2.5),
# sigma 0.3, 3·BLOCK + 5 replicates, seed 20261019), taken when each block's offset and the
# centring were broadcast against a pair rather than applied column by column.
_OFF_ROOT_REPRS = {
    (4.6, "gaussian"): (
        "MonteCarloReport(mean_error_re=2.5100314859848125e-06, mean_error_im=0.0, "
        "var_re=0.009720028736122061, var_im=0.0, cov_re_im=0.0, "
        "bilinear_mse=(0.00972002874242232+0j), replicates_used=12293)"
    ),
    (4.6, "uniform"): (
        "MonteCarloReport(mean_error_re=-9.476275308282021e-05, mean_error_im=0.0, "
        "var_re=0.009899615975131707, var_im=0.0, cov_re_im=0.0, "
        "bilinear_mse=(0.009899624955111081+0j), replicates_used=12293)"
    ),
    (6 + 1j, "gaussian"): (
        "MonteCarloReport(mean_error_re=-0.00012855094293455358, mean_error_im=-9.361498201298281e-05, "
        "var_re=0.008228563467508231, var_im=0.0008188502115967238, cov_re_im=4.0528980755622645e-05, "
        "bilinear_mse=(0.0074097210174915796+8.108203009966647e-05j), replicates_used=12293)"
    ),
    (6 + 1j, "uniform"): (
        "MonteCarloReport(mean_error_re=4.676411863502665e-06, mean_error_im=7.10279746776327e-05, "
        "var_re=0.008235694538413031, var_im=0.0008293116416417082, cov_re_im=-1.3739506821762047e-05, "
        "bilinear_mse=(0.00740637787366696-2.7478349331397255e-05j), replicates_used=12293)"
    ),
}


class TestMonteCarlo:
    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_fraction_sigma_draws_as_its_float(self, noise_kind):
        # σ is read as a double: a Fraction draws the bits of 0.5.  Scaling the Gaussian noise in
        # place by the Fraction itself raised numpy's UFuncTypeError.
        base = dict(covariates=EXAMPLE_X, beta=(1.0, 0.5), replicates=100, seed=3, noise_kind=noise_kind)
        exact, double = SimulationConfig(sigma=Fraction(1, 2), **base), SimulationConfig(sigma=0.5, **base)
        point = zero_variance_points(EXAMPLE_X).plus
        assert monte_carlo_mse(exact, point) == monte_carlo_mse(double, point)
        assert simulate_process(exact, 7).observations.tobytes() == simulate_process(double, 7).observations.tobytes()

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_batched_matches_per_replicate_loop(self, noise_kind):
        # Crosses a block boundary; four covariates keep the O(BLOCK^2)
        # partial-block draws of the reference loop cheap.
        cfg = SimulationConfig(
            covariates=(1.0, 2.0, 3.0, 4.0), beta=(1.0, 0.5), sigma=1.0,
            replicates=BLOCK + 7, seed=20260810, noise_kind=noise_kind,
        )
        obs = np.array([simulate_process(cfg, r).observations for r in range(cfg.replicates)])
        _assert_matches_loop(cfg, zero_variance_points(cfg.covariates).plus, obs)

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("replicates", [100, 2 * BLOCK + 5], ids=["part-block", "three-blocks"])
    def test_matches_loop_over_block_rows(self, replicates, noise_kind):
        # Below one block, and two whole blocks plus a part; the observations are the rows
        # of each block's whole draw (test_replicate_is_row_of_its_block ties them to
        # simulate_process), so the reference stays O(R).
        cfg = SimulationConfig(
            covariates=(1.0, 2.0, 3.0, 4.0), beta=(1.0, 0.5), sigma=0.37,
            replicates=replicates, seed=20261019, noise_kind=noise_kind,
        )
        trend = build_design(cfg.basis, cfg.covariates).F @ np.asarray(cfg.beta)
        blocks = [_block_draw(cfg, b) for b in range(-(-replicates // BLOCK))]
        obs = trend + np.concatenate(blocks)[:replicates]
        _assert_matches_loop(cfg, zero_variance_points(cfg.covariates).plus, obs)

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

    @pytest.mark.blas_bits
    @pytest.mark.parametrize("point,noise_kind", list(_OFF_ROOT_REPRS))
    def test_report_away_from_the_root_is_pinned(self, point, noise_kind):
        # Off the zero-variance point, with a large intercept, each block's offset w·Fβ − f·β
        # is roundoff but not zero, and the means are not zero either; four blocks, the last
        # a part block.  A swapped offset or mean column moves the report.
        cfg = SimulationConfig(
            covariates=tuple(float(i) for i in range(1, 12)), beta=(1e3, -2.5), sigma=0.3,
            replicates=3 * BLOCK + 5, seed=20261019, noise_kind=noise_kind,
        )
        assert repr(monte_carlo_mse(cfg, point)) == _OFF_ROOT_REPRS[point, noise_kind]

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_overflowing_draws_give_a_non_finite_report(self, noise_kind):
        # 2σ√3 overflows at this σ; Generator.uniform would raise OverflowError on it.
        cfg = SimulationConfig(
            covariates=tuple(float(i) for i in range(1, 12)), beta=(1.0, 0.5), sigma=6e307,
            replicates=100, seed=7, noise_kind=noise_kind,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert any("overflow" in str(w.message) for w in caught if w.category is RuntimeWarning)
        assert report.replicates_used == 100
        assert not any(map(math.isfinite, (report.var_re, report.var_im, report.cov_re_im)))


# repr of the acceptance run (covariates 1..11, beta (1, 0.5), sigma 1, 10^5 replicates, at the
# plus zero-variance point), taken when the blocks were filled one after another.
_ACCEPTANCE_REPRS = {
    (20260810, "gaussian"): (
        "MonteCarloReport(mean_error_re=-0.0005688738443742356, mean_error_im=0.000494407023754544, "
        "var_re=0.09032552973172762, var_im=0.09130031565219592, cov_re_im=0.00031320581011343206, "
        "bilinear_mse=(-0.0009747067413228006+0.0006258491097782872j), replicates_used=100000)"
    ),
    (20260810, "uniform"): (
        "MonteCarloReport(mean_error_re=0.0014267731463959265, mean_error_im=0.0006882854902707209, "
        "var_re=0.0903061064078589, var_im=0.0914917729294722, cov_re_im=-9.447770451374253e-05, "
        "bilinear_mse=(-0.001184104576918199-0.00018699135451834045j), replicates_used=100000)"
    ),
    (7, "gaussian"): (
        "MonteCarloReport(mean_error_re=-0.0011514480526178626, mean_error_im=0.0005249356080808726, "
        "var_re=0.0904385285596573, var_im=0.09143450388309664, cov_re_im=-0.00038796070983424533, "
        "bilinear_mse=(-0.0009949250482141764-0.0007771302918358396j), replicates_used=100000)"
    ),
    (7, "uniform"): (
        "MonteCarloReport(mean_error_re=0.0001764110266623949, mean_error_im=0.0005314256761041, "
        "var_re=0.09075187825166325, var_im=0.09105390255973507, cov_re_im=0.0001743146694344907, "
        "bilinear_mse=(-0.0003022756004707333+0.0003488168375672138j), replicates_used=100000)"
    ),
}


def _acceptance_config(replicates, seed, noise_kind):
    return SimulationConfig(
        covariates=tuple(float(i) for i in range(1, 12)), beta=(1.0, 0.5), sigma=1.0,
        replicates=replicates, seed=seed, noise_kind=noise_kind,
    )


def _fill_with(monkeypatch, workers):
    """Fill every run's blocks on ``workers`` threads, whatever the CPU and block counts."""
    monkeypatch.setattr(validation, "_fill_workers", lambda blocks: workers)


class TestConcurrentFill:
    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize(
        "replicates", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5], ids=["one", "block", "block+1", "four-blocks"]
    )
    def test_report_does_not_depend_on_worker_count(self, monkeypatch, replicates, noise_kind):
        cfg = _acceptance_config(replicates, 20261019, noise_kind)
        point = zero_variance_points(cfg.covariates).plus
        reports = []
        for workers in (1, 2, 3):
            _fill_with(monkeypatch, workers)
            reports.append(monte_carlo_mse(cfg, point))
        assert reports[0] == reports[1] == reports[2]

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Each thread writes its own rows of one shared array; a lost or misplaced write changes
        # the report.
        cfg = _acceptance_config(16 * BLOCK + 3, 31, "uniform")
        point = zero_variance_points(cfg.covariates).plus
        _fill_with(monkeypatch, 1)
        serial = monte_carlo_mse(cfg, point)
        _fill_with(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            reports = [monte_carlo_mse(cfg, point) for _ in range(5)]
            elapsed = time.perf_counter() - started
        finally:
            sys.setswitchinterval(interval)
        assert all(report == serial for report in reports)
        assert elapsed < 30.0

    @pytest.mark.blas_bits
    @pytest.mark.parametrize("seed,noise_kind", list(_ACCEPTANCE_REPRS))
    def test_acceptance_report_is_pinned(self, seed, noise_kind):
        cfg = _acceptance_config(100_000, seed, noise_kind)
        report = monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert repr(report) == _ACCEPTANCE_REPRS[seed, noise_kind]

    def test_worker_count_is_bounded_by_blocks_and_cpus(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        assert validation._fill_workers(1) == 1
        assert validation._fill_workers(10**6) == cpus
        # Without sched_getaffinity the CPU count stands in, and an unknown one means one thread.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [validation._fill_workers(b) for b in (1, 2, 5)] == [1, 2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert validation._fill_workers(5) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_block_raises_its_exception(self, monkeypatch, workers):
        failure = RuntimeError("block 2 failed")
        block_noise = validation._block_noise

        def noise(config, block, rows):
            if block == 2:
                raise failure
            return block_noise(config, block, rows)

        monkeypatch.setattr(validation, "_block_noise", noise)
        _fill_with(monkeypatch, workers)
        cfg = _acceptance_config(3 * BLOCK + 5, 11, "gaussian")
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert raised.value is failure
        assert threading.active_count() == before

    def test_one_worker_draws_no_block_after_the_failing_one(self, monkeypatch):
        failure = RuntimeError("block 2 failed")
        block_noise = validation._block_noise
        drawn = []

        def noise(config, block, rows):
            drawn.append(block)
            if block == 2:
                raise failure
            return block_noise(config, block, rows)

        monkeypatch.setattr(validation, "_block_noise", noise)
        _fill_with(monkeypatch, 1)
        cfg = _acceptance_config(8 * BLOCK, 11, "gaussian")
        with pytest.raises(RuntimeError) as raised:
            monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert raised.value is failure
        assert drawn == [0, 1, 2]

    @pytest.mark.parametrize("failing_side", ["caller", "started"])
    def test_two_workers_take_no_block_after_the_failure_is_recorded(self, monkeypatch, failing_side):
        # From block 2 on, the block the failing side draws fails.  A block the other thread takes
        # meanwhile is held until the failure is recorded: a started thread has then ended, the
        # calling thread has gone on to join.  After that no thread may take another block.
        failure = RuntimeError("block failed")
        block_noise = validation._block_noise
        caller = threading.current_thread()
        started = self._thread_starts(monkeypatch)
        drawn, held_in_time = [], []
        joining = threading.Event()
        join = threading.Thread.join

        def join_signalled(thread, timeout=None):
            joining.set()
            return join(thread, timeout)

        def noise(config, block, rows):
            drawn.append(block)
            if block >= 2:
                if (threading.current_thread() is caller) == (failing_side == "caller"):
                    raise failure
                if failing_side == "caller":
                    held_in_time.append(joining.wait(10))
                else:
                    join(started[0], 10)
                    held_in_time.append(not started[0].is_alive())
            return block_noise(config, block, rows)

        monkeypatch.setattr(validation, "_block_noise", noise)
        monkeypatch.setattr(threading.Thread, "join", join_signalled)
        _fill_with(monkeypatch, 2)
        cfg = _acceptance_config(8 * BLOCK, 11, "uniform")
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert raised.value is failure
        assert all(held_in_time)
        # A prefix of the blocks: 0 and 1, the failing one and at most one held.
        assert sorted(drawn) == list(range(len(drawn))) and len(drawn) <= 4
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_calling_thread_fills_next_to_workers_minus_one_threads(self, monkeypatch, workers):
        started = self._thread_starts(monkeypatch)
        block_noise = validation._block_noise
        drawn_on = {}

        def noise(config, block, rows):
            drawn_on[block] = threading.current_thread()
            return block_noise(config, block, rows)

        monkeypatch.setattr(validation, "_block_noise", noise)
        _fill_with(monkeypatch, workers)
        cfg = _acceptance_config(3 * BLOCK + 5, 11, "gaussian")
        monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert len(started) == workers - 1
        assert sorted(drawn_on) == [0, 1, 2, 3]
        assert set(drawn_on.values()) <= {threading.current_thread(), *started}

    def test_one_worker_fills_many_blocks_without_a_thread(self, monkeypatch):
        started = self._thread_starts(monkeypatch)
        _fill_with(monkeypatch, 1)
        cfg = _acceptance_config(3 * BLOCK + 5, 11, "uniform")
        monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert started == []

    def _thread_starts(self, monkeypatch):
        return record_calls(monkeypatch, threading.Thread, "start", lambda thread: thread)

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_no_thread_outlives_a_multi_block_call(self, monkeypatch, noise_kind):
        started = self._thread_starts(monkeypatch)
        _fill_with(monkeypatch, 2)
        cfg = _acceptance_config(3 * BLOCK + 5, 11, noise_kind)
        before = threading.active_count()
        monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert threading.active_count() == before
        assert 1 <= len(started) <= 2
        assert not any(thread.is_alive() for thread in started)

    def test_threads_started_are_bounded_by_blocks_and_cpus(self, monkeypatch):
        started = self._thread_starts(monkeypatch)
        cfg = _acceptance_config(3 * BLOCK + 5, 11, "uniform")
        monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        workers = validation._fill_workers(4)
        assert len(started) <= (workers if workers > 1 else 0)

    @pytest.mark.parametrize("replicates", [1, 1000, BLOCK])
    def test_a_one_block_call_starts_no_thread(self, monkeypatch, replicates):
        started = self._thread_starts(monkeypatch)
        cfg = _acceptance_config(replicates, 11, "gaussian")
        monte_carlo_mse(cfg, zero_variance_points(cfg.covariates).plus)
        assert started == []
