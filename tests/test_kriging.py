import copy
import dataclasses
import hashlib
import math
import pickle
import threading
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ckrig import (
    DegenerateDesign,
    DesignMatrix,
    EmptySample,
    GramConditionWarning,
    LengthMismatch,
    Sample,
    SimulationConfig,
    TrendBasis,
    UnsupportedComplexBasis,
    build_design,
    complex_variance,
    constant_mean_variance,
    feature_vector,
    gls_beta,
    index_moments,
    kkt_solve,
    kriging_weights,
    monte_carlo_mse,
    predict,
    prediction_error_variance,
    solve_spd,
    trend_variance,
    zero_variance_points,
)
from ckrig import kriging, numerics
from ckrig.kriging import _check_correlation
from conftest import (
    EXAMPLE_SIGMA_N,
    EXAMPLE_X,
    EXAMPLE_Y,
    _basis_for,
    _random_correlation,
    _ulps,
    bad_correlation,
    exact_white_solution,
    record_calls,
    traced_peak,
    traced_retained,
)


@st.composite
def kriging_configs(draw, max_n=50):
    """Random full-rank design + optional random correlation + feature vector."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    use_corr = draw(st.booleans())
    complex_feature = draw(st.booleans())

    rng = np.random.default_rng(seed)
    covariates = np.linspace(-5.0, 5.0, n) + rng.uniform(-0.02, 0.02, n)
    design = build_design(_basis_for(k), covariates)
    corr = _random_correlation(rng, n) if use_corr else None
    f = rng.uniform(-3.0, 3.0, k)
    if complex_feature:
        f = f + 1j * rng.uniform(-3.0, 3.0, k)
    obs = rng.uniform(-10.0, 10.0, n)
    return design, corr, f, obs


class TestSampleType:
    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            Sample(covariates=[], observations=[])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            Sample(covariates=[1.0, 2.0], observations=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Sample(covariates=[1.0, np.inf], observations=[1.0, 2.0])

    def test_arrays_read_only(self):
        s = Sample(covariates=[1.0, 2.0], observations=[3.0, 4.0])
        with pytest.raises(ValueError):
            s.covariates[0] = 0.0

    def test_caller_arrays_stay_writeable(self):
        x, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        s = Sample(covariates=x, observations=v)
        x[0] = v[0] = np.nan
        assert s.covariates.tolist() == [1.0, 2.0]
        assert s.observations.tolist() == [3.0, 4.0]


class TestBuildDesign:
    def test_linear_small(self):
        d = build_design(TrendBasis.linear(), [1.0, 2.0, 3.0])
        assert_allclose(d.F, [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], rtol=0, atol=0)

    def test_constant_example(self):
        d = build_design(TrendBasis.constant(), EXAMPLE_X)
        assert d.F.shape == (11, 1)
        assert_allclose(d.F, np.ones((11, 1)), rtol=0, atol=0)

    def test_linear_example_second_column(self):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        assert d.F.shape == (11, 2)
        assert_allclose(d.F[:, 1], EXAMPLE_X, rtol=0, atol=0)

    def test_columns_basis(self):
        d = build_design(TrendBasis.columns(lambda t: 1.0, lambda t: t * t), [1.0, 2.0])
        assert_allclose(d.F, [[1.0, 1.0], [1.0, 4.0]])

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            build_design(TrendBasis.linear(), [])

    def test_non_finite_columns_basis_values_rejected(self):
        # log(t - 1) is -inf at t = 1: the design, not the observations, is at fault.
        basis = TrendBasis.columns(lambda t: 1.0, lambda t: np.log(t - 1.0))
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="basis values must be finite"):
            build_design(basis, [1.0, 2.0, 3.0, 4.0])


class TestTrendBasis:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            TrendBasis("quadratic")

    def test_columns_without_functions_rejected(self):
        with pytest.raises(ValueError, match="at least one function"):
            TrendBasis("columns")


class TestDesignMatrixOwnership:
    def test_caller_array_copied_and_frozen(self):
        F = np.column_stack([np.ones(11), EXAMPLE_X])
        d = DesignMatrix(F=F)
        before = kriging_weights(d, None, [1.0, 4.6 + 2.7j], obs=EXAMPLE_Y)
        F[:] = np.nan
        assert F.flags.writeable
        assert not d.F.flags.writeable
        assert_allclose(d.F[:, 1], EXAMPLE_X, rtol=0, atol=0)
        after = kriging_weights(d, None, [1.0, 4.6 + 2.7j], obs=EXAMPLE_Y)
        for name in ("weights", "multipliers", "beta_hat"):
            assert _same_bits(getattr(before, name), getattr(after, name))
        assert before.variance_factor == after.variance_factor
        assert _same_bits(gls_beta(d, None, EXAMPLE_Y), before.beta_hat)

    def test_integer_design_stored_as_float(self):
        d = DesignMatrix(F=[[1, 1], [1, 2], [1, 3]])
        assert d.F.dtype == np.float64
        assert (d.n, d.k) == (3, 2)

    @pytest.mark.parametrize(
        "F, message",
        [
            (np.ones((3, 1), dtype=complex), "must be real"),
            ([1.0, 2.0], "n-by-k"),
            (np.ones((0, 2)), "n-by-k"),
            ([[1.0, np.nan], [1.0, 2.0], [1.0, 3.0]], "must be finite"),
        ],
        ids=["complex", "one-dimensional", "empty", "nan"],
    )
    def test_malformed_design_rejected(self, F, message):
        # A 1-D F raised IndexError on its first query, a NaN one DegenerateDesign.
        with pytest.raises(ValueError, match=message) as err:
            DesignMatrix(F=F)
        assert type(err.value) is ValueError

    def test_build_design_does_not_copy(self, monkeypatch):
        def copied(self):
            pytest.fail("build_design copied its fresh design matrix")

        monkeypatch.setattr(DesignMatrix, "__post_init__", copied)
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        assert not d.F.flags.writeable

    def test_cached_gram_is_symmetrized_f_t_f_and_read_only(self):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        kriging_weights(d, None, [1.0, 4.6])
        F, (lower, recip), _ = d._white_system
        raw = d.F.T @ d.F
        want_lower, want_recip = numerics._cholesky(0.5 * (raw + raw.T))
        assert _same_bits(sum(lower, []), sum(want_lower, [])) and _same_bits(recip, want_recip)
        assert F is d.F
        with pytest.raises(ValueError):
            F[0, 0] = 0.0


class TestFeatureVector:
    def test_linear_real(self):
        f = feature_vector(TrendBasis.linear(), 5.0)
        assert not np.iscomplexobj(f)
        assert_allclose(f, [1.0, 5.0], rtol=0, atol=0)

    def test_linear_complex_zero_variance_point(self):
        point = 4.6 + EXAMPLE_SIGMA_N * 1j
        f = feature_vector(TrendBasis.linear(), point)
        assert np.iscomplexobj(f)
        assert f[0] == 1.0
        assert f[1] == point

    def test_constant_ignores_point(self):
        assert_allclose(feature_vector(TrendBasis.constant(), 3.0 + 2.0j), [1.0])

    def test_columns_real_point(self):
        f = feature_vector(TrendBasis.columns(lambda t: t, lambda t: t**3), 2.0)
        assert_allclose(f, [2.0, 8.0])

    def test_columns_complex_rejected(self):
        with pytest.raises(UnsupportedComplexBasis):
            feature_vector(TrendBasis.columns(lambda t: t), 1.0 + 1.0j)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_columns_value_rejected(self, value):
        # The rule build_design applies to the same basis.
        with pytest.raises(ValueError, match="basis values must be finite"):
            feature_vector(TrendBasis.columns(lambda t: 1.0, lambda t: value), 1.0)

    @pytest.mark.parametrize("value", ["1_0", b"2", 1j, np.array([1.0, 2.0])], ids=["str", "bytes", "complex", "vector"])
    def test_columns_value_that_is_not_one_real_number_rejected(self, value):
        # float() would read "1_0" as 10 and b"2" as 2; a vector would widen F.
        basis = TrendBasis.columns(lambda t: 1.0, lambda t: value)
        with pytest.raises(ValueError):
            build_design(basis, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            feature_vector(basis, 2.0)

    def test_columns_of_equal_length_vectors_rejected(self):
        # Vectors of one length make a regular array one axis too deep, which only the shape check
        # catches; a lone vector among numbers already fails the cast.
        basis = TrendBasis.columns(lambda t: [1.0, t], lambda t: [t, t * t])
        with pytest.raises(ValueError, match="each basis function must return one number"):
            build_design(basis, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="each basis function must return one number"):
            feature_vector(basis, 2.0)

    def test_columns_numbers_read_as_floats(self):
        from fractions import Fraction

        basis = TrendBasis.columns(lambda t: Fraction(1, 3), lambda t: np.float32(t / 10), lambda t: int(t) ** 3)
        x = [1.0, 2.0, 3.0, 4.0]
        want = np.array([[1 / 3, float(np.float32(t / 10)), float(int(t) ** 3)] for t in x])
        assert _same_bits(build_design(basis, x).F, want)
        assert _same_bits(feature_vector(basis, 2.0), want[1])

    @pytest.mark.parametrize("point", [np.inf, complex(1.0, np.nan)])
    def test_non_finite_point_rejected(self, point):
        with pytest.raises(ValueError, match="evaluation point must be finite"):
            feature_vector(TrendBasis.linear(), point)

    @pytest.mark.parametrize("point", [[4.6], np.array([[4.6]]), [4.6, 1.0]], ids=["list", "matrix", "pair"])
    def test_point_that_is_not_one_number_rejected(self, point):
        # complex() raised TypeError on any array with ndim > 0, even of one entry.
        with pytest.raises(ValueError, match="^evaluation point must be one number$") as err:
            feature_vector(TrendBasis.linear(), point)
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match="^evaluation point must be one number$"):
            monte_carlo_mse(_config(), point)


class TestGlsBeta:
    def test_constant_example(self, example_oracle):
        d = build_design(TrendBasis.constant(), EXAMPLE_X)
        beta = gls_beta(d, None, EXAMPLE_Y)
        assert beta.shape == (1,)
        assert beta[0] == pytest.approx(example_oracle["vbar"], rel=1e-12)

    def test_noiseless_line_recovered(self):
        x = np.arange(1.0, 6.0)
        d = build_design(TrendBasis.linear(), x)
        beta = gls_beta(d, None, 2.0 + 3.0 * x)
        assert_allclose(beta, [2.0, 3.0], atol=1e-12)

    def test_linear_example(self, example_oracle):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        beta = gls_beta(d, None, EXAMPLE_Y)
        assert beta[0] == pytest.approx(example_oracle["b_hat"], rel=1e-10)
        assert beta[1] == pytest.approx(example_oracle["a_hat"], rel=1e-10)

    def test_all_equal_covariates_degenerate(self):
        d = build_design(TrendBasis.linear(), [2.0, 2.0, 2.0])
        with pytest.raises(DegenerateDesign):
            gls_beta(d, None, [1.0, 2.0, 3.0])

    def test_overflowing_gram_degenerate(self):
        # F'F overflows to inf; that must read as degenerate, not as bad input.
        d = build_design(TrendBasis.linear(), [1e160, 2e160, 3e160])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateDesign):
            gls_beta(d, None, [1.0, 2.0, 3.0])

    def test_fewer_rows_than_columns_degenerate(self):
        d = build_design(TrendBasis.linear(), [2.0])
        with pytest.raises(DegenerateDesign):
            gls_beta(d, None, [1.0])

    def test_identity_correlation_matches_none(self):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        assert_allclose(
            gls_beta(d, np.eye(11), EXAMPLE_Y),
            gls_beta(d, None, EXAMPLE_Y),
            rtol=1e-12,
        )

    def test_bad_correlation_rejected(self):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        with pytest.raises(ValueError, match="diagonal"):
            gls_beta(d, 2.0 * np.eye(11), EXAMPLE_Y)


class TestKrigingWeights:
    def test_constant_uniform_weights(self):
        d = build_design(TrendBasis.constant(), [1.0, 2.0, 3.0, 4.0])
        sol = kriging_weights(d, None, [1.0])
        assert_allclose(sol.weights, [0.25, 0.25, 0.25, 0.25], rtol=0, atol=1e-15)
        assert_allclose(sol.multipliers, [-0.25], rtol=0, atol=1e-15)
        assert sol.variance_factor == pytest.approx(0.25, rel=1e-14)

    def test_linear_example_at_covariate_mean(self):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        sol = kriging_weights(d, None, feature_vector(TrendBasis.linear(), 4.6))
        assert_allclose(sol.weights, np.full(11, 1.0 / 11.0), atol=1e-14)

    def test_degenerate_design(self):
        d = build_design(TrendBasis.linear(), [3.0, 3.0, 3.0])
        with pytest.raises(DegenerateDesign):
            kriging_weights(d, None, [1.0, 3.0])

    def test_feature_length_checked(self):
        d = build_design(TrendBasis.linear(), [1.0, 2.0, 3.0])
        with pytest.raises(LengthMismatch):
            kriging_weights(d, None, [1.0])

    @pytest.mark.parametrize("solve", [kriging_weights, kkt_solve], ids=["closed-form", "kkt"])
    @pytest.mark.parametrize("feature", [[np.nan, 2.0], [1.0, np.inf], [1.0, complex(2.0, np.nan)]])
    def test_non_finite_feature_rejected(self, solve, feature):
        d = build_design(TrendBasis.linear(), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="feature vector must be finite"):
            solve(d, None, feature)
        with pytest.raises(LengthMismatch):
            solve(d, None, [1.0])

    def test_beta_hat_attached_with_observations(self, example_oracle):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        sol = kriging_weights(d, None, [1.0, 4.6], obs=EXAMPLE_Y)
        assert sol.beta_hat is not None
        assert sol.beta_hat[1] == pytest.approx(example_oracle["a_hat"], rel=1e-10)

    def test_ill_conditioned_gram_warns(self):
        d = build_design(TrendBasis.linear(), [1000.0, 1000.1, 1000.2])
        with pytest.warns(GramConditionWarning):
            kriging_weights(d, None, [1.0, 1000.1])


class TestNonFiniteObservations:
    # Checked on the O(k) result, not by scanning the observations.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "path", ["gls_beta", "obs-real", "obs-complex", "predict-real", "predict-complex"]
    )
    def test_rejected_at_every_position(self, bad, path):
        d = build_design(TrendBasis.linear(), [0.0, 1.0, 2.0, 4.0])
        feature = [1.0, 1.5 + 2.0j] if path.endswith("complex") else [1.0, 1.5]
        for position in range(4):
            obs = [1.0, 2.0, 3.0, 5.0]
            obs[position] = bad
            with pytest.raises(ValueError, match="observations must be finite"):
                if path == "gls_beta":
                    gls_beta(d, None, obs)
                elif path.startswith("obs"):
                    kriging_weights(d, None, feature, obs=obs)
                else:
                    predict(kriging_weights(d, None, feature), obs)

    def test_overflowing_weighted_sum_rejected(self):
        d = build_design(TrendBasis.constant(), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="must not overflow"):
            gls_beta(d, None, [1e308, 1e308, 1e308])


class TestPredict:
    def test_constant_is_mean(self):
        d = build_design(TrendBasis.constant(), [1.0, 5.0, 9.0])
        sol = kriging_weights(d, None, [1.0])
        assert predict(sol, [3.0, 6.0, 9.0]) == pytest.approx(6.0, rel=1e-14)

    def test_example_real_point(self, example_oracle):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        sol = kriging_weights(d, None, feature_vector(TrendBasis.linear(), 4.6))
        value = predict(sol, EXAMPLE_Y)
        assert value.real == pytest.approx(example_oracle["vbar"], rel=1e-10)
        assert value.imag == pytest.approx(0.0, abs=1e-14)

    def test_example_complex_point(self, example_oracle):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        point = complex(example_oracle["m_n"], example_oracle["sigma_n"])
        sol = kriging_weights(d, None, feature_vector(TrendBasis.linear(), point))
        value = predict(sol, EXAMPLE_Y)
        assert abs(value - example_oracle["mean_plus"]) <= 1e-10

    def test_length_checked(self):
        d = build_design(TrendBasis.constant(), [1.0, 2.0])
        sol = kriging_weights(d, None, [1.0])
        with pytest.raises(LengthMismatch):
            predict(sol, [1.0, 2.0, 3.0])


class TestVariances:
    def test_constant_trend_variance(self):
        d = build_design(TrendBasis.constant(), np.arange(1.0, 12.0))
        sol = kriging_weights(d, None, [1.0])
        assert trend_variance(sol, 1.0) == pytest.approx(1.0 / 11.0, rel=1e-14)

    def test_linear_at_covariate_mean(self):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        sol = kriging_weights(d, None, [1.0, 4.6])
        assert trend_variance(sol, 1.0) == pytest.approx(1.0 / 11.0, rel=1e-10)

    def test_vanishes_at_complex_points(self, example_oracle):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        for sign in (+1.0, -1.0):
            point = complex(example_oracle["m_n"], sign * example_oracle["sigma_n"])
            sol = kriging_weights(d, None, feature_vector(TrendBasis.linear(), point))
            assert abs(trend_variance(sol, 1.0)) <= 1e-10

    def test_sigma2_scales(self):
        d = build_design(TrendBasis.constant(), [1.0, 2.0])
        sol = kriging_weights(d, None, [1.0])
        assert trend_variance(sol, 8.0) == pytest.approx(4.0, rel=1e-14)

    def test_negative_sigma2_rejected(self):
        d = build_design(TrendBasis.constant(), [1.0, 2.0])
        sol = kriging_weights(d, None, [1.0])
        with pytest.raises(ValueError):
            trend_variance(sol, -1.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_noise_scale_rule(self, bad):
        sol = kriging_weights(build_design(TrendBasis.constant(), [1.0, 2.0]), None, [1.0])
        for call in (
            lambda: trend_variance(sol, bad),
            lambda: prediction_error_variance(sol, None, bad),
            lambda: constant_mean_variance(2, bad),
            lambda: SimulationConfig(
                covariates=(1.0,), beta=(0.0,), sigma=bad, replicates=1, seed=0
            ),
        ):
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                call()

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=repr)
    def test_bool_is_not_a_noise_scale(self, flag):
        # A Python bool is an int, so a numbers.Real; it must fail as a numpy bool does.
        sol = kriging_weights(build_design(TrendBasis.constant(), [1.0, 2.0]), None, [1.0])
        for call in (
            lambda: trend_variance(sol, flag),
            lambda: prediction_error_variance(sol, None, flag),
            lambda: constant_mean_variance(2, flag),
            lambda: SimulationConfig(
                covariates=(1.0,), beta=(0.0,), sigma=flag, replicates=1, seed=0
            ),
        ):
            with pytest.raises(ValueError, match="must be a real number"):
                call()

    def test_prediction_error_constant(self):
        d = build_design(TrendBasis.constant(), np.arange(1.0, 12.0))
        sol = kriging_weights(d, None, [1.0])
        assert prediction_error_variance(sol, None, 1.0) == pytest.approx(12.0 / 11.0, rel=1e-14)

    def test_prediction_error_at_zero_variance_point(self, example_oracle):
        d = build_design(TrendBasis.linear(), EXAMPLE_X)
        point = complex(example_oracle["m_n"], example_oracle["sigma_n"])
        sol = kriging_weights(d, None, feature_vector(TrendBasis.linear(), point))
        assert abs(prediction_error_variance(sol, None, 1.0) - 1.0) <= 1e-10

    def test_zero_sigma2(self):
        d = build_design(TrendBasis.linear(), [1.0, 2.0, 3.0])
        sol = kriging_weights(d, None, [1.0, 2.0])
        assert prediction_error_variance(sol, None, 0.0) == 0.0

    @pytest.mark.parametrize("feature", [[1.0, 0.7], [1.0, 0.7 + 2.1j]], ids=["real", "complex"])
    def test_prediction_error_dense_correlation(self, feature):
        # sigma^2 (1 + w' Lambda w) with w from the independent bordered solve.
        rng = np.random.default_rng(11)
        d = build_design(TrendBasis.linear(), np.linspace(-3.0, 3.0, 30))
        lam = _random_correlation(rng, 30)
        w, _ = kkt_solve(d, lam, feature)
        got = prediction_error_variance(kriging_weights(d, lam, feature), lam, 2.5)
        expected = 2.5 * (1.0 + np.dot(w, lam @ w))
        assert abs(got - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("order", ["C", "F"])
def test_prediction_error_keeps_the_correlation_real(order):
    # A complex ω meets the real Λ as Λ·Re ω and Λ·Im ω; Λ @ ω would cast Λ to an n×n
    # complex temporary (16 MB at n = 1000).
    n = 1000
    design = build_design(TrendBasis.linear(), np.linspace(-4.0, 4.0, n))
    lam = np.asarray(_random_correlation(np.random.default_rng(12), n), order=order)
    solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), 0.5 + 0.3j))
    got, peak = traced_peak(prediction_error_variance, solution, lam, 2.5)
    assert peak < n * n * 8
    w = solution.weights
    expected = 2.5 * (1.0 + np.dot(w, lam.astype(complex) @ w))
    assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("kind", [float, complex])
def test_correlation_product_against_exact_sums(layout, kind):
    # Each row of Λω against math.fsum of its products, within n·eps of the sum of their sizes.
    n = 300
    rng = np.random.default_rng(27)
    lam = _random_correlation(rng, n)
    lam = {"C": lam, "F": np.asfortranarray(lam), "strided": _random_correlation(rng, 2 * n)[::2, ::2]}[layout]
    w = rng.standard_normal(n)
    if kind is complex:
        w = w + 1j * rng.standard_normal(n)
    got = kriging._real_matrix_times(lam, w)
    assert got.shape == (n,) and np.iscomplexobj(got) == (kind is complex)
    eps = np.finfo(float).eps
    for part, got_part in ((w.real, got.real), (w.imag, got.imag)) if kind is complex else ((w, got),):
        for i in range(n):
            products = (lam[i] * part).tolist()
            assert abs(got_part[i] - math.fsum(products)) <= n * eps * math.fsum(map(abs, products))


def test_prediction_error_warns_of_an_overflowing_correlation_product():
    solution = kriging.KrigingSolution(weights=np.array([1e308, 1e308]), multipliers=np.zeros(2), variance_factor=0j)
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = prediction_error_variance(solution, [[1.0, 0.9], [0.9, 1.0]])
    assert got == complex(math.inf, 0.0)


@pytest.mark.parametrize("call", ["gls_beta", "kriging_weights"])
def test_dense_correlation_scanned_once(call, monkeypatch):
    calls = record_calls(monkeypatch, numerics, "check_symmetric", np.shape)
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    lam = _random_correlation(np.random.default_rng(3), 11)
    if call == "gls_beta":
        gls_beta(d, lam, EXAMPLE_Y)
    else:
        kriging_weights(d, lam, [1.0, 4.6], obs=EXAMPLE_Y)
    # One scan, of the 11x11 Λ: the Gram matrix, symmetric as formed, is factored unscanned.
    assert calls == [(11, 11)]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("call", ["gls_beta", "real", "complex"])
def test_white_gram_is_never_scanned(k, call, monkeypatch):
    scans = record_calls(monkeypatch, numerics, "check_symmetric", np.shape)
    d = build_design(_basis_for(k), EXAMPLE_X)
    if call == "gls_beta":
        gls_beta(d, None, EXAMPLE_Y)
    else:
        point = 4.6 if call == "real" else 4.6 + 2.7j
        kriging_weights(d, None, [1.0, point, point * point][:k], obs=EXAMPLE_Y)
    assert scans == []


@pytest.mark.parametrize("call", ["complex_variance", "monte_carlo_mse"])
def test_white_moments_and_monte_carlo_scan_nothing(call, monkeypatch):
    scans = record_calls(monkeypatch, numerics, "check_symmetric", np.shape)
    if call == "complex_variance":
        complex_variance(Sample(covariates=EXAMPLE_X, observations=EXAMPLE_Y))
    else:
        monte_carlo_mse(_config(), 4.6 + 2.7j)
    assert scans == []


@pytest.mark.parametrize("dense", [False, True], ids=["white", "dense"])
@pytest.mark.parametrize("k", [2, 3])
def test_overflowed_gram_fails_the_pivot_guard(k, dense):
    # Σx² overflows to inf; the unscanned Gram matrix leaves a NaN pivot, read as degenerate.  A
    # constant basis's Gram matrix is n (times Λ⁻¹'s sum) and cannot overflow.
    x = 1e155 * np.linspace(1.0, 2.0, 11)
    basis = TrendBasis.linear() if k == 2 else TrendBasis.columns(lambda t: 1.0, lambda t: t, lambda t: 1.0 / t)
    corr = _random_correlation(np.random.default_rng(3), 11) if dense else None
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateDesign) as err:
        gls_beta(build_design(basis, x), corr, EXAMPLE_Y)
    assert type(err.value.__cause__) is numerics.NotPositiveDefinite


def test_white_gram_formed_once_per_design(monkeypatch):
    calls = record_calls(monkeypatch, kriging, "_gram", lambda F, lam_inv_F: lam_inv_F is F)  # True: a white F'F
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    for point in (4.6, 1.0, 4.6 + 2.7j, 4.6 - 2.7j, 9.0):
        kriging_weights(d, None, feature_vector(TrendBasis.linear(), point), obs=EXAMPLE_Y)
        gls_beta(d, None, EXAMPLE_Y)
    assert calls == [True]
    build_design(TrendBasis.linear(), EXAMPLE_X)
    assert calls == [True]  # a design forms nothing until it is queried


@pytest.mark.parametrize("call", ["gls_beta", "kriging_weights"])
def test_dense_query_never_forms_white_gram(call, monkeypatch):
    calls = record_calls(monkeypatch, kriging, "_gram", lambda F, lam_inv_F: lam_inv_F is F)  # True: a white F'F
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    lam = _random_correlation(np.random.default_rng(3), 11)
    for _ in range(3):
        if call == "gls_beta":
            gls_beta(d, lam, EXAMPLE_Y)
        else:
            kriging_weights(d, lam, [1.0, 4.6], obs=EXAMPLE_Y)
        assert calls == [False]  # a repeat takes the kept system and forms no Gram matrix
    assert "_white_system" not in vars(d)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_white_gram_factored_once_per_design(k, monkeypatch):
    orders = record_calls(monkeypatch, kriging, "_cholesky", len)  # each Gram factor's order
    basis = _basis_for(k)
    d = build_design(basis, EXAMPLE_X)
    points = (4.6, 1.0, 4.6 + 2.7j, 4.6 - 2.7j) if k < 3 else (4.6, 1.0, 9.0)
    for _ in range(2):
        for point in points:
            f = feature_vector(basis, point)
            kriging_weights(d, None, f)
            kriging_weights(d, None, f, obs=EXAMPLE_Y)
            gls_beta(d, None, EXAMPLE_Y)
    assert orders == [k]
    kriging_weights(build_design(basis, EXAMPLE_X), None, feature_vector(basis, 4.6))
    assert orders == [k, k]  # each design keeps its own factor


@pytest.mark.parametrize("call", ["gls_beta", "kriging_weights"])
def test_dense_query_factors_its_gram_once(call, monkeypatch):
    # The Λ solve goes through kriging.solve_spd, not kriging._cholesky; only Gram factors count.
    orders = record_calls(monkeypatch, kriging, "_cholesky", len)  # each Gram factor's order
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    lam = _random_correlation(np.random.default_rng(3), 11)
    for _ in range(3):
        if call == "gls_beta":
            gls_beta(d, lam, EXAMPLE_Y)
        else:
            kriging_weights(d, lam, [1.0, 4.6 + 1.0j], obs=EXAMPLE_Y)
        assert orders == [2]  # a repeat takes the kept factor
    assert "_white_system" not in vars(d)


def _solve_spd_reference(design, corr, f, obs):
    """Weights, multipliers, variance factor and β̂ with a full ``solve_spd`` for every right-hand side."""
    F = design.F
    lam_inv_F = F if corr is None else solve_spd(corr, F)
    gram = kriging._gram(F, lam_inv_F)
    gram_inv_f = solve_spd(gram, f)
    beta = solve_spd(gram, np.dot(lam_inv_F.T, obs))
    return lam_inv_F @ gram_inv_f, -gram_inv_f, complex(f @ gram_inv_f), beta


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [11, 200, 100_000])
def test_kept_factor_matches_solve_spd_bitwise(n, k, shift):
    # The kept factor substitutes with solve_spd's own float operations, white and dense.
    rng = np.random.default_rng(n + k)
    x = np.linspace(-4.0, 4.0, n) + rng.uniform(-0.01, 0.01, n) + shift
    y = np.sin(x) + rng.normal(size=n)
    d = DesignMatrix(np.column_stack([x**p for p in range(k)]))
    correlations = [None] if n > 200 else [None, _random_correlation(rng, n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GramConditionWarning)  # the shifted bases are ill-conditioned
        for corr in correlations:
            for point in (shift + 0.5, shift + 0.5 + 1.3j):
                f = np.array([point**p for p in range(k)])
                want = _solve_spd_reference(d, corr, f, y)
                for _ in range(2):
                    got = kriging_weights(d, corr, f, obs=y)
                    assert _same_bits(got.weights, want[0]) and _same_bits(got.multipliers, want[1])
                    assert _same_bits(got.variance_factor, want[2]) and _same_bits(got.beta_hat, want[3])
                    assert _same_bits(gls_beta(d, corr, y), want[3])


@pytest.mark.parametrize("rows", [2, 3, 5])
def test_blocked_system_product_has_the_bits_of_the_plain_product(rows, monkeypatch):
    # A complex point's weights are formed in blocks of `rows` rows, the last one taking the
    # remainder; each block must run numpy's own product on its rows, so the two compare equal on
    # any BLAS kernel.  A C-ordered white F and an F-ordered Λ⁻¹F, as solve_spd returns above
    # order 64; entries and g of mixed magnitudes.
    monkeypatch.setattr(kriging, "_PRODUCT_ROWS", rows)
    rng = np.random.default_rng(rows)
    for n in range(rows - 1, 3 * rows + 2):
        for k in range(1, 6):
            A = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-6, 7, (n, k))
            g = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, k)
            for system in (A, np.asfortranarray(A)):
                for point in (g, g + 1j * rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, k)):
                    assert _same_bits(kriging._system_times(system, point), system @ point), (n, k)


@pytest.mark.parametrize("n", [11, 100_000])
def test_complex_point_query_makes_no_complex_copy_of_the_system(n):
    # A complex copy of F would take n·k·16 bytes; the real point's peak is its weights alone.
    x = np.linspace(-4.0, 4.0, n)
    y = np.sin(x)
    design = build_design(TrendBasis.linear(), x)
    for point in (0.5, 0.5 + 1.3j):
        f = feature_vector(TrendBasis.linear(), point)
        kriging_weights(design, None, f, obs=y)  # forms the design's Gram factor
        got, peak = traced_peak(kriging_weights, design, None, f, obs=y)
        assert _same_bits(got.weights, design.F @ -got.multipliers)
        if n == 100_000:
            assert peak < (n * design.k * 16 if isinstance(point, complex) else n * 8 + (1 << 16))


class TestOnDemandWeights:
    """A solution keeps k numbers and forms its n weights when they are read."""

    N = 100_000

    @pytest.fixture(scope="class")
    def white(self):
        x = np.linspace(-4.0, 4.0, self.N)
        design = build_design(TrendBasis.linear(), x)
        return design, np.sin(x)

    def test_a_grid_of_solutions_retains_no_weights(self, white):
        # Stored weights would take 8 × 0.8 MB (real points) plus 8 × 1.6 MB (complex points).
        design, y = white
        grid = np.linspace(-3.0, 3.0, 8)
        features = [feature_vector(TrendBasis.linear(), z) for z in np.concatenate([grid, grid + 1.5j]).tolist()]
        kriging_weights(design, None, features[0], obs=y)  # forms the design's Gram factor
        solutions, retained = traced_retained(lambda: [kriging_weights(design, None, f, obs=y) for f in features])
        assert len(solutions) == 16 and retained < 256 * 1024

    @pytest.mark.parametrize("point", [0.5, 0.5 + 1.3j])
    def test_weights_are_formed_once(self, white, point):
        design, y = white
        solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), point), obs=y)
        weights = solution.weights
        assert _same_bits(weights, design.F @ -solution.multipliers)
        assert solution.weights is weights and weights.flags.writeable

    @pytest.mark.parametrize("point", [0.5, 0.5 + 1.3j])
    @pytest.mark.parametrize("call", ["predict", "prediction_error_variance"])
    def test_a_reading_call_keeps_nothing(self, white, point, call):
        design, y = white
        solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), point), obs=y)
        read = (lambda: predict(solution, y)) if call == "predict" else (lambda: prediction_error_variance(solution, None, 0.7))
        read()  # warms every cache the call may have
        got, retained = traced_retained(read)
        assert retained < 4096
        w = solution.weights
        want = complex(np.dot(w, y)) if call == "predict" else complex(0.7 * (1.0 + np.dot(w, w)))
        assert _same_bits(np.array(got), np.array(want))

    @pytest.mark.parametrize("point", [0.5, 0.5 + 1.3j])
    def test_a_read_solution_predicts_without_forming_weights(self, white, point):
        # Reading ``weights`` once keeps them, so each later ``predict`` is one dot product: at a
        # real point it allocates nothing n-sized, at a complex one only its complex cast of the
        # observations, n·16 bytes.
        design, y = white
        solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), point), obs=y)
        weights = solution.weights
        got, peak = traced_peak(predict, solution, y)
        assert peak < (self.N * 16 if isinstance(point, complex) else 0) + 4096
        assert solution.weights is weights and got == complex(np.dot(weights, y))

    @pytest.mark.parametrize("noise", ["white", "dense"])
    def test_a_read_solution_keeps_no_system(self, noise):
        # Until its weights are read a solution holds the n×k system, F or the dense Λ⁻¹F; once they
        # are kept it holds n weights and lets the system go with its design or its Λ.
        n, rng = 300, np.random.default_rng(7)
        design = build_design(TrendBasis.linear(), np.linspace(-4.0, 4.0, n))
        lam = None if noise == "white" else _random_correlation(rng, n)
        f = feature_vector(TrendBasis.linear(), 0.5 + 1.3j)
        unread, read = kriging_weights(design, lam, f), kriging_weights(design, lam, f)
        weights = read.weights
        system = weakref.ref(design.F if lam is None else kriging._LAST_WHITENING[2])
        if lam is None:
            del design
        else:
            kriging_weights(design, _random_correlation(rng, n), f)  # evicts the kept Λ⁻¹F
        assert system() is not None
        del unread
        assert system() is None
        assert read.weights is weights

    def test_writing_to_the_multipliers_leaves_the_weights(self, white):
        design, y = white
        f = feature_vector(TrendBasis.linear(), 0.5 + 1.3j)
        solution = kriging_weights(design, None, f, obs=y)
        solution.multipliers[:] = 0.0
        assert _same_bits(solution.weights, kriging_weights(design, None, f).weights)

    @pytest.mark.parametrize("made", ["solved", "read", "given"])
    def test_attributes_stay_read_only(self, made):
        if made == "given":
            solution = kriging.KrigingSolution(np.ones(3), np.zeros(2), 0j)
        else:
            solution = kriging_weights(build_design(TrendBasis.linear(), EXAMPLE_X), None, [1.0, 4.6], obs=EXAMPLE_Y)
            if made == "read":
                solution.weights
        for name in ("weights", "multipliers", "variance_factor", "beta_hat"):
            with pytest.raises(AttributeError):
                setattr(solution, name, None)
            with pytest.raises(AttributeError):
                delattr(solution, name)

    def test_the_constructor_returns_the_given_weights(self):
        weights, multipliers = np.array([0.25, 0.75]), np.array([-0.5])
        positional = kriging.KrigingSolution(weights, multipliers, 0.5 + 0j, None)
        keyword = kriging.KrigingSolution(weights=weights, multipliers=multipliers, variance_factor=0.5 + 0j)
        for solution in (positional, keyword):
            assert solution.weights is weights and solution.multipliers is multipliers
            assert solution.variance_factor == 0.5 and solution.beta_hat is None
        assert predict(positional, [2.0, 4.0]) == 3.5


    @pytest.mark.parametrize("point", [0.5, 0.5 + 1.3j])
    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_a_copy_of_an_unread_solution_forms_the_same_weights(self, white, how, point):
        design, y = white
        f = feature_vector(TrendBasis.linear(), point)
        unread = kriging_weights(design, None, f, obs=y)
        copied = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda s: pickle.loads(pickle.dumps(s))}[how](unread)
        assert _same_bits(copied.weights, kriging_weights(design, None, f).weights)
        for name in ("multipliers", "variance_factor", "beta_hat"):
            assert _same_bits(getattr(copied, name), getattr(unread, name))
        assert "_pending" in vars(unread) and "weights" not in vars(unread)

    def test_replace_reads_the_weights_it_copies(self, white):
        # ``dataclasses.replace`` passes every field's value to the constructor, so it reads the
        # weights: the original keeps them, and the new solution holds the same array.
        design, y = white
        f = feature_vector(TrendBasis.linear(), 0.5 + 1.3j)
        unread = kriging_weights(design, None, f, obs=y)
        replaced = dataclasses.replace(unread, beta_hat=None)
        assert _same_bits(replaced.weights, kriging_weights(design, None, f).weights)
        assert replaced.weights is unread.weights and replaced.beta_hat is None
        assert _same_bits(replaced.multipliers, unread.multipliers)

    def test_looking_up_other_names_forms_no_weights(self, white):
        design, y = white
        solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), 0.5 + 1.3j), obs=y)
        got, retained = traced_retained(lambda: (getattr(solution, "missing", None), hasattr(solution, "__deepcopy__")))
        assert got == (None, False) and retained < 4096
        with pytest.raises(AttributeError, match="missing"):
            solution.missing
        assert "_pending" in vars(solution) and "weights" not in vars(solution)

    def test_two_racing_first_reads_keep_one_array(self, white, monkeypatch):
        # Both threads form the weights before either keeps them: the barrier holds each in
        # ``_system_times`` until the other has arrived.
        design, y = white
        solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), 0.5 + 1.3j), obs=y)
        barrier, system_times = threading.Barrier(2, timeout=30), kriging._system_times

        def form_together(A, g):
            weights = system_times(A, g)
            barrier.wait()
            return weights

        monkeypatch.setattr(kriging, "_system_times", form_together)
        read = [None, None]
        threads = [threading.Thread(target=lambda i=i: read.__setitem__(i, solution.weights)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert read[0] is read[1] is solution.weights and "_pending" not in vars(solution)
        assert _same_bits(read[0], design.F @ -solution.multipliers)

    @pytest.mark.parametrize("as_given", [list, tuple])
    @pytest.mark.parametrize("point", [0.5, 0.5 + 1.3j])
    def test_given_weights_are_read_by_the_number_rule(self, as_given, point):
        design = build_design(TrendBasis.linear(), EXAMPLE_X)
        read = kriging_weights(design, None, feature_vector(TrendBasis.linear(), point))
        given = kriging.KrigingSolution(as_given(read.weights.tolist()), read.multipliers, read.variance_factor)
        lam = _random_correlation(np.random.default_rng(3), design.n)
        for corr in (None, lam):
            want = prediction_error_variance(read, corr, 0.7)
            assert _same_bits(np.array(prediction_error_variance(given, corr, 0.7)), np.array(want))
        assert _same_bits(np.array(predict(given, EXAMPLE_Y)), np.array(predict(read, EXAMPLE_Y)))

    def test_text_weights_are_rejected(self):
        solution = kriging.KrigingSolution(["0.5", "0.5"], np.zeros(1), 0j)
        with pytest.raises(ValueError, match="must be numeric, not text"):
            predict(solution, [1.0, 2.0])
        for corr in (None, np.eye(2)):
            with pytest.raises(ValueError, match="must be numeric, not text"):
                prediction_error_variance(solution, corr)

    def test_two_solutions_compare_unequal_and_stay_unread(self):
        # Equality is identity: two solves of one query are two solutions, and comparing them forms
        # neither's weights (a field-by-field compare raised on the arrays, after forming both).
        design = build_design(TrendBasis.linear(), EXAMPLE_X)
        f = feature_vector(TrendBasis.linear(), 4.6)
        a, b = kriging_weights(design, None, f), kriging_weights(design, None, f)
        assert a != b and not a == b
        assert "_pending" in vars(a) and "_pending" in vars(b)

    def test_a_solution_equals_itself_and_is_hashable(self):
        design = build_design(TrendBasis.linear(), EXAMPLE_X)
        solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), 4.6 + 1j))
        assert solution == solution and hash(solution) == hash(solution)
        assert {solution: 1}[solution] == 1 and "_pending" in vars(solution)

    def test_repr_of_an_unread_solution_leaves_it_unread(self, white):
        design, y = white
        solution = kriging_weights(design, None, feature_vector(TrendBasis.linear(), 0.5 + 1.3j), obs=y)
        text, retained = traced_retained(repr, solution)
        assert text.startswith("KrigingSolution(multipliers=") and "weights=" not in text
        assert "_pending" in vars(solution) and "weights" not in vars(solution) and retained < 4096


def test_linear_design_is_written_in_place():
    # F is filled column by column in one array: no n-sized column of ones, no stacking pass.  It
    # must keep the values and layout of the stacked columns; no BLAS call is involved.
    n = 100_000
    x = np.linspace(-4.0, 4.0, n)
    F, peak = traced_peak(lambda: build_design(TrendBasis.linear(), x).F)
    assert peak < n * 16 + (1 << 16), peak
    assert F.flags.c_contiguous and F.dtype == np.float64 and not F.flags.writeable
    assert _same_bits(F, np.column_stack([np.ones(n), x]))


@pytest.mark.parametrize("n", [11, 200])
class TestWhitenedDesignSlot:
    """``_whitened_design`` keeps the last Λ⁻¹F by the bits of Λ and F, from the first call of one
    Λ and F on, at every order.  Each query builds a fresh design, as a dense fit does:
    ``gls_beta``, then ``kriging_weights`` at a point."""

    @staticmethod
    def _case(n):
        rng = np.random.default_rng(n)
        x = np.linspace(-4.0, 4.0, n) + rng.uniform(-0.01, 0.01, n)
        lam = _random_correlation(rng, n)
        # Exactly symmetric, so that Λ's last row is its last column.
        return x, np.tril(lam) + np.tril(lam, -1).T

    @staticmethod
    def _query(x, lam, call):
        """Call 0 is ``gls_beta``, call c > 0 ``kriging_weights`` at point c; its result as one array."""
        design = build_design(TrendBasis.linear(), x)
        y = np.sin(x)
        if call == 0:
            return gls_beta(design, lam, y)
        return kriging_weights(design, lam, feature_vector(TrendBasis.linear(), float(call))).weights

    def _slot_free(self, x, lam, call=1):
        kriging._LAST_WHITENING = None
        return self._query(x, lam, call)

    def _kept(self, x, lam):
        """Query ``x``, ``lam`` twice: the first call keeps its Λ⁻¹F, the second is a hit; the second result."""
        self._query(x, lam, 0)
        return self._query(x, lam, 1)

    @staticmethod
    def _order(n):
        """A ``record_calls`` record: the shape of a call's first argument, if it is n×n."""
        return lambda a, *rest: a.shape if a.shape == (n, n) else None

    def test_one_shot_whitening_keeps_a_copy(self, n):
        x, lam = self._case(n)
        self._query(x, lam, 0)
        kept_lam = kriging._LAST_WHITENING[0]
        assert not kept_lam.flags.writeable
        assert not np.shares_memory(kept_lam, lam)
        assert _same_bits(kept_lam, lam)

    def test_equal_copy_is_not_scanned_again(self, n, monkeypatch):
        x, lam = self._case(n)
        scans = record_calls(monkeypatch, numerics, "check_symmetric", self._order(n))
        solves = record_calls(monkeypatch, kriging, "solve_spd", self._order(n))
        first = self._query(x, lam, 1)
        second = self._query(x.copy(), lam.copy(), 1)
        assert scans == solves == [(n, n)]
        for _ in range(3):
            again = self._query(x.copy(), lam.copy(), 1)
            assert scans == solves == [(n, n)]
            assert _same_bits(again, second) and _same_bits(again, first)

    def test_in_place_edit_of_lambda_is_solved_afresh(self, n, monkeypatch):
        # The edit leaves Λ's last row as it was: only the comparison of every entry can see it.
        x, lam = self._case(n)
        first = self._kept(x, lam)
        lam[0, 1] = lam[1, 0] = 0.5 * lam[0, 1]
        scans = record_calls(monkeypatch, numerics, "check_symmetric", self._order(n))
        edited = self._query(x, lam, 1)
        assert scans == [(n, n)]
        assert not np.array_equal(edited, first)
        assert _same_bits(edited, self._slot_free(x, lam))

    def test_equal_entries_in_either_memory_order_share_the_kept_solution(self, n, monkeypatch):
        # Each order is solved once (its first call); every later query, in either order, is
        # neither scanned nor solved, and gets the bits of a fresh solve.
        x, lam = self._case(n)
        lam_f = np.asfortranarray(lam)
        for kept_as, asked_as in [(lam, lam_f), (lam_f, lam)]:
            kriging._LAST_WHITENING = None
            self._kept(x, kept_as)
            scans = record_calls(monkeypatch, numerics, "check_symmetric", self._order(n))
            solves = record_calls(monkeypatch, kriging, "solve_spd", self._order(n))
            got = self._query(x, asked_as, 1)
            assert scans == solves == []
            monkeypatch.undo()
            assert _same_bits(got, self._slot_free(x, asked_as))
            assert _same_bits(got, self._slot_free(x, kept_as))

    def test_sign_of_a_zero_edited_in_place_is_solved_afresh(self, n, monkeypatch):
        # 0.0 == -0.0, but their bits differ: the kept copy is compared bit for bit.
        x, lam = self._case(n)
        lam[0, 1] = lam[1, 0] = 0.0
        self._kept(x, lam)
        lam[0, 1] = lam[1, 0] = -0.0
        scans = record_calls(monkeypatch, numerics, "check_symmetric", self._order(n))
        edited = self._query(x, lam, 1)
        assert scans == [(n, n)]
        assert _same_bits(edited, self._slot_free(x, lam))

    def test_another_lambda_releases_the_kept_copy(self, n, monkeypatch):
        # Released before the solve, so that the old copy and the new factor are never held at once.
        x, lam = self._case(n)
        self._kept(x, lam)
        kept = weakref.ref(kriging._LAST_WHITENING[0])
        held_at_solve = record_calls(monkeypatch, kriging, "solve_spd", lambda a, b: kept() is not None)
        other = _random_correlation(np.random.default_rng(n + 1), n)
        self._query(x, other, 1)
        assert held_at_solve and not any(held_at_solve)
        assert _same_bits(kriging._LAST_WHITENING[0], other)
        assert kept() is None

    def test_covariates_changed_away_from_last_row_are_solved_afresh(self, n):
        x, lam = self._case(n)
        first = self._kept(x, lam)
        moved = x.copy()
        moved[0] -= 0.5
        fresh = self._query(moved, lam, 1)
        assert not np.array_equal(fresh, first)
        assert _same_bits(fresh, self._slot_free(moved, lam))

    def test_results_belong_to_the_caller(self, n):
        x, lam = self._case(n)
        want = self._query(x, lam, 1).copy()
        for _ in range(3):
            got = self._query(x, lam, 1)
            assert got.flags.writeable and np.array_equal(got, want)
            got[:] = 0.0
        assert not kriging._LAST_WHITENING[2].flags.writeable

    def test_failures_raise_on_every_repeat(self, n):
        x, lam = self._case(n)
        singular = lam.copy()
        singular[n - 1, :] = singular[n - 2, :]
        singular[:, n - 1] = singular[:, n - 2]
        singular[n - 1, n - 1] = 1.0
        asymmetric = lam.copy()
        asymmetric[0, n - 1] += 1e-3
        for bad, error, match in [
            (singular, numerics.NotPositiveDefinite, f"index {n - 1} "),
            (asymmetric, ValueError, "symmetric"),
        ]:
            for call in range(3):
                with pytest.raises(error, match=match):
                    self._query(x, bad, call)
        assert kriging._LAST_WHITENING is None

    def test_memory_order_is_part_of_the_key(self, n):
        # The bytes of an F-ordered Λ are those of its C-ordered transpose.  An asymmetry within
        # tolerance, away from the last row and column, makes the two differ in the lower triangle,
        # which the factorization reads; their last rows are equal, so only a comparison of every
        # entry, not of the bytes in memory, tells them apart.
        x, lam = self._case(n)
        lam_f = np.asfortranarray(lam)
        lam_f[0, 1] += 1e-13
        same_bytes = np.frombuffer(lam_f.tobytes(order="A")).reshape(n, n)
        assert not np.array_equal(lam_f, same_bytes)
        assert np.array_equal(lam_f[-1], same_bytes[-1])
        kept = self._kept(x, lam_f)
        got = self._query(x, same_bytes, 1)
        assert not np.array_equal(got, kept)
        assert _same_bits(got, self._slot_free(x, same_bytes))

    def test_strided_lambda_repeat_is_neither_scanned_nor_solved(self, n, monkeypatch):
        # Every other row and column of a larger correlation matrix: neither C- nor F-contiguous.
        x = self._case(n)[0]
        view = self._case(2 * n)[1][::2, ::2]
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        self._query(x, view, 0)
        scans = record_calls(monkeypatch, numerics, "check_symmetric", self._order(n))
        solves = record_calls(monkeypatch, kriging, "solve_spd", self._order(n))
        got = self._query(x, view, 1)
        assert scans == solves == []
        monkeypatch.undo()
        assert _same_bits(got, self._slot_free(x, np.ascontiguousarray(view)))

    def test_caller_edit_of_its_design_array_leaves_the_kept_whitening(self, n, monkeypatch):
        # The design keeps a private copy of the caller's F, so the slot may keep the design's F as is.
        x, lam = self._case(n)
        F = np.column_stack([np.ones(n), x])
        design = DesignMatrix(F)
        feature = feature_vector(TrendBasis.linear(), 1.0)
        first = kriging_weights(design, lam, feature).weights
        kept = kriging._LAST_WHITENING
        F[:] = 0.0
        scans = record_calls(monkeypatch, numerics, "check_symmetric", self._order(n))
        solves = record_calls(monkeypatch, kriging, "solve_spd", self._order(n))
        got = kriging_weights(design, lam, feature).weights
        assert scans == solves == []
        assert kriging._LAST_WHITENING is kept
        assert not np.shares_memory(kept[1], F)
        monkeypatch.undo()
        assert _same_bits(got, first) and _same_bits(got, self._slot_free(x, lam))


def _in_layout(a, layout):
    """A new writable matrix with ``a``'s entries: C- or F-ordered, every other row and column of
    a larger matrix, or walked backwards along both axes."""
    if layout in ("C", "F"):
        return np.array(a, order=layout)
    if layout == "strided":
        big = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
        big[::2, ::2] = a
        return big[::2, ::2]
    return np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1]


_LAYOUT_PAIRS = [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C"), ("C", "strided"), ("C", "reversed")]


@pytest.mark.parametrize("bound", [True, False], ids=["memcmp", "numpy"])
@pytest.mark.parametrize("kept_as, asked_as", _LAYOUT_PAIRS)
def test_same_bits_decision_table(kept_as, asked_as, bound, monkeypatch):
    # The same answers with and without the C library's memcmp.
    if not bound:
        monkeypatch.setattr(kriging, "_memcmp", None)
    a = np.random.default_rng(7).uniform(-1.0, 1.0, size=(7, 5))
    a[3, 2] = 0.0
    kept = _in_layout(a, kept_as)
    assert kriging._same_bits(kept, _in_layout(a, asked_as))
    for at in [(0, 0), (3, 2), (6, 4)]:
        edited = _in_layout(a, asked_as)
        edited[at] = np.nextafter(edited[at], np.inf)
        assert not kriging._same_bits(kept, edited)
    signed = _in_layout(a, asked_as)
    signed[3, 2] = -0.0
    assert not kriging._same_bits(kept, signed)
    # The same bytes in another shape.
    assert not kriging._same_bits(kept, kept.T)
    assert not kriging._same_bits(kept, np.ascontiguousarray(a).reshape(5, 7))
    assert not kriging._same_bits(kept, _in_layout(a, asked_as)[:, :-1])


@pytest.mark.parametrize("kept_as, asked_as", _LAYOUT_PAIRS)
def test_same_bits_takes_memcmp_for_a_lambda_in_one_memory_order(kept_as, asked_as, monkeypatch):
    # A hit in one memory order compares Λ by memcmp; a strided or mixed-order Λ by numpy, and still hits.
    n = 200
    x, lam = TestWhitenedDesignSlot._case(n)
    TestWhitenedDesignSlot._query(x, _in_layout(lam, kept_as), 0)
    assert kriging._memcmp is not None, "the C library's memcmp is not bound"
    compared = record_calls(monkeypatch, kriging, "_memcmp", lambda a, b, size: size)
    solves = record_calls(monkeypatch, kriging, "solve_spd", TestWhitenedDesignSlot._order(n))
    got = TestWhitenedDesignSlot._query(x, _in_layout(lam, asked_as), 1)
    assert solves == []
    assert compared.count(n * n * 8) == (kept_as == asked_as)
    monkeypatch.undo()
    kriging._LAST_WHITENING = None
    assert _same_bits(got, TestWhitenedDesignSlot._query(x, lam, 1))


@pytest.mark.parametrize(
    "kept_as, asked_as, bound",
    [("C", "C", True), ("F", "F", True), ("C", "F", True), ("F", "C", True), ("C", "strided", True),
     ("C", "reversed", True), ("C", "C", False)],
)
def test_same_bits_memory(kept_as, asked_as, bound, monkeypatch):
    # memcmp allocates nothing; numpy's compare holds one boolean temporary, one byte per entry.
    if not bound:
        monkeypatch.setattr(kriging, "_memcmp", None)
    n = 2000
    a = np.random.default_rng(11).uniform(-1.0, 1.0, size=(n, n))
    kept = np.array(a, order=kept_as)
    if asked_as == "strided":  # every other column of a wider matrix, at half _in_layout's memory
        wide = np.empty((n, 2 * n))
        wide[:, ::2] = a
        x = wide[:, ::2]
    else:
        x = _in_layout(a, asked_as)
    del a
    same, peak = traced_peak(kriging._same_bits, kept, x)
    assert same
    assert peak < 1 << 16 if bound and kept_as == asked_as else peak <= n * n + (1 << 16)


def test_gram_warning_on_every_white_query():
    # Shifted covariates: the equilibrated Gram condition is ~1e12.
    d = build_design(TrendBasis.linear(), np.array(EXAMPLE_X) + 1e6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            kriging_weights(d, None, [1.0, 1e6 + 4.6], obs=EXAMPLE_Y)
            gls_beta(d, None, EXAMPLE_Y)
    assert [w.category for w in caught] == [GramConditionWarning] * 6


def test_degenerate_design_raises_on_every_white_query():
    d = build_design(TrendBasis.linear(), [3.0] * 5)
    for _ in range(3):
        with pytest.raises(DegenerateDesign):
            kriging_weights(d, None, [1.0, 3.0])
        with pytest.raises(DegenerateDesign):
            gls_beta(d, None, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_gram_warning_on_every_dense_query():
    # The dense twin of the white test: the kept system re-reports its condition on every hit.
    d = build_design(TrendBasis.linear(), np.array(EXAMPLE_X) + 1e6)
    lam = _random_correlation(np.random.default_rng(3), 11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            kriging_weights(d, lam, [1.0, 1e6 + 4.6], obs=EXAMPLE_Y)
            gls_beta(d, lam, EXAMPLE_Y)
    assert [w.category for w in caught] == [GramConditionWarning] * 6


@pytest.mark.parametrize("dense", [False, True], ids=["white", "dense"])
def test_degenerate_design_raises_before_observations_are_read(dense):
    # Two observations for five covariates: the degenerate design is what both calls report,
    # and a degenerate dense system is not kept.
    d = build_design(TrendBasis.linear(), [3.0] * 5)
    corr = _random_correlation(np.random.default_rng(5), 5) if dense else None
    for _ in range(3):
        with pytest.raises(DegenerateDesign):
            gls_beta(d, corr, [1.0, 2.0])
        with pytest.raises(DegenerateDesign):
            kriging_weights(d, corr, [1.0, 3.0], obs=[1.0, 2.0])
    assert kriging._LAST_WHITENING is None


@pytest.mark.parametrize("kind", ["asymmetric", "nan", "non-unit-diagonal"])
@pytest.mark.parametrize(
    "path", ["gls_beta", "kriging_weights", "prediction_error_variance", "kkt_solve"]
)
def test_bad_correlation_is_input_error(kind, path):
    # A plain ValueError, not NotPositiveDefinite or SingularSystem: the CLI exits 2, not 3.
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    lam = bad_correlation(kind, 11)
    with pytest.raises(ValueError) as err:
        if path == "gls_beta":
            gls_beta(d, lam, EXAMPLE_Y)
        elif path == "kriging_weights":
            kriging_weights(d, lam, [1.0, 4.6])
        elif path == "prediction_error_variance":
            prediction_error_variance(kriging_weights(d, None, [1.0, 4.6]), lam)
        else:
            kkt_solve(d, lam, [1.0, 4.6])
    assert type(err.value) is ValueError


@pytest.mark.parametrize(
    "path", ["gls_beta", "kriging_weights", "prediction_error_variance", "kkt_solve"]
)
def test_wrong_shaped_correlation_rejected(path):
    d = build_design(TrendBasis.linear(), [1.0, 2.0, 3.0, 4.0, 5.0])
    lam = np.eye(4)
    with pytest.raises(ValueError, match="correlation matrix must be 5x5"):
        if path == "gls_beta":
            gls_beta(d, lam, [1.0, 2.0, 3.0, 4.0, 5.0])
        elif path == "kriging_weights":
            kriging_weights(d, lam, [1.0, 3.0])
        elif path == "prediction_error_variance":
            prediction_error_variance(kriging_weights(d, None, [1.0, 3.0]), lam)
        else:
            kkt_solve(d, lam, [1.0, 3.0])


def test_correlation_check_makes_no_matrix_sized_temporary():
    # Finiteness is left to the tiled symmetry scan, which makes no n×n temporary.
    lam = np.eye(2000)
    _, peak = traced_peak(_check_correlation, lam, 2000)
    assert peak < 1 << 20


_X4 = [1.0, 2.0, 3.0, 4.0]
_COMPLEX_VECTOR = np.array([1.0 + 5.0j, 2.0, 3.0, 4.0])
# Real part the identity, so a cast to float would pass every other check.
_COMPLEX_LAMBDA = np.eye(4) + 0.2j * np.eye(4)[::-1]


def _linear4():
    return build_design(TrendBasis.linear(), _X4)


def _config(**overrides):
    fields = {"covariates": _X4, "beta": (1.0, 0.5), "sigma": 1.0, "replicates": 10, "seed": 0}
    return SimulationConfig(**{**fields, **overrides})


_REAL_ONLY = {
    "Sample-covariates": (_COMPLEX_VECTOR, lambda c: Sample(covariates=c, observations=_X4)),
    "Sample-observations": (_COMPLEX_VECTOR, lambda c: Sample(covariates=_X4, observations=c)),
    "build_design": (_COMPLEX_VECTOR, lambda c: build_design(TrendBasis.linear(), c)),
    "index_moments": (_COMPLEX_VECTOR, index_moments),
    "SimulationConfig-covariates": (_COMPLEX_VECTOR, lambda c: _config(covariates=c)),
    "SimulationConfig-beta": (np.array([1.0 + 1.0j, 0.5]), lambda c: _config(beta=c)),
    "gls_beta-obs": (_COMPLEX_VECTOR, lambda c: gls_beta(_linear4(), None, c)),
    "kriging_weights-obs": (
        _COMPLEX_VECTOR,
        lambda c: kriging_weights(_linear4(), None, [1.0, 2.5], obs=c),
    ),
    "predict-obs": (
        _COMPLEX_VECTOR,
        lambda c: predict(kriging_weights(_linear4(), None, [1.0, 2.5]), c),
    ),
    "gls_beta-corr": (_COMPLEX_LAMBDA, lambda c: gls_beta(_linear4(), c, _X4)),
    "kriging_weights-corr": (_COMPLEX_LAMBDA, lambda c: kriging_weights(_linear4(), c, [1.0, 2.5])),
    "prediction_error_variance-corr": (
        _COMPLEX_LAMBDA,
        lambda c: prediction_error_variance(kriging_weights(_linear4(), None, [1.0, 2.5]), c),
    ),
    "kkt_solve-corr": (_COMPLEX_LAMBDA, lambda c: kkt_solve(_linear4(), c, [1.0, 2.5])),
    "solve_spd": (np.array([[2.0, 0.5j], [-0.5j, 1.0]]), lambda c: solve_spd(c, [1.0, 1.0])),
}


@pytest.mark.parametrize("container", ["ndarray", "list"])
@pytest.mark.parametrize("entry", list(_REAL_ONLY))
def test_complex_input_rejected(entry, container):
    # A cast to float would keep only the real part, so the dtype is checked first.
    value, call = _REAL_ONLY[entry]
    with pytest.raises(ValueError, match="must be real$") as err:
        call(value.tolist() if container == "list" else value)
    assert type(err.value) is ValueError


# "1_0" is 10 to Python's float() and complex() and to numpy's cast; a list with one
# str in it becomes a text array.
_TEXT, _MIXED, _TEXT_LAMBDA = ["1_0", "2", "3", "4"], ["1_0", 2.0, 3.0, 4.0], np.eye(4).astype(str)


def _solution4():
    return kriging_weights(_linear4(), None, [1.0, 2.5])


_TEXT_INPUTS = {
    "Sample-covariates": lambda: Sample(covariates=_TEXT, observations=_X4),
    "Sample-observations-mixed": lambda: Sample(covariates=_X4, observations=_MIXED),
    "DesignMatrix": lambda: DesignMatrix([["1", "2"], ["1", "3"]]),
    "build_design": lambda: build_design(TrendBasis.linear(), _TEXT),
    "index_moments": lambda: index_moments(_MIXED),
    "zero_variance_points": lambda: zero_variance_points(_TEXT),
    "SimulationConfig-covariates": lambda: _config(covariates=_TEXT),
    "SimulationConfig-beta": lambda: _config(beta=("1", 0.5)),
    "SimulationConfig-sigma": lambda: _config(sigma="1"),
    "gls_beta-obs": lambda: gls_beta(_linear4(), None, _TEXT),
    "gls_beta-corr": lambda: gls_beta(_linear4(), _TEXT_LAMBDA, _X4),
    "kriging_weights-feature": lambda: kriging_weights(_linear4(), None, ["1", "2.5"]),
    "kriging_weights-obs": lambda: kriging_weights(_linear4(), None, [1.0, 2.5], obs=_MIXED),
    "kkt_solve-feature": lambda: kkt_solve(_linear4(), None, [1.0, "2.5"]),
    "predict-obs": lambda: predict(_solution4(), _TEXT),
    "feature_vector": lambda: feature_vector(TrendBasis.linear(), "1_0"),
    "feature_vector-bytes": lambda: feature_vector(TrendBasis.linear(), b"1"),
    "trend_variance-text": lambda: trend_variance(_solution4(), "1"),
    "trend_variance-complex": lambda: trend_variance(_solution4(), 1j),
    "prediction_error_variance": lambda: prediction_error_variance(_solution4(), None, "1"),
    "constant_mean_variance": lambda: constant_mean_variance(4, "1"),
    "solve_spd-matrix": lambda: solve_spd(np.eye(2).astype(str), [1.0, 1.0]),
    "solve_spd-rhs": lambda: solve_spd(np.eye(2), ["1_0", "1"]),
    "solve_spd-rhs-bytes": lambda: solve_spd(np.eye(2), np.array([b"1", b"1"])),
}


@pytest.mark.parametrize("entry", list(_TEXT_INPUTS))
def test_text_input_rejected(entry):
    # A ValueError, not a parsed number or a TypeError: the CLI is the one place text is read.
    with pytest.raises(ValueError):
        _TEXT_INPUTS[entry]()


_OBJECT_TEXT_INPUTS = {
    "Sample-str": lambda: Sample(np.array(["1_0", 2, 3], dtype=object), [1.0, 2.0, 3.0]),
    "Sample-bytes": lambda: Sample([1.0, 2.0, 3.0], np.array([1.0, b"2", 3.0], dtype=object)),
    "solve_spd-rhs": lambda: solve_spd(np.eye(2), np.array(["1_0", 1], dtype=object)),
    "solve_spd-matrix": lambda: solve_spd(np.array([[1.0, "0"], ["0", 1.0]], dtype=object), [1.0, 1.0]),
    "feature_vector": lambda: feature_vector(TrendBasis.linear(), np.array("1_0", dtype=object)),
}


@pytest.mark.parametrize("entry", list(_OBJECT_TEXT_INPUTS))
def test_text_in_object_array_rejected(entry):
    # A cast of an object array calls float() on each element, which parses "1_0" as 10.
    with pytest.raises(ValueError, match="not text"):
        _OBJECT_TEXT_INPUTS[entry]()


def test_fraction_array_accepted():
    from fractions import Fraction

    half = np.array([Fraction(1, 2), 2, 3], dtype=object)
    assert Sample(half, [1.0, 2.0, 3.0]).covariates.tolist() == [0.5, 2.0, 3.0]
    assert solve_spd(np.eye(3), half).tolist() == [0.5, 2.0, 3.0]


# --- module invariants -------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(cfg=kriging_configs())
def test_unbiasedness_constraint(cfg):
    design, corr, f, _ = cfg
    sol = kriging_weights(design, corr, f)
    assert np.max(np.abs(sol.weights @ design.F - f)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(cfg=kriging_configs())
def test_variance_chain_equality(cfg):
    design, corr, f, _ = cfg
    sol = kriging_weights(design, corr, f)
    w = sol.weights
    lam_w = w if corr is None else corr @ w
    quad_weights = np.dot(w, lam_w)
    quad_multipliers = -np.dot(f, sol.multipliers)
    quad_gram = sol.variance_factor
    scale = max(abs(quad_weights), abs(quad_multipliers), abs(quad_gram))
    assume(scale > 1e-8)
    assert abs(quad_weights - quad_multipliers) <= 1e-10 * scale
    assert abs(quad_weights - quad_gram) <= 1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(cfg=kriging_configs())
def test_predictor_equivalence(cfg):
    design, corr, f, obs = cfg
    sol = kriging_weights(design, corr, f, obs=obs)
    via_weights = predict(sol, obs)
    via_beta = complex(np.dot(f, sol.beta_hat))
    scale = max(abs(via_weights), abs(via_beta))
    assume(scale > 1e-6 * np.max(np.abs(obs)))
    assert abs(via_weights - via_beta) <= 1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(cfg=kriging_configs())
def test_conjugating_feature_conjugates_solution(cfg):
    design, corr, f, obs = cfg
    sol = kriging_weights(design, corr, f)
    sol_conj = kriging_weights(design, corr, np.conj(f))
    scale = 1.0 + float(np.max(np.abs(sol.weights)))
    assert np.max(np.abs(sol_conj.weights - np.conj(sol.weights))) <= 1e-12 * scale
    assert np.max(np.abs(sol_conj.multipliers - np.conj(sol.multipliers))) <= 1e-12 * scale
    assert abs(sol_conj.variance_factor - np.conj(sol.variance_factor)) <= 1e-12 * (
        1.0 + abs(sol.variance_factor)
    )
    assert abs(predict(sol_conj, obs) - predict(sol, obs).conjugate()) <= 1e-12 * (
        1.0 + abs(predict(sol, obs))
    )


@settings(max_examples=50, deadline=None)
@given(cfg=kriging_configs())
def test_real_features_give_real_weights(cfg):
    design, corr, f, _ = cfg
    sol = kriging_weights(design, corr, np.real(f).astype(complex))
    assert np.max(np.abs(np.imag(sol.weights))) <= 1e-14
    assert np.max(np.abs(np.imag(sol.multipliers))) <= 1e-14


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def reused_design_queries(draw):
    """One design, a dense Λ, and a sequence of (white?, gls_beta?, feature, with obs?) queries."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    covariates = np.linspace(-5.0, 5.0, n) + rng.uniform(-0.02, 0.02, n)
    corr = _random_correlation(rng, n)
    obs = rng.uniform(-10.0, 10.0, n)
    queries = []
    for white, gls, complex_feature, with_obs in draw(
        st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()), min_size=2, max_size=12)
    ):
        f = rng.uniform(-3.0, 3.0, k)
        if complex_feature:
            f = f + 1j * rng.uniform(-3.0, 3.0, k)
        queries.append((white, gls, f, with_obs))
    return _basis_for(k), covariates, corr, obs, queries


@settings(max_examples=50, deadline=None)
@given(case=reused_design_queries())
def test_reused_design_matches_fresh_design_bitwise(case):
    # White queries on one design share its Gram matrix; dense ones interleave. Each result
    # must carry the same bits as the same call on a design built for it alone.
    basis, covariates, corr, obs, queries = case
    design = build_design(basis, covariates)
    for white, gls, f, with_obs in queries:
        lam = None if white else corr
        fresh = build_design(basis, covariates)
        if gls:
            assert _same_bits(gls_beta(design, lam, obs), gls_beta(fresh, lam, obs))
            continue
        v = obs if with_obs else None
        got, want = kriging_weights(design, lam, f, obs=v), kriging_weights(fresh, lam, f, obs=v)
        for name in ("weights", "multipliers"):
            assert _same_bits(getattr(got, name), getattr(want, name))
        assert _same_bits(got.variance_factor, want.variance_factor)
        assert (got.beta_hat is None) == (want.beta_hat is None) == (v is None)
        if v is not None:
            assert _same_bits(got.beta_hat, want.beta_hat)


def test_constant_basis_blue_limit():
    factors = []
    for n in (2**p for p in range(1, 11)):
        design = build_design(TrendBasis.constant(), np.arange(1.0, n + 1.0))
        sol = kriging_weights(design, None, [1.0])
        assert abs(sol.variance_factor - 1.0 / n) <= 1e-15 / n
        factors.append(abs(sol.variance_factor))
    assert all(later < earlier for earlier, later in zip(factors, factors[1:]))
    assert factors[-1] <= 1e-3


def test_no_warning_for_well_conditioned_gram():
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GramConditionWarning)
        kriging_weights(d, None, [1.0, 4.6])



@pytest.mark.parametrize(
    "basis, x, feature",
    [
        (TrendBasis.linear(), np.array(EXAMPLE_X) * 1e7, [1.0, 4.6e7]),
        (TrendBasis.linear(), np.array(EXAMPLE_X) * 1e100, [1.0, 4.6e100]),
        # Raw Gram condition ~2.7e18, equilibrated ~24.
        (
            TrendBasis.columns(lambda t: 1.0, lambda t: 1e8 * t, lambda t: (t - 6.0) ** 2),
            np.arange(1.0, 12.0),
            [1.0, 4.6e8, 1.96],
        ),
    ],
    ids=["linear-1e7", "linear-1e100", "columns-1e8"],
)
def test_rescaled_design_does_not_warn(basis, x, feature):
    # The warning judges the equilibrated Gram matrix, which a column scale leaves alone.
    d = build_design(basis, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GramConditionWarning)
        gls_beta(d, None, EXAMPLE_Y)
        kriging_weights(d, None, feature, obs=EXAMPLE_Y)


def _white_query_bytes(n, k, point_kind):
    """Every output of seeded white queries of one design: weights, multipliers, variance factor,
    β̂, ``predict`` and ``trend_variance`` at four points, as bytes."""
    rng = np.random.default_rng([24, n, k])
    x = np.sort(rng.uniform(0.0, 10.0, n))
    y = 1.0 + 0.5 * x + rng.normal(size=n)
    basis = _basis_for(k)
    design = build_design(basis, x)
    points = rng.uniform(0.0, 10.0, 4) + (1j * rng.uniform(0.5, 3.0, 4) if point_kind == "complex" else 0.0)
    out = []
    for z in points.tolist():
        f = feature_vector(basis, z) if k < 3 else np.array([1.0, z, z * z])
        sol = kriging_weights(design, None, f, obs=y)
        values = (sol.weights, sol.multipliers, sol.variance_factor, sol.beta_hat)
        out += [np.asarray(v).tobytes() for v in values + (predict(sol, y), trend_variance(sol, 0.7))]
    return b"".join(out)


# SHA-256 of ``_white_query_bytes``, taken before the input rules were made cheap on float64 and
# complex128 arrays: those rules add no floating-point operation, so no output bit may move.
# Like the golden CLI file, they hold for the BLAS kernels of the pinned numpy wheel.
WHITE_QUERY_DIGESTS = {
    # The constant basis's feature is (1,) at every point, real or complex.
    (11, 1, "real"): "2228b729a66b79a4fe0adbe2fbbd8c5886714c1410da148568d5fa0e3ce3914d",
    (11, 1, "complex"): "2228b729a66b79a4fe0adbe2fbbd8c5886714c1410da148568d5fa0e3ce3914d",
    (11, 2, "real"): "80c7faac093f56685b643ce2ef73c404dc7355bb4108366ae3ad111c4a26d60a",
    (11, 2, "complex"): "033cb498046e05feae4d13f0de4411b0883cb61e109d7f25e2f8261edfef807e",
    (11, 3, "real"): "2e79947bd2aeb020c8e66676ad5ad5921e2339bee913b132ddbc32d7b425add7",
    (11, 3, "complex"): "a92ebb5fa679d1ac11f5af72005b68fc803893f30a283f76d5df28d5cb21861b",
    (200, 1, "real"): "8f75f255e2a0801caaba8cd8e88a76e99f054c7cc8518d1815571a22dd6eb19b",
    (200, 1, "complex"): "8f75f255e2a0801caaba8cd8e88a76e99f054c7cc8518d1815571a22dd6eb19b",
    (200, 2, "real"): "b4584dde778b03563485d7b121e1a4f2cfb34dbc9aea9dfe1fb1e74cb1e80764",
    (200, 2, "complex"): "f24cbcf17ae88d1a66ee61d3b48482cc3cb7f659d5ed1df161cab749f8a1423c",
    (200, 3, "real"): "f70f6fef957d55188e300aac404a74fffe332b55d3d6f05baaaafeed4a61702a",
    (200, 3, "complex"): "c39e71beec1bc959a91b3a3d5d5a7e26506068970392470746c94e5f8a797c82",
    (100000, 1, "real"): "6db45aa4a3783c9371fe24bf69b04b801fe5234090741dd921ea1d16d19037a0",
    (100000, 1, "complex"): "6db45aa4a3783c9371fe24bf69b04b801fe5234090741dd921ea1d16d19037a0",
    (100000, 2, "real"): "4b64672789a95e63d66b67d45fdafad4bd3b1241ff42f2a569c9aa7d33402c3f",
    (100000, 2, "complex"): "a8d983a18ad2d5cef619f84bad70e65139711afb9b98808cd795ecd427e0e13c",
    (100000, 3, "real"): "07ec245aa719d955095f4073aa69cc5d048866281cb907351b0b8f2ec24bf81b",
    (100000, 3, "complex"): "8151476498a01e5c48ebaac27407d2ca2c4761cfca2561b97ace1fa402da81a6",
}


@pytest.mark.blas_bits
@pytest.mark.parametrize("point_kind", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [11, 200, 100_000])
def test_white_query_bytes_are_pinned(n, k, point_kind):
    digest = hashlib.sha256(_white_query_bytes(n, k, point_kind)).hexdigest()
    assert digest == WHITE_QUERY_DIGESTS[n, k, point_kind]


def _parts(values):
    """The real and imaginary parts of each of ``values`` (real or complex), as Python floats."""
    return [part for z in np.atleast_1d(np.asarray(values, complex)).tolist() for part in (z.real, z.imag)]


@pytest.mark.parametrize("point_kind", ["real", "complex"])
def test_white_solve_is_accurate_on_every_kernel(point_kind):
    # The accuracy twin of the linear n = 11 white-query pins, which hold only under one OpenBLAS
    # kernel.  Under SkylakeX, Haswell, Sandybridge and Nehalem alike, β̂ reads 8 ulps from the exact
    # solve, the weights 7 and the prediction 20.  At m_n + iσ_n the variance factor is ~1e-17, a
    # cancellation: it is bounded against the scale of its terms, |g₀| + |z|·|g₁| with g = (F'F)⁻¹f
    # (at most 0.53 eps of it).
    point = 4.6 if point_kind == "real" else zero_variance_points(EXAMPLE_X).plus
    exact = exact_white_solution(EXAMPLE_X, EXAMPLE_Y, complex(point))
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    solution = kriging_weights(d, None, feature_vector(TrendBasis.linear(), point), obs=EXAMPLE_Y)
    beta = gls_beta(d, None, EXAMPLE_Y).tolist() + solution.beta_hat.tolist()
    assert max(map(_ulps, beta, 2 * exact["beta_hat"])) <= 16, beta
    weights = _parts(solution.weights)
    assert max(map(_ulps, weights, _parts(exact["weights"]))) <= 16, weights
    prediction = _parts(predict(solution, EXAMPLE_Y))
    assert max(map(_ulps, prediction, _parts(exact["prediction"]))) <= 32, prediction
    g0, g1 = (-m for m in exact["multipliers"])
    scale = abs(g0) + abs(point) * abs(g1)
    error = solution.variance_factor - exact["variance_factor"]
    assert max(abs(error.real), abs(error.imag)) <= 4 * np.finfo(float).eps * scale, solution.variance_factor


# Bounds of the constant (k = 1) and quadratic (k = 3) twins against the exact solve: β̂ and the
# prediction in ulps, the weights and the variance factor in eps of the scale of their terms,
# |F|·|g| and |f|·|g| with g = (F'F)⁻¹f.  Measured at most, under SkylakeX, Haswell, Sandybridge and
# Nehalem: k = 1, 1 and 1 ulps, 0 and 0 eps; k = 3, 1033 and 229 ulps, 39.7 and 40.1 eps.  The
# quadratic Gram matrix of the example is ill-conditioned enough to cost its weights up to ~4400 ulps
# where they cancel, so its weights are bounded by scale, not in ulps.
_WHITE_TWIN_BOUNDS = {1: (4, 4, 1, 1), 3: (4096, 1024, 128, 128)}


@pytest.mark.parametrize("point_kind", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 3])
def test_white_solve_of_the_constant_and_quadratic_bases_is_accurate_on_every_kernel(k, point_kind):
    # The accuracy twins of the n = 11 constant and 3-column white-query pins, next to the linear
    # basis's twin above; the 3-column feature at a complex z is (1, z, z·z), as the pins take it.
    beta_ulps, prediction_ulps, weights_eps, factor_eps = _WHITE_TWIN_BOUNDS[k]
    point = 4.6 if point_kind == "real" else zero_variance_points(EXAMPLE_X).plus
    exact = exact_white_solution(EXAMPLE_X, EXAMPLE_Y, point, k)
    d = build_design(_basis_for(k), EXAMPLE_X)
    f = [1.0, point, point * point][:k]
    solution = kriging_weights(d, None, f, obs=EXAMPLE_Y)
    beta = gls_beta(d, None, EXAMPLE_Y).tolist() + solution.beta_hat.tolist()
    assert max(map(_ulps, beta, 2 * exact["beta_hat"])) <= beta_ulps, beta
    prediction = _parts(predict(solution, EXAMPLE_Y))
    assert max(map(_ulps, prediction, _parts(exact["prediction"]))) <= prediction_ulps, prediction
    eps = np.finfo(float).eps
    g = np.abs([-m for m in exact["multipliers"]])
    error = np.asarray(solution.weights, complex) - np.array(exact["weights"])
    assert np.all(np.maximum(abs(error.real), abs(error.imag)) <= weights_eps * eps * (np.abs(d.F) @ g))
    error = solution.variance_factor - exact["variance_factor"]
    scale = float(np.abs(np.array(f, complex)) @ g)
    assert max(abs(error.real), abs(error.imag)) <= factor_eps * eps * scale, solution.variance_factor


_X = list(EXAMPLE_X)
_X_TEXT = [str(v) for v in _X]
_BAD_SAMPLE_VALUES = {
    "text": _X_TEXT,
    "bytes": [s.encode() for s in _X_TEXT],
    "complex": [v + 1j for v in _X],
    "nan": _X[:-1] + [math.nan],
    "inf": _X[:-1] + [-math.inf],
    "wrong-length": _X[:-1],
    "overflow": [1.7e308] * len(_X),
    "huge-int": _X[:-1] + [10**400],
    "non-number": _X[:-1] + [object()],
    "object-complex": [Fraction(v) for v in _X[:-1]] + [1j],  # an object array, as a list too
}
_BAD_FEATURES = {
    "text": ["1.0", "4.6"],
    "bytes": [b"1.0", b"4.6"],
    "nan": [1.0, math.nan],
    "inf": [math.inf, 4.6],
    "wrong-length": [1.0, 4.6, 21.16],
    "huge-int": [1.0, 10**400],
    "non-number": [1.0, object()],
}


def _rule_call(entry):
    """The entry point ``entry`` as a function of its one checked argument."""
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    far = kriging_weights(d, None, [1.0, 100.0])  # weights up to ~6 in size, of both signs
    return {
        "kriging_weights.feature": lambda f: kriging_weights(d, None, f),
        "kkt_solve.feature": lambda f: kkt_solve(d, None, f),
        "kriging_weights.obs": lambda v: kriging_weights(d, None, [1.0, 4.6 + 1j], obs=v),
        "gls_beta.obs": lambda v: gls_beta(d, None, v),
        "predict.obs": lambda v: predict(far, v),
        "Sample.covariates": lambda x: Sample(x, EXAMPLE_Y),
        "Sample.observations": lambda v: Sample(EXAMPLE_X, v),
        "solve_spd.rhs": lambda b: solve_spd(np.eye(len(EXAMPLE_X)), b),
    }[entry]


def _as_array(values, kind):
    """``values`` as an ndarray: bytes go in an object array, where text keeps no text dtype."""
    return np.array(values, dtype=object) if kind == "bytes" else np.array(values)


# (entry, input kind) -> (exception type, message) that each rule raised, for the input given as a
# list, before the rules were made cheap on float64 and complex128 arrays; both forms keep them.
RULE_ERRORS = {
    ("kriging_weights.feature", "text"): ("ValueError", "feature vector must be numeric, not text"),
    ("kriging_weights.feature", "bytes"): ("ValueError", "feature vector must be numeric, not text"),
    ("kriging_weights.feature", "nan"): ("ValueError", "feature vector must be finite"),
    ("kriging_weights.feature", "inf"): ("ValueError", "feature vector must be finite"),
    ("kriging_weights.feature", "wrong-length"): ("LengthMismatch", "feature vector must have length 2, got (3,)"),
    ("kkt_solve.feature", "text"): ("ValueError", "feature vector must be numeric, not text"),
    ("kkt_solve.feature", "bytes"): ("ValueError", "feature vector must be numeric, not text"),
    ("kkt_solve.feature", "nan"): ("ValueError", "feature vector must be finite"),
    ("kkt_solve.feature", "inf"): ("ValueError", "feature vector must be finite"),
    ("kkt_solve.feature", "wrong-length"): ("LengthMismatch", "feature vector must have length 2, got (3,)"),
    ("kriging_weights.obs", "text"): ("ValueError", "observations must be numeric, not text"),
    ("kriging_weights.obs", "bytes"): ("ValueError", "observations must be numeric, not text"),
    ("kriging_weights.obs", "complex"): ("ValueError", "observations must be real"),
    ("kriging_weights.obs", "nan"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("kriging_weights.obs", "inf"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("kriging_weights.obs", "wrong-length"): ("LengthMismatch", "expected 11 observations, got (10,)"),
    ("kriging_weights.obs", "overflow"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("gls_beta.obs", "text"): ("ValueError", "observations must be numeric, not text"),
    ("gls_beta.obs", "bytes"): ("ValueError", "observations must be numeric, not text"),
    ("gls_beta.obs", "complex"): ("ValueError", "observations must be real"),
    ("gls_beta.obs", "nan"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("gls_beta.obs", "inf"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("gls_beta.obs", "wrong-length"): ("LengthMismatch", "expected 11 observations, got (10,)"),
    ("gls_beta.obs", "overflow"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("predict.obs", "text"): ("ValueError", "observations must be numeric, not text"),
    ("predict.obs", "bytes"): ("ValueError", "observations must be numeric, not text"),
    ("predict.obs", "complex"): ("ValueError", "observations must be real"),
    ("predict.obs", "nan"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("predict.obs", "inf"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("predict.obs", "wrong-length"): ("LengthMismatch", "expected 11 observations, got (10,)"),
    ("predict.obs", "overflow"): ("ValueError", "observations must be finite, and their weighted sums must not overflow"),
    ("Sample.covariates", "text"): ("ValueError", "covariates must be numeric, not text"),
    ("Sample.covariates", "bytes"): ("ValueError", "covariates must be numeric, not text"),
    ("Sample.covariates", "complex"): ("ValueError", "covariates must be real"),
    ("Sample.covariates", "nan"): ("ValueError", "covariates must be finite"),
    ("Sample.covariates", "inf"): ("ValueError", "covariates must be finite"),
    ("Sample.covariates", "wrong-length"): ("LengthMismatch", "covariates (10,) and observations (11,) must be equal-length vectors"),
    ("Sample.observations", "text"): ("ValueError", "observations must be numeric, not text"),
    ("Sample.observations", "bytes"): ("ValueError", "observations must be numeric, not text"),
    ("Sample.observations", "complex"): ("ValueError", "observations must be real"),
    ("Sample.observations", "nan"): ("ValueError", "observations must be finite"),
    ("Sample.observations", "inf"): ("ValueError", "observations must be finite"),
    ("Sample.observations", "wrong-length"): ("LengthMismatch", "covariates (11,) and observations (10,) must be equal-length vectors"),
    ("solve_spd.rhs", "text"): ("ValueError", "right-hand side must be numeric, not text"),
    ("solve_spd.rhs", "bytes"): ("ValueError", "right-hand side must be numeric, not text"),
    ("solve_spd.rhs", "wrong-length"): ("ValueError", "right-hand side must have shape (11,) or (11, m), got (10,)"),
    # An int past the float range once escaped every rule as OverflowError.
    ("kriging_weights.feature", "huge-int"): ("ValueError", "feature vector must be finite"),
    ("kkt_solve.feature", "huge-int"): ("ValueError", "feature vector must be finite"),
    ("kriging_weights.obs", "huge-int"): ("ValueError", "observations must be finite"),
    ("gls_beta.obs", "huge-int"): ("ValueError", "observations must be finite"),
    ("predict.obs", "huge-int"): ("ValueError", "observations must be finite"),
    ("Sample.covariates", "huge-int"): ("ValueError", "covariates must be finite"),
    ("Sample.observations", "huge-int"): ("ValueError", "observations must be finite"),
    ("solve_spd.rhs", "huge-int"): ("ValueError", "right-hand side must be finite"),
    # An object array holding a non-number, or at a real rule a complex entry, once escaped as TypeError.
    ("kriging_weights.feature", "non-number"): ("ValueError", "feature vector must be numeric"),
    ("kkt_solve.feature", "non-number"): ("ValueError", "feature vector must be numeric"),
    ("kriging_weights.obs", "non-number"): ("ValueError", "observations must be numeric"),
    ("gls_beta.obs", "non-number"): ("ValueError", "observations must be numeric"),
    ("predict.obs", "non-number"): ("ValueError", "observations must be numeric"),
    ("Sample.covariates", "non-number"): ("ValueError", "covariates must be numeric"),
    ("Sample.observations", "non-number"): ("ValueError", "observations must be numeric"),
    ("solve_spd.rhs", "non-number"): ("ValueError", "right-hand side must be numeric"),
    ("kriging_weights.obs", "object-complex"): ("ValueError", "observations must be real"),
    ("gls_beta.obs", "object-complex"): ("ValueError", "observations must be real"),
    ("predict.obs", "object-complex"): ("ValueError", "observations must be real"),
    ("Sample.covariates", "object-complex"): ("ValueError", "covariates must be real"),
    ("Sample.observations", "object-complex"): ("ValueError", "observations must be real"),
}


@pytest.mark.parametrize("form", ["list", "ndarray"])
@pytest.mark.parametrize("entry, kind", sorted(RULE_ERRORS), ids=["-".join(p) for p in sorted(RULE_ERRORS)])
def test_rule_errors_are_pinned(entry, kind, form):
    values = (_BAD_FEATURES if entry.endswith("feature") else _BAD_SAMPLE_VALUES)[kind]
    if form == "ndarray":
        values = _as_array(values, kind)
    with pytest.raises(Exception) as err:
        _rule_call(entry)(values)
    assert (type(err.value).__name__, str(err.value)) == RULE_ERRORS[entry, kind]


@pytest.mark.parametrize("big", [10**400, -(10**400), Fraction(10**400)], ids=["int", "negative-int", "Fraction"])
def test_numbers_past_the_float_range_raise_value_error(big):
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    solution = kriging_weights(d, None, [1.0, 4.6])
    config = {"covariates": EXAMPLE_X, "beta": (1.0, 0.5), "sigma": 1.0, "replicates": 10, "seed": 1}
    calls = {
        "feature_vector": lambda: feature_vector(TrendBasis.linear(), big),
        "feature_vector.ndarray": lambda: feature_vector(TrendBasis.linear(), np.array(big, dtype=object)),
        "trend_variance": lambda: trend_variance(solution, big),
        "constant_mean_variance": lambda: constant_mean_variance(3, big),
        "SimulationConfig.sigma": lambda: SimulationConfig(**{**config, "sigma": big}),
        "SimulationConfig.beta": lambda: SimulationConfig(**{**config, "beta": (1.0, big)}),
        "solve_spd.matrix": lambda: solve_spd([[big, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        "solve_spd.rhs": lambda: solve_spd(np.eye(2), [1.0, big]),
        "index_moments": lambda: index_moments([1.0, big]),
        "build_design": lambda: build_design(TrendBasis.linear(), [1.0, big]),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match="must be finite"):
            call()


@pytest.mark.parametrize("value", [10**300, 2**53 + 1])
def test_large_ints_in_the_float_range_keep_their_values(value):
    # Each rule reads a Python int as it did before ints past the float range were rejected.
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    solution = kriging_weights(d, None, [1.0, 4.6])
    assert constant_mean_variance(3, value) == value / 3  # int true division, rounded once
    assert trend_variance(solution, value) == complex(value * solution.variance_factor)
    assert feature_vector(TrendBasis.linear(), value).tolist() == [1.0, float(value)]
    config = SimulationConfig(covariates=EXAMPLE_X, beta=(1.0, value), sigma=value, replicates=10, seed=1)
    assert config.beta == (1.0, float(value)) and config.sigma == value
    assert solve_spd(np.eye(2), [1, value]).tolist() == [1.0, float(value)]
    assert _same_bits(solve_spd([[value, 0], [0, 1]], [value, 1]), solve_spd([[float(value), 0.0], [0.0, 1.0]], [float(value), 1.0]))


@pytest.mark.parametrize("scale", [np.float32(2.0), np.float16(2.0), Fraction(2)], ids=["float32", "float16", "Fraction"])
def test_noise_scale_is_read_in_double_precision(scale):
    # σ² is read as a Python number: each result has the bits and type of the call with 2.0.  A
    # float32 σ² made trend_variance in complex64 (its imaginary part 0.1428571492433548, not 1/7
    # rounded), and constant_mean_variance returned a float16 or a Fraction.
    d = build_design(TrendBasis.linear(), [1.0, 2.0, 4.0])
    solution = kriging_weights(d, None, feature_vector(TrendBasis.linear(), 2.5 + 1j))
    assert _same_bits(trend_variance(solution, scale), trend_variance(solution, 2.0))
    assert _same_bits(prediction_error_variance(solution, None, scale), prediction_error_variance(solution, None, 2.0))
    assert type(constant_mean_variance(3, scale)) is float
    assert constant_mean_variance(3, scale) == constant_mean_variance(3, 2.0)


@pytest.mark.parametrize("entry", ["kriging_weights", "kkt_solve"])
def test_fraction_feature_is_read_as_floats(entry):
    # Fractions are numbers: the feature rule casts them, as the observation rule does.
    from fractions import Fraction

    d = build_design(TrendBasis.linear(), EXAMPLE_X)

    def call(f):
        return kriging_weights(d, None, f).weights if entry == "kriging_weights" else kkt_solve(d, None, f)[0]

    want = call([1.0, 2.5])
    for fractions in ([Fraction(1), Fraction(5, 2)], np.array([Fraction(1), Fraction(5, 2)], dtype=object)):
        assert _same_bits(call(fractions), want)
    assert _same_bits(call(np.array([Fraction(1), 2.5 + 1j], dtype=object)), call([1.0, 2.5 + 1j]))
    with pytest.raises(ValueError, match="feature vector must be numeric"):
        call([object(), 1.0])


def test_white_condition_is_taken_once_per_design(monkeypatch):
    # The equilibrated condition of a k = 3 design is an SVD (np.linalg.cond); it is kept next to
    # the white factor and re-reported on every query.
    calls = record_calls(monkeypatch, kriging, "_condition", len)  # each Gram matrix's order
    basis = _basis_for(3)
    d = build_design(basis, EXAMPLE_X)
    for point in (4.6, 1.0, 9.0):
        for _ in range(3):
            kriging_weights(d, None, feature_vector(basis, point), obs=EXAMPLE_Y)
            gls_beta(d, None, EXAMPLE_Y)
    assert calls == [3]
    shifted = build_design(basis, np.array(EXAMPLE_X) + 1e3)  # equilibrated condition ~1e12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            kriging_weights(shifted, None, [1.0, 1e3, 1e6])
    assert calls == [3, 3]
    assert [w.category for w in caught] == [GramConditionWarning] * 3
