import tracemalloc
import warnings

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
    constant_mean_variance,
    feature_vector,
    gls_beta,
    index_moments,
    kkt_solve,
    kriging_weights,
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
    bad_correlation,
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
        gram = d._white_gram
        raw = d.F.T @ d.F
        assert _same_bits(gram, 0.5 * (raw + raw.T))
        with pytest.raises(ValueError):
            gram[0, 0] = 0.0


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

    @pytest.mark.parametrize("point", [np.inf, complex(1.0, np.nan)])
    def test_non_finite_point_rejected(self, point):
        with pytest.raises(ValueError, match="evaluation point must be finite"):
            feature_vector(TrendBasis.linear(), point)


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


@pytest.mark.parametrize("call", ["gls_beta", "kriging_weights"])
def test_dense_correlation_scanned_once(call, monkeypatch):
    calls = []
    original = numerics.check_symmetric

    def spy(a):
        calls.append(a.shape)
        original(a)

    monkeypatch.setattr(numerics, "check_symmetric", spy)
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    lam = _random_correlation(np.random.default_rng(3), 11)
    if call == "gls_beta":
        gls_beta(d, lam, EXAMPLE_Y)
    else:
        kriging_weights(d, lam, [1.0, 4.6], obs=EXAMPLE_Y)
    # One scan of the 11x11 Λ; the rest are 2x2 Gram solves.
    assert calls.count((11, 11)) == 1


def _spy_gram(monkeypatch):
    """Record, per call of ``kriging._gram``, whether it formed a white-noise Gram matrix (F'F)."""
    calls = []
    original = kriging._gram

    def spy(F, lam_inv_F):
        calls.append(lam_inv_F is F)
        return original(F, lam_inv_F)

    monkeypatch.setattr(kriging, "_gram", spy)
    return calls


def test_white_gram_formed_once_per_design(monkeypatch):
    calls = _spy_gram(monkeypatch)
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    for point in (4.6, 1.0, 4.6 + 2.7j, 4.6 - 2.7j, 9.0):
        kriging_weights(d, None, feature_vector(TrendBasis.linear(), point), obs=EXAMPLE_Y)
        gls_beta(d, None, EXAMPLE_Y)
    assert calls == [True]
    build_design(TrendBasis.linear(), EXAMPLE_X)
    assert calls == [True]  # a design forms nothing until it is queried


@pytest.mark.parametrize("call", ["gls_beta", "kriging_weights"])
def test_dense_query_never_forms_white_gram(call, monkeypatch):
    calls = _spy_gram(monkeypatch)
    d = build_design(TrendBasis.linear(), EXAMPLE_X)
    lam = _random_correlation(np.random.default_rng(3), 11)
    for _ in range(3):
        if call == "gls_beta":
            gls_beta(d, lam, EXAMPLE_Y)
        else:
            kriging_weights(d, lam, [1.0, 4.6], obs=EXAMPLE_Y)
    assert calls == [False, False, False]
    assert "_white_gram" not in vars(d)


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
    tracemalloc.start()
    try:
        _check_correlation(lam, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
