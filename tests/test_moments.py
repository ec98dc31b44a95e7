import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckrig import (
    DegenerateCovariates,
    EmptySample,
    Sample,
    TrendBasis,
    build_design,
    complex_mean,
    complex_variance,
    constant_mean_variance,
    feature_vector,
    gls_beta,
    imaginary_standard_error,
    index_moments,
    kriging_weights,
    predict,
    real_standard_error,
    slope,
    zero_variance_points,
)
from conftest import EXAMPLE_X, summation_oracle


@st.composite
def samples(draw, min_n=3, max_n=25):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    x = np.linspace(-4.0, 4.0, n) * draw(st.floats(0.5, 3.0)) + rng.uniform(-0.1, 0.1, n)
    v = rng.uniform(-10.0, 10.0, n)
    return Sample(covariates=x, observations=v)


class TestIndexMoments:
    def test_integer_indices(self):
        mom = index_moments(np.arange(1.0, 12.0))
        assert mom.m_n == pytest.approx(6.0, rel=1e-15)
        assert mom.m_sn == pytest.approx(46.0, rel=1e-15)
        assert mom.sigma_n == pytest.approx(math.sqrt(10.0), rel=1e-14)

    def test_example_row(self, example_oracle):
        mom = index_moments(EXAMPLE_X)
        assert mom.m_n == pytest.approx(example_oracle["m_n"], rel=1e-14)
        assert mom.m_sn == pytest.approx(example_oracle["m_sn"], rel=1e-14)
        assert mom.sigma_n == pytest.approx(example_oracle["sigma_n"], rel=1e-14)

    def test_constant_covariates(self):
        assert index_moments([3.0, 3.0, 3.0]).sigma_n == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            index_moments([])

    @pytest.mark.parametrize("moments_of", [index_moments, zero_variance_points])
    def test_matrix_rejected_not_flattened(self, moments_of):
        with pytest.raises(ValueError, match="one-dimensional"):
            moments_of([[1.0, 2.0], [3.0, 4.0]])


class TestZeroVariancePoints:
    def test_integer_indices(self):
        pts = zero_variance_points(np.arange(1.0, 12.0))
        assert pts.plus == pytest.approx(6.0 + math.sqrt(10.0) * 1j, rel=1e-14)
        assert pts.minus == pts.plus.conjugate()

    def test_example_row(self, example_oracle):
        pts = zero_variance_points(EXAMPLE_X)
        expected = complex(example_oracle["m_n"], example_oracle["sigma_n"])
        assert abs(pts.plus - expected) <= 1e-13

    def test_constant_covariates_degenerate(self):
        with pytest.raises(DegenerateCovariates):
            zero_variance_points([2.0, 2.0, 2.0])

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateCovariates):
            zero_variance_points([1.0])

    @pytest.mark.parametrize("x", [[1e200, 2e200], [-2e154, 0.0, 2e154]], ids=["nan", "inf"])
    def test_overflowing_moments_degenerate(self, x):
        # x² overflows, so σ_n is NaN or inf: an error, with no numpy warning first.
        with pytest.raises(DegenerateCovariates):
            zero_variance_points(x)
        with pytest.raises(DegenerateCovariates):
            complex_variance(Sample(covariates=x, observations=np.arange(len(x), dtype=float)))


class TestComplexMean:
    def test_example(self, example_sample, example_oracle):
        pair = complex_mean(example_sample)
        assert abs(pair.plus - example_oracle["mean_plus"]) <= 1e-12
        assert pair.minus == pair.plus.conjugate()

    def test_constant_observations(self):
        pair = complex_mean(Sample(covariates=[1.0, 2.0, 3.0], observations=[5.0, 5.0, 5.0]))
        assert pair.plus.real == pytest.approx(5.0, rel=1e-15)
        assert abs(pair.plus.imag) <= 1e-14
        assert abs(pair.minus.imag) <= 1e-14

    def test_identity_observations(self):
        # v_i = x_i on 1..3: slope one, mean two, spread sqrt(2/3).
        pair = complex_mean(Sample(covariates=[1.0, 2.0, 3.0], observations=[1.0, 2.0, 3.0]))
        assert abs(pair.plus - complex(2.0, math.sqrt(2.0 / 3.0))) <= 1e-12

    def test_degenerate_covariates(self):
        with pytest.raises(DegenerateCovariates):
            complex_mean(Sample(covariates=[1.0, 1.0], observations=[1.0, 2.0]))


class TestComplexVariance:
    # The Gram condition grows with scale², so the warning may fire; it is not under test.
    @pytest.mark.filterwarnings("ignore::ckrig.GramConditionWarning")
    @pytest.mark.parametrize("scale", [1e7, 1e10, 1e100])
    def test_large_covariate_scale(self, example_sample, scale):
        # The pivot guard is relative to each diagonal entry, so scale does not read as degeneracy.
        x, v = example_sample.covariates, example_sample.observations
        beta = gls_beta(build_design(TrendBasis.linear(), x), None, v)
        stats = complex_variance(example_sample)
        beta_scaled = gls_beta(build_design(TrendBasis.linear(), scale * x), None, v)
        stats_scaled = complex_variance(Sample(covariates=scale * x, observations=v))
        assert np.max(np.abs(beta_scaled * [1.0, scale] - beta) / np.abs(beta)) <= 1e-12
        for name in ("mean", "weighted_square", "variance"):
            got, want = getattr(stats_scaled, name).plus, getattr(stats, name).plus
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_example(self, example_sample, example_oracle):
        stats = complex_variance(example_sample)
        assert abs(stats.weighted_square.plus - example_oracle["wsq_plus"]) <= 1e-10
        assert abs(stats.variance.plus - example_oracle["var_plus"]) <= 1e-10
        assert stats.variance.minus == stats.variance.plus.conjugate()

    def test_constant_observations(self):
        stats = complex_variance(
            Sample(covariates=[1.0, 2.0, 3.0], observations=[4.0, 4.0, 4.0])
        )
        assert abs(stats.variance.plus) <= 1e-10 * 16.0

    def test_identity_observations(self):
        stats = complex_variance(
            Sample(covariates=[1.0, 2.0, 3.0], observations=[1.0, 2.0, 3.0])
        )
        wsq_expected = complex(14.0 / 3.0, 4.0 * math.sqrt(2.0 / 3.0))
        assert abs(stats.weighted_square.plus - wsq_expected) <= 1e-10
        assert abs(stats.variance.plus - (4.0 / 3.0)) <= 1e-10


class TestStandardErrors:
    def test_real_se_example(self, example_sample, example_oracle):
        assert real_standard_error(example_sample) == pytest.approx(
            example_oracle["real_se"], rel=1e-12
        )

    def test_real_se_constant(self):
        s = Sample(covariates=[1.0, 2.0], observations=[3.0, 3.0])
        assert real_standard_error(s) == 0.0

    def test_real_se_two_values(self):
        s = Sample(covariates=[1.0, 2.0], observations=[0.0, 2.0])
        assert real_standard_error(s) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_imag_se_example(self, example_sample, example_oracle):
        assert imaginary_standard_error(example_sample) == pytest.approx(
            example_oracle["imag_se"], rel=1e-12
        )
        assert slope(example_sample) < 0.0

    def test_imag_se_identity(self):
        s = Sample(covariates=[1.0, 2.0, 3.0], observations=[1.0, 2.0, 3.0])
        assert imaginary_standard_error(s) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_imag_se_constant_observations(self):
        s = Sample(covariates=[1.0, 2.0, 3.0], observations=[7.0, 7.0, 7.0])
        assert imaginary_standard_error(s) <= 1e-14


class TestConstantMeanVariance:
    def test_eleven(self):
        assert constant_mean_variance(11, 1.0) == pytest.approx(1.0 / 11.0, rel=1e-15)

    def test_single(self):
        assert constant_mean_variance(1, 4.0) == 4.0

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    def test_doubling_halves(self, n):
        assert constant_mean_variance(2 * n, 3.0) == pytest.approx(
            constant_mean_variance(n, 3.0) / 2.0, rel=1e-15
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            constant_mean_variance(0, 1.0)
        with pytest.raises(ValueError):
            constant_mean_variance(5, -1.0)


# --- module invariants -------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(s=samples())
def test_mean_real_part_is_arithmetic_mean(s):
    pair = complex_mean(s)
    vbar = float(np.mean(s.observations))
    assert abs(pair.plus.real - vbar) <= 1e-12 * max(1.0, abs(vbar))


@settings(max_examples=50, deadline=None)
@given(s=samples())
def test_mean_imag_part_is_slope_times_spread(s):
    pair = complex_mean(s)
    design = build_design(TrendBasis.linear(), s.covariates)
    a_hat = gls_beta(design, None, s.observations)[1]
    sigma_n = index_moments(s.covariates).sigma_n
    expected = a_hat * sigma_n
    assert abs(pair.plus.imag - expected) <= 1e-12 * max(1.0, abs(expected))


@settings(max_examples=50, deadline=None)
@given(s=samples())
def test_mean_matches_kriging_predictor_branchwise(s):
    pair = complex_mean(s)
    pts = zero_variance_points(s.covariates)
    design = build_design(TrendBasis.linear(), s.covariates)
    for branch, point in (("plus", pts.plus), ("minus", pts.minus)):
        sol = kriging_weights(design, None, feature_vector(TrendBasis.linear(), point))
        assert abs(pair.branch(branch) - predict(sol, s.observations)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(s=samples())
def test_weighted_square_matches_moment_formula(s):
    stats = complex_variance(s)
    oracle = summation_oracle(tuple(s.covariates), tuple(s.observations))
    scale = max(1.0, abs(oracle["wsq_plus"]))
    assert abs(stats.weighted_square.plus - oracle["wsq_plus"]) <= 1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(s=samples(), shift=st.floats(-50.0, 50.0, allow_nan=False))
def test_translation_invariance(s, shift):
    shifted = Sample(covariates=s.covariates + shift, observations=s.observations)
    base_mean, base_var = complex_mean(s), complex_variance(s)
    new_mean, new_var = complex_mean(shifted), complex_variance(shifted)
    assert abs(new_mean.plus - base_mean.plus) <= 1e-10 * max(1.0, abs(base_mean.plus))
    assert abs(new_var.variance.plus - base_var.variance.plus) <= 1e-10 * max(
        1.0, abs(base_var.variance.plus)
    )


@settings(max_examples=50, deadline=None)
@given(s=samples(), scale=st.floats(0.1, 20.0, allow_nan=False))
def test_positive_scaling_leaves_mean(s, scale):
    scaled = Sample(covariates=s.covariates * scale, observations=s.observations)
    assert abs(complex_mean(scaled).plus - complex_mean(s).plus) <= 1e-10 * max(
        1.0, abs(complex_mean(s).plus)
    )


@settings(max_examples=50, deadline=None)
@given(s=samples(), scale=st.floats(0.1, 20.0, allow_nan=False))
def test_negative_scaling_swaps_branches(s, scale):
    flipped = Sample(covariates=s.covariates * -scale, observations=s.observations)
    base = complex_mean(s)
    swapped = complex_mean(flipped)
    assert abs(swapped.plus - base.minus) <= 1e-10 * max(1.0, abs(base.minus))


@settings(max_examples=50, deadline=None)
@given(s=samples())
def test_conjugate_pairing_exact(s):
    stats = complex_variance(s)
    assert stats.mean.minus == stats.mean.plus.conjugate()
    assert stats.variance.minus == stats.variance.plus.conjugate()
    assert stats.weighted_square.minus == stats.weighted_square.plus.conjugate()


@settings(max_examples=50, deadline=None)
@given(s=samples())
def test_variance_quadratic_vanishes_at_points(s):
    mom = index_moments(s.covariates)
    assume(mom.sigma_n > 1e-8 * max(1.0, abs(mom.m_n)))
    pts = zero_variance_points(s.covariates)
    for point in (pts.plus, pts.minus):
        residual = point * point - 2.0 * mom.m_n * point + mom.m_sn
        assert abs(residual) <= 1e-10 * mom.m_sn
