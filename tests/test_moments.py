import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from ckrig import moments
from conftest import EXAMPLE_X, EXAMPLE_Y, exact_oracle, summation_oracle


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

    @pytest.mark.parametrize(
        "x,sigma_n",
        [([1e8, 1e8 + 1.0], 0.5), (1.7e9 + np.arange(1.0, 12.0), math.sqrt(10.0))],
        ids=["1e8", "timestamps"],
    )
    def test_shifted_covariates_spread_from_two_passes(self, x, sigma_n):
        # The one-pass m_sn - m_n² cancels to roundoff here; two passes are exact.
        assert index_moments(x).sigma_n == sigma_n

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

    def test_carried_by_the_index_moments(self):
        assert index_moments(EXAMPLE_X).zero_variance_points == zero_variance_points(EXAMPLE_X)

    def test_constant_covariates_degenerate(self):
        with pytest.raises(DegenerateCovariates):
            zero_variance_points([2.0, 2.0, 2.0])

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateCovariates):
            zero_variance_points([1.0])

    @pytest.mark.parametrize("c", [3.0, 0.5])
    def test_nearly_equal_covariates_degenerate(self, c):
        # One ulp of spread: the one-pass σ_n was a roundoff residue ~1e8 times too large.
        x = [c, c, float(np.nextafter(c, 2 * c))]
        with pytest.raises(DegenerateCovariates):
            zero_variance_points(x)
        with pytest.raises(DegenerateCovariates):
            complex_mean(Sample(covariates=x, observations=[1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("x", [[1e200, 2e200], [-2e154, 0.0, 2e154]], ids=["nan", "inf"])
    def test_overflowing_moments_degenerate(self, x):
        # x² overflows, so σ_n is NaN or inf: an error, with no numpy warning first.
        with pytest.raises(DegenerateCovariates):
            zero_variance_points(x)
        with pytest.raises(DegenerateCovariates):
            complex_variance(Sample(covariates=x, observations=np.arange(len(x), dtype=float)))


@settings(max_examples=200, deadline=None)
@given(c=st.floats(-1000.0, 1000.0), n=st.integers(1, 100))
@example(c=954.5621324381254, n=3)
def test_equal_covariates_degenerate_at_any_value(c, n):
    # The one-pass m_sn - m_n² of equal values is often a roundoff residue, not 0.
    assert index_moments(np.full(n, c)).sigma_n == 0.0
    s = Sample(covariates=np.full(n, c), observations=np.arange(n, dtype=float))
    with pytest.raises(DegenerateCovariates, match="no finite spread"):
        zero_variance_points(s.covariates)
    for moment in (complex_mean, complex_variance, slope, imaginary_standard_error):
        with pytest.raises(DegenerateCovariates, match="no finite spread"):
            moment(s)


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


def _ulps(a: float, b: float) -> int:
    """How many doubles apart ``a`` and ``b`` are (0.0 and -0.0 are none apart)."""
    def key(t):
        i = struct.unpack("<q", struct.pack("<d", t))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(key(a) - key(b))


def test_complex_variance_is_within_32_ulps_of_the_exact_oracle():
    # Not a bit pin: it holds under every OpenBLAS kernel (var.re, the widest, reads 22 ulps).
    stats = complex_variance(Sample(covariates=EXAMPLE_X, observations=EXAMPLE_Y))
    exact = exact_oracle(EXAMPLE_X, EXAMPLE_Y)
    pairs = {
        "m_n": (stats.moments.m_n, exact["m_n"]),
        "m_sn": (stats.moments.m_sn, exact["m_sn"]),
        "sigma_n": (stats.moments.sigma_n, exact["sigma_n"]),
        "mean.re": (stats.mean.plus.real, exact["mean_plus"].real),
        "mean.im": (stats.mean.plus.imag, exact["mean_plus"].imag),
        "wsq.re": (stats.weighted_square.plus.real, exact["wsq_plus"].real),
        "wsq.im": (stats.weighted_square.plus.imag, exact["wsq_plus"].imag),
        "var.re": (stats.variance.plus.real, exact["var_plus"].real),
        "var.im": (stats.variance.plus.imag, exact["var_plus"].imag),
        "slope": (stats.slope, exact["a_hat"]),
        "real_se": (stats.real_se, exact["real_se"]),
    }
    ulps = {name: _ulps(got, want) for name, (got, want) in pairs.items()}
    assert max(ulps.values()) <= 32, ulps


class TestComplexVariance:
    # The Gram-condition warning ignores column scale (test_rescaled_design_does_not_warn
    # checks that); this test is about accuracy only.
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

    @pytest.mark.parametrize("scale", [1e-15, 1e-50, 1e-100, 1e-150])
    def test_small_covariate_scale(self, example_sample, scale):
        # The spread threshold is relative to |m_n| at every scale; x² stays a normal float.
        x, v = example_sample.covariates, example_sample.observations
        stats = complex_variance(example_sample)
        stats_scaled = complex_variance(Sample(covariates=scale * x, observations=v))
        for name in ("mean", "weighted_square", "variance"):
            got, want = getattr(stats_scaled, name).plus, getattr(stats, name).plus
            assert abs(got - want) <= 1e-13 * abs(want)
        assert abs(stats_scaled.slope * scale - stats.slope) <= 1e-13 * abs(stats.slope)

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

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "4"], ids=repr)
    def test_count_rule(self, n):
        # 2.5 used to give 0.4; a float, even an integral one, is not a count.
        with pytest.raises(ValueError, match="n must be an integer"):
            constant_mean_variance(n, 1.0)

    def test_numpy_integer_n(self):
        assert constant_mean_variance(np.int64(4), 2.0) == 0.5


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
        assert abs(getattr(pair, branch) - predict(sol, s.observations)) <= 1e-10


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


def _bits(value) -> tuple[str, str]:
    z = complex(value)
    return z.real.hex(), z.imag.hex()


@settings(max_examples=50, deadline=None)
@given(s=samples())
def test_record_matches_standalone_statistics_bitwise(s):
    stats = complex_variance(s)
    assert _bits(stats.mean.plus) == _bits(complex_mean(s).plus)
    assert _bits(stats.slope) == _bits(slope(s))
    assert _bits(stats.real_se) == _bits(real_standard_error(s))
    assert _bits(stats.imag_se) == _bits(imaginary_standard_error(s))
    expected = stats.weighted_square.plus - stats.mean.plus * stats.mean.plus
    assert _bits(stats.variance.plus) == _bits(expected)


@pytest.mark.parametrize("shift", [0.0, 1e3], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("n", [11, 200, 10**5])
def test_shared_squares_keep_their_bits(n, shift):
    # complex_variance squares the observations once for the weighted square and the
    # standard error: the bits of v**2 and of v * v are kept.
    x = np.arange(1.0, n + 1.0) + shift
    v = np.random.default_rng(n).normal(5.0, 2.0, n)
    stats = complex_variance(Sample(covariates=x, observations=v))
    basis = TrendBasis.linear()
    f = feature_vector(basis, zero_variance_points(x).plus)
    weights = kriging_weights(build_design(basis, x), None, f).weights
    assert _bits(stats.weighted_square.plus) == _bits(np.dot(weights, v**2))
    vbar, v2bar = float(np.mean(v)), float(np.mean(v * v))
    assert _bits(stats.real_se) == _bits(math.sqrt(max(v2bar - vbar * vbar, 0.0) / n))


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


def _moment_bytes(n):
    """Every output of ``complex_mean``, ``complex_variance``, ``slope`` and
    ``imaginary_standard_error`` of a seeded linear sample, as bytes."""
    rng = np.random.default_rng([24, n])
    x = np.sort(rng.uniform(0.0, 10.0, n))
    sample = Sample(x, 1.0 + 0.5 * x + rng.normal(size=n))
    stats = complex_variance(sample)
    mom = stats.moments
    values = (complex_mean(sample).plus, slope(sample), imaginary_standard_error(sample), stats.mean.plus,
              stats.weighted_square.plus, stats.variance.plus, stats.real_se, stats.imag_se, stats.slope,
              mom.m_n, mom.m_sn, mom.sigma_n)
    return b"".join(np.asarray(v).tobytes() for v in values)


# SHA-256 of ``_moment_bytes``, taken before each Sample kept its moment pass: keeping it adds no
# floating-point operation, so no output bit may move.
MOMENT_DIGESTS = {
    11: "a4cfcea22de6592fc0b0004ce81798292e2ed58778de56b44a5989f47bcbe9c9",
    200: "e776c7e997618d56b9b37c71b12028a654c28fc37c734ff8fe27c6cddc984790",
    100_000: "c4209765d0f17bf01e2e7a13d5bc61bd08d8fcbf4230d72938475aba8c12a53d",
}


@pytest.mark.blas_bits
@pytest.mark.parametrize("n", [11, 200, 100_000])
def test_moment_bytes_are_pinned(n):
    assert hashlib.sha256(_moment_bytes(n)).hexdigest() == MOMENT_DIGESTS[n]


@pytest.mark.parametrize("n", [11, 200, 1001, 100_003])
def test_complex_variance_reads_the_bits_of_its_plain_sums(n):
    # v² is written once into a complex array: the weighted square must keep the bits of the
    # complex dot with the real v², and the standard error those of the contiguous mean.
    rng = np.random.default_rng([29, n])
    x = rng.uniform(-5.0, 5.0, n)
    sample = Sample(x, 3.0 - 0.7 * x + rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n))
    stats = complex_variance(sample)
    basis = TrendBasis.linear()
    point = feature_vector(basis, stats.moments.zero_variance_points.plus)
    weights = kriging_weights(build_design(basis, x), None, point).weights
    v = sample.observations
    assert np.asarray(stats.weighted_square.plus).tobytes() == np.asarray(complex(np.dot(weights, v * v))).tobytes()
    assert np.asarray(stats.real_se).tobytes() == np.asarray(real_standard_error(sample)).tobytes()


def _spy_moment_pass(monkeypatch):
    """Record the Sample of each moment pass: a pass starts with the covariate moments."""
    calls = []
    original = moments._nondegenerate_moments

    def spy(covariates):
        calls.append(covariates)
        return original(covariates)

    monkeypatch.setattr(moments, "_nondegenerate_moments", spy)
    return calls


def _the_four(sample):
    return complex_mean(sample), complex_variance(sample), slope(sample), imaginary_standard_error(sample)


def test_one_moment_pass_per_sample(monkeypatch):
    calls = _spy_moment_pass(monkeypatch)
    x = np.array(EXAMPLE_X)
    first, second = Sample(x, 2.0 * x), Sample(x, 2.0 * x)
    for sample in (first, second, first, second):
        got = _the_four(sample)
    assert len(calls) == 2 and calls[0] is first.covariates and calls[1] is second.covariates
    fresh = moments._mean_components(Sample(x, 2.0 * x))
    assert got[0] == fresh[1] and got[1].mean == fresh[1] and got[2] == fresh[2] and got[1].moments == fresh[0]


def test_degenerate_sample_raises_on_every_call(monkeypatch):
    calls = _spy_moment_pass(monkeypatch)
    sample = Sample([3.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0])
    for call in (complex_mean, complex_variance, slope, imaginary_standard_error) * 2:
        with pytest.raises(DegenerateCovariates):
            call(sample)
    assert len(calls) == 8
