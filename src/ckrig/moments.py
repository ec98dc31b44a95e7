"""Complex-valued mean and variance of a noisy linear trend.

The trend variance of a linear fit, read as a bilinear quadratic in the
evaluation point j, is (j² - 2·m_n·j + m_sn)/(n·σ_n²) and vanishes at the
conjugate points j = m_n ± i·σ_n built from the covariate moments.
Evaluating the fit there turns the sample into a complex mean whose real
part is the plain average and whose imaginary part carries the slope, and
into a complex variance via the weighted square of the observations.  Each
``Sample`` keeps the moment pass behind its mean and slope: one pass per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kriging import (
    Sample,
    TrendBasis,
    _count,
    _noise_scale,
    _real_vector,
    build_design,
    feature_vector,
    kriging_weights,
)
from .numerics import ConjugatePair

# Covariate spread σ_n at or below this (relative to |m_n|, the covariate
# mean) leaves no imaginary direction to continue into.
DEGENERATE_SPREAD_RTOL = 1e-14
# A one-pass spread m_sn - m_n² at or below this fraction of m_n² has lost about ten of
# its 53 bits or more to cancellation (covariates far from zero, such as timestamps, or
# nearly equal ones), so it is taken again in two passes, mean((x - m_n)²).
_ONE_PASS_SPREAD_RTOL = 2.0**-10


class DegenerateCovariates(ValueError):
    """Raised when the covariates have (numerically) zero spread."""


@dataclass(frozen=True)
class IndexMoments:
    """First and second covariate moments and their standard deviation.

    The zero-variance points m_n ± i·σ_n are derived from them, not stored.
    """

    m_n: float
    m_sn: float
    sigma_n: float

    @property
    def zero_variance_points(self) -> ConjugatePair:
        """The conjugate roots m_n ± i·σ_n of the trend-variance quadratic."""
        return ConjugatePair(complex(self.m_n, self.sigma_n))


@dataclass(frozen=True)
class ComplexMoments:
    """Complex mean and variance of a sample, with the intermediates.

    Stored: ``mean``; ``weighted_square``, the kriging-weighted square of the
    observations at the zero-variance point; ``real_se``, the standard error
    of the real part of the mean; ``moments`` (which carries the
    zero-variance points) and ``slope``, from the same moment pass as the
    mean, which the sample keeps.  Derived: ``variance`` = weighted_square
    - mean² and ``imag_se`` = |Im mean| = |slope|·σ_n, the standard error
    of the imaginary part.
    """

    mean: ConjugatePair
    weighted_square: ConjugatePair
    real_se: float
    moments: IndexMoments
    slope: float

    @property
    def variance(self) -> ConjugatePair:
        # A product, not ``**2``: complex powers raise OverflowError where products give inf.
        return ConjugatePair(self.weighted_square.plus - self.mean.plus * self.mean.plus)

    @property
    def imag_se(self) -> float:
        return abs(self.mean.plus.imag)


def index_moments(covariates) -> IndexMoments:
    """Sample moments m_n = mean(x), m_sn = mean(x²), σ_n = sqrt(m_sn - m_n²).

    σ_n² is the one-pass m_sn - m_n² unless that is not above ``_ONE_PASS_SPREAD_RTOL``·m_n²,
    where it is the two-pass mean((x - m_n)²) (Chan, Golub & LeVeque, Am. Stat. 1983).
    """
    x = _real_vector(covariates, "covariates")
    m_n = float(np.mean(x))
    m_sn = float(np.mean(x * x))
    spread = m_sn - m_n * m_n
    if x.min() == x.max():
        spread = 0.0  # exactly, where m_sn - m_n² can leave a roundoff residue
    elif not spread > _ONE_PASS_SPREAD_RTOL * (m_n * m_n):
        d = x - m_n
        spread = float(np.mean(d * d))
    return IndexMoments(m_n=m_n, m_sn=m_sn, sigma_n=math.sqrt(spread))


def _nondegenerate_moments(covariates) -> IndexMoments:
    # Moments that overflow give a NaN or infinite σ_n; that fails here, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        mom = index_moments(covariates)
    if not DEGENERATE_SPREAD_RTOL * abs(mom.m_n) < mom.sigma_n < math.inf:
        raise DegenerateCovariates(
            "covariates have no finite spread; at least two distinct values are required"
        )
    return mom


def zero_variance_points(covariates) -> ConjugatePair:
    """The conjugate roots m_n ± i·σ_n of the trend-variance quadratic."""
    return _nondegenerate_moments(covariates).zero_variance_points


def _mean_components(sample: Sample) -> tuple[IndexMoments, ConjugatePair, float]:
    """(moments, complex mean v̄ + i·cov/σ_n, slope cov/σ_n²) from one pass over (x, v), taken on
    the first call and kept on the Sample, which is immutable.  A raise keeps nothing."""
    if "_moment_pass" in vars(sample):
        return sample._moment_pass
    mom = _nondegenerate_moments(sample.covariates)
    vbar = float(np.mean(sample.observations))
    xvbar = float(np.mean(sample.covariates * sample.observations))
    cov = xvbar - mom.m_n * vbar
    kept = mom, ConjugatePair(complex(vbar, cov / mom.sigma_n)), cov / (mom.sigma_n * mom.sigma_n)
    object.__setattr__(sample, "_moment_pass", kept)  # past the frozen dataclass's __setattr__
    return kept


def complex_mean(sample: Sample) -> ConjugatePair:
    """Trend fit evaluated at the zero-variance points.

    Closed form v̄ ± i·(mean(x·v) - m_n·v̄)/σ_n; identical to applying the
    complex-point kriging weights to the observations.  The real part is the
    arithmetic mean of the observations, exactly.
    """
    return _mean_components(sample)[1]


def complex_variance(sample: Sample) -> ComplexMoments:
    """Complex variance ω'v² - m̂², branchwise, with all intermediates.

    The weighted square applies the complex-point kriging weights to the
    squared observations; the plus branch of the variance pairs with the
    plus branch of the mean (one consistent evaluation point throughout).
    """
    mom, mean, a_hat = _mean_components(sample)
    # The design is not held, so its F is freed before v² is made and v² can reuse its memory.
    f = feature_vector(TrendBasis.linear(), mom.zero_variance_points.plus)
    weights = kriging_weights(build_design(TrendBasis.linear(), sample.covariates), None, f).weights
    v = sample.observations
    # v² in the real half of a complex array: the complex dot reads it with no cast of its own.
    v2 = np.zeros(v.size, complex)
    np.multiply(v, v, out=v2.real)
    return ComplexMoments(
        mean=mean,
        weighted_square=ConjugatePair(complex(np.dot(weights, v2))),
        real_se=_standard_error(mean.plus.real, v2.real),
        moments=mom,
        slope=a_hat,
    )


def real_standard_error(sample: Sample) -> float:
    """Standard error of the mean, sqrt((mean(v²) - v̄²)/n), 1/n convention."""
    v = sample.observations
    return _standard_error(float(np.mean(v)), v * v)


def _standard_error(vbar: float, v2: np.ndarray) -> float:
    """``real_standard_error`` of observations with mean ``vbar`` and squares ``v2``."""
    v2bar = float(np.mean(v2))
    return math.sqrt(max(v2bar - vbar * vbar, 0.0) / v2.size)


def imaginary_standard_error(sample: Sample) -> float:
    """Magnitude of the imaginary part of the complex mean, |slope|·σ_n."""
    return abs(complex_mean(sample).plus.imag)


def slope(sample: Sample) -> float:
    """Least-squares slope of the linear trend, (mean(x·v) - m_n·v̄)/σ_n²."""
    return _mean_components(sample)[2]


def constant_mean_variance(n: int, sigma2: float = 1.0) -> float:
    """Trend variance of the constant fit: σ²/n, positive for every finite n."""
    n = _count(n, "n")
    return float(_noise_scale(sigma2, "sigma2") / n)  # an int or Fraction σ² is divided exactly


__all__ = [
    "ComplexMoments",
    "DegenerateCovariates",
    "IndexMoments",
    "complex_mean",
    "complex_variance",
    "constant_mean_variance",
    "imaginary_standard_error",
    "index_moments",
    "real_standard_error",
    "slope",
    "zero_variance_points",
]
