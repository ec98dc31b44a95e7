"""Complex-valued mean and variance of a noisy linear trend.

The trend variance of a linear fit, read as a bilinear quadratic in the
evaluation point j, is (j² - 2·m_n·j + m_sn)/(n·σ_n²) and vanishes at the
conjugate points j = m_n ± i·σ_n built from the covariate moments.
Evaluating the fit there turns the sample into a complex mean whose real
part is the plain average and whose imaginary part carries the slope, and
into a complex variance via the weighted square of the observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kriging import (
    Sample,
    TrendBasis,
    _noise_scale,
    _real_vector,
    build_design,
    feature_vector,
    kriging_weights,
)
from .numerics import ConjugatePair

# Covariate spread at or below this (relative to the covariate mean) leaves
# no imaginary direction to continue into.
DEGENERATE_SPREAD_RTOL = 1e-14


class DegenerateCovariates(ValueError):
    """Raised when the covariates have (numerically) zero spread."""


@dataclass(frozen=True)
class IndexMoments:
    """First and second covariate moments and their standard deviation."""

    m_n: float
    m_sn: float
    sigma_n: float


@dataclass(frozen=True)
class ComplexMoments:
    """Complex mean and variance of a sample, with the intermediates.

    ``weighted_square`` is the kriging-weighted square of the observations
    at the zero-variance point; ``real_se`` and ``imag_se`` are the standard
    errors of the real and imaginary parts of the mean (the imaginary one is
    |slope|·σ_n, reported as a magnitude).  ``moments``,
    ``zero_variance_points`` and ``slope`` come from the same moment pass.
    """

    mean: ConjugatePair
    variance: ConjugatePair
    weighted_square: ConjugatePair
    real_se: float
    imag_se: float
    moments: IndexMoments
    zero_variance_points: ConjugatePair
    slope: float


def index_moments(covariates) -> IndexMoments:
    """Sample moments m_n = mean(x), m_sn = mean(x²), σ_n = sqrt(m_sn - m_n²)."""
    x = _real_vector(covariates, "covariates")
    m_n = float(np.mean(x))
    m_sn = float(np.mean(x * x))
    spread = max(m_sn - m_n * m_n, 0.0)
    return IndexMoments(m_n=m_n, m_sn=m_sn, sigma_n=math.sqrt(spread))


def _nondegenerate_moments(covariates) -> IndexMoments:
    # Moments that overflow give a NaN or infinite σ_n; that fails here, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        mom = index_moments(covariates)
    if not DEGENERATE_SPREAD_RTOL * max(1.0, abs(mom.m_n)) < mom.sigma_n < math.inf:
        raise DegenerateCovariates(
            "covariates have no finite spread; at least two distinct values are required"
        )
    return mom


def _roots(mom: IndexMoments) -> ConjugatePair:
    return ConjugatePair(plus=complex(mom.m_n, mom.sigma_n), minus=complex(mom.m_n, -mom.sigma_n))


def zero_variance_points(covariates) -> ConjugatePair:
    """The conjugate roots m_n ± i·σ_n of the trend-variance quadratic."""
    return _roots(_nondegenerate_moments(covariates))


def _mean_components(sample: Sample) -> tuple[IndexMoments, float, float]:
    """(moments, v̄, mean(x·v) - m_n·v̄) shared by the mean and the slope."""
    mom = _nondegenerate_moments(sample.covariates)
    vbar = float(np.mean(sample.observations))
    xvbar = float(np.mean(sample.covariates * sample.observations))
    return mom, vbar, xvbar - mom.m_n * vbar


def complex_mean(sample: Sample) -> ConjugatePair:
    """Trend fit evaluated at the zero-variance points.

    Closed form v̄ ± i·(mean(x·v) - m_n·v̄)/σ_n; identical to applying the
    complex-point kriging weights to the observations.  The real part is the
    arithmetic mean of the observations, exactly.
    """
    mom, vbar, cov = _mean_components(sample)
    return ConjugatePair.from_plus(complex(vbar, cov / mom.sigma_n))


def complex_variance(sample: Sample) -> ComplexMoments:
    """Complex variance ω'v² - m̂², branchwise, with all intermediates.

    The weighted square applies the complex-point kriging weights to the
    squared observations; the plus branch of the variance pairs with the
    plus branch of the mean (one consistent evaluation point throughout).
    """
    mom, vbar, cov = _mean_components(sample)
    mean = ConjugatePair.from_plus(complex(vbar, cov / mom.sigma_n))
    points = _roots(mom)
    basis = TrendBasis.linear()
    design = build_design(basis, sample.covariates)
    solution = kriging_weights(design, None, feature_vector(basis, points.plus))
    wsq_plus = complex(np.dot(solution.weights, sample.observations**2))

    return ComplexMoments(
        mean=mean,
        variance=ConjugatePair.from_plus(wsq_plus - mean.plus**2),
        weighted_square=ConjugatePair.from_plus(wsq_plus),
        real_se=real_standard_error(sample),
        imag_se=abs(mean.plus.imag),
        moments=mom,
        zero_variance_points=points,
        slope=cov / (mom.sigma_n * mom.sigma_n),
    )


def real_standard_error(sample: Sample) -> float:
    """Standard error of the mean, sqrt((mean(v²) - v̄²)/n), 1/n convention."""
    v = sample.observations
    vbar = float(np.mean(v))
    v2bar = float(np.mean(v * v))
    return math.sqrt(max(v2bar - vbar * vbar, 0.0) / v.size)


def imaginary_standard_error(sample: Sample) -> float:
    """Magnitude of the imaginary part of the complex mean, |slope|·σ_n."""
    return abs(complex_mean(sample).plus.imag)


def slope(sample: Sample) -> float:
    """Least-squares slope of the linear trend, (mean(x·v) - m_n·v̄)/σ_n²."""
    mom, _, cov = _mean_components(sample)
    return cov / (mom.sigma_n * mom.sigma_n)


def constant_mean_variance(n: int, sigma2: float = 1.0) -> float:
    """Trend variance of the constant fit: σ²/n, positive for every finite n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _noise_scale(sigma2, "sigma2") / n


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
