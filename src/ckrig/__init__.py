"""Kriging under white noise with polynomial trends, continued to complex points.

The estimator of the trend at an evaluation point is the best linear
unbiased combination of the observations.  For a linear trend the variance
of that estimator, read as a bilinear quadratic in the point, has a
conjugate pair of complex roots built from the covariate moments; evaluating
the predictor there yields complex-valued mean and variance statistics whose
real parts are the classical ones.  This package provides the linear-algebra
core, the complex-point statistics, Monte-Carlo validation machinery, and a
CLI.  Each module's ``__all__`` names its public objects; the package
re-exports them all.
"""

from . import kriging, moments, numerics, validation
from .kriging import *  # noqa: F403
from .moments import *  # noqa: F403
from .numerics import *  # noqa: F403
from .validation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = kriging.__all__ + moments.__all__ + numerics.__all__ + validation.__all__
