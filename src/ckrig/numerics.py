"""Small dense linear-algebra kernels and conjugate-pair values.

Everything here is shared plumbing: a guarded Cholesky solve for the
symmetric positive-definite systems that appear in the trend fits, and a
two-branch container for complex results that come in conjugate pairs.
Systems of order 1 and 2 (constant and linear trend Gram matrices) are solved
by a written-out Cholesky; only larger ones go to LAPACK (``dpotrf``/``dpotrs``),
and only they import scipy.  Both paths add the relative pivot guard that LAPACK
lacks.  The package's one symmetry rule, ``check_symmetric`` with
``SYMMETRY_RTOL``, lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative symmetry slack accepted on input matrices.
SYMMETRY_RTOL = 1e-12
# A Cholesky pivot at or below this fraction of its own diagonal entry is treated
# as degenerate (not positive definite); the ratio does not move when a column is rescaled.
PIVOT_RTOL = 1e-14


class NotPositiveDefinite(ValueError):
    """Raised when a matrix expected to be SPD fails the pivot guard."""


@dataclass(frozen=True)
class ConjugatePair:
    """A complex value together with its opposite-branch twin.

    ``plus`` is the branch built with the positive imaginary contribution;
    for real input data ``minus`` is exactly its complex conjugate.
    """

    plus: complex
    minus: complex

    @classmethod
    def from_plus(cls, value: complex) -> "ConjugatePair":
        value = complex(value)
        return cls(plus=value, minus=value.conjugate())

    def branch(self, name: str) -> complex:
        if name == "plus":
            return self.plus
        if name == "minus":
            return self.minus
        raise ValueError(f"unknown branch {name!r}")


def check_symmetric(a: np.ndarray) -> None:
    """Raise ValueError unless max|a - aᵀ| <= ``SYMMETRY_RTOL`` · max|a|; NaN passes."""
    scale = float(np.max(np.abs(a)))
    if scale > 0.0 and float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    Parameters
    ----------
    a : (k, k) array_like, real, symmetric within ``SYMMETRY_RTOL`` relative
    b : (k,) or (k, m) array_like, real or complex

    Returns
    -------
    x with the shape and (promoted) dtype of ``b``.

    Raises
    ------
    NotPositiveDefinite
        If the Cholesky factorization fails, or a pivot (the squared diagonal
        of the factor) is not above ``PIVOT_RTOL`` times its own diagonal
        entry of ``a``; non-finite entries fail the same way.  Unlike a bare
        library factorization this flags *near*-degenerate systems, the
        signal for a rank-deficient trend design.
    ValueError
        For non-square or materially asymmetric input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    check_symmetric(a)

    b = np.asarray(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    b = b.astype(complex if np.iscomplexobj(b) else float, copy=False)

    k = a.shape[0]
    if k > 2:
        from scipy.linalg import cho_solve
        from scipy.linalg.lapack import dpotrf

        lower, info = dpotrf(a, lower=True, clean=False)
        # Written so that NaN pivots fail; past a LAPACK failure the factor is unfinished.
        failed = ~(np.diagonal(lower) ** 2 > PIVOT_RTOL * np.diagonal(a))
        if info > 0:
            failed[info - 1 :] = True
        if failed.any():
            raise _not_positive_definite(int(np.argmax(failed)))
        return cho_solve((lower, True), b, check_finite=False)

    # Orders 1 and 2 written out.  Each division is a multiplication by the
    # reciprocal, as OpenBLAS's kernels do, which keeps the factor equal to dpotrf's.
    a00 = float(a[0, 0])
    if not a00 > PIVOT_RTOL * a00:
        raise _not_positive_definite(0)
    r00 = 1.0 / math.sqrt(a00)
    if k == 1:
        return b * r00 * r00
    y0 = b[0] * r00
    l10 = float(a[1, 0]) * r00
    a11 = float(a[1, 1])
    pivot = a11 - l10 * l10
    if not pivot > PIVOT_RTOL * a11:
        raise _not_positive_definite(1)
    r11 = 1.0 / math.sqrt(pivot)
    x = np.empty_like(b)
    x[1] = (b[1] - l10 * y0) * r11 * r11
    x[0] = (y0 - l10 * x[1]) * r00
    return x


def _not_positive_definite(j: int) -> NotPositiveDefinite:
    return NotPositiveDefinite(
        f"pivot at index {j} is not above {PIVOT_RTOL:g} of its diagonal entry; "
        "the system is numerically degenerate"
    )
