"""Small dense linear-algebra kernels and conjugate-pair values.

Everything here is shared plumbing: a guarded Cholesky solve for the
symmetric positive-definite systems that appear in the trend fits, and a
two-branch container for complex results that come in conjugate pairs.
LAPACK (``dpotrf``/``dpotrs``) does the factoring and the solve; this module
adds the relative pivot guard that LAPACK lacks.  The package's one symmetry
rule, ``check_symmetric`` with ``SYMMETRY_RTOL``, lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

# Relative symmetry slack accepted on input matrices.
SYMMETRY_RTOL = 1e-12
# A Cholesky pivot at or below this fraction of the largest diagonal entry
# is treated as a degenerate (not positive definite) system.
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
        If LAPACK's Cholesky factorization fails, or a pivot (the squared
        diagonal of the factor) is not above ``PIVOT_RTOL`` times the largest
        diagonal entry of ``a``; non-finite entries fail the same way.  Unlike
        a bare library factorization this flags *near*-degenerate systems,
        the signal for a rank-deficient trend design.
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
    if not np.iscomplexobj(b):
        b = b.astype(float, copy=False)

    lower, info = dpotrf(a, lower=True, clean=False)
    # Written so that NaN pivots fail; past a LAPACK failure the factor is unfinished.
    failed = ~(np.diagonal(lower) ** 2 > PIVOT_RTOL * float(np.max(np.diagonal(a))))
    if info > 0:
        failed[info - 1 :] = True
    if failed.any():
        j = int(np.argmax(failed))
        raise NotPositiveDefinite(
            f"pivot at index {j} is not above {PIVOT_RTOL:g} of the largest diagonal "
            "entry; the system is numerically degenerate"
        )
    return cho_solve((lower, True), b, check_finite=False)
