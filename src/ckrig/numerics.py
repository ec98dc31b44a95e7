"""Small dense linear-algebra kernels and conjugate-pair values.

Everything here is shared plumbing: a guarded Cholesky solve for the
symmetric positive-definite systems that appear in the trend fits, and a
container for complex results that come in conjugate pairs, which stores the
plus branch and derives the minus branch as its conjugate.
Systems of order 1 and 2 (constant and linear trend Gram matrices) are solved
by a written-out Cholesky; only larger ones go to LAPACK (``dpotrf``/``dpotrs``),
and only they import scipy.  Every order reads the lower triangle, and both
paths add the relative pivot guard that LAPACK lacks.  The package's one
symmetry rule, ``check_symmetric`` with ``SYMMETRY_RTOL``, lives here too; it
decides order 2 from the one off-diagonal pair and scans larger matrices in
square tiles, so it makes no temporary of the matrix's size.
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
# Edge of the square tiles in which ``check_symmetric`` scans matrices of order > 2.
_TILE = 128


class NotPositiveDefinite(ValueError):
    """Raised when a matrix expected to be SPD fails the pivot guard."""


@dataclass(frozen=True)
class ConjugatePair:
    """A complex result and its conjugate twin, stored by the plus branch.

    ``plus`` is the branch built with the positive imaginary contribution;
    for real input data the other branch is exactly its complex conjugate,
    so ``minus`` is derived rather than stored.
    """

    plus: complex

    @property
    def minus(self) -> complex:
        return self.plus.conjugate()


def check_symmetric(a: np.ndarray) -> None:
    """Raise ValueError unless max|a - aᵀ| <= ``SYMMETRY_RTOL`` · max|a| for square ``a``.

    A matrix with a NaN or ±inf entry passes, so that the pivot guard of
    ``solve_spd`` fails it.  Order 2 is decided from the one off-diagonal pair.
    Larger matrices are scanned in ``_TILE``-square tiles, each upper tile
    ``a[I, J]`` against ``a[J, I]ᵀ`` with both scales in the same pass, so the
    scan makes no temporary larger than a tile.
    """
    n = a.shape[0]
    if n <= 2:
        if n == 2:
            a00, a01, a10, a11 = a.ravel().tolist()
            # A NaN or inf off the diagonal makes the difference NaN or the scale
            # inf, so the comparison is false; Python's max may drop a NaN on the
            # diagonal, which is therefore tested apart.
            scale = max(abs(a00), abs(a01), abs(a10), abs(a11))
            if abs(a01 - a10) > SYMMETRY_RTOL * scale and math.isfinite(a00) and math.isfinite(a11):
                raise _not_symmetric()
        return
    diff = scale = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = a[i : i + _TILE, j : j + _TILE]
            lower = a[j : j + _TILE, i : i + _TILE].T
            tile_scale = np.max(np.abs(upper))
            if j > i:
                # np.maximum keeps a NaN in either place; Python's max drops it in the second.
                tile_scale = np.maximum(tile_scale, np.max(np.abs(lower)))
            if not np.isfinite(tile_scale):
                return
            scale = max(scale, float(tile_scale))
            diff = max(diff, float(np.max(np.abs(upper - lower))))
    if diff > SYMMETRY_RTOL * scale:
        raise _not_symmetric()


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    Parameters
    ----------
    a : (k, k) array_like, real, symmetric within ``SYMMETRY_RTOL`` relative
        (``check_symmetric``, a tiled scan that makes no k×k temporary).  The
        factorization reads only the lower triangle, at every order.
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

        # aᵀ is Fortran-ordered, so f2py copies it without transposing, and its
        # upper triangle is a's lower one.
        upper, info = dpotrf(a.T, lower=False, clean=False)
        # Written so that NaN pivots fail; past a LAPACK failure the factor is unfinished.
        failed = ~(np.diagonal(upper) ** 2 > PIVOT_RTOL * np.diagonal(a))
        if info > 0:
            failed[info - 1 :] = True
        if failed.any():
            raise _not_positive_definite(int(np.argmax(failed)))
        return cho_solve((upper, False), b, check_finite=False)

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


def _not_symmetric() -> ValueError:
    return ValueError("matrix is not symmetric within tolerance")


def _not_positive_definite(j: int) -> NotPositiveDefinite:
    return NotPositiveDefinite(
        f"pivot at index {j} is not above {PIVOT_RTOL:g} of its diagonal entry; "
        "the system is numerically degenerate"
    )
