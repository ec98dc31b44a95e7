"""Small dense linear-algebra kernels and conjugate-pair values.

Everything here is shared plumbing: a guarded Cholesky solve for the
symmetric positive-definite systems that appear in the trend fits, and a
container for complex results that come in conjugate pairs, which stores the
plus branch and derives the minus branch as its conjugate.
``solve_spd`` splits its work by the order k of the system:

- k <= ``_SMALL_ORDER`` (trend Gram matrices, a ``columns`` basis, a ``--lambda``
  file over a few dozen rows): a row-by-row Cholesky in Python floats, a few
  microseconds at k <= 2, sparing the 220–310 ms import of ``scipy.linalg``;
  the golden CLI output pins its bits at k <= 2;
- larger k (a dense Λ): LAPACK's ``dpotrf`` and ``dpotrs``, the only path that
  imports scipy, whose blocked factorization the loop cannot approach at large
  k (and numpy has no triangular solve).  A complex b is substituted as the
  float64 columns of its real and imaginary parts, so the real factor is never
  cast to complex.  It runs in scipy's own OpenBLAS
  (0.3.30 in scipy 1.17.1), not numpy's (0.3.31 in numpy 2.4.6); each library
  has its own threads.

``solve_spd`` keeps nothing between calls.  It is a factor step, ``_cholesky``,
then a substitution step, ``_substitute``: ``kriging`` keeps each design's
white-noise Gram factor, and the Λ⁻¹F and Gram factor that its dense queries
repeat.  Both paths read the lower triangle, and both add the relative pivot
guard that LAPACK lacks.  The package's one rule for a matrix's entries,
``check_symmetric``, runs in ``solve_spd``, not in ``_cholesky``: a Gram matrix
that ``kriging`` symmetrizes is factored unscanned.  It takes max|a| from two
reductions, ``a.max()`` and ``a.min()``, which a non-finite entry makes
non-finite, then scans the asymmetry in square tiles; neither step makes a
temporary of the matrix's size.  It returns max|a|, the scale of
``validation.kkt_solve``'s residual check.
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
# Edge of the square tiles in which ``check_symmetric`` scans a matrix.
_TILE = 128
# Largest order that ``solve_spd`` factors in Python floats, without importing scipy.
# The loop takes ~0.06 ms at order 11 and ~2.6 ms at order 64 (~0.07 and ~2.7 ms for two
# right-hand-side columns) against ~0.02 and ~0.05 ms for LAPACK with scipy loaded, far
# below the 220–310 ms import it avoids; above it LAPACK's speed matters more than the import.
_SMALL_ORDER = 64


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


def check_symmetric(a: np.ndarray) -> float:
    """Raise ValueError unless square ``a`` is finite and max|a - aᵀ| <= ``SYMMETRY_RTOL`` · max|a|; return max|a|.

    max|a| is ``max(a.max(), -a.min())``, two reductions that make no
    temporary; any NaN or infinity makes it non-finite, which raises before
    the asymmetry is scanned.  That scan subtracts each upper tile
    ``a[I, J]`` and ``a[J, I]ᵀ`` in ``_TILE``-square tiles, so it makes no
    temporary larger than a tile.
    """
    scale = max(float(a.max()), -float(a.min()))
    if not math.isfinite(scale):
        raise ValueError("matrix must be finite")
    n = a.shape[0]
    diff = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            tile = a[i : i + _TILE, j : j + _TILE] - a[j : j + _TILE, i : i + _TILE].T
            diff = max(diff, float(tile.max()), -float(tile.min()))
    if diff > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return scale


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    The argument checks and the scan of ``a``, then ``_cholesky(a)`` and ``_substitute`` of ``b``.
    Two factorizations share one contract, chosen by the order k of ``a``:
    k <= ``_SMALL_ORDER`` is a Cholesky loop in Python floats with one
    substitution per column of ``b`` (the trend Gram matrices and small Λ), so
    small systems never import scipy; larger k goes to LAPACK, faster there.

    Parameters
    ----------
    a : (k, k) array_like, real, finite and symmetric within ``SYMMETRY_RTOL``
        relative (``check_symmetric``: two reductions and a tiled scan, with
        no k×k temporary).  The factorization reads only the lower triangle,
        at every order; the scan has checked every upper entry against its
        mirror.
    b : (k,) or (k, m) array_like, real or complex

    Returns
    -------
    x with the shape and (promoted) dtype of ``b``.

    Raises
    ------
    NotPositiveDefinite
        If the Cholesky factorization fails, or a pivot (the squared diagonal
        of the factor) is not above ``PIVOT_RTOL`` times its own diagonal
        entry of ``a``.  Unlike a bare library factorization this flags
        *near*-degenerate systems, the signal for a rank-deficient trend
        design.
    ValueError
        For non-square, complex, non-finite or materially asymmetric input,
        text or a non-number in ``a`` or ``b``, or a ``b`` of any other shape.
    """
    a = _real_array(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    k = a.shape[0]
    b = _numeric_array(b, "right-hand side")
    if b.ndim not in (1, 2) or b.shape[0] != k:
        raise ValueError(f"right-hand side must have shape ({k},) or ({k}, m), got {b.shape}")
    check_symmetric(a)
    return _substitute(_cholesky(a), b)


def _cholesky(a: np.ndarray):
    """The factor step of ``solve_spd``, with no scan: the Cholesky factor of ``a`` behind the pivot
    guard, which also rejects the NaN or infinite pivot that a non-finite entry leaves.  Above
    ``_SMALL_ORDER`` it is LAPACK's blocked upper factor, an array.

    Up to it, a row-by-row Cholesky in Python floats gives the factor's rows below the diagonal
    and the reciprocals of its diagonal, two lists.  Row i of the factor is
    ``l_ij = (a_ij − Σ_{p<j} l_ip·l_jp) / √pivot_j`` for j < i, then the pivot
    ``a_ii − Σ_{p<i} l_ip²``, each sum taken left to right.  Each division is a multiplication by
    the reciprocal, as OpenBLAS's kernels do; only a's lower triangle is read.
    """
    if a.shape[0] > _SMALL_ORDER:
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
        return upper
    lower, recip = [], []
    for i, row in enumerate(a.tolist()):
        factor_row = []
        for j in range(i):
            s = row[j]
            for lip, ljp in zip(factor_row, lower[j]):
                s -= lip * ljp
            factor_row.append(s * recip[j])
        pivot = row[i]
        for lip in factor_row:
            pivot -= lip * lip
        # Written so that a NaN pivot, left by overflow, fails too.
        if not pivot > PIVOT_RTOL * row[i]:
            raise _not_positive_definite(i)
        recip.append(1.0 / math.sqrt(pivot))
        lower.append(factor_row)
    return lower, recip


def _substitute(factor, b: np.ndarray) -> np.ndarray:
    """The substitution step of ``solve_spd``: x = a⁻¹b from ``factor = _cholesky(a)``, in b's dtype
    (float64 or complex128).  LAPACK's factor goes to ``dpotrs``, a complex b as the float64
    columns of its real and imaginary parts (``zpotrs`` would cast the factor to complex); with
    the loop's, each column of b, as a list of Python numbers, is substituted forward and back alone."""
    if isinstance(factor, np.ndarray):
        from scipy.linalg.lapack import dpotrs

        if b.dtype == np.float64:
            return dpotrs(factor, b, lower=False)[0]
        columns = np.ascontiguousarray(b if b.ndim == 2 else b[:, None]).view(np.float64)
        return np.ascontiguousarray(dpotrs(factor, columns, lower=False)[0]).view(b.dtype).reshape(b.shape)
    lower, recip = factor
    k = len(lower)
    columns = [b.tolist()] if b.ndim == 1 else b.T.tolist()
    for y in columns:
        for i in range(k):
            s = y[i]
            for p in range(i):
                s -= lower[i][p] * y[p]
            y[i] = s * recip[i]
        for i in reversed(range(k)):
            s = y[i]
            for p in range(i + 1, k):
                s -= lower[p][i] * y[p]
            y[i] = s * recip[i]
    if b.ndim == 1:
        return np.array(columns[0], dtype=b.dtype)
    return np.array(columns, dtype=b.dtype).reshape(b.shape[::-1]).T.copy()  # b's shape, even at m = 0


def _numeric_array(values, what: str) -> np.ndarray:
    """The number rule: ``values`` as a float64 array, or a complex128 one if any entry is complex;
    a float64 or complex128 ndarray comes back as itself, and an object array is cast by its
    entries.  Text raises, as numpy and ``complex()`` would parse it ("1_0" as 10): a text dtype
    (a list holding any str makes one) or an object array holding str or bytes.  So do a number
    with no finite float (an int or ``Fraction`` past the float range) and a non-number."""
    x = np.asarray(values)
    if x.dtype == np.float64 or x.dtype == np.complex128:
        return x
    kind = x.dtype.kind
    if kind in "US" or (kind == "O" and any(isinstance(e, (str, bytes)) for e in x.flat)):
        raise ValueError(f"{what} must be numeric, not text")
    is_complex = kind == "c" or (kind == "O" and any(map(np.iscomplexobj, x.flat)))
    try:
        return x.astype(complex if is_complex else float)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{what} must be finite") from None
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be numeric") from None


def _real_array(values, what: str) -> np.ndarray:
    """The real-array rule: the number rule (``_numeric_array``), and a complex result, which a
    cast to float would cut, raises."""
    x = _numeric_array(values, what)
    if x.dtype.kind == "c":
        raise ValueError(f"{what} must be real")
    return x


def _not_positive_definite(j: int) -> NotPositiveDefinite:
    return NotPositiveDefinite(
        f"pivot at index {j} is not above {PIVOT_RTOL:g} of its diagonal entry; "
        "the system is numerically degenerate"
    )


__all__ = [
    "ConjugatePair",
    "NotPositiveDefinite",
    "solve_spd",
]
