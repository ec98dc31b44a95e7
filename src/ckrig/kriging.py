"""Best linear unbiased prediction under white noise with a polynomial trend.

The observations are modelled as a known trend (constant, linear, or
user-supplied basis columns) plus zero-mean stationary noise.  The predictor
at an evaluation point is the weighted combination of observations whose
weights minimize the prediction error variance subject to unbiasedness; the
weights, the Lagrange multipliers of the constraint, the generalized
least-squares trend coefficients, and the trend variance all come out of one
small SPD system built from the design matrix.  Under white noise that
system's matrix F'F depends on the design alone, so a ``DesignMatrix`` forms
and factors it once and each query only substitutes; a degenerate design
raises, and an ill-conditioned one warns, on every query.  Both noise kinds
query one kept system, (Λ⁻¹F, factor of F'Λ⁻¹F, equilibrated condition).  For
a dense correlation matrix Λ the last system is kept next to a private copy
of Λ and the design's own F, so a caller that repeats one Λ and F at many
points has Λ scanned and solved, and its Gram matrix formed and factored, on
its first call only; a repeat is confirmed by comparing every entry's bits
with the kept ones (one C ``memcmp`` when Λ has the copy's strides, else one
numpy compare), and the copy of Λ holds n²·8 bytes until another Λ arrives.

A solution holds O(k) state: g = (F'Λ⁻¹F)⁻¹f, the multipliers -g and a reference to
the kept, read-only Λ⁻¹F, not its n weights Λ⁻¹F·g.  The weights are formed on the first
read of ``KrigingSolution.weights`` and kept in place of that reference; ``predict`` and
``prediction_error_variance`` form them into a temporary when none are kept.  So solutions
kept past a ``predict`` with their weights never read, a grid of predictions, hold no n-sized
array; a caller that applies one solution to many observation vectors reads ``weights`` once,
or every call forms the weights again (at n = 10^5 ~0.2 ms at a real point and ~2 ms at a
complex one, where the product alone takes ~0.02 and ~0.17 ms).

Evaluation points may be complex.  A complex point's weights, the real Λ⁻¹F times a complex
vector, are formed in blocks of rows through one reused complex buffer, with the bits of the
plain product and no n×k complex copy of the system.  Every quadratic form in this module is
bilinear (plain transposition, no conjugation): that is the analytic
continuation under which the trend variance has complex roots, and it is
deliberate.  A Hermitian form would be strictly positive at those roots.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .numerics import _cholesky, _numeric_array, _real_array, _substitute, check_symmetric, solve_spd

# Warn (do not fail) when the trend Gram matrix is worse conditioned than this.
GRAM_CONDITION_LIMIT = 1e8

CORRELATION_DIAGONAL_ATOL = 1e-12


class EmptySample(ValueError):
    """Raised when covariates or observations are empty."""


class DegenerateDesign(ValueError):
    """Raised when the trend design is rank deficient (e.g. all covariates equal)."""


class UnsupportedComplexBasis(ValueError):
    """Raised when a column basis is asked for a feature at a complex point."""


class LengthMismatch(ValueError):
    """Raised when observations do not match the weight vector length."""


class GramConditionWarning(RuntimeWarning):
    """Emitted when the trend Gram matrix condition estimate exceeds the guard."""


@dataclass(frozen=True)
class Sample:
    """Paired covariates and observations, both real and of equal length."""

    covariates: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        for name in ("covariates", "observations"):
            # A private copy: freezing the caller's own array would make it read-only.
            values = _real_vector(np.array(getattr(self, name)), name)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        x, v = self.covariates, self.observations
        if x.shape != v.shape:
            raise LengthMismatch(
                f"covariates {x.shape} and observations {v.shape} must be equal-length vectors"
            )

    @property
    def n(self) -> int:
        return self.covariates.size


@dataclass(frozen=True)
class TrendBasis:
    """The regression functions of the trend.

    ``constant`` fits a single mean level, ``linear`` an intercept plus
    slope.  ``columns`` takes arbitrary user functions of the covariate;
    such bases are restricted to real evaluation points unless the caller
    supplies feature values directly.
    """

    kind: str
    functions: tuple = field(default=(), repr=False)

    _KINDS = ("constant", "linear", "columns")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.kind == "columns" and len(self.functions) == 0:
            raise ValueError("columns basis needs at least one function")

    @classmethod
    def constant(cls) -> "TrendBasis":
        return cls("constant")

    @classmethod
    def linear(cls) -> "TrendBasis":
        return cls("linear")

    @classmethod
    def columns(cls, *functions: Callable[[float], float]) -> "TrendBasis":
        return cls("columns", tuple(functions))


@dataclass(frozen=True)
class DesignMatrix:
    """The n-by-k matrix of trend basis values at the sample covariates.

    ``F`` must be a finite, non-empty real matrix.  The design keeps a
    private read-only float copy of it, so writes to the caller's array reach
    neither the design nor its white-noise system: the factor of F'F, formed
    on the first white-noise query and reused by every later one.
    """

    F: np.ndarray

    def __post_init__(self):
        # A private copy, as Sample keeps: the cached Gram factor must not go stale.
        F = _real_array(np.array(self.F), "design matrix")
        if F.ndim != 2 or F.size == 0:
            raise ValueError(f"design matrix must be a non-empty n-by-k matrix, got shape {F.shape}")
        if not np.isfinite(F).all():
            raise ValueError("design matrix must be finite")
        F.flags.writeable = False
        object.__setattr__(self, "F", F)

    @classmethod
    def _adopt(cls, F: np.ndarray) -> "DesignMatrix":
        """The design over ``F`` without a copy: ``F`` is a fresh read-only float array held by no one else."""
        design = object.__new__(cls)
        object.__setattr__(design, "F", F)
        return design

    @cached_property
    def _white_system(self):
        """(F, factor of F'F, equilibrated condition): the system of every white-noise query, whose
        condition is re-reported on each; a degenerate design raises on each (a raise caches nothing)."""
        return (self.F, *_gram_factor(self.F, self.F))

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def k(self) -> int:
        return self.F.shape[1]


@dataclass(frozen=True)
class KrigingSolution:
    """Weights, multipliers and the variance quadratic for one evaluation point.

    ``weights`` applied to the observations give the prediction;
    ``multipliers`` are the Lagrange multipliers of the unbiasedness
    constraint; ``variance_factor`` is the bilinear quadratic f'(F'Λ⁻¹F)⁻¹f
    whose product with the noise variance is the trend variance.
    ``beta_hat`` is filled when observations were supplied to the solver.

    A solution from ``kriging_weights`` holds g = (F'Λ⁻¹F)⁻¹f and a reference
    to the read-only Λ⁻¹F of its query, not n weights: the weights Λ⁻¹F·g are
    formed on the first read of ``weights``, kept, and returned by every later
    read, writeable and the caller's; the solution then drops its reference to
    Λ⁻¹F.  Weights given to the constructor are kept as given.  ``predict`` and
    ``prediction_error_variance`` use kept weights, and otherwise form them into
    a temporary that they do not keep: read ``weights`` once before applying one
    solution many times.
    """

    weights: np.ndarray
    multipliers: np.ndarray
    variance_factor: complex
    beta_hat: Optional[np.ndarray] = None

    @classmethod
    def _deferred(cls, system: np.ndarray, g: np.ndarray, variance_factor: complex, beta_hat) -> "KrigingSolution":
        """The solution whose weights are ``system @ g``, formed when first read; ``g`` is held by no one else."""
        solution = object.__new__(cls)
        vars(solution).update(multipliers=-g, variance_factor=variance_factor, beta_hat=beta_hat, _pending=(system, g))
        return solution


def _solution_weights(solution: KrigingSolution, keep: bool) -> np.ndarray:
    """The solution's weights: the kept ones, else ``system @ g``, kept when ``keep`` and otherwise a temporary.

    Keeping drops the pending (system, g), so a read solution pins n weights and no n×k system.  The
    weights are stored before the pair is dropped: a racing read that finds no pair finds them.
    """
    state = vars(solution)
    pending = state.get("_pending")
    if pending is None:
        return state["_weights"]
    weights = _system_times(*pending)
    if keep:
        # setdefault: of two racing first reads, one array is kept and both return it.
        weights = state.setdefault("_weights", weights)
        state.pop("_pending", None)
    return weights


def _set_weights(solution: KrigingSolution, weights) -> None:
    # Reached only from the dataclass's __init__: its frozen __setattr__ stops every other assignment.
    vars(solution)["_weights"] = weights


# Set past the decorator, which would read a property in the class body as the field's default; the
# field stays in __init__, repr, eq and ``dataclasses.fields``.
KrigingSolution.weights = property(lambda solution: _solution_weights(solution, keep=True), _set_weights)


def build_design(basis: TrendBasis, covariates) -> DesignMatrix:
    """Evaluate the trend basis at every covariate.

    Constant gives a column of ones, linear the columns [1, x], written in
    place into one C-ordered array; a columns basis evaluates each user
    function per covariate, and its values must be finite.
    """
    x = _real_vector(covariates, "covariates")
    if basis.kind == "constant":
        F = np.ones((x.size, 1))
    elif basis.kind == "linear":
        F = np.empty((x.size, 2))
        F[:, 0] = 1.0
        F[:, 1] = x
    else:
        F = _column_values(basis, x)
    F.flags.writeable = False
    return DesignMatrix._adopt(F)


def feature_vector(basis: TrendBasis, point) -> np.ndarray:
    """Trend basis values at a single (possibly complex) evaluation point.

    Constant yields (1,), linear (1, point).  Column bases have no implied
    complex extension, so a nonzero imaginary part raises
    :class:`UnsupportedComplexBasis`; real points evaluate the user columns,
    whose values must be finite.  A text point, or a list or array point (ndim > 0), raises
    ``ValueError``.
    """
    x = _numeric_array(point, "evaluation point")
    if x.ndim:
        raise ValueError("evaluation point must be one number")
    z = complex(x)
    if not cmath.isfinite(z):
        raise ValueError("evaluation point must be finite")
    if basis.kind == "constant":
        return np.array([1.0])
    if basis.kind == "linear":
        if z.imag == 0.0:
            return np.array([1.0, z.real])
        return np.array([1.0, z])
    if z.imag != 0.0:
        raise UnsupportedComplexBasis(
            "column bases are only defined at real points; supply complex "
            "feature values directly if the extension is known"
        )
    return _column_values(basis, [z.real])[0]


def _column_values(basis: TrendBasis, points) -> np.ndarray:
    """A columns basis at real ``points``, one row per point; every value must be one finite real
    number, and text is not one (``numerics._real_array``)."""
    F = _real_array([[fn(p) for fn in basis.functions] for p in points], "basis values")
    if F.shape != (len(points), len(basis.functions)):
        raise ValueError("each basis function must return one number")
    if not np.isfinite(F).all():
        raise ValueError("basis values must be finite")
    return F


def _real_vector(values, what: str) -> np.ndarray:
    """The sample-vector rule: ``values`` as a non-empty, one-dimensional, finite real array."""
    x = np.atleast_1d(_real_array(values, what))
    if x.size == 0:
        raise EmptySample(f"no {what}")
    if x.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


def _feature_values(feature, k: int) -> np.ndarray:
    """The feature-vector rule: k finite (real or complex) trend basis values."""
    f = _numeric_array(feature, "feature vector")
    f = f.reshape(1) if f.ndim == 0 else f
    if f.shape != (k,):
        raise LengthMismatch(f"feature vector must have length {k}, got {f.shape}")
    if not _all_finite(f):
        raise ValueError("feature vector must be finite")
    return f


def _count(value, what: str, low: int = 1, high: Optional[int] = None) -> int:
    """The count rule: an integer (``operator.index``; a bool is not a count) in [low, high)."""
    if isinstance(value, bool):  # numpy bools already fail operator.index
        raise ValueError(f"{what} must be an integer, not a bool")
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{what} must be at least {low}")
    if high is not None and count >= high:
        raise ValueError(f"{what} must be below {high}")
    return count


def _noise_scale(value, what: str):
    """The noise-scale rule for σ² and σ: a real number, not a bool, non-negative and with a finite
    float (NaN fails the bound; an int or ``Fraction`` past the float range has no float).  Returns
    a numpy scalar as its Python number, so that a float32 σ² scales a result in double precision."""
    # Text and complex values would fail to compare.  float is named first, as the check
    # against the abstract class alone takes ~1 µs, and each trend_variance call pays it.
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        finite = 0.0 <= value and float(value) < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{what} must be finite and non-negative")
    return value.item() if isinstance(value, np.generic) else value


def _all_finite(values) -> bool:
    """Whether each entry of a small array or numpy scalar is finite, read as Python numbers."""
    entries = values.tolist()  # a numpy scalar gives one Python number, not a list
    return all(map(cmath.isfinite, entries)) if isinstance(entries, list) else cmath.isfinite(entries)


@np.errstate(invalid="ignore", over="ignore")  # as a decorator it costs ~0.5 µs less than a with-block
def _weigh_observations(weights: np.ndarray, obs):
    """The observation rule: ``weights @ v`` for real v of matching length, raising unless finite.
    A non-finite v makes every entry non-finite (0·inf is NaN), so the O(k) result is checked."""
    v = _real_array(obs, "observations")
    v = v.reshape(1) if v.ndim == 0 else v
    if v.shape != weights.shape[-1:]:
        raise LengthMismatch(f"expected {weights.shape[-1]} observations, got {v.shape}")
    weighted = np.dot(weights, v)
    if not _all_finite(weighted):
        raise ValueError("observations must be finite, and their weighted sums must not overflow")
    return weighted


def _check_correlation(corr, n: int) -> np.ndarray:
    """Real dtype, shape and unit diagonal of Λ.  Finiteness and symmetry are
    ``numerics.check_symmetric``, run by ``solve_spd`` or, where Λ is not solved
    with, by the caller."""
    lam = _real_array(corr, "correlation matrix")
    if lam.shape != (n, n):
        raise ValueError(f"correlation matrix must be {n}x{n}, got {lam.shape}")
    if float(np.max(np.abs(np.diagonal(lam) - 1.0))) > CORRELATION_DIAGONAL_ATOL:
        raise ValueError("correlation matrix must have a unit diagonal")
    return lam


def _real_matrix_times(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Λω for a real Λ, formed from Re ω and Im ω: Λ @ ω with a complex ω would cast Λ to an
    n×n complex temporary.  Each product runs in numpy's own einsum loop, not BLAS: numpy's
    OpenBLAS threads spin for a while after a ``dgemv``, and that halved the speed of scipy's
    own OpenBLAS in the next dense factorization.  The loop sets no floating-point flag, so an
    overflow is warned of here; every caller has checked that Λ is finite."""
    product = np.einsum("ij,j->i", lam, np.ascontiguousarray(w.real))
    if np.iscomplexobj(w):
        product = product + 1j * np.einsum("ij,j->i", lam, np.ascontiguousarray(w.imag))
    if not np.isfinite(product).all() and np.isfinite(w).all():
        warnings.warn("overflow encountered in the correlation product Λω", RuntimeWarning, stacklevel=3)
    return product


# Rows per block of a complex-point product: 512 KB of complex buffer at k = 2 (measured).
_PRODUCT_ROWS = 1 << 14


def _system_times(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``A @ g``, bit for bit, for the real n×k kept system A; for a complex g, with no n×k complex
    copy of A.  Blocks of R rows are cast into one reused C-ordered buffer, as numpy's own cast is,
    and run the same ``zgemv``.  The last block takes the remainder (R to 2R − 1 rows): a one-row
    block takes numpy's dot path, whose bits differ at k ≥ 3.  Under 2R rows it is ``A @ g``."""
    n, R = A.shape[0], _PRODUCT_ROWS
    if g.dtype.kind != "c" or n < 2 * R:
        return A @ g
    out, buffer = np.empty(n, complex), np.empty((R + n % R, A.shape[1]), complex)
    for start in range(0, n - n % R, R):
        rows = slice(start, n if start + 2 * R > n else start + R)
        block = buffer[: rows.stop - start]
        block[...] = A[rows]
        np.matmul(block, g, out=out[rows])
    return out


def _gram(F: np.ndarray, lam_inv_F: np.ndarray) -> np.ndarray:
    gram = F.T @ lam_inv_F
    # Symmetrize: the solve leaves roundoff-level asymmetry behind.
    return 0.5 * (gram + gram.T)


def _whitened_design(design: DesignMatrix, corr):
    """Return the trend system (Λ⁻¹F, factor of F'Λ⁻¹F, equilibrated condition), raising
    ``DegenerateDesign`` for a rank-deficient design.  ``corr=None`` is white noise: the design's
    own system, (F, the factor of F'F), formed and factored on its first query.  A dense Λ has
    its shape and diagonal checked on every call, and never touches the design's system.

    Kriging queries one Λ at many points, so every dense system is kept: Λ⁻¹F, read-only, and
    the factor and condition of its Gram matrix, next to a private read-only copy of Λ and the
    design's F (itself private and read-only).  Each later call with the same entries is neither
    scanned, solved, formed nor factored again.  A repeat is confirmed by comparing the bits of
    every entry (0.0 and -0.0 differ): one ``memcmp`` of Λ's memory when Λ has the copy's strides,
    else one numpy compare, with a temporary of one byte per entry.  Equal entries in any memory
    order share the kept system, as ``solve_spd`` gives them the same bits.
    The first call copies Λ after its solve (~3 ms at n = 2000), and the copy holds n²·8 bytes
    (32 MB at n = 2000) until a call with another Λ releases it before it solves.  A failing Λ,
    or a degenerate design, raises before anything is kept."""
    global _LAST_WHITENING
    if corr is None:
        return design._white_system
    lam = _check_correlation(corr, design.n)
    F = design.F
    kept = _LAST_WHITENING
    if kept is not None and _same_bits(kept[0], lam) and _same_bits(kept[1], F):
        return kept[2:]
    # Released before the solve, so that the old copy and LAPACK's factor are never held at once.
    kept = _LAST_WHITENING = None
    lam_inv_F = solve_spd(lam, F)
    # Kept without a copy: callers receive only new arrays made from it.
    lam_inv_F.flags.writeable = False
    system = (lam_inv_F, *_gram_factor(F, lam_inv_F))
    lam_copy = np.array(lam)  # order "K": an F-ordered Λ is copied, and later compared, along its memory
    lam_copy.flags.writeable = False
    # One tuple, assigned whole, so threads need no lock: a race loses a kept system, and never
    # pairs one system's Λ and F with another's solution.
    _LAST_WHITENING = (lam_copy, F, *system)
    return system


# None, or (read-only copy of Λ, the design's F, read-only Λ⁻¹F, factor of F'Λ⁻¹F, its equilibrated
# condition) of the last dense whitening.
_LAST_WHITENING = None


# The C library's memcmp, bound once; None where it cannot be, and ``_same_bits`` compares in numpy.
try:
    import ctypes
    _memcmp = (ctypes.cdll.msvcrt if os.name == "nt" else ctypes.CDLL(None)).memcmp
    _memcmp.argtypes, _memcmp.restype = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t), ctypes.c_int
except (ImportError, OSError, AttributeError, TypeError):
    _memcmp = None


def _same_bits(kept: np.ndarray, x: np.ndarray) -> bool:
    """Whether float64 matrix ``x`` has ``kept``'s shape and the bits of each of its entries: one
    ``memcmp`` when ``kept`` is contiguous and ``x`` has its strides, else (or without the binding)
    one numpy compare of the uint64 views, whose boolean temporary takes one byte per entry."""
    if kept.shape != x.shape:
        return False
    if _memcmp is not None and (kept.flags.c_contiguous or kept.flags.f_contiguous) and x.strides == kept.strides:
        return _memcmp(kept.ctypes.data, x.ctypes.data, x.nbytes) == 0
    return np.array_equal(kept.view(np.uint64), x.view(np.uint64))


def _gram_factor(F: np.ndarray, lam_inv_F: np.ndarray):
    """(factor, equilibrated condition) of the Gram matrix F'Λ⁻¹F, the one place that forms and factors it."""
    gram = _gram(F, lam_inv_F)
    # Not scanned: exactly symmetric as formed, and an overflowed or NaN entry fails the pivot guard.
    try:
        factor = _cholesky(gram)
    except ValueError as exc:
        raise DegenerateDesign(
            "trend design is rank deficient; distinct covariates (and n >= k) are required"
        ) from exc
    return factor, _condition(gram)


def _condition(gram: np.ndarray) -> float:
    # Taken only after a successful factorization: degenerate designs raise instead.  The condition of
    # the equilibrated matrix D^-1/2 G D^-1/2, D = diag(G), so rescaling a covariate never warns.
    k = gram.shape[0]
    if k == 1:
        return 1.0
    if k == 2:
        r = abs(float(gram[0, 1])) / (math.sqrt(gram[0, 0]) * math.sqrt(gram[1, 1]))
        return (1.0 + r) / (1.0 - r)
    scale = np.sqrt(np.diagonal(gram))
    return np.linalg.cond(gram / np.outer(scale, scale))


def _warn_if_ill_conditioned(cond: float) -> None:
    if cond > GRAM_CONDITION_LIMIT:
        warnings.warn(
            f"equilibrated trend Gram matrix condition {cond:.2e} exceeds "
            f"{GRAM_CONDITION_LIMIT:.0e}; results may lose accuracy",
            GramConditionWarning,
            stacklevel=3,
        )


def gls_beta(design: DesignMatrix, corr, obs) -> np.ndarray:
    """Generalized least-squares trend coefficients.

    Solves the normal equations (F'Λ⁻¹F) β = F'Λ⁻¹v.  ``corr=None`` means
    white noise (identity correlation).

    Raises
    ------
    DegenerateDesign
        When the Gram matrix is numerically singular, e.g. a linear trend
        with all covariates equal, or fewer observations than coefficients.
    """
    lam_inv_F, factor, cond = _whitened_design(design, corr)
    beta = _substitute(factor, _weigh_observations(lam_inv_F.T, obs))
    _warn_if_ill_conditioned(cond)
    return beta


def kriging_weights(design: DesignMatrix, corr, feature, obs=None) -> KrigingSolution:
    """Solve the unbiasedness-constrained minimum-variance weight problem.

    Closed form: weights Λ⁻¹F(F'Λ⁻¹F)⁻¹f, multipliers -(F'Λ⁻¹F)⁻¹f, and the
    variance factor f'(F'Λ⁻¹F)⁻¹f evaluated bilinearly.  The feature vector
    may be complex, in which case weights and multipliers are complex and the
    prediction is the analytic continuation of the real predictor; complex
    weights are formed in blocks of rows, with no complex copy of the system.
    The solution forms its weights when they are first read (``KrigingSolution``).

    Parameters
    ----------
    design : DesignMatrix
    corr : (n, n) array_like or None
        Noise auto-correlation matrix; ``None`` is the identity (white noise).
    feature : (k,) array_like, real or complex
        Trend basis values at the evaluation point.
    obs : (n,) array_like, optional
        When given, the GLS coefficients are solved as well and stored on the
        returned solution.
    """
    f = _feature_values(feature, design.k)
    lam_inv_F, factor, cond = _whitened_design(design, corr)

    gram_inv_f = _substitute(factor, f)
    _warn_if_ill_conditioned(cond)
    return KrigingSolution._deferred(
        lam_inv_F,
        gram_inv_f,
        variance_factor=complex(f @ gram_inv_f),
        beta_hat=None if obs is None else _substitute(factor, _weigh_observations(lam_inv_F.T, obs)),
    )


def predict(solution: KrigingSolution, obs) -> complex:
    """Apply the kriging weights to the observations.

    Equals the trend fit evaluated at the feature vector, f'β̂, up to solve
    accuracy.  Uses the solution's kept weights; a solution whose ``weights``
    were never read has them formed into a temporary on every call, an O(nk)
    pass, so read ``solution.weights`` once before predicting many observation
    vectors.
    """
    return complex(_weigh_observations(_solution_weights(solution, keep=False), obs))


def trend_variance(solution: KrigingSolution, sigma2: float = 1.0) -> complex:
    """Variance of the fitted trend at the evaluation point: σ²·f'(F'Λ⁻¹F)⁻¹f.

    Bilinear in the feature vector, so it vanishes at the complex roots of
    the variance quadratic rather than staying positive.
    """
    return complex(_noise_scale(sigma2, "sigma2") * solution.variance_factor)


def prediction_error_variance(solution: KrigingSolution, corr, sigma2: float = 1.0) -> complex:
    """Noise prediction error second moment σ²(1 + ω'Λω), bilinear form.

    Forms unread weights into a temporary, as ``predict`` does.
    """
    sigma2 = _noise_scale(sigma2, "sigma2")
    w = _solution_weights(solution, keep=False)
    if corr is None:
        quad = np.dot(w, w)
    else:
        lam = _check_correlation(corr, w.shape[0])
        check_symmetric(lam)
        quad = np.dot(w, _real_matrix_times(lam, w))
    return complex(sigma2 * (1.0 + quad))


__all__ = [
    "DegenerateDesign",
    "DesignMatrix",
    "EmptySample",
    "GramConditionWarning",
    "KrigingSolution",
    "LengthMismatch",
    "Sample",
    "TrendBasis",
    "UnsupportedComplexBasis",
    "build_design",
    "feature_vector",
    "gls_beta",
    "kriging_weights",
    "predict",
    "prediction_error_variance",
    "trend_variance",
]
