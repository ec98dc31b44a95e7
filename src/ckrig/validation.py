"""Independent cross-checks for the closed-form kriging solution.

``kkt_solve`` solves the stationarity-plus-unbiasedness equations as one
bordered linear system, with none of the closed forms, so it can referee
them.  The Monte-Carlo driver simulates the trend-plus-white-noise model
and measures the empirical error moments of the predictor at any (real or
complex) evaluation point.

Stream contract: block b of ``BLOCK`` replicates draws its (BLOCK, n) noise
matrix row-major from ``Generator(Philox(key=seed).jumped(b))``, and
replicate r is the trend plus row ``r % BLOCK`` of block ``r // BLOCK``.  A
replicate depends on (seed, r, BLOCK) only, never on the replicate count;
``BLOCK`` is part of the contract.  Philox is counter-based and
``jumped(b)`` adds b to the third word of its 256-bit counter, so
``_block_noise`` sets that state directly, counter ``[0, 0, b, 0]`` and the
seed's two key words, on one generator per thread: a new Philox per block
would draw an OS-entropy seed that its key then overrides.

The driver keeps no complex array the size of the run: the errors are an
(R, 2) real array of their real and imaginary parts, each block's rows are
one real BLAS product ``noise @ [Re w, Im w]``, and the second moments
come from dot products of the two columns.  Each block's offset and the
centring by the means go one column at a time: an (R, 2) array broadcast
against a pair runs numpy's inner loop two entries long, several times
slower than one strided pass down each column, which makes the same single
addition or subtraction on every entry.

Since each block has its own generator and its own rows of the errors, the
blocks are filled concurrently (numpy's generators and BLAS release the GIL
while they fill).  The calling thread fills blocks too, next to at most
one thread fewer than the CPUs available to the process, and never more
threads than blocks; all of them take blocks from one shared queue of block
starts.  The first failing block stops the draw: no thread takes another
block, and that exception is raised once every thread is joined.  The report
does not depend on the number of CPUs.  A one-block run starts no thread.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .kriging import (
    DesignMatrix,
    Sample,
    TrendBasis,
    _check_correlation,
    _count,
    _feature_values,
    _noise_scale,
    _real_matrix_times,
    _real_vector,
    build_design,
    feature_vector,
    kriging_weights,
    predict,  # noqa: F401  (bench/tracer.py wraps ckrig.validation.predict)
)
from .numerics import _SMALL_ORDER, check_symmetric

KKT_RESIDUAL_TOL = 1e-9

# Replicates per Philox substream; part of the stream contract.
BLOCK = 4096

_NOISE_KINDS = ("gaussian", "uniform")

_THREAD = threading.local()  # holds each thread's generator for ``_block_noise``


class SingularSystem(ValueError):
    """Raised when the bordered system cannot be solved to tolerance."""


@dataclass(frozen=True)
class SimulationConfig:
    """Trend-plus-noise model to replicate: observations = F·beta + noise."""

    covariates: tuple
    beta: tuple
    sigma: float
    replicates: int
    seed: int
    noise_kind: str = "gaussian"

    def __post_init__(self):
        for name in ("covariates", "beta"):
            object.__setattr__(self, name, tuple(_real_vector(getattr(self, name), name).tolist()))
        if len(self.beta) not in (1, 2):
            raise ValueError("beta must have one (constant) or two (linear) entries")
        object.__setattr__(self, "sigma", _noise_scale(self.sigma, "sigma"))
        object.__setattr__(self, "replicates", _count(self.replicates, "replicates"))
        # Philox's key is 128 bits wide.
        object.__setattr__(self, "seed", _count(self.seed, "seed", low=0, high=2**128))
        if self.noise_kind not in _NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {_NOISE_KINDS}")

    @property
    def n(self) -> int:
        return len(self.covariates)

    @property
    def basis(self) -> TrendBasis:
        return TrendBasis.constant() if len(self.beta) == 1 else TrendBasis.linear()


@dataclass(frozen=True)
class MonteCarloReport:
    """Empirical moments of the prediction error over the replicates.

    Variances and the covariance use the 1/R convention.  ``bilinear_mse``
    is the mean of the *bilinear* square of the complex error, the quantity
    that vanishes at the zero-variance points.
    """

    mean_error_re: float
    mean_error_im: float
    var_re: float
    var_im: float
    cov_re_im: float
    bilinear_mse: complex
    replicates_used: int


def kkt_solve(design: DesignMatrix, corr, feature) -> tuple[np.ndarray, np.ndarray]:
    """Weights and multipliers from the raw bordered system.

    Stacks Λω + Fμ = 0 over F'ω = f into one (n+k)-square solve and checks
    the residuals, avoiding every closed form used by ``kriging_weights``.
    """
    F = design.F
    n, k = F.shape
    f = _feature_values(feature, k)
    # White noise is Λ = I, written as the unit diagonal of the bordered matrix and read as Λω = ω
    # in the residual: no n×n identity is made.
    lam = None
    if corr is not None:
        lam = _check_correlation(corr, n)
        check_symmetric(lam)

    # Built real and Fortran-ordered, so that LAPACK solves it in place (a cast or a transposing
    # copy would make a second one), and freed before the residuals are formed.  A complex f is
    # solved as two real right-hand sides, its real and imaginary parts.
    bordered = np.zeros((n + k, n + k), order="F")
    if lam is None:
        np.fill_diagonal(bordered[:n, :n], 1.0)
    else:
        bordered[:n, :n] = lam
    bordered[:n, n:] = F
    bordered[n:, :n] = F.T
    is_complex = f.dtype.kind == "c"
    rhs = np.zeros((n + k, 2) if is_complex else n + k, order="F")
    rhs[n:] = np.column_stack((f.real, f.imag)) if is_complex else f
    solution = _solve_bordered(bordered, rhs)
    del bordered
    if is_complex:
        solution = solution[:, 0] + 1j * solution[:, 1]

    weights, multipliers = solution[:n], solution[n:]
    scale = max(1.0, float(np.max(np.abs(f))))
    if lam is None:
        lam_weights = weights
    else:
        # max|Λ| for a finite Λ, with no n×n temporary.
        scale = max(scale, float(lam.max()), -float(lam.min()))
        lam_weights = _real_matrix_times(lam, weights)
    stationarity = np.max(np.abs(lam_weights + F @ multipliers))
    unbiasedness = np.max(np.abs(F.T @ weights - f))
    if max(stationarity, unbiasedness) > KKT_RESIDUAL_TOL * scale:
        raise SingularSystem(
            f"bordered system residual {max(stationarity, unbiasedness):.3e} "
            f"exceeds {KKT_RESIDUAL_TOL:g}; the design is rank deficient"
        )
    return weights, multipliers


def _solve_bordered(bordered: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The LU solve of ``kkt_solve``, real; above ``_SMALL_ORDER`` LAPACK's ``dgesv`` overwrites
    ``bordered`` and ``rhs``, so no working copy is made, and small systems never import scipy."""
    if bordered.shape[0] <= _SMALL_ORDER:
        try:
            return np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("bordered kriging system is singular") from exc
    from scipy.linalg.lapack import dgesv

    _, _, solution, info = dgesv(bordered, rhs, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise SingularSystem("bordered kriging system is singular")
    return solution


def _block_noise(config: SimulationConfig, block: int, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the noise matrix of ``block``; Philox fills it row-major."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox())
    # The state of Philox(key=seed).jumped(block), with nothing buffered.
    key = (config.seed & 0xFFFF_FFFF_FFFF_FFFF, config.seed >> 64)
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, block, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    shape, sigma = (rows, config.n), float(config.sigma)  # an int or Fraction σ, rounded once
    if config.noise_kind == "gaussian":
        noise = rng.standard_normal(shape)
        noise *= sigma  # in place: the same bits as sigma * noise
        return noise
    # Uniform on [-a, a) with a = sigma*sqrt(3) has variance sigma^2: -a + 2a·u, the bits of
    # rng.uniform(-a, a), which raises OverflowError once 2a overflows; here the draws overflow.
    half_width = sigma * np.sqrt(3.0)
    noise = rng.random(shape)
    noise *= 2.0 * half_width
    noise -= half_width
    return noise


def _fill_workers(blocks: int) -> int:
    """Threads that fill the ``blocks`` of one run, the calling thread included: one per CPU
    available to the process, at most one per block."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(blocks, cpus)


def simulate_process(config: SimulationConfig, replicate: int = 0) -> Sample:
    """One realization of the model, deterministic in (seed, replicate)."""
    x = np.asarray(config.covariates)
    trend = build_design(config.basis, x).F @ np.asarray(config.beta)
    block, row = divmod(_count(replicate, "replicate", low=0), BLOCK)
    return Sample(covariates=x, observations=trend + _block_noise(config, block, row + 1)[row])


def monte_carlo_mse(config: SimulationConfig, evaluation_point) -> MonteCarloReport:
    """Empirical error moments of the predictor at ``evaluation_point``.

    The errors of a block are ``noise @ w + (w·trend - truth)``; the second
    term is zero up to roundoff because w'F = f.  They are kept as two real
    columns, Re and Im, filled by one real product ``noise @ [Re w, Im w]``
    per block, and the second moments are dot products of the columns.
    They equal ``predict`` on ``simulate_process`` replicates up to
    summation order.  The offset and the centring run column by column, one
    long strided pass each (see the module docstring).  Draws that overflow
    give moments that are not finite, with numpy's overflow warning: uniform
    draws -a + 2a·u overflow once 2a = 2σ√3 does (σ above ~5.2e307), where
    ``Generator.uniform`` would raise ``OverflowError``.

    The blocks are filled concurrently: the calling thread and up to
    ``_fill_workers(blocks) - 1`` started threads take block starts from one
    shared iterator.  The first exception stops the draw, so no thread takes
    another block, and is raised once every thread is joined.  The report
    does not depend on the number of CPUs; a one-block run starts no thread.
    """
    design = build_design(config.basis, np.asarray(config.covariates))
    f = feature_vector(config.basis, evaluation_point)
    beta = np.asarray(config.beta)
    weights = kriging_weights(design, None, f).weights
    offset = complex(weights @ (design.F @ beta) - f @ beta)

    replicates = config.replicates
    w = np.column_stack([weights.real, weights.imag])
    errors = np.empty((replicates, 2))

    # Calls no name that bench/tracer.py wraps: its span stack is not thread-safe.
    def fill(start):
        rows = errors[start : start + BLOCK]
        np.dot(_block_noise(config, start // BLOCK, len(rows)), w, out=rows)
        rows[:, 0] += offset.real
        rows[:, 1] += offset.imag

    block_starts = range(0, replicates, BLOCK)
    starts = iter(block_starts)
    failures = []
    # Taking a start and closing the draw are one step each, so no block is taken after a failure.
    lock = threading.Lock()

    def drain():
        nonlocal starts
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            try:
                fill(start)
            except BaseException as exc:  # raised on the calling thread below
                with lock:
                    failures.append(exc)
                    starts = iter(())
                return

    threads = []
    try:
        for _ in range(_fill_workers(len(block_starts)) - 1):
            thread = threading.Thread(target=drain)
            thread.start()
            threads.append(thread)
        drain()
    finally:
        # Past the last block this changes nothing; after a thread that would not start, or an
        # interrupt, the running threads stop at their current block.
        with lock:
            starts = iter(())
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]

    # Column by column: np.mean sums a column pairwise, where axis=0 would add row by row.
    mean_re, mean_im = (float(np.mean(column)) for column in errors.T)
    # The 2×2 Gram matrices [[re·re, re·im], [re·im, im·im]] of the columns, then of the
    # columns centred in place.
    square = errors.T @ errors / replicates
    errors[:, 0] -= mean_re
    errors[:, 1] -= mean_im
    centred = errors.T @ errors / replicates
    return MonteCarloReport(
        mean_error_re=mean_re,
        mean_error_im=mean_im,
        var_re=float(centred[0, 0]),
        var_im=float(centred[1, 1]),
        cov_re_im=float(centred[0, 1]),
        bilinear_mse=complex(square[0, 0] - square[1, 1], 2.0 * square[0, 1]),
        replicates_used=replicates,
    )


__all__ = [
    "MonteCarloReport",
    "SimulationConfig",
    "SingularSystem",
    "kkt_solve",
    "monte_carlo_mse",
    "simulate_process",
]
