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
``BLOCK`` is part of the contract.
"""

from __future__ import annotations

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
    _real_vector,
    build_design,
    feature_vector,
    kriging_weights,
    predict,  # noqa: F401  (bench/tracer.py wraps ckrig.validation.predict)
)
from .numerics import check_symmetric

KKT_RESIDUAL_TOL = 1e-9

# Replicates per Philox substream; part of the stream contract.
BLOCK = 4096

_NOISE_KINDS = ("gaussian", "uniform")


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
        _noise_scale(self.sigma, "sigma")
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
    lam = np.eye(n) if corr is None else _check_correlation(corr, n)
    check_symmetric(lam)

    bordered = np.zeros((n + k, n + k))
    bordered[:n, :n] = lam
    bordered[:n, n:] = F
    bordered[n:, :n] = F.T
    rhs = np.zeros(n + k, dtype=np.result_type(f.dtype, float))
    rhs[n:] = f

    try:
        solution = np.linalg.solve(bordered.astype(rhs.dtype), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("bordered kriging system is singular") from exc

    weights, multipliers = solution[:n], solution[n:]
    scale = max(1.0, float(np.max(np.abs(f))), float(np.max(np.abs(lam))))
    stationarity = np.max(np.abs(lam @ weights + F @ multipliers))
    unbiasedness = np.max(np.abs(F.T @ weights - f))
    if max(stationarity, unbiasedness) > KKT_RESIDUAL_TOL * scale:
        raise SingularSystem(
            f"bordered system residual {max(stationarity, unbiasedness):.3e} "
            f"exceeds {KKT_RESIDUAL_TOL:g}; the design is rank deficient"
        )
    return weights, multipliers


def _block_noise(config: SimulationConfig, block: int, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the noise matrix of ``block``; Philox fills it row-major."""
    rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(block))
    shape = (rows, config.n)
    if config.noise_kind == "gaussian":
        return config.sigma * rng.standard_normal(shape)
    # Uniform on [-a, a] with a = sigma*sqrt(3) has variance sigma^2.
    half_width = config.sigma * np.sqrt(3.0)
    return rng.uniform(-half_width, half_width, shape)


def simulate_process(config: SimulationConfig, replicate: int = 0) -> Sample:
    """One realization of the model, deterministic in (seed, replicate)."""
    x = np.asarray(config.covariates)
    trend = build_design(config.basis, x).F @ np.asarray(config.beta)
    block, row = divmod(_count(replicate, "replicate", low=0), BLOCK)
    return Sample(covariates=x, observations=trend + _block_noise(config, block, row + 1)[row])


def monte_carlo_mse(config: SimulationConfig, evaluation_point) -> MonteCarloReport:
    """Empirical error moments of the predictor at ``evaluation_point``.

    The errors of a block are ``noise @ w + (w·trend - truth)``; the second
    term is zero up to roundoff because w'F = f.  They equal ``predict`` on
    ``simulate_process`` replicates up to summation order, and the reduction
    runs in replicate order.
    """
    design = build_design(config.basis, np.asarray(config.covariates))
    f = feature_vector(config.basis, evaluation_point)
    beta = np.asarray(config.beta)
    weights = kriging_weights(design, None, f).weights
    offset = complex(weights @ (design.F @ beta) - f @ beta)

    errors = np.empty(config.replicates, dtype=complex)
    for start in range(0, config.replicates, BLOCK):
        rows = min(BLOCK, config.replicates - start)
        errors[start : start + rows] = _block_noise(config, start // BLOCK, rows) @ weights + offset

    re, im = errors.real, errors.imag
    mean_re, mean_im = float(np.mean(re)), float(np.mean(im))
    re_c, im_c = re - mean_re, im - mean_im
    return MonteCarloReport(
        mean_error_re=mean_re,
        mean_error_im=mean_im,
        var_re=float(np.mean(re_c * re_c)),
        var_im=float(np.mean(im_c * im_c)),
        cov_re_im=float(np.mean(re_c * im_c)),
        bilinear_mse=complex(np.mean(errors * errors)),
        replicates_used=config.replicates,
    )


__all__ = [
    "MonteCarloReport",
    "SimulationConfig",
    "SingularSystem",
    "kkt_solve",
    "monte_carlo_mse",
    "simulate_process",
]
