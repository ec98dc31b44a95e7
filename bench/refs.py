"""Seeded inputs and independent references for the benchmark's correctness gate.

Inputs come only from the workload seed.  The references share no solve
path with ckrig's closed forms: plain summation for the moments, a QR
factorisation or ckrig's bordered ``kkt_solve`` referee for the weights,
and LAPACK's Cholesky for the dense trend fit.
"""

from __future__ import annotations

import math

import numpy as np

# Relative agreement required between a result and its reference.
RTOL = 1e-8


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def white_samples(seed: int, n: int, count: int):
    """``count`` (x, y) samples: uniform covariates on [0, 10], linear trend, white noise."""
    rng = rng_for(seed, 1, n)
    samples = []
    for _ in range(count):
        x = rng.uniform(0.0, 10.0, n)
        b0, b1 = rng.uniform(-2.0, 2.0, 2)
        y = b0 + b1 * x + rng.uniform(0.5, 2.0) * rng.standard_normal(n)
        samples.append((x, y))
    return samples


def jittered_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sorted covariates on [0, 10] at least half a grid step apart."""
    step = 10.0 / n
    return (np.arange(n) + 0.5 * rng.uniform(0.0, 1.0, n)) * step


def exp_correlation(x: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Λ = exp(-|xi - xj| / length) and its LAPACK Cholesky factor.

    Raises ValueError unless Λ is exactly symmetric, has a unit diagonal and
    is positive definite.
    """
    lam = np.exp(-np.abs(x[:, None] - x[None, :]) / length)
    if not np.array_equal(lam, lam.T):
        raise ValueError("correlation matrix is not symmetric")
    if not np.all(np.diagonal(lam) == 1.0):
        raise ValueError("correlation matrix has a non-unit diagonal")
    try:
        lower = np.linalg.cholesky(lam)
    except np.linalg.LinAlgError as exc:
        raise ValueError("correlation matrix is not positive definite") from exc
    return lam, lower


def summation_moments(x, v) -> dict:
    """Complex-point statistics by exactly rounded summation (``math.fsum``)."""
    xs, vs = np.asarray(x).tolist(), np.asarray(v).tolist()
    n = len(xs)
    m_n = math.fsum(xs) / n
    m_sn = math.fsum(a * a for a in xs) / n
    sigma_n = math.sqrt(m_sn - m_n * m_n)
    vbar = math.fsum(vs) / n
    xvbar = math.fsum(a * b for a, b in zip(xs, vs)) / n
    v2bar = math.fsum(b * b for b in vs) / n
    xv2bar = math.fsum(a * b * b for a, b in zip(xs, vs)) / n
    mean = complex(vbar, (xvbar - m_n * vbar) / sigma_n)
    wsq = complex(v2bar, (xv2bar - m_n * v2bar) / sigma_n)
    return {
        "point": complex(m_n, sigma_n),
        "mean": mean,
        "weighted_square": wsq,
        "variance": wsq - mean * mean,
        "variance_scale": abs(wsq) + abs(mean) ** 2,
        "real_se": math.sqrt((v2bar - vbar * vbar) / n),
        "imag_se": abs(xvbar - m_n * vbar) / sigma_n,
    }


def white_qr(x, v):
    """QR factors of the linear design F = [1, x] and the coefficients β̂."""
    q, r = np.linalg.qr(np.column_stack([np.ones(len(x)), x]))
    return q, r, np.linalg.solve(r, q.T @ v)


def white_reference(qr, f):
    """(weights, multipliers, beta, variance factor) for white noise, from ``white_qr``."""
    q, r, beta = qr
    z = np.linalg.solve(r.T, f)
    gram_inv_f = np.linalg.solve(r, z)
    return q @ z, -gram_inv_f, beta, complex(f @ gram_inv_f)


def dense_beta(F, lower, v):
    """GLS coefficients from LAPACK's Cholesky factor: least squares on L⁻¹F, L⁻¹v."""
    from scipy.linalg import solve_triangular

    whitened = solve_triangular(lower, np.column_stack([F, v]), lower=True)
    return np.linalg.lstsq(whitened[:, :-1], whitened[:, -1], rcond=None)[0]


def close(value, reference, scale=None, rtol: float = RTOL) -> bool:
    """Max abs difference within rtol of ``scale`` (default: max |reference|)."""
    value, reference = np.asarray(value), np.asarray(reference)
    if value.shape != reference.shape:
        return False
    if scale is None:
        scale = float(np.max(np.abs(reference)))
    return bool(np.max(np.abs(value - reference)) <= rtol * scale)
