"""Shared test data and the independent summation oracle.

The oracle computes every closed-form statistic by plain Python summation,
with no numpy and none of the package's solve paths, so it can referee them.
Key values are additionally frozen as literals below; a handful of asserts
pin the oracle to those literals so neither can drift unnoticed.
"""

import math
from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def empty_whitening_slot():
    """Start each test with no kept Λ⁻¹F, so that no test's scans and solves depend on the tests before it."""
    from ckrig import kriging

    kriging._LAST_WHITENING = None
    yield
    kriging._LAST_WHITENING = None


EXAMPLE_X = (1.7, 2.1, 3.9, 7.2, 8.6, 8.5, 7.3, 5.1, 2.8, 1.8, 1.6)
EXAMPLE_Y = (3.2, 3.9, 4.9, 5.3, 5.5, 6.2, 6.5, 6.9, 7.5, 8.3, 9.4)

# Frozen outputs of summation_oracle(EXAMPLE_X, EXAMPLE_Y).
EXAMPLE_M_N = 4.6
EXAMPLE_M_SN = 28.5
EXAMPLE_SIGMA_N = 2.709243436828814
EXAMPLE_VBAR = 6.145454545454546          # exact 338/55
EXAMPLE_SLOPE = -0.07976219965320785      # exact -322/4037
EXAMPLE_INTERCEPT = 6.512360663859303     # exact 131452/20185
EXAMPLE_MEAN_PLUS = 6.145454545454546 - 0.21609521591748287j
EXAMPLE_REAL_SE = 0.5313888922162827
EXAMPLE_IMAG_SE = 0.21609521591748287
EXAMPLE_WSQ_PLUS = 40.872727272727275 - 5.433251143068136j
EXAMPLE_VAR_PLUS = 3.152812844821753 - 2.777244489245983j


def _random_correlation(rng, n):
    """A random n-by-n SPD correlation matrix (unit diagonal), drawn from ``rng``."""
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    s = m @ m.T + n * np.eye(n)
    d = 1.0 / np.sqrt(np.diagonal(s))
    return d[:, None] * s * d[None, :]


def _basis_for(k):
    """The constant, linear or quadratic trend basis with k columns."""
    from ckrig import TrendBasis

    if k == 1:
        return TrendBasis.constant()
    if k == 2:
        return TrendBasis.linear()
    return TrendBasis.columns(lambda t: 1.0, lambda t: t, lambda t: t * t)


def bad_correlation(kind, n):
    """An n-by-n Λ that fails input validation: asymmetric, NaN, or a non-unit diagonal."""
    lam = np.eye(n)
    if kind == "asymmetric":
        lam[0, 1] = 0.5
    elif kind == "nan":
        lam[0, 1] = lam[1, 0] = np.nan
    else:
        lam[0, 0] = 2.0
    return lam


def summation_oracle(x, v):
    """Closed-form sample statistics by direct summation (pure Python)."""
    n = len(x)
    m_n = sum(x) / n
    m_sn = sum(a * a for a in x) / n
    sigma_n = math.sqrt(m_sn - m_n * m_n)
    vbar = sum(v) / n
    xvbar = sum(a * b for a, b in zip(x, v)) / n
    v2bar = sum(b * b for b in v) / n
    xv2bar = sum(a * b * b for a, b in zip(x, v)) / n
    a_hat = (xvbar - m_n * vbar) / (sigma_n * sigma_n)
    b_hat = vbar - a_hat * m_n
    mean_plus = complex(vbar, (xvbar - m_n * vbar) / sigma_n)
    wsq_plus = complex(v2bar, (xv2bar - m_n * v2bar) / sigma_n)
    return {
        "n": n,
        "m_n": m_n,
        "m_sn": m_sn,
        "sigma_n": sigma_n,
        "vbar": vbar,
        "a_hat": a_hat,
        "b_hat": b_hat,
        "mean_plus": mean_plus,
        "wsq_plus": wsq_plus,
        "var_plus": wsq_plus - mean_plus * mean_plus,
        "real_se": math.sqrt((v2bar - vbar * vbar) / n),
        "imag_se": abs(a_hat) * sigma_n,
    }


def _close(a, b, tol=1e-13):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# Pin the oracle to the frozen literals once, at import.
_o = summation_oracle(EXAMPLE_X, EXAMPLE_Y)
assert _close(_o["m_n"], EXAMPLE_M_N)
assert _close(_o["m_sn"], EXAMPLE_M_SN)
assert _close(_o["sigma_n"], EXAMPLE_SIGMA_N)
assert _close(_o["vbar"], EXAMPLE_VBAR)
assert _close(_o["a_hat"], EXAMPLE_SLOPE)
assert _close(_o["b_hat"], EXAMPLE_INTERCEPT)
assert _close(_o["mean_plus"], EXAMPLE_MEAN_PLUS)
assert _close(_o["real_se"], EXAMPLE_REAL_SE)
assert _close(_o["imag_se"], EXAMPLE_IMAG_SE)
assert _close(_o["wsq_plus"], EXAMPLE_WSQ_PLUS)
assert _close(_o["var_plus"], EXAMPLE_VAR_PLUS)


@pytest.fixture(scope="session")
def example_oracle():
    return summation_oracle(EXAMPLE_X, EXAMPLE_Y)


@pytest.fixture()
def example_sample():
    from ckrig import Sample

    return Sample(covariates=EXAMPLE_X, observations=EXAMPLE_Y)


@pytest.fixture()
def example_csv_path():
    return DATA_DIR / "example.csv"
