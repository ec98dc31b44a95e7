"""Shared test data, the independent summation oracle, the exact oracle, and two test helpers.

The summation oracle computes every closed-form statistic by plain Python
summation, with no numpy and none of the package's solve paths, so it can
referee them.  The exact oracle evaluates the same statistics exactly for the
given floats and rounds each once, so it measures their error in ulps.  Key
values are additionally frozen as literals below; a handful of asserts pin
both oracles to those literals so neither can drift unnoticed.  ``traced_peak``
measures a call's peak traced memory, and ``record_calls`` records the calls of
a patched function.
"""

import decimal
import math
import struct
import tracemalloc
from fractions import Fraction
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


def traced_peak(call, *args, **kwargs):
    """``call(*args, **kwargs)`` under tracemalloc: its result and the peak of traced memory in
    bytes, as ``(result, peak)``.  Tracing stops even if the call raises."""
    result, _, peak = _traced(call, args, kwargs)
    return result, peak


def traced_retained(call, *args, **kwargs):
    """``call(*args, **kwargs)`` under tracemalloc: its result and the traced memory still held when
    it returns, in bytes, as ``(result, retained)``.  Tracing stops even if the call raises."""
    result, retained, _ = _traced(call, args, kwargs)
    return result, retained


def _traced(call, args, kwargs):
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def record_calls(monkeypatch, owner, name, record):
    """Wrap ``owner.<name>`` for the test: each call appends ``record(*args, **kwargs)`` to the
    returned list, unless that is None, and then calls through."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        entry = record(*args, **kwargs)
        if entry is not None:
            calls.append(entry)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


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


def _ulps(a: float, b: float) -> int:
    """How many doubles apart ``a`` and ``b`` are (0.0 and -0.0 are none apart)."""
    def key(t):
        i = struct.unpack("<q", struct.pack("<d", t))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(key(a) - key(b))


def _exact_sum(terms):
    """Σ m·2^e over (integer m, integer e) terms, exactly: one integer sum, each m shifted to the
    smallest e, and one ``Fraction`` of it (no gcd per addition)."""
    terms = list(terms)
    low = min(e for _, e in terms)
    total = sum(m << (e - low) for m, e in terms)
    return Fraction(total << low) if low >= 0 else Fraction(total, 1 << -low)


def _mantissas(values):
    """Each float as (integer m, integer e) with value m·2^e, exactly."""
    return [(int(m * 2.0**53), e - 53) for m, e in map(math.frexp, values)]


def exact_oracle(x, v):
    """m_n, m_sn, σ_n, the slope, the complex mean, weighted square and variance (plus branch) and
    ``real_se``, under ``summation_oracle``'s keys, evaluated exactly for the given floats and each
    rounded once: exact sums of the floats' integer mantissas (``_exact_sum``), and ±√q for a
    rational q in ``decimal`` at 80 digits."""
    xs, vs = _mantissas(x), _mantissas(v)
    n = len(xs)
    m_n = _exact_sum(xs) / n
    m_sn = _exact_sum((a * a, e + e) for a, e in xs) / n
    s2 = m_sn - m_n * m_n
    vbar = _exact_sum(vs) / n
    v2bar = _exact_sum((b * b, f + f) for b, f in vs) / n
    c = _exact_sum((a * b, e + f) for (a, e), (b, f) in zip(xs, vs)) / n - m_n * vbar
    d = _exact_sum((a * b * b, e + f + f) for (a, e), (b, f) in zip(xs, vs)) / n - m_n * v2bar

    def root(q):  # √q, rounded once
        with decimal.localcontext(decimal.Context(prec=80)):
            return float((decimal.Decimal(q.numerator) / q.denominator).sqrt())

    def over_sigma(q):  # q / σ_n = ±√(q² / σ_n²)
        return math.copysign(root(q * q / s2), q)

    return {
        "m_n": float(m_n),
        "m_sn": float(m_sn),
        "sigma_n": root(s2),
        "a_hat": float(c / s2),
        "mean_plus": complex(float(vbar), over_sigma(c)),
        "wsq_plus": complex(float(v2bar), over_sigma(d)),
        # (v2bar + i·d/σ) − (vbar + i·c/σ)²: the real part is rational.
        "var_plus": complex(float(v2bar - vbar * vbar + c * c / s2), over_sigma(d - 2 * vbar * c)),
        "real_se": root((v2bar - vbar * vbar) / n),
    }


# Pin the exact oracle to the correctly rounded example values, once, at import.
_e = exact_oracle(EXAMPLE_X, EXAMPLE_Y)
assert _e["sigma_n"] == 2.7092434368288134
assert _e["mean_plus"].real == 6.1454545454545455
assert _e["wsq_plus"].imag == -5.43325114306814
assert _e["var_plus"] == 3.1528128448217627 - 2.7772444892459864j
assert _e["a_hat"] == -0.07976219965320787
assert _e["real_se"] == 0.5313888922162836


def _exact_solve(a, b):
    """x with a·x = b, for a nonsingular square matrix and a vector of ``Fraction``s, by
    Gauss–Jordan elimination."""
    rows = [row + [entry] for row, entry in zip(a, b)]
    k = len(rows)
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for r in range(k):
            if r != c:
                rows[r] = [e - rows[r][c] * ec for e, ec in zip(rows[r], rows[c])]
    return [row[k] for row in rows]


def exact_white_solution(x, v, z, k=2):
    """The white-noise solve of ``_basis_for(k)`` (k ≤ 3) at the point ``z``, exactly for the given
    floats: β̂, the multipliers -(F'F)⁻¹f, the weights F(F'F)⁻¹f, the variance factor f'(F'F)⁻¹f and
    the prediction f'β̂, each rounded once.  F's rows are (1, t, t·t)[:k] and f is (1, z, z·z)[:k],
    each entry the float that the basis, or a complex z's own product, gives; the k×k normal
    equations are solved in ``Fraction``s of those floats (``_exact_solve``).  At a complex z each
    value is linear in f, kept bilinear (no conjugate) as a pair of real and imaginary ``Fraction``s."""
    z = complex(z)
    F = [[Fraction(c) for c in (1.0, t, t * t)[:k]] for t in x]
    f = [complex(c) for c in (1.0, z, z * z)[:k]]
    gram = [[sum(row[i] * row[j] for row in F) for j in range(k)] for i in range(k)]
    beta = _exact_solve(gram, [sum(row[i] * Fraction(b) for row, b in zip(F, v)) for i in range(k)])
    g_re = _exact_solve(gram, [Fraction(c.real) for c in f])  # (F'F)⁻¹f, real and imaginary parts
    g_im = _exact_solve(gram, [Fraction(c.imag) for c in f])
    f_re, f_im = [Fraction(c.real) for c in f], [Fraction(c.imag) for c in f]

    def dot(a, b):
        return sum(p * q for p, q in zip(a, b))

    def rounded(re, im):
        return complex(float(re), float(im))

    return {
        "beta_hat": tuple(map(float, beta)),
        "multipliers": [-rounded(a, b) for a, b in zip(g_re, g_im)],
        "weights": [rounded(dot(row, g_re), dot(row, g_im)) for row in F],
        "variance_factor": rounded(dot(f_re, g_re) - dot(f_im, g_im), dot(f_re, g_im) + dot(f_im, g_re)),
        "prediction": rounded(dot(f_re, beta), dot(f_im, beta)),
    }


# Pin the exact white solve to the correctly rounded example coefficients, once, at import.
assert exact_white_solution(EXAMPLE_X, EXAMPLE_Y, 4.6)["beta_hat"] == (6.512360663859302, -0.07976219965320787)


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
