import dataclasses
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ckrig import numerics
from ckrig.numerics import (
    SYMMETRY_RTOL,
    ConjugatePair,
    NotPositiveDefinite,
    check_symmetric,
    solve_spd,
)

from conftest import record_calls, traced_peak


def _random_spd(n):
    m = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, n))
    return m.T @ m + np.eye(n)


def _with_entry(a, spot, value):
    a = a.copy()
    a[spot] = value
    return a


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(2), np.array([3.0, 4.0]))
        assert_allclose(x, [3.0, 4.0], rtol=0, atol=0)

    def test_diagonal(self):
        x = solve_spd(np.array([[2.0, 0.0], [0.0, 5.0]]), np.array([2.0, 10.0]))
        assert_allclose(x, [1.0, 2.0], rtol=0, atol=1e-15)

    def test_example_gram(self):
        # Gram of the example covariates under a linear trend: n*[[1, m], [m, m_s]].
        a = np.array([[11.0, 50.6], [50.6, 313.5]])
        x = solve_spd(a, np.array([1.0, 4.6]))
        assert_allclose(x, [1.0 / 11.0, 0.0], atol=1e-12)

    def test_multiple_right_hand_sides(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = solve_spd(a, b)
        assert_allclose(a @ x, b, atol=1e-14)

    def test_complex_rhs(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0 + 2.0j, -1.0j])
        x = solve_spd(a, b)
        assert np.iscomplexobj(x)
        assert_allclose(a @ x, b, atol=1e-14)

    @pytest.mark.parametrize("k", [3, numerics._SMALL_ORDER + 1])
    def test_object_right_hand_side_is_read_by_its_entries(self, k):
        # np.iscomplexobj reads an object array's dtype only, so a complex entry was cast to float.
        from fractions import Fraction

        a = _random_spd(k)
        entries = [1j] + [Fraction(j, 7) for j in range(1, k)]
        want = solve_spd(a, np.array([complex(e) for e in entries]))
        for b in (entries, np.array(entries, dtype=object), [[e] for e in entries]):
            x = solve_spd(a, b)
            assert x.dtype == np.complex128 and x.shape == np.shape(b) and x.tobytes() == want.tobytes()

    def test_singular_raises(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))

    def test_negative_pivot_raises(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.array([[-1.0]]), np.array([1.0]))

    def test_near_degenerate_pivot_raises(self):
        # Second pivot lands below 1e-14 of its own diagonal entry.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(a, np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "a, index",
        [
            ([[0.0]], 0),
            ([[-1.0]], 0),
            ([[np.nan]], 0),
            ([[np.inf]], 0),
            ([[0.0, 0.5], [0.5, 2.0]], 0),
            ([[-1.0, 0.5], [0.5, 2.0]], 0),
            ([[np.nan, 0.5], [0.5, 2.0]], 0),
            ([[np.inf, 0.5], [0.5, 2.0]], 0),
            ([[1.0, 1.0], [1.0, 1.0]], 1),
            ([[2.0, np.nan], [np.nan, 2.0]], 1),
            ([[2.0, 0.5], [0.5, np.nan]], 1),
            ([[2.0, 0.5], [0.5, np.inf]], 1),
            ([[2.0, np.inf], [np.inf, 2.0]], 1),
            ([[1.0, 1.0], [1.0, 1.0 + 1e-16]], 1),
            ([[1.0, 1.0], [1.0, 1.0 + 2.0**-50]], 1),
        ],
    )
    def test_small_guard_reports_failing_index(self, a, index):
        # A non-finite entry never reaches the guard: the entry rule refuses the matrix
        # first, so the index where its pivot would fail is not reported.
        a = np.array(a)
        if np.isfinite(a).all():
            expected = pytest.raises(NotPositiveDefinite, match=f"index {index} ")
        else:
            expected = pytest.raises(ValueError, match="^matrix must be finite$")
        with expected as err:
            solve_spd(a, np.ones(a.shape[0]))
        assert np.isfinite(a).all() == isinstance(err.value, NotPositiveDefinite)

    @pytest.mark.parametrize(
        "a",
        [
            [[np.nan]],
            [[np.inf]],
            [[np.nan, 0.5], [0.5, 2.0]],
            [[np.inf, 0.5], [0.5, 2.0]],
            [[2.0, np.nan], [np.nan, 2.0]],
            [[2.0, 0.5], [0.5, np.nan]],
            [[2.0, 0.5], [0.5, np.inf]],
            [[2.0, np.inf], [np.inf, 2.0]],
            [[1.0, np.nan], [0.5, 1.0]],
            [[1.0, np.inf], [0.5, 1.0]],
            [[1.0, -np.inf], [0.5, 1.0]],
            _with_entry(_random_spd(3), (0, 2), np.nan),
            _with_entry(_random_spd(200), (0, 199), np.nan),
        ],
        ids=[
            "nan-1",
            "inf-1",
            "nan-first-diagonal",
            "inf-first-diagonal",
            "nan-off-diagonal",
            "nan-diagonal",
            "inf-diagonal",
            "inf-off-diagonal",
            "nan-upper-only",
            "inf-upper-only",
            "minus-inf-upper-only",
            "nan-upper-only-3",
            "nan-upper-only-200",
        ],
    )
    def test_non_finite_matrix_rejected(self, a):
        # A plain ValueError, not NotPositiveDefinite: bad input, not a degenerate system.
        # The upper-only cases need the scan: the factor never reads that triangle.
        a = np.array(a)
        for check in (lambda: solve_spd(a, np.ones(a.shape[0])), lambda: check_symmetric(a)):
            with pytest.raises(ValueError, match="^matrix must be finite$") as err:
                check()
            assert type(err.value) is ValueError

    @pytest.mark.parametrize("k", [1, 2, 11])
    @pytest.mark.parametrize(
        "b",
        [[1, 2], [1.0, 2.0], np.float32([1.0, 2.0]), [1.0 + 2.0j, 3.0j], np.complex64([1.0j, 2.0])],
        ids=["int", "float", "float32", "complex", "complex64"],
    )
    @pytest.mark.parametrize("columns", [None, 3])
    def test_small_solve_keeps_shape_and_promoted_dtype(self, k, b, columns):
        # Order 11 takes the Python-float loop; the tridiagonal matrix is SPD at every order.
        b = np.resize(np.asarray(b), k)
        if columns is not None:
            b = np.repeat(b[:, None], columns, axis=1)
        a = np.diag(np.r_[4.0, np.full(k - 1, 3.0)]) + np.eye(k, k=1) + np.eye(k, k=-1)
        x = solve_spd(a, b)
        assert x.shape == b.shape
        assert x.dtype == np.result_type(b, float)

    @pytest.mark.parametrize("k", [1, 2, 3, 64, 65])
    @pytest.mark.parametrize("shape", [(), (0,), (2, 2, 3), "k+1", "k,1,1"])
    def test_right_hand_side_shape_rule(self, k, shape):
        # Only (k,) and (k, m) are accepted, with the same error at every order.
        shape = {"k+1": (k + 1,), "k,1,1": (k, 1, 1)}.get(shape, shape)
        message = rf"^right-hand side must have shape \({k},\) or \({k}, m\), got "
        with pytest.raises(ValueError, match=message):
            solve_spd(_random_spd(k), np.ones(shape))

    @pytest.mark.parametrize("k", [3, 11, 64, 65])
    @pytest.mark.parametrize("rhs", ["real", "complex", "real-2d", "complex-2d"])
    def test_solve_agrees_with_lapack_across_orders(self, k, rhs):
        from scipy.linalg import cho_factor, cho_solve

        # Orders 3 to 64 take the Python-float loop, 65 LAPACK; every one agrees with
        # scipy's cho_solve on well-conditioned matrices within 4k·eps·cond(a).
        rng = np.random.default_rng(k)
        for _ in range(5):
            m = rng.uniform(-1.0, 1.0, size=(k, k))
            a = m.T @ m + np.eye(k)
            b = rng.normal(size=(k, 4) if rhs.endswith("2d") else k)
            if rhs.startswith("complex"):
                b = b + 1j * rng.normal(size=b.shape)
            got, want = solve_spd(a, b), cho_solve(cho_factor(a, lower=True), b)
            assert got.dtype == want.dtype and got.shape == want.shape
            bound = 4 * k * np.finfo(float).eps * np.linalg.cond(a) * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("scale", [1.0, 1e-7, 1e7, 1e150])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rhs", ["real", "complex", "real-2d", "complex-2d"])
    def test_small_solve_agrees_with_lapack(self, scale, k, rhs):
        from scipy.linalg import cho_factor, cho_solve

        # Gram matrices of random linear designs with the covariate column scaled;
        # the error bound uses the condition of the equilibrated matrix, which the
        # scaling leaves alone (van der Sluis).
        rng = np.random.default_rng(11)
        d = np.array([1.0, scale])[-k:]
        for _ in range(50):
            x = rng.uniform(-10.0, 10.0, size=rng.integers(3, 30)) + rng.uniform(-100.0, 100.0)
            F = np.column_stack([np.ones_like(x), x])[:, :k] * d
            a = F.T @ F
            a = 0.5 * (a + a.T)
            rows = d[:, None] if rhs.endswith("2d") else d
            b = rng.normal(size=(k, 3) if rhs.endswith("2d") else k)
            if rhs.startswith("complex"):
                b = b + 1j * rng.normal(size=b.shape)
            b = b * rows
            got, want = solve_spd(a, b), cho_solve(cho_factor(a, lower=True), b)
            assert got.dtype == want.dtype
            s = np.sqrt(np.diag(a))
            cond = np.linalg.cond(a / s[:, None] / s[None, :])
            bound = 8 * np.finfo(float).eps * cond * np.max(np.abs(want * rows))
            assert np.max(np.abs((got - want) * rows)) <= bound

    @pytest.mark.parametrize("scale", [1e7, 1e20, 1e150])
    def test_pivot_guard_ignores_column_scale(self, scale):
        # Each pivot is compared with its own diagonal entry, not with the largest one.
        a = np.array([[11.0, 50.6 * scale], [50.6 * scale, 313.5 * scale * scale]])
        x = solve_spd(a, np.array([1.0, 4.6 * scale]))
        assert_allclose(x * [1.0, scale], [1.0 / 11.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("j", [1, 20, 39])
    def test_column_loop_reports_failing_index(self, j):
        # n = 40 takes the Python-float loop; row and column j duplicate j - 1.
        a = _random_spd(40)
        a[j, :] = a[j - 1, :]
        a[:, j] = a[:, j - 1]
        with pytest.raises(NotPositiveDefinite, match=f"index {j} "):
            solve_spd(a, np.ones(40))

    @pytest.mark.parametrize("n", [3, 40, 64])
    def test_column_loop_pivot_guard_ignores_column_scale(self, n):
        # Every other column scaled by 1e150: a guard against the largest diagonal entry
        # would call the unscaled pivots degenerate; each is judged against its own.
        d = np.where(np.arange(n) % 2 == 1, 1e150, 1.0)
        a = _random_spd(n)
        b = np.random.default_rng(6).uniform(-1.0, 1.0, size=n)
        x = solve_spd(a * d[:, None] * d[None, :], b * d)
        want = solve_spd(a, b)
        assert np.max(np.abs(x * d - want)) <= 1e-13 * np.max(np.abs(want))

    def test_blocked_factor_reports_failing_index(self):
        # n = 200 takes LAPACK's blocked path; row and column 150 duplicate 149.
        rng = np.random.default_rng(7)
        m = rng.uniform(-1.0, 1.0, size=(200, 200))
        a = m.T @ m + np.eye(200)
        a[150, :] = a[149, :]
        a[:, 150] = a[:, 149]
        with pytest.raises(NotPositiveDefinite, match="index 150 "):
            solve_spd(a, np.ones(200))

    @pytest.mark.parametrize("n", [3, 64, 65, 200])
    def test_large_factor_reads_lower_triangle(self, n):
        # An upper entry moved within SYMMETRY_RTOL of its mirror passes the scan, and the
        # factor, which never reads the strict upper triangle, gives the same bits.
        a = _random_spd(n)
        b = np.random.default_rng(6).uniform(-1.0, 1.0, size=n)
        perturbed = _with_entry(a, (0, n - 1), a[0, n - 1] * (1.0 + 1e-13))
        assert perturbed[0, n - 1] != a[0, n - 1]
        assert np.array_equal(solve_spd(perturbed, b), solve_spd(a, b))

    @pytest.mark.parametrize("k", [1, 2, 3, 64, 65])
    @pytest.mark.parametrize("rhs", ["real", "complex", "real-2d", "complex-2d"])
    def test_inputs_left_unchanged(self, k, rhs):
        # b of the working dtype is used as is, so an in-place update of one of its
        # rows would write into the caller's array.
        rng = np.random.default_rng(k)
        a = _random_spd(k)
        b = rng.normal(size=(k, 3) if rhs.endswith("2d") else k)
        if rhs.startswith("complex"):
            b = b + 1j * rng.normal(size=b.shape)
        a_before, b_before = a.copy(), b.copy()
        x = solve_spd(a, b)
        assert not np.shares_memory(x, b)
        assert a.tobytes() == a_before.tobytes()
        assert b.tobytes() == b_before.tobytes()

    @pytest.mark.parametrize("kind", [float, complex])
    def test_two_dimensional_solve_equals_its_columns(self, kind):
        # Each column of a 2-D right-hand side is solved as if it were alone, to the bit.
        rng = np.random.default_rng(14)
        for k in range(1, 65):
            m = rng.uniform(-1.0, 1.0, size=(k, k))
            a = m.T @ m + np.eye(k)
            b = rng.normal(size=(k, 3)).astype(kind)
            if kind is complex:
                b += 1j * rng.normal(size=(k, 3))
            x = solve_spd(a, b)
            assert x.flags.c_contiguous and x.dtype == np.dtype(kind) and x.shape == (k, 3)
            for j in range(3):
                assert x[:, j].tobytes() == solve_spd(a, b[:, j]).tobytes(), (k, j)

    @pytest.mark.parametrize("shape", [(300,), (300, 3), (300, 0)], ids=["1d", "2d", "no-columns"])
    def test_complex_right_hand_side_keeps_the_factor_real(self, shape):
        # Above _SMALL_ORDER a complex b is solved as the float64 columns of its real and imaginary
        # parts: zpotrs would cast the n×n factor to complex, n²·16 bytes more.  A real b keeps the
        # bits of cho_solve on _cholesky's factor; either b may be Fortran-ordered.
        from scipy.linalg import cho_solve

        n = shape[0]
        a = _random_spd(n)
        rng = np.random.default_rng(n)
        real = rng.normal(size=shape)
        b = real + 1j * rng.normal(size=shape)
        solve_spd(a, b)  # imports scipy.linalg before tracing starts
        x, peak = traced_peak(solve_spd, a, b)
        assert peak < 1.1 * n * n * 8
        factor = numerics._cholesky(a)
        want = cho_solve((factor, False), b, check_finite=False)
        assert x.dtype == np.complex128 and x.shape == shape
        assert np.max(np.abs(x - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)
        assert solve_spd(a, np.asfortranarray(b)).tobytes() == x.tobytes()
        for rhs in (real, np.asfortranarray(real)):
            assert solve_spd(a, rhs).tobytes() == cho_solve((factor, False), rhs, check_finite=False).tobytes()

    @pytest.mark.parametrize("k", [2, 65])
    def test_no_right_hand_side_columns(self, k):
        x = solve_spd(_random_spd(k), np.ones((k, 0)))
        assert x.shape == (k, 0) and x.dtype == np.float64

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([1.0, 1.0]))

    def test_not_square_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.ones((2, 3)), np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.one_of(st.integers(1, 5), st.sampled_from([200, 257])),
    )
    @example(seed=1, k=200)
    def test_random_spd_residual(self, seed, k):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-5.0, 5.0, size=(k, k))
        a = m.T @ m + np.eye(k)
        b = rng.uniform(-10.0, 10.0, size=k)
        x = solve_spd(a, b)
        residual = np.max(np.abs(a @ x - b))
        assert residual <= 1e-10 * max(np.max(np.abs(b)), 1e-30)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_number_rule_takes_float64_and_complex128_arrays_as_they_are(dtype):
    # Every query path hands the rules such arrays, and the rules neither copy nor cast them.
    x = np.arange(12.0).reshape(3, 4).astype(dtype)
    for view in (x, x.T, x[:, ::2]):
        assert numerics._numeric_array(view, "values") is view
        if dtype is np.float64:
            assert numerics._real_array(view, "values") is view


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([1, 2], np.float64),
        (np.array([1, 2], dtype=np.float32), np.float64),
        (np.array([1, 2], dtype=np.complex64), np.complex128),
        (np.array([1, 2.5], dtype=object), np.float64),
        (np.array([1, 2.5j], dtype=object), np.complex128),
    ],
    ids=["int-list", "float32", "complex64", "object-real", "object-complex"],
)
def test_number_rule_casts_every_other_dtype(values, dtype):
    x = numerics._numeric_array(values, "values")
    assert x.dtype == dtype and x.tolist() == np.asarray(values).tolist()


def test_solve_keeps_nothing(monkeypatch):
    # Repeats of a dense Λ are kept by kriging, not here: every call scans and solves.
    k = 65
    a = _random_spd(k)
    b = np.random.default_rng(k).normal(size=(k, 2))
    scans = record_calls(monkeypatch, numerics, "check_symmetric", np.shape)
    first = solve_spd(a, b)
    for calls in (2, 3):
        again = solve_spd(a, b)
        assert scans == [(k, k)] * calls
        assert again is not first and np.array_equal(again, first)


@pytest.mark.parametrize("k", [2, 11, 65])
def test_solve_scans_its_matrix_and_the_factor_step_does_not(k, monkeypatch):
    a = _random_spd(k)
    scans = record_calls(monkeypatch, numerics, "check_symmetric", np.shape)
    for calls in (1, 2):
        solve_spd(a, np.ones(k))
        assert scans == [(k, k)] * calls
    numerics._cholesky(a)
    assert scans == [(k, k)] * 2


def _symmetric_with_entry(a, spot, value):
    return _with_entry(_with_entry(a, spot, value), spot[::-1], value)


@pytest.mark.parametrize(
    "a",
    [
        [[np.nan]],
        [[np.inf]],
        [[np.nan, 0.5], [0.5, 2.0]],
        [[2.0, np.nan], [np.nan, 2.0]],
        [[2.0, 0.5], [0.5, np.inf]],
        [[2.0, -np.inf], [-np.inf, 2.0]],
        _symmetric_with_entry(_random_spd(3), (2, 1), np.inf),
        _symmetric_with_entry(_random_spd(200), (199, 0), np.nan),
        _symmetric_with_entry(_random_spd(200), (100, 100), np.inf),
    ],
    ids=[
        "nan-1",
        "inf-1",
        "nan-diagonal",
        "nan-off-diagonal",
        "inf-diagonal",
        "minus-inf-off-diagonal",
        "inf-off-diagonal-3",
        "nan-off-diagonal-200",
        "inf-diagonal-200",
    ],
)
def test_factor_step_rejects_a_non_finite_entry_at_its_pivot(a):
    # _cholesky makes no scan: a non-finite entry of the lower triangle leaves a NaN or infinite
    # pivot, which the pivot guard rejects.  So a Gram matrix that kriging forms need not be scanned.
    with pytest.raises(NotPositiveDefinite):
        numerics._cholesky(np.array(a))


@pytest.mark.parametrize("k", [65, 200])
class TestSolveMemo:
    """No memo is left in ``solve_spd``: a system edited in place between calls is solved afresh."""

    @pytest.mark.parametrize("edited", ["a", "b"])
    def test_in_place_edit_is_solved_afresh(self, k, edited, monkeypatch):
        # The edit leaves the last rows as they were: a check of them alone could not see it.
        a = _random_spd(k)
        b = np.random.default_rng(k).normal(size=k)
        solve_spd(a, b)
        first = solve_spd(a, b)
        if edited == "a":
            a[0, 0] += 1.0
        else:
            b[0] += 1.0
        scans = record_calls(monkeypatch, numerics, "check_symmetric", np.shape)
        x = solve_spd(a, b)
        assert scans == [(k, k)]
        assert not np.array_equal(x, first)
        assert x.tobytes() == solve_spd(a.copy(), b.copy()).tobytes()


def _order_one_and_two_cases():
    """Seeded SPD systems of order 1 and 2, built entry by entry in Python floats.

    Each matrix is ``L Lᵀ`` for a random lower factor, with its covariate column
    (and row) scaled by 1e-7 to 1e150; each right-hand side, real or complex, of
    shape (k,) or (k, 3), has its rows scaled to match and its columns scaled by
    the same range.  Nothing here calls BLAS, so the inputs are the same bits on
    every machine.
    """
    rng = random.Random(20)
    scales = [1e-7, 1e-3, 1.0, 1e3, 1e7, 1e20, 1e75, 1e150]
    for index in range(200):
        k = 1 + index % 2
        d = [1.0, rng.choice(scales)][2 - k :]
        l00, l10, l11 = rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(1e-3, 10.0)
        gram = [[l00 * l00, l10 * l00], [l10 * l00, l10 * l10 + l11 * l11]]
        a = np.array([[gram[i][j] * d[i] * d[j] for j in range(k)] for i in range(k)])
        for columns in (None, 3):
            e = [1.0] if columns is None else [rng.choice(scales) for _ in range(columns)]
            for kind in (float, complex):
                def entry(i, c):
                    u = rng.uniform(-1.0, 1.0)
                    if kind is complex:
                        u = complex(u, rng.uniform(-1.0, 1.0))
                    return u * d[i] * e[c]

                if columns is None:
                    b = np.array([entry(i, 0) for i in range(k)])
                else:
                    b = np.array([[entry(i, c) for c in range(columns)] for i in range(k)])
                yield a, b


def test_orders_one_and_two_keep_their_bits():
    # The trend Gram solves behind the golden CLI output: every result byte is frozen.
    digest = hashlib.sha256()
    count = 0
    for a, b in _order_one_and_two_cases():
        x = solve_spd(a, b)
        assert x.shape == b.shape and x.dtype == b.dtype
        digest.update(x.tobytes())
        count += 1
    assert count == 800
    assert digest.hexdigest() == "902bcb2f3fbd726473c57dfdab29ff773735f1761ba16ca79a110521c058243b"


def _verdict_by_rule(a):
    """The entry rule written straight: the error message for ``a``, or None if it passes."""
    if not np.isfinite(a).all():
        return "matrix must be finite"
    with np.errstate(over="ignore"):
        scale = np.max(np.abs(a))
        if scale > 0.0 and np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
            return "matrix is not symmetric within tolerance"
    return None


def _symmetry_cases(n):
    """Perturbations of one or two entries of a symmetric matrix of order ``n``.

    The positions cover both triangles, the diagonal, the first tile and the
    last (partial) one, and pairs of tiles far apart.
    """
    spots = {(1, 0), (0, 1), (0, 0), (n - 1, n - 1), (n - 1, n - 2), (n - 2, n - 1), (n - 1, 0), (0, n - 1)}
    spots = sorted((i, j) for i, j in spots if 0 <= min(i, j) and max(i, j) < n)
    singles = [("add", r) for r in (1e-13, -1e-13, 1e-11, -1e-11)] + [("shift", 1.0)]
    singles += [("set", v) for v in (np.nan, np.inf, -np.inf)]
    for spot, change in itertools.product(spots, singles):
        yield [(spot, change)]
    # A NaN next to a gross asymmetry elsewhere, in either order of the scan: finiteness wins.
    for p, q in itertools.permutations(spots, 2):
        yield [(p, ("set", np.nan)), (q, ("shift", 1.0))]
    # Two asymmetries under the bound whose sum is over it: the rule takes the largest.
    for p, q in itertools.combinations(spots, 2):
        yield [(p, ("add", 4e-13)), (q, ("add", 8e-13))]


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 257, 300])
@pytest.mark.parametrize("base", ["random", "zero", "tiny", "huge"])
def test_check_symmetric_agrees_with_rule(n, base):
    rng = np.random.default_rng(n)
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    sym = {"random": 1.0, "zero": 0.0, "tiny": 1e-300, "huge": 1e300}[base] * (m + m.T)
    # Relative perturbations of the zero matrix are taken against 1.
    scale = float(np.max(np.abs(sym))) or 1.0
    mismatches = []
    for case in [[]] + list(_symmetry_cases(n)):
        a = sym.copy()
        for (i, j), (how, v) in case:
            if how == "add":
                a[i, j] += v * scale
            elif how == "shift":
                a[i, j] += v
            else:
                a[i, j] = v
        try:
            with np.errstate(over="ignore"):
                check_symmetric(a)
            verdict = None
        except ValueError as exc:
            assert type(exc) is ValueError
            verdict = str(exc)
        if verdict != _verdict_by_rule(a):
            mismatches.append(case)
    assert not mismatches


def test_check_symmetric_makes_no_matrix_sized_temporary():
    a = np.eye(1000)
    _, peak = traced_peak(check_symmetric, a)
    assert peak < 1 << 20


def _symmetric_layouts(n):
    """One seeded symmetric matrix of order n, C-ordered and F-ordered, and another as a strided view."""
    m = np.random.default_rng([38, n]).uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    big = m + m.T
    c = np.ascontiguousarray(big[:n, :n])
    return {"C": c, "F": np.asfortranarray(c), "strided": big[::2, ::2]}


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [3, 128, 129, 300])
def test_check_symmetric_returns_max_abs(n, layout):
    a = _symmetric_layouts(n)[layout]
    assert check_symmetric(a).hex() == float(np.max(np.abs(a))).hex()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("spot", [(0, 1), (150, 140), (299, 298)], ids=["first", "middle", "last"])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_check_symmetric_rejects_a_non_finite_entry_in_any_tile(layout, spot, value):
    # Written at both mirror places, so only the finiteness rule can fail; the tiles are 128 wide.
    a = _symmetric_layouts(300)[layout]
    a[spot] = a[spot[::-1]] = value
    with pytest.raises(ValueError, match="matrix must be finite"):
        check_symmetric(a)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_check_symmetric_finds_an_asymmetry_in_the_last_tile(layout):
    a = _symmetric_layouts(300)[layout]
    bound = SYMMETRY_RTOL * check_symmetric(a)
    a[299, 298] = a[298, 299] + 1.01 * bound
    with pytest.raises(ValueError, match="not symmetric within tolerance"):
        check_symmetric(a)
    a[299, 298] = a[298, 299] + 0.99 * bound
    check_symmetric(a)


finite_complex = st.builds(
    complex,
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(a=finite_complex, b=finite_complex, c=finite_complex)
def test_complex_multiplication_associative(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))


@settings(max_examples=200, deadline=None)
@given(z=finite_complex)
def test_conjugate_involution_exact(z):
    assert z.conjugate().conjugate() == z


class TestConjugatePair:
    def test_from_plus_is_exact_conjugate(self):
        pair = ConjugatePair(1.25 - 3.5j)
        assert pair.minus == (1.25 + 3.5j)
        assert pair.plus.conjugate() == pair.minus

    def test_stores_the_plus_branch_only(self):
        assert [f.name for f in dataclasses.fields(ConjugatePair)] == ["plus"]

    def test_minus_of_a_real_value_has_negative_zero_imaginary_part(self):
        minus = ConjugatePair(4.6 + 0j).minus
        assert minus == 4.6
        assert math.copysign(1.0, minus.imag) == -1.0
