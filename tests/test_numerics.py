import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ckrig.numerics import (
    SYMMETRY_RTOL,
    ConjugatePair,
    NotPositiveDefinite,
    check_symmetric,
    solve_spd,
)


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
        a = np.array(a)
        with np.errstate(invalid="ignore"), pytest.raises(NotPositiveDefinite, match=f"index {index} "):
            solve_spd(a, np.ones(a.shape[0]))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "b",
        [[1, 2], [1.0, 2.0], np.float32([1.0, 2.0]), [1.0 + 2.0j, 3.0j], np.complex64([1.0j, 2.0])],
        ids=["int", "float", "float32", "complex", "complex64"],
    )
    @pytest.mark.parametrize("columns", [None, 3])
    def test_small_solve_keeps_shape_and_promoted_dtype(self, k, b, columns):
        b = np.asarray(b)[:k]
        if columns is not None:
            b = np.repeat(b[:, None], columns, axis=1)
        x = solve_spd(np.array([[4.0, 1.0], [1.0, 3.0]])[:k, :k], b)
        assert x.shape == b.shape
        assert x.dtype == np.result_type(b, float)

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

    @pytest.mark.parametrize(
        "a",
        [
            [[2.0, np.nan], [np.nan, 2.0]],
            [[2.0, 0.5], [0.5, np.inf]],
            [[2.0, 0.5], [0.5, np.nan]],
        ],
        ids=["nan-off-diagonal", "inf-diagonal", "nan-diagonal"],
    )
    def test_non_finite_raises_not_positive_definite(self, a):
        with np.errstate(invalid="ignore"), pytest.raises(NotPositiveDefinite):
            solve_spd(np.array(a), np.array([1.0, 1.0]))

    def test_blocked_factor_reports_failing_index(self):
        # n = 200 takes LAPACK's blocked path; row and column 150 duplicate 149.
        rng = np.random.default_rng(7)
        m = rng.uniform(-1.0, 1.0, size=(200, 200))
        a = m.T @ m + np.eye(200)
        a[150, :] = a[149, :]
        a[:, 150] = a[:, 149]
        with pytest.raises(NotPositiveDefinite, match="index 150 "):
            solve_spd(a, np.ones(200))

    @pytest.mark.parametrize("n", [3, 200])
    def test_large_factor_reads_lower_triangle(self, n):
        # The strict upper triangle is never read, so only the lower NaN is seen,
        # and it is first used by the last pivot.
        rng = np.random.default_rng(5)
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        a = m.T @ m + np.eye(n)
        a[n - 1, 1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NotPositiveDefinite, match=f"index {n - 1} "):
            solve_spd(a, np.ones(n))

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


def _symmetric_by_rule(a):
    """The symmetry rule written straight: NaN and ±inf entries pass."""
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.max(np.abs(a))
        return not (scale > 0.0 and np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale)


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
    # A NaN next to a gross asymmetry elsewhere, in either order of the scan: the matrix passes.
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
            with np.errstate(invalid="ignore", over="ignore"):
                check_symmetric(a)
            passed = True
        except ValueError as exc:
            assert str(exc) == "matrix is not symmetric within tolerance"
            passed = False
        if passed != _symmetric_by_rule(a):
            mismatches.append(case)
    assert not mismatches


def test_check_symmetric_makes_no_matrix_sized_temporary():
    a = np.eye(1000)
    tracemalloc.start()
    try:
        check_symmetric(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
