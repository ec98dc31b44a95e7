import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ckrig.numerics import ConjugatePair, NotPositiveDefinite, solve_spd


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
        pair = ConjugatePair.from_plus(1.25 - 3.5j)
        assert pair.minus == (1.25 + 3.5j)
        assert pair.plus.conjugate() == pair.minus

    def test_branch_accessor(self):
        pair = ConjugatePair.from_plus(2.0 + 1.0j)
        assert pair.branch("plus") == pair.plus
        assert pair.branch("minus") == pair.minus
        with pytest.raises(ValueError):
            pair.branch("sideways")
