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
        # Second pivot lands below 1e-14 of the largest diagonal entry.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(a, np.array([1.0, 1.0]))

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
