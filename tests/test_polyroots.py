import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaccel import polyroots
from memaccel.polyroots import (
    RealPolynomial,
    affine_crossing,
    affine_max_roots,
    companion_eigvals,
    residual_tolerance,
    roots,
    trim_noise,
)
from memaccel.errors import DegreeZeroError, NoConvergenceError


class TestEval:
    """coeffs are low-to-high: reversed, they are np.polyval's."""

    def test_pure_imaginary_quadratic(self):
        # (0.8i)^2 + 0.64 = -0.64 + 0.64
        p = RealPolynomial((0.64, 0.0, 1.0))
        assert np.polyval(p.coeffs[::-1], 0.8j) == pytest.approx(0.0)

    def test_factored_quadratic_at_root(self):
        p = RealPolynomial((2.0, -3.0, 1.0))  # (z-1)(z-2)
        assert np.polyval(p.coeffs[::-1], 1.0) == 0.0

    def test_constant(self):
        p = RealPolynomial((1.0,))
        assert np.polyval(p.coeffs[::-1], 5 + 2j) == 1.0

    def test_vectorized(self):
        p = RealPolynomial((2.0, -3.0, 1.0))
        z = np.array([1.0, 2.0, 0.0])
        np.testing.assert_allclose(np.polyval(p.coeffs[::-1], z), [0.0, 0.0, 2.0])


class TestNormalization:
    def test_trailing_zeros_trimmed(self):
        p = RealPolynomial((1.0, 2.0, 0.0, 0.0))
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)

    def test_zero_polynomial(self):
        p = RealPolynomial((0.0, 0.0))
        assert p.coeffs == (0.0,)

    def test_no_coefficients_is_the_zero_polynomial(self):
        assert RealPolynomial(()).coeffs == (0.0,)


class TestRoots:
    def test_factored_quadratic(self):
        r = roots(RealPolynomial((2.0, -3.0, 1.0)))
        np.testing.assert_allclose(r.roots, [1.0, 2.0], atol=1e-12)

    def test_conjugate_pair_modulus(self):
        r = roots(RealPolynomial((0.64, 0.0, 1.0)))
        np.testing.assert_allclose(sorted(z.imag for z in r.roots), [-0.8, 0.8],
                                   atol=1e-12)
        assert max(abs(z) for z in r.roots) == pytest.approx(0.8, abs=1e-12)

    def test_degree_six_residual_oracle(self):
        rng = np.random.default_rng(42)
        p = RealPolynomial(tuple(rng.uniform(-10, 10, 7)))
        r = roots(p)
        assert len(r) == 6
        for z in r.roots:
            assert abs(np.polyval(p.coeffs[::-1], z)) <= residual_tolerance(p.coeffs, abs(z))

    def test_constant_rejected(self):
        with pytest.raises(DegreeZeroError):
            roots(RealPolynomial((3.0,)))

    def test_subnormal_leading_coefficient_rejected(self):
        # 1 / 2.2e-309 overflows: the monic form is not finite, which is a
        # domain error, not numpy's LinAlgError from the companion matrix.
        with pytest.raises(NoConvergenceError, match="not finite"):
            roots(RealPolynomial((1.0, 2.2e-309)))

    def test_deterministic_order(self):
        p = RealPolynomial(tuple(np.random.default_rng(7).uniform(-5, 5, 9)))
        a = roots(p).roots
        b = roots(p).roots
        assert a == b
        assert list(a) == sorted(a, key=lambda z: (z.real, z.imag))


class TestCompanionEigvals:
    def test_batched_rows(self):
        # (z-1)(z-2), z^2 + 0.64 and 3z^2 - 6 in one call
        stack = np.array([[2.0, -3.0, 1.0], [0.64, 0.0, 1.0], [-6.0, 0.0, 3.0]])
        eigs = companion_eigvals(stack)
        assert eigs.shape == (3, 2)
        expect = ([1.0, 2.0], [-0.8j, 0.8j], [-np.sqrt(2.0), np.sqrt(2.0)])
        for row, want in zip(eigs, expect):
            got = sorted(row.astype(complex), key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linear_is_exact(self):
        assert companion_eigvals(np.array([[3.0, -1.5]])).tolist() == [[2.0]]


class TestPolish:
    def test_repairs_companion_start(self):
        # Companion eigenvalues alone miss the residual contract on the
        # small root of z^2 + 1e8 z + 1; the Aberth polish repairs it.
        p = RealPolynomial((1.0, 1e8, 1.0))
        start = companion_eigvals(np.array([p.coeffs]))[0].astype(complex)
        residual = np.abs(np.polyval(p.coeffs[::-1], start))
        assert np.any(residual > residual_tolerance(p.coeffs, start))
        r = roots(p)
        assert r.roots[1] == pytest.approx(-1e-8, rel=1e-12, abs=0.0)
        for z, res in zip(r.roots, r.residuals):
            assert res <= residual_tolerance(p.coeffs, abs(z))

    def test_spent_budget_raises(self, monkeypatch):
        # test_repairs_companion_start's polynomial needs the polish.
        monkeypatch.setattr(polyroots, "MAX_POLISH_ITERS", 0)
        with pytest.raises(NoConvergenceError,
                           match="^residual contract unreachable in 0 iterations$"):
            roots(RealPolynomial((1.0, 1e8, 1.0)))

    def test_overflowing_residual_is_a_miss(self):
        # |p(z)| and its tolerance both overflow at the root near -1e11;
        # an infinite residual must not pass the contract.
        p = RealPolynomial((1.0,) * 32 + (1e-11,))
        with np.errstate(all="ignore"), pytest.raises(NoConvergenceError):
            roots(p)

    def test_non_finite_root_stops_polish_silently(self, monkeypatch):
        # The first Aberth step sends the root near -1e11 to a non-finite
        # value, which no later step can repair: the polish stops there
        # instead of spending its budget, and no numpy warning escapes.
        calls = []
        evaluate = polyroots._eval_and_derivative
        monkeypatch.setattr(polyroots, "_eval_and_derivative",
                            lambda c, z: calls.append(z) or evaluate(c, z))
        p = RealPolynomial((1.0,) * 32 + (1e-11,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergenceError, match="non-finite"):
                roots(p)
        assert len(calls) == 2  # the contract test and one Aberth step


class TestTrimNoise:
    def test_drops_coefficients_below_rounding_of_the_largest(self):
        eps = np.finfo(float).eps
        np.testing.assert_array_equal(trim_noise([1.0, -eps, 2.0 * eps, 9.4e-291, -3.0]),
                                      [1.0, 0.0, 0.0, 0.0, -3.0])
        np.testing.assert_array_equal(trim_noise([0.0, 0.0]), [0.0, 0.0])


class TestProperties:
    N_RANDOM = 10_000

    def test_count_residual_conjugacy_random(self):
        rng = np.random.default_rng(0)
        for _ in range(self.N_RANDOM):
            deg = int(rng.integers(1, 33))
            coeffs = rng.uniform(-10, 10, deg + 1)
            if coeffs[-1] == 0.0:
                coeffs[-1] = 1.0
            p = RealPolynomial(tuple(coeffs))
            r = roots(p)
            assert len(r) == p.degree
            for z, res in zip(r.roots, r.residuals):
                assert res <= residual_tolerance(p.coeffs, abs(z))
            _assert_conjugate_pairs(r.roots)

    def test_quadratics_match_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(self.N_RANDOM):
            a, b, c = rng.uniform(-10, 10, 3)
            if a == 0.0:
                a = 1.0
            disc = complex(b * b - 4 * a * c)
            expect = sorted([(-b + np.sqrt(disc)) / (2 * a),
                             (-b - np.sqrt(disc)) / (2 * a)],
                            key=lambda z: (z.real, z.imag))
            got = roots(RealPolynomial((c, b, a))).roots
            for z, w in zip(got, expect):
                assert abs(z - w) <= 1e-10 * max(1.0, abs(w))


class TestAffineFamily:
    """q(z) + slope*s*z^k: the largest root modulus over an interval of s."""

    def test_max_roots_match_roots(self):
        q, k, slope = np.array([0.3, -0.2, 0.5, 1.0]), 1, -1.5
        s = np.array([-1.0, 0.0, 0.4, 2.0])
        moduli, top = affine_max_roots(q, k, slope, s)
        for si, m, z in zip(s, moduli, top):
            c = q.copy()
            c[k] += slope * si
            r = roots(RealPolynomial(tuple(c)))
            assert m == pytest.approx(max(abs(z) for z in r.roots), rel=1e-12)
            assert abs(z) == m

    @pytest.mark.parametrize("slope", [0.7, -0.7])
    def test_linear_family_is_exact(self, slope):
        # z - 1 + slope*s has its one root at 1 - slope*s.
        lo, hi = 0.5, 3.0
        sup = max(abs(1 - slope * lo), abs(1 - slope * hi))
        s, root, n = affine_crossing([-1.0, 1.0], 0, slope, lo, hi, sup * (1 - 1e-9))
        assert abs(root) > sup * (1 - 1e-9) and lo <= s <= hi and n >= 3
        _, root, _ = affine_crossing([-1.0, 1.0], 0, slope, lo, hi, sup * (1 + 1e-9))
        assert abs(root) <= sup * (1 + 1e-9)

    def test_identically_zero_crossing_polynomial(self):
        # z^2 + (s - 1) z + 1/4: P_r vanishes at r = 1/2. The roots are a
        # conjugate pair of modulus 1/2 for s in [0, 2] and real outside,
        # where one of them leaves the circle |z| = 1/2.
        q = [0.25, -1.0, 1.0]
        s, root, _ = affine_crossing(q, 1, 1.0, -1.0, 3.0, 0.5)
        assert abs(root) > 0.5 and not 0.0 <= s <= 2.0
        assert abs(root**2 + (s - 1) * root + 0.25) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_decides_like_dense_sampling(self, k, data):
        """A hit is a real root above r; a miss leaves every dense sample
        at or below r; a radius under the dense maximum is always hit."""
        coef = st.floats(-3.0, 3.0)
        q = np.array(data.draw(st.lists(coef, min_size=k + 1, max_size=k + 1)) + [1.0])
        slope = data.draw(coef.filter(lambda v: abs(v) > 1e-3))
        lo = data.draw(st.floats(-3.0, 2.9))
        hi = data.draw(st.floats(lo + 1e-3, 3.0))
        dense = affine_max_roots(q, k, slope, np.linspace(lo, hi, 4001))[0].max()
        for r in (dense * (1 - 1e-7), dense * data.draw(st.floats(0.5, 1.5))):
            s, root, _ = affine_crossing(q, k, slope, lo, hi, r)
            assert lo <= s <= hi
            c = q.copy()
            c[k] += slope * s
            assert abs(np.polyval(c[::-1], root)) <= residual_tolerance(c, abs(root)) * 1e3
            if abs(root) <= r:
                assert dense <= r * (1 + 1e-12)


def _assert_conjugate_pairs(rts, tol=1e-9):
    complex_roots = sorted((z for z in rts if z.imag != 0),
                           key=lambda z: (z.real, abs(z.imag), z.imag))
    assert len(complex_roots) % 2 == 0
    for i in range(0, len(complex_roots), 2):
        a, b = complex_roots[i], complex_roots[i + 1]
        assert abs(a.real - b.real) <= tol
        assert abs(a.imag + b.imag) <= tol
