import numpy as np
import pytest

from memaccel import accel
from memaccel.accel import (
    SEARCH_GRID,
    SEARCH_REFINE_TOL,
    Gains,
    _nelder_mead,
    char_poly,
    guarantee,
    max_root_moduli,
    modal_angle,
    mode_roots,
    search_gains,
    tune_memoryless,
    tune_theorem3,
)
from memaccel.errors import AlphaZeroError, OutOfIntervalError
from memaccel.polyroots import max_modulus
from memaccel.spectral import SpectralInterval, SpectralSet

REF_IV = SpectralInterval(0.0122, 0.9878)


class TestGains:
    def test_beta_count_enforced(self):
        with pytest.raises(ValueError):
            Gains(M=3, alpha=1.0, betas=(0.1,))

    def test_alpha_zero_rejected(self):
        with pytest.raises(AlphaZeroError):
            Gains(M=2, alpha=0.0, betas=(0.1,))

    def test_memoryless(self):
        g = Gains(M=1, alpha=0.5)
        assert g.betas == ()

    @pytest.mark.parametrize("alpha, betas", [
        (np.nan, (0.1,)), (np.inf, (0.1,)), (1.0, (np.nan,)), (1.0, (-np.inf,)),
    ])
    def test_non_finite_rejected(self, alpha, betas):
        with pytest.raises(ValueError):
            Gains(M=2, alpha=alpha, betas=betas)


class TestCharPoly:
    def test_reference_tuning_midpoint(self):
        # 1 - alpha*lambda = -0.64 cancels beta1, leaving z^2 + 0.64
        g = Gains(M=2, alpha=3.28, betas=(-0.64,))
        p = char_poly(g, 0.5)
        np.testing.assert_allclose(p.coeffs, (0.64, 0.0, 1.0), atol=1e-15)

    def test_memoryless_mode(self):
        p = char_poly(Gains(M=1, alpha=0.5), 1.2)
        np.testing.assert_allclose(p.coeffs, (-(1 - 0.5 * 1.2), 1.0))

    def test_memory_gain_off(self):
        g = Gains(M=2, alpha=0.5, betas=(0.0,))
        r = mode_roots(g, 1.2)
        np.testing.assert_allclose(
            sorted(z.real for z in r.roots), sorted([0.0, 1 - 0.5 * 1.2]), atol=1e-12
        )


class TestModeRoots:
    def test_reference_midpoint(self):
        t = tune_theorem3(REF_IV)
        r = mode_roots(t.gains, 0.5)
        np.testing.assert_allclose(
            sorted(z.imag for z in r.roots), [-t.nu_star, t.nu_star], atol=1e-9
        )
        assert max_modulus(r) == pytest.approx(0.8, abs=1e-4)

    def test_lower_endpoint_double_root(self):
        t = tune_theorem3(REF_IV)
        r = mode_roots(t.gains, REF_IV.lo)
        # discriminant vanishes at the endpoints: near-double positive root
        for z in r.roots:
            assert abs(z) == pytest.approx(t.nu_star, abs=1e-6)
            assert z.real > 0

    def test_memoryless_upper_endpoint(self):
        r = mode_roots(Gains(M=1, alpha=2.0), 0.9878)
        assert r.roots[0] == pytest.approx(-0.9756, abs=1e-12)


class TestMaxRootModuli:
    def test_memoryless_is_exact(self):
        lams = np.linspace(0.01, 3.0, 301)
        np.testing.assert_array_equal(max_root_moduli(Gains(M=1, alpha=0.7), lams),
                                      np.abs(1.0 - 0.7 * lams))

    def test_matches_mode_roots(self):
        g = Gains(M=4, alpha=3.6908, betas=(-0.9083, 0.006662, 0.06785))
        lams = np.array([0.0122, 0.015, 0.5, 0.9878])
        expect = [max_modulus(mode_roots(g, lam)) for lam in lams]
        np.testing.assert_allclose(max_root_moduli(g, lams), expect, rtol=1e-12)


class TestGuarantee:
    def test_reference_interval(self):
        t = tune_theorem3(REF_IV)
        rep = guarantee(t.gains, REF_IV)
        assert rep.nu == pytest.approx(0.8000, abs=1e-4)

    def test_memoryless_reference(self):
        rep = guarantee(Gains(M=1, alpha=2.0), REF_IV)
        assert rep.nu == pytest.approx(0.9756, abs=1e-6)
        assert rep.worst_lambda in (pytest.approx(REF_IV.lo), pytest.approx(REF_IV.hi))

    def test_reference_m4_set(self):
        g = Gains(M=4, alpha=3.6908, betas=(-0.9083, 0.006662, 0.06785))
        s = SpectralSet(intervals=(SpectralInterval(0.0122, 0.0182),), points=(0.9878,))
        rep = guarantee(g, s)
        assert rep.nu == pytest.approx(0.7560, abs=5e-4)

    def test_degenerate_set_matches_mode_roots(self):
        g = Gains(M=3, alpha=1.3, betas=(-0.4, 0.1))
        s = SpectralSet(points=(0.7,))
        rep = guarantee(g, s)
        assert rep.nu == max_modulus(mode_roots(g, 0.7))
        assert rep.worst_lambda == 0.7

    def test_nu_is_max_of_samples_at_worst_lambda(self):
        g = Gains(M=2, alpha=1.0, betas=(-0.3,))
        rep = guarantee(g, SpectralInterval(0.5, 2.5), grid=101)
        assert rep.nu == max(v for _, v in rep.samples)
        recorded = dict(rep.samples)
        assert recorded[rep.worst_lambda] == rep.nu

    def test_divergent_tuning_reported_as_is(self):
        rep = guarantee(Gains(M=1, alpha=-1.0), SpectralInterval(1.0, 2.0))
        assert rep.nu > 1.0

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_refine_tol_must_be_finite_positive(self, tol):
        with pytest.raises(ValueError):
            guarantee(Gains(M=2, alpha=1.0, betas=(-0.3,)), SpectralInterval(0.5, 2.5),
                      refine_tol=tol)


class TestTuneMemoryless:
    def test_reference(self):
        alpha, mu = tune_memoryless(REF_IV)
        assert alpha == pytest.approx(2.0, abs=1e-12)
        assert mu == pytest.approx(0.9756, abs=1e-12)

    def test_single_eigenvalue_deadbeat(self):
        alpha, mu = tune_memoryless(SpectralInterval(1.0, 1.0))
        assert (alpha, mu) == (1.0, 0.0)

    def test_one_three(self):
        alpha, mu = tune_memoryless(SpectralInterval(1.0, 3.0))
        assert (alpha, mu) == (0.5, 0.5)


class TestTuneTheorem3:
    def test_reference(self):
        t = tune_theorem3(REF_IV)
        assert t.alpha_star == pytest.approx(3.2800, abs=1e-3)
        assert t.beta1_star == pytest.approx(-0.6400, abs=1e-3)
        assert t.nu_star == pytest.approx(0.8000, abs=1e-4)
        assert t.mu == pytest.approx(0.9756, abs=1e-6)

    def test_nu_identity(self):
        mu = 0.9756
        t = tune_theorem3(SpectralInterval(1 - mu, 1 + mu))
        assert t.nu_star == pytest.approx(1 / mu - np.sqrt(1 / mu**2 - 1), abs=1e-12)
        assert np.sqrt(-t.beta1_star) == pytest.approx(t.nu_star, abs=1e-12)

    def test_degenerate(self):
        t = tune_theorem3(SpectralInterval(1.0, 1.0))
        assert t.degenerate
        assert (t.alpha_star, t.beta1_star, t.nu_star) == (1.0, 0.0, 0.0)

    def test_extra_slots_zero(self):
        t = tune_theorem3(REF_IV, M=5)
        assert t.gains.betas[1:] == (0.0, 0.0, 0.0)


class TestModalAngle:
    def test_endpoints(self):
        assert modal_angle(REF_IV.lo, REF_IV) == pytest.approx(0.0, abs=1e-6)
        assert modal_angle(REF_IV.hi, REF_IV) == pytest.approx(np.pi, abs=1e-6)

    def test_midpoint(self):
        mid = 0.5 * (REF_IV.lo + REF_IV.hi)
        assert modal_angle(mid, REF_IV) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_out_of_interval(self):
        with pytest.raises(OutOfIntervalError):
            modal_angle(2.0, REF_IV)

    def test_matches_mode_root_angle(self):
        t = tune_theorem3(REF_IV)
        for lam in np.linspace(REF_IV.lo * 1.5, REF_IV.hi * 0.95, 7):
            r = mode_roots(t.gains, lam)
            expected = max(np.angle(z) for z in r.roots)
            assert modal_angle(lam, REF_IV) == pytest.approx(expected, abs=1e-7)


class TestConstantModulusProperty:
    def test_constant_modulus_and_monotone_angle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lo = rng.uniform(1e-3, 1.0)
            hi = lo * rng.uniform(1.001, 1e4)
            iv = SpectralInterval(lo, hi)
            t = tune_theorem3(iv)
            lams = np.linspace(lo, hi, 50)
            mods = max_root_moduli(t.gains, lams)
            np.testing.assert_allclose(mods, t.nu_star, atol=1e-8)
            angles = [modal_angle(l, iv) for l in lams]
            assert all(b >= a for a, b in zip(angles, angles[1:]))


class TestSearchGains:
    def test_single_point_deadbeat(self):
        g, rep = search_gains(SpectralSet(points=(1.0,)), M=2, budget=50)
        assert rep.nu <= 1e-10

    def test_no_improvement_on_reference_interval(self):
        g, rep = search_gains(SpectralSet.from_interval(REF_IV), M=2, budget=150)
        assert rep.nu == pytest.approx(0.8000, abs=1e-4)

    def test_improves_on_structured_set(self):
        s = SpectralSet(intervals=(SpectralInterval(0.0122, 0.0182),), points=(0.9878,))
        g, rep = search_gains(s, M=4, rng_seed=0)
        assert rep.nu <= 0.757

    def test_deterministic(self):
        s = SpectralSet(points=(0.5, 1.5))
        g1, r1 = search_gains(s, M=2, budget=60, rng_seed=3)
        g2, r2 = search_gains(s, M=2, budget=60, rng_seed=3)
        assert g1 == g2 and r1.nu == r2.nu


DEMO03_SET = SpectralSet(intervals=(SpectralInterval(0.0122, 0.0182),), points=(0.9878,))


def _rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def _rounded_rosenbrock(x):
    # Integer plateaus make contractions fail, so the simplex shrinks, and
    # give ties for the vertex sort and the contraction tests.
    return float(np.round(_rosenbrock(x)))


def _demo03_nu(x):
    g = Gains(M=4, alpha=float(x[0]), betas=tuple(x[1:]))
    return guarantee(g, DEMO03_SET, grid=SEARCH_GRID, refine_tol=SEARCH_REFINE_TOL).nu


class TestNelderMead:
    """_nelder_mead evaluates exactly the points scipy's Nelder-Mead does."""

    @staticmethod
    def _calls(f, x0, maxfev, xatol, fatol):
        """(points _nelder_mead calls f on, the same for scipy, and the
        number of calls scipy's iterations had made after each step)."""
        scipy_optimize = pytest.importorskip("scipy.optimize")
        ours, ref, after_step = [], [], []

        def recorder(out):
            def g(x):
                out.append(np.array(x))
                return f(x)
            return g

        _nelder_mead(recorder(ours), x0, maxfev, xatol, fatol)
        scipy_optimize.minimize(
            recorder(ref), x0, method="Nelder-Mead",
            callback=lambda *_: after_step.append(len(ref)),
            options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
        shape = (-1, len(x0))
        return np.reshape(ours, shape), np.reshape(ref, shape), np.array(after_step)

    @pytest.mark.parametrize("f", [_rosenbrock, _rounded_rosenbrock])
    def test_2d_matches_scipy_at_every_budget(self, f):
        x0 = np.array([-1.2, 1.0])
        ours, ref, after_step = self._calls(f, x0, 10_000, 1e-8, 1e-8)
        assert len(ref) < 10_000  # stopped by xatol/fatol
        np.testing.assert_array_equal(ours, ref)
        step_calls = np.diff(after_step)
        assert step_calls.max() >= 2
        if f is _rounded_rosenbrock:
            assert step_calls.max() == 4  # reflection, contraction, 2-point shrink
        # Every budget up to the full run: each multi-call step (expansion,
        # contraction, shrink) is cut after each of its calls somewhere.
        for maxfev in range(len(ref) + 1):
            ours, ref_cut, _ = self._calls(f, x0, maxfev, 1e-8, 1e-8)
            np.testing.assert_array_equal(ours, ref_cut)
            np.testing.assert_array_equal(ours, ref[:maxfev])

    def test_4d_search_objective_matches_scipy(self):
        seed = tune_theorem3(DEMO03_SET.hull(), M=4).gains
        x0 = np.array([seed.alpha, *seed.betas])
        x0 = x0 + np.random.default_rng(0).normal(0.0, 0.15, 4) * np.maximum(np.abs(x0), 0.3)
        cache = {}

        def f(x):
            key = tuple(x)
            if key not in cache:
                cache[key] = _demo03_nu(x)
            return cache[key]

        ours, ref, _ = self._calls(f, x0, 120, 1e-11, 1e-13)
        assert len(ref) == 120
        np.testing.assert_array_equal(ours, ref)
        for maxfev in range(120):
            ours, ref_cut, _ = self._calls(f, x0, maxfev, 1e-11, 1e-13)
            np.testing.assert_array_equal(ours, ref_cut)


class TestSearchBudget:
    @pytest.mark.parametrize("budget", [1, 13, 30, 100])
    def test_at_most_budget_search_evaluations(self, monkeypatch, budget):
        search_evals = []
        orig = accel.guarantee

        def counted(g, s, **kwargs):
            if kwargs.get("grid") == SEARCH_GRID:
                search_evals.append(g)
            return orig(g, s, **kwargs)

        monkeypatch.setattr(accel, "guarantee", counted)
        search_gains(SpectralSet(points=(0.5, 1.5)), M=3, budget=budget, rng_seed=1)
        assert 0 < len(search_evals) <= budget
