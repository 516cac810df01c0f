import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaccel import accel
from memaccel.accel import (
    DEFAULT_REFINE_TOL,
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
from memaccel.errors import AlphaZeroError, MemaccelError, OutOfIntervalError
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
        assert max(abs(z) for z in r.roots) == pytest.approx(0.8, abs=1e-4)

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
        expect = [max(abs(z) for z in mode_roots(g, lam).roots) for lam in lams]
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
        assert rep.nu == max(abs(z) for z in mode_roots(g, 0.7).roots)
        assert rep.nu == max_root_moduli(g, [0.7])[0]
        assert rep.worst_lambda == 0.7

    def test_nu_lo_is_max_of_samples_at_worst_lambda(self):
        g = Gains(M=2, alpha=1.0, betas=(-0.3,))
        rep = guarantee(g, SpectralInterval(0.5, 2.5), grid=101)
        assert rep.nu_lo == max(v for _, v in rep.samples)
        recorded = dict(rep.samples)
        assert recorded[rep.worst_lambda] == rep.nu_lo
        assert rep.nu_lo <= rep.nu <= rep.nu_lo + DEFAULT_REFINE_TOL

    def test_narrow_peak_between_grid_samples(self):
        # A 65-point grid with its local-maximum refinement reported 1.2115772360
        # here; the curve peaks near lambda = 0.086301 at 1.2115869282.
        g = Gains(5, 7.421961710503621, (-0.7779864877157927, -0.3638831504177591,
                                        -0.17379537342665108, 0.6831472941756749))
        iv = SpectralInterval(0.0022662137989445576, 0.22996057247561533)
        rep = guarantee(g, iv, grid=65, refine_tol=1e-2)
        dense = max_root_moduli(g, np.linspace(0.0862, 0.0864, 20001)).max()
        assert rep.nu >= dense - 1e-12
        assert rep.nu_lo <= rep.nu <= rep.nu_lo + 1e-2

    def test_divergent_tuning_reported_as_is(self):
        rep = guarantee(Gains(M=1, alpha=-1.0), SpectralInterval(1.0, 2.0))
        assert rep.nu > 1.0

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_refine_tol_must_be_finite_positive(self, tol):
        with pytest.raises(ValueError):
            guarantee(Gains(M=2, alpha=1.0, betas=(-0.3,)), SpectralInterval(0.5, 2.5),
                      refine_tol=tol)

    def test_refinement_near_largest_float(self):
        # The bracket midpoint 0.5 * (lo + hi) overflowed here, and the
        # root solver then raised on an inf coefficient.
        iv = SpectralInterval(1e308, 1.7e308)
        rep = guarantee(Gains(M=2, alpha=1e-308, betas=(-0.1,)), iv, grid=9)
        # alpha * lam - 1.1 stays in [-0.1, 0.6], so both roots are complex
        # with modulus sqrt(-beta1) everywhere on the interval.
        assert rep.nu == pytest.approx(np.sqrt(0.1), rel=1e-12)
        assert all(iv.contains(lam) for lam, _ in rep.samples)

    @pytest.mark.parametrize("g, message", [
        pytest.param(Gains(2, alpha, (-0.5,)), "alpha*lambda or a power of it overflows "
                     f"for alpha={alpha}, lambda=10.0", id=str(alpha))
        for alpha in (1e308, 1e300)
    ] + [pytest.param(Gains(3, 1.0, (1e308, 1e308)),
                      "the sum of the betas overflows for betas=(1e+308, 1e+308)", id="beta-sum")])
    def test_overflowing_alpha_lambda_raises(self, g, message):
        # At alpha = 1e308, alpha * 10 overflowed to inf and numpy's
        # eigenvalue solve raised LinAlgError after a RuntimeWarning. At
        # 1e300 the crossing test's powers of the ~1e301 root overflowed,
        # its candidates were lost, and an unproven nu = 1e301 came back
        # with two RuntimeWarnings. Finite betas whose sum overflows made
        # an inf coefficient with no warning, and then the same LinAlgError.
        with pytest.raises(MemaccelError, match=f"^{re.escape(message)}$"):
            guarantee(g, SpectralInterval(1.0, 10.0))

    def test_max_root_moduli_overflow_raises(self):
        message = "alpha*lambda or a power of it overflows for alpha=1e+308, lambda=10.0"
        with pytest.raises(MemaccelError, match=f"^{re.escape(message)}$"):
            max_root_moduli(Gains(2, 1e308, (-0.5,)), [1.0, 10.0])

    def test_overflowing_beta_sum_raises(self):
        # char_poly returned an inf coefficient, and max_root_moduli raised
        # numpy's LinAlgError.
        g = Gains(3, 1.0, (1e308, 1e308))
        message = "the sum of the betas overflows for betas=(1e+308, 1e+308)"
        for call in (lambda: char_poly(g, 1.0), lambda: max_root_moduli(g, [1.0])):
            with pytest.raises(MemaccelError, match=f"^{re.escape(message)}$"):
                call()


@st.composite
def gains_and_sets(draw):
    M = draw(st.integers(1, 5))
    alpha = draw(st.floats(0.05, 8.0) | st.floats(-2.0, -0.05))
    betas = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(M - 1))
    intervals = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.floats(1e-3, 2.0))
        intervals.append(SpectralInterval(lo, lo * draw(st.floats(1.0, 50.0))))
    points = tuple(draw(st.lists(st.floats(1e-3, 2.0), max_size=2)))
    return Gains(M, alpha, betas), SpectralSet(intervals=tuple(intervals), points=points)


class TestCertifiedGuarantee:
    """nu is a certified upper bound and nu_lo an attained value, at most
    refine_tol below it."""

    @settings(max_examples=150, deadline=None)
    @given(gains_and_sets(), st.sampled_from([9, 65, 2001]),
           st.sampled_from([1e-2, 1e-7, 1e-10]))
    def test_bracket_holds_the_supremum(self, gs, grid, tol):
        g, s = gs
        rep = guarantee(g, s, grid=grid, refine_tol=tol)
        dense = max((max_root_moduli(g, np.linspace(iv.lo, iv.hi, 3001)).max()
                     for iv in s.intervals), default=0.0)
        assert rep.nu >= dense - 1e-12
        assert rep.nu_lo <= rep.nu <= rep.nu_lo + tol * (1 + 1e-12)
        assert (any(iv.contains(rep.worst_lambda) for iv in s.intervals)
                or rep.worst_lambda in s.points)
        # One eigenvalue solve can round differently from another.
        assert max_root_moduli(g, rep.worst_lambda)[0] == pytest.approx(rep.nu_lo, rel=1e-12)

    @staticmethod
    def _mp_max_modulus(coeffs):
        return max(abs(z) for z in mpmath.polyroots(coeffs[::-1], maxsteps=200,
                                                    extraprec=200))

    @pytest.mark.parametrize("g, iv", [
        (Gains(5, 7.421961710503621, (-0.7779864877157927, -0.3638831504177591,
                                      -0.17379537342665108, 0.6831472941756749)),
         SpectralInterval(0.0022662137989445576, 0.22996057247561533)),
        (Gains(3, 1.3, (-0.4, 0.1)), SpectralInterval(0.1, 2.0)),
        (Gains(4, 3.6908, (-0.9083, 0.006662, 0.06785)), SpectralInterval(0.0122, 0.9878)),
    ])
    def test_bracket_at_50_digits(self, g, iv):
        """Redo the crossing test at nu in 50-digit arithmetic: no lambda
        where a root meets |z| = nu, nor any lambda between two such
        points, has a root above nu; and worst_lambda attains nu_lo."""
        rep = guarantee(g, iv)
        with mpmath.workdps(50):
            q = [mpmath.mpf(v) for v in accel._char_q(g)]
            k, r = g.M - 1, mpmath.mpf(rep.nu)
            alpha = mpmath.mpf(g.alpha)

            def rho(lam):
                c = list(q)
                c[k] += alpha * lam
                return self._mp_max_modulus(c)

            # Im q(r w) w^{-k} = 0 on |w| = 1, as a polynomial in w.
            p = [mpmath.mpf(0)] * (2 * k + 1)
            for j, qj in enumerate(q):
                p[j] += qj * r**j
                p[2 * k - j] -= qj * r**j
            lams = [mpmath.mpf(iv.lo), mpmath.mpf(iv.hi)]
            for w in mpmath.polyroots(p[::-1], maxsteps=200, extraprec=200):
                if abs(abs(w) - 1) < mpmath.mpf(10) ** -30:
                    z = r * w
                    lam = -mpmath.re(mpmath.polyval(q[::-1], z) / z**k) / alpha
                    if iv.lo < lam < iv.hi:
                        lams.append(lam)
            lams.sort()
            tests = lams + [(a + b) / 2 for a, b in zip(lams, lams[1:])]
            assert max(rho(lam) for lam in tests) <= r
            assert abs(rho(mpmath.mpf(rep.worst_lambda)) - rep.nu_lo) <= 1e-13
        assert rep.nu - rep.nu_lo <= 1e-10

    @pytest.mark.xfail(strict=True, reason="ROADMAP Known defect 1: floating eigvals "
                       "decides a crossing at a double root only to about sqrt(eps)")
    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_closed_form_tuning_not_under_reported(self, M):
        # The closed-form tuning has a double root at lambda = hi = 1; nu
        # reads 0.8181818278085041 at every M, below the supremum.
        iv = SpectralInterval(0.01, 1.0)
        g = tune_theorem3(iv, M).gains
        with mpmath.workdps(50):
            alpha, betas = mpmath.mpf(g.alpha), [mpmath.mpf(b) for b in g.betas]
            # The mode at lambda = 1, exact in the float gains.
            q = [-b for b in betas[::-1]] + [sum(betas) - 1 + alpha, mpmath.mpf(1)]
            sup = self._mp_max_modulus(q)
            assert abs(sup - mpmath.mpf("0.81818182967641316969")) < mpmath.mpf(10) ** -19
            assert guarantee(g, iv).nu >= sup

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP Known defect 6: "
                       "on isolated points nu is the float modulus eigvals returns, not an "
                       "upper bound")
    @pytest.mark.parametrize("g, s, want", [
        # search_gains' result on these points; nu reads 0.41130298910180785,
        # the peak is at lambda = 1.
        (Gains(4, 2.3724484667890824,
               (-0.3261844279453829, -0.002395106012960704, 0.00951081195171481)),
         SpectralSet(points=(0.1, 1.0)), "0.4113029891018080439"),
        # A double root at lambda = 0.05, where nu reads 0.6345120132488639;
        # search_gains(s, M=5) returns exactly this seed.
        (tune_theorem3(SpectralInterval(0.05, 1.0), 5).gains,
         SpectralSet(points=(0.05, 0.5, 1.0)), "0.63451201444218974541"),
    ], ids=["full-order", "double-root"])
    def test_point_set_not_under_reported(self, g, s, want):
        with mpmath.workdps(50):
            alpha, betas = mpmath.mpf(g.alpha), [mpmath.mpf(b) for b in g.betas]
            sup = mpmath.mpf(0)
            for lam in s.points:
                # The point's mode, exact in the float gains, low order
                # first; a root at 0 (a zero beta_M, ...) is dropped, as
                # mpmath's polyroots does not converge on it.
                q = [-b for b in betas[::-1]] + [sum(betas) - 1 + alpha * mpmath.mpf(lam), 1]
                while q[0] == 0:
                    q.pop(0)
                sup = max(sup, self._mp_max_modulus(q))
            assert abs(sup - mpmath.mpf(want)) < mpmath.mpf(10) ** -19
            assert guarantee(g, s).nu >= sup


@st.composite
def m2_gains_and_sets(draw):
    """M = 2 gains and a set of 1-3 intervals plus 0-2 points. Half the
    gains are the closed-form tuning of the set's hull with each gain
    perturbed by a relative 0 to 1e-1, half are random."""
    intervals = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.floats(1e-3, 3.0))
        intervals.append(SpectralInterval(lo, lo * draw(st.floats(1.0, 100.0))))
    points = tuple(draw(st.lists(st.floats(1e-3, 10.0), max_size=2)))
    s = SpectralSet(intervals=tuple(intervals), points=points)
    hull = s.hull()
    if draw(st.booleans()):
        t = tune_theorem3(hull).gains
        scale = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-1]))
        alpha, beta = (v * (1 + scale * draw(st.floats(-1.0, 1.0))) for v in (t.alpha, t.betas[0]))
    else:
        alpha, beta = draw(st.floats(0.05, 4.0)) / hull.hi, draw(st.floats(-1.0, 1.0))
    return Gains(2, alpha, (beta,)), s


class TestTwoExtremesDecideM2:
    """At M = 2 the mode z^2 - c z + d has its roots within r exactly when
    d <= r^2 and |c| <= r + d / r, a condition that holds on an interval
    of lambda; so the largest root modulus is quasi-convex in lambda, and
    the guarantee over a set is the larger of its values at the set's
    two extremes."""

    @settings(max_examples=150, deadline=None)
    @given(m2_gains_and_sets())
    def test_nu_is_the_larger_end_value(self, gs):
        g, s = gs
        hull = s.hull()
        ends = max_root_moduli(g, [hull.lo, hull.hi]).max()
        rep = guarantee(g, s)
        # Measured on 3000 such draws (refine_tol 1e-2, 1e-7 and 1e-10):
        # nu_lo - ends <= 1.02e-15 ends, the eigenvalue solver's rounding
        # inside the set, and nu - ends <= 1.011e-13 ends, because the
        # crossing test's first radius, nu_lo + 1e-13 nu_lo, is never
        # exceeded. Both are far inside refine_tol.
        assert ends <= rep.nu <= ends * (1 + 1.1e-13)
        assert rep.nu_lo <= ends * (1 + 4e-15)


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
        assert t.gains.alpha == pytest.approx(3.2800, abs=1e-3)
        assert t.gains.betas[0] == pytest.approx(-0.6400, abs=1e-3)
        assert t.nu_star == pytest.approx(0.8000, abs=1e-4)
        assert t.mu == pytest.approx(0.9756, abs=1e-6)

    def test_nu_identity(self):
        mu = 0.9756
        t = tune_theorem3(SpectralInterval(1 - mu, 1 + mu))
        assert t.nu_star == pytest.approx(1 / mu - np.sqrt(1 / mu**2 - 1), abs=1e-12)
        assert np.sqrt(-t.gains.betas[0]) == pytest.approx(t.nu_star, abs=1e-12)

    def test_degenerate(self):
        t = tune_theorem3(SpectralInterval(1.0, 1.0))
        assert t.degenerate
        assert (t.gains.alpha, t.gains.betas, t.nu_star) == (1.0, (0.0,), 0.0)

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

    def test_single_eigenvalue_is_angle_zero(self):
        assert modal_angle(2.0, SpectralInterval(2.0, 2.0)) == 0.0

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

    def test_memoryless_seeded_with_memoryless_tuning(self):
        s = SpectralSet(intervals=(SpectralInterval(0.1, 2.0),))
        g, rep = search_gains(s, M=1, budget=40)
        alpha, mu = tune_memoryless(s.hull())
        assert g.M == 1 and g.betas == ()
        assert rep.nu <= guarantee(Gains(1, alpha), s).nu
        assert rep.nu == pytest.approx(mu, abs=1e-9)

    @pytest.mark.parametrize("M", [0, -2])
    def test_memory_order_below_one_rejected(self, M):
        with pytest.raises(ValueError, match=f"memory order M must be an integer >= 1, got {M}"):
            search_gains(SpectralSet(points=(1.0,)), M=M, budget=5)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="^empty spectral set$"):
            search_gains(SpectralSet(), M=2, budget=5)

    def test_seed_of_another_memory_order_rejected(self):
        with pytest.raises(ValueError, match="^seed has M=2, expected 3$"):
            search_gains(SpectralSet(points=(1.0,)), M=3, seed=Gains(2, 1.0, (-0.5,)), budget=5)

    @pytest.mark.parametrize("s, seed, budget, returns_seed", [
        (SpectralSet.from_interval(REF_IV), None, 150, True),
        (SpectralSet(points=(0.5, 1.5)), Gains(2, 0.5, (0.0,)), 30, False),
    ], ids=["returns-seed", "improves"])
    def test_one_full_grid_report_per_distinct_candidate(self, monkeypatch, s, seed, budget,
                                                         returns_seed):
        # The seed and the search's best point each get one default-grid
        # report; a best point that is the seed reuses the seed's.
        full_grid = []
        orig = accel.guarantee

        def counted(g, s, **kwargs):
            if "grid" not in kwargs:
                full_grid.append(g)
            return orig(g, s, **kwargs)

        monkeypatch.setattr(accel, "guarantee", counted)
        g, rep = search_gains(s, M=2, seed=seed, budget=budget)
        if seed is None:
            seed = tune_theorem3(s.hull(), M=2).gains
        assert (g == seed) == returns_seed
        assert full_grid == ([seed] if returns_seed else [seed, g])
        assert rep == orig(g, s)

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
