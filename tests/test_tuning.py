"""The numpy-free scalar layer: bit identity with the numpy formulas it
replaced, and the overflow guards of the closed-form tunings."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaccel.errors import MemaccelError
from memaccel.tuning import (
    Gains,
    SpectralInterval,
    SpectralSet,
    TuningResult,
    check_guarantee_args,
    tune_memoryless,
    tune_theorem3,
)


def reference_theorem3(lo, hi, M):
    """The Theorem-3 tuning as the package computed it with numpy:
    (alpha, betas, mu, nu_star, degenerate)."""
    mu = (hi - lo) / (hi + lo)
    if mu == 0.0:
        return 1.0 / lo, (0.0,) * (M - 1), 0.0, 0.0, True
    nu_star = mu / (1.0 + np.sqrt(1.0 - mu**2))
    beta1 = -nu_star**2
    alpha = 2.0 * (1.0 - beta1) / (hi + lo)
    return float(alpha), (float(beta1),) + (0.0,) * (M - 2), float(mu), float(nu_star), False


def reference_memoryless(lo, hi):
    return 2.0 / (hi + lo), (hi - lo) / (hi + lo)


# lo in [1e-12, 1e12] and hi / lo in [1, 1e8], lo == hi included.
intervals = st.tuples(
    st.floats(1e-12, 1e12),
    st.one_of(st.just(1.0), st.floats(1.0, 1e8)),
).map(lambda t: (t[0], t[0] * t[1]))


class TestBitIdentity:
    @settings(max_examples=500, deadline=None)
    @given(intervals, st.integers(2, 5))
    def test_theorem3_matches_numpy_formula(self, iv, M):
        lo, hi = iv
        t = tune_theorem3(SpectralInterval(lo, hi), M=M)
        got = (t.gains.alpha, t.gains.betas, t.mu, t.nu_star, t.degenerate)
        assert got == reference_theorem3(lo, hi, M)

    @settings(max_examples=300, deadline=None)
    @given(intervals)
    def test_memoryless_matches_formula(self, iv):
        lo, hi = iv
        assert tune_memoryless(SpectralInterval(lo, hi)) == reference_memoryless(lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(intervals)
    def test_theorem3_at_one_is_the_memoryless_optimum(self, iv):
        lo, hi = iv
        t = tune_theorem3(SpectralInterval(lo, hi), M=1)
        alpha, mu = reference_memoryless(lo, hi)
        assert t.gains == Gains(1, alpha)
        assert (t.gains.alpha, t.gains.betas, t.mu, t.nu_star) == (alpha, (), mu, mu)
        assert t.degenerate is (lo == hi)

    def test_degenerate_interval(self):
        t = tune_theorem3(SpectralInterval(3.0, 3.0))
        assert t.degenerate and t.gains.alpha == 1.0 / 3.0

    def test_degenerate_follows_mu(self):
        # A stored flag could contradict mu: degenerate=True with mu = 0.5.
        g = Gains(2, 0.5, (-0.1,))
        assert TuningResult(g, 0.0, 0.0).degenerate is True
        assert TuningResult(g, 0.5, 0.27).degenerate is False

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("lo", [3.0, 1e-300, 7e307])
    def test_deadbeat_limit_from_the_formula(self, M, lo):
        # The deadbeat limit comes from the formula itself: 2 / (2 lo) is
        # 1 / lo bit for bit, and beta1 is +0.0.
        t = tune_theorem3(SpectralInterval(lo, lo), M=M)
        assert t.degenerate and t.gains.alpha == 1.0 / lo
        assert (t.mu, t.nu_star) == (0.0, 0.0)
        assert t.gains.betas == (0.0,) * (M - 1)
        assert all(math.copysign(1.0, b) == 1.0 for b in t.gains.betas)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True).filter(lambda a: a != 0),
           st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3))
    def test_gains_reject_what_isfinite_rejects(self, alpha, betas):
        finite = bool(np.isfinite((alpha, *betas)).all())
        if finite:
            g = Gains(M=len(betas) + 1, alpha=alpha, betas=tuple(betas))
            assert (g.alpha, g.betas) == (alpha, tuple(betas))
        else:
            with pytest.raises(ValueError, match="finite"):
                Gains(M=len(betas) + 1, alpha=alpha, betas=tuple(betas))

    @pytest.mark.parametrize("alpha", [np.float64("nan"), np.float32("inf"), np.float64(2.5)])
    def test_gains_with_numpy_scalars(self, alpha):
        if np.isfinite(alpha):
            assert type(Gains(M=1, alpha=alpha).alpha) is float
        else:
            with pytest.raises(ValueError, match="finite"):
                Gains(M=1, alpha=alpha)


class TestGainValues:
    """Gains owns what a gain value is: a real number, numpy's included,
    and never a bool, a string, None or a container."""

    @pytest.mark.parametrize("value", ["1.5", True, None, [1.0]])
    @pytest.mark.parametrize("where", ["alpha", "betas"])
    def test_non_real_rejected(self, where, value):
        gains = {"alpha": 1.5, "betas": (-0.2,)}
        gains[where] = value if where == "alpha" else (value,)
        with pytest.raises(ValueError, match=f"^{where} must be real, got "):
            Gains(M=2, **gains)

    @pytest.mark.parametrize("value", [np.float32(1.5), np.int64(2), 2])
    def test_real_accepted(self, value):
        g = Gains(M=2, alpha=value, betas=(value,))
        assert (g.alpha, g.betas) == (float(value), (float(value),))
        assert type(g.alpha) is float and type(g.betas[0]) is float

    @pytest.mark.parametrize("where", ["alpha", "betas"])
    def test_integer_too_large_for_a_float_not_finite(self, where):
        gains = {"alpha": 1.5, "betas": (-0.2,)}
        gains[where] = 10 ** 400 if where == "alpha" else (10 ** 400,)
        with pytest.raises(ValueError, match="finite"):
            Gains(M=2, **gains)


class TestOverflow:
    # lo + hi overflows: mu would read 0 and nu_star 0 for an interval
    # whose true optimal rate is about 0.13.
    HUGE = SpectralInterval(1e308, 1.7e308)

    def test_memoryless_raises(self):
        with pytest.raises(MemaccelError, match="overflows"):
            tune_memoryless(self.HUGE)

    @pytest.mark.parametrize("M", [2, 3])
    def test_theorem3_raises(self, M):
        with pytest.raises(MemaccelError, match="overflows"):
            tune_theorem3(self.HUGE, M=M)

    @pytest.mark.parametrize("lo, hi", [(1e308, 1.7e308), (1e-320, 2e-320), (1e-320, 1e-320)])
    def test_one_message_at_every_memory_order(self, lo, hi):
        # At M = 1 the subnormal interval raised MemaccelError and at
        # M >= 2 Gains' ValueError.
        message = f"lo + hi or alpha overflows for [{lo}, {hi}]"
        for M in (1, 2, 3):
            with pytest.raises(MemaccelError, match=f"^{re.escape(message)}$"):
                tune_theorem3(SpectralInterval(lo, hi), M=M)

    def test_largest_sum_that_fits_still_tunes(self):
        lo = 1e307
        hi = math.nextafter(math.inf, 0) - lo
        t = tune_theorem3(SpectralInterval(lo, hi))
        assert t.nu_star == reference_theorem3(lo, hi, 2)[3] > 0

    def test_memoryless_alpha_overflow_raises(self):
        # 2 / (lo + hi) is inf for subnormal endpoints.
        with pytest.raises(MemaccelError, match="overflows"):
            tune_memoryless(SpectralInterval(1e-320, 2e-320))

    def test_theorem3_subnormal_interval_rejected_by_gains(self):
        with pytest.raises(MemaccelError, match="overflows"):
            tune_theorem3(SpectralInterval(1e-320, 2e-320))


class TestCheckGuaranteeArgs:
    def test_interval_becomes_set(self):
        iv = SpectralInterval(1.0, 2.0)
        assert check_guarantee_args(iv) == SpectralSet.from_interval(iv)

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty spectral set"):
            check_guarantee_args(SpectralSet())

    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_grid_below_two(self, grid):
        with pytest.raises(ValueError, match=f"^grid must be an integer >= 2, got {grid}$"):
            check_guarantee_args(SpectralSet(points=(1.0,)), grid=grid)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_refine_tol(self, tol):
        with pytest.raises(ValueError, match="refine_tol must be finite and > 0"):
            check_guarantee_args(SpectralSet(points=(1.0,)), refine_tol=tol)

    def test_defaults_pass(self):
        s = SpectralSet(points=(1.0,))
        assert check_guarantee_args(s, grid=2, refine_tol=1e-300) is s


class TestIntegerArguments:
    """Every integer argument takes what operator.index takes, less bools,
    from its floor up: a float was truncated or failed deep in list or
    numpy code, True read as 1, and a count below its floor checked
    nothing. Each entry is (a valid value, the name its message gives,
    its floor, the call)."""

    @staticmethod
    def _calls():
        from memaccel import accel, certify, dynamics, spectral

        iv = SpectralInterval(0.1, 2.0)
        g = Gains(M=2, alpha=1.0, betas=(-0.5,))
        p = dynamics.IterationProblem(np.diag([1.0, 2.0]), np.zeros(2), np.ones(2))
        c = certify.gains_to_claim_coeffs(g, iv)
        path3 = spectral.WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        trace = dynamics.simulate(p, Gains(M=1, alpha=0.5), 20)
        return {
            "Gains.M": (2, "memory order M", 1, lambda v: Gains(M=v, alpha=1.0, betas=(-0.5,))),
            "tune_theorem3.M": (2, "memory order M", 1, lambda v: tune_theorem3(iv, M=v)),
            "simulate.T": (5, "T", 1, lambda v: dynamics.simulate(p, g, v)),
            "simulate_modal.T":
                (5, "T", 1, lambda v: dynamics.simulate_modal(1.0, 0.0, g, 1.0, v)),
            "guarantee.grid": (33, "grid", 2, lambda v: accel.guarantee(g, iv, grid=v)),
            "partition_field.resolution":
                (48, "resolution", 32, lambda v: certify.partition_field(c, 0.5, resolution=v)),
            "search_gains.M":
                (2, "memory order M", 1, lambda v: accel.search_gains(iv, M=v, budget=5)),
            "search_gains.budget":
                (20, "budget", 1, lambda v: accel.search_gains(iv, M=2, budget=v)),
            "search_gains.rng_seed": (1, "rng_seed", 0, lambda v: accel.search_gains(
                iv, M=2, budget=5, rng_seed=v)),
            "ClaimCoeffs.M": (2, "memory order M", 2,
                              lambda v: certify.ClaimCoeffs(M=v, nu=0.5, a=(0.1, 0.2))),
            "WeightedGraph.n": (3, "node count", 0, lambda v: spectral.WeightedGraph(v, ())),
            "DropSchedule.step": (2, "drop step", 0, lambda v:
                dynamics.DropSchedule(path3, {v: frozenset({(0, 1)})})),
            "empirical_rate.burn_in":
                (2, "burn_in", 0, lambda v: dynamics.empirical_rate(trace, burn_in=v)),
        }

    ENTRIES = ["Gains.M", "tune_theorem3.M", "simulate.T", "simulate_modal.T", "guarantee.grid",
               "partition_field.resolution", "search_gains.M", "search_gains.budget",
               "search_gains.rng_seed", "ClaimCoeffs.M", "WeightedGraph.n", "DropSchedule.step",
               "empirical_rate.burn_in"]

    @pytest.mark.parametrize("kind", ["float", "bool"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_float_and_bool_rejected(self, entry, kind):
        valid, _, _, call = self._calls()[entry]
        call(np.int64(valid))
        with pytest.raises(ValueError, match="must be an integer"):
            call(float(valid) if kind == "float" else True)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_below_floor_rejected(self, entry):
        _, name, least, call = self._calls()[entry]
        message = f"{name} must be an integer >= {least}, got {least - 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(least - 1)

    @pytest.mark.parametrize("burn_in", [-20, True])
    def test_negative_or_bool_burn_in_rejected(self, burn_in):
        # -20 fitted only the last 20 residuals, and True was read as 1.
        from memaccel.dynamics import IterationProblem, empirical_rate, simulate

        p = IterationProblem(np.diag([1.0, 2.0]), np.zeros(2), np.ones(2))
        trace = simulate(p, Gains(M=1, alpha=0.5), 40)
        with pytest.raises(ValueError, match="burn_in must be an integer >= 0"):
            empirical_rate(trace, burn_in=burn_in)

    def test_negative_node_count_rejected(self):
        from memaccel.spectral import WeightedGraph

        with pytest.raises(ValueError, match="node count must be an integer >= 0, got -1"):
            WeightedGraph(-1, ())


class TestRealArguments:
    """Every real argument of a public entry point rejects NaN, inf and
    -inf with memaccel's own message, naming what is wrong; numpy's
    "Array must not contain infs or NaNs" names nothing. Each entry is
    (a valid value, a pattern of the message, the call)."""

    @staticmethod
    def _calls():
        from memaccel import accel, certify, dynamics, polyroots, spectral

        iv = SpectralInterval(0.1, 2.0)
        g = Gains(M=2, alpha=1.0, betas=(-0.5,))
        c = certify.ClaimCoeffs(M=2, nu=0.5, a=(0.1, 0.2))
        eye, zero, one = np.eye(2), np.zeros(2), np.ones(2)
        finite = "must be finite"
        return {
            "Gains.alpha": (1.0, "gains must be finite", lambda v: Gains(M=1, alpha=v)),
            "SpectralInterval.lo": (0.1, r"need 0 < lo <= hi < inf",
                                    lambda v: SpectralInterval(v, 2.0)),
            "SpectralSet.points": (1.0, "not strictly positive and finite",
                                   lambda v: SpectralSet(points=(v,))),
            "WeightedGraph.weight": (1.0, r"edge \(0, 1\) has non-finite weight",
                                     lambda v: spectral.WeightedGraph(2, ((0, 1, v),))),
            "load_edge_list.weight": (1.0, r"edge \(0, 1\) has non-finite weight",
                                      lambda v: spectral.load_edge_list(f"0 1 {v}")),
            "nonzero_spectral_interval.eigs": (1.0, "eigenvalues must be finite and >= 0",
                lambda v: spectral.nonzero_spectral_interval([0.0, v])),
            "IterationProblem.A": (1.0, finite, lambda v:
                dynamics.IterationProblem(np.diag([v, 1.0]), zero, one)),
            "IterationProblem.b": (1.0, finite, lambda v:
                dynamics.IterationProblem(eye, np.array([v, 0.0]), one)),
            "IterationProblem.x0": (1.0, finite, lambda v:
                dynamics.IterationProblem(eye, zero, np.array([v, 1.0]))),
            "simulate_modal.lam": (1.0, "lam, b_mode and x0 must be finite",
                                   lambda v: dynamics.simulate_modal(v, 0.0, g, 1.0, 5)),
            "char_poly.lam": (1.0, "lambda must be finite", lambda v: accel.char_poly(g, v)),
            "max_root_moduli.lambdas": (1.0, "lambda must be finite",
                                        lambda v: accel.max_root_moduli(g, [0.5, v])),
            "modal_angle.lam": (1.0, "outside", lambda v: accel.modal_angle(v, iv)),
            "guarantee.refine_tol": (1e-2, "refine_tol must be finite and > 0",
                                     lambda v: accel.guarantee(g, iv, refine_tol=v)),
            "ClaimCoeffs.nu": (0.5, r"nu must lie in \(0, 1\)",
                               lambda v: certify.ClaimCoeffs(M=2, nu=v, a=(0.1, 0.2))),
            "ClaimCoeffs.a": (0.1, "coefficient a_0 = .+ is not finite",
                              lambda v: certify.ClaimCoeffs(M=2, nu=0.5, a=(v, 0.2))),
            "p_tilde.theta": (0.5, r"theta must lie in \[0, pi\]",
                              lambda v: certify.p_tilde(c, v)),
            "partition_field.re_range": (-2.0, "theta and window bounds must be finite",
                lambda v: certify.partition_field(c, 0.5, re_range=(v, 2.0), resolution=32)),
            "roots.coeffs": (1.0, "monic form .+ is not finite",
                             lambda v: polyroots.roots(polyroots.RealPolynomial((v, 1.0)))),
        }

    ENTRIES = ["Gains.alpha", "SpectralInterval.lo", "SpectralSet.points",
               "WeightedGraph.weight", "load_edge_list.weight",
               "nonzero_spectral_interval.eigs", "IterationProblem.A", "IterationProblem.b",
               "IterationProblem.x0", "simulate_modal.lam", "char_poly.lam",
               "max_root_moduli.lambdas", "modal_angle.lam", "guarantee.refine_tol",
               "ClaimCoeffs.nu", "ClaimCoeffs.a", "p_tilde.theta", "partition_field.re_range",
               "roots.coeffs"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_non_finite_rejected(self, entry, value):
        valid, message, call = self._calls()[entry]
        call(valid)
        with pytest.raises((ValueError, MemaccelError), match=message) as exc:
            call(value)
        assert "must not contain infs or NaNs" not in str(exc.value)
