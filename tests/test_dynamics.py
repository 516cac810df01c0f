import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memaccel import dynamics
from memaccel.accel import Gains, tune_memoryless, tune_theorem3
from memaccel.dynamics import (
    DIVERGENCE_FACTOR,
    DropSchedule,
    IterationProblem,
    SimTrace,
    _force,
    _norm,
    _rescaled,
    consensus_metrics,
    empirical_rate,
    find_divergent_drop_schedule,
    memory_fragility_example,
    simulate,
    simulate_modal,
    trace_to_csv,
)
from memaccel.errors import (
    DropOnNonLaplacianError,
    IncompatibleBiasError,
    NoDecayError,
)
from memaccel.spectral import (
    SpectralInterval,
    WeightedGraph,
    laplacian,
    load_edge_list,
    nonzero_spectral_interval,
    symmetric_eigenvalues,
)

PATH3 = load_edge_list("0 1 1\n1 2 1")


def path3_problem(x0=None):
    L = laplacian(PATH3).entries
    if x0 is None:
        x0 = np.array([1.0, 0.0, -1.0])
    return IterationProblem(L, np.zeros(3), x0)


class TestIterationProblem:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            IterationProblem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                             np.zeros(2), np.zeros(2))

    def test_incompatible_bias(self):
        L = laplacian(PATH3).entries
        with pytest.raises(IncompatibleBiasError):
            IterationProblem(L, np.array([1.0, 1.0, 1.0]), np.zeros(3))

    def test_compatible_bias(self):
        L = laplacian(PATH3).entries
        b = L @ np.array([0.3, -0.1, 0.5])  # in the range of L
        IterationProblem(L, b, np.zeros(3))

    def test_rounding_bias_of_constant_state_accepted(self):
        # b = L @ ones is pure rounding here, [2.2e-16, 0, 0]: its kernel
        # component is tiny next to ||L||, though not next to ||b||.
        L = laplacian(WeightedGraph(3, ((0, 1, 1.0), (0, 2, 1.1199287737416712)))).entries
        b = L @ np.ones(3)
        assert b.any()
        IterationProblem(L, b, np.zeros(3))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("bias", [1e-6, 1.0])
    def test_constant_bias_on_connected_laplacian_rejected(self, scale, bias):
        graph = WeightedGraph(3, ((0, 1, 1.0), (0, 2, 1.1199287737416712)))
        L = scale * laplacian(graph).entries
        with pytest.raises(IncompatibleBiasError):
            IterationProblem(L, bias * scale * np.ones(3), np.zeros(3))

    def test_zero_bias_skips_eigendecomposition(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called for b = 0")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        L = laplacian(PATH3).entries
        IterationProblem(L, np.zeros(3), np.array([1.0, 0.0, -1.0]))

    def test_nan_in_A_rejected(self):
        L = laplacian(PATH3).entries.copy()
        L[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            IterationProblem(L, np.zeros(3), np.zeros(3))

    def test_shared_arrays_are_read_only(self):
        # A write into L.entries changed p.A under p.nonzeros, and a write
        # into x0 after construction moved the run's start.
        L = laplacian(PATH3)
        A, x0 = L.entries, np.array([1.0, 0.0, -1.0])
        p = IterationProblem(A, np.zeros(3), x0)
        assert p.A is A  # shared, never copied
        for m in (A, p.A, p.b, p.x0):
            with pytest.raises(ValueError, match="read-only"):
                m[0] = 99
        x0[:] = 5
        assert L == laplacian(PATH3)
        np.testing.assert_array_equal(p.nonzeros[0], [1.0, 2.0, 1.0])
        tr = simulate(p, Gains(1, 0.3), 3)
        assert tr.states[0].tolist() == [1.0, 0.0, -1.0]
        assert simulate(p, Gains(1, 0.3), 3, drops=DropSchedule(PATH3, {})) == tr

    def test_writeable_A_is_copied(self):
        A = laplacian(PATH3).entries.copy()
        p = IterationProblem(A, np.zeros(3), np.zeros(3))
        A[0, 0] = 99
        assert p.A is not A and p.A[0, 0] == 1.0 and not p.A.flags.writeable

    def test_nan_in_b_rejected(self):
        L = laplacian(PATH3).entries
        with pytest.raises(ValueError, match="finite"):
            IterationProblem(L, np.array([np.nan, 0.0, 0.0]), np.zeros(3))

    @pytest.mark.parametrize("k, value", [((0, 0), np.inf), ((0, 1), np.nan),
                                          ((1, 0), -np.inf), ((1, 2), np.nan)])
    def test_non_finite_entry_anywhere_rejected(self, k, value):
        L = laplacian(PATH3).entries.copy()
        L[k] = value
        with pytest.raises(ValueError, match="finite"):
            IterationProblem(L, np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("k", [(0, 1), (1, 0)])
    def test_one_sided_entry_rejected(self, k):
        A = np.zeros((3, 3))
        A[k] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            IterationProblem(A, np.zeros(3), np.zeros(3))

    def test_asymmetry_bound_scales_with_max_entry(self):
        A = 100 * laplacian(PATH3).entries  # bound 1e-12 * 200
        A[0, 1] += 1e-10
        IterationProblem(A, np.zeros(3), np.zeros(3))
        A[0, 1] += 2e-10
        with pytest.raises(ValueError, match="symmetric"):
            IterationProblem(A, np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10, 1e-12, 1e-50, 1e-100, 1e-160, 1e-170,
                                   1e-200, 1e-300, 1e50, 1e100, 1e150, 1e200, 1e300])
    def test_bias_in_range_accepted_at_any_scale(self, s):
        # An absolute floor of 1e-9 under the kernel threshold took every
        # eigenvector of s L for a kernel vector at s <= 1e-10. The norms
        # of the unscaled A and b underflowed at s <= 1e-170, accepting
        # s ones, and overflowed at s >= 1e200.
        L = laplacian(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))).entries
        IterationProblem(s * L, s * (L @ np.array([0.3, -0.1, 0.5])), np.zeros(3))
        with pytest.raises(IncompatibleBiasError):
            IterationProblem(s * L, s * np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("s", [0.0, 1e-300])
    def test_kernel_bias_rejected_when_it_dwarfs_A(self, s):
        # Scaling by max |A| alone would divide by zero at s = 0 and turn
        # b into inf at s = 1e-300, where an inf tolerance accepts it.
        L = laplacian(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))).entries
        with pytest.raises(IncompatibleBiasError):
            IterationProblem(s * L, 1e10 * np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-14, 1e-50, 1e-100, 1e100])
    def test_asymmetry_rejected_at_any_scale(self, s):
        # An absolute floor of 1e-12 under the symmetry bound accepted
        # this matrix at s = 1e-14.
        with pytest.raises(ValueError, match="symmetric"):
            IterationProblem(s * np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2), np.ones(2))

    def test_empty_A_rejected(self):
        with pytest.raises(ValueError, match="square"):
            IterationProblem(np.zeros((0, 0)), np.zeros(0), np.zeros(0))

    def test_inf_in_x0_rejected(self):
        L = laplacian(PATH3).entries
        with pytest.raises(ValueError, match="finite"):
            IterationProblem(L, np.zeros(3), np.array([np.inf, 0.0, 1.0]))

    @pytest.mark.parametrize("b, x0", [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(4))],
                             ids=["b", "x0"])
    def test_length_other_than_n_rejected(self, b, x0):
        with pytest.raises(ValueError, match="^b and x0 must match the dimension of A$"):
            IterationProblem(laplacian(PATH3).entries, b, x0)

    @pytest.mark.xfail(strict=True, raises=IncompatibleBiasError,
                       reason="ROADMAP Known defect 2: the 1e-9 ||A|| kernel threshold "
                              "takes lambda_2 = 6.7e-11's eigenvector for a kernel vector")
    def test_weak_bridge_bias_summing_to_zero_accepted(self):
        # Two unit triangles joined by a 1e-10 bridge: connected, so b
        # that sums to zero is orthogonal to the kernel, span(ones).
        edges = ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1e-10))
        L = laplacian(WeightedGraph(6, edges)).entries
        IterationProblem(L, np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), np.zeros(6))


def weighted_path3_solve():
    """A x = b from x0 = 0, for A the Laplacian of the path with weights 1
    and 2 and b = A (0.3, -0.1, 0.5); and A's nonzero spectral interval."""
    graph = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
    L = laplacian(graph)
    b = L.entries @ np.array([0.3, -0.1, 0.5])
    iv = nonzero_spectral_interval(symmetric_eigenvalues(L))
    return IterationProblem(L.entries, b, np.zeros(3)), iv


class TestSimulate:
    def test_single_step_scalar(self):
        lam, alpha = 0.7, 1.1
        prob = IterationProblem(np.array([[lam]]), np.zeros(1), np.ones(1))
        tr = simulate(prob, Gains(M=2, alpha=alpha, betas=(-0.3,)), T=1)
        # equal history makes the memory term vanish on the first step
        assert tr.states[1][0] == pytest.approx(1 - alpha * lam, abs=1e-15)

    def test_path_graph_rate_bound(self):
        t = tune_theorem3(SpectralInterval(1.0, 3.0))
        tr = simulate(path3_problem(), t.gains, T=60)
        rate = empirical_rate(tr, burn_in=10)
        assert rate <= t.nu_star + 0.01

    def test_trace_lengths(self):
        tr = simulate(path3_problem(), Gains(M=1, alpha=0.5), T=20)
        spread, rms, mean = consensus_metrics(tr.states)
        assert tr.T == 20
        assert len(tr.residuals) == len(spread) == len(rms) == len(mean) == 21

    def test_average_preserved(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(3)
        tr = simulate(path3_problem(x0), Gains(M=3, alpha=0.4, betas=(-0.2, 0.05)), T=50)
        mean = consensus_metrics(tr.states)[2]
        np.testing.assert_allclose(mean, mean[0], rtol=1e-12, atol=1e-14)

    def test_drop_on_non_laplacian(self):
        sched = DropSchedule(PATH3, {0: frozenset({(0, 1)})})
        prob = IterationProblem(np.eye(3), np.zeros(3), np.ones(3))
        with pytest.raises(DropOnNonLaplacianError):
            simulate(prob, Gains(M=1, alpha=0.5), T=5, drops=sched)

    def test_drop_schedule_rejects_unknown_edge(self):
        with pytest.raises(ValueError):
            DropSchedule(PATH3, {0: frozenset({(0, 2)})})

    def test_converging_run_has_no_divergence_step(self):
        tr = simulate(path3_problem(), Gains(M=1, alpha=0.5), T=20)
        assert tr.diverged_at is None and not tr.diverged

    def test_tuned_solve_from_zero_runs_every_step(self):
        # The limit was 1e6 * max(||x0||, 1e-300): from x0 = 0 with b != 0
        # the first step read as divergence, so a converging solve of
        # A x = b stopped at T = 1.
        p, iv = weighted_path3_solve()
        tr = simulate(p, tune_theorem3(iv).gains, 200)
        assert tr.diverged_at is None and tr.T == 200
        assert tr.residuals[-1] <= 1e-12 * tr.residuals[0]

    def test_divergent_solve_from_zero_flagged_at_solution_scale(self):
        # alpha = 2.5 / lambda_max diverges. From x0 = 0 the limit is
        # 1e6 max(||A^+ b||, ||b|| / ||A||_2), and the flagged step is the
        # first over it.
        p, iv = weighted_path3_solve()
        tr = simulate(p, Gains(M=1, alpha=2.5 / iv.hi), 200)
        norms = np.linalg.norm(tr.states, axis=1)
        limit = DIVERGENCE_FACTOR * max(np.linalg.norm(np.linalg.pinv(p.A) @ p.b),
                                        np.linalg.norm(p.b) / np.linalg.norm(p.A, 2))
        assert tr.diverged_at == tr.T > 1
        assert norms[-1] > limit >= norms[-2]

    def test_ill_conditioned_solve_from_zero_runs_every_step(self):
        # x* = (0, 1e7) is 1e7 times ||b|| / max|a_ij|, the scale a limit
        # of 1e6 ||b|| / max|a_ij| took, which flagged this run at step 841.
        p = IterationProblem(np.diag([1.0, 1e-7]), np.array([0.0, 1.0]), np.zeros(2))
        tr = simulate(p, tune_theorem3(SpectralInterval(1e-7, 1.0)).gains, 5000)
        assert tr.diverged_at is None and tr.T == 5000
        assert p.solution_scale == pytest.approx(1e7, rel=1e-12)

    def test_kernel_residue_of_bias_not_flagged(self):
        # b = 1e-20 (1, 1, 1) lies almost wholly in the kernel span(ones),
        # below the check's tolerance, so ||A^+ b|| ~ 1e-36 while x drifts
        # along the kernel to ~1e-18; ||b|| / ||A||_2 sizes the limit.
        graph = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
        L = laplacian(graph)
        p = IterationProblem(L.entries, np.full(3, 1e-20), np.zeros(3))
        iv = nonzero_spectral_interval(symmetric_eigenvalues(L))
        tr = simulate(p, tune_theorem3(iv).gains, 200)
        assert tr.diverged_at is None and tr.T == 200
        assert np.linalg.norm(tr.states[-1]) > 1e3 * np.linalg.norm(np.linalg.pinv(p.A) @ p.b)

    def test_solution_past_largest_float_gives_no_limit(self):
        # ||A^+ b|| = 1e310 overflows to inf without a RuntimeWarning, so
        # the limit is the largest float, and the run, whose states stay
        # finite, is not flagged.
        p = IterationProblem(np.array([[1e-300]]), np.array([1e10]), np.zeros(1))
        assert p.solution_scale == np.inf
        assert simulate(p, Gains(M=1, alpha=1.0), 3).diverged_at is None

    def test_norms_past_1e154_do_not_overflow(self):
        # Known defect 5: squaring 1e200 overflowed, so solution_scale read
        # inf, every residual inf, no divergence could be flagged, and 11
        # RuntimeWarnings leaked. The states round by up to 2^t eps of the
        # residual, so the residuals are |b - x(t)| exactly and 0.5^t 1e200
        # within that rounding.
        p = IterationProblem(np.eye(2), np.array([1e200, 0.0]), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = simulate(p, Gains(1, 0.5), 5)
            diverging = simulate(p, Gains(1, 2.5), 100)
        assert p.solution_scale == 1e200
        assert tr.diverged_at is None
        np.testing.assert_array_equal(tr.residuals, 1e200 - tr.states[:, 0])
        np.testing.assert_allclose(tr.residuals, 1e200 * 0.5 ** np.arange(6), rtol=2e-15)
        # x(t) - b = (-1.5)^t b crosses the limit 1e6 ||b|| at t = 35.
        norms = 1e200 * np.linalg.norm(diverging.states / 1e200, axis=1)
        assert diverging.diverged_at == diverging.T == 35
        assert norms[-1] > DIVERGENCE_FACTOR * 1e200 >= norms[-2]

    @pytest.mark.parametrize("b, x0, size", [((1e-200, 0.0), (0.0, 0.0), 1e-200),
                                             ((0.0, 0.0), (1e-300, 1e-300), 2 ** 0.5 * 1e-300)])
    def test_norms_below_1e_minus_154_do_not_underflow(self, b, x0, size):
        # The mirror of Known defect 5: squares of 1e-200 and 1e-300 flushed
        # to 0, so solution_scale and every residual read 0.0 and
        # empirical_rate raised NoDecayError on a run converging at rate 0.5.
        p = IterationProblem(np.eye(2), np.array(b), np.array(x0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = simulate(p, Gains(1, 0.5), 12)
        assert p.solution_scale == b[0]
        assert tr.diverged_at is None
        # Each residual is the norm of b - x(t), whose rounding is the states'.
        np.testing.assert_array_equal(
            tr.residuals, np.hypot(*(np.array(b) - tr.states).T))
        np.testing.assert_allclose(tr.residuals, size * 0.5 ** np.arange(13), rtol=1e-12)
        assert empirical_rate(tr) == pytest.approx(0.5, abs=1e-13)

    def test_average_preserved_under_drops(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(3)
        sched = DropSchedule(PATH3, {t: frozenset({(0, 1)}) for t in range(0, 40, 3)})
        tr = simulate(path3_problem(x0), Gains(M=2, alpha=0.4, betas=(-0.1,)),
                      T=40, drops=sched)
        mean = consensus_metrics(tr.states)[2]
        np.testing.assert_allclose(mean, mean[0], rtol=1e-12, atol=1e-14)


class TestSimulateModal:
    def test_zero_eigenvalue_trivial_mode(self):
        out = simulate_modal(0.0, 0.0, Gains(M=2, alpha=1.0, betas=(-0.5,)), 2.5, 10)
        np.testing.assert_array_equal(out, 2.5)

    def test_reference_envelope(self):
        t = tune_theorem3(SpectralInterval(0.0122, 0.9878))
        out = simulate_modal(0.5, 0.0, t.gains, 1.0, 60)
        bound = 2.5 * 0.8 ** np.arange(61)
        assert np.all(np.abs(out) <= bound + 1e-12)

    @pytest.mark.parametrize("lam, b_mode, x0", [(np.nan, 0.0, 1.0), (1.0, np.inf, 1.0),
                                                 (1.0, 0.0, -np.inf)])
    def test_non_finite_input_rejected(self, lam, b_mode, x0):
        # A NaN lam gave [1, nan, nan, nan].
        with pytest.raises(ValueError, match="must be finite"):
            simulate_modal(lam, b_mode, Gains(M=2, alpha=1.0, betas=(-0.5,)), x0, 3)

    def test_overflowing_mode_is_silent(self):
        # An unstable mode grows past the largest float; it warned once per
        # step with 'overflow encountered' and then 'invalid value encountered'.
        out = simulate_modal(50.0, 0.0, Gains(M=2, alpha=1.0, betas=(-0.5,)), 1.0, 400)
        assert out.shape == (401,) and np.isfinite(out[:100]).all()
        assert not np.isfinite(out[-1])

    def test_matches_vector_on_diagonal(self):
        lams = np.array([0.3, 1.1, 2.0])
        g = Gains(M=3, alpha=0.6, betas=(-0.3, 0.1))
        x0 = np.array([1.0, -2.0, 0.5])
        b = np.array([0.2, -0.1, 0.05])
        prob = IterationProblem(np.diag(lams), b, x0)
        tr = simulate(prob, g, T=40)
        for k, lam in enumerate(lams):
            modal = simulate_modal(lam, b[k], g, x0[k], 40)
            np.testing.assert_array_equal(tr.states[:, k], modal)


class TestEmpiricalRate:
    def test_geometric_sequence(self):
        # synthetic trace with exact geometric residuals
        tr = SimTrace(states=np.zeros((41, 1)), residuals=0.8 ** np.arange(41), diverged_at=None)
        assert empirical_rate(tr, burn_in=0) == pytest.approx(0.8, abs=1e-9)

    def test_non_finite_residuals_skipped(self):
        # A flagged run can end on an inf residual; it made the fit nan.
        tr = SimTrace(states=np.zeros((13, 1)), residuals=np.append(0.5 ** np.arange(12), np.inf))
        assert empirical_rate(tr) == pytest.approx(0.5, abs=1e-13)
        tr = SimTrace(states=np.zeros((13, 1)), residuals=np.append(0.5 ** np.arange(9), [np.inf] * 4))
        with pytest.raises(NoDecayError, match="finite positive"):
            empirical_rate(tr)

    def test_all_zero_residuals(self):
        tr = simulate(path3_problem(np.zeros(3)), Gains(M=1, alpha=0.5), T=20)
        with pytest.raises(NoDecayError):
            empirical_rate(tr)

    def test_simulated_rate_near_nu(self):
        t = tune_theorem3(SpectralInterval(1.0, 3.0))
        tr = simulate(path3_problem(), t.gains, T=80)
        assert empirical_rate(tr, burn_in=20) == pytest.approx(t.nu_star, abs=0.02)


class TestConsensusMetrics:
    def test_uniform(self):
        assert consensus_metrics([1.0, 1.0, 1.0]) == (0.0, 0.0, 1.0)

    def test_two_nodes(self):
        assert consensus_metrics([0.0, 2.0]) == (2.0, 1.0, 1.0)

    def test_permutation_invariant(self):
        x = [0.3, -1.2, 2.0, 0.7]
        np.testing.assert_allclose(consensus_metrics(x),
                                   consensus_metrics(list(reversed(x))),
                                   rtol=1e-14)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            consensus_metrics([])

    def test_rms_past_1e154_does_not_overflow(self):
        # Known defect 5: std squared the deviations and read inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert consensus_metrics([1e200, -1e200]) == (2e200, 1e200, 0.0)
            spread, rms, mean = consensus_metrics(np.array([[1e200, -1e200], [0.0, 2.0]]))
        np.testing.assert_array_equal(rms, [1e200, 1.0])

    def test_metrics_near_the_float_limits(self):
        # The mean of (1.7e308, 1.7e308) summed to inf, the spread of
        # (1.7e308, -1.7e308) warned while it overflowed, and the rms of
        # (1e-320, -1e-320) squared to 0. 3.4e308 is past the largest float.
        rows = [[1.7e308, 1.7e308], [1.7e308, -1.7e308], [1e-320, -1e-320]]
        want = [(0.0, 0.0, 1.7e308), (np.inf, 1.7e308, 0.0), (2e-320, 1e-320, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [consensus_metrics(x) for x in rows] == want
            stacked = consensus_metrics(np.array(rows + [[0.0, 2.0]]))
        assert np.array_equal(np.column_stack(stacked), np.array(want + [(2.0, 1.0, 1.0)]))

    def test_all_zero_rows_take_one_pass(self):
        # fn gives an all-zero row the same zeros with or without the
        # exact rescale, so it is not redone; -0.0 keeps its sign.
        calls = []

        def fn(x):
            calls.append(x.shape)
            return x.max(-1) - x.min(-1), x.std(-1), x.mean(-1)

        for zeros in (np.zeros((6, 4)), np.zeros(4), np.full((2, 3), -0.0)):
            calls.clear()
            out = _rescaled(fn, zeros)
            assert calls == [zeros.shape]
            assert np.stack(out).tobytes() == np.stack(fn(zeros)).tobytes()
            assert np.stack(consensus_metrics(zeros)).tobytes() == np.stack(out).tobytes()

    def test_underflowing_nonzero_row_still_redone(self):
        # Squares of 1e-300 round to 0, so that row alone is redone on
        # ldexp(row, -e); the all-zero and in-range rows keep one pass.
        calls = []

        def fn(x):
            calls.append(x.shape)
            return (np.sqrt(np.add.reduce(x * x, axis=-1)),)

        rows = np.array([[0.0, 0.0, 0.0], [1e-300, -1e-300, 0.0], [1.0, 2.0, 2.0]])
        norms = _rescaled(fn, rows)[0]
        assert calls == [(3, 3), (1, 3)]
        assert norms.tolist() == [0.0, _norm(rows[1]), 3.0]
        assert norms[1] == pytest.approx(np.sqrt(2.0) * 1e-300, rel=1e-15)  # not sqrt(0)
        spread, rms, mean = consensus_metrics(rows)
        assert spread.tolist() == [0.0, 2e-300, 1.0] and mean[0] == 0.0

    def test_trace_metrics_are_each_states_bit_for_bit(self):
        # Readers take the metrics of a trace's whole state stack at once;
        # each row must equal the metrics of that state alone.
        rng = np.random.default_rng(7)
        tr = simulate(path3_problem(rng.standard_normal(3)),
                      Gains(M=2, alpha=0.4, betas=(-0.1,)), T=25)
        rows = np.array([consensus_metrics(x) for x in tr.states])
        assert np.array_equal(np.column_stack(consensus_metrics(tr.states)), rows)

    def test_simulate_leaves_metrics_to_readers(self, monkeypatch):
        # A trace is states, residuals and diverged_at; spread, rms and
        # mean are computed only by a reader that asks for them.
        def fail(x):
            raise AssertionError("simulate called consensus_metrics")

        monkeypatch.setattr(dynamics, "consensus_metrics", fail)
        assert SimTrace._fields == ("states", "residuals", "diverged_at")
        sched = DropSchedule(PATH3, {0: frozenset({(0, 1)}), 3: frozenset({(1, 2)})})
        for drops in (None, sched):
            tr = simulate(path3_problem(), Gains(M=2, alpha=0.4, betas=(-0.1,)),
                          T=10, drops=drops)
            assert tr.T == 10 and len(tr.residuals) == 11


class TestCsvExport:
    def test_header_and_rows(self):
        tr = simulate(path3_problem(), Gains(M=1, alpha=0.5), T=3)
        lines = trace_to_csv(tr).strip().splitlines()
        assert lines[0] == "t,residual,spread,rms,mean"
        assert len(lines) == 5
        assert lines[1].startswith("0,")

    def test_blocks_render_as_row_by_row(self):
        # Longer than two blocks, with rows that consensus_metrics rescales:
        # each block's rows are the rows one state at a time would give.
        rng = np.random.default_rng(5)
        states = rng.standard_normal((2 * dynamics._CSV_ROWS + 7, 3))
        states[::1000] *= 1e-300
        states[7::1000] *= 1e300
        tr = SimTrace(states, np.abs(rng.standard_normal(len(states))))
        want = "".join(f"{t},{tr.residuals[t]:.12g},"
                       + ",".join(f"{v:.12g}" for v in consensus_metrics(x)) + "\n"
                       for t, x in enumerate(states))
        assert trace_to_csv(tr) == "t,residual,spread,rms,mean\n" + want

    def test_rows_hold_each_step_at_12_digits(self):
        tr = simulate(path3_problem(np.array([1e-300, 2.0, -3.0])),
                      Gains(M=2, alpha=0.4, betas=(-0.1,)), T=30)
        cols = (tr.residuals, *consensus_metrics(tr.states))
        want = "".join(f"{t}," + ",".join(f"{c[t]:.12g}" for c in cols) + "\n"
                       for t in range(31))
        assert trace_to_csv(tr) == "t,residual,spread,rms,mean\n" + want


class TestDropScheduleInput:
    @pytest.mark.parametrize("step", [1.7, 2.0, True, -3, np.int64(-1)])
    def test_non_integer_or_negative_step_rejected(self, step):
        # 1.7 was truncated to step 1; -3 was kept and never applied.
        with pytest.raises(ValueError, match="drop step"):
            DropSchedule(PATH3, {step: frozenset({(0, 1)})})

    @pytest.mark.parametrize("edge", [(0.0, 1), (True, 2), (1, np.True_), (2, np.float64(1.0))])
    def test_non_integer_node_index_rejected(self, edge):
        # (0.0, 1) matched edge (0, 1) and failed later as a float index;
        # (True, 2) was read as edge (1, 2). A graph's edge is refused by
        # the same rule, with the same message.
        want = f"edge ({edge[0]!r}, {edge[1]!r}) has a node index that is not an integer"
        for build in (lambda: DropSchedule(PATH3, {0: frozenset({edge})}),
                      lambda: WeightedGraph(3, (edge + (1.0,),))):
            with pytest.raises(ValueError, match="not an integer") as exc:
                build()
            assert str(exc.value) == want

    def test_numpy_integer_step_accepted(self):
        schedule = DropSchedule(PATH3, {np.int64(2): frozenset({(0, 1)})})
        assert schedule.drops == {2: frozenset({(0, 1)})}
        assert type(next(iter(schedule.drops))) is int

    def test_dropped_edges_stored_as_in_the_graph(self):
        schedule = DropSchedule(PATH3, {0: frozenset({(np.int32(2), np.int64(1)), (0, 1),
                                                      (1, 0)})})
        assert schedule.drops == {0: frozenset({(0, 1), (1, 2)})}
        assert {type(v) for e in schedule.drops[0] for v in e} == {int}

    def test_fraction_weight_runs_with_drops(self):
        # The Fraction weight made an object array of the dropped weights,
        # and every drop run on its graph raised numpy's TypeError.
        g = WeightedGraph(3, ((0, 1, Fraction(1, 2)), (2, 1, 1.0)))
        schedule = DropSchedule(g, {0: frozenset({(1, 0)})})
        p = IterationProblem(laplacian(g).entries, np.zeros(3), np.array([1.0, 0.0, -1.0]))
        tr = simulate(p, Gains(1, 0.3), 3, drops=schedule)
        np.testing.assert_allclose(tr.residuals, [1.22474487, 0.80311892, 0.64563922, 0.52234938],
                                   rtol=0, atol=1e-8)
        assert tr == simulate(p, Gains(1, 0.3), 3,
                              drops=DropSchedule(WeightedGraph(3, ((0, 1, 0.5), (1, 2, 1.0))),
                                                 {0: frozenset({(0, 1)})}))


class TestDropRobustness:
    def test_memoryless_spread_nonincreasing(self):
        # I - alpha L nonneg entries: spread is a common Lyapunov function
        alpha = 0.4  # max degree 2 -> 1 - alpha*2 >= 0
        rng = np.random.default_rng(7)
        edge_keys = [(0, 1), (1, 2)]
        for _ in range(20):
            x0 = rng.standard_normal(3)
            drops = {}
            for t in range(60):
                mask = rng.random(2) < 0.4
                if mask.any():
                    drops[t] = frozenset(e for e, m in zip(edge_keys, mask) if m)
            tr = simulate(path3_problem(x0), Gains(M=1, alpha=alpha), T=60,
                          drops=DropSchedule(PATH3, drops))
            assert np.all(np.diff(consensus_metrics(tr.states)[0]) <= 1e-12)

    def test_fragility_fixture_diverges(self):
        graph, gains, schedule, x0 = memory_fragility_example()
        L = laplacian(graph).entries
        prob = IterationProblem(L, np.zeros(graph.n), x0)
        tr = simulate(prob, gains, T=400, drops=schedule)
        assert tr.diverged

    def test_fragility_fixture_divergence_step(self):
        graph, gains, schedule, x0 = memory_fragility_example()
        prob = IterationProblem(laplacian(graph).entries, np.zeros(graph.n), x0)
        tr = simulate(prob, gains, T=400, drops=schedule)
        limit = DIVERGENCE_FACTOR * np.linalg.norm(x0)
        assert tr.diverged_at == tr.T == 72
        assert np.linalg.norm(tr.states[72]) > limit
        assert np.all(np.linalg.norm(tr.states[:72], axis=1) <= limit)

    def test_diverged_trace_owns_its_states(self):
        # The run writes into T + 1 = 401 preallocated rows; a trace that
        # stops at step 72 keeps a copy of the 73 it wrote, not a view that
        # holds all 401.
        graph, gains, schedule, x0 = memory_fragility_example()
        prob = IterationProblem(laplacian(graph).entries, np.zeros(graph.n), x0)
        tr = simulate(prob, gains, T=400, drops=schedule)
        assert tr.states.base is None and tr.states.shape == (73, graph.n)
        assert {len(a) for a in (tr.residuals, *consensus_metrics(tr.states))} == {73}

    def test_randomized_search_reproduces_fixture(self):
        graph, gains, schedule, x0 = memory_fragility_example()
        found = find_divergent_drop_schedule(graph, gains, x0)
        assert found is not None
        assert found.drops == schedule.drops

    def test_every_link_dropped_keeps_x0(self):
        # Every link dropped at every step leaves A_t = 0, so the force is
        # b = 0 and x stays at x0 up to the rounding of A x minus the
        # dropped links' scatter: the largest deviation measured over the
        # 400 steps is 4.7e-13, and 1e-12 allows about twice that.
        graph, gains, _, x0 = memory_fragility_example()
        L = laplacian(graph).entries
        every = frozenset((min(i, j), max(i, j)) for i, j, _ in graph.edges)
        tr = simulate(IterationProblem(L, np.zeros(graph.n), x0), gains, T=400,
                      drops=DropSchedule(graph, {t: every for t in range(400)}))
        assert not tr.diverged and tr.T == 400
        assert np.abs(tr.states - x0).max() <= 1e-12
        # The residual is ||L x(t)|| for the full Laplacian, which lies
        # within ||L||_2 ||x(t) - x0|| of ||L x0||, plus one product's rounding.
        norm_L = np.linalg.norm(L, 2)
        slack = norm_L * np.linalg.norm(tr.states - x0, axis=1)
        slack += np.finfo(float).eps * norm_L * np.linalg.norm(x0)
        assert np.all(np.abs(tr.residuals - np.linalg.norm(L @ x0)) <= slack)


@st.composite
def graphs_with_drops(draw):
    """A connected weighted graph (random spanning tree plus extra edges),
    a drop schedule over steps 0..T-1, a bias in the range of its
    Laplacian and a state vector."""
    n = draw(st.integers(2, 12))
    weight = st.floats(0.1, 2.0)
    edges = {}
    for k in range(1, n):
        edges[(draw(st.integers(0, k - 1)), k)] = draw(weight)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if i != j:
            edges.setdefault((min(i, j), max(i, j)), draw(weight))
    graph = WeightedGraph(n, tuple((i, j, w) for (i, j), w in edges.items()))
    keys = list(edges)
    T = draw(st.integers(1, 6))
    drops = {t: frozenset(draw(st.lists(st.sampled_from(keys), max_size=len(keys))))
             for t in range(T)}
    vec = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n).map(np.array)
    return graph, DropSchedule(graph, drops), T, draw(vec), draw(vec)


@st.composite
def edge_form_variants(draw):
    """A graph with a drop schedule in stored form, (i, j, float w) with
    i < j, and the same graph and schedule written with random
    orientations, numpy integer node indices and steps, and int, Fraction
    or float weights of one value."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          min_size=1, unique=True))
    weights = [Fraction(draw(st.integers(0, 20)), draw(st.integers(1, 7))) for _ in pairs]
    index = st.sampled_from([int, np.int64, np.int32, np.uint16])

    def written(i, j):
        i, j = (j, i) if draw(st.booleans()) else (i, j)
        return draw(index)(i), draw(index)(j)

    def weight(w):
        return draw(st.sampled_from([Fraction, float] + [int] * (w.denominator == 1)))(w)

    graph = WeightedGraph(n, tuple((i, j, float(w)) for (i, j), w in zip(pairs, weights)))
    variant = WeightedGraph(draw(index)(n), tuple((*written(i, j), weight(w))
                                                  for (i, j), w in zip(pairs, weights)))
    drops = {t: draw(st.lists(st.sampled_from(pairs))) for t in range(draw(st.integers(1, 5)))}
    schedule = DropSchedule(graph, {t: frozenset(es) for t, es in drops.items()})
    written_drops = {draw(index)(t): frozenset(written(i, j) for i, j in es)
                     for t, es in drops.items()}
    vec = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n).map(np.array)
    return graph, schedule, variant, written_drops, draw(vec), draw(vec)


class TestOneEdgeForm:
    """Orientation, index type and weight type change no bit: the graph,
    its Laplacian, a drop schedule on it and a run under drops are equal."""

    @settings(max_examples=100, deadline=None)
    @given(edge_form_variants())
    def test_written_forms_give_equal_graphs_and_runs(self, case):
        graph, schedule, variant, written_drops, y, x0 = case
        assert variant == graph and hash(variant) == hash(graph)
        L, Lv = laplacian(graph), laplacian(variant)
        assert Lv.entries.tobytes() == L.entries.tobytes()
        assert Lv.components == L.components
        sv = DropSchedule(variant, written_drops)
        assert sv == schedule and sv.cuts.keys() == schedule.cuts.keys()
        for t, cut in schedule.cuts.items():
            assert [(a.dtype, a.tobytes()) for a in sv.cuts[t]] == [(a.dtype, a.tobytes())
                                                                     for a in cut]
        g = Gains(3, 0.4, (-0.2, 0.05))
        a, b = (simulate(IterationProblem(m.entries, m.entries @ y, x0), g, 6, drops=s)
                for m, s in ((L, schedule), (Lv, sv)))
        assert b.states.tobytes() == a.states.tobytes()
        assert b.residuals.tobytes() == a.residuals.tobytes() and b.diverged_at == a.diverged_at


class TestDropForce:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_drops())
    def test_matches_rebuilt_laplacian(self, case):
        graph, schedule, T, y, x = case
        L = laplacian(graph).entries
        prob = IterationProblem(L, L @ y, x)
        force = _force(prob, schedule, [])
        scale = np.abs(L).sum(axis=1).max() * (np.abs(x).max() + np.abs(y).max())
        for t in range(T):
            ref = prob.b - schedule.laplacian_at(t) @ x
            np.testing.assert_allclose(force(t, x), ref, rtol=1e-12, atol=1e-12 * scale)

    def test_step_without_drops_is_dense_product(self):
        prob = path3_problem(np.array([0.3, -1.7, 2.9]))
        schedule = DropSchedule(PATH3, {1: frozenset({(1, 2)})})
        force = _force(prob, schedule, [])
        np.testing.assert_array_equal(force(0, prob.x0), prob.b - prob.A @ prob.x0)


@st.composite
def laplacian_candidates(draw):
    """A graph, zero and subnormal weights included, and a matrix that is
    its Laplacian, that Laplacian with -0.0 for its zeros, or a near miss:
    one symmetric pair or diagonal entry moved, one weight changed (to
    zero included) or one node added. Weights include -0.0, and a drawn
    node may be left without edges."""
    n = draw(st.integers(1, 8))
    lone = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if lone not in (i, j)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(1e-3, 1e3))
    edges = [(j, i, draw(weight)) if draw(st.booleans()) else (i, j, draw(weight))
             for i, j in chosen]
    graph = WeightedGraph(n, tuple(edges))
    A = laplacian(graph).entries.copy()
    kind = draw(st.sampled_from(["same", "signed zeros", "entry", "weight", "grown"]))
    if kind == "signed zeros":
        A[A == 0] = -0.0
    elif kind == "entry":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        A[i, j] = A[j, i] = A[i, j] + draw(st.sampled_from([-1.0, 1e-300, 0.5]))
    elif kind == "weight" and edges:
        k = draw(st.integers(0, len(edges) - 1))
        edges[k] = (*edges[k][:2], draw(weight))
        A = laplacian(WeightedGraph(n, tuple(edges))).entries
    elif kind == "grown":
        A = np.pad(A, (0, 1))
    return graph, A


class TestDropCheck:
    @settings(max_examples=300, deadline=None)
    @given(laplacian_candidates())
    def test_raised_exactly_when_A_is_not_the_laplacian(self, case):
        graph, A = case
        n = len(A)
        prob = IterationProblem(A, np.zeros(n), np.ones(n))
        run = lambda: simulate(prob, Gains(M=1, alpha=1e-4), T=2, drops=DropSchedule(graph))
        if np.array_equal(A, laplacian(graph).entries):
            run()
        else:
            with pytest.raises(DropOnNonLaplacianError):
                run()

    def test_overflowing_degree_raises_laplacians_error(self):
        graph = WeightedGraph(3, ((0, 1, 1e308), (1, 2, 1e308)))
        prob = IterationProblem(np.zeros((3, 3)), np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match=r"^Laplacian entry \(1, 1\) is inf, not finite$"):
            simulate(prob, Gains(1, 0.5), 2, drops=DropSchedule(graph))


class TestSparseFormOnly:
    """The simulator runs on p.nonzeros: after IterationProblem is built,
    no run, residual or drop check reads the dense A."""

    def test_runs_without_the_dense_matrix(self):
        graph, g, schedule, x0 = memory_fragility_example()
        L = laplacian(graph).entries
        b = L @ np.random.default_rng(6).standard_normal(graph.n)
        intact, bare = IterationProblem(L, b, x0), IterationProblem(L, b, x0)
        object.__setattr__(bare, "A", None)
        for drops in (None, DropSchedule(graph), schedule):
            want, got = (simulate(p, g, 400, drops=drops) for p in (intact, bare))
            assert got.states.tobytes() == want.states.tobytes()
            assert got.residuals.tobytes() == want.residuals.tobytes()

    def test_drop_check_builds_no_dense_matrix(self):
        # A 2000-node two-cluster graph: its Laplacian is 32 MB and the
        # 150-step run's own arrays are about 2.4 MB, so a peak below an
        # eighth of the Laplacian means the check built no n x n array.
        n, h = 2000, 1000
        edges = [(c + i, c + (i + d) % h, 1.0) for c in (0, h) for d in (1, 2, 7)
                 for i in range(h)] + [(0, h, 0.01)]
        graph = WeightedGraph(n, tuple(edges))
        L = laplacian(graph).entries
        prob = IterationProblem(L, np.zeros(n), np.random.default_rng(7).standard_normal(n))
        drops = DropSchedule(graph, {3: frozenset({(0, h)})})
        g = Gains(2, 0.1, (-0.2,))
        tracemalloc.start()
        try:
            tr = simulate(prob, g, 150, drops=drops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not tr.diverged
        assert peak < n * n * 8 / 8


class TestResidualsFromForces:
    def test_residuals_are_the_stacked_force_norms_bit_for_bit(self):
        # Without drops a state's residual is the norm of its step's force;
        # it must be the norm np.linalg.norm(axis=1) gives the stacked
        # forces, rounding included.
        graph = WeightedGraph(40, tuple((i, (i + d) % 40, 1.0 + 0.1 * d)
                                        for d in (1, 7) for i in range(40)))
        L = laplacian(graph).entries
        rng = np.random.default_rng(4)
        prob = IterationProblem(L, L @ rng.standard_normal(40), rng.standard_normal(40))
        tr = simulate(prob, Gains(M=2, alpha=0.05, betas=(-0.1,)), T=30)
        force = _force(prob, None, [])
        stack = [force(t, x) for t, x in enumerate(tr.states)]
        assert np.array_equal(tr.residuals, np.linalg.norm(stack, axis=1))


class TestResidualsUnderDrops:
    def test_residual_is_for_the_full_matrix(self):
        # A drop step's force b - A_t x is not its residual: every
        # residual, the diverged last state's included, uses the full A.
        graph, g, schedule, x0 = memory_fragility_example()
        L = laplacian(graph).entries
        b = L @ np.random.default_rng(3).standard_normal(graph.n)
        tr = simulate(IterationProblem(L, b, x0), g, 400, drops=schedule)
        assert tr.diverged
        xs = tr.states
        ref = np.linalg.norm(xs @ L.T - b, axis=1)
        tol = 1e-12 * np.linalg.norm(np.abs(xs) @ np.abs(L).T + np.abs(b), axis=1)
        np.testing.assert_array_less(np.abs(tr.residuals - ref), tol)
        cut = [np.linalg.norm(b - schedule.laplacian_at(t) @ x) for t, x in enumerate(xs[:-1])]
        assert np.sum(np.abs(cut - ref[:-1]) > tol[:-1]) > 10

    def test_one_product_with_A_per_state(self, monkeypatch):
        # A step's residual comes from the A x its force forms, drop steps
        # included; only the last state needs a product of its own.
        graph, g, schedule, x0 = memory_fragility_example()
        L = laplacian(graph).entries
        products = []
        matvec = dynamics._matvec
        monkeypatch.setattr(dynamics, "_matvec",
                            lambda p, x: products.append(1) or matvec(p, x))
        tr = simulate(IterationProblem(L, np.zeros(graph.n), x0), g, 400, drops=schedule)
        assert tr.diverged and len(products) == tr.T + 1


@st.composite
def symmetric_problems(draw):
    """A random symmetric A (dense, sparse with exact zeros, or diagonal;
    possibly with a zero row and -0.0 entries, 1x1 included), a bias in
    its range and two state vectors."""
    n = draw(st.integers(1, 8))
    entry = st.floats(-10.0, 10.0)
    kind = draw(st.sampled_from(["dense", "sparse", "diagonal"]))
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            if i == j or kind == "dense" or (kind == "sparse" and draw(st.booleans())):
                A[i, j] = A[j, i] = draw(entry)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        A[k, :] = A[:, k] = 0.0
    if draw(st.booleans()):
        A[A == 0] = -0.0
    vec = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n).map(np.array)
    return A, A @ draw(vec), draw(vec), draw(vec)


def rescaled_norms(v):
    """Row 2-norms that cannot underflow or overflow: np.linalg.norm of each
    row times 2^-e, with 2^e above its largest |entry|, multiplied back by
    2^e. A power of two scales exactly, so no rounding is added."""
    e = np.frexp(np.abs(v).max(axis=1))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -e[:, None]), axis=1), e)


class TestEdgeArrayProduct:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_problems())
    def test_force_and_residuals_match_dense_product(self, case):
        A, b, x0, x = case
        try:
            prob = IterationProblem(A, b, x0)
        except IncompatibleBiasError:
            assume(False)
        # Forming b - Ax rounds at the scale of |b| as well as |A| |x|.
        tol = 1e-12 * (np.abs(A) @ np.abs(x) + np.abs(b))
        assert np.all(np.abs(_force(prob, None, [])(0, x) - (b - A @ x)) <= tol)
        tr = simulate(prob, Gains(M=2, alpha=0.05, betas=(-0.1,)), T=5)
        xs = tr.states
        ref = rescaled_norms(xs @ A.T - b)
        tol = 1e-12 * rescaled_norms(np.abs(xs) @ np.abs(A).T + np.abs(b))
        assert np.all(np.abs(tr.residuals - ref) <= tol)

    @settings(max_examples=200, deadline=None)
    @given(symmetric_problems(), st.integers(0, 7), st.integers(0, 7),
           st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 1e-3]))
    def test_symmetry_predicate_is_the_dense_one(self, case, i, j, eps):
        A = case[0].copy()
        n = len(A)
        A[i % n, j % n] += eps
        dense_ok = np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
        if dense_ok:
            IterationProblem(A, np.zeros(n), np.zeros(n))
        else:
            with pytest.raises(ValueError, match="symmetric"):
                IterationProblem(A, np.zeros(n), np.zeros(n))


def stays_normal(k, *arrays, margin=0):
    """True if every nonzero entry, as it is and times 2^k, is a normal
    float with margin binary orders to spare on either side, so that
    scaling by powers of two within that margin is exact."""
    a = np.abs(np.concatenate([np.ravel(v) for v in arrays]))
    e = np.frexp(a[a > 0])[1]
    return bool(np.isfinite(a).all()) and all(
        e.min(initial=0) + s - margin >= -1021 and e.max(initial=0) + s + margin <= 1024
        for s in (0, k))


class TestPowerOfTwoScaling:
    # Norms and metrics are positively homogeneous, and a power of two
    # scales a float exactly. So wherever the results stay normal, scaling
    # the input by 2^k scales them by 2^k bit for bit: an over- or
    # underflowing sum of squares, or a rescale that rounds, breaks it.
    vectors = st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=8)

    @settings(max_examples=300, deadline=None)
    @given(vectors, st.integers(-1000, 1000))
    def test_norm_and_metrics_commute_with_ldexp(self, x, k):
        x = np.array(x)
        # _norm's callers hold off numpy's overflow warning, as simulate does.
        with np.errstate(over="ignore"):
            norm, scaled = _norm(x), _norm(np.ldexp(x, k))
        metrics = consensus_metrics(x)
        assume(stays_normal(k, norm, metrics))
        assert scaled == np.ldexp(norm, k)
        assert consensus_metrics(np.ldexp(x, k)) == tuple(np.ldexp(metrics, k))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                    min_size=1, max_size=4),
           st.integers(-1000, 1000))
    def test_diagonal_run_commutes_with_ldexp(self, modes, k):
        # Each mode's force b - lam x and memory step are its own, so the
        # run at b 2^k, x0 2^k is the run at k = 0 times 2^k wherever its
        # states, residuals and forces stay normal; 2^80 of margin covers
        # the forces, which cancel to a few ulps of the states.
        lam, b, x0 = (np.array(c) for c in zip(*modes))
        g = tune_theorem3(SpectralInterval(0.5, 2.0)).gains
        base = simulate(IterationProblem(np.diag(lam), b, x0), g, 30)
        assume(stays_normal(k, base.states, base.residuals, b, x0, margin=80))
        run = simulate(IterationProblem(np.diag(lam), np.ldexp(b, k), np.ldexp(x0, k)), g, 30)
        assert base.diverged_at is run.diverged_at is None
        assert np.array_equal(run.states, np.ldexp(base.states, k))
        assert np.array_equal(run.residuals, np.ldexp(base.residuals, k))
