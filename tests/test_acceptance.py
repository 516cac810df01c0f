"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS line on success; tolerances are stated inline. Randomized criteria
use frozen seeds so the suite is fully deterministic.
"""

import numpy as np
import pytest

from memaccel.accel import (
    Gains,
    char_poly,
    guarantee,
    max_root_moduli,
    modal_angle,
    mode_roots,
    tune_memoryless,
    tune_theorem3,
)
from memaccel.certify import (
    ClaimCoeffs,
    claim6_witness,
    gains_to_claim_coeffs,
    large_radius_phase_check,
    p_tilde,
)
from memaccel.dynamics import (
    DropSchedule,
    IterationProblem,
    SimTrace,
    empirical_rate,
    memory_fragility_example,
    simulate,
    simulate_modal,
)
from memaccel.polyroots import roots as poly_roots
from memaccel.spectral import (
    SpectralInterval,
    SpectralSet,
    WeightedGraph,
    laplacian,
    nonzero_spectral_interval,
    symmetric_eigenvalues,
)

REF_IV = SpectralInterval(0.0122, 0.9878)
M4_GAINS = Gains(M=4, alpha=3.6908, betas=(-0.9083, 0.006662, 0.06785))


def _ok(msg):
    print(f"PASS: {msg}")


def _random_interval(rng):
    lo = float(rng.uniform(1e-3, 1.0))
    hi = lo * float(rng.uniform(1.001, 1e4))
    return SpectralInterval(lo, hi)


def _random_connected_graph(rng, n):
    edges = [(i, i + 1, float(rng.uniform(0.2, 1.0))) for i in range(n - 1)]
    have = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in have and rng.random() < 0.3:
                edges.append((i, j, float(rng.uniform(0.2, 1.0))))
    return WeightedGraph(n, tuple(edges))


def test_criterion_01_closed_form_reproduction():
    t = tune_theorem3(REF_IV)
    assert t.mu == pytest.approx(0.9756, abs=1e-6)
    assert t.alpha_star == pytest.approx(3.2800, abs=1e-3)
    assert t.beta1_star == pytest.approx(-0.6400, abs=1e-3)
    assert t.nu_star == pytest.approx(0.8000, abs=1e-4)
    _ok("criterion 1: closed-form tuning reproduces mu/alpha/beta1/nu "
        "to 1e-6/1e-3/1e-3/1e-4")


def test_criterion_02_guarantee_evaluator_reproduction():
    s = SpectralSet(intervals=(SpectralInterval(0.0122, 0.0182),), points=(0.9878,))
    rep = guarantee(M4_GAINS, s)
    assert rep.nu == pytest.approx(0.7560, abs=5e-4)
    # the narrowed tuning pays on the rest of the full interval
    lams = np.linspace(0.0291, 0.9788, 500)
    mods = max_root_moduli(M4_GAINS, lams)
    assert np.all(mods > 0.8000)
    _ok("criterion 2: structured-set guarantee 0.7560 +- 5e-4 and "
        "modulus > 0.8 across the sacrificed band")


def test_criterion_03_single_memory_optimality_property():
    rng = np.random.default_rng(3)
    n = 10_000
    for _ in range(n):
        iv = _random_interval(rng)
        t = tune_theorem3(iv)
        M = int(rng.integers(2, 7))
        alpha = float(rng.uniform(1e-6, 4.0 / iv.hi))
        g = Gains(M=M, alpha=alpha, betas=tuple(rng.uniform(-2.0, 2.0, M - 1)))
        nu = guarantee(g, iv, grid=65, refine_tol=1e-2).nu
        assert nu >= t.nu_star - 1e-9
        nu_opt = guarantee(t.gains, iv, grid=17, refine_tol=1e-2).nu
        assert abs(nu_opt - t.nu_star) <= 1e-6
    _ok(f"criterion 3: {n} random gain/interval draws never beat the "
        "closed-form optimum (slack 1e-9; equality 1e-6 at the optimum)")


def test_criterion_04_constant_modulus_and_angle_sweep():
    rng = np.random.default_rng(4)
    for _ in range(100):
        iv = _random_interval(rng)
        t = tune_theorem3(iv)
        lams = np.linspace(iv.lo, iv.hi, 50)
        mods = max_root_moduli(t.gains, lams)
        np.testing.assert_allclose(mods, t.nu_star, atol=1e-8)
        angles = np.array([modal_angle(l, iv) for l in lams])
        assert np.all(np.diff(angles) >= 0)
        assert angles[0] == pytest.approx(0.0, abs=1e-6)
        assert angles[-1] == pytest.approx(np.pi, abs=1e-6)
    _ok("criterion 4: constant root modulus (1e-8) and monotone 0->pi "
        "angle sweep over 100 random intervals x 50 samples")


def test_criterion_05_nonnegative_memory_never_accelerates():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        iv = _random_interval(rng)
        _, mu = tune_memoryless(iv)
        M = int(rng.integers(2, 7))
        alpha = float(rng.uniform(1e-6, 4.0 / iv.hi))
        g = Gains(M=M, alpha=alpha, betas=tuple(rng.uniform(0.0, 2.0, M - 1)))
        nu = guarantee(g, iv, grid=65, refine_tol=1e-2).nu
        assert nu >= mu - 1e-9
    _ok("criterion 5: 1000 nonnegative-memory draws never beat the "
        "memoryless factor (slack 1e-9)")


def test_criterion_06_spectral_gap_bound():
    eps = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    for e in eps:
        mu = 1.0 - e
        t = tune_theorem3(SpectralInterval(1.0 - mu, 1.0 + mu))
        assert t.nu_star < 1.0 - np.sqrt(e)
    _ok("criterion 6: nu* < 1 - sqrt(spectral gap) on a 1000-point gap grid")


def test_criterion_07_normalized_polynomial_scaling():
    rng = np.random.default_rng(7)
    for _ in range(100):
        M = int(rng.integers(2, 7))
        lo = float(rng.uniform(0.05, 0.5))
        hi = lo * float(rng.uniform(1.5, 20.0))
        iv = SpectralInterval(lo, hi)
        t = tune_theorem3(iv, M=M)
        alpha = t.gains.alpha * float(rng.uniform(0.5, 1.5))
        betas = tuple(np.array(t.gains.betas) + rng.uniform(-0.5, 0.5, M - 1))
        g = Gains(M=M, alpha=alpha, betas=betas)
        c = gains_to_claim_coeffs(g, iv)
        lam = float(rng.uniform(lo, hi))
        theta = modal_angle(lam, iv)
        z_roots = poly_roots(char_poly(g, lam)).roots
        y_roots = poly_roots(p_tilde(c, theta)).roots
        mapped = sorted((c.nu * y for y in y_roots), key=lambda z: (z.real, z.imag))
        assert len(mapped) == len(z_roots)
        for z in z_roots:
            d = min(abs(z - w) for w in mapped)
            assert d <= 1e-7 * max(1.0, abs(z))
    _ok("criterion 7: normalized test-polynomial roots scale back onto the "
        "mode roots (1e-7) over 100 random triples")


def test_criterion_08_witness_search_and_large_radius():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        M = int(rng.integers(2, 6))
        a = rng.uniform(-0.5, 0.5, M)
        if a[-1] == -1.0:
            a[-1] = 0.0
        c = ClaimCoeffs(M=M, nu=float(rng.uniform(0.2, 0.95)), a=tuple(a))
        w = claim6_witness(c)
        assert w.found
        assert w.modulus >= 1.0 - 1e-8
    boundary = claim6_witness(ClaimCoeffs(M=3, nu=0.8, a=(0.0, 0.0, 0.0)))
    assert boundary.modulus == pytest.approx(1.0, abs=1e-9)
    for _ in range(100):
        M = int(rng.integers(2, 6))
        a = rng.uniform(-0.5, 0.5, M)
        a[-1] = float(rng.uniform(0.05, 1.0))
        c = ClaimCoeffs(M=M, nu=float(rng.uniform(0.3, 0.9)), a=tuple(a))
        ok, bad = large_radius_phase_check(c, theta_grid=64, phase_grid=64)
        assert ok, bad
    _ok("criterion 8: 1000 witnesses found (modulus >= 1-1e-8), zero-vector "
        "boundary at 1 +- 1e-9, 100 large-radius phase checks")


def test_criterion_09_simulation_consistency():
    rng = np.random.default_rng(9)
    # modal/vector equivalence on diagonal systems
    for _ in range(5):
        n = int(rng.integers(2, 6))
        lams = rng.uniform(0.1, 3.0, n)
        M = int(rng.integers(1, 5))
        g = Gains(M=M, alpha=float(rng.uniform(0.1, 0.6)),
                  betas=tuple(rng.uniform(-0.3, 0.3, M - 1)))
        x0 = rng.standard_normal(n)
        b = rng.standard_normal(n) * 0.1
        tr = simulate(IterationProblem(np.diag(lams), b, x0), g, T=40)
        for k in range(n):
            modal = simulate_modal(lams[k], b[k], g, x0[k], 40)
            np.testing.assert_allclose(tr.states[:, k], modal, rtol=0, atol=1e-12)
    # tuned decay rate on random consensus systems
    for _ in range(20):
        n = int(rng.integers(3, 9))
        graph = _random_connected_graph(rng, n)
        L = laplacian(graph).entries
        iv = nonzero_spectral_interval(symmetric_eigenvalues(laplacian(graph)))
        t = tune_theorem3(iv)
        x0 = rng.standard_normal(n)
        tr = simulate(IterationProblem(L, np.zeros(n), x0), t.gains, T=120)
        # Fit the decay of the residual's monotone upper envelope, only
        # while it stays above the float noise floor, and only over the
        # later half of that window: interval-endpoint modes carry
        # defective double roots whose t*nu^t factor inflates the slope
        # of early samples.
        env = np.maximum.accumulate(tr.residuals[::-1])[::-1]
        above = np.flatnonzero(env > env[0] * 1e-12)
        k = max(int(above[-1]) + 1, 13) if above.size else 13
        trimmed = SimTrace(states=tr.states[:k], residuals=env[:k], spread=tr.spread[:k],
                           rms=tr.rms[:k], mean=tr.mean[:k], diverged_at=tr.diverged_at)
        assert empirical_rate(trimmed, burn_in=k // 2) <= t.nu_star + 0.02
    # average preservation, with and without drops
    for _ in range(10):
        n = int(rng.integers(3, 7))
        graph = _random_connected_graph(rng, n)
        L = laplacian(graph).entries
        x0 = rng.standard_normal(n)
        g = Gains(M=2, alpha=0.3, betas=(-0.2,))
        keys = [(i, j) for i, j, _ in graph.edges]
        drops = {}
        for step in range(50):
            mask = rng.random(len(keys)) < 0.3
            if mask.any():
                drops[step] = frozenset(k for k, m in zip(keys, mask) if m)
        for sched in (None, DropSchedule(graph, drops)):
            tr = simulate(IterationProblem(L, np.zeros(n), x0), g, T=50,
                          drops=sched)
            np.testing.assert_allclose(tr.mean, tr.mean[0], rtol=1e-12, atol=1e-13)
    _ok("criterion 9: modal/vector agreement 1e-12, tuned rate within "
        "nu*+0.02 on 20 systems, average preserved to 1e-12 under drops")


def test_criterion_10_drop_robustness_pair():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        graph = _random_connected_graph(rng, n)
        L = laplacian(graph).entries
        alpha = 0.9 / np.max(np.diag(L))  # keeps I - alpha*L entrywise nonneg
        keys = [(i, j) for i, j, _ in graph.edges]
        drops = {}
        for step in range(40):
            mask = rng.random(len(keys)) < 0.4
            if mask.any():
                drops[step] = frozenset(k for k, m in zip(keys, mask) if m)
        tr = simulate(
            IterationProblem(L, np.zeros(n), rng.standard_normal(n)),
            Gains(M=1, alpha=alpha), T=40, drops=DropSchedule(graph, drops),
        )
        assert np.all(np.diff(tr.spread) <= 1e-12)
    graph, gains, schedule, x0 = memory_fragility_example()
    prob = IterationProblem(laplacian(graph).entries, np.zeros(graph.n), x0)
    tr = simulate(prob, gains, T=400, drops=schedule)
    assert tr.diverged
    _ok("criterion 10: memoryless spread non-increasing under 100 random "
        "drop schedules; tuned two-term fixture diverges under drops")
