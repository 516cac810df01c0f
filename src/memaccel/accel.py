"""Core analytics for the memory-accelerated iteration.

Builds the per-mode characteristic polynomial, evaluates the worst-case
convergence-speed guarantee over spectral sets, maps eigenvalues to root
angles under the optimal tuning, and runs derivative-free gain search for
richer spectral knowledge. The closed-form tunings and the gain and
spectral-set types live in :mod:`memaccel.tuning` and are re-exported here.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import polyroots
from .errors import MemaccelError, OutOfIntervalError
from .polyroots import ComplexRootSet, RealPolynomial
from .tuning import (Gains, Record, SpectralInterval, SpectralSet, TuningResult,
                     _check_index, check_guarantee_args, tune_memoryless,
                     tune_theorem3)

DEFAULT_GRID = 2001
DEFAULT_REFINE_TOL = 1e-10
# search_gains: jittered restarts and polish rounds after the seeded run,
# and the coarser guarantee each search evaluation uses.
SEARCH_RESTARTS = 5
SEARCH_POLISH_ROUNDS = 8
SEARCH_GRID = 161
SEARCH_REFINE_TOL = 1e-7


class GuaranteeReport(Record):
    """Worst-case guarantee over a spectral set: nu is a certified upper
    bound of the largest root modulus, nu_lo <= nu the modulus attained at
    worst_lambda, and nu - nu_lo <= refine_tol; samples holds the sampled
    curve (lambda, max root modulus) and the attained point."""

    nu: float
    nu_lo: float
    worst_lambda: float
    samples: tuple[tuple[float, float], ...]


def _char_q(g: Gains) -> np.ndarray:
    """Low-to-high coefficients of :func:`char_poly` at lambda = 0; the
    z^{M-1} coefficient grows by alpha*lambda."""
    return np.array([*(-b for b in g.betas[::-1]), sum(g.betas) - 1.0, 1.0])


def char_poly(g: Gains, lam: float) -> RealPolynomial:
    """Monic degree-M characteristic polynomial of the mode at a finite
    lam: z^M - (1 - alpha*lam) z^{M-1} + sum_m beta_{M-m-1} (z^{M-1} - z^m)."""
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    q = _char_q(g)
    q[g.M - 1] += g.alpha * lam
    return RealPolynomial(tuple(q))


def mode_roots(g: Gains, lam: float) -> ComplexRootSet:
    """Roots of the mode's characteristic polynomial."""
    return polyroots.roots(char_poly(g, lam))


@contextmanager
def _no_overflow(g: Gains, lambdas):
    """numpy's overflow and invalid-value warnings in the block, raised as
    one MemaccelError naming alpha and the largest |lambda|: no nu is
    proven where a coefficient or a power of a root overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        lam = max(np.ravel(lambdas), key=abs)
        raise MemaccelError(f"alpha*lambda or a power of it overflows for "
                            f"alpha={g.alpha}, lambda={lam}") from None


def max_root_moduli(g: Gains, lambdas) -> np.ndarray:
    """Max root modulus of the characteristic polynomial at each finite
    lambda, computed in one batched companion-eigenvalue call.
    MemaccelError if alpha*lambda overflows."""
    finite = np.isfinite(lambdas)
    if not finite.all():
        raise ValueError(f"lambda must be finite, got {np.extract(~finite, lambdas)[0]}")
    with _no_overflow(g, lambdas):
        return polyroots.affine_max_roots(_char_q(g), g.M - 1, g.alpha, lambdas)[0]


def guarantee(
    g: Gains,
    s: SpectralSet | SpectralInterval,
    grid: int = DEFAULT_GRID,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> GuaranteeReport:
    """Worst-case guarantee: sup over lambda in s of the max root modulus,
    bracketed to within refine_tol. The isolated points and ``grid``
    samples per interval, in one :func:`max_root_moduli` call, give the
    curve and a first attained nu_lo. Then over the intervals
    :func:`polyroots.affine_crossing` tests radii just above nu_lo, which
    certifies a flat or sampled maximum at once, and after a hit halves
    the bracket once before trying again. nu, the certified bound, is
    never below the supremum. Values above 1 are reported as-is.
    MemaccelError if alpha*lambda, or the power of a root the crossing
    test evaluates, overflows."""
    s = check_guarantee_args(s, grid, refine_tol)
    q, k = _char_q(g), g.M - 1

    lams = np.concatenate([s.points, *(np.linspace(iv.lo, iv.hi, grid) for iv in s.intervals)])
    samples = list(zip(lams.tolist(), max_root_moduli(g, lams).tolist()))
    nu_lo = max(v for _, v in samples)
    worst = min(lam for lam, v in samples if v == nu_lo)

    # Cauchy bound 1 + max|coefficient| of the monic polynomial; the moving
    # coefficient is largest at an end of an interval.
    ends = [q[k] + g.alpha * v for iv in s.intervals for v in (iv.lo, iv.hi)]
    nu = max(nu_lo, 1.0 + float(np.abs([*q[:-1], *ends]).max())) if ends else nu_lo
    sampled = nu_lo

    def exceeded(r):
        # Whether a root exceeds r; the best lambda evaluated raises nu_lo
        # when it beats it.
        nonlocal nu_lo, worst
        tests = [polyroots.affine_crossing(q, k, g.alpha, iv.lo, iv.hi, r)
                 for iv in s.intervals]
        lam, root, _ = max(tests, key=lambda t: abs(t[1]))
        if abs(root) > nu_lo:
            nu_lo, worst = abs(root), lam
        return abs(root) > r

    with _no_overflow(g, lams):
        while nu - nu_lo > refine_tol:
            r = nu_lo + min(1e-13 * nu_lo, refine_tol)
            if not exceeded(r):
                nu = r
                break
            # Halving first: nu_lo + nu overflows near the largest float.
            r = 0.5 * nu_lo + 0.5 * nu
            if not nu_lo < r < nu:
                break
            if not exceeded(r):
                nu = r
    if nu_lo > sampled:
        samples.append((worst, nu_lo))
    return GuaranteeReport(nu=nu, nu_lo=nu_lo, worst_lambda=worst, samples=tuple(sorted(samples)))


def modal_angle(lam: float, iv: SpectralInterval) -> float:
    """Angle theta in [0, pi] of the root nu * e^{i theta} of the optimally
    tuned mode at eigenvalue lam; a continuous increasing bijection from
    [lo, hi] to [0, pi]."""
    if not iv.contains(lam):
        raise OutOfIntervalError(f"lambda={lam} outside [{iv.lo}, {iv.hi}]")
    t = tune_theorem3(iv)
    if t.degenerate:
        return 0.0
    # Root sum is 2*nu*cos(theta) = 1 - alpha*lam - beta1.
    c = (1.0 - t.alpha_star * lam - t.beta1_star) / (2.0 * t.nu_star)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


class _BudgetSpent(Exception):
    """_nelder_mead has made its maxfev calls."""


def _nelder_mead(f, x0, maxfev, xatol, fatol):
    """Minimise f from x0 by Nelder-Mead with the standard coefficients
    (reflection 1, expansion 2, contraction 1/2, shrink 1/2; Lagarias,
    Reeds, Wright & Wright, SIAM J. Optim. 1998) and an initial simplex
    that scales each coordinate by 1.05 (0.00025 for a zero). Stops when
    the simplex is within xatol and its values within fatol of the best
    vertex, or after exactly maxfev calls of f, even within a step. f
    gets a copy of each point, which it may keep; nothing is returned."""
    calls = 0

    def call(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(x.copy())

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
        # np.argsort is not stable, so each sort may reorder tied
        # vertices; sort as often as the reference Nelder-Mead the tests
        # compare against: once here and once before every step.
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        while calls < maxfev:
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                return
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
    except _BudgetSpent:
        pass


def search_gains(
    s: SpectralSet | SpectralInterval,
    M: int,
    seed: Gains | None = None,
    budget: int = 4000,
    rng_seed: int = 0,
) -> tuple[Gains, GuaranteeReport]:
    """Derivative-free local descent of the guarantee over (alpha, betas).

    Three stages of the in-house Nelder-Mead (:func:`_nelder_mead`,
    coefficients 1, 2, 1/2, 1/2 as in Lagarias et al. 1998): a run from
    the seed (default: :func:`tune_theorem3` of the hull of s at M),
    SEARCH_RESTARTS wide jittered restarts to escape the seed's basin,
    then SEARCH_POLISH_ROUNDS small-jitter polish rounds around
    the incumbent best. ``budget`` caps the guarantee evaluations, each
    on a SEARCH_GRID grid bracketed to SEARCH_REFINE_TOL. Returns the seed
    itself when no improvement is found. Deterministic for a fixed
    rng_seed. s is not empty, M and budget are integers >= 1 and
    rng_seed an integer >= 0: anything else raises ValueError."""
    s = check_guarantee_args(s)
    _check_index("memory order M", M, 1)
    _check_index("budget", budget, 1)
    _check_index("rng_seed", rng_seed, 0)
    if seed is None:
        seed = tune_theorem3(s.hull(), M=M).gains
    if seed.M != M:
        raise ValueError(f"seed has M={seed.M}, expected {M}")

    evals = 0
    best_x, best_f = None, np.inf

    def objective(x):
        nonlocal evals, best_x, best_f
        alpha = float(x[0])
        if alpha == 0.0:
            return np.inf
        evals += 1
        g = Gains(M=M, alpha=alpha, betas=tuple(x[1:]))
        nu = guarantee(g, s, grid=SEARCH_GRID, refine_tol=SEARCH_REFINE_TOL).nu
        if nu < best_f:
            best_x, best_f = x, nu
        return nu

    per_run = max(1, budget // (1 + SEARCH_RESTARTS + SEARCH_POLISH_ROUNDS))

    def run(start):
        _nelder_mead(objective, start, min(per_run, budget - evals),
                     xatol=1e-11, fatol=1e-13)

    x0 = np.array([seed.alpha, *seed.betas])
    rng = np.random.default_rng(rng_seed)
    run(x0)
    # The optimal-tuning seed is itself a local minimum on structured
    # sets; wide restarts are needed to leave its basin.
    for _ in range(SEARCH_RESTARTS):
        run(x0 + rng.normal(0.0, 0.15, x0.size) * np.maximum(np.abs(x0), 0.3))
    for _ in range(SEARCH_POLISH_ROUNDS):
        run(best_x * (1.0 + 0.01 * rng.standard_normal(x0.size)))

    # The seed run evaluates the seed first, so best_x is set.
    g_best = Gains(M=M, alpha=float(best_x[0]), betas=tuple(best_x[1:]))
    seed_report = guarantee(seed, s)
    if g_best == seed:
        return seed, seed_report
    best_report = guarantee(g_best, s)
    if best_report.nu < seed_report.nu:
        return g_best, best_report
    return seed, seed_report
