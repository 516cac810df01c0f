"""Core analytics for the memory-accelerated iteration.

Builds the per-mode characteristic polynomial, evaluates the worst-case
convergence-speed guarantee over spectral sets, computes the closed-form
optimal tunings (memoryless and single-memory), maps eigenvalues to root
angles under the optimal tuning, and runs derivative-free gain search for
richer spectral knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polyroots
from .errors import AlphaZeroError, OutOfIntervalError
from .polyroots import ComplexRootSet, RealPolynomial
from .spectral import SpectralInterval, SpectralSet

DEFAULT_GRID = 2001
DEFAULT_REFINE_TOL = 1e-10
# search_gains: jittered restarts and polish rounds after the seeded run,
# and the coarser guarantee each search evaluation uses.
SEARCH_RESTARTS = 5
SEARCH_POLISH_ROUNDS = 8
SEARCH_GRID = 161
SEARCH_REFINE_TOL = 1e-7


@dataclass(frozen=True)
class Gains:
    """Free parameters of the accelerated iteration.

    M is the memory order: M=1 is the memoryless scheme, M-1 memory slots
    otherwise. ``betas`` holds beta_1 .. beta_{M-1}.
    """

    M: int
    alpha: float
    betas: tuple[float, ...] = ()

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"memory order M must be >= 1, got {self.M}")
        if len(self.betas) != self.M - 1:
            raise ValueError(
                f"need {self.M - 1} beta gains for M={self.M}, got {len(self.betas)}"
            )
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if not np.isfinite((self.alpha, *self.betas)).all():
            raise ValueError(f"gains must be finite: alpha={self.alpha}, betas={self.betas}")
        if self.alpha == 0:
            raise AlphaZeroError("alpha = 0 makes every state stationary")


@dataclass(frozen=True)
class TuningResult:
    """Closed-form single-memory tuning for a spectral interval."""

    gains: Gains
    mu: float
    nu_star: float
    alpha_star: float
    beta1_star: float
    degenerate: bool = False


@dataclass(frozen=True)
class GuaranteeReport:
    """Worst-case guarantee nu with the worst eigenvalue and the sampled
    modulus curve (lambda, max root modulus) that produced it."""

    nu: float
    worst_lambda: float
    samples: tuple[tuple[float, float], ...]
    refined: bool


def _char_coeffs(g: Gains, lambdas) -> np.ndarray:
    """(K, M+1) low-to-high coefficients of :func:`char_poly` at each lambda."""
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    M = g.M
    coeffs = np.zeros((lambdas.size, M + 1))
    coeffs[:, M] = 1.0
    coeffs[:, M - 1] = -(1.0 - g.alpha * lambdas) + sum(g.betas)
    for m in range(M - 1):
        coeffs[:, m] = -g.betas[M - m - 2]
    return coeffs


def char_poly(g: Gains, lam: float) -> RealPolynomial:
    """Monic degree-M characteristic polynomial of the mode at eigenvalue
    lam: z^M - (1 - alpha*lam) z^{M-1} + sum_m beta_{M-m-1} (z^{M-1} - z^m)."""
    return RealPolynomial(tuple(_char_coeffs(g, lam)[0]))


def mode_roots(g: Gains, lam: float) -> ComplexRootSet:
    """Roots of the mode's characteristic polynomial."""
    return polyroots.roots(char_poly(g, lam))


def max_root_moduli(g: Gains, lambdas) -> np.ndarray:
    """Max root modulus of the characteristic polynomial at each lambda,
    computed in one batched companion-eigenvalue call."""
    eigs = polyroots.companion_eigvals(_char_coeffs(g, lambdas))
    return np.abs(eigs).max(axis=1)


def _refine_maxima(g: Gains, brackets: np.ndarray, refine_tol: float):
    """Shrink each (lo, hi) bracket around its max of the modulus curve
    until the bracket is narrower than refine_tol; vectorized over
    brackets with 9 samples per level. Returns (lambdas, moduli)."""
    lo = brackets[:, 0].copy()
    hi = brackets[:, 1].copy()
    npts = 9
    while np.any(hi - lo > refine_tol):
        grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, npts)
        vals = max_root_moduli(g, grid.ravel()).reshape(grid.shape)
        best = vals.argmax(axis=1)
        step = (hi - lo) / (npts - 1)
        lo = np.maximum(lo, grid[np.arange(len(lo)), best] - step)
        hi = np.minimum(hi, grid[np.arange(len(hi)), best] + step)
    mid = 0.5 * (lo + hi)
    return mid, max_root_moduli(g, mid)


def guarantee(
    g: Gains,
    s: SpectralSet | SpectralInterval,
    grid: int = DEFAULT_GRID,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> GuaranteeReport:
    """Worst-case guarantee nu = sup over lambda in s of the max root
    modulus, approximated by a uniform grid per interval plus bracket
    refinement around every local maximum. Isolated points are evaluated
    exactly. Values above 1 (divergent tunings) are reported as-is."""
    if isinstance(s, SpectralInterval):
        s = SpectralSet.from_interval(s)
    if s.empty:
        raise ValueError("empty spectral set")
    if grid < 2:
        raise ValueError("need at least 2 grid samples per interval")
    if not 0 < refine_tol < np.inf:
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")

    samples: list[tuple[float, float]] = []
    refined_any = False
    for iv in s.intervals:
        lams = np.linspace(iv.lo, iv.hi, grid)
        vals = max_root_moduli(g, lams)
        samples.extend(zip(lams.tolist(), vals.tolist()))
        # Local maxima of the sampled curve, endpoints included.
        left = np.r_[-np.inf, vals[:-1]]
        right = np.r_[vals[1:], -np.inf]
        cand = np.flatnonzero((vals >= left) & (vals >= right))
        if cand.size:
            los = lams[np.maximum(cand - 1, 0)]
            his = lams[np.minimum(cand + 1, grid - 1)]
            rl, rv = _refine_maxima(g, np.column_stack([los, his]), refine_tol)
            samples.extend(zip(rl.tolist(), rv.tolist()))
            refined_any = True
    # Isolated points go through the root solver directly so a degenerate
    # set {lam} agrees exactly with max_modulus(mode_roots(g, lam)).
    for pt in s.points:
        samples.append((pt, polyroots.max_modulus(mode_roots(g, pt))))

    samples.sort()
    nu = max(v for _, v in samples)
    worst = min(lam for lam, v in samples if v == nu)
    return GuaranteeReport(nu=nu, worst_lambda=worst, samples=tuple(samples), refined=refined_any)


def tune_memoryless(iv: SpectralInterval) -> tuple[float, float]:
    """Optimal memoryless gain: alpha balancing the interval endpoints,
    with worst contraction factor mu."""
    alpha = 2.0 / (iv.hi + iv.lo)
    mu = (iv.hi - iv.lo) / (iv.hi + iv.lo)
    return alpha, mu


def tune_theorem3(iv: SpectralInterval, M: int = 2) -> TuningResult:
    """Optimal single-memory tuning for the interval; extra memory slots
    beyond the first get zero gain. A degenerate interval (lo == hi)
    returns the deadbeat limit, flagged."""
    if M < 2:
        raise ValueError(f"single-memory tuning needs M >= 2, got {M}")
    mu = (iv.hi - iv.lo) / (iv.hi + iv.lo)
    if mu == 0.0:
        gains = Gains(M=M, alpha=1.0 / iv.lo, betas=(0.0,) * (M - 1))
        return TuningResult(gains, mu=0.0, nu_star=0.0, alpha_star=gains.alpha,
                            beta1_star=0.0, degenerate=True)
    # Stable form of 1/mu - sqrt(1/mu^2 - 1); the direct expression
    # cancels catastrophically for small mu.
    nu_star = mu / (1.0 + np.sqrt(1.0 - mu**2))
    beta1 = -nu_star**2
    alpha = 2.0 * (1.0 - beta1) / (iv.hi + iv.lo)
    gains = Gains(M=M, alpha=alpha, betas=(beta1,) + (0.0,) * (M - 2))
    return TuningResult(gains, mu=float(mu), nu_star=float(nu_star),
                        alpha_star=float(alpha), beta1_star=float(beta1))


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
    the seed (default: single-memory optimal tuning of the convex hull of
    s), SEARCH_RESTARTS wide jittered restarts to escape the seed's
    basin, then SEARCH_POLISH_ROUNDS small-jitter polish rounds around
    the incumbent best. ``budget`` caps the guarantee evaluations, each
    on a SEARCH_GRID grid refined to SEARCH_REFINE_TOL. Returns the seed
    itself when no improvement is found. Deterministic for a fixed
    rng_seed."""
    if isinstance(s, SpectralInterval):
        s = SpectralSet.from_interval(s)
    if budget < 1:
        raise ValueError("budget must be >= 1")
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
        if best_x is None:
            break
        run(best_x * (1.0 + 0.01 * rng.standard_normal(x0.size)))

    seed_report = guarantee(seed, s)
    if best_x is None:
        return seed, seed_report
    g_best = Gains(M=M, alpha=float(best_x[0]), betas=tuple(best_x[1:]))
    best_report = guarantee(g_best, s)
    if best_report.nu < seed_report.nu:
        return g_best, best_report
    return seed, seed_report
