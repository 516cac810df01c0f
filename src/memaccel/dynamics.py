"""Time-domain simulation of the memory-accelerated iteration.

Vector and single-mode recursions with constant-history initialization
(x(s) = x0 for s <= 0), residual/disagreement metrics, empirical rate
estimation, and link-drop robustness experiments. Traces export to CSV
with header ``t,residual,spread,rms,mean``.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from .errors import DropOnNonLaplacianError, IncompatibleBiasError, NoDecayError
from .spectral import (
    WeightedGraph,
    _edge_key,
    _laplacian_nonzeros,
    _matvec,
    _nonzeros,
    laplacian,
    nonzero_spectral_interval,
    symmetric_eigenvalues,
)
from .tuning import Gains, Record, _check_index, tune_theorem3

DIVERGENCE_FACTOR = 1e6
DROP_TRIALS, DROP_STEPS, DROP_PROB = 200, 400, 0.5
_CSV_ROWS = 16384  # rows per trace_to_csv block: only its values are Python floats at once


class IterationProblem(Record):
    """Fixed-point problem A x = b with start vector x0.

    A must be symmetric, |a_ij - a_ji| <= 1e-12 max |a|, A, b and x0
    finite, and b orthogonal to the numerical kernel of A, the
    eigenvectors whose eigenvalues are within 1e-9 ||A|| of 0; otherwise
    no fixed point exists. The kernel check needs a full
    eigendecomposition of A, so it runs only when b has a nonzero entry;
    b = 0 is orthogonal to every kernel. Its tolerance is
    1e-9 max(||b||, ||A||): a bias formed as b = A y carries rounding of
    order eps ||A|| ||y|| in the kernel, which is not small next to ||b||
    when y is nearly in the kernel itself. Every tolerance is relative,
    with no absolute floor, so scaling A and b by s > 0 changes no
    decision: the check divides A and b by the largest entry of either
    first, and no norm, solution_scale's included, under- or overflows.

    The scan that checks A also keeps its diagonal and its off-diagonal
    nonzeros, row-major, as ``nonzeros`` = (diag, i, j, a_ij), the layout
    of spectral._laplacian_nonzeros and the only form of A the simulator
    reads: A x costs O(n + nnz(A)) per step, which fits graph Laplacians
    and diagonal matrices; a dense general A costs more than a BLAS
    matvec. The kernel check's eigendecomposition also gives
    ``solution_scale``, the size of a solution: max(||A^+ b||, ||b|| /
    ||A||_2), 0.0 for b = 0, whose second term counts only where a
    kernel part of b passed as rounding.
    Both are caches, not fields: no argument, not in ``==``, hash or repr.
    A, b and x0 are stored read-only, b and x0 as copies and A as given
    only when it is read-only and owns its data, as ``L.entries`` does.
    """

    A: np.ndarray
    b: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if not A.flags.owndata or A is self.A and A.flags.writeable:  # a converted A is new
            A = A.copy()
        b, x0 = np.array(self.b, dtype=float), np.array(self.x0, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
            raise ValueError("A must be square and nonempty")
        # NaN and inf are nonzero, so checking the nonzeros checks all of A.
        r, c, vals = _nonzeros(A)
        if not (np.isfinite(vals).all() and np.isfinite(b).all() and np.isfinite(x0).all()):
            raise ValueError("A, b and x0 must be finite")
        off = r != c
        i, j, a = r[off], c[off], vals[off]
        # max |A - A.T| over all entries is its max over the nonzero pattern
        scale = np.abs(vals).max(initial=0.0)
        if np.abs(a - A[j, i]).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("A must be symmetric within 1e-12")
        if b.shape != (A.shape[0],) or x0.shape != (A.shape[0],):
            raise ValueError("b and x0 must match the dimension of A")
        solution_scale = 0.0
        if b.any():
            d = max(scale, np.abs(b).max())
            w, v = np.linalg.eigh(A / d)
            u = b / d
            norm_A = np.abs(w).max()
            kernel = np.abs(w) <= 1e-9 * norm_A
            if np.linalg.norm(v[:, kernel].T @ u) > 1e-9 * max(np.linalg.norm(u), norm_A):
                raise IncompatibleBiasError("b has a component in the kernel of A")
            # (A/d)^+ (b/d) = A^+ b; a solution past the largest float is inf.
            with np.errstate(over="ignore"):
                solution_scale = max(_norm((v[:, ~kernel].T @ u) / w[~kernel]),
                                     _norm(u) / norm_A)
        for name, m in (("A", A), ("b", b), ("x0", x0)):
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        object.__setattr__(self, "nonzeros", (A.diagonal().copy(), i, j, a))
        object.__setattr__(self, "solution_scale", float(solution_scale))


class DropSchedule(Record):
    """Per-step sets of undirected edges whose weight is zeroed.

    Tied to the graph whose Laplacian the simulation runs on; every
    referenced edge must exist there, and is stored in the graph's form,
    spectral._edge_key's. Steps are integers >= 0, kept as plain ints; a
    float or a bool step or index raises ValueError. Each step's dropped
    edges are also kept as arrays (i, j, w), sorted by edge, in ``cuts``,
    a cache for the simulator that, like ``IterationProblem.nonzeros``,
    is not a field.
    """

    graph: WeightedGraph
    # Never mutated: __post_init__ stores a new dict.
    drops: dict[int, frozenset[tuple[int, int]]] = {}

    def __post_init__(self):
        weight = {(i, j): w for i, j, w in self.graph.edges}
        canon, cuts = {}, {}
        for t, edges in self.drops.items():
            _check_index("drop step", t, 0)
            es = frozenset(_edge_key(i, j) for i, j in edges)
            if not weight.keys() >= es:
                raise ValueError(f"dropped edge {min(es - weight.keys())} not in graph")
            canon[int(t)] = es
            if es:
                keys = sorted(es)
                cuts[int(t)] = (*np.array(keys).T, np.array([weight[e] for e in keys]))
        object.__setattr__(self, "drops", canon)
        object.__setattr__(self, "cuts", cuts)

    def laplacian_at(self, t: int) -> np.ndarray:
        """Dense Laplacian at step t, its dropped links removed: the
        reference that _force's drop scatter is tested against."""
        dropped = self.drops.get(t, frozenset())
        kept = tuple(e for e in self.graph.edges if e[:2] not in dropped)
        return laplacian(WeightedGraph(self.graph.n, kept)).entries


class SimTrace(Record):
    """States x(0..T) with residuals and flags; consensus_metrics(states)
    gives spread, rms and mean. After a divergence, states has diverged_at + 1 rows."""

    states: np.ndarray          # (T+1, n)
    residuals: np.ndarray       # (T+1,) of ||A x - b||_2
    diverged_at: int | None = None  # first step t with ||x(t)|| not <= the limit

    @property
    def T(self) -> int:
        return len(self.states) - 1

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


@np.errstate(over="ignore", invalid="ignore")
def consensus_metrics(x):
    """(spread, rms deviation from mean, mean) of a state vector, or of
    each state of a stack along its last axis; the spread max - min is
    the classic switching-network Lyapunov function. For a finite state
    none over- or underflows, and no numpy warning escapes."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size < 1:
        raise ValueError("need at least one component")
    return _rescaled(lambda x: (x.max(-1) - x.min(-1), x.std(-1), x.mean(-1)), x)


def simulate(
    p: IterationProblem,
    g: Gains,
    T: int,
    drops: DropSchedule | None = None,
) -> SimTrace:
    """Run x(t+1) = x(t) + alpha (b - A_t x(t)) + sum_m beta_m (x(t-m) - x(t))
    for T steps with constant history, where A_t is A with the scheduled
    links removed; A must then be the graph's Laplacian, p.nonzeros equal
    to _laplacian_nonzeros(graph), in O(n + E log E). Aborts with the
    diverged flag once x is not finite or ||x|| exceeds 1e6 times the
    larger of ||x0|| and p.solution_scale, capped at the largest float, so
    that a solve from x0 = 0 is measured against its solution. With b = 0
    the limit is 1e6 ||x0||; from x0 = 0, x stays 0 and is never flagged.
    No norm over- or underflows, and no numpy warning escapes."""
    _check_index("T", T, 1)
    if drops is not None and not all(map(np.array_equal, p.nonzeros,
                                         _laplacian_nonzeros(drops.graph))):
        raise DropOnNonLaplacianError("drop schedule requires A to be the Laplacian of its graph")
    residuals = []
    with np.errstate(over="ignore", invalid="ignore"):
        limit = min(DIVERGENCE_FACTOR * max(_norm(p.x0), p.solution_scale), np.finfo(float).max)
        states, diverged_at = _recur(p.x0, g, T, _force(p, drops, residuals), limit)
        residuals.append(_norm(p.b - _matvec(p.nonzeros, states[-1])))
    return SimTrace(states, np.array(residuals), diverged_at)


def _norm(f) -> float:
    """||f||_2 of a vector, or of each row of a stack, summed as
    np.linalg.norm(stack, axis=1) sums each row, so that a residual
    taken from one state equals the stacked one bit for bit."""
    return _rescaled(lambda f: (np.sqrt(np.add.reduce(f * f, axis=-1)),), f)[0]


def _rescaled(fn, x):
    """fn(x) for a row function fn that is positively homogeneous, fn(c x)
    = c fn(x) for c > 0, and maps each row of x's last axis to a tuple of
    values; callers hold off over and invalid warnings. A finite row with a
    value not finite, or below 2^-480 where its squares can round as
    subnormals, is redone on ldexp(row, -e), 2^e > max |row|, and scaled
    back by ldexp(., e): exact, so other rows keep their bits. An all-zero
    row is not redone, as fn gives it the same zeros either way; with no
    row to redo, fn runs once."""
    out = fn(x)
    if x.ndim == 1 and (all(2.0 ** -480 <= abs(v) < np.inf for v in out) or not x.any()):
        return out
    out, rows = np.stack(out), x.reshape(-1, x.shape[-1])
    wide = np.flatnonzero(~((abs(out) >= 2.0 ** -480) & (abs(out) < np.inf)).all(axis=0))
    wide = wide[np.isfinite(rows[wide]).all(axis=-1) & rows[wide].any(axis=-1)]
    if not wide.size:
        return tuple(out)
    e = np.frexp(np.abs(rows[wide]).max(axis=-1))[1]
    out.reshape(len(out), -1)[:, wide] = np.ldexp(fn(np.ldexp(rows[wide], -e[:, None])), e)
    return tuple(out)


def _force(p: IterationProblem, drops: DropSchedule | None, residuals: list):
    """force(t, x) = b - A_t x for simulate; it appends state t's residual
    ||b - A x|| to residuals first. A step with dropped links subtracts
    their Laplacian from A x as a scatter of w (x_i - x_j) over the
    dropped edges (i, j, w); this equals laplacian_at(t) @ x because
    simulate checks that A is the Laplacian of drops.graph."""
    cuts = drops.cuts if drops is not None else {}
    n = len(p.x0)

    def force(t, x):
        Ax = _matvec(p.nonzeros, x)
        r = p.b - Ax
        residuals.append(_norm(r))
        if t not in cuts:
            return r
        i, j, w = cuts[t]
        d = w * (x[i] - x[j])
        return p.b - (Ax - (np.bincount(i, d, n) - np.bincount(j, d, n)))

    return force


def simulate_modal(lam: float, b_mode: float, g: Gains, x0: float, T: int) -> np.ndarray:
    """Scalar mode recursion at eigenvalue lam; returns x(0..T).

    Runs the recursion of :func:`simulate` without its divergence abort,
    so diagonal systems match it coordinate-wise, bit for bit. A mode
    that overflows returns inf and nan rows, with no warning."""
    _check_index("T", T, 1)
    if not np.isfinite([lam, b_mode, x0]).all():
        raise ValueError(f"lam, b_mode and x0 must be finite, got {lam}, {b_mode}, {x0}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _recur(float(x0), g, T, lambda t, x: b_mode - lam * x)[0]


def _recur(x0, g: Gains, T: int, force, limit: float | None = None):
    """Rows x(0..T), in one array allocated up front, of x(t+1) = x(t) +
    alpha force(t, x(t)) + sum_m beta_m (x(t-m) - x(t)), x(s) = x0 for
    s <= 0. Stops after T steps, or once ||x|| is not <= a given limit with a
    copy of the rows so far. Returns (states, that first t or None)."""
    states = np.empty((T + 1,) + np.shape(x0))
    states[0] = x = x0
    for t in range(T):
        nxt = x + g.alpha * force(t, x)
        for m, beta in enumerate(g.betas, start=1):
            nxt += beta * (states[max(t - m, 0)] - x)
        states[t + 1] = x = nxt
        if limit is not None and not _norm(x) <= limit:
            return states[:t + 2].copy(), t + 1
    return states, None


def empirical_rate(trace: SimTrace, burn_in: int = 0) -> float:
    """Exponentiated least-squares slope of log residual vs t over
    [burn_in, T] through the finite positive residuals, skipping 0, inf
    and nan. Requires an integer burn_in >= 0 and 10 such residuals after it."""
    _check_index("burn_in", burn_in, 0)
    res = trace.residuals[burn_in:]
    pos = (res > 0) & (res < np.inf)
    if pos.sum() < 10:
        raise NoDecayError("fewer than 10 finite positive residuals after burn-in")
    t = np.flatnonzero(pos) + burn_in
    slope = np.polyfit(t, np.log(res[pos]), 1)[0]
    return float(np.exp(slope))


def trace_to_csv(trace: SimTrace) -> str:
    """Render the trace as CSV: ``t,residual,spread,rms,mean``, by blocks of rows."""
    parts = ["t,residual,spread,rms,mean\n"]
    for k in range(0, len(trace.states), _CSV_ROWS):
        block = trace.residuals[k:k + _CSV_ROWS], *consensus_metrics(trace.states[k:k + _CSV_ROWS])
        cols = zip(*(a.tolist() for a in block))
        parts.append("".join(f"{t},{r:.12g},{s:.12g},{d:.12g},{m:.12g}\n"
                             for t, (r, s, d, m) in enumerate(cols, k)))
    return "".join(parts)


def find_divergent_drop_schedule(
    graph: WeightedGraph,
    g: Gains,
    x0: np.ndarray,
) -> DropSchedule | None:
    """Randomized search for a drop schedule destabilizing the given
    gains on the given graph from x0, with b = 0: each of DROP_TRIALS =
    200 trials drops every edge independently with probability DROP_PROB
    = 0.5 at each of DROP_STEPS = 400 steps, drawn from
    np.random.default_rng(0). Returns the first schedule whose run sets
    the diverged flag, or None."""
    rng = np.random.default_rng(0)
    prob = IterationProblem(laplacian(graph).entries, np.zeros(graph.n), x0)
    for _ in range(DROP_TRIALS):
        schedule = _random_drops(graph, rng)
        if simulate(prob, g, DROP_STEPS, drops=schedule).diverged:
            return schedule
    return None


def _random_drops(graph: WeightedGraph, rng) -> DropSchedule:
    """Drop every edge of graph independently with probability DROP_PROB
    at each of the steps 0..DROP_STEPS-1."""
    keys = [e[:2] for e in graph.edges]
    # One draw for all steps: the masks and end state of one draw per step.
    masks = (rng.random((DROP_STEPS, len(keys))) < DROP_PROB).tolist()
    return DropSchedule(graph, {t: frozenset(compress(keys, m)) for t, m in enumerate(masks)
                                if any(m)})


def memory_fragility_example() -> tuple[WeightedGraph, Gains, DropSchedule, np.ndarray]:
    """An example where the optimally tuned single-memory scheme diverges
    under packet drops.

    Two unit-weight clusters joined by one weak link give a tiny spectral
    gap; the tuning for that interval is fragile, and the schedule below,
    the first trial of find_divergent_drop_schedule, makes the run
    diverge. Returns (graph, gains, schedule, x0).
    """
    # Two unit triangles bridged by a weak edge: lambda_min ~ its weight.
    graph = WeightedGraph(6, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                              (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 0.01)))
    g = tune_theorem3(nonzero_spectral_interval(symmetric_eigenvalues(laplacian(graph)))).gains
    x0 = np.repeat([1.0, -1.0], 3)
    # The search's first trial, drawn from the same generator and seed;
    # regenerating it keeps the fixture small.
    schedule = _random_drops(graph, np.random.default_rng(0))
    return graph, g, schedule, x0
