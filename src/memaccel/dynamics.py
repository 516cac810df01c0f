"""Time-domain simulation of the memory-accelerated iteration.

Vector and single-mode recursions with constant-history initialization
(x(s) = x0 for s <= 0), residual/disagreement metrics, empirical rate
estimation, and link-drop robustness experiments. Traces export to CSV
with header ``t,residual,spread,rms,mean``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DropOnNonLaplacianError,
    IncompatibleBiasError,
    NoDecayError,
)
from .spectral import (
    WeightedGraph,
    _nonzeros,
    laplacian,
    nonzero_spectral_interval,
    symmetric_eigenvalues,
)
from .tuning import Gains, Record, _check_index, _is_index, tune_theorem3

DIVERGENCE_FACTOR = 1e6
DROP_TRIALS, DROP_STEPS, DROP_PROB = 200, 400, 0.5


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
    first, so that no norm underflows or overflows.

    The scan that checks A also keeps its diagonal and its off-diagonal
    nonzeros as arrays, ``nonzeros`` = (diag, i, j, a_ij), so the
    simulator computes A x in O(n + nnz(A)) per step. That suits the
    graph Laplacians and diagonal matrices this package works with; a
    dense general A costs more than a BLAS matvec would. The kernel
    check's eigendecomposition also gives ``solution_scale``, the size
    of a solution: max(||A^+ b||, ||b|| / ||A||_2), 0.0 for b = 0. The
    second term counts only where a kernel part of b passed as rounding.
    Both are caches, not fields: no argument, not in ``==``, hash or repr.
    """

    A: np.ndarray
    b: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        A, b, x0 = (np.asarray(m, dtype=float) for m in (self.A, self.b, self.x0))
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
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "nonzeros", (A.diagonal().copy(), i, j, a))
        object.__setattr__(self, "solution_scale", float(solution_scale))


class DropSchedule(Record):
    """Per-step sets of undirected edges whose weight is zeroed.

    Tied to the graph whose Laplacian the simulation runs on; every
    referenced edge must exist there. Steps are integers >= 0 and node
    indices integers: a float or a bool raises ValueError, not a
    truncation. Each step's dropped edges are also kept as arrays
    (i, j, w), sorted by edge, for the simulator in ``cuts``, a cache
    that, like ``IterationProblem.nonzeros``, is not a field.
    """

    graph: WeightedGraph
    # Never mutated: __post_init__ stores a new dict.
    drops: dict[int, frozenset[tuple[int, int]]] = {}

    def __post_init__(self):
        weight = {(min(i, j), max(i, j)): w for i, j, w in self.graph.edges}
        canon, cuts = {}, {}
        for t, edges in self.drops.items():
            _check_index("drop step", t, 0)
            for i, j in edges:
                if not (_is_index(i) and _is_index(j)):
                    raise ValueError(f"dropped edge ({i!r}, {j!r}): node index not an integer")
            es = frozenset((min(i, j), max(i, j)) for i, j in edges)
            for e in es:
                if e not in weight:
                    raise ValueError(f"dropped edge {e} not in graph")
            canon[int(t)] = es
            if es:
                keys = sorted(es)
                ij = np.array(keys)
                cuts[int(t)] = (ij[:, 0], ij[:, 1], np.array([weight[e] for e in keys]))
        object.__setattr__(self, "drops", canon)
        object.__setattr__(self, "cuts", cuts)

    def laplacian_at(self, t: int) -> np.ndarray:
        """Dense Laplacian at step t, its dropped links removed: the
        reference that _force's drop scatter is tested against."""
        dropped = self.drops.get(t, frozenset())
        kept = tuple(
            (i, j, w)
            for i, j, w in self.graph.edges
            if (min(i, j), max(i, j)) not in dropped
        )
        return laplacian(WeightedGraph(self.graph.n, kept)).entries


class SimTrace(Record):
    """States x(0..T) with residuals and flags; consensus_metrics(states)
    gives spread, rms and mean. After a divergence, states has diverged_at + 1 rows."""

    states: np.ndarray          # (T+1, n)
    residuals: np.ndarray       # (T+1,) of ||A x - b||_2
    diverged_at: int | None = None  # first step t with ||x(t)|| over the limit

    @property
    def T(self) -> int:
        return len(self.states) - 1

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


def consensus_metrics(x):
    """(spread, rms deviation from mean, mean) of a state vector, or of
    each state of a stack along its last axis; the spread max - min is
    the classic switching-network Lyapunov function."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size < 1:
        raise ValueError("need at least one component")
    with np.errstate(over="ignore"):
        rms = x.std(axis=-1)
    big = np.isinf(rms) & np.isfinite(x).all(axis=-1)
    if big.any():
        # Squares past the largest float: redo those states divided by
        # their largest |entry|, and scale back.
        m = np.abs(x[big]).max(axis=-1)
        rms = np.array(rms)
        rms[big] = m * (x[big] / m[:, None]).std(axis=-1)
        rms = rms[()]
    return x.max(axis=-1) - x.min(axis=-1), rms, x.mean(axis=-1)


def simulate(
    p: IterationProblem,
    g: Gains,
    T: int,
    drops: DropSchedule | None = None,
) -> SimTrace:
    """Run x(t+1) = x(t) + alpha (b - A_t x(t)) + sum_m beta_m (x(t-m) - x(t))
    for T steps with constant history, where A_t is A with the scheduled
    links removed. Aborts with the diverged flag once ||x|| exceeds 1e6
    times the larger of ||x0|| and p.solution_scale, so that a solve from
    x0 = 0 is measured against its solution. With b = 0 the limit is
    1e6 ||x0||; from x0 = 0, x stays 0 and is never flagged."""
    _check_index("T", T, 1)
    if drops is not None and not np.array_equal(p.A, laplacian(drops.graph).entries):
        raise DropOnNonLaplacianError(
            "drop schedule requires A to be the Laplacian of its graph"
        )
    residuals = []
    # _norm redoes a sum of squares that overflows, scaled: the warning is noise.
    with np.errstate(over="ignore"):
        limit = DIVERGENCE_FACTOR * max(_norm(p.x0), p.solution_scale)
        states, diverged_at = _recur(p.x0, g, T, _force(p, drops, residuals), limit)
        residuals.append(_norm(p.b - _matvec(p, states[-1])))
    return SimTrace(states, np.array(residuals), diverged_at)


def _norm(f) -> float:
    """||f||_2 summed as np.linalg.norm(stack, axis=1) sums each row, so a
    residual taken from one state equals the stacked one bit for bit. If
    the sum of squares overflows while every entry is finite, it is taken
    again on f / max|f_i| and scaled back; the caller holds off numpy's
    overflow warning, once per run."""
    s = np.sqrt(np.add.reduce(f * f))
    if s == np.inf and np.isfinite(f).all():
        m = np.abs(f).max()
        return m * _norm(f / m)
    return s


def _matvec(p: IterationProblem, x: np.ndarray) -> np.ndarray:
    """A @ x from A's diagonal and off-diagonal nonzeros (i, j, a_ij):
    diag * x plus a scatter of a_ij x_j onto row i, O(n + nnz(A))."""
    diag, i, j, a = p.nonzeros
    return diag * x + np.bincount(i, a * x[j], len(x))


def _force(p: IterationProblem, drops: DropSchedule | None, residuals: list):
    """force(t, x) = b - A_t x for simulate; it appends state t's residual
    ||b - A x|| to residuals first. A step with dropped links subtracts
    their Laplacian from A x as a scatter of w (x_i - x_j) over the
    dropped edges (i, j, w); this equals laplacian_at(t) @ x because
    simulate checks that A is the Laplacian of drops.graph."""
    cuts = drops.cuts if drops is not None else {}
    n = len(p.x0)

    def force(t, x):
        Ax = _matvec(p, x)
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
    s <= 0. Stops after T steps, or once ||x|| exceeds a given limit with a
    copy of the rows so far. Returns (states, the first t with ||x(t)|| > limit or None)."""
    states = np.empty((T + 1,) + np.shape(x0))
    states[0] = x = x0
    for t in range(T):
        nxt = x + g.alpha * force(t, x)
        for m, beta in enumerate(g.betas, start=1):
            nxt = nxt + beta * (states[max(t - m, 0)] - x)
        states[t + 1] = x = nxt
        if limit is not None and _norm(x) > limit:
            return states[:t + 2].copy(), t + 1
    return states, None


def empirical_rate(trace: SimTrace, burn_in: int = 0) -> float:
    """Exponentiated least-squares slope of log residual vs t over
    [burn_in, T]. Requires an integer burn_in >= 0 and at least 10
    positive residuals after it."""
    _check_index("burn_in", burn_in, 0)
    res = trace.residuals[burn_in:]
    pos = res > 0
    if pos.sum() < 10:
        raise NoDecayError("fewer than 10 positive residuals after burn-in")
    t = np.flatnonzero(pos) + burn_in
    slope = np.polyfit(t, np.log(res[pos]), 1)[0]
    return float(np.exp(slope))


def trace_to_csv(trace: SimTrace) -> str:
    """Render the trace as CSV: ``t,residual,spread,rms,mean``."""
    cols = zip(*(a.tolist() for a in (trace.residuals, *consensus_metrics(trace.states))))
    rows = (f"{t},{r:.12g},{s:.12g},{d:.12g},{m:.12g}\n" for t, (r, s, d, m) in enumerate(cols))
    return "t,residual,spread,rms,mean\n" + "".join(rows)


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
    L = laplacian(graph).entries
    prob = IterationProblem(L, np.zeros(graph.n), np.asarray(x0, dtype=float))
    for _ in range(DROP_TRIALS):
        schedule = _random_drops(graph, rng)
        if simulate(prob, g, DROP_STEPS, drops=schedule).diverged:
            return schedule
    return None


def _random_drops(graph: WeightedGraph, rng) -> DropSchedule:
    """Drop every edge of graph independently with probability DROP_PROB
    at each of the steps 0..DROP_STEPS-1."""
    edge_keys = [(min(i, j), max(i, j)) for i, j, _ in graph.edges]
    drops = {}
    # One draw for all steps: the masks and end state of one draw per step.
    for t, mask in enumerate(rng.random((DROP_STEPS, len(edge_keys))) < DROP_PROB):
        if mask.any():
            drops[t] = frozenset(e for e, m in zip(edge_keys, mask) if m)
    return DropSchedule(graph, drops)


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
