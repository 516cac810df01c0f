"""Weighted undirected graphs, Laplacians and their nonzero spectrum.

The edge-list text format accepted by :func:`load_edge_list` is the only
file format this module owns: one ``i j w`` triple per line, 0-based node
indices, ``#`` starts a comment line. SpectralInterval and SpectralSet
live in :mod:`memaccel.tuning` and are re-exported here.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import (
    AllZeroError,
    DuplicateEdgeError,
    MemaccelError,
    NegativeWeightError,
    ParseError,
    decimal,
    integer,
)
from .tuning import Record, SpectralInterval, SpectralSet, _check_index, _is_index, _real

EPS = float(np.finfo(float).eps)


class WeightedGraph(Record):
    """Undirected weighted graph; one stored entry per unordered pair.
    The node count is an integer >= 0, node indices are integers and a
    weight is real (``tuning._real``); anything else raises ValueError.
    Each edge is stored as (*_edge_key(i, j), float w), plain ints i < j, so
    (1, 0, 1) and (0, 1, 1.0) make equal graphs; the input order is kept,
    as it orders the sum of each degree in LaplacianMatrix."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        _check_index("node count", self.n, 0)
        seen = {}
        for i, j, w in self.edges:
            key = _edge_key(i, j)
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            x = _real("edge weight", w)
            if not math.isfinite(x):
                raise MemaccelError(f"edge ({i}, {j}) has non-finite weight {w}")
            if w < 0:
                raise NegativeWeightError(i, j, w)
            if key in seen:
                raise DuplicateEdgeError(*key)
            seen[key] = x
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "edges", tuple((i, j, w) for (i, j), w in seen.items()))


def _edge_key(i, j) -> tuple[int, int]:
    """(i, j) as plain ints with i < j, how WeightedGraph and DropSchedule
    store an edge; a float or bool index raises ValueError, not a truncation."""
    if not (_is_index(i) and _is_index(j)):
        raise ValueError(f"edge ({i!r}, {j!r}) has a node index that is not an integer")
    return (int(i), int(j)) if i < j else (int(j), int(i))


class LaplacianMatrix(Record):
    """Laplacian of a graph: L[j][j] = sum of incident weights,
    L[j][k] = -w_jk, so it is symmetric and its rows sum to zero. Its
    caches, not fields, all set here and never after and each O(n + E),
    are ``nonzeros``, the sparse form _laplacian_nonzeros(graph),
    ``labels``, the component of each node under the pairs r > c, and
    ``components``, their number, the kernel's dimension (Fiedler 1973).
    Nothing n x n is stored: ``entries`` is built from ``nonzeros`` on
    each read."""

    graph: WeightedGraph

    def __post_init__(self):
        g = self.graph
        if not isinstance(g, WeightedGraph):
            raise TypeError(f"LaplacianMatrix takes a WeightedGraph, got {type(g).__name__}")
        nonzeros = _, r, c, _ = _laplacian_nonzeros(g)
        labels = _components(g.n, r[r > c], c[r > c])
        object.__setattr__(self, "nonzeros", nonzeros)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "components", int(labels.max(initial=-1)) + 1)

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n array of L, read-only: nonzeros scattered into
        a new array on every read, never cached, so each reader pays
        O(n^2) memory once and the record stays O(n + E)."""
        degree, r, c, v = self.nonzeros
        a = np.zeros((self.graph.n, self.graph.n))
        a[r, c] = v
        np.fill_diagonal(a, degree)
        a.flags.writeable = False
        return a


def _laplacian_nonzeros(g: WeightedGraph) -> tuple[np.ndarray, ...]:
    """g's Laplacian as (degree, r, c, v), the layout of IterationProblem's
    nonzeros: the weighted degrees, each summed in edge order, and -w at
    (i, j) and (j, i) for each edge with w != 0, row-major as _nonzeros
    lists them. A degree past the largest float raises ValueError."""
    e = np.array(g.edges, dtype=float).reshape(-1, 3)
    e = e.compress(e[:, 2] != 0, axis=0)  # a zero weight, of either sign, adds nothing
    ij, w = e[:, :2].astype(int), np.repeat(e[:, 2], 2)
    # One bincount over i0, j0, i1, j1, ... adds the weights in edge order.
    degree = np.bincount(ij.ravel(), w, g.n).astype(float, copy=False)  # ints if no weight
    if not np.isfinite(degree).all():  # finite weights can sum past the largest float
        k = np.isfinite(degree).argmin()
        raise ValueError(f"Laplacian entry ({k}, {k}) is {degree[k]}, not finite")
    r, c = ij.ravel(), ij[:, ::-1].ravel()  # (i0, j0), (j0, i0), (i1, j1), ...
    order = np.argsort(r * g.n + c, kind="stable")  # row-major, by flat index as _nonzeros
    return degree, r[order], c[order], -w[order]


def load_edge_list(text: str) -> WeightedGraph:
    """Parse an ``i j w`` edge list; node count is 1 + max index seen.
    Indices are read by :func:`~memaccel.errors.integer` and weights by
    :func:`~memaccel.errors.decimal`."""
    edges = []
    n = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            i, j, w = line.split()
            i, j, w = integer(i), integer(j), decimal(w)
        except ValueError:
            raise ParseError(raw, line_no=line_no) from None
        if i < 0 or j < 0:
            raise ParseError(raw, line_no=line_no)
        edges.append((i, j, w))
        n = max(n, i + 1, j + 1)
    return WeightedGraph(n=n, edges=tuple(edges))


def laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """The Laplacian of g, which counts its own kernel: zero eigenvalues
    are counted, not guessed."""
    return LaplacianMatrix(g)


def _nonzeros(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, value) of the nonzero entries of a 2-D array, in the
    row-major order of np.nonzero, from one stride-1 scan of C-ordered
    data. NaN and inf count as nonzero, +0.0 and -0.0 as zero.
    IterationProblem checks and keeps its matrix A with it; a graph's
    Laplacian comes in this layout, with no scan, from _laplacian_nonzeros."""
    a = np.ascontiguousarray(a)
    flat = np.flatnonzero(a.ravel() != 0)
    r, c = np.divmod(flat, a.shape[1])
    return r, c, a.ravel()[flat]


def _matvec(nonzeros: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """A @ x from A's diagonal and off-diagonal nonzeros (diag, i, j, a_ij):
    diag * x plus a scatter of a_ij x_j onto row i, O(n + nnz(A))."""
    diag, i, j, a = nonzeros
    w = x.take(j)
    w *= a
    return diag * x + np.bincount(i, w, len(x))


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The connected component of each of n nodes joined by the edges
    (i, j), by union-find with path halving: labels 0, 1, ... in the
    order of each component's root. Only the nodes an edge touches are
    looked up, so an isolated node costs no Python-level step."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(i.tolist(), j.tolist()):
        parent[find(a)] = find(b)
    roots = np.arange(n)
    touched = np.flatnonzero(np.bincount(np.concatenate((i, j)), minlength=n))
    roots[touched] = [find(x) for x in touched.tolist()]
    return (np.cumsum(roots == np.arange(n)) - 1)[roots]


def symmetric_eigenvalues(L: LaplacianMatrix) -> np.ndarray:
    """The extreme eigenvalues of a Laplacian, ascending: L.components
    exact zeros, its kernel, then lambda_2 and lambda_max, the smallest
    and largest positive eigenvalues; one of them, or none, when fewer
    than two are positive.

    They come from Lanczos on L.nonzeros (_lanczos_extremes), with
    nothing n x n formed, and are within n * eps * lambda_max of the
    exact ones. Where Lanczos does not converge within n - components
    steps, as on most small graphs and on some whose weights span many
    decades, they are read from _all_eigenvalues(L). A returned lambda_2
    at or below n * eps times the returned lambda_max raises
    MemaccelError: the rule that nonzero_spectral_interval applies to a
    spectrum of n values, with the graph's n, on these two values, so a
    gap within n * eps * lambda_max of that line may be decided otherwise
    than on eigvalsh's."""
    n, c = L.graph.n, L.components
    if n - c < 2:  # none positive, or one: the trace, the sum of the degrees
        return np.concatenate([np.zeros(c), [L.nonzeros[0].sum()][:n - c]])
    ends = _lanczos_extremes(L)
    if ends is None:
        eigs = _all_eigenvalues(L)
        ends = float(eigs[c]), float(eigs[-1])
    _check_resolution(*ends, n)
    return np.concatenate([np.zeros(c), ends])


def _all_eigenvalues(L: LaplacianMatrix) -> np.ndarray:
    """All n eigenvalues of a Laplacian, eigvalsh's ascending ones on
    L.entries, with the leading L.components of them, its kernel, set to
    exact zeros: O(n^3) time and two n x n arrays, L.entries and
    eigvalsh's copy, new on every call. A lambda_2 at or below
    n * eps * lambda_max raises MemaccelError (_check_resolution), so no
    listing passes a lambda_2 that rounded to 0 or below as a kernel
    zero. memaccel spectrum lists them, and symmetric_eigenvalues reads
    its extremes from them where Lanczos does not converge."""
    eigs = np.linalg.eigvalsh(L.entries)
    c = L.components
    eigs[:c] = 0.0
    if c < len(eigs):
        _check_resolution(float(eigs[c]), float(eigs[-1]), len(eigs))
    return eigs


def _lanczos_extremes(L: LaplacianMatrix) -> tuple[float, float] | None:
    """[lambda_2, lambda_max] of L, by Lanczos without reorthogonalisation
    (Kuczynski & Wozniakowski 1992) on L / 2^e, 2^e > max degree, an exact
    rescale; None if it does not converge within n - components steps.
    Every step projects out each component's normalised indicator
    vector, the exact kernel, and the run starts from _start_vector.
    Checks run at steps 1, 2, ..., 8, then every quarter of the steps so
    far, and at the last. An extreme Ritz value whose residual is at most
    n * eps * theta_max / 4 is kept, moved outward by its residual, and
    not checked again: a copy that finite-precision Lanczos forms of it
    later would blur its residual. The run stops once both are kept; the
    quarter leaves room for the few ulps by which a Ritz value misses.
    Each check's _lowest_ritz for an end starts from the Ritz pair of that
    end's previous check, state local to this call: it skips most pivot
    sweeps and changes no value."""
    n, cap = L.graph.n, L.graph.n - L.components
    degree, i, j, a = L.nonzeros
    e = int(np.frexp(degree.max())[1])
    nonzeros = np.ldexp(degree, -e), i, j, np.ldexp(a, -e)
    labels = L.labels
    sizes = np.bincount(labels)

    def project(x):
        x -= (np.bincount(labels, x) / sizes)[labels]
        return x

    q = project(_start_vector(n))
    q /= np.linalg.norm(q)
    q_prev, beta, alphas, betas2, check = np.zeros(n), 0.0, [], [], 1
    lo = hi = low = high = None
    for k in range(1, cap + 1):
        w = _matvec(nonzeros, q)
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        w -= beta * q_prev
        project(w)
        beta = math.sqrt(w @ w)
        if k in (check, cap) or beta == 0:
            if hi is None:
                theta, s, high = _lowest_ritz([-x for x in alphas], betas2, high)
                top = -theta
                if 4 * beta * s <= n * EPS * top:
                    hi = top + beta * s
            if lo is None:
                theta, s, low = _lowest_ritz(alphas, betas2, low)
                if 4 * beta * s <= n * EPS * top:
                    lo = theta - beta * s
            if lo is not None and hi is not None:
                return math.ldexp(lo, e), math.ldexp(hi, e)
            check = k + max(1, k // 4)
        betas2.append(beta * beta)
        q_prev, q = q, w / beta
    return None


def _lowest_ritz(alphas: list, betas2: list, start=None) -> tuple[float, float, tuple]:
    """(theta, |s_k| / ||s||, (theta, s / ||s||)) for the smallest
    eigenvalue theta of the k x k tridiagonal T with diagonal alphas and
    squared off-diagonal betas2; the last item is the Ritz pair that the
    next check of the same end starts from.

    theta is found by bisection on Sturm's rule, T - x I is positive
    definite iff every pivot of its LDL^T is, and is the lower end of the
    last bracket, within eps * (max |alpha| + 2 max beta) / 16. While
    every pivot stays positive, each one falls as x rises, in rounded
    arithmetic too (the operations are monotone; Demmel, Dhillon & Ren
    1995), so a sweep at a point below one where every pivot is positive,
    or above one where one is not, repeats what is known. The bisection
    skips those sweeps: a start, a Ritz pair (theta', u) of a leading
    block of T, lets _warm_bracket certify such points about an ulp apart,
    and theta is the same float with or without it. s solves
    (T - theta I) s = e_1 by _shifted_solve, one step of inverse
    iteration from the first unit vector: it leaves out copies of theta
    that finite-precision Lanczos forms after convergence, whose first
    entries are negligible (Cullen & Willoughby 1985), so
    beta_k |s_k| / ||s|| is the residual of the Ritz vector that the
    start vector carries. Each sweep or solve
    is O(k); a start cuts their number per call about four-fold."""
    offdiag = [0.0] + [b ** 0.5 for b in betas2] + [0.0]
    ulp = EPS * (max(map(abs, alphas)) + 2 * max(offdiag))  # |T| <= that / eps
    squares = [0.0] + betas2
    known_lo, known_hi = (_warm_bracket(alphas, offdiag, squares, ulp, *start)
                          if start is not None else (-math.inf, math.inf))
    # 8 ulp below the Gershgorin bound, T - lo I stays diagonally
    # dominant through rounding, so every pivot at lo is positive.
    lo = min(a - b - c for a, b, c in zip(alphas, offdiag, offdiag[1:])) - 8 * ulp
    hi = min(alphas)
    while hi - lo > ulp / 16 and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid <= known_lo or (mid < known_hi and _positive_definite(alphas, squares, mid)):
            lo = mid
        else:
            hi = mid
    _, s = _shifted_solve(alphas, offdiag, squares, lo, [1.0] + [0.0] * (len(alphas) - 1))
    norm = math.hypot(*s)
    return lo, abs(s[0]) / norm, (lo, [x / norm for x in reversed(s)])


def _positive_definite(alphas: list, squares: list, x: float) -> bool:
    """Whether every pivot of the LDL^T of T - x I is positive, T the
    tridiagonal with diagonal alphas and squared off-diagonal squares[1:]:
    one O(k) sweep that stops at the first pivot <= 0."""
    d = 1.0
    for a, b2 in zip(alphas, squares):
        d = a - x - b2 / d
        if d <= 0:
            return False
    return True


def _warm_bracket(alphas, offdiag, squares, ulp, theta, u) -> tuple[float, float]:
    """Points lo < hi about the smallest eigenvalue of the tridiagonal T
    that sweeps certify from the start (theta, u), a Ritz value and unit
    Ritz vector of a leading m x m block of T: every pivot of T - lo I is
    positive and one of T - hi I is not; -inf or inf at an end not reached.

    Rayleigh-quotient iteration runs on T from u padded with zeros: at
    most 4 steps, each one _shifted_solve (T - sigma I) y = v, whose
    pivots are a Sturm sweep at sigma, with
    sigma <- sigma + y^T v / y^T y and v <- y / ||y||, until a step is
    at most ulp. The padded u has residual
    r = beta_m |u_m| in T, so the first shift is theta - r: below theta,
    on the side of the smallest eigenvalue, and off the leading block's
    eigenvalue, where a pivot would vanish. Two sweeps at sigma -+ ulp / 2
    then close the bracket where the shifts have not. A start that leads
    the iteration to another eigenvalue, or to none, leaves an end open."""
    k, m = len(alphas), len(u)
    sigma = theta - offdiag[m] * abs(u[-1]) if m < k else theta
    v = u + [0.0] * (k - m)
    lo, hi = -math.inf, math.inf
    for _ in range(4):
        pivots, y = _shifted_solve(alphas, offdiag, squares, sigma, v)
        if y is not None and min(pivots) > 0:
            lo = max(lo, sigma)
        else:
            hi = min(hi, sigma)
        if y is None:  # sigma is an eigenvalue to working precision
            break
        norm = math.hypot(*y)
        if not 0 < norm < math.inf:  # a zero start, or an overflow
            break
        step = sum(map(operator.mul, y, reversed(v))) / norm / norm
        sigma += step
        if abs(step) <= ulp:
            break
        v = [t / norm for t in reversed(y)]
    for x in (sigma - ulp / 2, sigma + ulp / 2):
        if lo < x < hi:
            if _positive_definite(alphas, squares, x):
                lo = x
            else:
                hi = x
    return lo, hi


def _shifted_solve(alphas, offdiag, squares, sigma, v) -> tuple[list, list | None]:
    """(pivots, y) of the LDL^T solve (T - sigma I) y = v, T the
    tridiagonal with diagonal alphas, off-diagonal offdiag[1:-1] and its
    squares squares[1:]: L z = v forward, then D L^T y = z backward, y
    listed from its last entry. The pivots are a Sturm sweep at sigma.
    At a zero pivot, sigma an eigenvalue to working precision, the sweep
    stops there and y is None. O(k)."""
    pivots, z, d, zj = [], [], 1.0, 0.0
    for a, b, b2, x in zip(alphas, offdiag, squares, v):
        zj = x - b / d * zj
        d = a - sigma - b2 / d
        if d == 0:
            return pivots, None
        pivots.append(d)
        z.append(zj)
    y = [z[-1] / pivots[-1]]
    for zj, b, d in zip(z[-2::-1], offdiag[-2:0:-1], pivots[-2::-1]):
        y.append((zj - b * y[-1]) / d)
    return pivots, y


def _start_vector(n: int) -> np.ndarray:
    """A fixed vector of n pseudo-random entries in [-1, 1): the
    splitmix64 finaliser of 1..n, integer arithmetic only, so that the
    same graph gives the same Lanczos run everywhere."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.ldexp((z >> np.uint64(11)).astype(float), -52) - 1.0


def _check_resolution(lo: float, hi: float, n: int):
    """MemaccelError unless lo > n * eps * hi: the smallest positive value
    of an n-value spectrum whose largest is hi is not told apart from a
    rounded zero below that."""
    resolution = n * EPS * hi
    if lo <= resolution:
        raise MemaccelError(f"eigenvalue {lo} is at or below the resolution {resolution} "
                            f"of {n} eigenvalues: an unresolved gap or an unzeroed kernel")


def nonzero_spectral_interval(eigs) -> SpectralInterval:
    """[smallest, largest] positive eigenvalue of a Laplacian spectrum
    whose kernel is exact zeros, as symmetric_eigenvalues gives it.

    A negative or non-finite eigenvalue raises MemaccelError, and so does
    a positive one at or below len(eigs) * eps * max(eigs) (_check_resolution):
    it cannot be told from a rounded zero, or the spectrum's kernel was
    not zeroed. Dropping or keeping it could under-report nu."""
    eigs = np.asarray(eigs, dtype=float)
    if not (np.isfinite(eigs) & (eigs >= 0)).all():
        raise MemaccelError(f"eigenvalues must be finite and >= 0, got min {float(eigs.min())}")
    nz = eigs[eigs > 0]
    if nz.size == 0:
        raise AllZeroError("no positive eigenvalue")
    lo, hi = float(nz.min()), float(nz.max())
    _check_resolution(lo, hi, eigs.size)
    return SpectralInterval(lo, hi)
