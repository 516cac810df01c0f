"""Weighted undirected graphs, Laplacians and their nonzero spectrum.

The edge-list text format accepted by :func:`load_edge_list` is the only
file format this module owns: one ``i j w`` triple per line, 0-based node
indices, ``#`` starts a comment line. SpectralInterval and SpectralSet
live in :mod:`memaccel.tuning` and are re-exported here.
"""

from __future__ import annotations

import math

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
    """Dense Laplacian of a graph: L[j][j] = sum of incident weights,
    L[j][k] = -w_jk, so it is symmetric and its rows sum to zero. Its
    caches, not fields, come from _laplacian_nonzeros(graph): ``entries``,
    the read-only n x n array, and ``components``, the components its
    pairs r > c join, the kernel's dimension (Fiedler 1973)."""

    graph: WeightedGraph

    def __post_init__(self):
        g = self.graph
        if not isinstance(g, WeightedGraph):
            raise TypeError(f"LaplacianMatrix takes a WeightedGraph, got {type(g).__name__}")
        degree, r, c, v = _laplacian_nonzeros(g)
        a = np.zeros((g.n, g.n))
        a[r, c] = v
        np.fill_diagonal(a, degree)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "components", _components(g.n, r[r > c], c[r > c]))


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


def _components(n: int, i: np.ndarray, j: np.ndarray) -> int:
    """Connected components of n nodes joined by the edges (i, j), by
    union-find with path halving: the number of roots left."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(i.tolist(), j.tolist()):
        parent[find(a)] = find(b)
    return sum(parent[x] == x for x in range(n))


def symmetric_eigenvalues(L: LaplacianMatrix) -> np.ndarray:
    """Eigenvalues of a Laplacian, eigvalsh's ascending ones, with the
    leading L.components of them, its kernel, set to exact zeros."""
    eigs = np.linalg.eigvalsh(L.entries)
    eigs[:L.components] = 0.0
    return eigs


def nonzero_spectral_interval(eigs) -> SpectralInterval:
    """[smallest, largest] positive eigenvalue of a Laplacian spectrum
    whose kernel is exact zeros, as symmetric_eigenvalues gives it.

    A negative or non-finite eigenvalue raises MemaccelError, and so does
    a positive one at or below len(eigs) * eps * max(eigs): eigvalsh
    cannot tell such a gap from a rounded zero, or the spectrum's kernel
    was not zeroed. Dropping or keeping it could under-report nu."""
    eigs = np.asarray(eigs, dtype=float)
    if not (np.isfinite(eigs) & (eigs >= 0)).all():
        raise MemaccelError(f"eigenvalues must be finite and >= 0, got min {float(eigs.min())}")
    nz = eigs[eigs > 0]
    if nz.size == 0:
        raise AllZeroError("no positive eigenvalue")
    resolution = float(eigs.size * np.finfo(float).eps * nz.max())
    if nz.min() <= resolution:
        raise MemaccelError(f"eigenvalue {float(nz.min())} is at or below eigvalsh's resolution "
                            f"{resolution}: an unresolved gap or an unzeroed kernel")
    return SpectralInterval(float(nz.min()), float(nz.max()))
