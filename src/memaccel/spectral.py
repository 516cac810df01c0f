"""Weighted undirected graphs, Laplacians and their nonzero spectrum.

The edge-list text format accepted by :func:`load_edge_list` is the only
file format this module owns: one ``i j w`` triple per line, 0-based node
indices, ``#`` starts a comment line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroError,
    DuplicateEdgeError,
    NegativeWeightError,
    ParseError,
)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph; one stored entry per unordered pair."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        for i, j, w in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if w < 0:
                raise NegativeWeightError(i, j, w)
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DuplicateEdgeError(*key)
            seen.add(key)


@dataclass(frozen=True)
class LaplacianMatrix:
    """Dense symmetric Laplacian; rows sum to zero by construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("Laplacian must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("Laplacian must be exactly symmetric")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lo, hi] of admissible nonzero eigenvalues."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo <= self.hi < np.inf):
            raise ValueError(f"need 0 < lo <= hi < inf, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, lam: float) -> bool:
        return self.lo <= lam <= self.hi


@dataclass(frozen=True)
class SpectralSet:
    """Union of closed intervals and isolated points in (0, inf).

    Canonical form: intervals sorted and merged, degenerate intervals
    demoted to points, points inside intervals dropped.
    """

    intervals: tuple[SpectralInterval, ...] = ()
    points: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        ivs = sorted(self.intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: list[list[float]] = []
        pts = [float(p) for p in self.points]
        for iv in ivs:
            if iv.lo == iv.hi:
                pts.append(iv.lo)
                continue
            if merged and iv.lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], iv.hi)
            else:
                merged.append([iv.lo, iv.hi])
        for p in pts:
            if not 0 < p < np.inf:
                raise ValueError(f"spectral point {p} not strictly positive and finite")
        keep = tuple(
            sorted(p for p in set(pts) if not any(lo <= p <= hi for lo, hi in merged))
        )
        object.__setattr__(
            self, "intervals", tuple(SpectralInterval(lo, hi) for lo, hi in merged)
        )
        object.__setattr__(self, "points", keep)

    @property
    def empty(self) -> bool:
        return not self.intervals and not self.points

    def hull(self) -> SpectralInterval:
        """Smallest interval containing the whole set."""
        if self.empty:
            raise ValueError("empty spectral set has no hull")
        los = [iv.lo for iv in self.intervals] + list(self.points)
        his = [iv.hi for iv in self.intervals] + list(self.points)
        return SpectralInterval(min(los), max(his))

    @classmethod
    def from_interval(cls, iv: SpectralInterval) -> "SpectralSet":
        return cls(intervals=(iv,))


def load_edge_list(text: str) -> WeightedGraph:
    """Parse an ``i j w`` edge list; node count is 1 + max index seen."""
    edges = []
    n = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(line_no, raw)
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(line_no, raw) from None
        if i < 0 or j < 0:
            raise ParseError(line_no, raw)
        edges.append((i, j, w))
        n = max(n, i + 1, j + 1)
    return WeightedGraph(n=n, edges=tuple(edges))


def laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """L[j][j] = sum of incident weights, L[j][k] = -w_jk."""
    a = np.zeros((g.n, g.n))
    e = np.array(g.edges, dtype=float).reshape(-1, 3)
    i, j, w = e[:, 0].astype(int), e[:, 1].astype(int), e[:, 2]
    a[i, j] -= w
    a[j, i] -= w
    # One bincount over i0, j0, i1, j1, ... adds the weights to the
    # degrees in edge order, as a loop over the edges would.
    np.fill_diagonal(a, np.bincount(np.column_stack([i, j]).ravel(), np.repeat(w, 2), g.n))
    return LaplacianMatrix(a)


def symmetric_eigenvalues(L: LaplacianMatrix | np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a symmetric matrix."""
    a = L.entries if isinstance(L, LaplacianMatrix) else np.asarray(L, dtype=float)
    return np.linalg.eigvalsh(a)


def nonzero_spectral_interval(eigs, zero_tol: float = 1e-9) -> SpectralInterval:
    """[smallest, largest] eigenvalue above zero_tol; the ones at or below
    it are the trivial consensus modes."""
    eigs = np.asarray(eigs, dtype=float)
    nz = eigs[eigs > zero_tol]
    if nz.size == 0:
        raise AllZeroError(f"no eigenvalue above zero_tol={zero_tol}")
    return SpectralInterval(float(nz.min()), float(nz.max()))
