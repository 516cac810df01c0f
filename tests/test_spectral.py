import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaccel.errors import (
    AllZeroError,
    DuplicateEdgeError,
    MemaccelError,
    NegativeWeightError,
    ParseError,
)
from memaccel.polyroots import RealPolynomial, roots
from memaccel.spectral import (
    SpectralInterval,
    SpectralSet,
    WeightedGraph,
    laplacian,
    load_edge_list,
    nonzero_spectral_interval,
    symmetric_eigenvalues,
)

RING5 = "0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 0 1\n"


def char_poly_coeffs(A):
    """Independent characteristic-polynomial oracle via the
    Faddeev-LeVerrier recursion (no eigendecomposition involved).
    Returns low-to-high coefficients of det(xI - A)."""
    n = A.shape[0]
    c = np.zeros(n + 1)
    c[n] = 1.0
    Mk = np.zeros_like(A)
    for k in range(1, n + 1):
        Mk = A @ Mk + c[n - k + 1] * np.eye(n)
        c[n - k] = -np.trace(A @ Mk) / k
    return c


class TestLoadEdgeList:
    def test_path_graph(self):
        g = load_edge_list("0 1 1\n1 2 1")
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# header\n\n0 1 0.5\n")
        assert g.edges == ((0, 1, 0.5),)

    def test_duplicate_unordered_pair(self):
        with pytest.raises(DuplicateEdgeError):
            load_edge_list("0 1 1\n1 0 2")

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            load_edge_list("0 1 -0.5")

    def test_malformed_line(self):
        with pytest.raises(ParseError) as exc:
            load_edge_list("0 1 1\nnot an edge")
        assert exc.value.line_no == 2


class TestLaplacian:
    def test_path_graph(self):
        L = laplacian(load_edge_list("0 1 1\n1 2 1"))
        np.testing.assert_array_equal(
            L.entries, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    def test_empty_edge_set(self):
        L = laplacian(WeightedGraph(3, ()))
        np.testing.assert_array_equal(L.entries, np.zeros((3, 3)))

    def test_triangle(self):
        L = laplacian(load_edge_list("0 1 1\n1 2 1\n0 2 1"))
        np.testing.assert_array_equal(
            L.entries, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_edge_loop_bitwise(self, data):
        # Weights spanning many magnitudes make the degree sums depend on
        # their order, so only an edge-order summation matches bit for bit.
        n = data.draw(st.integers(1, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        weight = st.one_of(st.just(0.0), st.floats(1e-8, 1e8))
        edges = tuple((j, i, data.draw(weight)) if data.draw(st.booleans())
                      else (i, j, data.draw(weight)) for i, j in chosen)
        g = WeightedGraph(n, edges)
        np.testing.assert_array_equal(laplacian(g).entries, _loop_laplacian(g))


class TestEigenvalues:
    def test_path_graph(self):
        L = laplacian(load_edge_list("0 1 1\n1 2 1"))
        np.testing.assert_allclose(symmetric_eigenvalues(L), [0, 1, 3], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(
            symmetric_eigenvalues(laplacian(WeightedGraph(3, ()))), [0, 0, 0]
        )

    def test_complete_graph_k3(self):
        L = laplacian(load_edge_list("0 1 1\n1 2 1\n0 2 1"))
        np.testing.assert_allclose(symmetric_eigenvalues(L), [0, 3, 3], atol=1e-12)

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(5)
        L = laplacian(_random_graph(rng, 8)).entries
        eigs = symmetric_eigenvalues(L)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        q = v @ L @ v
        assert eigs[0] - 1e-9 <= q <= eigs[-1] + 1e-9

    def test_matches_char_poly_oracle_small(self):
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for _ in range(5):
                L = laplacian(_random_graph(rng, n)).entries
                eigs = symmetric_eigenvalues(L)
                oracle = sorted(
                    z.real for z in roots(RealPolynomial(tuple(char_poly_coeffs(L)))).roots
                )
                np.testing.assert_allclose(eigs, oracle, atol=1e-8)


class TestNonzeroInterval:
    def test_drop_zero(self):
        iv = nonzero_spectral_interval([0.0, 1.0, 3.0])
        assert (iv.lo, iv.hi) == (1.0, 3.0)

    def test_reference_interval(self):
        iv = nonzero_spectral_interval([0.0, 0.0122, 0.5, 0.9878])
        assert (iv.lo, iv.hi) == (0.0122, 0.9878)

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            nonzero_spectral_interval([0.0, 0.0])

    @pytest.mark.parametrize("zero_tol", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_zero_tol_rejected(self, zero_tol):
        # The 5-node ring's spectrum as eigvalsh returns it: the consensus
        # mode is rounded to 8.3e-17, which a zero_tol <= 0 would keep.
        eigs = symmetric_eigenvalues(laplacian(load_edge_list(RING5)))
        with pytest.raises(MemaccelError, match="zero_tol must be finite and > 0"):
            nonzero_spectral_interval(eigs, zero_tol=zero_tol)

    def test_containment(self):
        rng = np.random.default_rng(3)
        eigs = np.sort(np.concatenate([[0.0], rng.uniform(0.1, 5.0, 6)]))
        iv = nonzero_spectral_interval(eigs)
        assert all(iv.contains(e) for e in eigs if e > 1e-9)


class TestSpectralInterval:
    @pytest.mark.parametrize("lo, hi", [
        (0.1, np.inf), (np.inf, np.inf), (np.nan, 1.0), (0.1, np.nan),
    ])
    def test_non_finite_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            SpectralInterval(lo, hi)


class TestSpectralSet:
    def test_merge_and_sort(self):
        s = SpectralSet(
            intervals=(SpectralInterval(1.0, 2.0), SpectralInterval(1.5, 3.0)),
            points=(5.0, 2.5),
        )
        assert s.intervals == (SpectralInterval(1.0, 3.0),)
        # 2.5 falls inside the merged interval and is absorbed
        assert s.points == (5.0,)

    def test_point_inside_interval_dropped(self):
        s = SpectralSet(intervals=(SpectralInterval(1.0, 2.0),), points=(1.5,))
        assert s.points == ()

    def test_degenerate_interval_becomes_point(self):
        s = SpectralSet(intervals=(SpectralInterval(2.0, 2.0),))
        assert s.intervals == ()
        assert s.points == (2.0,)

    @pytest.mark.parametrize("pt", [np.inf, np.nan, 0.0])
    def test_bad_point_rejected(self, pt):
        with pytest.raises(ValueError):
            SpectralSet(points=(pt,))

    def test_hull(self):
        s = SpectralSet(intervals=(SpectralInterval(0.0122, 0.0182),), points=(0.9878,))
        assert s.hull() == SpectralInterval(0.0122, 0.9878)


class TestRandomGraphProperties:
    def test_laplacian_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            g = _random_graph(rng, n)
            L = laplacian(g).entries
            scale = max(np.abs(L).max(), 1.0)
            assert np.abs(L.sum(axis=1)).max() <= 1e-12 * scale
            assert np.all(L[~np.eye(n, dtype=bool)] <= 0)
            assert np.all(np.diag(L) >= 0)
            eigs = symmetric_eigenvalues(L)
            assert eigs[0] >= -1e-10
            if _connected(g):
                ones = np.ones(n) / np.sqrt(n)
                assert abs(ones @ L @ ones) <= 1e-10 * scale


def _loop_laplacian(g):
    """The edge-by-edge Laplacian construction, as a reference."""
    a = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        a[i, j] -= w
        a[j, i] -= w
        a[i, i] += w
        a[j, j] += w
    return a


def _random_graph(rng, n):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                edges.append((i, j, float(rng.uniform(0, 1))))
    return WeightedGraph(n, tuple(edges))


def _connected(g):
    adj = {i: set() for i in range(g.n)}
    for i, j, w in g.edges:
        if w > 0:
            adj[i].add(j)
            adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for k in adj[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == g.n
