import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaccel.accel import guarantee
from memaccel.errors import (
    AllZeroError,
    DuplicateEdgeError,
    MemaccelError,
    NegativeWeightError,
    ParseError,
)
from memaccel.polyroots import RealPolynomial, roots
from memaccel.spectral import (
    LaplacianMatrix,
    SpectralInterval,
    SpectralSet,
    WeightedGraph,
    _components,
    _nonzeros,
    laplacian,
    load_edge_list,
    nonzero_spectral_interval,
    symmetric_eigenvalues,
)
from memaccel.tuning import tune_theorem3

RING5 = "0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 0 1\n"
# Two unit triangles joined by a bridge of weight 1e-10: lambda_2 is
# 6.67e-11, far below any guessed zero threshold but well resolved.
WEAK_BRIDGE = "0 1 1\n1 2 1\n0 2 1\n3 4 1\n4 5 1\n3 5 1\n2 3 1e-10\n"


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

    @pytest.mark.parametrize("line", ["0 1_0 1", "0 1 1_0", "0 +1 1", "0 \u0662 1",
                                      "0 1 \u0662", "0 1.0 1", "0 1 1 1"])
    def test_strict_numbers(self, line):
        # int() and float() read "1_0" as 10, "+1" as 1 and "\u0662" as 2.
        with pytest.raises(ParseError) as exc:
            load_edge_list(f"0 1 1\n{line}")
        assert exc.value.line_no == 2
        assert str(exc.value) == f"line 2: cannot parse {line!r}"

    @pytest.mark.parametrize("w", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, w):
        with pytest.raises(MemaccelError, match=r"edge \(1, 2\) has non-finite weight"):
            load_edge_list(f"0 1 1\n1 2 {w}")


class TestWeightedGraph:
    @pytest.mark.parametrize("edges", [((0.5, 1, 1.0), (1, 2, 1.0)),
                                       ((0, 1.0, 1.0),), ((True, 2, 1.0),),
                                       ((0, np.True_, 1.0),)])
    def test_non_integer_node_index_rejected(self, edges):
        # 0.5 was truncated to node 0 and True read as node 1.
        with pytest.raises(ValueError, match="not an integer"):
            WeightedGraph(3, edges)

    @pytest.mark.parametrize("n", [3.0, 2.5, True, np.float64(3.0)])
    def test_non_integer_node_count_rejected(self, n):
        with pytest.raises(ValueError, match="node count"):
            WeightedGraph(n, ((0, 1, 1.0),))

    def test_numpy_integers_accepted(self):
        edges = ((np.int64(0), np.int32(1), 1.0), (np.uint8(1), np.int64(2), 2.0))
        g = WeightedGraph(np.int64(3), edges)
        np.testing.assert_array_equal(laplacian(g).entries,
                                      laplacian(load_edge_list("0 1 1\n1 2 2")).entries)


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


@st.composite
def special_matrices(draw, square=False):
    """A small float matrix whose entries include NaN, +-inf and +-0.0,
    as a C-ordered array, a Fortran-ordered copy, a transposed view or
    a column-strided view."""
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    entry = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                      st.floats(-10.0, 10.0))
    a = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "transposed":
        return np.ascontiguousarray(a.T).T
    if layout == "strided":
        wide = np.zeros((rows, 2 * cols))
        wide[:, ::2] = a
        return wide[:, ::2]
    return a


class TestNonzeroScan:
    @settings(max_examples=300, deadline=None)
    @given(special_matrices())
    def test_matches_np_nonzero(self, a):
        r, c, v = _nonzeros(a)
        ref_r, ref_c = np.nonzero(a)
        for got, ref in ((r, ref_r), (c, ref_c), (v, a[ref_r, ref_c])):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("build, error, match", [
    (lambda: WeightedGraph(2, ((0, 2, 1.0),)), ValueError, r"edge \(0, 2\) out of range for n=2"),
    (lambda: WeightedGraph(2, ((1, 1, 1.0),)), ValueError, "self-loop at node 1"),
    (lambda: LaplacianMatrix(np.zeros((2, 2))), TypeError,
     "LaplacianMatrix takes a WeightedGraph, got ndarray"),
    (lambda: load_edge_list("0 1 1\n-1 2 1"), ParseError, "line 2: cannot parse '-1 2 1'"),
], ids=["edge-out-of-range", "self-loop", "not-a-graph", "negative-index"])
def test_malformed_graph_rejected(build, error, match):
    with pytest.raises(error, match=f"^{match}$"):
        build()


class TestLaplacianMatrix:
    PATH4 = load_edge_list("0 1 1\n1 2 1\n2 3 1")

    def test_counts_its_own_kernel(self):
        # A caller could pass components=2 for the 4-node path, which gave
        # the interval [2, 3.414] and nu* = 0.1329 in place of 0.4142.
        L = LaplacianMatrix(self.PATH4)
        assert L.components == 1
        t = tune_theorem3(nonzero_spectral_interval(symmetric_eigenvalues(L)))
        assert t.nu_star == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)

    def test_components_is_not_an_argument(self):
        with pytest.raises(TypeError):
            LaplacianMatrix(self.PATH4, 2)

    def test_array_is_not_a_graph(self):
        # Known defect 7: this array is no Laplacian, yet its nonzero
        # pattern counted 1 component, so symmetric_eigenvalues zeroed its
        # eigenvalue 0.382 and nonzero_spectral_interval gave [2.618, 2.618].
        with pytest.raises(TypeError, match="WeightedGraph"):
            LaplacianMatrix(np.array([[2.0, -1.0], [-1.0, 1.0]]))

    def test_nan_rejected(self):
        # WeightedGraph takes only finite weights, so the one non-finite
        # entry left is a degree whose weights sum past the largest float.
        for n, edges, k in [(3, ((0, 1, 1e308), (0, 2, 1e308)), 0),
                            (4, ((0, 3, 1.0), (1, 2, 1e308), (2, 3, 1e308), (0, 2, 1.0)), 2)]:
            with pytest.raises(ValueError, match=_overflow(k)):
                LaplacianMatrix(WeightedGraph(n, edges))

    def test_signed_zero_pair_accepted(self):
        # A zero weight, of either sign, joins nothing.
        for zero in (0.0, -0.0):
            L = LaplacianMatrix(WeightedGraph(3, ((0, 1, 1.0), (1, 2, zero))))
            assert L.entries.shape == (3, 3) and L.components == 2
            np.testing.assert_array_equal(L.entries, [[1, -1, 0], [-1, 1, 0], [0, 0, 0]])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_entries_and_kernel_from_the_edges(self, data):
        # Isolated nodes, disconnected graphs, zero and subnormal weights
        # and degrees that overflow from two weights of 1e308.
        n = data.draw(st.integers(0, 30))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = (data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60))
                  if pairs else [])
        weight = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300, 1e308]),
                           st.floats(-10, 3).map(lambda e: 10.0 ** e))
        edges = tuple((j, i, data.draw(weight)) if data.draw(st.booleans())
                      else (i, j, data.draw(weight)) for i, j in chosen)
        g = WeightedGraph(n, edges)
        with np.errstate(over="ignore"):
            ref = _loop_laplacian(g)
        degree = ref.diagonal()
        if not np.isfinite(degree).all():
            k = np.isfinite(degree).argmin()
            with pytest.raises(ValueError, match=_overflow(k)):
                LaplacianMatrix(g)
            return
        L = LaplacianMatrix(g)
        assert L.entries.dtype == ref.dtype and L.entries.shape == (n, n)
        assert L.entries.tobytes() == ref.tobytes()
        assert L.entries.tobytes() == L.entries.T.copy().tobytes()
        # The kernel count of the nonzero pattern: components over its
        # strict lower triangle.
        r, c, _ = _nonzeros(L.entries)
        assert L.components == _components(n, r[r > c], c[r > c])


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
        L = laplacian(_random_graph(rng, 8))
        eigs = symmetric_eigenvalues(L)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        q = v @ L.entries @ v
        assert eigs[0] - 1e-9 <= q <= eigs[-1] + 1e-9

    def test_matches_char_poly_oracle_small(self):
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for _ in range(5):
                L = laplacian(_random_graph(rng, n))
                eigs = symmetric_eigenvalues(L)
                coeffs = char_poly_coeffs(L.entries)
                oracle = sorted(z.real for z in roots(RealPolynomial(tuple(coeffs))).roots)
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
        # The kernel is counted from the graph's components, so no zero
        # threshold can be passed any more, bad or otherwise.
        eigs = symmetric_eigenvalues(laplacian(load_edge_list(RING5)))
        with pytest.raises(TypeError, match="zero_tol"):
            nonzero_spectral_interval(eigs, zero_tol=zero_tol)

    def test_unzeroed_kernel_rejected(self):
        # The 5-node ring's spectrum as eigvalsh returns it: the consensus
        # mode is rounded to 8.3e-17, which is not a spectral gap.
        eigs = np.linalg.eigvalsh(laplacian(load_edge_list(RING5)).entries)
        assert 0 < eigs[0] < 1e-15
        with pytest.raises(MemaccelError, match="resolution"):
            nonzero_spectral_interval(eigs)
        iv = nonzero_spectral_interval(symmetric_eigenvalues(laplacian(load_edge_list(RING5))))
        assert (iv.lo, iv.hi) == (eigs[1], eigs[-1])

    @pytest.mark.parametrize("bad", [-1e-17, np.nan, np.inf])
    def test_negative_or_non_finite_rejected(self, bad):
        with pytest.raises(MemaccelError, match="finite and >= 0"):
            nonzero_spectral_interval([0.0, bad, 1.0, 3.0])

    def test_containment(self):
        rng = np.random.default_rng(3)
        eigs = np.sort(np.concatenate([[0.0], rng.uniform(0.1, 5.0, 6)]))
        iv = nonzero_spectral_interval(eigs)
        assert all(iv.contains(e) for e in eigs if e > 1e-9)


class TestWeakBridge:
    """A spectral gap far below 1e-9 is a gap, not a zero."""

    def test_interval_matches_mpmath(self):
        g = load_edge_list(WEAK_BRIDGE)
        L = laplacian(g)
        assert L.components == 1
        iv = nonzero_spectral_interval(symmetric_eigenvalues(L))
        exact = _mp_eigenvalues(g)
        assert exact[0] == pytest.approx(0.0, abs=1e-40)
        assert exact[1] == pytest.approx(6.66666666637e-11, rel=1e-11)
        assert iv.lo == pytest.approx(exact[1], rel=1e-4)
        assert iv.hi == pytest.approx(exact[-1], rel=1e-12)

    def test_tuning_keeps_its_promise(self):
        # The tuning of the reported interval must reach its nu* on the
        # true nonzero spectrum; one of 3 would claim 1.1e-11 and get
        # 0.99999999998.
        g = load_edge_list(WEAK_BRIDGE)
        t = tune_theorem3(nonzero_spectral_interval(symmetric_eigenvalues(laplacian(g))))
        exact = SpectralSet(points=tuple(float(v) for v in _mp_eigenvalues(g)[1:]))
        assert guarantee(t.gains, exact).nu <= t.nu_star + 1e-6
        assert t.nu_star > 0.999

    def test_unresolved_gap_rejected(self):
        # At 1e-17 the gap is below eigvalsh's rounding of the kernel, so
        # no interval is reported rather than a wrong one.
        L = laplacian(load_edge_list(WEAK_BRIDGE.replace("1e-10", "1e-17")))
        assert L.components == 1
        with pytest.raises(MemaccelError, match="resolution|>= 0"):
            nonzero_spectral_interval(symmetric_eigenvalues(L))


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

    def test_empty_set_has_no_hull(self):
        with pytest.raises(ValueError, match="^empty spectral set has no hull$"):
            SpectralSet().hull()


class TestRandomGraphProperties:
    def test_laplacian_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            g = _random_graph(rng, n)
            lap = laplacian(g)
            L = lap.entries
            scale = max(np.abs(L).max(), 1.0)
            assert np.abs(L.sum(axis=1)).max() <= 1e-12 * scale
            assert np.all(L[~np.eye(n, dtype=bool)] <= 0)
            assert np.all(np.diag(L) >= 0)
            eigs = symmetric_eigenvalues(lap)
            assert eigs[0] >= -1e-10
            if _bfs_components(g) == 1:
                ones = np.ones(n) / np.sqrt(n)
                assert abs(ones @ L @ ones) <= 1e-10 * scale

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kernel_from_components(self, data):
        # Weights log-uniform over 13 decades, zero weights and
        # disconnected graphs included.
        n = data.draw(st.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        weight = st.one_of(st.just(0.0), st.floats(-10, 3).map(lambda e: 10.0 ** e))
        g = WeightedGraph(n, tuple((i, j, data.draw(weight)) for i, j in chosen))
        L = laplacian(g)
        c = _bfs_components(g)
        assert L.components == c
        eigs, raw = symmetric_eigenvalues(L), np.linalg.eigvalsh(L.entries)
        assert np.array_equal(eigs[:c], np.zeros(c))
        assert np.array_equal(eigs[c:], raw[c:])
        if c == n:
            with pytest.raises(AllZeroError):
                nonzero_spectral_interval(eigs)
        elif raw[c] <= n * np.finfo(float).eps * raw[-1]:
            with pytest.raises(MemaccelError):
                nonzero_spectral_interval(eigs)
        else:
            iv = nonzero_spectral_interval(eigs)
            assert (iv.lo, iv.hi) == (raw[c], raw[-1])


def _overflow(k):
    """The message for a degree at node k that overflows."""
    return rf"^Laplacian entry \({k}, {k}\) is inf, not finite$"


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


def _bfs_components(g):
    """Connected components of g's positive-weight edges, by search."""
    adj = {i: set() for i in range(g.n)}
    for i, j, w in g.edges:
        if w > 0:
            adj[i].add(j)
            adj[j].add(i)
    seen, count = set(), 0
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for k in adj[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
    return count


def _mp_eigenvalues(g):
    """Ascending eigenvalues of g's Laplacian, built and solved at 50
    digits, so its rows sum to zero exactly."""
    with mpmath.workdps(50):
        a = mpmath.zeros(g.n)
        for i, j, w in g.edges:
            a[i, j] -= w
            a[j, i] -= w
            a[i, i] += w
            a[j, j] += w
        return sorted(mpmath.eigsy(a, eigvals_only=True))
