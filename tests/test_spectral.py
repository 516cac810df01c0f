import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaccel import spectral
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
    _all_eigenvalues,
    _components,
    _lanczos_extremes,
    _laplacian_nonzeros,
    _lowest_ritz,
    _nonzeros,
    _start_vector,
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

    def test_one_stored_form(self):
        # Orientation and number type made distinct, unequal graphs of one
        # undirected edge, and distinct LaplacianMatrix records.
        g, h = WeightedGraph(2, ((1, 0, 1),)), WeightedGraph(2, ((0, 1, 1.0),))
        assert g == h and hash(g) == hash(h) and laplacian(g) == laplacian(h)
        assert load_edge_list("1 0 2").edges == ((0, 1, 2.0),)
        g = WeightedGraph(np.int64(4), ((np.int32(3), np.uint8(1), Fraction(1, 3)),
                                        (2, 0, np.float32(0.1))))
        assert g.edges == ((1, 3, 1 / 3), (0, 2, float(np.float32(0.1))))
        assert [type(v) for v in (g.n, *g.edges[0], *g.edges[1])] == [int] + [int, int, float] * 2

    def test_input_order_kept(self):
        # The order sets each node's degree sum, so it is part of the graph.
        g = WeightedGraph(3, ((2, 1, 1.0), (0, 1, 2.0)))
        assert g.edges == ((1, 2, 1.0), (0, 1, 2.0))
        assert g != WeightedGraph(3, ((0, 1, 2.0), (1, 2, 1.0)))

    def test_sign_checked_on_the_weight_given(self):
        # -1/10^400 rounds to the float -0.0, yet it is a negative weight.
        with pytest.raises(NegativeWeightError):
            WeightedGraph(2, ((0, 1, Fraction(-1, 10**400)),))


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
        r, c, v = _nonzeros(L.entries)
        labels = _components(n, r[r > c], c[r > c])
        assert np.array_equal(L.labels, labels)
        assert L.components == len(set(labels.tolist()))
        # The sparse form that simulate's drop check compares with
        # IterationProblem.nonzeros is the dense matrix's scan, split
        # into its diagonal and its off-diagonal nonzeros.
        off = r != c
        for got, want in zip(_laplacian_nonzeros(g),
                             (L.entries.diagonal(), r[off], c[off], v[off]), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
        # The kernel's zeros, then the extremes of the roots of det(xI - L);
        # the listing that memaccel spectrum prints has every root.
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for _ in range(5):
                L = laplacian(_random_graph(rng, n))
                eigs = symmetric_eigenvalues(L)
                coeffs = char_poly_coeffs(L.entries)
                oracle = sorted(z.real for z in roots(RealPolynomial(tuple(coeffs))).roots)
                c = L.components
                assert eigs[:c].tolist() == [0.0] * c
                np.testing.assert_allclose(eigs, _extremes(oracle, c), atol=1e-8)
                np.testing.assert_allclose(_all_eigenvalues(L), oracle, atol=1e-8)


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
        # disconnected graphs included. The kernel is c exact zeros, the
        # rest the two extremes, and the interval reads them unchanged.
        n = data.draw(st.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        weight = st.one_of(st.just(0.0), st.floats(-10, 3).map(lambda e: 10.0 ** e))
        g = WeightedGraph(n, tuple((i, j, data.draw(weight)) for i, j in chosen))
        L = laplacian(g)
        c = _bfs_components(g)
        assert L.components == c
        raw = np.linalg.eigvalsh(L.entries)
        tol = n * np.finfo(float).eps * raw[-1]
        try:
            eigs = symmetric_eigenvalues(L)
        except MemaccelError as exc:
            # The n-based rule on the extremes it read, a gap that eigvalsh
            # does not resolve with room.
            lo, hi = _ends_read(L)
            assert "resolution" in str(exc) and lo <= n * np.finfo(float).eps * hi
            assert raw[c] <= 2 * tol
            return
        assert eigs.tolist()[:c] == [0.0] * c and len(eigs) == c + min(2, n - c)
        assert n - c < 2 or eigs[c] > n * np.finfo(float).eps * eigs[-1]
        if c == n:
            with pytest.raises(AllZeroError):
                nonzero_spectral_interval(eigs)
            return
        iv = nonzero_spectral_interval(eigs)
        assert (iv.lo, iv.hi) == (eigs[c], eigs[-1])
        np.testing.assert_allclose([iv.lo, iv.hi], [raw[c], raw[-1]], rtol=0, atol=2 * tol)


class TestExtremes:
    """symmetric_eigenvalues returns the kernel's zeros, lambda_2 and
    lambda_max, from Lanczos on the edge arrays where it converges."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_match_mpmath(self, data):
        # Weights log-uniform from 1e-10 to 1e3, zero weights, disconnected
        # graphs and isolated nodes; the Lanczos estimate, where it
        # converges, and the result are within n eps lambda_max of the
        # 50-digit eigenvalues. The resolution error fires exactly where
        # the lambda_2 it read is at or below n eps times its lambda_max,
        # with the graph's n, and only on a gap within 2 n eps lambda_max.
        n = data.draw(st.integers(1, 30))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = (data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60))
                  if pairs else [])
        weight = st.one_of(st.just(0.0), st.floats(-10, 3).map(lambda e: 10.0 ** e))
        g = WeightedGraph(n, tuple((i, j, data.draw(weight)) for i, j in chosen))
        L = laplacian(g)
        c = L.components
        exact = [float(v) for v in _mp_eigenvalues(g)]
        want = _extremes(exact, c)
        tol = n * np.finfo(float).eps * max(exact[-1], 0.0)
        if n - c > 1 and (ends := _lanczos_extremes(L)) is not None:
            assert np.abs(np.subtract(ends, want[c:])).max() <= tol
        try:
            eigs = symmetric_eigenvalues(L)
        except MemaccelError as exc:
            lo, hi = _ends_read(L)
            assert "resolution" in str(exc) and lo <= n * np.finfo(float).eps * hi
            assert exact[c] <= 2 * tol
            return
        assert eigs.tolist()[:c] == [0.0] * c and len(eigs) == len(want)
        assert np.abs(eigs - want).max(initial=0.0) <= tol
        assert n - c < 2 or eigs[c] > n * np.finfo(float).eps * eigs[-1]

    def test_gap_below_the_graphs_resolution_rejected(self):
        # Two 10-cliques joined by a bridge of 500 eps: lambda_2 is about
        # 2.3e-14, above the 3 eps lambda_max of the three values returned
        # and at or below the 20 eps lambda_max of the graph's 20.
        # symmetric_eigenvalues judges it by the graph's n.
        eps = np.finfo(float).eps
        cliques = [(i + k, j + k, 1.0) for k in (0, 10)
                   for i in range(10) for j in range(i + 1, 10)]
        g = WeightedGraph(20, tuple(cliques) + ((9, 10, 500 * eps),))
        L = laplacian(g)
        exact = [float(v) for v in _mp_eigenvalues(g)]
        assert 3 * eps * exact[-1] < exact[1] <= 20 * eps * exact[-1] / 1.5
        ends = _lanczos_extremes(L)
        assert ends is not None
        assert 3 * eps * ends[1] < ends[0] <= 20 * eps * ends[1]
        nonzero_spectral_interval([0.0, *ends])  # three values resolve it
        with pytest.raises(MemaccelError, match="resolution"):
            symmetric_eigenvalues(L)
        with pytest.raises(MemaccelError, match="resolution"):
            nonzero_spectral_interval(_all_eigenvalues(L))

    def test_listing_checks_its_own_resolution(self, monkeypatch):
        # Known defect 11: a 1.4e-20 bridge makes one component, yet
        # eigvalsh may round its lambda_2 to 0. The listing passed that 0
        # as the kernel's, and nonzero_spectral_interval read [2, 2].
        L = laplacian(load_edge_list("0 1 1\n2 3 1\n0 2 1.3913777107056506e-20\n"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([0.0, 0.0, 2.0, 2.0]))
        with pytest.raises(MemaccelError, match="resolution"):
            _all_eigenvalues(L)

    def test_extremes_form_nothing_n_by_n(self):
        # The record keeps O(n + E) arrays and Lanczos reads only those:
        # from graph to extremes, a 2000-node graph allocates less than
        # n^2 bytes, an eighth of its 32 MB dense Laplacian.
        g = _ring_chords(np.random.default_rng(0), 2000)
        tracemalloc.start()
        try:
            eigs = symmetric_eigenvalues(laplacian(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(eigs) == 3 and peak < 2000 ** 2

    @settings(max_examples=8, deadline=None)
    @given(st.integers(100, 400), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_benchmark_sized_graphs(self, n, two, seed):
        # A ring with chords, or two joined by one edge of weight 1e-3..1,
        # of the sizes the benchmark's consensus ops run; the Lanczos
        # estimate, where it converges, and the result are within
        # n eps lambda_max of eigvalsh's. About 1 graph in 16 of these
        # sizes does not converge in n - 1 steps and falls back.
        L = laplacian(_benchmark_sized_graph(np.random.default_rng(seed), n, two))
        raw = np.linalg.eigvalsh(L.entries)
        want, tol = [raw[1], raw[-1]], n * np.finfo(float).eps * raw[-1]
        if (ends := _lanczos_extremes(L)) is not None:
            np.testing.assert_allclose(ends, want, rtol=0, atol=tol)
        np.testing.assert_allclose(symmetric_eigenvalues(L), [0.0, *want], rtol=0, atol=tol)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(100, 400), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_warm_and_cold_checks_decide_alike(self, n, two, seed):
        # The same graphs, with each check's Ritz solve started from the
        # last check's Ritz pair, and with _lowest_ritz dropping its start:
        # the same checks, so the same stop step or None from both, and the
        # same floats, which is more than agreeing within 0.25 n eps
        # lambda_max. The warm run sweeps less than a quarter as often.
        L = laplacian(_benchmark_sized_graph(np.random.default_rng(seed), n, two))
        lowest, sweep = spectral._lowest_ritz, spectral._positive_definite
        runs = []
        for warm in (True, False):
            checks, starts, sweeps = [], [], []

            def ritz(alphas, betas2, start=None, warm=warm):
                checks.append(len(alphas))
                starts.append(start is not None)
                return lowest(alphas, betas2, start if warm else None)

            def counted(*args):
                sweeps.append(1)
                return sweep(*args)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(spectral, "_lowest_ritz", ritz)
                m.setattr(spectral, "_positive_definite", counted)
                runs.append((_lanczos_extremes(L), checks, len(sweeps)))
            assert any(starts[2:]) and not starts[0]
        (warm_ends, warm_checks, warm_sweeps), (cold_ends, cold_checks, cold_sweeps) = runs
        assert warm_ends == cold_ends and warm_checks == cold_checks
        assert 4 * warm_sweeps < cold_sweeps

    @pytest.mark.parametrize("n", [200, 201])
    def test_path_and_ring_closed_forms(self, n):
        # Clustered lambda_2, where Lanczos runs to its cap of n - 1 steps.
        eps = np.finfo(float).eps
        for ring, lam2, lmax in [(False, 4 * np.sin(np.pi / (2 * n)) ** 2,
                                  4 * np.cos(np.pi / (2 * n)) ** 2),
                                 (True, 4 * np.sin(np.pi / n) ** 2,
                                  4 * np.sin(np.pi * (n // 2) / n) ** 2)]:
            edges = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)] * ring
            L = laplacian(WeightedGraph(n, tuple(edges)))
            ends = _lanczos_extremes(L)
            assert ends is not None
            np.testing.assert_allclose(ends, [lam2, lmax], rtol=0, atol=n * eps * lmax)
            assert symmetric_eigenvalues(L).tolist() == [0.0, *ends]

    def test_consensus_graphs_take_no_dense_eigensolver(self, monkeypatch):
        # laplacian -> symmetric_eigenvalues -> nonzero_spectral_interval ->
        # tune_theorem3 on a 500-node ring with chords, as the benchmark's
        # consensus ops run it, calls no dense eigensolver; its interval is
        # within n eps lambda_max of eigvalsh's.
        g = _ring_chords(np.random.default_rng(32), 500)
        raw = np.linalg.eigvalsh(laplacian(g).entries)

        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        for name in ("eigvalsh", "eigh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_dense)
        iv = nonzero_spectral_interval(symmetric_eigenvalues(laplacian(g)))
        t = tune_theorem3(iv)
        np.testing.assert_allclose([iv.lo, iv.hi], [raw[1], raw[-1]], rtol=0,
                                   atol=500 * np.finfo(float).eps * raw[-1])
        assert 0 < t.nu_star < 1

    def test_kernel_of_each_component_projected(self):
        # Two rings with chords, an isolated node and a zero-weight edge:
        # Lanczos sees only the nonzero spectrum of the whole graph.
        rng = np.random.default_rng(7)
        a, b = _ring_chords(rng, 300), _ring_chords(rng, 250)
        edges = a.edges + tuple((i + 300, j + 300, 2.0 * w) for i, j, w in b.edges)
        g = WeightedGraph(551, edges + ((0, 550, 0.0),))
        L = laplacian(g)
        raw = np.linalg.eigvalsh(L.entries)
        assert L.components == 3
        ends = _lanczos_extremes(L)
        assert ends is not None
        np.testing.assert_allclose(ends, [raw[3], raw[-1]], rtol=0,
                                   atol=551 * np.finfo(float).eps * raw[-1])

    def test_lowest_ritz_of_a_tridiagonal(self):
        # The smallest eigenvalue of T, the last entry of its unit
        # eigenvector and the eigenvector, against a dense solve.
        rng = np.random.default_rng(3)
        for k in (1, 2, 5, 40):
            alphas, betas = rng.uniform(0.5, 2.0, k), rng.uniform(0.1, 1.0, k - 1)
            T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            w, v = np.linalg.eigh(T)
            theta, last, (value, u) = _lowest_ritz(alphas.tolist(), (betas ** 2).tolist())
            assert theta <= w[0] <= theta + 1e-14
            assert last == pytest.approx(abs(v[-1, 0]), rel=1e-6, abs=1e-12)
            assert value == theta and len(u) == k
            assert abs(np.dot(u, v[:, 0])) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["separated", "clustered", "repeated", "ghosts"]),
           st.integers(1, 600), st.integers(0, 2 ** 32 - 1))
    def test_lowest_ritz_from_any_start(self, kind, k, seed):
        # From no start, T's own lowest eigenpair, a perturbed one, its
        # second, a zero vector or the Ritz pair of a leading block: every
        # pivot of T - theta I is positive and one at theta + ulp / 16 is
        # not (the bisection's tolerance), theta is within 4 ulp of
        # LAPACK's bisection (dense eigh's rounding reaches 22 ulp at
        # k = 600), and theta, the last-entry ratio and the Ritz pair are
        # the cold solve's, bit for bit. Where lambda_1 is well separated
        # and its eigenvector's first entry is not negligible, as in a
        # Lanczos T, the ratio is eigh's to a relative 1e-6.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        alphas, betas = _tridiagonal(rng, kind, k)
        a, b2 = alphas.tolist(), (betas ** 2).tolist()
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        w, v = np.linalg.eigh(T)
        beta_max = max([b ** 0.5 for b in b2], default=0.0)  # as _lowest_ritz rounds it
        ulp = np.finfo(float).eps * (max(map(abs, a)) + 2 * beta_max)
        lapack = scipy_linalg.eigvalsh_tridiagonal(alphas, betas, select="i", select_range=(0, 0),
                                                   lapack_driver="stebz", tol=0.0)[0]
        cold = theta, ratio, (value, u) = _lowest_ritz(a, b2)
        assert min(_pivots(a, b2, theta)) > 0
        assert min(_pivots(a, b2, max(theta + ulp / 16, np.nextafter(theta, np.inf)))) <= 0
        assert abs(theta - lapack) <= 4 * ulp
        assert value == theta and np.linalg.norm(u) == pytest.approx(1.0)
        if (k == 1 or w[1] - w[0] > 1e-3) and abs(v[0, 0]) > 1e-3:
            assert ratio == pytest.approx(abs(v[-1, 0]), rel=1e-6, abs=1e-12)
        perturbed = v[:, 0] + 1e-3 * rng.standard_normal(k)
        perturbed /= np.linalg.norm(perturbed)
        j = int(rng.integers(1, k + 1))
        second = min(1, k - 1)
        for start in [(w[0], v[:, 0].tolist()),
                      (float(perturbed @ T @ perturbed), perturbed.tolist()),
                      (w[second], v[:, second].tolist()),
                      (w[0], [0.0] * k),
                      _lowest_ritz(a[:j], b2[:j - 1])[2]]:
            assert _lowest_ritz(a, b2, start) == cold

    def test_start_vector_is_fixed(self):
        v = _start_vector(5)
        assert v.tolist() == _start_vector(8)[:5].tolist()
        assert ((-1 <= v) & (v < 1)).all() and len(set(v.tolist())) == 5


def _ends_read(L):
    """The [lambda_2, lambda_max] that symmetric_eigenvalues judges:
    Lanczos', or eigvalsh's with the kernel zeroed where Lanczos does not
    converge (read here without _all_eigenvalues, which raises on them)."""
    ends = _lanczos_extremes(L)
    if ends is None:
        eigs = np.linalg.eigvalsh(L.entries)
        eigs[:L.components] = 0.0
        ends = eigs[L.components], eigs[-1]
    return ends


def _extremes(eigs, c):
    """c zeros, then the smallest and largest of the ascending eigs past
    its first c, or the one there is, or none."""
    rest = list(eigs[c:])
    return [0.0] * c + (rest[:1] + rest[-1:] if len(rest) > 1 else rest)


def _pivots(alphas, betas2, x):
    """The pivots of the LDL^T of T - x I, T the tridiagonal with diagonal
    alphas and squared off-diagonal betas2, as a reference."""
    pivots, d = [], 1.0
    for a, b2 in zip(alphas, [0.0] + betas2):
        d = a - x - b2 / d if d else -np.inf
        pivots.append(d)
    return pivots


def _tridiagonal(rng, kind, k):
    """(alphas, betas) of a k x k tridiagonal: random entries with a
    separated spectrum; eigenvalues clustered within 3e-9 of 1; one random
    block repeated behind a coupling of 1e-9, so that each eigenvalue has
    a twin; or the T of k Lanczos steps without reorthogonalisation on a
    diagonal of 5..59 eigenvalues, run past convergence until T holds
    ghost copies of its extremes."""
    if kind == "separated":
        return rng.uniform(0.5, 2.0, k), rng.uniform(0.1, 1.0, k - 1)
    if kind == "clustered":
        return 1 + 1e-9 * rng.uniform(0, 1, k), 1e-9 * rng.uniform(0.1, 1, k - 1)
    if kind == "repeated":
        h = (k + 1) // 2
        a, b = rng.uniform(0.5, 2.0, h), rng.uniform(0.1, 1.0, h - 1)
        return np.concatenate([a, a])[:k], np.concatenate([b, [1e-9], b])[:k - 1]
    lam = np.sort(rng.uniform(1, 2, int(rng.integers(5, 60))))
    lam[0] = rng.uniform(0, 0.9)
    q = rng.standard_normal(len(lam))
    q /= np.linalg.norm(q)
    q_prev, beta, alphas, betas = np.zeros(len(lam)), 0.0, [], []
    for _ in range(k):
        w = lam * q
        alphas.append(q @ w)
        w -= alphas[-1] * q + beta * q_prev
        beta = np.linalg.norm(w)
        betas.append(beta)
        q_prev, q = q, w / beta
    return np.array(alphas), np.array(betas[:-1])


def _benchmark_sized_graph(rng, n, two):
    """A ring with chords on n nodes, or two on n // 2 and n - n // 2
    joined by one edge of weight 1e-3..1."""
    if not two:
        return _ring_chords(rng, n)
    h = n // 2
    a, b = _ring_chords(rng, h), _ring_chords(rng, n - h)
    bridge = (int(rng.integers(h)), int(h + rng.integers(n - h)), float(10 ** rng.uniform(-3, 0)))
    return WeightedGraph(n, a.edges + tuple((i + h, j + h, w) for i, j, w in b.edges) + (bridge,))


def _ring_chords(rng, n):
    """A ring plus n/5 random chords, weights in [0.5, 1.5], as the
    benchmark's consensus graphs."""
    edges = {(i, i + 1): 1.0 for i in range(n - 1)}
    edges[(0, n - 1)] = 1.0
    while len(edges) < n + n // 5:
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        edges.setdefault((i, j), float(rng.uniform(0.5, 1.5)))
    return WeightedGraph(n, tuple((i, j, w) for (i, j), w in edges.items()))


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
