"""Seeded inputs, ops and output checks of the four benchmark workloads.

Each workload is a closed loop with one client: the op list built here
from the seed is replayed pass after pass, and each op starts when the
previous one returned. Ops call memaccel through module attributes
looked up at call time, so the traced run's wrappers see every call.
The checks use references computed here from closed forms, never the
program's own answer, except where a check restates a documented
property of the program's output.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from memaccel import accel, certify, dynamics, spectral

# Tail percentile per workload: a percentile that leaves at least ten
# ops beyond it at the fewest ops a run of 30 s or more makes on the
# 2-vCPU host the benchmark was written on, whose speed swings by up to
# 1.8x over minutes (interval-certify 96 ops, structured-search 33,
# consensus-graph 42, cli-cold 30). It is fixed so that two commits are
# compared at the same percentile.
TAIL_PCT = {
    "interval-certify": 89,
    "structured-search": 66,
    "consensus-graph": 75,
    "cli-cold": 66,
}

SEARCH_BUDGET = 100
CLI_TIMEOUT_S = 4.0


@dataclass
class Op:
    """One op: ``run`` is timed, ``check`` maps its output to a failure
    reason (None when correct) and the extra figures the metrics use.
    ``known_defect`` describes the ROADMAP defect the op reproduces; its
    failure is expected until that defect is fixed."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, dict]]
    known_defect: str | None = None


def closed_form_nu(lo: float, hi: float) -> float:
    """nu* of the single-memory optimal tuning of [lo, hi]."""
    mu = (hi - lo) / (hi + lo)
    return mu / (1.0 + math.sqrt(1.0 - mu * mu))


def closed_form_gains(lo: float, hi: float, M: int) -> tuple[float, list[float]]:
    nu = closed_form_nu(lo, hi)
    beta1 = -nu * nu
    return 2.0 * (1.0 - beta1) / (hi + lo), [beta1] + [0.0] * (M - 2)


def perturbed_gains(rng, lo: float, hi: float, M: int, rel: float = 0.05):
    """Closed-form gains at memory order M, each gain moved by about
    ``rel``; the zero slots get ``rel`` of |beta_1|."""
    alpha, betas = closed_form_gains(lo, hi, M)
    eps = rng.standard_normal(M)
    alpha *= 1.0 + rel * eps[0]
    scale = abs(betas[0])
    betas = [b * (1.0 + rel * e) if b else rel * scale * e
             for b, e in zip(betas, eps[1:])]
    return alpha, betas


def stratified(rng, k: int) -> np.ndarray:
    """k draws in [0, 1), one per stratum, in seeded order: every seed
    covers the range the same way, so seeds differ in detail, not mix."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


# ---------------------------------------------------------------- interval-certify

def interval_certify(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for u in stratified(rng, 24):
        kappa = 10.0 ** (1.0 + 3.0 * u)          # hi/lo log-uniform in [10, 1e4]
        lo = 10.0 ** rng.uniform(-3.0, 0.0)
        hi = lo * kappa
        pert = [(M, *perturbed_gains(rng, lo, hi, M)) for M in (3, 4, 5)]
        ops.append(_certify_op(lo, hi, pert))
    return ops


def _certify_op(lo, hi, pert):
    iv = spectral.SpectralInterval(lo, hi)
    gains = [accel.Gains(M=M, alpha=a, betas=tuple(b)) for M, a, b in pert]
    nu_star = closed_form_nu(lo, hi)

    def run():
        t = accel.tune_theorem3(iv, M=2)
        opt = accel.guarantee(t.gains, iv)
        out = []
        for g in gains:
            rep = accel.guarantee(g, iv)
            c = certify.gains_to_claim_coeffs(g, iv)
            p8 = certify.prop8_check(c)
            w = certify.claim6_witness(c)
            out.append((rep.nu, p8.kind, w.found))
        return opt.nu, out

    def check(res):
        opt_nu, pert_out = res
        if not (nu_star - 1e-9 <= opt_nu <= nu_star + 1e-6):
            return f"optimal nu {opt_nu!r} outside [nu*-1e-9, nu*+1e-6], nu*={nu_star!r}", {}
        for nu, _, found in pert_out:
            if nu < nu_star - 1e-9:
                return f"perturbed nu {nu!r} below nu*={nu_star!r}", {}
            if not found:
                return "claim-6 witness not found", {}
        return None, {}

    return Op("certify", run, check)


# ---------------------------------------------------------------- structured-search

DEMO03_SET = ((0.0122, 0.0182),), (0.9878,)


def structured_search(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = [_search_op(*DEMO03_SET, M, int(rng.integers(2**31))) for M in (3, 4)]
    # Nine seeded sets of 1-3 narrow clusters and 0-2 isolated points in
    # (0, 1], the same structures for every seed. Op cost grows with the
    # cluster count; six sets have one, like demo 03's, so the median op
    # is one of the eight one-cluster ops.
    # Seeds jitter cluster positions and widths around fixed values, so
    # they differ in detail, not in cost.
    for k in range(9):
        n_clusters, n_points, M = (1, 1, 1, 1, 1, 1, 2, 2, 3)[k], k % 3, 3 + k % 2
        slots = (np.arange(n_clusters) + 0.5) / n_clusters
        centres = 10.0 ** (-2.4 + 1.9 * slots + rng.uniform(-0.1, 0.1, n_clusters))
        intervals = tuple((c, c * (1.0 + rng.uniform(0.1, 0.3))) for c in centres)
        points = tuple(float(rng.uniform(0.7, 1.0)) for _ in range(n_points))
        ops.append(_search_op(intervals, points, M, int(rng.integers(2**31))))
    return ops


def _search_op(intervals, points, M, rng_seed):
    s = spectral.SpectralSet(
        intervals=tuple(spectral.SpectralInterval(lo, hi) for lo, hi in intervals),
        points=points)
    hull = s.hull()
    nu_hull = closed_form_nu(hull.lo, hull.hi)

    def run():
        return accel.search_gains(s, M=M, budget=SEARCH_BUDGET, rng_seed=rng_seed)

    def check(res):
        _, rep = res
        # At the hull's optimal tuning, the seed of the search, the root
        # modulus is nu* over the whole hull, so guarantee(seed, set) is
        # nu* within the acceptance suite's 1e-6.
        if not rep.nu <= nu_hull + 1e-6:
            return f"search returned nu {rep.nu!r} above the seed's nu*={nu_hull!r}", {}
        return None, {"nu_ratio": rep.nu / nu_hull}

    return Op(f"search-M{M}", run, check)


# ---------------------------------------------------------------- consensus-graph

def ring_chords(rng, n: int) -> list[tuple[int, int, float]]:
    """Ring plus n/5 random chords, weights in [0.5, 1.5]."""
    edges = {(i, i + 1): 1.0 for i in range(n - 1)}
    edges[(0, n - 1)] = 1.0
    while len(edges) < n + n // 5:
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        edges.setdefault((i, j), float(rng.uniform(0.5, 1.5)))
    return [(i, j, w) for (i, j), w in edges.items()]


def two_clusters(rng, n: int) -> list[tuple[int, int, float]]:
    """Two ring-plus-chords clusters joined by one weak link (weight 0.01),
    the slow-mixing topology of the frozen fragility example."""
    h = n // 2
    a = ring_chords(rng, h)
    b = [(i + h, j + h, w) for i, j, w in ring_chords(rng, n - h)]
    return a + b + [(int(rng.integers(h)), int(h + rng.integers(n - h)), 0.01)]


def consensus_graph(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    # A is n*n float64. The eight n = 560-700 graphs (2.4-3.9 MiB) fit in
    # the L2 of the two cores together; n = 1500 and 2000 (18-32 MiB) do
    # not. The host's 300 MiB L3 holds every size. The median op falls
    # inside the block of eight, so it does not jump between size classes.
    families = (ring_chords, two_clusters)
    for k, n in enumerate(range(560, 701, 20)):
        ops.append(_consensus_op(rng, n, families[k % 2](rng, n), T=150))
    for n, family in ((1500, ring_chords), (2000, two_clusters)):
        ops.append(_consensus_op(rng, n, family(rng, n), T=150))
    # Three drop ops of one size, so that the p75 op sits in a block of
    # like ops.
    for family in (ring_chords, two_clusters, ring_chords):
        edges = family(rng, 150)
        drops = {}
        for t in range(150):
            mask = rng.random(len(edges)) < 0.1
            if mask.any():
                drops[t] = frozenset((i, j) for (i, j, _), m in zip(edges, mask) if m)
        ops.append(_consensus_op(rng, 150, edges, T=150, drops=drops))
    ops.append(_fixture_op())
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def decay_rate(residuals) -> float:
    """Decay rate of the residual's monotone envelope over the later half
    of the steps where it stays above 1e-10 of the first (the trimming
    the acceptance suite uses; the untrimmed rate trips on the float
    floor)."""
    env = np.maximum.accumulate(np.asarray(residuals)[::-1])[::-1]
    above = np.flatnonzero(env > env[0] * 1e-10)
    k = max(int(above[-1]) + 1, 13) if above.size else 13
    t = np.arange(k // 2, k)
    return float(np.exp(np.polyfit(t, np.log(env[t]), 1)[0]))


def _consensus_op(rng, n, edges, T, drops=None):
    edges = tuple(edges)
    x0 = rng.standard_normal(n)

    def run():
        graph = spectral.WeightedGraph(n, edges)
        L = spectral.laplacian(graph)
        eigs = spectral.symmetric_eigenvalues(L)
        iv = spectral.nonzero_spectral_interval(eigs)
        t = accel.tune_theorem3(iv)
        prob = dynamics.IterationProblem(L.entries, np.zeros(n), x0)
        tr = dynamics.simulate(prob, t.gains, T)
        out = {"iv": (iv.lo, iv.hi), "diverged": tr.diverged,
               "residuals": tr.residuals, "node_steps": n * tr.T}
        if drops is not None:
            sched = dynamics.DropSchedule(graph, drops)
            plain = accel.Gains(M=1, alpha=accel.tune_memoryless(iv)[0])
            ml = dynamics.simulate(prob, plain, T, drops=sched)
            tuned = dynamics.simulate(prob, t.gains, T, drops=sched)
            out["drop_memoryless_diverged"] = ml.diverged
            out["node_steps"] += n * (ml.T + tuned.T)
        return out

    def check(out):
        info = {"node_steps": out["node_steps"]}
        nu_star = closed_form_nu(*out["iv"])
        if out["diverged"]:
            return "tuned run without drops diverged", info
        rate = decay_rate(out["residuals"])
        if rate > nu_star + 0.02:
            return f"empirical rate {rate:.6f} above nu*+0.02 = {nu_star + 0.02:.6f}", info
        if out.get("drop_memoryless_diverged"):
            return "memoryless run diverged under drops", info
        return None, info

    return Op("drop" if drops is not None else f"n{n}", run, check)


def _fixture_op():
    def run():
        graph, gains, schedule, x0 = dynamics.memory_fragility_example()
        L = spectral.laplacian(graph)
        iv = spectral.nonzero_spectral_interval(spectral.symmetric_eigenvalues(L))
        prob = dynamics.IterationProblem(L.entries, np.zeros(graph.n), x0)
        tuned = dynamics.simulate(prob, gains, 400, drops=schedule)
        plain = accel.Gains(M=1, alpha=accel.tune_memoryless(iv)[0])
        ml = dynamics.simulate(prob, plain, 400, drops=schedule)
        return tuned.diverged, ml.diverged, graph.n * (tuned.T + ml.T)

    def check(out):
        tuned_div, ml_div, steps = out
        info = {"node_steps": steps}
        if not tuned_div:
            return "fragility fixture did not diverge with tuned gains", info
        if ml_div:
            return "fragility fixture diverged with memoryless gains", info
        return None, info

    return Op("fixture", run, check)


# ---------------------------------------------------------------- cli-cold

# ROADMAP "Known defects" reproduced by the cli-cold mix. Each op tagged
# with one of these counts as failed while the defect stands.
KNOWN_DEFECTS = {
    "inf-interval": "tune --interval 0.1,inf prints nan and exits 0",
    "x0-exit-code": "a malformed --x0 exits 3 instead of 2",
    "window-exit-code": "a malformed --window exits 3 instead of 2",
    "refine-tol-hang": "guarantee --refine-tol -1 never returns",
}


def _strict_json(text):
    def bad(c):
        raise ValueError(f"non-JSON constant {c}")
    return json.loads(text, parse_constant=bad)


def cli_cold(seed: int, root: str, workdir: str, child: list[str] | None = None) -> list[Op]:
    """The cli-cold mix. ``child`` is the command prefix that starts one
    memaccel process; by default ``python -m memaccel.cli``."""
    rng = np.random.default_rng([seed, 4])
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    child = child or [sys.executable, "-m", "memaccel.cli"]

    def path(name):
        return os.path.join(workdir, name)

    def write(name, text):
        with open(path(name), "w") as fh:
            fh.write(text)
        return path(name)

    lo = float(10.0 ** rng.uniform(-2.5, -1.0))
    hi = float(lo * 10.0 ** rng.uniform(1.5, 3.0))
    M3 = perturbed_gains(rng, lo, hi, 3)
    gains3 = write("gains3.json", json.dumps({"M": 3, "alpha": M3[0], "betas": M3[1]}))
    write("alpha0.json", json.dumps({"M": 2, "alpha": 0.0, "betas": [-0.5]}))
    n = int(rng.integers(20, 40))
    graph_edges = ring_chords(rng, n)
    write("graph.txt", "".join(f"{i} {j} {w!r}\n" for i, j, w in graph_edges))
    iv_spec = f"{lo!r},{hi!r}"
    c = float(10.0 ** rng.uniform(-2.0, -1.0))
    set_spec = f"{c!r}:{c * 1.3!r},{float(rng.uniform(0.6, 1.0))!r}"
    nu_star = closed_form_nu(lo, hi)
    # Gains for the simulate op: the optimal tuning of the graph's nonzero
    # Laplacian spectrum, computed here with numpy alone.
    lap = np.zeros((n, n))
    for i, j, w in graph_edges:
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    eigs = np.linalg.eigvalsh(lap)
    nz = eigs[eigs > 1e-9]
    ag, bg = closed_form_gains(float(nz.min()), float(nz.max()), 2)
    write("graph_gains.json", json.dumps({"M": 2, "alpha": ag, "betas": bg}))
    steps = int(rng.integers(40, 80))
    theta = float(rng.uniform(0.2, 3.0))

    def expect_json(test):
        def check(stdout):
            try:
                d = _strict_json(stdout)
            except ValueError as exc:
                return f"stdout is not JSON: {exc}"
            return test(d)
        return check

    def tune_ok(d):
        return None if abs(d["nu_star"] - nu_star) <= 1e-9 else f"nu_star {d['nu_star']} != {nu_star}"

    def guarantee_ok(d):
        return None if d["nu"] >= nu_star - 1e-9 else f"nu {d['nu']} below nu*={nu_star}"

    def certify_ok(d):
        return None if d["witness"]["found"] else "witness not found"

    def field_ok(d):
        err = certify_ok(d)
        if err:
            return err
        try:
            with open(path("field.json")) as fh:
                f = _strict_json(fh.read())
        except (OSError, ValueError) as exc:
            return f"field file unreadable: {exc}"
        return None if len(f["type_mask"]) == 48 * 48 else "field size wrong"

    def spectrum_ok(d):
        return None if len(d["eigenvalues"]) == n else "wrong eigenvalue count"

    def search_ok(d):
        return None if d["report"]["nu"] > 0 else "bad nu"

    def simulate_ok(stdout):
        lines = stdout.strip().splitlines()
        if not lines or lines[0] != "t,residual,spread,rms,mean":
            return "missing CSV header"
        try:
            rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        except ValueError:
            return "unparseable CSV row"
        return None if len(rows) == steps + 1 else f"{len(rows)} rows, expected {steps + 1}"

    specs = [
        # (kind, argv, documented exit code, stdout check, known defect)
        ("tune", ["tune", "--interval", iv_spec], 0, expect_json(tune_ok), None),
        ("guarantee", ["guarantee", "--gains", gains3, "--set", f"{lo!r}:{hi!r}"], 0,
         expect_json(guarantee_ok), None),
        ("certify", ["certify", "--gains", gains3, "--interval", iv_spec], 0,
         expect_json(certify_ok), None),
        ("certify-field", ["certify", "--gains", gains3, "--interval", iv_spec,
                           "--field", repr(theta), "--window=-2:2:-2:2:48",
                           "--field-out", path("field.json")], 0, expect_json(field_ok), None),
        ("spectrum", ["spectrum", "--graph", path("graph.txt")], 0, expect_json(spectrum_ok), None),
        ("simulate", ["simulate", "--graph", path("graph.txt"), "--gains",
                      path("graph_gains.json"), "--steps", str(steps),
                      "--seed-rng", str(int(rng.integers(1000)))], 0, simulate_ok, None),
        ("search", ["search", "--set", set_spec, "--M", "3", "--budget", "30",
                    "--seed-rng", str(int(rng.integers(1000)))], 0, expect_json(search_ok), None),
        ("parse-error", ["tune", "--interval", f"{lo!r};{hi!r}"], 2, None, None),
        ("usage-error", ["guarantee", "--gains", gains3], 2, None, None),
        ("domain-error", ["tune", "--interval", f"{hi!r},{lo!r}"], 3, None, None),
        ("alpha-zero", ["guarantee", "--gains", path("alpha0.json"), "--set", iv_spec], 3, None, None),
        ("inf-interval", ["tune", "--interval", f"{lo!r},inf"], 3, None, "inf-interval"),
        ("bad-x0", ["simulate", "--graph", path("graph.txt"), "--gains",
                    path("graph_gains.json"), "--steps", "5", "--x0", "1,2,x"], 2, None,
         "x0-exit-code"),
        ("bad-window", ["certify", "--gains", gains3, "--interval", iv_spec,
                        "--field", "0.5", "--window=-2:2:oops",
                        "--field-out", path("field_bad.json")], 2, None, "window-exit-code"),
        ("refine-tol-hang", ["guarantee", "--gains", gains3, "--set", f"{lo!r}:{hi!r}",
                             "--refine-tol", "-1"], 3, None, "refine-tol-hang"),
    ]
    ops = [_cli_op(kind, child + argv, code, chk, defect, env, root)
           for kind, argv, code, chk, defect in specs]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _cli_op(kind, argv, want_code, check_stdout, defect, env, root):
    def run():
        try:
            r = subprocess.run(argv, env=env, cwd=root, capture_output=True,
                               text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return None, "", exc.stderr.decode() if isinstance(exc.stderr, bytes) else (exc.stderr or "")
        return r.returncode, r.stdout, r.stderr

    def check(res):
        code, stdout, stderr = res
        info = {"exit": code, "want": want_code}
        if code is None:
            return f"timed out after {CLI_TIMEOUT_S} s", info
        if code != want_code:
            return f"exit {code}, documented {want_code}", info
        if want_code != 0:
            return (None if "error" in stderr or "usage" in stderr else "no error message"), info
        return check_stdout(stdout), info

    return Op(kind, run, check, known_defect=KNOWN_DEFECTS[defect] if defect else None)


WORKLOADS = ("interval-certify", "structured-search", "consensus-graph", "cli-cold")


def build(name: str, seed: int, root: str, workdir: str, child=None) -> list[Op]:
    if name == "interval-certify":
        return interval_certify(seed)
    if name == "structured-search":
        return structured_search(seed)
    if name == "consensus-graph":
        return consensus_graph(seed)
    if name == "cli-cold":
        return cli_cold(seed, root, workdir, child)
    raise ValueError(f"unknown workload {name!r}")


def warmup(name: str) -> None:
    """First-call costs users pay once per process (LAPACK set-up, lazy
    numpy submodules), taken on tiny fixed inputs before the clock."""
    if name == "cli-cold":
        return
    iv = spectral.SpectralInterval(0.1, 2.0)
    accel.guarantee(accel.tune_theorem3(iv, M=3).gains, iv, grid=33)
    certify.claim6_witness(certify.gains_to_claim_coeffs(accel.Gains(3, 1.0, (-0.3, 0.05)), iv))
    if name == "consensus-graph":
        edges = tuple(ring_chords(np.random.default_rng(0), 60))
        L = spectral.laplacian(spectral.WeightedGraph(60, edges))
        spectral.symmetric_eigenvalues(L)
        dynamics.IterationProblem(L.entries, np.zeros(60), np.ones(60))
