"""Span tracer for the traced benchmark run.

The tracer wraps memaccel's public functions from outside the package:
each wrapper replaces the module attribute at the name its caller looks
up (``memaccel.accel.guarantee`` is the name ``search_gains`` calls,
``memaccel.dynamics.laplacian`` the name ``DropSchedule.laplacian_at``
calls). Spans are kept in memory as (name, start, end, parent, op,
counts) and written out once the run ends. Counts are read from return
values only, so nothing inside ``src/`` changes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, counts]
        self.stack = []
        self.op = -1
        self.active = False

    def wrap(self, owner, attr, name, counts=None):
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name``; ``counts(args, kwargs, result)`` gives the span's counts."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                span[5] = {"failed": 1}
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tracer: Tracer):
    """Wrap every traced public function of memaccel."""
    import numpy as np

    from memaccel import accel, certify, dynamics, polyroots, spectral

    def guarantee_counts(args, kwargs, rep):
        s = args[1] if len(args) > 1 else kwargs["s"]
        grid = args[2] if len(args) > 2 else kwargs.get("grid", accel.DEFAULT_GRID)
        if isinstance(s, spectral.SpectralInterval):
            n_iv, n_pt = 1, 0
        else:
            n_iv, n_pt = len(s.intervals), len(s.points)
        samples = len(rep.samples)
        return {"samples": samples,
                "refine_candidates": samples - grid * n_iv - n_pt,
                "search_eval": int("grid" in kwargs),
                "nu": rep.nu}

    def search_counts(args, kwargs, out):
        s = args[0] if args else kwargs["s"]
        M = args[1] if len(args) > 1 else kwargs["M"]
        seed = args[2] if len(args) > 2 else kwargs.get("seed")
        if isinstance(s, spectral.SpectralInterval):
            s = spectral.SpectralSet.from_interval(s)
        if seed is None:
            seed = accel.tune_theorem3(s.hull(), M=M).gains
        return {"returned_seed": int(out[0] == seed)}

    def simulate_counts(args, kwargs, tr):
        p = args[0] if args else kwargs["p"]
        n = int(np.asarray(p.A).shape[0])
        return {"steps": tr.T, "node_steps": n * tr.T, "diverged": int(tr.diverged)}

    tracer.wrap(polyroots, "roots", "polyroots.roots")
    tracer.wrap(accel, "guarantee", "accel.guarantee", guarantee_counts)
    tracer.wrap(accel, "max_root_moduli", "accel.max_root_moduli",
                lambda a, k, out: {"lambdas": int(np.size(a[1] if len(a) > 1 else k["lambdas"]))})
    tracer.wrap(accel, "search_gains", "accel.search_gains", search_counts)
    tracer.wrap(certify, "claim6_witness", "certify.claim6_witness",
                lambda a, k, w: {"scanned": w.scanned, "found": int(w.found)})
    tracer.wrap(certify, "prop8_check", "certify.prop8_check")
    tracer.wrap(certify, "partition_field", "certify.partition_field")
    tracer.wrap(spectral, "laplacian", "spectral.laplacian")
    tracer.wrap(dynamics, "laplacian", "spectral.laplacian")
    tracer.wrap(spectral, "symmetric_eigenvalues", "spectral.symmetric_eigenvalues")
    tracer.wrap(dynamics, "IterationProblem", "dynamics.IterationProblem")
    tracer.wrap(dynamics, "simulate", "dynamics.simulate", simulate_counts)
    tracer.wrap(dynamics.DropSchedule, "laplacian_at", "dynamics.DropSchedule.laplacian_at")


# Per-layer metrics: (metric name, unit). Times are self times; every
# value is per pass over the workload's seeded op list, so counts from
# two traced runs with the same seed must agree exactly.
LAYER_METRICS = [
    ("polyroots.roots.calls", "count"),
    ("polyroots.roots.self_s", "s"),
    ("polyroots.roots.failed", "count"),
    ("accel.guarantee.calls", "count"),
    ("accel.guarantee.self_s", "s"),
    ("accel.guarantee.samples", "count"),
    ("accel.guarantee.refine_candidates", "count"),
    ("accel.max_root_moduli.calls", "count"),
    ("accel.max_root_moduli.lambdas", "count"),
    ("accel.max_root_moduli.self_s", "s"),
    ("accel.search_gains.self_s", "s"),
    ("accel.search_gains.evals", "count"),
    ("accel.search_gains.useful_ratio", "ratio"),
    ("accel.search_gains.returned_seed", "count"),
    ("certify.claim6_witness.calls", "count"),
    ("certify.claim6_witness.self_s", "s"),
    ("certify.claim6_witness.scanned", "count"),
    ("certify.claim6_witness.found_ratio", "ratio"),
    ("certify.prop8_check.self_s", "s"),
    ("certify.partition_field.self_s", "s"),
    ("spectral.laplacian.calls", "count"),
    ("spectral.laplacian.self_s", "s"),
    ("spectral.symmetric_eigenvalues.self_s", "s"),
    ("dynamics.IterationProblem.self_s", "s"),
    ("dynamics.simulate.calls", "count"),
    ("dynamics.simulate.self_s", "s"),
    ("dynamics.simulate.steps", "count"),
    ("dynamics.simulate.node_steps", "count"),
    ("dynamics.simulate.diverged", "count"),
    ("dynamics.DropSchedule.laplacian_at.calls", "count"),
    ("dynamics.DropSchedule.laplacian_at.self_s", "s"),
    ("cli.import.memaccel_s", "s"),
    ("cli.import.scipy_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.after_import_s", "s"),
    ("cli.exit_mismatch", "count"),
    ("trace.overhead_ms", "ms"),
]

def aggregate(spans, ops):
    """Totals over the spans of the given op ids: calls, self time and
    summed counts per span name, plus the search-eval tallies."""
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    mine = [(i, s) for i, s in enumerate(spans) if s[4] in ops]
    for i, s in mine:
        name = s[0]
        calls[name] += 1
        self_s[name] += (s[2] - s[1]) - child_time[i]
        for k, v in s[5].items():
            if k != "nu":
                counts[f"{name}.{k}"] += v
    # Search evals: guarantee children of a search_gains span called at the
    # search grid; "useful" evals lowered the running best.
    evals = defaultdict(list)
    for _, s in mine:
        if s[0] == "accel.guarantee" and s[5].get("search_eval") and s[3] >= 0:
            evals[s[3]].append(s[5]["nu"])
    n_evals = useful = 0
    for nus in evals.values():
        best = float("inf")
        for nu in nus:
            n_evals += 1
            if nu < best:
                useful += 1
                best = nu
    return calls, self_s, counts, n_evals, useful


def layer_metrics(spans, ops, passes):
    """Per-pass per-layer metrics from the spans of the given op ids,
    which make up ``passes`` traced passes. The ``cli.*`` and ``trace.*``
    metrics are not span-based; the worker adds them."""
    calls, self_s, counts, n_evals, useful = aggregate(spans, ops)
    per = 1.0 / max(passes, 1)
    wit = calls["certify.claim6_witness"]
    special = {
        "accel.search_gains.evals": n_evals * per,
        "accel.search_gains.useful_ratio": useful / n_evals if n_evals else 0.0,
        "certify.claim6_witness.found_ratio":
            counts["certify.claim6_witness.found"] / wit if wit else 0.0,
    }
    m = {}
    for name, _ in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if name.startswith(("cli.", "trace.")):
            continue
        if name in special:
            m[name] = special[name]
        elif stat == "calls":
            m[name] = calls[layer] * per
        elif stat == "self_s":
            m[name] = self_s[layer] * per
        else:
            m[name] = counts[name] * per
    return m


def pass_counts(spans, ops):
    """The exact counts of the spans of one pass, for the repeat check."""
    calls, _, counts, n_evals, useful = aggregate(spans, ops)
    out = {f"{k}.calls": v for k, v in sorted(calls.items())}
    out.update({k: v for k, v in sorted(counts.items())})
    out["accel.search_gains.evals"] = n_evals
    out["accel.search_gains.useful"] = useful
    return out


def import_times(stderr_text, packages=("memaccel", "scipy", "numpy")):
    """Seconds spent importing each package, from ``-X importtime`` output:
    the summed cumulative time of the package's outermost import lines."""
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((depth, raw.strip(), int(parts[1])))
    totals = dict.fromkeys(packages, 0.0)
    # importtime prints children before their parent; walking backwards
    # visits each parent before its children.
    stack = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cum * 1e-6
        stack.append((depth, name))
    return totals
