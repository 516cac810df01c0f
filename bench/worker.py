"""One benchmark worker process: set up a workload, run it, report.

Started by ``run.py`` as a fresh interpreter, so ``import memaccel`` and
the seeded input generation land in the set-up time. With ``--setup-only``
the worker exits once set up; otherwise it replays the workload's op
list pass after pass and prints one JSON line with its measurements.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import memaccel  # noqa: E402  (timed as part of set-up)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# An in-process op that runs this long is stopped and counted as failed.
OP_TIMEOUT_S = 60.0
# No pass starts that would end later than this after the first op,
# whatever --seconds says, so a run ends well inside its 180 s limit.
MAX_OP_SECONDS = 110.0
MIN_OPS = 30


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def percentile(xs, p):
    """Linearly interpolated percentile, as numpy's default computes it."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100.0
    f = math.floor(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def run_op(op, in_process):
    """Time one op; returns (seconds, output, failure reason or None)."""
    if in_process:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        out = op.run()
        err = None
    except OpTimeout:
        out, err = None, f"timed out after {OP_TIMEOUT_S} s"
    except Exception as exc:  # a failed op is counted, never fatal
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t0
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    return dt, out, err


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--out", required=True, help="directory for spans and CLI files")
    a = ap.parse_args()

    name = a.workload
    workdir = os.path.join(a.out, f"{name}-seed{a.seed}")
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.build(name, a.seed, ROOT, workdir)
    workloads.warmup(name)
    setup_s = time.monotonic() - a.spawned_at
    if a.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    in_process = name != "cli-cold"
    signal.signal(signal.SIGALRM, _alarm)
    tr = tracing.Tracer()
    child_spans = os.path.join(workdir, "child_spans.json")
    traced_ops = ops
    if a.trace:
        tracing.install(tr)
        if not in_process:
            child = [sys.executable, "-X", "importtime",
                     os.path.join(ROOT, "bench", "cli_child.py"), child_spans]
            traced_ops = workloads.build(name, a.seed, ROOT, workdir, child=child)

    K = len(ops)
    records = []          # (pass, index, seconds, failure, known defect, info)
    pass_seconds = []
    child_imports, after_import = [], []
    t_loop = time.monotonic()
    while True:
        p = len(pass_seconds)
        traced = bool(a.trace) and p >= 1
        op_list = traced_ops if traced else ops
        total = 0.0
        for i, op in enumerate(op_list):
            tr.op = p * K + i
            tr.active = traced
            if traced and not in_process and os.path.exists(child_spans):
                os.remove(child_spans)
            dt, out, err = run_op(op, in_process)
            tr.active = False
            total += dt
            info = {}
            if err is None:
                try:
                    err, info = op.check(out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if traced and not in_process:
                _merge_child(tr, child_spans, out, child_imports, after_import)
            records.append((p, i, dt, err, op.known_defect, info))
        pass_seconds.append(total)
        ran = sum(pass_seconds)
        mean_pass = ran / len(pass_seconds)
        # Untraced runs make at least MIN_OPS ops, so the tail percentile
        # has ten ops beyond it; traced runs one untraced and one traced pass.
        enough = len(pass_seconds) >= 2 if a.trace else len(records) >= MIN_OPS
        if enough and ran + 0.5 * mean_pass >= a.seconds:
            break
        if time.monotonic() - t_loop + mean_pass > MAX_OP_SECONDS:
            break

    result = {
        "setup_s": setup_s,
        "passes": len(pass_seconds),
        "ops_per_pass": K,
        "env": _env(),
    }
    if a.trace:
        result.update(_traced_result(tr, records, pass_seconds, K, in_process,
                                     child_imports, after_import))
        tr.dump(os.path.join(a.out, f"spans-{name}-seed{a.seed}.jsonl"))
    else:
        result.update(_untraced_result(name, ops, records, in_process))
    print(json.dumps(result), flush=True)
    return 0


def _merge_child(tr, path, out, child_imports, after_import):
    """Fold a traced CLI child's spans into this run's span list and read
    its import times from the ``-X importtime`` lines on its stderr."""
    if out is not None:
        child_imports.append(tracing.import_times(out[2]))
    if not os.path.exists(path):
        return
    with open(path) as fh:
        data = json.load(fh)
    base = len(tr.spans)
    for name, t0, t1, parent, _, counts in data["spans"]:
        tr.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, tr.op, counts])
    after_import.append(data["after_import_s"])


def _untraced_result(name, ops, records, in_process):
    lat_ms = [r[2] * 1e3 for r in records]
    n = len(lat_ms)
    busy_s = sum(r[2] for r in records)
    failed = [r for r in records if r[3] is not None]
    pct = workloads.TAIL_PCT[name]
    tail = percentile(lat_ms, pct)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    metrics = {
        "setup_s": None,  # filled in by run.py from several set-ups
        "ops_per_s": n / busy_s,
        "op_ms_p50": percentile(lat_ms, 50),
        "op_ms_tail": tail,
        "failed_frac": len(failed) / n,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if name == "consensus-graph":
        metrics["node_steps_per_s"] = sum(r[5].get("node_steps", 0) for r in records) / busy_s
    if name == "structured-search":
        ratios = [r[5]["nu_ratio"] for r in records if "nu_ratio" in r[5]]
        metrics["search_nu_ratio"] = (math.exp(sum(math.log(x) for x in ratios) / len(ratios))
                                      if ratios else None)
    by_kind = {}
    for r in records:
        by_kind.setdefault(ops[r[1]].kind, []).append(r[2] * 1e3)
    unexpected = [r for r in failed if r[4] is None]
    defect_ops = sum(1 for op in ops if op.known_defect)
    return {
        "metrics": metrics,
        "attempted": n,
        "failed": len(failed),
        "unexpected_failures": len(unexpected),
        "tail": {"percentile": pct, "ops": n, "beyond": sum(x > tail for x in lat_ms)},
        "known_defect_share": defect_ops / len(ops),
        "by_kind": {k: {"ops": len(v), "p50_ms": percentile(v, 50)} for k, v in sorted(by_kind.items())},
        "failures": _failure_summary(ops, failed),
    }


def _failure_summary(ops, failed):
    seen = {}
    for p, i, _, err, defect, _ in failed:
        key = (ops[i].kind, err)
        seen.setdefault(key, {"kind": ops[i].kind, "reason": err, "known_defect": defect,
                              "count": 0})["count"] += 1
    return list(seen.values())


def _traced_result(tr, records, pass_seconds, K, in_process, child_imports, after_import):
    traced_passes = list(range(1, len(pass_seconds)))
    op_ids = {p * K + i for p in traced_passes for i in range(K)}
    m = tracing.layer_metrics(tr.spans, op_ids, len(traced_passes))
    med = (lambda xs: percentile(xs, 50) if xs else 0.0)
    m["cli.import.memaccel_s"] = med([c["memaccel"] for c in child_imports])
    m["cli.import.scipy_s"] = med([c["scipy"] for c in child_imports])
    m["cli.import.numpy_s"] = med([c["numpy"] for c in child_imports])
    m["cli.after_import_s"] = med(after_import)
    mismatch = sum(1 for r in records
                   if r[0] >= 1 and "want" in r[5] and r[5]["exit"] != r[5]["want"])
    m["cli.exit_mismatch"] = mismatch / len(traced_passes)
    traced_mean = sum(pass_seconds[1:]) / len(traced_passes)
    m["trace.overhead_ms"] = (traced_mean - pass_seconds[0]) / K * 1e3
    # Per-op counts of every traced pass; they must repeat exactly.
    per_op = [[tracing.pass_counts(tr.spans, {p * K + i}) for i in range(K)]
              for p in traced_passes]
    for r in records:
        if r[0] >= 1 and not in_process:
            per_op[r[0] - 1][r[1]]["exit"] = r[5].get("exit")
    repeat = all(po == per_op[0] for po in per_op[1:])
    unexpected = sum(1 for r in records if r[3] is not None and r[4] is None)
    return {
        "metrics": m,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3] is not None),
        "unexpected_failures": unexpected,
        "counts_repeat": repeat,
        "op_counts": per_op[0],
        "traced_passes": len(traced_passes),
    }


def _env():
    import numpy as np
    import scipy
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "memaccel": getattr(memaccel, "__version__", None),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is optional
        env["blas"] = None
    return env


if __name__ == "__main__":
    sys.exit(main())
