"""memaccel benchmark: one command, four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck --seed N [--workload NAME ...]

Workloads: interval-certify, structured-search, consensus-graph, cli-cold
(see bench/README.md for what each one stresses and why).

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off. Set-up is timed in several fresh worker processes and the
median is reported as ``setup_s``. With ``--trace 1`` a separate run wraps
memaccel's public functions and reports the per-layer metrics, including
the tracing overhead. ``--selfcheck`` makes two traced runs with the same
seed in separate processes and checks that every per-layer count repeats
exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, all eight end-to-end metrics, tail percentile, failures) is
written to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("interval-certify", "structured-search", "consensus-graph", "cli-cold")

# Metrics of the final JSON line with --trace 0: the end-to-end metrics
# that BENCHMARK.json bounds. They exist on every workload, are never
# zero, and average over the whole run.
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MiB")]
# Printed and recorded with them. The latency order statistics swing with
# the host's speed more than the run-wide averages do (see README.md);
# the others are zero, or defined on one workload only.
EXTRA = [("op_ms_p50", "ms"), ("op_ms_tail", "ms"), ("failed_frac", "fraction"),
         ("node_steps_per_s", "1/s"), ("search_nu_ratio", "ratio")]
BLAS_THREADS = 1
SETUP_RUNS = 5          # set-ups timed per untraced run; the median is setup_s
RUN_LIMIT_S = 170.0     # the whole run, all workers included


def worker_env() -> dict:
    """Environment of the workers. BLAS runs one thread: on a shared
    2-CPU host a second BLAS thread makes dense eigh about 1.5x faster
    but doubles its run-to-run spread."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, env, deadline, setup_only=False, importtime=False):
    """Start one worker and wait for its JSON line. Returns the parsed
    object, or raises RuntimeError with the worker's stderr tail."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    stderr_path = os.path.join(OUT, f"worker-{args.workload}-seed{args.seed}.err")
    with open(stderr_path, "w") as err:
        cmd += ["--spawned-at", repr(time.monotonic())]
        # The worker and the CLI children it starts form a process group of
        # their own, so every way out of here can stop all of them.
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker exceeded the run's time limit") from None
        finally:
            if proc.poll() is None or proc.returncode != 0:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(stderr_path) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), stderr_path


def run_env(nproc, env, seed):
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": nproc,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "caches": _caches(),
        "seed": seed,
    }


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, src).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _caches():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
            tag = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[tag] = size
    except OSError:
        pass
    return out


def measure(args):
    nproc = len(os.sched_getaffinity(0))
    env = worker_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": run_env(nproc, env, args.seed)}
    if args.trace:
        res, err_path = spawn(args, env, deadline, importtime=True)
        record["env"].update(res.pop("env"))
        metrics = dict(res["metrics"])
        if args.workload != "cli-cold":
            # In-process workloads: the worker's own import, from its stderr.
            with open(err_path) as fh:
                imports = tracer.import_times(fh.read())
            for pkg in ("memaccel", "scipy", "numpy"):
                metrics[f"cli.import.{pkg}_s"] = imports[pkg]
        units = dict(tracer.LAYER_METRICS)
        correct = res["unexpected_failures"] == 0 and res["counts_repeat"]
        record.update(res, metrics=metrics)
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        _summary_traced(args, res, metrics, units)
    else:
        # Set-ups are timed before and after the measured worker, so that
        # they sample the host's speed over the whole run, not its start.
        def setup_once():
            return spawn(args, env, deadline, setup_only=True)[0]["setup_s"]

        setups = [setup_once() for _ in range(SETUP_RUNS // 2)]
        res, _ = spawn(args, env, deadline)
        record["env"].update(res.pop("env"))
        setups.append(res["setup_s"])
        setups += [setup_once() for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2)]
        metrics = dict(res["metrics"], setup_s=statistics.median(setups))
        correct = res["unexpected_failures"] == 0
        record.update(res, metrics=metrics, setup_samples=setups)
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
        _summary(args, res, metrics, setups)
    record["correct"] = correct
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("env: " + json.dumps(record["env"]))
    print(f"record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out_metrics}))
    return 0


def _summary(args, res, metrics, setups):
    t = res["tail"]
    print(f"{args.workload} seed {args.seed}: {res['passes']} passes x "
          f"{res['ops_per_pass']} ops, {res['attempted']} attempted, {res['failed']} failed "
          f"({res['unexpected_failures']} not known defects)")
    for name, unit in END_TO_END + EXTRA:
        v = metrics.get(name)
        note = ""
        if name == "setup_s":
            note = f"median of {len(setups)} set-ups"
        elif name == "op_ms_tail":
            note = f"p{t['percentile']} of {t['ops']} ops, {t['beyond']} beyond"
        elif name == "failed_frac":
            note = f"known-defect share of the mix {res['known_defect_share']:.4f}"
        shown = "n/a (other workloads only)" if v is None else f"{v:.6g} {unit}"
        print(f"  {name:<18} {shown:<22} {note}")
    for f in res["failures"]:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "FINDING"
        print(f"  failed x{f['count']} {f['kind']}: {f['reason']} [{tag}]")


def _summary_traced(args, res, metrics, units):
    print(f"{args.workload} seed {args.seed} traced: {res['traced_passes']} traced passes, "
          f"counts repeat across passes: {res['counts_repeat']}; values are per pass")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:.6g} {unit}")


def selfcheck(args):
    """Two traced runs per workload, same seed, separate processes with
    different hash seeds: every per-op count must repeat exactly."""
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for name in args.workload_list:
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(worker_env(), PYTHONHASHSEED=hash_seed)
            a = argparse.Namespace(workload=name, seed=args.seed, seconds=1, trace=1)
            res, _ = spawn(a, env, time.monotonic() + RUN_LIMIT_S, importtime=True)
            runs.append(res["op_counts"])
        same = runs[0] == runs[1]
        ok &= same
        print(f"{name}: per-op counts {'repeat exactly' if same else 'DIFFER'} "
              f"over {len(runs[0])} ops")
        if not same:
            for i, (x, y) in enumerate(zip(*runs)):
                if x != y:
                    diff = {k: (x.get(k), y.get(k)) for k in set(x) | set(y) if x.get(k) != y.get(k)}
                    print(f"  op {i}: {diff}")
    return 0 if ok else 1


def main():
    # A terminated run unwinds through spawn(), which stops its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "memaccel", "__init__.py")):
        sys.stderr.write("error: src/memaccel not found next to bench/; "
                         "run from a checkout of the repository\n")
        return 2
    if args.selfcheck:
        args.workload_list = args.workload or list(WORKLOADS)
        return selfcheck(args)
    if not args.workload or len(args.workload) != 1:
        ap.error("give exactly one --workload")
    args.workload = args.workload[0]
    try:
        return measure(args)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
