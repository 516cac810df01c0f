"""Command-line interface.

Subcommands: tune, guarantee, search, simulate, certify, spectrum.
All numeric output is printed with 12 significant digits and runs are
fully deterministic for a fixed --seed-rng. Exit codes: 0 success,
2 usage or parse error, 3 domain error or a gains or drops file of
the wrong JSON shape (message on stderr).

File formats:
  gains file    JSON {"M": k, "alpha": a, "betas": [...]}
  spectral set  comma-separated items, each "lo:hi" or "v",
                e.g. "0.0122:0.0182,0.9878"
  drops file    JSON mapping step -> list of [i, j] edges,
                e.g. {"0": [[0, 1]], "3": [[1, 2], [0, 1]]}
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import accel, certify, dynamics, spectral
from .errors import MemaccelError, ParseError


class _Full(float):
    """Float serialized at full precision (gains meant to be re-read;
    12-digit rounding would disturb the guarantee at optimal tunings,
    where root moduli react to the square root of a perturbation)."""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, _Full):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, complex):
        return "[" + _fmt(v.real) + ", " + _fmt(v.imag) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _fmt(x) for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def _emit(payload, path: str | None):
    text = _fmt(payload) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_interval(text: str) -> spectral.SpectralInterval:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise ParseError(0, text) from None
    return spectral.SpectralInterval(lo, hi)


def _parse_set(text: str) -> spectral.SpectralSet:
    intervals, points = [], []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            if ":" in item:
                lo, hi = (float(v) for v in item.split(":"))
                intervals.append(spectral.SpectralInterval(lo, hi))
            else:
                points.append(float(item))
        except ValueError:
            raise ParseError(0, item) from None
    return spectral.SpectralSet(intervals=tuple(intervals), points=tuple(points))


def _json_int(v, what: str) -> int:
    """An integer read from JSON; integral floats pass, bools and
    non-integral values raise ValueError instead of being truncated."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{what} must be an integer, got {json.dumps(v)}")


def _json_float(v, what: str) -> float:
    """A number read from JSON; bools, strings and other values raise
    ValueError instead of being converted."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ValueError(f"{what} must be a number, got {json.dumps(v)}")


def _load_gains(path: str) -> accel.Gains:
    with open(path) as fh:
        data = json.load(fh)
    shape = ValueError(f'gains file {path} is not JSON {{"M": k, "alpha": a, "betas": [...]}}')
    if not isinstance(data, dict) or not isinstance(data.get("betas", []), list):
        raise shape
    try:
        M = _json_int(data["M"], f"M in gains file {path}")
        alpha = _json_float(data["alpha"], f"alpha in gains file {path}")
        betas = tuple(_json_float(b, f"beta in gains file {path}")
                      for b in data.get("betas", []))
    except TypeError:
        raise shape from None
    return accel.Gains(M=M, alpha=alpha, betas=betas)


def _load_drops(path: str) -> dict[int, frozenset[tuple[int, int]]]:
    with open(path) as fh:
        raw = json.load(fh)
    shape = ValueError(f'drops file {path} is not JSON {{"step": [[i, j], ...], ...}}')
    if not isinstance(raw, dict) or not all(isinstance(e, list) for e in raw.values()):
        raise shape
    node = f"node index in drops file {path}"
    try:
        return {int(t): frozenset((_json_int(i, node), _json_int(j, node)) for i, j in edges)
                for t, edges in raw.items()}
    except TypeError:
        raise shape from None


def _gains_dict(g: accel.Gains) -> dict:
    return {"M": g.M, "alpha": _Full(g.alpha), "betas": [_Full(b) for b in g.betas]}


def _report_dict(rep: accel.GuaranteeReport) -> dict:
    return {"nu": rep.nu, "worst_lambda": rep.worst_lambda, "refined": rep.refined}


def _write_samples_csv(rep: accel.GuaranteeReport, path: str):
    with open(path, "w") as fh:
        fh.write("lambda,max_root_modulus\n")
        for lam, mod in rep.samples:
            fh.write(f"{lam:.12g},{mod:.12g}\n")


def _cmd_tune(args) -> int:
    iv = _parse_interval(args.interval)
    if args.M == 1:
        alpha, mu = accel.tune_memoryless(iv)
        _emit({"M": 1, "alpha": _Full(alpha), "betas": [], "mu": mu,
               "nu_star": mu, "degenerate": mu == 0.0}, args.output)
        return 0
    t = accel.tune_theorem3(iv, M=args.M)
    _emit({"M": args.M, "alpha": _Full(t.alpha_star),
           "betas": [_Full(b) for b in t.gains.betas],
           "mu": t.mu, "nu_star": t.nu_star, "degenerate": t.degenerate},
          args.output)
    return 0


def _cmd_guarantee(args) -> int:
    g = _load_gains(args.gains)
    s = _parse_set(args.set)
    rep = accel.guarantee(g, s, grid=args.grid, refine_tol=args.refine_tol)
    _emit(_report_dict(rep), args.output)
    if args.samples_csv:
        _write_samples_csv(rep, args.samples_csv)
    return 0


def _cmd_search(args) -> int:
    s = _parse_set(args.set)
    seed = _load_gains(args.seed_gains) if args.seed_gains else None
    g, rep = accel.search_gains(s, M=args.M, seed=seed, budget=args.budget,
                                rng_seed=args.seed_rng)
    _emit({"gains": _gains_dict(g), "report": _report_dict(rep)}, args.output)
    if args.samples_csv:
        _write_samples_csv(rep, args.samples_csv)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.graph) as fh:
        graph = spectral.load_edge_list(fh.read())
    g = _load_gains(args.gains)
    L = spectral.laplacian(graph)
    prob = dynamics.IterationProblem(L.entries, np.zeros(graph.n),
                                     _initial_state(args, graph.n))
    schedule = None
    if args.drops:
        schedule = dynamics.DropSchedule(graph, _load_drops(args.drops))
    trace = dynamics.simulate(prob, g, args.steps, drops=schedule)
    text = dynamics.trace_to_csv(trace)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if trace.diverged:
        sys.stderr.write(f"warning: divergence detected at step {trace.diverged_at}, "
                         "run aborted early\n")
    return 0


def _initial_state(args, n: int) -> np.ndarray:
    if args.x0:
        try:
            vals = [float(v) for v in args.x0.split(",")]
        except ValueError:
            raise ParseError(0, args.x0) from None
        if len(vals) != n:
            raise ParseError(0, args.x0)
        return np.asarray(vals)
    rng = np.random.default_rng(args.seed_rng)
    return rng.standard_normal(n)


def _cmd_certify(args) -> int:
    g = _load_gains(args.gains)
    iv = _parse_interval(args.interval)
    c = certify.gains_to_claim_coeffs(g, iv)
    p8 = certify.prop8_check(c)
    w = certify.claim6_witness(c, theta_samples=args.theta_samples)
    payload = {
        "claim_coeffs": {"M": c.M, "nu": c.nu, "a": list(c.a)},
        "prop8": {"kind": p8.kind, "root": p8.root} if p8.root is not None
        else {"kind": p8.kind},
        "witness": {"found": w.found, "theta": w.theta, "root": w.root,
                    "modulus": w.modulus, "scanned": w.scanned},
    }
    _emit(payload, args.output)
    if args.field is not None:
        try:
            lo_r, hi_r, lo_i, hi_i, res = args.window.split(":")
            re_range, im_range = (float(lo_r), float(hi_r)), (float(lo_i), float(hi_i))
            resolution = int(res)
        except ValueError:
            raise ParseError(0, args.window) from None
        field = certify.partition_field(c, args.field, re_range=re_range,
                                        im_range=im_range, resolution=resolution)
        with open(args.field_out, "w") as fh:
            fh.write(field.to_json() + "\n")
    return 0


def _cmd_spectrum(args) -> int:
    with open(args.graph) as fh:
        graph = spectral.load_edge_list(fh.read())
    eigs = spectral.symmetric_eigenvalues(spectral.laplacian(graph))
    iv = spectral.nonzero_spectral_interval(eigs, zero_tol=args.zero_tol)
    _emit({"eigenvalues": eigs.tolist(), "nonzero_interval": [iv.lo, iv.hi]},
          args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memaccel",
        description="Tune, certify and simulate memory-accelerated "
                    "symmetric linear iterations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="closed-form optimal tuning for an interval")
    p.add_argument("--interval", required=True, metavar="LO,HI")
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("guarantee", help="worst-case guarantee of gains over a set")
    p.add_argument("--gains", required=True, metavar="FILE")
    p.add_argument("--set", required=True, metavar="SPEC")
    p.add_argument("--grid", type=int, default=accel.DEFAULT_GRID)
    p.add_argument("--refine-tol", type=float, default=accel.DEFAULT_REFINE_TOL)
    p.add_argument("--samples-csv", metavar="FILE")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_guarantee)

    p = sub.add_parser("search", help="derivative-free gain search over a set")
    p.add_argument("--set", required=True, metavar="SPEC")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--budget", type=int, default=3000)
    p.add_argument("--seed-rng", type=int, default=0)
    p.add_argument("--seed-gains", metavar="FILE")
    p.add_argument("--samples-csv", metavar="FILE")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("simulate", help="simulate the iteration on a graph")
    p.add_argument("--graph", required=True, metavar="EDGELIST")
    p.add_argument("--gains", required=True, metavar="FILE")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--drops", metavar="FILE")
    p.add_argument("--x0", metavar="V0,V1,...")
    p.add_argument("--seed-rng", type=int, default=0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="optimality certificate machinery for gains")
    p.add_argument("--gains", required=True, metavar="FILE")
    p.add_argument("--interval", required=True, metavar="LO,HI")
    p.add_argument("--theta-samples", type=int, default=certify.DEFAULT_THETA_SAMPLES)
    p.add_argument("--field", type=float, metavar="THETA")
    p.add_argument("--window", default="-2:2:-2:2:256",
                   metavar="REMIN:REMAX:IMMIN:IMMAX:RES")
    p.add_argument("--field-out", default="field.json", metavar="FILE")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("spectrum", help="Laplacian eigenvalues of a graph")
    p.add_argument("--graph", required=True, metavar="EDGELIST")
    p.add_argument("--zero-tol", type=float, default=1e-9)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (MemaccelError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
