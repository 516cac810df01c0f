"""Command-line interface.

Subcommands: tune, guarantee, search, simulate, certify, spectrum.
All numeric output is printed with 12 significant digits and runs are
fully deterministic for a fixed --seed-rng. A guarantee report gives
the certified bound nu and the attained nu_lo <= nu at worst_lambda.
Exit codes: 0 success, 2 usage or parse error (a malformed number, a
set item outside (0, inf), a non-finite --field or --window bound),
3 domain error or a gains or drops file of the wrong JSON shape. Every
exit-2 error is found before any numerical work: each subcommand
parses its strings first and only then imports the modules it runs.
``tune`` runs on the numpy-free ``memaccel.tuning`` alone; ``guarantee``
and ``search`` build their gains and set with it (``guarantee`` checks
``--grid`` and ``--refine-tol`` too) before they import ``accel``, so
their exit-3 argument errors load no numpy either. ``spectrum`` prints
a graph's kernel eigenvalues, one per connected component, as exact 0;
a graph with a non-finite edge weight, or whose spectral gap is below
eigvalsh's resolution, exits 3.

File formats:
  gains file    JSON {"M": k, "alpha": a, "betas": [...]}
  spectral set  comma-separated items, each "lo:hi" or "v",
                e.g. "0.0122:0.0182,0.9878"
  drops file    JSON mapping step -> list of [i, j] edges,
                e.g. {"0": [[0, 1]], "3": [[1, 2], [0, 1]]}
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import MemaccelError, ParseError


class _Full(float):
    """Float serialized at full precision (gains meant to be re-read;
    12-digit rounding would disturb the guarantee at optimal tunings,
    where root moduli react to the square root of a perturbation)."""


def _fmt(v) -> str:
    # A numpy value can reach here only from a subcommand that loaded
    # numpy; tune and the argument errors never do.
    np = sys.modules.get("numpy")
    ints = (int, np.integer) if np else int
    floats = (float, np.floating) if np else float
    seqs = (list, tuple, np.ndarray) if np else (list, tuple)

    def fmt(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, _Full):
            return repr(float(v))
        if isinstance(v, ints):
            return str(int(v))
        if isinstance(v, floats):
            return format(float(v), ".12g")
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, complex):
            return "[" + fmt(v.real) + ", " + fmt(v.imag) + "]"
        if isinstance(v, dict):
            return "{" + ", ".join(json.dumps(str(k)) + ": " + fmt(x) for k, x in v.items()) + "}"
        if isinstance(v, seqs):
            return "[" + ", ".join(fmt(x) for x in v) + "]"
        raise TypeError(f"cannot serialize {type(v)}")

    return fmt(v)


def _emit(payload, path: str | None):
    text = _fmt(payload) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# String-level parsing. These helpers use no numpy and no submodule, so
# a malformed argument exits 2 before anything numerical is imported.

def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise ParseError(0, text) from None
    return lo, hi


def _parse_set(text: str) -> list[tuple[float, float]]:
    """(lo, hi) of each item of a spectral-set spec; a point v is (v, v),
    which SpectralSet keeps as an isolated point."""
    items = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            bounds = [float(v) for v in item.split(":")]
            lo, hi = bounds if ":" in item else bounds * 2
            # SpectralInterval's own condition, which SpectralSet applies
            # to points too: an item that fails it is a parse error, as a
            # malformed number is.
            if not 0 < lo <= hi < float("inf"):
                raise ValueError
        except ValueError:
            raise ParseError(0, item) from None
        items.append((lo, hi))
    return items


def _parse_x0(text: str | None) -> list[float] | None:
    if not text:
        return None
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(0, text) from None


def _parse_window(text: str):
    """(re_range, im_range, resolution) of a REMIN:REMAX:IMMIN:IMMAX:RES
    spec with finite bounds."""
    try:
        *bounds, res = text.split(":")
        lo_r, hi_r, lo_i, hi_i = (float(v) for v in bounds)
        if not all(map(math.isfinite, (lo_r, hi_r, lo_i, hi_i))):
            raise ValueError
        return (lo_r, hi_r), (lo_i, hi_i), int(res)
    except ValueError:
        raise ParseError(0, text) from None


def _spectral_set(items):
    from .tuning import SpectralInterval, SpectralSet

    return SpectralSet(intervals=tuple(SpectralInterval(lo, hi) for lo, hi in items))


def _given(**options) -> dict:
    """The options given on the command line; the library's own defaults
    apply to the rest."""
    return {k: v for k, v in options.items() if v is not None}


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


def _load_gains(path: str):
    from .tuning import Gains

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
    return Gains(M=M, alpha=alpha, betas=betas)


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


def _gains_dict(g) -> dict:
    return {"M": g.M, "alpha": _Full(g.alpha), "betas": [_Full(b) for b in g.betas]}


def _report_dict(rep) -> dict:
    return {"nu": rep.nu, "worst_lambda": rep.worst_lambda, "nu_lo": rep.nu_lo}


def _write_samples_csv(rep, path: str):
    with open(path, "w") as fh:
        fh.write("lambda,max_root_modulus\n")
        for lam, mod in rep.samples:
            fh.write(f"{lam:.12g},{mod:.12g}\n")


def _cmd_tune(args) -> int:
    lo, hi = _parse_interval(args.interval)
    from . import tuning

    iv = tuning.SpectralInterval(lo, hi)
    if args.M == 1:
        alpha, mu = tuning.tune_memoryless(iv)
        _emit({"M": 1, "alpha": _Full(alpha), "betas": [], "mu": mu,
               "nu_star": mu, "degenerate": mu == 0.0}, args.output)
        return 0
    t = tuning.tune_theorem3(iv, M=args.M)
    _emit({"M": args.M, "alpha": _Full(t.alpha_star),
           "betas": [_Full(b) for b in t.gains.betas],
           "mu": t.mu, "nu_star": t.nu_star, "degenerate": t.degenerate},
          args.output)
    return 0


def _cmd_guarantee(args) -> int:
    items = _parse_set(args.set)
    from .tuning import check_guarantee_args

    g = _load_gains(args.gains)
    options = _given(grid=args.grid, refine_tol=args.refine_tol)
    s = check_guarantee_args(_spectral_set(items), **options)
    from . import accel

    rep = accel.guarantee(g, s, **options)
    _emit(_report_dict(rep), args.output)
    if args.samples_csv:
        _write_samples_csv(rep, args.samples_csv)
    return 0


def _cmd_search(args) -> int:
    s = _spectral_set(_parse_set(args.set))
    seed = _load_gains(args.seed_gains) if args.seed_gains else None
    from . import accel

    g, rep = accel.search_gains(s, M=args.M, seed=seed, budget=args.budget,
                                rng_seed=args.seed_rng)
    _emit({"gains": _gains_dict(g), "report": _report_dict(rep)}, args.output)
    if args.samples_csv:
        _write_samples_csv(rep, args.samples_csv)
    return 0


def _cmd_simulate(args) -> int:
    x0 = _parse_x0(args.x0)
    import numpy as np

    from . import dynamics, spectral

    with open(args.graph) as fh:
        graph = spectral.load_edge_list(fh.read())
    g = _load_gains(args.gains)
    L = spectral.laplacian(graph)
    if x0 is None:
        x0 = np.random.default_rng(args.seed_rng).standard_normal(graph.n)
    elif len(x0) != graph.n:
        raise ParseError(0, args.x0)
    prob = dynamics.IterationProblem(L.entries, np.zeros(graph.n), np.asarray(x0))
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


def _cmd_certify(args) -> int:
    lo, hi = _parse_interval(args.interval)
    if args.field is not None and not math.isfinite(args.field):
        raise ParseError(0, str(args.field))
    window = _parse_window(args.window) if args.field is not None else None
    from . import certify
    from .tuning import SpectralInterval

    g = _load_gains(args.gains)
    iv = SpectralInterval(lo, hi)
    c = certify.gains_to_claim_coeffs(g, iv)
    p8 = certify.prop8_check(c)
    w = certify.claim6_witness(c)
    payload = {
        "claim_coeffs": {"M": c.M, "nu": c.nu, "a": list(c.a)},
        "prop8": {"kind": p8.kind, "root": p8.root} if p8.root is not None
        else {"kind": p8.kind},
        "witness": dataclasses.asdict(w),
    }
    _emit(payload, args.output)
    if window is not None:
        re_range, im_range, resolution = window
        field = certify.partition_field(c, args.field, re_range=re_range,
                                        im_range=im_range, resolution=resolution)
        with open(args.field_out, "w") as fh:
            fh.write(field.to_json() + "\n")
    return 0


def _cmd_spectrum(args) -> int:
    from . import spectral

    with open(args.graph) as fh:
        graph = spectral.load_edge_list(fh.read())
    eigs = spectral.symmetric_eigenvalues(spectral.laplacian(graph))
    iv = spectral.nonzero_spectral_interval(eigs)
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
    p.add_argument("--grid", type=int)
    p.add_argument("--refine-tol", type=float)
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
    p.add_argument("--field", type=float, metavar="THETA")
    p.add_argument("--window", default="-2:2:-2:2:256",
                   metavar="REMIN:REMAX:IMMIN:IMMAX:RES")
    p.add_argument("--field-out", default="field.json", metavar="FILE")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("spectrum", help="Laplacian eigenvalues of a graph")
    p.add_argument("--graph", required=True, metavar="EDGELIST")
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
