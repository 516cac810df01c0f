"""Command-line interface.

Subcommands: tune, guarantee, search, simulate, certify, spectrum.
All numeric output is printed with 12 significant digits and runs are
fully deterministic for a fixed --seed-rng. A guarantee report gives
the bound nu, no proof yet at a double root or on isolated points
(``accel.GuaranteeReport``), and the attained nu_lo <= nu at worst_lambda.
Exit codes: 0 success, 2 usage or parse error (a malformed number, a
set item outside (0, inf), a non-finite --field or --window bound),
3 domain error, a gains or drops file of the wrong JSON shape, or an
allocation the input makes impossible. A
number in an option or an edge-list file is an integer written
-?[0-9]+, or a decimal as float() reads it (inf and nan included) but
in ASCII, without underscores and, except between list items, without
blanks around it (``errors.integer`` and ``errors.decimal``). Every
exit-2 error is found before any numerical work: each subcommand
parses its strings first and only then imports the modules it runs.
``tune`` runs on the numpy-free ``memaccel.tuning`` alone. ``guarantee``
checks its gains, set and ``--refine-tol`` with it, and
``search`` its set and ``--seed-gains``, before they import ``accel``, so
those exit-3 errors load no numpy either; ``accel.search_gains`` itself
checks search's ``--M`` and ``--budget``, after numpy. ``spectrum`` prints
a graph's Laplacian eigenvalues from one eigvalsh, the kernel's one per
component as exact 0, and the nonzero interval of that listing; a graph
with a non-finite edge weight, an eigenvalue listed below 0, or a gap
lambda_2 at or below n * eps * lambda_max exits 3. A numeric option left
out takes the library's own default, which the parser does not restate:
``tune`` without ``--M`` takes ``tune_theorem3``'s M, ``search`` without
``--budget`` or ``--seed-rng`` takes ``search_gains``' budget and seed,
and ``certify --field`` without ``--window`` samples
``partition_field``'s default window. ``simulate --seed-rng`` is the
CLI's own, 0 by default: it seeds the default ``--x0``.

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
import math
import sys

from .errors import MemaccelError, ParseError, decimal, integer


class _Full(float):
    """Float serialized at full precision (gains meant to be re-read;
    12-digit rounding would disturb the guarantee at optimal tunings,
    where root moduli react to the square root of a perturbation)."""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, _Full):
        return repr(float(v))
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, float):
        return format(float(v), ".12g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, complex):
        return "[" + _fmt(v.real) + ", " + _fmt(v.imag) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _fmt(x) for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def _write(text: str, path: str | None):
    """text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, path: str | None):
    _write(_fmt(payload) + "\n", path)


# String-level parsing. These helpers use no numpy and no submodule, so
# a malformed argument exits 2 before anything numerical is imported.
# Every number is read by errors.integer or errors.decimal.

def _numbers(text: str, sep: str, count: int | None = None) -> list[float]:
    """The decimals of a sep-separated list, each stripped of the blanks
    around it; ValueError unless each reads and, given count, there are
    count of them."""
    values = [decimal(v.strip()) for v in text.split(sep)]
    if count is not None and len(values) != count:
        raise ValueError(f"{text!r} is not {count} numbers")
    return values


def _read(option: str, read, text: str, *args):
    """read(text, *args), its ValueError a ParseError that names option."""
    try:
        return read(text, *args)
    except ValueError:
        raise ParseError(text, option=option) from None


def _set_item(item: str) -> tuple[float, float]:
    """(lo, hi) of a spectral-set item "lo:hi", or (v, v) of a point "v",
    which SpectralSet keeps as an isolated point."""
    bounds = _numbers(item, ":")
    lo, hi = bounds if len(bounds) > 1 else bounds * 2
    # SpectralInterval's own condition, which SpectralSet applies to
    # points too: an item that fails it is a parse error, as a malformed
    # number is.
    if not 0 < lo <= hi < math.inf:
        raise ValueError(f"{item!r} is not inside (0, inf)")
    return lo, hi


def _parse_set(text: str) -> list[tuple[float, float]]:
    """(lo, hi) of each nonblank item of a spectral-set spec."""
    return [_read("--set", _set_item, item) for item in map(str.strip, text.split(",")) if item]


def _window(text: str) -> dict:
    """partition_field's re_range, im_range and resolution keywords from a
    REMIN:REMAX:IMMIN:IMMAX:RES spec with finite bounds."""
    bounds, _, res = text.rpartition(":")
    lo_r, hi_r, lo_i, hi_i = _numbers(bounds, ":")
    if not all(map(math.isfinite, (lo_r, hi_r, lo_i, hi_i))):
        raise ValueError(f"{text!r} has a bound that is not finite")
    return {"re_range": (lo_r, hi_r), "im_range": (lo_i, hi_i), "resolution": integer(res)}


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


def _load_json(path: str, kind: str, shape: str, fits):
    """The JSON value in the file at path; ValueError "<kind> file <path>
    is not JSON <shape>" unless the file reads as JSON and fits(value)."""
    message = f"{kind} file {path} is not JSON {shape}"
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError:  # not JSON, or not UTF-8
            raise ValueError(message) from None
    if not fits(data):
        raise ValueError(message)
    return data


def _load_gains(path: str):
    from .tuning import Gains

    data = _load_json(path, "gains", '{"M": k, "alpha": a, "betas": [...]}',
                      lambda d: isinstance(d, dict) and "M" in d and "alpha" in d
                      and isinstance(d.get("betas", []), list))
    # Gains checks the gain values itself.
    return Gains(M=_json_int(data["M"], f"M in gains file {path}"), alpha=data["alpha"],
                 betas=tuple(data.get("betas", [])))


def _load_graph(path: str):
    from .spectral import load_edge_list

    with open(path) as fh:
        return load_edge_list(fh.read())


def _load_drops(path: str) -> dict[int, frozenset[tuple[int, int]]]:
    raw = _load_json(path, "drops", '{"step": [[i, j], ...], ...}',
                     lambda d: isinstance(d, dict) and all(
                         isinstance(es, list)
                         and all(isinstance(e, list) and len(e) == 2 for e in es)
                         for es in d.values()))
    node = f"node index in drops file {path}"
    return {integer(t): frozenset((_json_int(i, node), _json_int(j, node)) for i, j in edges)
            for t, edges in raw.items()}


def _gains_dict(g) -> dict:
    return {"M": g.M, "alpha": _Full(g.alpha), "betas": [_Full(b) for b in g.betas]}


def _report_dict(rep) -> dict:
    return {"nu": rep.nu, "worst_lambda": rep.worst_lambda, "nu_lo": rep.nu_lo}


def _write_samples_csv(rep, path: str):
    _write("lambda,max_root_modulus\n"
           + "".join(f"{lam:.12g},{mod:.12g}\n" for lam, mod in rep.samples), path)


def _cmd_tune(args) -> int:
    lo, hi = _read("--interval", _numbers, args.interval, ",", 2)
    from . import tuning

    t = tuning.tune_theorem3(tuning.SpectralInterval(lo, hi), **_given(M=args.M))
    _emit({**_gains_dict(t.gains), "mu": t.mu, "nu_star": t.nu_star,
           "degenerate": t.degenerate}, args.output)
    return 0


def _cmd_guarantee(args) -> int:
    items = _parse_set(args.set)
    from .tuning import check_guarantee_args

    g = _load_gains(args.gains)
    s = check_guarantee_args(_spectral_set(items), refine_tol=args.refine_tol)
    from . import accel

    rep = accel.guarantee(g, s, **_given(refine_tol=args.refine_tol))
    _emit(_report_dict(rep), args.output)
    if args.samples_csv:
        _write_samples_csv(rep, args.samples_csv)
    return 0


def _cmd_search(args) -> int:
    items = _parse_set(args.set)
    from .tuning import check_guarantee_args

    seed = _load_gains(args.seed_gains) if args.seed_gains else None
    s = check_guarantee_args(_spectral_set(items))
    from . import accel

    g, rep = accel.search_gains(s, M=args.M, seed=seed,
                                **_given(budget=args.budget, rng_seed=args.seed_rng))
    _emit({"gains": _gains_dict(g), "report": _report_dict(rep)}, args.output)
    if args.samples_csv:
        _write_samples_csv(rep, args.samples_csv)
    return 0


def _cmd_simulate(args) -> int:
    x0 = _read("--x0", _numbers, args.x0, ",") if args.x0 else None
    import numpy as np

    from . import dynamics, spectral

    graph = _load_graph(args.graph)
    g = _load_gains(args.gains)
    L = spectral.laplacian(graph)
    if x0 is None:
        x0 = np.random.default_rng(args.seed_rng).standard_normal(graph.n)
    elif len(x0) != graph.n:
        raise ParseError(args.x0, option="--x0")
    prob = dynamics.IterationProblem(L.entries, np.zeros(graph.n), np.asarray(x0))
    schedule = None
    if args.drops:
        schedule = dynamics.DropSchedule(graph, _load_drops(args.drops))
    trace = dynamics.simulate(prob, g, args.steps, drops=schedule)
    _write(dynamics.trace_to_csv(trace), args.output)
    if trace.diverged:
        sys.stderr.write(f"warning: divergence detected at step {trace.diverged_at}, "
                         "run aborted early\n")
    return 0


def _cmd_certify(args) -> int:
    lo, hi = _read("--interval", _numbers, args.interval, ",", 2)
    window = None
    if args.field is not None:
        if not math.isfinite(args.field):
            raise ParseError(str(args.field), option="--field")
        window = _read("--window", _window, args.window) if args.window is not None else {}
    from . import certify
    from .tuning import SpectralInterval

    g = _load_gains(args.gains)
    iv = SpectralInterval(lo, hi)
    c = certify.gains_to_claim_coeffs(g, iv)
    p8 = certify.prop8_check(c)
    w = certify.claim6_witness(c)
    # The field is written before the certificate, so that a field that
    # fails leaves no certificate on stdout.
    if window is not None:
        field = certify.partition_field(c, args.field, **window)
        _write(field.to_json() + "\n", args.field_out)
    payload = {
        "claim_coeffs": {"M": c.M, "nu": c.nu, "a": list(c.a)},
        "prop8": {"kind": p8.kind, "root": p8.root} if p8.root is not None
        else {"kind": p8.kind},
        "witness": {"found": w.found, "theta": w.theta, "root": w.root,
                    "modulus": abs(w.root), "scanned": w.scanned},
    }
    _emit(payload, args.output)
    return 0


def _cmd_spectrum(args) -> int:
    from . import spectral

    L = spectral.laplacian(_load_graph(args.graph))
    eigs = spectral._all_eigenvalues(L)
    iv = spectral.nonzero_spectral_interval(eigs)
    _emit({"eigenvalues": eigs.tolist(), "nonzero_interval": [iv.lo, iv.hi]}, args.output)
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
    p.add_argument("--M", type=integer)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("guarantee", help="worst-case guarantee of gains over a set")
    p.add_argument("--gains", required=True, metavar="FILE")
    p.add_argument("--set", required=True, metavar="SPEC")
    p.add_argument("--refine-tol", type=decimal)
    p.add_argument("--samples-csv", metavar="FILE")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_guarantee)

    p = sub.add_parser("search", help="derivative-free gain search over a set")
    p.add_argument("--set", required=True, metavar="SPEC")
    p.add_argument("--M", type=integer, required=True)
    p.add_argument("--budget", type=integer)
    p.add_argument("--seed-rng", type=integer)
    p.add_argument("--seed-gains", metavar="FILE")
    p.add_argument("--samples-csv", metavar="FILE")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("simulate", help="simulate the iteration on a graph")
    p.add_argument("--graph", required=True, metavar="EDGELIST")
    p.add_argument("--gains", required=True, metavar="FILE")
    p.add_argument("--steps", type=integer, required=True)
    p.add_argument("--drops", metavar="FILE")
    p.add_argument("--x0", metavar="V0,V1,...")
    p.add_argument("--seed-rng", type=integer, default=0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="optimality certificate machinery for gains")
    p.add_argument("--gains", required=True, metavar="FILE")
    p.add_argument("--interval", required=True, metavar="LO,HI")
    p.add_argument("--field", type=decimal, metavar="THETA")
    p.add_argument("--window", metavar="REMIN:REMAX:IMMIN:IMMAX:RES")
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
    except (MemaccelError, ValueError, OSError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
