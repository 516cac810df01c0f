import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import memaccel
from memaccel import errors
from memaccel.cli import _numbers, build_parser, integer, main
from memaccel.errors import decimal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_gains(tmp_path, M, alpha, betas, name="gains.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"M": M, "alpha": alpha, "betas": list(betas)}))
    return str(p)


def write_path3(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text("0 1 1\n1 2 1\n")
    return str(p)


REF = "0.0122,0.9878"


class TestTune:
    def test_reference_interval(self, capsys, tmp_path):
        code, out, _ = run(capsys, "tune", "--interval", REF)
        assert code == 0
        d = json.loads(out)
        assert d["M"] == 2
        assert d["alpha"] == pytest.approx(3.2800, abs=1e-3)
        assert d["betas"][0] == pytest.approx(-0.6400, abs=1e-3)
        assert d["nu_star"] == pytest.approx(0.8000, abs=1e-4)
        assert d["mu"] == pytest.approx(0.9756, abs=1e-6)
        assert d["degenerate"] is False

    def test_memoryless(self, capsys, tmp_path):
        code, out, _ = run(capsys, "tune", "--interval", REF, "--M", "1")
        d = json.loads(out)
        assert code == 0
        assert d["alpha"] == pytest.approx(2.0, abs=1e-12)
        assert d["nu_star"] == pytest.approx(0.9756, abs=1e-6)

    @pytest.mark.parametrize("interval", [REF, "2,2"])
    def test_memoryless_is_theorem3_at_one(self, capsys, interval):
        from memaccel.tuning import SpectralInterval, tune_theorem3

        t = tune_theorem3(SpectralInterval(*map(float, interval.split(","))), M=1)
        code, out, _ = run(capsys, "tune", "--interval", interval, "--M", "1")
        d = json.loads(out)
        assert code == 0 and (d["M"], d["alpha"], d["betas"]) == (1, t.alpha_star, [])
        assert d["mu"] == d["nu_star"] == float(format(t.mu, ".12g"))
        assert d["degenerate"] is t.degenerate

    def test_memory_order_zero_exit3(self, capsys):
        # --M 1 worked, but --M 0 named the floor of M >= 2.
        code, out, err = run(capsys, "tune", "--interval", "0.1,2", "--M", "0")
        assert code == 3 and out == ""
        assert err == "error: memory order M must be an integer >= 1, got 0\n"

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "t.json"
        code, out, _ = run(capsys, "tune", "--interval", "1,3", "-o", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["nu_star"] == pytest.approx(
            2 - 3 ** 0.5, abs=1e-9)

    def test_bad_interval_exit2(self, capsys):
        code, _, err = run(capsys, "tune", "--interval", "nonsense")
        assert code == 2 and "error" in err

    def test_inverted_interval_exit3(self, capsys):
        code, _, err = run(capsys, "tune", "--interval", "3,1")
        assert code == 3 and "error" in err

    def test_infinite_interval_exit3(self, capsys):
        code, out, err = run(capsys, "tune", "--interval", "0.1,inf")
        assert code == 3 and "error" in err
        assert out == ""

    @pytest.mark.parametrize("M", ["1", "2"])
    def test_overflowing_endpoint_sum_exit3(self, capsys, M):
        # lo + hi overflows: the tuning printed nu_star 0 (and alpha 0.0
        # for M = 1) though the optimal rate is about 0.13.
        code, out, err = run(capsys, "tune", "--interval", "1e308,1.7e308", "--M", M)
        assert code == 3 and "overflows" in err
        assert out == ""

    @pytest.mark.parametrize("M", ["1", "2"])
    def test_subnormal_interval_exit3_without_warning(self, M):
        # 2 / (lo + hi) is inf; numpy's scalar division also warned here.
        proc = subprocess.run(
            [sys.executable, "-m", "memaccel.cli", "tune", "--interval", "1e-320,2e-320",
             "--M", M],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(memaccel.__file__).resolve().parents[1])})
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr


class TestRoundTrip:
    def test_tune_then_guarantee(self, capsys, tmp_path):
        dest = tmp_path / "g.json"
        run(capsys, "tune", "--interval", REF, "-o", str(dest))
        code, out, _ = run(capsys, "guarantee", "--gains", str(dest),
                           "--set", "0.0122:0.9878")
        d = json.loads(out)
        assert code == 0
        # full-precision gains serialization keeps the re-read guarantee
        # at the tuned value
        assert abs(d["nu"] - json.loads(dest.read_text())["nu_star"]) <= 1e-10


class TestGuarantee:
    def test_structured_set(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 4, 3.6908, [-0.9083, 0.006662, 0.06785])
        code, out, _ = run(capsys, "guarantee", "--gains", gains,
                           "--set", "0.0122:0.0182,0.9878")
        d = json.loads(out)
        assert code == 0
        assert d["nu"] == pytest.approx(0.7560, abs=5e-4)

    def test_samples_csv(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 1, 0.5, [])
        csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "guarantee", "--gains", gains, "--set", "1:3",
                         "--samples-csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "lambda,max_root_modulus"
        assert len(lines) >= 2002

    @pytest.mark.parametrize("gains, argv, message", [
        pytest.param((2, alpha, [-0.5]), ("guarantee", "--set", "1:10"),
                     f"alpha*lambda or a power of it overflows for alpha={alpha}, lambda=10.0",
                     id=str(alpha))
        for alpha in (1e308, 1e300)
    ] + [
        pytest.param((3, 1.0, [1e308, 1e308]), (command, option, value),
                     "the sum of the betas overflows for betas=(1e+308, 1e+308)",
                     id=f"beta-sum-{command}")
        for command, option, value in (("guarantee", "--set", "1:10"),
                                       ("certify", "--interval", "1,10"))
    ])
    def test_overflowing_alpha_lambda_exit3(self, capsys, tmp_path, gains, argv, message):
        command, *rest = argv
        code, out, err = run(capsys, command, "--gains", write_gains(tmp_path, *gains), *rest)
        assert code == 3 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", ["2:1", "0.1:inf", "0:1", "nan:1"])
    def test_invalid_set_interval_exit2(self, capsys, tmp_path, spec):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        code, out, err = run(capsys, "guarantee", "--gains", gains, "--set", f"0.5,{spec}")
        assert code == 2 and repr(spec) in err
        assert out == ""

    @pytest.mark.parametrize("point", ["-1", "0", "inf", "nan"])
    def test_invalid_set_point_exit2(self, capsys, tmp_path, point):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        code, out, err = run(capsys, "guarantee", "--gains", gains, "--set", f"1:2,{point}")
        assert code == 2 and repr(point) in err
        assert out == ""

    def test_certified_bracket_keys(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 3, 1.3, [-0.4, 0.1])
        code, out, _ = run(capsys, "guarantee", "--gains", gains, "--set", "0.1:2")
        d = json.loads(out)
        assert code == 0 and set(d) == {"nu", "worst_lambda", "nu_lo"}
        assert d["nu_lo"] <= d["nu"] <= d["nu_lo"] + 1e-10

    def test_missing_gains_file_exit3(self, capsys, tmp_path):
        code, _, err = run(capsys, "guarantee",
                           "--gains", str(tmp_path / "nope.json"), "--set", "1:2")
        assert code == 3 and "error" in err

    def test_malformed_gains_json_exit3(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, "guarantee", "--gains", str(p), "--set", "1:2")
        assert code == 3

    def test_nan_gains_exit3(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, float("nan"), [-0.5])
        code, _, err = run(capsys, "guarantee", "--gains", gains, "--set", "1:2")
        assert code == 3 and "finite" in err

    def test_negative_refine_tol_exit3(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 1.0, [-0.3])
        code, _, err = run(capsys, "guarantee", "--gains", gains, "--set", "1:2",
                           "--refine-tol", "-1")
        assert code == 3 and "refine_tol" in err

    @pytest.mark.parametrize("text", ['[2, 1.0, [-0.5]]',
                                      '{"M": 2, "alpha": null, "betas": [-0.5]}',
                                      '{"M": 2, "alpha": 1.0, "betas": 0.5}'])
    def test_wrong_gains_shape_exit3(self, capsys, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        code, _, err = run(capsys, "guarantee", "--gains", str(p), "--set", "1:2")
        assert code == 3 and err.startswith("error:")


    @pytest.mark.parametrize("M", [2.7, True, "2"])
    def test_non_integer_M_exit3(self, capsys, tmp_path, M):
        gains = write_gains(tmp_path, M, 1.0, [-0.3])
        code, out, err = run(capsys, "guarantee", "--gains", gains, "--set", "1:2")
        assert code == 3 and err.startswith("error:") and "M" in err
        assert out == ""

    def test_integral_float_M_accepted(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2.0, 1.0, [-0.3])
        code, _, _ = run(capsys, "guarantee", "--gains", gains, "--set", "1:2")
        assert code == 0

    @pytest.mark.parametrize("M, alpha, betas, what", [(1, True, [], "alpha"),
                                                       (2, 1.0, [False], "beta"),
                                                       (1, "0.5", [], "alpha")])
    def test_non_number_gain_exit3(self, capsys, tmp_path, M, alpha, betas, what):
        gains = write_gains(tmp_path, M, alpha, betas)
        code, out, err = run(capsys, "guarantee", "--gains", gains, "--set", "1:2")
        assert code == 3 and err.startswith("error:") and what in err
        assert out == ""

    def test_integer_alpha_accepted(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 1, 1, [])
        code, _, _ = run(capsys, "guarantee", "--gains", gains, "--set", "1:2")
        assert code == 0


GAINS_SHAPE = '{"M": k, "alpha": a, "betas": [...]}'
DROPS_SHAPE = '{"step": [[i, j], ...], ...}'


class TestJsonFileShape:
    """A gains or drops file that is not JSON of its format exits 3 with
    the reader's one message, which names the file."""

    @pytest.mark.parametrize("kind, text", [
        pytest.param("gains", b'{"M": 2, "betas": [-0.1]}', id="gains-no-alpha"),
        pytest.param("gains", b'{"alpha": 0.5}', id="gains-no-M"),
        pytest.param("gains", b"{not json", id="gains-not-json"),
        pytest.param("gains", b"\xff", id="gains-not-utf8"),
        pytest.param("drops", b'{"0": [[0]]}', id="drops-edge-of-one"),
        pytest.param("drops", b'{"0": [[0, 1, 2]]}', id="drops-edge-of-three"),
        pytest.param("drops", b'{"0": [0]}', id="drops-edge-not-list"),
        pytest.param("drops", b"{not json", id="drops-not-json"),
    ])
    def test_message_names_the_file(self, capsys, tmp_path, kind, text):
        bad = tmp_path / f"{kind}.json"
        bad.write_bytes(text)
        gains = bad if kind == "gains" else write_gains(tmp_path, 1, 0.4, [])
        argv = ["simulate", "--graph", write_path3(tmp_path), "--steps", "5",
                "--x0", "1,0,-1", "--gains", str(gains)]
        if kind == "drops":
            argv += ["--drops", str(bad)]
        shape = GAINS_SHAPE if kind == "gains" else DROPS_SHAPE
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: {kind} file {bad} is not JSON {shape}\n"


class TestSearch:
    def test_deterministic_bytes(self, capsys, tmp_path):
        args = ("search", "--set", "0.5,1.5", "--M", "2", "--budget", "60",
                "--seed-rng", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_output_shape(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search", "--set", "1:3", "--M", "2",
                           "--budget", "50")
        d = json.loads(out)
        assert code == 0
        assert set(d) == {"gains", "report"}
        assert d["gains"]["M"] == 2
        assert d["report"]["nu"] <= 0.5 + 1e-6

    def test_samples_csv(self, capsys, tmp_path):
        csv = tmp_path / "s.csv"
        code, out, _ = run(capsys, "search", "--set", "1:3", "--M", "2", "--budget", "20",
                           "--samples-csv", str(csv))
        lines = csv.read_text().strip().splitlines()
        assert code == 0 and lines[0] == "lambda,max_root_modulus"
        # The report's default-grid curve, whose peak is its nu_lo.
        assert len(lines) >= 2002
        peak = max(float(line.split(",")[1]) for line in lines[1:])
        assert format(peak, ".12g") == format(json.loads(out)["report"]["nu_lo"], ".12g")

    def test_memoryless_without_seed_file(self, capsys):
        code, out, err = run(capsys, "search", "--set", "0.1:2", "--M", "1",
                             "--budget", "30")
        d = json.loads(out)
        assert code == 0 and err == ""
        assert d["gains"]["M"] == 1 and d["gains"]["betas"] == []
        # The optimal memoryless factor of [0.1, 2] is 1.9 / 2.1.
        assert d["report"]["nu"] == pytest.approx(1.9 / 2.1, abs=1e-9)

    # Explicit ids keep each case's name stable when the message wording changes.
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--M", "0"], "memory order M must be an integer >= 1, got 0",
                     id="argv0-memory order M must be >= 1, got 0"),
        pytest.param(["--M", "2", "--budget", "0"], "budget must be an integer >= 1, got 0",
                     id="argv1-budget must be >= 1"),
    ])
    def test_bad_argument_named_exit3(self, capsys, argv, message):
        code, out, err = run(capsys, "search", "--set", "1:2", *argv)
        assert code == 3 and out == "" and err == f"error: {message}\n"


class TestLibraryDefaults:
    """An option left out reaches the library as no keyword at all, so the
    library's own default applies; a given one is passed through."""

    def test_search_budget(self, capsys, monkeypatch):
        from memaccel import accel

        seen, real = [], accel.search_gains

        def search_gains(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **{**kwargs, "budget": 5})

        monkeypatch.setattr(accel, "search_gains", search_gains)
        assert run(capsys, "search", "--set", "0.5:1.5", "--M", "2")[0] == 0
        assert run(capsys, "search", "--set", "0.5:1.5", "--M", "2", "--budget", "7")[0] == 0
        assert "budget" not in seen[0]
        assert seen[1]["budget"] == 7

    def test_search_seed_rng(self, capsys, monkeypatch):
        from memaccel import accel

        seen, real = [], accel.search_gains

        def search_gains(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **{**kwargs, "budget": 5})

        monkeypatch.setattr(accel, "search_gains", search_gains)
        base = ("search", "--set", "0.5:1.5", "--M", "2")
        assert run(capsys, *base)[0] == 0
        assert run(capsys, *base, "--seed-rng", "3")[0] == 0
        assert "rng_seed" not in seen[0]
        assert seen[1]["rng_seed"] == 3

    def test_tune_m(self, capsys, monkeypatch):
        from memaccel import tuning

        seen, real = [], tuning.tune_theorem3

        def tune_theorem3(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(tuning, "tune_theorem3", tune_theorem3)
        assert run(capsys, "tune", "--interval", REF)[0] == 0
        assert run(capsys, "tune", "--interval", REF, "--M", "3")[0] == 0
        assert "M" not in seen[0]
        assert seen[1]["M"] == 3

    def test_certify_window(self, capsys, tmp_path, monkeypatch):
        from memaccel import certify

        seen, real = [], certify.partition_field

        def partition_field(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(certify, "partition_field", partition_field)
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        field = str(tmp_path / "field.json")
        base = ("certify", "--gains", gains, "--interval", REF, "--field", "0.5",
                "--field-out", field)
        assert run(capsys, *base)[0] == 0
        assert json.loads(Path(field).read_text())["re_range"] == [-2.0, 2.0, 256]
        assert run(capsys, *base, "--window=-1:1:-3:3:32")[0] == 0
        assert set(seen[0]) & {"re_range", "im_range", "resolution"} == set()
        assert seen[1] == {"re_range": (-1.0, 1.0), "im_range": (-3.0, 3.0), "resolution": 32}


class TestSimulate:
    def test_csv_to_stdout(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.5, [])
        code, out, _ = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                           "--steps", "5", "--x0", "1,0,-1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,residual,spread,rms,mean"
        assert len(lines) == 7

    def test_seeded_x0_deterministic(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.5, [])
        args = ("simulate", "--graph", graph, "--gains", gains,
                "--steps", "10", "--seed-rng", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_drops_file(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.4, [])
        drops = tmp_path / "drops.json"
        drops.write_text(json.dumps({"0": [[0, 1]], "2": [[1, 2], [0, 1]]}))
        code, out, _ = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                           "--steps", "5", "--x0", "1,0,-1",
                           "--drops", str(drops))
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_drops_file_list_exit3(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.4, [])
        drops = tmp_path / "drops.json"
        drops.write_text(json.dumps([[0, 1]]))
        code, _, err = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                           "--steps", "5", "--x0", "1,0,-1", "--drops", str(drops))
        assert code == 3 and err.startswith("error:")

    @pytest.mark.parametrize("drops", [{"0": [[0.9, 1]]}, {"0": [[0, True]]},
                                       {"1.5": [[0, 1]]}, {"true": [[0, 1]]},
                                       {"1_0": [[0, 1]]}, {" 2 ": [[0, 1]]},
                                       {"\u0663": [[0, 1]]}, {"+1": [[0, 1]]}])
    def test_non_integer_drops_exit3(self, capsys, tmp_path, drops):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.4, [])
        path = tmp_path / "drops.json"
        path.write_text(json.dumps(drops))
        code, out, err = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                             "--steps", "5", "--x0", "1,0,-1", "--drops", str(path))
        assert code == 3 and err.startswith("error:")
        assert out == ""

    def test_negative_drop_step_exit3(self, capsys, tmp_path):
        # The step was kept and never applied, so the run exited 0.
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.4, [])
        path = tmp_path / "drops.json"
        path.write_text(json.dumps({"-1": [[0, 1]]}))
        code, out, err = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                             "--steps", "5", "--x0", "1,0,-1", "--drops", str(path))
        assert code == 3 and err.startswith("error:") and "drop step" in err
        assert out == ""

    def test_nan_x0_exit3(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.5, [])
        code, out, err = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                             "--steps", "5", "--x0", "nan,0,1")
        assert code == 3 and "finite" in err
        assert out == ""

    def test_divergence_warning_names_step(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 5.0, [])
        code, out, err = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                             "--steps", "100", "--x0", "1,0,-1")
        # (1, 0, -1) is the eigenvector of eigenvalue 1, so |x(t)| = 4^t |x0|
        # first exceeds 1e6 |x0| at t = 10.
        assert code == 0
        assert err == "warning: divergence detected at step 10, run aborted early\n"
        assert len(out.strip().splitlines()) == 1 + 11

    def test_wrong_x0_length_exit2(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.5, [])
        code, _, _ = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                         "--steps", "5", "--x0", "1,0")
        assert code == 2

    def test_malformed_x0_exit2(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.5, [])
        code, _, err = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                           "--steps", "5", "--x0", "1,2,x")
        assert code == 2 and "error" in err

    def test_malformed_x0_checked_before_graph_is_read(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 1, 0.5, [])
        code, out, err = run(capsys, "simulate", "--graph", str(tmp_path / "missing.txt"),
                             "--gains", gains, "--steps", "5", "--x0", "1,2,x")
        assert code == 2 and err.startswith("error:")
        assert out == ""

    def test_bad_edge_list_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1\nbroken line\n")
        gains = write_gains(tmp_path, 1, 0.5, [])
        code, _, _ = run(capsys, "simulate", "--graph", str(bad), "--gains", gains,
                         "--steps", "5")
        assert code == 2


class TestCertify:
    def test_optimal_gains_zero_vector(self, capsys, tmp_path):
        dest = tmp_path / "g.json"
        run(capsys, "tune", "--interval", REF, "-o", str(dest))
        code, out, _ = run(capsys, "certify", "--gains", str(dest),
                           "--interval", REF)
        d = json.loads(out)
        assert code == 0
        assert max(abs(v) for v in d["claim_coeffs"]["a"]) <= 1e-12
        assert d["prop8"]["kind"] == "none"
        assert d["witness"]["found"] is True
        assert d["witness"]["modulus"] == pytest.approx(1.0, abs=1e-6)

    def test_perturbed_gains_witnessed(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        code, out, _ = run(capsys, "certify", "--gains", gains, "--interval", REF)
        d = json.loads(out)
        assert code == 0
        assert d["witness"]["found"] is True
        assert d["witness"]["modulus"] >= 1.0 - 1e-8

    def test_field_export(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        field = tmp_path / "field.json"
        code, _, _ = run(capsys, "certify", "--gains", gains, "--interval", REF,
                         "--field", "1.0", "--window=-2:2:-2:2:64",
                         "--field-out", str(field))
        assert code == 0
        d = json.loads(field.read_text())
        assert d["re_range"][2] == 64
        assert len(d["type_mask"]) == 64 * 64

    def test_null_alpha_exit3(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"M": 2, "alpha": null, "betas": [-0.5]}')
        code, _, err = run(capsys, "certify", "--gains", str(p), "--interval", REF)
        assert code == 3 and err.startswith("error:")

    @pytest.mark.parametrize("window", ["-2:2:oops", "-2:2:-2:2:x", "a:2:-2:2:64",
                                        "-2:2:-2:2:4_8", "-2:2:-2:2: 48",
                                        "-2:2:-2:2:\u0664\u0668"])
    def test_malformed_window_exit2(self, capsys, tmp_path, window):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        field = tmp_path / "field.json"
        code, _, err = run(capsys, "certify", "--gains", gains, "--interval", REF,
                           "--field", "0.5", f"--window={window}",
                           "--field-out", str(field))
        assert code == 2 and "error" in err
        assert not field.exists()


    def test_malformed_window_checked_before_certificate(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        code, out, err = run(capsys, "certify", "--gains", gains, "--interval", REF,
                             "--field", "0.5", "--window=-2:2:oops",
                             "--field-out", str(tmp_path / "field.json"))
        assert code == 2 and err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("theta, window", [
        ("nan", "-2:2:-2:2:32"), ("inf", "-2:2:-2:2:32"), ("-inf", "-2:2:-2:2:32"),
        ("0.5", "-2:inf:-2:2:32"), ("0.5", "-2:2:nan:2:32"),
    ])
    def test_non_finite_field_exit2_before_output(self, capsys, tmp_path, theta, window):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        field = tmp_path / "field.json"
        code, out, err = run(capsys, "certify", "--gains", gains, "--interval", REF,
                             f"--field={theta}", f"--window={window}",
                             "--field-out", str(field))
        assert code == 2 and err.startswith("error:")
        assert out == "" and not field.exists()

    def test_theta_samples_flag_removed(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--gains", gains, "--interval", REF, "--theta-samples", "64"])
        assert exc.value.code == 2
        assert "--theta-samples" in capsys.readouterr().err

    @pytest.mark.parametrize("M, betas", [(2, [-0.1]), (3, [-0.1, 0.05])])
    def test_degenerate_interval_exit3_without_traceback(self, tmp_path, M, betas):
        gains = write_gains(tmp_path, M, 0.9, betas)
        proc = subprocess.run(
            [sys.executable, "-m", "memaccel.cli", "certify", "--gains", gains,
             "--interval", "1,1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(memaccel.__file__).resolve().parents[1])})
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("window", ["-2:2:-2:2:16", "-2:2:-2:2:-48"])
    def test_rejected_resolution_exit3_before_certificate(self, capsys, tmp_path, window):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        field = tmp_path / "field.json"
        code, out, err = run(capsys, "certify", "--gains", gains, "--interval", REF,
                             "--field", "0.5", f"--window={window}",
                             "--field-out", str(field))
        assert code == 3 and err.startswith("error:") and "resolution" in err
        assert out == "" and not field.exists()

    @pytest.mark.parametrize("theta", ["5.0", "-1.0"])
    def test_theta_outside_zero_pi_exit3_before_certificate(self, capsys, tmp_path, theta):
        # partition_field took any finite theta and wrote its field.
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        field = tmp_path / "field.json"
        code, out, err = run(capsys, "certify", "--gains", gains, "--interval", REF,
                             f"--field={theta}", "--window=-2:2:-2:2:32",
                             "--field-out", str(field))
        assert code == 3 and f"theta must lie in [0, pi], got {theta}" in err
        assert out == "" and not field.exists()

    @pytest.mark.parametrize("interval", [REF, "1,1"])
    def test_memoryless_gains_exit3_naming_the_memory_order(self, capsys, tmp_path, interval):
        # The map checks M itself: tune_theorem3 takes M = 1 now.
        gains = write_gains(tmp_path, 1, 1.5, [])
        code, out, err = run(capsys, "certify", "--gains", gains, "--interval", interval)
        assert code == 3 and out == ""
        assert err == "error: memory order M must be an integer >= 2, got 1\n"

    def test_unwritable_field_out_exit3_before_certificate(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        code, out, err = run(capsys, "certify", "--gains", gains, "--interval", REF,
                             "--field", "0.5", "--window=-2:2:-2:2:48",
                             "--field-out", str(tmp_path / "no-such-dir" / "field.json"))
        assert code == 3 and err.startswith("error:")
        assert out == ""

    def test_field_leaves_certificate_unchanged(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        _, plain, _ = run(capsys, "certify", "--gains", gains, "--interval", REF)
        code, out, _ = run(capsys, "certify", "--gains", gains, "--interval", REF,
                           "--field", "0.5", "--window=-2:2:-2:2:48",
                           "--field-out", str(tmp_path / "field.json"))
        assert code == 0 and out == plain
        assert json.loads((tmp_path / "field.json").read_text())["re_range"][2] == 48

    def test_window_ignored_without_field(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        code, out, _ = run(capsys, "certify", "--gains", gains, "--interval", REF,
                           "--window=-2:2:oops")
        assert code == 0
        assert json.loads(out)["witness"]["found"] is True


class TestIntegerArguments:
    """The integers the CLI parses itself are -?[0-9]+ in ASCII digits;
    int() would also take underscores, surrounding blanks and other
    scripts' digits."""

    @pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("-3", -3), ("0012", 12)])
    def test_accepted(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize("text", ["1_0", " 2 ", "2\n", "\u0663", "+3", "", "-", "1.0",
                                      "1e3", "0x10"])
    def test_rejected(self, text):
        with pytest.raises(ValueError, match="is not an integer"):
            integer(text)

    @pytest.mark.parametrize("argv", [
        ["tune", "--interval", "0.1,2", "--M", "1_0"],
        ["tune", "--interval", "0.1,2", "--M", "\u0663"],
        ["search", "--set", "0.1:2", "--M", "2", "--budget", " 50"],
        ["search", "--set", "0.1:2", "--M", "2", "--seed-rng", "1_0"],
        ["simulate", "--graph", "GRAPH", "--gains", "GAINS", "--steps", "1_2"],
        ["simulate", "--graph", "GRAPH", "--gains", "GAINS", "--steps", "5",
         "--seed-rng", "\u0661"],
    ], ids=["M", "M-arabic", "budget", "search-seed", "steps", "simulate-seed"])
    def test_option_exit2(self, capsys, tmp_path, argv):
        paths = {"GAINS": write_gains(tmp_path, 2, 3.0, [-0.5]), "GRAPH": write_path3(tmp_path)}
        with pytest.raises(SystemExit) as exc:
            main([paths.get(a, a) for a in argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "invalid integer value" in out.err

    def test_negative_value_reaches_the_library(self, capsys):
        code, out, err = run(capsys, "tune", "--interval", "0.1,2", "--M", "-1")
        assert code == 3 and out == "" and "memory order M must be an integer >= 1, got -1" in err

    def test_one_reader(self):
        assert integer is errors.integer


class TestDecimalArguments:
    """Every float the CLI or an edge-list file reads is read by decimal:
    what float() reads, inf and nan included, but in ASCII, without
    underscores and without blanks around it. A list (an interval, a set
    item, --x0, the --window bounds) strips the blanks around each item."""

    @given(st.floats())
    @example(5e-324)
    @example(-0.0)
    @example(float("inf"))
    @example(float("-inf"))
    @example(float("nan"))
    def test_reads_repr(self, x):
        # repr round-trips every float; equal reprs also match nan and -0.0.
        assert repr(decimal(repr(x))) == repr(x)

    @given(st.lists(st.floats(), min_size=1))
    def test_list_reads_reprs(self, xs):
        assert [repr(v) for v in _numbers(",".join(map(repr, xs)), ",")] == list(map(repr, xs))

    @pytest.mark.parametrize("text", ["1_0", "1_0e-3", "0.1_5", " 1", "1 ", "1\n", "\t1",
                                      "\u0662", "\uff11", "\u0660.5", "1\u00a0", "", "x",
                                      "1 0", "1,0", "0x10"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            decimal(text)

    def test_list_strips_items(self):
        assert _numbers(" 0.5 ,\t2e1 ", ",") == [0.5, 20.0]

    @pytest.mark.parametrize("text, count", [("1,2", 3), ("1,,2", None), ("1,2_0", 2),
                                             ("1,", 2)])
    def test_list_rejected(self, text, count):
        with pytest.raises(ValueError):
            _numbers(text, ",", count)

    @pytest.mark.parametrize("spaced, plain", [
        (["tune", "--interval", " 0.1 , 2 "], ["tune", "--interval", "0.1,2"]),
        (["search", "--set", " 0.1 : 0.2 , 1 ", "--M", "2", "--budget", "5"],
         ["search", "--set", "0.1:0.2,1", "--M", "2", "--budget", "5"]),
    ], ids=["interval", "set"])
    def test_blanks_between_items_read_as_before(self, capsys, spaced, plain):
        assert run(capsys, *spaced) == run(capsys, *plain)

    @pytest.mark.parametrize("argv", [
        ["guarantee", "--gains", "GAINS", "--set", "0.1:2", "--refine-tol", "1_0e-3"],
        ["guarantee", "--gains", "GAINS", "--set", "0.1:2", "--refine-tol", " 1e-3"],
        ["certify", "--gains", "GAINS", "--interval", "0.1,2", "--field", "\u0660.5"],
        ["certify", "--gains", "GAINS", "--interval", "0.1,2", "--field", "0.5 "],
    ], ids=["refine-tol", "refine-tol-blank", "field-arabic", "field-blank"])
    def test_option_exit2(self, capsys, tmp_path, argv):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        with pytest.raises(SystemExit) as exc:
            main([gains if a == "GAINS" else a for a in argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "invalid decimal value" in out.err

    @pytest.mark.parametrize("argv, option, text", [
        (["tune", "--interval", "0.1;2"], "--interval", "0.1;2"),
        (["tune", "--interval", "0.1,2_0"], "--interval", "0.1,2_0"),
        (["tune", "--interval", "0.1,\u0662"], "--interval", "0.1,\u0662"),
        (["certify", "--gains", "GAINS", "--interval", "0.1"], "--interval", "0.1"),
        (["guarantee", "--gains", "GAINS", "--set", "0.5, 2:1"], "--set", "2:1"),
        (["guarantee", "--gains", "GAINS", "--set", "0.5,1:2_0"], "--set", "1:2_0"),
        (["simulate", "--graph", "GRAPH", "--gains", "GAINS", "--steps", "5",
          "--x0", "1,0_0,-1"], "--x0", "1,0_0,-1"),
        (["simulate", "--graph", "GRAPH", "--gains", "GAINS", "--steps", "5",
          "--x0", "1,0"], "--x0", "1,0"),
        (["certify", "--gains", "GAINS", "--interval", "0.1,2", "--field", "nan"],
         "--field", "nan"),
        (["certify", "--gains", "GAINS", "--interval", "0.1,2", "--field", "0.5",
          "--window=-2:2_0:-2:2:32"], "--window", "-2:2_0:-2:2:32"),
    ], ids=["interval", "interval-underscore", "interval-arabic", "interval-count",
            "set", "set-underscore", "x0", "x0-length", "field", "window"])
    def test_parse_error_names_the_option(self, capsys, tmp_path, argv, option, text):
        paths = {"GAINS": write_gains(tmp_path, 2, 3.0, [-0.5]), "GRAPH": write_path3(tmp_path)}
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2 and out == ""
        assert err == f"error: {option}: cannot parse {text!r}\n"


class TestSpectrum:
    def test_path3(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        code, out, _ = run(capsys, "spectrum", "--graph", graph)
        d = json.loads(out)
        assert code == 0
        assert d["eigenvalues"] == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)
        assert d["nonzero_interval"] == pytest.approx([1.0, 3.0], abs=1e-9)

    def test_zero_tol_flag_removed(self, capsys, tmp_path):
        # The kernel is counted from the graph's components; no threshold.
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--graph", write_path3(tmp_path), "--zero-tol", "1e-9"])
        assert exc.value.code == 2
        assert "--zero-tol" in capsys.readouterr().err

    def test_weak_bridge(self, capsys, tmp_path):
        # Two unit triangles and a 1e-10 bridge: lambda_2 = 6.67e-11, which
        # a 1e-9 zero threshold read as 0, reporting [3, 3.00000000013].
        graph = tmp_path / "bridge.txt"
        graph.write_text("0 1 1\n1 2 1\n0 2 1\n3 4 1\n4 5 1\n3 5 1\n2 3 1e-10\n")
        code, out, _ = run(capsys, "spectrum", "--graph", str(graph))
        d = json.loads(out)
        assert code == 0
        assert d["eigenvalues"][0] == 0
        assert d["nonzero_interval"][0] == pytest.approx(6.66666666637e-11, rel=1e-4)
        assert d["nonzero_interval"][1] == pytest.approx(3.0, rel=1e-9)

    def test_disconnected_kernel_exact(self, capsys, tmp_path):
        graph = tmp_path / "two.txt"
        graph.write_text("0 1 1\n2 3 2\n")
        code, out, _ = run(capsys, "spectrum", "--graph", str(graph))
        d = json.loads(out)
        assert code == 0
        assert d["eigenvalues"][:2] == [0, 0]
        assert d["nonzero_interval"] == pytest.approx([2.0, 4.0], rel=1e-12)

    @pytest.mark.parametrize("w", ["nan", "inf"])
    def test_non_finite_weight_exit3(self, capsys, tmp_path, w):
        graph = tmp_path / "bad.txt"
        graph.write_text(f"0 1 {w}\n")
        gains = write_gains(tmp_path, 1, 0.5, [])
        for argv in (["spectrum", "--graph", str(graph)],
                     ["simulate", "--graph", str(graph), "--gains", gains, "--steps", "3"]):
            code, out, err = run(capsys, *argv)
            assert code == 3 and "edge (0, 1) has non-finite weight" in err
            assert out == ""

    def test_overflowing_degree_exit3(self, capsys, tmp_path):
        # Two finite weights of 1e308 give node 0 an infinite degree;
        # spectrum blamed eigenvalue NaN and simulate "A, b and x0".
        graph = tmp_path / "big.txt"
        graph.write_text("0 1 1e308\n0 2 1e308\n")
        gains = write_gains(tmp_path, 1, 0.5, [])
        for argv in (["spectrum", "--graph", str(graph)],
                     ["simulate", "--graph", str(graph), "--gains", gains, "--steps", "3"]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (3, "", "error: Laplacian entry (0, 0) is inf, not finite\n")

    def test_unresolved_gap_message_prints_floats(self, capsys, tmp_path):
        # Under numpy 2 the message printed np.float64(2.8e-16).
        graph = tmp_path / "bridge.txt"
        graph.write_text("0 1 1\n1 2 1\n0 2 1\n3 4 1\n4 5 1\n3 5 1\n2 3 1e-17\n")
        code, out, err = run(capsys, "spectrum", "--graph", str(graph))
        assert code == 3 and out == "" and "resolution" in err
        assert "np.float64" not in err

    def test_edgeless_graph_exit3(self, capsys, tmp_path):
        bad = tmp_path / "empty.txt"
        bad.write_text("# no edges\n")
        code, _, _ = run(capsys, "spectrum", "--graph", str(bad))
        assert code == 3

    def test_impossible_allocation_exit3(self, capsys, tmp_path):
        # 5e6 nodes ask for a 182 TiB Laplacian, more than a 48-bit
        # address space maps, so the allocation fails before any page is
        # touched; it was a MemoryError traceback and exit 1. 1e12 steps on
        # three nodes ask for a 22 TiB trajectory, allocated before the
        # first step; the run went on until it was killed.
        graph = tmp_path / "huge.txt"
        graph.write_text("0 4999999 1\n")
        gains = write_gains(tmp_path, 1, 0.5, [])
        for argv in (["spectrum", "--graph", str(graph)],
                     ["simulate", "--graph", str(graph), "--gains", gains, "--steps", "3"],
                     ["simulate", "--graph", write_path3(tmp_path), "--gains", gains,
                      "--steps", "1000000000000"]):
            code, out, err = run(capsys, *argv)
            assert code == 3 and err.startswith("error: ") and err.count("\n") == 1
            assert out == ""


def test_import_does_not_load_scipy():
    src = str(Path(memaccel.__file__).resolve().parents[1])
    code = "import sys, memaccel.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def _subparsers() -> dict:
    """Subcommand name -> its parser, from build_parser()."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_readme_names_only_existing_flags():
    # A flag the README names outside its Install block must be an option
    # of some subcommand, so a removed flag cannot stay documented.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = re.sub(r"## Install\n.*?(?=\n## )", "", readme, flags=re.S)
    options = {o for p in _subparsers().values() for o in p._option_string_actions}
    assert set(re.findall(r"--[A-Za-z][\w-]*", readme)) - options == set()


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_option_is_read_by_its_command(command):
    # A flag that is parsed and then ignored would accept any value and
    # change nothing.
    parser = _subparsers()[command]
    source = inspect.getsource(parser.get_default("func"))
    unread = [a.dest for a in parser._actions
              if not isinstance(a, argparse._HelpAction) and f"args.{a.dest}" not in source]
    assert unread == []
