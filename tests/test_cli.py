import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import memaccel
from memaccel.cli import build_parser, main


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
                         "--grid", "11", "--samples-csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "lambda,max_root_modulus"
        assert len(lines) >= 12

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


    def test_memoryless_without_seed_file(self, capsys):
        code, out, err = run(capsys, "search", "--set", "0.1:2", "--M", "1",
                             "--budget", "30")
        d = json.loads(out)
        assert code == 0 and err == ""
        assert d["gains"]["M"] == 1 and d["gains"]["betas"] == []
        # The optimal memoryless factor of [0.1, 2] is 1.9 / 2.1.
        assert d["report"]["nu"] == pytest.approx(1.9 / 2.1, abs=1e-9)


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
                                       {"1.5": [[0, 1]]}, {"true": [[0, 1]]}])
    def test_non_integer_drops_exit3(self, capsys, tmp_path, drops):
        graph = write_path3(tmp_path)
        gains = write_gains(tmp_path, 1, 0.4, [])
        path = tmp_path / "drops.json"
        path.write_text(json.dumps(drops))
        code, out, err = run(capsys, "simulate", "--graph", graph, "--gains", gains,
                             "--steps", "5", "--x0", "1,0,-1", "--drops", str(path))
        assert code == 3 and err.startswith("error:")
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

    @pytest.mark.parametrize("window", ["-2:2:oops", "-2:2:-2:2:x", "a:2:-2:2:64"])
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

    def test_window_ignored_without_field(self, capsys, tmp_path):
        gains = write_gains(tmp_path, 2, 3.0, [-0.5])
        code, out, _ = run(capsys, "certify", "--gains", gains, "--interval", REF,
                           "--window=-2:2:oops")
        assert code == 0
        assert json.loads(out)["witness"]["found"] is True


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

    def test_edgeless_graph_exit3(self, capsys, tmp_path):
        bad = tmp_path / "empty.txt"
        bad.write_text("# no edges\n")
        code, _, _ = run(capsys, "spectrum", "--graph", str(bad))
        assert code == 3


def test_import_does_not_load_scipy():
    src = str(Path(memaccel.__file__).resolve().parents[1])
    code = "import sys, memaccel.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_readme_names_only_existing_flags():
    # A flag the README names outside its Install block must be an option
    # of some subcommand, so a removed flag cannot stay documented.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = re.sub(r"## Install\n.*?(?=\n## )", "", readme, flags=re.S)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for o in p._option_string_actions}
    assert set(re.findall(r"--[A-Za-z][\w-]*", readme)) - options == set()
