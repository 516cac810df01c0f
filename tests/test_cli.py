import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memaccel
from memaccel.cli import main


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


class TestSpectrum:
    def test_path3(self, capsys, tmp_path):
        graph = write_path3(tmp_path)
        code, out, _ = run(capsys, "spectrum", "--graph", graph)
        d = json.loads(out)
        assert code == 0
        assert d["eigenvalues"] == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)
        assert d["nonzero_interval"] == pytest.approx([1.0, 3.0], abs=1e-9)

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
