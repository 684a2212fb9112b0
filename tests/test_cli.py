import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tsgof.cli import main, read_matrix_csv
from tsgof.errors import ConfigError

TINY_CONFIG = """
kind = critical-values
family = t1
master_seed = 99
alpha = 0.05
M = 100
[grid]
q = 1.2
m = 2
k = 1
N = 60
"""


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_deterministic_output(self, capsys, tmp_path):
        args = ["sample", "--family", "qgauss", "--m", "2", "--q", "1.2",
                "--n", "1000", "--seed", "7"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = out1.strip().splitlines()
        assert len(rows) == 1000
        assert len(rows[0].split(",")) == 2

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "draws.csv"
        code, _, _ = run_cli(
            ["sample", "--family", "gg", "--m", "1", "--s", "2", "--n", "50",
             "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        assert read_matrix_csv(out).shape == (50, 1)

    def test_infeasible_names_bound(self, capsys, tmp_path):
        out = tmp_path / "never.csv"
        code, _, err = run_cli(
            ["sample", "--family", "qgauss", "--m", "2", "--q", "3", "--n", "10",
             "--seed", "1", "--out", str(out)], capsys)
        assert code == 1
        message = json.loads(err)
        assert message["kind"] == "domain"
        assert "1 + 2/m" in message["error"]
        assert not out.exists()  # no partial output left behind

    def test_gg_normal_moments(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--family", "gg", "--m", "1", "--s", "2", "--n", "20000",
             "--seed", "5"], capsys)
        draws = np.array([float(line) for line in out.strip().splitlines()])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.var() - 1.0) < 0.05

    def test_family_flag_consistency(self, capsys):
        code, _, err = run_cli(
            ["sample", "--family", "gg", "--m", "1", "--q", "1.2", "--n", "10",
             "--seed", "1"], capsys)
        assert code == 1
        code, _, err = run_cli(
            ["sample", "--family", "qgauss", "--m", "1", "--s", "2", "--n", "10",
             "--seed", "1"], capsys)
        assert code == 1

    def test_sigma_file_and_mu(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("4.0,0.0\n0.0,1.0\n")
        code, out, _ = run_cli(
            ["sample", "--family", "qgauss", "--m", "2", "--q", "1.2",
             "--sigma", str(sigma), "--mu", "10,20", "--n", "5000", "--seed", "11"], capsys)
        assert code == 0
        draws = np.array([[float(v) for v in line.split(",")] for line in out.strip().splitlines()])
        assert abs(draws[:, 0].mean() - 10.0) < 0.3
        assert abs(draws[:, 1].mean() - 20.0) < 0.3

    def test_bad_sigma_rejected(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1.0,0.9\n0.2,1.0\n")
        code, _, err = run_cli(
            ["sample", "--family", "qgauss", "--m", "2", "--q", "1.2",
             "--sigma", str(sigma), "--n", "10", "--seed", "1"], capsys)
        assert code == 1


class TestEntropy:
    def test_two_point_example(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("0.0\n1.0\n")
        code, out, _ = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "0.5"], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["i_hat"] == pytest.approx(math.sqrt(8.0 / math.pi), abs=1e-12)
        assert result["h_hat"] == pytest.approx(
            (1.0 - math.sqrt(8.0 / math.pi)) / -0.5, abs=1e-12
        )
        assert result["N"] == 2 and result["m"] == 1

    def test_engines_agree(self, capsys, tmp_path):
        data = tmp_path / "x.csv"
        gen = np.random.default_rng(4)
        rows = gen.random((200, 2))
        data.write_text("\n".join(",".join(map(repr, r)) for r in rows) + "\n")
        _, out_tree, _ = run_cli(["entropy", "--in", str(data), "--k", "2", "--q", "0.5"], capsys)
        _, out_brute, _ = run_cli(
            ["entropy", "--in", str(data), "--k", "2", "--q", "0.5", "--engine", "brute"], capsys)
        assert out_tree == out_brute

    def test_duplicates_exit_domain(self, capsys, tmp_path):
        data = tmp_path / "dup.csv"
        data.write_text("1.0\n1.0\n2.0\n")
        code, _, err = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "1.5"], capsys)
        assert code == 1
        assert json.loads(err)["kind"] == "domain"

    def test_header_auto_detected(self, capsys, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("x1,x2\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
        code, out, _ = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["N"] == 3

    def test_ragged_row_names_line(self, capsys, tmp_path):
        data = tmp_path / "r.csv"
        data.write_text("0.0,0.0\n1.0\n")
        code, _, err = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "0.5"], capsys)
        assert code == 2
        assert ":2:" in json.loads(err)["error"]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["entropy", "--in", "/no/such.csv", "--k", "1", "--q", "0.5"], capsys)
        assert code == 2


class TestGof:
    def make_data(self, tmp_path, n=300):
        out = tmp_path / "data.csv"
        code = main(["sample", "--family", "qgauss", "--m", "2", "--q", "1.2",
                     "--n", str(n), "--seed", "21", "--out", str(out)])
        assert code == 0
        return out

    def test_simulate_path(self, capsys, tmp_path):
        data = self.make_data(tmp_path)
        code, out, _ = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1",
             "--simulate", "60", "--seed", "31"], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["alpha"] == 0.05
        assert isinstance(result["reject"], bool)
        assert math.isfinite(result["critical_value"])

    def test_table_path(self, capsys, tmp_path):
        data = self.make_data(tmp_path)
        table = tmp_path / "table.csv"
        table.write_text(
            "q,m,k,N,alpha,crit,M,seed\n1.2,2,1,300,0.05,0.123,500,0\n"
        )
        code, out, _ = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1",
             "--table", str(table)], capsys)
        assert code == 0
        assert json.loads(out)["critical_value"] == 0.123

    def test_table_miss_without_simulate_exit_2(self, capsys, tmp_path):
        data = self.make_data(tmp_path)
        table = tmp_path / "table.csv"
        table.write_text("q,m,k,N,alpha,crit,M,seed\n1.2,2,1,999,0.05,0.1,500,0\n")
        code, _, err = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1",
             "--table", str(table)], capsys)
        assert code == 2
        assert json.loads(err)["kind"] == "config"

    def test_neither_table_nor_simulate_exit_2(self, capsys, tmp_path):
        data = self.make_data(tmp_path)
        code, _, _ = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1"], capsys)
        assert code == 2

    def test_infeasible_q_exit_1(self, capsys, tmp_path):
        data = self.make_data(tmp_path)
        code, _, err = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.7", "--k", "1",
             "--simulate", "50", "--seed", "1"], capsys)
        assert code == 1
        assert "1 + 2/(m+2)" in json.loads(err)["error"]


class TestExperimentCommands:
    def test_critical_values_roundtrip(self, capsys, tmp_path):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(out_dir), "--workers", "1"],
            capsys)
        assert code == 0
        written = json.loads(out)["written"]
        assert any(p.endswith("critical_values.csv") for p in written)
        first = (out_dir / "critical_values.csv").read_bytes()
        code, _, _ = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(out_dir), "--workers", "2"],
            capsys)
        assert code == 0
        assert (out_dir / "critical_values.csv").read_bytes() == first

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + "\nwhat = 3\n")
        code, _, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "what" in json.loads(err)["error"]

    def test_kind_mismatch_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG)
        code, _, err = run_cli(
            ["normality-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert code == 2

    def test_no_out_dir_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG)
        code, _, _ = run_cli(["critical-values", "--config", str(cfg)], capsys)
        assert code == 2

    def test_convergence_accepts_consistency_kind(self, capsys, tmp_path):
        cfg = tmp_path / "cc.cfg"
        cfg.write_text(
            "kind = consistency-curves\nfamily = t2\nmaster_seed = 4\nM = 100\n"
            "[grid]\nq = 0.5\nm = 1\nk = 1\nN = 100\n"
        )
        code, out, _ = run_cli(
            ["convergence", "--config", str(cfg), "--out", str(tmp_path / "cc")], capsys)
        assert code == 0
        assert (tmp_path / "cc" / "consistency.csv").exists()

    def test_unreadable_cell_file_recomputed(self, capsys, tmp_path, caplog):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG.replace("N = 60", "N = 60 80"))
        args = ["critical-values", "--config", str(cfg), "--workers", "1", "--out"]
        clean, run = tmp_path / "clean", tmp_path / "run"
        assert run_cli(args + [str(clean)], capsys)[0] == 0
        assert run_cli(args + [str(run)], capsys)[0] == 0
        (cell,) = run.glob(".cells/*/task-000001.json")
        cell.write_bytes(cell.read_bytes()[:10])
        code, _, _ = run_cli(args + [str(run)], capsys)
        assert code == 0
        assert "unreadable cell file" in caplog.text
        assert tree_bytes(run) == tree_bytes(clean)


    @pytest.mark.parametrize("payload", ["{}", "nan-crit"])
    def test_invalid_cell_payload_recomputed(self, capsys, tmp_path, caplog, payload):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG.replace("N = 60", "N = 60 80"))
        args = ["critical-values", "--config", str(cfg), "--workers", "1", "--out"]
        clean, run = tmp_path / "clean", tmp_path / "run"
        assert run_cli(args + [str(clean)], capsys)[0] == 0
        assert run_cli(args + [str(run)], capsys)[0] == 0
        (cell,) = run.glob(".cells/*/task-000001.json")
        if payload == "{}":
            cell.write_text("{}")
        else:
            doctored = json.loads(cell.read_text())
            doctored["cells"][0]["critical_values.csv"][0][5] = "NaN"
            cell.write_text(json.dumps(doctored))
        code, _, _ = run_cli(args + [str(run)], capsys)
        assert code == 0
        assert "invalid cell file" in caplog.text
        assert tree_bytes(run) == tree_bytes(clean)


class TestEntryPoint:
    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "tsgof.cli", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "sample" in result.stdout

    def test_import_leaves_out_scipy_stats(self):
        code = "import sys, tsgof.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    def test_read_matrix_rejects_empty(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(ConfigError):
            read_matrix_csv(empty)
