import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tsgof import harness
from tsgof.cli import build_parser, main, read_matrix_csv
from tsgof.errors import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"

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


def results(root):
    """tree_bytes without the cell cache."""
    return {path: data for path, data in tree_bytes(root).items() if path.parts[0] != ".cells"}


def kill_group(proc):
    """SIGKILL the process group that proc leads and wait until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # proc was reaped and its workers are gone
        pass
    proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, "pool workers outlived SIGKILL"
        time.sleep(0.01)


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

    @pytest.mark.parametrize("crit, replications", [("nan", "500"), ("0.1", "99")])
    def test_bad_table_row_exit_2(self, capsys, tmp_path, crit, replications):
        data = self.make_data(tmp_path)
        table = tmp_path / "table.csv"
        table.write_text(
            f"q,m,k,N,alpha,crit,M,seed\n1.2,2,1,300,0.05,{crit},{replications},0\n"
        )
        code, _, err = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1",
             "--table", str(table)], capsys)
        assert code == 2
        error = json.loads(err)
        assert error["kind"] == "config" and f"{table}:2:" in error["error"]

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

    def test_unexpected_exception_exit_1_internal(self, capsys, tmp_path, monkeypatch):
        def broken(config, cache_dir, task):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "_compute_task", broken)
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG)
        out_dir = tmp_path / "results"
        code, out, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        message = json.loads(line)
        assert message["kind"] == "internal"
        assert message["error"] == "RuntimeError: boom"
        assert message["traceback"].rstrip().endswith("RuntimeError: boom")
        assert [p.name for p in out_dir.iterdir()] == [".cells"]  # no primary output

    def test_non_finite_computed_value_exit_1_internal(self, capsys, tmp_path, monkeypatch):
        # a computed matrix reaches the reducers only through the cell check
        def non_finite(n, m, ks, q, family, streams, statistic):
            return np.full((100, len(ks)), np.nan)

        monkeypatch.setattr(harness, "null_replicates", non_finite)
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG)
        out_dir = tmp_path / "results"
        code, out, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        message = json.loads(line)
        assert message["kind"] == "internal"
        assert "computed invalid cell file" in message["error"] and "nan" in message["error"]
        assert [p.name for p in out_dir.iterdir()] == [".cells"]  # no table, no manifest

    @pytest.mark.parametrize(
        "command, edits, expected",
        [
            # past the Shapiro-Wilk range: refused before any replicate runs
            ("normality-sweep",
             [("critical-values", "normality-sweep"), ("M = 100", "M = 2\nn = 5001")],
             "3 <= n <= 5000"),
            ("critical-values", [("master_seed = 99", "master_seed = -1")], "master_seed"),
            ("critical-values", [("master_seed = 99", "master_seed = 18446744073709551616")],
             "master_seed"),
            ("critical-values", [("q = 1.2", "q = 1.2 nan")], "'q' must be finite"),
            ("critical-values", [("q = 1.2", "q = inf")], "'q' must be finite"),
            # the output directory comes from --out alone
            ("critical-values", [("alpha", "out = o\nalpha")], "unknown key 'out'"),
        ],
    )
    def test_config_checked_before_compute_exit_2(self, capsys, tmp_path, command, edits, expected):
        text = TINY_CONFIG.replace("N = 60", "N = 5")
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out_dir = tmp_path / "o"
        code, out, err = run_cli([command, "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["kind"] == "config" and expected in error["error"]
        assert not out_dir.exists()

    def test_workers_default_is_one_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("TSGOF_WORKERS", "2")
        args = build_parser().parse_args(["critical-values", "--config", "x.cfg"])
        assert args.workers == 1

    def test_killed_run_resumes(self, capsys, tmp_path):
        # one N = 8000 task runs for seconds on one worker while the three
        # small ones finish on the other; a SIGKILL then must leave their cells
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG.replace("N = 60", "N = 8000 60 80 100"))
        run = tmp_path / "run"
        cells = run / ".cells" / harness.load_config(cfg).config_hash()
        large, *small = (cells / f"task-{i:06d}.json" for i in range(4))
        args = ["critical-values", "--config", str(cfg), "--workers", "2", "--out"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "tsgof.cli", *args, str(run)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30
            while proc.poll() is None and time.monotonic() < deadline:
                if all(path.exists() for path in small):
                    break
                time.sleep(0.01)
            large_written = large.exists()
        finally:
            kill_group(proc)
        assert all(path.exists() for path in small)
        assert not large_written, "the small cells appeared only once the large task ended"
        written = {path: path.stat().st_mtime_ns for path in small}
        assert run_cli(args + [str(run)], capsys)[0] == 0
        assert {path: path.stat().st_mtime_ns for path in small} == written  # reused
        clean = ["critical-values", "--config", str(cfg), "--out", str(tmp_path / "clean")]
        assert run_cli(clean, capsys)[0] == 0
        assert results(run) == results(tmp_path / "clean")

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + "\nwhat = 3\n")
        code, _, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "what" in json.loads(err)["error"]

    def test_engine_key_is_unknown_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("engine = tree\n" + TINY_CONFIG)
        out_dir = tmp_path / "o"
        code, _, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 2
        error = json.loads(err)
        assert error["kind"] == "config"
        assert "unknown key 'engine'" in error["error"]
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("key", ["m", "k"])
    def test_grid_value_below_one_exit_2(self, capsys, tmp_path, key):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG.replace(f"\n{key} = ", f"\n{key} = 0 "))
        code, _, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        error = json.loads(err)
        assert error["kind"] == "config" and repr(key) in error["error"]
        assert not (tmp_path / "o").exists()

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


    @pytest.mark.parametrize("payload", ["{}", "nan-crit", "other-point", "row-cache"])
    def test_invalid_cell_payload_recomputed(self, capsys, tmp_path, caplog, payload):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG.replace("N = 60", "N = 60 80"))
        args = ["critical-values", "--config", str(cfg), "--workers", "1", "--out"]
        clean, run = tmp_path / "clean", tmp_path / "run"
        assert run_cli(args + [str(clean)], capsys)[0] == 0
        assert run_cli(args + [str(run)], capsys)[0] == 0
        (cell,) = run.glob(".cells/*/task-000001.json")
        doctored = json.loads(cell.read_text())
        if payload == "{}":
            doctored = {}
        elif payload == "nan-crit":
            doctored["matrix"][0][0] = math.nan
        elif payload == "other-point":
            doctored["point"][2] = 60  # the tag of task 0
        else:  # a cell of the cache layout that held each kind's rows
            doctored = {"cells": [{"critical_values.csv": [[1.2, 2, 1, 80, 0.05, 0.1, 100, 99]]}]}
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
