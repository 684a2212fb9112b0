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
from hypothesis import given
from hypothesis import strategies as st

from tsgof import cli, harness
from tsgof.cli import build_parser, main, read_matrix_csv
from tsgof.entropy import knn_bias_constant
from tsgof.errors import ConfigError, DomainError
from tsgof.gof import infeasibility_reason
from tsgof.knn import knn_distances

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


def group_alive(proc):
    """Whether any process is left in the process group that proc leads."""
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return False
    return True


def kill_group(proc):
    """SIGKILL the process group that proc leads and wait until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # proc was reaped and its workers are gone
        pass
    proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    while group_alive(proc):
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

    def test_gg_boosted_gamma_bytes(self, capsys):
        # m/s = 1/4 takes the boosted Gamma draw
        code, out, _ = run_cli(
            ["sample", "--family", "gg", "--m", "1", "--s", "4", "--n", "5", "--seed", "3"],
            capsys)
        assert (code, out) == (0, "0.6120195532052702\n1.1678364402264054\n1.094216712460577\n"
                                  "-0.17632064076163326\n0.450918761295009\n")

    def test_family_flag_consistency(self, capsys):
        for family, flags, message in (
            ("gg", ["--q", "1.2"], "--family gg requires --s"),
            ("gg", ["--s", "2", "--q", "1.2"], "--family gg takes --s, not --q"),
            ("qgauss", ["--s", "2"], "--family qgauss requires --q"),
            ("qgauss", ["--q", "1.2", "--s", "2"], "--family qgauss takes --q, not --s"),
        ):
            code, out, err = run_cli(
                ["sample", "--family", family, "--m", "1", *flags, "--n", "10", "--seed", "1"],
                capsys)
            assert (code, out) == (1, "")
            assert json.loads(err) == {"error": message, "kind": "domain"}

    @pytest.mark.parametrize("mu", [[], ["--mu", "3"]], ids=["default-mu", "scalar-mu"])
    def test_negative_dimension_is_a_domain_error(self, capsys, mu):
        code, out, err = run_cli(
            ["sample", "--family", "qgauss", "--m", "-1", "--q", "1.2", *mu, "--n", "5",
             "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "dimension must be a positive integer, got -1", "kind": "domain"
        }

    @pytest.mark.parametrize("mu, message", [
        ("1,x", "bad --mu value: could not convert string to float: 'x'"),
        ("1,2,3", "--mu needs 1 or 2 values, got 3"),
        ("nan", "mu entries must be finite"),
    ], ids=["bad-token", "wrong-count", "nan"])
    def test_bad_mu_refused(self, capsys, mu, message):
        code, out, err = run_cli(
            ["sample", "--family", "qgauss", "--m", "2", "--q", "1.2", "--mu", mu, "--n", "5",
             "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": message, "kind": "domain"}

    def test_scalar_mu_shifts_every_column(self, capsys):
        args = ["sample", "--family", "qgauss", "--m", "3", "--q", "0.5", "--n", "20",
                "--seed", "4"]
        code, plain, _ = run_cli(args, capsys)
        code_mu, shifted, _ = run_cli([*args, "--mu", "3"], capsys)
        assert code == code_mu == 0
        plain_rows, shifted_rows = (
            np.array([line.split(",") for line in text.splitlines()], float)
            for text in (plain, shifted))
        assert np.array_equal(shifted_rows, plain_rows + 3.0)

    def test_zero_draws_write_nothing(self, capsys, tmp_path):
        args = ["sample", "--family", "gg", "--m", "2", "--s", "2", "--n", "0", "--seed", "5"]
        assert run_cli(args, capsys) == (0, "", "")
        out = tmp_path / "empty.csv"
        assert run_cli([*args, "--out", str(out)], capsys) == (0, "", "")
        assert out.read_bytes() == b""

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

    def test_sigma_file_of_wrong_shape_refused(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1,0,0\n0,1,0\n0,0,1\n")
        code, out, err = run_cli(
            ["sample", "--family", "qgauss", "--m", "2", "--q", "1.2",
             "--sigma", str(sigma), "--n", "10", "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "--sigma file must be 2x2, got 3x3", "kind": "domain"}


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

    def test_non_finite_estimate_exits_domain(self, capsys, tmp_path):
        # i_hat = 7.2e307 is finite, but h_hat = (1 - i_hat)/(q - 1) overflows
        data = tmp_path / "far.csv"
        data.write_text("0,0,0,0,0,0,0,0\n1.3e96,0,0,0,0,0,0,0\n")
        code, out, err = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "0.6"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "h_hat = inf is not finite: it overflows float64", "kind": "domain"
        }

    def test_n_not_above_k_exits_domain(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("0.0\n1.0\n")
        code, out, err = run_cli(["entropy", "--in", str(data), "--k", "2", "--q", "0.5"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "estimator requires N > k, got N=2, k=2", "kind": "domain"
        }

    @pytest.mark.parametrize("q, message", [
        ("1", "entropy order q = 1 is excluded (Shannon case out of scope)"),
        ("0", "entropy order q must be positive and finite, got 0.0"),
        ("-1", "entropy order q must be positive and finite, got -1.0"),
        ("nan", "entropy order q must be positive and finite, got nan"),
        ("inf", "entropy order q must be positive and finite, got inf"),
    ], ids=["one", "zero", "negative", "nan", "inf"])
    def test_order_refusals_in_full(self, capsys, tmp_path, q, message):
        data = tmp_path / "two.csv"
        data.write_text("0.0\n1.0\n")
        code, out, err = run_cli(["entropy", "--in", str(data), "--k", "1", f"--q={q}"], capsys)
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": message, "kind": "domain"}) + "\n"

    def test_unit_ball_volume_underflow_exits_domain(self, capsys, tmp_path):
        # V_m underflows float64 from m = 453
        data = tmp_path / "wide.csv"
        rows = np.random.default_rng(0).random((6, 1500))
        data.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
        code, out, err = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "0.5"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "the volume of the unit ball in R^1500 underflows float64", "kind": "domain"
        }

    def test_header_auto_detected(self, capsys, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("x1,x2\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
        code, out, _ = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["N"] == 3

    def test_half_numeric_first_line_is_a_bad_row(self, capsys, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("1,x\n3,4\n5,6\n7,9\n")
        code, out, err = run_cli(["entropy", "--in", str(data), "--k", "1", "--q", "0.5"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": f"{data}:1: non-numeric value (could not convert string to float: 'x')",
            "kind": "config",
        }

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

    def test_singular_sample_covariance_exits_domain(self, capsys, tmp_path):
        # N = m = 3: the rule refuses the sample before any Cholesky pivot
        data = tmp_path / "square.csv"
        data.write_text("0.1,0.2,0.3\n1.0,0.5,0.2\n0.3,0.9,0.7\n")
        code, out, err = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q=1.2", "--k", "1",
             "--simulate", "10", "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "sample covariance requires N > m, got N=3, m=3", "kind": "domain"
        }

    def test_overflowing_null_entropy_exits_domain(self, capsys, tmp_path):
        # the sample covariance (about 1e300) is finite, but the t2 null
        # member's q-integral at it, exp(987.45), is not
        data = tmp_path / "big3.csv"
        data.write_text("x0,x1,x2\n1e150,0,0\n0,1e150,0\n0,0,1e150\n"
                        "-1e150,-1e150,0\n0,-1e150,-1e150\n")
        code, out, err = run_cli(
            ["gof", "--in", str(data), "--family", "t2", "--q=0.05", "--k", "1",
             "--simulate", "3", "--seed", "3"], capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "q-Gaussian entropy overflows float64: log I_q = 987.454", "kind": "domain"
        }

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

    @pytest.mark.parametrize("bad_row", [
        "1.2,2,1,300,0.05,nan,500,0",
        "1.2,2,1,300,0.05,0.1,99,0",
        "1.2,2,1,300,0.05,0.1,500",
        "1.2,2,1.5,300,0.05,0.1,500,0",
    ])
    def test_bad_row_after_the_hit_exit_2(self, capsys, tmp_path, bad_row):
        # every row is checked before the table answers
        data = self.make_data(tmp_path)
        table = tmp_path / "table.csv"
        table.write_text(f"q,m,k,N,alpha,crit,M,seed\n1.2,2,1,300,0.05,0.123,500,0\n{bad_row}\n")
        code, _, err = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1",
             "--table", str(table)], capsys)
        assert code == 2
        error = json.loads(err)
        assert error["kind"] == "config" and f"{table}:3:" in error["error"]

    @pytest.mark.parametrize("rows, crit", [
        (["1.2,2,1,300,0.05,0.111,500,0", "1.2,2,1,300,0.05,0.222,500,0"], 0.111),
        (["1.2000000001,2,1,300,0.05,0.123,500,0"], 0.123),
        (["1.2,2,1,300,0.0500000001,0.123,500,0"], 0.123),
        (["1.2001,2,1,300,0.05,0.123,500,0"], None),
        (["1.2,2,1,300,0.05,infeasible,500,0", "1.2,2,1,300,0.05,0.123,500,0"], None),
    ], ids=["first-hit-wins", "q-within-1e-9", "alpha-within-1e-9", "q-off-by-1e-4",
            "infeasible-hit"])
    def test_table_match_rules(self, capsys, tmp_path, rows, crit):
        # a table's crit is used as it is; a miss, or an infeasible first
        # hit, falls through to the same simulation as no table at all
        data = self.make_data(tmp_path)
        table = tmp_path / "table.csv"
        table.write_text("\n".join(["q,m,k,N,alpha,crit,M,seed", *rows]) + "\n")
        args = ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1",
                "--simulate", "50", "--seed", "3"]
        code, out, _ = run_cli(args + ["--table", str(table)], capsys)
        assert code == 0
        if crit is None:
            simulated, simulated_out, _ = run_cli(args, capsys)
            assert simulated == 0 and out == simulated_out
        else:
            assert json.loads(out)["critical_value"] == crit

    def test_neither_table_nor_simulate_exit_2(self, capsys, tmp_path):
        data = self.make_data(tmp_path)
        code, _, _ = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flags, code, kind, message", [
        (["--simulate", "50"], 2, "config", "--simulate requires --seed"),
        (["--simulate", "1", "--seed", "1"], 1, "domain",
         "simulation budget must be at least 2 replications"),
        (["--simulate", "50", "--seed", "1", "--alpha", "0.6"], 1, "domain",
         "alpha must lie in (0, 0.5], got 0.6"),
    ], ids=["simulate-without-seed", "simulate-1", "alpha-0.6"])
    def test_simulation_and_alpha_refused(self, capsys, tmp_path, flags, code, kind, message):
        data = self.make_data(tmp_path)
        result = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.2", "--k", "1", *flags], capsys)
        assert result[:2] == (code, "")
        assert json.loads(result[2]) == {"error": message, "kind": kind}

    def test_infeasible_q_exit_1(self, capsys, tmp_path):
        data = self.make_data(tmp_path)
        code, _, err = run_cli(
            ["gof", "--in", str(data), "--family", "t1", "--q", "1.7", "--k", "1",
             "--simulate", "50", "--seed", "1"], capsys)
        assert code == 1
        assert "1 + 2/(m+2)" in json.loads(err)["error"]


# the estimator's bound, N > k and q < k + 1, at (family, q, m, k, N); the
# direct call is the estimator stage's own refusal of that bound
ESTIMATOR_REFUSALS = {
    "n-not-above-k": ("t2", 0.5, 2, 5, 5, lambda x: knn_distances(x, 5),
                      "estimator requires N > k, got N=5, k=5"),
    "q-not-below-k-plus-one": ("t1", 2.5, 1, 1, 20, lambda x: knn_bias_constant(1, 2.5),
                               "estimator requires q < k + 1 = 2, got q=2.5"),
}


@pytest.mark.parametrize("case", sorted(ESTIMATOR_REFUSALS))
def test_estimator_bound_refuses_in_one_wording(capsys, tmp_path, case):
    family, q, m, k, n, direct, message = ESTIMATOR_REFUSALS[case]
    x = np.random.default_rng(25).standard_normal((n, m))
    data = tmp_path / "x.csv"
    np.savetxt(data, x, delimiter=",")
    flags = ["--k", str(k), "--q", str(q), "--in", str(data)]
    line = json.dumps({"error": message, "kind": "domain"}) + "\n"
    assert run_cli(["entropy", *flags], capsys) == (1, "", line)
    gof = ["gof", *flags, "--family", family, "--simulate", "3", "--seed", "3"]
    assert run_cli(gof, capsys) == (1, "", line)
    with pytest.raises(DomainError) as err:
        direct(x)
    assert str(err.value) == message
    assert infeasibility_reason(family, q, m, k, n) == message


@pytest.mark.parametrize("args, message", [
    (["entropy", "--k", "x", "--q", "0.5", "--in", "f.csv"],
     "tsgof entropy: argument --k: invalid int value: 'x'"),
    (["entropy", "--k", "1", "--in", "f.csv"],
     "tsgof entropy: the following arguments are required: --q"),
    (["frob"], "tsgof: argument command: invalid choice: 'frob'"),
    ([], "tsgof: the following arguments are required: command"),
], ids=["bad-int", "missing-flag", "unknown-subcommand", "no-subcommand"])
def test_usage_error_exit_2_config(capsys, args, message):
    # argparse's message after the command's name, in place of its usage text;
    # an invalid choice lists the choices in a format that varies with Python
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    error = json.loads(line)
    assert error["kind"] == "config" and error["error"].startswith(message)


@pytest.mark.parametrize("command, name, text", [
    (["entropy", "--k", "1", "--q", "0.5", "--in"], "x.csv", b"x1,x2\n1.0,2.0\n3.0,4.0 \xe9\n"),
    (["sample", "--family", "qgauss", "--m", "2", "--q", "1.2", "--n", "5", "--seed", "1",
      "--sigma"], "sigma.csv", b"1.0,0.0\n0.0,1.0\xe9\n"),
    (["gof", "--in", "GOOD", "--family", "t1", "--q", "1.2", "--k", "1", "--table"],
     "table.csv", b"q,m,k,N,alpha,crit,M,seed\n1.2,2,1,5,0.05,0.1,100,0 \xe9\n"),
    (["critical-values", "--out", "OUT", "--config"], "cv.cfg",
     TINY_CONFIG.encode() + b"# caf\xe9\n"),
], ids=["entropy-in", "sample-sigma", "gof-table", "critical-values-config"])
def test_undecodable_input_exit_2_config(capsys, tmp_path, command, name, text):
    good = tmp_path / "good.csv"
    good.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n0.5,0.2\n")
    bad = tmp_path / name
    bad.write_bytes(text)
    replace = {"GOOD": str(good), "OUT": str(tmp_path / "out")}
    code, out, err = run_cli([replace.get(a, a) for a in command] + [str(bad)], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "config"
    assert error["error"].startswith("cannot read ") and str(bad) in error["error"]


_HEADER = b"q,m,k,N,alpha,crit,M,seed"
_TOKENS = [b"nan", b"inf", b"-inf", b"1e999", b"infeasible", b"1_0", b"\xe9", b"caf\xc3\xa9",
           b"", b" ", b"1.2", b"2", b"100", b"0.05", b"-1", b"99"]
_CONFIG_LINES = [b"kind = critical-values", b"kind = convergence", b"family = t2", b"M = 100",
                 b"M = nan", b"alpha = inf", b"master_seed = -1", b"n = 1_0", b"draws = 1",
                 b"[grid]", b"[grid", b"q = 1.2 nan", b"m = 0 2", b"k = 1", b"N = 1_0 5",
                 b"# caf\xe9", b"q = 1.2 # c"]
_LINES = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=9).map(b",".join),
    st.sampled_from(_CONFIG_LINES),
)
_FILES = st.one_of(
    st.binary(max_size=200),
    st.tuples(st.booleans(), st.lists(_LINES, max_size=8)).map(
        lambda t: b"\n".join(([_HEADER] if t[0] else []) + t[1])
    ),
)


@pytest.fixture(scope="module")
def fuzzed_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@given(data=_FILES)
def test_readers_raise_only_config_error(fuzzed_file, data):
    # every input reader returns or raises ConfigError, whatever the bytes
    fuzzed_file.write_bytes(data)
    readers = (
        read_matrix_csv,
        lambda p: harness.read_critical_value(p, 1.2, 2, 1, 100, 0.05),
        harness.load_config,
    )
    for read in readers:
        try:
            read(fuzzed_file)
        except ConfigError:
            pass


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

    def test_constant_draws_past_one_bin_exit_1_domain(self, capsys, tmp_path, monkeypatch):
        # a member whose draws are one constant of magnitude 2**53 or more
        # gets no histogram bin of positive width
        def constant(params, n, rng):
            return np.full((n, params.m), 3.25e300)

        monkeypatch.setattr(harness, "qgauss_sample", constant)
        cfg = tmp_path / "shape.cfg"
        cfg.write_text(TINY_CONFIG.replace("critical-values", "distribution-shape")
                       .replace("M = 100", "M = 20\ndraws = 100"))
        out_dir = tmp_path / "results"
        code, out, err = run_cli(["shape", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert json.loads(line) == {
            "error": "the draws of the q=1.2, m=2 member all equal 3.25e+300, "
                     "and a bin around it has no width in float64",
            "kind": "domain",
        }

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

    @pytest.mark.parametrize(
        "command, edits, message",
        [
            ("critical-values", [("kind = critical-values", "kind = frob")],
             "unknown experiment kind 'frob' (expected one of ('critical-values', "
             "'normality-sweep', 'convergence', 'consistency-curves', 'distribution-shape'))"),
            ("critical-values", [("family = t1", "family = t3")],
             "unknown family 't3' (expected one of ('t1', 't2'))"),
            ("convergence", [("critical-values", "convergence"), ("M = 100", "M = 1")],
             "M must be at least 2"),
            ("critical-values", [("alpha = 0.05", "alpha = 0.6")],
             "alpha must lie in (0, 0.5], got 0.6"),
            ("shape", [("critical-values", "distribution-shape"), ("M = 100", "M = 20\ndraws = 1")],
             "draws must be at least 2"),
            ("critical-values", [("[grid]", "[grids]")], "{cfg}:7: unknown section '[grids]'"),
            ("critical-values", [("master_seed = 99", "master_seed = -1")],
             "master_seed must be an integer in [0, 2**64 - 1], got -1"),
        ],
        ids=["kind", "family", "M-below-2", "alpha", "draws", "section", "master-seed"],
    )
    def test_config_refusals_in_full(self, capsys, tmp_path, command, edits, message):
        text = TINY_CONFIG
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out_dir = tmp_path / "o"
        code, out, err = run_cli([command, "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message.format(cfg=cfg), "kind": "config"}
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

    @staticmethod
    def interrupt_run(tmp_path, send_sigint):
        """Start `critical-values --workers 2` on one N = 8000 task and three
        small ones in its own session, call send_sigint(proc) while the large
        task runs and after the three small cells are written, and return
        (proc, stderr, whether any process of the run outlived the parent by
        a second, run dir, cells dir, CLI args without the run dir)."""
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG.replace("N = 60", "N = 8000 60 80 100"))
        run = tmp_path / "run"
        cells = run / ".cells" / harness.load_config(cfg).config_hash()
        small = [cells / f"task-{i:06d}.json" for i in range(1, 4)]
        args = ["critical-values", "--config", str(cfg), "--workers", "2", "--out"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "tsgof.cli", *args, str(run)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30
            while proc.poll() is None and time.monotonic() < deadline:
                if all(path.exists() for path in small):
                    break
                time.sleep(0.01)
            send_sigint(proc)
            _, err = proc.communicate(timeout=30)
            deadline = time.monotonic() + 1
            while (left := group_alive(proc)) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            kill_group(proc)
        return proc, err, left, run, cells, args

    def test_interrupted_run_exits_1_and_resumes(self, capsys, tmp_path):
        # SIGINT to the whole process group, as Ctrl-C sends it
        proc, err, _, run, _, args = self.interrupt_run(
            tmp_path, lambda proc: os.killpg(proc.pid, signal.SIGINT))
        assert proc.returncode == 1
        (line,) = err.decode().splitlines()
        assert json.loads(line)["kind"] == "interrupted"
        assert [path.name for path in run.iterdir()] == [".cells"]  # no CSV, no manifest
        assert run_cli(args + [str(run)], capsys)[0] == 0
        clean = args[:-3] + ["--out", str(tmp_path / "clean")]
        assert run_cli(clean, capsys)[0] == 0
        assert tree_bytes(run) == tree_bytes(tmp_path / "clean")

    def test_sigint_to_parent_alone_stops_the_run(self, capsys, tmp_path):
        # `kill -INT <pid>` reaches the parent only, not its pool workers;
        # the large task must still be stopped, not run to its end
        proc, err, left, run, cells, args = self.interrupt_run(
            tmp_path, lambda proc: proc.send_signal(signal.SIGINT))
        assert proc.returncode == 1
        (line,) = err.decode().splitlines()
        assert json.loads(line)["kind"] == "interrupted"
        assert [path.name for path in run.iterdir()] == [".cells"]  # no CSV, no manifest
        assert not left, "a pool worker outlived the parent"
        assert len(list(cells.glob("task-*.json"))) < 4, "the large task ran to its end"
        assert run_cli(args + [str(run)], capsys)[0] == 0
        clean = args[:-3] + ["--out", str(tmp_path / "clean")]
        assert run_cli(clean, capsys)[0] == 0
        assert tree_bytes(run) == tree_bytes(tmp_path / "clean")

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + "\nwhat = 3\n")
        code, _, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "what" in json.loads(err)["error"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, tmp_path, workers):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            ["critical-values", "--config", str(cfg), "--out", str(out_dir), "--workers", workers],
            capsys)
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["kind"] == "config"
        assert error["error"] == f"--workers must be at least 1, got {workers}"
        assert not out_dir.exists()  # refused before any task ran

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
        assert json.loads(err)["error"] == (
            "config kind 'critical-values' does not match subcommand 'normality-sweep' "
            "(expected one of ('normality-sweep',))"
        )

    def test_subcommands_run_every_kind_once(self):
        kinds = [kind for _, allowed in cli._EXPERIMENTS.values() for kind in allowed]
        assert sorted(kinds) == sorted(harness.KINDS)

    def test_no_out_dir_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(TINY_CONFIG)
        code, out, err = run_cli(["critical-values", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "no output directory: pass --out", "kind": "config"}

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


# the package's public names: those before its import became lazy, less
# null_max_entropy, qgauss_shape_from_covariance and knn_distances_bruteforce,
# which moved to the test oracles, sample_mean_cov, whose work sample_moments
# does for a stack, the critical-value table classes, whose one use
# read_critical_value serves, and the names only tests called: the log-pdfs,
# which moved to the test oracles, the normalizing constants, the covariance
# matrices, mahalanobis_sq and tsallis_entropy_uniform; and log_gamma and
# draw_gamma, whose work knn_bias_constant and gg_sample do inline
PUBLIC_NAMES = [
    "ConfigError", "ConsistencyReport", "DegenerateSampleError", "DomainError",
    "EntropyEstimate", "ExperimentConfig", "GGParams", "GridBlock", "InfeasibleModelError",
    "NotPositiveDefiniteError", "QGaussianParams", "RegressionFit", "RngStream",
    "ShapiroResult", "SymPDMatrix", "TestResult", "as_sample_matrix",
    "check_consistency_conditions", "cholesky", "distributions",
    "empirical_quantile", "entropy", "errors", "gg_q_integral", "gg_sample",
    "gg_tsallis_entropy", "gg_variance_scale", "gof", "gof_statistic", "harness", "knn",
    "knn_bias_constant", "knn_distances", "linalg", "load_config", "log_det",
    "mathcore", "ols_slope_with_offset", "parse_config", "qgauss_covariance_factor",
    "qgauss_q_integral", "qgauss_sample", "qgauss_tsallis_entropy", "read_critical_value",
    "run_experiment", "run_test", "shapiro_wilk", "statkit", "tsallis_knn_estimate",
    "unit_ball_volume",
]
SUBMODULES = ["distributions", "entropy", "errors", "gof", "harness", "knn", "linalg",
              "mathcore", "statkit"]


def fresh_python(code, openblas_threads=None):
    """The stdout of code run in a fresh interpreter that imports tsgof from
    SRC, with OPENBLAS_NUM_THREADS set to openblas_threads or, if None, unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def numpy_bundles_openblas():
    try:
        return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode argument
        return False


class TestLazyPackage:
    def test_import_loads_neither_numpy_nor_scipy(self):
        code = "import sys, tsgof; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
        assert fresh_python(code) == "[]"

    def test_star_import_binds_the_public_names(self):
        code = "ns = {}; exec('from tsgof import *', ns); print(sorted(ns))"
        assert fresh_python(code) == str(sorted(PUBLIC_NAMES + ["__builtins__"]))

    def test_submodules_resolve_after_plain_import(self):
        code = f"import tsgof; print([getattr(tsgof, name).__name__ for name in {SUBMODULES}])"
        assert fresh_python(code) == str([f"tsgof.{name}" for name in SUBMODULES])

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    def test_cli_import_starts_no_blas_threads(self):
        code = "import os, tsgof.cli; print(len(os.listdir('/proc/self/task')))"
        assert fresh_python(code) == "1"
        if len(os.sched_getaffinity(0)) < 2 or not numpy_bundles_openblas():
            pytest.skip("OpenBLAS starts no pool on one CPU, and other BLAS builds differ")
        assert int(fresh_python(code, openblas_threads="2")) > 1  # the caller's value wins

    def test_cli_import_after_numpy_leaves_environment(self):
        code = (
            "import os, numpy; before = dict(os.environ); import tsgof.cli; "
            "print(dict(os.environ) == before)"
        )
        assert fresh_python(code) == "True"


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_get_the_mode_open_gives(tmp_path, umask, mode):
    # a plain open() creates 0o666 less the umask; a temporary file is 0o600
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(TINY_CONFIG)
    for args in (
        ["critical-values", "--config", str(cfg), "--out", str(tmp_path / "run")],
        ["sample", "--family", "qgauss", "--q", "1.2", "--m", "2", "--n", "5", "--seed", "1",
         "--out", str(tmp_path / "draws.csv")],
    ):
        fresh_python(f"import os; os.umask({umask}); from tsgof.cli import main; main({args!r})")
    for path in (
        tmp_path / "run" / "critical_values.csv",
        tmp_path / "run" / "critical_values_manifest.json",
        tmp_path / "draws.csv",
    ):
        assert oct(path.stat().st_mode & 0o777) == oct(mode), path.name


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
