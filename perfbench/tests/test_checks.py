"""The benchmark's own tests: a tiny grid of each workload passes the
checks, and deliberately corrupted outputs are rejected.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tsgof.cli  # noqa: E402
from workloads import Consistency, CritTable, SingleTest  # noqa: E402


def _tiny_outputs(workload_cls, tmp_path):
    workload = workload_cls(tmp_path / "inputs", seed=5, tiny=True)
    _, records, outputs = run.run_round(
        workload, tmp_path / "out", lambda c: run.run_inprocess(c, tsgof.cli), workers=1
    )
    assert all(r["rc"] == 0 for r in records), [r["stderr"] for r in records]
    return workload, outputs


def _edit_file(outputs, slot, name, edit):
    output = outputs[slot]
    files = dict(output.files)
    files[name] = edit(files[name].decode("utf-8")).encode("utf-8")
    return {**outputs, slot: replace(output, files=files)}


def _edit_row(text, row_index, column, value):
    lines = text.splitlines()
    cells = lines[row_index].split(",")
    cells[column] = value
    lines[row_index] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def crit(tmp_path_factory):
    return _tiny_outputs(CritTable, tmp_path_factory.mktemp("crit"))


@pytest.fixture(scope="module")
def consistency(tmp_path_factory):
    return _tiny_outputs(Consistency, tmp_path_factory.mktemp("consistency"))


@pytest.fixture(scope="module")
def single(tmp_path_factory):
    return _tiny_outputs(SingleTest, tmp_path_factory.mktemp("single"))


def test_reference_draws_have_the_quadrature_variance():
    rng = np.random.default_rng(0)
    for family, q, m in (("t1", 1.2, 2), ("t2", 0.5, 3)):
        x = reference.null_draws(rng, family, q, m, 200_000)
        _, var = reference.standard_member(q, m)
        assert np.allclose(x.var(axis=0), var, rtol=0.03)


def test_feasibility_rule_marks_the_covariance_bridge():
    assert reference.infeasibility("critical-values", "t1", 1.5, 2, 1, 100) == "1.5"
    assert reference.infeasibility("critical-values", "t1", 1.2, 3, 1, 100) is None
    assert reference.infeasibility("consistency-curves", "t1", 1.5, 2, 1, 100) is None


def test_tiny_grids_pass(crit, consistency, single):
    for workload, outputs in (crit, consistency, single):
        assert workload.check(outputs) == []


def test_wrong_crit_rejected(crit):
    workload, outputs = crit
    # row 1 is (q=1.2, m=2, k=1, N=100): the band and the fall with N both see it
    bad = _edit_file(outputs, "fresh", "critical_values.csv",
                     lambda t: _edit_row(t, 1, 5, "0.001"))
    problems = workload.check(bad)
    assert any("outside" in p for p in problems)
    assert any("does not fall" in p for p in problems)


def test_missing_infeasible_marker_rejected(crit):
    workload, outputs = crit
    # row 3 is (q=1.5, m=2, k=1, N=100), past the covariance bridge
    bad = _edit_file(outputs, "fresh", "critical_values.csv",
                     lambda t: _edit_row(t, 3, 5, "0.25"))
    assert any("needs an infeasible marker" in p for p in workload.check(bad))

    def drop_reason(text):
        manifest = json.loads(text)
        manifest["infeasible_cells"] = manifest["infeasible_cells"][1:]
        return json.dumps(manifest)

    bad = _edit_file(outputs, "fresh", "critical_values_manifest.json", drop_reason)
    assert any(p.startswith("manifest:") for p in workload.check(bad))


def test_cache_rerun_difference_rejected(crit):
    workload, outputs = crit
    bad = _edit_file(outputs, "cached", "critical_values.csv",
                     lambda t: _edit_row(t, 2, 5, "0.5"))
    assert any("cell cache" in p for p in workload.check(bad))


def test_wrong_h_hat_rejected(single):
    workload, outputs = single
    output = outputs["entropy:A"]
    got = json.loads(output.stdout)
    got["h_hat"] += 1e-6
    bad = {**outputs, "entropy:A": replace(output, stdout=json.dumps(got))}
    assert any("cKDTree" in p for p in workload.check(bad))


def test_wrong_reject_rejected(single):
    workload, outputs = single
    output = outputs["gof:A"]
    got = json.loads(output.stdout)
    got["reject"] = not got["reject"]
    bad = {**outputs, "gof:A": replace(output, stdout=json.dumps(got))}
    assert any("reject" in p for p in workload.check(bad))


def test_wrong_consistency_values_rejected(consistency):
    workload, outputs = consistency
    # row 1 is the smallest N: mean_h far from the own estimates
    bad = _edit_file(outputs, "fresh", "consistency.csv",
                     lambda t: _edit_row(t, 1, 4, "0.0"))
    assert any("standard errors" in p for p in workload.check(bad))
    bad = _edit_file(outputs, "fresh", "consistency.csv",
                     lambda t: _edit_row(t, 2, 6, "1.7"))
    assert any("quadrature" in p for p in workload.check(bad))


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "crit-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
