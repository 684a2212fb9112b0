import json
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from tsgof import harness
from tsgof.errors import ConfigError, DomainError
from tsgof.gof import infeasibility_reason
from tsgof.harness import (
    CriticalValueRow,
    CriticalValueTable,
    ExperimentConfig,
    GridBlock,
    load_config,
    parse_config,
    run_consistency_curves,
    run_convergence,
    run_critical_values,
    run_distribution_shape,
    run_experiment,
    run_normality_sweep,
)

EXAMPLE = """
# annotated example configuration
kind = critical-values      # one of the five experiment kinds
family = t1                 # null family branch
master_seed = 20240601
alpha = 0.05
M = 100                     # outer Monte Carlo replications
[grid]
q = 1.2 1.5
m = 2
k = 1 2
N = 50 100
"""


class Interrupted(Exception):
    pass


_original_compute_task = harness._compute_task


def _interrupt_at_task_3(config, task):
    # module level, so a pool can pickle it
    if task.index == 3:
        raise Interrupted
    return _original_compute_task(config, task)


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def tiny_config(**overrides):
    base = dict(
        kind="critical-values",
        grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(60, 80)),),
        family="t1",
        master_seed=7,
        replications=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_annotated_example(self):
        config = parse_config(EXAMPLE)
        assert config.kind == "critical-values"
        assert config.family == "t1"
        assert config.master_seed == 20240601
        assert config.replications == 100
        assert config.grids == (
            GridBlock(qs=(1.2, 1.5), ms=(2,), ks=(1, 2), ns=(50, 100)),
        )

    def test_cells_row_major(self):
        config = parse_config(EXAMPLE)
        cells = config.cells()
        assert cells[0] == (1.2, 2, 1, 50)
        assert cells[1] == (1.2, 2, 1, 100)
        assert cells[2] == (1.2, 2, 2, 50)
        assert cells[-1] == (1.5, 2, 2, 100)
        assert len(cells) == 8

    def test_repeated_grid_blocks_concatenate(self):
        text = EXAMPLE + "\n[grid]\nq = 0.5\nm = 1\nk = 1\nN = 40\n"
        config = parse_config(text)
        assert len(config.grids) == 2
        assert config.cells()[-1] == (0.5, 1, 1, 40)

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kind = convergence\nbogus = 3\n[grid]\nq=1.2\nm=1\nk=1\nN=50\n")
        assert "bogus" in str(err.value)

    def test_unknown_grid_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kind = convergence\n[grid]\nq=1.2\nm=1\nk=1\nN=50\nj=2\n")
        assert "'j'" in str(err.value)

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\nq=1.2\nm=1\nk=1\nN=50\n")

    def test_missing_grid(self):
        with pytest.raises(ConfigError):
            parse_config("kind = convergence\n")

    def test_incomplete_grid_block(self):
        with pytest.raises(ConfigError):
            parse_config("kind = convergence\n[grid]\nq=1.2\nm=1\nk=1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("kind = convergence\nkind = shape\n[grid]\nq=1\nm=1\nk=1\nN=9\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kind = convergence\nmaster_seed = xyz\n[grid]\nq=1.2\nm=1\nk=1\nN=50\n")
        assert ":2:" in str(err.value)

    def test_comma_separated_values(self):
        config = parse_config(
            "kind = convergence\n[grid]\nq = 1.2, 1.3\nm = 1\nk = 1\nN = 50, 60\n"
        )
        assert config.grids[0].qs == (1.2, 1.3)
        assert config.grids[0].ns == (50, 60)

    def test_critical_values_m_floor(self):
        with pytest.raises(ConfigError):
            tiny_config(replications=50)

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")


class TestFeasibilityReasons:
    # the harness records gof.infeasibility_reason strings in its manifests
    def test_sampling_bounds(self):
        assert infeasibility_reason("t1", 1.2, 2, bridge=False) is None
        assert "1 + 2/m" in infeasibility_reason("t1", 2.0, 2, bridge=False)
        assert "(1, 3)" in infeasibility_reason("t1", 0.5, 2, bridge=False)
        assert infeasibility_reason("t2", 0.5, 2, bridge=False) is None
        assert "(0, 1)" in infeasibility_reason("t2", 1.2, 2, bridge=False)

    def test_estimator_bounds(self):
        assert infeasibility_reason("t1", 1.2, 2, 1, 100, bridge=False) is None
        assert "k + 1" in infeasibility_reason("t1", 2.5, 1, 1, 100, bridge=False)
        assert "N > k" in infeasibility_reason("t2", 0.5, 1, 5, 5, bridge=False)

    def test_statistic_bounds(self):
        assert infeasibility_reason("t1", 1.2, 2, 1, 100) is None
        assert "1 + 2/(m+2)" in infeasibility_reason("t1", 1.5, 2, 1, 100)


class TestCriticalValues:
    def test_rows_include_infeasible_markers(self, tmp_path):
        config = tiny_config(
            grids=(GridBlock(qs=(1.2, 2.5), ms=(2,), ks=(1,), ns=(60,)),)
        )
        paths = run_experiment(config, out_dir=tmp_path, workers=1)
        text = (tmp_path / "critical_values.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "q,m,k,N,alpha,crit,M,seed"
        assert len(lines) == 3
        assert "infeasible" in lines[2]
        manifest = json.loads((tmp_path / "critical_values_manifest.json").read_text())
        assert manifest["infeasible_cells"][0]["q"] == 2.5
        assert "1 + 2/m" in manifest["infeasible_cells"][0]["reason"]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        config = tiny_config()
        run_experiment(config, out_dir=tmp_path / "a", workers=1)
        run_experiment(config, out_dir=tmp_path / "b", workers=2)
        assert (tmp_path / "a/critical_values.csv").read_bytes() == (
            tmp_path / "b/critical_values.csv"
        ).read_bytes()

    def test_in_memory_table(self):
        table = run_critical_values(tiny_config(), workers=1)
        assert len(table.rows) == 2
        value = table.lookup(q=1.2, m=2, k=1, n=60, alpha=0.05)
        assert value is not None and math.isfinite(value)
        assert table.lookup(q=1.3, m=2, k=1, n=60, alpha=0.05) is None

    def test_doubling_replications_moves_quantile_within_bootstrap_error(self):
        # doubling M from 500 to 1000 changes the critical value by less
        # than twice the bootstrap standard error of the M=500 quantile
        def crit_for(m_out):
            config = tiny_config(
                grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(150,)),),
                replications=m_out,
            )
            table = run_critical_values(config, workers=2)
            return table.lookup(q=1.2, m=2, k=1, n=150, alpha=0.05)

        from tsgof.gof import gof_statistic
        from tsgof.distributions import QGaussianParams, qgauss_sample
        from tsgof.mathcore import RngStream
        from tsgof.statkit import empirical_quantile

        crit_500, crit_1000 = crit_for(500), crit_for(1000)
        # bootstrap SE oracle from the same 500 null statistics
        stats = np.array(
            [
                gof_statistic(
                    qgauss_sample(QGaussianParams(m=2, q=1.2), 150, RngStream(7, r)),
                    1, 1.2, "t1",
                ).statistic
                for r in range(500)
            ]
        )
        gen = np.random.default_rng(123)
        boot = [
            empirical_quantile(gen.choice(stats, size=500, replace=True), 0.95)
            for _ in range(400)
        ]
        se = float(np.std(boot, ddof=1))
        assert abs(crit_500 - crit_1000) < 2.0 * se

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError):
            run_critical_values(tiny_config(kind="convergence"))


class TestResumability:
    def test_completed_run_reassembles_identically(self, tmp_path):
        config = tiny_config()
        run_experiment(config, out_dir=tmp_path, workers=1)
        first = (tmp_path / "critical_values.csv").read_bytes()
        (tmp_path / "critical_values.csv").unlink()
        run_experiment(config, out_dir=tmp_path, workers=1)
        assert (tmp_path / "critical_values.csv").read_bytes() == first

    def test_partial_cells_recomputed(self, tmp_path):
        config = tiny_config()
        run_experiment(config, out_dir=tmp_path, workers=1)
        first = (tmp_path / "critical_values.csv").read_bytes()
        cells = sorted((tmp_path / ".cells" / config.config_hash()).glob("task-*.json"))
        cells[0].unlink()
        (tmp_path / "critical_values.csv").unlink()
        run_experiment(config, out_dir=tmp_path, workers=1)
        assert (tmp_path / "critical_values.csv").read_bytes() == first

    @pytest.mark.parametrize(
        "workers",
        [
            1,
            pytest.param(2, marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the patched task function reaches pool workers only through fork",
            )),
        ],
    )
    def test_interrupted_run_keeps_finished_cells(self, tmp_path, monkeypatch, workers):
        # one task per (q, m, N) point, so four N values give a task at index 3
        config = tiny_config(
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1, 2), ns=(60, 80, 100, 120)),)
        )
        run_experiment(config, out_dir=tmp_path / "clean", workers=1)
        monkeypatch.setattr(harness, "_compute_task", _interrupt_at_task_3)
        with pytest.raises(Interrupted):
            run_experiment(config, out_dir=tmp_path / "run", workers=workers)
        cells = tmp_path / "run" / ".cells" / config.config_hash()
        assert sorted(p.name for p in cells.iterdir()) == [f"task-{i:06d}.json" for i in range(3)]
        monkeypatch.undo()
        run_experiment(config, out_dir=tmp_path / "run", workers=workers)
        assert tree_bytes(tmp_path / "run") == tree_bytes(tmp_path / "clean")

    def test_config_change_invalidates_cache_location(self, tmp_path):
        a = tiny_config()
        b = tiny_config(master_seed=8)
        assert a.config_hash() != b.config_hash()


class TestPlan:
    def test_one_task_per_point_places_every_cell_once(self):
        config = tiny_config(
            grids=(
                GridBlock(qs=(1.2, 1.3), ms=(1, 2), ks=(1, 2, 3), ns=(60, 80)),
                GridBlock(qs=(1.2,), ms=(2,), ks=(2,), ns=(60, 90, 60)),
            )
        )
        tasks = harness._plan(config)
        assert len(tasks) == 2 * 2 * 2 + 3
        placed = {}
        for task in tasks:
            for position, k in zip(task.positions, task.ks, strict=True):
                placed[position] = (task.q, task.m, k, task.n)
        assert placed == dict(enumerate(config.cells()))


class TestContentKeyedStreams:
    @pytest.mark.parametrize(
        "kind, name",
        [("critical-values", "critical_values.csv"), ("consistency-curves", "consistency.csv")],
    )
    def test_added_grid_values_leave_existing_rows(self, tmp_path, kind, name):
        small = GridBlock(qs=(1.2,), ms=(2,), ks=(1, 2), ns=(60, 80))
        grown = GridBlock(qs=(1.2,), ms=(2,), ks=(1, 3, 2), ns=(60, 70, 80))
        rows = {}
        for label, block in (("small", small), ("grown", grown)):
            run_experiment(tiny_config(kind=kind, grids=(block,)), out_dir=tmp_path / label)
            lines = (tmp_path / label / name).read_text().splitlines()[1:]
            rows[label] = {tuple(line.split(",")[:4]): line for line in lines}
        assert len(rows["small"]) == 4 and len(rows["grown"]) == 9
        for cell, line in rows["small"].items():
            assert rows["grown"][cell] == line

    def test_stream_layout_keys_the_cache(self, tmp_path, monkeypatch):
        config = tiny_config()
        run_experiment(config, out_dir=tmp_path / "clean")
        monkeypatch.setattr(harness, "STREAM_LAYOUT", 1)
        other = config.config_hash()
        run_experiment(config, out_dir=tmp_path / "run")
        # a well-formed cell from the other layout, with a value no run gives
        cell = tmp_path / "run" / ".cells" / other / "task-000000.json"
        payload = json.loads(cell.read_text())
        payload["cells"][0]["critical_values.csv"][0][5] = 123.0
        cell.write_text(json.dumps(payload))
        monkeypatch.undo()
        assert config.config_hash() != other
        run_experiment(config, out_dir=tmp_path / "run")
        caches = sorted(p.name for p in (tmp_path / "run" / ".cells").iterdir())
        assert caches == sorted([other, config.config_hash()])
        for name in ("critical_values.csv", "critical_values_manifest.json"):
            clean = (tmp_path / "clean" / name).read_bytes()
            assert (tmp_path / "run" / name).read_bytes() == clean
        manifest = json.loads((tmp_path / "run" / "critical_values_manifest.json").read_text())
        assert manifest["stream_layout"] == harness.STREAM_LAYOUT == 2


def _drop_cell(payload):
    payload["cells"].pop()


def _foreign_file(payload):
    payload["cells"][0]["normality.csv"] = payload["cells"][0].pop("critical_values.csv")


def _short_row(payload):
    payload["cells"][0]["critical_values.csv"][0].pop()


def _marker_without_reason(payload):
    payload["cells"][0]["critical_values.csv"][0][5] = "infeasible"


def _reason_without_marker(payload):
    payload["cells"][0]["reason"] = "made up"


def _other_cell(payload):
    payload["cells"][0]["critical_values.csv"][0][2] = 3  # k of no cell in this task


def _boolean_value(payload):
    payload["cells"][0]["critical_values.csv"][0][5] = True


def _infinite_value(payload):
    payload["cells"][0]["critical_values.csv"][0][5] = math.inf


class TestCellValidation:
    @pytest.fixture(scope="class")
    def computed(self):
        config = tiny_config(grids=(GridBlock(qs=(1.2, 1.5), ms=(2,), ks=(1, 2), ns=(60,)),))
        tasks = harness._plan(config)
        return config, tasks, [harness._compute_task(config, task) for task in tasks]

    def test_computed_payloads_are_valid(self, computed):
        config, tasks, payloads = computed
        assert "reason" in payloads[1]["cells"][0]  # q=1.5 is past the covariance bridge
        for task, payload in zip(tasks, payloads):
            assert harness._cell_problem(config, task, json.loads(json.dumps(payload))) is None

    def test_nan_only_as_log_density_of_empty_bin(self):
        config = tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.5,), ms=(1,), ks=(1,), ns=(60,)),),
            replications=20,
            draws=5000,
        )
        task = harness._plan(config)[-1]
        payload = json.loads(json.dumps(harness._compute_task(config, task)))
        rows = payload["cells"][0]["shape_sample_density.csv"]
        assert any(math.isnan(row[6]) for row in rows)
        assert harness._cell_problem(config, task, payload) is None
        rows[0][5] = math.nan  # the density column
        assert harness._cell_problem(config, task, payload)

    @pytest.mark.parametrize(
        "doctor",
        [
            _drop_cell,
            _foreign_file,
            _short_row,
            _marker_without_reason,
            _reason_without_marker,
            _other_cell,
            _boolean_value,
            _infinite_value,
        ],
    )
    def test_doctored_payload_is_refused(self, computed, doctor):
        config, tasks, payloads = computed
        payload = json.loads(json.dumps(payloads[0]))
        doctor(payload)
        assert harness._cell_problem(config, tasks[0], payload)


class TestNormalitySweep:
    def test_rows_and_bounds(self):
        config = tiny_config(
            kind="normality-sweep",
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(100,)),),
            replications=5,
            inner_batch=30,
        )
        rows = run_normality_sweep(config)
        assert len(rows) == 1
        q, m, k, n, mean_p, m_out, n_in, seed = rows[0]
        assert 0.0 <= mean_p <= 1.0
        assert (m_out, n_in, seed) == (5, 30, 7)

    def test_inner_batch_floor(self):
        with pytest.raises(ConfigError):
            tiny_config(kind="normality-sweep", inner_batch=2)


class TestConvergence:
    def test_curves_and_regression(self):
        config = tiny_config(
            kind="convergence",
            grids=(GridBlock(qs=(1.2, 1.5), ms=(2,), ks=(1,), ns=(50, 100, 200)),),
            replications=40,
        )
        curves, regression = run_convergence(config)
        assert len(curves) == 6
        assert len(regression) == 2
        feasible = regression[0]
        assert feasible[:3] == [1.2, 2, 1]
        assert all(math.isfinite(v) for v in feasible[3:])
        infeasible = regression[1]
        assert infeasible[:3] == [1.5, 2, 1]
        assert infeasible[3] == "infeasible"

    def test_std_decreases_with_n(self):
        config = tiny_config(
            kind="convergence",
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(50, 400)),),
            replications=60,
        )
        curves, _ = run_convergence(config)
        assert curves[1][5] < curves[0][5]  # std_q at N=400 < at N=50


class TestConsistencyCurves:
    def test_estimates_approach_closed_form(self):
        config = tiny_config(
            kind="consistency-curves",
            grids=(GridBlock(qs=(0.5,), ms=(1,), ks=(1,), ns=(200, 2000)),),
            family="t2",
            replications=30,
        )
        rows = run_consistency_curves(config)
        assert len(rows) == 2
        h_true = rows[0][6]
        err_small = abs(rows[0][4] - h_true)
        err_large = abs(rows[1][4] - h_true)
        assert err_large < err_small

    def test_no_covariance_bridge_needed(self):
        # q=1.5 at m=2 has no covariance, but estimation itself is feasible
        config = tiny_config(
            kind="consistency-curves",
            grids=(GridBlock(qs=(1.5,), ms=(2,), ks=(1,), ns=(100,)),),
            replications=10,
        )
        rows = run_consistency_curves(config)
        assert not isinstance(rows[0][4], str)


class TestDistributionShape:
    def make_config(self):
        return tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(100,)),),
            replications=80,
            draws=5000,
        )

    def test_files_and_contents(self, tmp_path):
        paths = run_experiment(self.make_config(), out_dir=tmp_path, workers=1)
        stats = (tmp_path / "shape_statistics.csv").read_text().strip().splitlines()
        assert stats[0] == "q,m,k,N,rep,Q,M,seed"
        assert len(stats) == 81
        qq = (tmp_path / "shape_stat_qq.csv").read_text().strip().splitlines()
        assert len(qq) == 81
        dens = (tmp_path / "shape_stat_density.csv").read_text().strip().splitlines()
        assert len(dens) > 2

    def test_histogram_mass_is_one(self):
        files = run_distribution_shape(self.make_config())
        rows = files["shape_sample_density.csv"]
        mass = sum((r[4] - r[3]) * r[5] for r in rows)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_qq_pairs_are_sorted(self):
        files = run_distribution_shape(self.make_config())
        rows = files["shape_stat_qq.csv"]
        standardized = [r[5] for r in rows]
        quantiles = [r[6] for r in rows]
        assert standardized == sorted(standardized)
        assert quantiles == sorted(quantiles)

    def test_qq_correlation_near_normal_regime(self):
        # at q close to 1 the statistic distribution is near normal, so the
        # emitted Q-Q pairs are nearly linear
        config = tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.1,), ms=(2,), ks=(1,), ns=(1000,)),),
            replications=100,
        )
        rows = run_distribution_shape(config)["shape_stat_qq.csv"]
        standardized = np.array([r[5] for r in rows])
        quantiles = np.array([r[6] for r in rows])
        corr = float(np.corrcoef(standardized, quantiles)[0, 1])
        assert corr >= 0.98

    def test_heavy_tail_log_density_exceeds_gaussian_fit(self):
        # emitted log-density of q=1.5 draws sits above a moment-matched
        # normal fit beyond 3 standard deviations
        config = tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.5,), ms=(1,), ks=(1,), ns=(100,)),),
            replications=10,
            draws=200_000,
        )
        rows = run_distribution_shape(config)["shape_sample_density.csv"]
        centers = np.array([(r[3] + r[4]) / 2.0 for r in rows])
        widths = np.array([r[4] - r[3] for r in rows])
        density = np.array([r[5] for r in rows])
        log_density = np.array([r[6] for r in rows])
        mean = float(np.sum(centers * density * widths))
        sd = math.sqrt(float(np.sum((centers - mean) ** 2 * density * widths)))
        normal_log = (
            -0.5 * ((centers - mean) / sd) ** 2 - math.log(sd) - 0.5 * math.log(2 * math.pi)
        )
        tail = (np.abs(centers - mean) > 3.0 * sd) & (density > 0)
        assert tail.sum() >= 3
        assert np.all(log_density[tail] > normal_log[tail])


class TestCriticalValueTable:
    def test_round_trip_csv(self, tmp_path):
        config = tiny_config()
        run_experiment(config, out_dir=tmp_path, workers=1)
        table = CriticalValueTable.from_csv(tmp_path / "critical_values.csv")
        assert len(table.rows) == 2
        assert table.lookup(q=1.2, m=2, k=1, n=80, alpha=0.05) is not None

    def test_infeasible_rows_round_trip_as_none(self, tmp_path):
        config = tiny_config(grids=(GridBlock(qs=(2.5,), ms=(2,), ks=(1,), ns=(60,)),))
        run_experiment(config, out_dir=tmp_path, workers=1)
        table = CriticalValueTable.from_csv(tmp_path / "critical_values.csv")
        assert table.lookup(q=2.5, m=2, k=1, n=60, alpha=0.05) is None

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            CriticalValueTable.from_csv(bad)

    def test_m_floor_enforced(self):
        with pytest.raises(DomainError):
            CriticalValueTable(
                [CriticalValueRow(q=1.2, m=2, k=1, n=10, alpha=0.05, crit=0.1, replications=50, seed=0)]
            )
