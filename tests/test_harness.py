import itertools
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from tsgof import harness
from tsgof.distributions import QGaussianParams, qgauss_sample
from tsgof.errors import ConfigError, DomainError, NotPositiveDefiniteError
from tsgof.gof import infeasibility_reason
from tsgof.harness import (
    ExperimentConfig,
    GridBlock,
    load_config,
    parse_config,
    read_critical_value,
    run_experiment,
)
from tsgof.mathcore import RngStream

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


def _interrupt_at_task_3(config, cache_dir, task):
    # module level, so a pool can pickle it
    if task.index == 3:
        raise Interrupted
    _original_compute_task(config, cache_dir, task)


def _wait_for_smaller_cells(config, cache_dir, task):
    # module level, so a pool can pickle it: task 0, the largest, is
    # submitted first and finishes only once tasks 1-3 have their cell files
    if task.index == 0:
        others = [harness._cell_path(cache_dir, t) for t in harness._plan(config)[0][1:]]
        deadline = time.monotonic() + 5.0
        while not all(path.exists() for path in others):
            if time.monotonic() > deadline:
                raise Interrupted("no smaller task's cell file appeared while task 0 ran")
            time.sleep(0.01)
    _original_compute_task(config, cache_dir, task)


_fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched task function reaches pool workers only through fork",
)


def _fail_at_pivot(pivot):
    # module level, so a pool can pickle it
    raise NotPositiveDefiniteError(pivot)


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _value(token: str):
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def csv_rows(path: Path) -> list:
    """A result file's rows below its header, numbers parsed."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[_value(token) for token in line.split(",")] for line in lines]


def run_files(config, out_dir: Path, workers: int = 1) -> dict:
    """Run config into out_dir and read back each CSV it wrote, as {name: rows}."""
    paths = run_experiment(config, out_dir=out_dir, workers=workers)
    return {name: csv_rows(path) for name, path in paths.items() if name.endswith(".csv")}


def t1_draws(q, m, n=20_000):
    """The first coordinate of n draws of the index-q member in R^m."""
    return qgauss_sample(QGaussianParams(m=m, q=q), n, RngStream(11))[:, 0]


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


INVALID_INT = "invalid literal for int() with base 10: "


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

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["bogus = 3"], "<config>:2: unknown key 'bogus'"),
            (["kind = shape"], "<config>:2: duplicate key 'kind'"),
            (["M = 2.5"], f"<config>:2: bad value for 'M': {INVALID_INT}'2.5'"),
            (["[grid]", "j = 2"], "<config>:3: unknown grid key 'j'"),
            (["[grid]", "q = 1.2", "q = 1.3"], "<config>:4: duplicate grid key 'q'"),
            (["[grid]", "m = 1 x"], f"<config>:3: bad value for 'm': {INVALID_INT}'x'"),
            (["[grid]", "N = , "], "<config>:3: grid key 'N' has no values"),
        ],
    )
    def test_key_errors_name_section_and_line(self, lines, message):
        # the top-level and [grid] sections share one check, with these messages
        text = "\n".join(["kind = convergence", *lines, "[grid]", "q=1.2", "m=1", "k=1", "N=50"])
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message

    def test_comma_separated_values(self):
        config = parse_config(
            "kind = convergence\n[grid]\nq = 1.2, 1.3\nm = 1\nk = 1\nN = 50, 60\n"
        )
        assert config.grids[0].qs == (1.2, 1.3)
        assert config.grids[0].ns == (50, 60)

    def test_no_grid_block_is_refused(self):
        # parse_config refuses a config without [grid] first; only the API reaches this
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="convergence", grids=())
        assert str(err.value) == "at least one [grid] block is required"

    @pytest.mark.parametrize("overrides, message", [
        (dict(master_seed=3.5), "master_seed must be an integer in [0, 2**64 - 1], got 3.5"),
        (dict(master_seed=-1), "master_seed must be an integer in [0, 2**64 - 1], got -1"),
        (dict(grids=(GridBlock(qs=(1.2,), ms=(2.5,), ks=(1,), ns=(60,)),)),
         "grid key 'm' must be integers, got (2.5,)"),
        (dict(grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1, 1.5), ns=(60,)),)),
         "grid key 'k' must be integers, got (1, 1.5)"),
        (dict(grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(100.5,)),)),
         "grid key 'N' must be integers, got (100.5,)"),
        (dict(grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(math.nan,)),)),
         "grid key 'N' must be integers, got (nan,)"),
    ], ids=["seed", "negative-seed", "m", "k", "N", "N-nan"])
    def test_non_integral_identifiers_are_refused(self, overrides, message):
        # API only: parse_config casts these keys to int. Unchecked, a master_seed
        # of 3.5 draws seed 3's streams and writes 3.5 beside them, and N = 100.5
        # ends in a ValueError from islice
        with pytest.raises(ConfigError) as err:
            tiny_config(**overrides)
        assert str(err.value) == message

    def test_integral_numpy_identifiers_are_accepted(self):
        block = GridBlock(qs=(1.2,), ms=(np.int64(2),), ks=(np.int64(1),), ns=(np.int64(60),))
        config = tiny_config(grids=(block,), master_seed=np.uint64(7))
        assert config.cells() == [(1.2, 2, 1, 60)]

    def test_numpy_integer_config_hashes_and_runs_as_python_ints(self, tmp_path):
        # unconverted, json.dumps refuses the numpy integers in config_hash
        block = GridBlock(qs=(1.2,), ms=(np.int64(2),), ks=(np.int64(1),), ns=(np.int64(60),))
        config = tiny_config(grids=(block,), master_seed=np.uint64(7), replications=np.int64(100))
        plain = tiny_config(grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(60,)),))
        assert config == plain and config.config_hash() == plain.config_hash()
        run_experiment(config, out_dir=tmp_path / "numpy", workers=1)
        run_experiment(plain, out_dir=tmp_path / "plain", workers=1)
        for name in ("critical_values.csv", "critical_values_manifest.json"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("overrides, message", [
        (dict(replications=100.5), "M must be an integer, got 100.5"),
        (dict(replications=math.inf), "M must be an integer, got inf"),
        (dict(kind="normality-sweep", inner_batch=20.5), "n must be an integer, got 20.5"),
        (dict(kind="distribution-shape", draws=5000.5), "draws must be an integer, got 5000.5"),
        (dict(draws=math.nan), "draws must be an integer, got nan"),
    ], ids=["M", "M-inf", "n", "draws", "draws-nan"])
    def test_non_integral_counts_are_refused(self, overrides, message):
        # API only: parse_config casts these keys to int. Unchecked, a fractional
        # count passes the range checks and a task ends in a TypeError
        with pytest.raises(ConfigError) as err:
            tiny_config(**overrides)
        assert str(err.value) == message

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
        assert "N > m" in infeasibility_reason("t1", 1.2, 3, 1, 3)


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

    def test_singular_sample_covariance_cells_are_infeasible(self, tmp_path):
        # N = m = 3 gives every sample a singular covariance
        config = tiny_config(
            grids=(GridBlock(qs=(1.2,), ms=(2, 3), ks=(1,), ns=(3, 50)),), master_seed=1
        )
        for workers in (1, 2):
            run_experiment(config, out_dir=tmp_path / f"w{workers}", workers=workers)
        assert tree_bytes(tmp_path / "w1") == tree_bytes(tmp_path / "w2")
        rows = csv_rows(tmp_path / "w1/critical_values.csv")
        assert [row[:4] for row in rows] == [[1.2, 2, 1, 3], [1.2, 2, 1, 50], [1.2, 3, 1, 3],
                                            [1.2, 3, 1, 50]]
        assert rows[2][5] == "infeasible"
        assert all(math.isfinite(row[5]) for row in rows[:2] + rows[3:])
        manifest = json.loads((tmp_path / "w1/critical_values_manifest.json").read_text())
        assert [(c["q"], c["m"], c["k"], c["N"], c["reason"])
                for c in manifest["infeasible_cells"]] == [
            (1.2, 3, 1, 3, "sample covariance requires N > m, got N=3, m=3")
        ]

    def test_doubling_replications_moves_quantile_within_bootstrap_error(self, tmp_path):
        # doubling M from 500 to 1000 changes the critical value by less
        # than twice the bootstrap standard error of the M=500 quantile
        def crit_for(m_out):
            config = tiny_config(
                grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(150,)),),
                replications=m_out,
            )
            files = run_files(config, tmp_path / f"M{m_out}", workers=2)
            (row,) = files["critical_values.csv"]
            return row[5]

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


class TestDeterministicMap:
    def test_starts_at_most_one_worker_per_item(self, monkeypatch):
        started = []

        def pool(workers, **kwargs):
            started.append(workers)
            return ProcessPoolExecutor(workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
        assert harness.deterministic_map(abs, [-1, 2], workers=4) == [1, 2]
        assert harness.deterministic_map(abs, [-3], workers=4) == [3]  # in this process
        assert harness.deterministic_map(abs, [], workers=4) == []
        assert started == [2]

    def test_error_message_same_at_every_worker_count(self):
        messages = []
        for workers in (1, 2):
            with pytest.raises(NotPositiveDefiniteError) as err:
                harness.deterministic_map(_fail_at_pivot, [2, 2], workers=workers)
            messages.append((str(err.value), err.value.pivot_index))
        assert messages == [("matrix is not positive definite (pivot 2 <= 0)", 2)] * 2


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

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=_fork_only)])
    def test_interrupted_run_keeps_finished_cells(self, tmp_path, monkeypatch, workers):
        # one task per (q, m, N) point, so four N values give a task at index
        # 3; N falls along the plan, so task 3 is the cheapest, submitted last
        config = tiny_config(
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1, 2), ns=(120, 100, 80, 60)),)
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

    @_fork_only
    def test_cell_written_while_larger_task_runs(self, tmp_path, monkeypatch):
        # N falls along the plan, so task 0 is the largest and runs first; at
        # two workers tasks 1-3 finish while it runs, and their cells must
        # be on disk before it ends
        config = tiny_config(
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1, 2), ns=(120, 100, 80, 60)),)
        )
        run_experiment(config, out_dir=tmp_path / "clean", workers=1)
        monkeypatch.setattr(harness, "_compute_task", _wait_for_smaller_cells)
        run_experiment(config, out_dir=tmp_path / "run", workers=2)
        assert tree_bytes(tmp_path / "run") == tree_bytes(tmp_path / "clean")

    def test_unplanned_cell_files_deleted(self, tmp_path):
        config = tiny_config()
        run_experiment(config, out_dir=tmp_path, workers=1)
        finished = tree_bytes(tmp_path)
        stale = tmp_path / ".cells" / config.config_hash() / "task-000099.json"
        stale.write_text('{"point": [1.2, 2, 99, [1]], "matrix": [[0.5]]}', encoding="utf-8")
        run_experiment(config, out_dir=tmp_path, workers=1)
        assert not stale.exists()
        assert tree_bytes(tmp_path) == finished

    def test_config_change_invalidates_cache_location(self, tmp_path):
        a = tiny_config()
        b = tiny_config(master_seed=8)
        assert a.config_hash() != b.config_hash()


class TestPlan:
    def test_one_task_per_point_places_every_cell_once(self):
        # q=1.5 is past the covariance bridge at m=2 but not at m=1; the
        # second block repeats N=60 and adds k=4 and N=90 to (1.2, 2)
        config = tiny_config(
            grids=(
                GridBlock(qs=(1.2, 1.5), ms=(1, 2), ks=(1, 2, 3), ns=(60, 80)),
                GridBlock(qs=(1.2,), ms=(2,), ks=(2, 4), ns=(60, 90, 60)),
            )
        )
        tasks = harness._plan(config)[0]
        assert [t.index for t in tasks] == list(range(len(tasks)))
        points = [(t.q, t.m, t.n) for t in tasks]
        assert len(points) == len(set(points)) == 3 * 2 + 1
        placed = [(t.q, t.m, k, t.n) for t in tasks for k in t.ks]
        feasible = {
            cell for cell in config.cells() if infeasibility_reason("t1", *cell) is None
        }
        assert sorted(placed) == sorted(feasible)
        assert tasks[points.index((1.2, 2, 60))].ks == (1, 2, 3, 4)
        for task in tasks:
            assert task.shape == (config.replications, len(task.ks))

    def test_cells_in_file_order_grid_cells_then_members(self, tmp_path):
        # (1.5, 2) is past the covariance bridge but can be sampled, (2.5, 2)
        # is not normalizable, and member (1.2, 2) is in both blocks
        config = tiny_config(
            kind="distribution-shape",
            grids=(
                GridBlock(qs=(1.2, 1.5, 2.5), ms=(2,), ks=(1,), ns=(60,)),
                GridBlock(qs=(1.2,), ms=(2,), ks=(2,), ns=(60,)),
            ),
            replications=20,
            draws=2000,
        )
        paths = run_experiment(config, out_dir=tmp_path, workers=1)
        manifest = json.loads(paths["distribution_shape_manifest.json"].read_text())
        bridge = "covariance bridge requires q < 1 + 2/(m+2) = 1.5 for m=2, got q=1.5"
        unnormalizable = "not normalizable: requires q < 1 + 2/m = 2.0 for m=2, got q=2.5"
        assert manifest["infeasible_cells"] == [
            {"q": 1.5, "m": 2, "k": 1, "N": 60, "reason": bridge},
            {"q": 2.5, "m": 2, "k": 1, "N": 60, "reason": unnormalizable},
            {"q": 2.5, "m": 2, "k": 0, "N": 0, "reason": unnormalizable},
        ]
        stats = paths["shape_statistics.csv"].read_text().splitlines()
        assert stats[21:23] == [
            "1.5,2,1,60,infeasible,infeasible,20,7",
            "2.5,2,1,60,infeasible,infeasible,20,7",
        ]
        assert [line.split(",")[:5] for line in stats[1:21] + stats[23:]] == [
            ["1.2", "2", k, "60", str(rep)] for k in "12" for rep in range(20)
        ]
        density = csv_rows(paths["shape_sample_density.csv"])
        assert [key for key, _ in itertools.groupby(row[:2] for row in density)] == [
            [1.2, 2], [1.5, 2], [2.5, 2]
        ]
        assert density[-1] == [2.5, 2, 2000, *["infeasible"] * 4, 7]
        assert all("infeasible" not in row for row in density[:-1])

    @pytest.mark.parametrize(
        "kind, order",
        [
            # tasks 0-5 are (q, m, N) = (1.2, 1, 60), (1.2, 1, 120), (1.2, 2, 60),
            # (1.2, 2, 120), (1.5, 1, 60), (1.5, 1, 120) at cost 100 x N x m, so
            # tasks 1, 2 and 5 tie; (1.5, 2) is past the covariance bridge
            ("critical-values", [3, 1, 2, 5, 0, 4]),
            # tasks 6-9 are the sample densities of (1.2, 1), (1.2, 2),
            # (1.5, 1) and (1.5, 2) at cost 5000 draws x m
            ("distribution-shape", [3, 1, 2, 5, 7, 9, 0, 4, 6, 8]),
        ],
    )
    def test_tasks_run_largest_first(self, tmp_path, monkeypatch, kind, order):
        config = tiny_config(
            kind=kind,
            grids=(GridBlock(qs=(1.2, 1.5), ms=(1, 2), ks=(1,), ns=(60, 120)),),
            draws=5000,
        )
        calls = []

        def recording(config, cache_dir, task):
            calls.append(task.index)
            _original_compute_task(config, cache_dir, task)

        monkeypatch.setattr(harness, "_compute_task", recording)
        run_experiment(config, out_dir=tmp_path / "largest-first", workers=1)
        assert calls == order
        costs = [harness._cost(config, task) for task in harness._plan(config)[0]]
        assert all(
            costs[a] > costs[b] or (costs[a] == costs[b] and a < b)
            for a, b in zip(order, order[1:])
        )
        calls.clear()
        monkeypatch.setattr(harness, "_cost", lambda config, task: 0)
        run_experiment(config, out_dir=tmp_path / "plan-order", workers=1)
        assert calls == sorted(order)
        assert tree_bytes(tmp_path / "largest-first") == tree_bytes(tmp_path / "plan-order")


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
        payload["matrix"][0][0] = 123.0
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
    for row in payload["matrix"]:
        row.pop()  # the k=2 column


def _short_row(payload):
    payload["matrix"][0].pop()


def _drop_replicate(payload):
    payload["matrix"].pop()


def _marker_without_reason(payload):
    payload["matrix"][0][0] = "infeasible"


def _other_cell(payload):
    payload["point"][2] = 80  # N of no task in this plan


def _other_ks(payload):
    payload["point"][3] = [1]


def _boolean_value(payload):
    payload["matrix"][0][0] = True


def _integer_value(payload):
    payload["matrix"][0][0] = 1


def _nan_value(payload):
    payload["matrix"][0][0] = math.nan


def _infinite_value(payload):
    payload["matrix"][0][0] = math.inf


def _extra_key(payload):
    payload["reason"] = "made up"


def _written_by_row_cache(payload):
    # the layout of cell files that cached each kind's rows per cell
    payload.clear()
    payload["cells"] = [{"critical_values.csv": [[1.2, 2, 1, 60, 0.05, 0.1, 100, 7]]}]


class TestCellValidation:
    @pytest.fixture(scope="class")
    def computed(self, tmp_path_factory):
        config = tiny_config(grids=(GridBlock(qs=(1.2, 1.5), ms=(2,), ks=(1, 2), ns=(60,)),))
        tasks = harness._plan(config)[0]
        cells = tmp_path_factory.mktemp("cells")
        for task in tasks:
            harness._compute_task(config, cells, task)
        return config, tasks, [json.loads(harness._cell_path(cells, t).read_text()) for t in tasks]

    def test_computed_payloads_are_valid(self, computed):
        config, tasks, payloads = computed
        # q=1.5 is past the covariance bridge, so only q=1.2 has a task
        assert [(t.q, t.m, t.n, t.ks) for t in tasks] == [(1.2, 2, 60, (1, 2))]
        for task, payload in zip(tasks, payloads):
            assert payload["point"] == [1.2, 2, 60, [1, 2]]
            assert harness._cell_problem(task, payload) is None

    def test_nan_only_as_log_density_of_empty_bin(self, tmp_path):
        config = tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.5,), ms=(1,), ks=(1,), ns=(60,)),),
            replications=20,
            draws=5000,
        )
        task = harness._plan(config)[0][-1]
        harness._compute_task(config, tmp_path, task)
        payload = json.loads(harness._cell_path(tmp_path, task).read_text())
        assert (task.n, task.ks, task.shape) == (0, (), (None, 3))
        assert harness._cell_problem(task, payload) is None
        rows = run_files(config, tmp_path / "run")["shape_sample_density.csv"]
        assert [row[3:6] for row in rows] == payload["matrix"]
        assert any(math.isnan(row[6]) for row in rows)
        payload["matrix"][0][2] = math.nan  # the density column
        assert harness._cell_problem(task, payload)

    @pytest.mark.parametrize(
        "doctor",
        [
            _drop_cell,
            _short_row,
            _drop_replicate,
            _marker_without_reason,
            _other_cell,
            _other_ks,
            _boolean_value,
            _integer_value,
            _nan_value,
            _infinite_value,
            _extra_key,
            _written_by_row_cache,
        ],
    )
    def test_doctored_payload_is_refused(self, computed, doctor):
        config, tasks, payloads = computed
        payload = json.loads(json.dumps(payloads[0]))
        doctor(payload)
        assert harness._cell_problem(tasks[0], payload)


class TestNormalitySweep:
    def test_rows_and_bounds(self, tmp_path):
        config = tiny_config(
            kind="normality-sweep",
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(100,)),),
            replications=5,
            inner_batch=30,
        )
        rows = run_files(config, tmp_path)["normality.csv"]
        assert len(rows) == 1
        q, m, k, n, mean_p, m_out, n_in, seed = rows[0]
        assert 0.0 <= mean_p <= 1.0
        assert (m_out, n_in, seed) == (5, 30, 7)

    def test_inner_batch_floor(self):
        with pytest.raises(ConfigError):
            tiny_config(kind="normality-sweep", inner_batch=2)


class TestConvergence:
    def test_curves_and_regression(self, tmp_path):
        config = tiny_config(
            kind="convergence",
            grids=(GridBlock(qs=(1.2, 1.5), ms=(2,), ks=(1,), ns=(50, 100, 200)),),
            replications=40,
        )
        files = run_files(config, tmp_path)
        curves, regression = files["convergence.csv"], files["regression.csv"]
        assert len(curves) == 6
        assert len(regression) == 2
        feasible = regression[0]
        assert feasible[:3] == [1.2, 2, 1]
        assert all(math.isfinite(v) for v in feasible[3:])
        infeasible = regression[1]
        assert infeasible[:3] == [1.5, 2, 1]
        assert infeasible[3] == "infeasible"

    def test_std_decreases_with_n(self, tmp_path):
        config = tiny_config(
            kind="convergence",
            grids=(GridBlock(qs=(1.2,), ms=(2,), ks=(1,), ns=(50, 400)),),
            replications=60,
        )
        curves = run_files(config, tmp_path)["convergence.csv"]
        assert curves[1][5] < curves[0][5]  # std_q at N=400 < at N=50


class TestConsistencyCurves:
    def test_estimates_approach_closed_form(self, tmp_path):
        config = tiny_config(
            kind="consistency-curves",
            grids=(GridBlock(qs=(0.5,), ms=(1,), ks=(1,), ns=(200, 2000)),),
            family="t2",
            replications=30,
        )
        rows = run_files(config, tmp_path)["consistency.csv"]
        assert len(rows) == 2
        h_true = rows[0][6]
        err_small = abs(rows[0][4] - h_true)
        err_large = abs(rows[1][4] - h_true)
        assert err_large < err_small

    def test_no_covariance_bridge_needed(self, tmp_path):
        # q=1.5 at m=2 has no covariance, but estimation itself is feasible
        config = tiny_config(
            kind="consistency-curves",
            grids=(GridBlock(qs=(1.5,), ms=(2,), ks=(1,), ns=(100,)),),
            replications=10,
        )
        rows = run_files(config, tmp_path)["consistency.csv"]
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

    def test_histogram_mass_is_one(self, tmp_path):
        files = run_files(self.make_config(), tmp_path)
        rows = files["shape_sample_density.csv"]
        mass = sum((r[4] - r[3]) * r[5] for r in rows)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_histogram_refuses_too_many_bins_before_allocating(self):
        # numpy's rule asks for about 2.3e300 bins here
        values = np.r_[np.linspace(-1, 1, 99), 1e300]
        message = r"needs 2\.297e\+300 bins, above the cap of 4194304$"
        with pytest.raises(DomainError, match=message):
            harness._histogram(values)

    def test_bin_cap_is_numpy_count(self, monkeypatch):
        values = qgauss_sample(QGaussianParams(m=1, q=1.5), 2000, RngStream(12))[:, 0]
        bins = len(np.histogram_bin_edges(values, bins="fd")) - 1
        monkeypatch.setattr(harness, "_MAX_BINS", bins)
        assert len(harness._histogram(values, "the q=1.5, m=1 draws")) == bins
        monkeypatch.setattr(harness, "_MAX_BINS", bins - 1)
        with pytest.raises(DomainError) as err:
            harness._histogram(values, "the q=1.5, m=1 draws")
        assert str(err.value) == (
            f"a Freedman-Diaconis histogram of the q=1.5, m=1 draws needs {bins} bins, "
            f"above the cap of {bins - 1}"
        )

    def test_member_needing_too_many_bins_fails_the_run(self, tmp_path):
        config = tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.9,), ms=(2,), ks=(2,), ns=(60,)),),
            replications=20,
            draws=5000,
        )
        message = r"^a Freedman-Diaconis histogram of the draws of the q=1\.9, m=2 member needs"
        with pytest.raises(DomainError, match=message):
            run_experiment(config, out_dir=tmp_path, workers=1)
        assert [p.name for p in tmp_path.iterdir()] == [".cells"]

    @pytest.mark.parametrize(
        "make, refused",
        [
            pytest.param(lambda: t1_draws(1.5, 1), False, id="1.5-1"),
            pytest.param(lambda: t1_draws(1.9, 1), False, id="1.9-1"),
            pytest.param(lambda: t1_draws(0.5, 3), False, id="0.5-3"),
            pytest.param(lambda: np.full(50, 3.25), False, id="constant"),
            pytest.param(lambda: np.array([2.0, -1.0]), False, id="N=2"),
            pytest.param(lambda: np.r_[np.zeros(100), 5.0], False, id="zero-IQR"),
            pytest.param(lambda: t1_draws(2.5, 1, n=100), False, id="2.5-1"),  # 2,858 bins
            pytest.param(lambda: t1_draws(1.5, 1) * 1e-300, False, id="1.5-1-times-1e-300"),
            pytest.param(lambda: t1_draws(1.5, 1) * 1e300, False, id="1.5-1-times-1e300"),
            # IQR 1e-320 and range 1: the float count range / width is inf
            pytest.param(lambda: np.r_[np.zeros(50), np.full(50, 1e-320), 1.0], True,
                         id="subnormal-width"),
        ],
    )
    def test_histogram_equals_edges_then_counts(self, make, refused):
        # the bits of numpy's bins="fd" edges followed by histogram over them,
        # or a refusal where the count that rule gives is past the cap
        values = make()
        if refused:
            with pytest.raises(DomainError, match=r"needs inf bins, above the cap of 4194304$"):
                harness._histogram(values)
            return
        edges = np.histogram_bin_edges(values, bins="fd")
        counts, edges = np.histogram(values, bins=edges)
        density = counts / (counts.sum() * np.diff(edges))
        expected = np.column_stack((edges[:-1], edges[1:], density))
        got = harness._histogram(values)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "c, refused",
        [(3.25, False), (3.25e15, False), (-3.25e15, False),
         (2.0**52 + 2, True), (2.0**53, True), (3.25e300, True), (-3.25e300, True)],
    )
    def test_constant_gets_numpys_one_bin_or_a_domain_error(self, c, refused):
        # numpy widens the zero range to (c - 0.5, c + 0.5); where both edges
        # round back to c, numpy itself fails with "Too many bins"
        if not refused:
            assert harness._histogram(np.full(50, c)).tolist() == [[c - 0.5, c + 0.5, 1.0]]
            return
        with pytest.raises(DomainError) as err:
            harness._histogram(np.full(50, c), "the draws")
        assert str(err.value) == (
            f"the draws all equal {c!r}, and a bin around it has no width in float64"
        )

    def test_qq_pairs_are_sorted(self, tmp_path):
        files = run_files(self.make_config(), tmp_path)
        rows = files["shape_stat_qq.csv"]
        standardized = [r[5] for r in rows]
        quantiles = [r[6] for r in rows]
        assert standardized == sorted(standardized)
        assert quantiles == sorted(quantiles)

    def test_qq_correlation_near_normal_regime(self, tmp_path):
        # at q close to 1 the statistic distribution is near normal, so the
        # emitted Q-Q pairs are nearly linear
        config = tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.1,), ms=(2,), ks=(1,), ns=(1000,)),),
            replications=100,
        )
        rows = run_files(config, tmp_path)["shape_stat_qq.csv"]
        standardized = np.array([r[5] for r in rows])
        quantiles = np.array([r[6] for r in rows])
        corr = float(np.corrcoef(standardized, quantiles)[0, 1])
        assert corr >= 0.98

    def test_heavy_tail_log_density_exceeds_gaussian_fit(self, tmp_path):
        # emitted log-density of q=1.5 draws sits above a moment-matched
        # normal fit beyond 3 standard deviations
        config = tiny_config(
            kind="distribution-shape",
            grids=(GridBlock(qs=(1.5,), ms=(1,), ks=(1,), ns=(100,)),),
            replications=10,
            draws=200_000,
        )
        rows = run_files(config, tmp_path)["shape_sample_density.csv"]
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
        rows = run_files(tiny_config(), tmp_path)["critical_values.csv"]
        path = tmp_path / "critical_values.csv"
        assert [row[3] for row in rows] == [60, 80]
        for q, m, k, n, alpha, crit, _, _ in rows:
            assert read_critical_value(path, q, m, k, n, alpha) == crit and math.isfinite(crit)
        assert read_critical_value(path, q=1.3, m=2, k=1, n=60, alpha=0.05) is None

    def test_infeasible_rows_round_trip_as_none(self, tmp_path):
        config = tiny_config(grids=(GridBlock(qs=(2.5,), ms=(2,), ks=(1,), ns=(60,)),))
        run_experiment(config, out_dir=tmp_path, workers=1)
        path = tmp_path / "critical_values.csv"
        assert read_critical_value(path, q=2.5, m=2, k=1, n=60, alpha=0.05) is None

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_critical_value(bad, q=1.2, m=2, k=1, n=60, alpha=0.05)
