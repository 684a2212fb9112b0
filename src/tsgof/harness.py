"""Declarative Monte Carlo experiments with deterministic parallelism and
persisted CSV results.

Determinism contract
--------------------
Output bytes are a pure function of (config, master_seed). The plan lists
every output cell once, in file order, with the feasibility rule's
verdict: the kind's (q, m, k, N) cells, then each distribution-shape
member's sample density as cell (q, m, 0, 0). It has one task per
distinct (q, m, N) point of its feasible cells, over every grid block,
and replicate rep of a point draws from
RngStream(master_seed, content_index(family, q, m, N, rep)): the stream is
keyed by what the replicate simulates, not by where its cell sits in the
grid. Every k of the point is read off the same draws (common random
numbers across k), and adding or reordering grid values leaves the other
cells' rows unchanged (regression.csv, which fits over each group's N
values, does change). Worker count and scheduling never change results.

A task's result is a matrix: the (replicates x ks) output of
gof.null_replicates for the point's feasible ks or, for a
distribution-shape sample density, the (bins x 3) [bin_left, bin_right,
density] histogram of one (q, m) member's raw draws. Tasks run largest
first (replicates x N x m, or draws x m for a sample density; ties in plan
order). The cell file is the one channel from a task to the reducers:
the process that ran a task writes its matrix when the task finishes, as
{"point": [q, m, N, ks], "matrix": rows} (N = 0 and ks = [] for a
histogram), under `<out>/.cells/<key>/`, where the key hashes the config,
the toolkit version and STREAM_LAYOUT, the version of the
replicate-to-stream mapping; cell files the plan does not name are
deleted. Every matrix, reused or just computed, is read back through the
same check: it holds exactly the task's tag and a matrix of the task's
shape whose entries are finite floats. A missing, unreadable or refused
cached file is recomputed (a refusal is logged); a refused computed one
stops the run. Assembly is one loop over the plan's cells: the kind's
reducer turns each cell's column (or histogram) into rows, and an
infeasible cell into a marker row and a manifest reason, so a cell file
names no kind and no file, and an interrupted run resumes
byte-identically.

The result files and their columns are listed in _HEADERS and in the
README. Each experiment also writes `<kind>_manifest.json` echoing the
config, its hash, the master seed, the stream layout and the toolkit
version.
"""

import hashlib
import json
import logging
import math
import multiprocessing
import os
import signal
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from .errors import ConfigError, DomainError
from .distributions import QGaussianParams, qgauss_sample, qgauss_tsallis_entropy
from .gof import FAMILIES, infeasibility_reason, null_replicates
from .mathcore import MASK64, RngStream, content_index
from .statkit import SHAPIRO_WILK_MAX_N, empirical_quantile, ols_slope_with_offset, shapiro_wilk

logger = logging.getLogger(__name__)

# each experiment kind and the file where its infeasible cells are marked
KINDS = {
    "critical-values": "critical_values.csv",
    "normality-sweep": "normality.csv",
    "convergence": "convergence.csv",
    "consistency-curves": "consistency.csv",
    "distribution-shape": "shape_statistics.csv",
}

# version of the mapping from replicates to random streams; a change to it
# changes result bytes, so it is part of the cell-cache key
STREAM_LAYOUT = 2

_TABLE_MIN_M = 100  # the fewest replications a critical-value table takes
_BIN_RULE = "freedman-diaconis (numpy histogram_bin_edges 'fd')"
_MAX_BINS = 2**22  # a histogram that would need more bins is refused


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridBlock:
    qs: tuple
    ms: tuple
    ks: tuple
    ns: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    grids: tuple  # tuple[GridBlock]
    family: str = "t1"
    master_seed: int = 0
    alpha: float = 0.05
    replications: int = 200  # outer M
    inner_batch: int = 100  # inner n (normality sweep)
    draws: int = 200_000  # raw draws for shape sample densities

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r} (expected one of {tuple(KINDS)})"
            )
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r} (expected one of {FAMILIES})")
        if not self.grids:
            raise ConfigError("at least one [grid] block is required")
        if not 0 <= self.master_seed <= MASK64 or self.master_seed % 1:
            raise ConfigError(
                f"master_seed must be an integer in [0, 2**64 - 1], got {self.master_seed}"
            )
        for block in self.grids:
            if not all(math.isfinite(q) for q in block.qs):
                raise ConfigError(f"grid key 'q' must be finite, got {block.qs}")
            for key, values in (("m", block.ms), ("k", block.ks), ("N", block.ns)):
                if any(v % 1 for v in values):
                    raise ConfigError(f"grid key {key!r} must be integers, got {values}")
                if key != "N" and any(v < 1 for v in values):
                    raise ConfigError(f"grid key {key!r} must be at least 1, got {min(values)}")
        if self.kind == "critical-values" and self.replications < _TABLE_MIN_M:
            raise ConfigError(f"critical-value tables require M >= {_TABLE_MIN_M} replications")
        if self.replications < 2:
            raise ConfigError("M must be at least 2")
        if self.kind == "normality-sweep" and not 3 <= self.inner_batch <= SHAPIRO_WILK_MAX_N:
            raise ConfigError(
                f"normality sweep needs inner batch 3 <= n <= {SHAPIRO_WILK_MAX_N} (Shapiro-Wilk), "
                f"got n={self.inner_batch}"
            )
        if not (0.0 < self.alpha <= 0.5):
            raise ConfigError(f"alpha must lie in (0, 0.5], got {self.alpha}")
        if self.draws < 2:
            raise ConfigError("draws must be at least 2")
        for key, v in (("M", self.replications), ("n", self.inner_batch), ("draws", self.draws)):
            if v % 1:
                raise ConfigError(f"{key} must be an integer, got {v}")
        for name in ("master_seed", "replications", "inner_batch", "draws"):  # ints hash as JSON
            object.__setattr__(self, name, int(getattr(self, name)))
        grids = [GridBlock(b.qs, *(tuple(map(int, v)) for v in (b.ms, b.ks, b.ns)))
                 for b in self.grids]
        object.__setattr__(self, "grids", tuple(grids))

    def cells(self) -> list[tuple]:
        """Row-major (q, m, k, N) cells over all grid blocks, in file order."""
        out = []
        for block in self.grids:
            for q in block.qs:
                for m in block.ms:
                    for k in block.ks:
                        for n in block.ns:
                            out.append((q, m, k, n))
        return out

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def config_hash(self) -> str:
        """Key of the cell cache: the config, the toolkit version and the
        stream layout, so cells written by other code are never reused."""
        key = json.dumps([self.canonical(), __version__, STREAM_LAYOUT])
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


_TOP_KEYS = {
    "kind": str,
    "family": str,
    "master_seed": int,
    "alpha": float,
    "M": int,
    "n": int,
    "draws": int,
}
_GRID_KEYS = {"q": float, "m": int, "k": int, "N": int}
_FIELDS = {"M": "replications", "n": "inner_batch"}  # other keys name their field


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the flat key/value + repeated [grid] block format.

    Annotated example::

        # lines starting with '#' are comments
        kind = critical-values      # one of the five experiment kinds
        family = t1                 # null family branch: t1 (q>1) or t2 (q<1)
        master_seed = 20240601
        alpha = 0.05
        M = 200                     # outer Monte Carlo replications
        [grid]                      # one or more grid blocks; cells are the
        q = 1.2 1.5                 # row-major product within each block
        m = 2 3
        k = 1 2 3
        N = 100 200 500

    Unknown keys are errors.
    """
    top: dict = {}
    grids: list[dict] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[grid]":
            current = {}
            grids.append(current)
            continue
        if line.startswith("["):
            raise ConfigError(f"{source}:{lineno}: unknown section {line!r}")
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        section, keys, what = (
            (top, _TOP_KEYS, "key") if current is None else (current, _GRID_KEYS, "grid key")
        )
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown {what} {key!r}")
        if key in section:
            raise ConfigError(f"{source}:{lineno}: duplicate {what} {key!r}")
        try:
            section[key] = keys[key](value.strip()) if section is top else tuple(
                map(keys[key], value.replace(",", " ").split())
            )
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        if section[key] == ():
            raise ConfigError(f"{source}:{lineno}: grid key {key!r} has no values")
    if "kind" not in top:
        raise ConfigError(f"{source}: missing required key 'kind'")
    if not grids:
        raise ConfigError(f"{source}: missing [grid] block")
    blocks = []
    for i, g in enumerate(grids, start=1):
        missing = [k for k in _GRID_KEYS if k not in g]
        if missing:
            raise ConfigError(f"{source}: [grid] block {i} is missing keys {missing}")
        blocks.append(GridBlock(qs=g["q"], ms=g["m"], ks=g["k"], ns=g["N"]))
    return ExperimentConfig(grids=tuple(blocks), **{_FIELDS.get(k, k): v for k, v in top.items()})


def _read_text(path: Path, what: str) -> str:
    """The text of an input file; a file that cannot be opened or decoded
    as UTF-8 is a ConfigError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}{path}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(_read_text(path, "config "), source=str(path))


# ---------------------------------------------------------------------------
# task plan and per-task computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Task:
    index: int
    q: float
    m: int
    n: int  # 0 for a sample-density task
    ks: tuple  # the point's feasible ks; () for a sample-density task
    shape: tuple  # (rows, columns) of the task's matrix; rows None for histogram bins


_HEADERS = {
    "critical_values.csv": "q,m,k,N,alpha,crit,M,seed",
    "normality.csv": "q,m,k,N,mean_p,M,n,seed",
    "convergence.csv": "q,m,k,N,mean_q,std_q,M,seed",
    "regression.csv": "q,m,k,beta,intercept,rse",
    "consistency.csv": "q,m,k,N,mean_h,std_h,h_true,M,seed",
    "shape_statistics.csv": "q,m,k,N,rep,Q,M,seed",
    "shape_stat_density.csv": "q,m,k,N,bin_left,bin_right,density,M,seed",
    "shape_stat_qq.csv": "q,m,k,N,i,standardized_q,normal_quantile,M,seed",
    "shape_sample_density.csv": "q,m,draws,bin_left,bin_right,density,log_density,seed",
}


def _statistic(config: ExperimentConfig) -> bool:
    """Whether the replicates are statistics Q; consistency curves need only
    the estimates h_hat, and so no covariance bridge."""
    return config.kind != "consistency-curves"


def _plan(config: ExperimentConfig) -> tuple[list[_Task], list[tuple]]:
    """The run's tasks, and every output cell once, in file order, as
    (point, reason or None from the feasibility rule): the kind's
    (q, m, k, N) cells, then, for distribution-shape, each distinct member's
    sample density as cell (q, m, 0, 0), which needs sampling only. One
    task per (q, m, N) point of the feasible cells computes all its ks
    from shared draws; a sample density is the task with N = 0 and no ks."""
    statistic = _statistic(config)
    cells = [(p, infeasibility_reason(config.family, *p, statistic)) for p in config.cells()]
    if config.kind == "distribution-shape":
        members = dict.fromkeys((q, m, 0, 0) for q, m, _, _ in config.cells())
        cells += [(p, infeasibility_reason(config.family, *p[:2], bridge=False)) for p in members]
    points: dict[tuple, list] = {}
    for (q, m, k, n), reason in cells:
        if reason is None:
            ks = points.setdefault((q, m, n), [])
            if k and k not in ks:
                ks.append(k)
    reps = config.replications
    if config.kind == "normality-sweep":
        reps *= config.inner_batch  # replicate b*n + i is statistic i of batch b
    tasks = [
        _Task(i, q, m, n, tuple(ks), (reps, len(ks)) if ks else (None, 3))
        for i, ((q, m, n), ks) in enumerate(points.items())
    ]
    return tasks, cells


def _cost(config: ExperimentConfig, task: _Task) -> int:
    """A task's estimated work, from the plan alone: replicates x N x m, or
    draws x m for a sample density."""
    return (task.shape[0] * task.n if task.ks else config.draws) * task.m


def _tag(task: _Task) -> list:
    return [task.q, task.m, task.n, list(task.ks)]


def _histogram(values: np.ndarray, what: str = "the values") -> np.ndarray:
    """(bins, 3) matrix of [bin_left, bin_right, density] per
    Freedman-Diaconis bin. numpy's bin count, range / (2 IQR n^(-1/3))
    rounded up, is checked, then used: above _MAX_BINS (inf too) it is a
    DomainError naming what is binned, raised before any bin is allocated.
    Constant values c get numpy's bin (c - 0.5, c + 0.5), or a DomainError
    where both edges round back to c (as from |c| = 2**53 on)."""
    lo, hi = float(values.min()), float(values.max())
    q75, q25 = np.percentile(values, [75, 25]).tolist()
    width = 2.0 * (q75 - q25) * values.size ** (-1.0 / 3.0)
    bins = (hi - lo) / width if width else 1.0
    if bins > _MAX_BINS:
        raise DomainError(
            f"a Freedman-Diaconis histogram of {what} needs {np.ceil(bins):.4g} bins, "
            f"above the cap of {_MAX_BINS}"
        )
    if lo - 0.5 == hi + 0.5:
        raise DomainError(f"{what} all equal {lo!r}, and a bin around it has no width in float64")
    counts, edges = np.histogram(values, bins=math.ceil(bins), range=(lo, hi))
    density = counts / (counts.sum() * np.diff(edges))
    return np.column_stack((edges[:-1], edges[1:], density))


def _cell_path(cache_dir: Path, task: _Task) -> Path:
    return cache_dir / f"task-{task.index:06d}.json"


def _compute_task(config: ExperimentConfig, cache_dir: Path, task: _Task) -> None:
    """Compute the task's matrix and write it, with its tag, as the task's
    cell file."""
    if task.ks:
        index = partial(content_index, config.family, task.q, task.m, task.n)
        streams = (RngStream(config.master_seed, index(rep)) for rep in range(task.shape[0]))
        matrix = null_replicates(
            task.n, task.m, task.ks, task.q, config.family, streams, _statistic(config)
        )
    else:
        rng = RngStream(config.master_seed, content_index(config.family, task.q, task.m, 0, 0))
        draws = qgauss_sample(QGaussianParams(m=task.m, q=task.q), config.draws, rng)
        matrix = _histogram(draws[:, 0], f"the draws of the q={task.q}, m={task.m} member")
    payload = {"point": _tag(task), "matrix": matrix.tolist()}
    _write_atomic(_cell_path(cache_dir, task), json.dumps(payload))


def _row(config: ExperimentConfig, name: str, point, **values) -> list:
    """A row of file name for the cell at point = (q, m, k, N): the cell's
    coordinates and the config's settings, then values by column name. A
    value column not given reads `infeasible`."""
    q, m, k, n = point
    fixed = {"q": q, "m": m, "k": k, "N": n, "alpha": config.alpha, "M": config.replications}
    fixed.update(n=config.inner_batch, draws=config.draws, seed=config.master_seed)
    return [
        values[col] if col in values else fixed.get(col, "infeasible")
        for col in _HEADERS[name].split(",")
    ]


def _reduce(config: ExperimentConfig, point, values) -> dict:
    """One cell's {filename: rows}, from its replicate column (statistics Q,
    or estimates h_hat for consistency curves) or, for a sample density
    cell (q, m, 0, 0), its histogram; values None marks an infeasible cell
    with one row in its marker file."""
    kind = config.kind
    name = "shape_sample_density.csv" if point[2] == 0 else KINDS[kind]
    if values is None:
        return {name: [_row(config, name, point)]}
    if point[2] == 0:
        return {name: [
            _row(config, name, point, bin_left=left, bin_right=right, density=dens,
                 log_density=math.log(dens) if dens > 0 else float("nan"))
            for left, right, dens in values.tolist()
        ]}
    if kind == "critical-values":
        crit = empirical_quantile(values, 1.0 - config.alpha)
        return {"critical_values.csv": [_row(config, "critical_values.csv", point, crit=crit)]}
    if kind == "normality-sweep":
        batches = values.reshape(config.replications, config.inner_batch)
        mean_p = float(np.mean([shapiro_wilk(batch).p_value for batch in batches]))
        return {"normality.csv": [_row(config, "normality.csv", point, mean_p=mean_p)]}
    mean, std = float(np.mean(values)), float(np.std(values, ddof=1))
    if kind == "convergence":
        row = _row(config, "convergence.csv", point, mean_q=mean, std_q=std)
        return {"convergence.csv": [row]}
    if kind == "consistency-curves":
        h_true = qgauss_tsallis_entropy(QGaussianParams(m=point[1], q=point[0]))
        row = _row(config, "consistency.csv", point, mean_h=mean, std_h=std, h_true=h_true)
        return {"consistency.csv": [row]}
    m_out = config.replications  # distribution-shape
    with np.errstate(invalid="ignore"):  # M equal values have no standard form: nan
        standardized = np.sort((values - mean) / std)
    quantiles = ndtri((np.arange(1, m_out + 1) - 0.5) / m_out)
    return {
        "shape_statistics.csv": [
            _row(config, "shape_statistics.csv", point, rep=r, Q=float(s))
            for r, s in enumerate(values)
        ],
        "shape_stat_density.csv": [
            _row(config, "shape_stat_density.csv", point, bin_left=a, bin_right=b, density=d)
            for a, b, d in _histogram(values, f"the statistics Q at {point}").tolist()
        ],
        "shape_stat_qq.csv": [
            _row(config, "shape_stat_qq.csv", point, i=i + 1, standardized_q=float(s),
                 normal_quantile=float(t))
            for i, (s, t) in enumerate(zip(standardized, quantiles))
        ],
    }


def _regression_rows(config: ExperimentConfig, columns: dict) -> list:
    """Fit the offset log-log regression per (q, m, k) group, in file order.

    The regressand is the mean absolute statistic per N (positive by
    construction); groups without at least 3 usable N values (all cells
    infeasible, say) are emitted as explicit infeasible rows.
    """
    groups: dict[tuple, dict] = {}
    for q, m, k, n in config.cells():
        mean_abs = groups.setdefault((q, m, k), {})
        if (q, m, k, n) in columns:
            mean_abs[n] = float(np.mean(np.abs(columns[q, m, k, n])))
    rows = []
    for (q, m, k), mean_abs in groups.items():
        usable = [(n, v) for n, v in sorted(mean_abs.items()) if v > 0]
        values = {}
        if len(usable) >= 3:
            fit = ols_slope_with_offset([n for n, _ in usable], [v for _, v in usable])
            values = dict(beta=fit.slope, intercept=fit.intercept, rse=fit.residual_stderr)
        rows.append(_row(config, "regression.csv", (q, m, k, None), **values))
    return rows


# ---------------------------------------------------------------------------
# deterministic execution, caching, assembly
# ---------------------------------------------------------------------------


def deterministic_map(fn, items, workers: int = 1) -> list:
    """Order-preserving map, optionally across processes; results do not
    depend on the worker count. SIGINT ends a worker at once, without a
    traceback; on KeyboardInterrupt in this process the workers this call
    started are terminated (a SIGINT sent to this process alone does not
    reach them) and the queued tasks cancelled, not run, before it
    propagates. Other child processes of the caller are left alone. At
    most one worker per item is started, and none for a single item."""
    workers = min(workers, len(items))
    if workers <= 1:
        return list(map(fn, items))
    reset_sigint = (signal.SIGINT, signal.SIG_DFL)
    others = set(multiprocessing.active_children())
    with ProcessPoolExecutor(workers, initializer=signal.signal, initargs=reset_sigint) as pool:
        try:
            return list(pool.map(fn, items))
        except KeyboardInterrupt:
            for worker in set(multiprocessing.active_children()) - others:
                worker.terminate()
            pool.shutdown(cancel_futures=True)
            raise


def _cell_problem(task: _Task, payload) -> str | None:
    """Why a cached payload cannot be reused, or None if it can: it holds
    exactly the task's tag and a matrix of the task's shape whose entries
    are finite floats."""
    if not isinstance(payload, dict) or set(payload) != {"point", "matrix"}:
        return "expected an object with keys 'point' and 'matrix'"
    if payload["point"] != _tag(task):
        return f"matrix is tagged {payload['point']!r}, expected {_tag(task)!r}"
    rows, width = task.shape
    matrix = payload["matrix"]
    if (
        not isinstance(matrix, list)
        or not matrix
        or rows not in (None, len(matrix))
        or any(not isinstance(row, list) or len(row) != width for row in matrix)
    ):
        return f"matrix is not {rows or 'a'} x {width}"
    for row in matrix:
        for value in row:
            if type(value) is not float or not math.isfinite(value):
                return f"matrix value {value!r} is not a finite float"
    return None


def _read_cell(task: _Task, path: Path, computed: bool = False) -> dict | None:
    """The payload of a task's cell file. A cached file that is missing,
    unreadable or refused by _cell_problem gives None (a refusal is
    logged); a computed one that fails the same check raises."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        if computed:
            raise
        return None
    except ValueError as exc:  # not JSON, or not UTF-8
        problem = f"unreadable cell file {path}: {exc}"
    else:
        problem = _cell_problem(task, payload)
        if problem is None:
            return payload
        problem = f"invalid cell file {path}: {problem}"
    if computed:
        raise RuntimeError(f"computed {problem}")
    logger.warning("recomputing %s", problem)
    return None


def _run_tasks(config: ExperimentConfig, tasks: list, workers: int, cache_dir: Path) -> list:
    """The plan's tasks' matrices, each read from its cell file. Cell
    files the plan does not name are deleted and valid ones reused; the
    pending tasks run largest first, so the longest one does not run alone
    at the end, and each writes its cell file when it finishes."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    planned = {_cell_path(cache_dir, task) for task in tasks}
    for path in cache_dir.glob("task-*.json"):
        if path not in planned:
            path.unlink(missing_ok=True)
    payloads = {task.index: _read_cell(task, _cell_path(cache_dir, task)) for task in tasks}
    pending = sorted(
        (t for t in tasks if payloads[t.index] is None), key=lambda t: (-_cost(config, t), t.index)
    )
    deterministic_map(partial(_compute_task, config, cache_dir), pending, workers)
    for task in pending:
        payloads[task.index] = _read_cell(task, _cell_path(cache_dir, task), computed=True)
    return [np.array(payloads[t.index]["matrix"], dtype=float) for t in tasks]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_atomic(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # what open() gives; mkstemp makes 0o600
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(rows, header: str | None = None) -> str:
    """CSV text of rows, every value written by _fmt, after header if given."""
    lines = [] if header is None else [header]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "".join(line + "\n" for line in lines)


def read_critical_value(path, q: float, m: int, k: int, n: int, alpha: float) -> float | None:
    """The crit of the first critical_values.csv row with equal m, k and N
    and q and alpha within an absolute 1e-9; None on a miss or an
    `infeasible` row. Every row is checked first: a bad header or row
    raises ConfigError naming the file and line.
    """
    path = Path(path)
    header = _HEADERS["critical_values.csv"]
    lines = _read_text(path, "table ").splitlines()
    if not lines or lines[0].strip() != header:
        raise ConfigError(f"{path}: expected header '{header}'")
    hits = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ConfigError(f"{path}:{lineno}: expected 8 columns, got {len(parts)}")
        try:
            row_q, row_m, row_k, row_n, row_alpha, crit, replications, _ = (
                float(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]),
                None if parts[5] == "infeasible" else float(parts[5]), int(parts[6]), int(parts[7]),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if crit is not None and not math.isfinite(crit):
            raise ConfigError(f"{path}:{lineno}: critical values must be finite")
        if replications < _TABLE_MIN_M:
            raise ConfigError(f"{path}:{lineno}: critical-value tables require M >= {_TABLE_MIN_M}")
        if (
            (row_m, row_k, row_n) == (m, k, n)
            and math.isclose(row_q, q, rel_tol=0.0, abs_tol=1e-9)
            and math.isclose(row_alpha, alpha, rel_tol=0.0, abs_tol=1e-9)
        ):
            hits.append(crit)
    return hits[0] if hits else None


def run_experiment(config: ExperimentConfig, out_dir, workers: int = 1) -> dict:
    """Run the configured experiment, write its files, return {name: path}."""
    out_dir = Path(out_dir)
    tasks, cells = _plan(config)
    matrices = _run_tasks(config, tasks, workers, out_dir / ".cells" / config.config_hash())
    results = {  # a grid cell's column, or a sample density cell's histogram
        (t.q, t.m, k, t.n): matrix[:, j] if t.ks else matrix
        for t, matrix in zip(tasks, matrices)
        for j, k in enumerate(t.ks or (0,))
    }

    files: dict[str, list] = {}
    infeasible = []
    for point, reason in cells:
        if reason:
            infeasible.append(dict(zip(("q", "m", "k", "N"), point), reason=reason))
        for name, rows in _reduce(config, point, None if reason else results[point]).items():
            files.setdefault(name, []).extend(rows)
    if config.kind == "convergence":
        files["regression.csv"] = _regression_rows(config, results)

    paths = {}
    for name in _HEADERS:
        if name in files:
            path = out_dir / name
            _write_atomic(path, _csv_text(files[name], _HEADERS[name]))
            paths[name] = path
    manifest = {
        "experiment": config.kind,
        "config": json.loads(config.canonical()),
        "config_hash": config.config_hash(),
        "master_seed": config.master_seed,
        "stream_layout": STREAM_LAYOUT,
        "toolkit_version": __version__,
        "files": sorted(files),
        "infeasible_cells": infeasible,
    }
    if config.kind == "distribution-shape":
        manifest["bin_rule"] = _BIN_RULE
    manifest_name = config.kind.replace("-", "_") + "_manifest.json"
    manifest_path = out_dir / manifest_name
    _write_atomic(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    paths[manifest_name] = manifest_path
    return paths
