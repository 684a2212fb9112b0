"""Declarative Monte Carlo experiments with deterministic parallelism and
persisted CSV results.

Determinism contract
--------------------
Output bytes are a pure function of (config, master_seed). The plan has
one task per (grid block, q, m, N) point, and its replicate rep draws from
RngStream(master_seed, content_index(family, q, m, N, rep)): the stream is
keyed by what the replicate simulates, not by where its cell sits in the
grid. Every k of the block is read off the same draws (common random
numbers across k), and adding or reordering grid values leaves the other
cells' rows unchanged (regression.csv, which fits over each group's N
values, does change). Worker count and scheduling never change results.

Each task's result is cached under `<out>/.cells/<key>/` as soon as it
arrives, where the key hashes the config, the toolkit version and
STREAM_LAYOUT, the version of the replicate-to-stream mapping. Reruns
reuse only valid cells of the same key and recompute the rest (missing,
unreadable, or with a payload that does not fit the kind) before
reassembling byte-identical files.

Result files (CSV, UTF-8, comma-separated, '.' decimal, header mandatory)
----------------------------------------------------------------------
critical-values     critical_values.csv   q,m,k,N,alpha,crit,M,seed
normality-sweep     normality.csv         q,m,k,N,mean_p,M,n,seed
convergence         convergence.csv       q,m,k,N,mean_q,std_q,M,seed
                    regression.csv        q,m,k,beta,intercept,rse
consistency-curves  consistency.csv       q,m,k,N,mean_h,std_h,h_true,M,seed
distribution-shape  shape_statistics.csv  q,m,k,N,rep,Q,M,seed
                    shape_stat_density.csv q,m,k,N,bin_left,bin_right,density,M,seed
                    shape_stat_qq.csv     q,m,k,N,i,standardized_q,normal_quantile,M,seed
                    shape_sample_density.csv q,m,draws,bin_left,bin_right,density,log_density,seed

Cells that violate a family feasibility bound are emitted as explicit
rows whose value columns read `infeasible` (with the reason recorded in
the manifest), never silently skipped. Each experiment also writes
`<kind>_manifest.json` echoing the config, its hash, the master seed, the
stream layout and the toolkit version.
"""

import hashlib
import json
import logging
import math
import os
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
from .mathcore import RngStream, content_index
from .statkit import empirical_quantile, ols_slope_with_offset, shapiro_wilk

logger = logging.getLogger(__name__)

KINDS = (
    "critical-values",
    "normality-sweep",
    "convergence",
    "consistency-curves",
    "distribution-shape",
)

# version of the mapping from replicates to random streams; a change to it
# changes result bytes, so it is part of the cell-cache key
STREAM_LAYOUT = 2

_BIN_RULE = "freedman-diaconis (numpy histogram_bin_edges 'fd')"


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
    out: str | None = None
    engine: str = "tree"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r} (expected one of {KINDS})")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r} (expected 't1' or 't2')")
        if not self.grids:
            raise ConfigError("at least one [grid] block is required")
        if self.kind == "critical-values" and self.replications < 100:
            raise ConfigError("critical-value tables require M >= 100 replications")
        if self.replications < 2:
            raise ConfigError("M must be at least 2")
        if self.kind == "normality-sweep" and self.inner_batch < 3:
            raise ConfigError("normality sweep needs inner batch n >= 3")
        if not (0.0 < self.alpha <= 0.5):
            raise ConfigError(f"alpha must lie in (0, 0.5], got {self.alpha}")
        if self.draws < 2:
            raise ConfigError("draws must be at least 2")

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
        payload = asdict(self)
        payload.pop("out", None)  # output location does not affect results
        return json.dumps(payload, sort_keys=True)

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
    "out": str,
    "engine": str,
}
_GRID_KEYS = {"q": float, "m": int, "k": int, "N": int}


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
        value = value.strip()
        if current is None:
            if key not in _TOP_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            if key in top:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            caster = _TOP_KEYS[key]
            try:
                top[key] = caster(value)
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        else:
            if key not in _GRID_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown grid key {key!r}")
            if key in current:
                raise ConfigError(f"{source}:{lineno}: duplicate grid key {key!r}")
            caster = _GRID_KEYS[key]
            try:
                current[key] = tuple(caster(tok) for tok in value.replace(",", " ").split())
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
            if not current[key]:
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
    kwargs = dict(kind=top["kind"], grids=tuple(blocks))
    if "family" in top:
        kwargs["family"] = top["family"]
    if "master_seed" in top:
        kwargs["master_seed"] = top["master_seed"]
    if "alpha" in top:
        kwargs["alpha"] = top["alpha"]
    if "M" in top:
        kwargs["replications"] = top["M"]
    if "n" in top:
        kwargs["inner_batch"] = top["n"]
    if "draws" in top:
        kwargs["draws"] = top["draws"]
    if "out" in top:
        kwargs["out"] = top["out"]
    if "engine" in top:
        kwargs["engine"] = top["engine"]
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


# ---------------------------------------------------------------------------
# critical-value table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalValueRow:
    q: float
    m: int
    k: int
    n: int
    alpha: float
    crit: float | None  # None marks an infeasible cell
    replications: int
    seed: int


class CriticalValueTable:
    """Rows of simulated upper critical values, keyed by (q, m, k, N, alpha)."""

    def __init__(self, rows):
        self.rows = list(rows)
        for row in self.rows:
            if row.crit is not None and not math.isfinite(row.crit):
                raise DomainError("critical values must be finite")
            if row.replications < 100:
                raise DomainError("critical-value tables require M >= 100")

    def lookup(self, q: float, m: int, k: int, n: int, alpha: float) -> float | None:
        for row in self.rows:
            if (
                row.m == m
                and row.k == k
                and row.n == n
                and math.isclose(row.q, q, rel_tol=0.0, abs_tol=1e-9)
                and math.isclose(row.alpha, alpha, rel_tol=0.0, abs_tol=1e-9)
            ):
                return row.crit
        return None

    @classmethod
    def from_csv(cls, path) -> "CriticalValueTable":
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read table {path}: {exc}") from exc
        if not lines or lines[0].strip() != "q,m,k,N,alpha,crit,M,seed":
            raise ConfigError(f"{path}: expected header 'q,m,k,N,alpha,crit,M,seed'")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ConfigError(f"{path}:{lineno}: expected 8 columns, got {len(parts)}")
            try:
                crit = None if parts[5] == "infeasible" else float(parts[5])
                rows.append(
                    CriticalValueRow(
                        q=float(parts[0]),
                        m=int(parts[1]),
                        k=int(parts[2]),
                        n=int(parts[3]),
                        alpha=float(parts[4]),
                        crit=crit,
                        replications=int(parts[6]),
                        seed=int(parts[7]),
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        return cls(rows)


# ---------------------------------------------------------------------------
# task plan and per-task computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Task:
    index: int
    role: str  # "point" | "density"
    q: float
    m: int
    ks: tuple  # (0,) for a density task
    n: int
    positions: tuple  # where each k's cell sits in the file order


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
    "_regression_input": "q,m,k,N,mean_abs",  # cached per cell, not written
}

# the files one cell of each kind writes; an infeasible cell writes only the
# first, as one marker row
_CELL_FILES = {
    "critical-values": ("critical_values.csv",),
    "normality-sweep": ("normality.csv",),
    "convergence": ("convergence.csv", "_regression_input"),
    "consistency-curves": ("consistency.csv",),
    "distribution-shape": ("shape_statistics.csv", "shape_stat_density.csv", "shape_stat_qq.csv"),
    "density": ("shape_sample_density.csv",),
}


def _plan(config: ExperimentConfig) -> list[_Task]:
    """One task per (grid block, q, m, N) point, computing every k of its
    block from shared draws; then, for distribution-shape, one density task
    per (q, m). Positions index the row-major config.cells() order, with
    density tasks after the last cell."""
    tasks = []
    offset = 0
    for block in config.grids:
        n_m, n_k, n_n = len(block.ms), len(block.ks), len(block.ns)
        for qi, q in enumerate(block.qs):
            for mi, m in enumerate(block.ms):
                for ni, n in enumerate(block.ns):
                    first = offset + (qi * n_m + mi) * n_k * n_n + ni
                    positions = tuple(range(first, first + n_k * n_n, n_n))
                    tasks.append(_Task(len(tasks), "point", q, m, block.ks, n, positions))
        offset += len(block.qs) * n_m * n_k * n_n
    if config.kind == "distribution-shape":
        seen = []
        for q, m, _, _ in config.cells():
            if (q, m) not in seen:
                seen.append((q, m))
        for j, (q, m) in enumerate(seen):
            tasks.append(_Task(len(tasks), "density", q, m, (0,), 0, (offset + j,)))
    return tasks


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


def _histogram_rows(values: np.ndarray):
    """(bin_left, bin_right, density) per Freedman-Diaconis bin."""
    edges = np.histogram_bin_edges(values, bins="fd")
    counts, edges = np.histogram(values, bins=edges)
    density = counts / (counts.sum() * np.diff(edges))
    return [(float(a), float(b), float(d)) for a, b, d in zip(edges[:-1], edges[1:], density)]


def _reduce(config: ExperimentConfig, point, values: np.ndarray) -> dict:
    """One feasible cell's {filename: rows}, from its replicate column:
    statistics Q, or estimates h_hat for consistency curves."""
    kind = config.kind
    if kind == "critical-values":
        crit = empirical_quantile(values, 1.0 - config.alpha)
        return {"critical_values.csv": [_row(config, "critical_values.csv", point, crit=crit)]}
    if kind == "normality-sweep":
        batches = values.reshape(config.replications, config.inner_batch)
        mean_p = float(np.mean([shapiro_wilk(batch).p_value for batch in batches]))
        return {"normality.csv": [_row(config, "normality.csv", point, mean_p=mean_p)]}
    mean, std = float(np.mean(values)), float(np.std(values, ddof=1))
    if kind == "convergence":
        mean_abs = float(np.mean(np.abs(values)))
        return {
            "convergence.csv": [_row(config, "convergence.csv", point, mean_q=mean, std_q=std)],
            "_regression_input": [_row(config, "_regression_input", point, mean_abs=mean_abs)],
        }
    if kind == "consistency-curves":
        h_true = qgauss_tsallis_entropy(QGaussianParams(m=point[1], q=point[0]))
        row = _row(config, "consistency.csv", point, mean_h=mean, std_h=std, h_true=h_true)
        return {"consistency.csv": [row]}
    m_out = config.replications  # distribution-shape
    standardized = np.sort((values - mean) / std)
    quantiles = ndtri((np.arange(1, m_out + 1) - 0.5) / m_out)
    return {
        "shape_statistics.csv": [
            _row(config, "shape_statistics.csv", point, rep=r, Q=float(s))
            for r, s in enumerate(values)
        ],
        "shape_stat_density.csv": [
            _row(config, "shape_stat_density.csv", point, bin_left=a, bin_right=b, density=d)
            for a, b, d in _histogram_rows(values)
        ],
        "shape_stat_qq.csv": [
            _row(config, "shape_stat_qq.csv", point, i=i + 1, standardized_q=float(s),
                 normal_quantile=float(t))
            for i, (s, t) in enumerate(zip(standardized, quantiles))
        ],
    }


def _density_cell(config, task):
    name, point = "shape_sample_density.csv", (task.q, task.m, 0, 0)
    reason = infeasibility_reason(config.family, task.q, task.m, bridge=False)
    if reason:
        return {name: [_row(config, name, point)], "reason": reason}
    rng = RngStream(config.master_seed, content_index(config.family, task.q, task.m, 0, 0))
    draws = qgauss_sample(QGaussianParams(m=task.m, q=task.q), config.draws, rng)
    rows = []
    for left, right, dens in _histogram_rows(draws[:, 0]):
        log_density = math.log(dens) if dens > 0 else float("nan")
        rows.append(_row(config, name, point, bin_left=left, bin_right=right, density=dens,
                         log_density=log_density))
    return {name: rows}


def _compute_task(config: ExperimentConfig, task: _Task) -> dict:
    """Compute one task: {"cells": [one cell per k of task.ks]}, each cell
    {filename: rows} plus a 'reason' key when it is infeasible."""
    if task.role == "density":
        return {"cells": [_density_cell(config, task)]}
    kind = config.kind
    statistic = kind != "consistency-curves"  # consistency curves need no covariance
    reasons = [
        infeasibility_reason(config.family, task.q, task.m, k, task.n, bridge=statistic)
        for k in task.ks
    ]
    feasible = [k for k, reason in zip(task.ks, reasons) if reason is None]
    columns = iter(())
    if feasible:
        count = config.replications
        if kind == "normality-sweep":
            count *= config.inner_batch  # replicate b*n + i is statistic i of batch b
        index = partial(content_index, config.family, task.q, task.m, task.n)
        streams = (RngStream(config.master_seed, index(rep)) for rep in range(count))
        matrix = null_replicates(
            task.n, task.m, feasible, task.q, config.family, streams, config.engine, statistic
        )
        columns = iter(matrix.T)
    cells = []
    for k, reason in zip(task.ks, reasons):
        point = (task.q, task.m, k, task.n)
        if reason:
            name = _CELL_FILES[kind][0]
            cells.append({name: [_row(config, name, point)], "reason": reason})
        else:
            cells.append(_reduce(config, point, next(columns)))
    return {"cells": cells}


# ---------------------------------------------------------------------------
# deterministic execution, caching, assembly
# ---------------------------------------------------------------------------


def _ordered_map(fn, items, workers: int):
    """Yield fn(item) in item order, optionally computed across processes."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def deterministic_map(fn, items, workers: int = 1) -> list:
    """Order-preserving map, optionally across processes; results do not
    depend on the worker count."""
    return list(_ordered_map(fn, items, workers))


def _cell_problem(config: ExperimentConfig, task: _Task, payload) -> str | None:
    """Why a cached task payload cannot be reused, or None if it can: one
    cell per k; an infeasible cell is its reason and the exact marker row;
    any other cell has exactly its kind's files, and rows whose coordinate
    and setting columns are the cell's and whose value columns are finite
    numbers (NaN allowed as the log density of an empty bin)."""
    cells = payload.get("cells") if isinstance(payload, dict) else None
    if not isinstance(cells, list) or len(cells) != len(task.ks):
        return f"expected a list of {len(task.ks)} cells"
    files = _CELL_FILES["density" if task.role == "density" else config.kind]
    for k, cell in zip(task.ks, cells):
        point = (task.q, task.m, k, task.n)
        if not isinstance(cell, dict):
            return "a cell is not an object"
        if "reason" in cell:
            marker = {files[0]: [_row(config, files[0], point)], "reason": cell["reason"]}
            if cell != marker or not (isinstance(cell["reason"], str) and cell["reason"]):
                return f"cell {point} is not an infeasible marker with a reason"
            continue
        if set(cell) != set(files):
            return f"cell {point} holds {sorted(cell)}, expected {sorted(files)}"
        for name in files:
            template = _row(config, name, point)
            if not isinstance(cell[name], list) or not cell[name]:
                return f"{name} of cell {point} has no rows"
            for row in cell[name]:
                if not isinstance(row, list) or len(row) != len(template):
                    return f"{name} row {row!r} does not have {len(template)} columns"
                for col, value, fixed in zip(_HEADERS[name].split(","), row, template):
                    if fixed != "infeasible":
                        if value != fixed:
                            return f"{name} row {row!r} is not for cell {point}"
                    elif isinstance(value, bool) or not isinstance(value, (int, float)):
                        return f"{name} value {value!r} is not a number"
                    elif not math.isfinite(value):
                        if not (col == "log_density" and math.isnan(value)):
                            return f"{name} value {value!r} is not finite"
    return None


def _read_cell(config: ExperimentConfig, task: _Task, cache_file: Path) -> dict | None:
    """A cached task result, or None when the file is missing, unreadable
    or holds an invalid payload."""
    try:
        payload = json.loads(cache_file.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except ValueError as exc:  # not JSON, or not UTF-8
        logger.warning("recomputing unreadable cell file %s: %s", cache_file, exc)
        return None
    problem = _cell_problem(config, task, payload)
    if problem:
        logger.warning("recomputing invalid cell file %s: %s", cache_file, problem)
        return None
    return payload


def _run_tasks(config: ExperimentConfig, workers: int, cache_dir: Path | None):
    """Each task's result in plan order; with a cache_dir, valid cached
    results are reused and each computed one is written as soon as it
    arrives."""
    tasks = _plan(config)
    results: dict[int, dict] = {}
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        for task in tasks:
            cached = _read_cell(config, task, cache_dir / f"task-{task.index:06d}.json")
            if cached is not None:
                results[task.index] = cached
    pending = [t for t in tasks if t.index not in results]
    computed = _ordered_map(partial(_compute_task, config), pending, workers)
    # computed leads the zip, so the pool closes right after the last result
    for result, task in zip(computed, pending):
        results[task.index] = result
        if cache_dir is not None:
            _write_atomic(cache_dir / f"task-{task.index:06d}.json", json.dumps(result))
    return tasks, [results[t.index] for t in tasks]


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
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path: Path, name: str, rows):
    lines = [_HEADERS[name]]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _regression_rows(convergence_rows, regression_inputs):
    """Fit the offset log-log regression per (q, m, k) group.

    The regressand is the mean absolute statistic per N (positive by
    construction); groups without at least 3 usable N values (all cells
    infeasible, say) are emitted as explicit infeasible rows.
    """
    inputs: dict[tuple, dict] = {}
    for q, m, k, n, mean_abs in regression_inputs:
        inputs.setdefault((q, m, k), {})[n] = mean_abs
    order = []
    for row in convergence_rows:
        key = (row[0], row[1], row[2])
        if key not in order:
            order.append(key)
    out = []
    for key in order:
        q, m, k = key
        usable = [(n, v) for n, v in sorted(inputs.get(key, {}).items()) if v > 0]
        if len({n for n, _ in usable}) < 3:
            out.append([q, m, k, "infeasible", "infeasible", "infeasible"])
            continue
        fit = ols_slope_with_offset([n for n, _ in usable], [v for _, v in usable])
        out.append([q, m, k, fit.slope, fit.intercept, fit.residual_stderr])
    return out


def run_experiment(config: ExperimentConfig, out_dir=None, workers: int = 1) -> dict:
    """Run the configured experiment, write its files, return {name: path}.

    With out_dir=None an in-memory run is performed (no caching, no files)
    and the assembled rows are returned as {name: rows} instead.
    """
    cache_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        cache_dir = out_dir / ".cells" / config.config_hash()
    tasks, results = _run_tasks(config, workers, cache_dir)

    files: dict[str, list] = {}
    regression_inputs = []
    infeasible = []
    cells = sorted(
        (
            (position, task, k, cell)
            for task, result in zip(tasks, results)
            for position, k, cell in zip(task.positions, task.ks, result["cells"])
        ),
        key=lambda entry: entry[0],
    )
    for _, task, k, cell in cells:
        for name, rows in cell.items():
            if name == "reason":
                continue
            if name == "_regression_input":
                regression_inputs.extend(rows)
                continue
            files.setdefault(name, []).extend(rows)
        if "reason" in cell:
            infeasible.append(
                {"q": task.q, "m": task.m, "k": k, "N": task.n, "reason": cell["reason"]}
            )
    if config.kind == "convergence":
        files["regression.csv"] = _regression_rows(
            files.get("convergence.csv", []), regression_inputs
        )

    if out_dir is None:
        return files

    paths = {}
    for name in _HEADERS:
        if name in files:
            path = out_dir / name
            _write_csv(path, name, files[name])
            paths[name] = path
    manifest = {
        "experiment": config.kind,
        "config": json.loads(config.canonical()),
        "config_hash": config.config_hash(),
        "master_seed": config.master_seed,
        "stream_layout": STREAM_LAYOUT,
        "toolkit_version": __version__,
        "files": sorted(n for n in files if n in _HEADERS),
        "infeasible_cells": infeasible,
    }
    if config.kind == "distribution-shape":
        manifest["bin_rule"] = _BIN_RULE
    manifest_name = config.kind.replace("-", "_") + "_manifest.json"
    manifest_path = out_dir / manifest_name
    _write_atomic(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    paths[manifest_name] = manifest_path
    return paths


# ---------------------------------------------------------------------------
# convenience runners returning in-memory results
# ---------------------------------------------------------------------------


def run_critical_values(config: ExperimentConfig, workers: int = 1) -> CriticalValueTable:
    if config.kind != "critical-values":
        raise ConfigError(f"config kind is {config.kind!r}, expected 'critical-values'")
    files = run_experiment(config, out_dir=None, workers=workers)
    rows = []
    for q, m, k, n, alpha, crit, m_out, seed in files["critical_values.csv"]:
        rows.append(
            CriticalValueRow(
                q=q,
                m=m,
                k=k,
                n=n,
                alpha=alpha,
                crit=None if isinstance(crit, str) else float(crit),
                replications=m_out,
                seed=seed,
            )
        )
    return CriticalValueTable(rows)


def run_normality_sweep(config: ExperimentConfig, workers: int = 1) -> list:
    if config.kind != "normality-sweep":
        raise ConfigError(f"config kind is {config.kind!r}, expected 'normality-sweep'")
    return run_experiment(config, out_dir=None, workers=workers)["normality.csv"]


def run_convergence(config: ExperimentConfig, workers: int = 1) -> tuple:
    if config.kind != "convergence":
        raise ConfigError(f"config kind is {config.kind!r}, expected 'convergence'")
    files = run_experiment(config, out_dir=None, workers=workers)
    return files["convergence.csv"], files["regression.csv"]


def run_consistency_curves(config: ExperimentConfig, workers: int = 1) -> list:
    if config.kind != "consistency-curves":
        raise ConfigError(f"config kind is {config.kind!r}, expected 'consistency-curves'")
    return run_experiment(config, out_dir=None, workers=workers)["consistency.csv"]


def run_distribution_shape(config: ExperimentConfig, workers: int = 1) -> dict:
    if config.kind != "distribution-shape":
        raise ConfigError(f"config kind is {config.kind!r}, expected 'distribution-shape'")
    return run_experiment(config, out_dir=None, workers=workers)
