"""Declarative Monte Carlo experiments with deterministic parallelism and
persisted CSV results.

Determinism contract
--------------------
Output bytes are a pure function of (config, master_seed). Every atomic
simulation task owns an RngStream whose index is derived from its position
in the row-major cell enumeration (cell_index * reps_per_cell + rep), so
worker count and scheduling never change results. Each per-cell result
is cached under `<out>/.cells/<config-hash>/` as soon as it arrives, and
reruns recompute only missing or unreadable cells before reassembling
byte-identical files.

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
`<kind>_manifest.json` echoing the config, its hash, the master seed and
the toolkit version.
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
from .entropy import tsallis_knn_estimate
from .gof import FAMILIES, infeasibility_reason, null_statistics
from .mathcore import RngStream
from .statkit import empirical_quantile, ols_slope_with_offset, shapiro_wilk

logger = logging.getLogger(__name__)

KINDS = (
    "critical-values",
    "normality-sweep",
    "convergence",
    "consistency-curves",
    "distribution-shape",
)

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
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]


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
    role: str  # "cell" | "density"
    q: float
    m: int
    k: int
    n: int
    stream_base: int


def _plan(config: ExperimentConfig) -> list[_Task]:
    cells = config.cells()
    m_out = config.replications
    tasks = []
    if config.kind == "normality-sweep":
        per_cell = m_out * config.inner_batch
    else:
        per_cell = m_out
    for idx, (q, m, k, n) in enumerate(cells):
        tasks.append(
            _Task(index=idx, role="cell", q=q, m=m, k=k, n=n, stream_base=idx * per_cell)
        )
    if config.kind == "distribution-shape":
        seen = []
        for q, m, _, _ in cells:
            if (q, m) not in seen:
                seen.append((q, m))
        base = len(cells) * per_cell
        for j, (q, m) in enumerate(seen):
            tasks.append(
                _Task(
                    index=len(cells) + j,
                    role="density",
                    q=q,
                    m=m,
                    k=0,
                    n=0,
                    stream_base=base + j,
                )
            )
    return tasks


def _null_statistics(config: ExperimentConfig, task: _Task, count: int, offset: int = 0):
    """count null statistics for the task's cell, one stream per replication."""
    base = task.stream_base + offset
    streams = (RngStream(config.master_seed, base + r) for r in range(count))
    return null_statistics(task.n, task.m, task.k, task.q, config.family, streams, config.engine)


def _histogram_rows(values: np.ndarray, with_log: bool = False):
    edges = np.histogram_bin_edges(values, bins="fd")
    counts, edges = np.histogram(values, bins=edges)
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    rows = []
    for left, right, dens in zip(edges[:-1], edges[1:], density):
        row = [float(left), float(right), float(dens)]
        if with_log:
            row.append(math.log(dens) if dens > 0 else float("nan"))
        rows.append(row)
    return rows


def _compute_task(config: ExperimentConfig, task: _Task) -> dict:
    """Compute one task; returns {filename: rows} plus optional 'reason' key."""
    kind = config.kind
    q, m, k, n = task.q, task.m, task.k, task.n
    m_out = config.replications
    seed = config.master_seed

    if kind == "critical-values":
        reason = infeasibility_reason(config.family, q, m, k, n)
        if reason:
            row = [q, m, k, n, config.alpha, "infeasible", m_out, seed]
            return {"critical_values.csv": [row], "reason": reason}
        stats = _null_statistics(config, task, m_out)
        crit = empirical_quantile(stats, 1.0 - config.alpha)
        return {"critical_values.csv": [[q, m, k, n, config.alpha, crit, m_out, seed]]}

    if kind == "normality-sweep":
        reason = infeasibility_reason(config.family, q, m, k, n)
        n_in = config.inner_batch
        if reason:
            row = [q, m, k, n, "infeasible", m_out, n_in, seed]
            return {"normality.csv": [row], "reason": reason}
        p_values = np.empty(m_out)
        for b in range(m_out):
            batch = _null_statistics(config, task, n_in, offset=b * n_in)
            p_values[b] = shapiro_wilk(batch).p_value
        return {"normality.csv": [[q, m, k, n, float(np.mean(p_values)), m_out, n_in, seed]]}

    if kind == "convergence":
        reason = infeasibility_reason(config.family, q, m, k, n)
        if reason:
            row = [q, m, k, n, "infeasible", "infeasible", m_out, seed]
            return {"convergence.csv": [row], "reason": reason}
        stats = _null_statistics(config, task, m_out)
        mean = float(np.mean(stats))
        std = float(np.std(stats, ddof=1))
        mean_abs = float(np.mean(np.abs(stats)))
        return {
            "convergence.csv": [[q, m, k, n, mean, std, m_out, seed]],
            "_regression_input": [[q, m, k, n, mean_abs]],
        }

    if kind == "consistency-curves":
        reason = infeasibility_reason(config.family, q, m, k, n, bridge=False)
        if reason:
            row = [q, m, k, n, "infeasible", "infeasible", "infeasible", m_out, seed]
            return {"consistency.csv": [row], "reason": reason}
        params = QGaussianParams(m=m, q=q)  # standard member; bridge not needed here
        h_true = qgauss_tsallis_entropy(params)
        estimates = np.empty(m_out)
        for r in range(m_out):
            rng = RngStream(seed, task.stream_base + r)
            draw = qgauss_sample(params, n, rng)
            estimates[r] = tsallis_knn_estimate(draw, k, q, engine=config.engine).h_hat
        mean = float(np.mean(estimates))
        std = float(np.std(estimates, ddof=1))
        return {"consistency.csv": [[q, m, k, n, mean, std, h_true, m_out, seed]]}

    if kind == "distribution-shape":
        if task.role == "density":
            reason = infeasibility_reason(config.family, q, m, bridge=False)
            if reason:
                row = [q, m, config.draws, "infeasible", "infeasible", "infeasible", "infeasible", seed]
                return {"shape_sample_density.csv": [row], "reason": reason}
            rng = RngStream(seed, task.stream_base)
            draws = qgauss_sample(QGaussianParams(m=m, q=q), config.draws, rng)
            rows = [
                [q, m, config.draws] + r + [seed]
                for r in _histogram_rows(draws[:, 0], with_log=True)
            ]
            return {"shape_sample_density.csv": rows}
        reason = infeasibility_reason(config.family, q, m, k, n)
        if reason:
            marker = [q, m, k, n, "infeasible", "infeasible", m_out, seed]
            return {"shape_statistics.csv": [marker], "reason": reason}
        stats = _null_statistics(config, task, m_out)
        stat_rows = [[q, m, k, n, r, float(s), m_out, seed] for r, s in enumerate(stats)]
        dens_rows = [[q, m, k, n] + r + [m_out, seed] for r in _histogram_rows(stats)]
        mean = float(np.mean(stats))
        std = float(np.std(stats, ddof=1))
        standardized = np.sort((stats - mean) / std)
        quantiles = ndtri((np.arange(1, m_out + 1) - 0.5) / m_out)
        qq_rows = [
            [q, m, k, n, i + 1, float(s), float(t), m_out, seed]
            for i, (s, t) in enumerate(zip(standardized, quantiles))
        ]
        return {
            "shape_statistics.csv": stat_rows,
            "shape_stat_density.csv": dens_rows,
            "shape_stat_qq.csv": qq_rows,
        }

    raise ConfigError(f"unknown experiment kind {kind!r}")


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


def _read_cell(cache_file: Path) -> dict | None:
    """A cached cell result, or None when the file is missing or unreadable."""
    try:
        return json.loads(cache_file.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except ValueError as exc:  # not JSON, or not UTF-8
        logger.warning("recomputing unreadable cell file %s: %s", cache_file, exc)
        return None


def _run_tasks(config: ExperimentConfig, workers: int, cache_dir: Path | None):
    """Each task's result in plan order; with a cache_dir, cached cells are
    reused and each computed cell is written as soon as it arrives."""
    tasks = _plan(config)
    results: dict[int, dict] = {}
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        for task in tasks:
            cached = _read_cell(cache_dir / f"task-{task.index:06d}.json")
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
    for task, result in zip(tasks, results):
        for name, rows in result.items():
            if name == "reason":
                continue
            if name == "_regression_input":
                regression_inputs.extend(rows)
                continue
            files.setdefault(name, []).extend(rows)
        if "reason" in result:
            infeasible.append(
                {"q": task.q, "m": task.m, "k": task.k, "N": task.n, "reason": result["reason"]}
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
