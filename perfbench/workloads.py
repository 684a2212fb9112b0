"""The three workloads: their inputs, the tsgof commands of one round, and
the checks on a round's outputs.

A workload makes its inputs from the seed alone and runs the same
commands in every round. `check` returns a list of problems (empty when
every output passed); each problem names the output and what is wrong.
Checks compare against reference.py, which is computed apart from the
package, or against a property the method must have.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

# An upper critical-value band check is kept only when its false-alarm
# probability under a correct program is below this, per cell.
_BAND_FALSE_ALARM = 1e-6
_BAND_REPS = 2000
# Own-simulation replications for the mean entropy estimate at small N.
_MEAN_REPS = 400
_MEAN_SIGMAS = 6.0
_REL_TOL = 1e-9


@dataclass
class Command:
    slot: str  # name of the command within a round
    argv: list  # tsgof arguments
    config: str | None = None  # experiment config, loaded during set-up
    replicates: int = 0  # null statistics or entropy estimates it computes
    workers: int = 1
    out: Path | None = None  # experiment output directory, compared as files


@dataclass
class Output:
    stdout: str
    files: dict = field(default_factory=dict)  # name -> bytes; empty without an out dir

    def content(self):
        """What must repeat byte for byte: the files if any, else stdout."""
        return self.files or self.stdout


def read_files(out: Path) -> dict:
    """Top-level files of an experiment directory (the cell cache excluded)."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def _config_text(kind, family, seed, replications, grid, alpha=None) -> str:
    lines = [f"kind = {kind}", f"family = {family}", f"master_seed = {seed}"]
    if alpha is not None:
        lines.append(f"alpha = {alpha}")
    lines.append(f"M = {replications}")
    lines.append("[grid]")
    for key in ("q", "m", "k", "N"):
        lines.append(f"{key} = " + " ".join(str(v) for v in grid[key]))
    return "\n".join(lines) + "\n"


def _cells(grid):
    return [
        (q, m, k, n) for q in grid["q"] for m in grid["m"] for k in grid["k"] for n in grid["N"]
    ]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(b))


def _parse_table(text: str, header: str, problems: list, name: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{name}: header is not {header!r}")
        return []
    return [line.split(",") for line in lines[1:] if line]


def _check_rows_and_markers(kind, family, rows, cells, value_cols, manifest, problems, name):
    """Rows follow the grid order, and an infeasible marker appears exactly
    where the feasibility rule says, with its bound in the manifest."""
    if [tuple(r[:4]) for r in rows] != [tuple(str(v) for v in c) for c in cells]:
        problems.append(f"{name}: rows do not follow the row-major (q, m, k, N) grid")
        return {}
    expected = {}
    for (q, m, k, n), row in zip(cells, rows):
        bound = reference.infeasibility(kind, family, q, m, k, n)
        marked = any(row[c] == "infeasible" for c in value_cols)
        if bound is not None:
            expected[(q, m, k, n)] = bound
            if not all(row[c] == "infeasible" for c in value_cols):
                problems.append(f"{name}: cell {(q, m, k, n)} needs an infeasible marker")
        elif marked:
            problems.append(f"{name}: feasible cell {(q, m, k, n)} is marked infeasible")
        else:
            values = [float(row[c]) for c in value_cols]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{name}: cell {(q, m, k, n)} has a non-finite value")
    listed = {}
    for entry in manifest.get("infeasible_cells", []):
        listed[(entry["q"], entry["m"], entry["k"], entry["N"])] = entry.get("reason", "")
    if set(listed) != set(expected):
        problems.append(
            f"manifest: infeasible cells {sorted(listed)} differ from expected {sorted(expected)}"
        )
    for cell, bound in expected.items():
        if cell in listed and bound not in listed[cell]:
            problems.append(f"manifest: reason for {cell} does not name the bound {bound}")
    return expected


def _band_problem(label, crit, own, replications, level):
    """The program's empirical quantile must lie between the own
    simulation's 0.75 quantile and its maximum."""
    assert reference.upper_band_false_alarm(replications, level, own.size) < _BAND_FALSE_ALARM
    low = float(np.quantile(own, 0.75))
    high = float(np.max(own))
    if not low <= crit <= high:
        return (
            f"{label}: critical value {crit!r} outside [{low!r}, {high!r}] from "
            f"{own.size} independent null statistics"
        )
    return None


class CritTable:
    """`tsgof critical-values --workers 1`, then a rerun over its cell cache."""

    name = "crit-table"
    family = "t1"
    alpha = 0.05
    level = 1.0 - alpha

    def __init__(self, inputs: Path, seed: int, tiny: bool = False):
        self.seed = seed
        self.replications = 100
        if tiny:
            self.grid = {"q": (1.2, 1.5), "m": (2,), "k": (1,), "N": (100, 1000)}
        else:
            self.grid = {"q": (1.2, 1.5), "m": (2, 3), "k": (1, 2, 3), "N": (100, 500, 2000)}
        inputs.mkdir(parents=True, exist_ok=True)
        self.config = inputs / "critical_values.cfg"
        self.config.write_text(
            _config_text(
                "critical-values", self.family, seed, self.replications, self.grid, self.alpha
            ),
            encoding="utf-8",
        )

    def commands(self, out: Path, workers: int = 1) -> list:
        argv = ["critical-values", "--config", str(self.config), "--workers", str(workers),
                "--out", str(out)]
        feasible = [
            c for c in _cells(self.grid)
            if reference.infeasibility("critical-values", self.family, *c) is None
        ]
        reps = len(feasible) * self.replications
        return [
            Command("fresh", argv, str(self.config), reps, workers, out),
            Command("cached", argv, str(self.config), 0, workers, out),
        ]

    def check(self, outputs: dict) -> list:
        problems = []
        fresh = outputs.get("fresh")
        if fresh is None:
            return problems
        cached = outputs.get("cached")
        if cached is not None and cached.files != fresh.files:
            problems.append("rerun over the cell cache did not give byte-identical files")
        files = fresh.files
        if "critical_values.csv" not in files or "critical_values_manifest.json" not in files:
            return problems + ["critical-values output files missing"]
        name = "critical_values.csv"
        rows = _parse_table(
            files[name].decode("utf-8"), "q,m,k,N,alpha,crit,M,seed", problems, name
        )
        manifest = json.loads(files["critical_values_manifest.json"])
        cells = _cells(self.grid)
        expected = _check_rows_and_markers(
            "critical-values", self.family, rows, cells, [5], manifest, problems, name
        )
        if not rows or len(rows) != len(cells):
            return problems
        for row in rows:
            if (float(row[4]), int(row[6]), int(row[7])) != (self.alpha, self.replications, self.seed):
                problems.append(f"{name}: row {row[:4]} does not echo alpha, M and seed")
        crit = {
            cell: float(row[5]) for cell, row in zip(cells, rows) if cell not in expected
        }
        n_lo, n_hi = min(self.grid["N"]), max(self.grid["N"])
        rng = np.random.default_rng([self.seed, 1])
        for q in self.grid["q"]:
            for m in self.grid["m"]:
                ks = [k for k in self.grid["k"] if (q, m, k, n_lo) in crit]
                for k in ks:
                    lo, hi = crit.get((q, m, k, n_lo)), crit.get((q, m, k, n_hi))
                    if hi is not None and not hi < lo:
                        problems.append(
                            f"{name}: crit does not fall from N={n_lo} to N={n_hi} "
                            f"at (q={q}, m={m}, k={k}): {lo!r} -> {hi!r}"
                        )
                if not ks:
                    continue
                own = reference.simulate_statistics(
                    rng, self.family, q, m, n_lo, ks, _BAND_REPS
                )
                for k in ks:
                    problem = _band_problem(
                        f"{name} (q={q}, m={m}, k={k}, N={n_lo})",
                        crit[(q, m, k, n_lo)], own[k], self.replications, self.level,
                    )
                    if problem:
                        problems.append(problem)
        return problems


class Consistency:
    """`tsgof convergence --workers 2` on a consistency-curves config."""

    name = "consistency-2w"
    family = "t2"

    def __init__(self, inputs: Path, seed: int, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.replications = 20
            self.grid = {"q": (0.5,), "m": (1,), "k": (1,), "N": (100, 2000)}
        else:
            self.replications = 60
            self.grid = {"q": (0.5, 0.8), "m": (1, 2), "k": (1, 3), "N": (50, 8000)}
        inputs.mkdir(parents=True, exist_ok=True)
        self.config = inputs / "consistency.cfg"
        self.config.write_text(
            _config_text("consistency-curves", self.family, seed, self.replications, self.grid),
            encoding="utf-8",
        )

    def commands(self, out: Path, workers: int = 2) -> list:
        argv = ["convergence", "--config", str(self.config), "--workers", str(workers),
                "--out", str(out)]
        reps = len(_cells(self.grid)) * self.replications
        return [Command("fresh", argv, str(self.config), reps, workers, out)]

    def check(self, outputs: dict) -> list:
        problems = []
        fresh = outputs.get("fresh")
        if fresh is None:
            return problems
        files = fresh.files
        if "consistency.csv" not in files or "consistency_curves_manifest.json" not in files:
            return ["consistency output files missing"]
        name = "consistency.csv"
        rows = _parse_table(
            files[name].decode("utf-8"), "q,m,k,N,mean_h,std_h,h_true,M,seed", problems, name
        )
        manifest = json.loads(files["consistency_curves_manifest.json"])
        cells = _cells(self.grid)
        expected = _check_rows_and_markers(
            "consistency-curves", self.family, rows, cells, [4, 5, 6], manifest, problems, name
        )
        if not rows or len(rows) != len(cells):
            return problems
        stats = {}
        for cell, row in zip(cells, rows):
            if (int(row[7]), int(row[8])) != (self.replications, self.seed):
                problems.append(f"{name}: row {row[:4]} does not echo M and seed")
            if cell in expected:
                continue
            mean_h, std_h, h_true = float(row[4]), float(row[5]), float(row[6])
            q, m = cell[0], cell[1]
            if not _close(h_true, reference.tsallis_entropy(q, m)):
                problems.append(
                    f"{name}: h_true {h_true!r} at (q={q}, m={m}) differs from the radial "
                    f"quadrature {reference.tsallis_entropy(q, m)!r}"
                )
            if not std_h > 0:
                problems.append(f"{name}: std_h at {cell} is not positive")
            stats[cell] = (mean_h, std_h, h_true)
        n_lo, n_hi = min(self.grid["N"]), max(self.grid["N"])
        se_scale = 1.0 / math.sqrt(self.replications)
        rng = np.random.default_rng([self.seed, 2])
        for q in self.grid["q"]:
            for m in self.grid["m"]:
                ks = [k for k in self.grid["k"] if (q, m, k, n_lo) in stats]
                for k in ks:
                    lo, hi = stats[(q, m, k, n_lo)], stats.get((q, m, k, n_hi))
                    if hi is None:
                        continue
                    err_lo, err_hi = abs(lo[0] - lo[2]), abs(hi[0] - hi[2])
                    if not (err_hi < err_lo or err_hi <= 3.0 * hi[1] * se_scale):
                        problems.append(
                            f"{name}: |mean_h - h_true| at (q={q}, m={m}, k={k}) is "
                            f"{err_hi!r} at N={n_hi}, not below {err_lo!r} at N={n_lo} "
                            f"nor within 3 standard errors of zero"
                        )
                if not ks:
                    continue
                own = reference.simulate_estimates(rng, self.family, q, m, n_lo, ks, _MEAN_REPS)
                for k in ks:
                    mean_h, std_h, _ = stats[(q, m, k, n_lo)]
                    se = math.sqrt(
                        std_h**2 / self.replications + np.var(own[k], ddof=1) / own[k].size
                    )
                    if abs(mean_h - np.mean(own[k])) > _MEAN_SIGMAS * se:
                        problems.append(
                            f"{name}: mean_h {mean_h!r} at (q={q}, m={m}, k={k}, N={n_lo}) is "
                            f"more than {_MEAN_SIGMAS:g} standard errors from "
                            f"{float(np.mean(own[k]))!r}, the mean of {own[k].size} independent "
                            f"estimates"
                        )
        return problems


@dataclass(frozen=True)
class _Input:
    label: str
    family: str
    q: float
    m: int
    n: int
    k: int
    gof: bool  # whether the round also runs `tsgof gof --simulate` on it


class SingleTest:
    """Fresh-process `tsgof entropy` and `tsgof gof --simulate M --seed S`
    on CSV samples the benchmark draws itself."""

    name = "single-test"
    alpha = 0.05
    level = 1.0 - alpha

    def __init__(self, inputs: Path, seed: int, tiny: bool = False):
        self.seed = seed
        self.simulate = 500
        if tiny:
            self.inputs = (_Input("A", "t1", 1.2, 2, 300, 1, True),)
        else:
            self.inputs = (
                _Input("A", "t1", 1.2, 2, 400, 1, True),
                _Input("B", "t2", 0.5, 2, 800, 2, True),
                _Input("C", "t1", 1.2, 3, 3000, 3, False),
            )
        inputs.mkdir(parents=True, exist_ok=True)
        self.samples = {}
        self.paths = {}
        for index, spec in enumerate(self.inputs):
            rng = np.random.default_rng([seed, 3, index])
            x = reference.null_draws(rng, spec.family, spec.q, spec.m, spec.n)
            path = inputs / f"sample_{spec.label}.csv"
            header = ",".join(f"x{j + 1}" for j in range(spec.m))
            body = "\n".join(",".join(repr(float(v)) for v in row) for row in x)
            path.write_text(header + "\n" + body + "\n", encoding="utf-8")
            self.samples[spec.label] = x
            self.paths[spec.label] = path

    def _gof_seed(self, index: int) -> int:
        return self.seed * 10 + index

    def commands(self, out: Path = None, workers: int = 1) -> list:
        cmds = []
        for index, spec in enumerate(self.inputs):
            path = str(self.paths[spec.label])
            cmds.append(Command(
                f"entropy:{spec.label}",
                ["entropy", "--in", path, "--k", str(spec.k), "--q", str(spec.q)],
                replicates=1,
            ))
            if not spec.gof:
                continue
            cmds.append(Command(
                f"gof:{spec.label}",
                ["gof", "--in", path, "--family", spec.family, "--q", str(spec.q),
                 "--k", str(spec.k), "--alpha", str(self.alpha),
                 "--simulate", str(self.simulate), "--seed", str(self._gof_seed(index))],
                replicates=self.simulate + 1,
            ))
        return cmds

    def check(self, outputs: dict) -> list:
        problems = []
        for index, spec in enumerate(self.inputs):
            x = self.samples[spec.label]
            echo = {"N": spec.n, "m": spec.m, "q": spec.q, "k": spec.k}
            entropy = outputs.get(f"entropy:{spec.label}")
            if entropy is not None:
                got = json.loads(entropy.stdout)
                i_hat, h_hat = reference.lps_estimates(x, [spec.k], spec.q)[spec.k]
                label = f"entropy {spec.label}"
                if {key: got.get(key) for key in echo} != echo:
                    problems.append(f"{label}: does not echo N, m, q, k")
                if not (_close(got["i_hat"], i_hat) and _close(got["h_hat"], h_hat)):
                    problems.append(
                        f"{label}: (i_hat, h_hat) = ({got['i_hat']!r}, {got['h_hat']!r}), "
                        f"cKDTree and the LPS formula give ({i_hat!r}, {h_hat!r})"
                    )
            gof = outputs.get(f"gof:{spec.label}")
            if gof is None:
                continue
            got = json.loads(gof.stdout)
            label = f"gof {spec.label}"
            statistic = reference.gof_statistics(x, [spec.k], spec.q)[spec.k]
            if {key: got.get(key) for key in echo} != echo or got.get("family") != spec.family:
                problems.append(f"{label}: does not echo family, N, m, q, k")
            if not _close(got["statistic"], statistic):
                problems.append(
                    f"{label}: statistic {got['statistic']!r}, own null entropy and LPS "
                    f"estimate give {statistic!r}"
                )
            crit = got["critical_value"]
            if got["reject"] is not (got["statistic"] > crit):
                problems.append(f"{label}: reject is not (statistic > critical_value)")
            rng = np.random.default_rng([self.seed, 4, index])
            own = reference.simulate_statistics(
                rng, spec.family, spec.q, spec.m, spec.n, [spec.k], _BAND_REPS
            )[spec.k]
            problem = _band_problem(label, crit, own, self.simulate, self.level)
            if problem:
                problems.append(problem)
        return problems


WORKLOADS = {w.name: w for w in (CritTable, Consistency, SingleTest)}
