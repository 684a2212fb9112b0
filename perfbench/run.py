"""Benchmark of the tsgof replicate pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload crit-table --seed 1 --seconds 36 --trace 0

Workloads: crit-table, consistency-2w, single-test (see workloads.py and
README.md). The run is a closed loop in one process: it repeats whole
rounds of the workload's tsgof commands, each in a fresh interpreter,
while another round fits in --seconds, then checks the first round's
outputs and that every later round gave the same bytes.

--trace 0 prints the end-to-end metrics (medians over rounds). --trace 1
runs the same commands in this process at one worker, alternating
untraced and traced rounds, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

from workloads import WORKLOADS, Output, read_files  # noqa: E402

_IMPORT_PROBES = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TSGOF_WORKERS", None)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Deadline:
    """Admits whole rounds while the next one is expected to end within
    the run's seconds; the first round is always admitted."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.last_start = None
        self.longest = 0.0

    def next_round(self) -> bool:
        now = time.perf_counter()
        if self.last_start is not None:
            self.longest = max(self.longest, now - self.last_start)
            if now - self.start + self.longest > self.seconds:
                return False
        self.last_start = now
        return True


def run_subprocess(cmd, env, root: Path, timing: Path) -> dict:
    """One command in a fresh interpreter: wall, set-up, CPU and memory."""
    timing.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "launch.py"), str(timing), cmd.config or "-", *cmd.argv]
    cpu0 = _cpu_children()
    spawned = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True)
    exited = time.perf_counter()
    record = {
        "slot": cmd.slot,
        "rc": proc.returncode,
        "wall": exited - spawned,
        "cpu": _cpu_children() - cpu0,
        "workers": cmd.workers,
        "replicates": cmd.replicates,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
    }
    if proc.returncode == 0 and timing.is_file():
        marks = json.loads(timing.read_text(encoding="utf-8"))
        record["setup"] = marks["imported"] - spawned + marks["config_s"]
        # the command's own work, from the end of set-up to its return;
        # interpreter teardown and reaping are left out
        record["compute"] = marks["finished"] - marks["imported"] - marks["config_s"]
        record["rss_mb"] = marks["rss_kb"] / 1024.0
    elif proc.returncode == 0:
        record["rc"] = -1  # the launcher ended without recording its timings
    return record


def run_inprocess(cmd, cli) -> dict:
    """One command through tsgof.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    return {"slot": cmd.slot, "rc": code, "wall": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "replicates": cmd.replicates}


def run_round(workload, out: Path, execute, workers=None) -> tuple:
    """Run one round; return (commands, records, {slot: Output})."""
    cmds = workload.commands(out) if workers is None else workload.commands(out, workers)
    records, outputs = [], {}
    for cmd in cmds:
        record = execute(cmd)
        records.append(record)
        if record["rc"] == 0:
            files = read_files(cmd.out) if cmd.out is not None else {}
            outputs[cmd.slot] = Output(record["stdout"], files)
    return cmds, records, outputs


def compare_rounds(first: dict, other: dict, label: str) -> list:
    return [
        f"{label}: {slot} output differs from the first round"
        for slot in first
        if slot in other and first[slot].content() != other[slot].content()
    ]


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list) -> dict:
    """Per command (slot), the median over rounds of its wall, CPU and
    compute time; a round's figure is the sum of these medians, so that a
    burst in one command of one round does not move it. Set-up is the
    median over every command, peak memory the largest over every command.
    The rate divides a round's replicates by its compute time."""
    per_slot = {}
    setups, rss, replicates = [], [], {}
    for records in rounds:
        for r in records:
            if r["rc"] != 0:
                continue
            slot = per_slot.setdefault(r["slot"], {"wall": [], "cpu": [], "compute": []})
            for key in slot:
                slot[key].append(r[key])
            replicates[r["slot"]] = r["replicates"]
            setups.append(r["setup"])
            rss.append(r["rss_mb"])

    def summed(key):
        return sum(_median(slot[key]) for slot in per_slot.values())

    compute_s = summed("compute")
    rate = sum(replicates.values()) / compute_s if compute_s > 0 else 0.0
    return {
        "run_s": {"value": summed("wall"), "unit": "s"},
        "setup_s": {"value": _median(setups), "unit": "s"},
        "cpu_s": {"value": summed("cpu"), "unit": "s"},
        "replicates_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": max(rss) if rss else 0.0, "unit": "MB"},
    }


def import_probe(env, root: Path) -> float:
    code = "import time; t = time.perf_counter(); import tsgof.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip())


def per_layer(summaries: list, replicates: int, traced_walls, plain_walls, import_s,
              pool_efficiency) -> dict:
    """Per-layer metrics from the traced rounds' span summaries; `replicates`
    is the number of replicates the traced rounds computed."""
    total = {}
    for summary in summaries:
        for name, (calls, duration, own) in summary.items():
            entry = total.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += duration
            entry[2] += own

    def own(*names):
        return sum(total.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(name):
        return total.get(name, (0, 0.0, 0.0))[0]

    per_rep = 1e6 / replicates if replicates else 0.0
    stream = [n for n in total if n.startswith("mathcore.RngStream.")]
    csv_calls = calls("cli.read_matrix_csv")
    overhead = _median([w - s["compute"][1] for w, s in zip(traced_walls, summaries)])
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.read_csv_ms": (own("cli.read_matrix_csv") * 1e3 / csv_calls if csv_calls else 0.0, "ms"),
        "harness.overhead_s": (overhead, "s"),
        "harness.pool_efficiency": (pool_efficiency, "ratio"),
        "mathcore.stream_us": (own(*stream) * per_rep, "us"),
        "distributions.sample_us": (own("distributions.qgauss_sample") * per_rep, "us"),
        "distributions.null_entropy_us": (
            own("distributions.qgauss_tsallis_entropy",
                "distributions.qgauss_shape_from_covariance") * per_rep, "us"),
        "linalg.mean_cov_us": (own("linalg.sample_mean_cov") * per_rep, "us"),
        "knn.query_us": (own("layer:knn") * per_rep, "us"),
        "knn.queries_per_rep": (calls("knn.knn_distances") / replicates if replicates else 0.0,
                                "count"),
        "entropy.sum_us": (own("layer:entropy") * per_rep, "us"),
        "gof.self_us": (own("layer:gof") * per_rep, "us"),
        "statkit.self_us": (own("layer:statkit") * per_rep, "us"),
        "trace.overhead_pct": (
            (_median(traced_walls) / _median(plain_walls) - 1.0) * 100.0, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure(workload, work: Path, env, root: Path, seconds: float):
    timing = work / "timing.json"
    rounds, problems, attempted, failed = [], [], 0, 0
    first = None
    deadline = Deadline(seconds)
    while deadline.next_round():
        out = work / f"round-{len(rounds)}"
        _, records, outputs = run_round(
            workload, out, lambda c: run_subprocess(c, env, root, timing)
        )
        rounds.append(records)
        attempted += len(records)
        failed += sum(r["rc"] != 0 for r in records)
        if first is None:
            first = outputs
        else:
            problems += compare_rounds(first, outputs, f"round {len(rounds)}")
        shutil.rmtree(out, ignore_errors=True)
    problems += workload.check(first)
    timings = [[{k: r[k] for k in r if k not in ("stdout", "stderr")} for r in rs] for rs in rounds]
    (work / "rounds.json").write_text(json.dumps(timings, indent=1), encoding="utf-8")
    return end_to_end(rounds), problems, attempted, failed


def measure_traced(workload, work: Path, env, root: Path, seconds: float):
    sys.path.insert(0, str(root / "src"))
    import tsgof.cli as cli
    from spans import Tracer

    deadline = Deadline(seconds)
    import_s = _median([import_probe(env, root) for _ in range(_IMPORT_PROBES)])
    timing = work / "timing.json"
    # the commands as a user runs them, for pool efficiency and as the
    # byte reference for the in-process rounds at one worker
    cmds, records, reference = run_round(
        workload, work / "reference", lambda c: run_subprocess(c, env, root, timing)
    )
    attempted = len(records)
    failed = sum(r["rc"] != 0 for r in records)
    worker_wall = sum(r["wall"] * r["workers"] for r in records)
    pool_efficiency = sum(r["cpu"] for r in records) / worker_wall if worker_wall else 0.0
    problems = workload.check(reference)

    tracer = Tracer()
    summaries, traced_walls, plain_walls = [], [], []
    index = 0
    while deadline.next_round():
        for traced in (False, True):
            out = work / f"inprocess-{index}-{int(traced)}"
            with tracer if traced else contextlib.nullcontext():
                cmds, records, outputs = run_round(
                    workload, out, lambda c: run_inprocess(c, cli), workers=1
                )
            wall = sum(r["wall"] for r in records)
            if traced:
                summaries.append(tracer.summary())
                traced_walls.append(wall)
            else:
                plain_walls.append(wall)
            attempted += len(records)
            failed += sum(r["rc"] != 0 for r in records)
            label = f"in-process round {index} ({'traced' if traced else 'untraced'}, 1 worker)"
            problems += compare_rounds(reference, outputs, label)
            shutil.rmtree(out, ignore_errors=True)
        index += 1
    tracer.write(work / "spans.csv")
    replicates = sum(cmd.replicates for cmd in cmds) * len(summaries)
    metrics = per_layer(summaries, replicates, traced_walls, plain_walls, import_s,
                        pool_efficiency)
    return metrics, problems, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "tsgof" / "cli.py").is_file():
        return _fail(f"no tsgof sources under {root / 'src'}; run from the root of a checkout")
    work = root / ".perfbench_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env(root, work)
    workload = WORKLOADS[args.workload](work / "inputs", args.seed)

    measure_fn = measure_traced if args.trace else measure
    metrics, problems, attempted, failed = measure_fn(workload, work, env, root, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
