"""Command-line front end.

Subcommands: sample, entropy, gof, critical-values, normality-sweep,
convergence, shape. Single-shot results are printed as JSON on stdout;
experiment subcommands write CSV tables. Exit codes: 0 success, 1 domain
or feasibility error, 2 I/O, configuration or usage error, 1 on SIGINT (kind
`interrupted`); any other exception is an internal error and exits 1.
Error messages are single JSON objects on stderr; an input file that
cannot be read or decoded as UTF-8 is a configuration error. Output files are
written atomically (temp-and-rename), so a non-zero exit never leaves a
partial primary output behind. Experiment subcommands take their output
directory from --out and their worker count from --workers (default 1; a
count below 1 is a configuration error); a whole config is checked before
any task runs, and each task writes its own cell file under <out>/.cells
as it finishes, so an interrupted run resumes.

Importing this module in a process that has not loaded numpy yet sets
OPENBLAS_NUM_THREADS=1 unless it is already set, so the OpenBLAS builds
bundled with numpy and scipy run single-threaded (pool workers inherit
it); a process that already loaded numpy keeps its environment.
"""

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

# BLAS calls here are on matrices with a side of m (at most 10 in the paper's
# settings): threads gain nothing, and an OpenBLAS pool spins in every process
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import ConfigError, DomainError
from .distributions import GGParams, QGaussianParams, gg_sample, qgauss_sample
from .entropy import tsallis_knn_estimate
from .gof import FAMILIES, run_test
from .harness import (
    _csv_text, _read_text, _write_atomic, load_config, read_critical_value, run_experiment,
)
from .linalg import SymPDMatrix
from .mathcore import RngStream

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_CONFIG = 2


def _fail(kind: str, message: str, **extra) -> None:
    print(json.dumps({"error": message, "kind": kind, **extra}), file=sys.stderr)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV matrix; the first line is a header when none of its
    tokens is a number, and a bad row when only some are. All rows must have
    equal arity."""
    path = Path(path)
    lines = _read_text(path, "").splitlines()
    rows = []
    arity = None
    start = int(bool(lines) and not any(map(_is_float, lines[0].split(","))))
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        tokens = [tok.strip() for tok in line.split(",")]
        if arity is None:
            arity = len(tokens)
        elif len(tokens) != arity:
            raise ConfigError(
                f"{path}:{lineno}: expected {arity} columns, got {len(tokens)}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return np.asarray(rows)


def _load_sigma(spec: str, m: int) -> SymPDMatrix | None:
    if spec == "identity":
        return None
    a = read_matrix_csv(spec)
    if a.shape != (m, m):
        raise DomainError(f"--sigma file must be {m}x{m}, got {a.shape[0]}x{a.shape[1]}")
    return SymPDMatrix(a)


def _parse_mu(spec: str | None, m: int) -> list | None:
    if spec is None:
        return None
    parts = [tok for tok in spec.replace(",", " ").split() if tok]
    try:
        values = [float(tok) for tok in parts]
    except ValueError as exc:
        raise DomainError(f"bad --mu value: {exc}") from exc
    if len(values) not in (1, m):
        raise DomainError(f"--mu needs 1 or {m} values, got {len(values)}")
    return values * m if len(values) == 1 else values


# sampled family -> (its shape flag, parameter class, sampler)
_SAMPLERS = {"gg": ("s", GGParams, gg_sample), "qgauss": ("q", QGaussianParams, qgauss_sample)}


def _cmd_sample(args) -> int:
    flag, params_class, sampler = _SAMPLERS[args.family]
    if getattr(args, flag) is None:
        raise DomainError(f"--family {args.family} requires --{flag}")
    for other, _, _ in _SAMPLERS.values():
        if other != flag and getattr(args, other) is not None:
            raise DomainError(f"--family {args.family} takes --{flag}, not --{other}")
    location = _parse_mu(args.mu, args.m)
    params = params_class(args.m, getattr(args, flag), location, _load_sigma(args.sigma, args.m))
    draws = sampler(params, args.n, RngStream(args.seed))
    text = _csv_text(draws)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(Path(args.out), text)
    return _EXIT_OK


def _print_record(record) -> None:
    """Print a result record's fields in order as one JSON object, with n as
    N. A float field that is not finite (an estimate or statistic past
    float64) raises DomainError: JSON has no value for it."""
    fields = {"N" if name == "n" else name: v for name, v in asdict(record).items()}
    for name, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{name} = {value} is not finite: it overflows float64")
    print(json.dumps(fields))


def _cmd_entropy(args) -> int:
    x = read_matrix_csv(getattr(args, "in"))
    _print_record(tsallis_knn_estimate(x, k=args.k, q=args.q))
    return _EXIT_OK


def _cmd_gof(args) -> int:
    x = read_matrix_csv(getattr(args, "in"))
    crit = None
    if args.table is not None:
        n, m = x.shape
        crit = read_critical_value(args.table, args.q, m, args.k, n, args.alpha)
    elif args.simulate is None:
        raise ConfigError("provide --table or --simulate for the critical value")
    rng = None
    if args.simulate is not None:
        if args.seed is None:
            raise ConfigError("--simulate requires --seed")
        rng = RngStream(args.seed)
    _print_record(run_test(
        x,
        k=args.k,
        q=args.q,
        family=args.family,
        alpha=args.alpha,
        critical_value=crit,
        simulate=args.simulate,
        rng=rng,
    ))
    return _EXIT_OK


# experiment subcommand -> (help text, the config kinds it runs)
_EXPERIMENTS = {
    "critical-values": ("simulate critical-value tables", ("critical-values",)),
    "normality-sweep": ("average Shapiro-Wilk p-values over the grid", ("normality-sweep",)),
    "convergence": ("statistic convergence curves and rate regression",
                    ("convergence", "consistency-curves")),
    "shape": ("statistic samples, densities and Q-Q data", ("distribution-shape",)),
}


def _cmd_experiment(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    config = load_config(args.config)
    allowed = _EXPERIMENTS[args.command][1]
    if config.kind not in allowed:
        raise ConfigError(
            f"config kind {config.kind!r} does not match subcommand {args.command!r} "
            f"(expected one of {allowed})"
        )
    if args.out is None:
        raise ConfigError("no output directory: pass --out")
    paths = run_experiment(config, out_dir=args.out, workers=args.workers)
    print(json.dumps({"written": sorted(str(p) for p in paths.values())}))
    return _EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # for subparsers too: a usage error is a ConfigError
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tsgof",
        description="Tsallis-entropy goodness-of-fit toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw from a model family, write CSV")
    p.add_argument("--family", choices=tuple(_SAMPLERS), required=True)
    p.add_argument("--m", type=int, required=True, help="dimension")
    p.add_argument("--q", type=float, default=None, help="entropic index (qgauss)")
    p.add_argument("--s", type=float, default=None, help="shape exponent (gg)")
    p.add_argument("--sigma", default="identity", help="'identity' or path to an m x m CSV")
    p.add_argument("--mu", default=None, help="location: one value or m comma-separated values")
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("entropy", help="nearest-neighbor entropy estimate from a CSV sample")
    p.add_argument("--in", required=True, help="input CSV (rows = observations)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("gof", help="goodness-of-fit test against a q-Gaussian null")
    p.add_argument("--in", required=True, help="input CSV (rows = observations)")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--table", default=None, help="critical-value table CSV")
    p.add_argument("--simulate", type=int, default=None, help="on-the-fly null replications")
    p.add_argument("--seed", type=int, default=None, help="seed for --simulate")
    p.set_defaults(func=_cmd_gof)

    for name, (help_text, _) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DomainError as exc:  # includes feasibility errors
        _fail("domain", str(exc))
        return _EXIT_DOMAIN
    except ConfigError as exc:
        _fail("config", str(exc))
        return _EXIT_CONFIG
    except OSError as exc:
        _fail("io", str(exc))
        return _EXIT_CONFIG
    except KeyboardInterrupt:
        _fail("interrupted", "interrupted; an experiment rerun resumes from the finished cells")
        return _EXIT_DOMAIN
    except Exception as exc:  # a bug: still one JSON line, with the traceback inside it
        _fail("internal", f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
