"""Command-line front end.

Subcommands: sample, entropy, gof, critical-values, normality-sweep,
convergence, shape. Single-shot results are printed as JSON on stdout;
experiment subcommands write CSV tables. Exit codes: 0 success, 1 domain
or feasibility error, 2 I/O or configuration error; any other exception is
an internal error and exits 1. Error messages are single JSON objects on
stderr. Output files are written atomically (temp-and-rename), so a
non-zero exit never leaves a partial primary output behind. Experiment
subcommands take their output directory from --out and their worker count
from --workers (default 1); a whole config is checked before any task
runs, and each task writes its own cell file under <out>/.cells as it
finishes, so an interrupted run resumes.
"""

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .distributions import GGParams, QGaussianParams, gg_sample, qgauss_sample
from .entropy import tsallis_knn_estimate
from .gof import run_test
from .harness import CriticalValueTable, _write_atomic, load_config, run_experiment
from .linalg import SymPDMatrix
from .mathcore import RngStream

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_CONFIG = 2


def _fail(kind: str, message: str, **extra) -> None:
    print(json.dumps({"error": message, "kind": kind, **extra}), file=sys.stderr)


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV matrix; the first line may be a header, which is
    auto-detected by non-numeric tokens. All rows must have equal arity."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    rows = []
    arity = None
    start = 0
    if lines:
        first = [tok.strip() for tok in lines[0].split(",")]
        try:
            [float(tok) for tok in first]
        except ValueError:
            start = 1  # header line
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


def _matrix_to_csv(a: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"


def _load_sigma(spec: str, m: int) -> SymPDMatrix:
    if spec == "identity":
        return SymPDMatrix.identity(m)
    a = read_matrix_csv(spec)
    if a.shape != (m, m):
        raise DomainError(f"--sigma file must be {m}x{m}, got {a.shape[0]}x{a.shape[1]}")
    return SymPDMatrix(a)


def _parse_mu(spec: str | None, m: int) -> np.ndarray:
    if spec is None:
        return np.zeros(m)
    parts = [tok for tok in spec.replace(",", " ").split() if tok]
    try:
        values = [float(tok) for tok in parts]
    except ValueError as exc:
        raise DomainError(f"bad --mu value: {exc}") from exc
    if len(values) == 1:
        return np.full(m, values[0])
    if len(values) != m:
        raise DomainError(f"--mu needs 1 or {m} values, got {len(values)}")
    return np.asarray(values)


def _cmd_sample(args) -> int:
    if args.family == "gg":
        if args.s is None:
            raise DomainError("--family gg requires --s")
        if args.q is not None:
            raise DomainError("--family gg takes --s, not --q")
        params = GGParams(
            m=args.m, s=args.s, alpha=_parse_mu(args.mu, args.m), sigma=_load_sigma(args.sigma, args.m)
        )
        draws = gg_sample(params, args.n, RngStream(args.seed))
    else:
        if args.q is None:
            raise DomainError("--family qgauss requires --q")
        if args.s is not None:
            raise DomainError("--family qgauss takes --q, not --s")
        params = QGaussianParams(
            m=args.m, q=args.q, mu=_parse_mu(args.mu, args.m), sigma=_load_sigma(args.sigma, args.m)
        )
        draws = qgauss_sample(params, args.n, RngStream(args.seed))
    text = _matrix_to_csv(draws)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(Path(args.out), text)
    return _EXIT_OK


def _cmd_entropy(args) -> int:
    x = read_matrix_csv(getattr(args, "in"))
    est = tsallis_knn_estimate(x, k=args.k, q=args.q)
    print(
        json.dumps(
            {"i_hat": est.i_hat, "h_hat": est.h_hat, "N": est.n, "m": est.m, "q": est.q, "k": est.k}
        )
    )
    return _EXIT_OK


def _cmd_gof(args) -> int:
    x = read_matrix_csv(getattr(args, "in"))
    table = None
    if args.table is not None:
        table = CriticalValueTable.from_csv(args.table)
    elif args.simulate is None:
        raise ConfigError("provide --table or --simulate for the critical value")
    rng = None
    if args.simulate is not None:
        if args.seed is None:
            raise ConfigError("--simulate requires --seed")
        rng = RngStream(args.seed)
    result = run_test(
        x,
        k=args.k,
        q=args.q,
        family=args.family,
        alpha=args.alpha,
        critical_table=table,
        simulate=args.simulate,
        rng=rng,
    )
    print(
        json.dumps(
            {
                "statistic": result.statistic,
                "family": result.family,
                "q": result.q,
                "k": result.k,
                "N": result.n,
                "m": result.m,
                "alpha": result.alpha,
                "critical_value": result.critical_value,
                "reject": result.reject,
            }
        )
    )
    return _EXIT_OK


_KIND_BY_COMMAND = {
    "critical-values": ("critical-values",),
    "normality-sweep": ("normality-sweep",),
    "convergence": ("convergence", "consistency-curves"),
    "shape": ("distribution-shape",),
}


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    allowed = _KIND_BY_COMMAND[args.command]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsgof",
        description="Tsallis-entropy goodness-of-fit toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw from a model family, write CSV")
    p.add_argument("--family", choices=("gg", "qgauss"), required=True)
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
    p.add_argument("--family", choices=("t1", "t2"), required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--table", default=None, help="critical-value table CSV")
    p.add_argument("--simulate", type=int, default=None, help="on-the-fly null replications")
    p.add_argument("--seed", type=int, default=None, help="seed for --simulate")
    p.set_defaults(func=_cmd_gof)

    for name, help_text in (
        ("critical-values", "simulate critical-value tables"),
        ("normality-sweep", "average Shapiro-Wilk p-values over the grid"),
        ("convergence", "statistic convergence curves and rate regression"),
        ("shape", "statistic samples, densities and Q-Q data"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except Exception as exc:  # a bug: still one JSON line, with the traceback inside it
        _fail("internal", f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
