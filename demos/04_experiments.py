"""The Monte Carlo experiment harness: declarative configs, deterministic
parallelism, persisted CSV tables.

Runs a small critical-value experiment twice with different worker counts
and shows the outputs are byte-identical, then reuses the table in a
test. Configuration files use the same flat key/value format parsed here
from a string; see demos/configs/ for file versions of all five kinds.
"""

import tempfile
from pathlib import Path

from tsgof import (
    QGaussianParams,
    RngStream,
    parse_config,
    qgauss_sample,
    read_critical_value,
    run_experiment,
    run_test,
)

CONFIG = """
kind = critical-values
family = t1
master_seed = 314159
alpha = 0.05
M = 200
[grid]
q = 1.2
m = 2
k = 1 2
N = 200 500
"""

config = parse_config(CONFIG)
print(f"cells (row-major): {config.cells()}")

with tempfile.TemporaryDirectory() as tmp:
    out_a, out_b = Path(tmp) / "a", Path(tmp) / "b"
    run_experiment(config, out_dir=out_a, workers=1)
    run_experiment(config, out_dir=out_b, workers=4)
    bytes_a = (out_a / "critical_values.csv").read_bytes()
    bytes_b = (out_b / "critical_values.csv").read_bytes()
    print(f"1 worker vs 4 workers byte-identical: {bytes_a == bytes_b}")
    print()
    print((out_a / "critical_values.csv").read_text())

    crit = read_critical_value(out_a / "critical_values.csv", q=1.2, m=2, k=1, n=500, alpha=0.05)
    data = qgauss_sample(QGaussianParams(m=2, q=1.2), 500, RngStream(99, 0))
    result = run_test(data, k=1, q=1.2, family="t1", alpha=0.05, critical_value=crit)
    print(f"test against the table: Q = {result.statistic:+.4f}, "
          f"crit = {result.critical_value:.4f}, reject = {result.reject}")
