"""Result bytes pinned in the repository.

Five tiny runs, one per experiment kind, and the single-shot commands
`tsgof sample`, `entropy` and `gof --simulate` on fixed inputs, go through
`tsgof.cli.main` in this process. The SHA-256 of every result CSV, every
manifest and every single-shot stdout must equal its pin in
`tests/data/pins.json`. So a change that moves a result byte fails here,
even where it moves every worker count alike.

The bits depend on the host's arithmetic: numpy's SIMD exp and log and the
BLAS kernel behind the stacked Cholesky. `pins.json` records a digest of
that arithmetic on the host that wrote it; where this host's digest
differs, the pins cannot apply and the tests skip, naming both digests.

After a change that moves result bytes on purpose, rewrite the pins with

    PYTHONPATH=src python tests/test_pins.py

and say in the change log which pins moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tsgof.cli import main
from tsgof.distributions import QGaussianParams, qgauss_sample
from tsgof.entropy import lps_block
from tsgof.linalg import log_det, sample_moments
from tsgof.mathcore import RngStream

PINS = Path(__file__).parent / "data" / "pins.json"

# one tiny run per experiment kind: {name: (subcommand, config text)}
RUNS = {
    "critical-values": ("critical-values", """
kind = critical-values
family = t1
master_seed = 1201
alpha = 0.05
M = 100
[grid]
q = 1.2
m = 1 2 3
k = 1 2
N = 50 200
"""),
    "consistency-curves": ("convergence", """
kind = consistency-curves
family = t2
master_seed = 1202
M = 20
[grid]
q = 0.5
m = 1 3
k = 1 3
N = 100 400
"""),
    "convergence": ("convergence", """
kind = convergence
family = t1
master_seed = 1203
M = 20
[grid]
q = 1.2
m = 1 4
k = 1
N = 50 100 200
"""),
    "normality-sweep": ("normality-sweep", """
kind = normality-sweep
family = t1
master_seed = 1204
M = 5
n = 20
[grid]
q = 1.2
m = 2
k = 1 2
N = 100
"""),
    "distribution-shape": ("shape", """
kind = distribution-shape
family = t1
master_seed = 1205
M = 20
draws = 5000
[grid]
q = 1.2
m = 2
k = 1
N = 100
"""),
}

# single-shot commands, in order; "{dir}" is the run's directory, where the
# sample commands' output serves the later commands as their input
SINGLE_SHOTS = {
    "sample-t1": ["sample", "--family", "qgauss", "--m", "2", "--q", "1.2", "--n", "100",
                  "--seed", "5"],
    "sample-t2": ["sample", "--family", "qgauss", "--m", "3", "--q", "0.5", "--n", "60",
                  "--seed", "6"],
    "sample-gg": ["sample", "--family", "gg", "--m", "2", "--s", "1", "--n", "50", "--seed", "7"],
    "entropy-t1": ["entropy", "--in", "{dir}/sample-t1.csv", "--k", "2", "--q", "1.2"],
    "entropy-gg": ["entropy", "--in", "{dir}/sample-gg.csv", "--k", "1", "--q", "0.5"],
    "gof-t1": ["gof", "--in", "{dir}/sample-t1.csv", "--family", "t1", "--q", "1.2", "--k", "1",
               "--simulate", "200", "--seed", "9"],
    "gof-t2": ["gof", "--in", "{dir}/sample-t2.csv", "--family", "t2", "--q", "0.5", "--k", "3",
               "--simulate", "100", "--seed", "10", "--alpha", "0.1"],
    "gof-gg": ["gof", "--in", "{dir}/sample-gg.csv", "--family", "t1", "--q", "1.2", "--k", "2",
               "--simulate", "100", "--seed", "11"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one tsgof command, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def arithmetic_digest() -> str:
    """SHA-256 over the host arithmetic the pinned bytes depend on: np.exp and
    np.log on fixed values, the stacked Cholesky log-det of 4 x 4 matrices,
    and the sampler, sample_moments and lps_block on fixed RngStream draws at
    (q, m) = (0.5, 1), (1.2, 3) and (1.2, 4)."""
    digest = hashlib.sha256()
    x = np.linspace(-700.0, 700.0, 4096)
    digest.update(np.exp(x).tobytes())
    digest.update(np.log(np.exp(x)).tobytes())
    u = RngStream(90, 0).generator.random((512, 4, 4))
    digest.update(log_det(u + u.transpose(0, 2, 1) + 4.0 * np.eye(4)).tobytes())
    for q, m in ((0.5, 1), (1.2, 3), (1.2, 4)):
        params = QGaussianParams(m=m, q=q)
        samples = np.stack([qgauss_sample(params, 64, RngStream(91, j)) for j in range(32)])
        mean, cov = sample_moments(samples)
        digest.update(samples.tobytes() + mean.tobytes() + cov.tobytes())
        digest.update(lps_block(samples, (1, 2, 3), q).tobytes())
    return digest.hexdigest()


def run_pins(name: str, directory: Path) -> dict:
    """{file or command: SHA-256} of one pinned run in a fresh directory."""
    if name == "single-shots":
        pins = {}
        for shot, argv in SINGLE_SHOTS.items():
            code, stdout = _cli([arg.format(dir=directory) for arg in argv])
            assert code == 0, f"{shot} exited {code}"
            if shot.startswith("sample-"):
                (directory / f"{shot}.csv").write_bytes(stdout)
            pins[shot] = _sha256(stdout)
        return pins
    command, text = RUNS[name]
    config = directory / "run.cfg"
    config.write_text(text.lstrip())
    code, _ = _cli([command, "--config", str(config), "--out", str(directory / "out")])
    assert code == 0, f"{name} exited {code}"
    return {
        path.name: _sha256(path.read_bytes())
        for path in sorted((directory / "out").iterdir())
        if path.is_file()
    }


NAMES = [*RUNS, "single-shots"]


@pytest.fixture(scope="module")
def pinned():
    pins = json.loads(PINS.read_text())
    here = arithmetic_digest()
    if here != pins["arithmetic_digest"]:
        pytest.skip(
            f"this host's arithmetic digest {here} differs from the pins' "
            f"{pins['arithmetic_digest']}, so the pinned bytes cannot apply here"
        )
    return pins["runs"]


@pytest.mark.parametrize("name", NAMES)
def test_result_bytes_match_the_pins(name, pinned, tmp_path):
    got = run_pins(name, tmp_path)
    moved = sorted(key for key in got.keys() | pinned[name].keys()
                   if got.get(key) != pinned[name].get(key))
    assert not moved, f"{name}: bytes moved in {moved}"


def test_the_digest_repeats_in_one_process():
    assert arithmetic_digest() == arithmetic_digest()


if __name__ == "__main__":
    import tempfile

    runs = {}
    for name in NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = run_pins(name, Path(tmp))
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(
        {"arithmetic_digest": arithmetic_digest(), "runs": runs}, indent=2, sort_keys=True
    ) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
