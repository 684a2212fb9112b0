"""The exit-code contract, fuzzed: `cli.main` over generated commands.

Every command exits 0, 1 or 2. On 0 stderr is empty and every stdout line
is strict JSON, with no NaN or Infinity; otherwise stderr is exactly one
JSON line whose kind is not `internal`, stdout is empty and no primary
output exists. No warning is raised on the way.
"""

import contextlib
import io
import itertools
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tsgof.cli import main
from tsgof.harness import KINDS

_COMMAND_OF = {
    "critical-values": "critical-values",
    "normality-sweep": "normality-sweep",
    "convergence": "convergence",
    "consistency-curves": "convergence",
    "distribution-shape": "shape",
}
_OFFSETS = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-4, -1e-4, 0.2, -0.2)


def _bounds(family: str, m: int, k: int) -> list:
    """The q bounds of the feasibility table at (m, k)."""
    if family == "t2":
        return [0.0, 1.0]
    return [1.0, 3.0, 1.0 + 2.0 / m, 1.0 + 2.0 / (m + 2.0), k + 1.0]


def _q_near(draw, bounds) -> float:
    """q on a bound, one ulp beside it, or a small step off it."""
    bound = draw(st.sampled_from(bounds))
    if draw(st.booleans()):
        return math.nextafter(bound, draw(st.sampled_from([-math.inf, math.inf])))
    return bound + draw(st.sampled_from(_OFFSETS))


@st.composite
def _experiment(draw):
    kind = draw(st.sampled_from(list(KINDS)))
    family = draw(st.sampled_from(["t1", "t2"]))
    m = draw(st.integers(1, 5))
    ks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    ns = draw(st.lists(st.integers(max(ks) - 1, max(ks) + 3), min_size=1, max_size=3))
    qs = [_q_near(draw, _bounds(family, m, max(ks))) for _ in range(draw(st.integers(1, 2)))]
    lines = [f"kind = {kind}", f"family = {family}", "master_seed = 5"]
    lines.append("M = 100" if kind == "critical-values" else f"M = {draw(st.integers(2, 4))}")
    lines += [f"n = {draw(st.integers(3, 5))}", f"draws = {draw(st.integers(2, 40))}", "[grid]"]
    for key, values in (("q", qs), ("m", [m]), ("k", ks), ("N", ns)):
        lines.append(f"{key} = " + " ".join(map(repr, values)))
    return {"config": "\n".join(lines) + "\n", "argv": [_COMMAND_OF[kind]]}


@st.composite
def _sample(draw):
    m = draw(st.integers(1, 5))
    argv = ["sample", "--m", str(m), "--n", str(draw(st.integers(0, 30))), "--seed", "1"]
    if draw(st.booleans()):
        s = draw(st.sampled_from([0.001, 0.005, 0.05, 0.5, 2.0, 1e3, 0.0, -1.0]))
        argv += ["--family", "gg", f"--s={s!r}"]
    else:
        family = draw(st.sampled_from(["t1", "t2"]))
        argv += ["--family", "qgauss", f"--q={_q_near(draw, _bounds(family, m, 1))!r}"]
    return {"argv": argv}


_CELLS = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "0.5", "2.5", "1e150", "-1e150", "1e300", "1e-300", "1.7e308", "-1.7e308"]
    ),
    st.floats(-10.0, 10.0).map(repr),
)


@st.composite
def _sample_file(draw, command):
    """entropy or gof on a CSV that may hold NaN or inf, duplicates and a
    ragged row."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=12))
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))  # a duplicate point
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))].pop()  # a ragged row
    lines = [",".join(f"x{j}" for j in range(width))] if draw(st.booleans()) else []
    lines += [",".join(row) for row in rows]
    k = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["t1", "t2"]))
    q = _q_near(draw, _bounds(family, width, k))
    argv = [command, "--k", str(k), f"--q={q!r}"]  # "=" lets q read "-5e-324"
    if command == "gof":
        argv += ["--family", family, "--simulate", str(draw(st.integers(2, 5))), "--seed", "3"]
    return {"argv": argv, "csv": "\n".join(lines) + "\n"}


_COMMANDS = st.one_of(
    _experiment(), _sample(), _sample_file("entropy"), _sample_file("gof")
)


def _refuse_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract"), itertools.count()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=_COMMANDS)
# found by this test: at q = 1 - 2**-53 every Q of the cell is equal, and
# their Q-Q standardization divided 0 by 0 with a RuntimeWarning
@example(command={"argv": ["shape"], "config": (
    "kind = distribution-shape\nfamily = t2\nmaster_seed = 5\nM = 4\ndraws = 20\n"
    "[grid]\nq = 0.9999999999999999\nm = 4\nk = 2\nN = 6\n"
)})
# found by this test: a sample whose covariance overflows float64 (here an
# inf and a -inf product) failed inside math.fsum, kind internal
@example(command={"argv": ["gof", "--k", "2", "--q=5e-324", "--family", "t2", "--simulate", "3",
                           "--seed", "3"],
                  "csv": "x0,x1\n1e300,1e300\n1,0\n0.5,0.5\n1e300,2.5\n1e300,2.5\n"})
# the same sample's neighbor distances overflow float64, so i_hat and h_hat
# were printed as Infinity, which is not JSON
@example(command={"argv": ["entropy", "--k", "2", "--q=5e-324"],
                  "csv": "x0,x1\n1e300,1e300\n1,0\n0.5,0.5\n1e300,2.5\n1e300,2.5\n"})
# here the estimator's terms overflow in np.exp: a RuntimeWarning, then a
# statistic of -Infinity
@example(command={"argv": ["gof", "--k", "2", "--q=1e-5", "--family", "t2", "--simulate", "3",
                           "--seed", "3"],
                  "csv": "x0,x1\n1e154,3e153\n1,0\n0.5,0.5\n-2e153,2.5\n7e153,-1e153\n3,4\n"})
# here the sample covariance (about 1e300) is finite, but the null
# entropy at it overflowed in math.expm1: an OverflowError, kind internal
@example(command={"argv": ["gof", "--k", "1", "--q=0.05", "--family", "t2", "--simulate", "3",
                           "--seed", "3"],
                  "csv": "x0,x1,x2\n1e150,0,0\n0,1e150,0\n0,0,1e150\n-1e150,-1e150,0\n"
                         "0,-1e150,-1e150\n"})
def test_exit_code_contract(workdir, command):
    root, counter = workdir
    case = root / f"case-{next(counter)}"
    case.mkdir()
    argv = list(command["argv"])
    primary = case / "out"  # the output directory, or the sample's output file
    if "config" in command:
        (case / "run.cfg").write_text(command["config"])
        argv += ["--config", str(case / "run.cfg"), "--out", str(primary), "--workers", "1"]
    elif "csv" in command:
        (case / "in.csv").write_text(command["csv"])
        argv += ["--in", str(case / "in.csv")]
    else:
        argv += ["--out", str(primary)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_refuse_constant)
        return
    [line] = err.getvalue().splitlines()
    error = json.loads(line)
    assert error["kind"] != "internal", error
    assert out.getvalue() == ""
    if primary.is_dir():
        assert [p.name for p in primary.iterdir()] == [".cells"]
    else:
        assert not primary.exists()
