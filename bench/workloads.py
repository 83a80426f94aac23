"""Workloads of the quartosc benchmark and the output-correctness gate.

Each operation is one `quartosc` CLI command run in-process through
`quartosc.cli.main(argv)`: stdout and stderr are captured in memory and
file outputs go to a scratch directory inside the checkout.  The inputs
are fixed, so a run's seed never changes what an operation computes.

Two cases were left out on purpose: `scan-hbar 1,0.1` runs the same
layers as `reference` twice (44 solves at n_max <= 34), and k=300 sits
between `reference` and `deep`.  Both add run time without reaching a
layer the three workloads below miss.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: BLAS threads used by the benchmark and every process it starts.  One
#: thread is at most nproc on any machine, so a parent commit and a change
#: always run with the same value, and a run leaves the other cores of a
#: small machine to the system instead of stalling on them.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LEVELS_HEADER = "rank,n1,n2,energy,overlap_weight,ambiguous"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    digits: int
    #: Dimension of the largest matrix an op diagonalizes; the speed probe
    #: that rescales its times diagonalizes one of this size (run.py).
    block_dim: int
    why: str
    dumps: bool = False

    def command(self, scratch: Path) -> list[str]:
        argv = list(self.argv)
        if self.dumps:
            argv += ["--dump-matrix", str(scratch / "matrix.txt")]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            ("compare",),
            8,
            324,
            "compare at the defaults, the paper's 20-row table (n_max 34, blocks "
            "of dim <=324): isolates Python assembly, validate and report "
            "overhead. Fixed input; the seed only orders runs",
        ),
        Workload(
            "deep",
            ("levels", "--k", "500", "--digits", "10"),
            10,
            1225,
            "levels --k 500 --digits 10 (n_max 69, blocks of dim 1225): "
            "isolates LAPACK eigensolve, rework on the accepted step and peak "
            "memory. Fixed input; the seed only orders runs",
        ),
        Workload(
            "dump",
            ("levels",),
            8,
            324,
            "levels --dump-matrix at the defaults, one unsplit dim-1225 matrix "
            "written out: isolates the triplet writer, the only output/IO path. "
            "Fixed input; the seed only orders runs",
            dumps=True,
        ),
    )
}


def prepare() -> None:
    """Pin the BLAS thread count and import quartosc from this checkout's src.

    Must run before numpy is first imported.  Exits with code 2 when the
    checkout holds no quartosc sources.
    """
    if not (SRC / "quartosc" / "__init__.py").is_file():
        sys.exit(f"bench: no quartosc sources under {SRC}")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment() -> dict:
    """Versions and thread settings recorded with every result."""
    import numpy
    import scipy

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one operation returned; seconds covers the cli.main call only."""

    seconds: float
    exit_code: object
    stdout: str
    stderr: str
    dump: bytes | None = None


def run_op(workload: Workload, scratch: Path) -> Outcome:
    """Run one CLI command of the workload and capture its outputs."""
    from quartosc import cli

    argv = workload.command(scratch)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    dump = None
    if workload.dumps:
        path = scratch / "matrix.txt"
        if path.exists():
            dump = path.read_bytes()
            path.unlink()
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), dump)


def check(workload: Workload, outcome: Outcome, golden: dict, report=None) -> list[str]:
    """Problems with one operation's outputs; an empty list means correct.

    `report` is the ConvergenceReport the operation computed, available
    when the operation ran traced; it adds the final_n_max check and the
    energy check at full precision.
    """
    gold = golden[workload.name]
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code!r}: {outcome.stderr.strip()[:200]}"]
    problems = []
    if workload.name == "reference":
        if outcome.stdout != gold["stdout"]:
            problems.append("stdout differs from the golden table")
    else:
        problems += _check_levels(outcome.stdout, gold, workload.digits)
    if workload.dumps:
        if outcome.dump is None:
            problems.append("no matrix dump written")
        elif hashlib.sha256(outcome.dump).hexdigest() != gold["dump_sha256"]:
            problems.append("matrix dump differs from the golden file")
    if report is not None:
        if report.final_n_max != gold["final_n_max"]:
            problems.append(
                f"final_n_max {report.final_n_max} != golden {gold['final_n_max']}"
            )
        if "energies" in gold:
            energies = [lvl.energy for lvl in report.levels]
            problems += _check_energies(energies, gold["energies"], workload.digits, 0)
    return problems


def _threshold(energy: float, digits: int) -> float:
    """The convergence threshold quartosc.diag applies to a level."""
    return 0.5 * 10.0 ** (-digits) * max(1.0, abs(energy))


def _check_energies(energies, golden, digits: int, printed_digits: int) -> list[str]:
    """Each energy within the digit threshold of the golden value.

    A printed energy (printed_digits significant digits) may also sit half
    a unit of its last printed digit away from the value it rounds.
    """
    if len(energies) != len(golden):
        return [f"{len(energies)} levels, golden has {len(golden)}"]
    problems = []
    for rank, (e, g) in enumerate(zip(energies, golden), start=1):
        if not math.isfinite(e):
            problems.append(f"rank {rank}: energy {e!r}")
            continue
        tol = _threshold(g, digits)
        if printed_digits:
            exponent = math.floor(math.log10(max(abs(e), abs(g))))
            tol += 0.5 * 10.0 ** (exponent - printed_digits + 1)
        if not abs(e - g) <= tol:
            problems.append(f"rank {rank}: energy {e!r} vs golden {g!r}")
    return problems


def _parse_levels(stdout: str):
    lines = stdout.splitlines()
    if not lines or lines[0] != LEVELS_HEADER:
        raise ValueError("missing levels header")
    rows = []
    for line in lines[1:]:
        rank, n1, n2, energy, weight, ambiguous = line.split(",")
        float(weight)
        rows.append((int(rank), int(n1), int(n2), float(energy), int(ambiguous)))
    return rows


def _check_levels(stdout: str, gold: dict, digits: int) -> list[str]:
    """Energies within threshold; labels equal where golden is unambiguous."""
    try:
        rows = _parse_levels(stdout)
    except ValueError as exc:
        return [f"malformed levels CSV: {exc}"]
    golden_rows = _parse_levels(gold["stdout"])
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        return ["ranks are not 1..k"]
    problems = _check_energies([r[3] for r in rows], gold["energies"], digits, 9)
    for row, g in zip(rows, golden_rows):
        if not g[4] and row[1:3] != g[1:3]:
            problems.append(f"rank {row[0]}: label {row[1:3]} vs golden {g[1:3]}")
    return problems
