"""Byte-identity of the CLI's output: each command replayed in process against tests/golden/.

The golden files are the stdout (and, for compare, the JSON sidecar) of
the commands in CASES, and the sha256 and byte length of the
--dump-matrix file of each command in DUMPS.  A change that is meant to
move an output regenerates them with `PYTHONPATH=src python
tests/test_golden.py` and says why in its description; any other change
must leave them unchanged.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from quartosc.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: Golden file name -> the command line whose stdout it holds.
CASES = {
    "compare.csv": ["compare"],
    "compare_rows40.csv": ["compare", "--rows", "40"],
    "levels.csv": ["levels"],
    "levels_k300.csv": ["levels", "--k", "300"],
    "levels_k500_digits10.csv": ["levels", "--k", "500", "--digits", "10"],
    "levels_hbar0.1.csv": ["levels", "--hbar", "0.1"],
    "levels_g0_omega2_0.5.csv": ["levels", "--g", "0", "--omega2", "0.5"],
    "scan-hbar.csv": ["scan-hbar"],
}
#: The sidecar that `compare --json` writes beside compare.csv's stdout.
SIDECAR = "compare.json"
#: Dump name -> the command line whose --dump-matrix file it pins.
DUMPS = {
    "levels": ["levels"],
    "levels_hbar0.1": ["levels", "--hbar", "0.1"],
}
#: {dump name: {"sha256": ..., "bytes": ...}}; the files themselves run to hundreds of KB.
DUMP_PINS = GOLDEN / "dumps.json"
#: The benchmark's golden outputs, whose dump workload is `levels --dump-matrix`.
BENCH_GOLDEN = Path(__file__).parents[1] / "bench" / "golden.json"


def _replay(argv, sidecar=None):
    """(exit code, stdout bytes, sidecar bytes or None) of one in-process CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--json", str(sidecar)] if sidecar else argv)
    return code, stdout.getvalue().encode("ascii"), sidecar.read_bytes() if sidecar else None


def _dump_pin(argv, path):
    """(exit code, {"sha256", "bytes"} of the matrix file) of argv run with --dump-matrix path."""
    code, _, _ = _replay([*argv, "--dump-matrix", str(path)])
    data = path.read_bytes()
    return code, {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_is_byte_identical_to_golden(name, tmp_path):
    sidecar = tmp_path / SIDECAR if name == "compare.csv" else None
    code, out, written = _replay(CASES[name], sidecar)
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()
    if sidecar:
        assert written == (GOLDEN / SIDECAR).read_bytes()


@pytest.mark.parametrize("name", list(DUMPS))
def test_matrix_dump_is_byte_identical_to_golden(name, tmp_path):
    code, pin = _dump_pin(DUMPS[name], tmp_path / "matrix.txt")
    assert code == 0
    assert pin == json.loads(DUMP_PINS.read_text())[name]


@pytest.mark.parametrize("rows", [20, 40])
@pytest.mark.parametrize("name", list(DUMPS))
def test_levels_dumps_the_matrix_that_compare_accepts(name, rows, tmp_path):
    # compare --rows R converges max(100, R) levels, and labelling fewer moves no step:
    # levels --k max(100, R) with the same model flags dumps the matrix of compare's step.
    model = DUMPS[name][1:]
    code, _, sidecar = _replay(["compare", "--rows", str(rows), *model], tmp_path / "table.json")
    assert code == 0
    accepted = json.loads(sidecar)["convergence"]["final_n_max"]
    path = tmp_path / "matrix.txt"
    code, pin = _dump_pin(["levels", "--k", str(max(100, rows)), *model], path)
    assert code == 0
    assert pin == json.loads(DUMP_PINS.read_text())[name]
    last_row = int(path.read_bytes().splitlines()[-1].split()[0])
    assert last_row + 1 == (accepted + 1) ** 2  # the square cut at compare's n_max


def test_default_dump_pin_is_the_benchmarks():
    pinned = json.loads(DUMP_PINS.read_text())["levels"]["sha256"]
    assert pinned == json.loads(BENCH_GOLDEN.read_text())["dump"]["dump_sha256"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        sidecar = GOLDEN / SIDECAR if name == "compare.csv" else None
        code, out, _ = _replay(argv, sidecar)
        if code:
            sys.exit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / name).write_bytes(out)
    pins = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in DUMPS.items():
            code, pins[name] = _dump_pin(argv, Path(scratch) / "matrix.txt")
            if code:
                sys.exit(f"{' '.join(argv)} --dump-matrix exited {code}")
    DUMP_PINS.write_text(json.dumps(pins, indent=1) + "\n")
