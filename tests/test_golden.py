"""Byte-identity of the CLI's output: each command replayed in process against tests/golden/.

The golden files are the stdout (and, for compare, the JSON sidecar) of
the commands in CASES.  A change that is meant to move an output
regenerates them with `PYTHONPATH=src python tests/test_golden.py` and
says why in its description; any other change must leave them unchanged.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from quartosc.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: Golden file name -> the command line whose stdout it holds.
CASES = {
    "compare.csv": ["compare"],
    "levels.csv": ["levels"],
    "levels_k300.csv": ["levels", "--k", "300"],
    "levels_k500_digits10.csv": ["levels", "--k", "500", "--digits", "10"],
    "levels_hbar0.1.csv": ["levels", "--hbar", "0.1"],
    "levels_g0_omega2_0.5.csv": ["levels", "--g", "0", "--omega2", "0.5"],
    "scan-hbar.csv": ["scan-hbar"],
}
#: The sidecar that `compare --json` writes beside compare.csv's stdout.
SIDECAR = "compare.json"


def _replay(argv, sidecar=None):
    """(exit code, stdout bytes, sidecar bytes or None) of one in-process CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--json", str(sidecar)] if sidecar else argv)
    return code, stdout.getvalue().encode("ascii"), sidecar.read_bytes() if sidecar else None


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_is_byte_identical_to_golden(name, tmp_path):
    sidecar = tmp_path / SIDECAR if name == "compare.csv" else None
    code, out, written = _replay(CASES[name], sidecar)
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()
    if sidecar:
        assert written == (GOLDEN / SIDECAR).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        sidecar = GOLDEN / SIDECAR if name == "compare.csv" else None
        code, out, _ = _replay(argv, sidecar)
        if code:
            sys.exit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / name).write_bytes(out)
