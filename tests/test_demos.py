"""Smoke test: each demo script runs and prints its 20-row table."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, header, first_row",
    [
        ("three_route_comparison.py", " (n1,n2)      exact", "   (0,0)   1.230722   1.230910"),
        ("classical_limit_scan.py", "rank  label@1", "   1 (0,0)          1.0630e-03"),
    ],
)
def test_demo_prints_its_table(capsys, script, header, first_row):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = next(n for n, line in enumerate(lines) if line.startswith(header))
    rows = lines[start + 1 : start + 21]
    assert len(rows) == 20 and rows[0].startswith(first_row)
    assert all(re.match(r" *\d* *\(\d+,\d+\) ", row) for row in rows)
