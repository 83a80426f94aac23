import math

import pytest

from quartosc.model import ModelParams, QuantumNumbers
from quartosc.report import (
    _COMPARISON_COLUMNS,
    InsufficientLevels,
    hbar_scan,
    mean_level_spacing,
    render_comparison_csv,
    render_json,
    render_scan_csv,
)

SQRT2 = math.sqrt(2.0)


def test_mean_spacing_uniform_levels():
    # range-based with divisor = 100, the spacing count
    assert mean_level_spacing(list(range(100))) == pytest.approx(99.0 / 100.0)


def test_mean_spacing_reads_only_the_lowest_100_levels():
    assert mean_level_spacing([*range(100), 1e9]) == mean_level_spacing(list(range(100)))


def test_mean_spacing_two_levels():
    # Only the first and the 100th level count: the interior ones do not move D.
    for interior in ([1.0] * 98, [4.0] * 98, [1.0 + 3.0 * i / 98 for i in range(98)]):
        assert mean_level_spacing([1.0, *interior, 4.0]) == 3.0 / 100.0


def test_mean_spacing_requires_enough_levels():
    with pytest.raises(InsufficientLevels, match="need at least 100 levels, got 99$"):
        mean_level_spacing([float(i) for i in range(99)])
    with pytest.raises(InsufficientLevels):  # no spread: every error quotient would divide by 0
        mean_level_spacing([5e-324] * 100)


def test_reference_mean_spacing(default_table):
    assert default_table.spacing == pytest.approx(0.177162, abs=5e-6)


def test_ground_row_values(default_table):
    row = default_table.rows[0]
    assert (row.n.n1, row.n.n2) == (0, 0)
    assert row.e_exact == pytest.approx(1.230722, abs=5e-6)
    assert row.e_sc == pytest.approx(1.2309104, abs=5e-7)
    assert row.e_qp == pytest.approx(1.230522, abs=5e-7)


def test_rows_sorted_and_errors_nonnegative(default_table):
    energies = [row.e_exact for row in default_table.rows]
    assert energies == sorted(energies)
    for row in default_table.rows:
        assert row.err_sc >= 0.0
        assert row.err_qp >= 0.0


def test_error_quotients_self_consistent(default_table):
    d = default_table.spacing
    for row in default_table.rows:
        assert row.err_sc == pytest.approx(abs(row.e_exact - row.e_sc) / d, rel=1e-10)
        assert row.err_qp == pytest.approx(abs(row.e_exact - row.e_qp) / d, rel=1e-10)


def test_rows_satisfy_quantum_correction_identity(default_table):
    # e_qp - e_sc = g^2 * hbar^2 * Q2 at every row
    from quartosc.quantum import q2_correction

    params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)
    for row in default_table.rows:
        gap = row.e_qp - row.e_sc
        expected = params.g**2 * params.hbar**2 * q2_correction(row.n, params)
        assert gap == pytest.approx(expected, abs=1e-12)


def test_csv_golden_first_line(default_table):
    text = render_comparison_csv(default_table.rows)
    lines = text.splitlines()
    assert lines[0] == "n1,n2,e_exact,e_sc,e_qp,err_sc_over_D,err_qp_over_D"
    assert lines[1].startswith("0,0,1.230722,1.230910,1.230522,")


def test_csv_deterministic(default_table):
    assert render_comparison_csv(default_table.rows) == render_comparison_csv(
        default_table.rows
    )


def test_csv_rejects_empty():
    with pytest.raises(ValueError):
        render_comparison_csv([])
    with pytest.raises(ValueError):
        render_scan_csv([])


def test_json_emission(default_table):
    import json

    payload = json.loads(render_json(default_table))
    assert payload["convergence"]["final_n_max"] == 34
    assert payload["spacing"] == {"d": default_table.spacing, "count": 100}
    assert len(payload["rows"]) == 20
    assert payload["rows"][0]["n1"] == 0


def test_json_rows_format_to_the_csv_lines(default_table):
    import json

    header, *lines = render_comparison_csv(default_table.rows).splitlines()
    rows = json.loads(render_json(default_table))["rows"]
    assert len(rows) == len(lines) == 20
    keys = header.split(",")
    specs = [spec for _, _, spec in _COMPARISON_COLUMNS]
    for row, line in zip(rows, lines):
        assert sorted(row) == sorted(keys)
        assert ",".join(format(row[key], spec) for key, spec in zip(keys, specs)) == line


def test_scan_consistent_with_comparison(default_table, small_hbar_table):
    base = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)
    rows = hbar_scan(base, [1.0], n_rows=5)
    assert [(hbar, rank) for hbar, rank, _ in rows] == [(1.0, r) for r in range(1, 6)]
    for (_, _, scan_row), table_row in zip(rows, default_table.rows):
        assert scan_row.err_sc == pytest.approx(table_row.err_sc, rel=1e-12)
        assert scan_row.n == table_row.n


def test_scan_rejects_bad_hbar():
    base = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)
    with pytest.raises(ValueError):
        hbar_scan(base, [-1.0])


def test_smaller_hbar_improves_semiclassical_accuracy(default_table, small_hbar_table):
    # For low labels the error quotient drops by well over a factor 10.
    by_label_1 = {(r.n.n1, r.n.n2): r.err_sc for r in default_table.rows}
    by_label_01 = {(r.n.n1, r.n.n2): r.err_sc for r in small_hbar_table.rows}
    shared = [
        label
        for label in by_label_1
        if label in by_label_01 and label[0] <= 3 and label[1] <= 3
    ]
    assert shared
    for label in shared:
        # (0,3) improves by a factor ~6.8 only; every other low label
        # clears a factor 10
        floor = 5.0 if label == (0, 3) else 10.0
        assert by_label_01[label] * floor < by_label_1[label]
