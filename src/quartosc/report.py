"""Cross-validation tables merging the three spectrum pipelines.

For one parameter set the exact (diagonalized) levels anchor the table;
the semiclassical and perturbative levels are evaluated at each exact
level's assigned label, and the deviations are quoted in units of the
mean spacing of the lowest 100 exact levels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

from .classical import semiclassical_series
from .diag import ConvergenceReport, SpectrumLevel, converged_levels
from .model import ModelParams, QuantumNumbers
from .quantum import qp_series

#: Number of exact levels entering the mean-spacing normalization.
SPACING_COUNT = 100


class InsufficientLevels(ValueError):
    """Fewer levels available than the spacing computation needs."""


@dataclass(frozen=True)
class MeanSpacing:
    """Mean gap of the lowest `count` levels, d = (E_count - E_1)/count."""

    d: float
    count: int


def mean_level_spacing(energies: Sequence[float], count: int) -> MeanSpacing:
    """Range-based mean spacing over the lowest `count` sorted energies.

    The divisor is `count` (not count - 1): that is the normalization
    the reference error tables are built with, confirmed by back-solving
    them against the recomputed spectrum.
    """
    if count < 2:
        raise InsufficientLevels(f"count must be >= 2, got {count}")
    if len(energies) < count:
        raise InsufficientLevels(
            f"need at least {count} levels, got {len(energies)}"
        )
    return MeanSpacing(d=(energies[count - 1] - energies[0]) / count, count=count)


@dataclass(frozen=True)
class ComparisonRow:
    """One level compared across the three routes; errors in units of D."""

    n: QuantumNumbers
    e_exact: float
    e_sc: float
    e_qp: float
    err_sc: float
    err_qp: float


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    spacing: MeanSpacing
    report: ConvergenceReport


def comparison_table(
    params: ModelParams,
    n_rows: int = 20,
    k: int = 100,
    digits: int = 8,
) -> ComparisonTable:
    """Exact vs semiclassical vs perturbative levels, sorted by exact energy."""
    k = max(k, SPACING_COUNT, n_rows)
    report = converged_levels(params, k=k, digits=digits)
    energies = [lvl.energy for lvl in report.levels]
    spacing = mean_level_spacing(energies, SPACING_COUNT)
    rows = []
    for lvl in report.levels[:n_rows]:
        e_sc = semiclassical_series(lvl.assigned, params).total(params.g)
        e_qp = qp_series(lvl.assigned, params).total(params.g)
        rows.append(
            ComparisonRow(
                n=lvl.assigned,
                e_exact=lvl.energy,
                e_sc=e_sc,
                e_qp=e_qp,
                err_sc=abs(lvl.energy - e_sc) / spacing.d,
                err_qp=abs(lvl.energy - e_qp) / spacing.d,
            )
        )
    return ComparisonTable(rows=tuple(rows), spacing=spacing, report=report)


@dataclass(frozen=True)
class ScanRow:
    """Semiclassical error of one level rank at one hbar."""

    hbar: float
    rank: int
    n: QuantumNumbers
    e_exact: float
    e_sc: float
    err_sc: float


def hbar_scan(
    base: ModelParams, hbars: Sequence[float], n_rows: int = 20
) -> tuple[ScanRow, ...]:
    """Semiclassical error per level for each hbar in the list.

    Each hbar gets its own converged exact spectrum, its own mean
    spacing over the lowest 100 levels, and its own label assignment
    (the energy ordering of the levels changes with hbar).
    """
    rows: list[ScanRow] = []
    for hbar in hbars:
        table = comparison_table(replace(base, hbar=hbar), n_rows=n_rows)
        for rank, row in enumerate(table.rows, start=1):
            rows.append(
                ScanRow(
                    hbar=hbar,
                    rank=rank,
                    n=row.n,
                    e_exact=row.e_exact,
                    e_sc=row.e_sc,
                    err_sc=row.err_sc,
                )
            )
    return tuple(rows)


#: CSV columns, each (header, attribute path on the row, format spec).
_COMPARISON_COLUMNS = (
    ("n1", "n.n1", "d"),
    ("n2", "n.n2", "d"),
    ("e_exact", "e_exact", "#.7g"),
    ("e_sc", "e_sc", "#.7g"),
    ("e_qp", "e_qp", "#.7g"),
    ("err_sc_over_D", "err_sc", "#.8g"),
    ("err_qp_over_D", "err_qp", "#.8g"),
)

_SCAN_COLUMNS = (
    ("hbar", "hbar", "g"),
    ("rank", "rank", "d"),
    ("n1", "n.n1", "d"),
    ("n2", "n.n2", "d"),
    ("e_exact", "e_exact", "#.7g"),
    ("e_sc", "e_sc", "#.7g"),
    ("err_sc_over_D", "err_sc", "#.8g"),
)

_LEVEL_COLUMNS = (
    ("rank", "rank", "d"),
    ("n1", "assigned.n1", "d"),
    ("n2", "assigned.n2", "d"),
    ("energy", "energy", "#.9g"),
    ("overlap_weight", "overlap_weight", "#.4g"),
    ("ambiguous", "ambiguous", "d"),
)


def _render_csv(columns: Sequence[tuple[str, str, str]], rows: Sequence[object]) -> str:
    """Header line plus one line per row, each cell formatted by its column."""
    if not rows:
        raise ValueError("no rows to emit")
    cells = [(attrgetter(path), spec) for _, path, spec in columns]
    lines = [",".join(header for header, _, _ in columns)]
    lines.extend(",".join(format(get(row), spec) for get, spec in cells) for row in rows)
    return "\n".join(lines) + "\n"


def render_comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    return _render_csv(_COMPARISON_COLUMNS, rows)


def render_scan_csv(rows: Sequence[ScanRow]) -> str:
    return _render_csv(_SCAN_COLUMNS, rows)


def render_levels_csv(levels: Sequence[SpectrumLevel]) -> str:
    return _render_csv(_LEVEL_COLUMNS, levels)


def emit_csv(rows: Sequence[ComparisonRow], destination: str) -> None:
    """Write the comparison table as CSV; deterministic byte output."""
    text = render_comparison_csv(rows)
    _write(text, destination)


def emit_json(table: ComparisonTable, destination: str) -> None:
    """JSON variant of the comparison table plus convergence metadata."""
    payload = {
        "spacing": {"d": table.spacing.d, "count": table.spacing.count},
        "convergence": {
            "final_n_max": table.report.final_n_max,
            "history": [
                {"n_max": n_max, "max_delta": delta}
                for n_max, delta in table.report.history
            ],
        },
        "rows": [
            {
                "n1": row.n.n1,
                "n2": row.n.n2,
                "e_exact": row.e_exact,
                "e_sc": row.e_sc,
                "e_qp": row.e_qp,
                "err_sc_over_D": row.err_sc,
                "err_qp_over_D": row.err_qp,
            }
            for row in table.rows
        ],
    }
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", destination)


def _write(text: str, destination: str) -> None:
    try:
        with open(destination, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"writing {destination}: {exc}") from exc
