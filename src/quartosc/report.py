"""Cross-validation tables merging the three spectrum pipelines.

For one parameter set the exact (diagonalized) levels anchor the table;
the semiclassical and perturbative levels are evaluated at each exact
level's assigned label, and the deviations are quoted in units of the
mean spacing of the lowest 100 exact levels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import Callable, Sequence

from .classical import semiclassical_series
from .diag import ConvergenceReport, SpectrumLevel, converged_levels
from .model import ModelError, ModelParams, QuantumNumbers, range_exponent
from .quantum import qp_series

#: Number of exact levels entering the mean-spacing normalization.
SPACING_COUNT = 100


class InsufficientLevels(ModelError):
    """Fewer levels available than the spacing computation needs, or no spread among them."""


def mean_level_spacing(energies: Sequence[float]) -> float:
    """D = (E_SPACING_COUNT - E_1) / SPACING_COUNT over the lowest sorted energies.

    The divisor is SPACING_COUNT (not SPACING_COUNT - 1): that is the
    normalization the reference error tables are built with, confirmed by
    back-solving them against the recomputed spectrum.
    """
    if len(energies) < SPACING_COUNT:
        raise InsufficientLevels(f"need at least {SPACING_COUNT} levels, got {len(energies)}")
    d = (energies[SPACING_COUNT - 1] - energies[0]) / SPACING_COUNT
    if not d > 0.0:
        raise InsufficientLevels(
            f"the lowest {SPACING_COUNT} levels have mean spacing {d}, not > 0"
        )
    return d


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
    """Comparison rows; spacing is D, the mean_level_spacing of the exact levels."""

    rows: tuple[ComparisonRow, ...]
    spacing: float
    report: ConvergenceReport


def comparison_table(params: ModelParams, n_rows: int = 20, digits: int = 8) -> ComparisonTable:
    """Exact vs semiclassical vs perturbative levels, sorted by exact energy.

    Converges the lowest max(SPACING_COUNT, n_rows) levels: the spacing D
    needs the energies of SPACING_COUNT of them, and each printed row needs
    its own.  Only the n_rows printed levels are labelled, by one claim
    loop over them alone, so report.levels holds n_rows levels.
    """
    k = max(SPACING_COUNT, n_rows)
    report = converged_levels(params, k=k, digits=digits, labelled=n_rows)
    spacing = mean_level_spacing(report.energies)
    s = range_exponent(params.g, params.hbar)
    scaled = replace(params, g=math.ldexp(params.g, -s), hbar=math.ldexp(params.hbar, s))
    rows = []
    for lvl in report.levels:
        e_sc = math.ldexp(semiclassical_series(lvl.assigned, scaled).total(scaled.g), -s)
        e_qp = math.ldexp(qp_series(lvl.assigned, scaled).total(scaled.g), -s)
        rows.append(
            ComparisonRow(
                n=lvl.assigned,
                e_exact=lvl.energy,
                e_sc=e_sc,
                e_qp=e_qp,
                err_sc=abs(lvl.energy - e_sc) / spacing,
                err_qp=abs(lvl.energy - e_qp) / spacing,
            )
        )
    return ComparisonTable(rows=tuple(rows), spacing=spacing, report=report)


def hbar_scan(
    base: ModelParams, hbars: Sequence[float], n_rows: int = 20
) -> tuple[tuple[float, int, ComparisonRow], ...]:
    """Semiclassical error per level for each hbar in the list, as (hbar, rank, row).

    Each hbar gets its own converged exact spectrum, its own mean
    spacing over the lowest 100 levels, and its own label assignment
    over its n_rows printed levels (the energy ordering of the levels
    changes with hbar).
    """
    return tuple(
        (hbar, rank, row)
        for hbar in hbars
        for rank, row in enumerate(
            comparison_table(replace(base, hbar=hbar), n_rows=n_rows).rows, start=1
        )
    )


#: CSV columns, each (header, reader of the row, format spec).
_COMPARISON_COLUMNS = (
    ("n1", attrgetter("n.n1"), "d"),
    ("n2", attrgetter("n.n2"), "d"),
    ("e_exact", attrgetter("e_exact"), "#.7g"),
    ("e_sc", attrgetter("e_sc"), "#.7g"),
    ("e_qp", attrgetter("e_qp"), "#.7g"),
    ("err_sc_over_D", attrgetter("err_sc"), "#.8g"),
    ("err_qp_over_D", attrgetter("err_qp"), "#.8g"),
)

#: Scan rows are (hbar, rank, ComparisonRow); the row's columns are the
#: comparison table's, without the perturbative ones.
_SCAN_COLUMNS = (
    ("hbar", itemgetter(0), "g"),
    ("rank", itemgetter(1), "d"),
    *(
        (header, lambda row, read=read: read(row[2]), spec)
        for header, read, spec in _COMPARISON_COLUMNS
        if header in ("n1", "n2", "e_exact", "e_sc", "err_sc_over_D")
    ),
)

_LEVEL_COLUMNS = (
    ("rank", attrgetter("rank"), "d"),
    ("n1", attrgetter("assigned.n1"), "d"),
    ("n2", attrgetter("assigned.n2"), "d"),
    ("energy", attrgetter("energy"), "#.9g"),
    ("overlap_weight", attrgetter("overlap_weight"), "#.4g"),
    ("ambiguous", attrgetter("ambiguous"), "d"),
)


def _render_csv(columns: Sequence[tuple[str, Callable, str]], rows: Sequence[object]) -> str:
    """Header line plus one line per row, each cell formatted by its column."""
    if not rows:
        raise ValueError("no rows to emit")
    lines = [",".join(header for header, _, _ in columns)]
    lines.extend(",".join(format(read(row), spec) for _, read, spec in columns) for row in rows)
    return "\n".join(lines) + "\n"


def render_comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    return _render_csv(_COMPARISON_COLUMNS, rows)


def render_scan_csv(rows: Sequence[tuple[float, int, ComparisonRow]]) -> str:
    return _render_csv(_SCAN_COLUMNS, rows)


def render_levels_csv(levels: Sequence[SpectrumLevel]) -> str:
    return _render_csv(_LEVEL_COLUMNS, levels)


def render_json(table: ComparisonTable) -> str:
    """JSON variant of the comparison table plus convergence metadata.

    Each row holds the comparison CSV's columns, keyed by their headers.
    """
    payload = {
        "spacing": {"d": table.spacing, "count": SPACING_COUNT},
        "convergence": {
            "final_n_max": table.report.final_n_max,
            "history": [
                {"n_max": n_max, "max_delta": delta}
                for n_max, delta in table.report.history
            ],
        },
        "rows": [
            {header: read(row) for header, read, _ in _COMPARISON_COLUMNS}
            for row in table.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
