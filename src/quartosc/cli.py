"""Command-line front end.

Commands: `levels`, `compare`, `scan-hbar`.  Defaults reproduce the
reference configuration omega1=1, omega2=sqrt(2), g=0.1, hbar=1.
Exit codes: 0 ok, 2 bad input, 3 convergence budget exceeded or eigensolver
failure, 4 I/O.  A side file (--dump-matrix, --json) is written before the
table, so a run that exits non-zero writes nothing to stdout, and removed
again if the table cannot be written.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from typing import Iterator, Sequence

from . import diag, report
from .model import DEFAULT_PARAMS, ModelError, ModelParams

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def _frequency(text: str) -> float:
    """Decimal, with `sqrt2` accepted so sqrt(2) is not truncated."""
    if text.strip().lower() == "sqrt2":
        return math.sqrt(2.0)
    return float(text)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _hbar_list(text: str) -> tuple[float, ...]:
    """Comma-separated hbar values, each checked as ModelParams checks hbar."""
    hbars = tuple(float(h) for h in text.split(",") if h.strip())
    if not hbars:
        raise ValueError("list is empty")
    for hbar in hbars:
        replace(DEFAULT_PARAMS, hbar=hbar)
    return hbars


#: Every valued flag: (default, parser, help).  A value from the command
#: line, from --config or from this table goes through the same parser.
_FLAGS = {
    "omega1": ("1", _frequency, "first frequency"),
    "omega2": ("sqrt2", _frequency, "second frequency; accepts `sqrt2`"),
    "g": ("0.1", float, "quartic coupling strength"),
    "hbar": ("1", float, "reduced Planck constant"),
    "k": ("100", _count, "number of levels to converge"),
    "digits": ("8", _count, "convergence digit target"),
    "rows": ("20", _count, "rows to emit"),
    "hbars": ("1,0.1", _hbar_list, "comma-separated hbar list"),
}


#: Help of each path flag.  Path flags are command-line only, never from --config.
_PATHS = {
    "out": "output CSV path (default: stdout)",
    "dump-matrix": "also dump the final Hamiltonian as `row col value` triplets",
    "json": "also write the table plus convergence metadata as JSON",
    "config": "plain key=value config file; explicit flags take precedence",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartosc",
        description=(
            "Energy spectra of two non-resonant oscillators with quartic "
            "coupling, by torus-quantized classical perturbation theory, "
            "quantum perturbation theory, and exact diagonalization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # No prefix matching: scan-hbar must not read --hbar as --hbars.
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in flags + ("out", "config"):
            if key in _FLAGS:
                default, _, flag_help = _FLAGS[key]
                command.add_argument(f"--{key}", help=f"{flag_help} (default {default})")
            else:
                command.add_argument(f"--{key}", metavar="PATH", help=_PATHS[key])
    return parser


@contextmanager
def _naming(verb: str, path: str) -> Iterator[None]:
    """Re-raise an OSError as `VERB PATH: [Errno N] strerror`, naming the path once.

    The OSError of a failed open names the file itself; a failed write or
    close does not, so the original text cannot serve for both.
    """
    try:
        yield
    except OSError as exc:
        raise OSError(f"{verb} {path}: [Errno {exc.errno}] {exc.strerror}") from exc


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with _naming("reading", path), open(path, encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ModelError(f"config file {path} is not ASCII text: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ModelError(f"config line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> tuple[ModelParams, dict]:
    """Model parameters plus every parsed valued flag of the command.

    A value comes from the flag, else from the config file, else from
    _FLAGS; a value that does not parse, or a config key that is not a
    valued flag of the command, is a ModelError naming it.
    """
    keys = [key for key in _COMMANDS[args.command][2] if key in _FLAGS]
    config = _load_config(args.config) if args.config else {}
    for key in config:
        if key not in keys:
            raise ModelError(f"config key {key!r} is not a valued flag of {args.command}")
    values = {}
    for key in keys:
        default, parse, _ = _FLAGS[key]
        text = getattr(args, key)
        if text is None:
            text = config.get(key, default)
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ModelError(f"bad --{key} value {text!r}: {exc}") from exc
    # scan-hbar reads no --hbar; hbar_scan replaces it by each --hbars value.
    hbar = values["hbar"] if "hbar" in values else values["hbars"][0]
    params = ModelParams(omega1=values["omega1"], omega2=values["omega2"], g=values["g"], hbar=hbar)
    return params, values


def _emit(text: str, path: str | None, side: str | None = None) -> None:
    """Write text to path, ASCII with the newlines as given, or to stdout without one.

    If that fails, a regular file at side, the side file this run wrote
    before the table, is removed; a device or symlink there is left alone.
    """
    try:
        if path is None:
            sys.stdout.write(text)
            return
        with _naming("writing", path), open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError:
        if side is not None:
            with suppress(OSError):
                if stat.S_ISREG(os.lstat(side).st_mode):
                    os.remove(side)
        raise


def _cmd_levels(args: argparse.Namespace) -> int:
    params, values = _resolve(args)
    result = diag.converged_levels(params, k=values["k"], digits=values["digits"])
    if args.dump_matrix:
        matrix = diag.assemble_hamiltonian(diag.build_basis(result.final_n_max), params)
        with _naming("writing", args.dump_matrix):
            diag.dump_matrix_triplets(matrix, args.dump_matrix)
    _emit(report.render_levels_csv(result.levels), args.out, args.dump_matrix)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    params, values = _resolve(args)
    table = report.comparison_table(params, n_rows=values["rows"], digits=values["digits"])
    if args.json:
        _emit(report.render_json(table), args.json)
    _emit(report.render_comparison_csv(table.rows), args.out, args.json)
    return EXIT_OK


def _cmd_scan_hbar(args: argparse.Namespace) -> int:
    params, values = _resolve(args)
    rows = report.hbar_scan(params, values["hbars"], n_rows=values["rows"])
    _emit(report.render_scan_csv(rows), args.out)
    return EXIT_OK


#: Each command: (handler, help, the flags it reads).  The only place that
#: says which command reads which flag; every command also takes --out and --config.
_COMMANDS = {
    "levels": (_cmd_levels, "converged exact levels with labels",
               ("omega1", "omega2", "g", "hbar", "k", "digits", "dump-matrix")),
    "compare": (_cmd_compare, "exact vs semiclassical vs perturbative table",
                ("omega1", "omega2", "g", "hbar", "digits", "rows", "json")),
    "scan-hbar": (_cmd_scan_hbar, "semiclassical error across hbar values",
                  ("omega1", "omega2", "g", "rows", "hbars")),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (diag.BudgetExceeded, diag.ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
