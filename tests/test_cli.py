import argparse
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import quartosc
from quartosc import cli
from quartosc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_levels_defaults(capsys):
    code, out, _ = run(capsys, "levels", "--k", "5", "--digits", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,n1,n2,energy,overlap_weight,ambiguous"
    first = lines[1].split(",")
    assert first[:3] == ["1", "0", "0"]
    assert float(first[3]) == pytest.approx(1.230722, abs=5e-6)


def test_levels_zero_coupling_harmonic(capsys):
    code, out, _ = run(capsys, "levels", "--g", "0", "--k", "5")
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert float(first[3]) == pytest.approx((1.0 + 2.0**0.5) / 2.0, abs=1e-8)
    assert float(first[4]) == pytest.approx(1.0)


def test_resonant_input_exits_2(capsys):
    code, _, err = run(capsys, "levels", "--omega2", "1")
    assert code == 2
    assert "omega" in err


def test_budget_exceeded_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.diag, "SCHEDULE", range(14, 20, 5))
    code, _, err = run(capsys, "levels", "--k", "100")
    assert code == 3
    assert "not converged" in err


def test_eigensolver_failure_exits_3_without_traceback(capsys, monkeypatch):
    # A LinAlgError in a block's vector job on the pool is a ConvergenceFailure.  At
    # g = 0 and omega2 = 0.5, degenerate levels such as (2, 0) and (0, 4) share a block
    # among the lowest 20, so the job forms a canonical basis for them.
    def failing(rows):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setattr(cli.diag, "_canonical_basis", failing)
    before = threading.active_count()
    code, out, err = run(capsys, "levels", "--g", "0", "--omega2", "0.5", "--k", "20")
    assert code == 3
    assert out == ""
    assert err == "error: eigensolver did not converge\n"
    assert threading.active_count() == before


def test_eigensolver_failure_in_a_worker_exits_3_without_traceback(capsys, monkeypatch):
    original = cli.diag.assemble_hamiltonian

    def poisoned(block, params):
        band = original(block, params)
        band[0, -1] = np.nan  # dsbevd cannot converge on it
        return band

    monkeypatch.setattr(cli.diag, "assemble_hamiltonian", poisoned)
    code, out, err = run(capsys, "levels", "--k", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("error: dsbevd did not converge") and err.count("\n") == 1


def test_vector_failure_on_the_pool_exits_3_and_joins_its_threads(capsys, monkeypatch):
    monkeypatch.setattr(cli.diag, "INVERSE_ITERATIONS", 1)  # no vector reaches the residual test
    before = threading.active_count()
    code, out, err = run(capsys, "levels", "--k", "20")
    assert code == 3
    assert out == ""
    assert err.startswith("error: inverse iteration for eigenvalue") and err.count("\n") == 1
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "argv",
    [
        ["levels", "--k", "10000000000000000000"],
        ["compare", "--rows", "10000000000000000000"],
        ["levels", "--k", "6401"],
        # Only n_max 79 holds these, and the stopping rule needs a second basis.
        ["levels", "--k", "5626"],
        ["compare", "--rows", "5626"],
    ],
)
def test_more_levels_than_any_basis_holds_exits_3_at_once(argv):
    # Run as a process, so a start-up loop without a bound fails on the timeout.
    env = dict(os.environ, PYTHONPATH=str(Path(quartosc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "quartosc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {argv[-1]} levels requested, but at most 5625 can converge: "
        "the stopping rule needs two scheduled bases that hold them\n"
    )


def test_the_cli_loads_every_package_module_and_leaves_no_thread():
    probe = (
        "import ctypes, pkgutil, sys, threading\n"
        "import quartosc.cli\n"
        # The installed package holds only what the CLI runs, and the CLI runs all of it.
        "shipped = {'quartosc.' + m.name for m in pkgutil.iter_modules(quartosc.__path__)}\n"
        "loaded = {name for name in sys.modules if name.startswith('quartosc.')}\n"
        "assert shipped == loaded, (shipped - loaded, loaded - shipped)\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "before = threading.active_count()\n"
        "quartosc.cli.main(['levels', '--k', '3'])\n"
        "assert threading.active_count() == before\n"
        # Degenerate levels: the canonical basis picks its columns.
        "quartosc.cli.main(['levels', '--g', '0', '--omega2', '0.5', '--k', '20'])\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        # scipy.linalg still imports afterwards, and exports the routine the package bound.
        "import scipy.linalg\n"
        "from quartosc import _lapack\n"
        "capsule = scipy.linalg.cython_lapack.__pyx_capi__['dsbevd']\n"
        "pointer = _lapack._capsule_pointer(capsule, _lapack._capsule_name(capsule))\n"
        "assert pointer == ctypes.cast(_lapack.dsbevd, ctypes.c_void_p).value\n"
        "assert scipy.linalg.eigvalsh([[2.0, 1.0], [1.0, 2.0]]).tolist() == [1.0, 3.0]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(quartosc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 4 + 21  # header + 3 levels, header + 20 levels


def test_valid_input_at_the_edges_of_double_precision_answers_or_exits_cleanly(capsys):
    # Tiny g makes the couplings subnormal; tiny hbar shrinks every entry toward
    # the underflow range.  Either once broke the eigenvector pass.
    for g in ("0", "5e-324", "1e-308", "1e-200", "1e-8", "0.1", "10"):
        for hbar in ("1e-170", "1e-155", "1e-8", "0.1", "1", "1e200"):
            for omega2 in ("0.3", "sqrt2", "3"):
                argv = ("levels", "--k", "5", "--g", g, "--hbar", hbar, "--omega2", omega2)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, out, err = run(capsys, *argv)
                assert caught == [], argv
                if code == 0:
                    assert len(out.splitlines()) == 6 and err == "", argv  # header + 5 levels
                    continue
                assert code in (2, 3) and out == "", argv
                assert err.startswith("error: ") and err.count("\n") == 1, argv
                if code == 3:  # a budget exit, never an eigensolver failure
                    assert "not converged" in err, (argv, err)


def test_unwritable_output_exits_4(capsys, tmp_path):
    code, _, err = run(
        capsys, "levels", "--k", "5", "--out", str(tmp_path / "missing" / "x.csv")
    )
    assert code == 4
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["levels", "--k", "5", "--dump-matrix"],
        ["levels", "--k", "5", "--out"],
        ["compare", "--rows", "1", "--json"],
    ],
    ids=["dump-matrix", "out", "json"],
)
def test_write_error_names_its_file(capsys, tmp_path, argv):
    # The message names the path once, whether the open or the write fails, and a
    # failed side file leaves stdout empty.
    missing = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, str(missing))
    assert code == 4
    assert out == ""
    assert err == f"error: writing {missing}: [Errno 2] No such file or directory\n"
    if not os.path.exists("/dev/full"):
        pytest.skip("the failing write needs /dev/full")
    code, out, err = run(capsys, *argv, "/dev/full")
    assert code == 4
    assert out == ""
    assert err == "error: writing /dev/full: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [["levels", "--k", "3", "--dump-matrix"], ["compare", "--rows", "3", "--json"]],
    ids=["dump-matrix", "json"],
)
def test_failed_table_write_removes_the_side_file(capsys, tmp_path, argv):
    # The side file is written before the table: when the table cannot be written the
    # run exits 4 and leaves no side file for it, but a symlink there is left alone.
    side, missing = tmp_path / "side", tmp_path / "missing" / "t.csv"
    code, out, err = run(capsys, *argv, str(side), "--out", str(missing))
    assert (code, out) == (4, "")
    assert err == f"error: writing {missing}: [Errno 2] No such file or directory\n"
    assert not side.exists()
    target, link = tmp_path / "target", tmp_path / "link"
    link.symlink_to(target)
    assert run(capsys, *argv, str(link), "--out", str(missing))[0] == 4
    assert link.is_symlink() and target.stat().st_size > 0
    code, _, _ = run(capsys, *argv, str(side), "--out", str(tmp_path / "t.csv"))
    assert code == 0 and side.stat().st_size > 0


@pytest.mark.parametrize(
    "argv, sink",
    [
        (["levels", "--k", "3"], "full"),
        (["levels", "--k", "3"], "closed pipe"),
        (["compare", "--rows", "3", "--json"], "full"),
    ],
    ids=["levels-full", "levels-closed-pipe", "compare-json-full"],
)
def test_failed_stdout_write_exits_4_with_one_error_line(tmp_path, argv, sink):
    # With buffered stdout a short table would first be written at interpreter
    # shutdown, past main's handlers: the run must fail inside main, and once.
    if sink == "full" and not os.path.exists("/dev/full"):
        pytest.skip("the failing write needs /dev/full")
    side = tmp_path / "side.json"
    if argv[-1] == "--json":
        argv = [*argv, str(side)]
    env = dict(os.environ, PYTHONPATH=str(Path(quartosc.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if sink == "full":
        out = os.open("/dev/full", os.O_WRONLY)
    else:
        read, out = os.pipe()
        os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quartosc.cli", *argv],
            stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(out)
    cause = {"full": "[Errno 28] No space left on device", "closed pipe": "[Errno 32] Broken pipe"}
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == f"error: writing stdout: {cause[sink]}\n"
    assert not side.exists()


def test_missing_config_file_names_it_once(capsys, tmp_path):
    missing = tmp_path / "missing.cfg"
    code, out, err = run(capsys, "levels", "--k", "5", "--config", str(missing))
    assert (code, out) == (4, "")
    assert err == f"error: reading {missing}: [Errno 2] No such file or directory\n"


def test_sqrt2_alias_matches_literal(capsys):
    _, out_alias, _ = run(capsys, "levels", "--k", "3", "--omega2", "sqrt2")
    _, out_literal, _ = run(
        capsys, "levels", "--k", "3", "--omega2", repr(2.0**0.5)
    )
    assert out_alias == out_literal


def test_compare_default_rows(capsys):
    code, out, _ = run(capsys, "compare", "--rows", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n1,n2,e_exact,e_sc,e_qp,err_sc_over_D,err_qp_over_D"
    assert lines[1].startswith("0,0,1.230722,1.230910,1.230522,")
    assert len(lines) == 3



@pytest.mark.parametrize(
    ("g", "hbar", "exponent"),
    [
        ("1e159", "1e-160", "e-160"),
        ("1e154", "1e-155", "e-155"),
        ("1e-151", "1e150", "e+150"),
        ("1e-201", "1e200", "e+200"),
    ],
    ids=["g_squared_overflows", "hbar_cubed_underflows", "hbar_cubed_overflows",
         "quarter_hbar_squared_overflows"],
)
def test_series_columns_at_tiny_hbar_and_huge_g(capsys, g, hbar, exponent):
    # g hbar = 0.1, and every series term is hbar (g hbar)^k f(n, omega): the
    # ground state's e_sc and e_qp are the default table's times hbar.
    exact, sc, qp = (f"{value}{exponent}" for value in ("1.230722", "1.230910", "1.230522"))
    code, out, _ = run(capsys, "compare", "--g", g, "--hbar", hbar, "--rows", "3")
    assert code == 0 and "nan" not in out
    assert out.splitlines()[1].startswith(f"0,0,{exact},{sc},{qp},")
    code, out, _ = run(capsys, "scan-hbar", "--g", g, "--hbars", hbar, "--rows", "3")
    assert code == 0 and "nan" not in out
    assert out.splitlines()[1].startswith(f"{float(hbar):g},1,0,0,{exact},{sc},")


def test_compare_output_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["compare", "--rows", "3", "--out", str(a)]) == 0
    assert main(["compare", "--rows", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_file_is_the_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "table.csv"
    _, out, _ = run(capsys, "compare", "--rows", "3")
    code, echoed, _ = run(capsys, "compare", "--rows", "3", "--out", str(path))
    assert code == 0
    assert echoed == ""
    assert path.read_bytes() == out.encode("ascii")


def test_compare_converges_each_printed_row_beyond_the_spacing_count(capsys, tmp_path):
    # 150 rows need 150 converged levels; D stays the spacing of the lowest 100.
    import json

    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "compare", "--rows", "150", "--json", str(path))
    assert code == 0
    lines = out.encode("ascii").splitlines(keepends=True)
    assert len(lines) == 1 + 150
    golden = Path(__file__).parent / "golden" / "compare.csv"
    assert b"".join(lines[:21]) == golden.read_bytes()
    assert json.loads(path.read_text())["spacing"]["count"] == 100


def test_compare_json_metadata(capsys, tmp_path):
    import json

    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "compare", "--rows", "1", "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text())["convergence"]["final_n_max"] == 34


def test_scan_hbar_single_value(capsys):
    code, out, _ = run(capsys, "scan-hbar", "--hbars", "1", "--rows", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hbar,rank,n1,n2,e_exact,e_sc,err_sc_over_D"
    assert len(lines) == 3


def test_scan_hbar_rejects_negative(capsys):
    code, _, err = run(capsys, "scan-hbar", "--hbars", "-1")
    assert code == 2
    assert "hbars" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["levels", "--g", "nan"],
        ["levels", "--omega1", "nan"],
        ["levels", "--omega2", "inf"],
        ["levels", "--hbar", "inf"],
        ["scan-hbar", "--hbars", "nan"],
        ["levels", "--k", "1.5"],
        ["levels", "--k", "0"],
        ["levels", "--k", "-3"],
        ["levels", "--digits", "0"],
        ["compare", "--rows", "0"],
        ["scan-hbar", "--rows", "0"],
        ["levels", "--k", "3", "--digits", "16"],
        ["levels", "--config", b"k=1.5\n"],
        ["levels", "--config", b"g=\xe9\n"],
        ["levels", "--k", "3", "--g", "1e308"],
        ["levels", "--k", "3", "--hbar", "1e200"],
        ["levels", "--config", b"omgea1=3\n"],
        ["scan-hbar", "--config", b"k=5\n"],
        ["compare", "--config", b"k=300\n"],
        # The lowest 100 levels underflow to one value: their mean spacing is 0.
        ["compare", "--hbar", "5e-324"],
        ["scan-hbar", "--hbars", "5e-324"],
        # Relative thresholds: 12 digits of levels near 0.1, or of subnormal levels.
        ["levels", "--hbar", "0.1", "--digits", "12"],
        ["levels", "--hbar", "1e-320"],
        ["scan-hbar", "--hbars", "1e-320"],
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, tmp_path, argv):
    if isinstance(argv[-1], bytes):
        config = tmp_path / "run.cfg"
        config.write_bytes(argv[-1])
        argv = argv[:-1] + [str(config)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, cause",
    [
        (
            ["levels", "--omega2", "1.000001"],
            "|omega1 - omega2| = 9.999999999177334e-07 < 1e-06; "
            "the perturbative denominators diverge",
        ),
        (
            ["levels", "--omega1", "1e308", "--omega2", "1e-308"],
            "the Hamiltonian overflows double precision at omega1=1e+308, omega2=1e-308, "
            "hbar=1.0 (frequency term)",
        ),
        (
            ["levels", "--hbar", "1e-320"],
            "8 digits is beyond double precision at n_max=14: the energies are subnormal "
            "(lowest 1.207e-320)",
        ),
    ],
    ids=["resonance", "frequency_overflow", "subnormal_energies"],
)
def test_error_message_names_its_cause(capsys, argv, cause):
    assert run(capsys, *argv) == (2, "", f"error: {cause}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["levels", "--rows", "1"],
        ["scan-hbar", "--k", "7"],
        ["scan-hbar", "--digits", "3"],
        ["scan-hbar", "--hbar", "5"],
        ["scan-hbar", "--dump-matrix", "h.txt"],
        # compare converges max(100, --rows) levels on its own.
        ["compare", "--k", "1.5"],
        ["compare", "--k", "300"],
        # levels --k max(100, --rows) dumps the matrix compare accepts.
        ["compare", "--dump-matrix", "h.txt"],
    ],
)
def test_flag_the_command_does_not_read_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_each_command_takes_exactly_its_table_flags():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS)
    for name, (_, _, flags) in cli._COMMANDS.items():
        options = {s for action in sub.choices[name]._actions for s in action.option_strings}
        assert options == {f"--{key}" for key in flags} | {"--out", "--config", "-h", "--help"}


def test_readme_lists_each_commands_table_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Flags per command:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = section.replace("\n  ", " ").splitlines()
    listed = {}
    for bullet in bullets:
        name, _, flags = bullet.partition(": ")
        listed[name.strip("- `")] = tuple(re.findall(r"--([a-z0-9-]+)", flags))
    assert listed == {name: flags for name, (_, _, flags) in cli._COMMANDS.items()}


def test_config_file_with_flag_precedence(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("g=0\nk=4\n")
    code, out, _ = run(capsys, "levels", "--config", str(config), "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # header + 3 rows: flag overrides config's k=4
    # g=0 came from the config: first level is harmonic
    assert float(lines[1].split(",")[3]) == pytest.approx(
        (1.0 + 2.0**0.5) / 2.0, abs=1e-8
    )


def test_dump_matrix_flag(capsys, tmp_path):
    path = tmp_path / "h.txt"
    code, _, _ = run(
        capsys, "levels", "--k", "3", "--g", "0", "--dump-matrix", str(path)
    )
    assert code == 0
    line = path.read_text().splitlines()[0].split()
    assert len(line) == 3
    assert line[0] == "0" and line[1] == "0"


@pytest.mark.xfail(
    strict=True,
    reason="the digit guard holds every level to one normwise rounding scale, "
    "100 eps max|E|, and refuses 11 digits at n_max=29 although the low levels resolve them",
)
def test_eleven_digits_resolve_at_the_defaults(capsys):
    assert main(["levels", "--digits", "11"]) == 0
