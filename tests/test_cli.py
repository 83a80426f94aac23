import argparse

import pytest

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
    import quartosc.cli as cli_mod

    original = cli_mod.diag.converged_levels

    def capped(params, k, digits):
        return original(params, k=k, digits=digits, n_max_cap=20)

    monkeypatch.setattr(cli_mod.diag, "converged_levels", capped)
    code, _, err = run(capsys, "levels", "--k", "100")
    assert code == 3
    assert "not converged" in err


def test_unwritable_output_exits_4(capsys, tmp_path):
    code, _, err = run(
        capsys, "levels", "--k", "5", "--out", str(tmp_path / "missing" / "x.csv")
    )
    assert code == 4
    assert "error" in err


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
        ["compare", "--k", "1.5"],
        ["compare", "--rows", "0"],
        ["scan-hbar", "--rows", "0"],
        ["levels", "--k", "3", "--digits", "16"],
        ["levels", "--config", b"k=1.5\n"],
        ["levels", "--config", b"g=\xe9\n"],
        ["levels", "--k", "3", "--g", "1e308"],
        ["levels", "--k", "3", "--hbar", "1e200"],
        ["levels", "--config", b"omgea1=3\n"],
        ["scan-hbar", "--config", b"k=5\n"],
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
    "argv",
    [
        ["levels", "--rows", "1"],
        ["scan-hbar", "--k", "7"],
        ["scan-hbar", "--digits", "3"],
        ["scan-hbar", "--hbar", "5"],
        ["scan-hbar", "--dump-matrix", "h.txt"],
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
