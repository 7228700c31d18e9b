"""Command line driver: JSON reports, exit codes, determinism."""

import hashlib
import json
from fractions import Fraction

import pytest

from icisres import cli
from icisres.localalg import Ctx

A1_TEXT = """\
vars = x, y, z
f = x^2 + y^2 + z^2
omega = 0, 0, 1
"""

CUSP_TEXT = """\
vars = x, y
f = x^2 - y^3
omega = 0, 1
"""

MULT_TEXT = """\
vars = x, y
omega = 0, 0
g = x^2, y^3
"""


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.germ"
    path.write_text(A1_TEXT)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_all_json(capsys, a1_file):
    code, out, err = run_cli(capsys, ["all", a1_file, "--format", "json"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["command"] == "all"
    assert rep["result"]["index"] == 2
    assert rep["result"]["residue"] == 2
    assert rep["result"]["verdict"] == "EQUAL"
    assert rep["result"]["identity_change"] is True
    assert rep["result"]["sigma"] == "4"
    assert rep["result"]["df"] == "2*z"
    assert rep["discrepancies"] == []
    assert rep["seed"] == 0
    expected_hash = hashlib.sha256(A1_TEXT.encode()).hexdigest()
    assert rep["input_hash"] == expected_hash


def test_json_has_no_floats_or_walltime(capsys, a1_file):
    code, out, _ = run_cli(capsys, ["pairing", a1_file, "--format", "json"])
    assert code == 0
    rep = json.loads(out, parse_float=pytest.fail)
    assert "wall_time" not in out
    gram = rep["result"]["gram"]
    for row in gram:
        for entry in row:
            assert isinstance(entry, (int, str))
            if isinstance(entry, str):
                Fraction(entry)  # "p/q" strings must parse exactly


def test_index_command(capsys, a1_file):
    code, out, _ = run_cli(capsys, ["index", a1_file, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "index"
    assert rep["result"]["index"] == 2


def test_residue_command(capsys, a1_file):
    code, out, _ = run_cli(capsys, ["residue", a1_file, "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["residue"] == 2


def test_sigma_command(capsys, a1_file):
    code, out, _ = run_cli(capsys, ["sigma", a1_file, "--format", "json"])
    rep = json.loads(out)
    assert rep["result"]["sigma"] == "4"
    assert rep["result"]["df"] == "2*z"
    assert rep["result"]["principal_minors"] == ["2*y", "2*x", "0"]
    assert rep["result"]["all_minors"]["m_2,3"] == "2*y"


def test_curve_index_command(capsys, tmp_path):
    path = tmp_path / "cusp.germ"
    path.write_text(CUSP_TEXT)
    code, out, _ = run_cli(capsys, ["curve-index", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["curve_index"] == 3


def test_mult_command(capsys, tmp_path):
    path = tmp_path / "mult.germ"
    path.write_text(MULT_TEXT)
    code, out, _ = run_cli(capsys, ["mult", str(path), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["colength"] == 6
    assert rep["result"]["residue"] == 6
    assert rep["result"]["equal"] is True


def test_mult_requires_g(capsys, a1_file):
    code, _, err = run_cli(capsys, ["mult", a1_file])
    assert code == 1
    assert err.startswith("error:")


def test_text_format(capsys, a1_file):
    code, out, _ = run_cli(capsys, ["index", a1_file])
    assert code == 0
    lines = dict(l.split(" = ", 1) for l in out.strip().splitlines())
    assert lines["command"] == '"index"'
    assert lines["result.index"] == "2"


def test_json_byte_identical_across_runs(capsys, a1_file):
    _, out1, _ = run_cli(capsys, ["pairing", a1_file, "--format", "json"])
    _, out2, _ = run_cli(capsys, ["pairing", a1_file, "--format", "json"])
    assert out1.encode() == out2.encode()


def test_seed_flag_overrides_germfile(capsys, a1_file):
    _, out, _ = run_cli(capsys, ["index", a1_file, "--format", "json", "--seed", "42"])
    assert json.loads(out)["seed"] == 42


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "det-lemmas",
                                    "--trials", "4", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["input_hash"] is None
    suite = rep["result"]["suites"][0]
    assert suite["suite"] == "det-lemmas"
    assert suite["trials"] == 4
    assert suite["failures"] == []
    assert "wall_time" not in json.dumps(rep)


def test_missing_file_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["index", str(tmp_path / "no.germ")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_parse_error_is_located(capsys, tmp_path):
    path = tmp_path / "bad.germ"
    path.write_text("vars = x, y\nomega = 0.5, 1\n")
    code, _, err = run_cli(capsys, ["index", str(path)])
    assert code == 1
    assert "line 2" in err


def test_surface_arity_error(capsys, tmp_path):
    path = tmp_path / "arity.germ"
    path.write_text("vars = x, y, z\nomega = x, y, z\n")  # no f on a 3-fold
    code, _, err = run_cli(capsys, ["index", str(path)])
    assert code == 1
    assert err.startswith("error:")


def test_discrepancy_exit_code(capsys, a1_file, monkeypatch):
    # a command reporting a discrepancy must exit 2
    monkeypatch.setitem(cli._GERM_COMMANDS, "index",
                        lambda gf, st: ({"index": 1}, ["synthetic"]))
    code, out, _ = run_cli(capsys, ["index", a1_file, "--format", "json"])
    assert code == 2
    assert json.loads(out)["discrepancies"] == ["synthetic"]


def test_deep_nesting_exits_with_position(capsys, tmp_path):
    path = tmp_path / "nested.germ"
    path.write_text("vars = x, y, z\nf = " + "(" * 3000 + "x" + ")" * 3000
                    + "\nomega = 0, 0, 1\n")
    code, out, err = run_cli(capsys, ["all", str(path), "--format", "json"])
    assert code == 1 and out == ""
    assert err.startswith("error: line 2, column ")


def test_huge_power_exits_with_position(capsys, tmp_path):
    path = tmp_path / "power.germ"
    path.write_text("vars = x, y, z\nf = x^1000000000 + y^2 + z^2\n"
                    "omega = 0, 0, 1\n")
    code, out, err = run_cli(capsys, ["all", str(path), "--format", "json"])
    assert code == 1 and out == ""
    assert err.startswith("error: line 2, column 7:")


def test_oversized_power_exits_with_position(capsys, tmp_path):
    path = tmp_path / "power.germ"
    path.write_text("vars = x, y, z, w\nf = (x + y + z + w)^40, x\n"
                    "omega = 0, 0, 0, 1\n")
    code, out, err = run_cli(capsys, ["all", str(path), "--format", "json"])
    assert code == 1 and out == ""
    assert err.startswith("error: line 2, column 21:")
    assert "power term bound" in err


def test_oversized_product_exits_with_position(capsys, tmp_path):
    path = tmp_path / "product.germ"
    path.write_text("vars = x, y, z, w\n"
                    "f = (x + y + z + w)^30 * (x + y + z + w)^30, x\n"
                    "omega = 0, 0, 0, 1\n")
    code, out, err = run_cli(capsys, ["all", str(path), "--format", "json"])
    assert code == 1 and out == ""
    assert err.startswith("error: line 2, column 24:")
    assert "term bound" in err


@pytest.mark.parametrize("flags, bound", [
    (["--cap", "-3"], "cap must be at least 1"),
    (["--cap", "0"], "cap must be at least 1"),
    (["--cap", "20", "--max-cap", "16"], "max_cap must be at least cap (20)"),
    (["--max-cap", "8"], "max_cap must be at least cap (12)"),
    (["--attempts", "0"], "attempts must be at least 1"),
])
def test_knob_flags_are_validated(capsys, a1_file, flags, bound):
    code, out, err = run_cli(capsys, ["index", a1_file, "--format", "json"]
                             + flags)
    assert code == 1 and out == ""
    assert bound in err


@pytest.mark.parametrize("line, bound", [
    ("cap = 0", "cap must be at least 1"),
    ("cap = -3", "cap must be at least 1"),
    ("max_cap = 5", "max_cap must be at least cap (12)"),
    ("attempts = 0", "attempts must be at least 1"),
])
def test_knob_file_values_are_validated(capsys, tmp_path, line, bound):
    path = tmp_path / "knob.germ"
    path.write_text(A1_TEXT + line + "\n")
    code, out, err = run_cli(capsys, ["index", str(path), "--format", "json"])
    assert code == 1 and out == ""
    assert bound in err


def test_knob_flag_overrides_file_value(capsys, tmp_path):
    path = tmp_path / "knob.germ"
    path.write_text(A1_TEXT + "cap = 0\n")
    code, _, _ = run_cli(capsys, ["index", str(path), "--format", "json",
                                  "--cap", "12"])
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["all"], "the following arguments are required: germfile"),
    (["all", "a1.germ", "--cap", "x"], "argument --cap: invalid int value: 'x'"),
    (["verify", "--suite", "eq1", "--trials", "1", "--cap", "3"],
     "unrecognized arguments: --cap 3"),
    (["verify", "--max-cap", "-5"], "unrecognized arguments: --max-cap -5"),
    (["verify", "--attempts", "0"], "unrecognized arguments: --attempts 0"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 means a failed cross-check, so a usage error must not use it
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert message in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["all", "--help"])
    assert code == 0
    assert "--max-cap" in out and "germfile" in out


@pytest.mark.parametrize("knobs, flags, message", [
    ({"cap": 0}, ["--cap", "0"], "cap must be at least 1, got 0"),
    ({"max_cap": 8}, ["--max-cap", "8"],
     "max_cap must be at least cap (12), got 8"),
    ({"attempts": 0}, ["--attempts", "0"],
     "attempts must be at least 1, got 0"),
])
def test_ctx_raises_the_cli_messages(capsys, a1_file, knobs, flags, message):
    # library callers get the knob checks the command line applies
    with pytest.raises(ValueError) as exc:
        Ctx(**knobs)
    assert str(exc.value) == message
    code, out, err = run_cli(capsys, ["all", a1_file] + flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")
