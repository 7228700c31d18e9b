"""Command line driver: JSON reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from icisres import cli
from icisres.germfile import MAX_VARS
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


def _linear_forms_file(tmp_path, n):
    """g = (J + n I) v in n variables, omega = 0: colength 1."""
    names = [f"v{i}" for i in range(n)]
    rows = [" + ".join(f"{1 + n * (i == j)}*{v}" for j, v in enumerate(names))
            for i in range(n)]
    path = tmp_path / f"linear-{n}.germ"
    path.write_text(f"vars = {', '.join(names)}\nomega = {', '.join(['0'] * n)}"
                    f"\ng = {', '.join(rows)}\n")
    return str(path)


def test_variable_count_is_bounded(capsys, tmp_path):
    # a file at the bound runs; one variable more is refused at `vars`
    code, out, err = run_cli(capsys, ["mult", _linear_forms_file(
        tmp_path, MAX_VARS), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"colength": 1, "equal": True,
                                         "residue": 1}
    code, out, err = run_cli(capsys, ["mult", _linear_forms_file(
        tmp_path, MAX_VARS + 1)])
    assert (code, out) == (1, "")
    assert err == (f"error: line 1, column 1: {MAX_VARS + 1} variables "
                   f"exceed the variable bound {MAX_VARS}\n")


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
    (["--max-cap", "65"], "max_cap must be at most 64"),
    (["--cap", "300", "--max-cap", "300"], "max_cap must be at most 64"),
    (["--attempts", "1025"], "attempts must be at most 1024"),
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
    ("max_cap = 65", "max_cap must be at most 64"),
    ("cap = 300; max_cap = 300", "max_cap must be at most 64"),
    ("attempts = 1025", "attempts must be at most 1024"),
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


def test_knob_ceilings_are_allowed(capsys, a1_file):
    ctx = Ctx(max_cap=64, attempts=1024)
    assert (ctx.max_cap, ctx.attempts) == (64, 1024)
    code, _, _ = run_cli(capsys, ["index", a1_file, "--max-cap", "64",
                                  "--attempts", "1024"])
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["all"], "the following arguments are required: germfile"),
    (["all", "a1.germ", "--cap", "x"], "argument --cap: invalid int value: 'x'"),
    (["verify", "--suite", "eq1", "--trials", "1", "--cap", "3"],
     "unrecognized arguments: --cap 3"),
    (["verify", "--max-cap", "-5"], "unrecognized arguments: --max-cap -5"),
    (["verify", "--attempts", "0"], "unrecognized arguments: --attempts 0"),
    (["verify", "--suite", "eq1", "--trials", "10001"],
     "trials must be at most 10000, got 10001"),
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


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_one_parser_serves_a_sequence_of_commands(capsys, a1_file):
    # a freshly built parser per call is what separate processes see; the
    # shared one must give the same bytes, and no flag may leak onward
    argvs = [["all", a1_file, "--cap", "x"],
             ["all", "--help"],
             ["index", a1_file, "--format", "json", "--seed", "5"],
             ["index", a1_file, "--format", "json"]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    cli.build_parser.cache_clear()
    shared = [run_cli(capsys, argv) for argv in argvs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 0]
    assert json.loads(shared[2][1])["seed"] == 5
    assert json.loads(shared[3][1])["seed"] == 0


@pytest.mark.parametrize("size", [0, 55, 56, 64, 65, 1000])
def test_input_hash_is_sha256(size):
    # 55, 56, 64 and 65 bytes straddle SHA-256's one- and two-block padding
    data = bytes(i * 7 % 256 for i in range(size))
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_a_command_does_not_load_openssl(tmp_path):
    path = tmp_path / "a1.germ"
    path.write_text(A1_TEXT)
    script = ("import sys\n"
              "from icisres import cli\n"
              "code = cli.main(['all', sys.argv[1]])\n"
              "print(code, '_hashlib' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_byte_order_mark_is_skipped(capsys, tmp_path):
    plain = tmp_path / "a1.germ"
    plain.write_bytes(A1_TEXT.encode())
    marked = tmp_path / "a1-bom.germ"
    marked.write_bytes(b"\xef\xbb\xbf" + A1_TEXT.encode())
    reps = []
    for path in (plain, marked):
        code, out, err = run_cli(capsys, ["all", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        reps.append(json.loads(out))
    assert reps[1]["result"] == reps[0]["result"]
    # the hash stays that of the raw bytes, mark included
    assert reps[1]["input_hash"] == hashlib.sha256(
        marked.read_bytes()).hexdigest()
    assert reps[1]["input_hash"] != reps[0]["input_hash"]


@pytest.mark.parametrize("knobs, flags, message", [
    ({"cap": 0}, ["--cap", "0"], "cap must be at least 1, got 0"),
    ({"max_cap": 8}, ["--max-cap", "8"],
     "max_cap must be at least cap (12), got 8"),
    ({"attempts": 0}, ["--attempts", "0"],
     "attempts must be at least 1, got 0"),
    ({"cap": 300, "max_cap": 300}, ["--cap", "300", "--max-cap", "300"],
     "max_cap must be at most 64, got 300"),
    ({"attempts": 1025}, ["--attempts", "1025"],
     "attempts must be at most 1024, got 1025"),
])
def test_ctx_raises_the_cli_messages(capsys, a1_file, knobs, flags, message):
    # library callers get the knob checks the command line applies
    with pytest.raises(ValueError) as exc:
        Ctx(**knobs)
    assert str(exc.value) == message
    code, out, err = run_cli(capsys, ["all", a1_file] + flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("knob, value", [
    ("cap", 12.5), ("max_cap", 30.0), ("attempts", 2.5)])
def test_ctx_refuses_a_knob_that_is_not_an_int(knob, value):
    # a float cap would pass the range checks and fail deep in the kernel
    with pytest.raises(TypeError, match=f"{knob} must be an int, got {value}"):
        Ctx(**{knob: value})


def test_a_finite_staircase_past_the_ceiling_is_named(capsys, tmp_path):
    # (x^40, y^40) has colength 1600 and top degree 78: no cap up to the
    # ceiling 40 proves it
    path = tmp_path / "deep.germ"
    path.write_text("vars = x, y\nomega = x^40, y^40\n")
    code, out, err = run_cli(capsys, ["index", str(path)])
    assert (code, out) == (1, "")
    assert err == ("error: the staircase at cap 40 is finite with top degree "
                   "78, so proving it needs a cap above the cap ceiling 40\n")
