"""Seeded mutation fuzz: hostile germ files end in exit 0 or 1, never a traceback.

Each case takes one bench/corpus or bench/ideals germ, splits it into
tokens (names, integer literals, single characters, runs of whitespace)
and applies one mutation to a token that is not whitespace: delete it,
duplicate it, or insert a token drawn from the same file before it.  The
mutated file runs through every germ command in-process.  A run must exit
0 (report) or 1 (error), let no exception escape, and on exit 1 write
exactly one `error: ` line to stderr and nothing to stdout.

The sample is fixed by SEED and CASES.  A failing case is a fault to fix
in the program, not a reason to draw another sample.
"""

import contextlib
import io
import random
import re
from pathlib import Path

from icisres import cli

ROOT = Path(__file__).resolve().parent.parent
GERMS = sorted((ROOT / "bench" / "corpus").glob("*.germ")) + \
    sorted((ROOT / "bench" / "ideals").glob("*.germ"))
GERM_COMMANDS = ("index", "residue", "sigma", "good-coords", "pairing",
                 "curve-index", "mult", "all")
SEED = 0
CASES = 300

_TOKEN = re.compile(r"\s+|[A-Za-z_]\w*|[0-9]+|.", re.S)


def mutate(text: str, rng: random.Random) -> str:
    """text with one token deleted, duplicated or inserted."""
    toks = _TOKEN.findall(text)
    solid = [i for i, t in enumerate(toks) if not t.isspace()]
    i = rng.choice(solid)
    kind = rng.choice(("delete", "duplicate", "insert"))
    if kind == "delete":
        toks[i] = ""
    elif kind == "duplicate":
        toks[i] = toks[i] + " " + toks[i]
    else:
        toks[i] = toks[rng.choice(solid)] + " " + toks[i]
    return "".join(toks)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:    # any escape is the finding
            code = exc
    return code, out.getvalue(), err.getvalue()


def test_mutated_germ_files_exit_cleanly(tmp_path):
    rng = random.Random(SEED)
    faults = []
    for case in range(CASES):
        source = rng.choice(GERMS)
        path = tmp_path / f"{case}-{source.name}"
        path.write_text(mutate(source.read_text(), rng))
        for cmd in GERM_COMMANDS:
            code, out, err = run([cmd, str(path)])
            errors = [line for line in err.splitlines()
                      if line.startswith("error: ")]
            if code == 0 or (code == 1 and len(errors) == 1 and not out):
                continue
            faults.append(f"{cmd} {path.name}: exit {code!r}, "
                          f"stderr {err!r}\n{path.read_text()}")
    assert not faults, "\n".join(faults[:5])
