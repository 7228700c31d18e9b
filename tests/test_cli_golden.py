"""Golden digests of CLI runs: every compared output stays byte-identical.

Each entry of cli_golden.json is the sha256 of one in-process run's
(exit code, stdout, stderr), keyed by its argv.  The runs are the eight
germ commands on each bench/corpus germ in JSON at seeds 0 and 1, mult on
each bench/ideals germ, and each verify suite at seed 0.  Germ paths are
relative to the repository root, so the digests do not depend on where
the checkout lives.

Regenerate after a deliberate output change with
`PYTHONPATH=src python tests/test_cli_golden.py`, which prints the argv of
each run whose digest changed, and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from icisres import cli
from icisres.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "cli_golden.json"
GERM_COMMANDS = ("index", "residue", "sigma", "good-coords", "pairing",
                 "curve-index", "mult", "all")


def runs():
    """Every argv the digest file covers, germ paths relative to ROOT."""
    corpus = sorted(p.name for p in (ROOT / "bench" / "corpus").glob("*.germ"))
    ideals = sorted(p.name for p in (ROOT / "bench" / "ideals").glob("*.germ"))
    out = []
    for cmd in GERM_COMMANDS:
        for name in corpus:
            for seed in ("0", "1"):
                out.append([cmd, f"bench/corpus/{name}", "--format", "json",
                            "--seed", seed])
    for name in ideals:
        out.append(["mult", f"bench/ideals/{name}", "--format", "json"])
    for suite in SUITES:
        out.append(["verify", "--suite", suite, "--seed", "0",
                    "--format", "json"])
    return out


def digest(argv) -> str:
    """sha256 of the run's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_outputs_match_the_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    argvs = runs()
    assert sorted(expected) == sorted(" ".join(a) for a in argvs)
    changed = [" ".join(a) for a in argvs if digest(a) != expected[" ".join(a)]]
    assert not changed, "outputs changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text())
    new = {" ".join(a): digest(a) for a in runs()}
    changed = [key for key in new if old.get(key) != new[key]]
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(new)} digests changed")
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
