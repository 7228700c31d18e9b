"""A standing mutation harness: source mutations the tests must kill.

Each mutant names a file, an old text that must occur there exactly once,
the new text, the test files that should fail on it and, for a mutant
that changes no behaviour, the reason it is equivalent.  The script copies
the checkout to a temporary directory and checks that every named test
passes there.  Then it applies each mutant in turn, runs its tests under a
timeout, prints "killed" or "survived", and puts the file back.

It exits 1 when a survivor has no written reason, when an old text does
not occur exactly once, when a mutated file does not compile (its tests
would fail for no reason the mutant names), or when the unmutated tests
fail.  A survivor gets a test that kills it, or a reason.  The run takes a
few minutes, so Tier-1 does not run it: pytest collects only test_*.py
files.

Usage: python tests/mutants.py   (runs every mutant)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]
    equivalent: Optional[str] = None    # why it changes no behaviour


GERMFILE = "src/icisres/germfile.py"
LOCALALG = "src/icisres/localalg.py"
PAIRING = "src/icisres/pairing.py"
VERIFY = "src/icisres/verify.py"
READER_TESTS = ("tests/test_germfile_oracle.py", "tests/test_germfile.py")

MUTANTS = [
    # the germ-file reader
    Mutant("nesting-off-by-one", GERMFILE,
           "if self.depth == MAX_NESTING:",
           "if self.depth == MAX_NESTING + 1:", READER_TESTS),
    Mutant("decimal-column-at-point", GERMFILE,
           '"decimal literals are not rational; write p/q",\n'
           "                    lineno, col)",
           '"decimal literals are not rational; write p/q",\n'
           "                    lineno, m.end() + 1)", READER_TESTS),
    Mutant("digit-bound-inclusive", GERMFILE,
           "if len(text) > MAX_LITERAL_DIGITS:",
           "if len(text) >= MAX_LITERAL_DIGITS:", READER_TESTS),
    Mutant("name-start-check-dropped", GERMFILE,
           'elif kind == "stray" or kind == "name" and not (\n'
           '                text[0].isalpha() or text[0] == "_"):',
           'elif kind == "stray":', READER_TESTS),
    Mutant("digit-class-unicode", GERMFILE,
           '_DIGIT = "[0-9]"', r'_DIGIT = r"\d"', READER_TESTS),
    Mutant("vars-count-off-by-one", GERMFILE,
           "if commas >= MAX_VARS:", "if commas > MAX_VARS:", READER_TESTS),
    Mutant("lines-split-at-every-separator", GERMFILE,
           "enumerate(_LINE_END.split(text), start=1)",
           "enumerate(text.splitlines(), start=1)", READER_TESTS),
    # exact inputs at the public API
    Mutant("float-coefficient-accepted", "src/icisres/polycore.py",
           "if isinstance(c, float):", "if isinstance(c, complex):",
           ("tests/test_polycore.py",)),
    Mutant("ctx-knob-type-unchecked", LOCALALG,
           "if not isinstance(value, int):", "if value is None:",
           ("tests/test_cli.py",)),
    # the kernel, the residue box and the power search
    Mutant("stair-never-drops", LOCALALG,
           "self.stair = [s for s in self.stair if not mono_divides(e, s)]",
           "self.stair = list(self.stair)", ("tests/test_localalg.py",)),
    Mutant("pure-power-never-lowered", LOCALALG,
           "self.pure[i] = e[i]",
           "self.pure[i] = e[i] if self.pure[i] is None else self.pure[i]",
           ("tests/test_localalg.py",)),
    Mutant("addrow-box-test-dropped", LOCALALG,
           "if (box - m) & guards != guards:", "if False:",
           ("tests/test_localalg.py", "tests/test_residues.py")),
    Mutant("residue-box-first-coordinate-lowered", "src/icisres/residues.py",
           "box=tuple(d - 1 for d in self.powers))",
           "box=(self.powers[0] - 2,)\n"
           "                         + tuple(d - 1 for d in self.powers[1:]))",
           ("tests/test_residues.py",)),
    Mutant("power-search-one-above-pure", LOCALALG,
           "for d in range(max(start, 1), bound + 1):",
           "for d in range(max(start, 1) + 1, bound + 1):",
           ("tests/test_localalg.py", "tests/test_bench_inputs_oracle.py")),
    # the pairing lab, its sigma test, and the verify payloads
    Mutant("gram-read-at-a-plus-a", PAIRING,
           "family.read(tuple(map(add, a, b)))",
           "family.read(tuple(map(add, a, a)))", ("tests/test_pairing.py",)),
    Mutant("kernel-one-pivot-row-fewer", PAIRING,
           "rref(m[:len(pivots)])", "rref(m[:len(pivots) - 1])",
           ("tests/test_pairing.py",)),
    Mutant("rank-one-lower", PAIRING,
           "return len(_echelon(rows)[1])",
           "return len(_echelon(rows)[1]) - 1", ("tests/test_pairing.py",)),
    Mutant("sigma-test-first-exponent", PAIRING,
           "sigma.at(e) == 0 for e in alg_a.basis if e != origin)",
           "sigma.at(e) == 0 for e in alg_a.basis[:1] if e != origin)",
           ("tests/test_pairing.py",)),
    Mutant("germ-sigma-plus-one", "src/icisres/index.py",
           "return SigmaData(ms, mat, sigma, df)",
           "return SigmaData(ms, mat, sigma + 1, df)",
           ("tests/test_pairing.py",)),
    Mutant("verify-payload-dropped", VERIFY,
           'return {"identity": "inverse-block",',
           '{"identity": "inverse-block",', ("tests/test_verify.py",)),
    # the fraction-free solve and the identities read off it
    Mutant("schur-exponent-off-by-one", VERIFY,
           "if det(h) * q ** (n - j) != det_a * det(schur):",
           "if det(h) * q ** (n - j + 1) != det_a * det(schur):",
           ("tests/test_verify.py",)),
    Mutant("eq2-adjugate-sign-flipped", VERIFY,
           "sign = 1 if q == detc else -1", "sign = -1 if q == detc else 1",
           ("tests/test_verify.py",)),
    Mutant("solve-scaling-dropped", "src/icisres/polycore.py",
           "return d, [row[n:] for row in aug]",
           "return d, [[a // d for a in row[n:]] for row in aug]",
           ("tests/test_polycore.py",)),
]


def _copy_checkout(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.egg-info", "build",
        "out"))


def _tests_pass(checkout: Path, tests: Sequence[str]) -> Optional[bool]:
    """Whether the tests pass in checkout; None when they time out."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests], cwd=checkout, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode == 0


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(prefix="icisres-mutants-") as tmp:
        checkout = Path(tmp) / "checkout"
        _copy_checkout(checkout)
        baseline = sorted({t for m in MUTANTS for t in m.tests})
        if not _tests_pass(checkout, baseline):
            print(f"the unmutated tests fail: {' '.join(baseline)}")
            return 1
        for m in MUTANTS:
            path = checkout / m.path
            original = path.read_text()
            count = original.count(m.old)
            if count != 1:
                print(f"{m.name}: old text found {count} times in {m.path}")
                failed = True
                continue
            mutated = original.replace(m.old, m.new)
            try:
                compile(mutated, m.path, "exec")
            except SyntaxError as exc:
                print(f"{m.name}: the mutated file does not compile: {exc}")
                failed = True
                continue
            path.write_text(mutated)
            try:
                passed = _tests_pass(checkout, m.tests)
            finally:
                path.write_text(original)
            if passed is None:
                print(f"{m.name}: killed (timeout)")
            elif not passed:
                print(f"{m.name}: killed")
            elif m.equivalent:
                print(f"{m.name}: survived, equivalent: {m.equivalent}")
            else:
                print(f"{m.name}: SURVIVED with no reason")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
