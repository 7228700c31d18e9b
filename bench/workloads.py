"""The four workloads: their operations, and the order the seed gives them.

A workload is a fixed list of operations.  A run repeats it in rounds,
each round in an order drawn from the seed and the round number, so every
round attempts the same operations and the share of failed operations is
the same in every run whatever its length or seed.  Every input is pinned:
from one draw of random coordinates or suite seeds to the next, a job's
cost moves by a third to a half, and inputs drawn per run would make the
run-to-run spread a property of the draw rather than of the program.

Only the standard library and icisres are imported here: this module is
all the timed part runs.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

from icisres import cli, index, pairing
from icisres.germfile import parse_germ_file

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
IDEALS = HERE / "ideals"


@dataclass(frozen=True)
class Op:
    """One operation: a label for reports and checks, and the job itself."""

    key: str
    call: Callable[[], object]
    known_fault: bool = False     # fails today because of a named fault


class Workload:
    def __init__(self, name: str, seed: int, ops: List[Op]):
        self.name = name
        self.seed = seed
        self.ops = ops

    def round_ops(self, r: int) -> List[Op]:
        ops = list(self.ops)
        random.Random(f"{self.seed}:order:{r}").shuffle(ops)
        return ops


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: List[str]) -> CliOutput:
    """``icisres <argv>`` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _cli_op(key: str, argv: List[str], known_fault: bool = False) -> Op:
    return Op(key, lambda: run_cli(argv), known_fault)


def germ_path(name: str) -> str:
    return str(CORPUS / f"{name}.germ")


# germ-reports: the commands a user types, over the pinned corpus -----------

GERM_COMMANDS = {
    "all": ("a1-dz", "diag-1-1", "diag-2-2", "diag-2-3", "diag-2-4",
            "diag-3-3", "diag-3-4", "smooth-plane", "unit-dx", "e8-sum",
            "e8-generic", "e6-const", "e7-const"),
    "pairing": ("a1-dz", "diag-2-3", "diag-3-3", "diag-3-4", "smooth-plane",
                "e8-sum", "e8-generic", "e6-const", "e7-const"),
    "index": ("a1-dz", "diag-2-3", "e8-sum", "e6-const", "e7-const"),
    "residue": ("a1-dz", "diag-3-3", "e8-generic", "e6-const", "e7-const"),
    "mult": ("mult-monomial", "mult-sphere"),
    "curve-index": ("cusp",),
}
NESTED = "nested-parens"


def germ_reports_ops() -> List[Op]:
    ops = [_cli_op(f"{cmd} {germ}", [cmd, germ_path(germ), "--format", "json"])
           for cmd, germs in GERM_COMMANDS.items() for germ in germs]
    # 3000 nested parentheses: the recursive-descent parser overflows the
    # interpreter stack instead of reporting a position
    ops.append(_cli_op(f"all {NESTED}",
                       ["all", germ_path(NESTED), "--format", "json"],
                       known_fault=True))
    return ops


# random-coords: E6, E7, E8 with a constant form in random coordinates ------

ADE_GERMS = {
    "E6": "x^2 + y^3 + z^4",
    "E7": "x^2 + y^3 + y*z^3",
    "E8": "x^2 + y^3 + z^5",
}
ADE_FORM = "1, 2, 3"
COORD_SEEDS = (1, 2)


@dataclass
class CoordsOutput:
    change: index.CoordinateChange
    transformed: index.GermProblem
    index: int
    dim_c: int


def ade_problem(name: str, seed: int) -> index.GermProblem:
    gf = parse_germ_file(f"vars = x, y, z\nf = {ADE_GERMS[name]}\n"
                         f"omega = {ADE_FORM}\n")
    return index.GermProblem(3, gf.f, gf.omega, seed=seed, names=gf.names)


def coords_job(p: index.GermProblem) -> CoordsOutput:
    change, good = index.find_good_coordinates(p, force_random=True)
    dim_c = pairing.algebra_C(good).dim_c
    return CoordsOutput(change, good, index.eg_index(good), dim_c)


def random_coords_ops() -> List[Op]:
    return [Op(f"{name} seed {s}", lambda p=ade_problem(name, s): coords_job(p))
            for name in ADE_GERMS for s in COORD_SEEDS]


# deep-residues: icisres mult on the ideals cor-mult draws at seed 0 --------

def ideal_path(trial: int) -> str:
    return str(IDEALS / f"cor-mult-0-{trial}.germ")


def deep_residues_ops() -> List[Op]:
    return [_cli_op(f"mult cor-mult-0-{t}",
                    ["mult", ideal_path(t), "--format", "json"])
            for t in range(10)]


# identity-suites: icisres verify at the default trial counts ---------------

SUITE_TRIALS = {"det-lemmas": 100, "eq1": 50, "eq2-transform": 25}
SUITE_SEEDS = (0, 1, 2)


def identity_suites_ops() -> List[Op]:
    return [_cli_op(f"verify {suite} seed {k}",
                    ["verify", "--suite", suite, "--trials", str(trials),
                     "--seed", str(k), "--format", "json"])
            for suite, trials in SUITE_TRIALS.items() for k in SUITE_SEEDS]


BUILDERS = {
    "germ-reports": germ_reports_ops,
    "random-coords": random_coords_ops,
    "deep-residues": deep_residues_ops,
    "identity-suites": identity_suites_ops,
}
WORKLOADS = tuple(BUILDERS)


def prepare(name: str, seed: int) -> Workload:
    """Everything a run needs before its first job; timed as set-up."""
    return Workload(name, seed, BUILDERS[name]())
