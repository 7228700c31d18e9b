"""Checks of every output against values computed apart from the program.

They run after the timed part and enter no metric.  Minors, Jacobians and
coordinate substitutions are redone in sympy from the germ files' text;
colengths come from the Macaulay-matrix oracle in tests/oracle_macaulay.py,
which shares only the polynomial kernel with the program; the rest are
closed forms: k*l for diag-k-l, and mu(X) + mu(X & H) = 8, 9, 10 for E6,
E7 and E8 with a generic constant form.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import re
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

import sympy

from icisres import index, pairing
from icisres.polycore import Poly

import workloads as wls

ROOT = Path(__file__).resolve().parent.parent

# index of a generic constant form on each simple surface singularity
ADE_INDEX = {"E6": 8, "E7": 9, "E8": 10}
CLOSED_FORMS = {"diag-1-1": 1, "diag-2-2": 4, "diag-2-3": 6, "diag-2-4": 8,
                "diag-3-3": 9, "diag-3-4": 12, "e6-const": 8, "e7-const": 9,
                "e8-sum": 10, "e8-generic": 10}


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "oracle_macaulay", ROOT / "tests" / "oracle_macaulay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.stable_corank


stable_corank = _load_oracle()


# germ files, read with sympy --------------------------------------------------

class SymGerm:
    """A germ file's vars, f, omega and g as sympy expressions."""

    def __init__(self, text: str):
        entries: Dict[str, str] = {}
        for line in text.splitlines():
            for stmt in line.split("#", 1)[0].split(";"):
                if "=" in stmt:
                    key, value = stmt.split("=", 1)
                    entries[key.strip()] = value.strip()
        self.syms = tuple(sympy.symbols(entries["vars"].replace(" ", ""),
                                        seq=True))
        local = {str(s): s for s in self.syms}

        def exprs(key: str):
            return [sympy.sympify(part.replace("^", "**"), locals=local)
                    for part in entries.get(key, "").split(",") if part.strip()]

        self.f, self.omega, self.g = exprs("f"), exprs("omega"), exprs("g")

    def poly(self, expr) -> Poly:
        terms = sympy.Poly(sympy.expand(expr), *self.syms).terms()
        return Poly(len(self.syms), {tuple(m): Fraction(int(c.p), int(c.q))
                                     for m, c in terms if c != 0})

    def stacked_minors(self) -> List:
        """Maximal minors of the Jacobian of f stacked over omega."""
        rows = [[sympy.diff(fi, v) for v in self.syms] for fi in self.f]
        rows.append(list(self.omega))
        mat = sympy.Matrix(rows)
        k = len(rows)
        return [sympy.expand(mat.extract(list(range(k)), list(cols)).det())
                for cols in itertools.combinations(range(len(self.syms)), k)]

    def index_colength(self) -> int:
        """Colength of f and the maximal minors: the index, by the oracle."""
        return stable_corank([self.poly(e)
                              for e in self.f + self.stacked_minors()])

    def mult_colength(self) -> int:
        return stable_corank([self.poly(e) for e in self.f + self.g])


@functools.lru_cache(maxsize=None)
def germ_file(name: str) -> SymGerm:
    corpus = wls.CORPUS / f"{name}.germ"
    path = corpus if corpus.exists() else wls.IDEALS / f"{name}.germ"
    return SymGerm(path.read_text())


@functools.lru_cache(maxsize=None)
def expected_index(name: str) -> int:
    return germ_file(name).index_colength()


@functools.lru_cache(maxsize=None)
def expected_mult(name: str) -> int:
    return germ_file(name).mult_colength()


def ade_germ(name: str) -> SymGerm:
    return SymGerm(f"vars = x, y, z\nf = {wls.ADE_GERMS[name]}\n"
                   f"omega = {wls.ADE_FORM}\n")


# per-workload checks ----------------------------------------------------------

class Report:
    """Problems found, and which results passed."""

    def __init__(self, n: int):
        self.problems: List[str] = []
        self.passed = [True] * n

    def fail(self, i: int, message: str) -> None:
        self.passed[i] = False
        self.problems.append(message)


def _report_problem(cmd: str, germ: str, out) -> str:
    """What is wrong with one `icisres <cmd> <germ> --format json` output."""
    if out.code != 0:
        return f"exit code {out.code}: {out.stderr.strip()[:200]}"
    data = json.loads(out.stdout)
    r = data["result"]
    if data["command"] != cmd or data["discrepancies"]:
        return f"command {data['command']}, discrepancies {data['discrepancies']}"
    if cmd == "mult":
        if not (r["colength"] == r["residue"] == expected_mult(germ)
                and r["equal"]):
            return f"{r}, oracle {expected_mult(germ)}"
        return ""
    want = expected_index(germ)
    got = {"all": "index", "index": "index", "residue": "residue",
           "pairing": "dim_a", "curve-index": "curve_index"}[cmd]
    if r[got] != want:
        return f"{got} {r[got]}, oracle {want}"
    if cmd == "all" and (r["verdict"] != "EQUAL" or r["residue"] != want):
        return f"verdict {r['verdict']}, residue {r['residue']}"
    return ""


def check_reports(results, same_bytes: bool) -> Report:
    rep = Report(len(results))
    outputs = defaultdict(list)
    for i, res in enumerate(results):
        if res.error is not None:
            continue
        cmd, germ = res.op.key.split(" ", 1)
        outputs[res.op.key].append(res.output)
        if res.op.known_fault:
            if res.output.code != 1 or not re.search(r"line \d+, column \d+",
                                                     res.output.stderr):
                rep.fail(i, f"{res.op.key}: expected exit 1 with a position, "
                            f"got {res.output.code}: {res.output.stderr[:200]}")
            continue
        problem = _report_problem(cmd, germ, res.output)
        if problem:
            rep.fail(i, f"{res.op.key}: {problem}")
    for name, value in CLOSED_FORMS.items():
        if any(key.endswith(" " + name) for key in outputs) \
                and expected_index(name) != value:
            rep.problems.append(f"{name}: oracle {expected_index(name)}, "
                                f"closed form {value}")
    if same_bytes:
        # a second pass of each command must print the same bytes
        for i, res in enumerate(results):
            passes = outputs.get(res.op.key, [])
            if len(passes) == 1:
                passes.append(res.op.call())
            if any((o.code, o.stdout) != (passes[0].code, passes[0].stdout)
                   for o in passes):
                rep.fail(i, f"{res.op.key}: output differs between passes")
    return rep


def check_random_coords(results) -> Report:
    rep = Report(len(results))
    reference_dim_c: Dict[str, int] = {}
    for i, res in enumerate(results):
        if res.error is not None:
            continue
        name = res.op.key.split()[0]
        out = res.output
        germ = ade_germ(name)
        if name not in reference_dim_c:
            oracle = germ.index_colength()
            if oracle != ADE_INDEX[name]:
                rep.problems.append(f"{name}: oracle {oracle}, closed form "
                                    f"{ADE_INDEX[name]}")
            # the coordinates find_good_coordinates tries first
            _, good = index.find_good_coordinates(wls.ade_problem(name, 0))
            reference_dim_c[name] = pairing.algebra_C(good).dim_c
        if out.index != ADE_INDEX[name]:
            rep.fail(i, f"{res.op.key}: index {out.index} != {ADE_INDEX[name]}")
        if out.dim_c != reference_dim_c[name]:
            rep.fail(i, f"{res.op.key}: dim_c {out.dim_c} != "
                        f"{reference_dim_c[name]} in other coordinates")
        if not _same_substitution(germ, out.change.matrix, out.transformed):
            rep.fail(i, f"{res.op.key}: transformed germ differs from the "
                        "sympy substitution")
    return rep


def _same_substitution(germ: SymGerm, matrix, transformed) -> bool:
    """Redo z = C y in sympy and compare with the program's transformed germ."""
    c = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row]
                      for row in matrix])
    if c.det() == 0:
        return False
    ys = germ.syms
    n = len(ys)
    image = {ys[i]: sum(c[i, j] * ys[j] for j in range(n)) for i in range(n)}
    f = [fi.subs(image, simultaneous=True) for fi in germ.f]
    pulled = [wi.subs(image, simultaneous=True) for wi in germ.omega]
    omega = [sum(pulled[i] * c[i, j] for i in range(n)) for j in range(n)]
    mine = [sympy.Add(*[sympy.Rational(k.numerator, k.denominator)
                        * sympy.Mul(*[s ** d for s, d in zip(ys, e)])
                        for e, k in p.terms.items()])
            for p in transformed.f + transformed.omega]
    return all(sympy.expand(a - b) == 0 for a, b in zip(f + omega, mine))


def check_identity_suites(results) -> Report:
    rep = Report(len(results))
    for i, res in enumerate(results):
        if res.error is not None:
            continue
        if res.output.code != 0:
            rep.fail(i, f"{res.op.key}: exit code {res.output.code}")
            continue
        data = json.loads(res.output.stdout)
        suite = res.op.key.split()[1]
        expect = [{"suite": suite, "trials": wls.SUITE_TRIALS[suite],
                   "failures": []}]
        if data["discrepancies"] or data["result"]["suites"] != expect:
            rep.fail(i, f"{res.op.key}: {data['result']['suites']}")
    return rep


def check(workload: str, results) -> Report:
    if workload == "germ-reports":
        return check_reports(results, same_bytes=True)
    if workload == "deep-residues":
        return check_reports(results, same_bytes=False)
    if workload == "random-coords":
        return check_random_coords(results)
    return check_identity_suites(results)
