"""Command line front end: germ files in, deterministic reports out.

Every run emits one report with the same shape: {command, input_hash,
result, caps_used, seed, discrepancies}.  Rationals are serialized as
ints when integral and "p/q" strings otherwise, never floats, so JSON
output round-trips exactly and identical inputs give identical bytes.
Exit codes: 0 clean, 2 when a mathematical expectation failed (the
report still prints), 1 on any error, a usage error included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import ArityError, IcisresError
from .germfile import GermFile, parse_germ_file
from .index import (GermProblem, curve_index, eg_index,
                    find_good_coordinates, main_residue, sigma_data, solve)
from .localalg import Ctx
from .pairing import pairing_report
from .polycore import Poly
from .residues import intersection_multiplicity_both_ways
from .verify import SUITES, VerificationPlan, run

COMMANDS = ("index", "residue", "sigma", "good-coords", "pairing",
            "curve-index", "mult", "verify", "all")


def _fr(x) -> object:
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _pol(p: Poly, names) -> str:
    return p.render(tuple(names)) or "0"


def _mat(rows) -> List[List[object]]:
    return [[_fr(a) for a in row] for row in rows]


def _report(command: str, input_hash: Optional[str], seed: int,
            result: Dict, caps: Dict[str, int],
            discrepancies: List[str]) -> Dict:
    return {"command": command, "input_hash": input_hash, "result": result,
            "caps_used": caps, "seed": seed, "discrepancies": discrepancies}


def _render_json(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _render_text(report: Dict) -> str:
    lines: List[str] = []

    def walk(value, path: str):
        if isinstance(value, dict):
            if not value:
                lines.append(f"{path} = {{}}")
            for k in sorted(value):
                walk(value[k], f"{path}.{k}" if path else str(k))
        elif isinstance(value, list):
            if not value:
                lines.append(f"{path} = []")
            for i, v in enumerate(value):
                walk(v, f"{path}.{i}")
        else:
            lines.append(f"{path} = {json.dumps(value)}")

    walk(report, "")
    return "\n".join(lines) + "\n"


def _knob(flag: Optional[int], from_file: Optional[int]) -> Optional[int]:
    """A flag overrides the germ file; None leaves Ctx's default."""
    return flag if flag is not None else from_file


class _Settings:
    """One Ctx for the command, from flags over file values, and the seed."""

    def __init__(self, gf: GermFile, args):
        knobs = {name: _knob(getattr(args, name), getattr(gf, name))
                 for name in ("cap", "max_cap", "attempts")}
        self.ctx = Ctx(**{k: v for k, v in knobs.items() if v is not None})
        self.seed = args.seed if args.seed is not None else gf.seed


def _surface_problem(gf: GermFile, seed: int) -> GermProblem:
    need = gf.nvars - 2
    if len(gf.f) != need:
        raise ArityError(f"surface commands need {need} equations for "
                         f"{gf.nvars} variables, got {len(gf.f)}")
    return GermProblem(gf.nvars, gf.f, gf.omega, seed=seed, names=gf.names)


def _cmd_index(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    p = _surface_problem(gf, st.seed)
    return {"index": eg_index(p, st.ctx)}, []


def _cmd_residue(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    p = _surface_problem(gf, st.seed)
    change, good = find_good_coordinates(p, st.ctx)
    res = main_residue(good, st.ctx)
    return {"residue": _fr(res), "change": _mat(change.matrix),
            "identity_change": change.is_identity()}, []


def _cmd_sigma(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    p = _surface_problem(gf, st.seed)
    sd = sigma_data(p, st.ctx)
    all_minors = {f"m_{','.join(str(c + 1) for c in cols)}": _pol(m, gf.names)
                  for cols, m in sd.minors.all.items()}
    return {"sigma": _pol(sd.sigma, gf.names),
            "df": _pol(sd.df, gf.names),
            "m_matrix": [[_pol(e, gf.names) for e in row]
                         for row in sd.m_matrix],
            "principal_minors": [_pol(m, gf.names)
                                 for m in sd.minors.principal],
            "all_minors": all_minors}, []


def _cmd_good_coords(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    p = _surface_problem(gf, st.seed)
    change, good = find_good_coordinates(p, st.ctx)
    return {"matrix": _mat(change.matrix),
            "identity": change.is_identity(),
            "f": [_pol(fi, gf.names) for fi in good.f],
            "omega": [_pol(w, gf.names) for w in good.omega]}, []


def _cmd_pairing(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    p = _surface_problem(gf, st.seed)
    rep = pairing_report(p, st.ctx)
    mono_names = ["*".join(f"{nm}^{e}" if e > 1 else nm
                           for nm, e in zip(gf.names, expo) if e)
                  or "1" for expo in rep.gram.basis]
    result = {"dim_a": rep.dim_a, "dim_b": rep.dim_b, "dim_c": rep.dim_c,
              "rank_beta": rep.rank_beta,
              "basis": mono_names,
              "gram": _mat(rep.gram.matrix),
              "soc_a_dim": rep.soc_a_dim,
              "socle": [_pol(e, gf.names) for e in rep.soc_a_elements],
              "sigma_residue": _fr(rep.sigma_residue),
              "sigma_in_soc_c": rep.sigma_in_soc_c,
              "bound_holds": rep.bound_holds,
              "change": _mat(rep.change_matrix)}
    return result, list(rep.discrepancies)


def _cmd_curve_index(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    if len(gf.f) != gf.nvars - 1:
        raise ArityError(f"curve-index needs {gf.nvars - 1} equations for "
                         f"{gf.nvars} variables, got {len(gf.f)}")
    return {"curve_index": curve_index(gf.f, gf.omega, st.ctx)}, []


def _cmd_mult(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    if not gf.g:
        raise ArityError("mult needs a 'g' entry with the map components")
    if len(gf.f) + len(gf.g) != gf.nvars:
        raise ArityError(f"mult needs len(f) + len(g) = {gf.nvars}, got "
                         f"{len(gf.f)} + {len(gf.g)}")
    lhs, rhs = intersection_multiplicity_both_ways(gf.f, gf.g, st.ctx)
    equal = lhs == rhs
    disc = [] if equal else ["multiplicity_mismatch"]
    return {"colength": lhs, "residue": _fr(rhs), "equal": equal}, disc


def _cmd_all(gf: GermFile, st: _Settings) -> Tuple[Dict, List[str]]:
    p = _surface_problem(gf, st.seed)
    rep = solve(p, st.ctx)
    verdict = "EQUAL" if rep.match else "UNEQUAL"
    disc = [] if rep.match else ["index_residue_mismatch"]
    result = {"index": rep.index, "residue": _fr(rep.residue),
              "sigma": _pol(rep.sigma, gf.names),
              "df": _pol(rep.df, gf.names),
              "change": _mat(rep.change.matrix),
              "identity_change": rep.change.is_identity(),
              "verdict": verdict}
    return result, disc


_GERM_COMMANDS = {
    "index": _cmd_index,
    "residue": _cmd_residue,
    "sigma": _cmd_sigma,
    "good-coords": _cmd_good_coords,
    "pairing": _cmd_pairing,
    "curve-index": _cmd_curve_index,
    "mult": _cmd_mult,
    "all": _cmd_all,
}


def _cmd_verify(args) -> Tuple[Dict, List[str], int]:
    suites = (args.suite,) if args.suite else SUITES
    seed = args.seed if args.seed is not None else 0
    plan = VerificationPlan(suites=suites, trials=args.trials, seed=seed)
    outcomes = run(plan)
    payload = []
    disc = []
    for o in outcomes:
        payload.append({"suite": o.suite, "trials": o.trials_run,
                        "failures": [{"seed": s, "payload": data}
                                     for s, data in o.failures]})
        if o.failures:
            disc.append(f"{o.suite}:{len(o.failures)} failures")
    return {"suites": payload}, disc, seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icisres",
        description="Exact index and residue computations for 1-forms on "
                    "complete intersection surface germs.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--seed", type=int, default=None)
    for name in COMMANDS:
        sp = sub.add_parser(name, parents=[common])
        if name == "verify":
            sp.add_argument("--suite", choices=SUITES, default=None)
            sp.add_argument("--trials", type=int, default=None)
        else:
            sp.add_argument("--cap", type=int, default=None)
            sp.add_argument("--max-cap", type=int, default=None, dest="max_cap")
            sp.add_argument("--attempts", type=int, default=None)
            sp.add_argument("germfile")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage or the help; its exit 2 for a
        # usage error would read as a failed cross-check
        return 1 if exc.code else 0
    try:
        if args.command == "verify":
            result, disc, seed = _cmd_verify(args)
            report = _report("verify", None, seed, result, {}, disc)
        else:
            with open(args.germfile, "rb") as fh:
                raw = fh.read()
            gf = parse_germ_file(raw.decode("utf-8"))
            st = _Settings(gf, args)
            result, disc = _GERM_COMMANDS[args.command](gf, st)
            input_hash = hashlib.sha256(raw).hexdigest()
            report = _report(args.command, input_hash, st.seed, result,
                             st.ctx.caps_used, disc)
    except (IcisresError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _render_json(report) if args.format == "json" else _render_text(report)
    sys.stdout.write(text)
    return 0 if not report["discrepancies"] else 2


if __name__ == "__main__":
    sys.exit(main())
