"""Acceptance gate: one test per shipped guarantee, all exact.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every assertion is an exact rational equality; there are
no tolerances anywhere in this file.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from icisres.cli import main as cli_main
from icisres.index import (GermProblem, eg_index, find_good_coordinates,
                           curve_index, germ_residue, ideal_J, main_residue,
                           minors, sigma_data, solve)
from icisres.localalg import (Ctx, colength, minimal_power_membership,
                              standard_basis)
from icisres.pairing import (algebra_C, index_algebra, pairing_report,
                             residue_functional)
from icisres.polycore import Poly
from icisres.residues import (grothendieck_residue,
                              intersection_multiplicity_both_ways, lift_rows,
                              residue_form, residue_via_lift)
from icisres.verify import VerificationPlan, builtin_corpus, run

from oracle_macaulay import stable_corank

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
ONE3 = Poly.const(3, Fraction(1))
SPHERE = x3**2 + y3**2 + z3**2
E8 = x3**2 + y3**3 + z3**5


def sphere_dz():
    return GermProblem(3, (SPHERE,), (Poly.zero(3), Poly.zero(3), ONE3))


def test_criterion_1_main_theorem_sphere_germ():
    t0 = time.perf_counter()
    p = sphere_dz()
    index = eg_index(p)
    residue = main_residue(p)
    assert index == 2
    assert residue == 2
    assert index == residue
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_main_theorem_diagonal_family():
    for k, l in ((1, 1), (2, 3), (3, 3)):
        t0 = time.perf_counter()
        p = GermProblem(2, (), (X**k, Y**l))
        index = eg_index(p)
        residue = main_residue(p)
        assert index == k * l
        assert residue == k * l
        assert time.perf_counter() - t0 < 1.0


def _independent_corank(f, omega):
    # J rebuilt from scratch: partials and explicit 2x2 determinants only
    partials = [f.diff(i) for i in range(3)]
    gens = [f]
    for i in range(3):
        for j in range(i + 1, 3):
            gens.append(partials[i] * omega[j] - partials[j] * omega[i])
    return stable_corank([g for g in gens if not g.is_zero()])


def test_criterion_3_main_theorem_e8_with_oracle():
    t0 = time.perf_counter()
    cases = [tuple(Poly.const(3, Fraction(1)) for _ in range(3))]
    for seed in (11, 12):
        rng = random.Random(seed)
        cases.append(tuple(Poly.const(3, Fraction(rng.randint(1, 5)))
                           for _ in range(3)))
    for omega in cases:
        p = GermProblem(3, (E8,), omega, seed=3)
        rep = solve(p)
        assert rep.match
        assert rep.index == rep.residue
        assert rep.index == _independent_corank(E8, omega)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_4_lemma_suites_zero_failures():
    t0 = time.perf_counter()
    expected = {"det-lemmas": 100, "eq1": 50, "lem2": 25,
                "eq2-transform": 25, "ann-invariance": 10}
    plan = VerificationPlan(suites=tuple(expected), seed=0)
    outcomes = run(plan)
    for out in outcomes:
        assert out.trials_run == expected[out.suite]
        assert out.failures == [], f"{out.suite}: {out.failures}"
    assert time.perf_counter() - t0 < 120.0


def _good_corpus():
    out = []
    for name, p in builtin_corpus():
        _, q = find_good_coordinates(p)
        out.append((name, q))
    return out


def test_criterion_5_residue_form_properties():
    rng = random.Random(5)
    for name, q in _good_corpus():
        ms = minors(q)
        denoms = [ms[0], ms[1]] + list(q.f)
        ctx = Ctx()
        # the germ residue reads the form residue_functional returns
        form = residue_functional(q, ctx)
        assert form is residue_form(denoms, ctx), name
        alg = index_algebra(q, ctx)

        # linearity of the residue form
        for _ in range(4):
            h1 = Poly(q.nvars,
                      {tuple(rng.randint(0, 2) for _ in range(q.nvars)):
                       Fraction(rng.randint(-3, 3)) for _ in range(3)})
            h2 = Poly(q.nvars,
                      {tuple(rng.randint(0, 2) for _ in range(q.nvars)):
                       Fraction(rng.randint(-3, 3)) for _ in range(3)})
            a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            assert germ_residue(q, h1.scale(a) + h2.scale(b), ctx) == \
                a * germ_residue(q, h1, ctx) + b * germ_residue(q, h2, ctx), name

        # vanishing on J: every generator times every A-basis monomial
        for g in ideal_J(q):
            if g.is_zero():
                continue
            for e in alg.basis:
                assert germ_residue(q, g * Poly.monomial(q.nvars, e),
                                    ctx) == 0, name

        if colength(standard_basis(denoms)) == 0:
            continue
        sigma = sigma_data(q).sigma
        base = grothendieck_residue(sigma, denoms)

        # transformation law under unipotent denominator mixes
        for _ in range(3):
            i, j = rng.sample(range(len(denoms)), 2)
            c = Fraction(rng.randint(-2, 2))
            mixed = list(denoms)
            mixed[i] = mixed[i] + mixed[j].scale(c)
            assert grothendieck_residue(sigma, mixed) == base, name

        # lift independence: a lift from the membership certificates and a
        # syzygy-perturbed copy give the same residue
        powers = [minimal_power_membership(i, denoms, max_power=12)[0]
                  for i in range(q.nvars)]
        big = sum(powers) - q.nvars
        det_cap = big + max(sigma.total_degree(), 0) + 2
        rows = lift_rows(denoms, powers, cap=det_cap + 4)
        first = residue_via_lift(sigma, rows, powers, det_cap)
        assert first == base, name
        pert = [list(r) for r in rows]
        i, j = rng.sample(range(len(denoms)), 2)
        c = Fraction(rng.randint(1, 3))
        for r in range(len(pert)):
            pert[r][i] = pert[r][i] + denoms[j].scale(c)
            pert[r][j] = pert[r][j] - denoms[i].scale(c)
        assert any(pert[r][i] != rows[r][i] for r in range(len(pert))), name
        assert residue_via_lift(sigma, pert, powers, det_cap) == first, name


def test_criterion_6_pairing_structure_on_corpus():
    germs = [("a1-dz", sphere_dz())]
    for k, l in ((1, 1), (2, 3), (3, 3)):
        germs.append((f"diag-{k}-{l}", GermProblem(2, (), (X**k, Y**l))))
    germs.append(("e8-sum", GermProblem(3, (E8,), (ONE3, ONE3, ONE3), seed=1)))
    rng = random.Random(11)
    generic = tuple(Poly.const(3, Fraction(rng.randint(1, 5))) for _ in range(3))
    germs.append(("e8-generic", GermProblem(3, (E8,), generic, seed=11)))

    for name, p in germs:
        rep = pairing_report(p)
        assert rep.discrepancies == [], name
        assert rep.gram.rank == rep.dim_c, name
        assert rep.sigma_residue != 0, name
        assert rep.sigma_in_soc_c is True, name
        assert rep.soc_a_dim <= rep.dim_a - rep.dim_c + 1, name
        for seed in (301, 302):
            shifted = GermProblem(p.nvars, p.f, p.omega, seed=seed)
            _, q = find_good_coordinates(shifted, force_random=True)
            assert algebra_C(q).dim_c == rep.dim_c, (name, seed)


def test_criterion_7_intersection_multiplicities():
    assert intersection_multiplicity_both_ways([], [X, Y]) == (1, Fraction(1))
    assert intersection_multiplicity_both_ways([SPHERE], [y3, x3]) == (2, Fraction(2))
    assert intersection_multiplicity_both_ways([], [X**2, Y**3]) == (6, Fraction(6))


def test_criterion_8_cusp_curve_index():
    cusp = X**2 - Y**3
    omega_dy = (Poly.zero(2), Poly.const(2, Fraction(1)))
    assert curve_index((cusp,), omega_dy) == 3


GERM_FILES = {
    "a1.germ": "vars = x, y, z\nf = x^2 + y^2 + z^2\nomega = 0, 0, 1\n",
    "cusp.germ": "vars = x, y\nf = x^2 - y^3\nomega = 0, 1\n",
    "mult.germ": "vars = x, y\nomega = 0, 0\ng = x^2, y^3\n",
}


def test_criterion_9_byte_identical_json(tmp_path, capsys):
    paths = {}
    for fname, text in GERM_FILES.items():
        f = tmp_path / fname
        f.write_text(text)
        paths[fname] = str(f)
    runs = [
        ["index", paths["a1.germ"]],
        ["residue", paths["a1.germ"]],
        ["sigma", paths["a1.germ"]],
        ["good-coords", paths["a1.germ"]],
        ["pairing", paths["a1.germ"]],
        ["all", paths["a1.germ"], "--seed", "7"],
        ["curve-index", paths["cusp.germ"]],
        ["mult", paths["mult.germ"]],
        ["verify", "--suite", "det-lemmas", "--trials", "5"],
    ]
    for argv in runs:
        argv = argv + ["--format", "json"]
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1.encode() == out2.encode(), argv
        json.loads(out1)
