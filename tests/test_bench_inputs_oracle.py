"""The Macaulay oracle and the lift identity on the benchmark's own inputs.

colength must equal oracle_macaulay.stable_corank on every ideal the
benchmark computes a colength of: each bench/ideals ideal (g + f), and for
each bench/corpus surface germ its index ideal J and, in good coordinates,
its pairing ideal (m_1, m_2, f).  For the residue denominator tuples among
them, (g + f) and (m_1, m_2, f), each z_i^{d_i} lifted at the ResidueForm's
term cap with its rows on the form's box {e : e_i <= d_i - 1} must pass
LiftCertificate.check: the representation rows the reduction kernel
carries are an identity on every monomial of the box, which lies below
the term cap.  Its coefficients must be the box parts of the lift's
coefficients through a basis whose rows are cut only at the term cap.  On
the same tuples, in both orders for the ideals, grothendieck_residue must
equal oracle_bezout.BezoutResidue, which shares no lift, minimal power or
tracked basis with it.
"""

import random
from pathlib import Path

import pytest

from icisres.errors import GermFileError
from icisres.germfile import parse_germ_file
from icisres.index import (GermProblem, find_good_coordinates, germ_sigma,
                           ideal_J, residue_denominators)
from icisres.localalg import (Ctx, colength, lift, minimal_power, normal_form,
                              standard_basis_at)
from icisres.polycore import Poly, mono_divides
from icisres.residues import grothendieck_residue, jacobian_minor, residue_form

from oracle_bezout import BezoutResidue
from oracle_macaulay import stable_corank

BENCH = Path(__file__).resolve().parent.parent / "bench"
IDEALS = sorted((BENCH / "ideals").glob("*.germ"))


def is_surface_germ(path):
    """A germ file that parses and holds n - 2 equations in n variables."""
    try:
        gf = parse_germ_file(path.read_text())
    except GermFileError:
        return False
    return len(gf.f) == gf.nvars - 2


SURFACES = [path for path in sorted((BENCH / "corpus").glob("*.germ"))
            if is_surface_germ(path)]
# omega = 0: every minor vanishes, so J has no finite colength to compare
NOT_ISOLATED = {"mult-monomial", "mult-sphere"}


def assert_colength_matches_oracle(gens, ctx):
    assert colength(ctx.basis(gens)) == stable_corank(gens)


def box_part(p, box):
    return Poly(p.nvars, {e: c for e, c in p.terms.items()
                          if mono_divides(e, box)})


def assert_lifts_certify(denoms, ctx):
    form = residue_form(denoms, ctx)
    box = tuple(d - 1 for d in form.powers)
    assert form.big < form.cap
    sb = standard_basis_at(denoms, form.cap, track=True, box=box)
    uncut = standard_basis_at(denoms, form.cap, track=True)
    n = len(denoms)
    for i, d in enumerate(form.powers):
        power = Poly.monomial(n, [d if j == i else 0 for j in range(n)])
        cert = lift(power, sb)
        assert (cert.cap, cert.box) == (form.cap, box)
        assert cert.check()
        assert not any(mono_divides(e, box) for e in cert.defect().terms)
        full = lift(power, uncut)
        assert full.check()
        assert cert.coefficients == [box_part(c, box)
                                     for c in full.coefficients]


def test_every_benchmark_input_is_covered():
    assert len(IDEALS) == 10
    assert {p.stem for p in SURFACES} >= NOT_ISOLATED | {"a1-dz", "e8-sum"}
    assert not {"cusp", "nested-parens"} & {p.stem for p in SURFACES}


@pytest.mark.parametrize("path", IDEALS, ids=lambda p: p.stem)
def test_mult_ideal_matches_oracle_and_lifts(path):
    gf = parse_germ_file(path.read_text())
    denoms = list(gf.g) + list(gf.f)
    ctx = Ctx()
    assert_colength_matches_oracle(denoms, ctx)
    assert_lifts_certify(denoms, ctx)


@pytest.mark.parametrize("path", SURFACES, ids=lambda p: p.stem)
def test_corpus_germ_ideals_match_oracle_and_lift(path):
    gf = parse_germ_file(path.read_text())
    p = GermProblem(gf.nvars, gf.f, gf.omega, seed=gf.seed)
    ctx = Ctx()
    if path.stem in NOT_ISOLATED:
        assert not ctx.basis(ideal_J(p, ctx)).is_finite()
        return
    assert_colength_matches_oracle(ideal_J(p, ctx), ctx)
    _, good = find_good_coordinates(p, ctx)
    denoms = residue_denominators(good, ctx)
    assert_colength_matches_oracle(denoms, ctx)
    assert_lifts_certify(denoms, ctx)


def assert_residues_match_bezoutian(numerators, denoms, ctx):
    oracle = BezoutResidue(denoms, ctx)
    for h in numerators:
        assert grothendieck_residue(h, denoms, ctx) == oracle.value(h), h.render()


@pytest.mark.parametrize("path", IDEALS, ids=lambda p: p.stem)
def test_mult_ideal_residues_match_the_bezoutian(path):
    gf = parse_germ_file(path.read_text())
    n = gf.nvars
    rng = random.Random(path.stem)
    monomials = [Poly.monomial(n, [rng.randrange(4) for _ in range(n)])
                 for _ in range(8)]
    for denoms in (list(gf.g) + list(gf.f), list(gf.f) + list(gf.g)):
        ctx = Ctx()
        numerators = [jacobian_minor(denoms, range(n), n)] + monomials
        assert_residues_match_bezoutian(numerators, denoms, ctx)


@pytest.mark.parametrize("path", [p for p in SURFACES
                                  if p.stem not in NOT_ISOLATED],
                         ids=lambda p: p.stem)
def test_corpus_germ_residues_match_the_bezoutian(path):
    gf = parse_germ_file(path.read_text())
    p = GermProblem(gf.nvars, gf.f, gf.omega, seed=gf.seed)
    ctx = Ctx()
    _, good = find_good_coordinates(p, ctx)
    denoms = residue_denominators(good, ctx)
    sd = germ_sigma(good, ctx)
    monomials = [Poly.monomial(good.nvars, e)
                 for e in ctx.basis(denoms).quotient_monomials]
    assert_residues_match_bezoutian([sd.sigma * sd.df] + monomials, denoms, ctx)


def search_from_one(i, sb, bound):
    """The least d <= bound with a zero normal form of z_i^d, searched
    from d = 1; None when there is none."""
    for d in range(1, bound + 1):
        power = Poly.monomial(sb.nvars, [d if j == i else 0
                                         for j in range(sb.nvars)])
        if normal_form(power, sb).is_zero():
            return d
    return None


def benchmark_residue_ideals():
    """Every ideal the benchmark takes minimal powers of, or could: each
    bench/ideals ideal and corpus mult ideal (g + f), and for each isolated
    corpus germ its index ideal J and, in good coordinates, (m_1, m_2, f)."""
    out = []
    for path in IDEALS + sorted((BENCH / "corpus").glob("mult-*.germ")):
        gf = parse_germ_file(path.read_text())
        out.append((path.stem, list(gf.g) + list(gf.f)))
    for path in SURFACES:
        if path.stem in NOT_ISOLATED:
            continue
        gf = parse_germ_file(path.read_text())
        p = GermProblem(gf.nvars, gf.f, gf.omega, seed=gf.seed)
        ctx = Ctx()
        _, good = find_good_coordinates(p, ctx)
        out.append((path.stem + " J", ideal_J(p, ctx)))
        out.append((path.stem + " (m_1, m_2, f)",
                    residue_denominators(good, ctx)))
    return out


def test_minimal_powers_equal_the_search_from_one():
    # the search starts at the staircase's pure power of z_i; below it no
    # power reduces, so it finds what the search from 1 finds
    started_above_one = 0
    for name, gens in benchmark_residue_ideals():
        sb = Ctx().basis(gens)
        if not colength(sb):     # the unit ideal: no residue to take
            continue
        bound = sb.max_quotient_degree() + 1
        for i in range(sb.nvars):
            want = search_from_one(i, sb, bound)
            assert minimal_power(i, sb, bound) == want, (name, i)
            started_above_one += want > 1
    assert started_above_one > 50
