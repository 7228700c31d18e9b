"""Grothendieck residues: frozen values, symmetry laws, lift independence."""

import random
from fractions import Fraction

import pytest

from icisres import residues
from icisres.errors import NotRegularSequence
from icisres.germfile import parse_germ_file
from icisres.index import find_good_coordinates, minors
from icisres.localalg import (DEFAULT_CAP, Ctx, colength,
                              minimal_power_membership,
                              standard_basis, standard_basis_at)
from icisres.pairing import algebra_B, residue_functional
from icisres.polycore import Poly, mono_divides
from icisres.residues import (ResidueForm, form_index_basis,
                              grothendieck_residue,
                              intersection_multiplicity_both_ways,
                              jacobian_minor, lambda_map, lift_rows,
                              relative_residue, residue_form,
                              residue_via_lift)
from icisres.verify import builtin_corpus, random_poly

from oracle_bezout import BezoutResidue
from oracle_macaulay import corank, stable_corank

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
SPHERE = x3**2 + y3**2 + z3**2
ONE2 = Poly.const(2, Fraction(1))
ONE3 = Poly.const(3, Fraction(1))
# the accepted ideal of cor-mult trial 9 at seed 0: (f, g) has colength 2
TRIAL_NINE_F = (x3 * z3).scale(Fraction(-2)) + y3**2 + x3 + y3.scale(Fraction(2))
TRIAL_NINE_G = [x3**2 + (x3 * y3).scale(Fraction(2)) + (y3**2).scale(Fraction(2))
                - y3 * z3 + z3**2 + y3.scale(Fraction(3)),
                x3**2 + (x3 * y3).scale(Fraction(2)) + (x3 * z3).scale(Fraction(3))
                + y3.scale(Fraction(3))]


def test_residue_monomial_denominators():
    assert grothendieck_residue(ONE2, [X, Y]) == 1
    assert grothendieck_residue((X * Y**2).scale(Fraction(6)), [X**2, Y**3]) == 6
    assert grothendieck_residue(X, [X**2, Y**3]) == 0


def test_residue_antisymmetric_in_denominators():
    assert grothendieck_residue(ONE2, [Y, X]) == -1
    rng = random.Random(11)
    for _ in range(6):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        h = Poly(2, {(a - 1, b - 1): Fraction(rng.randint(1, 5))})
        v = grothendieck_residue(h, [X**a, Y**b])
        w = grothendieck_residue(h, [Y**b, X**a])
        assert w == -v != 0


def test_residue_on_sphere_section():
    assert grothendieck_residue(z3.scale(Fraction(2)), [x3, y3, SPHERE]) == 2
    assert grothendieck_residue(z3, [x3, y3, SPHERE]) == 1
    assert grothendieck_residue(ONE3, [x3, y3, SPHERE]) == 0


def test_residue_input_validation():
    with pytest.raises(NotRegularSequence):
        grothendieck_residue(ONE2, [X])
    with pytest.raises(NotRegularSequence):
        grothendieck_residue(ONE2, [X, X])


def test_residue_rejects_mixed_variable_counts():
    # the residue of 1 over (x, y, z) is 1; a numerator in two variables
    # must not read as 0
    with pytest.raises(ValueError, match="numerator in 2 variables"):
        grothendieck_residue(ONE2, [x3, y3, z3])
    assert grothendieck_residue(ONE3, [x3, y3, z3]) == 1
    form = ResidueForm([x3, y3, z3])
    with pytest.raises(ValueError, match="numerator in 2 variables"):
        form.value(X)


def test_residue_rejects_an_empty_denominator_list():
    with pytest.raises(NotRegularSequence) as err:
        grothendieck_residue(ONE2, [])
    assert type(err.value) is NotRegularSequence
    assert str(err.value) == "empty denominator list"


def test_denominators_must_share_their_variable_count():
    with pytest.raises(ValueError, match="mix variable counts 2, 3"):
        grothendieck_residue(ONE3, [x3, y3, X])
    with pytest.raises(ValueError, match="mix variable counts 2, 3"):
        ResidueForm([X, y3, z3])


def test_residue_unit_denominator_gives_zero():
    assert grothendieck_residue(ONE2, [X + ONE2, Y]) == 0


def test_residue_zero_numerator():
    assert grothendieck_residue(Poly.zero(2), [X, Y]) == 0


def test_zero_numerator_passes_the_regularity_gate():
    # (x, x) is not a regular sequence, whatever the numerator
    for h in (ONE2, Poly.zero(2)):
        with pytest.raises(NotRegularSequence):
            grothendieck_residue(h, [X, X])


def test_residue_linearity():
    rng = random.Random(12)
    denoms = [X**2 + Y**3, Y**2]
    for _ in range(8):
        h1 = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                      for _ in range(3)})
        h2 = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                      for _ in range(3)})
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        lhs = grothendieck_residue(h1.scale(a) + h2.scale(b), denoms)
        rhs = a * grothendieck_residue(h1, denoms) + b * grothendieck_residue(h2, denoms)
        assert lhs == rhs


def test_residue_vanishes_on_denominator_ideal():
    denoms = [X**2 + Y**3, Y**2]
    rng = random.Random(13)
    for _ in range(8):
        g = denoms[rng.randrange(2)]
        h = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                     for _ in range(2)})
        assert grothendieck_residue(g * h, denoms) == 0


def test_residue_unimodular_denominator_change():
    # det-one mixing of the denominators preserves the value
    denoms = [X**2 + Y**3, Y**2]
    h = X * Y
    base = grothendieck_residue(h, denoms)
    assert base != 0
    rng = random.Random(14)
    for _ in range(6):
        c = Fraction(rng.randint(-2, 2))
        mixed = [denoms[0] + denoms[1].scale(c), denoms[1]]
        assert grothendieck_residue(h, mixed) == base
        mixed2 = [denoms[0], denoms[1] + denoms[0].scale(c)]
        assert grothendieck_residue(h, mixed2) == base


def test_residue_multiplicative_denominator_scaling():
    h = X * Y
    denoms = [X**2 + Y**3, Y**2]
    base = grothendieck_residue(h, denoms)
    scaled = [denoms[0].scale(Fraction(3)), denoms[1]]
    assert grothendieck_residue(h, scaled) == base / 3


def test_residue_caps_recorded():
    ctx = Ctx()
    grothendieck_residue(z3.scale(Fraction(2)), [x3, y3, SPHERE], ctx)
    assert ctx.caps_used["residue"] >= 12


def test_lift_rows_shape_and_validity():
    denoms = [x3, y3, SPHERE]
    rows = lift_rows(denoms, [1, 1, 2], cap=12)
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    pows = [x3, y3, z3**2]
    for i in range(3):
        acc = sum((rows[i][j] * denoms[j] for j in range(3)), Poly.zero(3))
        defect = acc - pows[i]
        assert defect.is_zero() or defect.min_degree() > 12


def test_residue_via_lift_matches_engine():
    num = (X * Y**2).scale(Fraction(6))
    denoms = [X**2, Y**3]
    rows = lift_rows(denoms, [2, 3], cap=10)
    assert residue_via_lift(num, rows, [2, 3]) == 6


def test_lift_rows_lifts_the_given_power():
    # X^2 is the least power of X in (X^2, Y^3), but row 0 must lift X^3:
    # the residue of X Y^2 over (X^3, Y^3) is 1
    rows = lift_rows([X**2, Y**3], [3, 3], cap=12)
    assert rows[0] == [X, Poly.zero(2)]
    assert residue_via_lift(X * Y**2, rows, [3, 3]) == 1


def test_residue_lift_independence():
    # a syzygy perturbation of any two rows leaves the value fixed
    denoms = [X**2 + Y**3, Y**2]
    powers = [p for p in _powers_of(denoms)]
    num = X * Y
    rows = lift_rows(denoms, powers, cap=14)
    base = residue_via_lift(num, rows, powers, det_cap=10)
    assert base == grothendieck_residue(num, denoms)
    rng = random.Random(15)
    for _ in range(5):
        c = Fraction(rng.randint(-3, 3))
        i = rng.randrange(2)
        pert = [list(r) for r in rows]
        pert[i][0] = pert[i][0] + denoms[1].scale(c)
        pert[i][1] = pert[i][1] - denoms[0].scale(c)
        assert residue_via_lift(num, pert, powers, det_cap=10) == base


def _powers_of(denoms):
    from icisres.localalg import minimal_power_membership
    out = []
    for i in range(len(denoms)):
        d, _ = minimal_power_membership(i, denoms, max_power=8)
        out.append(d)
    return out


def test_jacobian_minor():
    f = [x3**2 + y3 * z3]
    assert jacobian_minor(f, [0], 3) == x3.scale(Fraction(2))
    assert jacobian_minor(f, [2], 3) == y3
    two = [x3 + y3, y3 + z3]
    m = jacobian_minor(two, [0, 1], 3)
    assert m == ONE3


def test_jacobian_minor_empty_is_one():
    assert jacobian_minor((), (), 2) == Poly.const(2, Fraction(1))


def test_form_index_basis():
    assert form_index_basis(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert form_index_basis(2, 2) == [(0, 1)]
    assert form_index_basis(3, 0) == [()]


def test_lambda_map_ambient_passthrough():
    # q = 0: the n-form coefficient passes through unchanged
    h = X * Y
    assert lambda_map([h], [], 2) == h


def test_lambda_map_signs():
    # f = y, slot (0, 2): complement (1), shuffle (0, 2, 1) is odd
    form = [Poly.zero(3), ONE3, Poly.zero(3)]
    assert lambda_map(form, [y3], 3) == -ONE3
    # slot (1, 2): complement (0), shuffle (1, 2, 0) is even
    form2 = [Poly.zero(3), Poly.zero(3), ONE3]
    assert lambda_map(form2, [x3], 3) == ONE3


def test_lambda_map_sphere():
    form = [Poly.const(3, Fraction(4)), Poly.zero(3), Poly.zero(3)]
    assert lambda_map(form, [SPHERE], 3) == z3.scale(Fraction(8))


def test_relative_residue_sphere():
    form = [ONE3, Poly.zero(3), Poly.zero(3)]
    assert relative_residue(form, [y3, x3], [SPHERE]) == -2
    assert relative_residue(form, [x3, y3], [SPHERE]) == 2


def test_relative_residue_arity():
    with pytest.raises(NotRegularSequence):
        relative_residue([ONE3, Poly.zero(3), Poly.zero(3)], [x3], [SPHERE])


def test_intersection_multiplicity_pairs():
    assert intersection_multiplicity_both_ways([], [X, Y]) == (1, Fraction(1))
    assert intersection_multiplicity_both_ways([SPHERE], [y3, x3]) == (2, Fraction(2))
    assert intersection_multiplicity_both_ways([], [X**2, Y**3]) == (6, Fraction(6))
    assert intersection_multiplicity_both_ways([], [X**2 - Y, Y**2]) == (4, Fraction(4))


def test_intersection_multiplicity_rejects_wrong_dimension():
    with pytest.raises(NotRegularSequence):
        intersection_multiplicity_both_ways([], [X, X])


def test_intersection_multiplicity_rejects_a_wrong_count_after_the_colength():
    # (x, y, x + y) has colength 1; the residue's denominator check names
    # the count
    with pytest.raises(NotRegularSequence, match="^3 denominators in 2 "):
        intersection_multiplicity_both_ways([], [X, Y, X + Y])


# the multiplicity's numerator: one Jacobian determinant ---------------------

def test_laplace_expansion_gives_the_multiplicity_numerator():
    # wedging the minors of g with df_1 ^ ... ^ df_q is the generalized
    # Laplace expansion of det d(g, f)/dz along its first len(g) rows
    rng = random.Random(21)
    for n in range(2, 5):
        for q in range(n):
            for _ in range(34):
                f = [random_poly(rng, n, 3) for _ in range(q)]
                g = [random_poly(rng, n, 3) for _ in range(n - q)]
                form = [jacobian_minor(g, I, n)
                        for I in form_index_basis(n, len(g))]
                assert (lambda_map(form, f, n)
                        == jacobian_minor(g + f, range(n), n))


def test_the_multiplicity_residue_is_the_relative_residue_of_dg():
    # relative_residue, with lambda_map's signed sum of minors, is the
    # reference for the one determinant the multiplicity reads
    rng = random.Random(22)
    checked = 0
    for t in range(24):
        q = t % 2
        n = q + 2
        f = [random_poly(rng, n, 3) for _ in range(q)]
        g = [random_poly(rng, n, 3) for _ in range(n - q)]
        ctx = Ctx()
        try:
            lhs, rhs = intersection_multiplicity_both_ways(f, g, ctx)
        except NotRegularSequence:
            continue
        form = [jacobian_minor(g, I, n) for I in form_index_basis(n, len(g))]
        assert rhs == relative_residue(form, g, f, ctx) == lhs
        checked += 1
    assert checked >= 12


# (y - x^2, y^d) is zero dimensional of colength 2d, but its staircase has
# the pure power x^(2d): at a start cap below 2d the truncated runs miss it
# and call the ideal infinite (ROADMAP item 1)

@pytest.mark.xfail(raises=NotRegularSequence, strict=True,
                   reason="ROADMAP item 1: an infinite staircase is accepted "
                          "once the runs at c and c + CAP_STEP agree")
def test_parabola_power_colength_at_the_default_cap():
    assert intersection_multiplicity_both_ways([], [Y - X**2, Y**9]) == (18, 18)


def test_parabola_power_colength_when_the_cap_reaches_it():
    assert intersection_multiplicity_both_ways(
        [], [Y - X**2, Y**9], Ctx(cap=18)) == (18, 18)


@pytest.mark.parametrize("d", range(2, 9))
def test_parabola_power_family_below_the_default_cap(d):
    # (y - x^2, y^d) = (y - x^2, x^(2d)); for d = 7 and 8 the staircase is
    # infinite at the default cap and the check run at cap 16 is finite
    assert intersection_multiplicity_both_ways(
        [], [Y - X**2, Y**d]) == (2 * d, 2 * d)
    denoms = [Y - X**2, Y**d]
    oracle = BezoutResidue(denoms)
    for h in [jacobian_minor(denoms, range(2), 2)] + [X**k for k in range(2 * d)]:
        assert grothendieck_residue(h, denoms) == oracle.value(h)


# deeper seeded ideals against the Macaulay oracle ---------------------------
#
# corank(D) - corank(D - 1) = dim (I + m^D) / (I + m^(D+1)).  Once it is 0,
# m^D lies in I by Nakayama's lemma, so a rise at degree D means that no
# power of m up to m^D lies in I.  That is the oracle's bounded check of an
# infinite verdict: the engine judges at DEFAULT_CAP, and the oracle looks
# as far.

DEEP_DRAWS = [(n, degree, k) for n in (2, 3) for degree in (3, 4)
              for k in range(9)]


def _deep_draw(n, degree, k):
    """n generators in n variables of degree at most degree, seeded."""
    rng = random.Random(f"{n}-{degree}-{k}")
    return [random_poly(rng, n, degree) for _ in range(n)]


@pytest.mark.parametrize("n, degree, k", DEEP_DRAWS,
                         ids=[f"n{n}-deg{d}-{k}" for n, d, k in DEEP_DRAWS])
def test_deeper_ideals_against_the_macaulay_oracle(n, degree, k):
    gens = _deep_draw(n, degree, k)
    sb = standard_basis(gens)
    if sb.is_finite():
        length = colength(sb)
        assert intersection_multiplicity_both_ways([], gens) == (length,
                                                                 length)
        assert length == stable_corank(gens)
    else:
        assert corank(gens, DEFAULT_CAP) > corank(gens, DEFAULT_CAP - 1)


def test_the_deeper_draws_reach_both_verdicts():
    finite = sum(standard_basis(_deep_draw(*d)).is_finite() for d in DEEP_DRAWS)
    assert 0 < finite < len(DEEP_DRAWS)


# draw (3, 4, 5) is zero dimensional of colength 29: the oracle's coranks
# at degrees 18 and 19 are both 29, which puts m^19 in I (seconds each, too
# slow for this suite).  Its staircase holds the pure power z^19, which the
# runs at 12 and 16 both miss, so they agree on an infinite staircase
# (ROADMAP item 1).  At Ctx(cap=20) its residue needs a tracked lift at term
# cap 48 on the box of the powers (7, 5, 19): Res(Jac g) = 29 in about 7 s
# on one core, too slow for this suite.

@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 1: an infinite staircase is accepted "
                          "once the runs at c and c + CAP_STEP agree")
def test_a_deep_draw_is_finite_at_the_default_cap():
    assert colength(standard_basis(_deep_draw(3, 4, 5))) == 29


def test_a_deep_draw_is_finite_when_the_cap_reaches_it():
    gens = _deep_draw(3, 4, 5)
    sb = standard_basis(gens, cap=20)
    assert (sb.cap, colength(sb), sb.max_quotient_degree()) == (20, 29, 18)
    assert (0, 0, 19) in sb.staircase


# residue forms ---------------------------------------------------------------

def _per_call_residue(h, denoms, cap=12):
    """Reference: one residue with a tracked probe and lifts at full depth."""
    base = standard_basis(denoms, cap=cap)
    if colength(base) == 0:
        return Fraction(0)
    t = base.max_quotient_degree()
    probe = standard_basis_at(denoms, max(cap, t + 1), track=True)
    powers = [minimal_power_membership(i, denoms, max_power=t + 1, sb=probe)[0]
              for i in range(len(denoms))]
    big = sum(powers) - len(powers)
    work_cap = max(cap, big + t + 2, big + h.total_degree())
    return residue_via_lift(h, lift_rows(denoms, powers, work_cap), powers)


def test_form_matches_per_call_residue_on_corpus_algebras():
    for name, p in builtin_corpus():
        _, good = find_good_coordinates(p)
        ms = minors(good)
        denoms = [ms[0], ms[1]] + list(good.f)
        alg = algebra_B(good)
        fn = residue_functional(good)
        form = ResidueForm(denoms)
        for e in alg.basis:
            h = Poly.monomial(good.nvars, e, 1)
            expected = _per_call_residue(h, denoms)
            assert form.value(h) == expected, (name, e)
            assert fn.value(h) == expected, (name, e)


def test_form_finds_powers_off_the_staircase():
    # x lies in the leading ideal of (x - y^2, y^3) but only x^2 in the ideal
    denoms = [X - Y**2, Y**3]
    form = ResidueForm(denoms)
    assert form.powers == (2, 3)
    for h in (ONE2, Y, Y**2, X * Y, X + (Y**2).scale(Fraction(3))):
        assert form.value(h) == _per_call_residue(h, denoms)


def test_form_lifts_once_for_many_numerators(monkeypatch):
    tracked = []
    real = residues.standard_basis_at

    def counting(*args, **kwargs):
        tracked.append(kwargs.get("track"))
        return real(*args, **kwargs)

    monkeypatch.setattr(residues, "standard_basis_at", counting)
    denoms = [X**2 + Y**3, Y**2]
    ctx = Ctx()
    form = residue_form(denoms, ctx)
    assert (form.powers, form.big, form.height) == ((2, 2), 2, 2)
    assert tracked == [] and ctx.caps_used == {}
    for a in range(3):
        for b in range(3):
            h = X**a * Y**b
            assert form.value(h) == grothendieck_residue(h, denoms)
            assert grothendieck_residue(h, denoms, ctx) == form.value(h)
    # the form lifted once and grothendieck_residue on ctx read that form;
    # each call without a ctx built its own
    assert tracked == [True] * 10
    assert ctx.caps_used == {"residue": 12}
    # the box is proved for numerators of every degree: degree 11 lifts
    # nothing more
    del tracked[:]
    assert form.value(X * Y**10) == 0
    assert grothendieck_residue(X * Y + X**11, denoms, ctx) == form.value(X * Y)
    assert ctx.caps_used == {"residue": 12} and tracked == []


BOX_CASES = [
    ([X**2 + Y**3, Y**2], [ONE2, X * Y, X + Y, (X * Y).scale(Fraction(5)) + Y]),
    ([X - Y**2, Y**3], [Y**2, X * Y**2, X + Y]),
    ([x3, y3, SPHERE], [z3, ONE3 + z3, x3 * z3]),
    # with the numerator intersection_multiplicity_both_ways builds
    (TRIAL_NINE_G + [TRIAL_NINE_F],
     [ONE3, x3 + y3, lambda_map([jacobian_minor(TRIAL_NINE_G, I, 3)
                                 for I in form_index_basis(3, 2)],
                                [TRIAL_NINE_F], 3)]),
]


def _box_part(p, box):
    return Poly(p.nvars, {e: c for e, c in p.terms.items()
                          if mono_divides(e, box)})


def test_lift_rows_on_the_box_keep_the_residue():
    for denoms, numerators in BOX_CASES:
        form = ResidueForm(denoms)
        box = tuple(d - 1 for d in form.powers)
        full = lift_rows(denoms, form.powers, form.cap)
        cut = lift_rows(denoms, form.powers, form.cap, box=box)
        for row_full, row_cut in zip(full, cut):
            assert row_cut == [_box_part(a, box) for a in row_full]
        for h in numerators:
            value = residue_via_lift(h, full, form.powers)
            assert residue_via_lift(h, cut, form.powers) == value
            assert form.value(h) == value
            # four steps up the term cap gives the same value, as the
            # residues module docstring proves
            assert form.cap == max(DEFAULT_CAP, form.big + form.height + 2)
            rows = lift_rows(denoms, form.powers, form.cap + 4, box=box)
            assert residue_via_lift(h, rows, form.powers) == value


def test_a_box_one_lower_changes_a_residue():
    # control: the box is tight, so a corner one lower in one coordinate
    # misreads some residue of the case list
    changed = []
    for denoms, numerators in BOX_CASES:
        form = ResidueForm(denoms)
        box = tuple(d - 1 for d in form.powers)
        for i in range(len(box)):
            if box[i] == 0:
                continue
            low = tuple(e - (j == i) for j, e in enumerate(box))
            rows = lift_rows(denoms, form.powers, form.cap, box=low)
            changed += [(denoms, i, h) for h in numerators
                        if residue_via_lift(h, rows, form.powers)
                        != form.value(h)]
    assert changed


def test_a_built_box_tracks_no_term_outside_it(monkeypatch):
    built = []
    real = residues.standard_basis_at

    def keeping(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(residues, "standard_basis_at", keeping)
    for denoms, numerators in BOX_CASES:
        form = ResidueForm(denoms)
        del built[:]
        form.value(numerators[0])
        [sb] = built
        box = tuple(d - 1 for d in form.powers)
        assert sb.tracked and sb.box == box
        kernel = sb._kernel
        terms = [kernel.unpack(m) for g in kernel.elems for row in g.rep
                 for m, _ in row]
        assert terms and all(mono_divides(e, box) for e in terms)


# ROADMAP item 7's family one degree down: colength 18 and powers (6, 6, 6),
# so the box holds 216 monomials, of the 816 of degree <= big = 15
HEAVY = ["x^3 + y^4 + z^5 + x*y*z", "x^4 + y^3 + z*x^2", "(x + y + z)^2 + z^6"]


def test_a_heavy_three_variable_ideal_against_the_bezoutian():
    gf = parse_germ_file("vars = x, y, z\nomega = 0, 0, 0\ng = "
                         + ", ".join(HEAVY) + "\n")
    g = list(gf.g)
    ctx = Ctx()
    form = residue_form(g, ctx)
    assert (colength(ctx.basis(g)), form.powers) == (18, (6, 6, 6))
    assert form.value(jacobian_minor(g, range(3), 3)) == 18
    oracle = BezoutResidue(g, ctx)
    rng = random.Random("heavy")
    monomials = [Poly.monomial(3, [rng.randrange(6) for _ in range(3)])
                 for _ in range(8)]
    monomials += [Poly.monomial(3, e)
                  for e in ctx.basis(g).quotient_monomials]
    values = [form.value(h) for h in monomials]
    assert values == [oracle.value(h) for h in monomials]
    assert sum(v != 0 for v in values) >= 3


def _deep_numerator(rng, powers, high):
    """Random terms below the powers, plus terms of degree high and high + 2."""
    n = len(powers)
    terms = {tuple(rng.randrange(d) for d in powers): Fraction(rng.randint(1, 5))
             for _ in range(3)}
    for top in (high, high + 2):
        e = [0] * n
        for _ in range(top):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5) or 1)
    return Poly(n, terms)


def test_form_matches_the_numerator_margin_lift_on_deep_numerators():
    # the lift used to grow with the numerator, to term cap
    # max(cap, big + deg h); the box at max(cap, big + t + 2) gives the same
    # residue for numerators past that cap
    rng = random.Random(18)
    cases = [[X**2 + Y**3, Y**2], [X - Y**2, Y**3], [x3, y3, SPHERE],
             TRIAL_NINE_G + [TRIAL_NINE_F]]
    for name in ("diag-3-3", "e8-sum"):
        _, good = find_good_coordinates(dict(builtin_corpus())[name])
        ms = minors(good)
        cases.append([ms[0], ms[1]] + list(good.f))
    nonzero = 0
    for denoms in cases:
        form = ResidueForm(denoms)
        bound = form.big + form.height + 2
        for _ in range(3):
            h = _deep_numerator(rng, form.powers, bound + 1)
            assert h.total_degree() > bound
            margin = max(DEFAULT_CAP, form.big + h.total_degree())
            rows = lift_rows(denoms, form.powers, margin)
            assert form.value(h) == residue_via_lift(h, rows, form.powers)
            nonzero += form.value(h) != 0
    assert nonzero >= 9


def test_trial_nine_ideal_against_macaulay_oracle():
    f, g = TRIAL_NINE_F, TRIAL_NINE_G
    assert stable_corank([f] + g) == 2
    assert intersection_multiplicity_both_ways([f], g) == (2, Fraction(2))
