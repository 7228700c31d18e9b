"""Grothendieck residues: frozen values, symmetry laws, lift independence."""

import random
from fractions import Fraction

import pytest

from icisres import residues
from icisres.errors import CapExceeded, NotRegularSequence
from icisres.index import find_good_coordinates, minors
from icisres.localalg import (Ctx, colength, minimal_power_membership,
                              standard_basis, standard_basis_at)
from icisres.pairing import algebra_B, residue_functional
from icisres.polycore import Poly
from icisres.residues import (ResidueForm, form_index_basis,
                              grothendieck_residue,
                              intersection_multiplicity_both_ways,
                              jacobian_minor, lambda_map, lift_rows,
                              monomial_residue, relative_residue,
                              residue_via_lift)
from icisres.verify import builtin_corpus

from oracle_macaulay import stable_corank

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
SPHERE = x3**2 + y3**2 + z3**2
ONE2 = Poly.const(2, Fraction(1))
ONE3 = Poly.const(3, Fraction(1))


def test_monomial_residue():
    h = (X * Y**2).scale(Fraction(6)) + X**3
    assert monomial_residue(h, [2, 3]) == 6
    assert monomial_residue(h, [4, 1]) == 1
    assert monomial_residue(h, [1, 1]) == 0
    with pytest.raises(ValueError):
        monomial_residue(h, [2, 0])
    with pytest.raises(ValueError):
        monomial_residue(h, [2])


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


def test_residue_unit_denominator_gives_zero():
    assert grothendieck_residue(ONE2, [X + ONE2, Y]) == 0


def test_residue_zero_numerator():
    assert grothendieck_residue(Poly.zero(2), [X, Y]) == 0


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
        denoms = [ms.principal[0], ms.principal[1]] + list(good.f)
        alg = algebra_B(good)
        fn = residue_functional(good)
        form = ResidueForm(denoms)
        for e in alg.basis:
            h = Poly.monomial(good.nvars, e, 1)
            expected = _per_call_residue(h, denoms)
            assert form.value(h) == expected, (name, e)
            assert fn.values[e] == expected, (name, e)


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
    form = ResidueForm(denoms, ctx)
    assert (form.powers, form.big, form.height) == ((2, 2), 2, 2)
    for a in range(3):
        for b in range(3):
            h = X**a * Y**b
            assert form.value(h) == grothendieck_residue(h, denoms)
    # the nine form values shared one lift and its recheck; each
    # grothendieck_residue call built its own pair
    assert tracked == [True, True] * 10
    assert ctx.caps_used == {"residue": 12}
    # a numerator of degree 11 asks for cap big + 11 = 13: one more pair
    del tracked[:]
    assert form.value(X * Y**10) == 0
    assert ctx.caps_used == {"residue": 13} and tracked == [True, True]


def test_lift_rows_rep_cap_keeps_the_residue():
    cases = [
        ([X**2 + Y**3, Y**2], [ONE2, X * Y, X + Y, (X * Y).scale(Fraction(5)) + Y]),
        ([X - Y**2, Y**3], [Y**2, X * Y**2, X + Y]),
        ([x3, y3, SPHERE], [z3, ONE3 + z3, x3 * z3]),
    ]
    for denoms, numerators in cases:
        form = ResidueForm(denoms)
        rep_cap = form.big + form.height + 2
        full = lift_rows(denoms, form.powers, 14)
        cut = lift_rows(denoms, form.powers, 14, rep_cap=rep_cap)
        for row_full, row_cut in zip(full, cut):
            for a, b in zip(row_full, row_cut):
                assert b == a.truncate(rep_cap)
        for h in numerators:
            value = residue_via_lift(h, full, form.powers)
            assert residue_via_lift(h, cut, form.powers) == value
            assert form.value(h) == value


def test_trial_nine_ideal_against_macaulay_oracle():
    # the accepted ideal of cor-mult trial 9 at seed 0: colength 2
    f = (x3 * z3).scale(Fraction(-2)) + y3**2 + x3 + y3.scale(Fraction(2))
    g = [x3**2 + (x3 * y3).scale(Fraction(2)) + (y3**2).scale(Fraction(2))
         - y3 * z3 + z3**2 + y3.scale(Fraction(3)),
         x3**2 + (x3 * y3).scale(Fraction(2)) + (x3 * z3).scale(Fraction(3))
         + y3.scale(Fraction(3))]
    assert stable_corank([f] + g) == 2
    assert intersection_multiplicity_both_ways([f], g) == (2, Fraction(2))


def test_form_recheck_rejects_disagreeing_boxes(monkeypatch):
    real = residues.lift_rows

    def drifting(denoms, powers, cap, rep_cap=None):
        rows = real(denoms, powers, cap, rep_cap=rep_cap)
        if cap > 12:
            rows[0][0] = rows[0][0] + ONE2
        return rows

    monkeypatch.setattr(residues, "lift_rows", drifting)
    with pytest.raises(CapExceeded, match=r"cap 12 \(rep cap 2\).*"
                                          r"cap 16 \(rep cap 6\)"):
        grothendieck_residue(ONE2, [X, Y])
