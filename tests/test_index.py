"""Index layer: minors, sigma, the two index computations, curve case."""

import random
from fractions import Fraction

import pytest

from icisres.errors import GoodCoordsNotFound, NotIsolated
from icisres import index
from icisres.index import (CoordinateChange, GermProblem, curve_index,
                           eg_index, find_good_coordinates, germ_residue,
                           ideal_J, identity_change, main_residue, minor,
                           minors, sigma_data, solve)
from icisres.localalg import Ctx, standard_basis
from icisres.pairing import pairing_report
from icisres.polycore import Poly

N3 = ("x", "y", "z")
N2 = ("x", "y")
X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
ONE3 = Poly.const(3, Fraction(1))
SPHERE = x3**2 + y3**2 + z3**2


def sphere_dz():
    return GermProblem(3, (SPHERE,), (Poly.zero(3), Poly.zero(3), ONE3))


def diagonal(k, l):
    return GermProblem(2, (), (X**k, Y**l))


def test_germ_problem_validation():
    with pytest.raises(ValueError):
        GermProblem(3, (SPHERE,), (ONE3, ONE3))
    with pytest.raises(ValueError):
        GermProblem(3, (SPHERE + ONE3,), (ONE3, ONE3, ONE3))
    p = sphere_dz()
    assert p.q == 1
    p.require_surface()
    with pytest.raises(ValueError):
        GermProblem(2, (X,), (X, Y)).require_surface()


def test_minors_sphere_dz():
    ms = minors(sphere_dz())
    assert [m.render(N3) for m in ms.principal] == ["2*y", "2*x", "0"]
    assert set(ms.all.keys()) == {(0, 1), (0, 2), (1, 2)}


def test_minor_alternating():
    p = GermProblem(3, (SPHERE,), (Poly.zero(3), ONE3, Poly.zero(3)))
    assert minor(p, (0, 1)) == x3.scale(Fraction(2))
    assert minor(p, (1, 0)) == x3.scale(Fraction(-2))
    assert minor(p, (0, 0)).is_zero()


def test_sigma_sphere_dz():
    sd = sigma_data(sphere_dz())
    assert sd.sigma == Poly.const(3, Fraction(4))
    assert sd.df == z3.scale(Fraction(2))
    rendered = [[e.render(N3) for e in row] for row in sd.m_matrix]
    assert rendered == [["0", "-2", "0"], ["2", "0", "0"], ["0", "0", "0"]]


def test_sigma_transpose_invariant():
    # sigma, a sum of principal 2x2 minors, is the same for the transpose
    for p in (sphere_dz(), diagonal(2, 3)):
        sd = sigma_data(p)
        n = p.nvars
        mat = [[sd.m_matrix[j][i] for j in range(n)] for i in range(n)]
        transposed = Poly.zero(n)
        for i in range(n):
            for j in range(i + 1, n):
                transposed = transposed + (mat[i][i] * mat[j][j]
                                           - mat[i][j] * mat[j][i])
        assert transposed == sd.sigma


def test_sigma_smooth_model_is_one():
    # x dx + y dy on the plane: the index of the origin is exactly 1,
    # pinning the global sign of the whole pipeline
    p = diagonal(1, 1)
    assert sigma_data(p).sigma == Poly.const(2, Fraction(1))
    assert eg_index(p) == 1
    assert main_residue(p) == 1


def test_index_and_residue_sphere():
    p = sphere_dz()
    assert eg_index(p) == 2
    assert main_residue(p) == 2


def test_index_and_residue_diagonal_forms():
    for k, l in ((1, 1), (2, 3), (3, 3), (2, 2)):
        p = diagonal(k, l)
        assert eg_index(p) == k * l
        assert main_residue(p) == k * l
    assert sigma_data(diagonal(2, 3)).sigma == (X * Y**2).scale(Fraction(6))


def test_index_smooth_plane_section():
    p = GermProblem(3, (z3,), (x3, y3, Poly.zero(3)))
    ms = minors(p)
    assert [m.render(N3) for m in ms.principal] == ["-y", "-x", "0"]
    sd = sigma_data(p)
    assert sd.sigma == ONE3
    assert sd.df == ONE3
    assert eg_index(p) == 1
    assert main_residue(p) == 1


def test_ideal_membership_j_equals_b_for_unit_df():
    # when DF is a unit the two ideals coincide
    p = GermProblem(3, (z3,), (x3, y3, Poly.zero(3)))
    ms = minors(p)
    sb_j = standard_basis([g for g in ideal_J(p) if not g.is_zero()])
    sb_b = standard_basis([ms.principal[0], ms.principal[1], z3])
    assert sorted(sb_j.staircase) == sorted(sb_b.staircase)


def test_unit_minor_gives_index_zero():
    p = GermProblem(3, (z3,), (ONE3, Poly.zero(3), Poly.zero(3)))
    assert eg_index(p) == 0
    flat = GermProblem(2, (), (Poly.const(2, Fraction(1)), Poly.zero(2)))
    assert eg_index(flat) == 0
    assert main_residue(flat) == 0


def test_not_isolated():
    cyl = GermProblem(3, (x3**2 + y3**2,), (Poly.zero(3), Poly.zero(3), ONE3))
    with pytest.raises(NotIsolated):
        eg_index(cyl)


def test_caps_recorded():
    ctx = Ctx()
    eg_index(sphere_dz(), ctx)
    assert ctx.caps_used["index"] >= 12


def test_germ_residue_matches_main():
    p = sphere_dz()
    assert germ_residue(p, sigma_data(p).sigma) == main_residue(p)
    assert germ_residue(p, Poly.zero(3)) == 0


def test_coordinate_change_identity():
    c = identity_change(3)
    assert c.is_identity()
    assert c.determinant() == 1
    p = sphere_dz()
    q = c.apply(p)
    assert q.f == p.f and q.omega == p.omega


def test_coordinate_change_preserves_index():
    rng = random.Random(21)
    p = diagonal(1, 1)
    found = 0
    while found < 4:
        mat = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
                    for _ in range(2))
        c = CoordinateChange(mat)
        if c.determinant() == 0:
            continue
        found += 1
        q = c.apply(p)
        assert eg_index(q) == 1
        assert main_residue(q) == 1


def test_coordinate_change_composition():
    a = CoordinateChange(((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))))
    b = CoordinateChange(((Fraction(1), Fraction(0)), (Fraction(3), Fraction(1))))
    p = diagonal(2, 3)
    ab = tuple(tuple(sum(a.matrix[i][k] * b.matrix[k][j] for k in range(2))
                     for j in range(2)) for i in range(2))
    assert b.apply(a.apply(p)).f == CoordinateChange(ab).apply(p).f
    assert b.apply(a.apply(p)).omega == CoordinateChange(ab).apply(p).omega


def test_find_good_coordinates_identity_when_already_good():
    c, q = find_good_coordinates(sphere_dz())
    assert c.is_identity()
    assert q.f == sphere_dz().f


def test_find_good_coordinates_random_when_degenerate():
    # dx on the sphere: m_1 vanishes in the given frame, a generic linear
    # change fixes it, and by symmetry the index still equals 2
    p = GermProblem(3, (SPHERE,), (ONE3, Poly.zero(3), Poly.zero(3)), seed=2)
    c, q = find_good_coordinates(p)
    assert not c.is_identity()
    assert eg_index(q) == 2
    assert main_residue(q) == 2


def test_find_good_coordinates_failure():
    p = GermProblem(3, (SPHERE,), (Poly.zero(3),) * 3)
    with pytest.raises(GoodCoordsNotFound):
        find_good_coordinates(p, Ctx(attempts=4))


def test_solve_report():
    rep = solve(sphere_dz())
    assert rep.index == 2 and rep.residue == 2
    assert rep.match
    assert rep.change.is_identity()
    assert rep.sigma == Poly.const(3, Fraction(4))
    assert rep.df == z3.scale(Fraction(2))
    assert rep.caps_used["index"] >= 12
    assert rep.caps_used["residue"] >= 12



def test_solve_and_pairing_evaluate_each_minor_once(monkeypatch):
    # one Ctx per call: every layer reads the germ's minors from it
    real = index.minor
    evaluated = []

    def counting(p, columns):
        evaluated.append((p, tuple(columns)))
        return real(p, columns)

    monkeypatch.setattr(index, "minor", counting)
    moved = GermProblem(3, (SPHERE,), (ONE3, Poly.zero(3), Poly.zero(3)),
                        seed=2)
    for germ in (sphere_dz(), moved):
        for run in (solve, pairing_report):
            evaluated.clear()
            run(germ)
            assert len(evaluated) >= 3
            assert len(evaluated) == len(set(evaluated))

def test_curve_index_cusp():
    cusp = X**2 - Y**3
    assert curve_index((cusp,), (Poly.zero(2), Poly.const(2, Fraction(1)))) == 3
    assert curve_index((cusp,), (Poly.const(2, Fraction(1)), Poly.zero(2))) == 4
    assert curve_index((cusp,), (X.scale(Fraction(2)), Y)) == 5


def test_curve_index_smooth():
    # x dx + y dy restricted to the line y = 0
    assert curve_index((Y,), (X, Y)) == 1
    # unit 1-form never vanishes
    assert curve_index((Y,), (Poly.const(2, Fraction(1)), Poly.zero(2))) == 0


def test_curve_index_not_isolated():
    with pytest.raises(NotIsolated):
        curve_index((Y,), (Y, X))


def test_curve_index_arity():
    with pytest.raises(ValueError):
        curve_index((Y, X), (X, Y))
