"""Index layer: minors, sigma, the two index computations, curve case."""

import random
from fractions import Fraction

import pytest

from icisres.errors import ArityError, GoodCoordsNotFound, NotIsolated
from icisres import index
from icisres.index import (CoordinateChange, GermProblem, curve_index,
                           eg_index, find_good_coordinates, germ_residue,
                           ideal_J, identity_change, main_residue, minor,
                           minors, residue_denominators, sigma_data, solve)
from icisres.localalg import DEFAULT_CAP, Ctx, standard_basis
from icisres.pairing import pairing_report
from icisres.polycore import Poly, det
from icisres import residues, verify
from icisres.residues import jacobian_minor, relative_residue

N3 = ("x", "y", "z")
N2 = ("x", "y")
X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
ONE3 = Poly.const(3, Fraction(1))
SPHERE = x3**2 + y3**2 + z3**2
x4, y4, z4, w4 = (Poly.variable(4, i) for i in range(4))
ONE4 = Poly.const(4, 1)


def sphere_dz():
    return GermProblem(3, (SPHERE,), (Poly.zero(3), Poly.zero(3), ONE3))


def diagonal(k, l):
    return GermProblem(2, (), (X**k, Y**l))


def test_germ_problem_validation():
    with pytest.raises(ValueError):
        GermProblem(3, (SPHERE,), (ONE3, ONE3))
    with pytest.raises(ValueError):
        GermProblem(3, (SPHERE + ONE3,), (ONE3, ONE3, ONE3))


@pytest.mark.parametrize("nvars, f, omega, message", [
    (2, (X,), (X, Y), "need 0 equations for 2 variables, got 1"),
    (3, (), (ONE3,) * 3, "need 1 equations for 3 variables, got 0"),
    (1, (), (Poly.variable(1, 0),), "need at least 2 variables, got 1"),
    (0, (), (), "need at least 2 variables, got 0"),
    # the shape is checked before omega's length
    (3, (), (ONE3,), "need 1 equations for 3 variables, got 0"),
])
def test_germ_problem_is_a_surface_by_construction(nvars, f, omega, message):
    with pytest.raises(ArityError) as exc:
        GermProblem(nvars, f, omega)
    assert str(exc.value) == "surface commands " + message


def test_minors_sphere_dz():
    ms = minors(sphere_dz())
    assert [m.render(N3) for m in ms] == ["2*y", "2*x", "0"]
    assert ideal_J(sphere_dz())[1:] == [ms[2], ms[1], ms[0]]
    assert residue_denominators(sphere_dz()) == [ms[0], ms[1], SPHERE]


def test_germ_residue_is_the_relative_residue_of_the_one_hot_form():
    # wedging h dz_1 ^ dz_2 with df gives h * DF: the residue needs no form
    rng = random.Random(3)
    for p in (sphere_dz(), diagonal(2, 3),
              GermProblem(3, (x3**2 + y3**3 + z3**5,), (ONE3,) * 3)):
        _, good = find_good_coordinates(p)
        ms = minors(good)
        n = good.nvars
        for _ in range(3):
            h = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                         Fraction(rng.randint(-3, 3)) for _ in range(3)})
            form = [h] + [Poly.zero(n)] * (n * (n - 1) // 2 - 1)
            assert germ_residue(good, h) == -relative_residue(
                form, [ms[0], ms[1]], list(good.f))


def test_minor_alternating(monkeypatch):
    p = GermProblem(3, (SPHERE,), (Poly.zero(3), ONE3, Poly.zero(3)))
    assert minor(p, (0, 1)) == x3.scale(Fraction(2))
    assert minor(p, (1, 0)) == x3.scale(Fraction(-2))
    # a wrong column count is refused before a repeat is looked for
    for columns in ((0,), (0, 0, 0), (0, 1, 2), ()):
        with pytest.raises(ValueError, match="need 2 column indices"):
            minor(p, columns)
    with pytest.raises(ValueError, match="need 1 column indices"):
        jacobian_minor(p.f, (0, 0), 3)

    # a repeated column is 0 in the germ's variables, with no expansion
    def forbidden(*args, **kwargs):
        raise AssertionError("a repeated column was expanded")

    monkeypatch.setattr(index, "series_determinant", forbidden)
    monkeypatch.setattr(residues, "series_determinant", forbidden)
    four = GermProblem(4, (x4 * y4 + z4 ** 2, w4 + x4 ** 2),
                       (ONE4, x4, y4 * z4, w4))
    for q, columns in ((p, (0, 0)), (p, (2, 2)), (four, (1, 3, 1)),
                       (four, (0, 0, 0)), (four, (2, 1, 2))):
        m = minor(q, columns)
        assert m.is_zero() and m.nvars == q.nvars
    for f, columns, n in ((four.f, (1, 1), 4), (four.f, (3, 3), 4),
                          (p.f * 3, (0, 2, 0), 3)):
        m = jacobian_minor(f, columns, n)
        assert m.is_zero() and m.nvars == n


def test_minors_are_the_column_omitting_minors():
    # one expansion gives every entry, signs and order as minor's
    rng = random.Random(7)
    for n in range(2, 7):
        for _ in range(3):
            p = verify._random_germ(rng, n, 2)
            assert minors(p) == tuple(
                minor(p, [j for j in range(n) if j != i]) for i in range(n))


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
    assert [m.render(N3) for m in ms] == ["-y", "-x", "0"]
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
    sb_b = standard_basis([ms[0], ms[1], z3])
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


def _parabola_power_form(d):
    """f = z, omega = (y - x^2, y^d, 0): an isolated zero of index 2d."""
    return GermProblem(3, (z3,), (y3 - x3**2, y3**d, Poly.zero(3)))


@pytest.mark.xfail(raises=NotIsolated, strict=True,
                   reason="ROADMAP item 1: an infinite staircase is accepted "
                          "once the runs at c and c + CAP_STEP agree")
def test_parabola_power_form_index_at_the_default_cap():
    assert eg_index(_parabola_power_form(12)) == 24


def test_parabola_power_form_index_when_the_cap_reaches_it():
    assert eg_index(_parabola_power_form(12), Ctx(cap=24)) == 24


def test_caps_recorded():
    # the index ideal's generators reach degree 2 and its staircase degree
    # 1, so the first run, at cap 2, proves it
    ctx = Ctx()
    eg_index(sphere_dz(), ctx)
    assert ctx.caps_used == {"index": 2}


def test_germ_residue_matches_main():
    p = sphere_dz()
    assert germ_residue(p, sigma_data(p).sigma) == main_residue(p)
    assert germ_residue(p, Poly.zero(3)) == 0


def test_coordinate_change_identity():
    c = identity_change(3)
    assert c.is_identity()
    assert det(c.matrix) == 1
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
        if mat[0][0] * mat[1][1] == mat[0][1] * mat[1][0]:
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
    ctx = Ctx()
    rep = solve(sphere_dz(), ctx)
    assert rep.index == 2 and rep.residue == 2
    assert rep.match
    assert rep.change.is_identity()
    assert rep.sigma == Poly.const(3, Fraction(4))
    assert rep.df == z3.scale(Fraction(2))
    # the cap that proved the index basis, and the residue lifts' floor cap
    assert ctx.caps_used == {"index": 2, "residue": DEFAULT_CAP}



def test_solve_and_pairing_evaluate_each_minor_once(monkeypatch):
    # one Ctx per call: every layer reads the germ's minors from it, and
    # one expansion gives all of a germ's minors
    real = index.minors
    evaluated = []

    def counting(p):
        evaluated.append(p)
        return real(p)

    monkeypatch.setattr(index, "minors", counting)
    moved = GermProblem(3, (SPHERE,), (ONE3, Poly.zero(3), Poly.zero(3)),
                        seed=2)
    for germ in (sphere_dz(), moved):
        for run in (solve, pairing_report):
            evaluated.clear()
            run(germ)
            assert evaluated[0] == germ
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
    # the one arity check, worded as the curve-index command prints it
    with pytest.raises(ArityError, match="^curve-index needs 1 equations "
                                         "for 2 variables, got 2$"):
        curve_index((Y, X), (X, Y))


def test_curve_index_needs_a_form():
    with pytest.raises(ValueError) as err:
        curve_index((Y,), [])
    assert type(err.value) is ValueError
    assert str(err.value) == "need a form"
