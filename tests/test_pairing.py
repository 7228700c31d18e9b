"""Residue pairing: Gram matrices, annihilator quotient, socle structure."""

import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from icisres.errors import GermFileError, NotRegularSequence
from icisres.germfile import parse_germ_file
from icisres.index import (CoordinateChange, GermProblem,
                           find_good_coordinates, germ_residue, germ_residues,
                           germ_sigma, main_residue, minors, random_matrix,
                           residue_denominators, sigma_data, solve)
from icisres.localalg import Ctx, normal_form
from icisres.pairing import (algebra_B, algebra_C, gram_beta, index_algebra,
                             kernel_basis, matrix_rank, pairing_report,
                             residue_functional, rref, socle)
from icisres.polycore import Poly, det
from icisres.residues import residue_form

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
N3 = ("x", "y", "z")
X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
ONE3 = Poly.const(3, Fraction(1))
SPHERE = x3**2 + y3**2 + z3**2


def isolated_corpus_germs():
    """The corpus's surface germs with a form: those whose index ideal is
    finite, the germs the Bezoutian residue check runs on."""
    germs = []
    for path in sorted(CORPUS.glob("*.germ")):
        try:
            gf = parse_germ_file(path.read_text())
        except GermFileError:
            continue
        if len(gf.f) == gf.nvars - 2 and not gf.g:
            germs.append(GermProblem(gf.nvars, gf.f, gf.omega, seed=gf.seed))
    assert len(germs) == 13
    return germs


def sphere_dz():
    return GermProblem(3, (SPHERE,), (Poly.zero(3), Poly.zero(3), ONE3))


def F(*vals):
    return [Fraction(v) for v in vals]


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank(rows) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    rank, pivots, _ = rref([[0, 3, 1]])
    assert rank == 1 and pivots == [1]


def ref_rref(rows):
    """Gauss-Jordan on Fractions, the elimination the integer rref
    replaced: the specification."""
    m = [[Fraction(a) for a in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [a / lead for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def scaled(rows):
    """Rows of ints and Fractions times the lcm of their denominators."""
    den = math.lcm(*(Fraction(a).denominator for row in rows for a in row))
    return [[int(a * den) for a in row] for row in rows]


def random_rows(rng):
    """Rectangular, often rank deficient, with zero columns and mixed
    denominators."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    zero_cols = {c for c in range(ncols) if rng.random() < 0.25}
    rows = [[Fraction(0) if c in zero_cols or rng.random() < 0.3 else
             Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7]))
             for c in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.4:    # a combination of two rows
            a = Fraction(rng.randint(-2, 2), rng.choice([1, 3]))
            b = rng.randint(-2, 2)
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def ref_kernel(rows, ncols):
    """The kernel basis ref_rref's reduced rows give, one vector per free
    column."""
    _, pivots, ref = ref_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = -ref[r][fc]
        basis.append(v)
    return basis


def stacked_rows(rng):
    """n matrices of size d x d stacked into n*d rows, as socle() stacks
    an algebra's multiplication matrices: sparse, with zero and repeated
    rows, often rank deficient, with mixed denominators."""
    n, d = rng.randint(1, 4), rng.randint(1, 7)
    rows = []
    for _ in range(n * d):
        roll = rng.random()
        if roll < 0.3:
            rows.append([Fraction(0)] * d)
        elif roll < 0.45 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([Fraction(0) if rng.random() < 0.6 else
                         Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 5]))
                         for _ in range(d)])
    return rows, d


def algebra_stacks():
    """The stacked multiplication matrices of the isolated corpus germs'
    index algebras, in good coordinates."""
    out = []
    for p in isolated_corpus_germs():
        ctx = Ctx()
        _, good = find_good_coordinates(p, ctx)
        alg = index_algebra(good, ctx)
        out.append(([row for mat in alg.matrices for row in mat], alg.dim))
    return out


def test_rref_rank_and_kernel_match_the_fraction_elimination():
    # the integer rows are each case scaled by the lcm of its denominators,
    # and the reference runs on the Fraction rows themselves
    rng = random.Random(61)
    cases = []
    for _ in range(1000):
        rows = random_rows(rng)
        cases.append((rows, len(rows[0])))
    # the tall stacks socle() feeds kernel_basis, zero and empty rows
    cases += [stacked_rows(rng) for _ in range(600)] + algebra_stacks()
    cases += [([], 0), ([], 3), ([[], []], 0), ([F(0, 0, 0)] * 4, 3),
              ([F(1, 2), F(1, 2), F(0, 0)], 2)]
    assert len(cases) > 1600
    deficient = 0
    for rows, ncols in cases:
        ints = scaled(rows)
        assert all(type(a) is int for row in ints for a in row)
        want = ref_rref(rows)
        got = rref(ints)
        assert got == want
        assert all(type(a) is Fraction for row in got[2] for a in row)
        rank = want[0]
        deficient += rank < min(len(rows), ncols)
        assert matrix_rank(ints) == rank
        kernel = kernel_basis(ints, ncols)
        assert kernel == ref_kernel(rows, ncols)
        for v in kernel:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    assert deficient > 500


def test_kernel_basis():
    # x + y + z = 0 has a two dimensional kernel
    vecs = kernel_basis([[1, 1, 1]], 3)
    assert len(vecs) == 2
    for v in vecs:
        assert sum(v) == 0
    assert kernel_basis([], 2) == [F(1, 0), F(0, 1)]
    assert kernel_basis([[1, 0], [0, 1]], 2) == []


def test_algebra_b_sphere():
    b = algebra_B(sphere_dz())
    assert b.dim == 2
    assert b.basis == [(0, 0, 0), (0, 0, 1)]


def test_algebra_b_degenerate_raises():
    # omega = df makes every principal minor vanish identically
    degen = GermProblem(3, (z3,), (Poly.zero(3), Poly.zero(3), ONE3))
    with pytest.raises(NotRegularSequence):
        algebra_B(degen)


def test_index_algebra_matches_eg_index():
    a = index_algebra(sphere_dz())
    assert a.dim == 2


def test_residue_functional_sphere():
    p, ctx = sphere_dz(), Ctx()
    fn = residue_functional(p, ctx)
    values = {e: fn.value(Poly.monomial(3, e))
              for e in algebra_B(p, ctx).basis}
    assert values == {(0, 0, 0): Fraction(0), (0, 0, 1): Fraction(-1, 4)}
    # one form per denominator tuple: germ_residue reads this one and
    # orients it to agree with the index
    assert fn is residue_form(residue_denominators(p, ctx), ctx)
    sigma = sigma_data(p).sigma
    assert germ_residue(p, sigma, ctx) == -fn.value(sigma * sigma_data(p).df)
    assert germ_residue(p, sigma, ctx) == main_residue(p) == 2
    assert germ_residue(p, Poly.zero(3), ctx) == 0


def test_residue_functional_gates_a_bad_pair():
    # omega = df: every principal minor vanishes identically
    degen = GermProblem(3, (z3,), (Poly.zero(3), Poly.zero(3), ONE3))
    with pytest.raises(NotRegularSequence) as info:
        residue_functional(degen)
    assert str(info.value) == "(m_1, m_2) is not regular on the germ"


def test_residue_functional_is_linear():
    p, ctx = sphere_dz(), Ctx()
    rng = random.Random(31)
    for _ in range(8):
        h1 = Poly(3, {(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 2)):
                      Fraction(rng.randint(-3, 3)) for _ in range(2)})
        h2 = Poly(3, {(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 2)):
                      Fraction(rng.randint(-3, 3)) for _ in range(2)})
        assert germ_residue(p, h1 + h2, ctx) == \
            germ_residue(p, h1, ctx) + germ_residue(p, h2, ctx)


def test_residue_functional_kills_index_ideal():
    # residues of J-multiples vanish: the functional descends to A
    for p in (sphere_dz(),
              GermProblem(3, (x3**2 + y3**3 + z3**5,), (ONE3, ONE3, ONE3), seed=1)):
        ctx = Ctx()
        alg = index_algebra(p, ctx)
        ms = minors(p)
        df = sigma_data(p).df
        gens = list(p.f) + list(ms) + [df * df]
        for g in gens:
            for e in alg.basis:
                mono = Poly.monomial(3, e)
                assert germ_residue(p, g * mono, ctx) == 0


def annihilator_of_df(p):
    b = algebra_B(p)
    ann = kernel_basis(b.multiplication_matrix(sigma_data(p).df), b.dim)
    return [b.element(v) for v in ann]


def test_algebra_c_sphere():
    c = algebra_C(sphere_dz())
    assert (c.dim_b, c.dim_c) == (2, 1)
    assert [e.render(N3) for e in annihilator_of_df(sphere_dz())] == ["z"]


def test_algebra_c_unit_df_is_whole_algebra():
    # smooth case: DF is a unit, the annihilator vanishes
    p = GermProblem(2, (), (X**2, Y**2))
    c = algebra_C(p)
    assert c.dim_b == c.dim_c == 4
    assert annihilator_of_df(p) == []


def test_zero_operator_multiplication():
    b = algebra_B(sphere_dz())
    m1 = minors(sphere_dz())[0]
    mat = b.multiplication_matrix(m1)
    assert matrix_rank(mat) == 0


def test_gram_sphere():
    g = gram_beta(sphere_dz())
    assert g.basis == [(0, 0, 0), (0, 0, 1)]
    assert g.matrix == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert g.rank == 1


def test_gram_smooth_diagonal():
    g = gram_beta(GermProblem(2, (), (X**2, Y**2)))
    assert g.basis == [(0, 0), (0, 1), (1, 0), (1, 1)]
    anti = [[Fraction(int(i + j == 3)) for j in range(4)] for i in range(4)]
    assert g.matrix == anti
    assert g.rank == 4


def test_one_ctx_builds_each_quotient_algebra_once(monkeypatch):
    # algebra_C and residue_functional share B; gram_beta finds B and A
    # in the memo
    from icisres import localalg
    real = localalg.quotient_algebra
    built = []

    def counting(sb):
        built.append(sb)
        return real(sb)

    monkeypatch.setattr(localalg, "quotient_algebra", counting)
    p, ctx = sphere_dz(), Ctx()
    algebra_C(p, ctx)
    residue_functional(p, ctx)
    gram_beta(p, ctx)
    assert len(built) == 2


@pytest.mark.parametrize("name", ["a1-dz", "diag-3-4", "e7-const",
                                  "e8-generic"])
def test_pairing_report_then_solve_lift_one_residue_box(name, monkeypatch):
    from icisres import residues
    real = residues.standard_basis_at
    tracked = []

    def counting(*args, **kwargs):
        tracked.append(kwargs.get("track"))
        return real(*args, **kwargs)

    monkeypatch.setattr(residues, "standard_basis_at", counting)
    gf = parse_germ_file((CORPUS / f"{name}.germ").read_text())
    p, ctx = GermProblem(gf.nvars, gf.f, gf.omega, seed=gf.seed), Ctx()
    pairing_report(p, ctx)
    residue_cap = ctx.caps_used["residue"]
    assert solve(p, ctx).match
    # both read the one form over (m_1, m_2, f) in good coordinates
    assert tracked == [True]
    assert ctx.caps_used["residue"] == residue_cap


def test_a_ctx_holding_residue_forms_is_freed_at_once():
    # a form in the memo must not refer back to its ctx: the cycle would
    # keep every command's bases alive until the collector runs
    ctx = Ctx()
    pairing_report(sphere_dz(), ctx)
    assert any(key[0] == "residue" for key in ctx.memo)
    ref = weakref.ref(ctx)
    del ctx
    assert ref() is None


def test_gram_symmetric():
    p = GermProblem(3, (x3**2 + y3**3 + z3**5,), (ONE3, ONE3, ONE3), seed=1)
    g = gram_beta(p)
    n = len(g.basis)
    assert all(g.matrix[i][j] == g.matrix[j][i] for i in range(n) for j in range(n))


def test_socle_values():
    b = algebra_B(sphere_dz())
    assert socle(b) == [[Fraction(0), Fraction(1)]]
    from icisres.localalg import quotient_algebra, standard_basis
    alg = quotient_algebra(standard_basis([X**2, Y**2]))
    vecs = socle(alg)
    assert len(vecs) == 1
    assert alg.element(vecs[0]) == X * Y


def test_pairing_report_sphere():
    rep = pairing_report(sphere_dz())
    assert (rep.dim_a, rep.dim_b, rep.dim_c) == (2, 2, 1)
    assert rep.gram.rank == 1
    assert rep.soc_a_dim == 1
    assert [e.render(N3) for e in rep.soc_a_elements] == ["z"]
    assert rep.sigma_residue == 2
    assert rep.sigma_in_soc_c is True
    assert rep.bound_holds
    assert rep.discrepancies == []


def test_pairing_report_smooth():
    rep = pairing_report(GermProblem(2, (), (X**2, Y**2)))
    assert (rep.dim_a, rep.dim_b, rep.dim_c) == (4, 4, 4)
    assert rep.gram.rank == 4
    assert rep.soc_a_dim == 1
    assert rep.discrepancies == []


def test_pairing_report_e8():
    p = GermProblem(3, (x3**2 + y3**3 + z3**5,), (ONE3, ONE3, ONE3), seed=1)
    rep = pairing_report(p)
    assert (rep.dim_a, rep.dim_b, rep.dim_c) == (10, 10, 2)
    assert rep.gram.rank == 2
    assert rep.soc_a_dim == 1
    assert rep.sigma_residue == 10
    assert rep.sigma_in_soc_c is True
    assert rep.bound_holds
    assert rep.discrepancies == []


def test_pairing_report_zero_index_degenerates_cleanly():
    rep = pairing_report(GermProblem(2, (), (Poly.const(2, Fraction(1)), Poly.zero(2)),
                                     seed=5))
    assert (rep.dim_a, rep.dim_b, rep.dim_c) == (0, 0, 0)
    assert rep.gram.rank == 0
    assert rep.sigma_in_soc_c is None
    assert rep.bound_holds
    assert rep.discrepancies == []


def test_dim_c_coordinate_invariant():
    from icisres.index import find_good_coordinates
    for p in (sphere_dz(), GermProblem(2, (), (X**2, Y**3))):
        base = algebra_C(p).dim_c
        dims = []
        for seed in (101, 202):
            shifted = GermProblem(p.nvars, p.f, p.omega, seed=seed)
            _, q = find_good_coordinates(shifted, force_random=True)
            dims.append(algebra_C(q).dim_c)
        assert dims == [base, base]


def smooth_duality_draws(count, seed):
    """Seeded planar germs (omega_1, omega_2) with a finite quotient, drawn
    as the smooth-duality suite draws them."""
    from icisres.verify import DEGREE, random_poly
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        p = GermProblem(2, (), (random_poly(rng, 2, DEGREE),
                                random_poly(rng, 2, DEGREE)))
        if Ctx().basis(p.omega).is_finite():
            draws.append(p)
    return draws


def good_germs():
    """Each germ of the one-product checks in good coordinates, with its
    ctx."""
    out = []
    for p in isolated_corpus_germs() + smooth_duality_draws(12, 71):
        ctx = Ctx()
        out.append((find_good_coordinates(p, ctx)[1], ctx))
    return out


def per_entry_gram(p, ctx):
    n = p.nvars
    mons = [Poly.monomial(n, e) for e in index_algebra(p, ctx).basis]
    return [[germ_residue(p, u * v, ctx) for v in mons] for u in mons]


def per_entry_sigma(p, ctx):
    """sigma_residue and sigma_in_soc_c, one germ_residue per entry."""
    n = p.nvars
    sigma = germ_sigma(p, ctx).sigma
    res = germ_residue(p, sigma, ctx)
    basis = index_algebra(p, ctx).basis
    if not basis:
        return res, None
    return res, res != 0 and all(
        germ_residue(p, Poly.monomial(n, e) * sigma, ctx) == 0
        for e in basis if any(e))


def test_one_product_reads_match_per_entry_residues():
    for p, ctx in good_germs():
        assert gram_beta(p, ctx).matrix == per_entry_gram(p, ctx)
        rep = pairing_report(p, ctx)
        assert (rep.sigma_residue, rep.sigma_in_soc_c) == per_entry_sigma(p, ctx)


def test_every_read_of_a_family_is_the_residue_of_its_monomial_multiple():
    # within the box of (m_1, m_2, f) and one step past it, for sigma and
    # for a seeded numerator
    from icisres.verify import DEGREE, random_poly
    rng = random.Random(73)
    for p, ctx in good_germs():
        n = p.nvars
        box = ctx.basis(residue_denominators(p, ctx)).quotient_monomials
        exps = set(box) | {tuple(a + int(i == k) for i, a in enumerate(e))
                           for e in box for k in range(n)}
        for h in (germ_sigma(p, ctx).sigma, random_poly(rng, n, DEGREE, 0)):
            family = germ_residues(p, h, ctx)
            for e in sorted(exps):
                assert family.at(e) == germ_residue(
                    p, Poly.monomial(n, e) * h, ctx), e


def test_a_read_shifted_by_one_unit_exponent_disagrees():
    # the control for the check above: reading each Gram entry one step
    # off its exponent sum must give a different matrix on some germ
    shifted_differs = False
    for p, ctx in good_germs():
        basis = index_algebra(p, ctx).basis
        family = germ_residues(p, Poly.const(p.nvars, 1), ctx)
        unit = (1,) + (0,) * (p.nvars - 1)
        shifted = [[family.at(tuple(a + b + u for a, b, u in zip(e, f, unit)))
                    for f in basis] for e in basis]
        shifted_differs |= shifted != per_entry_gram(p, ctx)
    assert shifted_differs


def test_pairing_report_reads_each_residue_family_from_one_product(monkeypatch):
    # no per-entry residue: the Gram matrix reads the family over 1 and the
    # sigma test the family over sigma, one product each
    from icisres import index, residues
    per_entry, products = [], []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            per_entry.append(name)
            return real(*args, **kwargs)
        return wrapper

    real_residues = residues.ResidueForm.residues

    def counting_products(form, numerator):
        products.append(numerator)
        return real_residues(form, numerator)

    monkeypatch.setattr(index, "germ_residue",
                        counting("germ_residue", index.germ_residue))
    monkeypatch.setattr(residues, "grothendieck_residue",
                        counting("grothendieck_residue",
                                 residues.grothendieck_residue))
    monkeypatch.setattr(residues.ResidueForm, "residues", counting_products)
    for p in isolated_corpus_germs():
        products.clear()
        rep = pairing_report(p)
        assert per_entry == []
        assert len(products) == (2 if rep.dim_a else 1)


def corpus_germ(name):
    gf = parse_germ_file((CORPUS / f"{name}.germ").read_text())
    return GermProblem(gf.nvars, gf.f, gf.omega, seed=gf.seed)


def fraction_columns(alg, p):
    """Multiplication by p on alg's basis, one normal form per column, in
    Fractions: the reference for the integer rows."""
    return [normal_form(p * Poly.monomial(alg.sb.nvars, e), alg.sb).terms
            for e in alg.basis]


def test_integer_multiplication_matrices_are_scaled_normal_forms():
    dens = {}
    for p in isolated_corpus_germs():
        ctx = Ctx()
        _, good = find_good_coordinates(p, ctx)
        df = germ_sigma(good, ctx).df
        for name, alg in (("A", index_algebra(good, ctx)),
                          ("B", algebra_B(good, ctx))):
            ops = [Poly.variable(good.nvars, i) for i in range(good.nvars)]
            for op, got in zip(ops + [df], alg.matrices
                               + [alg.multiplication_matrix(df)]):
                cols = fraction_columns(alg, op)
                col_dens = {c.denominator for col in cols for c in col.values()}
                den = math.lcm(*col_dens)
                assert got == [[den * col.get(e, 0) for col in cols]
                               for e in alg.basis]
                assert all(type(a) is int for row in got for a in row)
                dens.setdefault((p, name), set()).update(col_dens)
    # e8-generic's A carries the corpus's widest denominators
    assert dens[(corpus_germ("e8-generic"), "A")] >= {2, 5, 12, 25}


def test_pairing_report_hands_the_elimination_only_ints(monkeypatch):
    from icisres import pairing
    real = pairing._bareiss
    seen = []

    def checking(rows, jordan):
        assert all(type(a) is int for row in rows for a in row)
        seen.append(len(rows))
        return real(rows, jordan)

    monkeypatch.setattr(pairing, "_bareiss", checking)
    for p in isolated_corpus_germs():
        pairing_report(p)
    assert len(seen) >= 3 * 13


@pytest.mark.parametrize("name", ["e7-const", "diag-2-3", "e8-generic"])
def test_a_wrong_sigma_is_not_in_the_socle(name, monkeypatch):
    # sigma + 1 keeps a nonzero residue at 1 but reads nonzero at some
    # other basis exponent of A, so the sigma test must come out False
    # (on a1-dz, where A is spanned by 1 and one more monomial, the shifted
    # sigma still passes)
    import dataclasses
    from icisres import pairing
    real = pairing.germ_sigma

    def shifted(p, ctx):
        sd = real(p, ctx)
        return dataclasses.replace(sd, sigma=sd.sigma + Poly.const(p.nvars, 1))

    assert pairing_report(corpus_germ(name)).sigma_in_soc_c is True
    monkeypatch.setattr(pairing, "germ_sigma", shifted)
    rep = pairing_report(corpus_germ(name))
    assert rep.sigma_residue != 0
    assert rep.sigma_in_soc_c is False
    assert "sigma_not_in_soc_c" in rep.discrepancies


def report_invariants(rep):
    return (rep.dim_a, rep.dim_b, rep.dim_c, rep.gram.rank, rep.soc_a_dim,
            rep.sigma_in_soc_c, rep.bound_holds)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_the_pairing_report_is_invariant_under_random_coordinates(name):
    f = {"E6": x3**2 + y3**3 + z3**4,
         "E7": x3**2 + y3**3 + y3 * z3**3,
         "E8": x3**2 + y3**3 + z3**5}[name]
    p = GermProblem(3, (f,), tuple(Poly.const(3, c) for c in (1, 2, 3)))
    base = report_invariants(pairing_report(p))
    assert base[0] == {"E6": 8, "E7": 9, "E8": 10}[name]
    for seed in (301, 302):
        rng = random.Random(seed)
        rows = random_matrix(rng, 3)
        while det(rows) == 0:
            rows = random_matrix(rng, 3)
        moved = CoordinateChange(tuple(map(tuple, rows))).apply(p)
        assert report_invariants(pairing_report(moved)) == base
