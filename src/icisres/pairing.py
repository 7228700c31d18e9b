"""Duality experiments around the index pairing on a surface germ.

In good coordinates the germ residue is a linear functional vanishing on
the index ideal, so it induces a bilinear pairing beta(u, v) on the index
algebra A.  The lab measures that pairing: its Gram matrix and rank on
the staircase basis of A, the auxiliary quotients B (by the residue
denominators (m_1, m_2, f)) and C (B modulo the annihilator of DF), the
socle of A, whether sigma represents the distinguished socle class, and
the dimension bound soc A <= dim A - dim C + 1.

Each function takes the germ and an optional Ctx.  The algebras A and B
and the residue functional live in the Ctx memo, so the functions called
on one Ctx build each of them once.  Both algebras pass the gate
Ctx.algebra: index_algebra records A's cap under "index" and raises
NotIsolated on an infinite staircase, algebra_B records B's cap under
"pairing" and raises NotRegularSequence, and neither records anything
when it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import NotIsolated, NotRegularSequence
from .index import (GermProblem, find_good_coordinates, germ_sigma, ideal_J,
                    residue_denominators)
from .localalg import Ctx, QuotientAlgebra, normal_form
from .polycore import Exponent, Poly, _bareiss, _scaled
from .residues import ResidueForm


def rref(rows: List[List[Fraction]]) -> Tuple[int, List[int], List[List[Fraction]]]:
    """Reduced row echelon form over the rationals: (rank, pivot cols, rows).

    Fraction-free Gauss-Jordan on the rows scaled to integers, then each
    pivot row divided by its pivot; the rows below the rank are zero.
    """
    m, _ = _scaled(rows)
    pivots, _ = _bareiss(m, jordan=True)
    leads = [m[r][c] for r, c in enumerate(pivots)] + [1] * (len(m) - len(pivots))
    return len(pivots), pivots, [[Fraction(a, d) for a in row]
                                 for row, d in zip(m, leads)]


def matrix_rank(rows: List[List[Fraction]]) -> int:
    return rref(rows)[0]


def kernel_basis(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    _, pivots, m = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def algebra_B(p: GermProblem, ctx: Optional[Ctx] = None) -> QuotientAlgebra:
    """Quotient by (m_1, m_2, f): finite only in good coordinates."""
    ctx = ctx or Ctx()
    return ctx.algebra(
        residue_denominators(p, ctx),
        NotRegularSequence("(m_1, m_2) is not regular on the germ"), "pairing")


def index_algebra(p: GermProblem, ctx: Optional[Ctx] = None) -> QuotientAlgebra:
    """The index algebra A: quotient by the equations and all minors."""
    ctx = ctx or Ctx()
    return ctx.algebra(
        ideal_J(p, ctx),
        NotIsolated("the form vanishes along a curve on the germ"), "index")


@dataclass
class ResidueFunctional:
    """Germ residue as a linear functional through the B quotient.

    values[e] is the raw residue of the basis monomial z^e over
    (m_1, m_2, f); the oriented germ residue of h dz_1 ^ dz_2 is then
    -<values, coordinates of h * DF>, matching germ_residue entrywise.
    All values are read off one ResidueForm, so a functional costs one
    residue computation however large B is.
    """

    algebra: QuotientAlgebra
    values: Dict[Exponent, Fraction]
    df: Poly

    def raw(self, numerator: Poly) -> Fraction:
        nf = normal_form(numerator, self.algebra.sb)
        return sum((c * self.values[e] for e, c in nf.ints.items()),
                   Fraction(0)) / nf.den

    def v_residue(self, h: Poly) -> Fraction:
        return -self.raw(h * self.df)


def residue_functional(p: GermProblem,
                       ctx: Optional[Ctx] = None) -> ResidueFunctional:
    """The germ's residue functional, computed once per germ in ctx."""
    ctx = ctx or Ctx()

    def compute() -> ResidueFunctional:
        algebra = algebra_B(p, ctx)
        form = ResidueForm(residue_denominators(p, ctx), ctx)
        values = {e: form.value(Poly.monomial(p.nvars, e, 1))
                  for e in algebra.basis}
        return ResidueFunctional(algebra, values, germ_sigma(p, ctx).df)

    return ctx.once(("functional", p), compute)


@dataclass
class CQuotient:
    """B modulo the annihilator of DF, with the annihilator spelled out."""

    algebra: QuotientAlgebra
    df: Poly
    dim_b: int
    dim_c: int
    ann_vectors: List[List[Fraction]]
    ann_elements: List[Poly]


def algebra_C(p: GermProblem, ctx: Optional[Ctx] = None) -> CQuotient:
    ctx = ctx or Ctx()
    algebra = algebra_B(p, ctx)
    df = germ_sigma(p, ctx).df
    ann = kernel_basis(algebra.multiplication_matrix(df), algebra.dim)
    # rank-nullity: C = B / ann(DF) has the dimension of DF's image
    return CQuotient(algebra, df, algebra.dim, algebra.dim - len(ann), ann,
                     [algebra.element(v) for v in ann])


@dataclass
class GramData:
    """Gram matrix of beta(u, v) = germ residue of u*v on A's basis."""

    basis: List[Exponent]
    matrix: List[List[Fraction]]
    rank: int


def gram_beta(p: GermProblem, ctx: Optional[Ctx] = None) -> GramData:
    ctx = ctx or Ctx()
    functional = residue_functional(p, ctx)
    alg_a = index_algebra(p, ctx)
    n = alg_a.sb.order.nvars
    d = alg_a.dim
    mons = [Poly.monomial(n, e, 1) for e in alg_a.basis]
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = functional.v_residue(mons[i] * mons[j])
    return GramData(list(alg_a.basis), rows, matrix_rank(rows))


def socle(alg: QuotientAlgebra) -> List[List[Fraction]]:
    """Coordinates of the elements killed by every variable."""
    stacked = [row for mat in alg.matrices for row in mat]
    return kernel_basis(stacked, alg.dim)


@dataclass
class PairingReport:
    """Measurements of the pairing for one germ, ready for serialization.

    discrepancies lists the names of expectations that failed; an empty
    list is the healthy outcome.
    """

    problem: GermProblem
    change_matrix: Tuple[Tuple[Fraction, ...], ...]
    dim_a: int
    dim_b: int
    dim_c: int
    rank_beta: int
    gram: GramData
    soc_a_dim: int
    soc_a_elements: List[Poly]
    sigma_residue: Fraction
    sigma_in_soc_c: Optional[bool]
    bound_holds: bool
    caps_used: Dict[str, int] = field(default_factory=dict)
    discrepancies: List[str] = field(default_factory=list)


def pairing_report(p: GermProblem, ctx: Optional[Ctx] = None) -> PairingReport:
    ctx = ctx or Ctx()
    change, good = find_good_coordinates(p, ctx)
    functional = residue_functional(good, ctx)
    cdata = algebra_C(good, ctx)
    alg_a = index_algebra(good, ctx)
    dim_a = alg_a.dim
    gram = gram_beta(good, ctx)

    soc_vecs = socle(alg_a)
    soc_elems = [alg_a.element(v) for v in soc_vecs]

    sd = germ_sigma(good, ctx)
    sigma_res = functional.v_residue(sd.sigma)
    if dim_a == 0:
        sigma_ok: Optional[bool] = None
    else:
        n = good.nvars
        origin = (0,) * n
        sigma_ok = sigma_res != 0 and all(
            functional.v_residue(Poly.monomial(n, e, 1) * sd.sigma) == 0
            for e in alg_a.basis if e != origin)

    soc_a_dim = len(soc_vecs)
    bound_holds = soc_a_dim <= dim_a - cdata.dim_c + 1 if dim_a > 0 else True

    discrepancies = []
    if gram.rank != cdata.dim_c:
        discrepancies.append("rank_beta_vs_dim_c")
    if sigma_ok is False:
        discrepancies.append("sigma_not_in_soc_c")
    if not bound_holds:
        discrepancies.append("socle_bound")
    if cdata.dim_c > dim_a:
        discrepancies.append("dim_c_exceeds_dim_a")

    return PairingReport(p, change.matrix, dim_a, cdata.dim_b, cdata.dim_c,
                         gram.rank, gram, soc_a_dim, soc_elems, sigma_res,
                         sigma_ok, bound_holds, dict(ctx.caps_used),
                         discrepancies)
