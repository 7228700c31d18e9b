"""Duality experiments around the index pairing on a surface germ.

In good coordinates the germ residue is a linear functional vanishing on
the index ideal, so it induces a bilinear pairing beta(u, v) on the index
algebra A.  The lab measures that pairing: its Gram matrix and rank on
the staircase basis of A, the auxiliary quotients B (by the residue
denominators (m_1, m_2, f)) and C (B modulo the annihilator of DF), the
socle of A, whether sigma represents the distinguished socle class, and
the dimension bound soc A <= dim A - dim C + 1.  Of C only the dimension
is kept, and a PairingReport keeps each measurement once.

Each function takes the germ and an optional Ctx.  The algebras A and B
live in the Ctx memo, and so does the one ResidueForm over (m_1, m_2, f)
that index.germ_residue reads, so the functions called on one Ctx build
each algebra once and lift the residue box once, shared with solve.
Every residue the lab reads, the Gram entries included, goes through
germ_residue, which alone holds the orientation and the factor DF;
residue_functional returns the same form with raw values.  Both algebras
pass the gate Ctx.algebra: index_algebra records A's cap under "index"
and raises NotIsolated on an infinite staircase, algebra_B records B's
cap under "pairing" and raises NotRegularSequence, and neither records
anything when it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import NotIsolated, NotRegularSequence
from .index import (GermProblem, find_good_coordinates, germ_residue,
                    germ_sigma, ideal_J, residue_denominators)
from .localalg import Ctx, QuotientAlgebra
from .polycore import Exponent, Poly, _bareiss, _scaled
from .residues import ResidueForm, residue_form


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


def residue_functional(p: GermProblem,
                       ctx: Optional[Ctx] = None) -> ResidueForm:
    """The germ's ResidueForm over (m_1, m_2, f), shared in ctx.

    algebra_B's gate comes first, so a pair that is not regular raises
    NotRegularSequence naming (m_1, m_2).  Its values are raw residues;
    germ_residue reads the same form and orients them.
    """
    ctx = ctx or Ctx()
    algebra_B(p, ctx)
    return residue_form(residue_denominators(p, ctx), ctx)


@dataclass
class CQuotient:
    """dim B, and dim C = rank of DF on B, since C is isomorphic to DF * B."""

    dim_b: int
    dim_c: int


def algebra_C(p: GermProblem, ctx: Optional[Ctx] = None) -> CQuotient:
    ctx = ctx or Ctx()
    algebra = algebra_B(p, ctx)
    dim_c = matrix_rank(algebra.multiplication_matrix(germ_sigma(p, ctx).df))
    return CQuotient(algebra.dim, dim_c)


@dataclass
class GramData:
    """Gram matrix of beta(u, v) = germ residue of u*v on A's basis."""

    basis: List[Exponent]
    matrix: List[List[Fraction]]
    rank: int


def gram_beta(p: GermProblem, ctx: Optional[Ctx] = None) -> GramData:
    """The Gram matrix of germ_residue(p, u * v) on A's staircase basis.

    algebra_B's gate comes first, so a pair that is not regular raises
    NotRegularSequence naming (m_1, m_2).
    """
    ctx = ctx or Ctx()
    algebra_B(p, ctx)
    alg_a = index_algebra(p, ctx)
    d = alg_a.dim
    mons = [Poly.monomial(p.nvars, e) for e in alg_a.basis]
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = germ_residue(p, mons[i] * mons[j], ctx)
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

    change_matrix: Tuple[Tuple[Fraction, ...], ...]
    dim_a: int
    dim_b: int
    dim_c: int
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
    cdata = algebra_C(good, ctx)
    alg_a = index_algebra(good, ctx)
    dim_a = alg_a.dim
    gram = gram_beta(good, ctx)

    soc_vecs = socle(alg_a)
    soc_elems = [alg_a.element(v) for v in soc_vecs]

    sd = germ_sigma(good, ctx)
    sigma_res = germ_residue(good, sd.sigma, ctx)
    if dim_a == 0:
        sigma_ok: Optional[bool] = None
    else:
        n = good.nvars
        origin = (0,) * n
        sigma_ok = sigma_res != 0 and all(
            germ_residue(good, Poly.monomial(n, e) * sd.sigma, ctx) == 0
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

    return PairingReport(change.matrix, dim_a, cdata.dim_b, cdata.dim_c, gram,
                         soc_a_dim, soc_elems, sigma_res, sigma_ok,
                         bound_holds, dict(ctx.caps_used), discrepancies)
