"""Duality experiments around the index pairing on a surface germ.

In good coordinates the germ residue is a linear functional vanishing on
the index ideal, so it induces a bilinear pairing beta(u, v) on the index
algebra A.  The lab measures that pairing: its Gram matrix and rank on
the staircase basis of A, the auxiliary quotients B (by the residue
denominators (m_1, m_2, f)) and C (B modulo the annihilator of DF), the
socle of A, whether sigma represents the distinguished socle class, and
the dimension bound soc A <= dim A - dim C + 1.  Of C only the dimension
is kept, and a PairingReport keeps each measurement once: dim_a and
soc_a_dim read the lengths of the Gram basis and of the socle elements,
and the caps stay in ctx.caps_used.

Each function takes the germ and an optional Ctx.  The algebras A and B
live in the Ctx memo, and so does the one ResidueForm over (m_1, m_2, f)
that index.germ_residues reads, so the functions called on one Ctx build
each algebra once and lift the residue box once, shared with solve.
Every residue the lab reads goes through germ_residues, which alone
holds the orientation and the factor DF, and each family is one product
with the box: the Gram entry beta(z^a, z^b) is the read at a + b of the
family over 1, and the sigma test reads the family over sigma at every
basis exponent.  residue_functional returns the same form with raw
values.  Ranks count the pivots of one forward fraction-free
elimination, and a kernel runs Gauss-Jordan only on the pivot rows it
leaves.  They take integer rows as they come: the algebras' matrices
(QuotientAlgebra.multiplication_matrix) and the Gram matrix's reads of
the family over 1 (ResidueFamily.read), each an int over one
denominator that no rank or kernel sees, so no Fraction is built
between a normal form and the elimination.

Both algebras pass the gate Ctx.algebra: A through index.index_algebra,
the index ideal's one gate, which records A's cap under "index" and
raises NotIsolated on an infinite staircase; algebra_B records B's cap
under "pairing" and raises NotRegularSequence.  Neither records anything
when it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import List, Optional, Tuple, Union

from .errors import NotRegularSequence
from .index import (GermProblem, find_good_coordinates, germ_residues,
                    germ_sigma, index_algebra, residue_denominators)
from .localalg import Ctx, QuotientAlgebra
from .polycore import Exponent, Poly, _bareiss
from .residues import ResidueForm, residue_form


def rref(rows: List[List[int]]) -> Tuple[int, List[int], List[List[Fraction]]]:
    """Reduced row echelon form of integer rows: (rank, pivot cols, rows).

    Fraction-free Gauss-Jordan on a copy of the rows, then each pivot row
    divided by its pivot; the rows below the rank are zero.
    """
    m = [list(row) for row in rows]
    pivots, _ = _bareiss(m, jordan=True)
    leads = [m[r][c] for r, c in enumerate(pivots)] + [1] * (len(m) - len(pivots))
    return len(pivots), pivots, [[Fraction(a, d) for a in row]
                                 for row, d in zip(m, leads)]


def _echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """One forward fraction-free elimination: the integer rows and pivots.

    Zero and repeated rows are dropped first, which keeps the row space.
    The first len(pivots) rows span it, in echelon form; the rest are zero.
    """
    m = [list(row) for row in dict.fromkeys(map(tuple, rows)) if any(row)]
    return m, _bareiss(m, jordan=False)[0]


def matrix_rank(rows: List[List[int]]) -> int:
    """The number of pivots of one forward elimination of integer rows."""
    return len(_echelon(rows)[1])


def kernel_basis(rows: List[List[int]], ncols: int) -> List[List[Fraction]]:
    """Basis of the right kernel of integer rows, one vector per free column.

    Gauss-Jordan runs only on the pivot rows a forward elimination leaves:
    they span the same row space, and the reduced echelon form of a row
    space is unique, so the basis is the one the rows' own rref gives.
    """
    m, pivots = _echelon(rows)
    _, pivots, ref = rref(m[:len(pivots)])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -ref[r][fc]
        basis.append(vec)
    return basis


def algebra_B(p: GermProblem, ctx: Optional[Ctx] = None) -> QuotientAlgebra:
    """Quotient by (m_1, m_2, f): finite only in good coordinates."""
    ctx = ctx or Ctx()
    return ctx.algebra(
        residue_denominators(p, ctx),
        NotRegularSequence("(m_1, m_2) is not regular on the germ"), "pairing")


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

    Each entry is read off the one family germ_residues(p, 1), so no
    entry evaluates a residue of its own.  algebra_B's gate comes first,
    so a pair that is not regular raises NotRegularSequence naming
    (m_1, m_2).
    """
    ctx = ctx or Ctx()
    algebra_B(p, ctx)
    basis = index_algebra(p, ctx).basis
    rows, den = [], 1
    if basis:
        # beta(z^a, z^b) is the read at a + b of the one family over 1, an
        # int over the product's denominator
        family = germ_residues(p, Poly.const(p.nvars, 1), ctx)
        rows = [[family.read(tuple(map(add, a, b))) for b in basis]
                for a in basis]
        den = family.product.den
    return GramData(list(basis), [[Fraction(v, den) for v in row]
                                  for row in rows], matrix_rank(rows))


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

    change_matrix: Tuple[Tuple[Union[int, Fraction], ...], ...]
    dim_b: int
    dim_c: int
    gram: GramData
    soc_a_elements: List[Poly]
    sigma_residue: Fraction
    sigma_in_soc_c: Optional[bool]
    bound_holds: bool
    discrepancies: List[str] = field(default_factory=list)

    @property
    def dim_a(self) -> int:
        return len(self.gram.basis)

    @property
    def soc_a_dim(self) -> int:
        return len(self.soc_a_elements)


def pairing_report(p: GermProblem, ctx: Optional[Ctx] = None) -> PairingReport:
    ctx = ctx or Ctx()
    change, good = find_good_coordinates(p, ctx)
    cdata = algebra_C(good, ctx)
    alg_a = index_algebra(good, ctx)
    dim_a = alg_a.dim
    gram = gram_beta(good, ctx)

    soc_vecs = socle(alg_a)
    soc_elems = [alg_a.element(v) for v in soc_vecs]

    origin = (0,) * good.nvars
    sigma = germ_residues(good, germ_sigma(good, ctx).sigma, ctx)
    sigma_res = sigma.at(origin)
    if dim_a == 0:
        sigma_ok: Optional[bool] = None
    else:
        sigma_ok = sigma_res != 0 and all(
            sigma.at(e) == 0 for e in alg_a.basis if e != origin)

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

    return PairingReport(change.matrix, cdata.dim_b, cdata.dim_c, gram,
                         soc_elems, sigma_res, sigma_ok, bound_holds,
                         discrepancies)
