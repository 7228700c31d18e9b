"""Index of a holomorphic 1-form on an isolated complete intersection surface germ.

The germ is cut out by q = n - 2 equations f and carries a 1-form omega.
Stacking the Jacobian of f on top of omega's coefficient row gives a
(q+1) x n matrix whose maximal minors, together with f, generate the
ideal whose colength is the index.  The same data feeds a residue
formula: a signed Jacobian sigma of the principal minors, the last-block
minor DF of f, and the pair (m_1, m_2) as denominators on the germ.

Every computation takes an optional localalg.Ctx.  Calls that share one
compute each germ's minors and sigma once (germ_minors, germ_sigma) and
certify each ideal once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import GoodCoordsNotFound, NotIsolated
from .localalg import INFINITE, Ctx, colength, is_regular_on_V
from .polycore import (Poly, PolyMatrix, default_names, linear_forms,
                       rational_det)
from .residues import jacobian_minor, relative_residue


@dataclass(frozen=True)
class GermProblem:
    """Equations plus 1-form at the origin of C^n.

    invariant: every equation vanishes at 0; omega has one component per
    variable.  Surface operations additionally require len(f) == n - 2.
    """

    nvars: int
    f: Tuple[Poly, ...]
    omega: Tuple[Poly, ...]
    seed: int = 0
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.omega) != self.nvars:
            raise ValueError("omega needs one component per variable")
        for fi in self.f:
            if fi.constant_term() != 0:
                raise ValueError("equations must vanish at the origin")
        if not self.names:
            object.__setattr__(self, "names", default_names(self.nvars))

    @property
    def q(self) -> int:
        return len(self.f)

    def require_surface(self):
        if self.q != self.nvars - 2:
            raise ValueError(
                f"surface germ needs {self.nvars - 2} equations, got {self.q}")


def stacked_matrix(f: Sequence[Poly], omega: Sequence[Poly],
                   columns: Sequence[int]) -> PolyMatrix:
    """The Jacobian of f over the row of omega's coefficients, in columns."""
    rows = [[fi.diff(j) for j in columns] for fi in f]
    rows.append([omega[j] for j in columns])
    return PolyMatrix(rows)


def minor(p: GermProblem, columns: Sequence[int]) -> Poly:
    """Maximal minor of the stacked matrix, columns taken in the given order.

    Repeated columns give 0 and swaps flip the sign, as for any determinant.
    """
    if len(columns) != p.q + 1:
        raise ValueError(f"need {p.q + 1} column indices")
    return stacked_matrix(p.f, p.omega, columns).determinant()


@dataclass
class MinorSet:
    """Maximal minors over ascending column sets, plus the principal slice."""

    all: Dict[Tuple[int, ...], Poly]
    principal: Tuple[Poly, ...]       # principal[i]: columns with i omitted


def minors(p: GermProblem) -> MinorSet:
    p.require_surface()
    n = p.nvars
    allm = {cols: minor(p, cols)
            for cols in itertools.combinations(range(n), p.q + 1)}
    principal = tuple(allm[tuple(j for j in range(n) if j != i)] for i in range(n))
    return MinorSet(allm, principal)


def germ_minors(p: GermProblem, ctx: Optional[Ctx]) -> MinorSet:
    """minors(p), computed once per germ in ctx (afresh without one)."""
    if ctx is None:
        return minors(p)
    return ctx.once(("minors", p), lambda: minors(p))


def ideal_J(p: GermProblem, ctx: Optional[Ctx] = None) -> List[Poly]:
    """Equations plus every maximal minor; its colength is the index."""
    ms = germ_minors(p, ctx)
    return list(p.f) + [ms.all[c] for c in sorted(ms.all)]


def eg_index(p: GermProblem, ctx: Optional[Ctx] = None):
    """Dimension of the local algebra attached to the form on the germ.

    A minor that is a unit means the form does not vanish on the germ, so
    the index is 0.  An infinite colength means the zero locus is not
    isolated; that raises NotIsolated.
    """
    p.require_surface()
    ctx = ctx or Ctx()
    if any(m.is_unit() for m in germ_minors(p, ctx).all.values()):
        return 0
    sb = ctx.basis(ideal_J(p, ctx))
    dim = colength(sb)
    if dim == INFINITE:
        raise NotIsolated("the form vanishes along a curve on the germ")
    ctx.record("index", sb.cap)
    return dim


@dataclass
class SigmaData:
    """Signed Jacobian data of the principal minors."""

    minors: MinorSet
    m_matrix: List[List[Poly]]   # entry [i][j]: (-1)^(i+1) d m_{i+1} / d z_j
    sigma: Poly                  # sum of principal 2x2 minors of m_matrix
    df: Poly                     # last-block Jacobian minor of f


def sigma_data(p: GermProblem, ctx: Optional[Ctx] = None) -> SigmaData:
    """sigma, DF and the signed minor Jacobian, from the minors in ctx.

    The matrix rows are indexed by the omitted-column index of the
    principal minor (with alternating sign) and columns by the variable
    of differentiation.
    """
    p.require_surface()
    ms = germ_minors(p, ctx)
    n = p.nvars
    mat = [[ms.principal[i].diff(j) if (i + 1) % 2 == 0 else -ms.principal[i].diff(j)
            for j in range(n)] for i in range(n)]
    sigma = Poly.zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            sigma = sigma + (mat[i][i] * mat[j][j] - mat[i][j] * mat[j][i])
    df = jacobian_minor(p.f, tuple(range(2, n)), n)
    return SigmaData(ms, mat, sigma, df)


def germ_sigma(p: GermProblem, ctx: Optional[Ctx]) -> SigmaData:
    """sigma_data(p), computed once per germ in ctx (afresh without one)."""
    if ctx is None:
        return sigma_data(p)
    return ctx.once(("sigma", p), lambda: sigma_data(p, ctx))


@dataclass(frozen=True)
class CoordinateChange:
    """Linear substitution z = C y applied to equations and form."""

    matrix: Tuple[Tuple[Fraction, ...], ...]

    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))

    def determinant(self) -> Fraction:
        return rational_det(self.matrix)

    def apply(self, p: GermProblem) -> GermProblem:
        n = p.nvars
        targets = linear_forms(self.matrix)
        new_f = tuple(fi.substitute(targets) for fi in p.f)
        composed = [w.substitute(targets) for w in p.omega]
        new_omega = tuple(
            sum((composed[i].scale(self.matrix[i][j]) for i in range(n)),
                Poly.zero(n))
            for j in range(n))
        return GermProblem(n, new_f, new_omega, seed=p.seed, names=p.names)


def identity_change(n: int) -> CoordinateChange:
    return CoordinateChange(tuple(tuple(Fraction(1 if i == j else 0)
                                        for j in range(n)) for i in range(n)))


def find_good_coordinates(p: GermProblem, ctx: Optional[Ctx] = None,
                          force_random: bool = False):
    """Linear coordinates in which (m_1, m_2) is a regular pair on the germ.

    Tries the identity first, then ctx.attempts random integer matrices
    with entries in [-3, 3] and nonzero determinant, drawn from the
    problem's seed; the search is deterministic per seed.  Returns
    (change, transformed germ).
    """
    p.require_surface()
    ctx = ctx or Ctx()

    def regular(pp: GermProblem) -> bool:
        ms = germ_minors(pp, ctx)
        return is_regular_on_V(pp.f, ms.principal[0], ms.principal[1], ctx)

    if not force_random:
        if regular(p):
            return identity_change(p.nvars), p
    rng = random.Random(p.seed)
    n = p.nvars
    for _ in range(ctx.attempts):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if rational_det(rows) == 0:
            continue
        change = CoordinateChange(tuple(tuple(r) for r in rows))
        q = change.apply(p)
        if regular(q):
            return change, q
    raise GoodCoordsNotFound(
        f"no good coordinates after {ctx.attempts} attempts")


def germ_residue(p: GermProblem, h: Poly,
                 ctx: Optional[Ctx] = None) -> Fraction:
    """Residue of h dz_1 ^ dz_2 over (m_1, m_2) on the germ, index-oriented.

    The principal minors are labelled by the column they omit, so the pair
    (m_1, m_2) runs against the orientation of (z_1, z_2) by exactly one
    transposition.  The sign below restores the orientation in which the
    smooth model omega = x dx + y dy counts +1, making germ residues of
    index data nonnegative.
    """
    p.require_surface()
    n = p.nvars
    ms = germ_minors(p, ctx)
    nbasis = n * (n - 1) // 2
    form = [h] + [Poly.zero(n)] * (nbasis - 1)
    raw = relative_residue(form, [ms.principal[0], ms.principal[1]], list(p.f),
                           ctx)
    return -raw


def main_residue(p: GermProblem, ctx: Optional[Ctx] = None) -> Fraction:
    """Residue of sigma over (m_1, m_2) on the germ.

    pre: (m_1, m_2) is a regular pair (run find_good_coordinates first);
    otherwise the underlying residue raises NotRegularSequence.
    """
    ctx = ctx or Ctx()
    return germ_residue(p, germ_sigma(p, ctx).sigma, ctx)


def curve_index(f: Sequence[Poly], omega: Sequence[Poly],
                ctx: Optional[Ctx] = None):
    """Index of a 1-form on the curve germ cut out by n - 1 equations.

    The single stacked determinant m joins the equations; the index is the
    colength of (f, m).  A unit m means the form has no zero: index 0.
    """
    f = list(f)
    omega = list(omega)
    if not omega:
        raise ValueError("need a form")
    n = omega[0].nvars
    if len(f) != n - 1:
        raise ValueError(f"curve germ needs {n - 1} equations, got {len(f)}")
    m = stacked_matrix(f, omega, range(n)).determinant()
    if m.is_unit():
        return 0
    ctx = ctx or Ctx()
    sb = ctx.basis(f + [m])
    dim = colength(sb)
    if dim == INFINITE:
        raise NotIsolated("the form vanishes along the curve germ")
    ctx.record("curve", sb.cap)
    return dim


@dataclass
class SurfaceIndexReport:
    """Everything the dual computation produces for one surface germ."""

    problem: GermProblem
    index: int
    residue: Fraction
    change: CoordinateChange
    transformed: GermProblem
    sigma: Poly
    df: Poly
    caps_used: Dict[str, int] = field(default_factory=dict)

    @property
    def match(self) -> bool:
        return self.residue == self.index


def solve(p: GermProblem, ctx: Optional[Ctx] = None) -> SurfaceIndexReport:
    """Index as a dimension and as a residue, plus the data connecting them."""
    ctx = ctx or Ctx()
    idx = eg_index(p, ctx)
    change, good = find_good_coordinates(p, ctx)
    sd = germ_sigma(good, ctx)
    res = main_residue(good, ctx)
    return SurfaceIndexReport(p, idx, res, change, good, sd.sigma, sd.df,
                              dict(ctx.caps_used))
