"""Index of a holomorphic 1-form on an isolated complete intersection surface germ.

A GermProblem is by construction a surface germ cut out by q = n - 2
equations f, with a 1-form omega.  Stacking the Jacobian of f on top of
omega's coefficient row gives an (n-1) x n matrix whose n maximal minors,
m_{i+1} omitting column i, generate with f the ideal whose colength is
the index.  The same data feeds a residue formula: a signed Jacobian
sigma of the minors, the last-block minor DF of f, and the ordered
denominators (m_1, m_2, f) of residue_denominators.

Every computation takes an optional localalg.Ctx.  Calls that share one
compute each germ's minors and sigma once (germ_minors, germ_sigma) and
certify each ideal once.  An ideal whose colength is the index passes
Ctx.finite: eg_index records its cap under "index" and curve_index under
"curve", and an infinite staircase raises NotIsolated before anything is
recorded.

solve's report holds no germ: the caller has the input, and
find_good_coordinates returns the germ in good coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ArityError, GoodCoordsNotFound, NotIsolated
from .localalg import Ctx, colength, is_regular_on_V
from .polycore import Poly, linear_forms, rational_det, series_determinant
from .residues import grothendieck_residue, jacobian_minor


@dataclass(frozen=True)
class GermProblem:
    """A 1-form at the origin of C^n on the surface germ cut out by f.

    invariant, checked here and nowhere else: n >= 2, len(f) == n - 2
    (ArityError otherwise), every equation vanishes at 0 and omega has one
    component per variable (ValueError otherwise).
    """

    nvars: int
    f: Tuple[Poly, ...]
    omega: Tuple[Poly, ...]
    seed: int = 0
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.nvars < 2:
            raise ArityError(f"surface commands need at least 2 variables, "
                             f"got {self.nvars}")
        if len(self.f) != self.nvars - 2:
            raise ArityError(f"surface commands need {self.nvars - 2} "
                             f"equations for {self.nvars} variables, "
                             f"got {len(self.f)}")
        if len(self.omega) != self.nvars:
            raise ValueError("omega needs one component per variable")
        for fi in self.f:
            if fi.constant_term() != 0:
                raise ValueError("equations must vanish at the origin")


def stacked_matrix(f: Sequence[Poly], omega: Sequence[Poly],
                   columns: Sequence[int]) -> List[List[Poly]]:
    """The Jacobian of f over the row of omega's coefficients, in columns."""
    rows = [[fi.diff(j) for j in columns] for fi in f]
    rows.append([omega[j] for j in columns])
    return rows


def minor(p: GermProblem, columns: Sequence[int]) -> Poly:
    """Maximal minor of the stacked matrix, columns taken in the given order.

    Repeated columns give 0 and swaps flip the sign, as for any determinant.
    """
    return series_determinant(stacked_matrix(p.f, p.omega, columns))


def minors(p: GermProblem) -> Tuple[Poly, ...]:
    """Every maximal minor of the stacked matrix; entry i omits column i."""
    n = p.nvars
    return tuple(minor(p, [j for j in range(n) if j != i]) for i in range(n))


def germ_minors(p: GermProblem, ctx: Optional[Ctx]) -> Tuple[Poly, ...]:
    """minors(p), computed once per germ in ctx (afresh without one)."""
    return (ctx or Ctx()).once(("minors", p), lambda: minors(p))


def ideal_J(p: GermProblem, ctx: Optional[Ctx] = None) -> List[Poly]:
    """f, then the minors by ascending column set; its colength is the index."""
    return list(p.f) + list(reversed(germ_minors(p, ctx)))


def residue_denominators(p: GermProblem,
                         ctx: Optional[Ctx] = None) -> List[Poly]:
    """Denominators (m_1, m_2, f_1, ..., f_q) of the germ residue, in order.

    The residue's sign depends on the order; germ_residue's is for this one.
    """
    ms = germ_minors(p, ctx)
    return [ms[0], ms[1]] + list(p.f)


def eg_index(p: GermProblem, ctx: Optional[Ctx] = None):
    """Dimension of the local algebra attached to the form on the germ.

    A minor that is a unit means the form does not vanish on the germ, so
    the index is 0.  An infinite colength means the zero locus is not
    isolated; that raises NotIsolated.
    """
    ctx = ctx or Ctx()
    if any(m.is_unit() for m in germ_minors(p, ctx)):
        return 0
    return colength(ctx.finite(
        ideal_J(p, ctx),
        NotIsolated("the form vanishes along a curve on the germ"), "index"))


@dataclass
class SigmaData:
    """Signed Jacobian data of the minors."""

    minors: Tuple[Poly, ...]
    m_matrix: List[List[Poly]]   # entry [i][j]: (-1)^(i+1) d m_{i+1} / d z_j
    sigma: Poly                  # sum of principal 2x2 minors of m_matrix
    df: Poly                     # last-block Jacobian minor of f


def sigma_data(p: GermProblem, ctx: Optional[Ctx] = None) -> SigmaData:
    """sigma, DF and the signed minor Jacobian, from the minors in ctx.

    The matrix rows are indexed by the omitted-column index of the minor
    (with alternating sign) and columns by the variable of differentiation.
    """
    ms = germ_minors(p, ctx)
    n = p.nvars
    mat = [[ms[i].diff(j) if (i + 1) % 2 == 0 else -ms[i].diff(j)
            for j in range(n)] for i in range(n)]
    sigma = Poly.zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            sigma = sigma + (mat[i][i] * mat[j][j] - mat[i][j] * mat[j][i])
    df = jacobian_minor(p.f, tuple(range(2, n)), n)
    return SigmaData(ms, mat, sigma, df)


def germ_sigma(p: GermProblem, ctx: Optional[Ctx]) -> SigmaData:
    """sigma_data(p), computed once per germ in ctx (afresh without one)."""
    return (ctx or Ctx()).once(("sigma", p), lambda: sigma_data(p, ctx))


@dataclass(frozen=True)
class CoordinateChange:
    """Linear substitution z = C y applied to equations and form."""

    matrix: Tuple[Tuple[Fraction, ...], ...]

    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))

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


def random_matrix(rng: random.Random, n: int) -> List[List[Fraction]]:
    """An n x n matrix of integers drawn from [-3, 3], row by row."""
    return [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


def find_good_coordinates(p: GermProblem, ctx: Optional[Ctx] = None,
                          force_random: bool = False):
    """Linear coordinates in which (m_1, m_2) is a regular pair on the germ.

    Tries the identity first, then ctx.attempts random integer matrices
    with entries in [-3, 3] and nonzero determinant, drawn from the
    problem's seed; the search is deterministic per seed.  Returns
    (change, transformed germ).
    """
    ctx = ctx or Ctx()

    def regular(pp: GermProblem) -> bool:
        ms = germ_minors(pp, ctx)
        return is_regular_on_V(pp.f, ms[0], ms[1], ctx)

    if not force_random:
        if regular(p):
            return identity_change(p.nvars), p
    rng = random.Random(p.seed)
    n = p.nvars
    for _ in range(ctx.attempts):
        rows = random_matrix(rng, n)
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

    Wedging h dz_1 ^ dz_2 with df_1 ^ ... ^ df_q gives h * DF dz, so this
    is the ambient residue of h * DF over residue_denominators, read off
    the one ResidueForm ctx keeps for them.  The minors are labelled by
    the column they omit, so the pair (m_1, m_2) runs against the
    orientation of (z_1, z_2) by exactly one transposition.  The sign
    below restores the orientation in which the smooth model
    omega = x dx + y dy counts +1, making germ residues of index data
    nonnegative.  This is the one place that sign and DF are applied:
    main_residue and every residue of the pairing lab come through here.
    """
    ctx = ctx or Ctx()
    return -grothendieck_residue(h * germ_sigma(p, ctx).df,
                                 residue_denominators(p, ctx), ctx)


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
    Raises ArityError, worded for the command line, unless len(f) = n - 1.
    """
    f = list(f)
    omega = list(omega)
    if not omega:
        raise ValueError("need a form")
    n = omega[0].nvars
    if len(f) != n - 1:
        raise ArityError(f"curve-index needs {n - 1} equations for {n} "
                         f"variables, got {len(f)}")
    m = series_determinant(stacked_matrix(f, omega, range(n)))
    if m.is_unit():
        return 0
    return colength((ctx or Ctx()).finite(
        f + [m], NotIsolated("the form vanishes along the curve germ"),
        "curve"))


@dataclass
class SurfaceIndexReport:
    """The index both ways; residue, sigma and df in change's coordinates."""

    index: int
    residue: Fraction
    change: CoordinateChange
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
    return SurfaceIndexReport(idx, res, change, sd.sigma, sd.df,
                              dict(ctx.caps_used))
