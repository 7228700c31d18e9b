"""Exact Grothendieck residues via the transformation law.

A residue of h over a regular sequence (g_1, ..., g_n) with ideal I is
computed by expressing minimal pure powers z_i^{d_i} through the g_j,
z^d = A g, and reading off one Taylor coefficient: the residue is the
coefficient of z^(d - 1) in h * det(A) (Griffiths-Harris, Principles of
Algebraic Geometry, 5.1).  Only the coefficients of det(A) in the box
{e : e_i <= d_i - 1} are ever read, and they do not depend on h, so a
ResidueForm computes them once per ordered denominator tuple, the Ctx
memo shares one form per tuple (residue_form), and each value is one
coefficient extraction.

With t the staircase height of I, m^(t+1) lies in I, so d_i <= t + 1 and
the powers come from plain normal forms on the certified basis.  Write
big = sum(d_i - 1), the highest degree in the box.  The lift rows come
from a tracked basis at term cap max(cap, big + t + 2) whose
representations are kept only up to rep_cap = big + t + 2.  Cutting the
representations at rep_cap leaves an error z^d - A' g in I and in
m^(rep_cap + 1), the same kind of error the term cap leaves above it.
Such an error does not reach the box.  Since m^(t+1) lies in I, an error
in m^(N+1) is B g with every entry of B in m^(N-t), so A' + B is an exact
lift.  For N >= big + t + 1 the entries of B have order above big, so
det(A') agrees with det(A' + B) up to degree big, and every exact lift
gives the same box: its coefficients are the residues of the monomials
z^(d - 1 - e).  So the box is proved once, for numerators of every
degree, and nothing is recomputed.

Residues of forms on the zero set of f reduce to residues on the ambient
space by wedging with df_1 ^ ... ^ df_q; the reduction (lambda_map) is a
signed sum of Jacobian minors over complementary index sets.  For the
form dg_1 ^ ... ^ dg_k that sum is the generalized Laplace expansion of
det d(g, f)/dz along its first k rows, so the multiplicity's residue
numerator is that one n x n Jacobian determinant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import sub
from typing import List, Optional, Sequence, Tuple

from .errors import NotRegularSequence, PowerCapExceeded
from .localalg import (Ctx, StandardBasis, colength, lift, normal_form,
                       record, standard_basis_at)
from .polycore import Poly, series_determinant


def _coefficient_of_product(h: Poly, g: Poly, target: Tuple[int, ...]) -> Fraction:
    """Coefficient of z^target in h * g, summed on the ints."""
    other = g.ints
    total = sum(c * other.get(tuple(map(sub, target, e)), 0)
                for e, c in h.ints.items())
    return Fraction(total, h.den * g.den)


def lift_rows(denoms: Sequence[Poly], powers: Sequence[int], cap: int,
              rep_cap: Optional[int] = None) -> List[List[Poly]]:
    """Truncated lift matrix: row i expresses z_i^{d_i} through the denominators.

    The basis behind it is built at term cap cap; the entries are kept up
    to degree rep_cap (default cap).  Raises NotMember when some z_i^{d_i}
    is not in the ideal at that cap.
    """
    denoms = list(denoms)
    sb = standard_basis_at(denoms, cap, track=True, rep_cap=rep_cap)
    n = denoms[0].nvars
    return [lift(Poly.monomial(n, [d if j == i else 0 for j in range(n)]),
                 sb).coefficients
            for i, d in enumerate(powers)]


def residue_via_lift(numerator: Poly, rows: Sequence[Sequence[Poly]],
                     powers: Sequence[int],
                     det_cap: Optional[int] = None) -> Fraction:
    """Residue from an explicit lift matrix over monomial denominators.

    Row i must express z_i^powers[i] as its entries times the original
    denominators.  The value is the coefficient of z^(powers - 1) in
    numerator * det(rows); any valid lift gives the same number, so a
    syzygy perturbation of the rows must not change the result.
    """
    if det_cap is None:
        big = sum(powers) - len(powers)
        det_cap = max(big - max(numerator.min_degree(), 0), 0)
    target = tuple(d - 1 for d in powers)
    return _coefficient_of_product(numerator,
                                   series_determinant(rows, det_cap), target)


def _denominator_list(denominators: Sequence[Poly]) -> List[Poly]:
    denoms = list(denominators)
    if not denoms:
        raise NotRegularSequence("empty denominator list")
    counts = sorted({g.nvars for g in denoms})
    if len(counts) > 1:
        raise ValueError("denominators mix variable counts "
                         + ", ".join(map(str, counts)))
    n = counts[0]
    if len(denoms) != n:
        raise NotRegularSequence(
            f"{len(denoms)} denominators in {n} variables cannot be a regular "
            "sequence with finite colength")
    return denoms


def _minimal_power(i: int, base: StandardBasis) -> int:
    """Least d with z_i^d in the ideal of a certified finite basis.

    With t the staircase height, m^(t+1) lies in the ideal and t is below
    the cap, so the search ends by t + 1 and each normal form is exact.
    """
    n = base.nvars
    t = base.max_quotient_degree()
    for d in range(1, t + 2):
        exps = [0] * n
        exps[i] = d
        if normal_form(Poly.monomial(n, exps), base).is_zero():
            return d
    raise PowerCapExceeded(
        f"no power of variable {i} up to {t + 1} lies in the ideal at cap "
        f"{base.cap}")


class ResidueForm:
    """The residue over one ordered denominator tuple, as a functional of h.

    Holds the powers d and the coefficients of det(A) in the box
    {e : e_i <= d_i - 1}.  The box is lifted once, on the first nonzero
    value, at term cap cap = max(ctx.cap, big + t + 2), which the module
    docstring proves exact for numerators of every degree; that cap is
    recorded in ctx.caps_used under "residue" when the box is built.  The
    certified basis of the denominators' ideal comes from ctx, so a basis
    the context already holds for the same generators in any order is not
    built again.  Raises NotRegularSequence when the denominators do not
    cut out a finite quotient.  residue_form shares one form per ordered
    tuple in ctx.
    """

    def __init__(self, denominators: Sequence[Poly], ctx: Optional[Ctx] = None):
        self.denominators = _denominator_list(denominators)
        ctx = ctx or Ctx()
        base = ctx.finite(self.denominators, NotRegularSequence(
            "denominator ideal has infinite colength"))
        n = len(self.denominators)
        self.height = base.max_quotient_degree()
        # colength 0 means a unit among the denominators: the residue cycle
        # is empty and every value is 0
        self.powers: Tuple[int, ...] = tuple(
            _minimal_power(i, base) for i in range(n)) if colength(base) else ()
        self.big = sum(self.powers) - len(self.powers)
        self.cap = max(ctx.cap, self.big + self.height + 2)
        # the form keeps ctx's record, not ctx: a form in ctx's memo would
        # otherwise make a reference cycle that only the collector frees
        self.caps_used = ctx.caps_used
        self.box: Optional[Poly] = None

    def value(self, numerator: Poly) -> Fraction:
        """Residue of numerator, a polynomial in the denominators' variables."""
        n = len(self.denominators)
        if numerator.nvars != n:
            raise ValueError(f"numerator in {numerator.nvars} variables over "
                             f"denominators in {n}")
        if numerator.is_zero() or not self.powers:
            return Fraction(0)
        if self.box is None:
            self.box = self._box()
        return _coefficient_of_product(numerator, self.box,
                                       tuple(d - 1 for d in self.powers))

    def _box(self) -> Poly:
        rows = lift_rows(self.denominators, self.powers, self.cap,
                         rep_cap=self.big + self.height + 2)
        det = series_determinant(rows, self.big)
        record(self.caps_used, "residue", self.cap)
        return Poly.from_ints(det.nvars, {
            e: c for e, c in det.ints.items()
            if all(k < d for k, d in zip(e, self.powers))}, det.den)


def residue_form(denominators: Sequence[Poly], ctx: Ctx) -> ResidueForm:
    """The ResidueForm of the ordered tuple, built once per ctx."""
    denoms = tuple(denominators)
    return ctx.once(("residue", denoms), lambda: ResidueForm(denoms, ctx))


def grothendieck_residue(numerator: Poly, denominators: Sequence[Poly],
                         ctx: Optional[Ctx] = None) -> Fraction:
    """Local residue of numerator over the ordered regular sequence.

    The value changes sign under denominator swaps; orientation is carried
    by the determinant of the lift matrix.  Raises NotRegularSequence when
    the denominators do not cut out a finite quotient.  Calls that share
    ctx share the tuple's ResidueForm, so its box is lifted once.
    """
    return residue_form(denominators, ctx or Ctx()).value(numerator)


def _perm_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def form_index_basis(n: int, k: int) -> List[Tuple[int, ...]]:
    """Ascending multi-indices enumerating the coordinate k-form basis."""
    return list(itertools.combinations(range(n), k))


def jacobian_minor(f: Sequence[Poly], columns: Sequence[int],
                   nvars: int) -> Poly:
    """det d(f_1..f_q)/d(z_{columns}) in nvars variables; 1 when f is empty."""
    if len(columns) != len(f):
        raise ValueError(f"need {len(f)} column indices")
    if not f:
        return Poly.const(nvars, 1)
    return series_determinant([[fi.diff(j) for j in columns] for fi in f])


def lambda_map(form: Sequence[Poly], f: Sequence[Poly], nvars: int) -> Poly:
    """Coefficient of the n-form obtained by wedging with df_1 ^ ... ^ df_q.

    form lists the coefficients of an (n-q)-form on the basis
    form_index_basis(n, n-q); the result collects, per multi-index I, the
    complementary Jacobian minor of f with the shuffle sign of (I, I^c).
    """
    basis = form_index_basis(nvars, nvars - len(f))
    if len(form) != len(basis):
        raise ValueError(f"form needs {len(basis)} coefficients, got {len(form)}")
    out = Poly.zero(nvars)
    for h, I in zip(form, basis):
        if h.is_zero():
            continue
        comp = tuple(j for j in range(nvars) if j not in I)
        sign = _perm_sign(list(I) + list(comp))
        piece = h * jacobian_minor(f, comp, nvars)
        out = out + (piece if sign > 0 else -piece)
    return out


def relative_residue(form: Sequence[Poly], g: Sequence[Poly], f: Sequence[Poly],
                     ctx: Optional[Ctx] = None) -> Fraction:
    """Residue of a form over (g_1, ..., g_{n-q}) on the zero set of f.

    Reduces to an ambient residue with denominators (g..., f...), in that
    order; the numerator is lambda_map applied to the form coefficients.
    """
    if not g:
        raise NotRegularSequence("need at least one denominator on the germ")
    nvars = g[0].nvars
    if len(g) + len(f) != nvars:
        raise NotRegularSequence(
            f"{len(f)} equations and {len(g)} denominators do not total "
            f"{nvars} variables")
    num = lambda_map(form, list(f), nvars)
    denoms = list(g) + list(f)
    return grothendieck_residue(num, denoms, ctx)


def intersection_multiplicity_both_ways(f: Sequence[Poly], g: Sequence[Poly],
                                        ctx: Optional[Ctx] = None):
    """Colength of (f, g) next to the residue of dg_1 ^ ... ^ dg_{n-q} over g.

    The residue on the zero set of f is the ambient one of
    det d(g, f)/dz over (g, f), by the Laplace step in the module
    docstring.  Returns the pair (dimension count, residue value); the two
    agree for every zero dimensional input, which the verify suites
    exercise.
    """
    f, g = list(f), list(g)
    if not g:
        raise NotRegularSequence("need at least one g")
    ctx = ctx or Ctx()
    lhs = colength(ctx.finite(
        f + g, NotRegularSequence("(f, g) is not zero dimensional"),
        "colength"))
    # (g, f) is the ideal of (f, g): the residue finds the colength basis
    # in ctx, and its denominator check is the one count check
    denoms = g + f
    form = residue_form(denoms, ctx)
    n = len(denoms)
    return lhs, form.value(jacobian_minor(denoms, range(n), n))
