"""Standard bases and quotient algebras in the local ring at the origin.

Monomials are compared in the negative degree reverse lexicographic order:
1 is the largest monomial and larger total degree means smaller.  All
computation is truncated at a total-degree cap.  Because a reduction step
only ever replaces a monomial by strictly smaller ones (same or higher
degree), truncation is exact below the cap: the computed leading ideal
agrees with the true one on every monomial of degree <= cap.  Unit
denominators never appear; the geometric series a unit would contribute
unfolds automatically inside the capped reduction loop.

A basis is certified by recomputing at cap + 4 and checking the staircase
is unchanged.  When the quotient staircase is finite and lies strictly
below the cap this is a proof, not a heuristic: every monomial one degree
above the staircase is then a verified member of the leading ideal.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (CapExceeded, NotMember, NotZeroDimensional,
                     PowerCapExceeded)
from .polycore import (Exponent, Poly, Terms, TruncatedSeries, mono_deg,
                       mono_div, mono_divides, mono_lcm, mono_mul)

INFINITE = math.inf

DEFAULT_CAP = 12
CAP_STEP = 4
MAX_CAP = 40


class LocalOrder:
    """Negative degree reverse lexicographic order, optional variable permutation."""

    def __init__(self, nvars: int, permutation: Optional[Sequence[int]] = None):
        self.nvars = nvars
        self.permutation = tuple(permutation) if permutation is not None else None
        if self.permutation is not None and sorted(self.permutation) != list(range(nvars)):
            raise ValueError("permutation must rearrange 0..nvars-1")

    def key(self, e: Exponent):
        """Sort key; larger key means larger monomial (closer to 1)."""
        if self.permutation is not None:
            e = tuple(e[i] for i in self.permutation)
        return (-sum(e), tuple(-v for v in reversed(e)))

    def leading_exponent(self, terms: Terms) -> Exponent:
        return max(terms, key=self.key)

    def sort_desc(self, monomials) -> List[Exponent]:
        return sorted(monomials, key=self.key, reverse=True)


class _Elem:
    """One standard basis element, kept monic."""

    __slots__ = ("terms", "lm", "ecart", "rep")

    def __init__(self, terms: Terms, lm: Exponent, rep: Optional[List[Terms]]):
        self.terms = terms
        self.lm = lm
        self.ecart = max(mono_deg(e) for e in terms) - mono_deg(lm)
        self.rep = rep


def _add_scaled(dst: Terms, src: Terms, coeff: Fraction, mono: Exponent, cap: int,
                sink: Optional[List[Exponent]] = None) -> None:
    """dst += coeff * mono * src, truncated at cap; new exponents go to sink."""
    base = mono_deg(mono)
    for e, c in src.items():
        if base + mono_deg(e) > cap:
            continue
        me = mono_mul(mono, e)
        s = dst.get(me, Fraction(0)) + coeff * c
        if s:
            if me not in dst and sink is not None:
                sink.append(me)
            dst[me] = s
        else:
            dst.pop(me, None)


def _neg_key(k):
    return (-k[0], tuple(-v for v in k[1]))


def _reduce(terms: Terms, G: List[_Elem], order: LocalOrder, cap: int,
            rep: Optional[List[Terms]] = None,
            rep_cap: Optional[int] = None) -> Tuple[Terms, Optional[List[Terms]]]:
    """Canonical reduction of terms by G; remainder is supported off the leading ideal.

    Monomials are processed largest first; a reduction step only creates
    strictly smaller monomials, so each is handled once.  Mora's selection
    rule (divisor of least ecart) keeps tails short.  The remainder is the
    unique representative modulo the ideal supported on staircase
    monomials, which makes the map linear in the dividend.  Quotients are
    accumulated into rep truncated at rep_cap (default cap); they never
    feed back into the remainder.
    """
    if rep_cap is None:
        rep_cap = cap
    h: Terms = {e: c for e, c in terms.items() if mono_deg(e) <= cap}
    if rep is not None:
        rep = [dict(r) for r in rep]
    remainder: Terms = {}
    heap = [(_neg_key(order.key(e)), e) for e in h]
    heapq.heapify(heap)
    done = set()
    new_exps: List[Exponent] = []
    while heap:
        _, e = heapq.heappop(heap)
        if e in done:
            continue
        done.add(e)
        c = h.get(e)
        if not c:
            continue
        chosen = None
        for g in G:
            if mono_divides(g.lm, e):
                if chosen is None or g.ecart < chosen.ecart:
                    chosen = g
        if chosen is None:
            remainder[e] = c
            del h[e]
            continue
        mono = mono_div(e, chosen.lm)
        new_exps.clear()
        _add_scaled(h, chosen.terms, -c, mono, cap, sink=new_exps)
        if rep is not None and chosen.rep is not None:
            for j, r in enumerate(chosen.rep):
                _add_scaled(rep[j], r, c, mono, rep_cap)
        for ne in new_exps:
            if ne not in done:
                heapq.heappush(heap, (_neg_key(order.key(ne)), ne))
    return remainder, rep


def _monic(terms: Terms, lm: Exponent, rep: Optional[List[Terms]]):
    lc = terms[lm]
    if lc != 1:
        terms = {e: c / lc for e, c in terms.items()}
        if rep is not None:
            rep = [{e: c / lc for e, c in r.items()} for r in rep]
    return terms, rep


def _complete(gens: Sequence[Poly], order: LocalOrder, cap: int, track: bool,
              rep_cap: int):
    """Truncated completion to a standard basis; returns the element list.

    Elements are truncated at cap, tracked representations at rep_cap.
    """
    m = len(gens)
    G: List[_Elem] = []

    def insert(terms: Terms, rep):
        # rep satisfies terms = sum(rep[j] * gens[j]) up to rep_cap.  The
        # reducer accumulates subtracted quotients, so feed it the negated
        # representation and negate the result to keep that identity for
        # the reduced element.
        neg = None
        if rep is not None:
            neg = [{e: -c for e, c in r.items()} for r in rep]
        terms, neg = _reduce(terms, G, order, cap, neg, rep_cap)
        if not terms:
            return
        if neg is not None:
            rep = [{e: -c for e, c in r.items()} for r in neg]
        lm = order.leading_exponent(terms)
        terms, rep = _monic(terms, lm, rep)
        G.append(_Elem(terms, lm, rep))

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        rep = None
        if track:
            rep = [dict() for _ in range(m)]
            rep[j] = {(0,) * g.nvars: Fraction(1)}
        insert({e: c for e, c in g.terms.items() if mono_deg(e) <= cap}, rep)

    pairs = []
    def push_pairs(new_index: int):
        gi = G[new_index]
        for k in range(new_index):
            lcm = mono_lcm(G[k].lm, gi.lm)
            d = mono_deg(lcm)
            if d <= cap:
                heapq.heappush(pairs, (d, k, new_index, lcm))

    for i in range(len(G)):
        push_pairs(i)

    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        gi, gj = G[i], G[j]
        mi, mj = mono_div(lcm, gi.lm), mono_div(lcm, gj.lm)
        if mi is None or mj is None:
            continue
        s: Terms = {}
        _add_scaled(s, gi.terms, Fraction(1), mi, cap)
        _add_scaled(s, gj.terms, Fraction(-1), mj, cap)
        rep = None
        if track:
            rep = [dict() for _ in range(m)]
            if gi.rep is not None:
                for t, r in enumerate(gi.rep):
                    _add_scaled(rep[t], r, Fraction(1), mi, rep_cap)
            if gj.rep is not None:
                for t, r in enumerate(gj.rep):
                    _add_scaled(rep[t], r, Fraction(-1), mj, rep_cap)
        before = len(G)
        insert(s, rep)
        if len(G) > before:
            push_pairs(before)
    return G


def _staircase_min_gens(G: List[_Elem]) -> List[Exponent]:
    lms = sorted({g.lm for g in G}, key=lambda e: (mono_deg(e), e))
    minimal: List[Exponent] = []
    for e in lms:
        if not any(mono_divides(f, e) for f in minimal):
            minimal.append(e)
    return minimal


def _quotient_monomials(stair: List[Exponent], nvars: int) -> Optional[List[Exponent]]:
    """Monomials outside the leading ideal; None when infinitely many."""
    if any(mono_deg(e) == 0 for e in stair):
        return []
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in stair if all(e[j] == 0 for j in range(nvars) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    out: List[Exponent] = []

    def walk(prefix: List[int], i: int):
        if i == nvars:
            e = tuple(prefix)
            if not any(mono_divides(s, e) for s in stair):
                out.append(e)
            return
        for k in range(bounds[i]):
            prefix.append(k)
            walk(prefix, i + 1)
            prefix.pop()

    walk([], 0)
    out.sort(key=lambda e: (mono_deg(e), e))
    return out


@dataclass
class StandardBasis:
    """Certified truncated standard basis of an ideal in the local ring."""

    gens: Tuple[Poly, ...]
    order: LocalOrder
    cap: int
    rep_cap: int        # tracked representations are exact up to this degree
    certified: bool
    elements: List[Poly] = field(repr=False)
    staircase: List[Exponent]
    quotient_monomials: Optional[List[Exponent]]
    _elems: List[_Elem] = field(repr=False)
    tracked: bool = False

    def is_finite(self) -> bool:
        return self.quotient_monomials is not None

    def max_quotient_degree(self) -> int:
        if not self.quotient_monomials:
            return -1
        return max(mono_deg(e) for e in self.quotient_monomials)


def _build(gens: Sequence[Poly], order: LocalOrder, cap: int, track: bool,
           certified: bool, rep_cap: Optional[int] = None) -> StandardBasis:
    rep_cap = cap if rep_cap is None else min(rep_cap, cap)
    elems = _complete(gens, order, cap, track, rep_cap)
    stair = _staircase_min_gens(elems)
    quot = _quotient_monomials(stair, order.nvars)
    polys = [Poly(order.nvars, dict(e.terms)) for e in elems]
    return StandardBasis(tuple(gens), order, cap, rep_cap, certified, polys,
                         stair, quot, elems, track)


def standard_basis(gens: Sequence[Poly], order: Optional[LocalOrder] = None,
                   cap: int = DEFAULT_CAP, max_cap: int = MAX_CAP,
                   track: bool = False) -> StandardBasis:
    """Standard basis with cap escalation until the staircase stabilizes.

    Escalates the cap by CAP_STEP until the staircase at cap and cap + 4
    agree and, in the finite case, lies strictly below the cap; raises
    CapExceeded past max_cap.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("standard_basis needs at least one generator")
    nvars = gens[0].nvars
    order = order or LocalOrder(nvars)
    # a generator supported entirely above the cap would be invisible to the
    # truncated runs, so the cap must reach every generator's degree
    deepest = max((g.total_degree() for g in gens if not g.is_zero()), default=0)
    c = max(cap, deepest)
    if c > max_cap:
        raise CapExceeded(
            f"generator degree {deepest} exceeds the cap ceiling {max_cap}")
    while c <= max_cap:
        base = _build(gens, order, c, track, certified=False)
        if base.is_finite() and base.max_quotient_degree() >= c:
            c = max(c + CAP_STEP, base.max_quotient_degree() + 1)
            continue
        check = _build(gens, order, c + CAP_STEP, track, certified=False)
        if base.staircase == check.staircase:
            base.certified = True
            return base
        c += CAP_STEP
    raise CapExceeded(f"staircase did not stabilize below cap {max_cap}")


def standard_basis_at(gens: Sequence[Poly], cap: int,
                      order: Optional[LocalOrder] = None,
                      track: bool = False,
                      rep_cap: Optional[int] = None) -> StandardBasis:
    """Single run at a fixed cap, no certification; for internal re-runs.

    With track=True the representations of the elements through gens are
    kept up to degree rep_cap (default, and at most, cap).  The elements,
    the staircase and every remainder are the same whatever rep_cap is;
    only the representation terms above it are dropped, so a lift read
    only to low degree can skip the cost of the deep ones.
    """
    gens = list(gens)
    nvars = gens[0].nvars
    order = order or LocalOrder(nvars)
    return _build(gens, order, cap, track, certified=False, rep_cap=rep_cap)


def colength(sb: StandardBasis):
    """Dimension of the local quotient ring, or INFINITE."""
    if sb.quotient_monomials is None:
        return INFINITE
    return len(sb.quotient_monomials)


def normal_form(p: Poly, sb: StandardBasis) -> TruncatedSeries:
    """Canonical remainder of p modulo the ideal, supported on the staircase."""
    r, _ = _reduce(p.terms, sb._elems, sb.order, sb.cap)
    return TruncatedSeries(Poly(p.nvars, r), sb.cap)


def normal_form_with_lift(p: Poly, sb: StandardBasis):
    """Remainder plus coefficients on the original generators (needs track=True)."""
    if not sb.tracked:
        raise ValueError("standard basis was built without lift tracking")
    rep = [dict() for _ in range(len(sb.gens))]
    r, rep = _reduce(p.terms, sb._elems, sb.order, sb.cap, rep, sb.rep_cap)
    coeffs = [TruncatedSeries(Poly(p.nvars, cr), sb.rep_cap) for cr in rep]
    return TruncatedSeries(Poly(p.nvars, r), sb.cap), coeffs


@dataclass
class LiftCertificate:
    """target = sum(coefficients[j] * gens[j]) up to the cap."""

    target: Poly
    gens: Tuple[Poly, ...]
    coefficients: List[TruncatedSeries]
    cap: int

    def defect(self) -> Poly:
        """target - sum(c_j g_j); every surviving monomial has degree > cap."""
        acc = self.target
        for c, g in zip(self.coefficients, self.gens):
            acc = acc - c.poly * g
        return acc

    def check(self) -> bool:
        d = self.defect()
        return d.is_zero() or d.min_degree() > self.cap


def lift(target: Poly, gens: Sequence[Poly], cap: int = DEFAULT_CAP,
         sb: Optional[StandardBasis] = None) -> LiftCertificate:
    """Express target in terms of gens modulo degree > cap, or raise NotMember."""
    if sb is None:
        sb = standard_basis_at(gens, cap, track=True)
    r, coeffs = normal_form_with_lift(target, sb)
    if not r.is_zero():
        raise NotMember(f"remainder {r.render()} is nonzero at cap {sb.cap}")
    return LiftCertificate(target, tuple(sb.gens), coeffs, sb.rep_cap)


def minimal_power_membership(var_index: int, gens: Sequence[Poly],
                             max_power: int = 64, cap: Optional[int] = None,
                             sb: Optional[StandardBasis] = None):
    """Smallest d with z_i^d in the ideal, plus its lift certificate.

    pre: the ideal is zero dimensional (otherwise no power is ever a member
    and the search stops at max_power with PowerCapExceeded).
    """
    nvars = gens[0].nvars
    if sb is None:
        work_cap = cap if cap is not None else DEFAULT_CAP
        sb = standard_basis_at(gens, work_cap, track=True)
    if not sb.tracked:
        raise ValueError("minimal_power_membership needs a tracked basis")
    start = 1
    if sb.quotient_monomials is not None:
        # powers below the pure staircase bound are quotient basis monomials
        for e in sb.staircase:
            if all(e[j] == 0 for j in range(nvars) if j != var_index) and e[var_index]:
                start = e[var_index]
                break
    for d in range(start, max_power + 1):
        if d > sb.cap:
            break
        exps = [0] * nvars
        exps[var_index] = d
        p = Poly.monomial(nvars, exps)
        r, coeffs = normal_form_with_lift(p, sb)
        if r.is_zero():
            return d, LiftCertificate(p, tuple(sb.gens), coeffs, sb.rep_cap)
    raise PowerCapExceeded(
        f"no power of variable {var_index} below {min(max_power, sb.cap) + 1} "
        f"lies in the ideal at cap {sb.cap}")


@dataclass
class QuotientAlgebra:
    """Finite dimensional local quotient with multiplication matrices."""

    sb: StandardBasis
    basis: List[Exponent]
    matrices: List[List[List[Fraction]]]  # matrices[i][r][c]: z_i * basis[c] -> basis[r]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, p: Poly) -> List[Fraction]:
        nf = normal_form(p, self.sb)
        index = {e: i for i, e in enumerate(self.basis)}
        vec = [Fraction(0)] * len(self.basis)
        for e, c in nf.poly.terms.items():
            vec[index[e]] = c
        return vec

    def element(self, vec: Sequence[Fraction]) -> Poly:
        terms: Terms = {}
        for e, c in zip(self.basis, vec):
            if c:
                terms[e] = Fraction(c)
        return Poly(self.sb.order.nvars, terms)

    def multiplication_matrix(self, p: Poly) -> List[List[Fraction]]:
        """Matrix of multiplication by p on the monomial basis."""
        n = self.dim
        cols = []
        for e in self.basis:
            cols.append(self.coordinates(p * Poly.monomial(self.sb.order.nvars, e)))
        return [[cols[c][r] for c in range(n)] for r in range(n)]


def quotient_algebra(sb: StandardBasis) -> QuotientAlgebra:
    if sb.quotient_monomials is None:
        raise NotZeroDimensional("staircase leaves a coordinate direction unbounded")
    nvars = sb.order.nvars
    basis = list(sb.quotient_monomials)
    index = {e: i for i, e in enumerate(basis)}
    matrices = []
    for i in range(nvars):
        n = len(basis)
        mat = [[Fraction(0)] * n for _ in range(n)]
        for c, e in enumerate(basis):
            shifted = list(e)
            shifted[i] += 1
            nf = normal_form(Poly.monomial(nvars, shifted), sb)
            for me, mc in nf.poly.terms.items():
                mat[index[me]][c] = mc
        matrices.append(mat)
    return QuotientAlgebra(sb, basis, matrices)


def is_regular_on_V(f: Sequence[Poly], g1: Poly, g2: Poly,
                    cap: int = DEFAULT_CAP, max_cap: int = MAX_CAP) -> bool:
    """True when (g1, g2) cuts a finite quotient on the complete intersection.

    On a two dimensional Cohen Macaulay germ a pair is a regular sequence
    exactly when the joint quotient is finite dimensional.
    """
    if g1.is_zero() or g2.is_zero():
        return False
    gens = list(f) + [g1, g2]
    sb = standard_basis(gens, cap=cap, max_cap=max_cap)
    return colength(sb) != INFINITE
