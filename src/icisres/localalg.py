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

An untracked completion also stops at the highest corner (Greuel and
Pfister, A Singular Introduction to Commutative Algebra, 1.7).  Once the
leading monomials so far leave finitely many quotient monomials, let top
be their largest degree (-1 for the unit ideal).  If top < cap, every
monomial of degree top + 1 leads an element of I + m^(cap+1), so
m^(top+1) lies in I + m^(top+2), and by Nakayama's lemma in I.  A
reduction step only creates monomials of the same or higher degree, so
no term above top can change a coefficient at or below it: the
completion cuts every element, S-polynomial and later dividend at top and
drops the pairs whose lcm lies above it, and its staircase, quotient
monomials and remainders are those of the uncut run.  A tracked basis
keeps its full tails, because a lift reads representations up to rep_cap,
far above the corner; an infinite staircase never cuts.

Bases, lifts and normal forms all run on one integer kernel (_Kernel),
built per cap.  A monomial is one int: the total degree in the top field,
then e_n, ..., e_1 below it (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998).  Each field
holds 2 * cap, the largest degree of a product of two truncated
monomials, plus a guard bit on top, so no product overflows a field.  Then
the smallest int is the largest monomial, a product is an addition, the
degree is a shift, truncation is one comparison against
(cap + 1) << shift, and b divides a exactly when subtracting b from a with
every guard bit set clears none of them.  LocalOrder.key remains the
specification of the order.

Coefficients inside the kernel are integers.  A basis element keeps its
terms and its representation rows as one primitive integer vector, scaled
by its leading coefficient lc.  A dividend starts as the Poly's own ints
over its denominator D, and its representation rows share D; a reduction
step on the coefficient c multiplies them by lc / gcd(lc, c) and
subtracts c / gcd(lc, c) times the shifted element, so nothing is ever
divided (fraction free, as in Bareiss elimination).  Values leave the
kernel the same way, as ints over one denominator (Poly.from_ints):
remainders and lift coefficients over D, basis elements as monic Polys
over lc (StandardBasis.elements), and from there LiftCertificate.
Selection depends only on leading monomials and ecarts, so every
staircase, element, remainder and representation is the one exact
rational arithmetic gives.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from .errors import (CapExceeded, NotMember, NotZeroDimensional,
                     PowerCapExceeded)
from .polycore import Exponent, Poly, Terms, mono_deg, mono_divides, mono_lcm

INFINITE = math.inf

DEFAULT_CAP = 12
CAP_STEP = 4
MAX_CAP = 40
GOOD_COORD_ATTEMPTS = 64


class LocalOrder:
    """Negative degree reverse lexicographic order."""

    def __init__(self, nvars: int):
        self.nvars = nvars

    def key(self, e: Exponent):
        """Sort key; larger key means larger monomial (closer to 1)."""
        return (-sum(e), tuple(-v for v in reversed(e)))


class _Elem:
    """One standard basis element in the integer kernel.

    lm and lc are the leading term, exp is lm unpacked, and tail holds the
    other (packed monomial, int) terms in ascending order, so smallest
    degree first.  The terms and rep, the representation rows through the
    generators (sorted the same way), form one primitive integer vector:
    the monic element is terms / lc and its representation rep / lc.
    """

    __slots__ = ("lm", "lc", "tail", "exp", "ecart", "rep")

    def __init__(self, terms: List[Tuple[int, int]], exp: Exponent, ecart: int,
                 rep: Optional[List[List[Tuple[int, int]]]]):
        self.lm, self.lc = terms[0]
        self.tail = terms[1:]
        self.exp = exp
        self.ecart = ecart
        self.rep = rep


def _addmul(dst: Dict[int, int], k: int, mono: int,
            src: List[Tuple[int, int]], limit: int) -> None:
    """dst += k * mono * src over packed terms sorted ascending, cut at limit."""
    for t, v in src:
        m = mono + t
        if m >= limit:
            break
        s = dst.get(m, 0) + k * v
        if s:
            dst[m] = s
        else:
            del dst[m]


class _Kernel:
    """Packed monomials and fraction-free reduction at one cap.

    The elements are kept twice: in insertion order, and stably sorted by
    ecart, so the first divisor found there is Mora's choice (least ecart,
    earliest inserted among equals).
    """

    def __init__(self, nvars: int, cap: int, rep_cap: int):
        # a field holds the degree of a product of two monomials of degree
        # <= cap, plus the guard bit
        width = (2 * cap).bit_length() + 1
        self.nvars = nvars
        self.width = width
        self.shift = nvars * width
        self.guards = sum(1 << (i * width + width - 1) for i in range(nvars))
        self.bound = cap
        self.limit = (cap + 1) << self.shift
        self.rep_limit = (rep_cap + 1) << self.shift
        self.elems: List[_Elem] = []
        self._search: List[_Elem] = []

    def pack(self, e: Exponent) -> int:
        m = sum(e)
        for v in reversed(e):
            m = (m << self.width) | v
        return m

    def unpack(self, m: int) -> Exponent:
        mask = (1 << self.width) - 1
        out = []
        for _ in range(self.nvars):
            out.append(m & mask)
            m >>= self.width
        return tuple(out)

    def divides(self, b: int, a: int) -> bool:
        """b | a: a - b, taken with every guard bit of a set, clears none."""
        return ((a | self.guards) - b) & self.guards == self.guards

    def degree(self, m: int) -> int:
        return m >> self.shift

    def add(self, g: _Elem) -> None:
        self.elems.append(g)
        bisect.insort_right(self._search, g, key=lambda el: el.ecart)

    def cut(self, bound: int) -> None:
        """Drop every term above degree bound, in the elements and from now on.

        Ecarts stay as they were at insertion, so every later choice of
        divisor is the one the uncut run makes.
        """
        self.bound = bound
        self.limit = (bound + 1) << self.shift
        for g in self.elems:
            g.tail = g.tail[:bisect.bisect_left(g.tail, (self.limit,))]

    def dividend(self, p: Poly) -> Tuple[Dict[int, int], int]:
        """p's integer terms of degree <= bound, and p's denominator."""
        bound, pack = self.bound, self.pack
        return {pack(e): c for e, c in p.ints.items() if sum(e) <= bound}, p.den

    def reduce(self, h: Dict[int, int],
               rows: Optional[List[Dict[int, int]]] = None) -> Tuple[List[int], int]:
        """Canonical reduction of h, in place; rows ride along.

        h holds integer coefficients over a denominator the caller keeps,
        and rows a representation over the same denominator.  Monomials
        are processed largest first; a reduction step only creates
        strictly smaller monomials, so each is handled once.  A step by an
        element with leading coefficient lc on the coefficient c multiplies
        h and rows by lc / gcd(lc, c) and subtracts c / gcd(lc, c) times
        the shifted element and its representation; the rows' share of
        the steps is added at the end, which gives the same rows without
        rescaling them at every step.  Returns the remainder monomials,
        largest first, whose coefficients stay in h, and the factor the
        denominator grew by.  The remainder is the unique
        representative modulo the ideal supported on staircase monomials,
        which makes the map linear in the dividend.  Terms are cut at the
        cap, rows at the representation cap; rows never feed back into h.
        """
        limit, search, divides = self.limit, self._search, self.divides
        heap = sorted(h)
        remainder: List[int] = []
        steps = []
        scale = 1
        last = -1
        while heap:
            e = heapq.heappop(heap)
            if e == last:
                continue    # pushed twice: cancelled, then created again
            last = e
            c = h.get(e)
            if c is None:
                continue
            for g in search:
                if divides(g.lm, e):
                    break
            else:
                remainder.append(e)
                continue
            mono = e - g.lm
            d = math.gcd(c, g.lc)
            a, b = g.lc // d, c // d
            if a != 1:
                scale *= a
                for k in h:
                    h[k] *= a
            del h[e]
            for t, v in g.tail:
                m = mono + t
                if m >= limit:
                    break
                old = h.get(m)
                if old is None:
                    h[m] = -b * v
                    heapq.heappush(heap, m)
                else:
                    s = old - b * v
                    if s:
                        h[m] = s
                    else:
                        del h[m]
            if rows is not None:
                steps.append((mono, b, g.rep, a))
        if rows is not None:
            # rows_end = scale * rows - sum over steps of b * (product of
            # the later multipliers) * mono * rep, summed last step first
            if scale != 1:
                for r in rows:
                    for k in r:
                        r[k] *= scale
            later = 1
            for mono, b, rep, a in reversed(steps):
                for r, gr in zip(rows, rep):
                    _addmul(r, -b * later, mono, gr, self.rep_limit)
                later *= a
        return remainder, scale


def _complete(gens: Sequence[Poly], nvars: int, cap: int, track: bool,
              rep_cap: int) -> _Kernel:
    """Truncated completion to a standard basis; returns the kernel holding it.

    Elements are truncated at cap, tracked representations at rep_cap.
    Untracked, the terms are cut further at the highest corner as soon as
    the leading monomials leave finitely many quotient monomials.
    """
    kernel = _Kernel(nvars, cap, rep_cap)
    G = kernel.elems
    m = len(gens)
    pure = set()        # variables with a pure power among the leading monomials

    def corner() -> None:
        # the staircase only shrinks, so each new leading monomial may lower
        # the corner; nothing above it changes a staircase or a remainder
        support = [i for i, v in enumerate(G[-1].exp) if v]
        if len(support) <= 1:
            pure.update(support or range(nvars))
        if len(pure) < nvars:
            return
        quot = _quotient_monomials(_staircase_min_gens(G), nvars)
        top = max((mono_deg(e) for e in quot), default=-1)
        if top < kernel.bound:
            kernel.cut(top)

    def insert(h: Dict[int, int], rows) -> None:
        # h = sum(rows[j] * gens[j]) up to rep_cap, over any common scale;
        # reduction keeps that identity for the remainder
        remainder, _ = kernel.reduce(h, rows)
        if not remainder:
            return
        terms = [(e, h[e]) for e in remainder]
        values = [v for _, v in terms]
        rep = None
        if rows is not None:
            rep = [sorted(r.items()) for r in rows]
            values += [v for r in rep for _, v in r]
        # a positive lc keeps the step multiplier lc / gcd(lc, c) at 1
        # whenever lc divides c
        k = math.gcd(*values)
        if terms[0][1] < 0:
            k = -k
        terms = [(e, v // k) for e, v in terms]
        if rep is not None:
            rep = [[(e, v // k) for e, v in r] for r in rep]
        ecart = kernel.degree(remainder[-1]) - kernel.degree(remainder[0])
        kernel.add(_Elem(terms, kernel.unpack(remainder[0]), ecart, rep))
        if not track:
            corner()

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        h, den = kernel.dividend(g)
        rows = None
        if track:
            rows = [dict() for _ in range(m)]
            rows[j] = {0: den}
        insert(h, rows)

    pairs = []
    def push_pairs(new_index: int):
        gi = G[new_index]
        for k in range(new_index):
            lcm = mono_lcm(G[k].exp, gi.exp)
            d = mono_deg(lcm)
            if d <= kernel.bound:
                heapq.heappush(pairs, (d, k, new_index, kernel.pack(lcm)))

    for i in range(len(G)):
        push_pairs(i)

    while pairs:
        deg, i, j, lcm = heapq.heappop(pairs)
        if deg > kernel.bound:
            break       # pairs come by degree: the rest lie above the corner
        gi, gj = G[i], G[j]
        mi, mj = lcm - gi.lm, lcm - gj.lm
        # lcj/d * mi * gi - lci/d * mj * gj: the leading terms cancel
        d = math.gcd(gi.lc, gj.lc)
        ki, kj = gj.lc // d, -(gi.lc // d)
        s: Dict[int, int] = {}
        _addmul(s, ki, mi, gi.tail, kernel.limit)
        _addmul(s, kj, mj, gj.tail, kernel.limit)
        rows = None
        if track:
            rows = [dict() for _ in range(m)]
            for r, ri, rj in zip(rows, gi.rep, gj.rep):
                _addmul(r, ki, mi, ri, kernel.rep_limit)
                _addmul(r, kj, mj, rj, kernel.rep_limit)
        before = len(G)
        insert(s, rows)
        if len(G) > before:
            push_pairs(before)
    return kernel


def _staircase_min_gens(G: List[_Elem]) -> List[Exponent]:
    lms = sorted({g.exp for g in G}, key=lambda e: (mono_deg(e), e))
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
        # prefix + (k, 0, ..., 0) in the leading ideal puts every monomial
        # that starts with prefix + (k', ...), k' >= k, there too
        rest = (0,) * (nvars - i - 1)
        for k in range(bounds[i]):
            e = tuple(prefix) + (k,) + rest
            if any(mono_divides(s, e) for s in stair):
                return
            if rest:
                prefix.append(k)
                walk(prefix, i + 1)
                prefix.pop()
            else:
                out.append(e)

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
    # monic elements; untracked ones are exact only up to the highest corner
    # (max_quotient_degree() when the staircase is finite), their tails cut
    # there, and nothing reads those tails
    elements: List[Poly] = field(repr=False)
    staircase: List[Exponent]
    quotient_monomials: Optional[List[Exponent]]
    _kernel: _Kernel = field(repr=False)
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
    kernel = _complete(gens, order.nvars, cap, track, rep_cap)
    stair = _staircase_min_gens(kernel.elems)
    quot = _quotient_monomials(stair, order.nvars)
    polys = [Poly.from_ints(order.nvars,
                            {kernel.unpack(m): v
                             for m, v in [(g.lm, g.lc)] + g.tail}, g.lc)
             for g in kernel.elems]
    return StandardBasis(tuple(gens), order, cap, rep_cap, certified, polys,
                         stair, quot, kernel, track)


def standard_basis(gens: Sequence[Poly], cap: int = DEFAULT_CAP,
                   max_cap: int = MAX_CAP,
                   track: bool = False) -> StandardBasis:
    """Standard basis with cap escalation until the staircase stabilizes.

    Escalates the cap by CAP_STEP until the staircase at cap and cap + 4
    agree and, in the finite case, lies strictly below the cap; raises
    CapExceeded past max_cap.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("standard_basis needs at least one generator")
    order = LocalOrder(gens[0].nvars)
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


def standard_basis_at(gens: Sequence[Poly], cap: int, track: bool = False,
                      rep_cap: Optional[int] = None) -> StandardBasis:
    """Single run at a fixed cap, no certification; for internal re-runs.

    With track=True the representations of the elements through gens are
    kept up to degree rep_cap (default, and at most, cap).  The elements,
    the staircase and every remainder are the same whatever rep_cap is;
    only the representation terms above it are dropped, so a lift read
    only to low degree can skip the cost of the deep ones.
    """
    gens = list(gens)
    return _build(gens, LocalOrder(gens[0].nvars), cap, track,
                  certified=False, rep_cap=rep_cap)


@dataclass
class Ctx:
    """One computation's cap budget, its record of caps, and its memo.

    cap and max_cap bound every certified standard basis, and attempts
    the search for good coordinates.  caps_used keeps, per step, the
    highest cap that step needed.  The memo holds each certified
    untracked basis under the set of its generators: its staircase,
    quotient monomials and normal forms depend only on the ideal, not on
    the order of the generators.  It also holds per-germ data the index
    module derives once, such as each germ's minors.
    """

    cap: int = DEFAULT_CAP
    max_cap: int = MAX_CAP
    attempts: int = GOOD_COORD_ATTEMPTS
    caps_used: Dict[str, int] = field(default_factory=dict, init=False)
    memo: Dict[Hashable, object] = field(default_factory=dict, init=False,
                                         repr=False)

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")
        if self.max_cap < self.cap:
            raise ValueError(f"max_cap must be at least cap ({self.cap}), "
                             f"got {self.max_cap}")
        if self.attempts < 1:
            raise ValueError(
                f"attempts must be at least 1, got {self.attempts}")

    def record(self, key: str, cap: int) -> None:
        """Note that the step key needed cap."""
        self.caps_used[key] = max(self.caps_used.get(key, 0), cap)

    def once(self, key: Hashable, compute: Callable[[], object]):
        """compute() on the first request for key, the memo afterwards."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def basis(self, gens: Sequence[Poly]) -> StandardBasis:
        """Certified untracked standard basis of the ideal gens generate."""
        gens = list(gens)
        return self.once(("basis", frozenset(gens)),
                         lambda: standard_basis(gens, self.cap, self.max_cap))


def colength(sb: StandardBasis):
    """Dimension of the local quotient ring, or INFINITE."""
    if sb.quotient_monomials is None:
        return INFINITE
    return len(sb.quotient_monomials)


def _remainder(p: Poly, sb: StandardBasis, rows=None):
    """Remainder of p, and the denominator rows end up over.

    The kernel cuts the remainder at the cap and rows at the
    representation cap, so neither needs truncating here.
    """
    kernel = sb._kernel
    h, den = kernel.dividend(p)
    remainder, scale = kernel.reduce(h, rows)
    den *= scale
    r = {kernel.unpack(e): h[e] for e in remainder}
    return Poly.from_ints(p.nvars, r, den), den


def normal_form(p: Poly, sb: StandardBasis) -> Poly:
    """Canonical remainder of p modulo the ideal, supported on the staircase."""
    return _remainder(p, sb)[0]


def normal_form_with_lift(p: Poly, sb: StandardBasis):
    """Remainder plus coefficients on the original generators (needs track=True)."""
    if not sb.tracked:
        raise ValueError("standard basis was built without lift tracking")
    rows = [dict() for _ in range(len(sb.gens))]
    r, den = _remainder(p, sb, rows)
    # the rows hold minus the quotients: p = r - sum(rows[j] * gens[j]) / den
    unpack = sb._kernel.unpack
    coeffs = [Poly.from_ints(p.nvars, {unpack(e): -v for e, v in row.items()},
                             den)
              for row in rows]
    return r, coeffs


@dataclass
class LiftCertificate:
    """target = sum(coefficients[j] * gens[j]) up to the cap."""

    target: Poly
    gens: Tuple[Poly, ...]
    coefficients: List[Poly]
    cap: int

    def defect(self) -> Poly:
        """target - sum(c_j g_j); every surviving monomial has degree > cap."""
        acc = self.target
        for c, g in zip(self.coefficients, self.gens):
            acc = acc - c * g
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
        for e, c in nf.ints.items():
            vec[index[e]] = Fraction(c, nf.den)
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
            for me, mc in nf.ints.items():
                mat[index[me]][c] = Fraction(mc, nf.den)
        matrices.append(mat)
    return QuotientAlgebra(sb, basis, matrices)


def is_regular_on_V(f: Sequence[Poly], g1: Poly, g2: Poly,
                    ctx: Optional[Ctx] = None) -> bool:
    """True when (g1, g2) cuts a finite quotient on the complete intersection.

    On a two dimensional Cohen Macaulay germ a pair is a regular sequence
    exactly when the joint quotient is finite dimensional.
    """
    if g1.is_zero() or g2.is_zero():
        return False
    sb = (ctx or Ctx()).basis(list(f) + [g1, g2])
    return colength(sb) != INFINITE
