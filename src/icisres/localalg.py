"""Standard bases and quotient algebras in the local ring at the origin.

Monomials are compared in the negative degree reverse lexicographic order:
1 is the largest monomial and larger total degree means smaller.  All
computation is truncated at a total-degree cap.  Because a reduction step
only ever replaces a monomial by strictly smaller ones (same or higher
degree), truncation is exact below the cap: the computed leading ideal
agrees with the true one on every monomial of degree <= cap.  Unit
denominators never appear; the geometric series a unit would contribute
unfolds automatically inside the capped reduction loop.

A finite staircase is proved exact by the run that built it once its
largest quotient degree top lies below the cap: every monomial of degree
top + 1 <= cap then lies in the computed leading ideal, which agrees
with the true one up to the cap, so both contain m^(top+1) and agree
below it.  That holds at any cap, so standard_basis starts at the deepest
generator degree.  A run's leading ideal is generated in degrees up to
its cap and lies in the true one, so a finite staircase that reaches the
cap bounds the true top from above, and the run at its top + 1 proves
it.  An infinite staircase has no such proof; it is only observed to be
stable, when a second run at cap + CAP_STEP gives the same one, and it is
judged only from the requested cap on, as if no lower run had been made.

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
keeps its full tails, because the reductions above the corner still move
its representation rows; an infinite staircase never cuts.

The kernel keeps the staircase as elements arrive (_Kernel.add): the
minimal leading exponents, each variable's pure power, and the corners,
the maximal exponents outside the leading ideal, with cap + 1 in a field
that no pure power bounds yet.  A new leading exponent e takes monomials
below a corner c out of the quotient exactly when e divides c; a monomial
below c stays exactly when it lies below c with one field c_i, e_i > 0,
lowered to e_i - 1, so those replace c, less any that another corner lies
above.  top is then the largest corner degree, read after every insert
without listing a quotient monomial (_Kernel.top).  The cut, finiteness
(a pure power of every variable), the top that certifies a basis and the
start of minimal_power read that record, and nothing recomputes it from
the elements.  The quotient monomials are listed, by one search from 1,
only when a caller first reads them.

A tracked basis keeps its representation rows only on a box: the
monomials of degree <= cap that divide z^box, by default z^(cap, ..., cap),
which is the cap alone.  The box is closed under division, so a monomial
shift of a term outside it stays outside.  Every row operation is an
integer scaling or an added shift of another row, so the box part of a
row is computed from box parts alone: the rows are the box parts of the
rows an uncut run carries.  Rows never feed back, so the elements, the
staircase and every remainder do not depend on the box.  A lift through
such a basis is exact on the box: no term of target - sum(c_j g_j) lies
in it (LiftCertificate).  The residues module keeps its lift rows on the
box {e : e_i <= d_i - 1} of its powers d, where its determinant is read.

Bases, lifts and normal forms all run on one integer kernel (_Kernel),
built per cap.  A monomial is one int: the total degree in the top field,
then e_n, ..., e_1 below it (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998).  Each field
holds 2 * cap, the largest degree of a product of two truncated
monomials, plus a guard bit on top, so no product overflows a field.  Then
the smallest int is the largest monomial, a product is an addition, the
degree is a shift, truncation is one comparison against
(cap + 1) << shift, and b divides a exactly when subtracting b from a with
every guard bit set clears none of them; the box test on a row term is
that one subtraction from the packed z^box.  LocalOrder.key remains the
specification of the order.  A Poly keeps its monomials packed too, in
fixed 16-bit fields with no degree field (polycore); the kernel repacks
each monomial it meets once, on the way in (dividend) and on the way out
(remainders, lift rows and basis elements), and keeps both maps.

Coefficients inside the kernel are integers.  A basis element keeps its
terms and its representation rows as one primitive integer vector, scaled
by its leading coefficient lc.  A dividend starts as the Poly's own ints
over its denominator D, and its representation rows share D; a reduction
step on the coefficient c multiplies them by lc / gcd(lc, c) and
subtracts c / gcd(lc, c) times the shifted element, so nothing is ever
divided (fraction free, as in Bareiss elimination).  The rows take every
step, rescale and subtraction, as the dividend does, and no step is
replayed afterwards.  Values leave the kernel the same way, as ints over
one denominator (Poly.from_ints): remainders and lift coefficients over
D, and from there LiftCertificate; a quotient algebra's multiplication
matrices as integer rows, D times the matrix for D the lcm of its
columns' denominators (QuotientAlgebra); basis elements as monic Polys
over lc only when StandardBasis.elements is first read, which nothing in
the engine does.  Selection depends only on leading monomials and ecarts, so
every staircase, element, remainder and representation is the one exact
rational arithmetic gives.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from .errors import (CapExceeded, NotMember, NotZeroDimensional,
                     PowerCapExceeded)
from .germfile import MAX_POWER_DEGREE
from .polycore import (Exponent, Poly, Terms, _exponents, _key,
                       mono_deg, mono_divides, mono_lcm)

INFINITE = math.inf

DEFAULT_CAP = 12
CAP_STEP = 4
MAX_CAP = 40
GOOD_COORD_ATTEMPTS = 64
# knob ceilings, so that no setting hangs a run: max_cap is at most
# MAX_POWER_DEGREE, the deepest generator a germ file holds (a basis takes
# seconds at cap 64 and minutes above it), and attempts at most this
MAX_ATTEMPTS = 1024


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


class _Kernel:
    """Packed monomials and fraction-free reduction at one cap.

    The elements are kept twice: in insertion order, and stably sorted by
    ecart, so the first divisor found there is Mora's choice (least ecart,
    earliest inserted among equals).  Representation rows keep only the
    terms of degree <= cap that divide z^box (the module docstring).

    add also keeps the staircase: stair, the minimal leading exponents by
    (degree, exponent), pure[i], the pure power of z_i among them (None
    while there is none), and corners, the maximal exponents outside the
    leading ideal (the module docstring).  An element enters as a
    remainder, so its leading monomial is divisible by no earlier one: it
    is minimal, and it drops only the minimal exponents it divides.
    """

    def __init__(self, nvars: int, cap: int, box: Exponent):
        # a field holds the degree of a product of two monomials of degree
        # <= cap, plus the guard bit
        width = (2 * cap).bit_length() + 1
        self.nvars = nvars
        self.width = width
        self.shift = nvars * width
        self.guards = sum(1 << (i * width + width - 1) for i in range(nvars))
        self.bound = cap
        self.limit = (cap + 1) << self.shift
        # row terms come by degree, so the box's degree bound stops a row
        # early; a term below it is kept when it divides z^box
        self.box = self.pack(box) | self.guards
        self.rep_limit = (min(cap, sum(box)) + 1) << self.shift
        self.elems: List[_Elem] = []
        self._search: List[_Elem] = []
        self.stair: List[Exponent] = []
        self.pure: List[Optional[int]] = [None] * nvars
        # no exponent of a monomial of degree <= cap exceeds cap, so cap + 1
        # marks an unbounded field
        self.corners: List[Exponent] = [(cap + 1,) * nvars]
        # monomials met at the boundary, each repacked once: Poly's keys to
        # this kernel's (dividend) and back (to_poly)
        self._kernel_keys: Dict[int, int] = {}
        self._poly_keys: Dict[int, int] = {}

    def pack(self, e: Exponent) -> int:
        m = sum(e)
        for v in reversed(e):
            m = (m << self.width) | v
        return m

    def unpack(self, m: int) -> Exponent:
        width = self.width
        mask = (1 << width) - 1
        out = []
        for _ in range(self.nvars):
            out.append(m & mask)
            m >>= width
        return tuple(out)

    def to_poly(self, terms: Dict[int, int], den: int) -> Poly:
        """terms / den as a Poly, each monomial repacked in Poly's fields."""
        keys, nvars = self._poly_keys, self.nvars
        out = {}
        for m, c in terms.items():
            k = keys.get(m)
            if k is None:
                k = keys[m] = _key(self.unpack(m), nvars)
            out[k] = c
        return Poly.from_ints(nvars, out, den)

    def divides(self, b: int, a: int) -> bool:
        """b | a: a - b, taken with every guard bit of a set, clears none."""
        return ((a | self.guards) - b) & self.guards == self.guards

    def degree(self, m: int) -> int:
        return m >> self.shift

    def addmul(self, dst: Dict[int, int], k: int, mono: int,
               src: List[Tuple[int, int]]) -> None:
        """dst += k * mono * src, cut at the bound; src sorted ascending."""
        limit = self.limit
        for t, v in src:
            m = mono + t
            if m >= limit:
                break
            s = dst.get(m, 0) + k * v
            if s:
                dst[m] = s
            else:
                del dst[m]

    def addrow(self, dst: Dict[int, int], k: int, mono: int,
               src: List[Tuple[int, int]]) -> None:
        """dst += k * mono * src, kept on the box: b | a as in divides."""
        box, guards, limit = self.box, self.guards, self.rep_limit
        for t, v in src:
            m = mono + t
            if m >= limit:
                break
            if (box - m) & guards != guards:
                continue
            s = dst.get(m, 0) + k * v
            if s:
                dst[m] = s
            else:
                del dst[m]

    def add(self, g: _Elem) -> None:
        self.elems.append(g)
        bisect.insort_right(self._search, g, key=lambda el: el.ecart)
        e = g.exp
        self.stair = [s for s in self.stair if not mono_divides(e, s)]
        bisect.insort(self.stair, e, key=lambda s: (mono_deg(s), s))
        support = [i for i, v in enumerate(e) if v]
        if len(support) <= 1:
            for i in support or range(self.nvars):
                self.pure[i] = e[i]
        # a corner that e divides gives way to its divisors with one field
        # lowered to e_i - 1, less those another corner lies above
        kept, lowered = [], set()
        for c in self.corners:
            if mono_divides(e, c):
                lowered.update(c[:i] + (v - 1,) + c[i + 1:]
                               for i, v in enumerate(e) if v)
            else:
                kept.append(c)
        above = kept + list(lowered)
        self.corners = kept + [c for c in lowered if not any(
            c != d and mono_divides(c, d) for d in above)]

    def top(self) -> int:
        """The largest corner degree: above the cap while some variable has
        no pure power, then the top quotient degree; -1 for the unit ideal."""
        return max(map(mono_deg, self.corners), default=-1)

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
        keys, limit, nvars = self._kernel_keys, self.limit, self.nvars
        out = {}
        for m, c in p.ints.items():
            k = keys.get(m)
            if k is None:
                k = keys[m] = self.pack(_exponents(m, nvars))
            # packing never clears the degree's bits, so a monomial above
            # the bound packs to at least limit even where a field overflows
            if k < limit:
                out[k] = c
        return out, p.den

    def reduce(self, h: Dict[int, int],
               rows: Optional[List[Dict[int, int]]] = None) -> Tuple[List[int], int]:
        """Canonical reduction of h, in place; rows ride along.

        h holds integer coefficients over a denominator the caller keeps,
        and rows a representation over the same denominator.  Monomials
        are processed largest first; a reduction step only creates
        strictly smaller monomials, so each is handled once.  A step by an
        element with leading coefficient lc on the coefficient c multiplies
        h and rows by lc / gcd(lc, c) and subtracts c / gcd(lc, c) times
        the shifted element and its representation: the rows follow every
        step exactly as h does, and nothing is replayed afterwards.
        Returns the remainder monomials, largest first, whose coefficients
        stay in h, and the factor the denominator grew by.  The remainder
        is the unique representative modulo the ideal supported on
        staircase monomials, which makes the map linear in the dividend.
        Terms are cut at the cap, rows to the box; rows never feed back
        into h.
        """
        limit, search, divides = self.limit, self._search, self.divides
        heap = sorted(h)
        remainder: List[int] = []
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
                if rows is not None:
                    for r in rows:
                        for k in r:
                            r[k] *= a
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
                for r, gr in zip(rows, g.rep):
                    self.addrow(r, -b, mono, gr)
        return remainder, scale


def _complete(gens: Sequence[Poly], nvars: int, cap: int, track: bool,
              box: Exponent) -> _Kernel:
    """Truncated completion to a standard basis; returns the kernel holding it.

    Elements are truncated at cap, tracked representations to the box
    z^box.  Untracked, the terms are cut further at the highest corner,
    the kernel's largest corner degree, as soon as the leading monomials
    leave finitely many quotient monomials; no quotient monomial is listed.
    """
    kernel = _Kernel(nvars, cap, box)
    G = kernel.elems
    m = len(gens)

    def insert(h: Dict[int, int], rows) -> None:
        # h = sum(rows[j] * gens[j]) on the box and up to cap, over any
        # common scale; reduction keeps that identity for the remainder
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
        # the corners only drop, and with them the highest corner; nothing
        # above it changes a staircase or a remainder
        if not track and kernel.top() < kernel.bound:
            kernel.cut(kernel.top())

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
        kernel.addmul(s, ki, mi, gi.tail)
        kernel.addmul(s, kj, mj, gj.tail)
        rows = None
        if track:
            rows = [dict() for _ in range(m)]
            for r, ri, rj in zip(rows, gi.rep, gj.rep):
                kernel.addrow(r, ki, mi, ri)
                kernel.addrow(r, kj, mj, rj)
        before = len(G)
        insert(s, rows)
        if len(G) > before:
            push_pairs(before)
    return kernel


def _quotient_monomials(stair: List[Exponent], nvars: int) -> List[Exponent]:
    """Monomials outside the leading ideal of a finite staircase, by degree.

    One search from 1: each step raises one exponent of a quotient monomial,
    never one before its last nonzero exponent, so each monomial outside
    the ideal is reached once, from its quotient by its last variable, which
    lies outside the ideal too.  A staircase element that divides the raised
    monomial f but not e, the one it was raised from, agrees with f in the
    raised field, so only the elements with that value there are tested.
    """
    one = (0,) * nvars
    if one in stair:
        return []
    # by_value[i][v]: the elements whose field i is v > 0
    by_value: List[Dict[int, List[Exponent]]] = [{} for _ in range(nvars)]
    for s in stair:
        for i, v in enumerate(s):
            if v:
                by_value[i].setdefault(v, []).append(s)
    out = [one]
    last = [0]          # the last nonzero index of each monomial in out
    for e, start in zip(out, last):     # both grow as the search goes on
        for i in range(start, nvars):
            v = e[i] + 1
            f = e[:i] + (v,) + e[i + 1:]
            if not any(mono_divides(s, f) for s in by_value[i].get(v, ())):
                out.append(f)
                last.append(i)
    out.sort(key=lambda e: (mono_deg(e), e))
    return out


@dataclass
class StandardBasis:
    """Truncated standard basis of an ideal in the local ring.

    A basis from standard_basis is certified: a finite staircase proved
    exact, an infinite one stable one step up.  A run of standard_basis_at
    is not certified.  Its elements stay in the kernel; `elements` builds
    them as monic Polys on first read, and `quotient_monomials` lists the
    monomials outside the leading ideal on first read, so a basis that no
    caller asks for them never lists them.  A tracked basis keeps the
    elements' representations on the monomials of degree <= cap that
    divide z^box.
    """

    gens: Tuple[Poly, ...]
    nvars: int
    cap: int
    box: Exponent       # tracked representations are exact on this box
    staircase: List[Exponent]
    _kernel: _Kernel = field(repr=False)
    tracked: bool = False

    @cached_property
    def elements(self) -> List[Poly]:
        # untracked ones are exact only up to the highest corner
        # (max_quotient_degree() when the staircase is finite), their tails
        # cut there
        kernel = self._kernel
        return [kernel.to_poly(dict([(g.lm, g.lc)] + g.tail), g.lc)
                for g in kernel.elems]

    @cached_property
    def quotient_monomials(self) -> Optional[List[Exponent]]:
        """By (degree, exponent); None when there are infinitely many."""
        if not self.is_finite():
            return None
        return _quotient_monomials(self.staircase, self.nvars)

    def is_finite(self) -> bool:
        # finitely many quotient monomials: a pure power of every variable
        return None not in self._kernel.pure

    def max_quotient_degree(self) -> int:
        """The highest corner's degree on a finite staircase; -1 for none."""
        return self._kernel.top()


def _build(gens: Sequence[Poly], cap: int, track: bool,
           box: Optional[Exponent] = None) -> StandardBasis:
    nvars = gens[0].nvars
    # no entry of a monomial of degree <= cap exceeds cap
    box = tuple(min(v, cap) for v in box or (cap,) * nvars)
    kernel = _complete(gens, nvars, cap, track, box)
    return StandardBasis(tuple(gens), nvars, cap, box, kernel.stair, kernel,
                         track)


def standard_basis(gens: Sequence[Poly], cap: int = DEFAULT_CAP,
                   max_cap: int = MAX_CAP) -> StandardBasis:
    """Certified untracked standard basis at the lowest cap that proves it.

    The first run is at the deepest generator degree (at least 1).  A
    finite staircase whose top degree lies below the run's cap is proved
    exact there and returned.  One that reaches the cap bounds the true
    top from above, so the run at min(top + 1, max_cap) proves it,
    whatever cap the run was at.  An infinite staircase is judged only at
    max(cap, deepest) or above: seen lower, the run moves straight there.
    From there an infinite staircase is returned once the run at
    c + CAP_STEP gives the same one (stable, not proved), and otherwise
    that run is the next one, so no cap is built twice.  Raises
    CapExceeded when cap or a generator's degree exceeds max_cap, when a
    finite staircase reaches the cap of the run at max_cap, and when an
    infinite one has not stabilized by max_cap.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("standard_basis needs at least one generator")
    if cap > max_cap:
        raise CapExceeded(f"cap {cap} exceeds the cap ceiling {max_cap}")
    # a generator supported entirely above the cap would be invisible to the
    # truncated runs, so the cap must reach every generator's degree
    deepest = max((g.total_degree() for g in gens if not g.is_zero()), default=0)
    if deepest > max_cap:
        raise CapExceeded(
            f"generator degree {deepest} exceeds the cap ceiling {max_cap}")
    floor = max(cap, deepest)
    c = max(deepest, 1)
    base = _build(gens, c, False)
    while True:
        if base.is_finite():
            # below the cap a finite staircase is exact; one reaching the
            # cap at max_cap has its true top at max_cap or above, since the
            # run agrees with the true staircase up to its cap
            top = base.max_quotient_degree()
            if top < c:
                break
            if c >= max_cap:
                raise CapExceeded(
                    f"the staircase at cap {c} is finite with top degree "
                    f"{top}, so proving it needs a cap above the cap ceiling "
                    f"{max_cap}")
            c = min(top + 1, max_cap)
            base = _build(gens, c, False)
        elif c < floor:
            c = floor
            base = _build(gens, c, False)
        else:
            # an infinite staircase must hold one step up; a run there that
            # differs is the next run
            up = _build(gens, c + CAP_STEP, False)
            if up.staircase == base.staircase:
                break
            if c + CAP_STEP > max_cap:
                raise CapExceeded(f"the staircase is infinite and did not "
                                  f"stabilize below the cap ceiling {max_cap}")
            c, base = c + CAP_STEP, up
    return base


def standard_basis_at(gens: Sequence[Poly], cap: int, track: bool = False,
                      box: Optional[Exponent] = None) -> StandardBasis:
    """Single run at a fixed cap, no certification; for internal re-runs.

    With track=True the representations of the elements through gens are
    kept on the box: their terms of degree <= cap that divide z^box (by
    default every term up to cap).  The elements, the staircase and every
    remainder are the same whatever the box is; only the representation
    terms outside it are dropped, and those never reach a term inside it
    (the module docstring), so a lift read only on the box skips the cost
    of the rest.
    """
    return _build(list(gens), cap, track, box)


def record(caps_used: Dict[str, int], key: str, cap: int) -> None:
    """Note in caps_used that the step key needed cap, keeping the highest."""
    caps_used[key] = max(caps_used.get(key, 0), cap)


@dataclass
class Ctx:
    """One computation's cap budget, its record of caps, and its memo.

    max_cap bounds every certified standard basis (the run that checks an
    infinite staircase may reach max_cap + CAP_STEP).  cap is where an
    infinite staircase is judged, and the floor of the residue lifts; a
    finite staircase is certified at the lowest cap that proves it, often
    below cap.  attempts bounds the search for good coordinates.  1 <= cap
    <= max_cap <= MAX_POWER_DEGREE and 1 <= attempts <= MAX_ATTEMPTS.  The
    memo holds each certified untracked basis under the set of its
    generators: its staircase, quotient monomials and normal forms depend
    only on the ideal, not on the order of the generators.  It holds each
    finite basis's quotient algebra the same way, per-germ data the index
    module derives once, such as each germ's minors, and one ResidueForm
    per ordered denominator tuple (residues.residue_form).

    finite() is the one gate to a finite quotient, and algebra() passes
    it too.  It raises the caller's error on an infinite staircase;
    otherwise it records the cap that certified the basis under the
    caller's step.  Every cap is recorded by the function record, which
    keeps per step the highest cap in caps_used.  The steps are "index"
    (index_algebra, which eg_index reads), "curve" (curve_index), "pairing"
    (algebra_B) and "colength" (intersection_multiplicity_both_ways).  A
    ResidueForm passes the gate with no step and records the term cap of
    its one lift, at least cap, under "residue" itself: it calls record on
    caps_used, which it keeps instead of the Ctx.
    """

    cap: int = DEFAULT_CAP
    max_cap: int = MAX_CAP
    attempts: int = GOOD_COORD_ATTEMPTS
    caps_used: Dict[str, int] = field(default_factory=dict, init=False)
    memo: Dict[Hashable, object] = field(default_factory=dict, init=False,
                                         repr=False)

    def __post_init__(self):
        for knob in ("cap", "max_cap", "attempts"):
            value = getattr(self, knob)
            if not isinstance(value, int):
                raise TypeError(f"{knob} must be an int, got {value!r}")
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")
        if self.max_cap < self.cap:
            raise ValueError(f"max_cap must be at least cap ({self.cap}), "
                             f"got {self.max_cap}")
        if self.attempts < 1:
            raise ValueError(
                f"attempts must be at least 1, got {self.attempts}")
        if self.max_cap > MAX_POWER_DEGREE:
            raise ValueError(f"max_cap must be at most {MAX_POWER_DEGREE}, "
                             f"got {self.max_cap}")
        if self.attempts > MAX_ATTEMPTS:
            raise ValueError(f"attempts must be at most {MAX_ATTEMPTS}, "
                             f"got {self.attempts}")

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

    def finite(self, gens: Sequence[Poly], error: Exception,
               step: Optional[str] = None) -> StandardBasis:
        """Certified basis of a zero-dimensional ideal, or raise error.

        An infinite staircase raises error and records nothing; a finite
        one records the cap that certified it under step, when there is
        one.
        """
        sb = self.basis(gens)
        if not sb.is_finite():
            raise error
        if step is not None:
            record(self.caps_used, step, sb.cap)
        return sb

    def algebra(self, gens: Sequence[Poly], error: Exception,
                step: Optional[str] = None) -> QuotientAlgebra:
        """Quotient algebra of a zero-dimensional ideal, through finite()."""
        sb = self.finite(gens, error, step)
        return self.once(("algebra", frozenset(gens)),
                         lambda: quotient_algebra(sb))


def colength(sb: StandardBasis):
    """Dimension of the local quotient ring, or INFINITE."""
    if sb.quotient_monomials is None:
        return INFINITE
    return len(sb.quotient_monomials)


def _remainder(p: Poly, sb: StandardBasis, rows=None):
    """Remainder of p, and the denominator rows end up over.

    The kernel cuts the remainder at the cap and rows to the box, so
    neither needs truncating here.
    """
    kernel = sb._kernel
    h, den = kernel.dividend(p)
    remainder, scale = kernel.reduce(h, rows)
    den *= scale
    return kernel.to_poly({e: h[e] for e in remainder}, den), den


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
    kernel = sb._kernel
    coeffs = [kernel.to_poly({e: -v for e, v in row.items()}, den)
              for row in rows]
    return r, coeffs


@dataclass
class LiftCertificate:
    """target = sum(coefficients[j] * gens[j]) on the box of the basis.

    The box is the basis's: the monomials of degree <= cap that divide
    z^box.  With the default box that is every monomial up to cap.
    """

    target: Poly
    gens: Tuple[Poly, ...]
    coefficients: List[Poly]
    cap: int
    box: Exponent

    def defect(self) -> Poly:
        """target - sum(c_j g_j); no surviving monomial lies in the box."""
        acc = self.target
        for c, g in zip(self.coefficients, self.gens):
            acc = acc - c * g
        return acc

    def check(self) -> bool:
        return not any(sum(e) <= self.cap and mono_divides(e, self.box)
                       for e in self.defect().terms)


def lift(target: Poly, sb: StandardBasis) -> LiftCertificate:
    """Express target through a tracked basis's gens, or raise NotMember."""
    r, coeffs = normal_form_with_lift(target, sb)
    if not r.is_zero():
        raise NotMember(f"remainder {r.render()} is nonzero at cap {sb.cap}")
    return LiftCertificate(target, tuple(sb.gens), coeffs, sb.cap, sb.box)


def minimal_power(var_index: int, sb: StandardBasis, bound: int) -> int:
    """Least d <= bound with z_i^d in the ideal, read off normal forms on sb.

    Raises PowerCapExceeded naming the bound when no such d exists.  On a
    certified finite basis of staircase height t the bound t + 1 always
    suffices, since m^(t+1) lies in the ideal.  The search starts at the
    staircase's pure power of z_i: below it z_i^d is divisible by no
    leading monomial, so its normal form is z_i^d itself.  Without such a
    power no z_i^d reduces at all.
    """
    nvars = sb.nvars
    start = sb._kernel.pure[var_index]
    if start is None:
        start = bound + 1
    for d in range(max(start, 1), bound + 1):
        exps = [0] * nvars
        exps[var_index] = d
        if normal_form(Poly.monomial(nvars, exps), sb).is_zero():
            return d
    raise PowerCapExceeded(f"no power of variable {var_index} up to {bound} "
                           f"lies in the ideal at cap {sb.cap}")


def minimal_power_membership(var_index: int, gens: Sequence[Poly],
                             max_power: int = 64,
                             sb: Optional[StandardBasis] = None):
    """Smallest d with z_i^d in the ideal, plus its lift certificate.

    The search is minimal_power on sb (by default tracked at DEFAULT_CAP)
    with bound min(max_power, sb.cap); only z_i^d is then lifted, so sb
    must be tracked.  pre: the ideal is zero dimensional (otherwise no
    power is ever a member and the search raises PowerCapExceeded).
    """
    if sb is None:
        sb = standard_basis_at(gens, DEFAULT_CAP, track=True)
    d = minimal_power(var_index, sb, min(max_power, sb.cap))
    return d, lift(Poly.variable(sb.nvars, var_index) ** d, sb)


@dataclass
class QuotientAlgebra:
    """Finite dimensional local quotient on its staircase basis.

    Its matrices are integer rows read straight off the normal forms' ints:
    D times the matrix, D the lcm of its columns' denominators.  Rank,
    kernel and socle do not see D, so no Fraction is built on the way to
    the elimination.
    """

    sb: StandardBasis
    basis: List[Exponent]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def matrices(self) -> List[List[List[int]]]:
        """matrices[i][r][c]: z_i * basis[c] -> basis[r], each row scaled as
        in multiplication_matrix, built on first read."""
        nvars = self.sb.nvars
        return [self.multiplication_matrix(Poly.variable(nvars, i))
                for i in range(nvars)]

    def element(self, vec: Sequence[Fraction]) -> Poly:
        terms: Terms = {}
        for e, c in zip(self.basis, vec):
            if c:
                terms[e] = Fraction(c)
        return Poly(self.sb.nvars, terms)

    def multiplication_matrix(self, p: Poly) -> List[List[int]]:
        """Multiplication by p on the monomial basis, as D times its matrix.

        A product supported on basis monomials is its own normal form, so
        it needs no reduction.
        """
        nvars = self.sb.nvars
        position = {_key(e, nvars): i for i, e in enumerate(self.basis)}
        cols = []
        for m in position:
            q = p * Poly.from_ints(nvars, {m: 1}, 1)
            cols.append(q if all(k in position for k in q.ints)
                        else normal_form(q, self.sb))
        den = math.lcm(*(q.den for q in cols))
        rows = [[0] * len(cols) for _ in cols]
        for c, q in enumerate(cols):
            k = den // q.den
            for m, v in q.ints.items():
                rows[position[m]][c] = k * v
        return rows


def quotient_algebra(sb: StandardBasis) -> QuotientAlgebra:
    if not sb.is_finite():
        raise NotZeroDimensional("staircase leaves a coordinate direction unbounded")
    return QuotientAlgebra(sb, list(sb.quotient_monomials))


def is_regular_on_V(f: Sequence[Poly], g1: Poly, g2: Poly,
                    ctx: Optional[Ctx] = None) -> bool:
    """True when (g1, g2) cuts a finite quotient on the complete intersection.

    On a two dimensional Cohen Macaulay germ a pair is a regular sequence
    exactly when the joint quotient is finite dimensional.
    """
    if g1.is_zero() or g2.is_zero():
        return False
    return (ctx or Ctx()).basis(list(f) + [g1, g2]).is_finite()
