"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in n variables is stored as nonzero ints over one positive
denominator in lowest terms: `Poly.ints` maps exponent tuples of length n
to ints and `Poly.den` divides every one of them, with
gcd(den, *ints.values()) == 1.  So each rational polynomial has exactly
one stored form, and equality and hashing compare it directly.  Nothing
here ever touches floats.

Every operation works on the ints and builds no Fraction: a sum brings
both operands over the least common denominator, a product multiplies
the denominators, and each result is brought to lowest terms once, by
one gcd over its denominator and its coefficients (`Poly.from_ints`,
skipped when the denominator is 1).  `Poly.terms` is the rational view
for callers that want values: a fresh mapping from exponents to
Fractions, built on each access and never kept.

`Poly.__mul__` is the only product that runs on `_accumulate`, which
adds the integer product of two term lists into a dict keyed by exponent
tuples.  It does not pack: its products are small, and packing both
operands and unpacking the result on every call read the `germ-reports`
benchmark 2-6% slower than the tuple loop (medians of two sets of four
alternating runs).

`_expand` and `Poly.substitute` chain many products, so they pack each
operand's monomials once into ints (`_pack`), multiply them in
`_addmul`, and unpack the result once (`_unpack`).  A packed monomial
holds the total degree in the top field and e_n, ..., e_1 below it, each
field as wide as the largest degree a kept product can reach; then a
product is an addition, no field overflows, and a cut at a degree is one
comparison.  `_addmul` is the one packed product loop: `localalg` runs
its standard-basis kernel on it too, with its own field widths.
`substitute` is the one substitution, and `linear_forms` gives it the
targets of a linear change of coordinates z = C y.

`_expand` is the one determinant of a polynomial matrix: a
division-free expansion column by column over the sets of used rows,
which can cut every product at a total-degree cap.  A state may also
carry one skipped column, so on a k x (k + 1) matrix one expansion gives
all k + 1 maximal minors (`maximal_minors`), and each entry is packed
once for all of them.  `series_determinant` is its case with no skip.
`_bareiss` is the one elimination: fraction-free Bareiss steps with
exact integer division on integer rows, skipping a column without a
pivot (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968).  Its rows must be ints: a
Fraction would be floored by `//` without an error, so `det` and `solve`
read each entry through `operator.index`.  `det` is its forward pass, the
integer determinant.  `solve` is the one exact solve: one Jordan pass on
[M | B] leaves every diagonal entry of M's block equal to d = +-det M and
the integer block X with M X = d B, so no Fraction is built on the way.
The cores are integer and a caller builds the rational view it needs:
`pairing.rref` hands `_bareiss` the integer rows the quotient algebra and
the residue family give and reads its reduced rows as Fractions, and the
ann-invariance suite of `verify` reads C^-1 as X / d.  `det`,
`series_determinant` and `solve` refuse a ragged or non-square matrix,
and `maximal_minors` one that is not k x (k + 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, index
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Fraction]
IntTerms = Iterable[Tuple[Exponent, int]]

_DEFAULT_NAMES = ("x", "y", "z", "w", "u", "v")


def default_names(nvars: int) -> Tuple[str, ...]:
    if nvars <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:nvars]
    return tuple(f"z{i + 1}" for i in range(nvars))


def mono_divides(b: Exponent, a: Exponent) -> bool:
    return all(y <= x for x, y in zip(a, b))


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Exponent) -> int:
    return sum(a)


def _grlex_key(e: Exponent) -> Tuple[int, Exponent]:
    return (sum(e), e)


def _pack(e: Exponent, width: int) -> int:
    """e as one int: the total degree in the top field, then e_n, ..., e_1.

    Each exponent field is width bits wide (Bachmann and Schoenemann,
    "Monomial representations for Groebner bases computations", ISSAC
    1998).  While no field overflows, the sum of two packed monomials is
    the packed product, ints order by total degree first, and the degree
    is the int shifted right by nvars * width.
    """
    m = sum(e)
    for v in reversed(e):
        m = (m << width) | v
    return m


def _unpack(m: int, nvars: int, width: int) -> Exponent:
    mask = (1 << width) - 1
    out = []
    for _ in range(nvars):
        out.append(m & mask)
        m >>= width
    return tuple(out)


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


def _accumulate(acc: Dict[Exponent, int], left: IntTerms,
                right: IntTerms) -> None:
    """Add the integer product left * right into acc."""
    get = acc.get
    for e1, c1 in left:
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2


def _product(p: "Poly", q: "Poly") -> "Poly":
    acc: Dict[Exponent, int] = {}
    _accumulate(acc, p.ints.items(), q.ints.items())
    return Poly.from_ints(p.nvars, {e: c for e, c in acc.items() if c},
                          p.den * q.den)


def _rational(c) -> Fraction:
    """c, neither int nor Fraction, as a Fraction; a float is refused.

    Fraction(0.1) is the binary value of the float, not 1/10, so a float
    coefficient would carry its rounding into exact arithmetic.
    """
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float; give an int or a "
                        "Fraction")
    return Fraction(c)


class Poly:
    """Immutable sparse polynomial over Q: nonzero ints over one denominator.

    ints maps exponents to nonzero ints and den > 0 divides them, in
    lowest terms; the zero polynomial is ({}, 1).  The constructor takes
    an exponent -> rational mapping (Fractions, ints, or anything but a
    float that Fraction accepts) and drops zero values; `terms` gives the
    same mapping back as Fractions, in a new dict each time.
    """

    __slots__ = ("nvars", "ints", "den", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, object]):
        # over the lcm of the denominators of fractions in lowest terms,
        # each prime power of the lcm is one term's whole denominator, and
        # that term's numerator is prime to it: the ints are in lowest terms
        values = []
        for e, c in terms.items():
            if not isinstance(c, (int, Fraction)):
                c = _rational(c)
            if c:
                values.append((e, c))
        den = lcm(*(c.denominator for _, c in values))
        self.nvars = nvars
        self.ints: Dict[Exponent, int] = {
            e: c.numerator * (den // c.denominator) for e, c in values}
        self.den = den

    # construction -------------------------------------------------------

    @classmethod
    def _wrap(cls, nvars: int, ints: Dict[Exponent, int], den: int) -> "Poly":
        """Wrap ints and den that are already nonzero and in lowest terms."""
        p = object.__new__(cls)
        p.nvars, p.ints, p.den = nvars, ints, den
        return p

    @classmethod
    def from_ints(cls, nvars: int, ints: Dict[Exponent, int],
                  den: int) -> "Poly":
        """The polynomial ints / den, for nonzero ints and den > 0.

        One gcd over den and the ints brings them to lowest terms.
        """
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {e: c // g for e, c in ints.items()}
        return cls._wrap(nvars, ints, den)

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._wrap(nvars, {}, 1)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls._wrap(nvars, {tuple(e): 1}, 1)

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c=1) -> "Poly":
        return cls(nvars, {tuple(exps): c})

    # queries ------------------------------------------------------------

    @property
    def terms(self) -> Terms:
        """Exponent -> nonzero Fraction, a new dict on every access."""
        den = self.den
        if den == 1:
            return {e: Fraction(c) for e, c in self.ints.items()}
        return {e: Fraction(c, den) for e, c in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def is_unit(self) -> bool:
        """Nonzero constant term, i.e. invertible in the local ring."""
        return (0,) * self.nvars in self.ints

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.ints.get(tuple(exps), 0), self.den)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.ints:
            return -1
        return max(sum(e) for e in self.ints)

    def min_degree(self) -> int:
        if not self.ints:
            return -1
        return min(sum(e) for e in self.ints)

    # arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        """other as an operand of +, - or *: a Poly in self's variables."""
        if not isinstance(other, Poly):
            return Poly.const(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} "
                             "variables do not combine")
        return other

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, out, k = d1, dict(self.ints), sign
        else:
            den = d1 // gcd(d1, d2) * d2
            a, k = den // d1, sign * (den // d2)
            out = {e: c * a for e, c in self.ints.items()}
        get = out.get
        for e, c in other.ints.items():
            s = get(e, 0) + k * c
            if s:
                out[e] = s
            else:
                del out[e]
        return Poly.from_ints(self.nvars, out, den)

    def __add__(self, other) -> "Poly":
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.nvars, {e: -c for e, c in self.ints.items()},
                          self.den)

    def __sub__(self, other) -> "Poly":
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        return _product(self, self._coerce(other))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Poly.const(self.nvars, 1) if result is None else result

    def scale(self, c) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = _rational(c)
        if c == 0:
            return Poly.zero(self.nvars)
        num = c.numerator
        return Poly.from_ints(self.nvars,
                              {e: num * v for e, v in self.ints.items()},
                              self.den * c.denominator)

    def mul_truncated(self, other: "Poly", cap: int) -> "Poly":
        """(self * other).truncate(cap); kept only as a bench/tracing.py
        target, until the next change to the benchmark."""
        return (self * other).truncate(cap)

    def truncate(self, cap: int) -> "Poly":
        return Poly.from_ints(
            self.nvars, {e: c for e, c in self.ints.items() if sum(e) <= cap},
            self.den)

    def diff(self, i: int) -> "Poly":
        out: Dict[Exponent, int] = {}
        for e, c in self.ints.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return Poly.from_ints(self.nvars, out, self.den)

    def substitute(self, targets: Sequence["Poly"]) -> "Poly":
        """Replace variable i by targets[i] (all over the same new ring).

        Target i is taken as its ints over its denominator d_i, packed
        once, and its powers are cached as packed integer term lists over
        d_i^k.  Every term of self then expands into one integer
        accumulator over the common denominator of all terms, which is
        unpacked once at the end.  No monomial of the result has degree
        above deg(self) times the highest target degree, so fields of
        that width never overflow.
        """
        if len(targets) != self.nvars:
            raise ValueError("substitution needs one target per variable")
        m = targets[0].nvars if targets else 0
        if not self.ints:
            return Poly.zero(m)
        bound = self.total_degree() * max(
            [t.total_degree() for t in targets] + [0])
        width = bound.bit_length()
        limit = (bound + 1) << (m * width)
        dens = [t.den for t in targets]
        powers: List[List[List[Tuple[int, int]]]] = [
            [[(0, 1)], [(_pack(e, width), c) for e, c in t.ints.items()]]
            for t in targets]

        def power(i: int, k: int) -> List[Tuple[int, int]]:
            cache = powers[i]
            while len(cache) <= k:
                acc: Dict[int, int] = {}
                for mono, c in cache[-1]:
                    _addmul(acc, c, mono, cache[1], limit)
                cache.append(list(acc.items()))
            return cache[k]

        # term e lies over self.den * prod(d_i^e_i)
        term_dens = [prod(d ** k for d, k in zip(dens, e)) for e in self.ints]
        den = lcm(*term_dens)
        acc: Dict[int, int] = {}
        for (e, c), d in zip(self.ints.items(), term_dens):
            part = [(0, c * (den // d))]
            factors = [power(i, k) for i, k in enumerate(e) if k] or [[(0, 1)]]
            for f in factors[:-1]:
                step: Dict[int, int] = {}
                for mono, v in part:
                    _addmul(step, v, mono, f, limit)
                part = list(step.items())
            for mono, v in part:
                _addmul(acc, v, mono, factors[-1], limit)
        return Poly.from_ints(m, {_unpack(mono, m, width): c
                                  for mono, c in acc.items()}, den * self.den)

    # comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self):
        # memo keys hash the same Polys again and again; a Poly is never
        # changed, so its hash is computed on first use and kept
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.nvars, self.den,
                               frozenset(self.ints.items())))
            return self._hash

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        """Terms in descending graded lexicographic order, for stable output."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        if names is None:
            names = default_names(self.nvars)
        if not self.ints:
            return "0"
        pieces: List[str] = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def linear_forms(matrix: Sequence[Sequence]) -> List[Poly]:
    """Row i of the matrix as the linear form sum_j matrix[i][j] * y_j.

    These are the substitution targets of the linear map z = matrix * y.
    """
    n = len(matrix)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [Poly(n, {unit[j]: a for j, a in enumerate(row)})
            for row in matrix]


class PolyMatrix:
    """Rows whose determinant is series_determinant; kept only as a
    bench/tracing.py target, until the next change to the benchmark."""

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        self.rows: List[List[Poly]] = [list(r) for r in rows]

    def determinant(self) -> Poly:
        return series_determinant(self.rows)


def _square(m: Sequence[Sequence]) -> int:
    """The size of a square matrix; ValueError for a ragged or non-square one."""
    n = len(m)
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    if ncols != n:
        raise ValueError("determinant of a non-square matrix")
    return n


def series_determinant(rows: Sequence[Sequence[Poly]],
                       cap: Optional[int] = None) -> Poly:
    """Determinant of a nonempty square matrix, expanded column by column.

    A state is a set of rows (a bit mask) that fills the first columns,
    with the signed sum of every way of placing them there; each unused
    row extends it into the next column.  Nothing is divided, so with a
    cap the entries are truncated once, every product is cut at the cap,
    and the result is the determinant truncated at the cap.  Costs
    O(2^n * n) products, fine for the n <= 8 germs handled here.  This is
    `_expand` with no column skipped.
    """
    n = _square(rows)
    if n == 0:
        raise ValueError("empty determinant needs an explicit variable count; "
                         "build the constant 1 at the call site")
    return _expand(rows, cap, 0)[0]


def maximal_minors(rows: Sequence[Sequence[Poly]]) -> List[Poly]:
    """The maximal minors of a nonempty k x (k + 1) matrix, from one expansion.

    Entry i is series_determinant of the matrix without column i, its
    other columns kept in order.  The expansion's states may skip one
    column, so the states before column i serve every minor that omits a
    later column, and each entry is packed once for all of them.
    """
    k = len(rows)
    if k == 0 or any(len(row) != k + 1 for row in rows):
        raise ValueError("maximal minors need a nonempty k x (k + 1) matrix")
    return _expand(rows, None, 1)


def _expand(rows: Sequence[Sequence[Poly]], cap: Optional[int],
            skip: int) -> List[Poly]:
    """The determinants of the k x k matrices in k rows of k + skip columns.

    skip is 0 or 1.  A state is keyed by its row mask and, with skip, the
    column it skipped (c + 1 in the bits above the mask, 0 before any
    skip); a state that has skipped nothing also passes to the next
    column unchanged, as the state that skips this one.  Entry i of the
    result is the determinant without column i (the one determinant when
    skip is 0).

    The products run on packed monomials.  Row r is taken as ints over the
    lcm D_r of its entries' denominators, so a state over the rows in its
    mask lies over the product of their D_r and states add as ints.  No
    product that is kept has degree above bound, the cap or else the sum
    of each row's highest entry degree, so fields of bound's width never
    overflow below the cut, and the cut is one comparison.  A single row,
    or a zero row, or more zero columns than skip, needs no product and is
    answered without packing.
    """
    nrows = len(rows)
    ncols = nrows + skip
    nvars = rows[0][0].nvars
    if nrows == 1:
        # each determinant is the one entry its columns keep
        out = [rows[0][ncols - 1 - i] for i in range(ncols)]
        return out if cap is None else [p.truncate(cap) for p in out]
    tops = []       # each row's highest entry degree, -1 for a zero row
    live = 0        # bit c is set when column c has a nonzero entry
    for row in rows:
        top = -1
        for c, p in enumerate(row):
            if p.ints:
                live |= 1 << c
                top = max(top, *map(sum, p.ints))
        tops.append(top)
    if -1 in tops or ncols - live.bit_count() > skip:
        return [Poly.zero(nvars)] * ncols
    cut = cap is not None and cap < sum(tops)
    bound = cap if cut else sum(tops)
    width = bound.bit_length()
    limit = (bound + 1) << (nvars * width)
    packed: List[List[List[Tuple[int, int]]]] = []
    den = 1
    for row in rows:
        row_den = lcm(*[p.den for p in row])
        den *= row_den
        entries = []
        for p in row:
            k = row_den // p.den
            terms = [(_pack(e, width), c * k) for e, c in p.ints.items()]
            if cut:
                # packing never clears the degree's bits, so a term above
                # the cap packs to at least limit even where a field
                # overflows; _addmul cuts sorted terms
                terms = sorted(t for t in terms if t[0] < limit)
            entries.append(terms)
        packed.append(entries)
    full = (1 << nrows) - 1
    states = {1 << r: dict(row[0]) for r, row in enumerate(packed) if row[0]}
    if skip:
        states[1 << nrows] = {0: 1}         # column 0 skipped: the constant 1
    for col in range(1, ncols):
        nxt: Dict[int, Dict[int, int]] = {}
        for key, val in states.items():
            if not val:
                continue
            mask = key & full
            placed = col                    # the rows in the mask
            if key != mask:
                placed -= 1
            elif skip:
                # no other state reaches this key, so it may share val
                nxt[key | ((col + 1) << nrows)] = val
            seen = 0
            for row in range(nrows):
                bit = 1 << row
                if mask & bit:
                    seen += 1
                    continue
                entry = packed[row][col]
                if not entry:
                    continue
                # the placed - seen used rows after `row` each make one
                # inversion with it: that parity is the sign
                sign = -1 if (seen + placed) % 2 else 1
                dst = nxt.setdefault(key | bit, {})
                for mono, c in val.items():
                    _addmul(dst, sign * c, mono, entry, limit)
        states = nxt
    keys = [full | ((i + 1) << nrows) for i in range(ncols)] if skip else [full]
    return [Poly.from_ints(nvars, {_unpack(mono, nvars, width): c
                                   for mono, c in states.get(k, {}).items()},
                           den)
            for k in keys]


def _bareiss(rows: List[List[int]], jordan: bool) -> Tuple[List[int], int]:
    """Fraction-free elimination of integer rows in place.

    Column by column, the first row at or below the next pivot position
    with a nonzero entry becomes the pivot row; a column without one is
    skipped.  Each step replaces row i by (pivot * row_i - row_i[c] *
    pivot_row) / prev, an exact division, for the rows below the pivot
    (and with `jordan` above it too, which leaves every pivot row zero in
    the other pivot columns).  Returns the pivot columns and the sign of
    the row swaps; for a nonsingular square matrix the last pivot times
    that sign is its determinant.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        k = len(pivots)
        if k == nrows:
            break
        piv = next((i for i in range(k, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot_row = rows[k]
        p = pivot_row[c]
        for i in range(nrows) if jordan else range(k + 1, nrows):
            if i != k:
                f = rows[i][c]
                rows[i] = [(p * a - f * b) // prev
                           for a, b in zip(rows[i], pivot_row)]
        pivots.append(c)
        prev = p
    return pivots, sign


def det(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix (1 when it is empty)."""
    n = _square(rows)
    if n == 0:
        return 1
    work = [list(map(index, row)) for row in rows]
    pivots, sign = _bareiss(work, jordan=False)
    return sign * work[-1][-1] if len(pivots) == n else 0


def solve(rows: Sequence[Sequence[int]],
          rhs: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """(d, X) with M X = d B in ints, for square integer rows M and rhs B.

    One Jordan pass on [M | B].  For a nonsingular M it leaves M's block
    diagonal with every diagonal entry equal to the last pivot d, which
    is det M times the sign of the row swaps, so the right block is
    X = d M^-1 B; the empty M gives d = 1.  A singular M gives d = 0 and
    X = 0.  ValueError for a ragged or non-square M, or a B that is ragged
    or has another number of rows.
    """
    n = _square(rows)
    width = len(rhs[0]) if rhs else 0
    if len(rhs) != n or any(len(row) != width for row in rhs):
        raise ValueError("right-hand side does not fit the matrix")
    aug = [list(map(index, a)) + list(map(index, b))
           for a, b in zip(rows, rhs)]
    if _bareiss(aug, jordan=True)[0][:n] != list(range(n)):
        return 0, [[0] * width for _ in range(n)]
    d = aug[-1][n - 1] if n else 1
    return d, [row[n:] for row in aug]
