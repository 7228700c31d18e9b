"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in n variables is stored as nonzero ints over one positive
denominator in lowest terms: `Poly.ints` maps packed monomials to ints and
`Poly.den` divides every one of them, with gcd(den, *ints.values()) == 1.
So each rational polynomial has exactly one stored form, and equality and
hashing compare it directly.  Nothing here ever touches floats.

A packed monomial is one int with a 16-bit field per variable, e_1 in the
lowest (Bachmann and Schoenemann, "Monomial representations for Groebner
bases computations", ISSAC 1998); it is the one encoding of a monomial in
this module.  The top bit of each field is a guard bit that no stored
exponent sets, so an exponent is at most MAX_EXPONENT = 2^15 - 1.  Two
fields within the bound add without a carry: the sum of two packed
monomials is their product, and a guard bit set in it marks an exponent
above the bound.  The constructor, `*` (and so `**`), `substitute` and the
determinants raise ValueError naming the bound there, so no field ever
carries into the next.  b divides a exactly when a - b, taken with every
guard bit of a set, clears none of them (`residues` reads its box that
way).  A derivative subtracts one from a field and a truncation compares
the sum of the fields (`_degree`).  Exponent tuples appear only where a
caller hands monomials in or reads them out: the constructor, `terms`,
`coefficient`, `sorted_terms` and `render`.

Every operation works on the ints and builds no Fraction: a sum brings
both operands over the least common denominator, a product multiplies
the denominators, and each result is brought to lowest terms once, by
one gcd over its denominator and its coefficients (`Poly.from_ints`,
skipped when the denominator is 1).  `Poly.terms` is the rational view
for callers that want values: a fresh mapping from exponents to
Fractions, built on each access and never kept.

`_accumulate` is the one product loop: it adds the integer product of two
packed term lists into one dict, optionally cut at a limit.  `Poly.__mul__`
runs one call of it, and `_expand` and `Poly.substitute` chain many.
`localalg` keeps its standard-basis kernel on an encoding of its own,
fields as wide as its cap needs and the degree in a top field, and
repacks a Poly's monomials once at its boundary.  `substitute` is the one
substitution, by Horner's scheme, and `linear_forms` gives it the targets
of a linear change of coordinates z = C y.

`_expand` is the one determinant of a polynomial matrix: a
division-free expansion column by column over the sets of used rows,
which can cut every product at a total-degree cap.  A capped expansion
puts each entry term's degree in a field above the exponents; degrees
add like exponents, so the cut is one comparison, and one mask strips
the field from the result.  A state may also carry one skipped column, so
on a k x (k + 1) matrix one expansion gives all k + 1 maximal minors
(`maximal_minors`).  `series_determinant` is its case with no skip.
`_bareiss` is the one elimination: fraction-free Bareiss steps with
exact integer division on integer rows, skipping a column without a
pivot (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968).  Its rows must be ints: a
Fraction would be floored by `//` without an error, so `det` and `solve`
read each entry through `operator.index`.  `det` is its forward pass, the
integer determinant.  `solve` is the one exact solve: the forward pass on
[M | B] leaves an upper triangular block U whose last diagonal entry is
d = +-det M, and fraction-free back-substitution gives the integer block X
with M X = d B, so no Fraction is built on the way.  The cores are
integer and a caller builds the rational view it needs: `pairing.rref`
hands `_bareiss` the integer rows the quotient algebra and the residue
family give and reads its reduced rows as Fractions, and the
ann-invariance suite of `verify` reads C^-1 as X / d.  `det`,
`series_determinant` and `solve` refuse a ragged or non-square matrix,
and `maximal_minors` one that is not k x (k + 1).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm, prod
from operator import index, mul, or_
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Fraction]

_DEFAULT_NAMES = ("x", "y", "z", "w", "u", "v")

# the field of one exponent in a packed monomial; its top bit is the guard
_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1

# the bits a monomial must clear for _degree's remainder to be its degree:
# at most 16 fields, each below 2^12, sum to less than 2^16 - 1
_NOT_SMALL = ~sum(0xFFF << (_WIDTH * i) for i in range(16))


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


@cache
def _layout(nvars: int) -> Tuple[struct.Struct, int]:
    """The fields of nvars variables as little-endian 16-bit words, and the
    guard bits."""
    return (struct.Struct(f"<{nvars}H"),
            sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(nvars)))


def _key(e: Sequence[int], nvars: int) -> int:
    """The packed monomial z^e; ValueError unless e is nvars exponents, each
    an int from 0 to MAX_EXPONENT."""
    fields, guards = _layout(nvars)
    try:
        m = int.from_bytes(fields.pack(*e), "little")
    except struct.error:
        m = -1
    if m < 0 or m & guards:
        raise ValueError(f"exponents {tuple(e)} are not {nvars} ints from 0 "
                         f"to the exponent bound {MAX_EXPONENT}")
    return m


def _exponents(m: int, nvars: int) -> Exponent:
    fields = _layout(nvars)[0]
    return fields.unpack(m.to_bytes(fields.size, "little"))


@cache
def _high_bits(nvars: int, nrows: int) -> int:
    """The bits of each field from 2^(15 - b) up, for 2^b >= nrows: a sum of
    nrows fields that all clear them is at most MAX_EXPONENT."""
    low = _WIDTH - 1 - (nrows - 1).bit_length()
    return sum(((1 << _WIDTH) - (1 << low)) << (_WIDTH * i)
               for i in range(nvars))


def _degree(m: int) -> int:
    """The total degree of the packed monomial m.

    2^16 is 1 modulo 2^16 - 1, so m is its sum of fields modulo 2^16 - 1,
    which is that sum while it stays below 2^16 - 1.
    """
    if m & _NOT_SMALL:
        d = 0
        while m:
            d += m & _FIELD
            m >>= _WIDTH
        return d
    return m % _FIELD


def _over_bound(what: str, exponent: int) -> ValueError:
    return ValueError(f"{what} reaches exponent {exponent}, above the "
                      f"exponent bound {MAX_EXPONENT}")


def _field_maxima(p: "Poly") -> List[int]:
    """The highest exponent of each variable in p; zeros for the zero poly."""
    if not p.ints:
        return [0] * p.nvars
    return [max(col) for col in zip(*(_exponents(m, p.nvars) for m in p.ints))]


def _accumulate(acc: Dict[int, int], left: Iterable[Tuple[int, int]],
                right: Sequence[Tuple[int, int]],
                limit: Optional[int] = None) -> None:
    """Add the integer product left * right of packed terms into acc.

    With a limit, right is sorted ascending and every product at or above
    the limit is cut.  A zero coefficient in left is skipped; acc keeps the
    sums that cancel to 0, for the caller to drop once (`_nonzero`).
    """
    get = acc.get
    if limit is None:
        for m1, c1 in left:
            if c1:
                for m2, c2 in right:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
        return
    for m1, c1 in left:
        if c1:
            room = limit - m1
            for m2, c2 in right:
                if m2 >= room:
                    break
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2


def _nonzero(acc: Dict[int, int]) -> Dict[int, int]:
    return {m: c for m, c in acc.items() if c}


def _product(p: "Poly", q: "Poly") -> "Poly":
    acc: Dict[int, int] = {}
    _accumulate(acc, p.ints.items(), q.ints.items())
    ints = _nonzero(acc)
    # two fields within the bound add without a carry, so a guard bit set
    # in a product marks an exponent above the bound
    if reduce(or_, ints, 0) & _layout(p.nvars)[1]:
        raise _over_bound("a product", max(
            max(_exponents(m, p.nvars)) for m in ints))
    return Poly.from_ints(p.nvars, ints, p.den * q.den)


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

    ints maps packed monomials to nonzero ints and den > 0 divides them, in
    lowest terms; the zero polynomial is ({}, 1).  The constructor takes
    an exponent tuple -> rational mapping (Fractions, ints, or anything
    but a float that Fraction accepts), drops zero values and refuses an
    exponent tuple of another length or with an entry outside 0 to
    MAX_EXPONENT; `terms` gives the same mapping back as Fractions, in a
    new dict each time.
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
                values.append((_key(e, nvars), c))
        den = lcm(*(c.denominator for _, c in values))
        self.nvars = nvars
        self.ints: Dict[int, int] = {
            m: c.numerator * (den // c.denominator) for m, c in values}
        self.den = den

    # construction -------------------------------------------------------

    @classmethod
    def _wrap(cls, nvars: int, ints: Dict[int, int], den: int) -> "Poly":
        """Wrap ints and den that are already nonzero and in lowest terms."""
        p = object.__new__(cls)
        p.nvars, p.ints, p.den = nvars, ints, den
        return p

    @classmethod
    def from_ints(cls, nvars: int, ints: Dict[int, int], den: int) -> "Poly":
        """The polynomial ints / den, for nonzero ints on packed monomials
        and den > 0.

        One gcd over den and the ints brings them to lowest terms.
        """
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {m: c // g for m, c in ints.items()}
        return cls._wrap(nvars, ints, den)

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._wrap(nvars, {}, 1)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = _rational(c)
        if not c:
            return cls.zero(nvars)
        return cls._wrap(nvars, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls._wrap(nvars, {_key(e, nvars): 1}, 1)

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c=1) -> "Poly":
        return cls(nvars, {tuple(exps): c})

    # queries ------------------------------------------------------------

    @property
    def terms(self) -> Terms:
        """Exponent -> nonzero Fraction, a new dict on every access."""
        nvars, den = self.nvars, self.den
        return {_exponents(m, nvars): Fraction(c, den)
                for m, c in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def is_unit(self) -> bool:
        """Nonzero constant term, i.e. invertible in the local ring."""
        return 0 in self.ints

    def constant_term(self) -> Fraction:
        return Fraction(self.ints.get(0, 0), self.den)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.ints.get(_key(exps, self.nvars), 0), self.den)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max(map(_degree, self.ints), default=-1)

    def min_degree(self) -> int:
        return min(map(_degree, self.ints), default=-1)

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
            out = {m: c * a for m, c in self.ints.items()}
        get = out.get
        for m, c in other.ints.items():
            s = get(m, 0) + k * c
            if s:
                out[m] = s
            else:
                del out[m]
        return Poly.from_ints(self.nvars, out, den)

    def __add__(self, other) -> "Poly":
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.nvars, {m: -c for m, c in self.ints.items()},
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
                              {m: num * v for m, v in self.ints.items()},
                              self.den * c.denominator)

    def mul_truncated(self, other: "Poly", cap: int) -> "Poly":
        """(self * other).truncate(cap); kept only as a bench/tracing.py
        target, until the next change to the benchmark."""
        return (self * other).truncate(cap)

    def truncate(self, cap: int) -> "Poly":
        return Poly.from_ints(
            self.nvars,
            {m: c for m, c in self.ints.items() if _degree(m) <= cap},
            self.den)

    def diff(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise IndexError(f"no variable {i} in {self.nvars} variables")
        shift = _WIDTH * i
        one = 1 << shift
        out: Dict[int, int] = {}
        for m, c in self.ints.items():
            k = m >> shift & _FIELD
            if k:
                out[m - one] = c * k
        return Poly.from_ints(self.nvars, out, self.den)

    def substitute(self, targets: Sequence["Poly"]) -> "Poly":
        """Replace variable i by targets[i] (all over the same new ring).

        Target i is taken as its ints over its denominator d_i, and its
        powers are cached as integer term lists over d_i^k.  Each term of
        self is brought over the common denominator of all terms, and they
        are summed by Horner's scheme, one variable at a time from the
        last, so terms that agree in their first exponents share one
        product per variable.  The products add packed monomials as they
        stand.  ValueError when a term's expansion may take an exponent
        above MAX_EXPONENT, before anything is multiplied.
        """
        if len(targets) != self.nvars:
            raise ValueError("substitution needs one target per variable")
        m = targets[0].nvars if targets else 0
        if not self.ints:
            return Poly.zero(m)
        exps = [_exponents(mono, self.nvars) for mono in self.ints]
        if self.total_degree() * max(
                [t.total_degree() for t in targets] + [0]) > MAX_EXPONENT:
            # y_j's exponent in the expansion of term e is at most
            # sum_i e_i (the highest exponent of y_j in target i)
            tops = [_field_maxima(t) for t in targets]
            worst = max(max([sum(map(prod, zip(e, col)))
                             for col in zip(*tops)], default=0)
                        for e in exps)
            if worst > MAX_EXPONENT:
                raise _over_bound("the substitution", worst)
        dens = [t.den for t in targets]
        powers: List[List[List[Tuple[int, int]]]] = [
            [[(0, 1)], list(t.ints.items())] for t in targets]

        def power(i: int, k: int) -> List[Tuple[int, int]]:
            cache = powers[i]
            while len(cache) <= k:
                acc: Dict[int, int] = {}
                _accumulate(acc, cache[-1], cache[1])
                cache.append(list(_nonzero(acc).items()))
            return cache[k]

        # term e lies over self.den * prod(d_i^e_i)
        term_dens = [prod(d ** k for d, k in zip(dens, e)) for e in exps]
        den = lcm(*term_dens)
        # Horner's scheme, the last variable innermost: level maps the
        # exponents e_1..e_i to the sum, over the terms that start with
        # them, of c * prod over j > i of target_j^e_j
        level: Dict[Exponent, Dict[int, int]] = {
            e: {0: c * (den // d)}
            for c, e, d in zip(self.ints.values(), exps, term_dens)}
        for i in reversed(range(self.nvars)):
            outer: Dict[Exponent, Dict[int, int]] = {}
            for e, val in level.items():
                _accumulate(outer.setdefault(e[:i], {}), val.items(),
                            power(i, e[i]))
            level = outer
        return Poly.from_ints(m, _nonzero(level[()]), den * self.den)

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
    later column.
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

    Row r is taken as ints over the lcm D_r of its entries' denominators,
    so a state over the rows in its mask lies over the product of their
    D_r and states add as ints.  A variable's exponent in a product is at
    most the sum over the rows of its highest exponent there, or the cap
    when products are cut: ValueError when that passes MAX_EXPONENT, so no
    field carries (the sum is worked out only when some entry's field
    reaches MAX_EXPONENT / k).  With a cap below the sum of each row's
    highest entry degree, each entry term carries its degree in the field
    above the exponents, so a product is still one addition, the cut is
    one comparison, and one mask strips the degree from the result.  A
    single row, or a zero row, or more zero columns than skip, needs no
    product.
    """
    nrows = len(rows)
    ncols = nrows + skip
    nvars = rows[0][0].nvars
    if nrows == 1:
        # each determinant is the one entry its columns keep
        out = [rows[0][ncols - 1 - i] for i in range(ncols)]
        return out if cap is None else [p.truncate(cap) for p in out]
    live = 0        # bit c is set when column c has a nonzero entry
    spread = 0      # every field at least the highest of its exponents
    for row in rows:
        seen = 0
        for c, p in enumerate(row):
            if p.ints:
                seen |= 1 << c
                spread |= reduce(or_, p.ints)
        if not seen:
            return [Poly.zero(nvars)] * ncols
        live |= seen
    if ncols - live.bit_count() > skip:
        return [Poly.zero(nvars)] * ncols
    cut = cap is not None and cap < sum(
        max(_degree(m) for p in row for m in p.ints) for row in rows)
    # a field below MAX_EXPONENT / nrows in every entry cannot sum past
    # the bound; else sum each variable's highest exponent over the rows
    if spread & _high_bits(nvars, nrows) and not (cut and cap <= MAX_EXPONENT):
        worst = max(map(sum, zip(*(
            [max(col) for col in zip(*map(_field_maxima, row))]
            for row in rows))), default=0)
        if worst > MAX_EXPONENT:
            raise _over_bound("the determinant", worst)
    shift = _WIDTH * nvars          # the degree field, when cut
    limit = (cap + 1) << shift if cut else None
    # each entry's terms over the row's lcm, and their negatives on demand
    packed: List[List[List[Tuple[int, int]]]] = []
    den = 1
    for row in rows:
        row_den = lcm(*[p.den for p in row])
        den *= row_den
        entries = []
        for p in row:
            k = row_den // p.den
            if cut:
                # sorted by degree: _accumulate cuts sorted terms
                terms = sorted(t for t in (
                    (m | _degree(m) << shift, c * k) for m, c in p.ints.items())
                    if t[0] < limit)
            elif k == 1:
                terms = list(p.ints.items())
            else:
                terms = [(m, c * k) for m, c in p.ints.items()]
            entries.append(terms)
        packed.append(entries)
    negated: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
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
                if (seen + placed) % 2:
                    entry = negated.get((row, col))
                    if entry is None:
                        entry = negated[row, col] = [
                            (m, -c) for m, c in packed[row][col]]
                _accumulate(nxt.setdefault(key | bit, {}), val.items(), entry,
                            limit)
        states = nxt
    keys = [full | ((i + 1) << nrows) for i in range(ncols)] if skip else [full]
    exponents = (1 << shift) - 1        # strips the degree field
    return [Poly.from_ints(nvars, {mono & exponents: c for mono, c in
                                   states.get(k, {}).items() if c}, den)
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

    The forward pass on [M | B] leaves [U | Y] with U upper triangular, U X
    = d Y for the same X, and U's last diagonal entry d = det M times the
    sign of the row swaps.  Back-substitution, X_i = (d Y_i - sum over
    j > i of U_ij X_j) / U_ii, divides exactly, since X = d M^-1 B is an
    integer matrix (Cramer's rule); the empty M gives d = 1.  A singular M
    gives d = 0 and X = 0.  ValueError for a ragged or non-square M, or a
    B that is ragged or has another number of rows.
    """
    n = _square(rows)
    width = len(rhs[0]) if rhs else 0
    if len(rhs) != n or any(len(row) != width for row in rhs):
        raise ValueError("right-hand side does not fit the matrix")
    aug = [list(map(index, a)) + list(map(index, b))
           for a, b in zip(rows, rhs)]
    if _bareiss(aug, jordan=False)[0][:n] != list(range(n)):
        return 0, [[0] * width for _ in range(n)]
    if not n:
        return 1, []
    d = aug[-1][n - 1]
    # X's columns from the last row up, each entry solved from those below
    cols = [[y] for y in aug[-1][n:]]       # U_nn = d, so X_n = Y_n
    for i in range(n - 2, -1, -1):
        row = aug[i]
        later, p = row[n - 1:i:-1], row[i]
        for y, col in zip(row[n:], cols):
            col.append((d * y - sum(map(mul, later, col))) // p)
    if not cols:
        return d, [[] for _ in range(n)]
    return d, [list(r) for r in zip(*cols)][::-1]
