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

Products and substitutions share one loop, `_accumulate`, which adds the
integer product of two term lists into a dict.  `Poly.__mul__`,
`Poly.mul_truncated` (which pairs terms only up to a total-degree cap)
and `Poly.substitute` run on it; `substitute` is the one substitution,
and `linear_forms` gives it the targets of a linear change of coordinates
z = C y.

`series_determinant` is the one determinant of a polynomial matrix
(`PolyMatrix.determinant` calls it): a division-free expansion column by
column over the sets of used rows, which can cut every product at a
total-degree cap.  `_bareiss` is the one elimination of a rational
matrix: fraction-free Bareiss steps with exact integer division on the
matrix scaled to one denominator, skipping a column without a pivot.
`rational_det`, `rational_inverse` and `pairing.rref` are built on it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Fraction]
IntTerms = Iterable[Tuple[Exponent, int]]

_DEFAULT_NAMES = ("x", "y", "z", "w", "u", "v")


def default_names(nvars: int) -> Tuple[str, ...]:
    if nvars <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:nvars]
    return tuple(f"z{i + 1}" for i in range(nvars))


def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(b: Exponent, a: Exponent) -> bool:
    return all(y <= x for x, y in zip(a, b))


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Exponent) -> int:
    return sum(a)


def _grlex_key(e: Exponent) -> Tuple[int, Exponent]:
    return (sum(e), e)


def _term_degree(term: Tuple[Exponent, int]) -> int:
    return sum(term[0])


def _accumulate(acc: Dict[Exponent, int], left: IntTerms, right: IntTerms,
                cap: Optional[int] = None) -> None:
    """Add the integer product left * right into acc.

    With a cap, right is sorted by degree and each left term pairs only
    with the prefix of right that keeps the total degree within the cap.
    """
    get = acc.get
    if cap is not None:
        right = sorted(right, key=_term_degree)
        degrees = [sum(e) for e, _ in right]
    for e1, c1 in left:
        partners = right if cap is None else \
            right[:bisect_right(degrees, cap - sum(e1))]
        for e2, c2 in partners:
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2


def _product(p: "Poly", q: "Poly", cap: Optional[int] = None) -> "Poly":
    acc: Dict[Exponent, int] = {}
    _accumulate(acc, p.ints.items(), q.ints.items(), cap)
    return Poly.from_ints(p.nvars, {e: c for e, c in acc.items() if c},
                          p.den * q.den)


class Poly:
    """Immutable sparse polynomial over Q: nonzero ints over one denominator.

    ints maps exponents to nonzero ints and den > 0 divides them, in
    lowest terms; the zero polynomial is ({}, 1).  The constructor takes
    an exponent -> rational mapping (Fractions, ints, or anything Fraction
    accepts) and drops zero values; `terms` gives the same mapping back
    as Fractions, in a new dict each time.
    """

    __slots__ = ("nvars", "ints", "den")

    def __init__(self, nvars: int, terms: Mapping[Exponent, object]):
        # over the lcm of the denominators of fractions in lowest terms,
        # each prime power of the lcm is one term's whole denominator, and
        # that term's numerator is prime to it: the ints are in lowest terms
        values = []
        for e, c in terms.items():
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
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
        if isinstance(other, Poly):
            return other
        return Poly.const(self.nvars, other)

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
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        num = c.numerator
        return Poly.from_ints(self.nvars,
                              {e: num * v for e, v in self.ints.items()},
                              self.den * c.denominator)

    def mul_truncated(self, other: "Poly", cap: int) -> "Poly":
        """Product dropping every monomial of total degree above cap."""
        return _product(self, other, cap)

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

        Target i is taken as its ints over its denominator d_i, and its
        powers are cached as integer term lists over d_i^k.  Every term of
        self then expands into one integer accumulator over the common
        denominator of all terms.
        """
        if len(targets) != self.nvars:
            raise ValueError("substitution needs one target per variable")
        m = targets[0].nvars if targets else 0
        one = (0,) * m
        dens = [t.den for t in targets]
        powers: List[List[List[Tuple[Exponent, int]]]] = [
            [[(one, 1)], list(t.ints.items())] for t in targets]

        def power(i: int, k: int) -> List[Tuple[Exponent, int]]:
            cache = powers[i]
            while len(cache) <= k:
                acc: Dict[Exponent, int] = {}
                _accumulate(acc, cache[-1], cache[1])
                cache.append([t for t in acc.items() if t[1]])
            return cache[k]

        # term e lies over self.den * prod(d_i^e_i)
        term_dens = [prod(d ** k for d, k in zip(dens, e)) for e in self.ints]
        den = lcm(*term_dens)
        acc: Dict[Exponent, int] = {}
        for (e, c), d in zip(self.ints.items(), term_dens):
            part = [(one, c * (den // d))]
            factors = [power(i, k) for i, k in enumerate(e) if k] or [[(one, 1)]]
            for f in factors[:-1]:
                step: Dict[Exponent, int] = {}
                _accumulate(step, part, f)
                part = [t for t in step.items() if t[1]]
            _accumulate(acc, part, factors[-1])
        return Poly.from_ints(m, {e: c for e, c in acc.items() if c},
                              den * self.den)

    def evaluate(self, point: Sequence) -> Fraction:
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.ints.items():
            term = Fraction(c)
            for i, k in enumerate(e):
                if k:
                    term *= vals[i] ** k
            total += term
        return total / self.den

    # comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.ints == other.ints)

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.ints.items())))

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
    return [Poly(n, {unit[j]: Fraction(a) for j, a in enumerate(row)})
            for row in matrix]


class PolyMatrix:
    """Dense matrix of Poly entries."""

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        self.rows: List[List[Poly]] = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    def determinant(self) -> Poly:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            raise ValueError("empty determinant needs an explicit variable count; "
                             "build the constant 1 at the call site")
        return series_determinant(self.rows)


def series_determinant(rows: Sequence[Sequence[Poly]],
                       cap: Optional[int] = None) -> Poly:
    """Determinant of a nonempty square matrix, expanded column by column.

    A state is a set of rows (a bit mask) that fills the first columns,
    with the signed sum of every way of placing them there; each unused
    row extends it into the next column.  Nothing is divided, so with a
    cap the entries are truncated once, every product is cut at the cap,
    and the result is the determinant truncated at the cap.  Costs
    O(2^n * n) products, fine for the n <= 8 germs handled here.
    """
    n = len(rows)
    if cap is not None:
        rows = [[p.truncate(cap) for p in row] for row in rows]
    states = {1 << r: rows[r][0] for r in range(n) if not rows[r][0].is_zero()}
    for col in range(1, n):
        nxt: Dict[int, Poly] = {}
        for mask, val in states.items():
            if val.is_zero():
                continue
            seen = 0
            for row in range(n):
                bit = 1 << row
                if mask & bit:
                    seen += 1
                    continue
                entry = rows[row][col]
                if entry.is_zero():
                    continue
                piece = val * entry if cap is None else val.mul_truncated(entry, cap)
                # the col - seen used rows after `row` each make one
                # inversion with it: that parity is the sign
                key = mask | bit
                old = nxt.get(key)
                if (seen + col) % 2 == 0:
                    nxt[key] = piece if old is None else old + piece
                else:
                    nxt[key] = -piece if old is None else old - piece
        states = nxt
    return states.get((1 << n) - 1) or Poly.zero(rows[0][0].nvars)


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


def _scaled(m: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """The rational matrix as integer rows over one common denominator."""
    rows = [[Fraction(a) for a in row] for row in m]
    den = lcm(*(a.denominator for row in rows for a in row))
    return [[a.numerator * (den // a.denominator) for a in row]
            for row in rows], den


def rational_det(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square rational matrix (1 when it is empty)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    rows, den = _scaled(m)
    pivots, sign = _bareiss(rows, jordan=False)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1], den ** n)


def rational_inverse(m: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse of a nonsingular rational matrix.

    Elimination turns [M | I] into [L | R] with L diagonal and R = L M^-1,
    so row i of the inverse is den * R_i / L_ii for M = den * m.
    """
    n = len(m)
    rows, den = _scaled(m)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if _bareiss(aug, jordan=True)[0] != list(range(n)):
        raise ZeroDivisionError("inverse of a singular matrix")
    return [[Fraction(den * a, row[i]) for a in row[n:]]
            for i, row in enumerate(aug)]
