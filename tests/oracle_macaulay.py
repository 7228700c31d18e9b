"""Independent colength oracle: truncated Macaulay-matrix corank.

Counts dim O/(I + m^(D+1)) as the corank of the multiplication rows
{x^a * g} among all monomials of degree <= D.  The count is nondecreasing
in D, bounded by the colength, and equal to it once m^(D+1) lands inside
the ideal; three consecutive equal values are taken as convergence.  Built
only on the polynomial kernel so it shares nothing with the standard-basis
or residue machinery it cross-checks.
"""

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence

from icisres.polycore import Poly


def monomials_upto(n: int, degree: int) -> List[tuple]:
    out = []
    for d in range(degree + 1):
        for bars in itertools.combinations(range(d + n - 1), n - 1):
            e = []
            prev = -1
            for b in bars:
                e.append(b - prev - 1)
                prev = b
            e.append(d + n - 1 - prev - 1)
            out.append(tuple(e))
    return out


def _sparse_rank(rows: List[Dict[int, Fraction]]) -> int:
    """Rank by fraction-free elimination of the rows scaled to integers.

    Each step replaces a row by (a * row - b * pivot) / content with a, b
    the two leading coefficients over their gcd, so every entry stays an
    integer and the row stays primitive.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        den = math.lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = math.gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                acc = row.get(c, 0) - b * v
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
            content = math.gcd(*row.values())
            if content > 1:
                row = {c: v // content for c, v in row.items()}
    return len(pivots)


def corank(gens: Sequence[Poly], degree: int) -> int:
    """dim O/(ideal(gens) + m^(degree+1)) by exact sparse elimination."""
    n = gens[0].nvars
    cols = {e: i for i, e in enumerate(monomials_upto(n, degree))}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        room = degree - g.min_degree()
        for a in monomials_upto(n, max(room, 0)):
            row: Dict[int, Fraction] = {}
            for e, c in g.terms.items():
                ee = tuple(u + v for u, v in zip(a, e))
                if sum(ee) <= degree:
                    row[cols[ee]] = row.get(cols[ee], Fraction(0)) + c
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return len(cols) - _sparse_rank(rows)


def stable_corank(gens: Sequence[Poly], limit: int = 24) -> int:
    """corank at the first D with three consecutive equal values."""
    start = max(2, max(g.total_degree() for g in gens if not g.is_zero()))
    values = []
    for d in range(start, limit + 1):
        values.append(corank(gens, d))
        if len(values) >= 3 and values[-1] == values[-2] == values[-3]:
            return values[-1]
    raise RuntimeError(f"corank kept growing up to degree {limit}: {values}")
