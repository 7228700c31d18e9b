"""Independent residue oracle: the Bezoutian of the denominators.

For a regular sequence g = (g_1, ..., g_n) with local algebra Q = O/(g),
let Delta_ij(z, w) be the divided difference of g_i in the variable j,

    (g_i(z_1..z_j, w_{j+1}..w_n) - g_i(z_1..z_{j-1}, w_j..w_n)) / (z_j - w_j),

so that sum_j Delta_ij (z_j - w_j) = g_i(z) - g_i(w).  By Scheja and
Storch ("Ueber Spurfunktionen bei vollstaendigen Durchschnitten", J. Reine
Angew. Math. 278/279, 1975) the image of det Delta in Q_z (x) Q_w is
sum_a e_a (x) e_a*, where {e_a*} is the basis dual to the quotient
monomials {e_a} under the residue pairing Res(u v).  So the matrix M of
that image on the monomial basis is the inverse of the Gram matrix
Res(e_a e_b), and Res(h) is NF(h) dotted with the column of M^-1 at the
monomial 1.  With t the staircase height, every monomial of degree above
t vanishes in Q, so det Delta is expanded only up to total degree 2t and
read only where its z-degree and w-degree are both at most t.

M is built as integer rows over one denominator, M = m / den, from the
normal forms' ints, and one fraction-free solve of m against the unit
vector at the monomial 1 gives (q, x) with m x = q e_1, so the column of
M^-1 is den * x / q; nothing else of M^-1 is computed.

It reads normal forms on the certified basis, with coordinates on its
quotient monomials taken here, series_determinant and polycore.solve,
and nothing of the lifts, minimal powers or tracked bases that
grothendieck_residue is built on, nor the quotient algebra the pairing
lab reads.
"""

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from icisres.errors import NotRegularSequence
from icisres.localalg import Ctx, normal_form
from icisres.polycore import Exponent, Poly, series_determinant, solve


def divided_difference(g: Poly, j: int) -> Poly:
    """Delta(z, w) of g in variable j, in 2n variables: z first, then w."""
    n = g.nvars
    terms: Dict[Exponent, Fraction] = {}
    for e, c in g.terms.items():
        # (z_j^k - w_j^k) / (z_j - w_j) = sum of z_j^a w_j^(k-1-a)
        for a in range(e[j]):
            key = (e[:j] + (a,) + (0,) * (n - j - 1)
                   + (0,) * j + (e[j] - 1 - a,) + e[j + 1:])
            terms[key] = terms.get(key, 0) + c
    return Poly(2 * n, terms)


class BezoutResidue:
    """Res(h) over the ordered denominators, from the Bezoutian on Q."""

    def __init__(self, denominators: Sequence[Poly], ctx: Optional[Ctx] = None):
        g = list(denominators)
        n = len(g)
        self.sb = (ctx or Ctx()).finite(
            g, NotRegularSequence("denominator ideal has infinite colength"))
        self.basis = self.sb.quotient_monomials
        self.column = []
        d = len(self.basis)
        if d == 0:
            return          # a unit among the denominators: every residue 0
        t = self.sb.max_quotient_degree()
        det = series_determinant(
            [[divided_difference(gi, j) for j in range(n)] for gi in g], 2 * t)
        # group the kept terms by their z part: det = (sum over a of
        # z^a P_a(w)) / det.den, each P_a with integer coefficients
        by_z: Dict[Exponent, Dict[Exponent, int]] = {}
        for e, c in det.terms.items():
            z, w = e[:n], e[n:]
            if sum(z) <= t and sum(w) <= t:
                by_z.setdefault(z, {})[w] = int(c * det.den)
        # the image of z^a P_a(w) is u v^T / (du dv det.den)
        pieces = []
        for z, rest in by_z.items():
            u, du = self.int_coordinates(Poly.monomial(n, z))
            v, dv = self.int_coordinates(Poly(n, rest))
            pieces.append((u, v, du * dv))
        den = lcm(*(duv for _, _, duv in pieces))
        m = [[0] * d for _ in range(d)]
        for u, v, duv in pieces:
            scale = den // duv
            for a, ua in enumerate(u):
                if ua:
                    row, su = m[a], scale * ua
                    for b, vb in enumerate(v):
                        if vb:
                            row[b] += su * vb
        den *= det.den                      # M = m / den
        one = self.basis.index((0,) * n)
        q, x = solve(m, [[int(a == one)] for a in range(d)])
        if q == 0:
            raise ZeroDivisionError("singular Bezoutian matrix")
        self.column = [Fraction(den * xa, q) for (xa,) in x]

    def int_coordinates(self, h: Poly) -> Tuple[List[int], int]:
        """NF(h) on the monomial basis of Q, as ints over one denominator."""
        nf = normal_form(h, self.sb)
        coords = nf.terms
        return [int(coords.get(e, 0) * nf.den) for e in self.basis], nf.den

    def value(self, h: Poly) -> Fraction:
        if not self.column:
            return Fraction(0)
        u, du = self.int_coordinates(h)
        return sum((a * b for a, b in zip(u, self.column)), Fraction(0)) / du
