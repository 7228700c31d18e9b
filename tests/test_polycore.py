"""Polynomial kernel tests: arithmetic, substitution, determinants."""

import itertools
import math
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from icisres import polycore, verify
from icisres.index import CoordinateChange, GermProblem
from icisres.polycore import (Poly, PolyMatrix, default_names, det,
                              maximal_minors, series_determinant, solve)

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
N2 = ("x", "y")


def evaluate(p, point):
    """p at a rational point, term by term in Fractions."""
    total = Fraction(0)
    for e, c in p.ints.items():
        term = Fraction(c)
        for v, k in zip(point, e):
            term *= Fraction(v) ** k
        total += term
    return total / p.den


def rand_poly(rng, n, deg, terms=5):
    p = Poly.zero(n)
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n)] += 1
        c = rng.randint(-4, 4)
        p = p + Poly(n, {tuple(e): Fraction(c)})
    return p


def test_constructors_and_zero():
    assert Poly.zero(3).is_zero()
    assert Poly.const(2, Fraction(0)).is_zero()
    one = Poly.const(2, Fraction(1))
    assert not one.is_zero()
    assert one.total_degree() == 0
    assert Poly.zero(2).total_degree() == -1
    # zero coefficients never survive construction
    assert Poly(2, {(1, 0): Fraction(0)}).is_zero()


def test_binomial_square():
    p = (X + Y) ** 2
    assert p == X**2 + (X * Y).scale(Fraction(2)) + Y**2
    assert p.coefficient((1, 1)) == 2
    assert p.coefficient((3, 0)) == 0


def test_arithmetic_ring_axioms_random():
    rng = random.Random(41)
    for _ in range(25):
        a = rand_poly(rng, 2, 3)
        b = rand_poly(rng, 2, 3)
        c = rand_poly(rng, 2, 3)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero()
        assert (a * b) * c == a * (b * c)


def test_scale_and_neg():
    p = X**2 - Y
    assert p.scale(Fraction(-3)) == -(p + p + p)
    assert p.scale(Fraction(0)).is_zero()


@pytest.mark.parametrize("build, value", [
    (lambda: Poly.const(2, 0.1), 0.1),
    (lambda: Poly.variable(2, 0) + 0.5, 0.5),
    (lambda: Poly.variable(2, 0).scale(0.25), 0.25),
], ids=["const", "add", "scale"])
def test_a_float_coefficient_is_refused(build, value):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match=f"coefficient {value!r} is a float"):
        build()


def test_diff():
    p = X**3 * Y + X
    assert p.diff(0) == (X**2 * Y).scale(Fraction(3)) + Poly.const(2, Fraction(1))
    assert p.diff(1) == X**3
    assert Poly.const(2, Fraction(5)).diff(0).is_zero()


def test_diff_product_rule_random():
    rng = random.Random(42)
    for _ in range(15):
        a = rand_poly(rng, 3, 2)
        b = rand_poly(rng, 3, 2)
        for i in range(3):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_substitute_chain():
    # p(x, y) -> p(u + v, u*v)
    U = Poly.variable(2, 0)
    V = Poly.variable(2, 1)
    p = X * Y
    q = p.substitute([U + V, U * V])
    assert q == (U + V) * (U * V)


def test_evaluate():
    p = X**2 + Y.scale(Fraction(3))
    assert evaluate(p, [Fraction(2), Fraction(-1)]) == 1
    assert evaluate(p, [Fraction(0), Fraction(0)]) == 0


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["sum", "difference", "product"])
def test_mixed_variable_counts_do_not_combine(op):
    x3, x2 = Poly.variable(3, 0), Poly.variable(2, 0)
    with pytest.raises(ValueError, match="in 3 and 2 variables"):
        op(x3, x2)
    with pytest.raises(ValueError, match="in 2 and 3 variables"):
        op(x2, x3)
    # a number is a constant in the other operand's variables
    assert op(x3, 2) == op(x3, Poly.const(3, 2))
    assert op(2, x3) == op(Poly.const(3, 2), x3)


def test_degrees():
    p = X**2 * Y + X
    assert p.total_degree() == 3
    assert p.min_degree() == 1
    assert Poly.const(2, Fraction(7)).min_degree() == 0


def test_truncate():
    p = (X + Y) ** 4
    t = p.truncate(2)
    assert t.is_zero()
    t3 = (Poly.const(2, Fraction(1)) + X) ** 5
    assert t3.truncate(1) == Poly.const(2, Fraction(1)) + X.scale(Fraction(5))


def test_render():
    p = X**2 - Y**3 + Poly.const(2, Fraction(1, 2))
    assert p.render(N2) == "-y^3 + x^2 + 1/2"
    assert Poly.zero(2).render(N2) == "0"
    assert (-X).render(N2) == "-x"
    assert (X * Y**2).scale(Fraction(1, 3)).render(N2) == "1/3*x*y^2"


def test_default_names():
    assert default_names(2) == ("x", "y")
    assert default_names(3) == ("x", "y", "z")
    assert default_names(5) == ("x", "y", "z", "w", "u")


def test_matrix_determinant_known():
    a = PolyMatrix([[X, Y], [Y, X]])
    assert a.determinant() == X**2 - Y**2
    one = Poly.const(2, Fraction(1))
    b = PolyMatrix([[one, X, Y],
                    [Poly.zero(2), one, X],
                    [Poly.zero(2), Poly.zero(2), one]])
    assert b.determinant() == one


def test_matrix_determinant_alternating():
    rng = random.Random(44)
    for _ in range(10):
        rows = [[rand_poly(rng, 2, 1, terms=3) for _ in range(3)] for _ in range(3)]
        d = PolyMatrix(rows).determinant()
        swapped = [rows[1], rows[0], rows[2]]
        assert PolyMatrix(swapped).determinant() == -d
        degenerate = [rows[0], rows[0], rows[2]]
        assert PolyMatrix(degenerate).determinant().is_zero()


def test_matrix_determinant_multiplicative_numeric():
    rng = random.Random(45)
    for _ in range(10):
        a = [[Poly.const(1, Fraction(rng.randint(-3, 3))) for _ in range(3)]
             for _ in range(3)]
        b = [[Poly.const(1, Fraction(rng.randint(-3, 3))) for _ in range(3)]
             for _ in range(3)]
        prod = [[sum((a[i][k] * b[k][j] for k in range(3)), Poly.zero(1))
                 for j in range(3)] for i in range(3)]
        da = PolyMatrix(a).determinant()
        db = PolyMatrix(b).determinant()
        assert PolyMatrix(prod).determinant() == da * db


def test_series_determinant_matches_poly_determinant():
    rng = random.Random(46)
    cap = 4
    for _ in range(8):
        rows = [[rand_poly(rng, 2, 2, terms=3) for _ in range(3)] for _ in range(3)]
        exact = PolyMatrix(rows).determinant().truncate(cap)
        assert series_determinant(rows, cap) == exact


def test_series_determinant_identity():
    one = Poly.const(2, Fraction(1))
    zero = Poly.zero(2)
    assert series_determinant([[one, zero], [zero, one]], 3) == Poly.const(2, Fraction(1))


# reference: the term-by-term Fraction loops the integer kernel replaced ------

def ref_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly(p.nvars, out)


def ref_mul_truncated(p, q, cap):
    out = {}
    for e1, c1 in p.terms.items():
        d1 = sum(e1)
        if d1 > cap:
            continue
        for e2, c2 in q.terms.items():
            if d1 + sum(e2) > cap:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly(p.nvars, out)


def ref_substitute(p, targets):
    m = targets[0].nvars if targets else 0
    result = Poly.zero(m)
    for e, c in p.terms.items():
        term = Poly.const(m, c)
        for i, k in enumerate(e):
            for _ in range(k):
                term = ref_mul(term, targets[i])
        result = result + term
    return result


def ref_det(m):
    n = len(m)
    m = [[Fraction(a) for a in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            r = m[i][k] / m[k][k]
            if r:
                m[i] = [a - r * b for a, b in zip(m[i], m[k])]
    return det


def ref_gauss_jordan(m, b):
    """Gauss-Jordan on Fractions: (det M, the sign of its row swaps, M^-1 B).

    The pivot is the first nonzero entry at or below the diagonal, as in
    the fraction-free pass, so both take the same row swaps.  A singular M
    gives (0, the sign so far, None).
    """
    n = len(m)
    m = [[Fraction(a) for a in row] + [Fraction(c) for c in rhs]
         for row, rhs in zip(m, b)]
    det, sign = Fraction(1), 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0), sign, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        lead = m[k][k]
        det *= lead
        m[k] = [a / lead for a in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                r = m[i][k]
                m[i] = [a - r * c for a, c in zip(m[i], m[k])]
    return sign * det, sign, [row[n:] for row in m]


def scaled(m):
    """The matrix of ints and Fractions as integer rows over one denominator."""
    den = math.lcm(*(Fraction(a).denominator for row in m for a in row))
    return [[int(a * den) for a in row] for row in m], den


def unit(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rational_det(m):
    """det of a matrix of ints and Fractions, read off its integer rows."""
    rows, den = scaled(m)
    return Fraction(det(rows), den ** len(m))


def rational_inverse(m):
    """M^-1 for M = rows / den: den X / q, with (q, X) = solve(rows, I)."""
    rows, den = scaled(m)
    q, x = solve(rows, unit(len(m)))
    if q == 0:
        raise ZeroDivisionError("inverse of a singular matrix")
    return [[Fraction(den * a, q) for a in row] for row in x]


def mixed_poly(rng, n, deg, terms):
    """Random terms with mixed denominators; repeats and zeros cancel."""
    out = Poly.zero(n)
    for _ in range(rng.randint(0, terms)):
        e = [0] * n
        for _ in range(rng.randint(0, deg) if n else 0):
            e[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3, 4, 6]))
        out = out + Poly(n, {tuple(e): c})
    return out


def assert_lowest_terms(p):
    """The stored form: nonzero ints over a positive denominator, gcd 1."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.ints.values())
    assert gcd(p.den, *p.ints.values()) == 1


def assert_stored_nonzero_fractions(p):
    """The .terms view holds nonzero Fractions; the stored ints are canonical."""
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    assert_lowest_terms(p)


def test_products_match_the_fraction_loop():
    rng = random.Random(47)
    for n in range(5):
        for _ in range(40):
            a = mixed_poly(rng, n, 3, 6)
            b = mixed_poly(rng, n, 3, 6)
            c = mixed_poly(rng, n, 2, 3)
            # (a + c)(a - c): the cross terms cancel
            for p, q in [(a, b), (a + c, a - c), (b, Poly.zero(n)),
                         (a, Poly.const(n, Fraction(-2, 3)))]:
                prod = p * q
                assert prod == ref_mul(p, q)
                assert_stored_nonzero_fractions(prod)
                for cap in range(max(p.total_degree() + q.total_degree(), 0) + 2):
                    cut = p.mul_truncated(q, cap)
                    assert cut == ref_mul_truncated(p, q, cap)
                    assert_stored_nonzero_fractions(cut)


def ref_add(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms.items():
        s = out.get(e, Fraction(0)) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return Poly(p.nvars, out)


def test_sums_and_differences_match_the_fraction_loop():
    rng = random.Random(51)
    for n in range(4):
        for _ in range(60):
            a = mixed_poly(rng, n, 3, 6)
            b = mixed_poly(rng, n, 3, 6)
            # a - a and a + (-a) cancel every term; a + b - a leaves b
            for p, q in [(a, b), (b, a), (a, a), (a, -a), (a + b, a),
                         (a, Poly.zero(n)), (Poly.zero(n), b)]:
                for got, want in [(p + q, ref_add(p, q)),
                                  (p - q, ref_add(p, q, -1))]:
                    assert got == want
                    assert_stored_nonzero_fractions(got)
            assert (a - a).terms == {} and (a + (-a)).terms == {}
            assert a + b - a == b
            assert 2 - a == ref_add(Poly.const(n, 2), a, -1)
            assert a - Fraction(1, 3) == ref_add(a, Poly.const(n, Fraction(1, 3)), -1)


def test_substitute_matches_the_fraction_loop():
    rng = random.Random(48)
    for n in range(5):
        for _ in range(25):
            m = rng.randint(0, 4)
            p = mixed_poly(rng, n, 3, 5)
            targets = [mixed_poly(rng, m, 2, 3) for _ in range(n)]
            out = p.substitute(targets)
            assert out.nvars == (m if n else 0)
            assert out == ref_substitute(p, targets)
            assert_stored_nonzero_fractions(out)


def test_substitute_cancels_to_zero():
    U = Poly.variable(1, 0)
    t = U.scale(Fraction(1, 3)) + Poly.const(1, Fraction(1, 2))
    assert (X - Y).substitute([t, t]).terms == {}
    assert (X**2 - Y**2).substitute([t, -t]).terms == {}


def test_a_negative_power_and_a_short_substitution_are_rejected():
    with pytest.raises(ValueError) as err:
        X ** -1
    assert type(err.value) is ValueError
    assert str(err.value) == "negative polynomial power"
    with pytest.raises(ValueError) as err:
        (X + Y).substitute([X])
    assert type(err.value) is ValueError
    assert str(err.value) == "substitution needs one target per variable"


def _inverse_pair(rng, n):
    while True:
        c = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
              for _ in range(n)] for _ in range(n)]
        if ref_det(c) != 0:
            return c, rational_inverse(c)


def test_matrix_then_inverse_gives_the_germ_back():
    rng = random.Random(49)
    for n in range(2, 5):
        for _ in range(4):
            f = tuple(mixed_poly(rng, n, 3, 4) for _ in range(n - 2))
            f = tuple(fi - Poly.const(n, fi.constant_term()) for fi in f)
            omega = tuple(mixed_poly(rng, n, 2, 4) for _ in range(n))
            germ = GermProblem(n, f, omega)
            c, cinv = _inverse_pair(rng, n)
            there = CoordinateChange(tuple(map(tuple, c))).apply(germ)
            back = CoordinateChange(tuple(map(tuple, cinv))).apply(there)
            assert (back.f, back.omega) == (germ.f, germ.omega)
            for p in f + omega:
                assert verify._compose(verify._compose(p, c), cinv) == p


def test_rational_det_and_inverse_match_fraction_elimination():
    # mixed-denominator matrices scaled to integer rows: det and solve on
    # the rows give the rational determinant and inverse
    rng = random.Random(50)
    assert rational_det([]) == 1 and rational_inverse([]) == []
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 5]))
              for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:                 # force row swaps
            for row in m:
                row[0] = Fraction(0) if rng.random() < 0.6 else row[0]
        d = rational_det(m)
        assert d == ref_det(m)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                rational_inverse(m)
            continue
        inv = rational_inverse(m)
        assert inv == ref_gauss_jordan(m, unit(n))[2]
        for i in range(n):
            for j in range(n):
                assert sum(m[i][k] * inv[k][j] for k in range(n)) == (i == j)


def test_det_and_solve_match_fraction_gauss_jordan():
    # d is the last pivot, which is det M times the sign of the row swaps,
    # and X = d M^-1 B in ints; a singular M gives d = 0 and X = 0
    rng = random.Random(52)
    odd_swaps = singular = 0
    for _ in range(600):
        n, width = rng.randint(0, 6), rng.randint(0, 3)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:                 # force row swaps
            for row in m:
                row[0] = 0 if rng.random() < 0.6 else row[0]
        b = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(n)]
        want_det, sign, want_x = ref_gauss_jordan(m, b)
        q, x = solve(m, b)
        assert det(m) == want_det
        assert all(type(a) is int for row in x for a in row)
        assert len(x) == n and all(len(row) == width for row in x)
        if want_x is None:
            singular += 1
            assert q == 0 and x == [[0] * width for _ in range(n)]
            continue
        odd_swaps += sign < 0
        assert q == sign * want_det
        assert x == [[q * a for a in row] for row in want_x]
        for i in range(n):
            for c in range(width):
                assert sum(m[i][k] * x[k][c] for k in range(n)) == q * b[i][c]
    assert odd_swaps > 50 and singular > 50


def test_solve_takes_a_forced_row_swap():
    # the first column's only nonzero entry is below the diagonal: one swap,
    # so the common diagonal is -det
    m = [[0, 2], [3, 1]]
    assert det(m) == -6
    assert solve(m, [[1, 0], [0, 1]]) == (6, [[-1, 2], [3, 0]])
    assert solve([[0, 1], [1, 0]], [[5], [7]]) == (1, [[7], [5]])
    # both pivots past a swap, with a zero column in the rest of the rows
    m = [[0, 0, 1], [0, 2, 0], [3, 0, 0]]
    assert det(m) == -6
    q, x = solve(m, unit(3))
    assert q == 6 and x == [[0, 0, 2], [0, 3, 0], [6, 0, 0]]


def test_singular_and_empty_inputs_to_det_and_solve():
    assert det([]) == 1 and solve([], []) == (1, [])
    assert det([[0]]) == 0 and solve([[0]], [[4]]) == (0, [[0]])
    assert solve([[2]], [[4, -1]]) == (2, [[4, -1]])
    for m in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0, 1], [0, 3]],
              [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
        assert det(m) == 0
        n = len(m)
        assert solve(m, unit(n)) == (0, [[0] * n for _ in range(n)])
        assert solve(m, [[] for _ in range(n)]) == (0, [[] for _ in range(n)])
    # the rows passed in are not changed
    m = [[0, 2], [3, 1]]
    b = [[1], [1]]
    solve(m, b)
    det(m)
    assert m == [[0, 2], [3, 1]] and b == [[1], [1]]


def leibniz_det(rows):
    """Sum over permutations, on the reference Fraction loops."""
    n = len(rows)
    total = Poly.zero(rows[0][0].nvars)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Poly.const(total.nvars, 1)
        for i, j in enumerate(perm):
            term = ref_mul(term, rows[i][j])
        total = ref_add(total, term, -1 if inversions % 2 else 1)
    return total


def test_bareiss_determinant_matches_leibniz():
    rng = random.Random(52)
    zero = Poly.zero(2)

    def entry():
        while True:
            p = mixed_poly(rng, 2, 1, 3)
            if not p.is_zero():
                return p

    for n in range(1, 7):
        for case in range(4):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            singular = False
            if case == 1 and n >= 2:
                # a zero leading entry: column 0 starts from the other rows
                rows[0][0] = zero
            elif case == 2 and n >= 2:
                # rows 0 and 1 agree on the first two columns, so those
                # columns' 2x2 terms cancel (all of them when n = 2)
                rows[1][:2] = rows[0][:2]
                singular = n == 2
            elif case == 3 and n >= 3:
                # the last row is a polynomial combination of the first two
                p, q = mixed_poly(rng, 2, 1, 2), mixed_poly(rng, 2, 1, 2)
                rows[-1] = [ref_add(ref_mul(p, a), ref_mul(q, b))
                            for a, b in zip(rows[0], rows[1])]
                singular = True
            det = PolyMatrix(rows).determinant()
            exact = leibniz_det(rows)
            assert det == exact
            assert_stored_nonzero_fractions(det)
            assert det.is_zero() == singular
            for cap in range(n + 2):
                cut = series_determinant(rows, cap)
                assert cut == exact.truncate(cap)
                assert_stored_nonzero_fractions(cut)


# the stored form: one per polynomial, whatever route built it ---------------

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def assert_same_stored_form(p, q):
    assert p == q and hash(p) == hash(q)
    assert (p.nvars, p.ints, p.den) == (q.nvars, q.ints, q.den)
    assert_lowest_terms(p)


def test_equal_polys_hash_equal_whichever_route_and_order():
    # the hash is kept after its first use: taking it first on any route
    # must give every route the same key
    def routes():
        return [Poly(2, {(1, 0): HALF, (0, 2): Fraction(-3, 4)}),
                Poly.from_ints(2, {(1, 0): 4, (0, 2): -6}, 8),
                X.scale(HALF) - (Y * Y).scale(Fraction(3, 4)),
                (X * 2 - (Y ** 2) * 3) * Poly.const(2, Fraction(1, 4))]
    for first in range(4):
        polys = routes()
        key = hash(polys[first])
        assert all(hash(p) == key for p in polys + polys)
        memo = {polys[first]: first}
        assert all(memo[p] == first for p in polys)
        assert X.scale(HALF) not in memo


def test_routes_to_one_polynomial_store_one_form():
    mixed = X.scale(HALF) + Y.scale(THIRD)
    three_x_two_y = Poly(2, {(1, 0): 3, (0, 1): 2})
    # unreduced and mixed-denominator Fractions, ints, and the same by sums
    assert_same_stored_form(
        Poly(2, {(1, 0): Fraction(2, 4), (0, 1): Fraction(-3, 9)}),
        X.scale(HALF) - Y.scale(THIRD))
    assert_same_stored_form(Poly(2, {(0, 1): Fraction(4, 2)}), Y + Y)
    # (x/2 + y/3) * 6 = 3x + 2y: the product's denominator cancels
    assert_same_stored_form(mixed * 6, three_x_two_y)
    assert_same_stored_form(mixed * Poly.const(2, 6), three_x_two_y)
    assert_same_stored_form(mixed.scale(6), three_x_two_y)
    assert_same_stored_form(6 * mixed, three_x_two_y)
    assert three_x_two_y.den == 1
    # every term cancels, or the scale is zero: the zero polynomial over 1
    for zero in (mixed - mixed, mixed + (-mixed), mixed.scale(0),
                 mixed * Poly.zero(2), Poly(2, {(1, 1): Fraction(0, 5)})):
        assert_same_stored_form(zero, Poly.zero(2))
        assert (zero.ints, zero.den) == ({}, 1)
    # dropping the only term over 6 leaves a polynomial over 2
    cut = (X.scale(HALF) + (Y ** 2).scale(Fraction(1, 6))).truncate(1)
    assert_same_stored_form(cut, X.scale(HALF))
    assert cut.den == 2
    # a sum whose coefficients share a factor with the denominator
    assert_same_stored_form(X.scale(HALF) + X.scale(HALF), X)
    assert_same_stored_form((X ** 2).scale(HALF).diff(0), X)
    assert_same_stored_form(Poly.from_ints(2, {(1, 0): 4, (0, 1): -6}, 8),
                            Poly(2, {(1, 0): HALF, (0, 1): Fraction(-3, 4)}))


def test_random_routes_store_one_form():
    rng = random.Random(53)
    for n in range(1, 4):
        for _ in range(30):
            a, b, c = (mixed_poly(rng, n, 2, 4) for _ in range(3))
            assert_same_stored_form((a + b) * c, a * c + b * c)
            assert_same_stored_form(a - b, -(b - a))
            k = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            assert_same_stored_form(a.scale(k), a * Poly.const(n, k))
            assert_same_stored_form((a * b).truncate(2), a.mul_truncated(b, 2))
            assert_same_stored_form(Poly(n, a.terms), a)


def test_terms_is_a_fresh_view():
    p = X.scale(HALF) + Y
    view = p.terms
    view[(1, 0)] = Fraction(5)
    view[(3, 3)] = Fraction(1)
    del view[(0, 1)]
    assert p.terms == {(1, 0): HALF, (0, 1): Fraction(1)}
    assert p == X.scale(HALF) + Y
    assert p.terms is not p.terms


# packed monomials: the determinant and the substitution ---------------------

# degree bounds around each change of the field width (bound.bit_length())
BOUNDS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 63, 64)


def pure_power(n, i, k, c=1):
    e = [0] * n
    e[i] = k
    return Poly(n, {tuple(e): c})


def bounded_rows(rng, n, size, bound):
    """A size x size matrix whose rows' highest degrees sum to bound.

    Rows of a triangular matrix in shuffled order: the diagonal entry of
    row r is c * x^d_r plus terms of lower degree, and the entries right of
    it have degree at most min(d_r, 1).  So the determinant has the term
    x^bound, whose exponent needs the whole field width.
    """
    parts = [bound // size + (r < bound % size) for r in range(size)]
    rows = []
    for r, d in enumerate(parts):
        c = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 5]))
        diagonal = pure_power(n, 0, d, c)
        if d:
            diagonal = diagonal + mixed_poly(rng, n, d - 1, 2)
        rows.append([Poly.zero(n)] * r + [diagonal] +
                    [mixed_poly(rng, n, min(d, 1), 2) for _ in range(r + 1, size)])
    rng.shuffle(rows)
    return rows


def test_packed_determinant_at_every_field_width():
    rng = random.Random(54)
    for bound in BOUNDS:
        for n in (1, 2, 3):
            for size in (2, 3):
                rows = bounded_rows(rng, n, size, bound)
                exact = leibniz_det(rows)
                det = series_determinant(rows)
                assert_same_stored_form(det, exact)
                assert_stored_nonzero_fractions(det)
                assert exact.coefficient((bound,) + (0,) * (n - 1)) != 0
                for cap in {0, 1, bound - 1, bound, bound + 1}:
                    if cap >= 0:
                        assert_same_stored_form(series_determinant(rows, cap),
                                                exact.truncate(cap))


def test_packed_determinant_entry_x_to_the_64():
    x64 = pure_power(2, 0, 64)
    rows = [[x64, Y.scale(THIRD)], [Poly.const(2, HALF), X + 2]]
    want = Poly(2, {(65, 0): 1, (64, 0): 2, (0, 1): Fraction(-1, 6)})
    assert_same_stored_form(series_determinant(rows), want)
    assert_same_stored_form(series_determinant(rows, 64),
                            Poly(2, {(64, 0): 2, (0, 1): Fraction(-1, 6)}))
    assert_same_stored_form(series_determinant(rows, 63),
                            Poly(2, {(0, 1): Fraction(-1, 6)}))


def test_packed_determinant_caps():
    rng = random.Random(55)
    for n in (1, 2, 3):
        for size in (2, 3, 4):
            # every entry lies in m^2, so every product of size entries has
            # degree at least 2 * size
            rows = [[mixed_poly(rng, n, 2, 3) * pure_power(n, rng.randrange(n), 2)
                     for _ in range(size)] for _ in range(size)]
            exact = leibniz_det(rows)
            bound = sum(max(p.total_degree() for p in row) for row in rows)
            for cap in [0, 1, 2 * size - 1] + list(range(2 * size, bound + 2)) \
                    + [bound + 5, 10 * bound + 100]:
                cut = series_determinant(rows, cap)
                assert_same_stored_form(cut, exact.truncate(cap))
                assert_stored_nonzero_fractions(cut)
            assert series_determinant(rows, 2 * size - 1).is_zero()


def test_packed_determinant_zero_rows_columns_and_small_shapes():
    rng = random.Random(56)
    zero = Poly.zero(2)
    for size in (2, 3):
        for _ in range(5):
            rows = [[mixed_poly(rng, 2, 2, 3) for _ in range(size)]
                    for _ in range(size)]
            r = rng.randrange(size)
            with_zero_row = [row[:] for row in rows]
            with_zero_row[r] = [zero] * size
            with_zero_column = [row[:r] + [zero] + row[r + 1:] for row in rows]
            for m in (with_zero_row, with_zero_column):
                for cap in (None, 0, 3):
                    assert_same_stored_form(series_determinant(m, cap), zero)
    # 1 x 1: the entry itself, truncated at the cap
    p = X.scale(HALF) + (X * Y).scale(THIRD) + Poly.const(2, Fraction(-3, 4))
    assert series_determinant([[p]]) is p
    assert_same_stored_form(PolyMatrix([[p]]).determinant(), p)
    for cap in range(4):
        assert_same_stored_form(series_determinant([[p]], cap), p.truncate(cap))
    assert_same_stored_form(series_determinant([[zero]]), zero)
    # no variables: the matrix is rational
    for size in (1, 2, 3, 4):
        for _ in range(5):
            m = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 7]))
                  for _ in range(size)] for _ in range(size)]
            rows = [[Poly.const(0, a) for a in row] for row in m]
            for cap in (None, 0, 2):
                det = series_determinant(rows, cap)
                assert_same_stored_form(det, Poly.const(0, ref_det(m)))
    # one variable
    t = Poly.variable(1, 0)
    rows = [[t.scale(HALF), t * t + 1], [Poly.const(1, THIRD), t - 1]]
    want = Poly(1, {(2,): HALF, (1,): Fraction(-1, 2), (0,): -THIRD})
    want = want - (t * t).scale(THIRD)
    assert_same_stored_form(series_determinant(rows), want)
    assert_same_stored_form(series_determinant(rows, 1), want.truncate(1))


def test_packed_determinant_mixed_denominators():
    # each row over its own lcm, and the columns mix them too
    rows = [[X.scale(HALF), Y.scale(THIRD)],
            [Y.scale(Fraction(1, 5)), X.scale(Fraction(1, 7))]]
    want = Poly(2, {(2, 0): Fraction(1, 14), (0, 2): Fraction(-1, 15)})
    assert_same_stored_form(series_determinant(rows), want)
    assert_same_stored_form(series_determinant([rows[1], rows[0]]), -want)
    rng = random.Random(57)
    for size in (2, 3, 4):
        for _ in range(6):
            rows = [[mixed_poly(rng, 2, 2, 3).scale(
                        Fraction(1, rng.choice([1, 2, 3, 5, 7, 11])))
                     for _ in range(size)] for _ in range(size)]
            exact = leibniz_det(rows)
            det = series_determinant(rows)
            assert_same_stored_form(det, exact)
            assert_stored_nonzero_fractions(det)
            for cap in range(5):
                assert_same_stored_form(series_determinant(rows, cap),
                                        exact.truncate(cap))


def column_omitting_minors(rows):
    """Entry i: series_determinant of rows without column i."""
    return [series_determinant([row[:i] + row[i + 1:] for row in rows])
            for i in range(len(rows) + 1)]


def assert_maximal_minors(rows):
    got = maximal_minors(rows)
    want = column_omitting_minors(rows)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_stored_form(g, w)
        assert_stored_nonzero_fractions(g)


def test_maximal_minors_match_the_column_omitting_determinants():
    # stacked matrices of germs in n = 2..6 variables: n - 1 rows, n columns
    rng = random.Random(61)
    for n in range(2, 7):
        k = n - 1
        for _ in range(4):
            nvars = rng.randint(0, 3)
            zero = Poly.zero(nvars)
            rows = [[mixed_poly(rng, nvars, 2, 3).scale(
                        Fraction(1, rng.choice([1, 2, 3, 5, 7])))
                     for _ in range(n)] for _ in range(k)]
            assert_maximal_minors(rows)
            with_zero_row = [row[:] for row in rows]
            with_zero_row[rng.randrange(k)] = [zero] * n
            assert_maximal_minors(with_zero_row)
            assert all(m.is_zero() for m in maximal_minors(with_zero_row))
            # one zero column leaves only the minor that omits it; two
            # leave none
            c, d = rng.sample(range(n), 2)
            one_zero = [row[:c] + [zero] + row[c + 1:] for row in rows]
            assert_maximal_minors(one_zero)
            assert all(m.is_zero() for i, m in
                       enumerate(maximal_minors(one_zero)) if i != c)
            two_zero = [row[:d] + [zero] + row[d + 1:] for row in one_zero]
            assert_maximal_minors(two_zero)
            assert all(m.is_zero() for m in maximal_minors(two_zero))
    # every field width: the minor omitting the constant column c has the
    # term x^bound, whose exponent fills its field
    for bound in BOUNDS:
        for nvars in (1, 2, 3):
            for k in range(1, 6):
                rows = bounded_rows(rng, nvars, k, bound)
                c = rng.randrange(k + 1)
                rows = [row[:c] + [mixed_poly(rng, nvars, 0, 2)] + row[c:]
                        for row in rows]
                assert_maximal_minors(rows)
                x_bound = (bound,) + (0,) * (nvars - 1)
                assert maximal_minors(rows)[c].coefficient(x_bound) != 0


def test_maximal_minors_of_one_row_and_refused_shapes():
    # 1 x 2, the stacked matrix of a plane germ: each minor is the other
    # entry, with no packing
    p, q = X.scale(HALF) + 1, (X * Y).scale(THIRD)
    got = maximal_minors([[p, q]])
    assert got[0] is q and got[1] is p
    one = Poly.const(2, 1)
    for rows in ([], [[X]], [[X, Y, one]], [[X, Y], [one, X]],
                 [[X, Y, one], [one, X, Y], [Y, one, X]],
                 [[X, Y, one], [one, X]], [[X, Y], [one, X, Y]]):
        with pytest.raises(ValueError, match="k x \\(k \\+ 1\\) matrix"):
            maximal_minors(rows)


def test_packed_substitution_at_every_field_width():
    rng = random.Random(58)
    for bound in BOUNDS:
        # deg(p) * (highest target degree) = bound, through both factors
        pairs = {(bound, 1), (1, bound)} if bound else {(0, 3), (2, 0)}
        if bound % 2 == 0 and bound:
            pairs.add((bound // 2, 2))
        for k, t in pairs:
            for m in (1, 2, 3):
                p = pure_power(2, 0, k, THIRD) + Y + Poly.const(2, HALF)
                if k == 0:
                    p = Poly.const(2, Fraction(-5, 6))
                targets = [pure_power(m, 0, t, HALF) + mixed_poly(rng, m, 1, 2),
                           mixed_poly(rng, m, 1, 3).scale(Fraction(1, 7))]
                out = p.substitute(targets)
                want = ref_substitute(p, targets)
                assert_same_stored_form(out, want)
                assert_stored_nonzero_fractions(out)
                if k:
                    assert want.coefficient((bound,) + (0,) * (m - 1)) != 0


def test_packed_substitution_zero_targets_and_small_rings():
    rng = random.Random(59)
    zero1 = Poly.zero(1)
    u = Poly.variable(1, 0)
    for _ in range(10):
        p = mixed_poly(rng, 2, 3, 5)
        for targets in ([zero1, zero1], [zero1, u.scale(THIRD)],
                        [Poly.const(1, HALF), zero1],
                        [Poly.const(1, HALF), Poly.const(1, Fraction(-2, 3))]):
            out = p.substitute(targets)
            assert_same_stored_form(out, ref_substitute(p, targets))
            assert_stored_nonzero_fractions(out)
        # into no variables: evaluation at a rational point
        point = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                 for _ in range(2)]
        out = p.substitute([Poly.const(0, a) for a in point])
        assert_same_stored_form(out, Poly.const(0, evaluate(p, point)))
    # the zero polynomial, and polynomials in no variables
    targets = [u.scale(HALF) + 1, u * u]
    assert_same_stored_form(Poly.zero(2).substitute(targets), zero1)
    c = Poly.const(0, Fraction(7, 3))
    assert_same_stored_form(c.substitute([]), c)
    assert_same_stored_form(Poly.zero(0).substitute([]), Poly.zero(0))
    # one variable to one variable
    for _ in range(10):
        p = mixed_poly(rng, 1, 4, 5)
        targets = [mixed_poly(rng, 1, 3, 3)]
        assert_same_stored_form(p.substitute(targets),
                                ref_substitute(p, targets))


def test_packed_paths_do_not_multiply_polys(monkeypatch):
    rng = random.Random(60)
    cases = []
    for size in (2, 3):
        for _ in range(4):
            rows = [[mixed_poly(rng, 2, 2, 3) for _ in range(size)]
                    for _ in range(size)]
            cases.append((rows, leibniz_det(rows)))
    stacked = []
    for k in (2, 3):
        for _ in range(3):
            rows = [[mixed_poly(rng, 2, 2, 3) for _ in range(k + 1)]
                    for _ in range(k)]
            stacked.append((rows, [leibniz_det([row[:i] + row[i + 1:]
                                                for row in rows])
                                   for i in range(k + 1)]))
    subs = []
    for _ in range(8):
        p = mixed_poly(rng, 2, 3, 5)
        targets = [mixed_poly(rng, 3, 2, 3) for _ in range(2)]
        subs.append((p, targets, ref_substitute(p, targets)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a packed path multiplied Polys")

    monkeypatch.setattr(Poly, "__mul__", forbidden)
    monkeypatch.setattr(Poly, "__rmul__", forbidden)
    monkeypatch.setattr(Poly, "mul_truncated", forbidden)
    monkeypatch.setattr(polycore, "_accumulate", forbidden)
    for rows, exact in cases:
        assert_same_stored_form(series_determinant(rows), exact)
        for cap in range(4):
            assert_same_stored_form(series_determinant(rows, cap),
                                    exact.truncate(cap))
    for rows, want in stacked:
        for got, exact in zip(maximal_minors(rows), want):
            assert_same_stored_form(got, exact)
    for p, targets, want in subs:
        assert_same_stored_form(p.substitute(targets), want)


def test_non_square_and_ragged_matrices_are_refused():
    one = Poly.const(2, 1)
    non_square = "determinant of a non-square matrix"
    for rows in ([[X, Y, one], [one, X, Y]], [[X, Y], [one, X], [Y, one]],
                 [[X, Y]]):
        with pytest.raises(ValueError, match=non_square):
            series_determinant(rows)
        with pytest.raises(ValueError, match=non_square):
            series_determinant(rows, 3)
        with pytest.raises(ValueError, match=non_square):
            PolyMatrix(rows).determinant()
    for rows in ([[X, Y], [one]], [[X], [one, Y]], [[X, Y, one], [one, X]]):
        with pytest.raises(ValueError, match="ragged matrix"):
            series_determinant(rows)
        with pytest.raises(ValueError, match="ragged matrix"):
            PolyMatrix(rows).determinant()
    with pytest.raises(ValueError, match="empty determinant"):
        series_determinant([])
    for m in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2]]):
        with pytest.raises(ValueError, match=non_square):
            det(m)
        with pytest.raises(ValueError, match=non_square):
            solve(m, [[0]] * len(m))
    for m in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="ragged matrix"):
            det(m)
        with pytest.raises(ValueError, match="ragged matrix"):
            solve(m, [[0]] * len(m))
    # the right-hand side must have one row per row of M, all of one width
    misfit = "right-hand side does not fit the matrix"
    for b in ([[1]], [[1], [2], [3]], [[1], [2, 3]], [[1, 2], []], []):
        with pytest.raises(ValueError, match=misfit):
            solve([[1, 0], [0, 1]], b)
    with pytest.raises(ValueError, match=misfit):
        solve([], [[1]])
    # a Fraction entry would be floored by the exact division: refused
    for m, b in (([[Fraction(1, 2), 0], [0, 1]], [[1], [1]]),
                 ([[1, 0], [0, 1]], [[Fraction(1, 2)], [1]]),
                 ([[2.0, 0], [0, 1]], [[1], [1]])):
        with pytest.raises(TypeError):
            solve(m, b)
    with pytest.raises(TypeError):
        det([[Fraction(3), 0], [0, 1]])


def test_rational_elimination_reads_ints_and_fractions():
    # a matrix of ints and Fractions is read as integer rows over one
    # denominator, M = rows / den, and det and solve run on the rows
    m = [[1, Fraction(1, 2)], [Fraction(-2, 3), 0]]
    assert scaled(m) == ([[6, 3], [-4, 0]], 6)
    assert scaled([[2, -3], [0, 1]]) == ([[2, -3], [0, 1]], 1)
    assert det([[6, 3], [-4, 0]]) == 12
    assert solve([[6, 3], [-4, 0]], unit(2)) == (12, [[0, -3], [4, 6]])
    assert rational_det(m) == Fraction(1, 3)
    assert rational_det([[1, 2], [3, 4]]) == -2
    inv = rational_inverse(m)
    assert inv == [[0, Fraction(-3, 2)], [2, 3]]
    assert all(type(a) is Fraction for row in inv for a in row)
