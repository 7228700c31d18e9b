"""Germ file parsing: grammar, keys, located errors."""

import random
from fractions import Fraction

import pytest

from icisres.errors import (ArityError, GermSyntaxError,
                            NonRationalCoefficient)
from icisres.germfile import (MAX_LITERAL_DIGITS, MAX_NESTING, MAX_POWER_BITS,
                              MAX_POWER_DEGREE, MAX_POWER_TERMS, GermFile,
                              parse_germ_file, power_size, product_size)
from icisres.polycore import Poly

A1_TEXT = """\
# sphere germ, omega = dz
vars = x, y, z
f = x^2 + y^2 + z^2
omega = 0, 0, 1
"""


def test_parse_surface_germ():
    gf = parse_germ_file(A1_TEXT)
    assert gf.names == ("x", "y", "z")
    assert gf.nvars == 3
    assert len(gf.f) == 1
    assert gf.f[0].render(gf.names) == "x^2 + y^2 + z^2"
    assert [p.render(gf.names) for p in gf.omega] == ["0", "0", "1"]
    assert gf.seed == 0 and gf.cap is None and gf.g == ()


def test_parse_all_keys_and_semicolons():
    gf = parse_germ_file(
        "vars = x, y; omega = x^2, y^3; g = x, y\n"
        "seed = 11; cap = 14; max_cap = 30; attempts = 9\n")
    assert gf.seed == 11 and gf.cap == 14 and gf.max_cap == 30
    assert gf.attempts == 9
    assert len(gf.g) == 2


def test_parse_expressions():
    gf = parse_germ_file(
        "vars = x, y\n"
        "omega = 1/2*x*y - (x + y)^2, -3\n")
    half_xy = (Poly.variable(2, 0) * Poly.variable(2, 1)).scale(Fraction(1, 2))
    sq = (Poly.variable(2, 0) + Poly.variable(2, 1)) ** 2
    assert gf.omega[0] == half_xy - sq
    assert gf.omega[1] == Poly.const(2, Fraction(-3))


def test_parse_negative_integers():
    gf = parse_germ_file("vars = x, y\nomega = x, y\nseed = -4\n")
    assert gf.seed == -4


def test_comments_and_blank_lines():
    gf = parse_germ_file("\n# leading comment\nvars = x, y  # inline\n\nomega = x, y\n")
    assert gf.names == ("x", "y")


def test_missing_vars():
    with pytest.raises(GermSyntaxError, match="missing 'vars'"):
        parse_germ_file("omega = 1, 1")


def test_missing_omega():
    with pytest.raises(GermSyntaxError, match="missing 'omega'"):
        parse_germ_file("vars = x, y")


def test_omega_arity():
    with pytest.raises(ArityError) as err:
        parse_germ_file("vars = x, y\nomega = 1")
    assert "omega needs 2 components, got 1" in str(err.value)
    assert "line 2" in str(err.value)


def test_decimal_rejected():
    with pytest.raises(NonRationalCoefficient, match="write p/q"):
        parse_germ_file("vars = x, y\nomega = 0.5, 1")


def test_implicit_multiplication_rejected():
    with pytest.raises(GermSyntaxError, match="write '\\*'"):
        parse_germ_file("vars = x, y\nomega = 2x, 1")


def test_unknown_variable():
    with pytest.raises(GermSyntaxError, match="unknown variable 'w'"):
        parse_germ_file("vars = x, y\nomega = x*w, 1")


def test_negative_exponent_rejected():
    with pytest.raises(GermSyntaxError, match="nonnegative integer"):
        parse_germ_file("vars = x, y\nomega = x^-2, 1")


def test_duplicate_key():
    with pytest.raises(GermSyntaxError, match="duplicate key 'omega'"):
        parse_germ_file("vars = x, y\nomega = x, y; omega = y, x")


def test_duplicate_variable():
    with pytest.raises(GermSyntaxError, match="duplicate variable 'x'"):
        parse_germ_file("vars = x, x\nomega = 1, 1")


def test_unknown_key():
    with pytest.raises(GermSyntaxError, match="expected one of"):
        parse_germ_file("vars = x, y\nomega = x, y\nbogus = 3")


def test_error_positions_are_located():
    with pytest.raises(GermSyntaxError) as err:
        parse_germ_file("vars = x, y\nomega = x + , y")
    msg = str(err.value)
    assert "line 2" in msg and "column" in msg


@pytest.mark.parametrize("text, message", [
    ("vars = x, y\nomega = 1/0, y\n",
     "line 2, column 11: denominator must be a nonzero integer"),
    ("vars = x, y\nomega = (x = y), y\n", "line 2, column 12: expected ')'"),
])
def test_a_zero_denominator_and_an_unclosed_parenthesis_are_located(text,
                                                                   message):
    with pytest.raises(GermSyntaxError) as err:
        parse_germ_file(text)
    assert type(err.value) is GermSyntaxError
    assert str(err.value) == message


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
def test_lines_end_only_at_line_breaks(sep):
    # a form feed in a comment is whitespace the comment keeps, and a later
    # error names the line an editor shows
    text = sep.join(["vars = x, y", "# page\x0cbreak", "omega = x, y"])
    assert parse_germ_file(text).names == ("x", "y")
    with pytest.raises(GermSyntaxError) as err:
        parse_germ_file(sep.join(["vars = x, y", "# page\x0cbreak",
                                  "omega = @"]))
    assert str(err.value) == "line 3, column 9: unexpected character '@'"
    # no other line separator of str.splitlines ends a line
    for ws in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        with pytest.raises(GermSyntaxError) as err:
            parse_germ_file(f"vars = x, y{ws}omega = x, y")
        assert err.value.line == 1, repr(ws)


def test_an_empty_f_entry_parses_to_no_equations():
    gf = parse_germ_file("vars = x, y\nf =\nomega = x, y\n")
    assert gf.f == ()
    assert gf.omega == (Poly.variable(2, 0), Poly.variable(2, 1))


def test_render_parse_roundtrip():
    rng = random.Random(17)
    names = ("x", "y")
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Poly(2, terms)
        text = f"vars = x, y\nomega = {p.render(names)}, 0\n"
        gf = parse_germ_file(text)
        assert gf.omega[0] == p


def _nested(depth: int, inner: str = "x") -> str:
    return ("vars = x, y, z\nf = " + "(" * depth + inner + ")" * depth
            + "\nomega = 0, 0, 1\n")


def test_deep_nesting_is_a_located_error():
    with pytest.raises(GermSyntaxError) as info:
        parse_germ_file(_nested(3000))
    # "f = " takes columns 1-4; the first '(' past the bound is rejected
    assert (info.value.line, info.value.column) == (2, 5 + MAX_NESTING)
    assert "nested" in str(info.value)


def test_moderate_nesting_parses():
    x, y = Poly.variable(3, 0), Poly.variable(3, 1)
    assert parse_germ_file(_nested(20, "x + y")).f == (x + y,)
    assert parse_germ_file(_nested(MAX_NESTING)).f == (x,)


def _no_expansion(monkeypatch):
    def refuse(self, k):
        raise AssertionError(f"expanded a power {k}")
    monkeypatch.setattr(Poly, "__pow__", refuse)


def test_huge_power_is_rejected_before_expanding(monkeypatch):
    _no_expansion(monkeypatch)
    text = "vars = x, y\nomega = (x + y)^1000000000, 1\n"
    with pytest.raises(GermSyntaxError) as info:
        parse_germ_file(text)
    # the error sits on the exponent token
    column = text.split("\n")[1].index("1000000000") + 1
    assert (info.value.line, info.value.column) == (2, column)
    assert str(MAX_POWER_DEGREE) in str(info.value)


@pytest.mark.parametrize("power", [
    f"(x*y)^{MAX_POWER_DEGREE // 2 + 1}",    # the base's degree counts
    f"2^{MAX_POWER_DEGREE + 1}",             # a constant counts as degree 1
])
def test_power_bound_counts_the_base_degree(monkeypatch, power):
    _no_expansion(monkeypatch)
    with pytest.raises(GermSyntaxError, match="power degree bound"):
        parse_germ_file(f"vars = x, y\nomega = {power}, 1\n")


def test_powers_at_the_bound_parse():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    k = MAX_POWER_DEGREE // 2
    gf = parse_germ_file(f"vars = x, y\nomega = x^{MAX_POWER_DEGREE}, (x*y)^{k}\n")
    assert gf.omega == (x ** MAX_POWER_DEGREE, (x * y) ** k)


def test_power_term_bound_rejects_before_expanding(monkeypatch):
    _no_expansion(monkeypatch)
    # within the degree bound, but C(43, 3) = 12341 terms
    text = "vars = x, y, z, w\nomega = (x + y + z + w)^40, 0, 0, 1\n"
    with pytest.raises(GermSyntaxError, match="power term bound") as info:
        parse_germ_file(text)
    column = text.split("\n")[1].index("40") + 1
    assert (info.value.line, info.value.column) == (2, column)
    assert str(MAX_POWER_TERMS) in str(info.value)


def test_nested_constant_powers_are_bounded(monkeypatch):
    expanded = []
    real = Poly.__pow__

    def recording(self, k):
        expanded.append(k)
        return real(self, k)

    monkeypatch.setattr(Poly, "__pow__", recording)
    text = "vars = x, y\nomega = (((2^64)^64)^64)^64, 1\n"
    with pytest.raises(GermSyntaxError, match="power size bound") as info:
        parse_germ_file(text)
    assert expanded == [64]             # 2^64 only; its 64th power is refused
    column = text.split("\n")[1].index(")^64") + 3
    assert (info.value.line, info.value.column) == (2, column)
    assert str(MAX_POWER_BITS) in str(info.value)


def test_power_at_the_size_bound_parses():
    # (2^62)^64: 64 * (63 + 1) bits, exactly the bound
    gf = parse_germ_file("vars = x, y\nomega = (2^62)^64, 1\n")
    assert gf.omega[0] == Poly.const(2, 2 ** (62 * 64))


def test_power_size_bounds_the_expansion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = Poly.zero(n)
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            c = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))
            p = p + Poly(n, {e: c})
        for k in range(1, 6):
            terms, bits = power_size(p, k)
            q = p ** k
            assert len(q.terms) <= terms
            assert all(max(c.numerator.bit_length(), c.denominator.bit_length())
                       <= bits for c in q.terms.values())


# no accepted product or power in the tests below multiplies more term
# pairs than this; a refused product would multiply far more
_REFUSED_PAIRS = 100 * MAX_POWER_TERMS


def _no_large_product(monkeypatch):
    real = Poly.__mul__

    def refuse(self, other):
        if isinstance(other, Poly) and \
                len(self.terms) * len(other.terms) > _REFUSED_PAIRS:
            raise AssertionError(f"expanded a product of {len(self.terms)} "
                                 f"by {len(other.terms)} terms")
        return real(self, other)
    monkeypatch.setattr(Poly, "__mul__", refuse)


@pytest.mark.parametrize("expr, star", [
    # 5456 terms each, C(4 + 60, 4) = 635376 > MAX_POWER_TERMS
    ("(x + y + z + w)^30 * (x + y + z + w)^30", 0),
    # 220 terms each; the first product has C(4 + 18, 4) = 7315 terms, the
    # running product's bound at the second '*' is C(4 + 27, 4) = 31465
    ("(x + y + z + w)^9 * (x + y + z + w)^9 * (x + y + z + w)^9", 1),
])
def test_product_term_bound_rejects_before_expanding(monkeypatch, expr, star):
    _no_large_product(monkeypatch)
    text = f"vars = x, y, z, w\nomega = {expr}, 0, 0, 1\n"
    with pytest.raises(GermSyntaxError, match="term bound") as info:
        parse_germ_file(text)
    line = text.split("\n")[1]
    column = [i for i, ch in enumerate(line) if ch == "*"][star] + 1
    assert (info.value.line, info.value.column) == (2, column)
    assert str(MAX_POWER_TERMS) in str(info.value)


def test_product_at_the_term_bound_parses(monkeypatch):
    _no_large_product(monkeypatch)
    # running products of 10, 100, 1000 and exactly MAX_POWER_TERMS terms
    gf = parse_germ_file("vars = x, y, z, w\n"
                         "omega = (1 + x)^9*(1 + y)^9*(1 + z)^9*(1 + w)^9, 0, 0, 1\n")
    assert len(gf.omega[0].terms) == MAX_POWER_TERMS
    with pytest.raises(GermSyntaxError, match="term bound"):
        parse_germ_file("vars = x, y, z, w\n"
                        "omega = (1 + x)^9*(1 + y)^9*(1 + z)^9*(1 + w)^10, 0, 0, 1\n")


def test_product_size_bound():
    # 2^3968 has 3969 bits and 2^126 has 127; the product bound adds one
    # bit for the single term pair, 4097 in all
    text = "vars = x, y\nomega = (2^62)^64 * (2^63)^2, 1\n"
    with pytest.raises(GermSyntaxError, match="size bound") as info:
        parse_germ_file(text)
    column = text.split("\n")[1].index("*") + 1
    assert (info.value.line, info.value.column) == (2, column)
    assert str(MAX_POWER_BITS) in str(info.value)
    gf = parse_germ_file("vars = x, y\nomega = (2^62)^64 * (2^62)^2 * x, 1\n")
    assert gf.omega[0] == Poly.monomial(2, (1, 0), 2 ** (62 * 66))


def test_product_size_bounds_the_product():
    rng = random.Random(11)

    def random_poly(n):
        p = Poly.zero(n)
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            c = Fraction(rng.randint(-99, 99), rng.choice([1, 2, 3, 5, 7, 9]))
            p = p + Poly(n, {e: c})
        return p

    for _ in range(200):
        n = rng.randint(1, 3)
        p, q = random_poly(n), random_poly(n)
        terms, bits = product_size(p, q)
        r = p * q
        assert len(r.terms) <= terms
        assert all(max(c.numerator.bit_length(), c.denominator.bit_length())
                   <= bits for c in r.terms.values())


@pytest.mark.parametrize("text, char, line, column", [
    ("vars = x, y, z\nf = x^2 + y^2 + z^2\nomega = 0, 0, 2²\n", "²", 3, 16),
    ("vars = x, y\nomega = x, y\n\ncap = ٣\n", "٣", 4, 7),
], ids=["superscript-two", "arabic-indic-three"])
def test_only_ascii_digits_make_integers(text, char, line, column):
    with pytest.raises(GermSyntaxError) as info:
        parse_germ_file(text)
    assert str(info.value) == (f"line {line}, column {column}: "
                               f"unexpected character {char!r}")


@pytest.mark.parametrize("text, line, column", [
    ("omega = {}*x, y\n", 2, 9),
    ("omega = x^{}, y\n", 2, 11),
    ("omega = x, 1/{}\n", 2, 14),
    ("omega = x, y\nseed = {}\n", 3, 8),
])
def test_long_integer_literals_fail_at_their_position(text, line, column):
    # 5000 digits is past int()'s own limit, whose error has no position
    with pytest.raises(GermSyntaxError) as info:
        parse_germ_file("vars = x, y\n" + text.format("7" * 5000))
    assert str(info.value) == (
        f"line {line}, column {column}: integer literal of 5000 digits "
        f"exceeds the {MAX_POWER_BITS}-bit coefficient bound")


def test_long_integer_literals_within_the_bound_parse():
    gf = parse_germ_file(f"vars = x, y\nomega = {'9' * 1000}*x, y\n")
    assert gf.omega[0] == Poly.monomial(2, (1, 0), int("9" * 1000))
    top = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
    assert parse_germ_file(f"vars = x, y\nomega = {top}, y\n").omega[0] == \
        Poly.const(2, int(top))
    with pytest.raises(GermSyntaxError):
        parse_germ_file(f"vars = x, y\nomega = {top}0, y\n")
