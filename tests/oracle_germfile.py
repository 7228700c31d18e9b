"""Reference germ file reader: the per-token tokenizer and its parser.

This is the reader `icisres.germfile` used before it checked each line
with one pattern and built tokens only where the parser reads.  It turns
every line into `Token` objects, splits statements and comma-separated
parts up front, and then parses each part.  The code below `Token` is kept
as it was, so the differential test can demand the same `GermFile`, or
the same error type, message, line and column, from both readers, with
two changes made in both: a line ends at `\n`, `\r\n` or `\r` only, where
`str.splitlines` also ended one at a form feed and other separators; and
a product whose running degree passes polycore's exponent bound is
rejected at its `*`.  It shares the bounds, `power_size`, `product_size`
and `GermFile` with the module under test; only the reading differs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from icisres.errors import ArityError, GermSyntaxError, NonRationalCoefficient
from icisres.germfile import (KEYS, MAX_LITERAL_DIGITS, MAX_NESTING,
                              MAX_POWER_BITS, MAX_POWER_DEGREE,
                              MAX_POWER_TERMS, MAX_VARS, GermFile, power_size,
                              product_size)
from icisres.polycore import MAX_EXPONENT, Poly


@dataclass
class Token:
    kind: str            # "name", "int", or the punctuation itself
    text: str
    line: int
    col: int


def _tokenize_line(text: str, lineno: int) -> List[Token]:
    toks: List[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = i + 1
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], lineno, col))
            i = j
            continue
        if "0" <= ch <= "9":    # str.isdigit would also take '²' and '٣'
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j < len(text) and text[j] == ".":
                raise NonRationalCoefficient(
                    "decimal literals are not rational; write p/q",
                    lineno, col)
            if j - i > MAX_LITERAL_DIGITS:
                raise GermSyntaxError(
                    f"integer literal of {j - i} digits exceeds the "
                    f"{MAX_POWER_BITS}-bit coefficient bound", lineno, col)
            toks.append(Token("int", text[i:j], lineno, col))
            i = j
            continue
        if ch in "+-*^()/,=;":
            toks.append(Token(ch, ch, lineno, col))
            i += 1
            continue
        raise GermSyntaxError(f"unexpected character {ch!r}", lineno, col)
    return toks


def _statements(text: str) -> List[List[Token]]:
    out: List[List[Token]] = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        current: List[Token] = []
        for tok in _tokenize_line(line, lineno):
            if tok.kind == ";":
                if current:
                    out.append(current)
                current = []
            else:
                current.append(tok)
        if current:
            out.append(current)
    return out


def _split_commas(toks: List[Token]) -> List[List[Token]]:
    parts: List[List[Token]] = []
    current: List[Token] = []
    for tok in toks:
        if tok.kind == ",":
            parts.append(current)
            current = []
        else:
            current.append(tok)
    parts.append(current)
    return parts


_PRIMARY_START = ("name", "int", "(")


def _check_size(size: Tuple[int, int], what: str, kind: str, tok: Token):
    """Reject an expansion whose (terms, bits) bound exceeds the limits."""
    terms, bits = size
    if terms > MAX_POWER_TERMS:
        raise GermSyntaxError(
            f"{what} may expand to {terms} terms, above the {kind}term bound "
            f"{MAX_POWER_TERMS}", tok.line, tok.col)
    if bits > MAX_POWER_BITS:
        raise GermSyntaxError(
            f"{what} may give {bits}-bit coefficients, above the {kind}size "
            f"bound {MAX_POWER_BITS} bits", tok.line, tok.col)


class _ExprParser:
    """Recursive descent over one comma-free token slice."""

    def __init__(self, toks: List[Token], names: Dict[str, int], anchor: Token):
        self.toks = toks
        self.pos = 0
        self.names = names
        self.nvars = len(names)
        self.anchor = anchor     # for the empty-expression error position
        self.depth = 0           # parentheses open at the current position

    def peek(self) -> Optional[Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise GermSyntaxError("unexpected end of expression",
                                  self.anchor.line, self.anchor.col)
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise GermSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return p

    def expr(self) -> Poly:
        tok = self.peek()
        negate = False
        if tok is not None and tok.kind in ("+", "-"):
            self.take()
            negate = tok.kind == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return p
            self.take()
            q = self.term()
            p = p - q if tok.kind == "-" else p + q

    def term(self) -> Poly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return p
            if tok.kind == "*":
                self.take()
                q = self.factor()
                degree = p.total_degree() + q.total_degree()
                if degree > MAX_EXPONENT:
                    raise GermSyntaxError(
                        f"product of degree {degree} exceeds the exponent "
                        f"bound {MAX_EXPONENT}", tok.line, tok.col)
                _check_size(product_size(p, q), "product", "", tok)
                p = p * q
            elif tok.kind in _PRIMARY_START:
                raise GermSyntaxError(
                    "implicit multiplication is not allowed; write '*'",
                    tok.line, tok.col)
            else:
                return p

    def factor(self) -> Poly:
        p = self.primary()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.take()
            etok = self.take()
            if etok.kind != "int":
                raise GermSyntaxError("exponent must be a nonnegative integer",
                                      etok.line, etok.col)
            k = int(etok.text)
            degree = max(p.total_degree(), 1)
            if k * degree > MAX_POWER_DEGREE:
                raise GermSyntaxError(
                    f"exponent {k} on a base of degree {degree} exceeds the "
                    f"power degree bound {MAX_POWER_DEGREE}", etok.line, etok.col)
            _check_size(power_size(p, k), f"exponent {k}", "power ", etok)
            p = p ** k
        return p

    def primary(self) -> Poly:
        tok = self.take()
        if tok.kind == "int":
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.take()
                den = self.take()
                if den.kind != "int" or int(den.text) == 0:
                    raise GermSyntaxError("denominator must be a nonzero integer",
                                          den.line, den.col)
                value = Fraction(int(tok.text), int(den.text))
            return Poly.const(self.nvars, value)
        if tok.kind == "name":
            if tok.text not in self.names:
                raise GermSyntaxError(f"unknown variable {tok.text!r}",
                                      tok.line, tok.col)
            return Poly.variable(self.nvars, self.names[tok.text])
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise GermSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    tok.line, tok.col)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            closing = self.take()
            if closing.kind != ")":
                raise GermSyntaxError("expected ')'", closing.line, closing.col)
            return p
        raise GermSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)


def parse_germ_file(text: str) -> GermFile:
    entries: Dict[str, Tuple[Token, List[Token]]] = {}
    for stmt in _statements(text):
        head = stmt[0]
        if head.kind != "name" or head.text not in KEYS:
            raise GermSyntaxError(
                f"expected one of {', '.join(KEYS)}", head.line, head.col)
        if len(stmt) < 2 or stmt[1].kind != "=":
            raise GermSyntaxError("expected '=' after key", head.line,
                                  head.col + len(head.text))
        if head.text in entries:
            raise GermSyntaxError(f"duplicate key {head.text!r}",
                                  head.line, head.col)
        entries[head.text] = (head, stmt[2:])

    if "vars" not in entries:
        raise GermSyntaxError("missing 'vars' entry", 0, 0)
    vars_tok, vars_rest = entries["vars"]
    parts = _split_commas(vars_rest)
    if len(parts) > MAX_VARS:
        raise GermSyntaxError(
            f"{len(parts)} variables exceed the variable bound {MAX_VARS}",
            vars_tok.line, vars_tok.col)
    names: List[str] = []
    for part in parts:
        if len(part) != 1 or part[0].kind != "name":
            where = part[0] if part else vars_tok
            raise GermSyntaxError("variable names must be plain identifiers",
                                  where.line, where.col)
        if part[0].text in names:
            raise GermSyntaxError(f"duplicate variable {part[0].text!r}",
                                  part[0].line, part[0].col)
        names.append(part[0].text)
    index = {nm: i for i, nm in enumerate(names)}

    def poly_list(key: str) -> Tuple[Poly, ...]:
        if key not in entries:
            return ()
        anchor, rest = entries[key]
        if not rest:
            return ()
        polys = []
        for part in _split_commas(rest):
            if not part:
                raise GermSyntaxError(f"empty entry in {key!r} list",
                                      anchor.line, anchor.col)
            polys.append(_ExprParser(part, index, part[0]).parse())
        return tuple(polys)

    def integer(key: str) -> Optional[int]:
        if key not in entries:
            return None
        anchor, rest = entries[key]
        if len(rest) == 2 and rest[0].kind == "-" and rest[1].kind == "int":
            return -int(rest[1].text)
        if len(rest) != 1 or rest[0].kind != "int":
            raise GermSyntaxError(f"{key!r} takes a single integer",
                                  anchor.line, anchor.col)
        return int(rest[0].text)

    f = poly_list("f")
    omega = poly_list("omega")
    g = poly_list("g")
    if "omega" not in entries:
        raise GermSyntaxError("missing 'omega' entry", 0, 0)
    if len(omega) != len(names):
        anchor, _ = entries["omega"]
        raise ArityError(
            f"omega needs {len(names)} components, got {len(omega)}",
            anchor.line, anchor.col)

    seed = integer("seed")
    return GermFile(tuple(names), f, omega, g,
                    seed if seed is not None else 0,
                    integer("cap"), integer("max_cap"), integer("attempts"))
