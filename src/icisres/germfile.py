"""Parser for germ description files.

Format: `key = value` statements separated by newlines or `;`, comments
from `#` to end of line.  Keys: vars (variable names), f (equations),
omega (form components), g (map components for multiplicity runs), and
the integer knobs seed, cap, max_cap, attempts.  Polynomial expressions
use `+ - * ^ ( )` and rational literals `p/q`; multiplication is always
explicit and decimals are rejected, so every coefficient stays rational.

A file is read in one validating pass.  Each line is first checked for
the three tokenizer errors (an unexpected character, a decimal literal,
an integer literal longer than MAX_LITERAL_DIGITS) by one compiled
pattern; a line the pattern does not accept, a non-ASCII one say, goes
through `_check_line`, the per-character loop that defines those errors
and raises the first of them.  Only then are statements split, and the
recursive descent builds each token as it reads it, so nothing past the
point where a parse error stops it is built: a line nested past
MAX_NESTING is rejected at the bound after one scan.

Errors win in this order: the first tokenizer error anywhere in the file;
then statement errors (unknown key, missing '=', duplicate key) in file
order; then the `vars` entry; then `f`, `omega` and `g`, in that order and
each part by part; then `omega`'s presence and arity; then the knobs seed,
cap, max_cap and attempts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import ArityError, GermSyntaxError, NonRationalCoefficient
from .polycore import Poly

KEYS = ("vars", "f", "omega", "g", "seed", "cap", "max_cap", "attempts")

# most variables a file may declare: series_determinant expands over the
# 2^n subsets of rows, so icisres mult on n dense linear forms with random
# coefficients (omega = 0) took 0.13 s at n = 12, 1.5 s at n = 16 and
# 6.1 s at n = 18 on a 2-core Xeon, about four times longer per two more
MAX_VARS = 12

# deepest parenthesis nesting an expression may use; each level costs the
# recursive descent four stack frames, so this stays far below the
# interpreter's recursion limit
MAX_NESTING = 100

# highest degree one `^` may expand to, a constant base counting as degree
# 1 so that its exponent is bounded too; it lies above the default cap
# ceiling (40), and the check comes before the expansion, so x^1000000000
# fails at once instead of hanging
MAX_POWER_DEGREE = 64

# largest term count and coefficient bit length one `^` or `*` may expand
# to, by the bounds of `power_size` and `product_size`, also checked before
# expanding: a power at the degree bound in four or more variables has tens
# of thousands of terms, nested powers of constants multiply the bit length
# at every level, and a product of powers that each pass multiplies their
# term counts
MAX_POWER_TERMS = 10_000
MAX_POWER_BITS = 4096

# longest digit run of an integer literal: a longer one exceeds
# 2^MAX_POWER_BITS, and int() rejects 4300 digits with no position
MAX_LITERAL_DIGITS = len(str(2 ** MAX_POWER_BITS))


def _variables(p: Poly) -> set:
    return {i for e in p.ints for i, v in enumerate(e) if v}


def _numerator_bits(p: Poly) -> int:
    """Bit length of the largest numerator over p's common denominator D, or of D."""
    return max(p.den.bit_length(),
               max(map(int.bit_length, p.ints.values()), default=0))


def power_size(p: Poly, k: int) -> Tuple[int, int]:
    """Bounds on the term count and coefficient bit length of p^k, k >= 1.

    With t terms in v variables, p^k has at most C(t + k - 1, k) terms
    (one per multiset of k terms) and at most C(v + k deg p, v) (one per
    monomial of degree up to k deg p).  Over the common denominator D of
    p, each numerator of p^k is a sum of at most t^k products of k
    numerators of p, and its denominator divides D^k.  The monomial count
    is worked out only when the multiset count exceeds MAX_POWER_TERMS, the
    one case in which it can decide the bound check.
    """
    if not p.ints:
        return 1, 0
    t = len(p.ints)
    terms = comb(t + k - 1, k)
    if terms > MAX_POWER_TERMS:
        v = len(_variables(p))
        terms = min(terms, comb(v + k * p.total_degree(), v))
    return terms, k * (_numerator_bits(p) + t.bit_length())


def product_size(p: Poly, q: Poly) -> Tuple[int, int]:
    """Bounds on the term count and coefficient bit length of p * q.

    With t1 and t2 terms in v variables between them, p * q has at most
    t1 t2 terms and at most C(v + deg p + deg q, v).  Over the product of
    the common denominators, each numerator is a sum of at most
    min(t1, t2) products of a numerator of p and one of q.  As in
    `power_size`, the monomial count is worked out only above
    MAX_POWER_TERMS.
    """
    if not p.ints or not q.ints:
        return 0, 0
    t1, t2 = len(p.ints), len(q.ints)
    terms = t1 * t2
    if terms > MAX_POWER_TERMS:
        v = len(_variables(p) | _variables(q))
        terms = min(terms,
                    comb(v + p.total_degree() + q.total_degree(), v))
    return terms, (_numerator_bits(p) + _numerator_bits(q)
                   + min(t1, t2).bit_length())


# a token as the parser reads it: (kind, text, line, column), kind being
# "name", "int", or the punctuation itself
Tok = Tuple[str, str, int, int]

# a line `_check_line` accepts, in ASCII: names, integer literals of at
# most MAX_LITERAL_DIGITS digits, spaces, tabs and punctuation, then an
# optional comment.  Each piece is taken whole (nothing after a name or a
# literal continues it, nor punctuation after a run of it), so a line that
# fails is given up in linear time.  A decimal point never matches.
_PUNCT = r"[ \t+\-*^()/,=;]"
_CHECKED_LINE = re.compile(
    rf"(?:{_PUNCT}+(?!{_PUNCT})|[A-Za-z_]\w*(?!\w)"
    rf"|[0-9]{{1,{MAX_LITERAL_DIGITS}}}(?![0-9]))*(?:#.*)?", re.ASCII)

# the next token on a checked line, after any whitespace: an ASCII integer
# literal, a name, or one punctuation character.  \s and \w are
# str.isspace and str.isalnum or '_', so these are the tokens that
# `_check_line` walks over
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\w+)|(\S))")
_KINDS = (None, "int", "name", None)


def _check_line(text: str, lineno: int) -> None:
    """Raise the first tokenizer error on one line; pass a line with none."""
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
            i += 1
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
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
            i = j
            continue
        if ch in "+-*^()/,=;":
            i += 1
            continue
        raise GermSyntaxError(f"unexpected character {ch!r}", lineno, col)


def _tokens(code: str, start: int, end: int, lineno: int) -> Iterator[Tok]:
    """The tokens of code[start:end], each built when it is read."""
    for m in _TOKEN.finditer(code, start, end):
        i = m.lastindex
        text = m[i]
        yield _KINDS[i] or text, text, lineno, m.start(i) + 1


def _statements(text: str) -> List[Tuple[Tok, Iterator[Tok]]]:
    """Each statement's first token and an iterator over the rest.

    Every line is checked here, before the caller reads any statement, so
    the first tokenizer error in the file wins over every parse error.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _CHECKED_LINE.fullmatch(line) is None:
            _check_line(line, lineno)
        code = line.partition("#")[0]
        start = 0
        for piece in code.split(";"):
            end = start + len(piece)
            if piece.strip():
                toks = _tokens(code, start, end, lineno)
                out.append((next(toks), toks))
            start = end + 1
    return out


def _error(message: str, tok: Tok) -> GermSyntaxError:
    return GermSyntaxError(message, tok[2], tok[3])


def _split_commas(toks: List[Tok]) -> List[List[Tok]]:
    parts: List[List[Tok]] = []
    current: List[Tok] = []
    for tok in toks:
        if tok[0] == ",":
            parts.append(current)
            current = []
        else:
            current.append(tok)
    parts.append(current)
    return parts


_PRIMARY_START = ("name", "int", "(")


def _check_size(size: Tuple[int, int], what: str, kind: str, tok: Tok):
    """Reject an expansion whose (terms, bits) bound exceeds the limits."""
    terms, bits = size
    if terms > MAX_POWER_TERMS:
        raise _error(
            f"{what} may expand to {terms} terms, above the {kind}term bound "
            f"{MAX_POWER_TERMS}", tok)
    if bits > MAX_POWER_BITS:
        raise _error(
            f"{what} may give {bits}-bit coefficients, above the {kind}size "
            f"bound {MAX_POWER_BITS} bits", tok)


class _ExprParser:
    """Recursive descent over one statement's tokens, one part at a time.

    The parts are separated by commas.  A comma looks like the end of the
    tokens to the part before it, and sets `more`.
    """

    def __init__(self, toks: Iterator[Tok], names: Dict[str, int]):
        self.toks = toks
        self.names = names
        self.nvars = len(names)
        self.one = (0,) * self.nvars
        self.depth = 0           # parentheses open at the current position
        self.more = False        # a comma ended the current part
        self.anchor: Optional[Tok] = None   # the part's first token
        self.advance()

    def advance(self) -> None:
        tok = next(self.toks, None)
        if tok is not None and tok[0] == ",":
            self.more, tok = True, None
        self.tok: Optional[Tok] = tok

    def take(self) -> Tok:
        tok = self.tok
        if tok is None:
            raise _error("unexpected end of expression", self.anchor)
        self.advance()
        return tok

    def parts(self, key: str, anchor: Tok) -> Tuple[Poly, ...]:
        """Each part as a polynomial; none when the statement has no tokens."""
        if self.tok is None and not self.more:
            return ()
        polys = []
        while True:
            if self.tok is None:
                raise _error(f"empty entry in {key!r} list", anchor)
            polys.append(self.parse())
            if not self.more:
                return tuple(polys)
            self.more = False
            self.advance()

    def parse(self) -> Poly:
        self.anchor = self.tok
        p = self.expr()
        tok = self.tok
        if tok is not None:
            raise _error(f"unexpected {tok[1]!r}", tok)
        return p

    def expr(self) -> Poly:
        tok = self.tok
        negate = False
        if tok is not None and tok[0] in ("+", "-"):
            self.advance()
            negate = tok[0] == "-"
        p = self.product_from(self.factor())
        return self.sum_from(-p if negate else p)

    def sum_from(self, p: Poly) -> Poly:
        """p plus the terms that follow it."""
        while True:
            tok = self.tok
            if tok is None or tok[0] not in ("+", "-"):
                return p
            self.advance()
            q = self.product_from(self.factor())
            p = p - q if tok[0] == "-" else p + q

    def product_from(self, p: Poly) -> Poly:
        """p times the factors that follow it."""
        while True:
            tok = self.tok
            if tok is None:
                return p
            if tok[0] == "*":
                self.advance()
                q = self.factor()
                _check_size(product_size(p, q), "product", "", tok)
                p = p * q
            elif tok[0] in _PRIMARY_START:
                raise _error(
                    "implicit multiplication is not allowed; write '*'", tok)
            else:
                return p

    def factor(self) -> Poly:
        tok = self.take()
        kind = tok[0]
        if kind == "int":
            num, den = int(tok[1]), 1
            nxt = self.tok
            if nxt is not None and nxt[0] == "/":
                self.advance()
                dtok = self.take()
                den = int(dtok[1]) if dtok[0] == "int" else 0
                if not den:
                    raise _error("denominator must be a nonzero integer", dtok)
            p = Poly.from_ints(self.nvars, {self.one: num}, den) if num \
                else Poly.zero(self.nvars)
        elif kind == "name":
            i = self.names.get(tok[1])
            if i is None:
                raise _error(f"unknown variable {tok[1]!r}", tok)
            p = Poly.variable(self.nvars, i)
        elif kind == "(":
            p = self.group(tok)
        else:
            raise _error(f"unexpected {tok[1]!r}", tok)
        return self.power_of(p)

    def group(self, tok: Tok) -> Poly:
        """The parenthesized expression that tok opens.

        A run of opening parentheses is read in one loop, not one descent
        each: every one but the last opens an expression whose first
        factor is the next group, so once a group closes, the expression
        around it goes on from that factor.
        """
        opened = 0
        while True:
            if self.depth == MAX_NESTING:
                raise _error(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            opened += 1
            if self.tok is None or self.tok[0] != "(":
                break
            tok = self.take()
        p = self.expr()
        while True:
            closing = self.take()
            if closing[0] != ")":
                raise _error("expected ')'", closing)
            self.depth -= 1
            opened -= 1
            if not opened:
                return p
            p = self.sum_from(self.product_from(self.power_of(p)))

    def power_of(self, p: Poly) -> Poly:
        """p raised to the power a following `^` gives, if one does."""
        tok = self.tok
        if tok is None or tok[0] != "^":
            return p
        self.advance()
        etok = self.take()
        if etok[0] != "int":
            raise _error("exponent must be a nonnegative integer", etok)
        k = int(etok[1])
        degree = max(p.total_degree(), 1)
        if k * degree > MAX_POWER_DEGREE:
            raise _error(
                f"exponent {k} on a base of degree {degree} exceeds the "
                f"power degree bound {MAX_POWER_DEGREE}", etok)
        _check_size(power_size(p, k), f"exponent {k}", "power ", etok)
        return p ** k


@dataclass
class GermFile:
    """Validated contents of one description file."""

    names: Tuple[str, ...]
    f: Tuple[Poly, ...]
    omega: Tuple[Poly, ...]
    g: Tuple[Poly, ...] = ()
    seed: int = 0
    cap: Optional[int] = None
    max_cap: Optional[int] = None
    attempts: Optional[int] = None

    @property
    def nvars(self) -> int:
        return len(self.names)


def parse_germ_file(text: str) -> GermFile:
    entries: Dict[str, Tuple[Tok, Iterator[Tok]]] = {}
    for head, rest in _statements(text):
        kind, key, line, col = head
        if kind != "name" or key not in KEYS:
            raise _error(f"expected one of {', '.join(KEYS)}", head)
        if next(rest, ("",))[0] != "=":
            raise GermSyntaxError("expected '=' after key", line,
                                  col + len(key))
        if key in entries:
            raise _error(f"duplicate key {key!r}", head)
        entries[key] = (head, rest)

    if "vars" not in entries:
        raise GermSyntaxError("missing 'vars' entry", 0, 0)
    vars_tok, vars_rest = entries["vars"]
    parts = _split_commas(list(vars_rest))
    if len(parts) > MAX_VARS:
        raise _error(
            f"{len(parts)} variables exceed the variable bound {MAX_VARS}",
            vars_tok)
    names: List[str] = []
    for part in parts:
        if len(part) != 1 or part[0][0] != "name":
            raise _error("variable names must be plain identifiers",
                         part[0] if part else vars_tok)
        if part[0][1] in names:
            raise _error(f"duplicate variable {part[0][1]!r}", part[0])
        names.append(part[0][1])
    index = {nm: i for i, nm in enumerate(names)}

    def poly_list(key: str) -> Tuple[Poly, ...]:
        if key not in entries:
            return ()
        anchor, rest = entries[key]
        return _ExprParser(rest, index).parts(key, anchor)

    def integer(key: str) -> Optional[int]:
        if key not in entries:
            return None
        anchor, rest = entries[key]
        toks = list(islice(rest, 3))    # more than two is an error
        kinds = [tok[0] for tok in toks]
        if kinds == ["-", "int"]:
            return -int(toks[1][1])
        if kinds != ["int"]:
            raise _error(f"{key!r} takes a single integer", anchor)
        return int(toks[0][1])

    f = poly_list("f")
    omega = poly_list("omega")
    g = poly_list("g")
    if "omega" not in entries:
        raise GermSyntaxError("missing 'omega' entry", 0, 0)
    if len(omega) != len(names):
        anchor, _ = entries["omega"]
        raise ArityError(
            f"omega needs {len(names)} components, got {len(omega)}",
            anchor[2], anchor[3])

    seed = integer("seed")
    return GermFile(tuple(names), f, omega, g,
                    seed if seed is not None else 0,
                    integer("cap"), integer("max_cap"), integer("attempts"))
