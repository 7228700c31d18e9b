"""Parser for germ description files.

Format: `key = value` statements separated by newlines or `;`, comments
from `#` to end of line.  A line ends at `\n`, `\r\n` or `\r` and nowhere
else: a form feed, a vertical tab or U+2028 inside a line is whitespace,
so a comment keeps it and line numbers match an editor's.  Keys: vars
(variable names), f (equations), omega (form components), g (map
components for multiplicity runs), and the integer knobs seed, cap,
max_cap, attempts.  Polynomial expressions use `+ - * ^ ( )` and
rational literals `p/q`; multiplication is always explicit and decimals
are rejected, so every coefficient stays rational.

A file is read in one validating pass.  The lexical pieces (the ASCII
literal, the word, the punctuation, and `#`, which starts a comment) are
written once and compiled into two patterns.  Every line, before its
comment, first takes the ASCII pre-check `_CHECKED_LINE`, which accepts an
ordinary line in one match.  A line it does not accept, a non-ASCII one
say, is scanned by the token pattern `_TOKEN`, whose search steps over
whitespace and which takes a run of punctuation as one match, so only
words, literals and stray characters cost a step; the scan raises the
first of the three tokenizer errors (an unexpected character, a decimal
literal, an integer literal longer than MAX_LITERAL_DIGITS), or passes
the line.  Only then are
statements split.  Each statement is read part by part, the parts being
separated by commas: a `vars` part is one name, and an `f`, `omega` or
`g` part is read by a plain recursive descent (expr, term, factor,
primary) that checks MAX_NESTING at each `(`.  Tokens are built only
where the reader reads, so nothing past the point where a parse error
stops it is built: a line nested past MAX_NESTING is rejected at the
bound.  The variable count is taken from the commas of the `vars`
statement, before any of its parts is read.

Errors win in this order: the first tokenizer error anywhere in the file;
then statement errors (unknown key, missing '=', duplicate key) in file
order; then the `vars` entry, its variable count before its parts; then
`f`, `omega` and `g`, in that order and each part by part; then `omega`'s
presence and arity; then the knobs seed, cap, max_cap and attempts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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

# the lexical pieces, each written once; a comment runs from `#` to the end
# of the line.  A literal is ASCII digits: str.isdigit and \d would also take
# '²' and '٣'.  A word starts with a letter or '_' under re.ASCII; without
# it, [^\W\d] also takes a numeral such as '²', which `_scan` rejects.  \s
# and \w are str.isspace and str.isalnum or '_'.
_DIGIT = "[0-9]"
_WORD = r"[^\W\d]\w*"
_PUNCT = r"[+\-*^()/,=;]"
_RUN = rf"(?:\s|{_PUNCT})+"

# where a line ends; str.splitlines would also end one at a vertical tab,
# a form feed, \x1c-\x1e, \x85, U+2028 or U+2029
_LINE_END = re.compile(r"\r\n|\r|\n")

# the ASCII pre-check every ordinary line takes before its comment: runs of
# whitespace and punctuation, literals of at most MAX_LITERAL_DIGITS digits
# and words.  Each piece is taken whole (nothing continues a run, a literal
# or a word after it), so a line that fails is given up in linear time.  A
# decimal point never matches.
_CHECKED_LINE = re.compile(
    rf"(?:{_RUN}(?!\s|{_PUNCT})|{_DIGIT}{{1,{MAX_LITERAL_DIGITS}}}"
    rf"(?!{_DIGIT})|{_WORD}(?!\w))*", re.ASCII)

# the token pattern: a run of punctuation, a literal, a word or a stray
# character, one match each.  Whitespace is no token: the search steps over
# it, one position at a time, so trailing whitespace costs linear time.
_TOKEN = re.compile(
    rf"(?P<punct>{_PUNCT}+)|(?P<int>{_DIGIT}+)|(?P<name>{_WORD})|(?P<stray>\S)")


def _scan(code: str, lineno: int) -> None:
    """Raise the first tokenizer error in code, a line before its comment."""
    for m in _TOKEN.finditer(code):
        kind = m.lastgroup
        text = m[0]
        col = m.start() + 1
        if kind == "int":
            if code.startswith(".", m.end()):
                raise NonRationalCoefficient(
                    "decimal literals are not rational; write p/q",
                    lineno, col)
            if len(text) > MAX_LITERAL_DIGITS:
                raise GermSyntaxError(
                    f"integer literal of {len(text)} digits exceeds the "
                    f"{MAX_POWER_BITS}-bit coefficient bound", lineno, col)
        elif kind == "stray" or kind == "name" and not (
                text[0].isalpha() or text[0] == "_"):
            raise GermSyntaxError(f"unexpected character {text[0]!r}",
                                  lineno, col)


def _tokens(code: str, start: int, end: int, lineno: int) -> Iterator[Tok]:
    """The tokens of code[start:end] on a checked line, built as read.

    A run of punctuation is one match; each of its characters is a token.
    """
    for m in _TOKEN.finditer(code, start, end):
        kind, text = m.lastgroup, m[0]
        if kind != "punct":
            yield kind, text, lineno, m.start() + 1
        elif len(text) == 1:
            yield text, text, lineno, m.start() + 1
        else:
            for col, ch in enumerate(text, m.start() + 1):
                yield ch, ch, lineno, col


def _statements(text: str) -> List[Tuple[Tok, Iterator[Tok], int]]:
    """Each statement's first token, an iterator over the rest, and its commas.

    Every line is checked here, before the caller reads any statement, so
    the first tokenizer error in the file wins over every parse error.
    """
    out = []
    for lineno, line in enumerate(_LINE_END.split(text), start=1):
        code = line.partition("#")[0]
        if _CHECKED_LINE.fullmatch(code) is None:
            _scan(code, lineno)
        start = 0
        for piece in code.split(";"):
            end = start + len(piece)
            if piece.strip():
                toks = _tokens(code, start, end, lineno)
                out.append((next(toks), toks, piece.count(",")))
            start = end + 1
    return out


def _error(message: str, tok: Tok) -> GermSyntaxError:
    return GermSyntaxError(message, tok[2], tok[3])


_PRIMARY_START = ("name", "int", "(")
_PLAIN_NAMES = "variable names must be plain identifiers"


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


class _Reader:
    """One statement's tokens, read part by part by a plain recursive descent.

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

    def parts(self, read: Callable[[], object], empty: str,
              anchor: Tok) -> Iterator:
        """read() on each part in turn; none when the statement has no tokens.

        An empty part raises the message `empty` at anchor.
        """
        if self.tok is None and not self.more:
            return
        while True:
            if self.tok is None:
                raise _error(empty, anchor)
            self.anchor = self.tok
            yield read()
            if not self.more:
                return
            self.more = False
            self.advance()

    def variable(self) -> Tok:
        tok = self.take()
        if tok[0] != "name" or self.tok is not None:
            raise _error(_PLAIN_NAMES, tok)
        return tok

    def polynomial(self) -> Poly:
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
        p = -self.term() if negate else self.term()
        while True:
            tok = self.tok
            if tok is None or tok[0] not in ("+", "-"):
                return p
            self.advance()
            q = self.term()
            p = p - q if tok[0] == "-" else p + q

    def term(self) -> Poly:
        p = self.factor()
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
        p = self.primary()
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

    def primary(self) -> Poly:
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
            return Poly.from_ints(self.nvars, {self.one: num}, den) if num \
                else Poly.zero(self.nvars)
        if kind == "name":
            i = self.names.get(tok[1])
            if i is None:
                raise _error(f"unknown variable {tok[1]!r}", tok)
            return Poly.variable(self.nvars, i)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise _error(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            closing = self.take()
            if closing[0] != ")":
                raise _error("expected ')'", closing)
            return p
        raise _error(f"unexpected {tok[1]!r}", tok)


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
    entries: Dict[str, Tuple[Tok, Iterator[Tok], int]] = {}
    for head, rest, commas in _statements(text):
        kind, key, line, col = head
        if kind != "name" or key not in KEYS:
            raise _error(f"expected one of {', '.join(KEYS)}", head)
        if next(rest, ("",))[0] != "=":
            raise GermSyntaxError("expected '=' after key", line,
                                  col + len(key))
        if key in entries:
            raise _error(f"duplicate key {key!r}", head)
        entries[key] = (head, rest, commas)

    if "vars" not in entries:
        raise GermSyntaxError("missing 'vars' entry", 0, 0)
    # the count, from the statement's commas, wins over any part's error
    vars_tok, rest, commas = entries["vars"]
    if commas >= MAX_VARS:
        raise _error(
            f"{commas + 1} variables exceed the variable bound {MAX_VARS}",
            vars_tok)
    index: Dict[str, int] = {}
    reader = _Reader(rest, {})
    for tok in reader.parts(reader.variable, _PLAIN_NAMES, vars_tok):
        if tok[1] in index:
            raise _error(f"duplicate variable {tok[1]!r}", tok)
        index[tok[1]] = len(index)
    if not index:
        raise _error(_PLAIN_NAMES, vars_tok)

    def poly_list(key: str) -> Tuple[Poly, ...]:
        if key not in entries:
            return ()
        anchor, rest, _ = entries[key]
        reader = _Reader(rest, index)
        return tuple(reader.parts(reader.polynomial,
                                  f"empty entry in {key!r} list", anchor))

    def integer(key: str) -> Optional[int]:
        if key not in entries:
            return None
        anchor, rest, _ = entries[key]
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
    if len(omega) != len(index):
        anchor, _, _ = entries["omega"]
        raise ArityError(
            f"omega needs {len(index)} components, got {len(omega)}",
            anchor[2], anchor[3])

    seed = integer("seed")
    return GermFile(tuple(index), f, omega, g,
                    seed if seed is not None else 0,
                    integer("cap"), integer("max_cap"), integer("attempts"))
