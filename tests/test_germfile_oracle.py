"""The germ file reader against the per-token reader it replaced.

`oracle_germfile` tokenizes every line in full and splits statements and
parts up front; `icisres.germfile` checks each line with one pattern and
builds tokens only where its parser reads.  On every input both must give
the same `GermFile`, or the same error type, message, line and column.
The inputs are every bench germ, files that pin which error wins, and a
seeded fuzz of mutations of the bench germs.

The sample is fixed by SEED and CASES.  A disagreement is a fault in the
reader, not a reason to draw another sample.
"""

import random
import re
from itertools import chain
from pathlib import Path

import pytest

import oracle_germfile
from icisres.germfile import (_CHECKED_LINE, MAX_LITERAL_DIGITS, MAX_NESTING,
                              _scan, parse_germ_file)

ROOT = Path(__file__).resolve().parent.parent
GERMS = sorted((ROOT / "bench" / "corpus").glob("*.germ")) + \
    sorted((ROOT / "bench" / "ideals").glob("*.germ"))
SEED = 0
CASES = 2000

# single characters: punctuation, digits, a decimal point, a comment, a
# letter and a digit outside ASCII, a non-breaking space and a tab
_CHARS = list("()+-*^/,=;#.0123456789") + ["é", "²", "\u00a0", "\t"]
# whole pieces: names and keys, line breaks, nesting around the bound, and
# literals around the digit bound
_PIECES = (["x", "y", "q", " ", "\n", "vars", "f", "omega", "g", "seed",
            "cap", "0.5", "1/0", "x^65"]
           + ["(" * d for d in (MAX_NESTING - 1, MAX_NESTING,
                                MAX_NESTING + 1, 3000)]
           + ["(" * d + "x" + ")" * d for d in (MAX_NESTING - 1, MAX_NESTING,
                                                 MAX_NESTING + 1, 3000)]
           + ["7" * k for k in (MAX_LITERAL_DIGITS - 1, MAX_LITERAL_DIGITS,
                                MAX_LITERAL_DIGITS + 1)])


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:        # any error, as long as both agree
        return (type(exc).__name__, exc.args, getattr(exc, "line", None),
                getattr(exc, "column", None))


def assert_same(text):
    expected = outcome(oracle_germfile.parse_germ_file, text)
    assert outcome(parse_germ_file, text) == expected, text[:300]
    return expected


@pytest.mark.parametrize("path", GERMS, ids=lambda p: p.name)
def test_every_bench_germ_reads_the_same(path):
    assert_same(path.read_text())


def _nested_line(depth, inner="x"):
    return "(" * depth + inner + ")" * depth


@pytest.mark.parametrize("text, message", [
    # a tokenizer error on a later line beats a nesting error before it
    ("vars = x, y, z\nf = " + _nested_line(150) + "\nomega = 1, 2, @\n",
     "line 3, column 15: unexpected character '@'"),
    # a parse error before the bound beats the nesting error after it
    ("vars = x, y, z\nf = q + " + _nested_line(150) + "\nomega = 0, 0, 1\n",
     "line 2, column 5: unknown variable 'q'"),
    # the first '(' past the bound, in a run and after a sign
    ("vars = x, y, z\nf = " + _nested_line(3000) + "\nomega = 0, 0, 1\n",
     f"line 2, column {5 + MAX_NESTING}: parentheses nested deeper than "
     f"{MAX_NESTING} levels"),
    ("vars = x, y, z\nf = (-" + _nested_line(MAX_NESTING) + ")\n"
     "omega = 0, 0, 1\n",
     f"line 2, column {7 + MAX_NESTING - 1}: parentheses nested deeper than "
     f"{MAX_NESTING} levels"),
    # inside a run of groups, the expression around a closed group goes on
    ("vars = x, y\nomega = ((x)^2 * y + ((y) x)), 1\n",
     "line 2, column 27: implicit multiplication is not allowed; write '*'"),
], ids=["tokenizer-error-wins", "earlier-parse-error-wins", "nested-run",
        "nested-after-sign", "implicit-after-group"])
def test_which_error_wins(text, message):
    result = assert_same(text)
    assert isinstance(result, tuple)
    assert f"line {result[2]}, column {result[3]}: {result[1][0]}" == message


@pytest.mark.parametrize("text", [
    "vars = x, y\nomega = x, y\nseed = -5 6\n",
    "vars = x, y\nomega = x, y\ncap = 3, 4\n",
    "vars = x, y,\nomega = x, y\n",
    "vars = x, y\nf =\nomega = x,\n",
    "vars = x, y\nomega = , y\n",
    ";;\nvars = x, y ; ; omega = x, y;\n",
    "vars = x, y\nomega = x\u00a0+\u00a0y, y\x1f\n",
    "vars = é, x²\nomega = é^2, x²\n",
    "vars = x, y\nomega = 2²\n",
    "vars = x, y\nomega = x, y # 0.5 @ ²\n",
    "vars = x, y\nomega = x, y\nf = \n",
    "vars = x, y\nomega = x1.5, y\n",
    "vars = x, x²\nomega = x², x\n",
    "vars = x, y\nomega = ²x, y\n",
    "vars = _٣, y\nomega = _٣ - y, y\n",
    "vars = x, y\nomega = 5², y\n",
    "vars = x, y\nomega = ٣, y\n",
    "vars = x\nomega = 7#, y\n",
    "vars = x, y\nomega = ((\u2003(x)\u2003)^2\u2003), y\n",
    "vars = x, y,",
    "vars =\nomega = x, y\n",
    "vars = 1, " + ", ".join("abcdefghijkl") + "\nomega = 1\n",
    "vars = " + "(" * 3000 + "\nomega = 1\n",
    # literals at and past the digit bound on lines the pre-check rejects
    "vars = é, y\nomega = é + " + "7" * MAX_LITERAL_DIGITS + ", y\n",
    "vars = é, y\nomega = é + " + "7" * (MAX_LITERAL_DIGITS + 1) + ", y\n",
    # trailing whitespace in linear time: a pattern that skips whitespace
    # before each token retries it from every position, which took 15 s on
    # 20000 spaces
    "vars = x, y\nomega = x, y" + " " * 30000 + "\n",
    # a line ends at \n, \r\n or \r only: a form feed inside a comment
    # does not end it, nor does it shift the line of a later error
    "vars = x, y\n# page\x0cbreak\nomega = x, y",
    "vars = x, y\n# page\x0cbreak\nomega = @",
    "vars = x, y\r\n# page\x0cbreak\romega = @\u2028\x85\n",
    # a running product at the exponent bound 32767 (511 factors of degree
    # 64 make 32704) and past it, rejected at its 511th '*'
    "vars = x, y\nomega = " + "*".join(["x^64"] * 511) + ", y\n",
    "vars = x, y\nomega = " + "*".join(["x^64"] * 600) + ", y\n",
], ids=["knob-three-tokens", "knob-comma", "vars-trailing-comma",
        "omega-trailing-comma", "omega-leading-comma", "empty-statements",
        "unicode-spaces", "unicode-names", "superscript-after-digit",
        "comment-ignored", "f-empty", "decimal-inside-name",
        "superscript-in-name", "superscript-first", "underscore-arabic-digit",
        "superscript-after-literal", "arabic-digit", "literal-then-comment",
        "em-space-in-parenthesis-run", "vars-trailing-comma-at-end",
        "vars-empty", "vars-count-before-bad-first", "vars-nested-parens",
        "scanned-literal-at-bound", "scanned-literal-past-bound",
        "trailing-whitespace", "form-feed-in-comment",
        "form-feed-then-error", "mixed-line-ends", "degree-at-bound",
        "degree-past-bound"])
def test_edge_inputs_read_the_same(text):
    assert_same(text)


def test_the_lexical_claims_hold_on_every_code_point():
    r"""The reader's pieces mean what the per-token reader's loop tests.

    \s is str.isspace and \w is str.isalnum or '_', and the ASCII
    pre-check accepts no line that the scan rejects: no one-character line
    at all, and no two-character line of printable ASCII.
    """
    every = "".join(map(chr, range(0x110000)))
    assert set(re.findall(r"\s", every)) == set(filter(str.isspace, every))
    assert set(re.findall(r"\w", every)) == \
        set(filter(str.isalnum, every)) | {"_"}
    printable = [chr(c) for c in range(0x20, 0x7f)]
    pairs = [a + b for a in printable for b in printable]
    for line in filter(_CHECKED_LINE.fullmatch, chain(every, pairs)):
        _scan(line, 1)          # raises on a line the scan rejects


def test_the_deepest_nesting_parses_below_400_caller_frames():
    # the descent spends four frames per level of parentheses, so at the
    # default recursion limit of 1000 this leaves room for the caller
    text = ("vars = x, y\nomega = " + "(" * MAX_NESTING + "x" +
            ")" * MAX_NESTING + ", y\n")

    def descend(frames):
        return descend(frames - 1) if frames else parse_germ_file(text)

    assert descend(400).omega == oracle_germfile.parse_germ_file(text).omega


def test_groups_read_the_same_as_the_descent():
    for expr in ["((x)^2 * y + (y)) - ((x))", "(((x + y)^2)^2 * 3/4)",
                 "((((1))))^3 - (((y)))", "((x) * (y))^2"]:
        result = assert_same(f"vars = x, y\nomega = {expr}, 1\n")
        assert not isinstance(result, tuple), expr


def mutate(text, rng):
    """text with one to three edits: an insert, a delete or a replace."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        piece = rng.choice(_CHARS) if rng.random() < 0.6 else \
            rng.choice(_PIECES)
        kind = rng.choice(("insert", "insert", "delete", "replace"))
        if kind == "insert" or i == len(chars):
            chars.insert(i, piece)
        elif kind == "delete":
            del chars[i]
        else:
            chars[i] = piece
    return "".join(chars)


def two_line_errors(text, rng):
    """text with a bad character on each of two different lines."""
    lines = text.split("\n")
    for at in rng.sample(range(len(lines)), 2):
        col = rng.randint(0, len(lines[at]))
        bad = rng.choice(["@", "0.5", "²", "7" * (MAX_LITERAL_DIGITS + 1)])
        lines[at] = lines[at][:col] + bad + lines[at][col:]
    return "\n".join(lines)


def test_mutated_germ_files_read_the_same():
    rng = random.Random(SEED)
    kinds = {}
    for case in range(CASES):
        text = rng.choice(GERMS).read_text()
        text = two_line_errors(text, rng) if case % 10 == 0 else \
            mutate(text, rng)
        result = assert_same(text)
        kind = result[1][0].split(" ")[0] if isinstance(result, tuple) \
            else "parsed"
        kinds[kind] = kinds.get(kind, 0) + 1
    # the sample reaches files that parse, tokenizer errors and parse errors
    for kind in ("parsed", "unexpected", "decimal", "integer", "parentheses",
                 "unknown", "expected"):
        assert kinds.get(kind, 0) >= 5, kinds
