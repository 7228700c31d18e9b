"""Ctx.finite, the one gate to a finite quotient, and the six steps behind it.

Each caller passes its own error and step: an infinite staircase raises
that error with its message and records no cap, and a finite one records
the certified basis's cap under the step.  The finite inputs all generate
(x^13, y): the generator degree lifts the basis cap from 12 to 13, so the
recorded cap is the basis's, not the context's starting cap.
"""

from fractions import Fraction

import pytest

from icisres.errors import NotIsolated, NotRegularSequence
from icisres.index import GermProblem, curve_index, eg_index
from icisres.localalg import DEFAULT_CAP, Ctx
from icisres.pairing import algebra_B, index_algebra
from icisres.polycore import Poly
from icisres.residues import ResidueForm, intersection_multiplicity_both_ways

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
ZERO3 = Poly.zero(3)
ONE3 = Poly.const(3, Fraction(1))
CAP = 13

# x^2 + y^2 = 0 is singular along the z-axis, where the minors x, y vanish
CYLINDER = GermProblem(3, (x3**2 + y3**2,), (ZERO3, ZERO3, ONE3))
# omega = df: every principal minor vanishes identically
DEGENERATE = GermProblem(3, (z3,), (ZERO3, ZERO3, ONE3))
# the form x^13 dx + y dy on the plane: every ideal below is (x^13, y)
DEEP = GermProblem(2, (), (X**13, Y))

CURVE = "the form vanishes along a curve on the germ"

# caller, infinite input, finite input, step, error type, message
CALLERS = [
    ("eg_index", lambda ctx: eg_index(CYLINDER, ctx),
     lambda ctx: eg_index(DEEP, ctx), "index", NotIsolated, CURVE),
    ("curve_index", lambda ctx: curve_index((Y,), (Y, X), ctx),
     lambda ctx: curve_index((Y,), (X**13, Y), ctx), "curve", NotIsolated,
     "the form vanishes along the curve germ"),
    ("algebra_B", lambda ctx: algebra_B(DEGENERATE, ctx),
     lambda ctx: algebra_B(DEEP, ctx), "pairing", NotRegularSequence,
     "(m_1, m_2) is not regular on the germ"),
    ("index_algebra", lambda ctx: index_algebra(CYLINDER, ctx),
     lambda ctx: index_algebra(DEEP, ctx), "index", NotIsolated, CURVE),
    ("ResidueForm", lambda ctx: ResidueForm([X * Y, X**2], ctx),
     lambda ctx: ResidueForm([X**13, Y], ctx), None, NotRegularSequence,
     "denominator ideal has infinite colength"),
    ("intersection_multiplicity_both_ways",
     lambda ctx: intersection_multiplicity_both_ways([], [X * Y, X**2], ctx),
     lambda ctx: intersection_multiplicity_both_ways([], [X**13, Y], ctx),
     "colength", NotRegularSequence, "(f, g) is not zero dimensional"),
]


@pytest.mark.parametrize("infinite, error, message",
                         [(c[1], c[4], c[5]) for c in CALLERS],
                         ids=[c[0] for c in CALLERS])
def test_infinite_ideal_raises_the_callers_error_and_records_nothing(
        infinite, error, message):
    ctx = Ctx()
    with pytest.raises(error) as info:
        infinite(ctx)
    assert type(info.value) is error and str(info.value) == message
    assert ctx.caps_used == {}


@pytest.mark.parametrize("finite, step", [(c[2], c[3]) for c in CALLERS],
                         ids=[c[0] for c in CALLERS])
def test_finite_ideal_records_the_basis_cap_under_the_step(finite, step):
    ctx = Ctx()
    finite(ctx)
    if step is None:
        assert ctx.caps_used == {}
    else:
        assert ctx.caps_used[step] == CAP > DEFAULT_CAP


def test_gate_returns_the_memoised_basis_and_raises_the_given_error():
    ctx = Ctx()
    sb = ctx.finite([Y, X**13], NotIsolated("unused"), "step")
    assert sb is ctx.basis([X**13, Y]) and sb.cap == CAP
    assert ctx.caps_used == {"step": CAP}
    error = NotIsolated("infinite")
    with pytest.raises(NotIsolated) as info:
        ctx.finite([X], error, "other")
    assert info.value is error
    assert ctx.caps_used == {"step": CAP}
    ctx.finite([X**2, Y], error)
    assert ctx.caps_used == {"step": CAP}


def test_algebra_passes_the_gate_before_building():
    ctx = Ctx()
    with pytest.raises(NotRegularSequence):
        ctx.algebra([X], NotRegularSequence("infinite"), "step")
    assert ctx.caps_used == {}
    assert all(key[0] != "algebra" for key in ctx.memo)
    alg = ctx.algebra([X**13, Y], NotRegularSequence("infinite"), "step")
    assert alg.dim == 13 and ctx.caps_used == {"step": CAP}
    assert ctx.algebra([Y, X**13], NotRegularSequence("infinite")) is alg
