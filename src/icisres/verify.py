"""Randomized and corpus-driven checks of the identities behind the engine.

Every suite draws deterministic instances from a seeded generator and
asserts an exact identity; a failure is data (the trial seed plus a
payload that reproduces the instance), never an exception.  Degenerate
draws (non-isolated zeros, singular matrices) are resampled with a
bounded counter so a run can never loop forever; each draw is tested
once and its test value is what the trial goes on with.  One run shares
one Ctx across all its trials, so an ideal or germ that recurs is
certified or derived once.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (CapExceeded, GoodCoordsNotFound, NotIsolated,
                     NotRegularSequence)
from .index import (CoordinateChange, GermProblem, eg_index, germ_minors,
                    germ_sigma, ideal_J, minor, minors, random_matrix, solve)
from .localalg import Ctx, normal_form
from .polycore import Poly, det, linear_forms, solve as exact_solve
from .residues import (grothendieck_residue, intersection_multiplicity_both_ways,
                       jacobian_minor)
from .pairing import pairing_report

RESAMPLE_LIMIT = 20
# a trial takes milliseconds and the run's one Ctx keeps what it certifies,
# so a run of more trials than this would take hours and grow without bound
MAX_TRIALS = 10000
DEGREE = 2          # total degree of every random polynomial
MAX_NVARS = 4       # variables of eq1's germs; eq2-transform draws 2..MAX_NVARS
MAX_TERMS = 6       # terms of a random polynomial, at most

DEFAULT_TRIALS = {
    "det-lemmas": 100,
    "eq1": 50,
    "lem2": 25,
    "eq2-transform": 25,
    "ann-invariance": 10,
    "theorem1": 7,
    "smooth-duality": 10,
    "cor-mult": 10,
}

SUITES = tuple(DEFAULT_TRIALS)

Payload = Optional[Dict[str, str]]      # a trial's failure data, or None


@dataclass
class VerificationPlan:
    """What to run: which suites, how many trials, from which seed."""

    suites: Tuple[str, ...] = SUITES
    trials: Optional[int] = None        # None: per-suite default
    seed: int = 0

    def __post_init__(self):
        for s in self.suites:
            if s not in DEFAULT_TRIALS:
                raise ValueError(f"unknown suite {s!r}")
        if self.trials is not None:
            if self.trials < 1:
                raise ValueError("trials must be positive")
            if self.trials > MAX_TRIALS:
                raise ValueError(f"trials must be at most {MAX_TRIALS}, "
                                 f"got {self.trials}")


@dataclass
class VerificationOutcome:
    suite: str
    trials_run: int
    failures: List[Tuple[str, Dict[str, str]]]

    @property
    def ok(self) -> bool:
        return not self.failures


def builtin_corpus() -> List[Tuple[str, GermProblem]]:
    """The named germs every corpus-driven suite and test runs against."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    a1 = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    e8 = Poly(3, {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 5): 1})
    return [
        ("a1-dz", GermProblem(3, (a1,), (Poly.zero(3), Poly.zero(3),
                                         Poly.const(3, 1)))),
        ("diag-1-1", GermProblem(2, (), (x, y))),
        ("diag-2-3", GermProblem(2, (), (x ** 2, y ** 3))),
        ("diag-3-3", GermProblem(2, (), (x ** 3, y ** 3))),
        ("smooth-plane", GermProblem(3, (Poly.variable(3, 2),),
                                     (Poly.variable(3, 0),
                                      Poly.variable(3, 1), Poly.zero(3)))),
        ("e8-sum", GermProblem(3, (e8,), (Poly.const(3, 1),) * 3, seed=1)),
        ("unit-dx", GermProblem(2, (), (Poly.const(2, 1), Poly.zero(2)),
                                seed=5)),
    ]


# random instance helpers ---------------------------------------------------

@functools.cache
def _exponents(n: int, degree: int, min_degree: int) -> Tuple[tuple, ...]:
    return tuple(e for e in itertools.product(range(degree + 1), repeat=n)
                 if min_degree <= sum(e) <= degree)


def random_poly(rng: random.Random, n: int, degree: int,
                min_degree: int = 1) -> Poly:
    pool = _exponents(n, degree, min_degree)
    k = rng.randint(1, min(MAX_TERMS, len(pool)))
    support = rng.sample(pool, k)
    return Poly.from_ints(n, {e: rng.choice([-3, -2, -1, 1, 2, 3])
                              for e in support}, 1)


def _resample(make: Callable, test: Callable, limit: int = RESAMPLE_LIMIT):
    """Draw with make() until test(draw) is truthy, at most limit + 1 times.

    Each draw is tested once, right after it is drawn.  Returns the last
    draw and its test value, which is falsy when every draw was rejected.
    """
    for _ in range(limit + 1):
        item = make()
        value = test(item)
        if value:
            break
    return item, value


def _nonsingular_draw(rng: random.Random, n: int,
                      block: Callable = lambda m: m):
    """A random n x n matrix, resampled until block(matrix) is nonsingular.

    Returns the matrix and det(block(matrix)), which is 0 when the resample
    limit ran out.
    """
    return _resample(lambda: random_matrix(rng, n),
                     lambda m: det(block(m)))


def _compose(p: Poly, matrix: Sequence[Sequence[Fraction]]) -> Poly:
    """p(C y): substitute the linear map given by the matrix rows."""
    return p.substitute(linear_forms(matrix))


def _unit(n: int) -> List[List[int]]:
    return [[int(i == k) for k in range(n)] for i in range(n)]


def _render_matrix(m: Sequence[Sequence[Fraction]]) -> str:
    return "[" + "; ".join(",".join(str(a) for a in row) for row in m) + "]"


def _random_germ(rng: random.Random, n: int, degree: int) -> GermProblem:
    f = tuple(random_poly(rng, n, degree, min_degree=1) for _ in range(n - 2))
    omega = tuple(random_poly(rng, n, degree, min_degree=0)
                  for _ in range(n))
    return GermProblem(n, f, omega)


# suites --------------------------------------------------------------------

def _trial_det_lemmas(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    n = rng.randint(2, 6)
    j = rng.randint(1, n - 1)

    def blocks(h):
        a = [row[:j] for row in h[:j]]
        b = [row[j:] for row in h[:j]]
        c = [row[:j] for row in h[j:]]
        d = [row[j:] for row in h[j:]]
        return a, b, c, d

    h, det_a = _nonsingular_draw(rng, n, lambda m: blocks(m)[0])
    a, b, c, d = blocks(h)
    if det_a != 0:
        # X = q A^-1 B, so q D - C X is q times the Schur complement
        # D - C A^-1 B, whose determinant is det(H) / det(A)
        q, x = exact_solve(a, b)
        schur = [[q * d[i][l] - sum(c[i][k] * x[k][l] for k in range(j))
                  for l in range(n - j)] for i in range(n - j)]
        if det(h) * q ** (n - j) != det_a * det(schur):
            return {"identity": "block-schur", "matrix": _render_matrix(h),
                    "split": str(j)}

    # H2 and its block D both nonsingular: with det(D) = 0 the identity
    # reads 0 = 0 whatever the inverse's block E is
    def dets(m):
        det_m = det(m)
        det_d = det_m and det(blocks(m)[3])
        return (det_m, det_d) if det_d else None

    h2, dets2 = _resample(lambda: random_matrix(rng, n), dets)
    if dets2:
        det_h2, det_d2 = dets2
        # X = q H2^-1, so its upper-left block is q E, and det(D) =
        # det(E) det(H2) times q^j reads in ints
        q, x = exact_solve(h2, _unit(n))
        e2 = [row[:j] for row in x[:j]]
        if det_d2 * q ** j != det(e2) * det_h2:
            return {"identity": "inverse-block", "matrix": _render_matrix(h2),
                    "split": str(j)}
    return None


def _trial_eq1(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    n = MAX_NVARS
    q = n - 2
    p = _random_germ(rng, n, DEGREE)
    # distinct columns: a repeated one makes both sides 0
    i_cols = tuple(rng.sample(range(n), q))
    j_cols = tuple(rng.sample(range(n), q + 1))
    lhs = jacobian_minor(p.f, i_cols, n) * minor(p, j_cols)
    rhs = Poly.zero(n)
    for l, jl in enumerate(j_cols):
        rest = j_cols[:l] + j_cols[l + 1:]
        piece = jacobian_minor(p.f, rest, n) * minor(p, (jl,) + i_cols)
        rhs = rhs + piece if l % 2 == 0 else rhs - piece
    if lhs != rhs:
        return {"f": "; ".join(fi.render() for fi in p.f),
                "omega": "; ".join(w.render() for w in p.omega),
                "i_cols": str(i_cols), "j_cols": str(j_cols)}
    return None


def _trial_lem2(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    def make():
        return _random_germ(rng, 3, DEGREE)

    def proper(p):
        return not any(m.is_unit() for m in germ_minors(p, ctx))

    p, _ = _resample(make, proper)
    try:
        sb = ctx.basis(ideal_J(p, ctx))
    except CapExceeded:
        return None
    ms, sd = germ_minors(p, ctx), germ_sigma(p, ctx)
    for (j, k) in [(0, 1), (0, 2), (1, 2)]:
        jac = jacobian_minor(list(p.f) + [ms[j], ms[k]], range(3), 3)
        rest = tuple(c for c in range(3) if c not in (j, k))
        target = jac + jacobian_minor(p.f, rest, 3) * sd.sigma
        if not normal_form(target, sb).is_zero():
            return {"f": p.f[0].render(),
                    "omega": "; ".join(w.render() for w in p.omega),
                    "pair": str((j + 1, k + 1))}
    return None


def _trial_eq2(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    n = rng.randint(2, MAX_NVARS)
    p = _random_germ(rng, n, DEGREE)
    c, detc = _nonsingular_draw(rng, n)
    if detc == 0:
        return None
    change = CoordinateChange(tuple(tuple(row) for row in c))
    transformed = change.apply(p)
    # X = q C^-1 with q = +-det(C), so the adjugate det(C) C^-1 is +-X
    q, x = exact_solve(c, _unit(n))
    sign = 1 if q == detc else -1
    base = minors(p)
    composed: Dict[int, Poly] = {}     # each minor composed at most once
    for i, lhs in enumerate(minors(transformed)):
        rhs = Poly.zero(n)
        for jj in range(n):
            coeff = sign * x[i][jj]
            if coeff == 0:
                continue
            if jj not in composed:
                composed[jj] = _compose(base[jj], c)
            piece = composed[jj].scale(coeff)
            rhs = rhs + piece if (i + jj) % 2 == 0 else rhs - piece
        if lhs != rhs:
            return {"f": "; ".join(fi.render() for fi in p.f),
                    "omega": "; ".join(w.render() for w in p.omega),
                    "matrix": _render_matrix(c), "minor": str(i + 1)}
    return None


def _trial_ann(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    corpus = builtin_corpus()
    name, p = corpus[0] if t % 2 == 0 else ("diag-2-2", GermProblem(
        2, (), (Poly.variable(2, 0) ** 2, Poly.variable(2, 1) ** 2)))
    n = p.nvars
    ms = minors(p)

    def transformed_pair(c):
        change = CoordinateChange(tuple(tuple(row) for row in c))
        good = change.apply(p)
        q, x = exact_solve(c, _unit(n))
        cinv = [[Fraction(a, q) for a in row] for row in x]
        msy = minors(good)
        m1 = _compose(msy[0], cinv)
        m2 = _compose(msy[1], cinv)
        dfy = _compose(jacobian_minor(good.f, tuple(range(2, n)), n), cinv)
        return m1, m2, dfy

    # ctx keeps the accepted matrix's basis, and the right-hand residue
    # finds it there
    def regular(c):
        det_c = det(c)
        if det_c == 0:
            return None
        m1, m2, dfy = transformed_pair(c)
        if not ctx.basis([m1, m2] + list(p.f)).is_finite():
            return None
        return det_c, m1, m2, dfy

    c, accepted = _resample(lambda: random_matrix(rng, n), regular)
    if not accepted:
        return None
    det_c, m1y, m2y, dfy = accepted
    h = random_poly(rng, n, DEGREE, min_degree=0)
    df = jacobian_minor(p.f, tuple(range(2, n)), n)
    lhs = grothendieck_residue(h * df, list(p.f) + [ms[0], ms[1]], ctx)
    rhs = grothendieck_residue((h * dfy).scale(det_c),
                               list(p.f) + [m1y, m2y], ctx)
    if lhs != rhs:
        return {"germ": name, "matrix": _render_matrix(c), "h": h.render(),
                "lhs": str(lhs), "rhs": str(rhs)}
    return None


def _trial_theorem1(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    corpus = builtin_corpus()
    if t < len(corpus):
        name, p = corpus[t]
    else:
        name = "random"

        def make():
            return _random_germ(rng, 3, DEGREE)

        def solvable(p):
            try:
                eg_index(p, ctx)
                return True
            except (NotIsolated, CapExceeded):
                return False

        p, ok = _resample(make, solvable)
        if not ok:
            return None
    try:
        report = solve(p, ctx)
    except (NotIsolated, GoodCoordsNotFound, CapExceeded) as exc:
        if name == "random":
            return None
        return {"germ": name, "error": type(exc).__name__}
    if not report.match:
        return {"germ": name, "index": str(report.index),
                "residue": str(report.residue)}
    return None


def _trial_smooth_duality(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    def make():
        return GermProblem(2, (), (random_poly(rng, 2, DEGREE),
                                   random_poly(rng, 2, DEGREE)))

    def finite(p):
        try:
            return ctx.basis(p.omega).is_finite()
        except CapExceeded:
            return False

    p, ok = _resample(make, finite)
    if not ok:
        return None
    rep = pairing_report(p, ctx)
    problems = []
    if rep.gram.rank != rep.dim_a:
        problems.append(f"rank {rep.gram.rank} != dimA {rep.dim_a}")
    if rep.dim_a > 0 and rep.soc_a_dim != 1:
        problems.append(f"socle dim {rep.soc_a_dim}")
    if rep.sigma_in_soc_c is False:
        problems.append("sigma not in socle")
    if problems:
        return {"omega": "; ".join(w.render() for w in p.omega),
                "problems": "; ".join(problems)}
    return None


def _trial_cor_mult(rng: random.Random, t: int, ctx: Ctx) -> Payload:
    q = t % 2
    n = q + 2

    def make():
        f = [random_poly(rng, n, DEGREE) for _ in range(q)]
        g = [random_poly(rng, n, DEGREE) for _ in range(n - q)]
        return f, g

    def compute(pair):
        f, g = pair
        try:
            return intersection_multiplicity_both_ways(f, g, ctx)
        except (NotRegularSequence, CapExceeded):
            return None

    pair, result = _resample(make, compute)
    if result is None:
        return None
    lhs, rhs = result
    if lhs != rhs:
        f, g = pair
        return {"f": "; ".join(fi.render() for fi in f),
                "g": "; ".join(gi.render() for gi in g),
                "colength": str(lhs), "residue": str(rhs)}
    return None


_TRIALS: Dict[str, Callable] = {
    "det-lemmas": _trial_det_lemmas,
    "eq1": _trial_eq1,
    "lem2": _trial_lem2,
    "eq2-transform": _trial_eq2,
    "ann-invariance": _trial_ann,
    "theorem1": _trial_theorem1,
    "smooth-duality": _trial_smooth_duality,
    "cor-mult": _trial_cor_mult,
}


def run(plan: VerificationPlan) -> List[VerificationOutcome]:
    outcomes = []
    ctx = Ctx()
    for suite in plan.suites:
        trials = plan.trials if plan.trials is not None else DEFAULT_TRIALS[suite]
        failures: List[Tuple[str, Dict[str, str]]] = []
        fn = _TRIALS[suite]
        for t in range(trials):
            trial_seed = f"{plan.seed}:{suite}:{t}"
            rng = random.Random(trial_seed)
            payload = fn(rng, t, ctx)
            if payload is not None:
                failures.append((trial_seed, payload))
        outcomes.append(VerificationOutcome(suite, trials, failures))
    return outcomes
