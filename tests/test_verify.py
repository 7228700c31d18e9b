"""Randomized verification suites: plans, determinism, corpus health."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from icisres import cli, verify
from icisres.errors import NotIsolated
from icisres.localalg import Ctx
from icisres.polycore import Poly
from icisres.verify import (DEFAULT_TRIALS, SUITES, VerificationPlan,
                            builtin_corpus, random_poly, run)


def small_plan(suites, trials=3, seed=0):
    return VerificationPlan(suites=tuple(suites), trials=trials, seed=seed)


def test_suite_registry():
    assert set(DEFAULT_TRIALS) == set(SUITES)
    assert all(v >= 1 for v in DEFAULT_TRIALS.values())


def test_plan_validation():
    with pytest.raises(ValueError):
        VerificationPlan(suites=("no-such-suite",))
    with pytest.raises(ValueError):
        VerificationPlan(trials=0)
    with pytest.raises(ValueError, match="^trials must be at most 10000, "
                                         "got 10001$"):
        VerificationPlan(trials=10001)
    assert VerificationPlan(trials=10000).trials == 10000


def test_builtin_corpus_shape():
    corpus = builtin_corpus()
    names = [name for name, _ in corpus]
    assert len(names) == len(set(names))
    assert len(corpus) >= 6
    for _, germ in corpus:
        assert len(germ.omega) == germ.nvars
        assert len(germ.f) == germ.nvars - 2


def test_random_poly_respects_bounds():
    rng = random.Random(1)
    for _ in range(30):
        p = random_poly(rng, 3, 3, min_degree=1)
        if p.is_zero():
            continue
        assert 1 <= p.min_degree() <= p.total_degree() <= 3
        assert all(abs(c) <= 3 and c != 0 for c in p.terms.values())


def test_run_is_deterministic():
    plan = small_plan(["det-lemmas", "eq2-transform"], trials=4, seed=9)
    first = run(plan)
    second = run(plan)
    assert [(o.suite, o.trials_run, o.failures) for o in first] == \
           [(o.suite, o.trials_run, o.failures) for o in second]


def test_seed_changes_draws():
    # different seeds must not silently reuse the same trials; compare via
    # the rendered failure payloads being empty but wall clock irrelevant
    a = run(small_plan(["det-lemmas"], trials=2, seed=1))
    b = run(small_plan(["det-lemmas"], trials=2, seed=2))
    assert a[0].ok and b[0].ok


def test_all_suites_pass_smoke_counts():
    plan = small_plan(SUITES, trials=2, seed=0)
    outcomes = run(plan)
    assert [o.suite for o in outcomes] == list(SUITES)
    for o in outcomes:
        assert o.failures == [], f"{o.suite} failed: {o.failures}"
        assert o.trials_run == 2
        assert o.ok


def test_theorem_suite_reaches_random_branch():
    # trial indices past the corpus draw random germs
    corpus_len = len(builtin_corpus())
    plan = small_plan(["theorem1"], trials=corpus_len + 2, seed=0)
    out = run(plan)[0]
    assert out.ok
    assert out.trials_run == corpus_len + 2


def test_cor_mult_computes_each_accepted_pair_once(monkeypatch):
    computed = []
    real = verify.intersection_multiplicity_both_ways

    def counting(f, g, *args, **kwargs):
        computed.append(tuple(p.render() for p in list(f) + list(g)))
        return real(f, g, *args, **kwargs)

    monkeypatch.setattr(verify, "intersection_multiplicity_both_ways", counting)
    out = run(small_plan(["cor-mult"], trials=4, seed=0))[0]
    assert out.ok
    assert len(computed) >= 4
    assert len(computed) == len(set(computed))


def test_ann_invariance_certifies_each_ideal_once(monkeypatch):
    # the accepted matrix's ideal is certified by the resample predicate,
    # and the right-hand residue reuses that basis
    from icisres import localalg
    real = localalg.standard_basis
    for t in range(4):
        certified = []

        def counting(gens, *args, **kwargs):
            certified.append(frozenset(p.render() for p in gens))
            return real(gens, *args, **kwargs)

        monkeypatch.setattr(localalg, "standard_basis", counting)
        rng = random.Random(f"0:ann-invariance:{t}")
        assert verify._trial_ann(rng, t, Ctx()) is None
        # one ideal per tried matrix plus the untransformed left-hand one
        assert len(certified) >= 2
        assert len(certified) == len(set(certified))


def test_ann_invariance_run_certifies_each_ideal_once(monkeypatch):
    # the run's one Ctx keeps the two untransformed left-hand ideals, so
    # later trials find them there
    from icisres import localalg
    real = localalg.standard_basis
    certified = []

    def counting(gens, *args, **kwargs):
        certified.append(frozenset(p.render() for p in gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(localalg, "standard_basis", counting)
    out = run(VerificationPlan(suites=("ann-invariance",), seed=0))[0]
    assert out.ok
    assert len(certified) >= 2
    assert len(certified) == len(set(certified))


def test_theorem1_certifies_each_ideal_once(monkeypatch):
    # within a trial's Ctx, the resample predicate and solve share J, and
    # the residue finds the basis of (m_1, m_2, f) that the coordinate
    # search certified
    from icisres import localalg
    real = localalg.standard_basis
    certified = []

    def counting(gens, *args, **kwargs):
        certified.append(frozenset(p.render() for p in gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(localalg, "standard_basis", counting)
    for t in range(len(builtin_corpus()) + 3):
        certified.clear()
        rng = random.Random(f"0:theorem1:{t}")
        assert verify._trial_theorem1(rng, t, Ctx()) is None
        assert len(certified) == len(set(certified)), t

def test_eq2_composes_each_principal_minor_once(monkeypatch):
    # substitutions outside CoordinateChange.apply are the compositions of
    # the untransformed principal minors; none may repeat within a trial
    from icisres.index import CoordinateChange
    from icisres.polycore import Poly
    real_apply, real_substitute = CoordinateChange.apply, Poly.substitute
    applying, composed = [], []

    def apply(self, p):
        applying.append(p)
        try:
            return real_apply(self, p)
        finally:
            applying.pop()

    def substitute(self, targets):
        if not applying:
            composed.append(self)
        return real_substitute(self, targets)

    monkeypatch.setattr(CoordinateChange, "apply", apply)
    monkeypatch.setattr(Poly, "substitute", substitute)
    for t in range(8):
        composed.clear()
        rng = random.Random(f"0:eq2-transform:{t}")
        assert verify._trial_eq2(rng, t, Ctx()) is None
        assert 1 <= len(composed) <= 4
        assert len({id(p) for p in composed}) == len(composed)


@pytest.mark.parametrize("suite, trial", [("det-lemmas", verify._trial_det_lemmas),
                                          ("eq2-transform", verify._trial_eq2)])
def test_trials_evaluate_each_determinant_once(monkeypatch, suite, trial):
    # the resample predicate's determinant is kept, not evaluated again
    real = verify.det
    evaluated = []

    def counting(m):
        evaluated.append(m)         # kept alive, so ids stay distinct
        return real(m)

    monkeypatch.setattr(verify, "det", counting)
    for t in range(10):
        evaluated.clear()
        rng = random.Random(f"0:{suite}:{t}")
        assert trial(rng, t, Ctx()) is None
        assert evaluated
        assert len({id(m) for m in evaluated}) == len(evaluated)


@pytest.mark.parametrize("accept_at, expected", [(3, (3, "accepted")),
                                                  (None, (5, None))])
def test_resample_tests_each_draw_once(accept_at, expected):
    # at most limit + 1 draws; with every draw rejected, the last one and
    # its falsy value come back
    draws, tested = [], []

    def make():
        draws.append(len(draws))
        return draws[-1]

    def test(item):
        tested.append(item)
        return "accepted" if item == accept_at else None

    assert verify._resample(make, test, limit=5) == expected
    assert draws == tested == list(range(expected[0] + 1))


def test_eq1_draws_distinct_columns(monkeypatch):
    # a repeated column in i_cols or j_cols makes both sides 0: the left
    # side's two factors are the first minors each trial reads
    calls = []

    def recording(name, real):
        def wrapper(*args):
            calls.append((name, tuple(args[1])))
            return real(*args)
        return wrapper

    for name in ("jacobian_minor", "minor"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    for seed in range(3):
        for t in range(DEFAULT_TRIALS["eq1"]):
            del calls[:]
            rng = random.Random(f"{seed}:eq1:{t}")
            assert verify._trial_eq1(rng, t, Ctx()) is None
            for name in ("jacobian_minor", "minor"):
                cols = next(c for n, c in calls if n == name)
                assert len(set(cols)) == len(cols), (seed, t, name, cols)


def test_a_doubled_inverse_fails_the_inverse_block_identity_every_trial(
        monkeypatch):
    # with the whole matrix's solve X = q H^-1 doubled, its upper-left
    # j x j block E' has 2^j det(E'), so det(D) q^j = det(E') det(H) fails
    # unless det(D) = 0: the draw keeps D nonsingular, so every default
    # trial at seed 0 fails
    real = verify.exact_solve

    def doubled(n):
        def solve(m, b):
            q, x = real(m, b)
            return (q, [[2 * a for a in row] for row in x]) if len(m) == n \
                else (q, x)
        return solve

    for t in range(DEFAULT_TRIALS["det-lemmas"]):
        seed = f"0:det-lemmas:{t}"
        n = random.Random(seed).randint(2, 6)     # the trial's first draw
        monkeypatch.setattr(verify, "exact_solve", doubled(n))
        payload = verify._trial_det_lemmas(random.Random(seed), t, Ctx())
        assert payload is not None and payload["identity"] == "inverse-block", t


@pytest.mark.parametrize("suite, name, wrong", [
    # a minor read in sorted column order: no sign for the column order
    ("eq1", "minor", lambda real: lambda p, columns: real(p, sorted(columns))),
    # minors with the first one negated
    ("eq2-transform", "minors",
     lambda real: lambda p: (-real(p)[0],) + real(p)[1:]),
])
def test_suites_catch_wrong_minors(monkeypatch, suite, name, wrong):
    # a suite whose two sides read one shortcut must not agree with itself
    monkeypatch.setattr(verify, name, wrong(getattr(verify, name)))
    [outcome] = verify.run(small_plan([suite], trials=10))
    assert outcome.failures


# failure payloads -----------------------------------------------------------
#
# Each suite compares two values.  Shifting one of them makes the first
# trial fail, and its payload must carry the fields that reproduce the
# instance; a field mapped to None is checked for presence only.

def _counted(real, shift):
    """real, with shift(k, value) applied to the value of its k-th call."""
    calls = itertools.count(1)
    return lambda *args, **kwargs: shift(next(calls), real(*args, **kwargs))


def _not_isolated(k, report):
    raise NotIsolated("forced")


def _one_more(p):
    return p + Poly.const(p.nvars, 1)


_FORCED_FAILURES = [
    ("det-lemmas", "det", lambda k, d: d + 1,
     {"identity": "block-schur", "matrix": None, "split": None}),
    # the first solve is the block A's against B, the second the whole
    # matrix's against the unit matrix, its X shifted by the unit matrix
    ("det-lemmas", "exact_solve",
     lambda k, qx: qx if k % 2 else (qx[0], [
         [a + (r == c) for c, a in enumerate(row)]
         for r, row in enumerate(qx[1])]),
     {"identity": "inverse-block", "matrix": None, "split": None}),
    ("eq1", "minor", lambda k, m: _one_more(m),
     {"f": None, "omega": None, "i_cols": None, "j_cols": None}),
    ("lem2", "normal_form", lambda k, r: _one_more(r),
     {"f": None, "omega": None, "pair": "(1, 2)"}),
    # the first call gives the minors in the old coordinates, the second
    # those in the new ones
    ("eq2-transform", "minors",
     lambda k, ms: ms if k % 2 else (_one_more(ms[0]),) + ms[1:],
     {"f": None, "omega": None, "matrix": None, "minor": "1"}),
    ("ann-invariance", "grothendieck_residue", lambda k, r: r + k,
     {"germ": "a1-dz", "matrix": None, "h": None, "lhs": None, "rhs": None}),
    ("theorem1", "solve",
     lambda k, rep: dataclasses.replace(rep, residue=rep.residue + 1),
     {"germ": "a1-dz", "index": "2", "residue": "3"}),
    ("theorem1", "solve", _not_isolated,
     {"germ": "a1-dz", "error": "NotIsolated"}),
    ("smooth-duality", "pairing_report",
     lambda k, rep: dataclasses.replace(rep, sigma_in_soc_c=False),
     {"omega": None, "problems": "sigma not in socle"}),
    ("cor-mult", "intersection_multiplicity_both_ways",
     lambda k, pair: (pair[0], pair[1] + 1),
     {"f": None, "g": None, "colength": None, "residue": None}),
]
_FORCED_IDS = [f"{s}-{n}-{sorted(f)[0]}" for s, n, _, f in _FORCED_FAILURES]


@pytest.mark.parametrize("suite, name, shift, fields", _FORCED_FAILURES,
                         ids=_FORCED_IDS)
def test_a_failing_trial_carries_its_payload(monkeypatch, suite, name, shift,
                                             fields):
    monkeypatch.setattr(verify, name, _counted(getattr(verify, name), shift))
    [outcome] = run(small_plan([suite], trials=1))
    assert not outcome.ok
    [(seed, payload)] = outcome.failures
    assert seed == f"0:{suite}:0"
    assert set(payload) == set(fields)
    for key, value in payload.items():
        assert isinstance(value, str), key
        assert fields[key] in (None, value), key


@pytest.mark.parametrize("suite, name, shift, fields", _FORCED_FAILURES,
                         ids=_FORCED_IDS)
def test_a_failing_trial_makes_verify_exit_2(monkeypatch, capsys, suite, name,
                                             shift, fields):
    monkeypatch.setattr(verify, name, _counted(getattr(verify, name), shift))
    code = cli.main(["verify", "--suite", suite, "--trials", "1",
                     "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep["discrepancies"] == [f"{suite}:1 failures"]
    [entry] = rep["result"]["suites"]
    [failure] = entry["failures"]
    assert failure["seed"] == f"0:{suite}:0"
    assert set(failure["payload"]) == set(fields)
