"""Randomized verification suites: plans, determinism, corpus health."""

import random
from fractions import Fraction

import pytest

from icisres import verify
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
        computed.append(tuple(verify._render(p) for p in list(f) + list(g)))
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
            certified.append(frozenset(verify._render(p) for p in gens))
            return real(gens, *args, **kwargs)

        monkeypatch.setattr(localalg, "standard_basis", counting)
        rng = random.Random(f"0:ann-invariance:{t}")
        assert verify._trial_ann(rng, t) is None
        # one ideal per tried matrix plus the untransformed left-hand one
        assert len(certified) >= 2
        assert len(certified) == len(set(certified))



def test_theorem1_certifies_each_ideal_once(monkeypatch):
    # one Ctx per trial: the resample predicate, the check after it and
    # solve share J, and the residue finds the basis of (m_1, m_2, f) that
    # the coordinate search certified
    from icisres import localalg
    real = localalg.standard_basis
    certified = []

    def counting(gens, *args, **kwargs):
        certified.append(frozenset(verify._render(p) for p in gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(localalg, "standard_basis", counting)
    for t in range(len(builtin_corpus()) + 3):
        certified.clear()
        rng = random.Random(f"0:theorem1:{t}")
        assert verify._trial_theorem1(rng, t) is None
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
        assert verify._trial_eq2(rng, t) is None
        assert 1 <= len(composed) <= 4
        assert len({id(p) for p in composed}) == len(composed)


@pytest.mark.parametrize("suite, trial", [("det-lemmas", verify._trial_det_lemmas),
                                          ("eq2-transform", verify._trial_eq2)])
def test_trials_evaluate_each_determinant_once(monkeypatch, suite, trial):
    # the resample predicate's determinant is kept, not evaluated again
    real = verify.rational_det
    evaluated = []

    def counting(m):
        evaluated.append(m)         # kept alive, so ids stay distinct
        return real(m)

    monkeypatch.setattr(verify, "rational_det", counting)
    for t in range(10):
        evaluated.clear()
        rng = random.Random(f"0:{suite}:{t}")
        assert trial(rng, t) is None
        assert evaluated
        assert len({id(m) for m in evaluated}) == len(evaluated)
