"""Standard bases, colength, normal forms, lifts, quotient algebras."""

import itertools
import random
from fractions import Fraction

import pytest

from icisres import localalg
from icisres.errors import (CapExceeded, NotMember, NotZeroDimensional,
                            PowerCapExceeded)
from icisres.index import (GermProblem, eg_index, find_good_coordinates,
                            ideal_J, minors)
from icisres.localalg import (CAP_STEP, DEFAULT_CAP, INFINITE, LocalOrder,
                              _Kernel, colength, is_regular_on_V, lift,
                              minimal_power, minimal_power_membership,
                              normal_form,
                              quotient_algebra, standard_basis,
                              standard_basis_at)
from icisres.polycore import Poly, mono_divides
from icisres.verify import builtin_corpus

from oracle_macaulay import monomials_upto, stable_corank

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
x3 = Poly.variable(3, 0)
y3 = Poly.variable(3, 1)
z3 = Poly.variable(3, 2)
SPHERE = x3**2 + y3**2 + z3**2


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_local_order_descending():
    lo = LocalOrder(2)
    mons = [(0, 1), (2, 0), (0, 0), (1, 1), (1, 0), (0, 2)]
    ordered = sorted(mons, key=lo.key, reverse=True)
    # 1 on top, then lower degree first; ties broken x before y
    assert ordered == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_local_order_unit_is_largest():
    lo = LocalOrder(3)
    for e in itertools.product(range(3), repeat=3):
        if e != (0, 0, 0):
            assert lo.key((0, 0, 0)) > lo.key(e)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_monomials_follow_the_order_spec(nvars):
    kernel = _Kernel(nvars, DEFAULT_CAP, (DEFAULT_CAP,) * nvars)
    monos = monomials_upto(nvars, 12)
    packed = {e: kernel.pack(e) for e in monos}
    assert all(kernel.unpack(m) == e for e, m in packed.items())
    assert all(kernel.degree(m) == sum(e) for e, m in packed.items())
    # the smallest int is the largest monomial
    assert sorted(monos, key=packed.get) == sorted(monos, key=LocalOrder(nvars).key,
                                                   reverse=True)
    # the multiples of a up to degree 12, which mono_divides(a, .) picks out
    cofactors = [monomials_upto(nvars, k) for k in range(13)]
    for a in monos:
        multiples = {mono_mul(a, c) for c in cofactors[12 - sum(a)]}
        assert all(mono_divides(a, b) for b in multiples)
        pa = packed[a]
        assert {b for b in monos if kernel.divides(pa, packed[b])} == multiples
    # representation rows keep exactly the terms that divide z^box
    box = tuple(range(2, 2 + nvars))
    boxed = _Kernel(nvars, DEFAULT_CAP, box)
    row = {}
    boxed.addrow(row, 1, 0, sorted((boxed.pack(e), 1) for e in monos))
    assert {boxed.unpack(m) for m in row} == {e for e in monos
                                              if mono_divides(e, box)}


def test_packed_fields_widen_with_the_cap():
    kernel = _Kernel(3, 300, (300,) * 3)
    assert kernel.width > _Kernel(3, DEFAULT_CAP, (DEFAULT_CAP,) * 3).width
    monos = [(300, 0, 0), (0, 0, 300), (150, 150, 0), (100, 100, 100), (0, 299, 1)]
    for a in monos:
        for b in monos:
            product = kernel.pack(a) + kernel.pack(b)
            assert kernel.unpack(product) == mono_mul(a, b)
            assert kernel.degree(product) == 600
            # a product lies past the truncation bound, its factors below it
            assert product >= kernel.limit > kernel.pack(a)
            assert kernel.divides(kernel.pack(a), product)


def test_colength_matches_oracle_in_random_coordinates():
    # differential check of the integer kernel on dense generators
    x, y, z = (Poly.variable(3, i) for i in range(3))
    one = Poly.const(3, 1)
    p = GermProblem(3, (x**2 + y**3 + z**5,), (one, one, one), seed=1)
    _, q = find_good_coordinates(p, force_random=True)
    gens = list(q.f) + list(minors(q))
    assert colength(standard_basis(gens)) == eg_index(q) == stable_corank(gens) == 10


def test_standard_basis_sphere_section():
    sb = standard_basis([SPHERE, y3, x3])
    assert sorted(sb.staircase) == [(0, 0, 2), (0, 1, 0), (1, 0, 0)]
    assert colength(sb) == 2
    assert sorted(sb.quotient_monomials) == [(0, 0, 0), (0, 0, 1)]


def test_standard_basis_nonmonomial_leads():
    sb = standard_basis([X**2 + Y**3, Y**2])
    assert colength(sb) == 4
    assert sorted(sb.quotient_monomials) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_colength_infinite():
    assert colength(standard_basis([X])) == INFINITE
    assert colength(standard_basis([X * Y, X**2])) == INFINITE


def test_colength_unit_ideal():
    one_plus = Poly.const(2, Fraction(1)) + X
    assert colength(standard_basis([one_plus])) == 0


def test_colength_monomial_brute_force():
    # staircase count for monomial ideals has an elementary direct count
    rng = random.Random(7)
    for _ in range(12):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        extras = [(rng.randint(0, a), rng.randint(0, b)) for _ in range(2)]
        gens = [X**a, Y**b] + [X**e0 * Y**e1 for e0, e1 in extras if e0 + e1 > 0]
        expected = sum(
            1
            for e0 in range(a) for e1 in range(b)
            if not any(e0 >= g0 and e1 >= g1
                       for g0, g1 in [(a, 0), (0, b)] + [g for g in extras if sum(g) > 0])
        )
        # degenerate draws can produce the unit ideal; skip those
        if expected == 0:
            continue
        assert colength(standard_basis(gens)) == expected


def test_cap_reaches_deep_generators():
    # a generator supported above the default cap must still be seen
    sb = standard_basis([x3, y3, z3**13])
    assert colength(sb) == 13
    assert sb.cap >= 13
    sb30 = standard_basis([x3, y3, z3**30])
    assert colength(sb30) == 30


def test_a_finite_basis_is_built_once(monkeypatch):
    caps = []
    real = localalg._build

    def counting(gens, cap, track, box=None):
        caps.append(cap)
        return real(gens, cap, track, box)

    monkeypatch.setattr(localalg, "_build", counting)
    # the first run is at the deepest generator degree, and a finite
    # staircase below it is proved exact by that one run
    assert colength(standard_basis([X, Y**3])) == 3
    assert caps == [3]
    # one reaching the cap is proved by the run at its top degree + 1
    del caps[:]
    assert colength(standard_basis([X**2, Y**3])) == 6
    assert caps == [3, 4]
    # an infinite one is judged from the default cap on: accepted when the
    # run one step up agrees
    del caps[:]
    assert colength(standard_basis([X])) == INFINITE
    assert caps == [1, DEFAULT_CAP, DEFAULT_CAP + CAP_STEP]
    # a check run that turns an infinite staircase finite is the next run,
    # not built again
    del caps[:]
    assert colength(standard_basis([Y - X**2, Y**7])) == 14
    assert caps == [7, DEFAULT_CAP, DEFAULT_CAP + CAP_STEP]


def test_cap_exceeded():
    with pytest.raises(CapExceeded,
                       match="^generator degree 45 exceeds the cap ceiling 20$"):
        standard_basis([x3, y3, z3**45], max_cap=20)


@pytest.mark.parametrize("gens, cap, max_cap, message", [
    ([X**2, Y**3], 50, 40, "cap 50 exceeds the cap ceiling 40"),
    # finite, with top degree 78 = 39 + 39
    ([X**40, Y**40], DEFAULT_CAP, 40,
     "the staircase at cap 40 is finite with top degree 78, so proving it "
     "needs a cap above the cap ceiling 40"),
    # infinite along y = 0, z = x^10, where y * x^10 leads an element only
    # from cap 11 on: the runs at 10 and 14 disagree
    ([y3 * z3, z3 - x3**10], 10, 12,
     "the staircase is infinite and did not stabilize below the cap "
     "ceiling 12"),
    # the run at 30 sees top degree 58; the next run is clamped to the
    # ceiling 40, where the staircase still reaches the cap
    ([X**30, Y**30], DEFAULT_CAP, 40,
     "the staircase at cap 40 is finite with top degree 58, so proving it "
     "needs a cap above the cap ceiling 40"),
])
def test_cap_exceeded_names_its_cause(gens, cap, max_cap, message):
    with pytest.raises(CapExceeded) as info:
        standard_basis(gens, cap, max_cap)
    assert str(info.value) == message


def test_a_finite_staircase_is_proved_at_the_ceiling():
    # the first run, at the deepest degree 37, sees top degree 37, and the
    # run at 38, below the ceiling 40, proves it
    sb = standard_basis([X**37, Y**2], DEFAULT_CAP, 40)
    assert (sb.cap, colength(sb)) == (38, 74)


def test_a_finite_staircase_reaching_the_cap_moves_to_its_top_plus_one():
    # the run at the deepest degree 5 sees top degree 5 and the run at 6
    # proves it, whether or not the run was below the requested cap
    for cap in (2, DEFAULT_CAP):
        sb = standard_basis([X**5, Y**2], cap)
        assert (sb.cap, colength(sb)) == (6, 10)


def test_normal_form_values():
    sb = standard_basis([SPHERE, y3, x3])
    assert normal_form(z3 * z3, sb).is_zero()
    assert normal_form(z3, sb) == z3
    five = Poly.const(3, Fraction(5))
    assert normal_form(five + x3, sb) == five


def test_normal_form_is_linear_and_multiplicative():
    sb = standard_basis([X**2 + Y**3, Y**2])
    rng = random.Random(8)
    for _ in range(10):
        p = Poly(2, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
                     for _ in range(3)})
        q = Poly(2, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
                     for _ in range(3)})
        nf = lambda t: normal_form(t, sb)
        assert nf(p + q) == nf(p) + nf(q)
        assert nf(p * q) == nf(nf(p) * nf(q))


def test_lift_certificate():
    cert = lift(z3 * z3, standard_basis_at([x3, y3, SPHERE], 12, track=True))
    assert cert.check()
    assert cert.defect().is_zero()
    names = ("x", "y", "z")
    assert [c.render(names) for c in cert.coefficients] == ["-x", "-y", "1"]


def test_lift_rejects_non_member():
    with pytest.raises(NotMember):
        lift(Y, standard_basis_at([X**2], 10, track=True))


def test_a_basis_needs_a_generator_and_a_lift_needs_tracking():
    with pytest.raises(ValueError) as err:
        standard_basis([])
    assert type(err.value) is ValueError
    assert str(err.value) == "standard_basis needs at least one generator"
    with pytest.raises(ValueError) as err:
        localalg.normal_form_with_lift(X, standard_basis([X, Y]))
    assert type(err.value) is ValueError
    assert str(err.value) == "standard basis was built without lift tracking"


def test_minimal_power_membership():
    gens = [x3, y3, SPHERE]
    assert minimal_power_membership(0, gens, max_power=6)[0] == 1
    assert minimal_power_membership(1, gens, max_power=6)[0] == 1
    d, cert = minimal_power_membership(2, gens, max_power=6)
    assert d == 2
    assert cert.check()


def test_quotient_algebra_sphere():
    alg = quotient_algebra(standard_basis([SPHERE, y3, x3]))
    assert alg.dim == 2
    assert alg.basis == [(0, 0, 0), (0, 0, 1)]
    # z * 1 = z, z * z = 0 in the quotient
    assert alg.matrices[2] == [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert alg.matrices[0] == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]


def test_quotient_algebra_coordinates_roundtrip():
    # an element of the algebra is its own normal form, so its coordinates
    # read off normal_form on the basis are the vector it was built from
    alg = quotient_algebra(standard_basis([X**2 + Y**3, Y**2]))
    rng = random.Random(9)
    for _ in range(10):
        vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for _ in range(alg.dim)]
        terms = normal_form(alg.element(vec), alg.sb).terms
        assert [terms.get(e, 0) for e in alg.basis] == vec


def test_multiplication_matrices_commute():
    alg = quotient_algebra(standard_basis([X**3, Y**2]))
    a, b = alg.matrices
    dim = alg.dim
    ab = [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
          for i in range(dim)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(dim)) for j in range(dim)]
          for i in range(dim)]
    assert ab == ba


def test_multiplication_matrix_of_generator_is_zero_map_power():
    alg = quotient_algebra(standard_basis([X**2, Y**2]))
    mx = alg.multiplication_matrix(X)
    sq = [[sum(mx[i][k] * mx[k][j] for k in range(alg.dim)) for j in range(alg.dim)]
          for i in range(alg.dim)]
    assert all(v == 0 for row in sq for v in row)


def test_quotient_algebra_requires_finite():
    with pytest.raises(NotZeroDimensional):
        quotient_algebra(standard_basis([X]))


def test_is_regular_on_V():
    assert is_regular_on_V([SPHERE], y3, x3)
    assert not is_regular_on_V([SPHERE], Poly.zero(3), x3)
    assert not is_regular_on_V([], X, X)
    assert is_regular_on_V([], X, Y)


# the highest-corner cut ------------------------------------------------------
#
# An untracked basis cuts every term above the highest corner once the
# leading monomials leave finitely many quotient monomials; a tracked one
# keeps its full tails for the lifts.  The tracked run is the uncut
# reference: the two must agree on everything a caller can read.

def _ade_section(name, seed):
    """(f, m1, m2) for E6, E7 or E8 with the form (1, 2, 3) in random coordinates."""
    f = {"E6": x3**2 + y3**3 + z3**4,
         "E7": x3**2 + y3**3 + y3 * z3**3,
         "E8": x3**2 + y3**3 + z3**5}[name]
    omega = tuple(Poly.const(3, c) for c in (1, 2, 3))
    _, q = find_good_coordinates(GermProblem(3, (f,), omega, seed=seed),
                                 force_random=True)
    return list(q.f) + list(minors(q))


def _random_zero_dimensional(rng, n):
    """A pure power of every variable plus higher terms, and dense extras."""
    zs = [Poly.variable(n, i) for i in range(n)]
    gens = []
    for z in zs:
        a = rng.randint(1, 3)
        g = z**a
        for _ in range(rng.randint(0, 3)):
            e = [0] * n
            for _ in range(a + rng.randint(1, 2)):
                e[rng.randrange(n)] += 1
            g = g + Poly(n, {tuple(e): Fraction(rng.randint(-3, 3))})
        gens.append(g)
    for _ in range(rng.randint(0, 2)):
        g = Poly.zero(n)
        for _ in range(4):
            e = [0] * n
            for _ in range(rng.randint(2, 3)):
                e[rng.randrange(n)] += 1
            g = g + Poly(n, {tuple(e): Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
        gens.append(g)
    return gens


_RANDOM_IDEALS = [_random_zero_dimensional(random.Random(60 + k), 2 + k % 3)
                  for k in range(9)]
_INFINITE = [x3 * y3 + x3**2 * z3 + y3**3, x3 * z3 + y3 * z3**2]
_UNIT = [Poly.const(2, 1) + X, X * Y]


def _random_dividends(gens, cap, count=8):
    rng = random.Random(len(gens) * 1000 + cap)
    n = gens[0].nvars
    out = []
    for _ in range(count):
        p = Poly.zero(n)
        for _ in range(rng.randint(1, 6)):
            e = [0] * n
            for _ in range(rng.randint(0, cap + 2)):
                e[rng.randrange(n)] += 1
            p = p + Poly(n, {tuple(e): Fraction(rng.randint(-5, 5), rng.randint(1, 3))})
        out.append(p)
    return out + [g * h for g, h in zip(gens, out)]


def _assert_cut_matches_tracked(gens):
    cut = standard_basis(gens)
    full = standard_basis_at(gens, cut.cap, track=True)
    # one step up the staircase stays put: what the proof says for a finite
    # one, and what certified an infinite one
    assert standard_basis_at(gens, cut.cap + CAP_STEP).staircase == cut.staircase
    assert cut.staircase == full.staircase
    assert cut.quotient_monomials == full.quotient_monomials
    for p in _random_dividends(gens, cut.cap):
        assert normal_form(p, cut) == normal_form(p, full)
    return cut


@pytest.mark.parametrize("name", [name for name, _ in builtin_corpus()])
def test_corner_cut_on_corpus_ideals(name):
    gens = ideal_J(dict(builtin_corpus())[name])
    sb = _assert_cut_matches_tracked(gens)
    assert colength(sb) == stable_corank(gens)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_corner_cut_on_ade_in_random_coordinates(name, seed):
    gens = _ade_section(name, seed)
    sb = _assert_cut_matches_tracked(gens)
    assert colength(sb) == stable_corank(gens) == {"E6": 8, "E7": 9, "E8": 10}[name]


@pytest.mark.parametrize("k", range(len(_RANDOM_IDEALS)))
def test_corner_cut_on_random_zero_dimensional_ideals(k):
    gens = _RANDOM_IDEALS[k]
    sb = _assert_cut_matches_tracked(gens)
    assert colength(sb) == stable_corank(gens)


def test_corner_cut_on_infinite_and_unit_ideals():
    assert colength(_assert_cut_matches_tracked(_INFINITE)) == INFINITE
    unit = _assert_cut_matches_tracked(_UNIT)
    assert colength(unit) == 0 == stable_corank(_UNIT)
    assert all(normal_form(p, unit).is_zero()
               for p in _random_dividends(_UNIT, unit.cap))


def _differential_cases():
    """(id, generator maker): random ideals, corpus ideals, ADE sections."""
    cases = [(f"random-{k}", lambda k=k: _RANDOM_IDEALS[k])
             for k in range(len(_RANDOM_IDEALS))]
    cases += [(f"corpus-{name}", lambda p=p: ideal_J(p))
              for name, p in builtin_corpus()]
    cases += [(f"{name}-{seed}", lambda n=name, s=seed: _ade_section(n, s))
              for name in ["E6", "E7", "E8"] for seed in [1, 2, 3, 4]]
    return cases


@pytest.mark.parametrize("make", [pytest.param(make, id=case)
                                  for case, make in _differential_cases()])
def test_the_lowest_proving_cap_matches_the_default_cap(make):
    # a basis certified below DEFAULT_CAP reads the same as the run at it
    gens = make()
    sb = standard_basis(gens)
    reference = standard_basis_at(gens, DEFAULT_CAP)
    assert sb.is_finite() and sb.max_quotient_degree() < sb.cap <= DEFAULT_CAP
    assert sb.staircase == reference.staircase
    assert sb.quotient_monomials == reference.quotient_monomials
    for p in _random_dividends(gens, DEFAULT_CAP):
        assert normal_form(p, sb) == normal_form(p, reference)
    assert colength(sb) == stable_corank(gens)


def _tail_degrees(sb):
    """Total degree of every term of every element but its leading one."""
    out = []
    for p in sb.elements:
        lead = max(p.terms, key=LocalOrder(sb.nvars).key)
        out += [sum(e) for e in p.terms if e != lead]
    return out


def test_untracked_elements_stop_at_the_corner():
    # dense generators: uncut, the tails run up to the cap
    for gens in [_ade_section("E8", 1), _RANDOM_IDEALS[2]]:
        sb = standard_basis(gens)
        top = sb.max_quotient_degree()
        assert max(_tail_degrees(standard_basis_at(gens, DEFAULT_CAP,
                                                   track=True))) > top
        assert max(_tail_degrees(sb)) <= top
    # an infinite staircase never cuts
    sb = standard_basis(_INFINITE)
    assert not sb.is_finite()
    assert max(_tail_degrees(sb)) == sb.cap


def test_elements_are_built_on_first_read():
    for sb in [standard_basis(_ade_section("E8", 1)),
               standard_basis(_INFINITE),
               standard_basis_at(_RANDOM_IDEALS[2], 12, track=True)]:
        assert "elements" not in sb.__dict__
        kernel = sb._kernel.elems
        elements = sb.elements
        assert len(elements) == len(kernel)
        for p, g in zip(elements, kernel):
            lead = max(p.terms, key=LocalOrder(sb.nvars).key)
            assert lead == g.exp
            assert p.terms[lead] == 1
        assert sb.elements is elements


def test_minimal_power_raises_naming_the_bound():
    # no pure power of y in the staircase of (x): no power reduces
    sb = standard_basis([X])
    with pytest.raises(PowerCapExceeded) as info:
        minimal_power(1, sb, 5)
    assert str(info.value) == ("no power of variable 1 up to 5 lies in the "
                               f"ideal at cap {sb.cap}")
    # the staircase's pure power x^3 lies above the bound 2
    sb = standard_basis([X**3, Y])
    with pytest.raises(PowerCapExceeded) as info:
        minimal_power(0, sb, 2)
    assert str(info.value) == ("no power of variable 0 up to 2 lies in the "
                               f"ideal at cap {sb.cap}")
    assert minimal_power(0, sb, 3) == 3
    # the unit ideal: its staircase is the pure power z^0 of every variable
    assert minimal_power(1, standard_basis([X + 1]), 1) == 1


# the kernel's staircase record ------------------------------------------------
#
# _Kernel.add keeps the minimal leading exponents and each variable's pure
# power as elements arrive; the reference recomputes both from all the
# elements so far, as the completion once did after every insert.

def _staircase_from_scratch(kernel):
    lms = sorted({g.exp for g in kernel.elems}, key=lambda e: (sum(e), e))
    minimal = []
    for e in lms:
        if not any(mono_divides(f, e) for f in minimal):
            minimal.append(e)
    pure = [min((e[i] for e in minimal if sum(e) == e[i]), default=None)
            for i in range(kernel.nvars)]
    return minimal, pure


def _staircase_cases():
    from test_bench_inputs_oracle import benchmark_residue_ideals
    return benchmark_residue_ideals() + [
        (f"random-{k}", gens) for k, gens in enumerate(_RANDOM_IDEALS)] + [
        ("infinite", _INFINITE), ("unit", _UNIT)]


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
def test_the_staircase_record_matches_a_from_scratch_reference(track,
                                                               monkeypatch):
    real = _Kernel.add
    checked = []

    def checking(kernel, g):
        real(kernel, g)
        assert (kernel.stair, kernel.pure) == _staircase_from_scratch(kernel)
        checked.append(g)

    monkeypatch.setattr(_Kernel, "add", checking)
    for name, gens in _staircase_cases():
        sb = standard_basis(gens)
        if track:
            sb = standard_basis_at(gens, sb.cap, track=True)
        assert (sb.staircase, sb._kernel.pure) == \
            _staircase_from_scratch(sb._kernel), name
    assert len(checked) > 200


# the quotient monomials ------------------------------------------------------
#
# A basis lists its quotient monomials by one search from 1, and only when a
# caller first reads them.  The reference is a recursive prefix walk: for
# each prefix it raises the next exponent until the monomial
# prefix + (k, 0, ..., 0) lies in the ideal.

def _prefix_walk(stair, pure):
    if None in pure:
        return None
    nvars = len(pure)
    out = []

    def walk(prefix, i):
        rest = (0,) * (nvars - i - 1)
        for k in range(pure[i]):
            e = tuple(prefix) + (k,) + rest
            if any(mono_divides(s, e) for s in stair):
                return
            if rest:
                prefix.append(k)
                walk(prefix, i + 1)
                prefix.pop()
            else:
                out.append(e)

    walk([], 0)
    out.sort(key=lambda e: (sum(e), e))
    return out


def test_the_search_from_one_lists_what_the_prefix_walk_lists():
    finite = 0
    for name, gens in _staircase_cases():
        sb = standard_basis(gens)
        expected = _prefix_walk(sb.staircase, sb._kernel.pure)
        assert sb.quotient_monomials == expected, name
        assert sb.is_finite() == (expected is not None), name
        if expected is not None:
            finite += 1
            assert sb.max_quotient_degree() == \
                max(map(sum, expected), default=-1), name
    assert finite == len(_staircase_cases()) - 1    # all but the infinite one


_BOX = [(9, 0, 0, 0), (0, 9, 0, 0), (0, 0, 9, 0), (0, 0, 0, 9)]


@pytest.mark.parametrize("stair, count", [
    # the exponents below 9 in four variables
    (_BOX, 9**4),
    # the same box with corners cut off in every direction
    (_BOX + [(2, 3, 0, 0), (0, 1, 1, 4), (5, 0, 0, 1), (1, 1, 1, 1)], None),
    ([(0, 0, 0, 0)], 0),
], ids=["box", "cut-box", "unit"])
def test_the_search_from_one_on_four_variable_monomial_ideals(stair, count):
    pure = [next((s[i] for s in stair if sum(s) == s[i]), None)
            for i in range(4)]
    quot = localalg._quotient_monomials(stair, 4)
    assert quot == _prefix_walk(stair, pure)
    assert len(quot) == len(set(quot))
    assert count is None or len(quot) == count


def test_the_completion_never_lists_quotient_monomials(monkeypatch):
    real = localalg._quotient_monomials
    calls = []

    def counting(stair, nvars):
        calls.append(stair)
        return real(stair, nvars)

    cases = [_ade_section("E8", 1), _RANDOM_IDEALS[2], _INFINITE, _UNIT]
    monkeypatch.setattr(localalg, "_quotient_monomials", counting)
    for gens in cases:
        # certifying reads the top off the corners, not off a listing
        standard_basis(gens)
        assert calls == []
        for track in [False, True]:
            sb = standard_basis_at(gens, DEFAULT_CAP, track=track)
            assert calls == []
            assert "quotient_monomials" not in sb.__dict__
            quot = sb.quotient_monomials
            assert sb.quotient_monomials is quot
            assert len(calls) == sb.is_finite()
            calls.clear()


def _corners_from_scratch(stair, pure):
    """The maximal monomials the prefix walk lists; None when it lists
    infinitely many."""
    quot = _prefix_walk(stair, pure)
    if quot is None:
        return None
    return sorted(e for e in quot
                  if not any(e != f and mono_divides(e, f) for f in quot))


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
def test_the_corners_match_a_from_scratch_reference(track, monkeypatch):
    real = _Kernel.add
    checked = []

    def checking(kernel, g):
        real(kernel, g)
        expected = _corners_from_scratch(kernel.stair, kernel.pure)
        if expected is None:
            # a variable with no pure power yet keeps an unbounded field,
            # above every cap
            for i, p in enumerate(kernel.pure):
                if p is None:
                    assert any(c[i] > kernel.bound for c in kernel.corners)
        else:
            assert sorted(kernel.corners) == expected
        checked.append(expected is None)
    monkeypatch.setattr(_Kernel, "add", checking)
    for _, gens in _staircase_cases():
        sb = standard_basis(gens)
        if track:
            standard_basis_at(gens, sb.cap, track=True)
    # both states occur: before and after every variable has a pure power
    assert checked.count(True) > 50 and checked.count(False) > 50
