"""Standard bases, colength, normal forms, lifts, quotient algebras."""

import itertools
import random
from fractions import Fraction

import pytest

from icisres import localalg
from icisres.errors import CapExceeded, NotMember, NotZeroDimensional
from icisres.index import (GermProblem, eg_index, find_good_coordinates,
                            ideal_J, minors)
from icisres.localalg import (CAP_STEP, DEFAULT_CAP, INFINITE, LocalOrder,
                              _Kernel, colength, is_regular_on_V, lift,
                              minimal_power_membership, normal_form,
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
    kernel = _Kernel(nvars, DEFAULT_CAP, DEFAULT_CAP)
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


def test_packed_fields_widen_with_the_cap():
    kernel = _Kernel(3, 300, 300)
    assert kernel.width > _Kernel(3, DEFAULT_CAP, DEFAULT_CAP).width
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

    def counting(gens, cap, track, rep_cap=None):
        caps.append(cap)
        return real(gens, cap, track, rep_cap)

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
    alg = quotient_algebra(standard_basis([X**2 + Y**3, Y**2]))
    rng = random.Random(9)
    for _ in range(10):
        vec = [Fraction(rng.randint(-5, 5)) for _ in range(alg.dim)]
        assert alg.coordinates(alg.element(vec)) == vec


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
