import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsft.algebra import (
    SIDES,
    GradedSeries,
    Variable,
    multiply,
    partial,
    partial_right,
    poisson_bracket,
    reside,
    substitute,
)
from localsft import algebra
from localsft.algebra import _FIELDS, _odd, _runs, _slots, _substitute_canonical, _substitute_slots
from localsft.errors import (
    BadOrbit,
    DegreeMismatch,
    InvalidVariable,
    RegistryMismatch,
    TruncationOverflow,
)
from localsft.errors import LocalSFTError
from localsft.orbits import OrbitRegistry, ReebOrbit
from localsft.potentials import Potential, hamilton_jacobi_rhs

TRUNC = 6


def make_registry():
    return OrbitRegistry([
        ReebOrbit("a", "elliptic", theta=Fraction(3, 10), max_iterate=4),
        ReebOrbit("b", "hyperbolic", cz1=2),    # odd p/q variables
        ReebOrbit("c", "hyperbolic", cz1=-2),   # odd p/q variables
    ])


REG = make_registry()


def var(name, k=1, kind="q", side="middle"):
    return Variable(REG.get(name).iterate(k), kind, side)


def S(v, coeff=1):
    return GradedSeries.of(REG, TRUNC, v, coeff)


def const(c):
    return GradedSeries.constant(REG, TRUNC, c)


PA, QA = var("a", kind="p"), var("a", kind="q")
PA2, QA2 = var("a", 2, "p"), var("a", 2, "q")
PB, QB = var("b", kind="p"), var("b", kind="q")
PC, QC = var("c", kind="p"), var("c", kind="q")
ALL_VARS = [PA, QA, PA2, QA2, PB, QB, PC, QC]


def rand_series(rng, nterms=3, homogeneous=False):
    out = GradedSeries.zero(REG, TRUNC)
    candidates = []
    for _ in range(nterms * 4):
        term = const(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4)))
        for v in rng.sample(ALL_VARS, rng.randint(1, 3)):
            term = multiply(term, S(v))
        if not term.is_zero():
            candidates.append(term)
        if len(candidates) == nterms:
            break
    if homogeneous and candidates:
        target = candidates[0].degree()
        candidates = [t for t in candidates if t.degree() == target]
    for t in candidates:
        out = out + t
    return out


class TestMultiplication:
    def test_even_square(self):
        sq = multiply(S(QA), S(QA))
        assert sq.coefficient(((QA, 2),)) == 1

    def test_koszul_transposition(self):
        assert multiply(S(PB), S(QB)) == -multiply(S(QB), S(PB))

    def test_odd_square_vanishes(self):
        assert multiply(S(QB), S(QB)).is_zero()

    def test_mixed_parity_commutes_with_even(self):
        assert multiply(S(QA), S(QB)) == multiply(S(QB), S(QA))

    def test_truncation_in_p_degree(self):
        p7 = const(1)
        for _ in range(TRUNC + 1):
            p7 = multiply(p7, S(PA))
        assert p7.is_zero()

    def test_registry_mismatch(self):
        other = OrbitRegistry([ReebOrbit("z", "hyperbolic", cz1=2)])
        lhs = GradedSeries.of(REG, TRUNC, QA)
        rhs = GradedSeries.of(other, TRUNC,
                              Variable(other.get("z").iterate(1), "q", "middle"))
        with pytest.raises(RegistryMismatch):
            multiply(lhs, rhs)

    def test_truncation_mismatch(self):
        with pytest.raises(RegistryMismatch):
            multiply(S(QA), GradedSeries.of(REG, TRUNC + 1, QA))

    def test_shared_odd_variable_kills_merge(self):
        assert multiply(S(QB), S(QB)).is_zero()


class TestPartial:
    def test_left_derivative_even(self):
        qp = multiply(S(QA), S(PA))
        assert partial(qp, QA) == S(PA)
        qpp = multiply(qp, S(PA))
        assert partial(qpp, PA) == multiply(S(QA), S(PA)).scale(2)

    def test_left_derivative_odd_signs(self):
        xy = multiply(S(PB), S(QB))
        assert partial(xy, PB) == S(QB)
        assert partial(xy, QB) == S(PB, -1)

    def test_right_derivative_odd_signs(self):
        xy = multiply(S(PB), S(QB))
        assert partial_right(xy, QB) == S(PB)
        assert partial_right(xy, PB) == S(QB, -1)

    def test_missing_variable(self):
        assert partial(S(QA), PB).is_zero()


class TestBracket:
    def test_conjugate_pair_gives_kappa(self):
        assert poisson_bracket(S(PA2), S(QA2)) == const(2)
        assert poisson_bracket(S(PA), S(QA)) == const(1)
        assert poisson_bracket(S(PB), S(QB)) == const(1)

    def test_disjoint_variables_commute(self):
        f = multiply(S(QA), S(PA))
        g = multiply(S(QC), S(PC))
        assert poisson_bracket(f, g).is_zero()

    def test_degree_shift_is_plus_two(self):
        f = multiply(S(PA), S(QA2))
        g = multiply(S(QA), S(PA2))
        br = poisson_bracket(f, g)
        assert not br.is_zero()
        assert br.degree() == f.degree() + g.degree() + 2


class TestSubstitute:
    def test_identity_assignment(self):
        f = multiply(S(QA), S(PA)) + S(QB, 3)
        assert substitute(f, {}) == f

    def test_linear_rescale(self):
        f = multiply(S(QA), S(PA))
        assert substitute(f, {QA: S(QA, 2)}) == f.scale(2)

    def test_degree_check(self):
        with pytest.raises(DegreeMismatch):
            substitute(S(PA), {PA: S(QA)})

    def test_degree_check_off(self):
        got = substitute(multiply(S(PA), S(PA)), {PA: S(QA)}, check_degrees=False)
        assert got == multiply(S(QA), S(QA))

    def test_truncation_guard(self):
        with pytest.raises(TruncationOverflow):
            substitute(S(PA), {PA: const(1)}, check_degrees=False,
                       guard_truncation=True)

    def test_reside_preserves_signs(self):
        f = multiply(S(PB), S(QB))
        moved = reside(f, kind="p", side="middle", new_side="plus")
        back = reside(moved, kind="p", side="plus", new_side="middle")
        assert back == f


class TestVariables:
    def test_bad_orbit_variable_rejected(self):
        bad = ReebOrbit("x", "hyperbolic", cz1=1)
        with pytest.raises(BadOrbit):
            Variable(bad.iterate(2), "q")

    def test_render(self):
        assert QA.render() == "q~[a]"
        assert Variable(REG.get("a").iterate(2), "p", "plus").render() == "p+[a^2]"


def test_canonical_rendering_golden():
    series = (multiply(multiply(S(QA), S(PA)), S(PA)).scale(Fraction(-1, 4))
              + multiply(S(PB), S(QB)).scale(2)
              + S(var("a", 2, "q", "plus"), Fraction(1, 3))
              + const(5))
    assert series.render() == (
        "5 + 1/3*q+[a^2] + 2*p~[b]*q~[b] - 1/4*p~[a]^2*q~[a]")
    # rendering is a pure function of the term multiset
    rebuilt = const(5) + S(var("a", 2, "q", "plus"), Fraction(1, 3)) \
        + multiply(S(PB), S(QB)).scale(2) \
        + multiply(S(PA), multiply(S(PA), S(QA))).scale(Fraction(-1, 4))
    assert rebuilt.render() == series.render()


# -- randomized exact property suite ----------------------------------------


def bracket_sign(f, g):
    return -1 if (f.degree() or 0) * (g.degree() or 0) % 2 else 1


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(300):
        f = rand_series(rng, homogeneous=True)
        g = rand_series(rng, homogeneous=True)
        h = rand_series(rng)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))
        assert multiply(f, g) == multiply(g, f).scale(bracket_sign(f, g))


def test_leibniz_random():
    rng = random.Random(8)
    for _ in range(300):
        f = rand_series(rng, homogeneous=True)
        g = rand_series(rng)
        v = rng.choice(ALL_VARS)
        sign = -1 if v.degree * (f.degree() or 0) % 2 else 1
        assert partial(multiply(f, g), v) == (
            multiply(partial(f, v), g) + multiply(f, partial(g, v)).scale(sign))


def test_bracket_antisymmetry_and_jacobi_random():
    rng = random.Random(9)
    for _ in range(250):
        f = rand_series(rng, homogeneous=True)
        g = rand_series(rng, homogeneous=True)
        h = rand_series(rng, homogeneous=True)
        assert (poisson_bracket(f, g)
                + poisson_bracket(g, f).scale(bracket_sign(f, g))).is_zero()
        lhs = poisson_bracket(f, poisson_bracket(g, h))
        rhs = (poisson_bracket(poisson_bracket(f, g), h)
               + poisson_bracket(g, poisson_bracket(f, h)).scale(bracket_sign(f, g)))
        assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(range(len(ALL_VARS))), min_size=1, max_size=4),
       st.lists(st.sampled_from(range(len(ALL_VARS))), min_size=1, max_size=4))
def test_sign_consistency_of_products(left, right):
    # building a product letter-by-letter in any bracketing gives one answer
    lhs = const(1)
    for i in left + right:
        lhs = multiply(lhs, S(ALL_VARS[i]))
    a = const(1)
    for i in left:
        a = multiply(a, S(ALL_VARS[i]))
    b = const(1)
    for i in right:
        b = multiply(b, S(ALL_VARS[i]))
    assert lhs == multiply(a, b)


def _letter_list_product(letters):
    """Independent sign oracle: sort expanded letters, count odd-odd swaps."""
    letters = list(letters)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1].key > letters[j].key:
            if letters[j - 1].odd and letters[j].odd:
                sign = -sign
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            j -= 1
    for u, v in zip(letters, letters[1:]):
        if u == v and u.odd:
            return None, 0
    return tuple(letters), sign


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(range(len(ALL_VARS))), min_size=1, max_size=5))
def test_products_match_letter_list_oracle(indices):
    letters = [ALL_VARS[i] for i in indices]
    series = const(1)
    for v in letters:
        series = multiply(series, S(v))
    sorted_letters, sign = _letter_list_product(letters)
    if sorted_letters is None:
        assert series.is_zero()
        return
    ((mono, coeff),) = series.terms()
    expanded = tuple(v for v, e in mono for _ in range(e))
    assert expanded == sorted_letters
    assert coeff == sign


# -- slow oracle for the kappa pairing ----------------------------------------

ITERATES = [REG.get("a").iterate(1), REG.get("a").iterate(2),
            REG.get("b").iterate(1), REG.get("c").iterate(1)]
SIDED_PAIRS = [(Variable(it, "p", side), Variable(it, "q", side))
               for it in ITERATES for side in ("middle", "plus")]
SIDED_VARS = [v for pair in SIDED_PAIRS for v in pair]


def _series_from(spec):
    out = GradedSeries.zero(REG, TRUNC)
    for num, den, letters in spec:
        term = const(Fraction(num, den))
        for i in letters:
            term = multiply(term, S(SIDED_VARS[i]))
        out = out + term
    return out


series_strategy = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 3),
              st.lists(st.integers(0, len(SIDED_VARS) - 1), max_size=3)),
    max_size=4).map(_series_from)


def _reference_pairing(a, b):
    """sum kappa dR a/dp * dL b/dq over every conjugate pair of the registry."""
    out = GradedSeries.zero(REG, TRUNC)
    for p, q in SIDED_PAIRS:
        out = out + multiply(partial_right(a, p), partial(b, q)).scale(p.kappa)
    return out


def _reference_bracket(f, g):
    """The bracket extended bilinearly from single terms."""
    out = GradedSeries.zero(REG, TRUNC)
    for mono_f, coeff_f in f.terms():
        a = GradedSeries(REG, TRUNC, {mono_f: coeff_f})
        for mono_g, coeff_g in g.terms():
            b = GradedSeries(REG, TRUNC, {mono_g: coeff_g})
            sign = -1 if a.degree() * b.degree() % 2 else 1
            out = out + _reference_pairing(a, b) - _reference_pairing(b, a).scale(sign)
    return out


@settings(max_examples=150, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_pairing_matches_slow_oracle(f, g, k):
    assert poisson_bracket(f, g) == _reference_bracket(f, g)
    h_plus = Potential(f, q_side="middle", p_side="middle")
    h_minus = Potential(g, q_side="plus", p_side="plus")
    assert hamilton_jacobi_rhs(h_plus, h_minus, k) == (
        _reference_pairing(f, k) + _reference_pairing(k, g))


# -- slot kernel: substitution oracle, registry identity, registry growth ------

def _reference_substitute(f, assignment):
    """Images multiplied in letter by letter, using only ``multiply``."""
    out = GradedSeries.zero(REG, TRUNC)
    for mono, coeff in f.terms():
        acc = const(coeff)
        for v, e in mono:
            for _ in range(e):
                acc = multiply(acc, assignment.get(v, S(v)))
        out = out + acc
    return out


def _powers_series(spec):
    """Terms with exponents 1 or 2; squares of odd letters vanish."""
    out = GradedSeries.zero(REG, TRUNC)
    for num, den, letters in spec:
        term = const(Fraction(num, den))
        for i, e in letters:
            for _ in range(e):
                term = multiply(term, S(SIDED_VARS[i]))
        out = out + term
    return out


powers_strategy = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 3),
              st.lists(st.tuples(st.integers(0, len(SIDED_VARS) - 1), st.sampled_from((1, 2))),
                       max_size=3)),
    max_size=5).map(_powers_series)


@settings(max_examples=150, deadline=None)
@given(powers_strategy,
       st.dictionaries(st.integers(0, len(SIDED_VARS) - 1), series_strategy, max_size=3))
def test_substitute_matches_letter_by_letter_oracle(f, images):
    # images of any parity (odd ones included); unassigned letters stay put
    assignment = {SIDED_VARS[i]: image for i, image in images.items()}
    assert substitute(f, assignment, check_degrees=False) == _reference_substitute(f, assignment)


# -- reside against substitution of one-letter images ---------------------------

ALL_SIDED_VARS = [Variable(it, kind, side) for it in ITERATES for kind in ("p", "q")
                  for side in SIDES]


def _substitute_reside(f, *, kind, side, new_side, orbit_names=None):
    """The retag as a substitution of one-letter images: the slow oracle of ``reside``."""
    assignment = {}
    for v in f.variables():
        if v.kind != kind or v.side != side:
            continue
        if orbit_names is not None and v.iterate.orbit.name not in orbit_names:
            continue
        new_v = Variable(v.iterate, v.kind, new_side)
        assignment[v] = GradedSeries.of(f.registry, f.truncation, new_v)
    return substitute(f, assignment)


def _outcome(call):
    try:
        return call()
    except LocalSFTError as err:
        return type(err), str(err)


def _sided_series(spec):
    return GradedSeries(REG, TRUNC, {tuple((ALL_SIDED_VARS[i], 1) for i in letters):
                                     Fraction(num, den) for num, den, letters in spec})


def _sided(name, kind, side):
    return ALL_SIDED_VARS.index(Variable(REG.get(name).iterate(1), kind, side))


# p-[b] p+[b]: moving p+ to the middle puts it before p-[b], one odd swap;
# p~[b] p+[b]: moving p+ to the middle squares the odd p~[b]
SIGN_SPEC = [(2, 3, (_sided("b", "p", "minus"), _sided("b", "p", "plus"))),
             (1, 1, (_sided("b", "p", "middle"), _sided("b", "p", "plus"),
                     _sided("c", "q", "minus"))),
             (-1, 2, (_sided("a", "p", "plus"), _sided("c", "p", "plus"),
                      _sided("b", "q", "middle")))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3),
                          st.lists(st.integers(0, len(ALL_SIDED_VARS) - 1), max_size=4)),
                max_size=5),
       st.sampled_from(("p", "q", "r")),
       st.sampled_from(SIDES + ("left",)),
       st.sampled_from(SIDES + ("left",)),
       st.sampled_from((None, set(), {"a"}, {"b", "c"}, {"c", "zz"}, ("b",))))
@example(SIGN_SPEC, "p", "plus", "middle", None)
@example(SIGN_SPEC, "p", "plus", "middle", {"b", "zz"})
@example(SIGN_SPEC, "p", "minus", "plus", {"b"})
@example(SIGN_SPEC, "p", "plus", "left", None)
@example(SIGN_SPEC, "p", "plus", "left", {"zz"})
@example(SIGN_SPEC, "r", "plus", "middle", None)
@example(SIGN_SPEC, "q", "left", "middle", None)
def test_reside_matches_substitution_oracle(spec, kind, side, new_side, orbit_names):
    # odd letters, side collisions that re-sort or square, unknown names, and bad
    # kinds and sides: the same series or the same error on every input
    f = _sided_series(spec)
    args = dict(kind=kind, side=side, new_side=new_side, orbit_names=orbit_names)
    got = _outcome(lambda: reside(f, **args))
    assert got == _outcome(lambda: _substitute_reside(f, **args))


def test_reside_sign_cases():
    f = _sided_series(SIGN_SPEC)
    moved = reside(f, kind="p", side="plus", new_side="middle", orbit_names={"b"})
    # the first term re-sorts past p-[b], the second squares p~[b], the third stays
    assert moved.render() == "-2/3*p~[b]*p-[b] + 1/2*p+[a]*q~[b]*p+[c]"
    with pytest.raises(InvalidVariable):
        reside(f, kind="p", side="plus", new_side="left")
    assert reside(f, kind="p", side="plus", new_side="left", orbit_names={"zz"}) == f


def _twin(series, registry):
    """The same series rebuilt over another registry from its public terms."""
    def move(v):
        return Variable(registry.get(v.iterate.orbit.name).iterate(v.iterate.k), v.kind, v.side)
    return GradedSeries(registry, TRUNC, {tuple((move(v), e) for v, e in mono): coeff
                                          for mono, coeff in series.terms()})


@settings(max_examples=80, deadline=None)
@given(series_strategy, series_strategy)
def test_equal_but_distinct_registries_agree(f, g):
    other = make_registry()
    assert other == REG and other is not REG
    f2 = _twin(f, other)
    assert f2 == f and f2.render() == f.render()
    assert f2 + g == f + g
    assert multiply(f2, g) == multiply(f, g) == multiply(f2, _twin(g, other))
    assert poisson_bracket(f2, g) == poisson_bracket(f, g)
    assert multiply(f2, g).render() == multiply(f, g).render()


def test_adding_an_orbit_after_series_exist_keeps_their_order():
    reg = make_registry()
    qb = GradedSeries.of(reg, TRUNC, Variable(reg.get("b").iterate(1), "q"))
    pc = GradedSeries.of(reg, TRUNC, Variable(reg.get("c").iterate(1), "p"))
    f = multiply(pc, qb)
    assert f.render() == "-q~[b]*p~[c]"
    first = ReebOrbit("A", "hyperbolic", cz1=2)   # sorts before every name in use
    try:
        reg.add(first)
    except LocalSFTError:
        assert "A" not in reg
    else:
        pa = GradedSeries.of(reg, TRUNC, Variable(first.iterate(1), "p"))
        assert multiply(f, pa).render() == "-p~[A]*q~[b]*p~[c]"
    assert f.render() == "-q~[b]*p~[c]"
    last = reg.add(ReebOrbit("z", "hyperbolic", cz1=2))
    qz = GradedSeries.of(reg, TRUNC, Variable(last.iterate(1), "q"))
    assert multiply(qz, f).render() == "-q~[b]*p~[c]*q~[z]"
    assert f.render() == "-q~[b]*p~[c]"


def test_nonpositive_truncation_is_a_library_error():
    with pytest.raises(LocalSFTError) as err:
        GradedSeries.zero(REG, 0)
    assert isinstance(err.value, ValueError)


def test_constructor_sorts_even_letters():
    f = GradedSeries(REG, TRUNC, {((QA2, 1), (QA, 1)): 3})
    assert f == multiply(S(QA), S(QA2)).scale(3)
    assert f.render() == "3*q~[a]*q~[a^2]"
    assert f.coefficient(((QA2, 1), (QA, 1))) == f.coefficient(((QA, 1), (QA2, 1))) == 3


def test_constructor_sorts_odd_letters_with_their_sign():
    f = GradedSeries(REG, TRUNC, {((QC, 1), (QB, 1)): 2})
    assert f == multiply(S(QC), S(QB)).scale(2) == multiply(S(QB), S(QC)).scale(-2)
    assert f.coefficient(((QB, 1), (QC, 1))) == -2
    assert f.coefficient(((QC, 1), (QB, 1))) == 2
    both_orders = GradedSeries(REG, TRUNC, {((QC, 1), (QB, 1)): 1, ((QB, 1), (QC, 1)): 1})
    assert both_orders.is_zero()
    assert GradedSeries(REG, TRUNC, {((QB, 1), (QA, 1), (QB, 1)): 1}).is_zero()
    assert GradedSeries(REG, TRUNC, {((QB, 2),): 1}).is_zero()
    assert f.coefficient(((QB, 1), (QB, 1))) == 0


# -- integer-numerator kernel against plain Fraction arithmetic ----------------

PRIMES = [n for n in range(2, 98) if all(n % d for d in range(2, n))]

prime_fractions = st.builds(lambda num, primes: Fraction(num, math.prod(primes)),
                            st.integers(-60, 60).filter(bool),
                            st.lists(st.sampled_from(PRIMES), max_size=3))


def _prime_series(spec):
    """Sum of terms; a paired term also adds ``whole - coeff``, so the two sum to an integer."""
    out = GradedSeries.zero(REG, TRUNC)
    for coeff, whole, paired, letters in spec:
        for c in (coeff, whole - coeff) if paired else (coeff,):
            term = const(c)
            for i in letters:
                term = multiply(term, S(SIDED_VARS[i]))
            out = out + term
    return out


prime_series = st.lists(
    st.tuples(prime_fractions, st.integers(-2, 2), st.booleans(),
              st.lists(st.integers(0, len(SIDED_VARS) - 1), max_size=3)),
    max_size=4).map(_prime_series)


def _fraction_terms(series):
    """The public terms as {expanded letters: Fraction}."""
    return {tuple(v for v, e in mono for _ in range(e)): c for mono, c in series.terms()}


def _fraction_product(a, b):
    """Product of two {letters: Fraction} maps by the letter-list oracle, truncated in p."""
    out = {}
    for letters_a, coeff_a in a.items():
        for letters_b, coeff_b in b.items():
            letters, sign = _letter_list_product(letters_a + letters_b)
            if letters is not None and sum(v.kind == "p" for v in letters) <= TRUNC:
                out[letters] = out.get(letters, 0) + sign * coeff_a * coeff_b
    return {m: c for m, c in out.items() if c}


def _fraction_substitute(f, images):
    out = {}
    for letters, coeff in f.items():
        acc = {(): coeff}
        for v in letters:
            acc = _fraction_product(acc, images.get(v, {(v,): Fraction(1)}))
        for m, c in acc.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _fraction_sum(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


@settings(max_examples=120, deadline=None)
@given(prime_series, prime_series, prime_fractions,
       st.dictionaries(st.integers(0, len(SIDED_VARS) - 1), prime_series, max_size=2))
def test_integer_kernel_matches_fraction_oracle(f, g, c, images):
    ff, gg = _fraction_terms(f), _fraction_terms(g)
    assert _fraction_terms(multiply(f, g)) == _fraction_product(ff, gg)
    assert poisson_bracket(f, g) == _reference_bracket(f, g)
    assignment = {SIDED_VARS[i]: image for i, image in images.items()}
    assert _fraction_terms(substitute(f, assignment, check_degrees=False)) == _fraction_substitute(
        ff, {v: _fraction_terms(image) for v, image in assignment.items()})
    assert _fraction_terms(f.scale(c)) == {m: x * c for m, x in ff.items()}
    assert _fraction_terms(f + g) == _fraction_sum(ff, gg)
    assert _fraction_terms(f - g) == _fraction_sum(ff, gg, -1)
    # canonical form: equal series are equal however they were reached
    assert f.scale(c).scale(1 / c) == f
    assert (f + g) - g == f
    for cancelled in (f - f, f + f.scale(-1), f.scale(0)):
        assert cancelled.is_zero() and cancelled.render() == "0"
        assert cancelled == GradedSeries.zero(REG, TRUNC)
    for series in (f, multiply(f, g), f + g):
        assert all(type(x) is Fraction for _, x in series.terms())
        for mono, _ in series.terms():
            assert type(series.coefficient(mono)) is Fraction
    assert type(f.coefficient(((PB, 1), (PC, 1), (QA, 3)))) is Fraction


def _odd_monomials():
    """Monomials of up to three sided letters, grouped by odd degree."""
    out = {}
    for size in (1, 2, 3):
        for letters in combinations_with_replacement(SIDED_VARS, size):
            if any(v.odd and letters.count(v) > 1 for v in letters):
                continue
            degree = sum(v.degree for v in letters)
            if degree % 2:
                out.setdefault(degree, []).append(letters)
    return out


ODD_MONOMIALS = _odd_monomials()


def _homogeneous(degree):
    monos = ODD_MONOMIALS[degree]
    return st.lists(st.tuples(prime_fractions, st.integers(0, len(monos) - 1)),
                    min_size=1, max_size=3).map(lambda spec: GradedSeries(
                        REG, TRUNC, {tuple((v, 1) for v in monos[i]): c for c, i in spec}))


odd_degrees = st.sampled_from(sorted(d for d in ODD_MONOMIALS if -5 <= d <= 3))


@settings(max_examples=150, deadline=None)
@given(odd_degrees.flatmap(_homogeneous), odd_degrees.flatmap(_homogeneous))
def test_odd_odd_bracket_matches_slow_oracle(f, g):
    # both odd: the bracket is P(f, g) + P(g, f), so the 2 P(g_odd, f_odd) term is all of P(g, f)
    assert f.degree() % 2 == 1 and g.degree() % 2 == 1
    assert poisson_bracket(f, g) == _reference_bracket(f, g)


# -- packed monomials: the letter-list oracle, field order, the letter bound ----

# a term: nonzero numerator, sided letters (odd ones included), a power of one even
# q-variable up to 40, and p-letters of p~[a] up to the truncation, so that the p-degrees
# of a pair straddle the truncation
_EVEN_QS = [QA, QA2, var("a", 1, "q", "plus")]
_packed_term = st.tuples(
    st.integers(-5, 5).filter(bool),
    st.lists(st.integers(0, len(SIDED_VARS) - 1), max_size=3),
    st.sampled_from(_EVEN_QS), st.integers(0, 40), st.integers(0, TRUNC))


def _packed_series(spec):
    return GradedSeries(REG, TRUNC, {
        tuple((SIDED_VARS[i], 1) for i in letters) + ((q, q_exp), (PA, p_exp)): coeff
        for coeff, letters, q, q_exp, p_exp in spec})


@settings(max_examples=100, deadline=None)
@given(st.lists(_packed_term, max_size=4), st.lists(_packed_term, max_size=4))
def test_packed_products_match_letter_list_oracle(f_spec, g_spec):
    f, g = _packed_series(f_spec), _packed_series(g_spec)
    assert _fraction_terms(multiply(f, g)) == _fraction_product(
        _fraction_terms(f), _fraction_terms(g))


@settings(max_examples=150, deadline=None)
@given(powers_strategy, powers_strategy, st.integers(-3, 3),
       st.sampled_from((None, 0, 1, 2, 3, 5)))
def test_a_product_given_an_order_builds_no_longer_term(f, g, scale, order):
    def length(code):
        return sum(e for _, e in _runs(code))

    right = algebra._right(g._terms)
    cut = algebra._add_product({}, f._terms, right, TRUNC, scale, order)
    uncut = algebra._add_product({}, f._terms, right, TRUNC, scale)
    if order is not None:  # zero numerators included
        assert all(length(code) <= order for code in cut)
    assert {m: c for m, c in cut.items() if c} == {
        m: c for m, c in uncut.items() if c and (order is None or length(m) <= order)}


_FIELD_ORDER_SCRIPT = """
import sys
from fractions import Fraction
from localsft import algebra
from localsft.algebra import GradedSeries, Variable, multiply, poisson_bracket, reside
from localsft.orbits import OrbitRegistry, ReebOrbit

reg = OrbitRegistry([ReebOrbit("a", "elliptic", theta=Fraction(3, 10), max_iterate=4),
                     ReebOrbit("b", "hyperbolic", cz1=2), ReebOrbit("c", "hyperbolic", cz1=-2)])
letters = [Variable(reg.get(name).iterate(k), kind, side)
           for name, k in (("a", 1), ("a", 2), ("b", 1), ("c", 1))
           for kind in ("p", "q") for side in ("middle", "plus")]
if sys.argv[1] == "reversed":
    letters.reverse()
for v in letters:  # the series kernel meets the variables in this order
    GradedSeries.of(reg, 6, v)
print(algebra._FIELDS.slots[0], file=sys.stderr)
letters.sort(key=lambda v: v.key)
terms = {}
for i in range(12):
    word = [letters[(5 * i + 3 * j) % len(letters)] for j in range(1 + i % 4)]
    terms[tuple((v, 1) for v in word)] = Fraction(i - 5, 1 + i % 3)
f = GradedSeries(reg, 6, terms)
g = reside(multiply(f, f) + f, kind="p", side="plus", new_side="middle")
for series in (f, g, multiply(f, g), poisson_bracket(f, g)):
    print(series.render())
    print(series.terms())
"""


def test_first_seen_field_order_never_reaches_output():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    runs = [subprocess.run([sys.executable, "-c", _FIELD_ORDER_SCRIPT, order], env=env,
                           capture_output=True, text=True, check=True)
            for order in ("forward", "reversed")]
    assert runs[0].stderr != runs[1].stderr  # the two processes gave the slots other fields
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.count("\n") == 8 and "-" in runs[0].stdout


_SUBSTITUTE_ORDER_SCRIPT = """
import sys
from fractions import Fraction
from localsft import algebra
from localsft.algebra import GradedSeries, Variable, substitute
from localsft.orbits import OrbitRegistry, ReebOrbit

reg = OrbitRegistry([ReebOrbit("a", "elliptic", theta=Fraction(3, 10), max_iterate=4),
                     ReebOrbit("b", "hyperbolic", cz1=2), ReebOrbit("c", "hyperbolic", cz1=-2)])
letters = [Variable(reg.get(name).iterate(k), kind, side)
           for name, k in (("a", 1), ("a", 2), ("b", 1), ("c", 1))
           for kind in ("p", "q") for side in ("middle", "plus")]
if sys.argv[1] == "reversed":
    letters.reverse()
for v in letters:  # the series kernel meets the variables in this order
    GradedSeries.of(reg, 6, v)
print(algebra._FIELDS.slots[0], file=sys.stderr)
letters.sort(key=lambda v: v.key)
terms = {}
for i in range(14):
    word = [letters[(5 * i + 3 * j) % len(letters)] for j in range(1 + i % 5)]
    terms[tuple((v, 1 + (j == 0 and not v.odd)) for j, v in enumerate(word))] = Fraction(i - 6, 1 + i % 4)
pa, qa, pb, qb, pc = (letters[i] for i in (0, 2, 8, 10, 12))
terms[((pb, 1), (qb, 1), (pc, 1), (letters[14], 1), (qa, 2))] = 5  # moved odd letters interleaved
terms[((letters[9], 1), (pc, 1), (pb, 1))] = Fraction(-7, 3)
f = GradedSeries(reg, 6, terms)
one = lambda v, c=1: GradedSeries.of(reg, 6, v, c)
odd_image = one(pc, 3) + (one(qa) * one(pb)).scale(Fraction(1, 2))
even_image = one(qa) * one(qa) + one(qb) * one(pc) + GradedSeries.constant(reg, 6, 2)
for assignment in ({pb: odd_image, pc: one(pb, -1) + one(qa) * one(pc), pa: even_image},
                   {pb: even_image, pa: odd_image, qb: one(qa)}):  # parity-breaking
    series = substitute(f, assignment, check_degrees=False)
    print(series.render())
    print(series.terms())
"""


def test_first_seen_field_order_never_reaches_substitution_output():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    runs = [subprocess.run([sys.executable, "-c", _SUBSTITUTE_ORDER_SCRIPT, order], env=env,
                           capture_output=True, text=True, check=True)
            for order in ("forward", "reversed")]
    assert runs[0].stderr != runs[1].stderr  # the two processes gave the slots other fields
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.count("\n") == 4 and "-" in runs[0].stdout


def test_products_over_equal_but_distinct_registries():
    other = make_registry()
    # the other registry's variables are met first, in an order of their own
    twins = [Variable(other.get(v.iterate.orbit.name).iterate(v.iterate.k), v.kind, v.side)
             for v in reversed(SIDED_VARS)]
    f = _packed_series([(3, [4, 5, 1], QA, 2, 1), (-1, [7, 12], QA2, 0, 3)])
    g = GradedSeries(other, TRUNC, {((twins[3], 1), (twins[10], 1)): Fraction(2, 3),
                                    ((twins[2], 1), (twins[8], 2)): 5})
    g_here = _twin(g, REG)
    assert multiply(f, g) == multiply(f, g_here) == multiply(_twin(f, other), g)
    assert multiply(g, f).render() == multiply(g_here, f).render()
    assert multiply(f, g)._terms == multiply(f, g_here)._terms


def test_a_monomial_of_too_many_letters_is_refused_where_it_is_built():
    limit = (1 << 16) - 1
    assert GradedSeries(REG, TRUNC, {((QA, limit),): 1}).coefficient(((QA, limit),)) == 1
    with pytest.raises(TruncationOverflow, match="65536 letters"):
        GradedSeries(REG, TRUNC, {((QA, limit - 1), (QA2, 2)): 1})


def test_a_product_of_too_many_letters_is_refused_once_per_left_term():
    long_q = GradedSeries(REG, TRUNC, {((QA, 40000),): 1, ((QA2, 1),): 1})
    fits = GradedSeries(REG, TRUNC, {((QA, 25535),): 1})
    assert multiply(long_q, fits).coefficient(((QA, 65535),)) == 1
    with pytest.raises(TruncationOverflow, match="65536 letters"):
        multiply(long_q, GradedSeries(REG, TRUNC, {((QA, 25536),): 1, ((PB, 1),): 1}))


# -- substitution as a homomorphism: the field-order path against the canonical loop --

def _letters_series(spec):
    """Terms of sided letters; even letters may be squared, odd ones appear once."""
    return _powers_series([(num, den, [(i, 1 if SIDED_VARS[i].odd else e) for i, e in letters])
                           for num, den, letters in spec])


def _parity_image(spec, odd):
    """An image of parity ``odd``: a term of the other parity gains the odd letter p+[c]."""
    image = _letters_series(spec)
    flip = GradedSeries._of_packed(REG, TRUNC, {m: c for m, c in image._terms.items()
                                                if _odd(m) != odd}, image._den)
    return image - flip + multiply(flip, S(var("c", 1, "p", "plus")))


def _raw_checked(result, order):
    """``(nonzero terms, lift)`` of a raw kernel result, after checking that no code in
    it, zero numerators included, has more than ``order`` letters."""
    terms, lift = result
    if order is not None:
        assert all(sum(e for _, e in _runs(code)) <= order for code in terms)
    return {code: c for code, c in terms.items() if c}, lift


_letter = st.tuples(st.integers(0, len(SIDED_VARS) - 1), st.sampled_from((1, 2)))
# a term: numerator, denominator and letters; an image term may have no letter, a
# constant of p-degree 0
_hom_series = st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3),
                                 st.lists(_letter, min_size=1, max_size=5)),
                       min_size=1, max_size=5)
_image_spec = st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3),
                                 st.lists(_letter, max_size=2)),
                       min_size=1, max_size=3)
@settings(max_examples=200, deadline=None)
@given(_hom_series, st.lists(st.tuples(st.integers(0, 15), _image_spec), min_size=1, max_size=3),
       st.sampled_from((None, 0, 1, 2, 3, 5)))
@example([(3, 1, [(1, 2), (8, 1), (11, 1)]), (-1, 2, [(1, 1), (10, 1)])],
         [(0, [(1, 2, [(0, 2)]), (5, 1, [])])], 3)
def test_homomorphism_substitution_matches_the_canonical_loop(spec, image_specs, order):
    # images of letters of f, each of its slot's parity, so the field-order path runs
    f = _letters_series(spec)
    used, var = f.variables() or [QA], _slots(REG)
    images = {}
    for i, image_spec in image_specs:
        slot = var.slot(used[i % len(used)])
        image = _parity_image(image_spec, slot & 1)
        images[slot] = (image._terms, image._den)
    assert (_raw_checked(_substitute_slots(f._terms, images, TRUNC, order), order)
            == _raw_checked(_substitute_canonical(f._terms, images, TRUNC, order), order))


def test_homomorphism_substitution_with_odd_letters_interleaved():
    # every other odd letter in this process's field order is moved, so each moved letter
    # has untouched odd letters below it; the images take odd letters of the minus side
    var = _slots(REG)
    odd = sorted((v for v in SIDED_VARS if v.odd), key=lambda v: _FIELDS[var.slot(v)])
    minus = [Variable(it, kind, "minus") for it in ITERATES[2:] for kind in ("p", "q")]
    f = GradedSeries(REG, TRUNC, {tuple((v, 1) for v in odd[:k]) + ((QA, k % 3),): k - 5
                                  for k in range(2, len(odd) + 1)})
    assignment = {v: S(minus[i]).scale(i + 1) + multiply(S(QA), S(minus[i - 1])).scale(-2)
                  + multiply(multiply(S(minus[i - 2]), S(minus[i - 3])), S(minus[i - 1]))
                  for i, v in enumerate(odd[1::2])}
    images = {var.slot(v): (image._terms, image._den) for v, image in assignment.items()}
    for order in (None, 4, 7):
        got = _raw_checked(_substitute_slots(f._terms, images, TRUNC, order), order)
        assert got[1] == 1
        assert got == _raw_checked(_substitute_canonical(f._terms, images, TRUNC, order), order)
    got = substitute(f, assignment, check_degrees=False)
    assert got == _reference_substitute(f, assignment) and not got.is_zero()


def test_reside_moves_an_odd_letter_across_odd_fields():
    # iterates no other test uses, met in this order: the retagged p+[b^7] moves to the
    # field of p~[b^7] past the three odd fields met in between
    b7, c7 = REG.get("b").iterate(7), REG.get("c").iterate(7)
    old, new = Variable(b7, "p", "plus"), Variable(b7, "p", "middle")
    between = [Variable(c7, "q", "minus"), Variable(c7, "p", "plus"), Variable(b7, "q", "middle")]
    for v in [old, *between, new]:
        S(v)
    field = {v: _FIELDS[_slots(REG).slot(v)] for v in [old, *between, new]}
    assert all(field[old] < field[v] < field[new] for v in between)
    assert all(v.odd for v in [old, *between, new])
    f = GradedSeries(REG, TRUNC, {
        ((old, 1), (between[0], 1), (between[1], 1), (between[2], 1), (QA, 2)): 2,  # three signs
        ((old, 1), (between[0], 1), (between[2], 1)): Fraction(-1, 3),              # two signs
        ((old, 1), (new, 1), (between[1], 1)): 5,       # collides with itself: vanishes
        ((new, 1), (between[0], 1)): 7,                 # already there: unchanged
        ((old, 1),): Fraction(1, 2)})                   # collects with ...
    f = f + S(new, Fraction(1, 2))                      # ... this term to 1*p~[b^7]
    args = dict(kind="p", side="plus", new_side="middle", orbit_names={"b"})
    moved = reside(f, **args)
    assert moved == _substitute_reside(f, **args)
    assert moved == _reference_substitute(f, {old: S(new)})
    assert len(moved.terms()) == 4 and moved.coefficient(((new, 1),)) == 1
    assert moved.coefficient(((new, 1), (between[0], 1), (between[2], 1))) == Fraction(-1, 3)


# a term too long to square: 2 * 40000 letters do not fit in a field
_LONG_EVEN = GradedSeries(REG, TRUNC, {((QA, 40000),): 1, ((QB, 1),): 2})
_LONG_ODD = GradedSeries(REG, TRUNC, {((QA, 40000), (QB, 1)): 1, ((QA2, 1),): 3})
_SHORT_ODD = GradedSeries(REG, TRUNC, {((QA, 30000), (QB, 1)): 1, ((QA2, 1),): 3})


@settings(max_examples=150, deadline=None)
@given(st.lists(_packed_term, max_size=5).map(_packed_series))
@example(_LONG_EVEN)
@example(_LONG_ODD)
@example(_SHORT_ODD)
@example(GradedSeries.zero(REG, TRUNC))
def test_a_square_is_the_product_with_a_copy(f):
    # E*E + 2*E*O for one object; the same value, or the same error, as the general product
    copy = GradedSeries._of_packed(f.registry, f.truncation, dict(f._terms), f._den)
    assert copy is not f
    square = _outcome(lambda: multiply(f, f))
    assert square == _outcome(lambda: multiply(f, copy))
    assert isinstance(square, tuple) == any(2 * (m & 0xFFFF) > 0xFFFF for m in f._terms)


def test_parity_preserving_substitution_and_reside_decode_no_monomial(monkeypatch):
    f = _packed_series([(3, [1, 4, 9], QA, 2, 1), (-2, [5, 12], QA2, 3, 0), (1, [3], QA, 0, 2)])
    # images of each variable's degree: the default degree check passes
    assignment = {QA: S(QA, 2) + S(var("a", 1, "q", "plus"), Fraction(1, 3)),
                  PB: S(var("b", 1, "p", "plus")) - S(PB),
                  QC: multiply(S(QC), S(QA2)).scale(0) + S(var("c", 1, "q", "plus"), 4)}
    sided = _sided_series(SIGN_SPEC)
    calls = []

    def spy(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(algebra, "_runs", spy("_runs", algebra._runs))
    monkeypatch.setattr(algebra, "_packed", spy("_packed", algebra._packed))
    got = substitute(f, assignment)
    moved = [reside(sided, kind="p", side="plus", new_side="middle"),
             reside(sided, kind="p", side="minus", new_side="plus", orbit_names={"b"}),
             reside(f, kind="q", side="middle", new_side="minus")]
    assert calls == []
    monkeypatch.undo()
    assert got == _reference_substitute(f, assignment)
    assert moved[0] == _substitute_reside(sided, kind="p", side="plus", new_side="middle")
    assert moved[1] == _substitute_reside(sided, kind="p", side="minus", new_side="plus",
                                          orbit_names={"b"})
    assert moved[2] == _substitute_reside(f, kind="q", side="middle", new_side="minus")


# -- storage: every result reduced in the dict that built it, no input touched --------

def _storage(series):
    """Everything a series stores, in its order."""
    return list(series._terms.items()), series._den


def _assert_canonical(series):
    den, nums = series._den, list(series._terms.values())
    assert den > 0 and 0 not in nums
    assert math.gcd(den, *nums) == 1
    assert nums or den == 1


def _algebra_calls(f, g, c, v, assignment, retag):
    """``(inputs, call)`` for every public series operation; a call gives a list of series."""
    kind, side, new_side = retag
    return [
        ((f, g), lambda: [multiply(f, g)]),
        ((f,), lambda: [multiply(f, f)]),
        ((f, g), lambda: [f + g, f - g]),
        ((f,), lambda: [f - f]),
        ((f,), lambda: [f.scale(c)]),
        ((f,), lambda: [partial(f, v), partial_right(f, v)]),
        ((f, g), lambda: [poisson_bracket(f, g)]),
        ((f, *assignment.values()), lambda: [substitute(f, assignment, check_degrees=False)]),
        ((f,), lambda: [reside(f, kind=kind, side=side, new_side=new_side)]),
        ((f,), lambda: list(f.by_degree().values())),
    ]


_algebra_inputs = (
    prime_series, prime_series, prime_fractions, st.sampled_from(SIDED_VARS),
    st.dictionaries(st.sampled_from(SIDED_VARS), prime_series, max_size=2),
    st.tuples(st.sampled_from(("p", "q")), st.sampled_from(SIDES), st.sampled_from(SIDES)))


@settings(max_examples=100, deadline=None)
@given(*_algebra_inputs)
def test_every_result_is_stored_reduced(f, g, c, v, assignment, retag):
    for _, call in _algebra_calls(f, g, c, v, assignment, retag):
        for result in call():
            _assert_canonical(result)
    # a cancellation to nothing, and a common factor of every numerator and the denominator
    zero = multiply(f, g) + multiply(f.scale(-1), g)
    assert zero.is_zero() and zero._den == 1
    halved = f.scale(2 * f._den).scale(Fraction(1, 2))
    _assert_canonical(halved)
    assert halved == f.scale(f._den)
    # reduced in place, the surviving terms keep the order a copying reduction gives
    raw = algebra._add_product({}, f._terms, algebra._right(g._terms), TRUNC)
    den = 2 * f._den * g._den
    kept = {m: x for m, x in raw.items() if x}
    common = math.gcd(den, *kept.values())
    want = [(m, x // common) for m, x in kept.items()], den // common
    terms, got_den = algebra._reduced(raw, den)
    assert terms is raw and (list(terms.items()), got_den) == want


@settings(max_examples=100, deadline=None)
@given(*_algebra_inputs)
def test_no_operation_changes_its_inputs(f, g, c, v, assignment, retag):
    for inputs, call in _algebra_calls(f, g, c, v, assignment, retag):
        before = [_storage(s) for s in inputs]
        call()
        assert [_storage(s) for s in inputs] == before
