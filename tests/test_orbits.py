import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localsft.algebra import GradedSeries, Variable
from localsft.covers import BaseCurve, CoverSpec, NeckSplit
from localsft.exceptional import DescendantSpec, NeckConfiguration, lagrangian_genus_gate
from localsft.potentials import CountTable, Potential, potential_to_counts, reside_potential
from localsft.errors import BadOrbit, IterateOutOfRange
from localsft.errors import InvalidCover, InvalidOrbit, InvalidVariable, LocalSFTError
from localsft.errors import InvalidGenus, InvalidTable, NotHomogeneous
from localsft.orbits import (
    MAX_ITERATE_BOUND,
    OrbitCollection,
    OrbitRegistry,
    ReebOrbit,
    cz_defect,
    cz_iterate,
    is_good,
    variable_degree,
)

MAX_ITERATE = 6


def elliptic(theta, max_iterate=MAX_ITERATE, name="gamma"):
    return ReebOrbit(name, "elliptic", theta=Fraction(theta), max_iterate=max_iterate)


def hyperbolic(cz1, name="h"):
    return ReebOrbit(name, "hyperbolic", cz1=cz1)


@st.composite
def elliptic_orbits(draw):
    den = draw(st.integers(min_value=MAX_ITERATE + 1, max_value=400))
    num = draw(st.integers(min_value=1, max_value=4 * den))
    theta = Fraction(num, den)
    assume(theta.denominator > MAX_ITERATE)
    return elliptic(theta)


class TestCzIterate:
    def test_slow_rotation(self):
        orbit = elliptic(Fraction(3, 10))
        assert cz_iterate(orbit, 1) == 1
        assert cz_iterate(orbit, 2) == 1

    def test_fast_rotation(self):
        assert cz_iterate(elliptic(Fraction(7, 10)), 2) == 3

    def test_hyperbolic_additive(self):
        assert cz_iterate(hyperbolic(1), 4) == 4

    def test_range_guard(self):
        orbit = elliptic(Fraction(3, 10), max_iterate=4)
        with pytest.raises(IterateOutOfRange):
            cz_iterate(orbit, 5)

    def test_theta_denominator_bound_enforced(self):
        with pytest.raises(ValueError):
            elliptic(Fraction(1, 3), max_iterate=4)
        with pytest.raises(ValueError):
            elliptic(Fraction(-3, 10))


class TestCzDefect:
    def test_slow_rotation_negative(self):
        assert cz_defect(elliptic(Fraction(3, 10)), 1, 1) == -1

    def test_fast_rotation_positive(self):
        assert cz_defect(elliptic(Fraction(7, 10)), 1, 1) == 1

    def test_hyperbolic_zero(self):
        h = ReebOrbit("h", "hyperbolic", cz1=2)
        assert cz_defect(h, 3, 5) == 0


class TestGoodness:
    def test_elliptic_always_good(self):
        assert is_good(elliptic(Fraction(3, 10)).iterate(2))

    def test_even_iterate_of_odd_hyperbolic_is_bad(self):
        assert not is_good(hyperbolic(1).iterate(2))

    def test_even_hyperbolic_stays_good(self):
        assert is_good(hyperbolic(2).iterate(2))

    def test_odd_times_odd_stays_good(self):
        orbit = hyperbolic(3)
        for k in (1, 3, 5):
            if is_good(orbit.iterate(k)):
                for j in (1, 3, 5):
                    assert is_good(orbit.iterate(k * j))


class TestVariableDegree:
    def test_q_degree(self):
        assert variable_degree(elliptic(Fraction(3, 10)).iterate(1), "q") == 0

    def test_p_degree(self):
        assert variable_degree(elliptic(Fraction(3, 10)).iterate(1), "p") == -2

    def test_bad_orbit_gate(self):
        with pytest.raises(BadOrbit):
            variable_degree(hyperbolic(1).iterate(2), "q")
        with pytest.raises(BadOrbit):
            variable_degree(hyperbolic(1).iterate(2), "p")


class TestCollections:
    def test_kappa_is_product_of_multiplicities(self):
        orbit = elliptic(Fraction(3, 10))
        coll = OrbitCollection((orbit.iterate(2), orbit.iterate(3), orbit.iterate(1)))
        assert coll.total_multiplicity() == 6
        assert coll.key() == (("gamma", 1), ("gamma", 2), ("gamma", 3))

    def test_empty_collection(self):
        assert len(OrbitCollection(())) == 0


# -- property tests ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(elliptic_orbits(), st.integers(min_value=1, max_value=MAX_ITERATE))
def test_elliptic_index_is_odd(orbit, k):
    assert cz_iterate(orbit, k) % 2 == 1


@settings(max_examples=200, deadline=None)
@given(elliptic_orbits(), st.integers(min_value=1, max_value=MAX_ITERATE - 1))
def test_elliptic_defect_is_plus_minus_one(orbit, k):
    m = MAX_ITERATE - k
    assert cz_defect(orbit, k, m) in (-1, 1)


@settings(max_examples=200, deadline=None)
@given(elliptic_orbits(), st.integers(min_value=1, max_value=MAX_ITERATE - 1))
def test_elliptic_index_steps(orbit, k):
    step = cz_iterate(orbit, k + 1) - cz_iterate(orbit, k)
    base = 2 * math.floor(orbit.theta)
    assert step in (base, base + 2)
    assert step >= 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
def test_hyperbolic_defect_vanishes(cz1, k, m):
    assert cz_defect(hyperbolic(cz1), k, m) == 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(elliptic_orbits(), st.integers(min_value=-6, max_value=6).map(hyperbolic)),
       st.integers(min_value=1, max_value=MAX_ITERATE))
def test_pq_degree_parity_matches_index(orbit, k):
    iterate = orbit.iterate(k)
    if not is_good(iterate):
        return
    cz = cz_iterate(orbit, k)
    deg_q = variable_degree(iterate, "q")
    deg_p = variable_degree(iterate, "p")
    assert deg_q % 2 == deg_p % 2 == (cz + 1) % 2


@st.composite
def tabulated_orbits(draw):
    """Elliptic orbits with a random iterate bound."""
    top = draw(st.integers(min_value=1, max_value=30))
    den = draw(st.integers(min_value=top + 1, max_value=400))
    theta = Fraction(draw(st.integers(min_value=1, max_value=4 * den)), den)
    assume(theta.denominator > top)
    return elliptic(theta, max_iterate=top)


@settings(max_examples=200, deadline=None)
@given(tabulated_orbits())
def test_cz_table_is_the_floor_formula(orbit):
    want = [2 * math.floor(k * orbit.theta) + 1 for k in range(1, orbit.max_iterate + 1)]
    assert list(orbit.cz_table) == want
    assert [cz_iterate(orbit, k) for k in range(1, orbit.max_iterate + 1)] == want


@settings(max_examples=50, deadline=None)
@given(tabulated_orbits())
def test_cz_table_range_errors(orbit):
    top = orbit.max_iterate
    for lookup in (cz_iterate, lambda o, k: o.iterate(k)):
        with pytest.raises(InvalidOrbit, match=r"^iterate multiplicity must be positive, got 0$"):
            lookup(orbit, 0)
        with pytest.raises(IterateOutOfRange) as err:
            lookup(orbit, top + 1)
        assert str(err.value) == f"gamma^{top + 1}: beyond declared bound max_iterate={top}"
    with pytest.raises(InvalidOrbit, match=r"^iterate multiplicity must be positive, got 0$"):
        cz_iterate(hyperbolic(3), 0)


def test_cz_table_stays_out_of_equality():
    orbit = elliptic(Fraction(3, 10))
    assert orbit.cz_table == (1, 1, 1, 3, 3, 3)
    assert hyperbolic(3).cz_table == ()
    assert orbit == elliptic(Fraction(3, 10)) and hash(orbit) == hash(elliptic(Fraction(3, 10)))
    assert "cz_table" not in repr(orbit)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([("a", 1), ("a", 2), ("b", 1), ("b", 3), ("c", 2)]),
                max_size=6),
       st.randoms(use_true_random=False), st.sampled_from(["positive", "negative"]))
def test_permuted_collections_are_equal(pairs, rnd, sign):
    orbits = {name: elliptic(Fraction(3, 10), name=name) for name in "abc"}
    items = [orbits[name].iterate(k) for name, k in pairs]
    shuffled = list(items)
    rnd.shuffle(shuffled)
    first = OrbitCollection(tuple(items), sign=sign)
    second = OrbitCollection(tuple(shuffled), sign=sign)
    assert first == second and hash(first) == hash(second)
    assert first.render() == second.render() == "(" + ",".join(
        name if k == 1 else f"{name}^{k}" for name, k in sorted(pairs)) + ")"
    assert first.key() == second.key() == tuple(sorted(pairs))
    assert first.items == tuple(sorted(items, key=lambda it: (it.orbit.name, it.k)))
    totals = {}
    for name, k in pairs:
        totals[name] = totals.get(name, 0) + k
    assert first.multiplicities == second.multiplicities == dict(sorted(totals.items()))
    assert first.end_counts == {name: [n for n, _ in pairs].count(name)
                                for name in sorted(totals)}
    assert first != OrbitCollection(tuple(items), sign="negative" if sign == "positive"
                                    else "positive")


_H = ReebOrbit("h", "hyperbolic", cz1=2)
_PLANE = BaseCurve("u", positive_ends=OrbitCollection((_H.iterate(1),)))


@pytest.mark.parametrize("build, error", [
    (lambda: ReebOrbit("x", "parabolic"), InvalidOrbit),
    (lambda: ReebOrbit("x", "hyperbolic"), InvalidOrbit),
    (lambda: ReebOrbit("x", "hyperbolic", cz1=1, max_iterate=3), InvalidOrbit),
    (lambda: elliptic(Fraction(1, 3), max_iterate=4), InvalidOrbit),
    (lambda: _H.iterate(0), InvalidOrbit),
    (lambda: Variable(_H.iterate(1), "r"), InvalidVariable),
    (lambda: Variable(_H.iterate(1), "q", "left"), InvalidVariable),
    (lambda: BaseCurve("c", positive_ends=_PLANE.positive_ends, closed=True), InvalidCover),
    (lambda: CoverSpec(_PLANE, 0), InvalidCover),
    (lambda: CoverSpec(_PLANE, 1, marked_points=-1), InvalidCover),
    (lambda: CoverSpec(_PLANE, 1, marked_points=1, constrained_branch_points=2), InvalidCover),
])
def test_constructor_errors_are_library_value_errors(build, error):
    with pytest.raises(error) as err:
        build()
    assert isinstance(err.value, LocalSFTError)
    assert isinstance(err.value, ValueError)


_REG = OrbitRegistry([_H])
_Q = GradedSeries.of(_REG, 4, Variable(_H.iterate(1), "q", "minus"))


@pytest.mark.parametrize("build, error", [
    (lambda: OrbitCollection((), sign="up"), InvalidOrbit),
    (lambda: variable_degree(_H.iterate(1), "r"), InvalidVariable),
    (lambda: OrbitRegistry([_H, _H]), InvalidOrbit),
    (lambda: NeckSplit((), _PLANE, _PLANE), InvalidCover),
    (lambda: NeckConfiguration("n", (), _PLANE, _PLANE), InvalidCover),
    (lambda: DescendantSpec(_PLANE, 1, 1, ()), InvalidCover),
    (lambda: DescendantSpec(_PLANE, 1, 1, (-1,)), InvalidCover),
    (lambda: lagrangian_genus_gate(-1, True), InvalidGenus),
    (lambda: CountTable("disk", "h", {}, _REG), InvalidTable),
    (lambda: CountTable("curve", "u", {}, _REG), InvalidTable),
    (lambda: potential_to_counts(Potential(_Q)), InvalidTable),
    (lambda: reside_potential(Potential(_Q), {"h"}, "r"), InvalidVariable),
    (lambda: (_Q + GradedSeries.constant(_REG, 4, 1)).degree(), NotHomogeneous),
])
def test_domain_errors_are_library_value_errors(build, error):
    with pytest.raises(error) as err:
        build()
    assert isinstance(err.value, LocalSFTError)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("build", [
    lambda: OrbitRegistry().get("x"),
    lambda: CountTable("orbit", "x", {}, OrbitRegistry()),
], ids=["registry", "orbit-table"])
def test_unknown_orbit_is_a_library_error(build):
    with pytest.raises(LocalSFTError) as err:
        build()
    assert str(err.value) == "unknown orbit 'x'"


def test_max_iterate_is_bounded():
    top = MAX_ITERATE_BOUND
    assert len(elliptic(Fraction(1, top + 1), max_iterate=top).cz_table) == top
    with pytest.raises(IterateOutOfRange) as err:
        elliptic(Fraction(1, 10**6 + 1), max_iterate=10**6)
    assert str(err.value) == f"orbit gamma: max_iterate 1000000 exceeds MAX_ITERATE_BOUND={top}"
    with pytest.raises(IterateOutOfRange):
        elliptic(Fraction(1, top + 2), max_iterate=top + 1)
