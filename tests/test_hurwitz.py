"""Hurwitz oracle against an independently coded monodromy enumeration.

The reference enumerator below shares no code with the library: it walks
full cartesian products of conjugacy classes (no inverse shortcut), uses
the opposite composition convention, and tests transitivity by union-find.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsft import covers
from localsft.covers import HURWITZ_BRANCH_POINT_BOUND, HURWITZ_DEGREE_BOUND, hurwitz_count
from localsft.covers import ENUMERATION_DEGREE_BOUND, _hurwitz_by_enumeration
from localsft.errors import DegreeTooLarge, InconsistentProfile


def _partition_of(perm):
    left = set(range(len(perm)))
    sizes = []
    while left:
        start = left.pop()
        size = 1
        cur = perm[start]
        while cur != start:
            left.discard(cur)
            cur = perm[cur]
            size += 1
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def _conjugacy_class(d, partition):
    want = tuple(sorted(partition, reverse=True))
    return [p for p in itertools.permutations(range(d)) if _partition_of(p) == want]


def _connected(perms, d):
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(d):
            a, b = find(i), find(p[i])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(d)}) == 1


def brute_monodromy_count(d, profiles, branch_points):
    """Full enumeration: apply factors right-to-left, demand the identity.

    Memoised: the oracle test here and the acceptance cross-check walk the
    same grid.
    """
    return _brute_monodromy_count(d, tuple(map(tuple, profiles)), branch_points)


@functools.cache
def _brute_monodromy_count(d, profiles, branch_points):
    classes = [_conjugacy_class(d, p) for p in profiles]
    if branch_points:
        classes += [_conjugacy_class(d, (2,) + (1,) * (d - 2))] * branch_points
    total = 0
    identity = tuple(range(d))
    for combo in itertools.product(*classes):
        state = identity
        for perm in reversed(combo):
            state = tuple(perm[state[i]] for i in range(d))
        if state == identity and _connected(combo, d):
            total += 1
    return Fraction(total, factorial(d))


class TestFrozenValues:
    def test_two_fold_fully_ramified(self):
        assert hurwitz_count(2, [(2,), (2,)], 0) == Fraction(1, 2)

    def test_two_fold_simple_branching(self):
        assert hurwitz_count(2, [(1, 1), (1, 1)], 2) == Fraction(1, 2)

    def test_identity_cover(self):
        assert hurwitz_count(1, [(1,)], 0) == 1

    def test_disconnected_profiles_count_zero(self):
        assert hurwitz_count(2, [(1, 1), (1, 1)], 0) == 0

    def test_parity_violation_counts_zero(self):
        assert hurwitz_count(2, [(2,), (1, 1)], 0) == 0

    def test_degree_bound(self):
        with pytest.raises(DegreeTooLarge):
            hurwitz_count(HURWITZ_DEGREE_BOUND + 1, [(7,)], 0)

    def test_non_partition_rejected(self):
        with pytest.raises(InconsistentProfile):
            hurwitz_count(3, [(2,)], 0)


def partitions(n):
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def test_oracle_matches_independent_enumeration():
    checked = 0
    for d in range(1, 5):
        parts = partitions(d)
        for top, bottom in itertools.product(parts, parts):
            for b in range(0, 5):
                if d == 1 and b:
                    continue
                expected = brute_monodromy_count(d, [top, bottom], b)
                assert hurwitz_count(d, [top, bottom], b) == expected, (d, top, bottom, b)
                checked += 1
    assert checked >= 190


def test_oracle_matches_for_other_profile_counts():
    cases = [
        (2, [], 2), (2, [], 4), (3, [(3,)], 3),
        (3, [(3,), (3,), (3,)], 0), (4, [(4,), (2, 2), (2, 1, 1)], 0),
        (2, [(2,)], 1), (3, [(2, 1), (2, 1), (2, 1)], 1),
    ]
    for d, profiles, b in cases:
        assert hurwitz_count(d, profiles, b) == brute_monodromy_count(d, profiles, b)


def _class_size(d, partition):
    z = 1
    for part in set(partition):
        m = partition.count(part)
        z *= part ** m * factorial(m)
    return factorial(d) // z


@st.composite
def _small_hurwitz_inputs(draw, budget=3000):
    """(d, profiles, b) with d <= 5, 1-3 profiles and b <= 3, cheap to enumerate.

    The enumerator visits the product of all class sizes but the last, so
    b is capped where that product would pass ``budget``.
    """
    d = draw(st.integers(1, 5))
    profiles = draw(st.lists(st.sampled_from(partitions(d)), min_size=1, max_size=3))
    sizes = [_class_size(d, p) for p in profiles]
    b_max = 0
    while b_max < 3 and d >= 2 and prod(sizes + [d * (d - 1) // 2] * b_max) <= budget:
        b_max += 1
    return d, profiles, draw(st.integers(0, b_max))


@settings(max_examples=120, deadline=None)
@given(_small_hurwitz_inputs())
def test_character_formula_matches_enumeration(case):
    d, profiles, b = case
    assert hurwitz_count(d, profiles, b) == _hurwitz_by_enumeration(d, profiles, b)


def _aut(mu):
    """|Aut mu|: the product of the factorials of the part multiplicities."""
    return prod(factorial(mu.count(part)) for part in set(mu))


def _genus_zero(mu):
    """One profile mu, genus 0 (Hurwitz 1891; Goulden and Jackson, Proc. AMS 1997)."""
    d, n = sum(mu), len(mu)
    return (Fraction(factorial(d + n - 2) * prod(m ** m for m in mu),
                     prod(map(factorial, mu)) * _aut(mu)) * Fraction(d) ** (n - 3))


def _genus_one(mu):
    """One profile mu, genus 1 (Vakil, Trans. AMS 2001)."""
    d, n = sum(mu), len(mu)
    e = [1]  # e[k]: the k-th elementary symmetric polynomial of the parts
    for m in mu:
        e = [low + m * high for low, high in zip(e + [0], [0] + e)]
    bracket = d ** n - d ** (n - 1) - sum(factorial(k - 2) * d ** (n - k) * e[k]
                                          for k in range(2, n + 1))
    return Fraction(factorial(d + n) * prod(m ** m for m in mu) * bracket,
                    24 * prod(map(factorial, mu)) * _aut(mu))


def _sinh_ratio(scale, terms):
    """S(scale t), S(t) = sinh(t/2)/(t/2): its coefficients of t^0, t^2, ..."""
    return [Fraction(scale ** (2 * j), 4 ** j * factorial(2 * j + 1)) for j in range(terms)]


def _one_part_double(beta, g):
    """Profiles (d) and beta, genus g (Goulden, Jackson and Vakil, Adv. Math. 2005)."""
    d, b = sum(beta), 2 * g - 1 + len(beta)
    series = [Fraction(1)] + [Fraction(0)] * g
    for scale in beta:
        factor = _sinh_ratio(scale, g + 1)
        series = [sum(series[i] * factor[k - i] for i in range(k + 1)) for k in range(g + 1)]
    sinh = _sinh_ratio(1, g + 1)
    for k in range(1, g + 1):  # divide by S(t), whose constant term is 1
        series[k] -= sum(sinh[i] * series[k - i] for i in range(1, k + 1))
    return factorial(b) * Fraction(d) ** (b - 1) * series[g] / _aut(beta)


@pytest.mark.parametrize("d", range(7, 13))
def test_closed_forms_beyond_enumeration(d):
    # polynomial covers (Hurwitz / Cayley) and all-simple genus-zero covers
    assert d > ENUMERATION_DEGREE_BOUND
    assert hurwitz_count(d, [(d,)], d - 1) == d ** (d - 3)
    assert hurwitz_count(d, [], 2 * d - 2) == Fraction(
        factorial(2 * d - 2) * d ** (d - 3), factorial(d))
    # every profile mu of d: one branched point in genus 0 and 1, and opposite (d)
    for mu in partitions(d):
        n = len(mu)
        assert hurwitz_count(d, [mu], d + n - 2) == _genus_zero(mu), mu
        assert hurwitz_count(d, [mu], d + n) == _genus_one(mu), mu
        for g in range(3):
            assert hurwitz_count(d, [(d,), mu], 2 * g - 1 + n) == _one_part_double(mu, g), (mu, g)


def _cut_and_join(lam):
    """{cycle type of pi t: number of transpositions t} for a fixed pi of cycle type lam.

    A t inside an m-cycle cuts it into j and m - j (m choices of t, or m/2
    when j = m/2); a t across cycles of sizes a and b joins them (a*b
    choices) (Goulden and Jackson, Proc. AMS 1997).
    """
    out = Counter()
    for i, m in enumerate(lam):
        rest = lam[:i] + lam[i + 1:]
        for j in range(1, m // 2 + 1):
            out[tuple(sorted(rest + (j, m - j), reverse=True))] += m // 2 if 2 * j == m else m
        for k in range(i + 1, len(lam)):
            joined = rest[:k - 1] + rest[k:] + (m + lam[k],)
            out[tuple(sorted(joined, reverse=True))] += m * lam[k]
    return out


@pytest.mark.parametrize("d", range(7, 13))
def test_disconnected_counts_match_cut_and_join(d):
    # sum_x c_x x^b = d! |C_mu| N_b(mu -> nu): tuples of a mu-permutation, a nu-permutation
    # and b transpositions with identity product, by iterating cut-and-join b times from mu
    parts = partitions(d)
    steps = {lam: _cut_and_join(lam) for lam in parts}
    assert all(sum(step.values()) == d * (d - 1) // 2 for step in steps.values())
    for mu in parts:
        reach = Counter({mu: 1})  # N_b(mu -> nu) for b = 0
        for b in range(4):
            for nu in parts:
                c = covers._disconnected(d, covers._moving((mu, nu)))
                assert sum(c_x * x ** b for x, c_x in c.items()) == (
                    factorial(d) * _class_size(d, mu) * reach[nu]), (mu, nu, b)
            following = Counter()
            for lam, n in reach.items():
                for kappa, k in steps[lam].items():
                    following[kappa] += n * k
            reach = following


def test_simple_branching_in_degrees_two_and_three_up_to_the_bound():
    """Exact counts of b transpositions alone, for every b up to the bound.

    In S_2 the one transposition repeated b times has identity product for
    even b and is transitive.  In S_3, for even b, the first b - 1 of the
    transpositions are free, 3^(b-1) choices, and their odd product is the
    transposition that closes the tuple; the tuple is transitive unless all
    b are equal, which 3 tuples are.  Odd b leaves an odd product, and
    b = 0 the identity cover of a disconnected domain, so both count 0.
    """
    for b in range(HURWITZ_BRANCH_POINT_BOUND + 1):
        even = b >= 2 and b % 2 == 0
        assert hurwitz_count(2, [], b) == (Fraction(1, 2) if even else 0), b
        assert hurwitz_count(3, [], b) == (Fraction(3 ** (b - 1) - 3, 6) if even else 0), b


def test_hurwitz_tables_are_shared_across_calls():
    # the tables do not depend on the number of simple branch points
    covers._connected.cache_clear()
    first = hurwitz_count(4, [(2, 2)], 4)
    misses = covers._connected.cache_info().misses
    second = hurwitz_count(4, [(2, 2)], 6)
    assert covers._connected.cache_info().misses == misses
    covers._connected.cache_clear()
    assert (hurwitz_count(4, [(2, 2)], 6), hurwitz_count(4, [(2, 2)], 4)) == (second, first)
    assert (first, second) == (_hurwitz_by_enumeration(4, [(2, 2)], 4),
                               _hurwitz_by_enumeration(4, [(2, 2)], 6)) == (12, 480)
