import gc
import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localsft import covers
from localsft.config import parse_config
from localsft.covers import (
    BaseCurve,
    CoverSpec,
    NeckSplit,
    boundary_strata,
    branch_count,
    cokernel_rank,
    cylinder_over,
    fredholm_index,
    is_orbit_cylinder,
    normal_chern_numbers,
    obstruction_rank,
    tangency_dimension,
    tangency_report,
    validate_cover,
    virtual_dimension,
)
from localsft.errors import (
    HypothesesViolated,
    InconsistentProfile,
    InvalidCover,
    IterateOutOfRange,
    NotImmersed,
    OddChern,
)
from localsft.exceptional import standard_neck
from localsft.orbits import OrbitCollection, ReebOrbit, cz_iterate

from test_hurwitz import partitions


def elliptic(name="gamma", theta=Fraction(3, 10), max_iterate=6):
    return ReebOrbit(name, "elliptic", theta=theta, max_iterate=max_iterate)


def hyperbolic(name="h", cz1=1):
    return ReebOrbit(name, "hyperbolic", cz1=cz1)


def sphere(name="v"):
    return BaseCurve(name, closed=True, index=0, rel_c1_doubled=2)


def plane_above(orbit, name="vplus"):
    """Rigid plane with one negative end at the orbit."""
    return BaseCurve(name,
                     negative_ends=OrbitCollection((orbit.iterate(1),), sign="negative"),
                     index=0, rel_c1_doubled=1 + cz_iterate(orbit, 1))


def plane_below(orbit, name="vminus"):
    """Rigid plane with one positive end at the orbit."""
    return BaseCurve(name,
                     positive_ends=OrbitCollection((orbit.iterate(1),)),
                     index=0, rel_c1_doubled=1 - cz_iterate(orbit, 1))


def coll(*iterates, sign="positive"):
    return OrbitCollection(tuple(iterates), sign=sign)


class TestBranchCount:
    def test_closed_double_cover(self):
        assert branch_count(CoverSpec(sphere(), 2)) == 2

    def test_cylinder_merging_ends(self):
        g = elliptic()
        spec = CoverSpec(cylinder_over(g), 2, coll(g.iterate(1), g.iterate(1)),
                         coll(g.iterate(2), sign="negative"))
        assert branch_count(spec) == 1

    def test_cylinder_pair_to_pair(self):
        g = elliptic()
        spec = CoverSpec(cylinder_over(g), 2, coll(g.iterate(1), g.iterate(1)),
                         coll(g.iterate(1), g.iterate(1), sign="negative"))
        assert branch_count(spec) == 2

    def test_profile_mismatch_rejected(self):
        g = elliptic()
        with pytest.raises(InconsistentProfile):
            branch_count(CoverSpec(cylinder_over(g), 2,
                                   coll(g.iterate(1)), coll(g.iterate(2), sign="negative")))


class TestFredholmIndex:
    def test_closed_covers_of_exceptional_sphere(self):
        for d, want in [(1, 0), (2, 2), (3, 4)]:
            assert fredholm_index(CoverSpec(sphere(), d)) == want

    def test_hyperbolic_cylinder_pair(self):
        h = hyperbolic()
        spec = CoverSpec(cylinder_over(h), 2, coll(h.iterate(1), h.iterate(1)),
                         coll(h.iterate(1), h.iterate(1), sign="negative"))
        assert fredholm_index(spec) == 2

    def test_plane_double_cover_indices_follow_defect(self):
        g = elliptic()  # defect -1
        up = CoverSpec(plane_above(g), 2,
                       negative_ends=coll(g.iterate(2), sign="negative"))
        down = CoverSpec(plane_below(g), 2, positive_ends=coll(g.iterate(2)))
        assert fredholm_index(up) == 2
        assert fredholm_index(down) == 0

    def test_cylinder_cover_index_is_puncture_count_minus_two(self):
        h = hyperbolic(cz1=-3)
        cyl = cylinder_over(h)
        for pos_parts, neg_parts in [((1, 1), (2,)), ((2,), (2,)), ((1, 1, 1), (3,)),
                                     ((2, 1), (1, 1, 1))]:
            d = sum(pos_parts)
            spec = CoverSpec(cyl, d,
                             coll(*[h.iterate(k) for k in pos_parts]),
                             coll(*[h.iterate(k) for k in neg_parts], sign="negative"))
            assert fredholm_index(spec) == len(pos_parts) + len(neg_parts) - 2

    def test_cylinder_cover_index_random_hyperbolic_profiles(self):
        rng = random.Random(31)
        for _ in range(200):
            h = hyperbolic(cz1=rng.randint(-5, 5))
            cyl = cylinder_over(h)
            d = rng.randint(1, 5)

            def parts():
                out, left = [], d
                while left:
                    k = rng.randint(1, left)
                    out.append(k)
                    left -= k
                return out

            pos, neg = parts(), parts()
            spec = CoverSpec(cyl, d, coll(*[h.iterate(k) for k in pos]),
                             coll(*[h.iterate(k) for k in neg], sign="negative"))
            assert fredholm_index(spec) == len(pos) + len(neg) - 2


class TestDimensions:
    def test_constrained_sphere_cover(self):
        report = tangency_report(CoverSpec(sphere(), 2, marked_points=1,
                                           constrained_branch_points=1))
        assert report.dimension == 2
        assert any("automorphisms" in note for note in report.quotient_note)

    def test_constrained_cylinder_pair(self):
        h = hyperbolic()
        spec = CoverSpec(cylinder_over(h), 2, coll(h.iterate(1), h.iterate(1)),
                         coll(h.iterate(1), h.iterate(1), sign="negative"),
                         marked_points=1, constrained_branch_points=1)
        report = tangency_report(spec)
        assert report.dimension == 2
        assert any("translation" in note for note in report.quotient_note)

    def test_unbranched_cover_of_rigid_base_is_rigid(self):
        g = elliptic()
        spec = CoverSpec(cylinder_over(g), 3, coll(g.iterate(3)),
                         coll(g.iterate(3), sign="negative"))
        assert branch_count(spec) == 0
        assert tangency_dimension(spec) == 0

    def test_non_immersed_base_rejected(self):
        base = BaseCurve("w", closed=True, index=0, rel_c1_doubled=2, immersed=False)
        with pytest.raises(NotImmersed):
            tangency_dimension(CoverSpec(base, 2))


class TestCokernelRank:
    def test_rank_two_over_constrained_hyperbolic_cylinder(self):
        h = hyperbolic()
        spec = CoverSpec(cylinder_over(h), 2, coll(h.iterate(1), h.iterate(1)),
                         coll(h.iterate(1), h.iterate(1), sign="negative"))
        assert cokernel_rank(spec) == 2

    def test_rank_two_over_rigid_plane_cover(self):
        g = elliptic()
        spec = CoverSpec(plane_below(g), 2, positive_ends=coll(g.iterate(2)))
        assert cokernel_rank(spec) == 2

    def test_trivial_cover_has_no_cokernel(self):
        g = elliptic()
        spec = CoverSpec(plane_above(g), 1,
                         negative_ends=coll(g.iterate(1), sign="negative"))
        assert cokernel_rank(spec) == 0

    def test_hyperbolic_ends_outside_cylinder_case_rejected(self):
        h = hyperbolic()
        spec = CoverSpec(plane_above(h, "w"), 2,
                         negative_ends=coll(h.iterate(2), sign="negative"))
        with pytest.raises(HypothesesViolated):
            cokernel_rank(spec)

    def test_index_above_dimension_bound_rejected(self):
        # a declared rigid base whose Chern data forces positive cover index:
        # the rank formula must refuse rather than return something negative
        g = elliptic()
        base = BaseCurve("w", positive_ends=OrbitCollection((g.iterate(1),)),
                         index=0, rel_c1_doubled=3 - cz_iterate(g, 1))
        spec = CoverSpec(base, 1, positive_ends=coll(g.iterate(1)))
        assert fredholm_index(spec) == 2
        with pytest.raises(HypothesesViolated):
            cokernel_rank(spec)


class TestNormalChern:
    def test_exceptional_sphere_itself(self):
        record = normal_chern_numbers(CoverSpec(sphere(), 1))
        assert record.c_N_doubled == -2
        # vanishing double points: self-intersection = c_N = -1
        assert record.c_N_doubled // 2 == -1

    def test_rigid_double_cover_with_one_branch_point(self):
        g = elliptic()
        spec = CoverSpec(plane_below(g), 2, positive_ends=coll(g.iterate(2)))
        record = normal_chern_numbers(spec)
        assert record.c_N_doubled == -2
        assert record.adjusted_c1_Nu == -3
        assert record.negative_c1

    def test_odd_parity_rejected(self):
        h = hyperbolic(cz1=2)  # even index: iterates all count toward Gamma_0
        base = BaseCurve("w", positive_ends=OrbitCollection((h.iterate(1),)),
                         index=0, rel_c1_doubled=1 - cz_iterate(h, 1))
        spec = CoverSpec(base, 1, positive_ends=coll(h.iterate(1)))
        assert fredholm_index(spec) == 0
        with pytest.raises(OddChern):
            normal_chern_numbers(spec)


class TestBoundaryStrata:
    def test_neck_splittings_of_closed_double_cover(self):
        g = elliptic()
        neck = NeckSplit((g,), plane_above(g), plane_below(g))
        graph = boundary_strata(CoverSpec(sphere(), 2), neck=neck, max_codim=1)
        middles = {edge.middle.key() for edge in graph.edges}
        assert (("gamma", 2),) in middles
        assert (("gamma", 1), ("gamma", 1)) in middles
        assert all(edge.kind == "neck" for edge in graph.edges)

    def test_trivial_cylinder_does_not_split(self):
        g = elliptic()
        spec = CoverSpec(cylinder_over(g), 1, coll(g.iterate(1)),
                         coll(g.iterate(1), sign="negative"))
        assert not boundary_strata(spec).edges

    def test_constrained_hyperbolic_family(self):
        h = hyperbolic()
        spec = CoverSpec(cylinder_over(h), 2, coll(h.iterate(1), h.iterate(1)),
                         coll(h.iterate(1), h.iterate(1), sign="negative"),
                         marked_points=1, constrained_branch_points=1)
        graph = boundary_strata(spec, max_codim=2)
        virdims = {}
        for node in graph.node_list():
            if (is_orbit_cylinder(node.spec.base) and node.components == 1
                    and node.spec.constrained_branch_points == 1):
                key = (node.spec.positive_ends.key(), node.spec.negative_ends.key())
                virdims[key] = node.virtual_dim
        pair = (("h", 1), ("h", 1))
        double = (("h", 2),)
        assert virdims[(pair, pair)] == 0
        assert virdims[(pair, double)] < 0
        assert virdims[(double, pair)] < 0
        assert virdims[(double, double)] < 0

    def test_index_additivity_across_all_edges(self):
        g = elliptic()
        h = hyperbolic()
        neck = NeckSplit((g,), plane_above(g), plane_below(g))
        specs = [
            (CoverSpec(sphere(), 2, marked_points=1, constrained_branch_points=1), neck),
            (CoverSpec(cylinder_over(h), 2, coll(h.iterate(1), h.iterate(1)),
                       coll(h.iterate(2), sign="negative")), None),
            (CoverSpec(plane_above(g), 2,
                       negative_ends=coll(g.iterate(1), g.iterate(1), sign="negative")),
             None),
        ]
        checked = 0
        for spec, neck_arg in specs:
            graph = boundary_strata(spec, neck=neck_arg, max_codim=2)
            for edge in graph.edges:
                upper = graph.nodes[edge.upper]
                lower = graph.nodes[edge.lower]
                parent = graph.nodes[edge.parent]
                assert upper.index + lower.index == parent.index
                checked += 1
        assert checked > 10

    def test_sft_edge_dimension_drop(self):
        # factors of a codimension-one splitting have virtual dimensions
        # summing to one less than the glued space
        h = hyperbolic()
        spec = CoverSpec(cylinder_over(h), 2, coll(h.iterate(1), h.iterate(1)),
                         coll(h.iterate(1), h.iterate(1), sign="negative"),
                         marked_points=1, constrained_branch_points=1)
        graph = boundary_strata(spec, max_codim=1)
        assert graph.edges
        for edge in graph.edges:
            upper = graph.nodes[edge.upper]
            lower = graph.nodes[edge.lower]
            parent = graph.nodes[edge.parent]
            assert upper.virtual_dim + lower.virtual_dim == parent.virtual_dim - 1


class TestMultiOrbitBase:
    def test_strata_respect_the_ramification_budget(self):
        # rigid base with two positive orbits and one negative; its double
        # cover has a single branch point, which admits exactly one
        # splitting over each simple orbit with matching middle profile
        a = elliptic("a", Fraction(3, 10))
        b = elliptic("b", Fraction(7, 10))
        c = elliptic("c", Fraction(11, 30))
        rel = -1 - cz_iterate(a, 1) - cz_iterate(b, 1) + cz_iterate(c, 1)
        base = BaseCurve("w",
                         positive_ends=coll(a.iterate(1), b.iterate(1)),
                         negative_ends=coll(c.iterate(1), sign="negative"),
                         index=0, rel_c1_doubled=rel)
        assert fredholm_index(CoverSpec(base, 1, coll(a.iterate(1), b.iterate(1)),
                                        coll(c.iterate(1), sign="negative"))) == 0
        spec = CoverSpec(base, 2,
                         coll(a.iterate(2), b.iterate(1), b.iterate(1)),
                         coll(c.iterate(1), c.iterate(1), sign="negative"))
        assert fredholm_index(spec) == 0
        assert branch_count(spec) == 1
        graph = boundary_strata(spec, max_codim=2)
        assert len(graph.edges) == 3
        for edge in graph.edges:
            upper = graph.nodes[edge.upper]
            lower = graph.nodes[edge.lower]
            assert upper.index + lower.index == graph.nodes[edge.parent].index
        # pass-through ends: a top split over one orbit keeps the other
        # orbit's ends on the main level
        tops = [e for e in graph.edges if "cyl(a)" in e.upper]
        assert tops
        for edge in tops:
            lower = graph.nodes[edge.lower]
            assert lower.spec.positive_ends.total_multiplicity(b) == 2


def random_valid_spec(rng):
    """A random admissible cover spec drawn from the supported families."""
    kind = rng.choice(["cylinder", "plane_above", "plane_below", "closed"])
    if kind == "closed":
        return CoverSpec(sphere(), rng.randint(1, 4))
    if rng.random() < 0.5:
        orbit = ReebOrbit("o", "elliptic",
                          theta=Fraction(rng.randint(1, 40) * 2 - 1, 97),
                          max_iterate=6)
    else:
        orbit = ReebOrbit("o", "hyperbolic", cz1=rng.randint(-4, 4))
    d = rng.randint(1, 4)

    def profile():
        parts = []
        left = d
        while left:
            k = rng.randint(1, left)
            parts.append(k)
            left -= k
        return coll(*[orbit.iterate(k) for k in parts])

    if kind == "cylinder":
        return CoverSpec(cylinder_over(orbit), d, profile(), profile())
    if kind == "plane_above":
        return CoverSpec(plane_above(orbit, "w"), d, negative_ends=profile())
    return CoverSpec(plane_below(orbit, "w"), d, positive_ends=profile())


def test_rank_identity_on_random_specs():
    rng = random.Random(20240809)
    checked = 0
    while checked < 500:
        spec = random_valid_spec(rng)
        try:
            rank = cokernel_rank(spec)
        except HypothesesViolated:
            continue
        assert rank + fredholm_index(spec) == spec.base.index + 2 * branch_count(spec)
        checked += 1


# -- gluing invariants of boundary strata -------------------------------------


@st.composite
def strata_cases(draw):
    """A cover with its neck: of an orbit cylinder, a punctured base or a closed sphere.

    Orbits are elliptic or hyperbolic.  Punctured bases have up to two ends
    on each side, at distinct orbits; they and the two sides of the
    one-orbit neck are rigid.
    """
    names = iter("abce")

    def orbit():
        name = next(names)
        if draw(st.booleans()):
            theta = Fraction(draw(st.integers(1, 120)), draw(st.integers(7, 40)))
            assume(theta.denominator > 6)
            return ReebOrbit(name, "elliptic", theta=theta, max_iterate=6)
        return hyperbolic(name, cz1=draw(st.integers(-4, 4)))

    def rigid(name, pos=(), neg=()):
        rel = 2 - len(pos) - len(neg) - sum(cz_iterate(o, 1) for o in pos) + sum(
            cz_iterate(o, 1) for o in neg)
        return BaseCurve(name, positive_ends=coll(*[o.iterate(1) for o in pos]),
                         negative_ends=coll(*[o.iterate(1) for o in neg], sign="negative"),
                         index=0, rel_c1_doubled=rel)

    kind = draw(st.sampled_from(["cylinder", "punctured", "closed"]))
    neck = None
    if kind == "cylinder":
        base = cylinder_over(orbit())
    elif kind == "punctured":
        pos = [orbit() for _ in range(draw(st.integers(0, 2)))]
        neg = [orbit() for _ in range(draw(st.integers(0 if pos else 1, 2)))]
        base = rigid("w", pos, neg)
    else:
        neck_orbit = orbit()
        neck = NeckSplit((neck_orbit,), rigid("vplus", neg=[neck_orbit]),
                         rigid("vminus", pos=[neck_orbit]))
        base = sphere()
    # in degree one only a neck splits
    degree = draw(st.integers(2, 4 if base.punctures <= 2 else 3))

    def ends(side):
        return coll(*[it.orbit.iterate(k) for it in base.ends(side)
                      for k in draw(st.sampled_from(partitions(degree)))], sign=side)

    marked = draw(st.integers(0, 2))
    spec = CoverSpec(base, degree, ends("positive"), ends("negative"), marked_points=marked,
                     constrained_branch_points=draw(st.integers(0, min(marked, 1))))
    # Riemann-Hurwitz: the ends leave a nonnegative number of branch points
    assume(degree * (2 - base.punctures) - (2 - spec.punctures) >= 0)
    return spec, neck


def _unmarked_cylinder(node):
    return int(is_orbit_cylinder(node.spec.base) and node.spec.marked_points == 0)


@settings(max_examples=80, deadline=None)
@given(strata_cases())
def test_strata_satisfy_gluing_invariants(case):
    # every node is a valid cover annotated like a standalone computation;
    # every edge adds indices, and drops the virtual dimension by the
    # translation quotients: those of unmarked cylinder levels, less the
    # parent's own, so neck edges (no cylinder levels) drop none
    spec, neck = case
    graph = boundary_strata(spec, neck=neck, max_codim=2)
    for node in graph.node_list():
        validate_cover(node.spec)
        assert node.index == fredholm_index(node.spec, node.components)
        if node.components == 1 and node.spec.base.immersed:
            try:
                want = cokernel_rank(replace(node.spec, marked_points=0,
                                             constrained_branch_points=0))
            except HypothesesViolated:
                want = None
            assert node.obstruction_rank == (None if node.empty else want), node.describe()
    for edge in graph.edges:
        parent, upper, lower = (graph.nodes[i] for i in (edge.parent, edge.upper, edge.lower))
        assert upper.index + lower.index == parent.index
        drop = parent.virtual_dim - upper.virtual_dim - lower.virtual_dim
        if edge.kind == "neck":
            assert drop == 0
        else:
            assert drop == (_unmarked_cylinder(upper) + _unmarked_cylinder(lower)
                            - _unmarked_cylinder(parent))


@settings(max_examples=40, deadline=None)
@given(strata_cases())
def test_strata_edges_are_unique(case):
    # each node is expanded once and its splittings are distinct, so no edge repeats
    spec, neck = case
    edges = boundary_strata(spec, neck=neck, max_codim=2).edges
    assert len(set(edges)) == len(edges)


# -- codimension-one strata against brute force --------------------------------


def _multisets(orbit, total):
    """Every multiset of iterates of ``orbit`` whose multiplicities sum to ``total``."""
    ks = range(1, total + 1)
    return [[orbit.iterate(k) for k, times in zip(ks, counts) for _ in range(times)]
            for counts in itertools.product(*(range(total // k + 1) for k in ks))
            if sum(k * times for k, times in zip(ks, counts)) == total]


def _level_shapes(spec, neck):
    """The two levels a splitting of ``spec`` can have, before the middle is chosen.

    Each shape is ``((base, degree, positive ends, negative ends, level) of
    the upper and of the lower level, orbits crossing the middle, their total
    multiplicity)``; the middle joins the upper level's negative ends and the
    lower level's positive ends.
    """
    d, pos, neg = spec.degree, list(spec.positive_ends), list(spec.negative_ends)
    if spec.base.closed:
        return [((neck.side_plus, d, [], [], "middle"), (neck.side_minus, d, [], [], "middle"),
                 neck.orbits, d)]
    if is_orbit_cylinder(spec.base):
        return [((spec.base, d, pos, [], "top-cylinder"),
                 (spec.base, d, [], neg, "bottom-cylinder"),
                 (spec.base.positive_ends.items[0].orbit,), d)]
    shapes = []
    for it in spec.base.positive_ends:
        active = [e for e in pos if e.orbit.name == it.orbit.name]
        rest = [e for e in pos if e.orbit.name != it.orbit.name]
        m = sum(e.k for e in active)
        shapes.append(((cylinder_over(it.orbit), m, active, [], "top-cylinder"),
                       (spec.base, d, rest, neg, "middle"), (it.orbit,), m))
    for it in spec.base.negative_ends:
        active = [e for e in neg if e.orbit.name == it.orbit.name]
        rest = [e for e in neg if e.orbit.name != it.orbit.name]
        m = sum(e.k for e in active)
        shapes.append(((spec.base, d, pos, rest, "middle"),
                       (cylinder_over(it.orbit), m, [], active, "bottom-cylinder"),
                       (it.orbit,), m))
    return shapes


def _key(items):
    return tuple(sorted((it.orbit.name, it.k) for it in items))


def _level_exists(base, degree, pos, neg, marked, n, level):
    """An n-component genus-zero cover level, not a union of trivial cylinders."""
    z = degree * (2 - base.punctures) - (2 * n - len(pos) - len(neg))
    ends_over_each_puncture = all(
        sum(e.orbit.name == it.orbit.name for e in ends) >= n
        for base_ends, ends in ((base.positive_ends, pos), (base.negative_ends, neg))
        for it in base_ends)
    trivial = (level.endswith("cylinder") and marked == 0
               and len(pos) == len(neg) == n and _key(pos) == _key(neg))
    return z >= 0 and ends_over_each_puncture and not trivial


def _codim_one_by_brute_force(spec, neck):
    r, c = spec.marked_points, spec.constrained_branch_points
    edges = set()
    for upper, lower, orbits, total in _level_shapes(spec, neck):
        for blocks in itertools.product(*(_multisets(o, total) for o in orbits)):
            middle = [it for block in blocks for it in block]
            for r_up, c_up in itertools.product(range(r + 1), range(c + 1)):
                if c_up > r_up or c - c_up > r - r_up:
                    continue
                for n_up, n_low in itertools.product(range(1, upper[1] + 1),
                                                     range(1, lower[1] + 1)):
                    if n_up + n_low != len(middle) + 1:
                        continue
                    (ub, ud, up_pos, up_neg, ul), (lb, ld, low_pos, low_neg, ll) = upper, lower
                    up = (ub, ud, up_pos, up_neg + middle, r_up, n_up, ul)
                    low = (lb, ld, low_pos + middle, low_neg, r - r_up, n_low, ll)
                    if _level_exists(*up) and _level_exists(*low):
                        edges.add(((ub.name, ud, _key(up[2]), _key(up[3]), r_up, c_up, n_up, ul),
                                   (lb.name, ld, _key(low[2]), _key(low[3]), r - r_up, c - c_up,
                                    n_low, ll),
                                   _key(middle), "neck" if spec.base.closed else "sft"))
    return edges


def _descriptor(node):
    spec = node.spec
    return (spec.base.name, spec.degree, spec.positive_ends.key(), spec.negative_ends.key(),
            spec.marked_points, spec.constrained_branch_points, node.components, node.level)


@settings(max_examples=300, deadline=None)
@given(strata_cases())
def test_codim_one_strata_match_brute_force(case):
    # catches a missing or an extra splitting, which the invariants above cannot see
    spec, neck = case
    graph = boundary_strata(spec, neck=neck, max_codim=1)
    got = [(_descriptor(graph.nodes[e.upper]), _descriptor(graph.nodes[e.lower]),
            e.middle.key(), e.kind) for e in graph.edges]
    assert len(got) == len(set(got))
    assert set(got) == _codim_one_by_brute_force(spec, neck)


# -- level-cached node numbers against the public functions ------------------------


def _assert_nodes_match_public_numbers(graph):
    """Each node's numbers, recomputed from a fresh copy of its spec."""
    for node in graph.node_list():
        spec, n = replace(node.spec), node.components  # no cached numbers
        assert spec == node.spec
        assert node.index == fredholm_index(spec, n)
        assert node.virtual_dim == virtual_dimension(spec, n)
        # each component past the first takes two branch points from the cover
        unperturbed = tangency_dimension(spec) - 4 * (n - 1) if spec.base.immersed else None
        empty = unperturbed is not None and unperturbed < 0
        rank = None
        if empty:
            unperturbed = None
        elif unperturbed is not None and n == 1:
            try:
                rank = cokernel_rank(spec)
            except HypothesesViolated:
                pass
        assert (node.unperturbed_dim, node.empty, node.obstruction_rank) == (
            unperturbed, empty, rank), node.describe()
        assert node.node_id == (f"{spec.base.name}:d{spec.degree}:{spec.positive_ends.render()}"
                                f"/{spec.negative_ends.render()}:r{spec.marked_points}"
                                f"c{spec.constrained_branch_points}:n{n}:{node.level}")


@settings(max_examples=60, deadline=None)
@given(strata_cases())
def test_strata_node_numbers_match_the_public_functions(case):
    spec, neck = case
    for split in (None, neck) if neck else (None,):
        _assert_nodes_match_public_numbers(boundary_strata(spec, neck=split, max_codim=2))


def test_example_strata_node_numbers_match_the_public_functions():
    doc = parse_config(EXAMPLE.read_text())
    for spec in doc.covers.values():
        for neck in (None, *doc.necks.values()):
            _assert_nodes_match_public_numbers(
                boundary_strata(spec, neck=neck.split() if neck else None, max_codim=3))


def test_obstruction_rank_is_the_cokernel_rank_or_none_off_its_hypotheses():
    doc = parse_config(EXAMPLE.read_text())
    ranks = []
    for spec in doc.covers.values():
        for neck in (None, *doc.necks.values()):
            graph = boundary_strata(spec, neck=neck.split() if neck else None, max_codim=3)
            for node_spec in (spec, *(node.spec for node in graph.node_list())):
                rank = obstruction_rank(node_spec)
                if rank is None:
                    with pytest.raises(HypothesesViolated):
                        cokernel_rank(node_spec)
                else:
                    assert rank == cokernel_rank(node_spec)
                ranks.append(rank)
    assert None in ranks and any(rank is not None for rank in ranks)


# -- cached cover numbers ---------------------------------------------------------


def _multi_orbit_spec():
    """The double cover of ``TestMultiOrbitBase``: one branch point, index zero."""
    a = elliptic("a", Fraction(3, 10))
    b = elliptic("b", Fraction(7, 10))
    c = elliptic("c", Fraction(11, 30))
    rel = -1 - cz_iterate(a, 1) - cz_iterate(b, 1) + cz_iterate(c, 1)
    base = BaseCurve("w", positive_ends=coll(a.iterate(1), b.iterate(1)),
                     negative_ends=coll(c.iterate(1), sign="negative"),
                     index=0, rel_c1_doubled=rel)
    return CoverSpec(base, 2, coll(a.iterate(2), b.iterate(1), b.iterate(1)),
                     coll(c.iterate(1), c.iterate(1), sign="negative"))


def test_cached_numbers_stay_out_of_equality_hash_and_repr():
    spec, fresh = _multi_orbit_spec(), _multi_orbit_spec()
    before = (repr(spec), hash(spec))
    assert (spec.ramification, spec.index) == (1, 0)
    assert (repr(spec), hash(spec)) == before
    assert spec == fresh and hash(spec) == hash(fresh)
    # a replaced spec computes its own numbers
    a = spec.base.positive_ends.items[0].orbit
    moved = replace(spec, positive_ends=coll(a.iterate(1), a.iterate(1),
                                             *spec.positive_ends.items[1:]))
    assert moved.ramification == 2
    assert moved.index == fredholm_index(CoverSpec(
        spec.base, 2, moved.positive_ends, spec.negative_ends)) == 2
    assert replace(spec, marked_points=1).index == spec.index


def _pants_double_cover():
    """Valid end multiplicities, but a negative total ramification."""
    a, b, c = elliptic("a"), elliptic("b"), elliptic("c")
    base = BaseCurve("w", positive_ends=coll(a.iterate(1), b.iterate(1)),
                     negative_ends=coll(c.iterate(1), sign="negative"))
    return CoverSpec(base, 2, coll(a.iterate(2), b.iterate(2)),
                     coll(c.iterate(2), sign="negative"))


@pytest.mark.parametrize("make_spec", [
    _pants_double_cover,
    lambda: CoverSpec(cylinder_over(elliptic()), 2, coll(elliptic().iterate(1)),
                      coll(elliptic().iterate(2), sign="negative")),
], ids=["negative-ramification", "ends-do-not-cover"])
def test_invalid_spec_raises_on_every_call(make_spec):
    spec = make_spec()
    for _ in range(2):
        for number in (validate_cover, branch_count, fredholm_index, cokernel_rank,
                       tangency_dimension, normal_chern_numbers, boundary_strata,
                       lambda s: s.index):
            with pytest.raises(InconsistentProfile):
                number(spec)


def test_strata_validate_each_node_at_most_once(monkeypatch):
    calls = []
    validate = covers.validate_cover
    monkeypatch.setattr(covers, "validate_cover", lambda spec: calls.append(spec) or validate(spec))
    graph = boundary_strata(_multi_orbit_spec(), max_codim=2)
    assert graph.edges
    assert 0 < len(calls) <= len(graph.nodes)


EXAMPLE = Path(covers.__file__).resolve().parent / "data" / "example.cfg"


@pytest.mark.parametrize("cover, neck", [("cyl_pair", None), ("sphere_marked", "stretch")])
def test_strata_validate_each_unmarked_level_at_most_once(monkeypatch, cover, neck):
    # marks change neither the ramification nor the index, so a level
    # (base, degree, ends) is validated once per call, whatever its marks
    doc = parse_config(EXAMPLE.read_text())
    split = doc.necks[neck].split() if neck else None
    levels = []
    validate = covers.validate_cover
    monkeypatch.setattr(covers, "validate_cover", lambda spec: levels.append(
        (spec.base.name, spec.degree, spec.positive_ends.key(), spec.negative_ends.key()))
        or validate(spec))
    graph = boundary_strata(doc.covers[cover], neck=split, max_codim=3)
    assert graph.edges and levels
    assert len(levels) == len(set(levels))


@pytest.mark.parametrize("cover, neck", [("cyl_pair", None), ("sphere_marked", "stretch")])
def test_strata_split_each_unmarked_level_at_most_once(monkeypatch, cover, neck):
    # a level's splittings do not read marks, so the nodes over it share them;
    # the middles over one orbit with one total are built once per call
    doc = parse_config(EXAMPLE.read_text())
    split = doc.necks[neck].split() if neck else None
    levels, profiles = [], []
    splittings, end_profiles = covers._splittings, covers.end_profiles
    monkeypatch.setattr(covers, "_splittings", lambda level, *args: levels.append(
        (level.base.name, level.degree, level.positive.key(), level.negative.key()))
        or splittings(level, *args))
    monkeypatch.setattr(covers, "end_profiles", lambda orbit, total: profiles.append(
        (orbit.name, total)) or end_profiles(orbit, total))
    for _ in range(2):  # nothing is kept across calls: the second splits again
        levels.clear()
        profiles.clear()
        graph = boundary_strata(doc.covers[cover], neck=split, max_codim=3)
        assert graph.edges and levels and profiles
        assert len(levels) == len(set(levels))
        assert len(profiles) == len(set(profiles))


def test_strata_leave_no_reference_cycles():
    # the per-call tables are freed on return, although a level can split into
    # itself: a cylinder level over the middle equal to its negative ends
    doc = parse_config(EXAMPLE.read_text())
    gc.collect()
    gc.disable()
    try:
        graph = boundary_strata(doc.covers["cyl_pair"], max_codim=3)
        assert graph.edges
        del graph
        assert gc.collect() == 0
    finally:
        gc.enable()


def _marked_cylinder_spec():
    g = elliptic()
    return CoverSpec(cylinder_over(g), 3, coll(g.iterate(1), g.iterate(1), g.iterate(1)),
                     coll(g.iterate(3), sign="negative"), marked_points=1,
                     constrained_branch_points=1)


def _sphere_with_neck():
    g = elliptic()
    return CoverSpec(sphere(), 3, marked_points=1), NeckSplit((g,), plane_above(g), plane_below(g))


@pytest.mark.parametrize("case, digest", [
    (lambda: (_multi_orbit_spec(), None),
     "197d1d22bdda584cc0dcd1364780f21f88c0fd6a8232d468d28bd1147c7a69d2"),
    (lambda: (_marked_cylinder_spec(), None),
     "d3ddc356debcf90988d569f9e0257b01ed31864e8cc6747e6b2b6a950815c8bb"),
    (_sphere_with_neck,
     "de039b5927f50639f57e8b8192908b2f14cf8b8e07992baa15f2b9ec52baca56"),
], ids=["multi-orbit", "marked-cylinder-d3", "sphere-neck-d3"])
def test_deeper_strata_adjacency_golden(case, digest):
    # pins node and edge order of graphs deeper than the d=2 example
    spec, neck = case()
    text = boundary_strata(spec, neck=neck, max_codim=2).render_adjacency()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- necks of several orbits, and nodes only within the level bound ------------------


def _neck_orbits(kinds):
    """One orbit per kind, ``e`` elliptic or ``h`` hyperbolic, named a, b, c."""
    return [elliptic(name, theta, max_iterate=6) if kind == "e" else hyperbolic(name, cz1)
            for name, kind, theta, cz1 in zip("abc", kinds,
                                                (Fraction(3, 10), Fraction(7, 10), Fraction(11, 30)),
                                                (1, 2, -3))]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_multi_orbit_neck_splits_match_brute_force(m, degree):
    # along m orbits the two sides have 2d(2 - m) - 2 branch points in all, so for
    # m >= 2 neither the oracle nor the strata find a splitting
    for kinds in itertools.product("eh", repeat=m):
        neck = standard_neck("N", _neck_orbits(kinds)).split()
        for marked, constrained in ((0, 0), (1, 0), (1, 1)):
            spec = CoverSpec(sphere(), degree, marked_points=marked,
                             constrained_branch_points=constrained)
            assert _codim_one_by_brute_force(spec, neck) == set()
            assert not boundary_strata(spec, neck=neck, max_codim=2).edges


def test_multi_orbit_neck_builds_each_orbit_profiles_once_and_glues_nothing(monkeypatch):
    orbits = [hyperbolic("c", -3), elliptic("b", Fraction(3, 13), max_iterate=12),
              hyperbolic("a", 2)]
    neck = standard_neck("N", orbits).split()
    profiles, glued = [], []
    end_profiles, glue = covers.end_profiles, covers._glue

    def spy_glue(*args, **kwargs):
        for item in glue(*args, **kwargs):
            glued.append(item)
            yield item

    monkeypatch.setattr(covers, "end_profiles", lambda orbit, total: profiles.append(
        (orbit.name, total)) or end_profiles(orbit, total))
    monkeypatch.setattr(covers, "_glue", spy_glue)
    # degree 12: 77 profiles per orbit, 77^3 middles if any were glued
    assert not boundary_strata(CoverSpec(sphere(), 12), neck=neck).edges
    assert profiles == [("a", 12), ("b", 12), ("c", 12)]
    assert glued == []


def test_multi_orbit_neck_still_checks_each_orbit_iterate_range():
    neck = standard_neck("N", [hyperbolic("a", 1), elliptic("b", max_iterate=3)]).split()
    with pytest.raises(IterateOutOfRange):
        boundary_strata(CoverSpec(sphere(), 4), neck=neck, max_codim=1)


@settings(max_examples=80, deadline=None)
@given(strata_cases())
def test_strata_make_only_nodes_with_branch_points(case):
    # the level bound holds the ramification, so no node is built and then dropped
    spec, neck = case
    left = []
    make_node = covers._make_node
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "_make_node", lambda key: left.append(
            key[0].ramification - 2 * (key[2] - 1)) or make_node(key))
        boundary_strata(spec, neck=neck, max_codim=2)
    assert left and min(left) >= 0


# -- levels by their numbers, and specs built where they are read -------------------


def _level_by_spec(spec):
    """A level's key, ramification, bound, trivial count and id prefix, read off ``spec``.

    The level logic of the object-building strata, kept as the slow oracle:
    every number is read from a fully built spec and its collections.
    """
    bound = min(spec.degree, spec.ramification // 2 + 1, *(
        spec.ends(side).end_counts.get(name, 0) // base_n
        for side in ("positive", "negative")
        for name, base_n in spec.base.ends(side).end_counts.items()))
    key = (spec.base.name, spec.degree, spec.positive_ends.key(), spec.negative_ends.key())
    trivial = len(key[2]) if is_orbit_cylinder(spec.base) and key[2] == key[3] else 0
    return (key, spec.ramification, bound, trivial,
            f"{spec.base.name}:d{spec.degree}:{spec.positive_ends.render()}"
            f"/{spec.negative_ends.render()}")


def _fresh_spec(level, marks=(0, 0)):
    """The cover of ``level`` with ``marks``, built from scratch: no collection is shared."""
    return CoverSpec(level.base, level.degree, coll(*level.positive),
                     coll(*level.negative, sign="negative"), *marks)


@settings(max_examples=80, deadline=None)
@given(strata_cases())
def test_level_numbers_match_a_fully_built_spec(case):
    spec, neck = case
    reached, glued = [], []
    glue = covers._glue

    class Recorded(covers._Level):
        def __init__(self, *args):
            super().__init__(*args)
            reached.append(self)

    def spy_glue(upper, lower, *args, **kwargs):
        for item in glue(upper, lower, *args, **kwargs):
            glued.append((upper, lower, item))
            yield item

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "_Level", Recorded)
        mp.setattr(covers, "_glue", spy_glue)
        boundary_strata(spec, neck=neck, max_codim=2)
    assert reached
    for level in reached:
        key = (level.base.name, level.degree, level.positive.key(), level.negative.key())
        assert (key, level.ramification, level.bound, level.trivial, level.prefix) == \
            _level_by_spec(_fresh_spec(level))
    # each glued level keeps its fixed ends and joins the middle on the glued side
    for upper, lower, ((first, _), (second, _), middle, lower_first) in glued:
        up, low = (second, first) if lower_first else (first, second)
        assert up[:3] == upper[:3] and low[:2] + low[3:] == lower[:2] + lower[3:]
        assert up[3].key() == coll(*upper[3], *middle, sign="negative").key()
        assert low[2].key() == coll(*lower[2], *middle).key()


@settings(max_examples=60, deadline=None)
@given(strata_cases())
def test_strata_validate_exactly_the_levels_with_nodes_and_build_specs_when_read(case):
    spec, neck = case
    validated = []
    validate = covers.validate_cover
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "validate_cover", lambda s: validated.append(
            (s.base.name, s.degree, s.positive_ends.key(), s.negative_ends.key())) or validate(s))
        graph = boundary_strata(spec, neck=neck, max_codim=2)
    assert len(validated) == len(set(validated))
    made = [node._made for node in graph.node_list()]
    assert set(validated) == {(level.base.name, level.degree, level.positive.key(),
                               level.negative.key()) for level, _, _, _ in made}
    for node, (level, marks, _, _) in zip(graph.node_list(), made):
        assert "spec" not in node.__dict__  # neither made nor rendered builds it
        assert node.describe() == f"{_fresh_spec(level, marks).describe()} n={node.components} " \
                                  f"[{node.level}]"
        fresh = _fresh_spec(level, marks)
        assert node.spec == CoverSpec(level.base, level.degree, level.positive, level.negative,
                                      *marks)
        assert (node.spec.index, node.spec.ramification) == (fresh.index, fresh.ramification)


@settings(max_examples=60, deadline=None)
@given(strata_cases())
def test_strata_of_one_spec_are_equal_values_and_compare_without_specs(case):
    # nodes and edges compare and hash by value, and doing so builds no node's spec
    spec, neck = case
    first, second = (boundary_strata(spec, neck=neck, max_codim=2) for _ in range(2))
    assert first.nodes == second.nodes and first.edges == second.edges
    for ours, theirs in ((first.node_list(), second.node_list()), (first.edges, second.edges)):
        assert list(map(hash, ours)) == list(map(hash, theirs))
    assert not any("spec" in node.__dict__ for graph in (first, second)
                   for node in graph.node_list())


def _plus_with_positive_end(g, h):
    return BaseCurve("vplus", positive_ends=coll(h.iterate(1)),
                     negative_ends=coll(g.iterate(1), sign="negative"))


@pytest.mark.parametrize("orbits, sides", [
    (lambda g, h: (g,), lambda g, h: (_plus_with_positive_end(g, h), plane_below(g))),
    (lambda g, h: (g,), lambda g, h: (plane_above(g), plane_below(h))),
    (lambda g, h: (g, h), lambda g, h: (plane_above(g), BaseCurve(
        "vminus", positive_ends=coll(g.iterate(1), h.iterate(1))))),
    (lambda g, h: (g,), lambda g, h: (sphere(), plane_below(g))),
], ids=["positive-end-on-plus-side", "other-orbit", "missing-orbit", "closed-side"])
def test_neck_sides_must_end_exactly_on_its_orbits(orbits, sides):
    g, h = elliptic(), hyperbolic()
    with pytest.raises(InvalidCover):
        NeckSplit(orbits(g, h), *sides(g, h))
