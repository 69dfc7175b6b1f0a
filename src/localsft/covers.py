"""Integer bookkeeping for branched multiple covers.

Everything here is genus-zero: Riemann-Hurwitz ramification counts,
Fredholm indices, unperturbed moduli dimensions, obstruction-bundle ranks,
normal Chern numbers, two-level boundary stratification, and Hurwitz
counts as exponential sums in the number b of simple branch points, by
the Frobenius character formula, with a symmetric-group enumerator kept
as their oracle.

Dimension conventions.  ``tangency_dimension`` reports the unperturbed
count ``ind(base) + 2Z`` minus 2 per constrained branch point and records
unquotiented symmetries (target translations for cylinder covers, domain
automorphisms when there are fewer than three special points) in a note
instead of silently subtracting them.  Virtual dimensions subtract the
translation quotient only for unconstrained cylinder covers; a marked
point pinned to a special point already kills the translation.

A ``CoverSpec`` validates once and caches its ramification and index;
every number above is read from those two.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, factorial, prod

from .errors import (
    DegreeTooLarge,
    HypothesesViolated,
    InconsistentProfile,
    InvalidCover,
    IterateOutOfRange,
    NotImmersed,
    OddChern,
)
from .orbits import EMPTY_COLLECTION, OrbitCollection, ReebOrbit, _cached, cz_iterate

HURWITZ_DEGREE_BOUND = 12
HURWITZ_BRANCH_POINT_BOUND = 1000

TOP_CYLINDER = "top-cylinder"
MIDDLE = "middle"
BOTTOM_CYLINDER = "bottom-cylinder"


@dataclass(frozen=True)
class BaseCurve:
    """A fixed simple curve that multiple covers factor through."""

    name: str
    positive_ends: OrbitCollection = EMPTY_COLLECTION
    negative_ends: OrbitCollection = EMPTY_COLLECTION
    index: int = 0
    rel_c1_doubled: int = 0
    immersed: bool = True
    closed: bool = False

    def __post_init__(self):
        if self.closed and (len(self.positive_ends) or len(self.negative_ends)):
            raise InvalidCover(f"curve {self.name}: closed curves have no ends")

    @_cached
    def punctures(self) -> int:
        return len(self.positive_ends.items) + len(self.negative_ends.items)

    def ends(self, side: str) -> OrbitCollection:
        return self.positive_ends if side == "positive" else self.negative_ends


def cylinder_over(orbit: ReebOrbit) -> BaseCurve:
    """The trivial cylinder over a simple orbit."""
    return BaseCurve(
        name=f"cyl({orbit.name})",
        positive_ends=OrbitCollection((orbit.iterate(1),), sign="positive"),
        negative_ends=OrbitCollection((orbit.iterate(1),), sign="negative"),
        index=0,
        rel_c1_doubled=0,
        immersed=True,
        closed=False,
    )


def is_orbit_cylinder(base: BaseCurve) -> bool:
    if base.closed or len(base.positive_ends.items) != 1 or len(base.negative_ends.items) != 1:
        return False
    up = base.positive_ends.items[0]
    down = base.negative_ends.items[0]
    return (up.orbit.name == down.orbit.name and up.k == down.k == 1
            and base.rel_c1_doubled == 0 and base.index == 0)


@dataclass(frozen=True)
class CoverSpec:
    """A degree-d multiple cover of a base curve with marked-point data.

    All ``marked_points`` are pinned to special points of the base;
    ``constrained_branch_points`` of them are additionally required to be
    branch points.  ``ramification`` and ``index`` are computed on first
    use and cached outside the fields, so ``==``, ``hash`` and ``repr``
    never see them.
    """

    base: BaseCurve
    degree: int
    positive_ends: OrbitCollection = EMPTY_COLLECTION
    negative_ends: OrbitCollection = EMPTY_COLLECTION
    marked_points: int = 0
    constrained_branch_points: int = 0

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidCover("cover degree must be positive")
        if self.marked_points < 0 or self.constrained_branch_points < 0:
            raise InvalidCover("marked point counts must be nonnegative")
        if self.constrained_branch_points > self.marked_points:
            raise InvalidCover("constrained branch points exceed marked points")

    @property
    def punctures(self) -> int:
        return len(self.positive_ends.items) + len(self.negative_ends.items)

    def ends(self, side: str) -> OrbitCollection:
        return self.positive_ends if side == "positive" else self.negative_ends

    @_cached
    def ramification(self) -> int:
        """Riemann-Hurwitz count of a connected cover, unchecked."""
        return self.degree * (2 - self.base.punctures) - (2 - self.punctures)

    @_cached
    def index(self) -> int:
        """Fredholm index of a connected cover; validates the spec once."""
        validate_cover(self)
        return (self.punctures - 2 + self.degree * self.base.rel_c1_doubled
                + self.positive_ends.cz_sum - self.negative_ends.cz_sum)

    def describe(self) -> str:
        return _describe(self.base.name, self.degree, self.marked_points,
                         self.constrained_branch_points,
                         f"{self.positive_ends.render()}|{self.negative_ends.render()}")


def _describe(base: str, degree: int, marked: int, constrained: int, ends: str) -> str:
    head = f"M^{constrained}" if constrained else "M"
    return f"{head}[{base},{degree}{f',{marked}' if marked else ''}]({ends})"


def validate_cover(spec: CoverSpec) -> None:
    """Multiplicity consistency of the cover asymptotics with the base."""
    for side in ("positive", "negative"):
        base_profile = spec.base.ends(side).multiplicities
        cover_profile = spec.ends(side).multiplicities
        want = {name: spec.degree * mult for name, mult in base_profile.items()}
        if cover_profile != want:
            raise InconsistentProfile(
                f"{spec.describe()}: {side} ends {cover_profile} do not cover the "
                f"base profile {base_profile} with degree {spec.degree}")
    if spec.ramification < 0:
        raise InconsistentProfile(
            f"{spec.describe()}: negative total ramification")


def branch_count(spec: CoverSpec) -> int:
    """Total interior ramification from Riemann-Hurwitz (with multiplicity)."""
    spec.index  # validates the spec once
    return spec.ramification


def fredholm_index(spec: CoverSpec, components: int = 1) -> int:
    """Fredholm index of the cover.

    Genus-zero formula in dimension four: minus the Euler characteristic,
    plus the index sums of the ends, plus the degree-scaled doubled
    relative Chern number of the base.  Each further component raises the
    Euler characteristic by two.
    """
    return spec.index - 2 * (components - 1)


def virtual_dimension(spec: CoverSpec, components: int = 1) -> int:
    """Expected dimension of the constrained moduli space.

    Marked points are pinned to special points (net dimension change zero,
    by the divisor equation); each constrained branch point cuts down by
    two more.  Unconstrained covers of an orbit cylinder get the target
    translation quotiented; a pinned special point on the cylinder fixes
    the translation, so nothing is subtracted in the constrained case.
    """
    dim = fredholm_index(spec, components) - 2 * spec.constrained_branch_points
    if is_orbit_cylinder(spec.base) and spec.marked_points == 0:
        dim -= 1
    return dim


@dataclass(frozen=True)
class TangencyReport:
    dimension: int
    quotient_note: tuple[str, ...]


def tangency_report(spec: CoverSpec) -> TangencyReport:
    """Unperturbed dimension of the space of covers, with quotient notes."""
    if not spec.base.immersed:
        raise NotImmersed(
            f"{spec.describe()}: base not immersed, branch points of the cover "
            f"and of the covering map differ")
    dim = spec.base.index + 2 * branch_count(spec) - 2 * spec.constrained_branch_points
    notes = []
    if is_orbit_cylinder(spec.base):
        notes.append("target translation symmetry left unquotiented")
    if spec.punctures + spec.marked_points < 3:
        notes.append("domain automorphisms left unquotiented (fewer than three special points)")
    return TangencyReport(dim, tuple(notes))


def tangency_dimension(spec: CoverSpec) -> int:
    return tangency_report(spec).dimension


def cokernel_rank(spec: CoverSpec) -> int:
    """Rank of the obstruction bundle over the space of covers.

    Valid when the base is immersed, all asymptotics are elliptic (or the
    base is an orbit cylinder, where no ellipticity is needed), and the
    index does not exceed the unperturbed dimension bound.  Marked points
    do not enter: the bound and the index are those of the unmarked cover.
    """
    if not spec.base.immersed:
        raise HypothesesViolated(f"{spec.describe()}: base not immersed")
    if not is_orbit_cylinder(spec.base):
        bad = [it.name for it in (*spec.positive_ends, *spec.negative_ends)
               if not it.orbit.elliptic]
        if bad:
            raise HypothesesViolated(
                f"{spec.describe()}: non-elliptic asymptotics {bad} outside the "
                f"orbit-cylinder case")
    ind = spec.index
    bound = spec.base.index + 2 * spec.ramification
    if ind > bound:
        raise HypothesesViolated(
            f"{spec.describe()}: index {ind} exceeds the unperturbed dimension "
            f"{bound}; deformations need not stay multiple covers")
    return bound - ind


def obstruction_rank(spec: CoverSpec) -> int | None:
    """``cokernel_rank(spec)``, or None where its hypotheses fail."""
    try:
        return cokernel_rank(spec)
    except HypothesesViolated:
        return None


@dataclass(frozen=True)
class NormalChernRecord:
    c_N_doubled: int
    adjusted_c1_Nu: int
    negative_c1: bool


def normal_chern_numbers(spec: CoverSpec) -> NormalChernRecord:
    """Doubled normal Chern number and the adjusted normal first Chern number.

    ``2 c_N = ind - 2 + #Gamma_0`` at genus zero, where ``#Gamma_0`` counts
    asymptotic iterates with even index; ``c_1(N) = c_N - 2 Z``.  A negative
    adjusted Chern number forces the normal deformation kernel to vanish.
    """
    ind = spec.index
    gamma0 = sum(1 for it in (*spec.positive_ends, *spec.negative_ends)
                 if cz_iterate(it.orbit, it.k) % 2 == 0)
    doubled = ind - 2 + gamma0
    if doubled % 2:
        raise OddChern(
            f"{spec.describe()}: ind - 2 + #Gamma_0 = {doubled} is odd; "
            f"index and even-end count are inconsistent")
    c_n = doubled // 2
    adjusted = c_n - 2 * spec.ramification
    return NormalChernRecord(doubled, adjusted, adjusted < 0)


# ---------------------------------------------------------------------------
# Boundary stratification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeckSplit:
    """A separating neck: breaking orbits and two limit curves ending exactly on them."""

    orbits: tuple[ReebOrbit, ...]
    side_plus: BaseCurve
    side_minus: BaseCurve

    def __post_init__(self):
        if not self.orbits:
            raise InvalidCover("a neck needs at least one breaking orbit")
        if self.side_plus.index != 0 or self.side_minus.index != 0:
            raise HypothesesViolated(
                "neck limit curves must be rigid (index zero) by index additivity")
        ends = OrbitCollection(tuple(orbit.iterate(1) for orbit in self.orbits))
        for side, toward, away in ((self.side_plus, "negative", "positive"),
                                   (self.side_minus, "positive", "negative")):
            if len(side.ends(away)) or side.ends(toward).key() != ends.key():
                raise InvalidCover(f"neck limit curve {side.name} must have {toward} ends "
                                   f"{ends.render()} and no {away} end")


@dataclass(unsafe_hash=True)
class StratumNode:
    """One level of a two-level splitting, possibly disconnected.

    ``empty`` marks descriptors whose branch-point constraints outnumber
    the available branch points, so the unperturbed space is empty even
    though the descriptor appears in the stratification bookkeeping.  A
    plain value record, not frozen: no code assigns to a node once made.
    ``spec`` is built on first read from ``_made``, the node's key in
    ``boundary_strata``, and ``describe`` renders from that key alone.
    """

    node_id: str
    components: int
    level: str
    index: int
    virtual_dim: int
    unperturbed_dim: int | None
    obstruction_rank: int | None
    empty: bool
    _made: tuple = field(repr=False, compare=False)

    @_cached
    def spec(self) -> CoverSpec:
        level, (marked, constrained), _, _ = self._made
        return replace(level.spec, marked_points=marked, constrained_branch_points=constrained)

    def describe(self) -> str:
        level, marks, _, _ = self._made
        space = _describe(level.base.name, level.degree, *marks,
                          f"{level.positive.render()}|{level.negative.render()}")
        return f"{space} n={self.components} [{self.level}]"


@dataclass(unsafe_hash=True)
class StratumEdge:
    """A splitting of ``parent``: a plain value record, not frozen, like ``StratumNode``."""

    parent: str
    upper: str
    lower: str
    middle: OrbitCollection
    kind: str  # "sft" or "neck"


@dataclass
class StrataGraph:
    nodes: dict[str, StratumNode] = field(default_factory=dict)
    edges: list[StratumEdge] = field(default_factory=list)

    def node_list(self) -> list[StratumNode]:
        return list(self.nodes.values())

    def render_adjacency(self) -> str:
        lines = []
        for node in self.nodes.values():
            lines.append(f"node {node.node_id}\n  space {node.describe()}\n"
                         f"  index {node.index} virdim {node.virtual_dim}"
                         + (f" dim {node.unperturbed_dim}" if node.unperturbed_dim is not None else "")
                         + (f" rank {node.obstruction_rank}" if node.obstruction_rank is not None else ""))
        lines += [f"edge {edge.parent} -> {edge.upper} | {edge.lower} "
                  f"middle {edge.middle.render()} kind {edge.kind}" for edge in self.edges]
        return "\n".join(lines)

    def render_edge_lines(self) -> str:
        """One stratum per line: upper id, lower id, intermediate collection.

        The same product can bound several parents; it is listed once.
        """
        return "\n".join(dict.fromkeys(
            f"{e.upper}\t{e.lower}\t{e.middle.render()}" for e in self.edges))


def _partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    max_part = n if max_part is None else min(max_part, n)
    if n == 0:
        return [()]
    out = []
    for first in range(max_part, 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def end_profiles(orbit: ReebOrbit, total: int) -> list[OrbitCollection]:
    """All collections of iterates of one orbit with the given total multiplicity."""
    if orbit.elliptic and orbit.max_iterate < total:
        raise IterateOutOfRange(
            f"orbit {orbit.name}: max_iterate {orbit.max_iterate} cannot express "
            f"all end profiles of total multiplicity {total}")
    return [OrbitCollection(tuple(orbit.iterate(k) for k in parts))
            for parts in _partitions(total)]


def _marked_placements(r: int, c: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Distributions ((r_up, c_up), (r_low, c_low)) over the two levels."""
    return [((r_up, c_up), (r - r_up, c - c_up)) for r_up in range(r + 1)
            for c_up in range(min(c, r_up) + 1) if c - c_up <= r - r_up]


def _glue(upper: tuple, lower: tuple, middles: list[OrbitCollection], tags: tuple[str, str],
          collection, lower_first: bool = False):
    """The levels (base, degree, positive, negative) of ``upper`` over ``lower``, per middle.

    Each middle joins the negative ends of ``upper`` and the positive ends of
    ``lower``, which hold no iterate over its orbit, as ``collection(ends,
    middle, sign)``.  Yields the levels and tags, ``lower`` first when
    ``lower_first`` (placements and component counts run upward on the first
    level, which fixes the edge order), then the middle and ``lower_first``.
    """
    (u_base, u_degree, u_pos, u_neg), (l_base, l_degree, l_pos, l_neg) = upper, lower
    for middle in middles:
        glued = [((u_base, u_degree, u_pos, collection(u_neg, middle, "negative")), tags[0]),
                 ((l_base, l_degree, collection(l_pos, middle, "positive"), l_neg), tags[1])]
        yield (*(glued[::-1] if lower_first else glued), middle, lower_first)


def _splittings(level: _Level, neck: NeckSplit | None, profiles, collection):
    """Two-level splittings of ``level``, as ``_glue`` yields them.

    A cover of an orbit cylinder splits into two cylinder levels, a cover of
    another punctured base splits off one cylinder level over one orbit of
    one side, and a cover of a closed curve splits along the neck, with the
    middles ``profiles(orbit, total)``.  Along a neck of m orbits the sides
    of a degree-d split have 2d(2 - m) - 2 branch points in all, so only a
    one-orbit neck splits; each neck orbit's profiles are still built, so
    one out of range raises.
    """
    base, degree, empty = level.base, level.degree, EMPTY_COLLECTION
    if base.closed:
        middles = [profiles(orbit, degree) for orbit in sorted(neck.orbits, key=lambda o: o.name)]
        if len(middles) == 1:
            sides = (degree, empty, empty)
            yield from _glue((neck.side_plus, *sides), (neck.side_minus, *sides), middles[0],
                             (MIDDLE, MIDDLE), collection)
    elif level.cylinder:
        yield from _glue((base, degree, level.positive, empty),
                         (base, degree, empty, level.negative),
                         profiles(base.positive_ends.items[0].orbit, degree),
                         (TOP_CYLINDER, BOTTOM_CYLINDER), collection)
    else:
        for side, ends in (("positive", level.positive), ("negative", level.negative)):
            # the simple orbits of this side, in name order
            for orbit in {it.orbit.name: it.orbit for it in base.ends(side)}.values():
                active = OrbitCollection(tuple(it for it in ends if it.orbit.name == orbit.name),
                                         sign=side)
                rest = OrbitCollection(tuple(it for it in ends if it.orbit.name != orbit.name),
                                       sign=side)
                cyl = cylinder_over(orbit), active.total_multiplicity()
                if side == "positive":
                    yield from _glue((*cyl, active, empty), (base, degree, rest, level.negative),
                                     profiles(orbit, cyl[1]), (TOP_CYLINDER, MIDDLE), collection)
                else:
                    yield from _glue((base, degree, level.positive, rest), (*cyl, empty, active),
                                     profiles(orbit, cyl[1]), (MIDDLE, BOTTOM_CYLINDER),
                                     collection, lower_first=True)


class _Level:
    """An unmarked level (base, degree, ends) of one ``boundary_strata`` call.

    ``trivial`` is the component count at which it is a union of trivial
    cylinders, or 0.  Its spec, validated there, id prefix and cokernel
    rank are read on its first node.
    """

    def __init__(self, base: BaseCurve, degree: int, positive: OrbitCollection,
                 negative: OrbitCollection):
        self.base, self.degree, self.positive, self.negative = base, degree, positive, negative
        self.ramification = degree * (2 - base.punctures) - 2 + len(positive) + len(negative)
        # each component covers every puncture; each past the first takes two branch points
        self.bound = min(degree, self.ramification // 2 + 1, *(
            ends.end_counts.get(name, 0) // n
            for ends, base_ends in ((positive, base.positive_ends), (negative, base.negative_ends))
            for name, n in base_ends.end_counts.items()))
        self.cylinder = is_orbit_cylinder(base)
        self.trivial = len(positive) if self.cylinder and positive.key() == negative.key() else 0

    @_cached
    def spec(self) -> CoverSpec:
        return CoverSpec(self.base, self.degree, self.positive, self.negative)

    @_cached
    def prefix(self) -> str:
        return f"{self.base.name}:d{self.degree}:{self.positive.render()}/{self.negative.render()}"

    @_cached
    def rank(self) -> int | None:
        return obstruction_rank(self.spec)


def _make_node(key: tuple) -> StratumNode:
    """The node of ``key`` (level, marks, components, tag), annotated from its level.

    Marks change neither the ramification, the index nor the cokernel rank.
    """
    level, marks, components, tag = key
    index = level.spec.index - 2 * (components - 1)  # the level validates on its first node
    # the unperturbed dimension: each component past the first takes two branch points
    dim = (level.base.index + 2 * level.ramification - 4 * (components - 1) - 2 * marks[1]
           if level.base.immersed else None)
    empty = dim is not None and dim < 0  # the branch-point constraint cannot be met
    return StratumNode(
        node_id=f"{level.prefix}:r{marks[0]}c{marks[1]}:n{components}:{tag}",
        components=components, level=tag, index=index,
        # the translation quotient of an unmarked cylinder cover, as in virtual_dimension
        virtual_dim=index - 2 * marks[1] - (1 if level.cylinder and not marks[0] else 0),
        unperturbed_dim=None if empty else dim, empty=empty, _made=key,
        obstruction_rank=level.rank if dim is not None and not empty and components == 1 else None)


def boundary_strata(spec: CoverSpec, neck: NeckSplit | None = None,
                    max_codim: int = 2) -> StrataGraph:
    """Recursive two-level decomposition of a compactified cover space.

    Emits the root plus all strata reachable by splitting connected nodes
    up to ``max_codim`` times.  Neck splittings (for covers of closed
    curves with a declared neck) count as one step and are tagged "neck";
    ordinary two-level splittings are tagged "sft".

    Within one call an unmarked level (base, degree, ends) is found by its
    key, a merge of key tuples, and split once.  Its numbers come from its
    end counts; it builds and validates its spec on its first node (levels
    without nodes are never validated), and its nodes share its index, id
    prefix, cylinder flag and cokernel rank.  Middle profiles, end
    collections and nodes are built once per call, a node's spec when first
    read, and nothing outlives the call.  A level of ramification R has at
    most R // 2 + 1 components (each covers every puncture, each past the
    first takes two branch points): no node has negative branch points.
    """
    levels: dict[tuple, _Level] = {}
    # each level's splittings, kept off the levels: a level can split into itself,
    # and holding its own splittings it would be a reference cycle
    split_table: dict[_Level, list[tuple]] = {}
    nodes: dict[tuple, StratumNode] = {}
    collections: dict[tuple, OrbitCollection] = {}
    middles = functools.cache(end_profiles)  # this call's only: freed on return

    def collection(ends: OrbitCollection, middle: OrbitCollection, sign: str) -> OrbitCollection:
        key = (tuple(sorted(ends.key() + middle.key())) if ends.items else middle.key(), sign)
        return collections.get(key) or collections.setdefault(  # glued ends are never empty
            key, OrbitCollection(ends.items + middle.items, sign=sign))

    def level(base: BaseCurve, degree: int, positive: OrbitCollection,
              negative: OrbitCollection) -> _Level:
        key = (base.name, degree, positive.key(), negative.key())
        return levels.get(key) or levels.setdefault(
            key, _Level(base, degree, positive, negative))

    def splits(lvl: _Level) -> list[tuple]:
        if lvl not in split_table:
            split_table[lvl] = []
            for (first, first_tag), (second, second_tag), middle, lower_first in _splittings(
                    lvl, neck, middles, collection):
                first, second = level(*first), level(*second)
                # genus zero: the component counts sum to one more than the middle
                total = len(middle.items) + 1
                counts = range(max(1, total - second.bound), min(first.bound, total - 1) + 1)
                split_table[lvl].append((first, first_tag, second, second_tag, middle, total,
                                         counts, lower_first))
        return split_table[lvl]

    spec.index  # validates the root once
    root_level = level(spec.base, spec.degree, spec.positive_ends, spec.negative_ends)
    root_level.spec = spec  # the root's own, marks and all
    # a node is keyed by (level, marks, components, tag) and made once
    key = (root_level, (spec.marked_points, spec.constrained_branch_points), 1, MIDDLE)
    root = nodes[key] = _make_node(key)
    graph = StrataGraph(nodes={root.node_id: root})
    queue, nodes_by_id, edges = [(root, 0)], graph.nodes, graph.edges
    for parent, codim in queue:
        parent_level, parent_marks, components, _ = parent._made
        closed = parent_level.base.closed
        if codim >= max_codim or components != 1 or (closed and (neck is None or codim)):
            continue
        kind = "neck" if closed else "sft"
        placements = _marked_placements(*parent_marks)
        for (first, first_tag, second, second_tag, middle, total, counts,
             lower_first) in splits(parent_level):
            for marks_first, marks_second in placements:
                # unmarked trivial cylinders are no splitting (0 and total are never counts)
                skip_first = first.trivial if marks_first == (0, 0) else 0
                skip_second = total - second.trivial if marks_second == (0, 0) else 0
                for n_first in counts:
                    if n_first == skip_first or n_first == skip_second:
                        continue
                    key_a = (first, marks_first, n_first, first_tag)
                    a = nodes.get(key_a) or nodes.setdefault(key_a, _make_node(key_a))
                    key_b = (second, marks_second, total - n_first, second_tag)
                    b = nodes.get(key_b) or nodes.setdefault(key_b, _make_node(key_b))
                    upper, lower = (b, a) if lower_first else (a, b)
                    for child in (upper, lower):
                        if child.node_id not in nodes_by_id:
                            nodes_by_id[child.node_id] = child
                            queue.append((child, codim + 1))
                    edges.append(StratumEdge(parent.node_id, upper.node_id, lower.node_id,
                                             middle, kind))
    return graph


# ---------------------------------------------------------------------------
# Hurwitz counts
# ---------------------------------------------------------------------------


def _check_hurwitz_input(d: int, end_profiles: list[tuple[int, ...]],
                         simple_branch_points: int, bound: int) -> None:
    if d > bound:
        raise DegreeTooLarge(f"degree {d} exceeds the degree bound {bound}")
    if d < 1:
        raise InconsistentProfile(f"degree must be positive, got {d}")
    if simple_branch_points < 0:
        raise InconsistentProfile(
            f"number of simple branch points must be non-negative, got {simple_branch_points}")
    if simple_branch_points > HURWITZ_BRANCH_POINT_BOUND:
        raise DegreeTooLarge(f"{simple_branch_points} simple branch points exceed "
                             f"the bound {HURWITZ_BRANCH_POINT_BOUND}")
    for profile in end_profiles:
        if sum(profile) != d or min(profile) < 1:
            raise InconsistentProfile(f"profile {profile} is not a partition of {d}")


@functools.cache
def _splits(mu: tuple[int, ...], s: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each sub-multiset nu of mu with |nu| = s, paired with its complement."""
    parts = sorted(set(mu), reverse=True)
    return [(tuple(p for t, p in zip(takes, parts) for _ in range(t)),
             tuple(p for t, p in zip(takes, parts) for _ in range(mu.count(p) - t)))
            for takes in itertools.product(*(range(mu.count(p) + 1) for p in parts))
            if sum(t * p for t, p in zip(takes, parts)) == s]


def _moving(mus) -> tuple[tuple[int, ...], ...]:
    """Canonical key of a list of cycle types: identities dropped, sorted.

    Tuple counts do not depend on the order of the factors, and an identity
    factor changes neither the product nor the orbits.
    """
    return tuple(sorted(mu for mu in mus if mu[0] > 1))


@functools.cache
def _character(beta: frozenset[int], mu: tuple[int, ...]) -> int:
    """chi_lambda(mu) by Murnaghan-Nakayama on the beta-set of lambda.

    Removing a rim hook of length r moves a bead from b to a free b - r;
    its sign is the parity of the beads strictly between.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            between = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** between * _character(beta - {b} | {b - r}, rest)
    return total


@functools.cache
def _irreducibles(d: int) -> list[tuple[frozenset[int], int, int]]:
    """(beta-set, dimension, content sum) of each irreducible character of S_d.

    The beads of lambda sit at lambda_i + len(lambda) - i.  Its content sum,
    of j - i over the boxes (i, j), is the central character of a transposition.
    """
    out = []
    for lam in _partitions(d):
        beta = frozenset(p + len(lam) - 1 - i for i, p in enumerate(lam))
        out.append((beta, _character(beta, (1,) * d),
                    sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam))))
    return out


@functools.cache
def _disconnected(d: int, mus: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """Tuples with identity product as ``{x: c}``, the count being ``sum c x^b / d!``.

    A tuple holds one permutation of each cycle type in ``mus`` and b
    transpositions.  By Frobenius, c sums ``(dim lambda)^2 prod f_lambda(mu)``
    over the lambda of content sum x, with the central characters
    ``f_lambda(mu) = |C_mu| chi_lambda(mu) / dim lambda``.
    """
    sizes = [factorial(d) // prod(p ** mu.count(p) * factorial(mu.count(p)) for p in set(mu))
             for mu in mus]  # |C_mu| = d! / z_mu
    total = Counter()
    for beta, dim, x in _irreducibles(d):
        total[x] += dim ** 2 * prod(size * _character(beta, mu) // dim
                                    for size, mu in zip(sizes, mus))
    return {x: c for x, c in total.items() if c}


@functools.cache
def _connected(d: int, mus: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """``_disconnected`` for the tuples acting transitively.

    All tuples minus those where sheet 0 sees s < d sheets.  The orbit of
    sheet 0 is one of C(d-1, s-1) sets; each permutation splits into cycles
    on it (type nu) and off it (type rho), and j of the b transpositions lie
    on it.  As ``sum_j C(b, j) x^j y^(b-j) = (x + y)^b``, the sum over j has
    bases x + y, and the scales s! and (d - s)! of its factors give C(d, s).
    """
    total = Counter(_disconnected(d, mus))
    for s in range(1, d):
        weight = comb(d, s) * comb(d - 1, s - 1)
        splits = Counter({((), ()): 1})
        for mu in mus:  # the (nu, rho) types of the splits, merged after each profile
            merged = Counter()
            for (nu, rho), k in splits.items():
                for n, r in _splits(mu, s):
                    merged[_moving((*nu, n)), _moving((*rho, r))] += k
            splits = merged
        for (nu, rho), k in splits.items():
            off_orbit = _disconnected(d - s, rho)
            for x, a in _connected(s, nu).items():
                for y, c in off_orbit.items():
                    total[x + y] -= weight * k * a * c
    return {x: c for x, c in total.items() if c}


def hurwitz_count(d: int, end_profiles: list[tuple[int, ...]],
                  simple_branch_points: int = 0) -> Fraction:
    """Connected Hurwitz count with labeled branch points.

    Counts tuples of permutations in S_d, one of each requested cycle type
    plus one transposition per simple branch point, with identity product
    and transitive joint action, weighted by 1/d!.  For d and b up to
    ``HURWITZ_DEGREE_BOUND`` and ``HURWITZ_BRANCH_POINT_BOUND`` it is the
    exponential sum ``sum_x c_x x^b / (d!)^2`` of ``_connected``, evaluated
    exactly; a transitive tuple has even ramification of at least 2d - 2
    (Riemann-Hurwitz, genus >= 0), so other counts are zero.
    """
    _check_hurwitz_input(d, end_profiles, simple_branch_points, HURWITZ_DEGREE_BOUND)
    mus = _moving(tuple(sorted(p, reverse=True)) for p in end_profiles)
    ramification = sum(d - len(mu) for mu in mus) + simple_branch_points
    if ramification % 2 or ramification < 2 * d - 2:
        return Fraction(0)
    return Fraction(sum(c * x ** simple_branch_points
                        for x, c in _connected(d, mus).items()), factorial(d) ** 2)


# The symmetric-group enumerator below is the independent oracle that
# ``localsft check`` and the tests compare ``hurwitz_count`` with.

ENUMERATION_DEGREE_BOUND = 6


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a after b): first apply b, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        cycles.append(length)
    cycles.sort(reverse=True)
    return tuple(cycles)


def permutations_of_type(d: int, profile: tuple[int, ...]) -> list[tuple[int, ...]]:
    want = tuple(sorted(profile, reverse=True))
    return [p for p in itertools.permutations(range(d)) if cycle_type(p) == want]


def _is_transitive(perms: list[tuple[int, ...]], d: int) -> bool:
    if d == 1:
        return True
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            for y in (p[x], p.index(x)):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == d


def _hurwitz_by_enumeration(d: int, end_profiles: list[tuple[int, ...]],
                            simple_branch_points: int = 0) -> Fraction:
    """``hurwitz_count`` by enumerating permutation tuples in S_d, for d <= 6."""
    _check_hurwitz_input(d, end_profiles, simple_branch_points, ENUMERATION_DEGREE_BOUND)
    identity = tuple(range(d))
    transpositions = permutations_of_type(d, (2,) + (1,) * (d - 2)) if d >= 2 else []
    if simple_branch_points and d < 2:
        return Fraction(0)
    classes = [permutations_of_type(d, tuple(p)) for p in end_profiles]
    classes += [transpositions] * simple_branch_points
    if not classes:
        return Fraction(1, factorial(d)) if d == 1 else Fraction(0)
    # The last factor is determined by the inverse of the running product.
    last_type = (cycle_type(classes[-1][0]) if classes[-1]
                 else None)
    if last_type is None:
        return Fraction(0)
    count = 0
    for prefix in itertools.product(*classes[:-1]):
        product = identity
        for perm in prefix:
            product = _perm_compose(product, perm)
        last = _perm_inverse(product)
        if cycle_type(last) != last_type:
            continue
        if _is_transitive(list(prefix) + [last], d):
            count += 1
    return Fraction(count, factorial(d))
