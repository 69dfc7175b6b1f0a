"""Generating functions of weighted cover counts and their composition.

A count table assigns an exact rational count to each admissible pair of
asymptotic collections.  The associated generating function weights the
count of ``(Gamma+, Gamma-)`` by ``1/(s+! s-! kappa+ kappa-)`` on the
monomial ``q^{Gamma-} p^{Gamma+}``; the weights are invertible, so tables
and series determine each other exactly.

Composition ``#`` eliminates the shared middle variables along the formal
Lagrangian ``q = kappa * dR f-/dp`` and ``p = kappa * dL f+/dq``.  The
constraint system is solved by fixed-point iteration in the filtration by
total external degree; failure to stabilize is reported, never forced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import (
    GradedSeries,
    Monomial,
    SlotTerms,
    Variable,
    _add_pairing,
    _conjugate_pairs,
    multiply,
    partial,
    partial_right,
    render_monomial,
    reside,
    substitute,
)
from .covers import BaseCurve, CoverSpec, cokernel_rank, cylinder_over, validate_cover
from .errors import (
    HypothesesViolated,
    InadmissibleKey,
    NoFormalSolution,
    RegistryMismatch,
)
from .orbits import (
    OrbitCollection,
    OrbitIterate,
    OrbitRegistry,
    is_good,
    variable_degree,
)

CollectionKey = tuple[tuple[str, int], ...]
TableKey = tuple[CollectionKey, CollectionKey]


def _collection_from_key(key: CollectionKey, registry: OrbitRegistry) -> OrbitCollection:
    return OrbitCollection(tuple(registry.get(name).iterate(k) for name, k in key))


def _render_key(key: CollectionKey) -> str:
    return "(" + ",".join(name if k == 1 else f"{name}^{k}" for name, k in key) + ")"


class CountTable:
    """Exact rational counts of perturbed cover spaces, keyed by asymptotics.

    Keys are canonicalized to unordered multisets.  Entries whose implied
    cover fails the obstruction-bundle rank hypotheses are flagged rather
    than rejected.
    """

    def __init__(self, context_kind: str, context_name: str,
                 entries: dict[TableKey, Fraction],
                 registry: OrbitRegistry,
                 base: BaseCurve | None = None):
        if context_kind not in ("orbit", "curve"):
            raise ValueError(f"table context must be orbit or curve, got {context_kind!r}")
        self.context_kind = context_kind
        self.context_name = context_name
        self.registry = registry
        if context_kind == "orbit":
            base = cylinder_over(registry.get(context_name))
        elif base is None:
            raise ValueError("curve tables need the base curve")
        self.base = base
        self.entries: dict[TableKey, Fraction] = {}
        self.hypothesis_ok: dict[TableKey, bool] = {}
        for key, count in entries.items():
            key = (tuple(sorted(key[0])), tuple(sorted(key[1])))
            self._validate_key(key)
            if key in self.entries:
                raise InadmissibleKey(f"duplicate table key {self._describe_key(key)}")
            self.entries[key] = Fraction(count)
            self.hypothesis_ok[key] = self._check_hypotheses(key)

    def _describe_key(self, key: TableKey) -> str:
        return f"{_render_key(key[0])}|{_render_key(key[1])}"

    def _spec_for_key(self, key: TableKey) -> CoverSpec:
        pos = _collection_from_key(key[0], self.registry)
        neg = _collection_from_key(key[1], self.registry)
        degrees = set()
        for side, coll in (("positive", pos), ("negative", neg)):
            base_total = self.base.ends(side).total_multiplicity()
            if base_total:
                total = coll.total_multiplicity()
                if total % base_total:
                    raise InadmissibleKey(
                        f"key {self._describe_key(key)}: multiplicity {total} is not "
                        f"a multiple of the base profile {base_total}")
                degrees.add(total // base_total)
        if not degrees:
            raise InadmissibleKey(
                f"key {self._describe_key(key)}: cannot infer a covering degree")
        if len(degrees) > 1:
            raise InadmissibleKey(
                f"key {self._describe_key(key)}: sides imply different degrees {sorted(degrees)}")
        return CoverSpec(self.base, degrees.pop(), pos, neg)

    def _validate_key(self, key: TableKey) -> None:
        for side_key in key:
            counted: dict[tuple[str, int], int] = {}
            for name, k in side_key:
                if name not in self.registry:
                    raise InadmissibleKey(f"unknown orbit {name!r} in table key")
                counted[(name, k)] = counted.get((name, k), 0) + 1
            for (name, k), times in counted.items():
                it = self.registry.get(name).iterate(k)
                if not is_good(it):
                    raise InadmissibleKey(
                        f"key {self._describe_key(key)}: bad iterate {it.name} carries "
                        f"no variables")
                if times > 1 and variable_degree(it, "q") % 2 == 1:
                    raise InadmissibleKey(
                        f"key {self._describe_key(key)}: odd iterate {it.name} repeats; "
                        f"its monomial vanishes and the weight is not invertible")
        spec = self._spec_for_key(key)
        validate_cover(spec)

    def _check_hypotheses(self, key: TableKey) -> bool:
        try:
            cokernel_rank(self._spec_for_key(key))
        except HypothesesViolated:
            return False
        return True

    def sorted_entries(self) -> list[tuple[TableKey, Fraction]]:
        return sorted(self.entries.items())

    def __eq__(self, other):
        return (isinstance(other, CountTable)
                and self.context_kind == other.context_kind
                and self.context_name == other.context_name
                and self.entries == other.entries)


@dataclass(frozen=True)
class Potential:
    """A generating function in (q, p) variables with table provenance."""

    series: GradedSeries
    source: CountTable | None = None
    q_side: str = "minus"
    p_side: str = "plus"

    def render(self) -> str:
        return self.series.render()


def _weight(pos_key: CollectionKey, neg_key: CollectionKey) -> Fraction:
    kappa_pos = 1
    for _, k in pos_key:
        kappa_pos *= k
    kappa_neg = 1
    for _, k in neg_key:
        kappa_neg *= k
    return Fraction(1, factorial(len(pos_key)) * factorial(len(neg_key))
                    * kappa_pos * kappa_neg)


def potential_from_counts(table: CountTable, truncation: int,
                          q_side: str = "minus", p_side: str = "plus") -> Potential:
    """Weighted generating function of a count table."""
    registry = table.registry
    series = GradedSeries.zero(registry, truncation)
    for (pos_key, neg_key), count in table.sorted_entries():
        term = _key_monomial(pos_key, neg_key, registry, truncation, q_side, p_side)
        series = series + term.scale(count * _weight(pos_key, neg_key))
    return Potential(series, source=table, q_side=q_side, p_side=p_side)


def hamiltonian_from_counts(table: CountTable, truncation: int,
                            q_side: str = "minus", p_side: str = "plus") -> Potential:
    """Generating function of an orbit table (covers of one orbit cylinder)."""
    if table.context_kind != "orbit":
        raise InadmissibleKey("hamiltonians are built from single-orbit tables")
    return potential_from_counts(table, truncation, q_side, p_side)


def _key_monomial(pos_key: CollectionKey, neg_key: CollectionKey,
                  registry: OrbitRegistry, truncation: int,
                  q_side: str, p_side: str) -> GradedSeries:
    """Unit series ``q^{Gamma-} p^{Gamma+}``, q-letters first.

    The canonical storage order may differ, so the single stored term
    carries the Koszul sign of the construction; weight inversion has to
    divide it out again.
    """
    term = GradedSeries.constant(registry, truncation, 1)
    for name, k in neg_key:
        var = Variable(registry.get(name).iterate(k), "q", q_side)
        term = multiply(term, GradedSeries.of(registry, truncation, var))
    for name, k in pos_key:
        var = Variable(registry.get(name).iterate(k), "p", p_side)
        term = multiply(term, GradedSeries.of(registry, truncation, var))
    return term


def _monomial_key(mono: Monomial, potential: Potential) -> TableKey | None:
    """Table key of a monomial; None for a letter outside the potential's slots."""
    ends = {("p", potential.p_side): [], ("q", potential.q_side): []}
    for var, exp in mono:
        if (var.kind, var.side) not in ends:
            return None
        ends[var.kind, var.side].extend([(var.iterate.orbit.name, var.iterate.k)] * exp)
    pos, neg = ends.values()
    return tuple(sorted(pos)), tuple(sorted(neg))


def potential_to_counts(potential: Potential) -> CountTable:
    """Read the counts back off the coefficients (inverse of the weights)."""
    if potential.source is None:
        raise ValueError("potential has no table provenance to rebuild")
    table = potential.source
    registry = potential.series.registry
    entries: dict[TableKey, Fraction] = {}
    for mono, coeff in potential.series.terms():
        key = _monomial_key(mono, potential)
        if key is None:
            raise InadmissibleKey(
                f"monomial {render_monomial(mono)} has a variable outside the "
                f"potential's (q {potential.q_side}, p {potential.p_side}) slots")
        unit = _key_monomial(*key, registry, potential.series.truncation,
                             potential.q_side, potential.p_side)
        sign = unit.coefficient(mono)
        entries[key] = coeff / (sign * _weight(*key))
    return CountTable(table.context_kind, table.context_name, entries,
                      table.registry, base=table.base)


@dataclass(frozen=True)
class VanishingReport:
    """Result of checking a closed-orbit generating function against zero."""

    status: str  # "pass", "warn", or "fail"
    offenders: tuple[str, ...]
    message: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def assert_hamiltonian_vanishes(h: Potential) -> VanishingReport:
    """Closed-orbit generating functions vanish; report any nonzero terms.

    Nonzero terms traced entirely to entries whose rank hypotheses already
    failed downgrade the verdict to a warning.
    """
    if h.series.is_zero():
        return VanishingReport("pass", (), "series vanishes identically")
    offenders = tuple(render_monomial(m) for m, _ in h.series.terms())
    if h.source is not None:
        flagged = {key for key, ok in h.source.hypothesis_ok.items() if not ok}
        keys = {_monomial_key(mono, h) for mono, _ in h.series.terms()}
        if keys <= flagged:
            return VanishingReport(
                "warn", offenders,
                "nonzero terms come only from entries with failing rank hypotheses")
    return VanishingReport("fail", offenders,
                           f"series does not vanish: {offenders[0]} ...")


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def identity_series(iterates: list[OrbitIterate], registry: OrbitRegistry,
                    truncation: int, q_side: str, p_side: str) -> GradedSeries:
    """``sum kappa^{-1} q p`` over the given iterates: the unit for ``#``."""
    out = GradedSeries.zero(registry, truncation)
    for it in iterates:
        q = GradedSeries.of(registry, truncation, Variable(it, "q", q_side))
        p = GradedSeries.of(registry, truncation, Variable(it, "p", p_side))
        out = out + multiply(q, p).scale(Fraction(1, it.k))
    return out


def identity_potential(iterates: list[OrbitIterate], registry: OrbitRegistry,
                       truncation: int, q_side: str = "minus",
                       p_side: str = "plus") -> Potential:
    return Potential(identity_series(iterates, registry, truncation, q_side, p_side),
                     q_side=q_side, p_side=p_side)


def _external_truncate(series: GradedSeries, order: int) -> GradedSeries:
    terms = {m: c for m, c in series._terms.items() if len(m) <= order}
    return GradedSeries._of_slots(series.registry, series.truncation, terms)


def _solve_lagrangian(f_minus: GradedSeries, f_plus: GradedSeries,
                      middle: list[OrbitIterate], order: int
                      ) -> tuple[dict[Variable, GradedSeries], dict[Variable, GradedSeries]]:
    registry = f_minus.registry
    truncation = f_minus.truncation
    q_vars = [Variable(it, "q", "middle") for it in middle]
    p_vars = [Variable(it, "p", "middle") for it in middle]
    forbidden_q = {v.key for v in q_vars}
    forbidden_p = {v.key for v in p_vars}
    for v in f_minus.variables():
        if v.key in forbidden_q:
            raise RegistryMismatch(
                f"left factor may not depend on the middle variable {v.render()}")
    for v in f_plus.variables():
        if v.key in forbidden_p:
            raise RegistryMismatch(
                f"right factor may not depend on the middle variable {v.render()}")
    zero = GradedSeries.zero(registry, truncation)
    q_sol = {v: zero for v in q_vars}
    p_sol = {v: zero for v in p_vars}
    for _ in range(order + 2):
        new_p = {}
        for v in p_vars:
            rhs = partial(f_plus, Variable(v.iterate, "q", "middle")).scale(v.kappa)
            rhs = substitute(rhs, q_sol, check_degrees=False)
            new_p[v] = _external_truncate(rhs, order)
        new_q = {}
        for v in q_vars:
            rhs = partial_right(f_minus, Variable(v.iterate, "p", "middle")).scale(v.kappa)
            rhs = substitute(rhs, p_sol, check_degrees=False)
            new_q[v] = _external_truncate(rhs, order)
        if new_p == p_sol and new_q == q_sol:
            return q_sol, p_sol
        q_sol, p_sol = new_q, new_p
    constants = {}
    for v, sol in itertools.chain(q_sol.items(), p_sol.items()):
        const = sol.coefficient(())
        if const:
            constants[v.render()] = const
    raise NoFormalSolution(
        f"constraint system did not stabilize within {order + 2} passes; "
        f"obstructing constant terms: "
        + (", ".join(f"{k}={v}" for k, v in sorted(constants.items())) or "none"),
        obstructions=constants)


def compose_sharp(f_minus: Potential, f_plus: Potential,
                  middle: list[OrbitIterate], order: int) -> Potential:
    """The ``#`` composition along shared middle orbits.

    ``f_minus`` feeds the middle p-variables, ``f_plus`` the middle
    q-variables; the middle pair is eliminated along the Lagrangian
    constraints and the result lives in the remaining external variables,
    kept to total external degree ``order``.
    """
    fm, fp = f_minus.series, f_plus.series
    fm._check_compatible(fp)
    q_sol, p_sol = _solve_lagrangian(fm, fp, middle, order)
    correction = identity_series(middle, fm.registry, fm.truncation,
                                 q_side="middle", p_side="middle")
    total = fm + fp - correction
    assignment = {**q_sol, **p_sol}
    result = substitute(total, assignment, check_degrees=False)
    result = _external_truncate(result, order)
    return Potential(result, q_side=f_minus.q_side, p_side=f_plus.p_side)


def reside_potential(potential: Potential, middle_orbits: set[str],
                     move: str) -> Potential:
    """Move one slot of a potential onto the middle rail for composition.

    ``move="p"`` retags the p-variables over the given orbits (preparing a
    left factor), ``move="q"`` the q-variables (right factor).
    """
    if move == "p":
        series = reside(potential.series, kind="p", side=potential.p_side,
                        new_side="middle", orbit_names=middle_orbits)
        return Potential(series, source=None, q_side=potential.q_side, p_side="middle")
    if move == "q":
        series = reside(potential.series, kind="q", side=potential.q_side,
                        new_side="middle", orbit_names=middle_orbits)
        return Potential(series, source=None, q_side="middle", p_side=potential.p_side)
    raise ValueError("move must be 'p' or 'q'")


def transform_potential(f0: Potential, f10: Potential, f01: Potential,
                        middle_minus: list[OrbitIterate],
                        middle_plus: list[OrbitIterate],
                        order: int) -> Potential:
    """Conjugate a potential by the cylinder potentials of its two ends.

    Computes ``f10 # f0 # f01``.  Both bracketings are evaluated and must
    agree up to the requested order; the composition is associative, so a
    disagreement signals corrupted inputs.
    """
    minus_names = {it.orbit.name for it in middle_minus}
    plus_names = {it.orbit.name for it in middle_plus}
    if minus_names & plus_names:
        raise RegistryMismatch("the two middle orbit sets must be disjoint")

    inner = compose_sharp(reside_potential(f0, plus_names, "p"),
                          reside_potential(f01, plus_names, "q"),
                          middle_plus, order)
    right_first = compose_sharp(reside_potential(f10, minus_names, "p"),
                                reside_potential(inner, minus_names, "q"),
                                middle_minus, order)

    inner_left = compose_sharp(reside_potential(f10, minus_names, "p"),
                               reside_potential(f0, minus_names, "q"),
                               middle_minus, order)
    left_first = compose_sharp(reside_potential(inner_left, plus_names, "p"),
                               reside_potential(f01, plus_names, "q"),
                               middle_plus, order)
    if right_first.series != left_first.series:
        raise NoFormalSolution("the two bracketings of the triple composition disagree")
    return right_first


# ---------------------------------------------------------------------------
# Hamilton-Jacobi and Lagrangian restriction
# ---------------------------------------------------------------------------


def hamilton_jacobi_rhs(h_plus: Potential, h_minus: Potential,
                        k: GradedSeries) -> GradedSeries:
    """The kappa-weighted two-term pairing driving the homotopy equation.

    ``sum kappa ( dR h_plus/dp * dL k/dq + dR k/dp * dL h_minus/dq )``
    over all conjugate pairs in sight.  With both boundary generating
    functions zero this is identically zero, which is what pins the
    potential along the homotopy.
    """
    hp, hm = h_plus.series, h_minus.series
    hp._check_compatible(k)
    hm._check_compatible(k)
    pairs = _conjugate_pairs(hp, hm, k)
    terms: SlotTerms = {}
    _add_pairing(terms, hp, k, pairs)
    _add_pairing(terms, k, hm, pairs)
    return GradedSeries._of_slots(k.registry, k.truncation, terms)


def lagrangian_restrict(g: GradedSeries, f_v: Potential) -> GradedSeries:
    """Restrict a cylinder-side observable to the graph Lagrangian of ``f_v``.

    Substitutes ``q+ = kappa * dR f_v/dp+`` and ``p- = kappa * dL f_v/dq-``
    (same kappa placement as in the composition); plus-side p and
    minus-side q variables pass through.
    """
    series = f_v.series
    g._check_compatible(series)
    assignment: dict[Variable, GradedSeries] = {}
    for var in g.variables():
        if var.kind == "q" and var.side == "plus":
            image = partial_right(series, Variable(var.iterate, "p", f_v.p_side))
            assignment[var] = image.scale(var.kappa)
        elif var.kind == "p" and var.side == "minus":
            image = partial(series, Variable(var.iterate, "q", f_v.q_side))
            assignment[var] = image.scale(var.kappa)
    return substitute(g, assignment, check_degrees=False)
