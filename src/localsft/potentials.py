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
A pass sets ``p_{k+1} = F(q_k)`` and ``q_{k+1} = G(p_k)``, so a half whose
input did not move in the previous pass keeps its value without being
recomputed; the passes, and the iterate at which the fixed point is
declared, are those of recomputing both halves every time.  The first
pass, from zero inputs, is each right side's settled terms, those with no
letter of its half's input; a half with no live terms is never recomputed,
and a later pass substitutes into the whole right side, whose settled terms
the substitution kernel passes through.  The composed value is the critical
value of ``F- + F+ - sum kappa^-1 q p``, read off by the graded Euler
identity when the solution keeps its variables' parities (see
``compose_sharp``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from operator import itemgetter

from .algebra import (
    _FIELDS,
    _LETTERS,
    _Q_BIT,
    GradedSeries,
    Monomial,
    PackedTerms,
    Variable,
    _add_pairing,
    _conjugate_pairs,
    _kappa,
    _mask,
    _ordered,
    _packed,
    _partial,
    _preserves_parity,
    _reduced,
    _slots,
    _substitute_slots,
    _used,
    partial,
    partial_right,
    render_monomial,
    reside,
    substitute,
)
from .covers import BaseCurve, CoverSpec, cylinder_over, is_orbit_cylinder, obstruction_rank
from .errors import (
    InadmissibleKey,
    InconsistentProfile,
    InvalidTable,
    InvalidTruncation,
    InvalidVariable,
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
_FIRST = itemgetter(0)


class CountTable:
    """Exact rational counts of perturbed cover spaces, keyed by asymptotics.

    Keys are canonicalized to unordered multisets.  Each row is checked
    once, on its pair of collections: the constructor builds them from its
    keys, and the config parser hands ``_add`` the collections it parsed.
    The check is arithmetic on the base's numbers, taken once per table; a
    row it does not admit goes through ``_validate``, which raises.
    Entries whose implied cover fails the obstruction-bundle rank
    hypotheses are flagged rather than rejected.
    """

    def __init__(self, context_kind: str, context_name: str,
                 entries: dict[TableKey, Fraction],
                 registry: OrbitRegistry,
                 base: BaseCurve | None = None):
        if context_kind not in ("orbit", "curve"):
            raise InvalidTable(f"table context must be orbit or curve, got {context_kind!r}")
        self.context_kind = context_kind
        self.context_name = context_name
        self.registry = registry
        if base is None:
            if context_kind == "curve":
                raise InvalidTable("curve tables need the base curve")
            base = cylinder_over(registry.get(context_name))
        self.base = base
        # the base's numbers for every row; a row that covers its profiles ends on its orbits
        self._profiles = (base.positive_ends.multiplicities, base.negative_ends.multiplicities)
        self._total = sum(self._profiles[0].values()) + sum(self._profiles[1].values())
        self._hypotheses = base.immersed and (is_orbit_cylinder(base) or all(
            it.orbit.elliptic for it in (*base.positive_ends, *base.negative_ends)))
        self.entries: dict[TableKey, Fraction] = {}
        self.hypothesis_ok: dict[TableKey, bool] = {}
        for (pos_key, neg_key), count in entries.items():
            self._add(self._collection(pos_key, "positive"),
                      self._collection(neg_key, "negative"), count)

    def _collection(self, side_key: CollectionKey, sign: str) -> OrbitCollection:
        """One side of a key as a collection; raises for an unknown orbit."""
        for name, _ in side_key:
            if name not in self.registry:
                raise InadmissibleKey(f"unknown orbit {name!r} in table key")
        return OrbitCollection(tuple(self.registry.get(name).iterate(k)
                                     for name, k in side_key), sign=sign)

    def _add(self, pos: OrbitCollection, neg: OrbitCollection, count: Fraction) -> None:
        """Check the row ``pos|neg`` and record its count; raises for an inadmissible key.

        Arithmetic admits what ``_validate`` admits: nonvanishing sides that cover the
        base's profiles with one degree d >= 1 at ramification R >= 0, of index
        ``P - 2 + d*rel_c1_doubled + cz+ - cz-``.  Other rows go to ``_validate``, which raises.
        """
        base, punctures = self.base, len(pos.items) + len(neg.items)
        total = sum(pos.multiplicities.values()) + sum(neg.multiplicities.values())
        degree = total // self._total if self._total else 0
        ramification = degree * (2 - base.punctures) - 2 + punctures
        if (degree > 0 and ramification >= 0 and pos.nonvanishing and neg.nonvanishing
                and pos.multiplicities == {n: degree * m for n, m in self._profiles[0].items()}
                and neg.multiplicities == {n: degree * m for n, m in self._profiles[1].items()}):
            index = punctures - 2 + degree * base.rel_c1_doubled + pos.cz_sum - neg.cz_sum
            ok = self._hypotheses and index <= base.index + 2 * ramification
        else:
            ok = obstruction_rank(self._validate(pos, neg)) is not None
        key = (pos.key(), neg.key())
        if key in self.entries:
            raise InadmissibleKey(f"duplicate table key {pos.render()}|{neg.render()}")
        self.entries[key] = count if type(count) is Fraction else Fraction(count)
        self.hypothesis_ok[key] = ok

    def _validate(self, pos: OrbitCollection, neg: OrbitCollection) -> CoverSpec:
        """The validated cover spec of a row; raises for an inadmissible key (oracle of _add)."""
        def reject(reason: str) -> InadmissibleKey:
            return InadmissibleKey(f"key {pos.render()}|{neg.render()}: {reason}")

        for coll in (pos, neg):
            for _, copies in itertools.groupby(zip(coll.key(), coll.items), key=_FIRST):
                it = next(copies)[1]
                if not is_good(it):
                    raise reject(f"bad iterate {it.name} carries no variables")
                if next(copies, None) is not None and variable_degree(it, "q") % 2 == 1:
                    raise reject(f"odd iterate {it.name} repeats; its monomial vanishes "
                                 f"and the weight is not invertible")
        degrees = set()
        for side, coll in (("positive", pos), ("negative", neg)):
            base_total = self.base.ends(side).total_multiplicity()
            if base_total:
                total = coll.total_multiplicity()
                if total % base_total:
                    raise reject(f"multiplicity {total} is not a multiple of the base "
                                 f"profile {base_total}")
                degrees.add(total // base_total)
        if not degrees:
            raise reject("cannot infer a covering degree")
        if len(degrees) > 1:
            raise reject(f"sides imply different degrees {sorted(degrees)}")
        degree = degrees.pop()
        if degree < 1:
            raise reject(f"implies covering degree {degree}; cover degree must be positive")
        spec = CoverSpec(self.base, degree, pos, neg)
        try:
            spec.index  # validates the spec once
        except InconsistentProfile as exc:
            # ends of other orbits than the base's, or a negative ramification
            raise reject(str(exc)) from exc
        return spec

    def sorted_entries(self) -> list[tuple[TableKey, Fraction]]:
        return sorted(self.entries.items())

    def __eq__(self, other):
        # a table is a finitely supported function: an absent key counts 0
        return (isinstance(other, CountTable)
                and self.context_kind == other.context_kind
                and self.context_name == other.context_name
                and {key: c for key, c in self.entries.items() if c}
                == {key: c for key, c in other.entries.items() if c})


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
    return Fraction(1, factorial(len(pos_key)) * factorial(len(neg_key))
                    * prod(k for _, k in pos_key + neg_key))


def potential_from_counts(table: CountTable, truncation: int) -> Potential:
    """Weighted generating function of a count table, q on the minus side, p on the plus."""
    registry = table.registry
    series = GradedSeries(registry, truncation, {
        _key_monomial(pos, neg, registry, "minus", "plus"): count * _weight(pos, neg)
        for (pos, neg), count in table.sorted_entries()})
    return Potential(series, source=table)


def hamiltonian_from_counts(table: CountTable, truncation: int) -> Potential:
    """Generating function of an orbit table (covers of one orbit cylinder)."""
    if table.context_kind != "orbit":
        raise InadmissibleKey("hamiltonians are built from single-orbit tables")
    return potential_from_counts(table, truncation)


def _key_monomial(pos_key: CollectionKey, neg_key: CollectionKey,
                  registry: OrbitRegistry, q_side: str, p_side: str) -> Monomial:
    """The monomial ``q^{Gamma-} p^{Gamma+}``, q-letters first.

    The ``GradedSeries`` constructor and ``coefficient`` sort its letters
    with their Koszul sign, so a coefficient stored or read under this
    monomial is the one of the written product.
    """
    return (tuple((Variable(registry.get(name).iterate(k), "q", q_side), 1)
                  for name, k in neg_key)
            + tuple((Variable(registry.get(name).iterate(k), "p", p_side), 1)
                    for name, k in pos_key))


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
    """Read the counts back off the coefficients (inverse of the weights).

    Each coefficient is read off its own term, with the sign of the q-first
    order in which ``_key_monomial`` writes it.  A key of the source table
    keeps the source's checks and rank flag; any other key is checked as a
    new row, in ``terms()`` order.
    """
    if potential.source is None:
        raise InvalidTable("potential has no table provenance to rebuild")
    source = potential.source
    series = potential.series
    var = _slots(series.registry)
    entries: dict[TableKey, Fraction] = {}
    for runs, code in _ordered(series._terms):
        mono = tuple((var[s], e) for s, e in runs)
        key = _monomial_key(mono, potential)
        if key is None:
            raise InadmissibleKey(
                f"monomial {render_monomial(mono)} has a variable outside the "
                f"potential's (q {potential.q_side}, p {potential.p_side}) slots")
        written = [r for r in runs if r[0] & _Q_BIT] + [r for r in runs if not r[0] & _Q_BIT]
        entries[key] = (Fraction(_packed(written)[1] * series._terms[code], series._den)
                        / _weight(*key))
    table = CountTable(source.context_kind, source.context_name, {}, source.registry,
                       base=source.base)
    for key, count in entries.items():
        if key in source.entries:
            table.entries[key] = count
            table.hypothesis_ok[key] = source.hypothesis_ok[key]
        else:
            table._add(table._collection(key[0], "positive"),
                       table._collection(key[1], "negative"), count)
    return table


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
    monomials = [mono for mono, _ in h.series.terms()]
    offenders = tuple(map(render_monomial, monomials))
    if h.source is not None:
        flagged = {key for key, ok in h.source.hypothesis_ok.items() if not ok}
        keys = {_monomial_key(mono, h) for mono in monomials}
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
    """``sum kappa^{-1} q p`` over the given iterates: the unit for ``#``.

    The constructor sorts each ``q p`` with its Koszul sign; a repeated
    iterate adds up.
    """
    terms: dict[Monomial, Fraction] = {}
    for it in iterates:
        mono = ((Variable(it, "q", q_side), 1), (Variable(it, "p", p_side), 1))
        terms[mono] = terms.get(mono, 0) + Fraction(1, it.k)
    return GradedSeries(registry, truncation, terms)


def identity_potential(iterates: list[OrbitIterate], registry: OrbitRegistry,
                       truncation: int, q_side: str = "minus",
                       p_side: str = "plus") -> Potential:
    return Potential(identity_series(iterates, registry, truncation, q_side, p_side),
                     q_side=q_side, p_side=p_side)


# slot -> reduced (numerators, denominator) of its image
_Images = dict[int, tuple[PackedTerms, int]]

# the right side of one middle variable: (first pass value, numerators, whether a term
# is live, denominator); the first pass value is the reduced settled terms
_Rhs = tuple[tuple[PackedTerms, int], PackedTerms, bool, int]


def _split_rhs(terms: PackedTerms, den: int, kappa: int, inputs: int, order: int) -> _Rhs:
    """``kappa * terms / den`` with its settled terms, free of ``inputs``, as its first pass.

    ``inputs`` is the field mask of the input slots; a term with a letter of
    them is live.  A settled term beyond ``order`` letters is in no pass.
    """
    terms = {mono: coeff * kappa for mono, coeff in terms.items()}
    settled = {m: c for m, c in terms.items() if not m & inputs and m & _LETTERS <= order}
    return _reduced(settled, den), terms, any(m & inputs for m in terms), den


def _picard_half(rhs: dict[int, _Rhs], images: _Images, truncation: int,
                 order: int) -> _Images:
    """One half of a Picard pass: each live right side with the inputs substituted."""
    moving = any(terms for terms, _ in images.values())
    out = {}
    for slot, (first, terms, live, den) in rhs.items():
        if not (live and moving):  # zero inputs zero every live term
            out[slot] = first
            continue
        terms, lift = _substitute_slots(terms, images, truncation, order)
        out[slot] = _reduced(terms, den * lift)
    return out


def _solve_lagrangian(f_minus: GradedSeries, f_plus: GradedSeries,
                      middle: list[OrbitIterate], order: int
                      ) -> tuple[dict[Variable, GradedSeries], dict[Variable, GradedSeries]]:
    """The q~ and p~ solutions of ``_solve_slots`` as series keyed by their variables."""
    registry = f_minus.registry
    var = _slots(registry)
    return tuple({var[s]: GradedSeries._of_packed(registry, f_minus.truncation, *sol)
                  for s, sol in half.items()}
                 for half in _solve_slots(f_minus, f_plus, middle, order))


def _solve_slots(f_minus: GradedSeries, f_plus: GradedSeries,
                 middle: list[OrbitIterate], order: int) -> tuple[_Images, _Images]:
    """Solve ``p~ = kappa dL F+/dq~`` and ``q~ = kappa dR F-/dp~`` by Picard passes.

    The middle slots are resolved once.  The first pass substitutes zero
    inputs, so it is the settled terms of each right side, those with no
    letter of the half's input; a later pass substitutes the current inputs
    into a right side only for a half whose input moved in the previous
    pass, and only when it has live terms.  Returns the q~ and p~ solutions
    by slot, as reduced numerators over one denominator.
    """
    registry = f_minus.registry
    truncation = f_minus.truncation
    var = _slots(registry)
    q_slots = [var.slot(Variable(it, "q", "middle")) for it in middle]
    p_slots = [var.slot(Variable(it, "p", "middle")) for it in middle]
    for i, it in enumerate(middle):
        if q_slots[i] in q_slots[:i]:
            raise RegistryMismatch(f"middle iterate {it.name} is listed twice")
    for series, forbidden, which in ((f_minus, set(q_slots), "left"),
                                     (f_plus, set(p_slots), "right")):
        bad = forbidden.intersection(_used(series._terms))
        if bad:
            raise RegistryMismatch(f"{which} factor may not depend on the middle variable "
                                   f"{var[min(bad)].render()}")
    # p~ = kappa dF+/dq~ and q~ = kappa dR F-/dp~, each solved by substitution
    q_mask, p_mask = _mask(q_slots), _mask(p_slots)
    p_rhs = {p: _split_rhs(_partial(f_plus._terms, q, False), f_plus._den, _kappa(q),
                           q_mask, order) for p, q in zip(p_slots, q_slots)}
    q_rhs = {q: _split_rhs(_partial(f_minus._terms, p, True), f_minus._den, _kappa(p),
                           p_mask, order) for p, q in zip(p_slots, q_slots)}
    zero = ({}, 1)
    q_sol = dict.fromkeys(q_slots, zero)
    p_sol = dict.fromkeys(p_slots, zero)
    # p_{k+1} = F(q_k) and q_{k+1} = G(p_k): a half whose input did not move keeps its value
    p_moved = q_moved = True
    for _ in range(order + 2):
        new_p = _picard_half(p_rhs, q_sol, truncation, order) if q_moved else p_sol
        new_q = _picard_half(q_rhs, p_sol, truncation, order) if p_moved else q_sol
        p_moved, q_moved = new_p != p_sol, new_q != q_sol
        if not (p_moved or q_moved):
            return q_sol, p_sol
        q_sol, p_sol = new_q, new_p
    constants = {}
    for s, (terms, den) in itertools.chain(q_sol.items(), p_sol.items()):
        if terms.get(0):  # the code of the empty monomial
            constants[var[s].render()] = Fraction(terms[0], den)
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
    kept to total external degree ``order >= 0``.  A middle iterate may be
    listed once.

    The result is the critical value of ``F- + F+ - sum kappa^-1 q~ p~`` at
    the solution ``(q*, p*)``.  When every term of every solution has the
    parity of its middle variable, substitution is a homomorphism, and the
    graded Euler identity ``sum_i dR F-/dp~_i * p~_i = sum_e e F-_e``, with
    ``F-_e`` the part of ``F-`` with ``e`` letters p~ of a middle iterate,
    turns the substituted correction into ``sum_e e F-_e(p*)``, since
    ``q*_i = kappa_i dR F-/dp~_i (p*)``.  So the result is
    ``F+(q*) + F-_0 - sum_{e>=2} (e-1) F-_e(p*)``: the p~-linear part of
    ``F-`` and the correction are never multiplied out.  Otherwise the
    whole of ``F- + F+ - correction`` is substituted.  Both are exact
    under truncation: a solution term dropped for its length or p-degree
    feeds only result terms that are dropped as well.
    """
    if order < 0:
        raise InvalidTruncation(f"composition order must be non-negative, got {order}")
    fm, fp = f_minus.series, f_plus.series
    fm._check_compatible(fp)
    registry, truncation = fm.registry, fm.truncation
    q_sol, p_sol = _solve_slots(fm, fp, middle, order)

    def substituted(terms: PackedTerms, den: int, images: _Images) -> GradedSeries:
        terms, lift = _substitute_slots(terms, images, truncation, order)
        return GradedSeries._of_packed(registry, truncation, terms, den * lift)

    if _preserves_parity(q_sol) and _preserves_parity(p_sol):
        # F- reweighted by 1 - e for its number e of middle letters: e = 1 drops out
        shifts = [_FIELDS[p] for p in p_sol]
        weighted: PackedTerms = {}
        for mono, coeff in fm._terms.items():
            e = sum(mono >> shift & _LETTERS for shift in shifts)
            if e != 1:
                weighted[mono] = coeff * (1 - e)
        result = substituted(weighted, fm._den, p_sol) + substituted(fp._terms, fp._den, q_sol)
    else:
        total = fm + fp - identity_series(middle, registry, truncation,
                                          q_side="middle", p_side="middle")
        result = substituted(total._terms, total._den, {**q_sol, **p_sol})
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
    raise InvalidVariable("move must be 'p' or 'q'")


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

    left = reside_potential(f10, minus_names, "p")
    right = reside_potential(f01, plus_names, "q")

    inner = compose_sharp(reside_potential(f0, plus_names, "p"), right, middle_plus, order)
    right_first = compose_sharp(left, reside_potential(inner, minus_names, "q"),
                                middle_minus, order)

    inner_left = compose_sharp(left, reside_potential(f0, minus_names, "q"), middle_minus, order)
    left_first = compose_sharp(reside_potential(inner_left, plus_names, "p"), right,
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
    # both pairings over the one denominator hp * k * hm
    terms: PackedTerms = {}
    _add_pairing(terms, hp._terms, k._terms, pairs, k.truncation, hm._den)
    _add_pairing(terms, k._terms, hm._terms, pairs, k.truncation, hp._den)
    return GradedSeries._of_packed(k.registry, k.truncation, terms, hp._den * k._den * hm._den)


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
