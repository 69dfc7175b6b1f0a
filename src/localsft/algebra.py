"""Exact graded supercommutative series in orbit p/q-variables.

Coefficients are exact rationals.  Monomials are kept in a canonical
variable order (orbit name, iterate, kind, side); reordering odd variables
costs a Koszul sign and odd squares vanish.  Series are polynomial in the
q-variables and truncated in total p-degree (the number of p-letters of a
monomial), matching the power-series-in-p structure of the generating
functions they carry.

Inside a series each variable is an integer *slot* and a monomial is the
sorted tuple of its letters' slots, one entry per unit of exponent.  A slot
packs the rank of the orbit name in the registry, the iterate, the kind and
the side into bit fields, most significant first, so slots sort in the
canonical order; the lowest bit is the variable's parity.  A product sorts
the concatenated letters, with the Koszul sign of the inversions between odd
slots.  Slots depend only on the variable and the registry's orbit names, so
equal registries share them.  ``Variable``, ``terms()``, ``coefficient()``
and the constructor speak ``((Variable, exponent), ...)`` monomials.

Sign conventions, fixed once for the whole package:

* ``partial`` is the graded *left* derivative: pulling ``v`` out past a
  letter ``w`` costs ``(-1)^{|v||w|}``.  ``partial_right`` is the mirror
  image.
* The Poisson bracket differentiates in p from the right and in q from the
  left::

      {f,g} = sum_i kappa_i ( dR f/dp_i * dL g/dq_i
                              - (-1)^{|f||g|} dR g/dp_i * dL f/dq_i )

  With this placement the bracket is graded antisymmetric and satisfies
  the graded Jacobi identity also on odd conjugate pairs, and composition
  with the identity generating function is neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .errors import (
    DegreeMismatch,
    InvalidTruncation,
    IterateOutOfRange,
    RegistryMismatch,
    TruncationOverflow,
)
from .orbits import OrbitIterate, OrbitRegistry, variable_degree

SIDES = ("middle", "minus", "plus")
SIDE_MARK = {"middle": "~", "minus": "-", "plus": "+"}


@dataclass(frozen=True)
class Variable:
    """A p- or q-variable of a good orbit iterate, tagged with a side."""

    iterate: OrbitIterate
    kind: str
    side: str = "middle"

    def __post_init__(self):
        if self.kind not in ("p", "q"):
            raise ValueError(f"variable kind must be 'p' or 'q', got {self.kind!r}")
        if self.side not in SIDES:
            raise ValueError(f"variable side must be one of {SIDES}, got {self.side!r}")
        # BadOrbit is raised here for bad iterates: the variable does not exist.
        object.__setattr__(self, "_degree", variable_degree(self.iterate, self.kind))

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def odd(self) -> bool:
        return self._degree % 2 == 1

    @property
    def kappa(self) -> int:
        return self.iterate.k

    @property
    def key(self) -> tuple:
        return (self.iterate.orbit.name, self.iterate.k, self.kind, self.side)

    def render(self) -> str:
        return f"{self.kind}{SIDE_MARK[self.side]}[{self.iterate.name}]"

    def __repr__(self):
        return self.render()


# A monomial is a tuple of (Variable, exponent) pairs sorted by variable key.
Monomial = tuple[tuple[Variable, int], ...]

ONE: Monomial = ()

SlotTerms = dict[tuple[int, ...], Fraction]

# Bit fields of a slot, least significant first: parity (1 bit), side (2),
# kind (1, p before q), iterate (_K_BITS), then the rank of the orbit name.
_K_BITS = 29
_Q_BIT = 8


def _kappa(slot: int) -> int:
    return slot >> 4 & ((1 << _K_BITS) - 1)


class _SlotTable(dict):
    """slot -> Variable over one registry's orbits, filled on first lookup."""

    def __init__(self, registry: OrbitRegistry):
        super().__init__()
        self.orbits = registry.orbits()
        self.rank = {orbit.name: i for i, orbit in enumerate(self.orbits)}

    def __missing__(self, slot: int) -> Variable:
        orbit = self.orbits[slot >> (_K_BITS + 4)]
        kind = "q" if slot & _Q_BIT else "p"
        var = self[slot] = Variable(orbit.iterate(_kappa(slot)), kind, SIDES[slot >> 1 & 3])
        return var

    def slot(self, v: Variable) -> int:
        it = v.iterate
        rank = self.rank.get(it.orbit.name)
        if rank is None or (self.orbits[rank] is not it.orbit and self.orbits[rank] != it.orbit):
            raise RegistryMismatch(f"variable {v.render()} is not over the series' registry")
        if it.k >> _K_BITS:
            raise IterateOutOfRange(f"{it.name}: iterates from 2^{_K_BITS} on have no slot")
        return ((rank << _K_BITS | it.k) << 4 | (v.kind == "q") << 3
                | SIDES.index(v.side) << 1 | v.odd)

    def letters(self, mono: Monomial) -> tuple[int, ...]:
        return tuple(s for v, e in mono for s in (self.slot(v),) * e)


def _slots(registry: OrbitRegistry) -> _SlotTable:
    if registry.slot_table is None:
        registry.slot_table = _SlotTable(registry)
    return registry.slot_table


def _runs(mono: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(slot, exponent) pairs of a slot monomial."""
    return tuple((s, len(list(group))) for s, group in groupby(mono))


def _p_degree(mono: tuple[int, ...]) -> int:
    return sum(1 for s in mono if not s & _Q_BIT)


def _degree(var: _SlotTable, mono: tuple[int, ...]) -> int:
    return sum(var[s].degree for s in mono)


def _odd(mono: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(s for s in mono if s & 1)


def _koszul(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of sorting the odd slots ``left + right``; 0 when one is shared."""
    sign = 1
    for y in right:
        if y in left:
            return 0
        for x in left:
            if x > y:
                sign = -sign
    return sign


def merge_monomials(a: Monomial, b: Monomial) -> tuple[Monomial | None, int]:
    """Product of two canonical monomials with its Koszul sign.

    Returns (None, 0) when an odd variable would appear twice.
    """
    orbits = {v.iterate.orbit.name: v.iterate.orbit for v, _ in a + b}
    var = _SlotTable(OrbitRegistry(list(orbits.values())))
    left, right = var.letters(a), var.letters(b)
    sign = _koszul(_odd(left), _odd(right))
    if not sign:
        return None, 0
    return tuple((var[s], e) for s, e in _runs(tuple(sorted(left + right)))), sign


def render_monomial(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for v, e in mono:
        parts.append(v.render() if e == 1 else f"{v.render()}^{e}")
    return "*".join(parts)


class GradedSeries:
    """A finitely supported series over a shared orbit registry.

    Treated as immutable: all operations return fresh instances.  ``_terms``
    maps slot monomials to nonzero coefficients.
    """

    __slots__ = ("registry", "truncation", "_terms")

    def __init__(self, registry: OrbitRegistry, truncation: int,
                 terms: dict[Monomial, Fraction] | None = None):
        if truncation < 1:
            raise InvalidTruncation(f"truncation order must be positive, got {truncation}")
        self.registry = registry
        self.truncation = truncation
        clean: SlotTerms = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            letters = _slots(registry).letters(mono)
            if coeff != 0 and _p_degree(letters) <= truncation:
                clean[letters] = coeff
        self._terms = clean

    @classmethod
    def _of_slots(cls, registry: OrbitRegistry, truncation: int,
                  terms: SlotTerms) -> "GradedSeries":
        """Series of truncated slot terms; zero coefficients are dropped."""
        out = cls(registry, truncation)
        out._terms = {m: c for m, c in terms.items() if c}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry: OrbitRegistry, truncation: int) -> "GradedSeries":
        return cls(registry, truncation, {})

    @classmethod
    def constant(cls, registry: OrbitRegistry, truncation: int, value) -> "GradedSeries":
        return cls(registry, truncation, {ONE: Fraction(value)})

    @classmethod
    def of(cls, registry: OrbitRegistry, truncation: int, variable: Variable,
           coeff=1) -> "GradedSeries":
        return cls(registry, truncation, {((variable, 1),): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        # (letters, ((key, exp), ...)) order; slots sort like keys
        var = _slots(self.registry)
        ordered = sorted((len(m), _runs(m), c) for m, c in self._terms.items())
        return [(tuple((var[s], e) for s, e in runs), c) for _, runs, c in ordered]

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(_slots(self.registry).letters(mono), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> list[Variable]:
        var = _slots(self.registry)
        return [var[s] for s in sorted({s for mono in self._terms for s in mono})]

    def degree(self) -> int | None:
        """Degree of a homogeneous series (None for the zero series)."""
        var = _slots(self.registry)
        degs = {_degree(var, m) for m in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("series is not homogeneous")
        return next(iter(degs))

    def by_degree(self) -> dict[int, "GradedSeries"]:
        var = _slots(self.registry)
        buckets: dict[int, SlotTerms] = {}
        for mono, coeff in self._terms.items():
            buckets.setdefault(_degree(var, mono), {})[mono] = coeff
        return {d: GradedSeries._of_slots(self.registry, self.truncation, t)
                for d, t in sorted(buckets.items())}

    def render(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.terms():
            if not mono:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(render_monomial(mono))
            elif coeff == -1:
                chunks.append(f"-{render_monomial(mono)}")
            else:
                chunks.append(f"{coeff}*{render_monomial(mono)}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self):
        return f"GradedSeries({self.render()})"

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "GradedSeries"):
        if self.registry is not other.registry and self.registry != other.registry:
            raise RegistryMismatch("series built over different orbit registries")
        if self.truncation != other.truncation:
            raise RegistryMismatch(
                f"series truncation orders differ ({self.truncation} vs {other.truncation})")

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.registry == other.registry
                and self.truncation == other.truncation
                and self._terms == other._terms)

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self._check_compatible(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return GradedSeries._of_slots(self.registry, self.truncation, terms)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def __neg__(self) -> "GradedSeries":
        return self.scale(-1)

    def scale(self, value) -> "GradedSeries":
        value = Fraction(value)
        return GradedSeries._of_slots(self.registry, self.truncation,
                                      {m: c * value for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


def _add_product(terms: SlotTerms, a: SlotTerms, b: SlotTerms, truncation: int,
                 scale: int = 1) -> SlotTerms:
    """Accumulate ``scale * a * b`` into ``terms``, truncated in total p-degree."""
    right = [(m, c, _p_degree(m), _odd(m)) for m, c in b.items()]
    for mono_a, coeff_a in a.items():
        room = truncation - _p_degree(mono_a)
        odd_a = _odd(mono_a)
        for mono_b, coeff_b, p_b, odd_b in right:
            if p_b > room:
                continue
            sign = _koszul(odd_a, odd_b) * scale if odd_a and odd_b else scale
            if not sign:
                continue
            mono = tuple(sorted(mono_a + mono_b))
            coeff = coeff_a * coeff_b if sign == 1 else coeff_a * coeff_b * sign
            old = terms.get(mono)
            terms[mono] = coeff if old is None else old + coeff
    return terms


def multiply(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Supercommutative product, truncated in total p-degree."""
    f._check_compatible(g)
    terms = _add_product({}, f._terms, g._terms, f.truncation)
    return GradedSeries._of_slots(f.registry, f.truncation, terms)


def _partial(terms: SlotTerms, slot: int, from_right: bool) -> SlotTerms:
    out: SlotTerms = {}
    for mono, coeff in terms.items():
        if slot not in mono:
            continue
        idx = mono.index(slot)
        flank = mono[idx + 1:] if from_right else mono[:idx]
        sign = -1 if slot & 1 and sum(s & 1 for s in flank) % 2 else 1
        out[mono[:idx] + mono[idx + 1:]] = coeff * (mono.count(slot) * sign)
    return out


def partial(f: GradedSeries, v: Variable) -> GradedSeries:
    """Graded left derivative with respect to ``v``."""
    slot = _slots(f.registry).slot(v)
    return GradedSeries._of_slots(f.registry, f.truncation, _partial(f._terms, slot, False))


def partial_right(f: GradedSeries, v: Variable) -> GradedSeries:
    """Graded right derivative with respect to ``v``."""
    slot = _slots(f.registry).slot(v)
    return GradedSeries._of_slots(f.registry, f.truncation, _partial(f._terms, slot, True))


def _conjugate_pairs(*series: GradedSeries) -> list[tuple[int, int]]:
    """The (p, q) slots of every iterate and side occurring in the given series."""
    p_slots = sorted({s & ~_Q_BIT for f in series for mono in f._terms for s in mono})
    return [(p, p | _Q_BIT) for p in p_slots]


def _add_pairing(terms: SlotTerms, left: GradedSeries, right: GradedSeries,
                 pairs: list[tuple[int, int]], sign: int = 1) -> None:
    """Accumulate ``sign * sum_i kappa_i dR left/dp_i * dL right/dq_i`` into ``terms``.

    The kappa-weighted pairing shared by the Poisson bracket and the
    Hamilton-Jacobi right side (``potentials.hamilton_jacobi_rhs``).
    """
    for p, q in pairs:
        _add_product(terms, _partial(left._terms, p, True), _partial(right._terms, q, False),
                     left.truncation, sign * _kappa(p))


def poisson_bracket(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Kappa-weighted graded Poisson bracket, extended bilinearly."""
    f._check_compatible(g)
    pairs = _conjugate_pairs(f, g)
    terms: SlotTerms = {}
    for df, fh in f.by_degree().items():
        for dg, gh in g.by_degree().items():
            _add_pairing(terms, fh, gh, pairs)
            _add_pairing(terms, gh, fh, pairs, 1 if df * dg % 2 else -1)
    return GradedSeries._of_slots(f.registry, f.truncation, terms)


def substitute(f: GradedSeries, assignment: dict[Variable, GradedSeries], *,
               check_degrees: bool = True,
               guard_truncation: bool = False) -> GradedSeries:
    """Simultaneous graded substitution.

    Variables missing from ``assignment`` are left in place.  Images of a
    monomial's letters are multiplied in canonical monomial order, so the
    result is deterministic even for parity-breaking assignments (allowed
    only with ``check_degrees=False``).  Each power ``image**e`` is
    computed once per call.
    """
    var = _slots(f.registry)
    images: dict[int, SlotTerms] = {}
    for v, image in assignment.items():
        f._check_compatible(image)
        if check_degrees:
            for mono in image._terms:
                if _degree(var, mono) != v.degree:
                    raise DegreeMismatch(
                        f"image of {v.render()} has a term of degree "
                        f"{_degree(var, mono)}, expected {v.degree}")
        if guard_truncation and v.kind == "p" and any(
                _p_degree(mono) == 0 for mono in image._terms):
            raise TruncationOverflow(
                f"image of {v.render()} has a p-degree-zero term; "
                f"truncated tails would leak below the cutoff")
        images[var.slot(v)] = image._terms
    powers: dict[tuple[int, int], SlotTerms] = {}
    out_terms: SlotTerms = {}
    for mono, coeff in f._terms.items():
        acc: SlotTerms = {(): coeff}
        for slot, e in _runs(mono):
            if (slot, e) not in powers:
                power = base = images[slot] if slot in images else {(slot,): Fraction(1)}
                for _ in range(e - 1):
                    power = _add_product({}, power, base, f.truncation)
                powers[slot, e] = power
            acc = {m: c for m, c in _add_product({}, acc, powers[slot, e], f.truncation).items()
                   if c}
            if not acc:
                break
        for m, c in acc.items():
            out_terms[m] = out_terms.get(m, 0) + c
    return GradedSeries._of_slots(f.registry, f.truncation, out_terms)


def reside(f: GradedSeries, *, kind: str, side: str, new_side: str,
           orbit_names: set[str] | None = None) -> GradedSeries:
    """Retag matching variables with a new side, preserving all signs."""
    assignment = {}
    for v in f.variables():
        if v.kind != kind or v.side != side:
            continue
        if orbit_names is not None and v.iterate.orbit.name not in orbit_names:
            continue
        new_v = Variable(v.iterate, v.kind, new_side)
        assignment[v] = GradedSeries.of(f.registry, f.truncation, new_v)
    return substitute(f, assignment)
