"""Exact graded supercommutative series in orbit p/q-variables.

Coefficients are exact rationals.  Monomials are written in a canonical
variable order (orbit name, iterate, kind, side); reordering odd variables
costs a Koszul sign and odd squares vanish.  Series are polynomial in the
q-variables and truncated in total p-degree (the number of p-letters of a
monomial), matching the power-series-in-p structure of the generating
functions they carry.

Inside a series each variable is an integer *slot*: the rank of the orbit
name in the registry, the iterate, the kind and the side in bit fields,
most significant first, so slots sort in the canonical order; the lowest
bit is the variable's parity.  Slots depend only on the variable and the
registry's orbit names, so equal registries share them.

A monomial is *packed* into one integer, a row of 16-bit fields (packed
exponent vectors: Monagan and Pearce, "Polynomial Division Using Dynamic
Arrays, Heaps, and Packed Exponent Vectors", CASC 2007).  The lowest field
holds the number of letters, the next the number of p-letters, and each
slot then has a field holding its exponent.  Slots get their fields in the
order the process first meets them, from one process-wide table, so equal
registries share fields as they share slots.  Two monomials multiply by
adding their codes, and the length and the p-degree of a monomial are each
one mask.  No field may carry into the next, so a monomial has at most
65,535 letters: building or looking up a longer one raises
``TruncationOverflow``, and so does a product whose factors have terms that
long together.

A stored numerator is the coefficient of the monomial's letters written in
*field* order.  ``_packed`` packs a monomial written as (slot, exponent)
runs in any order and gives the Koszul sign that takes it to field order;
``_runs`` reads the runs back.  The constructor, ``coefficient()``,
``terms()`` (and so rendering) and the substitution of parity-breaking
images convert through ``_packed``, so the order in which a process met its
slots never reaches output; ``reside`` and the substitution of
parity-preserving images decode no monomial.  ``Variable``, ``terms()``,
``coefficient()`` and the constructor speak ``((Variable, exponent), ...)``
monomials, and ``terms()`` lists them in canonical order.

A series stores integer numerators over one positive denominator, reduced so
that the denominator and all numerators have no common factor; equal series
therefore have equal storage.  Products, derivatives, pairings and
substitutions work on the integers and multiply denominators once per call,
and a result is reduced once, in the dict that built it; ``terms()``,
``coefficient()`` and rendering build the ``Fraction`` values.

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

  Writing ``P(f, g) = sum_i kappa_i dR f/dp_i * dL g/dq_i``, which is
  bilinear, and ``-(-1)^{|f||g|} = -1 + 2 [f and g odd]``, the bracket of
  inhomogeneous series is ``P(f, g) - P(g, f) + 2 P(g_odd, f_odd)``, with
  ``f_odd`` the odd-degree part of ``f``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (
    DegreeMismatch,
    InvalidTruncation,
    InvalidVariable,
    IterateOutOfRange,
    NotHomogeneous,
    RegistryMismatch,
    TruncationOverflow,
)
from .orbits import OrbitIterate, OrbitRegistry, variable_degree

SIDES = ("middle", "minus", "plus")
SIDE_MARK = {"middle": "~", "minus": "-", "plus": "+"}


def _check_truncation(truncation: int) -> None:
    if truncation < 1:
        raise InvalidTruncation(f"truncation order must be positive, got {truncation}")


@dataclass(frozen=True)
class Variable:
    """A p- or q-variable of a good orbit iterate, tagged with a side."""

    iterate: OrbitIterate
    kind: str
    side: str = "middle"

    def __post_init__(self):
        if self.kind not in ("p", "q"):
            raise InvalidVariable(f"variable kind must be 'p' or 'q', got {self.kind!r}")
        if self.side not in SIDES:
            raise InvalidVariable(f"variable side must be one of {SIDES}, got {self.side!r}")
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

# packed monomial -> integer numerator over the series' denominator
PackedTerms = dict[int, int]

# Bit fields of a slot, least significant first: parity (1 bit), side (2),
# kind (1, p before q), iterate (_K_BITS), then the rank of the orbit name.
_K_BITS = 29
_Q_BIT = 8
_SIDE_MASK = 6
_KIND_SIDE_MASK = _Q_BIT | _SIDE_MASK
_RANK_SHIFT = _K_BITS + 4

# Fields of a packed monomial, least significant first: the number of letters,
# the number of p-letters, then one exponent field per slot.
_W = 16
_LETTERS = (1 << _W) - 1  # a field's mask, and the most letters a monomial may have
_P_SHIFT = _W
_FIRST_FIELD = 2 * _W


def _kappa(slot: int) -> int:
    return slot >> 4 & ((1 << _K_BITS) - 1)


class _SlotTable(dict):
    """slot -> Variable over one registry's orbits, filled on first lookup."""

    def __init__(self, registry: OrbitRegistry):
        super().__init__()
        self.orbits = registry.orbits()
        self.rank = {orbit.name: i for i, orbit in enumerate(self.orbits)}

    def __missing__(self, slot: int) -> Variable:
        orbit = self.orbits[slot >> _RANK_SHIFT]
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

    def runs(self, mono: Monomial) -> list[tuple[int, int]]:
        return [(self.slot(v), e) for v, e in mono if e > 0]


def _slots(registry: OrbitRegistry) -> _SlotTable:
    if registry.slot_table is None:
        registry.slot_table = _SlotTable(registry)
    return registry.slot_table


class _FieldTable(dict):
    """slot -> bit offset of its field in a packed monomial, in first-seen order.

    ``slots`` lists the slot of each field; ``odd`` has the lowest bit of the
    field of every odd slot set; ``spread`` holds the shifts that fold a row
    of fields into the parities of its suffixes (see ``_add_product``).
    """

    def __init__(self):
        super().__init__()
        self.slots: list[int] = []
        self.odd = 0
        self.spread: tuple[int, ...] = ()

    def __missing__(self, slot: int) -> int:
        shift = self[slot] = _FIRST_FIELD + _W * len(self.slots)
        self.slots.append(slot)
        if slot & 1:
            self.odd |= 1 << shift
        spread = [_W]
        while spread[-1] * 2 < _W * len(self.slots):
            spread.append(spread[-1] * 2)
        self.spread = tuple(spread)
        return shift


# one table for the process: equal registries have equal slots, and so equal fields
_FIELDS = _FieldTable()


def _packed(runs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The code of the monomial written ``runs`` and the sign that takes it to field order.

    ``runs`` are (slot, exponent) pairs in any order, a slot possibly more
    than once.  The sign is the Koszul sign of sorting the odd letters by
    field, 0 when an odd letter repeats; it is the one conversion between a
    written order and field order.
    """
    fields = _FIELDS
    code, length, sign, odd = 0, 0, 1, []
    for slot, e in runs:
        shift = fields[slot]
        length += e
        code += e << shift if slot & _Q_BIT else (e << shift) + (e << _P_SHIFT)
        if slot & 1:
            if e > 1:
                sign = 0
            for other in odd:
                if other >= shift:
                    sign = 0 if other == shift else -sign
            odd.append(shift)
    if length > _LETTERS:
        raise TruncationOverflow(f"a monomial of {length} letters; "
                                 f"at most {_LETTERS} fit in its fields")
    return code + length, sign


def _runs(code: int) -> list[tuple[int, int]]:
    """(slot, exponent) pairs of a packed monomial, in field order."""
    slots, runs = _FIELDS.slots, []
    code >>= _FIRST_FIELD
    while code:  # the last field first: its exponent is the code shifted down
        shift = (code.bit_length() - 1) // _W * _W
        exp = code >> shift
        runs.append((slots[shift // _W], exp))
        code -= exp << shift
    runs.reverse()
    return runs


def _ordered(terms: PackedTerms) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """(runs sorted by slot, code) of each monomial, by length and then runs: ``terms()`` order."""
    return sorted(((tuple(sorted(_runs(code))), code) for code in terms),
                  key=lambda row: (row[1] & _LETTERS, row[0]))


def _used(terms: Iterable[int]) -> list[int]:
    """The slots of the letters occurring in the codes ``terms``, in field order."""
    union, slots, used = 0, _FIELDS.slots, []
    for code in terms:
        union |= code
    union >>= _FIRST_FIELD
    while union:  # the last field first
        field = (union.bit_length() - 1) // _W
        used.append(slots[field])
        union &= (1 << _W * field) - 1
    return used[::-1]


def _mask(slots) -> int:
    """The fields of ``slots``: a code shares a letter with them when it meets the mask."""
    fields, mask = _FIELDS, 0
    for slot in slots:
        mask |= _LETTERS << fields[slot]
    return mask


def _p_degree(code: int) -> int:
    return code >> _P_SHIFT & _LETTERS


def _degree(var: _SlotTable, code: int) -> int:
    return sum(var[s].degree * (code >> _FIELDS[s] & _LETTERS) for s in _used((code,)))


def _odd(code: int) -> int:
    """1 when the monomial has an odd number of odd letters, else 0."""
    return (code & _FIELDS.odd).bit_count() & 1


def _odd_part(terms: PackedTerms) -> PackedTerms:
    """The terms of odd degree: those with an odd number of odd letters."""
    return {m: c for m, c in terms.items() if _odd(m)}


def _reduced(terms: PackedTerms, den: int) -> tuple[PackedTerms, int]:
    """Numerators over ``den > 0`` with zeros dropped and the common factor divided out.

    ``terms`` is reduced in place, so pass only a dict you built; its surviving keys
    keep their order.  The reduced pair is unique, so equal values have equal pairs.
    """
    if 0 in terms.values():
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
    if den > 1:
        common = gcd(den, *terms.values())
        if common > 1:
            for m, c in terms.items():
                terms[m] = c // common
            den //= common
    return terms, den


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
    maps packed monomials to nonzero integer numerators over the positive
    denominator ``_den``, with ``gcd(_den, *numerators) == 1``.  The
    constructor and ``coefficient`` take the letters of a monomial in any
    order and sort them with the Koszul sign; a monomial repeating an odd
    letter is zero.
    """

    __slots__ = ("registry", "truncation", "_terms", "_den")

    def __init__(self, registry: OrbitRegistry, truncation: int,
                 terms: dict[Monomial, Fraction] | None = None):
        _check_truncation(truncation)
        self.registry = registry
        self.truncation = truncation
        var = _slots(registry)
        clean: dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            code, sign = _packed(var.runs(mono))
            if sign and _p_degree(code) <= truncation:
                coeff = Fraction(coeff) if sign > 0 else -Fraction(coeff)
                if code in clean:
                    coeff += clean.pop(code)
                if coeff:
                    clean[code] = coeff
        # over the lcm of reduced fractions the numerators share no factor with it
        self._den = den = lcm(*(c.denominator for c in clean.values()))
        self._terms = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}

    @classmethod
    def _of_packed(cls, registry: OrbitRegistry, truncation: int,
                   terms: PackedTerms, den: int = 1) -> "GradedSeries":
        """Series owning the packed numerators ``terms`` over ``den > 0``, reduced in place."""
        out = cls.__new__(cls)
        out.registry = registry
        out.truncation = truncation
        out._terms, out._den = _reduced(terms, den)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry: OrbitRegistry, truncation: int) -> "GradedSeries":
        return cls(registry, truncation, {})

    @classmethod
    def constant(cls, registry: OrbitRegistry, truncation: int, value) -> "GradedSeries":
        return cls(registry, truncation, {ONE: value})

    @classmethod
    def of(cls, registry: OrbitRegistry, truncation: int, variable: Variable,
           coeff=1) -> "GradedSeries":
        return cls(registry, truncation, {((variable, 1),): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        var, den = _slots(self.registry), self._den
        return [(tuple((var[s], e) for s, e in runs),
                 Fraction(_packed(runs)[1] * self._terms[code], den))
                for runs, code in _ordered(self._terms)]

    def coefficient(self, mono: Monomial) -> Fraction:
        code, sign = _packed(_slots(self.registry).runs(mono))
        return Fraction(sign * self._terms.get(code, 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> list[Variable]:
        var = _slots(self.registry)
        return [var[s] for s in sorted(_used(self._terms))]

    def degree(self) -> int | None:
        """Degree of a homogeneous series (None for the zero series)."""
        var = _slots(self.registry)
        degs = {_degree(var, m) for m in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise NotHomogeneous("series is not homogeneous")
        return next(iter(degs))

    def by_degree(self) -> dict[int, "GradedSeries"]:
        var = _slots(self.registry)
        buckets: dict[int, PackedTerms] = {}
        for mono, coeff in self._terms.items():
            buckets.setdefault(_degree(var, mono), {})[mono] = coeff
        return {d: GradedSeries._of_packed(self.registry, self.truncation, t, self._den)
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
                and self._den == other._den
                and self._terms == other._terms)

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self._check_compatible(other)
        common = gcd(self._den, other._den)
        lift, other_lift = other._den // common, self._den // common
        terms = dict(self._terms) if lift == 1 else {m: c * lift for m, c in self._terms.items()}
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff * other_lift
        return GradedSeries._of_packed(self.registry, self.truncation, terms,
                                      self._den * lift)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def __neg__(self) -> "GradedSeries":
        return self.scale(-1)

    def scale(self, value) -> "GradedSeries":
        value = Fraction(value)
        num = value.numerator
        return GradedSeries._of_packed(self.registry, self.truncation,
                                      {m: c * num for m, c in self._terms.items()},
                                      self._den * value.denominator)

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


# a right factor: its (code, numerator) terms sorted by p-degree, their p-degrees,
# and the most letters of a term
_Right = tuple[list[tuple[int, int]], list[int], int]


def _right(b: PackedTerms) -> _Right:
    rows = sorted(b.items(), key=lambda row: _p_degree(row[0]))
    return rows, [_p_degree(code) for code, _ in rows], max((m & _LETTERS for m in b), default=0)


def _add_product(terms: PackedTerms, a: PackedTerms, right: _Right, truncation: int,
                 scale: int = 1, order: int | None = None) -> PackedTerms:
    """Accumulate ``scale * a * b`` into ``terms`` for ``right == _right(b)``, truncated in p.

    The product of two terms is the sum of their codes.  Its sign moves each
    odd letter of the right term past the odd letters of the left term in
    later fields: ``above`` marks the fields with an odd number of the left
    term's odd letters above them, built once per left term, so the sign is
    the parity of ``above & code_b``; a shared odd letter, ``odd_a & code_b``,
    gives zero.  The right terms are sorted by p-degree, so a left term visits
    only those that keep the product within the truncation.  A left term
    whose letters and the right factor's longest term's would not fit in the
    fields raises ``TruncationOverflow``.  Given an ``order``, no product of
    more than ``order`` letters is added: a left term that fits with the
    longest right term skips the test, any other filters its batch once.
    """
    rows, p_degrees, longest = right
    odd, spread = _FIELDS.odd, _FIELDS.spread
    for code_a, coeff_a in a.items():
        length = code_a & _LETTERS
        if length + longest > _LETTERS:
            raise TruncationOverflow(f"a product term of {length + longest} "
                                     f"letters; at most {_LETTERS} fit in its fields")
        batch = rows[:bisect_right(p_degrees, truncation - (code_a >> _P_SHIFT & _LETTERS))]
        if order is not None and length + longest > order:
            batch = [row for row in batch if length + (row[0] & _LETTERS) <= order]
        coeff_a *= scale
        odd_a = code_a & odd
        if not odd_a:
            for code_b, coeff_b in batch:
                code = code_a + code_b
                if code in terms:
                    terms[code] += coeff_a * coeff_b
                else:
                    terms[code] = coeff_a * coeff_b
            continue
        above = odd_a >> _W
        for shift in spread:
            above ^= above >> shift
        above &= odd
        for code_b, coeff_b in batch:
            if odd_a & code_b:
                continue
            code = code_a + code_b
            x = -coeff_a * coeff_b if (above & code_b).bit_count() & 1 else coeff_a * coeff_b
            if code in terms:
                terms[code] += x
            else:
                terms[code] = x
    return terms


def multiply(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Supercommutative product, truncated in total p-degree.

    A square ``multiply(f, f)`` is ``E*E + 2*E*O`` for the even and odd parts of
    ``f``, as odd terms anticommute, unless its terms are too long to multiply.
    """
    f._check_compatible(g)
    if f is g and 2 * max((m & _LETTERS for m in f._terms), default=0) <= _LETTERS:
        even = {m: c for m, c in f._terms.items() if not _odd(m)}
        terms = _add_product({}, even, _right(even), f.truncation)
        _add_product(terms, even, _right(_odd_part(f._terms)), f.truncation, 2)
    else:
        terms = _add_product({}, f._terms, _right(g._terms), f.truncation)
    return GradedSeries._of_packed(f.registry, f.truncation, terms, f._den * g._den)


def _partial(terms: PackedTerms, slot: int, from_right: bool) -> PackedTerms:
    """The derivative by ``slot``: its letter is pulled out past the odd letters on its flank.

    The flank is the letters before it in field order (after it, from the
    right), and the rest keeps its field order.
    """
    shift = _FIELDS.get(slot)
    if shift is None:  # no monomial has the letter
        return {}
    unit = 1 << shift
    drop = unit + 1 + (0 if slot & _Q_BIT else 1 << _P_SHIFT)
    out: PackedTerms = {}
    if slot & 1:
        flank = _FIELDS.odd & (-(unit << _W) if from_right else unit - 1)
        for code, coeff in terms.items():
            if code & unit:
                out[code - drop] = -coeff if (code & flank).bit_count() & 1 else coeff
    else:
        for code, coeff in terms.items():
            exp = code >> shift & _LETTERS
            if exp:
                out[code - drop] = coeff * exp
    return out


def partial(f: GradedSeries, v: Variable) -> GradedSeries:
    """Graded left derivative with respect to ``v``."""
    slot = _slots(f.registry).slot(v)
    return GradedSeries._of_packed(f.registry, f.truncation, _partial(f._terms, slot, False),
                                   f._den)


def partial_right(f: GradedSeries, v: Variable) -> GradedSeries:
    """Graded right derivative with respect to ``v``."""
    slot = _slots(f.registry).slot(v)
    return GradedSeries._of_packed(f.registry, f.truncation, _partial(f._terms, slot, True),
                                   f._den)


def _conjugate_pairs(*series: GradedSeries) -> list[tuple[int, int]]:
    """The (p, q) slots of every iterate and side occurring in the given series."""
    p_slots = sorted({s & ~_Q_BIT for f in series for s in _used(f._terms)})
    return [(p, p | _Q_BIT) for p in p_slots]


def _add_pairing(terms: PackedTerms, left: PackedTerms, right: PackedTerms,
                 pairs: list[tuple[int, int]], truncation: int, scale: int = 1) -> None:
    """Accumulate ``scale * sum_i kappa_i dR left/dp_i * dL right/dq_i`` into ``terms``.

    The kappa-weighted pairing of two numerator maps, shared by the Poisson
    bracket and the Hamilton-Jacobi right side
    (``potentials.hamilton_jacobi_rhs``); the caller owns the denominators.
    """
    for p, q in pairs:
        d_left = _partial(left, p, True)
        if d_left:
            _add_product(terms, d_left, _right(_partial(right, q, False)), truncation,
                         scale * _kappa(p))


def poisson_bracket(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Kappa-weighted graded Poisson bracket, extended bilinearly.

    ``P(f, g) - P(g, f) + 2 P(g_odd, f_odd)``; see the module docstring.
    """
    f._check_compatible(g)
    pairs = _conjugate_pairs(f, g)
    terms: PackedTerms = {}
    _add_pairing(terms, f._terms, g._terms, pairs, f.truncation)
    _add_pairing(terms, g._terms, f._terms, pairs, f.truncation, -1)
    g_odd = _odd_part(g._terms)
    if g_odd:
        _add_pairing(terms, g_odd, _odd_part(f._terms), pairs, f.truncation, 2)
    return GradedSeries._of_packed(f.registry, f.truncation, terms, f._den * g._den)


def substitute(f: GradedSeries, assignment: dict[Variable, GradedSeries], *,
               check_degrees: bool = True,
               guard_truncation: bool = False) -> GradedSeries:
    """Simultaneous graded substitution.

    Variables missing from ``assignment`` are left in place.  When every
    image term has its variable's parity (so whenever degrees are checked),
    substitution is an algebra homomorphism, ``phi(x*y) = phi(x)*phi(y)``:
    the images of a monomial's letters may be multiplied in any order that
    keeps its Koszul sign.  A parity-breaking assignment (allowed only with
    ``check_degrees=False``) is not; its images are multiplied in canonical
    monomial order, so the result is deterministic (``_substitute_canonical``).
    Each power ``image**e`` is computed once per call.  The result has one
    denominator: ``f``'s times ``d**top`` for each assigned letter, where
    ``d`` is the denominator of its image and ``top`` its largest exponent
    in ``f``.  A monomial with no assigned letter is copied to the result
    as it is, its numerator scaled to that denominator.

    The checks resolve each variable to its slot once; ``_substitute_slots``
    does the substitution.
    """
    var = _slots(f.registry)
    images: dict[int, tuple[PackedTerms, int]] = {}
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
        images[var.slot(v)] = (image._terms, image._den)
    terms, lift = _substitute_slots(f._terms, images, f.truncation)
    return GradedSeries._of_packed(f.registry, f.truncation, terms, f._den * lift)


def _preserves_parity(images: dict[int, tuple[PackedTerms, int]]) -> bool:
    """Whether every image term has its slot's parity: substitution is then a homomorphism."""
    return all(_odd(m) == slot & 1 for slot, (image, _) in images.items() for m in image)


def _substitute_slots(terms: PackedTerms, images: dict[int, tuple[PackedTerms, int]],
                      truncation: int, order: int | None = None) -> tuple[PackedTerms, int]:
    """The substitution kernel: ``terms`` with each slot of ``images`` replaced.

    ``images`` maps a slot to the numerators and denominator of its image.
    Returns the numerators of the result, zeros possibly included, and the
    ``lift``: the result is over the input's denominator times ``lift``.
    Monomials with no slot of ``images`` (no letter in the mask of their
    fields) pass through, scaled by ``lift``; see ``substitute`` for the
    denominator.  Given an ``order``, the result has no term of more than
    ``order`` letters: a longer term is not passed through, and no product
    builds one.

    When every image term has its slot's parity, substitution is a homomorphism
    and needs no decoding: a code is ``s * x_rest * x_part``, its untouched
    rest times its moved part (``code & mask``), and the rests of one part,
    each with its sign ``s``, multiply the part's image once.  Other images
    go through ``_substitute_canonical``, which defines their result.
    """
    if not _preserves_parity(images):
        return _substitute_canonical(terms, images, truncation, order)
    mask, fields = _mask(images), _FIELDS
    moved = sorted((fields[slot], slot) for slot in images)
    groups: dict[int, list[tuple[int, int]]] = {}  # moved part -> its (code, numerator) rows
    for code, coeff in terms.items():
        groups.setdefault(code & mask, []).append((code, coeff))
    passed = groups.pop(0, [])
    lift = prod(den ** max((part >> shift & _LETTERS for part in groups), default=0)
                for shift, slot in moved if (den := images[slot][1]) > 1)
    out = (dict(passed) if lift == 1 and order is None
           else {m: c * lift for m, c in passed if order is None or m & _LETTERS <= order})
    powers: dict[tuple[int, int], tuple[PackedTerms, _Right]] = {}  # (slot, e) -> image**e
    dead = _mask(slot for slot, (image, _) in images.items() if not image)
    for part, rows in groups.items():
        if part & dead:  # a letter with the image zero
            continue
        product, right, den, drop = None, None, 1, part
        for shift, slot in moved:
            e = part >> shift & _LETTERS
            if not e:
                continue
            den *= images[slot][1] ** e
            drop += e if slot & _Q_BIT else e + (e << _P_SHIFT)
            if (slot, e) not in powers:
                image = power = images[slot][0]
                for _ in range(e - 1):
                    power = _add_product({}, power, _right(image), truncation, order=order)
                powers[slot, e] = power, _right(power)
            if product is None:
                product, right = powers[slot, e]
            else:
                product = _add_product({}, product, powers[slot, e][1], truncation, order=order)
                right = None
        if not product:
            continue
        # the sign s: untouched odd fields above an odd number of the part's odd letters
        below = (part & fields.odd) << _W
        if below:
            for shift in fields.spread:
                below ^= below << shift
            below &= fields.odd & ~mask
        scale = lift // den
        rests = {code - drop: -coeff * scale if (below & code).bit_count() & 1 else coeff * scale
                 for code, coeff in rows}
        _add_product(out, rests, right or _right(product), truncation, order=order)
    return out, lift


def _substitute_canonical(terms: PackedTerms, images: dict[int, tuple[PackedTerms, int]],
                          truncation: int, order: int | None = None
                          ) -> tuple[PackedTerms, int]:
    """``_substitute_slots``, with its ``order`` cut, by images multiplied in canonical order."""
    mask = _mask(images)
    passed: list[tuple[int, int]] = []
    moved: list[tuple[list[tuple[int, int]], int]] = []  # (runs in canonical order, numerator)
    top: dict[int, int] = {}
    for code, coeff in terms.items():
        if not code & mask:
            passed.append((code, coeff))
            continue
        # the letters in canonical order, with the numerator of that written order
        runs = sorted(_runs(code))
        moved.append((runs, coeff * _packed(runs)[1]))
        for slot, e in runs:
            if slot in images and e > top.get(slot, 0):
                top[slot] = e
    lift = prod(images[slot][1] ** e for slot, e in top.items())
    out = (dict(passed) if lift == 1 and order is None
           else {m: c * lift for m, c in passed if order is None or m & _LETTERS <= order})
    rights: dict[tuple[int, int], _Right] = {}  # (slot, e) -> _right(image**e)
    for runs, coeff in moved:
        mono_den = prod(images[slot][1] ** e for slot, e in runs if slot in images)
        acc = {0: coeff * (lift // mono_den)}  # from the empty monomial
        for key in runs:
            if key not in rights:
                slot, e = key
                power = base = images[slot][0] if slot in images else {_packed(((slot, 1),))[0]: 1}
                for _ in range(e - 1):
                    power = _add_product({}, power, _right(base), truncation, order=order)
                rights[key] = _right(power)
            acc = _add_product({}, acc, rights[key], truncation, order=order)
            if not acc:
                break
        for m, c in acc.items():
            out[m] = out.get(m, 0) + c
    return out, lift


def reside(f: GradedSeries, *, kind: str, side: str, new_side: str,
           orbit_names: set[str] | None = None) -> GradedSeries:
    """Retag matching variables with a new side, preserving all signs.

    A slot matches when its kind and side are ``kind`` and ``side`` and,
    unless ``orbit_names`` is None, its orbit is named in it; it changes
    only its side bits, to those of ``new_side``.  As a homomorphism (see
    ``substitute``) it moves each matched exponent to its new field by
    shift: an odd letter takes one sign per odd letter strictly between the
    two fields, or its term vanishes when the new field is already set.
    The result is over the same denominator.  ``new_side`` is checked only
    when some variable matches.
    """
    if kind not in ("p", "q") or side not in SIDES:
        return f
    var = _slots(f.registry)
    want = (_Q_BIT if kind == "q" else 0) | SIDES.index(side) << 1
    ranks = None if orbit_names is None else {var.rank[name] for name in orbit_names
                                              if name in var.rank}
    matched = [s for s in _used(f._terms) if s & _KIND_SIDE_MASK == want
               and (ranks is None or s >> _RANK_SHIFT in ranks)]
    if not matched:
        return f
    Variable(var[min(matched)].iterate, kind, new_side)  # raises for an unknown side
    bits = SIDES.index(new_side) << 1
    fields = _FIELDS
    moves = [(fields[s], fields[s & ~_SIDE_MASK | bits], s & 1) for s in matched]
    # and the odd fields strictly between, for an odd letter, once every new field exists
    moves = [(old, new, odd, fields.odd & ((1 << max(old, new)) - (1 << min(old, new) + _W)) * odd)
             for old, new, odd in moves if old != new]
    mask = _mask(matched)
    terms: PackedTerms = {}
    for code, coeff in f._terms.items():
        if code & mask:
            for old, new, odd, between in moves:
                e = code >> old & _LETTERS
                if e and code >> new & odd:  # an odd letter met twice: the term vanishes
                    coeff = 0
                    break
                if e and (code & between).bit_count() & 1:
                    coeff = -coeff
                code += (e << new) - (e << old)
        if coeff:
            terms[code] = terms.get(code, 0) + coeff
    return GradedSeries._of_packed(f.registry, f.truncation, terms, f._den)
