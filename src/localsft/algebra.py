"""Exact graded supercommutative series in orbit p/q-variables.

Coefficients are exact rationals.  Monomials are stored in a canonical
variable order (orbit name, iterate, kind, side); reordering odd variables
costs a Koszul sign and odd squares vanish.  Series are polynomial in the
q-variables and truncated in total p-degree (the number of p-letters of a
monomial), matching the power-series-in-p structure of the generating
functions they carry.

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

from .errors import DegreeMismatch, RegistryMismatch, TruncationOverflow
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


def monomial_degree(mono: Monomial) -> int:
    return sum(v.degree * e for v, e in mono)


def monomial_p_degree(mono: Monomial) -> int:
    return sum(e for v, e in mono if v.kind == "p")


def monomial_letters(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def merge_monomials(a: Monomial, b: Monomial) -> tuple[Monomial | None, int]:
    """Product of two canonical monomials with its Koszul sign.

    Returns (None, 0) when an odd variable would appear twice.  The sign
    counts the odd-odd transpositions needed to interleave ``b`` into ``a``.
    """
    out: list[tuple[Variable, int]] = []
    sign = 1
    i = j = 0
    odd_left_in_a = sum(1 for v, _ in a if v.odd)
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va.key < vb.key:
            if va.odd:
                odd_left_in_a -= 1
            out.append((va, ea))
            i += 1
        elif va.key > vb.key:
            if vb.odd and odd_left_in_a % 2 == 1:
                sign = -sign
            out.append((vb, eb))
            j += 1
        else:
            if va.odd:
                return None, 0
            out.append((va, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def render_monomial(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for v, e in mono:
        parts.append(v.render() if e == 1 else f"{v.render()}^{e}")
    return "*".join(parts)


class GradedSeries:
    """A finitely supported series over a shared orbit registry.

    Treated as immutable: all operations return fresh instances.
    """

    __slots__ = ("registry", "truncation", "_terms")

    def __init__(self, registry: OrbitRegistry, truncation: int,
                 terms: dict[Monomial, Fraction] | None = None):
        if truncation < 1:
            raise ValueError("truncation order must be positive")
        self.registry = registry
        self.truncation = truncation
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0 or monomial_p_degree(mono) > truncation:
                continue
            clean[mono] = coeff
        self._terms = clean

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
        return sorted(self._terms.items(), key=lambda t: _monomial_sort_key(t[0]))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> list[Variable]:
        seen = {}
        for mono in self._terms:
            for v, _ in mono:
                seen[v.key] = v
        return [seen[k] for k in sorted(seen)]

    def degree(self) -> int | None:
        """Degree of a homogeneous series (None for the zero series)."""
        degs = {monomial_degree(m) for m in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("series is not homogeneous")
        return next(iter(degs))

    def by_degree(self) -> dict[int, "GradedSeries"]:
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            buckets.setdefault(monomial_degree(mono), {})[mono] = coeff
        return {d: GradedSeries(self.registry, self.truncation, t)
                for d, t in sorted(buckets.items())}

    def render(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.terms():
            if mono is ONE or not mono:
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
        if self.registry != other.registry:
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
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return GradedSeries(self.registry, self.truncation, terms)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def __neg__(self) -> "GradedSeries":
        return self.scale(-1)

    def scale(self, value) -> "GradedSeries":
        value = Fraction(value)
        return GradedSeries(self.registry, self.truncation,
                            {m: c * value for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


def _monomial_sort_key(mono: Monomial):
    return (monomial_letters(mono), tuple((v.key, e) for v, e in mono))


def _add_product(terms: dict[Monomial, Fraction], f: GradedSeries, g: GradedSeries,
                 scale: int = 1) -> None:
    """Accumulate ``scale * f * g`` into ``terms``, truncated in total p-degree."""
    for mono_f, coeff_f in f._terms.items():
        pf = monomial_p_degree(mono_f)
        for mono_g, coeff_g in g._terms.items():
            if pf + monomial_p_degree(mono_g) > f.truncation:
                continue
            mono, sign = merge_monomials(mono_f, mono_g)
            if mono is None:
                continue
            terms[mono] = terms.get(mono, 0) + coeff_f * coeff_g * (sign * scale)


def multiply(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Supercommutative product, truncated in total p-degree."""
    f._check_compatible(g)
    terms: dict[Monomial, Fraction] = {}
    _add_product(terms, f, g)
    return GradedSeries(f.registry, f.truncation, terms)


def _partial(f: GradedSeries, v: Variable, from_right: bool) -> GradedSeries:
    terms: dict[Monomial, Fraction] = {}
    for mono, coeff in f._terms.items():
        for idx, (w, e) in enumerate(mono):
            if w != v:
                continue
            sign = 1
            if v.odd:
                flank = mono[idx + 1:] if from_right else mono[:idx]
                odd_count = sum(1 for u, _ in flank if u.odd)
                if odd_count % 2 == 1:
                    sign = -1
            if e == 1:
                new = mono[:idx] + mono[idx + 1:]
            else:
                new = mono[:idx] + ((w, e - 1),) + mono[idx + 1:]
            terms[new] = terms.get(new, 0) + coeff * e * sign
            break
    return GradedSeries(f.registry, f.truncation, terms)


def partial(f: GradedSeries, v: Variable) -> GradedSeries:
    """Graded left derivative with respect to ``v``."""
    return _partial(f, v, from_right=False)


def partial_right(f: GradedSeries, v: Variable) -> GradedSeries:
    """Graded right derivative with respect to ``v``."""
    return _partial(f, v, from_right=True)


def _conjugate_pairs(*series: GradedSeries) -> list[tuple[Variable, Variable]]:
    """All (p, q) same-iterate same-side pairs occurring in the given series."""
    slots: dict[tuple, OrbitIterate] = {}
    for s in series:
        for v in s.variables():
            slots[(v.iterate.orbit.name, v.iterate.k, v.side)] = v.iterate
    pairs = []
    for (name, k, side), iterate in sorted(slots.items()):
        pairs.append((Variable(iterate, "p", side), Variable(iterate, "q", side)))
    return pairs


def _add_pairing(terms: dict[Monomial, Fraction], left: GradedSeries,
                 right: GradedSeries, pairs: list[tuple[Variable, Variable]],
                 sign: int = 1) -> None:
    """Accumulate ``sign * sum_i kappa_i dR left/dp_i * dL right/dq_i`` into ``terms``.

    The kappa-weighted pairing shared by the Poisson bracket and the
    Hamilton-Jacobi right side (``potentials.hamilton_jacobi_rhs``).
    """
    for p, q in pairs:
        _add_product(terms, partial_right(left, p), partial(right, q), sign * p.kappa)


def poisson_bracket(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Kappa-weighted graded Poisson bracket, extended bilinearly."""
    f._check_compatible(g)
    pairs = _conjugate_pairs(f, g)
    terms: dict[Monomial, Fraction] = {}
    for df, fh in f.by_degree().items():
        for dg, gh in g.by_degree().items():
            _add_pairing(terms, fh, gh, pairs)
            _add_pairing(terms, gh, fh, pairs, 1 if df * dg % 2 else -1)
    return GradedSeries(f.registry, f.truncation, terms)


def substitute(f: GradedSeries, assignment: dict[Variable, GradedSeries], *,
               check_degrees: bool = True,
               guard_truncation: bool = False) -> GradedSeries:
    """Simultaneous graded substitution.

    Variables missing from ``assignment`` are left in place.  Images of a
    monomial's letters are multiplied in canonical monomial order, so the
    result is deterministic even for parity-breaking assignments (allowed
    only with ``check_degrees=False``).
    """
    for v, image in assignment.items():
        f._check_compatible(image)
        if check_degrees:
            for mono in image._terms:
                if monomial_degree(mono) != v.degree:
                    raise DegreeMismatch(
                        f"image of {v.render()} has a term of degree "
                        f"{monomial_degree(mono)}, expected {v.degree}")
        if guard_truncation and v.kind == "p":
            for mono in image._terms:
                if monomial_p_degree(mono) == 0:
                    raise TruncationOverflow(
                        f"image of {v.render()} has a p-degree-zero term; "
                        f"truncated tails would leak below the cutoff")
    out_terms: dict[Monomial, Fraction] = {}
    for mono, coeff in f._terms.items():
        acc = GradedSeries.constant(f.registry, f.truncation, coeff)
        for v, e in mono:
            image = assignment.get(v)
            if image is None:
                image = GradedSeries.of(f.registry, f.truncation, v)
            for _ in range(e):
                acc = multiply(acc, image)
                if acc.is_zero():
                    break
            if acc.is_zero():
                break
        for m, c in acc._terms.items():
            out_terms[m] = out_terms.get(m, 0) + c
    return GradedSeries(f.registry, f.truncation, out_terms)


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
