"""Reeb orbits, their iterates, and Conley-Zehnder index bookkeeping.

Orbits come in two nondegenerate flavours.  An elliptic orbit carries an
exact rational rotation number ``theta``; its iterates have index
``CZ(k) = 2*floor(k*theta) + 1``, tabulated once per orbit for every
admissible k.  A hyperbolic orbit carries the integer index ``cz1`` of
the simple orbit and iterates additively, ``CZ(k) = k*cz1``.
Rationality of ``theta`` is harmless as long as ``k*theta`` never lands
on an integer, which is guaranteed for all ``k <= max_iterate`` by
requiring the denominator of ``theta`` to exceed ``max_iterate``.  The
table is built at construction, so ``max_iterate`` is bounded by
``MAX_ITERATE_BOUND``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, itemgetter

from .errors import (BadOrbit, ConfigError, InvalidOrbit, InvalidVariable, IterateOutOfRange,
                     RegistryMismatch)

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
# largest accepted max_iterate of an elliptic orbit: the CZ table has that many entries
MAX_ITERATE_BOUND = 10_000


@dataclass(frozen=True)
class ReebOrbit:
    """A simple closed Reeb orbit on a three-dimensional contact manifold."""

    name: str
    kind: str
    theta: Fraction | None = None
    cz1: int | None = None
    max_iterate: int | None = None
    morse: bool = True
    # CZ(k) at index k - 1 for every admissible k (elliptic orbits only)
    cz_table: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (ELLIPTIC, HYPERBOLIC):
            raise InvalidOrbit(f"unknown orbit kind {self.kind!r}")
        if self.kind == ELLIPTIC:
            if self.theta is None or self.max_iterate is None:
                raise InvalidOrbit(f"orbit {self.name}: elliptic needs theta and max_iterate")
            if self.cz1 is not None:
                raise InvalidOrbit(f"orbit {self.name}: cz1 is hyperbolic-only data")
            theta = Fraction(self.theta)
            object.__setattr__(self, "theta", theta)
            if theta <= 0:
                raise InvalidOrbit(f"orbit {self.name}: rotation number must be positive")
            if self.max_iterate < 1:
                raise InvalidOrbit(f"orbit {self.name}: max_iterate must be at least 1")
            if self.max_iterate > MAX_ITERATE_BOUND:
                raise IterateOutOfRange(
                    f"orbit {self.name}: max_iterate {self.max_iterate} exceeds "
                    f"MAX_ITERATE_BOUND={MAX_ITERATE_BOUND}")
            # denominator > max_iterate keeps k*theta off the integers for all
            # admissible k, so floor(k*theta) is unambiguous and CZ stays odd.
            if theta.denominator <= self.max_iterate:
                raise InvalidOrbit(
                    f"orbit {self.name}: theta denominator {theta.denominator} "
                    f"must exceed max_iterate {self.max_iterate}"
                )
            num, den = theta.numerator, theta.denominator
            object.__setattr__(self, "cz_table", tuple(
                2 * (k * num // den) + 1 for k in range(1, self.max_iterate + 1)))
        else:
            if self.cz1 is None:
                raise InvalidOrbit(f"orbit {self.name}: hyperbolic needs cz1")
            for key in ("theta", "max_iterate"):
                if getattr(self, key) is not None:
                    raise InvalidOrbit(f"orbit {self.name}: {key} is elliptic-only data")

    @property
    def elliptic(self) -> bool:
        return self.kind == ELLIPTIC

    @property
    def hyperbolic(self) -> bool:
        return self.kind == HYPERBOLIC

    def iterate(self, k: int) -> "OrbitIterate":
        return OrbitIterate(self, k)


def _check_iterate(orbit: ReebOrbit, k: int) -> None:
    if k < 1:
        raise InvalidOrbit(f"iterate multiplicity must be positive, got {k}")
    if orbit.elliptic and k > orbit.max_iterate:
        raise IterateOutOfRange(
            f"{orbit.name}^{k}: beyond declared bound max_iterate={orbit.max_iterate}")


@dataclass(frozen=True)
class OrbitIterate:
    """The k-fold cover of a simple orbit; ``k`` is the multiplicity kappa."""

    orbit: ReebOrbit
    k: int

    def __post_init__(self):
        _check_iterate(self.orbit, self.k)

    @property
    def name(self) -> str:
        return self.orbit.name if self.k == 1 else f"{self.orbit.name}^{self.k}"

    def __repr__(self):
        return f"OrbitIterate({self.name})"


_ITERATE_ORDER = attrgetter("orbit.name", "k")
_NAME = itemgetter(0)


def _render_key(key: tuple[tuple[str, int], ...]) -> str:
    return "(" + ",".join(name if k == 1 else f"{name}^{k}" for name, k in key) + ")"


class _cached:
    """A per-instance cache like ``functools.cached_property``, without its lock.

    On Python 3.11 ``cached_property`` takes an ``RLock`` on every first
    access, and most collections and cover specs are read once.  This is a
    non-data descriptor: the first read stores the value in the instance
    ``__dict__`` (frozen dataclasses included), where later reads find it
    first.  A read that raises stores nothing, so it raises again.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class OrbitCollection:
    """A multiset of orbit iterates: the asymptotics of one end.

    Canonical at construction: ``items`` is sorted by (orbit name, k), so
    collections that differ only in order compare, hash and render equal.
    The key is built with that sort; the rendering, the per-orbit totals and
    the index sum are computed once, on first use.
    """

    items: tuple[OrbitIterate, ...] = ()
    sign: str = "positive"

    def __post_init__(self):
        if self.sign not in ("positive", "negative"):
            raise InvalidOrbit(f"collection sign must be positive/negative, got {self.sign!r}")
        items = tuple(self.items)
        keys = tuple(map(_ITERATE_ORDER, items))  # one key per member
        key = tuple(sorted(keys))
        if key != keys:  # most collections are built in order already
            items = tuple([items[i] for i in sorted(range(len(items)), key=keys.__getitem__)])
        object.__setattr__(self, "items", items)
        self.__dict__["_key"] = key

    @_cached
    def multiplicities(self) -> dict[str, int]:
        """Orbit name -> total multiplicity of its iterates (cached: do not mutate)."""
        totals: dict[str, int] = {}
        for name, k in self._key:
            totals[name] = totals.get(name, 0) + k
        return totals

    @_cached
    def end_counts(self) -> dict[str, int]:
        """Orbit name -> number of its iterates (cached: do not mutate)."""
        return {name: len(list(pairs)) for name, pairs in groupby(self._key, _NAME)}

    @_cached
    def cz_sum(self) -> int:
        """Sum of the Conley-Zehnder indices of the members, as ``cz_iterate`` gives them."""
        return sum([it.orbit.cz_table[it.k - 1] if it.orbit.cz1 is None else it.k * it.orbit.cz1
                    for it in self.items])  # each member checked its bound when it was made

    @_cached
    def nonvanishing(self) -> bool:
        """Whether the product of the members' variables is nonzero: each member is good
        and none of even index repeats (``cz1`` is None for an elliptic orbit, of odd index)."""
        previous = None
        for it, key in zip(self.items, self._key):
            cz1 = it.orbit.cz1
            if cz1 is not None and (it.k % 2 == 0 if cz1 % 2 else key == previous):
                return False
            previous = key
        return True

    @_cached
    def _render(self) -> str:
        return _render_key(self._key)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def total_multiplicity(self, orbit: ReebOrbit | None = None) -> int:
        totals = self.multiplicities
        return sum(totals.values()) if orbit is None else totals.get(orbit.name, 0)

    def key(self) -> tuple[tuple[str, int], ...]:
        """Canonical key: (orbit name, multiplicity) pairs in item order."""
        return self._key

    def render(self) -> str:
        return self._render

    def __repr__(self):
        return f"OrbitCollection{self.render()}"


EMPTY_COLLECTION = OrbitCollection(())


def cz_iterate(orbit: ReebOrbit, k: int) -> int:
    """Conley-Zehnder index of the k-th iterate, read from the orbit's table."""
    _check_iterate(orbit, k)
    return orbit.cz_table[k - 1] if orbit.elliptic else k * orbit.cz1


def cz_defect(orbit: ReebOrbit, k: int, m: int) -> int:
    """Index defect CZ(k+m) - CZ(k) - CZ(m).

    Elliptic orbits always give -1 or +1; hyperbolic orbits give 0 by
    additivity.
    """
    return cz_iterate(orbit, k + m) - cz_iterate(orbit, k) - cz_iterate(orbit, m)


def is_good(iterate: OrbitIterate) -> bool:
    """Whether the iterate is a good orbit.

    The only bad iterates are even covers of odd hyperbolic orbits, whose
    index parity flips under iteration.
    """
    orbit = iterate.orbit
    if orbit.elliptic:
        return True
    return not (orbit.cz1 % 2 == 1 and iterate.k % 2 == 0)


def variable_degree(iterate: OrbitIterate, kind: str) -> int:
    """Grading of the p- or q-variable attached to a good iterate.

    Specialized to four-dimensional targets: ``deg q = CZ - 1`` and
    ``deg p = -CZ - 1``.
    """
    if kind not in ("p", "q"):
        raise InvalidVariable(f"variable kind must be 'p' or 'q', got {kind!r}")
    if not is_good(iterate):
        raise BadOrbit(f"{iterate.name} is a bad orbit; it has no {kind}-variable")
    cz = cz_iterate(iterate.orbit, iterate.k)
    return cz - 1 if kind == "q" else -cz - 1


class OrbitRegistry:
    """Named orbit lookup used by the config layer and the series engine."""

    def __init__(self, orbits: list[ReebOrbit] | None = None):
        self._orbits: dict[str, ReebOrbit] = {}
        # variable slots of the series kernel (``algebra``), built on first use
        self.slot_table = None
        for orbit in orbits or []:
            self.add(orbit)

    def add(self, orbit: ReebOrbit) -> ReebOrbit:
        if orbit.name in self._orbits:
            raise InvalidOrbit(f"duplicate orbit name {orbit.name!r}")
        # slots encode the rank of the orbit name: only a new last name keeps them
        if self.slot_table is not None and any(name > orbit.name for name in self._orbits):
            raise RegistryMismatch(f"cannot add orbit {orbit.name!r} before orbits whose "
                                   f"variables already have series slots")
        self.slot_table = None
        self._orbits[orbit.name] = orbit
        return orbit

    def get(self, name: str) -> ReebOrbit:
        orbit = self._orbits.get(name)
        if orbit is None:
            raise ConfigError(f"unknown orbit {name!r}")
        return orbit

    def __contains__(self, name: str) -> bool:
        return name in self._orbits

    def orbits(self) -> list[ReebOrbit]:
        return [self._orbits[name] for name in sorted(self._orbits)]

    def __eq__(self, other):
        return isinstance(other, OrbitRegistry) and self._orbits == other._orbits

    def __len__(self):
        return len(self._orbits)
