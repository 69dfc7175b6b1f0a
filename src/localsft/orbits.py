"""Reeb orbits, their iterates, and Conley-Zehnder index bookkeeping.

Orbits come in two nondegenerate flavours.  An elliptic orbit carries an
exact rational rotation number ``theta``; its iterates have index
``CZ(k) = 2*floor(k*theta) + 1``.  A hyperbolic orbit carries the integer
index ``cz1`` of the simple orbit and iterates additively,
``CZ(k) = k*cz1``.  Rationality of ``theta`` is harmless as long as
``k*theta`` never lands on an integer, which is guaranteed for all
``k <= max_iterate`` by requiring the denominator of ``theta`` to exceed
``max_iterate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadOrbit, IterateOutOfRange, RegistryMismatch

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class ReebOrbit:
    """A simple closed Reeb orbit on a three-dimensional contact manifold."""

    name: str
    kind: str
    theta: Fraction | None = None
    cz1: int | None = None
    max_iterate: int | None = None
    morse: bool = True

    def __post_init__(self):
        if self.kind not in (ELLIPTIC, HYPERBOLIC):
            raise ValueError(f"unknown orbit kind {self.kind!r}")
        if self.kind == ELLIPTIC:
            if self.theta is None or self.max_iterate is None:
                raise ValueError(f"orbit {self.name}: elliptic needs theta and max_iterate")
            if self.cz1 is not None:
                raise ValueError(f"orbit {self.name}: cz1 is hyperbolic-only data")
            theta = Fraction(self.theta)
            object.__setattr__(self, "theta", theta)
            if theta <= 0:
                raise ValueError(f"orbit {self.name}: rotation number must be positive")
            if self.max_iterate < 1:
                raise ValueError(f"orbit {self.name}: max_iterate must be at least 1")
            # denominator > max_iterate keeps k*theta off the integers for all
            # admissible k, so floor(k*theta) is unambiguous and CZ stays odd.
            if theta.denominator <= self.max_iterate:
                raise ValueError(
                    f"orbit {self.name}: theta denominator {theta.denominator} "
                    f"must exceed max_iterate {self.max_iterate}"
                )
        else:
            if self.cz1 is None:
                raise ValueError(f"orbit {self.name}: hyperbolic needs cz1")
            if self.theta is not None:
                raise ValueError(f"orbit {self.name}: theta is elliptic-only data")

    @property
    def elliptic(self) -> bool:
        return self.kind == ELLIPTIC

    @property
    def hyperbolic(self) -> bool:
        return self.kind == HYPERBOLIC

    def iterate(self, k: int) -> "OrbitIterate":
        return OrbitIterate(self, k)


@dataclass(frozen=True)
class OrbitIterate:
    """The k-fold cover of a simple orbit; ``k`` is the multiplicity kappa."""

    orbit: ReebOrbit
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"iterate multiplicity must be positive, got {self.k}")
        if self.orbit.elliptic and self.k > self.orbit.max_iterate:
            raise IterateOutOfRange(
                f"{self.orbit.name}^{self.k}: beyond declared bound "
                f"max_iterate={self.orbit.max_iterate}"
            )

    @property
    def name(self) -> str:
        return self.orbit.name if self.k == 1 else f"{self.orbit.name}^{self.k}"

    def __repr__(self):
        return f"OrbitIterate({self.name})"


@dataclass(frozen=True)
class OrbitCollection:
    """An ordered multiset of orbit iterates: the asymptotics of one end."""

    items: tuple[OrbitIterate, ...] = ()
    sign: str = "positive"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if self.sign not in ("positive", "negative"):
            raise ValueError(f"collection sign must be positive/negative, got {self.sign!r}")

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def kappa(self) -> int:
        """Product of the multiplicities of all members."""
        out = 1
        for it in self.items:
            out *= it.k
        return out

    def total_multiplicity(self, orbit: ReebOrbit | None = None) -> int:
        return sum(it.k for it in self.items
                   if orbit is None or it.orbit.name == orbit.name)

    def key(self) -> tuple[tuple[str, int], ...]:
        """Order-insensitive canonical key (sorted by orbit name, multiplicity)."""
        return tuple(sorted((it.orbit.name, it.k) for it in self.items))

    def sorted_items(self) -> tuple[OrbitIterate, ...]:
        return tuple(sorted(self.items, key=lambda it: (it.orbit.name, it.k)))

    def render(self) -> str:
        return "(" + ",".join(it.name for it in self.sorted_items()) + ")"

    def __repr__(self):
        return f"OrbitCollection{self.render()}"


EMPTY_COLLECTION = OrbitCollection(())


def cz_iterate(orbit: ReebOrbit, k: int) -> int:
    """Conley-Zehnder index of the k-th iterate."""
    it = OrbitIterate(orbit, k)  # validates the range
    if orbit.elliptic:
        return 2 * math.floor(it.k * orbit.theta) + 1
    return it.k * orbit.cz1


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
        raise ValueError(f"variable kind must be 'p' or 'q', got {kind!r}")
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
            raise ValueError(f"duplicate orbit name {orbit.name!r}")
        # slots encode the rank of the orbit name: only a new last name keeps them
        if self.slot_table is not None and any(name > orbit.name for name in self._orbits):
            raise RegistryMismatch(f"cannot add orbit {orbit.name!r} before orbits whose "
                                   f"variables already have series slots")
        self.slot_table = None
        self._orbits[orbit.name] = orbit
        return orbit

    def get(self, name: str) -> ReebOrbit:
        try:
            return self._orbits[name]
        except KeyError:
            raise KeyError(f"unknown orbit {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._orbits

    def orbits(self) -> list[ReebOrbit]:
        return [self._orbits[name] for name in sorted(self._orbits)]

    def __eq__(self, other):
        return isinstance(other, OrbitRegistry) and self._orbits == other._orbits

    def __len__(self):
        return len(self._orbits)
