"""Plain-text configuration documents.

One document declares orbits, base curves, cover specs, count tables and
neck configurations, all cross-referenced by name.  Rationals are read
exactly, as ``Fraction`` reads them: ``-3``, ``3/10``, ``0.25``, ``1e3``.
The renderer is canonical (fixed key order, sorted names), so
``parse -> render -> parse`` is a fixpoint and rendered documents are
byte-stable.

Statement forms::

    truncation 8
    orbit <name> elliptic theta=3/10 max_iterate=4 [morse=no]
    orbit <name> hyperbolic cz1=1 [morse=no]
    curve <name> [closed=yes] [immersed=no] index=0 rel_c1_doubled=2
                 [pos=(a,b^2)] [neg=()]
    cover <name> base=<curve>|cyl:<orbit> degree=2 [pos=...] [neg=...]
                 [marked=1] [constrained=1]
    table <name> orbit=<orbit>|curve=<curve>
      <pos-collection> <neg-collection> <count>
      ...
    end
    neck <name> orbits=(a,b) plus=<curve>|cyl:<orbit> minus=<curve>|cyl:<orbit>
                 [separating=yes]

A collection is ``()`` or atoms between parentheses, separated by commas
with no spaces: ``(a,b^2)``.  An atom is an orbit name, for the simple
orbit, or ``<orbit>^<k>``, for its k-th iterate; a neck's ``orbits=``
lists names only.  An empty atom, as in ``(a,)`` or ``(,)``, and an
empty exponent, as in ``(a^)``, are errors at the collection's column.

``theta`` and ``max_iterate`` are elliptic-only, ``cz1`` is hyperbolic-only.
Curve names starting ``cyl:`` or ``cyl(`` are reserved for orbit
cylinders.  ``separating=no`` is parsed and rejected: only separating
necks are supported.  An error in a statement is a ``ConfigError`` naming
its line and, where one token is at fault, its column: the 1-based column
of that token's first character.  Every name a statement references is
placed at its token: ``cover base=``, ``table orbit=``/``curve=``, ``neck
orbits=``/``plus=``/``minus=``, and an atom at its collection's column.

Only the commands that read count tables need their rows: the others parse
with ``rows=False``, which checks every statement and table header as a
full parse does but only splits the table rows, and leaves ``tables`` empty.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from fractions import Fraction

from .covers import BaseCurve, CoverSpec, cylinder_over
from .errors import ConfigError, IterateOutOfRange, LocalSFTError
from .exceptional import NeckConfiguration
from .orbits import OrbitCollection, OrbitIterate, OrbitRegistry, ReebOrbit, _render_key
from .potentials import CountTable

DEFAULT_TRUNCATION = 8


@dataclass
class ConfigDocument:
    truncation: int = DEFAULT_TRUNCATION
    registry: OrbitRegistry = field(default_factory=OrbitRegistry)
    curves: dict[str, BaseCurve] = field(default_factory=dict)
    covers: dict[str, CoverSpec] = field(default_factory=dict)
    tables: dict[str, CountTable] = field(default_factory=dict)
    necks: dict[str, NeckConfiguration] = field(default_factory=dict)
    # the orbit cylinders by reference, built once: an orbit name never changes meaning
    _cylinders: dict[str, BaseCurve] = field(default_factory=dict, init=False,
                                             compare=False, repr=False)

    def curve(self, name: str) -> BaseCurve:
        if name.startswith("cyl:"):
            if name not in self._cylinders:  # an unknown orbit raises, and stores nothing
                self._cylinders[name] = cylinder_over(self.registry.get(name[4:]))
            return self._cylinders[name]
        if name not in self.curves:
            raise ConfigError(f"unknown curve {name!r}")
        return self.curves[name]


def _at(line: int, col: int | None, resolve, *args):
    """``resolve(*args)``, with a library error placed at ``line`` and the token at ``col``.

    An ``IterateOutOfRange`` keeps its own code; any other error becomes a ``ConfigError``.
    """
    try:
        return resolve(*args)
    except LocalSFTError as exc:
        placed = ConfigError(str(exc), line, col)
        if isinstance(exc, IterateOutOfRange):
            raise IterateOutOfRange(str(placed)) from None
        raise placed from None


def _parse_fraction(text: str, line: int, col: int) -> Fraction:
    num, slash, den = text.partition("/")
    unsigned = num[1:] if num[:1] in ("+", "-") else num
    try:  # [+-]digits[/digits] in ASCII digits, read by int as Fraction reads them
        if (unsigned + den).isascii() and unsigned.isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a rational number, got {text!r}", line, col)


def _parse_int(text: str, line: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", line, col)


def _parse_bool(text: str, line: int, col: int) -> bool:
    if text in ("yes", "true", "1"):
        return True
    if text in ("no", "false", "0"):
        return False
    raise ConfigError(f"expected yes/no, got {text!r}", line, col)


def _parse_name_list(text: str, line: int, col: int) -> list[str]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ConfigError(f"expected a parenthesized list, got {text!r}", line, col)
    atoms = text[1:-1].split(",") if text != "()" else []
    if "" in atoms:
        raise ConfigError(f"empty atom in {text!r}", line, col)
    return atoms


def _parse_collection(text: str, lines: _Lines, registry: OrbitRegistry, sign: str,
                      line: int, col: int) -> OrbitCollection:
    """The collection written ``text``, parsed once per document, each atom resolved once."""
    coll = lines.collections.get((text, sign))
    if coll is None:
        items = []
        for atom in _parse_name_list(text, line, col):
            item = lines.atoms.get(atom)
            if item is None:  # an atom that raises is never stored, so it raises again
                name, caret, power = atom.partition("^")
                k = _parse_int(power, line, col) if caret else 1
                orbit = _at(line, col, registry.get, name)
                item = lines.atoms[atom] = _at(line, col, orbit.iterate, k)
            items.append(item)
        coll = lines.collections[text, sign] = OrbitCollection(tuple(items), sign=sign)
    return coll


class _Lines:
    def __init__(self, text: str, rows: bool):
        self.numbered = enumerate(text.splitlines(), 1)
        self.rows = rows  # whether table rows are parsed, or each body line only split
        self.tables: set[str] = set()  # the table names so far, also of unparsed tables
        # parsed collections by (text, sign): a document repeats them (every row of a
        # curve table can share one empty side), a parsed collection is immutable, and
        # orbit names only ever gain meanings as the document goes on
        self.collections: dict[tuple[str, str], OrbitCollection] = {}
        # resolved atoms by text, for the same reasons: ``e0^2`` recurs in many collections
        self.atoms: dict[str, OrbitIterate] = {}


def _tokens(line: str) -> list[tuple[str, int]]:
    """The tokens of ``line``, comments cut, each with its 1-based column."""
    line, tokens, col = line.partition("#")[0], [], 0
    for token in line.split():  # found from the previous token's end: its own column
        col = line.index(token, col)
        tokens.append((token, col + 1))
        col += len(token)
    return tokens


def _split_kv(tokens: list[tuple[str, int]], line: int) -> dict[str, tuple[str, int]]:
    out: dict[str, tuple[str, int]] = {}
    for token, col in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ConfigError(f"expected key=value, got {token!r}", line, col)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line, col)
        out[key] = (value, col)
    return out


def parse_config(text: str, *, rows: bool = True) -> ConfigDocument:
    """The document written ``text``; the first fault in it raises, placed at its line.

    With ``rows=False`` the table rows are not read.  A table header is still checked
    in full: its name (a duplicate included), its keys, exactly one of ``orbit=`` and
    ``curve=``, and that the orbit or curve it names exists.  Each body line is only
    split: one that is not three tokens, or a table with no ``end`` line, still raises.
    No atom, count or key of a row is read, a row's faults go unreported, and
    ``doc.tables`` is left empty, so such a document is neither rendered nor compared.
    """
    doc = ConfigDocument()
    lines = _Lines(text, rows)
    saw_truncation = False
    for lineno, line in lines.numbered:
        if not (tokens := _tokens(line)):
            continue
        head, col0 = tokens[0]
        if head == "truncation":
            if len(tokens) != 2:
                raise ConfigError("truncation takes exactly one value", lineno, col0)
            if saw_truncation:
                raise ConfigError("duplicate truncation statement", lineno, col0)
            value, col = tokens[1]
            doc.truncation = _parse_int(value, lineno, col)
            if doc.truncation < 1:
                raise ConfigError("truncation must be positive", lineno, col)
            saw_truncation = True
            continue
        parse = _STATEMENTS.get(head)
        if parse is None:
            raise ConfigError(f"unknown statement {head!r}", lineno, col0)
        try:
            parse(doc, tokens, lineno, lines)
        except IterateOutOfRange:
            raise  # positioned where it is raised, and keeps its own code
        except LocalSFTError as exc:
            if isinstance(exc, ConfigError) and exc.line is not None:
                raise
            raise ConfigError(str(exc), lineno) from None
    return doc


def _statement_name(tokens: list[tuple[str, int]], lineno: int, what: str,
                    taken: Container[str] = ()) -> str:
    """The statement's name; ``taken`` holds the names its kind already has."""
    if len(tokens) < 2 or "=" in tokens[1][0]:
        raise ConfigError(f"{what} statement needs a name", lineno, 1)
    name = tokens[1][0]
    if name in taken:
        raise ConfigError(f"duplicate {what} name {name!r}", lineno)
    return name


def _take(kv: dict[str, tuple[str, int]], key: str, parse, default, lineno: int):
    """Remove ``key`` from ``kv`` and parse its value; ``default`` when absent."""
    item = kv.pop(key, None)
    return default if item is None else parse(item[0], lineno, item[1])


def _take_collection(kv: dict[str, tuple[str, int]], key: str, lines: _Lines,
                     registry: OrbitRegistry, sign: str, lineno: int) -> OrbitCollection:
    text, col = kv.pop(key, ("()", None))
    return _parse_collection(text, lines, registry, sign, lineno, col)


def _reject_unknown_keys(kv: dict[str, tuple[str, int]], what: str, lineno: int) -> None:
    if kv:
        key = next(iter(kv))
        raise ConfigError(f"unknown {what} key {key!r}", lineno, kv[key][1])


def _parse_orbit(doc: ConfigDocument, tokens, lineno, lines):
    name = _statement_name(tokens, lineno, "orbit")
    if len(tokens) < 3 or "=" in tokens[2][0]:
        raise ConfigError("orbit statement needs a kind (elliptic/hyperbolic)", lineno, 1)
    kind = tokens[2][0]
    kv = _split_kv(tokens[3:], lineno)
    theta, cz1, max_iterate, morse = (kv.pop(key, None)
                                      for key in ("theta", "cz1", "max_iterate", "morse"))
    _reject_unknown_keys(kv, "orbit", lineno)
    doc.registry.add(_at(
        lineno, None, ReebOrbit, name, kind,
        None if theta is None else _parse_fraction(theta[0], lineno, theta[1]),
        None if cz1 is None else _parse_int(cz1[0], lineno, cz1[1]),
        None if max_iterate is None else _parse_int(max_iterate[0], lineno, max_iterate[1]),
        True if morse is None else _parse_bool(morse[0], lineno, morse[1])))


def _parse_curve(doc: ConfigDocument, tokens, lineno, lines):
    name = _statement_name(tokens, lineno, "curve", doc.curves)
    if name.startswith(("cyl:", "cyl(")):
        # cyl:g refers to the cylinder over orbit g, and that curve is named cyl(g)
        raise ConfigError(f"curve name {name!r} is reserved for orbit cylinders",
                          lineno, tokens[1][1])
    kv = _split_kv(tokens[2:], lineno)
    closed = _take(kv, "closed", _parse_bool, False, lineno)
    immersed = _take(kv, "immersed", _parse_bool, True, lineno)
    index = _take(kv, "index", _parse_int, 0, lineno)
    rel = _take(kv, "rel_c1_doubled", _parse_int, 0, lineno)
    pos = _take_collection(kv, "pos", lines, doc.registry, "positive", lineno)
    neg = _take_collection(kv, "neg", lines, doc.registry, "negative", lineno)
    _reject_unknown_keys(kv, "curve", lineno)
    doc.curves[name] = BaseCurve(name, pos, neg, index, rel, immersed, closed)


def _parse_cover(doc: ConfigDocument, tokens, lineno, lines):
    name = _statement_name(tokens, lineno, "cover", doc.covers)
    kv = _split_kv(tokens[2:], lineno)
    base_item = kv.pop("base", None)
    if base_item is None:
        raise ConfigError("cover statement needs base=<curve>", lineno)
    base = _at(lineno, base_item[1], doc.curve, base_item[0])
    degree_item = kv.pop("degree", None)
    if degree_item is None:
        raise ConfigError("cover statement needs degree=<int>", lineno)
    degree = _parse_int(degree_item[0], lineno, degree_item[1])
    pos = _take_collection(kv, "pos", lines, doc.registry, "positive", lineno)
    neg = _take_collection(kv, "neg", lines, doc.registry, "negative", lineno)
    marked = _take(kv, "marked", _parse_int, 0, lineno)
    constrained = _take(kv, "constrained", _parse_int, 0, lineno)
    _reject_unknown_keys(kv, "cover", lineno)
    doc.covers[name] = CoverSpec(base, degree, pos, neg, marked, constrained)


def _parse_table(doc: ConfigDocument, tokens, lineno, lines: _Lines):
    name = _statement_name(tokens, lineno, "table", lines.tables)
    kv = _split_kv(tokens[2:], lineno)
    orbit_item, curve_item = kv.pop("orbit", None), kv.pop("curve", None)
    _reject_unknown_keys(kv, "table", lineno)
    if (orbit_item is None) == (curve_item is None):
        raise ConfigError("table statement needs exactly one of orbit=.../curve=...", lineno)
    lines.tables.add(name)
    rows = {}
    for row_line, line in lines.numbered:
        if (row := line.partition("#")[0].split()) == ["end"]:
            break
        if row and len(row) != 3:
            raise ConfigError("table rows are: <pos> <neg> <count>", row_line, 1)
        if row and lines.rows:  # else the line is only split: no atom, count or key is read
            (pos_text, pos_col), (neg_text, neg_col), (count_text, count_col) = _tokens(line)
            pos = _parse_collection(pos_text, lines, doc.registry, "positive", row_line, pos_col)
            neg = _parse_collection(neg_text, lines, doc.registry, "negative", row_line, neg_col)
            count = _parse_fraction(count_text, row_line, count_col)
            key = (pos.key(), neg.key())
            if key in rows:
                raise ConfigError("duplicate table row", row_line, 1)
            rows[key] = (row_line, pos, neg, count)
    else:
        raise ConfigError(f"table {name!r} is missing its end line", lineno)
    kind, (context, col) = ("orbit", orbit_item) if orbit_item else ("curve", curve_item)
    base = _at(lineno, col, doc.curve, "cyl:" + context if orbit_item else context)
    if lines.rows:
        table = CountTable(kind, context, {}, doc.registry, base=base)
        # each row is validated once, on the collections parsed above, and placed at its line
        for row_line, pos, neg, count in rows.values():
            _at(row_line, 1, table._add, pos, neg, count)
        doc.tables[name] = table


def _parse_neck(doc: ConfigDocument, tokens, lineno, lines):
    name = _statement_name(tokens, lineno, "neck", doc.necks)
    kv = _split_kv(tokens[2:], lineno)
    orbits_item, plus_item, minus_item, sep_item = (
        kv.pop(key, None) for key in ("orbits", "plus", "minus", "separating"))
    _reject_unknown_keys(kv, "neck", lineno)
    if orbits_item is None or plus_item is None or minus_item is None:
        raise ConfigError("neck statement needs orbits=, plus= and minus=", lineno)
    orbit_names = _parse_name_list(orbits_item[0], lineno, orbits_item[1])
    if not orbit_names:
        raise ConfigError("neck needs at least one orbit", lineno, orbits_item[1])
    orbits = tuple(_at(lineno, orbits_item[1], doc.registry.get, oname)
                   for oname in orbit_names)
    side_plus = _at(lineno, plus_item[1], doc.curve, plus_item[0])
    side_minus = _at(lineno, minus_item[1], doc.curve, minus_item[0])
    separating = True if sep_item is None else _parse_bool(sep_item[0], lineno, sep_item[1])
    doc.necks[name] = NeckConfiguration(name, orbits, side_plus, side_minus, separating)


_STATEMENTS = {"orbit": _parse_orbit, "curve": _parse_curve, "cover": _parse_cover,
               "table": _parse_table, "neck": _parse_neck}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _curve_ref(curve: BaseCurve) -> str:
    """How a document refers to a curve: ``cyl:<orbit>`` for an orbit cylinder."""
    if curve.name.startswith("cyl(") and curve.name.endswith(")"):
        return "cyl:" + curve.name[4:-1]
    return curve.name


def render_config(doc: ConfigDocument) -> str:
    out: list[str] = [f"truncation {doc.truncation}", ""]
    for orbit in doc.registry.orbits():
        bits = [f"orbit {orbit.name} {orbit.kind}"]
        if orbit.elliptic:
            bits.append(f"theta={orbit.theta}")
            bits.append(f"max_iterate={orbit.max_iterate}")
        else:
            bits.append(f"cz1={orbit.cz1}")
        if not orbit.morse:
            bits.append("morse=no")
        out.append(" ".join(bits))
    if len(doc.registry):
        out.append("")
    for name in sorted(doc.curves):
        curve = doc.curves[name]
        bits = [f"curve {name}"]
        if curve.closed:
            bits.append("closed=yes")
        if not curve.immersed:
            bits.append("immersed=no")
        bits.append(f"index={curve.index}")
        bits.append(f"rel_c1_doubled={curve.rel_c1_doubled}")
        if len(curve.positive_ends):
            bits.append(f"pos={curve.positive_ends.render()}")
        if len(curve.negative_ends):
            bits.append(f"neg={curve.negative_ends.render()}")
        out.append(" ".join(bits))
    if doc.curves:
        out.append("")
    for name in sorted(doc.covers):
        cover = doc.covers[name]
        bits = [f"cover {name} base={_curve_ref(cover.base)} degree={cover.degree}"]
        if len(cover.positive_ends):
            bits.append(f"pos={cover.positive_ends.render()}")
        if len(cover.negative_ends):
            bits.append(f"neg={cover.negative_ends.render()}")
        if cover.marked_points:
            bits.append(f"marked={cover.marked_points}")
        if cover.constrained_branch_points:
            bits.append(f"constrained={cover.constrained_branch_points}")
        out.append(" ".join(bits))
    if doc.covers:
        out.append("")
    for name in sorted(doc.tables):
        table = doc.tables[name]
        out.append(f"table {name} {table.context_kind}={table.context_name}")
        for (pos_key, neg_key), count in table.sorted_entries():
            out.append(f"  {_render_key(pos_key)} {_render_key(neg_key)} {count}")
        out.append("end")
        out.append("")
    for name in sorted(doc.necks):
        neck = doc.necks[name]
        orbit_names = ",".join(o.name for o in neck.gamma_set)
        out.append(f"neck {name} orbits=({orbit_names}) plus={_curve_ref(neck.side_plus)}"
                   f" minus={_curve_ref(neck.side_minus)}")
    if doc.necks:
        out.append("")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"
