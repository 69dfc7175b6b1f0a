import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsft import algebra, potentials
from localsft.algebra import (
    GradedSeries,
    Variable,
    multiply,
    partial,
    partial_right,
    reside,
    substitute,
)
from localsft.config import parse_config
from localsft.covers import BaseCurve, obstruction_rank
from localsft.errors import (
    ConfigError,
    InadmissibleKey,
    InvalidTruncation,
    LocalSFTError,
    NoFormalSolution,
    RegistryMismatch,
)
from localsft.orbits import OrbitCollection, OrbitRegistry, ReebOrbit, _render_key, cz_iterate
from localsft.potentials import (
    CountTable,
    Potential,
    assert_hamiltonian_vanishes,
    compose_sharp,
    hamilton_jacobi_rhs,
    hamiltonian_from_counts,
    identity_potential,
    identity_series,
    lagrangian_restrict,
    potential_from_counts,
    potential_to_counts,
    reside_potential,
    transform_potential,
)

TRUNC = 8


def make_registry():
    return OrbitRegistry([
        ReebOrbit("a", "elliptic", theta=Fraction(3, 10), max_iterate=4),
        ReebOrbit("b", "hyperbolic", cz1=2),
        ReebOrbit("gm", "elliptic", theta=Fraction(7, 10), max_iterate=4),
        ReebOrbit("gp", "elliptic", theta=Fraction(11, 30), max_iterate=4),
        ReebOrbit("bad", "hyperbolic", cz1=1),
    ])


REG = make_registry()


def var(name, k=1, kind="q", side="middle"):
    return Variable(REG.get(name).iterate(k), kind, side)


def S(v, coeff=1):
    return GradedSeries.of(REG, TRUNC, v, coeff)


def _external_truncate(series, order):
    """The terms of ``series`` with at most ``order`` letters."""
    return GradedSeries(series.registry, series.truncation, {
        mono: c for mono, c in series.terms() if sum(e for _, e in mono) <= order})


def _letters(code):
    """The slots of a packed monomial's letters, one per unit of exponent."""
    return [s for s, e in algebra._runs(code) for _ in range(e)]


class TestCountTable:
    def test_inconsistent_multiplicities_rejected(self):
        with pytest.raises(InadmissibleKey):
            CountTable("orbit", "a", {((("a", 1),), (("a", 2),)): Fraction(1)}, REG)

    def test_bad_iterate_rejected(self):
        with pytest.raises(InadmissibleKey):
            CountTable("orbit", "bad",
                       {((("bad", 2),), (("bad", 1), ("bad", 1))): Fraction(1)}, REG)

    def test_repeated_odd_iterate_rejected(self):
        with pytest.raises(InadmissibleKey):
            CountTable("orbit", "b",
                       {((("b", 1), ("b", 1)), (("b", 2),)): Fraction(1)}, REG)

    def test_hypothesis_flags(self):
        table = CountTable("orbit", "a",
                           {((("a", 1), ("a", 1)), (("a", 2),)): Fraction(1)}, REG)
        assert all(table.hypothesis_ok.values())

    def test_degree_zero_key_rejected_with_its_key(self):
        # no ends on the base's positive side and none on the row's negative side
        base = BaseCurve("w", negative_ends=OrbitCollection((REG.get("a").iterate(1),),
                                                            sign="negative"))
        with pytest.raises(InadmissibleKey) as err:
            CountTable("curve", "w", {((("a", 1),), ()): Fraction(1)}, REG, base=base)
        assert str(err.value) == ("key (a)|(): implies covering degree 0; cover degree "
                                  "must be positive")

    @pytest.mark.parametrize("pos, neg, key, reason", [
        # the totals agree with the base's, the orbits do not
        (("a",), (), {((("b", 1),), ()): 1},
         "key (b)|(): M[w,1]((b)|()): positive ends {'b': 1} do not cover the base "
         "profile {'a': 1} with degree 1"),
        # a double cover of a pair of pants with all ends unbranched
        (("a", "gm"), ("gp",), {((("a", 2), ("gm", 2)), (("gp", 2),)): 1},
         "key (a^2,gm^2)|(gp^2): M[w,2]((a^2,gm^2)|(gp^2)): negative total ramification"),
    ], ids=["ends-off-the-base-orbits", "negative-ramification"])
    def test_inconsistent_profile_rejected_with_its_key(self, pos, neg, key, reason):
        base = BaseCurve("w", positive_ends=OrbitCollection(
                             tuple(REG.get(name).iterate(1) for name in pos)),
                         negative_ends=OrbitCollection(
                             tuple(REG.get(name).iterate(1) for name in neg), sign="negative"))
        with pytest.raises(InadmissibleKey) as err:
            CountTable("curve", "w", key, REG, base=base)
        assert str(err.value) == reason


# -- table rows: the parsed-collection path against the key-based constructor --------

_ROW_ORBITS = ("orbit e0 elliptic theta=2/9 max_iterate=8\n"
               "orbit e1 elliptic theta=7/9 max_iterate=8\n"
               "orbit h0 hyperbolic cz1=2\n"
               "orbit h2 hyperbolic cz1=-3\n")
# table context -> (the statement declaring its curve, the orbits of the base's positive
# and negative ends), in the shape of the benchmark's stress config: orbit cylinders,
# planes, a cobordism and a two-orbit neck side
_ROW_CONTEXTS = {
    "orbit=e0": ("", ("e0",), ("e0",)),
    "orbit=h0": ("", ("h0",), ("h0",)),
    "orbit=h2": ("", ("h2",), ("h2",)),
    "curve=me0": ("curve me0 index=0 rel_c1_doubled=0 pos=(e0)\n", ("e0",), ()),
    "curve=ce": ("curve ce index=0 rel_c1_doubled=0 pos=(e0) neg=(e1)\n", ("e0",), ("e1",)),
    "curve=mnk": ("curve mnk index=0 rel_c1_doubled=0 pos=(h0,h2)\n", ("h0", "h2"), ()),
}
_PARTITIONS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}
_ATOMS = st.tuples(st.sampled_from(("e0", "e1", "h0", "h2")), st.integers(1, 3))


@st.composite
def _table_row(draw, pos_orbits, neg_orbits):
    """A row that covers the base ends with one degree, disturbed one side in four."""
    degree = draw(st.integers(1, 3))
    sides = []
    for orbits in (pos_orbits, neg_orbits):
        atoms = [(name, k) for name in orbits for k in draw(st.sampled_from(_PARTITIONS[degree]))]
        disturb = draw(st.sampled_from(["none", "none", "none", "add", "drop"]))
        if disturb == "add":
            atoms.append(draw(_ATOMS))
        elif disturb == "drop":
            atoms = atoms[1:]
        sides.append(tuple(draw(st.permutations(atoms))))
    count = draw(st.tuples(st.integers(-9, 9), st.integers(1, 9)))
    return sides[0], sides[1], Fraction(*count)


@st.composite
def _table_rows(draw):
    context = draw(st.sampled_from(sorted(_ROW_CONTEXTS)))
    rows = draw(st.lists(_table_row(*_ROW_CONTEXTS[context][1:]), max_size=5,
                         unique_by=lambda row: (tuple(sorted(row[0])), tuple(sorted(row[1])))))
    return context, rows


@settings(max_examples=150, deadline=None)
@given(_table_rows())
@example(("orbit=h2", [((("h2", 2),), (("h2", 2),), Fraction(1))]))  # bad iterate
@example(("orbit=h0", [((("h0", 1), ("h0", 1)), (("h0", 2),), Fraction(1, 2))]))  # odd repeat
@example(("curve=mnk", [((("h0", 1),), (), Fraction(1))]))  # not a multiple of the base
@example(("curve=ce", [((("e0", 2),), (("e1", 1),), Fraction(1))]))  # unequal degrees
@example(("curve=me0", [((), (), Fraction(1))]))  # degree 0
@example(("curve=ce", [((("e0", 1),), (("e1", 1),), Fraction(2)),
                       ((("e0", 1), ("e0", 1)), (("e1", 2),), Fraction(-1, 3))]))
def test_parsed_rows_match_the_key_based_table(context_rows):
    context, rows = context_rows
    kind, name = context.split("=")
    header = _ROW_ORBITS + _ROW_CONTEXTS[context][0]
    declared = parse_config(header)
    text = (header + f"table T {context}\n"
            + "".join(f"{_render_key(pos)} {_render_key(neg)} {count}\n"
                      for pos, neg, count in rows)
            + "end\n")

    def key_table(n):
        return CountTable(kind, name, {(pos, neg): count for pos, neg, count in rows[:n]},
                          declared.registry, base=declared.curves.get(name))

    for n in range(len(rows) + 1):
        try:
            want = key_table(n)
        except LocalSFTError as exc:
            # row n - 1 is the first whose key the key path rejects
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert str(err.value) == f"line {header.count(chr(10)) + n + 1} col 1: {exc}"
            # the parser positions what its row path raised: the same class and text
            assert type(err.value.__context__) is type(exc)
            assert str(err.value.__context__) == str(exc)
            return
    got = parse_config(text).tables["T"]
    assert got.entries == want.entries
    assert got.hypothesis_ok == want.hypothesis_ok


def test_parse_resolves_each_row_orbit_name_once(monkeypatch):
    names = []
    get = OrbitRegistry.get
    monkeypatch.setattr(OrbitRegistry, "get", lambda self, name: names.append(name) or get(self, name))
    doc = parse_config(_ROW_ORBITS + _ROW_CONTEXTS["curve=ce"][0]
                       + "table T curve=ce\n(e0,e0) (e1^2) 1\n(e0^2) (e1,e1) 2\nend\n")
    assert len(doc.tables["T"].entries) == 2
    # each distinct atom text once, the rows' e0 and e1 being those of the curve's ends
    assert Counter(names) == {"e0": 2, "e1": 2}  # e0, e0^2; e1, e1^2


# -- the arithmetic row check against _validate -----------------------------------------

_ORACLE_REG = OrbitRegistry([
    ReebOrbit("e0", "elliptic", theta=Fraction(2, 9), max_iterate=8),
    ReebOrbit("e1", "elliptic", theta=Fraction(7, 9), max_iterate=8),
    ReebOrbit("h0", "hyperbolic", cz1=2),
    ReebOrbit("h2", "hyperbolic", cz1=-3),
])
_ORACLE_ATOMS = st.tuples(st.sampled_from(("e0", "e1", "h0", "h2")), st.integers(1, 4))


@st.composite
def _oracle_rows(draw):
    """A table context and one row: an orbit cylinder, or a curve (base ends, index,
    doubled Chern number, immersed, closed); a row that covers the base's ends with one
    degree, one side in four disturbed, or a row of any atoms."""
    if draw(st.booleans()):
        context = draw(st.sampled_from(("e0", "h0", "h2")))
        base_sides = ([(context, 1)], [(context, 1)])
    else:
        closed = draw(st.integers(0, 4)) == 0
        base_sides = ([], []) if closed else tuple(draw(st.lists(
            st.tuples(st.sampled_from(("e0", "e1", "h0", "h2")), st.integers(1, 2)),
            max_size=2)) for _ in range(2))
        context = (*base_sides, draw(st.integers(-2, 2)), draw(st.integers(-4, 4)),
                   draw(st.booleans()), closed)
    if draw(st.booleans()):
        degree = draw(st.integers(1, 3))
        sides = []
        for base_side in base_sides:
            atoms = []
            for name in sorted({name for name, _ in base_side}):
                left = degree * sum(k for n, k in base_side if n == name)
                while left:
                    atoms.append((name, draw(st.integers(1, min(left, 4)))))
                    left -= atoms[-1][1]
            disturb = draw(st.sampled_from(["none", "none", "none", "add", "drop"]))
            if disturb == "add":
                atoms.append(draw(_ORACLE_ATOMS))
            elif disturb == "drop":
                atoms = atoms[1:]
            sides.append(atoms)
    else:
        sides = [draw(st.lists(_ORACLE_ATOMS, max_size=4)) for _ in range(2)]
    count = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return context, sides[0], sides[1], count


def _oracle_table(context):
    if isinstance(context, str):
        return CountTable("orbit", context, {}, _ORACLE_REG)
    pos, neg, index, rel, immersed, closed = context
    base = BaseCurve("w", *(OrbitCollection(tuple(_ORACLE_REG.get(name).iterate(k)
                                                  for name, k in atoms), sign=sign)
                            for atoms, sign in ((pos, "positive"), (neg, "negative"))),
                     index=index, rel_c1_doubled=rel, immersed=immersed, closed=closed)
    return CountTable("curve", "w", {}, _ORACLE_REG, base=base)


@settings(max_examples=400, deadline=None)
@given(_oracle_rows())
@example(("h2", [("h2", 2)], [("h2", 2)], Fraction(1)))  # bad iterate
@example(("h0", [("h0", 1), ("h0", 1)], [("h0", 2)], Fraction(1)))  # odd repeat
@example(("e0", [("e0", 1)], [("e0", 2)], Fraction(1)))  # the sides imply unequal degrees
@example((([("e0", 2)], [], 0, 0, True, False), [("e0", 3)], [], Fraction(1)))  # no multiple
@example((([], [], 0, 2, True, True), [], [], Fraction(1)))  # a closed curve: no degree
@example((([], [("e0", 1)], 0, 0, True, False), [("e0", 1)], [], Fraction(1)))  # degree 0
@example((([("e0", 1)], [], 0, 0, True, False), [("h0", 1)], [], Fraction(1)))  # off the base
@example((([("e0", 1)] * 3, [], 0, 0, True, False), [("e0", 2)] * 3, [], Fraction(1)))  # R < 0
@example((([("e0", 1)], [], 0, 0, False, False), [("e0", 2)], [], Fraction(1)))  # not immersed
@example((([("h0", 1)], [], 0, 0, True, False), [("h0", 2)], [], Fraction(1)))  # hyperbolic end
@example((([("e0", 1)], [], 0, 4, True, False), [("e0", 1)], [], Fraction(1)))  # index > bound
@example((([("e0", 1)], [("e1", 1)], 0, 0, True, False), [("e0", 2)], [("e1", 1)] * 2,
          Fraction(0)))
def test_arithmetic_row_check_matches_validate(row):
    context, pos_atoms, neg_atoms, count = row
    pos, neg = (OrbitCollection(tuple(_ORACLE_REG.get(name).iterate(k) for name, k in atoms),
                                sign=sign)
                for atoms, sign in ((pos_atoms, "positive"), (neg_atoms, "negative")))
    key = (pos.key(), neg.key())

    def outcome(call):
        try:
            return call()
        except LocalSFTError as exc:
            return type(exc), str(exc)

    def added():
        table = _oracle_table(context)
        table._add(pos, neg, count)
        return table.entries, table.hypothesis_ok

    def validated():
        spec = _oracle_table(context)._validate(pos, neg)
        return {key: count}, {key: obstruction_rank(spec) is not None}

    assert outcome(added) == outcome(validated)


class TestWeights:
    def test_unit_cylinder_weight(self):
        table = CountTable("orbit", "a", {((("a", 1),), (("a", 1),)): Fraction(1)}, REG)
        ham = hamiltonian_from_counts(table, TRUNC)
        expected = multiply(S(var("a", kind="q", side="minus")),
                            S(var("a", kind="p", side="plus")))
        assert ham.series == expected

    def test_branched_cover_weight(self):
        table = CountTable("orbit", "a",
                           {((("a", 1), ("a", 1)), (("a", 2),)): Fraction(3)}, REG)
        ham = hamiltonian_from_counts(table, TRUNC)
        q2 = S(var("a", 2, "q", "minus"))
        p1 = S(var("a", 1, "p", "plus"))
        assert ham.series == multiply(multiply(q2, p1), p1).scale(Fraction(3, 4))

    def test_empty_table_is_zero(self):
        table = CountTable("orbit", "a", {}, REG)
        assert hamiltonian_from_counts(table, TRUNC).series.is_zero()

    def test_curve_table_requires_orbit_context_for_hamiltonian(self):
        base = BaseCurve("w", positive_ends=OrbitCollection((REG.get("a").iterate(1),)),
                         index=0, rel_c1_doubled=0)
        table = CountTable("curve", "w", {}, REG, base=base)
        with pytest.raises(InadmissibleKey):
            hamiltonian_from_counts(table, TRUNC)

    def test_roundtrip_random_tables(self):
        rng = random.Random(42)
        orbit = REG.get("a")
        for _ in range(60):
            entries = {}
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 4)

                def profile():
                    parts = []
                    left = d
                    while left:
                        k = rng.randint(1, left)
                        parts.append(k)
                        left -= k
                    return tuple(sorted(("a", k) for k in parts))

                key = (profile(), profile())
                entries[key] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            table = CountTable("orbit", "a", entries, REG)
            potential = potential_from_counts(table, TRUNC)
            assert potential_to_counts(potential) == table

    def test_odd_rows_read_back_with_the_sign_of_their_written_order(self):
        # p+[b] sorts before q-[b], both odd: the q-first key monomial costs a sign
        entries = {((("b", 1),), (("b", 1),)): Fraction(2, 3),
                   ((("b", 2),), (("b", 2),)): Fraction(-5)}
        table = CountTable("orbit", "b", entries, REG)
        potential = potential_from_counts(table, TRUNC)
        assert potential.series.render() == "-2/3*p+[b]*q-[b] + 5/4*p+[b^2]*q-[b^2]"
        assert potential_to_counts(potential) == table
        # an iterate whose p+ letter the kernel meets before its q- letter, so that the
        # q-first order is not field order either
        b, slot = REG.get("b"), algebra._slots(REG).slot
        k = next(k for k in itertools.count(3)
                 if slot(Variable(b.iterate(k), "q", "minus")) not in algebra._FIELDS)
        GradedSeries.of(REG, TRUNC, Variable(b.iterate(k), "p", "plus"))
        table = CountTable("orbit", "b", {((("b", k),), (("b", k),)): Fraction(3)}, REG)
        assert potential_to_counts(potential_from_counts(table, TRUNC)) == table

    def test_source_rows_are_not_checked_again(self, monkeypatch):
        table = CountTable("orbit", "a", {((("a", 1), ("a", 1)), (("a", 2),)): Fraction(3),
                                          ((("a", 1),), (("a", 1),)): Fraction(-2, 5)}, REG)
        potential = potential_from_counts(table, TRUNC)
        checked = []
        validate = CountTable._validate

        def spy(self, pos, neg):
            checked.append((pos.key(), neg.key()))
            return validate(self, pos, neg)

        monkeypatch.setattr(CountTable, "_validate", spy)
        back = potential_to_counts(potential)
        assert back == table and back.hypothesis_ok == table.hypothesis_ok
        assert checked == []

    @pytest.mark.parametrize("key", [
        ((("a", 2),), (("a", 1), ("a", 1))),  # admissible
        ((("a", 1),), (("a", 2),)),  # the sides imply different degrees
        ((("gm", 1),), (("gm", 1),)),  # ends off the cylinder's orbit
    ], ids=["admissible", "degrees-differ", "other-orbit"])
    def test_a_row_outside_the_source_is_checked_as_before(self, key):
        source = CountTable("orbit", "a", {((("a", 1),), (("a", 1),)): Fraction(1)}, REG)
        count = Fraction(7, 2)
        term = GradedSeries(REG, TRUNC, {
            potentials._key_monomial(*key, REG, "minus", "plus"): count * potentials._weight(*key)})
        grown = Potential(potential_from_counts(source, TRUNC).series + term, source=source)

        def outcome(call):
            try:
                table = call()
            except InadmissibleKey as err:
                return type(err), str(err)
            return table.entries, table.hypothesis_ok

        # the rows all checked by the constructor: the table the rebuild made before
        want = outcome(lambda: CountTable("orbit", "a", {**source.entries, key: count}, REG))
        assert outcome(lambda: potential_to_counts(grown)) == want


class TestVanishingGate:
    def test_zero_series_passes(self):
        table = CountTable("orbit", "a", {}, REG)
        report = assert_hamiltonian_vanishes(hamiltonian_from_counts(table, TRUNC))
        assert report.passed

    def test_nonzero_fails_with_offender(self):
        table = CountTable("orbit", "a", {((("a", 1),), (("a", 1),)): Fraction(1)}, REG)
        report = assert_hamiltonian_vanishes(hamiltonian_from_counts(table, TRUNC))
        assert report.status == "fail"
        assert report.offenders

    def test_flagged_entries_only_warn(self):
        ham = hamiltonian_from_counts(
            CountTable("orbit", "a", {((("a", 1),), (("a", 1),)): Fraction(1)}, REG),
            TRUNC)
        ham.source.hypothesis_ok[((("a", 1),), (("a", 1),))] = False
        report = assert_hamiltonian_vanishes(ham)
        assert report.status == "warn"


class TestComposeSharp:
    def test_linear_elimination(self):
        qm = S(var("gm", kind="q", side="minus"))
        pp = S(var("gp", kind="p", side="plus"))
        pmid = S(var("a", kind="p", side="middle"))
        qmid = S(var("a", kind="q", side="middle"))
        f_minus = Potential(multiply(qm, pmid).scale(3), q_side="minus", p_side="middle")
        f_plus = Potential(multiply(qmid, pp).scale(5), q_side="middle", p_side="plus")
        got = compose_sharp(f_minus, f_plus, [REG.get("a").iterate(1)], order=6)
        assert got.series == multiply(qm, pp).scale(15)

    def test_left_zero_kills_middle_q(self):
        pp = S(var("gp", kind="p", side="plus"))
        qmid = S(var("a", kind="q", side="middle"))
        f_minus = Potential(GradedSeries.zero(REG, TRUNC),
                            q_side="minus", p_side="middle")
        f_plus = Potential(multiply(qmid, pp) + pp.scale(2),
                           q_side="middle", p_side="plus")
        got = compose_sharp(f_minus, f_plus, [REG.get("a").iterate(1)], order=6)
        assert got.series == pp.scale(2)

    @pytest.mark.parametrize("p_power, q_power, want", [(2, 1, 300), (1, 2, 180)])
    def test_kappa_scales_both_middle_equations(self, p_power, q_power, want):
        # 3 q-[gm] p~[a^2]^i # 5 q~[a^2]^j p+[gp] at kappa = 2: kappa^2 3^j 5^i q-[gm]^j p+[gp]^i,
        # i.e. 300 q-[gm] p+[gp]^2 and 180 q-[gm]^2 p+[gp]; dropping the kappa of the
        # p~ equation gives 225 in the first case, that of the q~ equation 135 in the second
        def power(series, n):
            return series if n == 1 else multiply(series, power(series, n - 1))

        qm = S(var("gm", kind="q", side="minus"))
        pp = S(var("gp", kind="p", side="plus"))
        pmid = S(var("a", 2, kind="p", side="middle"))
        qmid = S(var("a", 2, kind="q", side="middle"))
        f_minus = Potential(multiply(qm, power(pmid, p_power)).scale(3),
                            q_side="minus", p_side="middle")
        f_plus = Potential(multiply(power(qmid, q_power), pp).scale(5),
                           q_side="middle", p_side="plus")
        got = compose_sharp(f_minus, f_plus, [REG.get("a").iterate(2)], order=6)
        assert got.series == multiply(power(qm, q_power), power(pp, p_power)).scale(want)

    def test_identity_is_two_sided_unit(self):
        rng = random.Random(5)
        mids = [REG.get("a").iterate(1), REG.get("a").iterate(2),
                REG.get("b").iterate(1)]
        qmids = [var(it.orbit.name, it.k, "q", "middle") for it in mids]
        pmids = [var(it.orbit.name, it.k, "p", "middle") for it in mids]
        ident_left = Potential(identity_series(mids, REG, TRUNC, "minus", "middle"),
                               q_side="minus", p_side="middle")
        ident_right = Potential(identity_series(mids, REG, TRUNC, "middle", "plus"),
                                q_side="middle", p_side="plus")
        for _ in range(12):
            series = GradedSeries.zero(REG, TRUNC)
            for _ in range(3):
                term = GradedSeries.constant(REG, TRUNC,
                                             Fraction(rng.randint(-3, 3) or 1))
                pool = qmids + [var("gp", kind="p", side="plus")]
                for v in rng.sample(pool, rng.randint(1, 2)):
                    term = multiply(term, S(v))
                series = series + term
            f_plus = Potential(series, q_side="middle", p_side="plus")
            got = compose_sharp(ident_left, f_plus, mids, order=6)
            want = reside(series, kind="q", side="middle", new_side="minus")
            assert got.series == want

            series2 = GradedSeries.zero(REG, TRUNC)
            for _ in range(3):
                term = GradedSeries.constant(REG, TRUNC,
                                             Fraction(rng.randint(-3, 3) or 1))
                pool = pmids + [var("gm", kind="q", side="minus")]
                for v in rng.sample(pool, rng.randint(1, 2)):
                    term = multiply(term, S(v))
                series2 = series2 + term
            f_minus = Potential(series2, q_side="minus", p_side="middle")
            got2 = compose_sharp(f_minus, ident_right, mids, order=6)
            want2 = reside(series2, kind="p", side="middle", new_side="plus")
            assert got2.series == want2

    def test_middle_dependence_is_policed(self):
        qmid = S(var("a", kind="q", side="middle"))
        bad_left = Potential(qmid, q_side="minus", p_side="middle")
        f_plus = Potential(GradedSeries.zero(REG, TRUNC),
                           q_side="middle", p_side="plus")
        with pytest.raises(RegistryMismatch):
            compose_sharp(bad_left, f_plus, [REG.get("a").iterate(1)], order=4)

    def test_unstable_system_reports_constants(self):
        # dL f+/dq = 1 + 2q and dR f-/dp = 1 + 2p feed back and never settle
        qmid = S(var("a", kind="q", side="middle"))
        pmid = S(var("a", kind="p", side="middle"))
        f_plus = Potential(qmid + multiply(qmid, qmid),
                           q_side="middle", p_side="plus")
        f_minus = Potential(pmid + multiply(pmid, pmid),
                            q_side="minus", p_side="middle")
        with pytest.raises(NoFormalSolution) as err:
            compose_sharp(f_minus, f_plus, [REG.get("a").iterate(1)], order=4)
        assert err.value.obstructions

    def test_unstable_system_message_and_obstructions_are_pinned(self):
        # the text and the obstructions of the system above, q~ before p~
        qmid = S(var("a", kind="q", side="middle"))
        pmid = S(var("a", kind="p", side="middle"))
        f_plus = Potential(qmid + multiply(qmid, qmid), q_side="middle", p_side="plus")
        f_minus = Potential(pmid + multiply(pmid, pmid), q_side="minus", p_side="middle")
        with pytest.raises(NoFormalSolution) as err:
            compose_sharp(f_minus, f_plus, [REG.get("a").iterate(1)], order=4)
        assert str(err.value) == ("constraint system did not stabilize within 6 passes; "
                                  "obstructing constant terms: p~[a]=63, q~[a]=63")
        assert list(err.value.obstructions.items()) == [("q~[a]", Fraction(63)),
                                                         ("p~[a]", Fraction(63))]

    @staticmethod
    def _linear_pair(name="a", k=1):
        """3 q-[gm] p~ and 5 q~ p+[gp] over the middle iterate name^k."""
        qm = S(var("gm", kind="q", side="minus"))
        pp = S(var("gp", kind="p", side="plus"))
        f_minus = Potential(multiply(qm, S(var(name, k, "p"))).scale(3),
                            q_side="minus", p_side="middle")
        f_plus = Potential(multiply(S(var(name, k, "q")), pp).scale(5),
                           q_side="middle", p_side="plus")
        return f_minus, f_plus, multiply(qm, pp)

    def test_duplicated_middle_iterate_is_rejected(self):
        # the identity correction would count q~[a] p~[a] twice while the solve has one
        # unknown per variable, and the composition came out 0 instead of 15 q-[gm] p+[gp]
        f_minus, f_plus, qm_pp = self._linear_pair()
        a = REG.get("a").iterate(1)
        assert compose_sharp(f_minus, f_plus, [a], order=4).series == qm_pp.scale(15)
        with pytest.raises(RegistryMismatch, match=r"^middle iterate a is listed twice$"):
            compose_sharp(f_minus, f_plus, [a, a], order=4)
        a2 = REG.get("a").iterate(2)
        with pytest.raises(RegistryMismatch, match=r"^middle iterate a\^2 is listed twice$"):
            compose_sharp(f_minus, f_plus, [a2, a, a2], order=4)

    @pytest.mark.parametrize("order", [-1, -4])
    def test_negative_order_is_rejected(self, order):
        f_minus, f_plus, _ = self._linear_pair()
        with pytest.raises(InvalidTruncation, match="composition order"):
            compose_sharp(f_minus, f_plus, [REG.get("a").iterate(1)], order=order)

    def test_order_zero_keeps_the_constant_terms(self):
        f_minus, f_plus, _ = self._linear_pair()
        a = REG.get("a").iterate(1)
        assert compose_sharp(f_minus, f_plus, [a], order=0).series.is_zero()
        # p~[a] = 1 from f+ = q~[a] + q~[a] p+[gp], f- = 2 p~[a]: the constant 2 survives
        pp = S(var("gp", kind="p", side="plus"))
        qmid, pmid = S(var("a", kind="q")), S(var("a", kind="p"))
        got = compose_sharp(Potential(pmid.scale(2), q_side="minus", p_side="middle"),
                            Potential(qmid + multiply(qmid, pp), q_side="middle", p_side="plus"),
                            [a], order=0)
        assert got.series == GradedSeries.constant(REG, TRUNC, 2)


def _ends_and_middles():
    """q-[gm], p+[gp], the middle p-variables of a and a^2, then their q-variables."""
    return (S(var("gm", kind="q", side="minus")), S(var("gp", kind="p", side="plus")),
            [S(var("a", k, "p")) for k in (1, 2)], [S(var("a", k, "q")) for k in (1, 2)])


def _p_settles_first():
    # dL f+/dq~ is free of q~, so p~ settles after the first pass; dR f-/dp~ still
    # depends on p~, so q~ moves once more and the last pass only recomputes p~
    qm, pp, (p1, p2), (q1, q2) = _ends_and_middles()
    f_minus = (multiply(qm, p1).scale(3) + multiply(multiply(qm, p1), p2)
               + multiply(qm, p2).scale(Fraction(1, 2)))
    f_plus = multiply(q1, pp).scale(5) + multiply(q2, multiply(pp, pp))
    return f_minus, f_plus


def _p_pauses_once():
    # p~[a] = pp + 2 pp q~[a] ignores q~[a^2] = 2 qm, the only part of the first q~;
    # so p~ stands still in pass 2 while q~[a] = 2 qm p~[a] moves, and moves again after
    qm, pp, (p1, p2), (q1, q2) = _ends_and_middles()
    f_minus = multiply(qm, p2) + multiply(qm, multiply(p1, p1))
    f_plus = multiply(pp, q1) + multiply(pp, multiply(q1, q1))
    return f_minus, f_plus


def _left_is_zero():
    # f- = 0 keeps q~ at zero, so the live p~ terms never see a nonzero input
    _, pp, _, (q1, q2) = _ends_and_middles()
    return GradedSeries.zero(REG, TRUNC), multiply(pp, q1) + multiply(pp, multiply(q1, q2))


# (numerator, denominator, letters): letter 0 is the external one, 1-3 the middle
# iterates a, a^2 and the odd b; each term has one to three external letters
_solve_term = st.tuples(
    st.integers(-3, 3).filter(bool), st.integers(1, 3),
    st.tuples(st.integers(1, 3), st.lists(st.integers(1, 3), max_size=3)).map(
        lambda drawn: (0,) * drawn[0] + tuple(drawn[1])))


def _solve_series(spec, letters):
    out = GradedSeries.zero(REG, TRUNC)
    for num, den, word in spec:
        term = GradedSeries.constant(REG, TRUNC, Fraction(num, den))
        for i in word:
            term = multiply(term, S(letters[i]))
        out = out + term
    return out


class TestPicardPasses:
    def _naive_solve(self, f_minus, f_plus, middle, order):
        """Both halves of every pass recomputed until neither moves."""
        q_rhs = {it: partial_right(f_minus, var(it.orbit.name, it.k, "p")).scale(it.k)
                 for it in middle}
        p_rhs = {it: partial(f_plus, var(it.orbit.name, it.k, "q")).scale(it.k)
                 for it in middle}
        zero = GradedSeries.zero(REG, TRUNC)
        q_sol = {var(it.orbit.name, it.k, "q"): zero for it in middle}
        p_sol = {var(it.orbit.name, it.k, "p"): zero for it in middle}
        for passes in range(1, order + 3):
            new_p = {var(it.orbit.name, it.k, "p"): _external_truncate(
                substitute(p_rhs[it], q_sol, check_degrees=False), order) for it in middle}
            new_q = {var(it.orbit.name, it.k, "q"): _external_truncate(
                substitute(q_rhs[it], p_sol, check_degrees=False), order) for it in middle}
            if new_p == p_sol and new_q == q_sol:
                return q_sol, p_sol, passes
            q_sol, p_sol = new_q, new_p
        raise AssertionError("no fixed point")

    @pytest.mark.parametrize("system", [_p_settles_first, _p_pauses_once],
                             ids=lambda system: system.__name__)
    def test_half_whose_input_stood_still_is_not_recomputed(self, monkeypatch, system):
        mids = [REG.get("a").iterate(1), REG.get("a").iterate(2)]
        f_minus, f_plus = system()
        want_q, want_p, passes = self._naive_solve(f_minus, f_plus, mids, order=6)
        assert passes >= 3
        calls = []
        kernel = potentials._substitute_slots

        def spy(*args, **kwargs):
            calls.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(potentials, "_substitute_slots", spy)
        got_q, got_p = potentials._solve_lagrangian(f_minus, f_plus, mids, order=6)
        assert (got_q, got_p) == (want_q, want_p)
        assert calls and len(calls) < 2 * len(mids) * passes

    @pytest.mark.parametrize("system", [_p_settles_first, _p_pauses_once, _left_is_zero],
                             ids=lambda system: system.__name__)
    def test_solve_resolves_slots_once_and_substitutes_no_zero_input(self, monkeypatch,
                                                                      system):
        mids = [REG.get("a").iterate(1), REG.get("a").iterate(2)]
        f_minus, f_plus = system()
        slots, images_seen = [], []
        kernel, slot = potentials._substitute_slots, algebra._SlotTable.slot

        def kernel_spy(terms, images, *args):
            images_seen.append(images)
            return kernel(terms, images, *args)

        def slot_spy(table, v):
            slots.append(v)
            return slot(table, v)

        monkeypatch.setattr(potentials, "_substitute_slots", kernel_spy)
        monkeypatch.setattr(algebra._SlotTable, "slot", slot_spy)
        potentials._solve_lagrangian(f_minus, f_plus, mids, order=6)
        assert all(any(terms for terms, _ in images.values()) for images in images_seen)
        assert len(slots) <= 2 * len(mids)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_solve_term, max_size=4), st.lists(_solve_term, max_size=4),
           st.integers(1, 6))
    # linear in the middle: neither half has a live term, the solve is its first pass
    @example([(3, 1, (0, 1)), (1, 2, (0, 0, 3))], [(5, 1, (0, 1)), (-1, 3, (0, 2))], 6)
    # _p_settles_first and _p_pauses_once: three and seven passes
    @example([(3, 1, (0, 1)), (1, 1, (0, 1, 2)), (1, 2, (0, 2))],
             [(5, 1, (0, 1)), (1, 1, (0, 0, 2))], 6)
    @example([(1, 1, (0, 2)), (1, 1, (0, 1, 1))], [(1, 1, (0, 1)), (1, 1, (0, 1, 1))], 6)
    # odd middle letters re-sort and square to zero
    @example([(2, 1, (0, 3, 1)), (1, 1, (0, 3, 3))], [(-1, 1, (0, 3, 1)), (1, 2, (0, 3))], 5)
    def test_solve_matches_the_naive_solve(self, minus_spec, plus_spec, order):
        # every term carries an external letter, so the naive passes reach a fixed point
        mids = [REG.get("a").iterate(1), REG.get("a").iterate(2), REG.get("b").iterate(1)]
        f_minus = _solve_series(minus_spec, [var("gm", kind="q", side="minus")]
                                + [var(it.orbit.name, it.k, "p") for it in mids])
        f_plus = _solve_series(plus_spec, [var("gp", kind="p", side="plus")]
                               + [var(it.orbit.name, it.k, "q") for it in mids])
        want_q, want_p, _ = self._naive_solve(f_minus, f_plus, mids, order)
        assert potentials._solve_lagrangian(f_minus, f_plus, mids, order) == (want_q, want_p)


# letters of the critical-value tests: 0 an even external letter, 1 an odd one, 2-5 the
# middle iterates a, a^2 (even) and b, b^2 (odd; b is hyperbolic with even cz1)
_CRITICAL_MIDDLE = [REG.get("a").iterate(1), REG.get("a").iterate(2),
                    REG.get("b").iterate(1), REG.get("b").iterate(2)]
_CRITICAL_MINUS = ([var("gm", kind="q", side="minus"), var("b", 3, "q", "minus")]
                   + [Variable(it, "p", "middle") for it in _CRITICAL_MIDDLE])
_CRITICAL_PLUS = ([var("gp", kind="p", side="plus"), var("b", 3, "p", "plus")]
                  + [Variable(it, "q", "middle") for it in _CRITICAL_MIDDLE])
# (numerator, denominator, letters): one or two even external letters, then up to three
# middle ones and maybe the odd external one
_critical_term = st.tuples(
    st.integers(-3, 3).filter(bool), st.integers(1, 3),
    st.tuples(st.integers(1, 2), st.lists(st.integers(2, 5), max_size=3), st.booleans()).map(
        lambda drawn: (0,) * drawn[0] + tuple(drawn[1]) + (1,) * drawn[2]))


def _critical_series(spec, letters, even):
    """The terms of ``spec``; with ``even``, the odd external letter evens out each term."""
    words = []
    for num, den, word in spec:
        if even and sum(letters[i].odd for i in word) % 2:
            word = tuple(i for i in word if i != 1) if 1 in word else word + (1,)
        words.append((num, den, word))
    return _solve_series(words, letters)


def _full_substitution(f_minus, f_plus, middle, order):
    """The oracle: ``F- + F+ - correction`` substituted at the solution, then truncated."""
    q_sol, p_sol = potentials._solve_lagrangian(f_minus, f_plus, middle, order)
    total = f_minus + f_plus - identity_series(middle, REG, TRUNC, "middle", "middle")
    return _external_truncate(substitute(total, {**q_sol, **p_sol}, check_degrees=False),
                              order)


def _euler_formula(f_minus, f_plus, middle, order):
    """``F+(q*) + F-_0 - sum_{e>=2} (e-1) F-_e(p*)``, whatever the parities."""
    q_sol, p_sol = potentials._solve_lagrangian(f_minus, f_plus, middle, order)
    weighted = {}
    for mono, coeff in f_minus.terms():
        e = sum(exp for v, exp in mono if v in p_sol)
        if e != 1:
            weighted[mono] = coeff * (1 - e)
    return _external_truncate(
        substitute(GradedSeries(REG, TRUNC, weighted), p_sol, check_degrees=False)
        + substitute(f_plus, q_sol, check_degrees=False), order)


def _parities_kept(f_minus, f_plus, middle, order):
    """Whether every term of every solution has the parity of its middle variable."""
    return all(sum(v.odd * exp for v, exp in mono) % 2 == target.odd
               for half in potentials._solve_lagrangian(f_minus, f_plus, middle, order)
               for target, image in half.items() for mono, _ in image.terms())


class TestCriticalValue:
    def _compose(self, f_minus, f_plus, middle, order):
        return compose_sharp(Potential(f_minus, p_side="middle"),
                             Potential(f_plus, q_side="middle"), middle, order).series

    def test_matches_the_full_substitution(self, monkeypatch):
        built = []
        identity = potentials.identity_series

        def spy(*args, **kwargs):
            built.append(args)
            return identity(*args, **kwargs)

        monkeypatch.setattr(potentials, "identity_series", spy)
        branches = Counter()

        @settings(max_examples=80, deadline=None)
        @given(st.lists(_critical_term, max_size=4), st.lists(_critical_term, max_size=4),
               st.booleans(), st.integers(0, 6))
        # even and odd middle letters, every term even: the Euler formula
        @example([(-3, 1, (0, 2)), (1, 2, (0, 4, 5, 1)), (2, 1, (0, 2, 3))],
                 [(1, 1, (0, 2, 3)), (-1, 3, (0, 4, 1)), (1, 1, (0, 0, 5, 1))], True, 5)
        # odd terms on odd middle letters: the full substitution
        @example([(-3, 2, (0, 4))], [(3, 1, (0, 4))], False, 2)
        def check(minus_spec, plus_spec, even, order):
            f_minus = _critical_series(minus_spec, _CRITICAL_MINUS, even)
            f_plus = _critical_series(plus_spec, _CRITICAL_PLUS, even)
            want = _full_substitution(f_minus, f_plus, _CRITICAL_MIDDLE, order)
            del built[:]
            assert self._compose(f_minus, f_plus, _CRITICAL_MIDDLE, order) == want
            kept = _parities_kept(f_minus, f_plus, _CRITICAL_MIDDLE, order)
            assert (not built) == kept  # the correction is built only on the full path
            branches["euler" if kept else "full"] += 1

        check()
        assert branches["euler"] and branches["full"]

    def test_mixed_parity_needs_the_full_substitution(self):
        # q*[b] = -3/2 q-[gm] is even while q~[b] is odd: substitution is no homomorphism
        mids = [REG.get("b").iterate(1)]
        qm, pp = S(var("gm", kind="q", side="minus")), S(var("gp", kind="p", side="plus"))
        f_minus = multiply(S(var("b", 1, "p")), qm).scale(Fraction(-3, 2))
        f_plus = multiply(S(var("b", 1, "q")), pp).scale(3)
        assert not _parities_kept(f_minus, f_plus, mids, 2)
        got = self._compose(f_minus, f_plus, mids, 2)
        assert got == _full_substitution(f_minus, f_plus, mids, 2) == multiply(qm, pp).scale(
            Fraction(-27, 2))
        assert _euler_formula(f_minus, f_plus, mids, 2) == multiply(qm, pp).scale(
            Fraction(-9, 2))

    def test_no_partial_product_is_longer_than_the_order(self, monkeypatch):
        left_lengths, out_lengths, reaches = [], [], []
        product = algebra._add_product

        def spy(terms, a, right, *args, **kwargs):
            lengths = [len(_letters(m)) for m in a]
            left_lengths.extend(lengths)
            reaches.append(max(lengths, default=0) + right[2])  # the longest uncut product
            out = product(terms, a, right, *args, **kwargs)
            out_lengths.extend(len(_letters(m)) for m in out)
            return out

        monkeypatch.setattr(algebra, "_add_product", spy)
        f_minus = _critical_series([(1, 1, (0, 0, 2, 3)), (2, 1, (0, 2, 2)), (-1, 2, (0, 4, 5))],
                                   _CRITICAL_MINUS, True)
        f_plus = _critical_series([(1, 1, (0, 2, 3)), (1, 3, (0, 0, 2)), (3, 1, (0, 4, 5))],
                                  _CRITICAL_PLUS, True)
        for order in (2, 3, 4):
            del left_lengths[:], out_lengths[:], reaches[:]
            self._compose(f_minus, f_plus, _CRITICAL_MIDDLE, order)
            assert left_lengths and max(left_lengths) <= order
            assert max(out_lengths, default=0) <= order
            assert max(reaches) > order  # uncut, the products would reach beyond the order


class TestIdentitySeries:
    @staticmethod
    def _by_products(iterates, q_side, p_side):
        out = GradedSeries.zero(REG, TRUNC)
        for it in iterates:
            q = S(Variable(it, "q", q_side))
            p = S(Variable(it, "p", p_side))
            out = out + multiply(q, p).scale(Fraction(1, it.k))
        return out

    @pytest.mark.parametrize("iterates", [
        [],
        [("b", 1)],                          # odd q and p: q p re-sorts with a sign
        [("a", 2), ("b", 1), ("a", 3)],
        [("a", 2), ("a", 2), ("b", 1), ("b", 1)],  # repeated iterates add up
    ])
    @pytest.mark.parametrize("sides", [("minus", "plus"), ("middle", "middle"),
                                       ("plus", "minus")])
    def test_matches_sum_of_products(self, iterates, sides):
        its = [REG.get(name).iterate(k) for name, k in iterates]
        got = identity_series(its, REG, TRUNC, *sides)
        assert got == self._by_products(its, *sides)
        assert got.is_zero() == (not its)

    def test_nonpositive_truncation_is_rejected(self):
        with pytest.raises(InvalidTruncation):
            identity_series([REG.get("a").iterate(1)], REG, 0, "minus", "plus")


class TestTransformPotential:
    def _cyl_potential(self, name, coeff, q_side="minus", p_side="plus"):
        q = S(var(name, kind="q", side=q_side))
        p = S(var(name, kind="p", side=p_side))
        return Potential(multiply(q, p).scale(coeff), q_side=q_side, p_side=p_side)

    def test_identity_conjugation_fixes_potential(self):
        mm = [REG.get("gm").iterate(k) for k in (1, 2)]
        mp = [REG.get("gp").iterate(k) for k in (1, 2)]
        f10 = identity_potential(mm, REG, TRUNC)
        f01 = identity_potential(mp, REG, TRUNC)
        qm = S(var("gm", kind="q", side="minus"))
        pp = S(var("gp", kind="p", side="plus"))
        f0 = Potential(multiply(qm, pp).scale(Fraction(5, 7)),
                       q_side="minus", p_side="plus")
        got = transform_potential(f0, f10, f01, mm, mp, order=6)
        assert got.series == f0.series

    def test_linear_chain_multiplies_coefficients(self):
        mm = [REG.get("gm").iterate(1)]
        mp = [REG.get("gp").iterate(1)]
        f10 = self._cyl_potential("gm", 2)
        f01 = self._cyl_potential("gp", 3)
        qm = S(var("gm", kind="q", side="minus"))
        pp = S(var("gp", kind="p", side="plus"))
        f0 = Potential(multiply(qm, pp).scale(5), q_side="minus", p_side="plus")
        got = transform_potential(f0, f10, f01, mm, mp, order=6)
        assert got.series == multiply(qm, pp).scale(2 * 5 * 3)

    def test_duplicated_middle_iterate_and_negative_order_are_rejected(self):
        # both bracketings eliminate along middle_minus and middle_plus
        mm = [REG.get("gm").iterate(1)]
        mp = [REG.get("gp").iterate(1)]
        f10 = self._cyl_potential("gm", 2)
        f01 = self._cyl_potential("gp", 3)
        f0 = Potential(multiply(S(var("gm", kind="q", side="minus")),
                                S(var("gp", kind="p", side="plus"))).scale(5),
                       q_side="minus", p_side="plus")
        with pytest.raises(RegistryMismatch, match="middle iterate gm is listed twice"):
            transform_potential(f0, f10, f01, mm * 2, mp, order=6)
        with pytest.raises(RegistryMismatch, match="middle iterate gp is listed twice"):
            transform_potential(f0, f10, f01, mm, mp * 2, order=6)
        with pytest.raises(InvalidTruncation, match="composition order"):
            transform_potential(f0, f10, f01, mm, mp, order=-1)

    def test_rail_triple_multiplies_out_only_the_critical_terms(self, monkeypatch):
        # elliptic rails: every letter is even, so each composition takes the Euler formula
        mm = [REG.get("gm").iterate(k) for k in (1, 2)]
        mp = [REG.get("gp").iterate(k) for k in (1, 2)]

        def rail(q_name, p_name, words):
            series = GradedSeries.zero(REG, TRUNC)
            for coeff, qs, ps in words:
                term = GradedSeries.constant(REG, TRUNC, coeff)
                for k in qs:
                    term = multiply(term, S(var(q_name, k, "q", "minus")))
                for k in ps:
                    term = multiply(term, S(var(p_name, k, "p", "plus")))
                series = series + term
            return Potential(series, q_side="minus", p_side="plus")

        # terms with one and with two middle letters on both sides of each composition
        f10 = rail("gm", "gm", [(2, (1,), (1,)), (Fraction(1, 3), (2,), (1, 2)), (-1, (1,), (2,))])
        f01 = rail("gp", "gp", [(3, (1,), (1,)), (1, (1, 2), (2,)), (Fraction(-1, 2), (2,), (1,))])
        f0 = rail("gm", "gp", [(5, (1,), (1,)), (-2, (1, 2), (1,)), (1, (2,), (1, 2))])
        built, composed = [], []
        identity, compose, solve = (potentials.identity_series, potentials.compose_sharp,
                                    potentials._solve_slots)
        kernel = potentials._substitute_slots
        solving = []

        def identity_spy(*args, **kwargs):
            built.append(args)
            return identity(*args, **kwargs)

        def compose_spy(f_minus, f_plus, middle, order):
            composed.append((f_minus.series, f_plus.series, middle, []))
            return compose(f_minus, f_plus, middle, order)

        def solve_spy(*args):
            solving.append(True)
            try:
                return solve(*args)
            finally:
                solving.pop()

        def kernel_spy(terms, images, *args):
            if not solving:  # the substitution of the composed value, not of the solve
                composed[-1][3].extend(m for m in terms
                                       if not images.keys().isdisjoint(_letters(m)))
            return kernel(terms, images, *args)

        monkeypatch.setattr(potentials, "identity_series", identity_spy)
        monkeypatch.setattr(potentials, "compose_sharp", compose_spy)
        monkeypatch.setattr(potentials, "_solve_slots", solve_spy)
        monkeypatch.setattr(potentials, "_substitute_slots", kernel_spy)
        transform_potential(f0, f10, f01, mm, mp, order=5)
        assert built == []  # no correction series
        assert len(composed) == 4
        slot = algebra._slots(REG).slot
        two_letter_rows = 0
        for f_minus, f_plus, middle, substituted in composed:
            q_slots = {slot(Variable(it, "q", "middle")) for it in middle}
            p_slots = {slot(Variable(it, "p", "middle")) for it in middle}
            critical = ([m for m in f_plus._terms if not q_slots.isdisjoint(_letters(m))]
                        + [m for m in f_minus._terms
                           if sum(s in p_slots for s in _letters(m)) >= 2])
            two_letter_rows += sum(sum(s in p_slots for s in _letters(m)) >= 2
                                   for m in f_minus._terms)
            assert sorted(substituted) == sorted(critical)
        assert two_letter_rows

    def test_random_triples_associate(self):
        rng = random.Random(11)
        mm = [REG.get("gm").iterate(k) for k in (1, 2)]
        mp = [REG.get("gp").iterate(k) for k in (1, 2)]
        qm_vars = [var("gm", k, "q", "minus") for k in (1, 2)]
        pp_vars = [var("gp", k, "p", "plus") for k in (1, 2)]

        def rand_pot(qvars, pvars):
            series = GradedSeries.zero(REG, TRUNC)
            for _ in range(rng.randint(1, 3)):
                term = GradedSeries.constant(REG, TRUNC,
                                             Fraction(rng.randint(-2, 2) or 1,
                                                      rng.randint(1, 3)))
                for v in rng.sample(qvars, rng.randint(1, len(qvars))):
                    term = multiply(term, S(v))
                for v in rng.sample(pvars, rng.randint(1, len(pvars))):
                    term = multiply(term, S(v))
                series = series + term
            return Potential(series, q_side="minus", p_side="plus")

        for _ in range(12):
            f10 = rand_pot([var("gm", k, "q", "minus") for k in (1, 2)],
                           [var("gm", k, "p", "plus") for k in (1, 2)])
            f01 = rand_pot([var("gp", k, "q", "minus") for k in (1, 2)],
                           [var("gp", k, "p", "plus") for k in (1, 2)])
            f0 = rand_pot(qm_vars, pp_vars)
            # transform_potential checks the two bracketings agree internally
            transform_potential(f0, f10, f01, mm, mp, order=5)


class TestHamiltonJacobi:
    def test_zero_hamiltonians_give_zero(self):
        zero = Potential(GradedSeries.zero(REG, TRUNC))
        k = multiply(S(var("a", kind="q")), S(var("a", kind="p"))) + S(var("b", kind="q"))
        assert hamilton_jacobi_rhs(zero, zero, k).is_zero()

    def test_direct_expansion_example(self):
        q2 = S(var("a", 2, "q"))
        p2 = S(var("a", 2, "p"))
        h_plus = Potential(multiply(q2, p2), q_side="middle", p_side="middle")
        zero = Potential(GradedSeries.zero(REG, TRUNC))
        out = hamilton_jacobi_rhs(h_plus, zero, q2)
        assert out == q2.scale(2)  # kappa = 2

    def test_zero_observable(self):
        h = Potential(multiply(S(var("a", kind="q")), S(var("a", kind="p"))))
        assert hamilton_jacobi_rhs(h, h, GradedSeries.zero(REG, TRUNC)).is_zero()


class TestLagrangianRestrict:
    def test_single_variable_substitution(self):
        qm = S(var("a", kind="q", side="minus"))
        pp = S(var("a", kind="p", side="plus"))
        f_v = Potential(multiply(qm, pp).scale(Fraction(5, 3)),
                        q_side="minus", p_side="plus")
        g = S(var("a", kind="q", side="plus"))
        got = lagrangian_restrict(g, f_v)
        assert got == qm.scale(Fraction(5, 3))  # kappa = 1

    def test_constant_unchanged(self):
        f_v = Potential(GradedSeries.constant(REG, TRUNC, 7))
        g = GradedSeries.constant(REG, TRUNC, Fraction(2, 3))
        assert lagrangian_restrict(g, f_v) == g

    def test_zero_potential_kills_outer_variables(self):
        f_v = Potential(GradedSeries.zero(REG, TRUNC))
        g = S(var("a", kind="q", side="plus")) + S(var("a", kind="p", side="minus"))
        assert lagrangian_restrict(g, f_v).is_zero()


# the letters of the small potentials below: q-[gm], p+[gp], p+[gm], q-[gp], q+[gp], p-[gm]
_SMALL_LETTERS = [var("gm", kind="q", side="minus"), var("gp", kind="p", side="plus"),
                  var("gm", kind="p", side="plus"), var("gp", kind="q", side="minus"),
                  var("gp", kind="q", side="plus"), var("gm", kind="p", side="minus")]


def _small(pair):
    """Series of terms in the two letters ``pair`` of ``_SMALL_LETTERS``."""
    return st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3),
                              st.lists(st.sampled_from(pair), min_size=1, max_size=3)),
                    max_size=3).map(lambda spec: _solve_series(spec, _SMALL_LETTERS))


@settings(max_examples=60, deadline=None)
@given(st.lists(_critical_term, max_size=3), st.lists(_critical_term, max_size=3),
       st.booleans(), st.integers(0, 4), _small((0, 1)), _small((0, 2)), _small((3, 1)),
       _small((4, 5)))
def test_no_composition_changes_its_inputs(minus_spec, plus_spec, even, order, f0, f10, f01, g):
    f_minus = _critical_series(minus_spec, _CRITICAL_MINUS, even)
    f_plus = _critical_series(plus_spec, _CRITICAL_PLUS, even)
    mm, mp = [REG.get("gm").iterate(1)], [REG.get("gp").iterate(1)]
    calls = [
        ((f_minus, f_plus), lambda: compose_sharp(Potential(f_minus, p_side="middle"),
                                                  Potential(f_plus, q_side="middle"),
                                                  _CRITICAL_MIDDLE, order)),
        ((f0, f10, f01), lambda: transform_potential(Potential(f0), Potential(f10),
                                                     Potential(f01), mm, mp, order)),
        ((f_minus, f_plus, f0), lambda: hamilton_jacobi_rhs(Potential(f_minus),
                                                            Potential(f_plus), f0)),
        ((g, f0), lambda: lagrangian_restrict(g, Potential(f0))),
    ]
    for inputs, call in calls:
        before = [(list(s._terms.items()), s._den) for s in inputs]
        try:
            call()
        except LocalSFTError:  # a failed composition must leave its inputs as well
            pass
        assert [(list(s._terms.items()), s._den) for s in inputs] == before


def test_reside_potential_moves_one_slot():
    qm = S(var("a", kind="q", side="minus"))
    pp = S(var("a", kind="p", side="plus"))
    pot = Potential(multiply(qm, pp), q_side="minus", p_side="plus")
    moved = reside_potential(pot, {"a"}, "p")
    assert moved.p_side == "middle"
    assert moved.series == multiply(qm, S(var("a", kind="p", side="middle")))


def test_hypothesis_flags_are_whether_the_obstruction_rank_exists():
    shipped = Path(potentials.__file__).resolve().parent / "data" / "example.cfg"
    # one more table, whose row has hyperbolic ends off an orbit cylinder
    doc = parse_config(shipped.read_text() + "table F_wminus curve=wminus\n  (zeta) () 1\nend\n")
    flags = []
    for table in doc.tables.values():
        for key in table.entries:
            spec = table._validate(table._collection(key[0], "positive"),
                                   table._collection(key[1], "negative"))
            assert table.hypothesis_ok[key] == (obstruction_rank(spec) is not None)
            flags.append(table.hypothesis_ok[key])
    assert sorted(flags) == [False, True]
