"""Seeded inputs and operations of the three benchmark workloads.

Every workload draws its inputs from a finite pool of instances.  Instance
``i`` of a workload is generated by ``random.Random`` seeded with a string
naming the workload and ``i``, using the standard library only; a run's
``--seed`` picks which pool instances it uses and in what order.  The
reference digests in ``reference.json`` were recorded for every pool
instance, so each output of a run is checked against the recorded output
of the same input.

An instance is a fixed list of operations.  Every instance of a workload
has the same operation names, sizes and order; only the drawn content
differs, so two seeds give different inputs but the same operation counts.
Each ``Op`` holds the call that is timed and an untimed ``finish`` step that
renders the output, applies the known-value checks and reports exact work
counters.

Workload notes (see also ``NOTES.md``):

* ``algebra_dense`` -- products, brackets, substitution and derivatives of
  dense series; nearly all work is in ``localsft.algebra``.
* ``compose_chain`` -- ``#`` compositions, the triple conjugation, the
  Hamilton-Jacobi pairing and count-table round trips on small potentials;
  many tiny products and substitutions inside the fixed-point solve.
* ``cli_session`` -- in-process ``localsft.cli.main`` calls on a generated
  stress config.  The config uses only the statement forms of the shipped
  ``example.cfg``: necks name declared curves, never ``cyl:`` sides, so the
  known neck round-trip defect of ``render_config`` is *not* exercised and
  this workload is no coverage of it.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from fractions import Fraction
from pathlib import Path


class SetupError(Exception):
    """A generated input failed its set-up check."""


class Op:
    """One timed call into the library plus its untimed output check.

    ``call()`` returns the raw result.  ``finish(raw)`` returns
    ``(text, problems, counters)``: the rendered output that is digested and
    compared with the reference, the names of failed known-value checks,
    and exact work counters.
    """

    __slots__ = ("name", "call", "finish")

    def __init__(self, name, call, finish):
        self.name = name
        self.call = call
        self.finish = finish


def instance_rng(workload: str, pool_id: int) -> random.Random:
    return random.Random(f"{workload}/{pool_id}")


def _terms(series) -> int:
    return len(series.terms())


def _parity_split(alg, series):
    """Even- and odd-degree parts of a series."""
    zero = alg.GradedSeries.zero(series.registry, series.truncation)
    even, odd = zero, zero
    for degree, part in series.by_degree().items():
        if degree % 2:
            odd = odd + part
        else:
            even = even + part
    return even, odd


# ---------------------------------------------------------------------------
# algebra_dense
# ---------------------------------------------------------------------------

ALGEBRA_TRUNCATION = 6
# term counts of the two dense series of an instance
ALGEBRA_F_TERMS = 40
ALGEBRA_G_TERMS = 90
ALGEBRA_K_TERMS = 12


def _algebra_registry(api):
    orb = api.orbits
    return orb.OrbitRegistry([
        orb.ReebOrbit("a", "elliptic", theta=Fraction(3, 10), max_iterate=4),
        orb.ReebOrbit("b", "hyperbolic", cz1=2),
        orb.ReebOrbit("c", "hyperbolic", cz1=-2),
    ])


def _algebra_variables(api, reg):
    alg = api.algebra
    out = []
    for name, top in (("a", 4), ("b", 1), ("c", 1)):
        for k in range(1, top + 1):
            for kind in ("p", "q"):
                out.append(alg.Variable(reg.get(name).iterate(k), kind, "middle"))
    return out


def _random_monomial(rng, variables, max_letters):
    """Distinct variables with exponents; odd variables appear once."""
    chosen = sorted(rng.sample(range(len(variables)), rng.randint(1, max_letters)))
    return tuple((i, 1 if variables[i].odd else rng.choice((1, 1, 2))) for i in chosen)


def _monomial_series(api, reg, variables, mono, coeff):
    alg = api.algebra
    term = alg.GradedSeries.constant(reg, ALGEBRA_TRUNCATION, coeff)
    for i, exp in mono:
        for _ in range(exp):
            term = alg.multiply(term, alg.GradedSeries.of(reg, ALGEBRA_TRUNCATION, variables[i]))
    return term


def _p_degree(variables, mono):
    return sum(e for i, e in mono if variables[i].kind == "p")


def _degree(variables, mono):
    return sum(variables[i].degree * e for i, e in mono)


def _dense_series(api, rng, reg, variables, n_terms, degree=None, max_letters=4):
    """A series of exactly ``n_terms`` distinct monomials with nonzero coefficients."""
    seen = set()
    out = api.algebra.GradedSeries.zero(reg, ALGEBRA_TRUNCATION)
    while len(seen) < n_terms:
        mono = _random_monomial(rng, variables, max_letters)
        if mono in seen or _p_degree(variables, mono) > ALGEBRA_TRUNCATION:
            continue
        if degree is not None and _degree(variables, mono) != degree:
            continue
        seen.add(mono)
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        out = out + _monomial_series(api, reg, variables, mono, coeff)
    return out


def _series_finish(counters):
    def finish(result):
        return result.render(), [], {**counters, "terms_out": _terms(result)}
    return finish


def build_algebra_dense(api, pool_id: int, workdir: Path) -> list[Op]:
    alg = api.algebra
    rng = instance_rng("algebra_dense", pool_id)
    reg = _algebra_registry(api)
    variables = _algebra_variables(api, reg)
    f = _dense_series(api, rng, reg, variables, ALGEBRA_F_TERMS)
    g = _dense_series(api, rng, reg, variables, ALGEBRA_G_TERMS)
    k = _dense_series(api, rng, reg, variables, ALGEBRA_K_TERMS)
    subs = rng.sample(variables, 2)
    assignment = {v: _dense_series(api, rng, reg, variables, 3, degree=v.degree, max_letters=2)
                  for v in subs}
    d_var = rng.choice(variables)
    nf, ng = ALGEBRA_F_TERMS, ALGEBRA_G_TERMS
    n_images = sum(_terms(s) for s in assignment.values())

    def product_finish(result):
        problems = []
        # graded commutativity, sampled on every third pool instance:
        # f*g = g_even*f + g_odd*f_even - g_odd*f_odd
        if pool_id % 3 == 0:
            f_even, f_odd = _parity_split(alg, f)
            g_even, g_odd = _parity_split(alg, g)
            swapped = (alg.multiply(g_even, f) + alg.multiply(g_odd, f_even)
                       - alg.multiply(g_odd, f_odd))
            if swapped != result:
                problems.append("graded-commutativity")
        return result.render(), problems, {"terms_in": nf + ng, "pairs": nf * ng,
                                           "terms_out": _terms(result)}

    return [
        Op("square", lambda: alg.multiply(f, f),
           _series_finish({"terms_in": 2 * nf, "pairs": nf * nf})),
        Op("product", lambda: alg.multiply(f, g), product_finish),
        Op("bracket", lambda: alg.poisson_bracket(f, k),
           _series_finish({"terms_in": nf + ALGEBRA_K_TERMS})),
        Op("substitute", lambda: alg.substitute(g, assignment),
           _series_finish({"terms_in": ng + n_images})),
        Op("partial", lambda: alg.partial(g, d_var),
           _series_finish({"terms_in": ng})),
    ]


# ---------------------------------------------------------------------------
# compose_chain
# ---------------------------------------------------------------------------

COMPOSE_TRUNCATION = 8
COMPOSE_ORDER = 5
COMPOSE_TERMS = 6


def _compose_registry(api):
    orb = api.orbits
    return orb.OrbitRegistry([
        orb.ReebOrbit("m", "elliptic", theta=Fraction(3, 10), max_iterate=3),
        orb.ReebOrbit("n", "hyperbolic", cz1=2),
        orb.ReebOrbit("gm", "elliptic", theta=Fraction(7, 10), max_iterate=3),
        orb.ReebOrbit("gp", "elliptic", theta=Fraction(11, 30), max_iterate=3),
    ])


def _random_fraction(rng, top=6):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 4))


def _letters_series(api, rng, reg, pool, n_terms, letters=(2, 2)):
    """Sum of ``n_terms`` random products of distinct letters from ``pool``."""
    alg = api.algebra
    out = alg.GradedSeries.zero(reg, COMPOSE_TRUNCATION)
    for _ in range(n_terms):
        term = alg.GradedSeries.constant(reg, COMPOSE_TRUNCATION, _random_fraction(rng))
        for v in rng.sample(pool, rng.randint(*letters)):
            term = alg.multiply(term, alg.GradedSeries.of(reg, COMPOSE_TRUNCATION, v))
        out = out + term
    return out


def _partitions(n, max_part=None):
    max_part = n if max_part is None else min(max_part, n)
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(max_part, 0, -1)
            for rest in _partitions(n - first, first)]


def build_compose_chain(api, pool_id: int, workdir: Path) -> list[Op]:
    alg, pt, orb, cv = api.algebra, api.potentials, api.orbits, api.covers
    rng = instance_rng("compose_chain", pool_id)
    reg = _compose_registry(api)
    trunc, order = COMPOSE_TRUNCATION, COMPOSE_ORDER

    def var(name, k, kind, side):
        return alg.Variable(reg.get(name).iterate(k), kind, side)

    def series_of(v, coeff=1):
        return alg.GradedSeries.of(reg, trunc, v, coeff)

    def sizes(*items):
        return sum(_terms(x.series if hasattr(x, "series") else x) for x in items)

    def finish(terms_in, want=None, label=None):
        def done(result):
            series = result.series if hasattr(result, "series") else result
            problems = [label] if want is not None and series != want else []
            return series.render(), problems, {"terms_in": terms_in,
                                               "terms_out": _terms(series)}
        return done

    ops = []

    # triple conjugations f10 # f0 # f01 along the rails gm^1,gm^2 and gp^1,gp^2
    rail_minus = [reg.get("gm").iterate(k) for k in (1, 2)]
    rail_plus = [reg.get("gp").iterate(k) for k in (1, 2)]

    def rail_pot(q_orbit, p_orbit):
        # every term has a q- and a p-letter, so each substituted image carries
        # an external letter and the fixed-point solve stabilizes; one or two
        # q-letters and one p-letter keep the cost tail of the triple
        # composition short (terms with two of each reach seconds per call)
        q_pool = [var(q_orbit, k, "q", "minus") for k in (1, 2)]
        p_pool = [var(p_orbit, k, "p", "plus") for k in (1, 2)]
        out = alg.GradedSeries.zero(reg, trunc)
        for _ in range(COMPOSE_TERMS):
            term = alg.GradedSeries.constant(reg, trunc, _random_fraction(rng))
            for v in rng.sample(q_pool, rng.randint(1, 2)) + [rng.choice(p_pool)]:
                term = alg.multiply(term, series_of(v))
            out = out + term
        return pt.Potential(out, q_side="minus", p_side="plus")

    for i in range(3):
        f10, f01, f0 = rail_pot("gm", "gm"), rail_pot("gp", "gp"), rail_pot("gm", "gp")
        ops.append(Op(f"transform_potential_{i}",
                      lambda f0=f0, f10=f10, f01=f01: pt.transform_potential(
                          f0, f10, f01, rail_minus, rail_plus, order),
                      finish(sizes(f0, f10, f01))))

    # compositions with the identity along the middle orbits m^1, m^2, n^1:
    # the identity is neutral, so the result is the other factor retagged
    mids = [reg.get("m").iterate(1), reg.get("m").iterate(2), reg.get("n").iterate(1)]
    qmids = [alg.Variable(it, "q", "middle") for it in mids]
    pmids = [alg.Variable(it, "p", "middle") for it in mids]
    qminus = var("gm", 1, "q", "minus")
    pplus = var("gp", 1, "p", "plus")
    ident_left = pt.Potential(pt.identity_series(mids, reg, trunc, "minus", "middle"),
                              q_side="minus", p_side="middle")
    ident_right = pt.Potential(pt.identity_series(mids, reg, trunc, "middle", "plus"),
                               q_side="middle", p_side="plus")
    right_factor = pt.Potential(_letters_series(api, rng, reg, qmids + [pplus], 3, (1, 2)),
                                q_side="middle", p_side="plus")
    left_factor = pt.Potential(_letters_series(api, rng, reg, pmids + [qminus], 3, (1, 2)),
                               q_side="minus", p_side="middle")
    want = alg.reside(right_factor.series, kind="q", side="middle", new_side="minus")
    ops.append(Op("compose_identity_left",
                  lambda: pt.compose_sharp(ident_left, right_factor, mids, order),
                  finish(sizes(ident_left, right_factor), want, "identity-left")))
    want = alg.reside(left_factor.series, kind="p", side="middle", new_side="plus")
    ops.append(Op("compose_identity_right",
                  lambda: pt.compose_sharp(left_factor, ident_right, mids, order),
                  finish(sizes(left_factor, ident_right), want, "identity-right")))

    # linear chains over the even middle iterate m^k: a q- p~ composed with
    # b q~ p+ eliminates to kappa*a*b q- p+ (kappa = k)
    for kappa in (1, 2):
        a, b = _random_fraction(rng), _random_fraction(rng)
        it = reg.get("m").iterate(kappa)
        left = pt.Potential(
            alg.multiply(series_of(qminus), series_of(alg.Variable(it, "p", "middle"))).scale(a),
            q_side="minus", p_side="middle")
        right = pt.Potential(
            alg.multiply(series_of(alg.Variable(it, "q", "middle")), series_of(pplus)).scale(b),
            q_side="middle", p_side="plus")
        want = alg.multiply(series_of(qminus), series_of(pplus)).scale(kappa * a * b)
        ops.append(Op(f"compose_linear_{kappa}",
                      lambda left=left, right=right, it=it:
                          pt.compose_sharp(left, right, [it], order),
                      finish(sizes(left, right), want, "linear-chain")))

    # Hamilton-Jacobi pairings and Lagrangian restrictions
    hj_pool = [alg.Variable(it, kind, "middle") for it in mids for kind in ("p", "q")]
    restrict_pool = ([var(o, k, "q", "plus") for o in ("gm", "gp") for k in (1, 2)]
                     + [var(o, k, "p", "minus") for o in ("gm", "gp") for k in (1, 2)]
                     + [var("m", 1, "q", "middle")])
    for i in range(2):
        h_plus = pt.Potential(_letters_series(api, rng, reg, hj_pool, 3, (2, 2)),
                              q_side="middle", p_side="middle")
        h_minus = pt.Potential(_letters_series(api, rng, reg, hj_pool, 3, (2, 2)),
                               q_side="middle", p_side="middle")
        k_obs = _letters_series(api, rng, reg, hj_pool, COMPOSE_TERMS, (1, 3))
        ops.append(Op(f"hamilton_jacobi_rhs_{i}",
                      lambda hp=h_plus, hm=h_minus, k=k_obs: pt.hamilton_jacobi_rhs(hp, hm, k),
                      finish(sizes(h_plus, h_minus, k_obs))))
    for i in range(2):
        g_obs = _letters_series(api, rng, reg, restrict_pool, COMPOSE_TERMS, (1, 3))
        f_v = rail_pot("gm", "gp")
        ops.append(Op(f"lagrangian_restrict_{i}",
                      lambda g=g_obs, f=f_v: pt.lagrangian_restrict(g, f),
                      finish(sizes(g_obs, f_v))))

    # seeded count tables on the cobordism curve gp -> gm, degrees 1..3; the
    # weights are invertible, so the counts round-trip exactly
    gm1, gp1 = reg.get("gm").iterate(1), reg.get("gp").iterate(1)
    base = cv.BaseCurve("chain", positive_ends=orb.OrbitCollection((gp1,)),
                        negative_ends=orb.OrbitCollection((gm1,), sign="negative"))
    for i in range(2):
        entries = {}
        for d in (1, 2, 3):
            for pos in _partitions(d):
                for neg in _partitions(d):
                    if rng.random() < 0.6:
                        key = (tuple(("gp", k) for k in pos), tuple(("gm", k) for k in neg))
                        entries[key] = _random_fraction(rng, 9)
        table = pt.CountTable("curve", "chain", entries, reg, base=base)
        potential = pt.potential_from_counts(table, trunc)

        def roundtrip(result, table=table, potential=potential):
            problems = [] if result == table else ["weight-roundtrip"]
            text = "\n".join(f"{k} {v}" for k, v in result.sorted_entries())
            return text, problems, {"terms_in": _terms(potential.series),
                                    "terms_out": len(result.entries)}

        ops.append(Op(f"potential_from_counts_{i}",
                      lambda table=table: pt.potential_from_counts(table, trunc),
                      finish(len(entries))))
        ops.append(Op(f"potential_to_counts_{i}",
                      lambda potential=potential: pt.potential_to_counts(potential),
                      roundtrip))
    return ops


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

CLI_TRUNCATION = 6
HURWITZ_SIX = ((6,), (3, 2, 1))  # both classes of S_6 have 120 elements


def _theta(rng, max_iterate):
    """A rotation number whose denominator exceeds ``max_iterate``."""
    b = rng.randint(max_iterate + 1, max_iterate + 6)
    while True:
        a = rng.randint(1, 2 * b - 1)
        if math.gcd(a, b) == 1:
            return Fraction(a, b)


def _cz(orbit, k=1):
    if orbit["kind"] == "elliptic":
        return 2 * math.floor(k * orbit["theta"]) + 1
    return k * orbit["cz1"]


def _coll(name, parts):
    # ascending multiplicities: the canonical order ``render_config`` writes.
    # A collection written in another order parses to a document that is not
    # equal to its own re-parsed rendering, so `check` reports its
    # config-roundtrip as failed; that defect is left to a later change and
    # is not exercised here.
    return "(" + ",".join(name if k == 1 else f"{name}^{k}" for k in sorted(parts)) + ")"


def _pick_partition(rng, d, n_parts):
    return rng.choice([p for p in _partitions(d) if len(p) == n_parts])


def stress_config(pool_id: int) -> tuple[str, dict]:
    """The stress config of one pool instance and the facts its commands check.

    Orbits: three elliptic (max_iterate 6-8) and four hyperbolic, two with
    even and two with odd index.  Covers of orbit cylinders of degree 3-6,
    of punctured planes up to degree 6 and of the closed sphere ``v``; dense
    curve tables; single-elliptic necks and multi-orbit all-hyperbolic necks.
    Orbit tables stay empty: a nonzero orbit-table entry fails the vanishing
    gate of ``check`` and a zero entry breaks its weight round trip.
    """
    rng = instance_rng("cli_session", pool_id)
    orbits = {}
    for name in ("e0", "e1", "e2"):
        top = rng.randint(6, 8)
        orbits[name] = {"kind": "elliptic", "theta": _theta(rng, top), "max_iterate": top}
    for name, parity in (("h0", 0), ("h1", 0), ("h2", 1), ("h3", 1)):
        cz1 = rng.choice((-4, -2, 2, 4)) + parity
        orbits[name] = {"kind": "hyperbolic", "cz1": cz1}

    lines = [f"# benchmark stress config, pool instance {pool_id}",
             f"truncation {CLI_TRUNCATION}", ""]
    for name, o in orbits.items():
        if o["kind"] == "elliptic":
            lines.append(f"orbit {name} elliptic theta={o['theta']} max_iterate={o['max_iterate']}")
        else:
            lines.append(f"orbit {name} hyperbolic cz1={o['cz1']}")
    lines.append("")

    def cz(name):
        return _cz(orbits[name])

    lines.append("curve v closed=yes index=0 rel_c1_doubled=2")
    for name in ("e0", "e1", "e2"):
        lines.append(f"curve p{name} index=0 rel_c1_doubled={1 + cz(name)} neg=({name})")
        lines.append(f"curve m{name} index=0 rel_c1_doubled={1 - cz(name)} pos=({name})")
    hyper_necks = {"nh": ("h0", "h1", "h2"), "nk": ("h1", "h3")}
    for neck, names in hyper_necks.items():
        m, total = len(names), sum(cz(n) for n in names)
        ends = ",".join(names)
        lines.append(f"curve p{neck} index=0 rel_c1_doubled={2 - m + total} neg=({ends})")
        lines.append(f"curve m{neck} index=0 rel_c1_doubled={2 - m - total} pos=({ends})")
    # cobordisms e1 -> e2 and e0 -> e1 for the compose command
    lines.append(f"curve ce index=0 rel_c1_doubled={cz('e2') - cz('e1')} pos=(e1) neg=(e2)")
    lines.append(f"curve cf index=0 rel_c1_doubled={cz('e1') - cz('e0')} pos=(e0) neg=(e1)")
    lines.append("")

    covers = [
        # name, base, degree, pos parts, neg parts, marked/constrained
        ("c3", "e2", 3, 2, 2, 0),
        ("c4", "e1", 4, 3, 2, 1),
        ("c5", "h0", 5, 3, 3, 0),
        ("c6", "e0", 6, 6, 6, 1),
        ("c6b", "e1", 6, 4, 2, 0),
        # a ladder of constrained covers whose strata cost 30-300 ms
        ("l1", "e0", 6, 1, 6, 1),
        ("l2", "e1", 6, 2, 6, 1),
        ("l3", "e2", 5, 3, 5, 1),
        ("l4", "e0", 6, 4, 6, 1),
    ]
    for name, orbit, d, n_pos, n_neg, marked in covers:
        pos = _coll(orbit, _pick_partition(rng, d, n_pos))
        neg = _coll(orbit, _pick_partition(rng, d, n_neg))
        extra = " marked=1 constrained=1" if marked else ""
        lines.append(f"cover {name} base=cyl:{orbit} degree={d} pos={pos} neg={neg}{extra}")
    lines.append(f"cover p4 base=me2 degree=4 pos={_coll('e2', _pick_partition(rng, 4, 2))}")
    lines.append(f"cover p6 base=me2 degree=6 pos={_coll('e2', _pick_partition(rng, 6, 3))} "
                 f"marked=1 constrained=1")
    lines.append("cover sd2 base=v degree=2")
    lines.append("cover sd3 base=v degree=3 marked=1 constrained=1")
    lines.append("")

    lines += ["table He0 orbit=e0", "end", "", "table Hh0 orbit=h0", "end", ""]
    for name, top in (("e0", 6), ("e1", 5)):
        lines.append(f"table T{name} curve=m{name}")
        for d in range(1, top + 1):
            for parts in _partitions(d):
                lines.append(f"  {_coll(name, parts)} () {_random_fraction(rng, 9)}")
        lines += ["end", ""]
    for table, curve, pos_orbit, neg_orbit in (("L", "ce", "e1", "e2"), ("R", "cf", "e0", "e1")):
        lines.append(f"table {table} curve={curve}")
        lines.append(f"  ({pos_orbit}) ({neg_orbit}) {_random_fraction(rng, 9)}")
        for pos in ((1, 1), (2,)):
            for neg in ((1, 1), (2,)):
                lines.append(f"  {_coll(pos_orbit, pos)} {_coll(neg_orbit, neg)} "
                             f"{_random_fraction(rng, 9)}")
        lines += ["end", ""]

    lines.append("neck ne0 orbits=(e0) plus=pe0 minus=me0")
    lines.append("neck ne1 orbits=(e1) plus=pe1 minus=me1")
    for neck, names in hyper_necks.items():
        lines.append(f"neck {neck} orbits=({','.join(names)}) plus=p{neck} minus=m{neck}")

    hurwitz = []
    for d in (4, 4, 5):
        profiles = [rng.choice(_partitions(d)) for _ in range(2)]
        hurwitz.append((d, profiles, rng.randint(0, 2) if d == 4 else 0))
    hurwitz.append((6, [rng.choice(HURWITZ_SIX) for _ in range(2)], 2))
    return "\n".join(lines) + "\n", {"hurwitz": hurwitz}


def _class_size(d, profile):
    """|C_mu| = d! / z_mu for a partition mu of d."""
    z = 1
    for part in set(profile):
        m = profile.count(part)
        z *= part ** m * math.factorial(m)
    return math.factorial(d) // z


def hurwitz_tuples(d, profiles, simple_branch_points=0):
    """Prefix tuples ``hurwitz_count`` visits, computed from the class sizes.

    The enumerator runs over every class but the last, whose element is
    determined by the product; a transposition class stands for each simple
    branch point.  Computed here, not counted inside the program.
    """
    if d < 1 or (simple_branch_points and d < 2):
        return 0
    classes = [_class_size(d, tuple(p)) for p in profiles]
    classes += [d * (d - 1) // 2] * simple_branch_points
    if not classes:
        return 0
    return math.prod(classes[:-1])


STEP_LINE = re.compile(r"^\[[^\]]+\] |^step=", re.MULTILINE)


def _cli_finish(config_bytes, expect=None, counters=None):
    """Finish step of a CLI call: digest text, known-value checks, counters.

    ``expect(code, stdout)`` returns the names of failed known-value checks.
    """
    def finish(raw):
        code, out = raw
        problems = list(expect(code, out)) if expect else []
        work = {"stdout_bytes": len(out.encode()), "config_bytes": config_bytes,
                "exit_nonzero": int(code != 0),
                "trace_steps": len(STEP_LINE.findall(out))}
        if counters:
            work.update(counters(out))
        return f"exit {code}\n{out}", problems, work
    return finish


def _strata_counts(out):
    nodes = sum(1 for line in out.splitlines() if line.startswith("node "))
    edges = sum(1 for line in out.splitlines() if line.startswith("edge "))
    return {"strata_nodes": nodes, "strata_edges": edges}


def run_cli(cli, argv):
    """``localsft.cli.main(argv)`` with stdout captured; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def build_cli_session(api, pool_id: int, workdir: Path) -> list[Op]:
    text, facts = stress_config(pool_id)
    path = workdir / f"cli_session-{pool_id}.cfg"
    path.write_text(text)
    rel = str(path)
    n_bytes = len(text.encode())

    # set-up check: parse -> render -> parse is a fixpoint and `check` exits 0
    doc = api.config.parse_config(text)
    rendered = api.config.render_config(doc)
    again = api.config.parse_config(rendered)
    if again != doc or api.config.render_config(again) != rendered:
        raise SetupError(f"stress config {pool_id} does not round-trip")
    code, out = run_cli(api.cli, ["--config", rel, "check"])
    if code != 0:
        raise SetupError(f"stress config {pool_id}: check exited {code}\n{out}")
    elliptic_witness = {"ne0": "e0", "ne1": "e1"}

    def ok_exit(code, out):
        return [] if code == 0 else ["exit-code"]

    def check_summary(code, out):
        m = re.search(r"^summary: (\d+)/(\d+) checks passed$", out, re.MULTILINE)
        return [] if code == 0 and m and m.group(1) == m.group(2) else ["check-all-pass"]

    def verdict(neck):
        def expect(code, out):
            if neck in elliptic_witness:
                witness = elliptic_witness[neck]
                found = ((f"CONSISTENT (elliptic orbit: {witness})" in out.splitlines()
                          or "verdict=CONSISTENT" in out)
                         and f"contains the elliptic orbit {witness};" in out)
            else:
                found = "CONTRADICTION" in out.splitlines() or "verdict=CONTRADICTION" in out
            return [] if code == 0 and found else [f"verdict-{neck}"]
        return expect

    def quarter(code, out):
        ok = "constrained double-cover count = -1/4" in out.splitlines()
        return [] if code == 0 and ok else ["minus-one-quarter"]

    def one_over(d):
        def expect(code, out):
            fields = out.splitlines()[-1].split() if out else []
            return [] if code == 0 and fields and fields[-1] == f"1/{d}" else [f"hurwitz-1/{d}"]
        return expect

    ops = []

    def add(name, argv, expect=ok_exit, counters=None, reads_config=True):
        full = (["--config", rel] + argv) if reads_config else argv
        ops.append(Op(name, lambda: run_cli(api.cli, full),
                      _cli_finish(n_bytes if reads_config else 0, expect, counters)))

    add("check", ["check"], check_summary)
    add("check_records", ["check", "--format", "records"], check_summary)
    add("cz", ["cz"])
    add("cz_e0_records", ["cz", "e0", "--format", "records"])
    add("index", ["index"])
    add("moduli", ["moduli"])
    add("moduli_records", ["moduli", "--format", "records"])
    for cover in ("c3", "c4", "c5", "c6", "p4", "p6", "l1", "l2", "l3", "l4"):
        add(f"strata_{cover}", ["strata", cover], counters=_strata_counts)
    for cover in ("c6", "c6b"):
        add(f"strata_{cover}_records", ["strata", cover, "--format", "records"])
    add("strata_sd3_neck", ["strata", "sd3", "--neck", "ne0"], counters=_strata_counts)
    for i, (d, profiles, bp) in enumerate(facts["hurwitz"]):
        argv = ["hurwitz", "--degree", str(d), "--branch-points", str(bp)]
        for p in profiles:
            argv += ["--profile", ",".join(map(str, p))]
        tuples = hurwitz_tuples(d, profiles, bp)
        add(f"hurwitz_{i}", argv, counters=lambda out, t=tuples: {"hurwitz_tuples": t},
            reads_config=False)
    for d in (4, 5, 6):
        argv = ["hurwitz", "--degree", str(d), "--profile", str(d), "--profile", str(d)]
        tuples = hurwitz_tuples(d, [(d,), (d,)], 0)
        add(f"hurwitz_cycle_{d}", argv, one_over(d),
            counters=lambda out, t=tuples: {"hurwitz_tuples": t}, reads_config=False)
    add("neckstretch_ne0", ["neckstretch", "ne0"], verdict("ne0"))
    add("neckstretch_ne1_records", ["neckstretch", "ne1", "--format", "records"], verdict("ne1"))
    add("neckstretch_nh", ["neckstretch", "nh"], verdict("nh"))
    add("neckstretch_nk_records", ["neckstretch", "nk", "--format", "records"], verdict("nk"))
    add("exceptional_v", ["exceptional", "v"], quarter)
    add("potential_Te0", ["potential", "Te0"])
    add("potential_Te1", ["potential", "Te1", "--format", "records"])
    add("compose_LR", ["compose", "L", "R", "--middle", "e1", "--order", "4"])
    return ops


WORKLOADS = {
    "algebra_dense": build_algebra_dense,
    "compose_chain": build_compose_chain,
    "cli_session": build_cli_session,
}
