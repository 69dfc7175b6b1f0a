"""Command-line front end.

All reports are deterministic functions of the config document and flags.
Exit codes: 0 success, 1 validation failure, 2 parse error, 3 hypothesis
violation.  Errors print a single line ``error <CODE>: <explanation>`` to
stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import covers as cv
from . import exceptional as ex
from . import potentials as pt
from .config import ConfigDocument, parse_config, render_config
from .errors import HYPOTHESIS_ERRORS, ConfigError, LocalSFTError
from .orbits import cz_defect, cz_iterate, is_good, variable_degree


class CheckFailure(LocalSFTError):
    code = "E_CHECK"


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _format_records(headers: list[str], rows: list[list[str]]) -> str:
    lines = []
    for row in rows:
        lines.append("\t".join(f"{h}={c}" for h, c in zip(headers, row)))
    return "\n".join(lines)


def _emit(args, headers: list[str], rows: list[list[str]]) -> None:
    if args.format == "records":
        text = _format_records(headers, rows)
    else:
        text = _format_table(headers, rows)
    if text:
        print(text)


def _load_config(args) -> ConfigDocument:
    if not args.config:
        raise ConfigError("no config file given (use --config <path>)")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {args.config!r} does not exist")
    _require_at_least("--truncation", args.truncation, 0)
    doc = parse_config(path.read_text())
    if args.truncation:
        doc.truncation = args.truncation
    return doc


def _lookup(items: dict, what: str, name: str):
    """The named config item, or a ConfigError naming what is unknown."""
    try:
        return items[name]
    except KeyError:
        raise ConfigError(f"unknown {what} {name!r}") from None


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ConfigError(f"{flag} must be at least {low}, got {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_cz(args) -> int:
    _require_at_least("--max-k", args.max_k, 1)
    doc = _load_config(args)
    names = args.orbits or [o.name for o in doc.registry.orbits()]
    rows = []
    for name in names:
        orbit = doc.registry.get(name)
        top = orbit.max_iterate if orbit.elliptic else args.max_k
        for k in range(1, top + 1):
            it = orbit.iterate(k)
            good = is_good(it)
            rows.append([
                name, str(k), str(cz_iterate(orbit, k)),
                str(cz_defect(orbit, k - 1, 1)) if 2 <= k <= top else "-",
                "yes" if good else "no",
                str(variable_degree(it, "q")) if good else "-",
                str(variable_degree(it, "p")) if good else "-",
            ])
    _emit(args, ["orbit", "k", "cz", "defect", "good", "deg_q", "deg_p"], rows)
    return 0


def cmd_index(args) -> int:
    doc = _load_config(args)
    rows = []
    for name in sorted(doc.covers):
        spec = doc.covers[name]
        rows.append([name, spec.base.name, str(spec.degree),
                     str(cv.fredholm_index(spec))])
    _emit(args, ["cover", "base", "degree", "index"], rows)
    return 0


def cmd_moduli(args) -> int:
    doc = _load_config(args)
    rows = []
    for name in sorted(doc.covers):
        spec = doc.covers[name]
        ind = cv.fredholm_index(spec)
        z = cv.branch_count(spec)
        try:
            report = cv.tangency_report(spec)
            dim = str(report.dimension)
            note = "; ".join(report.quotient_note) or "-"
        except LocalSFTError as exc:
            dim, note = "-", exc.code
        try:
            rank = str(cv.cokernel_rank(spec))
        except LocalSFTError as exc:
            rank = exc.code
        try:
            chern = cv.normal_chern_numbers(spec)
            c2, c1n = str(chern.c_N_doubled), str(chern.adjusted_c1_Nu)
        except LocalSFTError as exc:
            c2 = c1n = exc.code
        rows.append([name, str(spec.degree), str(ind), str(z), dim,
                     str(cv.virtual_dimension(spec)), rank, c2, c1n, note])
    _emit(args, ["cover", "degree", "index", "branch", "dim", "virdim",
                 "rank", "c_N_doubled", "c1_Nu", "notes"], rows)
    return 0


def cmd_strata(args) -> int:
    _require_at_least("--max-codim", args.max_codim, 0)
    doc = _load_config(args)
    spec = _lookup(doc.covers, "cover", args.cover)
    neck = _lookup(doc.necks, "neck", args.neck).split() if args.neck else None
    graph = cv.boundary_strata(spec, neck=neck, max_codim=args.max_codim)
    if args.format == "records":
        text = graph.render_edge_lines()
    else:
        text = graph.render_adjacency()
    if text:
        print(text)
    return 0


def cmd_hurwitz(args) -> int:
    profiles = []
    for chunk in args.profile or []:
        try:
            profiles.append(tuple(int(p) for p in chunk.split(",")))
        except ValueError:
            raise ConfigError(
                f"--profile takes comma-separated integers, got {chunk!r}") from None
    value = cv.hurwitz_count(args.degree, profiles, args.branch_points)
    _emit(args, ["degree", "profiles", "branch_points", "count"],
          [[str(args.degree),
            ";".join(",".join(map(str, p)) for p in profiles) or "-",
            str(args.branch_points), str(value)]])
    return 0


def _build_potential(doc: ConfigDocument, name: str) -> pt.Potential:
    return pt.potential_from_counts(_lookup(doc.tables, "table", name), doc.truncation)


def cmd_hamiltonian(args) -> int:
    doc = _load_config(args)
    ham = pt.hamiltonian_from_counts(_lookup(doc.tables, "table", args.table),
                                     doc.truncation)
    report = pt.assert_hamiltonian_vanishes(ham)
    rows = [["series", ham.render()], ["vanishing", report.status],
            ["detail", report.message]]
    _emit(args, ["field", "value"], rows)
    return 0 if report.status in ("pass", "warn") else 1


def cmd_potential(args) -> int:
    doc = _load_config(args)
    potential = _build_potential(doc, args.table)
    rows = [["series", potential.render()]]
    back = pt.potential_to_counts(potential)
    rows.append(["weight_roundtrip", "pass" if back == potential.source else "fail"])
    _emit(args, ["field", "value"], rows)
    return 0


def cmd_compose(args) -> int:
    _require_at_least("--order", args.order, 0)
    _require_at_least("--max-k", args.max_k, 1)
    doc = _load_config(args)
    left = _build_potential(doc, args.left)
    right = _build_potential(doc, args.right)
    middle_names = set(args.middle.split(","))
    iterates = []
    for name in sorted(middle_names):
        orbit = doc.registry.get(name)
        top = orbit.max_iterate if orbit.elliptic else args.max_k
        iterates.extend(it for it in map(orbit.iterate, range(1, top + 1)) if is_good(it))
    result = pt.compose_sharp(
        pt.reside_potential(left, middle_names, "p"),
        pt.reside_potential(right, middle_names, "q"),
        iterates, order=args.order or doc.truncation)
    print(result.render())
    return 0


def cmd_exceptional(args) -> int:
    doc = _load_config(args)
    curve = _lookup(doc.curves, "curve", args.curve)
    inv = ex.exceptional_invariants(curve)
    result = ex.recursion_pipeline(ex.DescendantSpec(curve, 2, 1, (1,)))
    print(f"curve {curve.name}: self_intersection={inv.self_intersection} "
          f"c1={inv.c1} cover_indices="
          + ",".join(f"d{d}:{inv.cover_index(d)}" for d in range(1, 6)))
    print(f"constrained double-cover count = {result.value}")
    if args.format == "records":
        for step in result.trace:
            for line in step.records():
                print(line)
    else:
        print(ex.render_trace(result.trace))
    return 0


def cmd_neckstretch(args) -> int:
    doc = _load_config(args)
    neck = _lookup(doc.necks, "neck", args.neck)
    try:
        equations = ex.splitting_equations(neck)
        print(equations.render())
    except HYPOTHESIS_ERRORS as exc:
        print(f"splitting equations: not applicable ({exc.code}: {exc})")
    verdict = ex.elliptic_necessity(neck)
    if args.format == "records":
        print(f"verdict={verdict.kind}")
        for step in verdict.derivation:
            for line in step.records():
                print(line)
    else:
        print(verdict.render())
    return 0


def cmd_check(args) -> int:
    doc = _load_config(args)
    results: list[tuple[str, str, str]] = []

    def run(name: str, fn) -> None:
        try:
            note = fn()
            results.append((name, "pass", note or "-"))
        except LocalSFTError as exc:
            results.append((name, "FAIL", f"{exc.code}: {exc}"))
        except AssertionError as exc:
            results.append((name, "FAIL", str(exc) or "assertion failed"))

    def check_roundtrip():
        rendered = render_config(doc)
        again = parse_config(rendered)
        assert again == doc, "config does not round-trip"
        assert render_config(again) == rendered, "rendering is not idempotent"
        return "parse/render fixpoint"

    run("config-roundtrip", check_roundtrip)

    for orbit in doc.registry.orbits():
        def check_orbit(orbit=orbit):
            top = orbit.max_iterate if orbit.elliptic else 6
            for k in range(1, top + 1):
                cz = cz_iterate(orbit, k)
                if orbit.elliptic:
                    assert cz % 2 == 1, f"{orbit.name}^{k}: even elliptic index"
            for k in range(1, top):
                defect = cz_defect(orbit, k, 1)
                if orbit.elliptic:
                    assert defect in (-1, 1), f"{orbit.name}: defect {defect}"
                else:
                    assert defect == 0, f"{orbit.name}: nonzero hyperbolic defect"
            return f"indices through k={top}"
        run(f"orbit:{orbit.name}", check_orbit)

    for name in sorted(doc.curves):
        def check_curve(name=name):
            curve = doc.curves[name]
            spec = cv.CoverSpec(curve, 1, curve.positive_ends, curve.negative_ends)
            got = cv.fredholm_index(spec)
            assert got == curve.index, (
                f"declared index {curve.index}, computed {got}")
            return f"index {got} consistent"
        run(f"curve:{name}", check_curve)

    for name in sorted(doc.covers):
        def check_cover(name=name):
            spec = doc.covers[name]
            z = cv.branch_count(spec)
            ind = cv.fredholm_index(spec)
            notes = [f"Z={z}", f"ind={ind}"]
            try:
                rank = cv.cokernel_rank(spec)
                assert rank + ind == spec.base.index + 2 * z, "rank identity fails"
                notes.append(f"rank={rank}")
            except HYPOTHESIS_ERRORS as exc:
                notes.append(f"rank n/a ({exc.code})")
            graph = cv.boundary_strata(spec, max_codim=1)
            for edge in graph.edges:
                up = graph.nodes[edge.upper]
                low = graph.nodes[edge.lower]
                parent = graph.nodes[edge.parent]
                assert up.index + low.index == parent.index, "index additivity fails"
            notes.append(f"strata={len(graph.edges)}")
            return " ".join(notes)
        run(f"cover:{name}", check_cover)

    for name in sorted(doc.tables):
        def check_table(name=name):
            table = doc.tables[name]
            potential = pt.potential_from_counts(table, doc.truncation)
            back = pt.potential_to_counts(potential)
            assert back == table, "weight round-trip fails"
            if table.context_kind == "orbit":
                report = pt.assert_hamiltonian_vanishes(potential)
                assert report.status != "fail", report.message
                return f"round-trip ok, vanishing {report.status}"
            return "round-trip ok"
        run(f"table:{name}", check_table)

    for name in sorted(doc.necks):
        def check_neck(name=name):
            neck = doc.necks[name]
            verdict = ex.elliptic_necessity(neck)
            notes = [f"necessity={verdict.kind}"]
            if len(neck.gamma_set) == 1 and neck.gamma_set[0].elliptic:
                equations = ex.splitting_equations(neck)
                defect = cz_defect(neck.gamma_set[0], 1, 1)
                assert equations.defect == defect
                assert equations.right_side == Fraction(-1, 4)
                expected = {-1: {"plus": 2, "minus": 0}, 1: {"plus": 0, "minus": 2}}
                assert dict(equations.gamma_squared_indices) == expected[defect]
                notes.append(f"splitting branch defect={defect}")
            return " ".join(notes)
        run(f"neck:{name}", check_neck)

    def check_hurwitz():
        frozen = [
            (2, [(2,), (2,)], 0, Fraction(1, 2)),
            (2, [(1, 1), (1, 1)], 2, Fraction(1, 2)),
            (1, [(1,)], 0, Fraction(1)),
            (3, [(3,), (3,)], 0, Fraction(1, 3)),
        ]
        for d, profiles, b, want in frozen:
            got = cv.hurwitz_count(d, profiles, b)
            assert got == want, f"d={d} {profiles} b={b}: {got} != {want}"
        return f"{len(frozen)} frozen values"

    run("hurwitz-oracle", check_hurwitz)

    _emit(args, ["check", "status", "detail"],
          [[n, s, d] for n, s, d in results])
    failed = sum(1 for _, status, _ in results if status == "FAIL")
    print(f"summary: {len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to the config document")
    common.add_argument("--format", choices=("table", "records"),
                        default=argparse.SUPPRESS,
                        help="human tables or line-oriented machine records")
    common.add_argument("--truncation", type=int, default=argparse.SUPPRESS,
                        help="override the config truncation order")
    parser = argparse.ArgumentParser(
        prog="localsft",
        parents=[common],
        description="Exact bookkeeping for multiple covers, orbit indices, and "
                    "the generating-function algebra of local symplectic field "
                    "theory in dimension four.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cz", parents=[common], help="Conley-Zehnder tables per orbit")
    p.add_argument("orbits", nargs="*")
    p.add_argument("--max-k", type=int, default=6,
                   help="iterate bound for hyperbolic orbits")
    p.set_defaults(fn=cmd_cz)

    p = sub.add_parser("index", parents=[common], help="Fredholm indices of the declared covers")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("moduli", parents=[common], help="dimensions and obstruction ranks per cover")
    p.set_defaults(fn=cmd_moduli)

    p = sub.add_parser("strata", parents=[common], help="boundary stratification of one cover")
    p.add_argument("cover")
    p.add_argument("--neck", help="neck configuration for closed covers")
    p.add_argument("--max-codim", type=int, default=2)
    p.set_defaults(fn=cmd_strata)

    p = sub.add_parser("hurwitz", parents=[common], help="symmetric-group cover-counting oracle")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--profile", action="append",
                   help="comma-separated partition, repeatable")
    p.add_argument("--branch-points", type=int, default=0)
    p.set_defaults(fn=cmd_hurwitz)

    p = sub.add_parser("hamiltonian", parents=[common], help="orbit generating function + vanishing gate")
    p.add_argument("table")
    p.set_defaults(fn=cmd_hamiltonian)

    p = sub.add_parser("potential", parents=[common], help="curve generating function + weight check")
    p.add_argument("table")
    p.set_defaults(fn=cmd_potential)

    p = sub.add_parser("compose", parents=[common], help="compose two potentials along middle orbits")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--middle", required=True, help="comma-separated orbit names")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--max-k", type=int, default=3,
                   help="iterate bound for hyperbolic middle orbits")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("exceptional", parents=[common], help="descendant count pipeline for a sphere")
    p.add_argument("curve")
    p.set_defaults(fn=cmd_exceptional)

    p = sub.add_parser("neckstretch", parents=[common], help="splitting equations and the verdict")
    p.add_argument("neck")
    p.set_defaults(fn=cmd_neckstretch)

    p = sub.add_parser("check", parents=[common], help="run the full invariant suite on the config")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # global options may appear before or after the subcommand; the shared
    # actions use SUPPRESS defaults, so fill in the real ones here
    for key, value in (("config", None), ("format", "table"), ("truncation", 0)):
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 2
    except HYPOTHESIS_ERRORS as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 3
    except LocalSFTError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error E_LOOKUP: {exc.args[0]}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
