"""Golden digests of CLI runs: exit code, stdout and stderr, byte for byte.

Each run is stored as one SHA-256 in ``golden_cli.json``, keyed by its
arguments.  The runs cover every subcommand in both formats on the shipped
example and a few broken documents that pin exit statuses 1, 2 and 3, and compositions
over an odd middle orbit.

Re-record with ``PYTHONPATH=src python tests/test_golden_cli.py``; a
change of output that is meant lists its changed keys in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from localsft.cli import main
from localsft.config import parse_config

EXAMPLE = Path(__file__).resolve().parents[1] / "src" / "localsft" / "data" / "example.cfg"
GOLDEN = Path(__file__).with_name("golden_cli.json")

#: Broken documents, each with the command run on it.
BROKEN = {
    "unknown-curve": ("orbit g elliptic theta=3/10 max_iterate=4\n"
                      "cover c base=nosuch degree=1\n", ["check"]),
    "bad-theta": ("orbit g elliptic theta=1/2 max_iterate=4\n", ["cz"]),
    "iterate-bound": ("orbit g elliptic theta=3/10 max_iterate=20000\n", ["check"]),
    "iterate-in-collection": ("orbit g elliptic theta=3/10 max_iterate=4\n"
                              "cover c base=cyl:g degree=5 pos=(g^5) neg=(g^5)\n", ["check"]),
    "duplicate-orbit": ("orbit g elliptic theta=3/10 max_iterate=4\n"
                        "orbit g hyperbolic cz1=1\n", ["cz"]),
    "duplicate-curve": ("curve c index=0\ncurve c index=0\n", ["index"]),
    "duplicate-cover": ("curve c closed=yes index=0 rel_c1_doubled=2\n"
                        "cover s base=c degree=2\ncover s base=c degree=3\n", ["index"]),
    "duplicate-table": ("orbit z hyperbolic cz1=1\ntable T orbit=z\nend\n"
                        "table T orbit=z\nend\n", ["check"]),
    "duplicate-neck": ("orbit g elliptic theta=3/10 max_iterate=4\n"
                       "curve p index=0 rel_c1_doubled=2 neg=(g)\n"
                       "curve m index=0 rel_c1_doubled=0 pos=(g)\n"
                       "neck n orbits=(g) plus=p minus=m\n"
                       "neck n orbits=(g) plus=p minus=m\n", ["check"]),
    "bad-row": ("orbit z hyperbolic cz1=1\ntable T orbit=z\n(z) (z) 1\n(z^2) (z^2) 1\nend\n",
                ["check"]),
    "not-morse": ("orbit g elliptic theta=3/10 max_iterate=4 morse=no\n"
                  "curve p index=0 rel_c1_doubled=2 neg=(g)\n"
                  "curve m index=0 rel_c1_doubled=0 pos=(g)\n"
                  "neck n orbits=(g) plus=p minus=m\n", ["neckstretch", "n"]),
    "vanishing-fails": ("orbit g elliptic theta=3/10 max_iterate=4\n"
                        "table H orbit=g\n  (g) (g) 1\nend\n", ["hamiltonian", "H"]),
}

#: A hyperbolic middle orbit with even ``cz1``, so every middle letter is odd.
#: ``A``'s rows all have an even number of letters, so the middle solutions
#: keep the parity of their variables; ``M``'s rows mix two and three
#: letters, so they do not.  Both have rows with two q letters on ``h``.
ODD_MIDDLE = ("truncation 6\n"
              "orbit h hyperbolic cz1=2\n"
              "table A orbit=h\n  (h) (h) 1/2\n  (h^2) (h^2) -1\n  (h,h^2) (h,h^2) 1/3\nend\n"
              "table M orbit=h\n  (h) (h) 1\n  (h^3) (h,h^2) 2\n  (h,h^2) (h^3) -1/3\nend\n")


def _runs(directory: Path):
    """(key, argv) of every golden run; broken documents are written to ``directory``."""
    doc = parse_config(EXAMPLE.read_text())
    commands = [["check"], ["cz"], ["index"], ["moduli"]]
    for cover, codim, neck in itertools.product(sorted(doc.covers), range(4),
                                                [None, *sorted(doc.necks)]):
        commands.append(["strata", cover, "--max-codim", str(codim),
                         *(["--neck", neck] if neck else [])])
    commands += [["neckstretch", neck] for neck in sorted(doc.necks)]
    commands += [["exceptional", curve] for curve in sorted(doc.curves)]
    for table in sorted(doc.tables):
        commands += [["potential", table], ["hamiltonian", table]]
    commands += [["compose", left, right, "--middle", "gamma"]
                 for left, right in itertools.product(sorted(doc.tables), repeat=2)]
    for fmt in ("table", "records"):
        for argv in commands:
            yield (f"example {fmt} {' '.join(argv)}",
                   ["--config", str(EXAMPLE), "--format", fmt, *argv])
        argv = ["hurwitz", "--degree", "4", "--profile", "2,2", "--branch-points", "4"]
        yield f"{fmt} {' '.join(argv)}", ["--format", fmt, *argv]
    path = directory / "odd-middle.cfg"
    path.write_text(ODD_MIDDLE)
    for left, right in itertools.product("AM", repeat=2):
        for order in ("0", "2"):
            argv = ["compose", left, right, "--middle", "h", "--order", order]
            yield f"odd-middle {' '.join(argv)}", ["--config", str(path), *argv]
    for name, (text, argv) in BROKEN.items():
        path = directory / f"{name}.cfg"
        path.write_text(text)
        yield f"{name} {' '.join(argv)}", ["--config", str(path), *argv]


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {key: _digest(argv) for key, argv in _runs(Path(tmp))}


def test_cli_output_matches_the_recorded_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(json.loads(GOLDEN.read_text()))} digests in {GOLDEN}", file=sys.stderr)
