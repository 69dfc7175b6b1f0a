"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Checks, for every workload, with one instance per measured loop:

* every metric named in ``BENCHMARK.json`` is printed with its unit, in the
  untraced (end-to-end) and the traced (per-layer) run;
* metric names use only letters, digits, ``_``, ``.`` and ``-``;
* two seeds give different inputs but the same operation counts;
* a corrupted reference digest makes ``ops_failed_ratio`` nonzero and the
  exit code nonzero.

Exits 0 when every check passes and prints one line per failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args: str, reference: Path | None = None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--seconds", "0", *args]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, {}, {}, proc.stderr
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1]), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)
            print(f"FAIL {what}", flush=True)

    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        expect(bool(NAME.match(name)), f"metric or workload name {name!r} is malformed")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, details, result, err = bench("--workload", workload, "--seed", "1",
                                               "--trace", str(trace))
            expect(code == 0 and result.get("correct") is True,
                   f"{workload} trace={trace}: exit {code}, result {result}\n{err}")
            printed = result.get("metrics", {})
            for m in spec[group]:
                got = printed.get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       f"{workload} trace={trace}: metric {m['name']} missing or unit wrong")
            if trace == 0:
                first = details

        _, second, _, _ = bench("--workload", workload, "--seed", "2", "--trace", "0")
        expect(first.get("pool_ids") != second.get("pool_ids")
               and first.get("round_output_digest") != second.get("round_output_digest"),
               f"{workload}: seeds 1 and 2 gave the same inputs")
        expect(first.get("ops_per_instance") == second.get("ops_per_instance")
               and first.get("samples") == second.get("samples"),
               f"{workload}: seeds 1 and 2 gave different operation counts")

        reference = json.loads((BENCH / "reference.json").read_text())
        pid = str(first["pool_ids"][0])
        op = sorted(reference["workloads"][workload][pid])[0]
        reference["workloads"][workload][pid][op] = "0" * 16
        corrupted = BENCH / "out" / f"corrupted-{workload}.json"
        corrupted.parent.mkdir(exist_ok=True)
        corrupted.write_text(json.dumps(reference))
        code, details, result, _ = bench("--workload", workload, "--seed", "1", "--trace", "0",
                                         reference=corrupted)
        expect(code != 0 and details.get("ops_failed_ratio", 0) > 0
               and result.get("correct") is False,
               f"{workload}: corrupted reference went unnoticed (exit {code})")

    print("smoke: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
