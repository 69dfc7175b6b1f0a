"""Benchmark of localsft: three seeded closed-loop workloads, one client.

Run from the root of a checkout:

    python3 bench/run.py --workload algebra_dense --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --record     # re-record bench/reference.json

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, measured by alternating
untraced and traced passes over a fixed prefix of the run's instances (see
``tracer.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries run details and the exact work counters of one round of instances.
Every operation's output is checked against the digest recorded for its
input in ``reference.json`` and against the known values in
``workloads.py``; any mismatch or exception counts as a failed operation
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LAYERS = ("orbits", "covers", "algebra", "potentials", "exceptional", "config", "cli")

# pool: instances with recorded references; per_run: instances a run uses,
# drawn from the pool by the seed; trace: instances in one traced pass
PLAN = {
    "algebra_dense": {"pool": 96, "per_run": 24, "trace": 4},
    "compose_chain": {"pool": 256, "per_run": 64, "trace": 16},
    "cli_session": {"pool": 32, "per_run": 4, "trace": 1},
}
SETUP_REPEATS = 3
# counted by the benchmark at its own boundary with cli: it captures stdout
CLI_COUNTS = {"stdout_bytes": "cli.stdout_bytes", "exit_nonzero": "cli.exit_nonzero"}


class Layer:
    """Stable handle on one layer module; traced passes point it at a proxy."""

    def __init__(self, module):
        self.target = module

    def __getattr__(self, name):
        return getattr(self.target, name)


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> dict:
    """Import localsft from this checkout's ``src``, never from elsewhere."""
    package = SRC / "localsft"
    if not (package / "__init__.py").is_file():
        fail_setup(f"no localsft sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"localsft.{name}") for name in LAYERS}
    if Path(modules["cli"].__file__).resolve().parent != package.resolve():
        fail_setup("localsft was imported from outside this checkout")
    return modules


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup(workload: str, seed: int, reference_path: Path):
    """Import, generate the run's inputs and load their reference digests."""
    modules = import_library()
    import workloads

    api = {name: Layer(module) for name, module in modules.items()}
    plan = PLAN[workload]
    pool_ids = random.Random(seed).sample(range(plan["pool"]), plan["per_run"])
    OUT.mkdir(exist_ok=True)
    build = workloads.WORKLOADS[workload]
    client = SimpleNamespace(**api)
    try:
        instances = [(pid, build(client, pid, OUT)) for pid in pool_ids]
    except workloads.SetupError as exc:
        fail_setup(str(exc))
    reference = json.loads(reference_path.read_text())["workloads"][workload]
    return api, instances, reference


class Run:
    """Executes operations, checks their outputs and tallies failures."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def execute(self, pid, op, tracer=None):
        """Time one operation and check it; returns (seconds, digest, counters).

        With a ``tracer``, spans are recorded during the call only.
        """
        self.attempted += 1
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            raw = op.call()
        except Exception:
            self.failed += 1
            print(f"bench: {pid}/{op.name} raised\n{traceback.format_exc()}", file=sys.stderr)
            return time.perf_counter() - start, None, {}
        finally:
            if tracer:
                tracer.active = False
        elapsed = time.perf_counter() - start
        text, problems, counters = op.finish(raw)
        got = digest(text)
        want = self.reference.get(str(pid), {}).get(op.name)
        if got != want:
            problems = problems + [f"digest {got} != reference {want}"]
        if problems:
            self.failed += 1
            print(f"bench: {pid}/{op.name} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, got, counters


def add_counts(total: dict, counters: dict) -> None:
    for key, value in counters.items():
        total[key] = total.get(key, 0) + value


def measure(run: Run, instances, seconds: float):
    """Closed loop over whole instances until ``seconds`` have passed.

    At least one full round of instances runs, so the work counters of the
    first round are exact whatever the machine's speed.
    """
    latencies: list[float] = []
    instance_times: list[float] = []
    work: dict[str, int] = {}
    digests = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        pid, ops = instances[i % len(instances)]
        busy = 0.0
        for op in ops:
            elapsed, got, counters = run.execute(pid, op)
            latencies.append(elapsed)
            busy += elapsed
            if i < len(instances):
                add_counts(work, counters)
                digests.append(got or "-")
        instance_times.append(busy)
        i += 1
        if i >= len(instances) and time.perf_counter() >= deadline:
            break
    return latencies, instance_times, work, digests


def end_to_end(run, instances, seconds, setup_s):
    latencies, instance_times, work, digests = measure(run, instances, seconds)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    ops_per_instance = len(instances[0][1])
    metrics = {
        # every instance has the same operations; the median instance time
        # keeps a burst of machine noise from moving the throughput
        "ops_per_s": ops_per_instance / statistics.median(instance_times),
        "op_p50_ms": p50 * 1000,
        "op_p90_ms": p90 * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "instances_run": len(instance_times),
        "ops_per_instance": ops_per_instance,
        "samples": len(latencies),
        "samples_above_p90": sum(1 for x in latencies if x > p90),
        "work_per_round": work,
        "round_output_digest": digest(" ".join(digests)),
    }
    return metrics, details


def traced(run, api, instances, seconds, workload, seed):
    """Per-layer metrics from alternating untraced and traced passes."""
    from tracer import Tracer

    tracer = Tracer()
    proxies = tracer.client()
    prefix = instances[:PLAN[workload]["trace"]]
    summaries, ratios = [], []
    deadline = time.perf_counter() + seconds

    def run_pass(record: bool) -> float:
        total = 0.0
        for op_id, (pid, op) in enumerate((pid, op) for pid, ops in prefix for op in ops):
            tracer.op_id = op_id
            elapsed, _, counters = run.execute(pid, op, tracer if record else None)
            total += elapsed
            if record:
                for key, name in CLI_COUNTS.items():
                    tracer.counts[name] = tracer.counts.get(name, 0) + counters.get(key, 0)
        return total

    while True:
        plain = run_pass(False)
        tracer.start_pass()
        tracer.install()
        for name, layer in api.items():
            layer.target = proxies[name]
        try:
            recorded = run_pass(True)
        finally:
            for name, layer in api.items():
                layer.target = tracer.modules[name]
            tracer.uninstall()
        if not summaries:
            tracer.write(OUT / f"spans-{workload}-{seed}.tsv")
        summaries.append(tracer.summary())
        ratios.append(recorded / plain)
        if time.perf_counter() >= deadline:
            break

    first = summaries[0]
    keys = set().union(*summaries)
    metrics = {}
    for key in keys:
        values = [s.get(key, 0) for s in summaries]
        # times vary from pass to pass; calls and work counts repeat exactly
        metrics[key] = statistics.median(values) if key.endswith("self_s") else first.get(key, 0)
        if not key.endswith("self_s") and len(set(values)) > 1:
            print(f"bench: count {key} differs between traced passes: {values}",
                  file=sys.stderr)
    pairs = metrics.get("algebra.multiply.pairs", 0)
    metrics["algebra.multiply.yield"] = (
        metrics.get("algebra.multiply.terms_out", 0) / pairs if pairs else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    details = {"traced_passes": len(summaries), "instances_per_pass": len(prefix),
               "spans_per_pass": len(tracer.spans)}
    return metrics, details


def time_setups(workload: str, seed: int, reference_path: Path) -> float:
    """Median wall time of fresh processes doing only the set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--reference", str(reference_path), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail_setup(f"set-up process failed:\n{proc.stderr}")
    return statistics.median(samples)


def record(reference_path: Path) -> None:
    """Run every pool instance once and store the digest of each output."""
    modules = import_library()
    import workloads

    api = SimpleNamespace(**modules)
    OUT.mkdir(exist_ok=True)
    result = {}
    for name, plan in PLAN.items():
        per_instance = {}
        for pid in range(plan["pool"]):
            digests = {}
            for op in workloads.WORKLOADS[name](api, pid, OUT):
                text, problems, _ = op.finish(op.call())
                if problems:
                    fail_setup(f"{name} {pid}/{op.name}: known-value check failed: {problems}")
                digests[op.name] = digest(text)
            per_instance[str(pid)] = digests
        result[name] = per_instance
        print(f"recorded {name}: {plan['pool']} instances", file=sys.stderr)
    reference_path.write_text(json.dumps({"workloads": result}, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up and exit (used to time set-up)")
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference digests of every pool instance")
    args = parser.parse_args(argv)
    if args.record:
        record(args.reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail_setup(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    api, instances, reference = setup(args.workload, args.seed, args.reference)
    if args.setup_only:
        return 0
    run = Run(reference)
    if args.trace:
        values, details = traced(run, api, instances, args.seconds, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        setup_s = time_setups(args.workload, args.seed, args.reference)
        values, details = end_to_end(run, instances, args.seconds, setup_s)
        wanted = spec["end_to_end"]
    details.update({"workload": args.workload, "seed": args.seed,
                    "pool_ids": [pid for pid, _ in instances],
                    "ops_failed_ratio": run.failed / run.attempted})
    print(json.dumps(details, sort_keys=True))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
