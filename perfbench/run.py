"""orb2d benchmark: run one workload, check every answer, print its metrics.

    python3 perfbench/run.py --workload requests --seed 1 --seconds 15 --trace 0

Workloads: catalog, requests, cover_certify, cover_refute (see README.md).
The program is imported from the ``src`` directory beside this one, never
from an installed copy; without it the benchmark exits with code 2.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every time is
given at a fixed reference speed of the machine, measured by a speed probe
around each timed round (see REFERENCE_PROBE_S).  The lines before the
result give the machine, the probe's readings, the same numbers for
people, and with ``--trace 1`` the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Imports timed for setup_s, half before the measured rounds and half
# after, so that the median spans the run.
SETUP_IMPORTS = 30

# This machine's speed swings by half and more within seconds, and a slow
# spell can outlast a whole run, from load the benchmark does not control.
# So every timed round and every timed import runs between two speed
# probes, a fixed pure-Python task, and its time is reported at the
# reference speed, at which the probe takes REFERENCE_PROBE_S:
#   time * REFERENCE_PROBE_S / (mean of the two probes around it).
# The program and the probe slow down together, so this ratio is steady
# where the time alone is not; a change to the program moves it in full.
# 12 ms is about the probe's time in this machine's fast state.
REFERENCE_PROBE_S = 0.012

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

_IMPORT_TIMER = "import time; t = time.perf_counter(); import orb2d; print(time.perf_counter() - t)"


def import_program() -> None:
    """Import orb2d from ROOT/src, or exit with code 2."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import orb2d
    except ImportError as err:
        print(f"perfbench: cannot import orb2d from {src}: {err}", file=sys.stderr)
        sys.exit(2)
    if Path(orb2d.__file__).resolve().parent != src / "orb2d":
        print(f"perfbench: orb2d was imported from {orb2d.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # not a checkout, though a parent directory may be
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pin_to_one_cpu() -> str:
    """Keep this process and every child it starts on one CPU, so that the
    speed probe measures the CPU the timed work runs on."""
    if not hasattr(os, "sched_setaffinity"):
        return "unpinned"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return f"pinned to CPU {cpu}"


def speed_probe() -> float:
    """Seconds for a fixed pure-Python task like the work orb2d does:
    composing permutations as tuples and counting them in a dict, then
    splitting a signature-like text into fields and sorting its numbers."""
    start = perf_counter()
    p = tuple((7 * i + 3) % 24 for i in range(24))
    q = p[::-1]
    seen: dict[tuple, int] = {}
    for _ in range(3000):
        r = tuple(q[x] for x in p)
        seen[r] = seen.get(r, 0) + 1
        p, q = q, r
    text = "N; g=2 ;pun=1;cones=2,3, 5;bdry=m,r(2,3)"
    for _ in range(2000):
        fields = {}
        for part in text.split(";")[1:]:
            key, _, value = part.strip().partition("=")
            fields[key.strip()] = [v.strip() for v in value.split(",")]
        ",".join(sorted(fields["cones"], key=int))
    return perf_counter() - start


class Probes:
    """Speed probes in a chain: each timed piece of work runs between the
    last probe and the next, and is scaled by the mean of the two."""

    def __init__(self):
        self.times = [speed_probe()]

    def scale(self) -> float:
        """Probe again; the factor that brings the work timed since the
        previous probe to the reference speed."""
        self.times.append(speed_probe())
        return 2 * REFERENCE_PROBE_S / (self.times[-2] + self.times[-1])


def time_imports(count: int, probes: Probes) -> list[float]:
    """Times, at the reference speed, for ``count`` fresh interpreters to
    import orb2d."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout) * probes.scale())
    return times


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


class Rounds:
    """A run's rounds, each brought to the reference speed.  For each round
    it keeps the round's time and the nearest-rank p50 and p99 of its
    operations' latencies; the metrics are medians of these over the
    rounds, which are many, so a slow moment moves none of them."""

    def __init__(self):
        self.rounds = []  # without their latencies, which would pile up
        self.scales: list[float] = []
        self.walls: list[float] = []
        self.p50s: list[float] = []
        self.p99s: list[float] = []
        self.layer_s: dict[str, float] = {}  # traced self time, summed over rounds

    def add(self, done, scale: float) -> None:
        self.rounds.append(done._replace(latencies=None))
        self.scales.append(scale)
        self.walls.append(done.wall * scale)
        self.p50s.append(nearest_rank(done.latencies, 50) * scale)
        self.p99s.append(nearest_rank(done.latencies, 99) * scale)

    def round_s(self) -> float:
        return statistics.median(self.walls)

    def rung_s(self, rung: str) -> float:
        """A cover rung's median time over the rounds, or 0 if it never ran."""
        times = [r.rungs[rung] * k for r, k in zip(self.rounds, self.scales) if rung in r.rungs]
        return statistics.median(times) if times else 0.0


def measure(workload, seconds: float, tracer, plain: Rounds, traced: Rounds) -> Probes:
    """Run whole rounds, the workload's distinct rounds in turn, until
    ``seconds`` of rounds and probes.  With a tracer, each untraced round is
    followed by a traced one of the same slot.  Every round starts after a
    full garbage collection, so that no round pays for another's garbage."""
    if workload.warmup:
        workload.run_round()
    probes = Probes()
    spent, count = probes.times[0], 0
    while spent < seconds:
        slot = count % workload.slots
        count += 1
        gc.collect()
        done = workload.run_round(slot=slot)
        plain.add(done, probes.scale())
        spent += done.wall + probes.times[-1]
        if tracer is not None:
            before = dict(tracer.totals)
            gc.collect()
            done = workload.run_round(tracer, slot)
            scale = probes.scale()
            traced.add(done, scale)
            spent += done.wall + probes.times[-1]
            for name, value in tracer.totals.items():
                if name.endswith(".self_s"):
                    delta = (value - before.get(name, 0.0)) * scale
                    traced.layer_s[name] = traced.layer_s.get(name, 0.0) + delta
    return probes


def end_to_end_metrics(plain: Rounds, setup_s: float, self_rss_kb: int) -> dict[str, float]:
    wall = plain.round_s()
    child_rss = [r.rss_kb for r in plain.rounds if r.rss_kb is not None]
    rss_kb = statistics.median(child_rss) if child_rss else self_rss_kb
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "throughput_per_s": plain.rounds[0].ops / wall,
        "latency_p50_ms": 1000 * statistics.median(plain.p50s),
        "latency_p99_ms": 1000 * statistics.median(plain.p99s),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer_units() -> dict[str, str]:
    from tracer import EXTRA_COUNTERS, LAYERS
    from workloads import all_rung_ids

    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update({name: "count" for name in EXTRA_COUNTERS})
    units.update({f"cover.rung.{rung}.s": "s" for rung in all_rung_ids()})
    return units


def per_layer_metrics(tracer, plain: Rounds, traced: Rounds) -> dict[str, float]:
    """Counts and self times (at the reference speed) per traced round; the
    largest SNF matrix; and each cover rung's median time over the
    untraced rounds."""
    metrics = {}
    for name, unit in per_layer_units().items():
        if name.startswith("cover.rung."):
            metrics[name] = plain.rung_s(name[len("cover.rung."):-len(".s")])
        elif name.endswith(".max_cells"):
            metrics[name] = tracer.totals.get(name, 0)
        elif name.endswith(".self_s"):
            metrics[name] = traced.layer_s.get(name, 0.0) / len(traced.rounds)
        else:
            value = tracer.totals.get(name, 0) / len(traced.rounds)
            metrics[name] = int(value) if unit == "count" and value == int(value) else value
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from checks import CheckFailure
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print(f"machine: python {platform.python_version()}, cpu_count {os.cpu_count()}, "
          f"git {git_sha()}, {pin_to_one_cpu()}")
    setup_probes = Probes()
    time_imports(1, setup_probes)  # may write bytecode; not counted
    imports = time_imports(SETUP_IMPORTS // 2, setup_probes)
    workload = workloads.make(args.workload, ROOT, args.seed)
    tracer = Tracer() if args.trace else None
    plain, traced = Rounds(), Rounds()
    try:
        probes = measure(workload, args.seconds, tracer, plain, traced)
    except CheckFailure as err:
        print(f"perfbench: wrong answer: {err}", file=sys.stderr)
        correct = False
    else:
        correct = True
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_probes = Probes()
    imports += time_imports(SETUP_IMPORTS - len(imports), setup_probes)
    setup_s = statistics.median(imports)
    rounds = plain.rounds + traced.rounds
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {len(plain.rounds)} untraced and "
          f"{len(traced.rounds)} traced rounds; attempted {attempted}, failed {failed}")
    probe_ms = [1000 * t for t in probes.times]
    print(f"speed probe {statistics.median(probe_ms):.2f} ms median over the rounds "
          f"({min(probe_ms):.2f} to {max(probe_ms):.2f}; reference {1000 * REFERENCE_PROBE_S:g} ms); "
          f"unscaled round time {statistics.median(r.wall for r in plain.rounds):.6f} s median")
    if tracer is None:
        values = end_to_end_metrics(plain, setup_s, self_rss_kb)
        units = END_TO_END
    else:
        values = per_layer_metrics(tracer, plain, traced)
        units = per_layer_units()
        untraced_s, traced_s = plain.round_s(), traced.round_s()
        print(f"tracing overhead: {traced_s - untraced_s:.6f} s per round "
              f"(wall_s {traced_s:.6f} traced, {untraced_s:.6f} untraced)")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
