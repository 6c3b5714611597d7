"""topokit benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout; topokit is imported from ``src/``.
Each workload is a closed loop with one client, one process and one thread:
an operation starts only when the previous one has returned and its output
has been stored.  Outputs are checked after each pass, outside the timed
region, and an operation that raised or failed its check is counted in
``failed`` instead of ending the run.

Every time is scaled to the host's quiet speed by the reference kernel in
``reference.py``, run before each pass, after it and whenever 0.2 s of
operations have passed since its last run: a time measured between two
kernel runs is multiplied by ``REFERENCE_S`` over their mean.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over the
passes of one pass over the workload's operations), ``op_p50_ms`` and
``op_tail_ms`` (per-operation latency, each operation's latency being the
median of its runs; the tail is the highest latency with at least 10
operations beyond it, or the maximum when there are fewer than 21
operations), ``setup_s`` (median of several complete set-ups, each importing
topokit afresh) and ``peak_rss_mb``.  ``attempted`` counts every operation
run.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracer.py``), together with the
tracing overhead.  Traced outputs must equal untraced ones field for field.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the run's details (passes, failure ratio, per-instance records).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import complex_pair_h2
from reference import REFERENCE_S, Reference
from tracer import Tracer
from workloads import WORKLOADS, load_library

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats: at least SETUP_MIN_RUNS, then until SETUP_BUDGET_S have
# been spent, at most SETUP_MAX_RUNS
SETUP_MIN_RUNS = 5
SETUP_BUDGET_S = 2.0
SETUP_MAX_RUNS = 25


@dataclass
class Failed:
    """Stands in for the output of an operation that raised."""

    error: str


@dataclass
class Pass:
    """One pass; ``begin_s``, ``latencies`` and ``wall_s`` are scaled times."""

    begin_s: float
    latencies: list
    outputs: list
    raw_wall_s: float
    scale: float  # the median factor over the pass, for the tracer's times

    @property
    def wall_s(self) -> float:
        return self.begin_s + sum(self.latencies)


def tail(values):
    """Highest order statistic with at least 10 samples above it (the maximum
    when there are too few samples for that to lie above the median)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 21 else ordered[-1]


def run_pass(workload, reference, tracer=None) -> Pass:
    if tracer is not None:
        tracer.instance = getattr(workload, "instance", "")
    outputs, latencies, marks = [], [], []
    opening = mark = reference.sample()
    start = perf_counter()
    broken = None
    try:
        workload.begin_pass()
    except Exception as exc:  # every operation of the pass fails with it
        broken = Failed(repr(exc))
    begin_s = perf_counter() - start
    for item in workload.items:
        if reference.due():
            mark = reference.sample()
        if tracer is not None:
            tracer.instance = item.instance
        t0 = perf_counter()
        if broken is None:
            try:
                out = workload.run(item)
            except Exception as exc:
                out = Failed(repr(exc))
        else:
            out = broken
        latencies.append(perf_counter() - t0)
        marks.append(mark)
        outputs.append(out)
    closing = reference.sample()
    # the kernel runs are numbered in order, so the one after ``m`` is ``m + 1``
    scaled = [t * reference.scale(m, m + 1) for t, m in zip(latencies, marks)]
    scale = REFERENCE_S / statistics.median(reference.times[opening : closing + 1])
    return Pass(begin_s * reference.scale(opening, opening + 1), scaled, outputs, begin_s + sum(latencies), scale)


def passed(workload, item, out) -> bool:
    if isinstance(out, Failed):
        return False
    try:
        return bool(workload.check(item, out))
    except Exception:
        return False


def normalised(workload, item, out):
    if isinstance(out, Failed):
        return out
    try:
        return workload.normalise(item, out)
    except Exception as exc:
        return Failed(repr(exc))


def set_up(name, seed, workdir, tiny, reference=None):
    """Build the workload several times; the last build is the one used."""
    reference = reference or Reference()
    times = []
    before = reference.sample()
    while len(times) < SETUP_MIN_RUNS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_RUNS):
        start = perf_counter()
        workload = WORKLOADS[name](load_library(), tiny)
        workload.setup(seed, workdir)
        elapsed = perf_counter() - start
        after = reference.sample()
        times.append(elapsed * reference.scale(before, after))
        before = after
    workload.prepare_checks()
    return workload, statistics.median(times)


def measure(name, seed, seconds, trace, workdir, tiny=False):
    """Run one workload; returns (details, result) as printed by ``main``."""
    reference = Reference()
    workload, setup_s = set_up(name, seed, workdir, tiny, reference)
    if trace:
        return measure_traced(workload, reference, seconds)
    passes = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        run = run_pass(workload, reference)
        passes.append(run)
        attempted += len(run.outputs)
        failed += sum(not passed(workload, i, o) for i, o in zip(workload.items, run.outputs))
        run.outputs = None  # checked; holding them would inflate peak_rss_mb
    # Each operation runs once per pass; its latency is the median of its runs.
    latencies = [statistics.median(op) for op in zip(*(run.latencies for run in passes))]
    metrics = {
        "wall_s": (statistics.median(run.wall_s for run in passes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail(latencies) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "operations": len(latencies),
        "passes": len(passes),
        "raw_pass_wall_s": [round(run.raw_wall_s, 4) for run in passes],
        "pass_wall_s": [round(run.wall_s, 4) for run in passes],
        "reference_ms": round(statistics.median(reference.times) * 1000, 3),
        "op_ms": [round(x * 1000, 3) for x in latencies],
    }
    return details, result(attempted, failed, metrics)


def measure_traced(workload, reference, seconds):
    untraced, traced = [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        tracer = Tracer() if len(untraced) > len(traced) else None
        if tracer is None:
            run = run_pass(workload, reference)
            untraced.append(run)
        else:
            with tracer:
                run = run_pass(workload, reference, tracer)
            traced.append((run, tracer))
        attempted += len(run.outputs)
        bad = set()
        if tracer is not None:
            # a restricted presentation has exactly h2(selected) generators
            for instance, cx, colors, gens in tracer.restrictions:
                if gens != complex_pair_h2(cx.facets, cx.coloring, colors):
                    bad.add(instance)
        first_outputs = untraced[0].outputs
        for item, out, ref in zip(workload.items, run.outputs, first_outputs):
            ok = passed(workload, item, out) and item.instance not in bad
            if tracer is not None:
                ok = ok and normalised(workload, item, out) == normalised(workload, item, ref)
            failed += not ok
        if run is not untraced[0]:
            run.outputs = None

    first = traced[0][1]
    counted = first.metrics()
    per_pass = [(r.scale, t.metrics()) for r, t in traced]
    metrics = {}
    for key, value in counted.items():
        is_time = key.endswith(".s") or key.endswith(".self_s")
        if is_time:
            value = statistics.median(scale * m[key] for scale, m in per_pass)
        metrics[key] = (value, "s" if is_time else ("ratio" if key.endswith("_ratio") else "count"))
    overhead = statistics.median(r.wall_s for r, _ in traced) - statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    details = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "instances": {
            label: {
                "f_vector": workload.f_vectors.get(label),
                "snf_shapes": rec.snf_shapes,
                "layer_self_s": {k: round(v, 6) for k, v in rec.layer_self_s.items()},
            }
            for label, rec in first.instances.items()
            if label
        },
    }
    return details, result(attempted, failed, metrics)


def result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "topokit" / "__init__.py").is_file():
        print(f"error: no topokit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        details, out = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    details["failed_ratio"] = out["failed"] / out["attempted"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
