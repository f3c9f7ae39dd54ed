"""One benchmark process: set up one workload, then measure it.

usage: python3 perfbench/worker.py --workload W --seed N --seconds S
                                   --workdir DIR [--setup-only]
                                   [--trace --trace-out FILE]

Prints `ready` once the inputs are built and one untimed warm-up step has
run; the parent times set-up from spawn to that line.  With --setup-only
it exits there.  Otherwise it repeats the workload's pass (its fixed body
of work) until the next pass would end after S seconds, or as many times
as the workload fixes for S, and prints one JSON line with the raw
samples.  With --trace it builds the inputs again and measures untraced
for S/2 seconds, then installs the span tracer, builds the inputs once
more under it and measures traced for S/2 seconds; the per-layer metrics
come from the traced half and the ratio of the two halves' median pass
times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import WORKLOADS, CliRuns, Recorder


def _make(name: str, rng, workdir: Path, env: dict):
    if name == "cli_runs":
        return CliRuns(rng, workdir, env)
    return WORKLOADS[name](rng)


def _measure(workload, rec: Recorder, seconds: float, tracer=None) -> int:
    """Run passes; returns the pass count.

    A workload with `fixed_passes` runs exactly that many for the budget;
    any other runs passes until the next one would end after it.
    """
    fixed = getattr(workload, "fixed_passes", None)
    count = fixed(seconds) if fixed else None
    passes = 0
    start = time.perf_counter()
    while True:
        rec.begin_pass()
        t0 = time.perf_counter()
        index = tracer.begin(tracing.PASS_SPAN) if tracer else None
        try:
            workload.run_pass(rec)
        except Exception as exc:  # a crashing pass is a failed check, not a lost run
            rec.check(False, f"pass raised {type(exc).__name__}: {exc}")
        finally:
            if tracer:
                tracer.end(index)
        passes += 1
        now = time.perf_counter()
        if passes == count or (count is None and now - start + (now - t0) > seconds):
            return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", help="where the traced run writes its spans")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    env = dict(os.environ)

    def fresh():
        """The workload's inputs, built from the seed, after one warm-up step."""
        workload = _make(args.workload, np.random.default_rng(args.seed), workdir, env)
        workload.warm_up()
        return workload

    workload = fresh()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rec = Recorder()
    budget = args.seconds / 2 if args.trace else args.seconds
    if args.trace:
        # both halves run on inputs built after the first set-up: in one
        # process, a rebuilt L = 16 Hamiltonian runs 10-15% faster than the
        # first one, which would otherwise show up as tracing overhead.
        # Dropping the old inputs first keeps one copy in memory.
        workload = None
        workload = fresh()
    _measure(workload, rec, budget)
    result = {
        "steps_ms": list(rec.steps_ms),
        "pass_wall_s": list(rec.pass_wall_s),
        "pass_cpu_s": list(rec.pass_cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sizes": type(workload).sizes(),
    }
    if isinstance(workload, CliRuns):
        result["peak_rss_mb"] = workload.peak_child_rss_mb

    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}")
        tracing.install(tracer)
        digests = getattr(workload, "digests", None)
        # rebuilt under the tracer, so set-up work such as the Hamiltonian
        # build is traced too
        workload = None
        workload = fresh()
        if isinstance(workload, CliRuns):
            workload.tracer = tracer
            workload.digests = digests
        untraced = len(rec.pass_wall_s)
        traced_passes = _measure(workload, rec, budget, tracer)
        overhead = (statistics.median(rec.pass_wall_s[untraced:])
                    / statistics.median(rec.pass_wall_s[:untraced]))
        imports = json.loads(Path(workdir, "importtime.json").read_text())
        bytes_written = getattr(workload, "bytes_written", 0) / traced_passes
        result["per_layer"] = tracing.layer_metrics(
            tracer.spans, traced_passes, rec.health, bytes_written, overhead, imports,
        )
        result["traced_passes"] = traced_passes
        tracer.write(args.trace_out)

    if isinstance(workload, CliRuns):
        workload.finish(rec)
    result.update(attempted=rec.attempted, failed=rec.failed,
                  failures=rec.failures, health=rec.health)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
