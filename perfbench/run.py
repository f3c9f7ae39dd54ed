"""hdyson benchmark: four workloads, end-to-end metrics, traced layer metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
`src/`; nothing is installed).  NAME is one of tree_evolve, thermo_sweep,
manybody_l16, cli_runs, or `all` to run each in turn.  Every workload runs
in its own fresh, single-threaded process (closed loop, one client: the
next step starts when the previous one returns); `cli_runs` runs its CLI
commands as sequential child processes.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run (see tracer.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
metric names and units of BENCHMARK.json.  The lines before it are the
host record (with a host-speed probe taken before and after the
workload), the sample counts and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree_evolve", "thermo_sweep", "manybody_l16", "cli_runs")
# fresh interpreters that only set up, besides the measuring one; the
# L = 16 set-up builds a 2^16 Hamiltonian and evolves one interval (~3 s)
SETUP_PROBES = {"manybody_l16": 2}
DEFAULT_SETUP_PROBES = 4
DEADLINE_S = 170.0
# One BLAS thread keeps every workload a single-threaded process.  With two
# (nproc on the 2-vCPU reference host) manybody_l16 ran no faster, spent
# twice the CPU time in spinning BLAS threads and spread twice as wide.
BLAS_THREADS = 1
# Host-speed probe: a bare np.exp over 2^14 complex points (the core of a
# thermo_sweep step), timed before and after each workload.  The metrics
# are not scaled by it.  A run whose probe moved by more than PROBE_FLAG,
# the tightest timing bound, is flagged: its figures mix two host speeds.
PROBE_POINTS = 1 << 14
PROBE_S = 0.5
PROBE_FLAG = 0.25


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HDYSON_THREADS", None)  # library default: one worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Run a worker; seconds from spawn to its `ready` line, and its stdout lines."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    ready_s = None
    lines: list[str] = []
    pending = b""
    fd = proc.stdout.fileno()
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("worker overran the benchmark deadline")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            pending += chunk
            *complete, pending = pending.split(b"\n")
            for raw in complete:
                line = raw.decode()
                if line == "ready" and ready_s is None:
                    ready_s = time.perf_counter() - start
                lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        proc.stdout.close()
        _stop(proc)
    if code != 0 or ready_s is None:
        raise BenchError(f"worker {' '.join(argv[2:6])} exited with code {code}")
    return ready_s, lines


def load_spec() -> dict:
    """Metric name -> unit for `end_to_end` and `per_layer`, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def host_probe_us() -> float:
    """Median microseconds of one np.exp over PROBE_POINTS complex points."""
    z = np.exp(1j * np.linspace(0.0, 10.0, PROBE_POINTS))
    samples = []
    stop = time.perf_counter() + PROBE_S
    while time.perf_counter() < stop:
        start = time.perf_counter()
        np.exp(z)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _importtime(env: dict, deadline: float, repeats: int = 3) -> dict:
    """Median import times of `hdyson.cli` over fresh `-X importtime` runs."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hdyson.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError("import hdyson.cli failed")
        samples.append(tracing.parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _cache_sizes() -> dict:
    sizes = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return sizes
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            sizes[parts[0].split("_")[0].lower().replace("level", "l")] = int(parts[1])
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_record(seed: int) -> dict:
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes_per_core": caches.get("l2"),
        "l3_bytes": caches.get("l3"),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "HDYSON_THREADS": "unset (1 worker)",
        "blas_threads_cap": BLAS_THREADS,
        "seed": seed,
    }


def _cache_note(sizes: dict, host: dict) -> str:
    largest = max((v for k, v in sizes.items() if k.endswith("_bytes")), default=0)
    l2, l3 = host["l2_bytes_per_core"], host["l3_bytes"]
    if not largest or not l2 or not l3:
        return "cache sizes unknown"
    mib = 2 ** 20
    place = ("fits in L2" if largest <= l2 else
             "exceeds L2, fits in L3" if largest <= l3 else "exceeds L3")
    note = f"largest array {largest / mib:.2f} MiB vs L2 {l2 / mib:.0f} MiB, L3 {l3 / mib:.0f} MiB: {place}"
    if largest < 4 * l3:
        note += "; not a DRAM-bandwidth measurement"
    return note


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 host: dict, units: dict) -> tuple[dict, dict]:
    """(result, details) for one workload; `units` maps each metric to its unit."""
    deadline = time.monotonic() + DEADLINE_S
    probe_start = host_probe_us()
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", name,
              "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
    try:
        setup_samples = []
        if trace:
            (workdir / "importtime.json").write_text(json.dumps(_importtime(env, deadline)))
            worker += ["--trace", "--trace-out", str(base / f"trace-{name}-seed{seed}.json")]
        else:
            for _ in range(SETUP_PROBES.get(name, DEFAULT_SETUP_PROBES)):
                setup_samples.append(_spawn(worker + ["--setup-only"], env, deadline)[0])
        ready_s, lines = _spawn(worker, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_end = host_probe_us()
    setup_samples.append(ready_s)
    raw = json.loads(lines[-1])

    steps = raw["steps_ms"]
    details = {
        "workload": name,
        "sizes": raw["sizes"],
        "cache_note": _cache_note(raw["sizes"], host),
        "samples": {"setup": len(setup_samples), "passes": len(raw["pass_wall_s"]),
                    "steps": len(steps)},
        "failures": raw["failures"],
        "host_probe_us": {"start": probe_start, "end": probe_end,
                          "change": probe_end / probe_start - 1.0},
        "raw": {"setup_s": setup_samples, "pass_wall_s": raw["pass_wall_s"],
                "pass_cpu_s": raw["pass_cpu_s"], "steps_ms": steps},
    }
    fail_ratio = raw["failed"] / max(raw["attempted"], 1)
    if trace:
        metrics = raw["per_layer"]
        details["samples"]["traced_passes"] = raw["traced_passes"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(raw["pass_wall_s"]),
            "step_p50_ms": statistics.median(steps),
            "step_p90_ms": _quantile(steps, 90),
            "cpu_s": statistics.median(raw["pass_cpu_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "pass_ratio": 1.0 - fail_ratio,
        }
        if len(steps) < 100:
            details["step_p90_note"] = (
                f"p90 of {len(steps)} steps: fewer than 100 samples, so fewer "
                "than ten lie beyond it")
    if set(metrics) != set(units):
        raise BenchError(f"{name} gave metrics {sorted(set(metrics) ^ set(units))} "
                         "that differ from BENCHMARK.json")
    details["fail_ratio"] = fail_ratio
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, details


def _print_table(result: dict, details: dict) -> None:
    name = details["workload"]
    samples = details["samples"]
    print(f"{name}: {samples['steps']} steps in {samples['passes']} passes, "
          f"{samples['setup']} set-up samples; fail_ratio = {details['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} checks)")
    for metric, entry in result["metrics"].items():
        print(f"  {name:13s} {metric:48s} {entry['value']:>16.6g} {entry['unit']}")
    if "step_p90_note" in details:
        print(f"  note: {details['step_p90_note']}")
    probe = details["host_probe_us"]
    if abs(probe["change"]) > PROBE_FLAG:
        print(f"  note: host speed probe went from {probe['start']:.0f} to "
              f"{probe['end']:.0f} us during this run; its figures mix two host speeds")
    for failure in details["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hdyson" / "__init__.py").is_file():
        print(f"error: no hdyson source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _worker_env()
    host = host_record(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        units = load_spec()["per_layer" if args.trace else "end_to_end"]
        for name in names:
            result, details = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), env, host, units)
            print(json.dumps({"host": host, **details}))
            _print_table(result, details)
            results.append((name, result))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{key}": entry for name, r in results
                        for key, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
