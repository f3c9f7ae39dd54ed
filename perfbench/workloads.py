"""The four benchmark workloads.

Each workload builds its inputs from a seeded generator, runs its fixed
body of work ("pass") one step at a time, and checks every result against
an oracle.  Step latencies cover the library calls only; checks run
between steps, untimed.  A failing check counts as a failure; its step
still counts as a sample.  Sizes are fixed: every seed does the same work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


class Recorder:
    """Timed work, check outcomes and health numbers of one run.

    Only timed library calls (the steps, plus calls that are not steps
    such as thermo_sweep's `time_average`) count towards a pass's wall and
    CPU time; checks between them do not.
    """

    def __init__(self):
        self.steps_ms: list[float] = []
        self.pass_wall_s: list[float] = []
        self.pass_cpu_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.health: dict[str, float] = {}

    def begin_pass(self) -> None:
        self.pass_wall_s.append(0.0)
        self.pass_cpu_s.append(0.0)

    def work(self, wall: float, cpu: float, step: bool = True) -> None:
        self.pass_wall_s[-1] += wall
        self.pass_cpu_s[-1] += cpu
        if step:
            self.steps_ms.append(wall * 1e3)

    def timed(self, fn, *args, step: bool = True, **kwargs):
        cpu0 = rusage_cpu()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.work(time.perf_counter() - start, rusage_cpu() - cpu0, step)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def worst(self, name: str, value: float, higher_is_worse: bool = True) -> None:
        old = self.health.get(name)
        if old is None or (value > old if higher_is_worse else value < old):
            self.health[name] = float(value)


def rusage_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class TreeEvolve:
    """Exact O(L) tree evolution at N = 20: nearly all time in `oracle`.

    A step is one batch of two seeded times in [0, 40] through
    `fast_evolve_series` from the site-1 delta, `fast_apply` on the last
    evolved row, and a `tree_transform` / `inverse_tree_transform` round
    trip of a seeded normalised random vector.
    """

    N = 20
    BATCH = 2
    T_MAX = 40.0
    STEPS_PER_PASS = 6
    SITES_PER_SHELL = 64

    def __init__(self, rng: np.random.Generator):
        import hdyson as hd

        self.hd = hd
        self.rng = rng
        self.params = hd.ModelParams(hd.TreeGeometry(self.N))
        length = self.params.geom.length
        self.delta = np.zeros(length, dtype=complex)
        self.delta[0] = 1.0
        u = rng.normal(size=length) + 1j * rng.normal(size=length)
        self.u = u / np.linalg.norm(u)
        self.energy0 = float(np.sum(np.conj(self.delta) * hd.fast_apply(self.params, self.delta)).real)
        # up to SITES_PER_SHELL evenly spread sites of each shell r >= 1
        # (sites 2^(r-1)+1 .. 2^r) are compared with psi_finite(r, t)
        self.check_sites = np.concatenate([[0]] + [
            np.unique(np.linspace(1 << (r - 1), (1 << r) - 1, self.SITES_PER_SHELL).astype(int))
            for r in range(1, self.N + 1)
        ])
        self.check_shells = np.concatenate([[0]] + [
            np.full(min(self.SITES_PER_SHELL, 1 << (r - 1)), r) for r in range(1, self.N + 1)
        ])

    @classmethod
    def sizes(cls) -> dict:
        length = 1 << cls.N
        return {"L": length, "vector_bytes": 16 * length,
                "series_bytes_per_step": 16 * length * cls.BATCH}

    def _call(self, times):
        hd = self.hd
        rows = hd.fast_evolve_series(self.params, times, self.delta)
        h_row = hd.fast_apply(self.params, rows[-1])
        back = hd.inverse_tree_transform(hd.tree_transform(self.u))
        return rows, h_row, back

    def warm_up(self) -> None:
        self._call(self.rng.uniform(0.0, self.T_MAX, self.BATCH))

    def run_pass(self, rec: Recorder) -> None:
        hd = self.hd
        for _ in range(self.STEPS_PER_PASS):
            times = self.rng.uniform(0.0, self.T_MAX, self.BATCH)
            rows, h_row, back = rec.timed(self._call, times)
            for t, row in zip(times, rows):
                shells = np.array([hd.psi_finite(r, t, self.params) for r in range(self.N + 1)])
                err = float(np.max(np.abs(row[self.check_sites] - shells[self.check_shells])))
                rec.worst("oracle.max_abs_err", err)
                rec.check(err <= 1e-10, f"shell amplitudes vs psi_finite at t={t}: {err:.3e}")
                # plain ufunc sums: a BLAS call here would leave OpenBLAS
                # threads spinning and inflate the measured CPU time
                norm_err = abs(math.sqrt(float(np.sum(row.real**2 + row.imag**2))) - 1.0)
                rec.check(norm_err <= 1e-10, f"norm error at t={t}: {norm_err:.3e}")
            energy_err = abs(float(np.sum(np.conj(rows[-1]) * h_row).real) - self.energy0)
            rec.check(energy_err <= 1e-10, f"<psi|H|psi> drift at t={times[-1]}: {energy_err:.3e}")
            round_trip = float(np.max(np.abs(back - self.u)))
            rec.worst("oracle.max_abs_err", round_trip)
            rec.check(round_trip <= 1e-13 * float(np.max(np.abs(self.u))),
                      f"tree transform round trip: {round_trip:.3e}")


class ThermoSweep:
    """Criterion-4-style sweep of the thermodynamic series: all `analytic`.

    A step is one `psi_thermo` call on a 2^14-point chunk of a long time
    axis at a seeded offset; a pass covers r = 0..20 for each sigma, then
    `time_average` for r = 0..5 at sigma = 1 over seeded horizons with a
    fixed number of grid points (those calls are in the pass, not steps).
    """

    SIGMAS = (0.5, 1.0, 2.0)
    R_MAX = 20
    CHUNK = 1 << 14
    DT = 0.01
    T_OFFSET_MAX = 1e4
    AVG_SIGMA = 1.0
    AVG_R = range(6)
    COLLAPSE_STRIDE = 16

    def __init__(self, rng: np.random.Generator):
        import hdyson as hd

        self.hd = hd
        self.rng = rng
        self.grid = np.arange(self.CHUNK) * self.DT

    @classmethod
    def sizes(cls) -> dict:
        return {"chunk_points": cls.CHUNK, "chunk_bytes": 16 * cls.CHUNK,
                "time_average_points": sum(100 * 100 * 2**r for r in cls.AVG_R)}

    def warm_up(self) -> None:
        self.hd.psi_thermo(1, self.rng.uniform(0.0, self.T_OFFSET_MAX) + self.grid, 1.0)

    def run_pass(self, rec: Recorder) -> None:
        hd = self.hd
        for sigma in self.SIGMAS:
            t = self.rng.uniform(0.0, self.T_OFFSET_MAX) + self.grid
            sub = t[:: self.COLLAPSE_STRIDE]
            suffix = np.zeros(t.size)
            for r in range(self.R_MAX, -1, -1):
                amp = rec.timed(hd.psi_thermo, r, t, sigma)
                if r <= 8:
                    peak = float(np.max(np.abs(amp)))
                    rec.check(peak <= 2.0 ** (1 - r),
                              f"|psi({r})| = {peak:.3e} above 2^(1-r) at sigma={sigma}")
                if r == 0:
                    continue
                suffix += 2.0 ** (r - 1) * np.abs(amp) ** 2
                if r - 1 <= 8:
                    margin = 2.0 ** (2 - r) - float(np.max(suffix))
                    rec.worst("analytic.bound_margin", margin, higher_is_worse=False)
                    rec.check(margin >= 0.0, f"tail bound R={r - 1} sigma={sigma}: {margin:.3e}")
                rhs = hd.scaling_function(sub * 2.0 ** (-sigma * r), sigma)
                residual = float(np.max(np.abs(2.0 ** r * amp[:: self.COLLAPSE_STRIDE] - rhs)))
                rec.worst("analytic.collapse_residual", residual)
                rec.check(residual <= 4.0 * 2.0 ** -64,
                          f"collapse residual r={r} sigma={sigma}: {residual:.3e}")
        for r in self.AVG_R:
            points = 100 * 100 * 2 ** r
            horizon = 100.0 * 2.0 ** (r * self.AVG_SIGMA) * self.rng.uniform(1.0, 1.1)
            value = rec.timed(hd.time_average, r, horizon, self.AVG_SIGMA,
                              dt=horizon / points, step=False)
            target = hd.closed_form_average(r)
            rel = abs(value - target) / target
            rec.worst("analytic.timeavg_rel_err", rel)
            rec.check(rel <= 0.02, f"time average r={r}: relative error {rel:.3e}")


class ManybodyL16:
    """Exact 2^16-dimensional evolution at L = 16, h = 40, sigma = 1.

    A step is one output interval of seeded length in [0.004, 0.006]: one
    `evolve_spin(compute_entropy=True)` call continuing from the previous
    state.  At this field one adaptive Lanczos step covers the interval.
    """

    L = 16
    FIELD = 40.0
    STEPS_PER_PASS = 1
    DT_RANGE = (0.004, 0.006)

    def __init__(self, rng: np.random.Generator):
        import hdyson as hd
        from hdyson import manybody

        self.hd = hd
        self.mb = manybody
        self.rng = rng
        params = hd.ModelParams(hd.TreeGeometry.from_length(self.L), J=1.0,
                                sigma=1.0, h=self.FIELD)
        self.hamiltonian = hd.build_spin_hamiltonian(params)
        amps = rng.normal(size=self.L) + 1j * rng.normal(size=self.L)
        self.psi = hd.one_defect_state(amps / np.linalg.norm(amps)).amplitudes
        self.energy0 = manybody.energy_expectation(self.psi, self.hamiltonian)
        self.parity0 = manybody.spin_parity_expectation(self.psi)

    @classmethod
    def sizes(cls) -> dict:
        dim = 1 << cls.L
        nnz = dim * (cls.L * (cls.L - 1) // 2 + 1)
        return {"dimension": dim, "state_bytes": 16 * dim,
                "hamiltonian_nnz": nnz, "hamiltonian_bytes": nnz * 12 + 4 * (dim + 1)}

    def _interval(self):
        dt = self.rng.uniform(*self.DT_RANGE)
        series = self.hd.evolve_spin(self.hamiltonian, self.hd.SpinState(self.psi), [dt],
                                     compute_entropy=True, keep_states=True)
        self.psi = series.states[-1]
        return series

    def warm_up(self) -> None:
        self._interval()

    def run_pass(self, rec: Recorder) -> None:
        for _ in range(self.STEPS_PER_PASS):
            series = rec.timed(self._interval)
            norm_drift = abs(float(series.norms[-1]) - 1.0)
            energy_drift = abs(float(series.energies[-1]) - self.energy0) / abs(self.energy0)
            parity_drift = abs(self.mb.spin_parity_expectation(self.psi) - self.parity0)
            excitation = abs(float(series.total[-1]) - 1.0)
            rec.worst("manybody.norm_drift", norm_drift)
            rec.worst("manybody.energy_drift", energy_drift)
            rec.check(norm_drift <= 1e-8, f"norm drift {norm_drift:.3e}")
            rec.check(energy_drift <= 1e-8, f"relative energy drift {energy_drift:.3e}")
            rec.check(parity_drift <= 1e-8, f"spin parity drift {parity_drift:.3e}")
            rec.check(excitation < 0.01, f"|N(t) - 1| = {excitation:.3e}")


# label, argv after `python -m hdyson.cli`; the README commands at fixed sizes
CLI_RUNS = [
    ("spectrum", ["spectrum", "--N", "10", "--out", "spectrum.csv"]),
    ("evolve_thermo", ["evolve", "--mode", "thermo", "--tmax", "40", "--dt", "0.05",
                       "--rmax", "10", "--out", "evolve_thermo.csv"]),
    ("evolve_fast", ["evolve", "--mode", "fast", "--N", "14", "--out", "evolve_fast.csv"]),
    ("collapse", ["collapse", "--rmin", "1", "--rmax", "8", "--tmax", "6",
                  "--out", "collapse.csv"]),
    ("timeavg", ["timeavg", "--out", "timeavg.csv"]),
    ("manybody", ["manybody", "--L", "8", "--out", "manybody"]),
    ("entropy", ["entropy", "--mode", "single", "--N", "8", "--out", "entropy.csv"]),
]
CLI_MANIFESTS = {
    label: (argv[argv.index("--out") + 1]) + ".manifest.json" for label, argv in CLI_RUNS
}


def _parse_table(path: Path) -> str | None:
    """None when every row of a CSV table re-parses to finite numbers."""
    lines = path.read_text().splitlines()
    if not lines:
        return f"{path.name}: empty"
    width = len(lines[0].split(","))
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != width:
            return f"{path.name}:{lineno}: {len(fields)} fields, header has {width}"
        try:
            values = [float(field) for field in fields]
        except ValueError:
            return f"{path.name}:{lineno}: does not parse"
        if not all(math.isfinite(v) for v in values):
            return f"{path.name}:{lineno}: non-finite value"
    return None


class CliRuns:
    """Fresh-process, sequential `python -m hdyson.cli` runs.

    A step is one invocation, timed from spawn to exit; the seed sets the
    order of the commands in a pass and which command is run again to
    check that repeat runs are byte-identical.  Once `tracer` is set, each
    run goes through clitrace.py, which records spans inside the child.

    A run is a fixed number of passes.  The seven commands differ in cost
    by up to 20x and `collapse` takes most of a pass, so the step
    percentiles interpolate between different commands; one pass more or
    less would move them by half.  --seconds sets the count through a
    nominal pass length, the same on every host.
    """

    NOMINAL_PASS_S = 12.5

    def __init__(self, rng: np.random.Generator, workdir: Path, env: dict):
        import hdyson.cli  # noqa: F401  (set-up cost of this workload)

        self.rng = rng
        self.workdir = workdir
        self.env = env
        self.digests: dict[str, str] = {}
        self.passes = 0
        self.peak_child_rss_mb = 0.0
        self.bytes_written = 0
        self.tracer = None

    @classmethod
    def sizes(cls) -> dict:
        return {"evolve_fast_L": 1 << 14, "evolve_fast_result_bytes": 201 * 16 * (1 << 14),
                "manybody_dimension": 1 << 8}

    @classmethod
    def fixed_passes(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.NOMINAL_PASS_S))

    def warm_up(self) -> None:
        pass

    def _spawn(self, label: str, argv: list[str], cwd: Path, span_file: Path | None):
        if span_file is None:
            cmd = [sys.executable, "-m", "hdyson.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(span_file), label, *argv]
        with open(cwd / f"{label}.stdout", "wb") as out:
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_mb = max(self.peak_child_rss_mb, usage.ru_maxrss / 1024)
        return proc.returncode, usage.ru_utime + usage.ru_stime

    def _outputs(self, label: str, cwd: Path, rec: Recorder) -> dict[str, str] | None:
        """sha256 of each output, after checking that every table re-parses."""
        manifest_path = cwd / CLI_MANIFESTS[label]
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            rec.check(False, f"{label}: manifest does not parse: {exc}")
            return None
        rec.check(True, f"{label}: manifest parses")
        digests = {manifest_path.name: hashlib.sha256(manifest_path.read_bytes()).hexdigest()}
        for name in manifest["outputs"]:
            problem = _parse_table(cwd / name)
            rec.check(problem is None, f"{label}: {problem}")
            digests[name] = hashlib.sha256((cwd / name).read_bytes()).hexdigest()
        if label == "collapse":
            sigma = manifest["config"]["sigma"]
            z_err = abs(manifest["z_estimate"] - sigma) / sigma
            rec.worst("analytic.z_rel_err", z_err)
            rec.check(z_err <= 0.02, f"collapse exponent z relative error {z_err:.3e}")
        return digests

    def _invoke(self, label, argv, cwd, rec, span_file=None, timed=True):
        start = time.perf_counter()
        code, cpu = self._spawn(label, argv, cwd, span_file)
        if timed:
            rec.work(time.perf_counter() - start, cpu)
        rec.check(code == 0, f"{label}: exit code {code}")
        return self._outputs(label, cwd, rec) if code == 0 else None

    def run_pass(self, rec: Recorder) -> None:
        cwd = self.workdir / f"pass{self.passes}"
        cwd.mkdir()
        self.passes += 1
        for index in self.rng.permutation(len(CLI_RUNS)):
            label, argv = CLI_RUNS[index]
            span_file = cwd / f"{label}.spans.json" if self.tracer is not None else None
            digests = self._invoke(label, argv, cwd, rec, span_file)
            if span_file is not None and span_file.exists():
                self.tracer.adopt(json.loads(span_file.read_text()), self.tracer.current)
                span_file.unlink()
            if digests is None:
                continue
            if label in self.digests:
                rec.check(digests == self.digests[label], f"{label}: repeat run differs")
            self.digests[label] = digests
            self.bytes_written += sum((cwd / name).stat().st_size for name in digests)
        shutil.rmtree(cwd)

    def finish(self, rec: Recorder) -> None:
        """Run one seeded command again, untimed, and compare its bytes."""
        label, argv = CLI_RUNS[int(self.rng.integers(len(CLI_RUNS)))]
        cwd = self.workdir / "repeat"
        cwd.mkdir()
        digests = self._invoke(label, argv, cwd, rec, timed=False)
        if digests is not None and label in self.digests:
            rec.check(digests == self.digests[label], f"{label}: repeat run differs")
        shutil.rmtree(cwd)


WORKLOADS = {
    "tree_evolve": TreeEvolve,
    "thermo_sweep": ThermoSweep,
    "manybody_l16": ManybodyL16,
    "cli_runs": CliRuns,
}

