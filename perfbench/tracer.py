"""Span tracer for the benchmark's traced runs (standard library only).

Spans live in memory as (name, start, end, parent, attrs) records and are
written out once the run ends.  `install` wraps the public entry points of
the hdyson layers (`oracle`, `analytic`, `manybody`, `cli`) in every module
namespace that binds them, so calls between modules are traced too.  The
thin modules (`spectral`, `geometry`, `profiles`, `_util`) get no spans of
their own: their time lands in the span of the caller, e.g. `eigenvalues`
inside `psi_finite` and `fmt17` inside `write_table`.

`layer_metrics` turns the spans of a run into the per-layer metrics.
Self time is a span's duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc

from workloads import CLI_RUNS

PASS_SPAN = "bench.pass"
HDYSON_MODULES = ("hdyson", "hdyson.oracle", "hdyson.analytic",
                  "hdyson.manybody", "hdyson.cli")

# psi_thermo calls on fewer points than this are overhead-bound ("short").
SHORT_POINTS = 1024

CLI_COMMANDS = tuple(label for label, _ in CLI_RUNS)

HEALTH = ("oracle.max_abs_err", "analytic.collapse_residual", "analytic.z_rel_err",
          "analytic.timeavg_rel_err", "analytic.bound_margin",
          "manybody.norm_drift", "manybody.energy_drift")


class Tracer:
    """Nested spans of one single-threaded process, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._open: list[int] = []

    def begin(self, name: str, attrs: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           {} if attrs is None else attrs])
        self._open.append(index)
        return index

    @property
    def current(self) -> int | None:
        """Index of the innermost open span."""
        return self._open[-1] if self._open else None

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "run": self.run_id, "attrs": attrs}
            for name, start, end, parent, attrs in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.records(), handle)

    def adopt(self, records: list[dict], parent: int) -> None:
        """Append spans recorded by a child process below span `parent`."""
        offset = len(self.spans)
        for record in records:
            local = record["parent"]
            self.spans.append([
                record["name"], record["start"], record["end"],
                parent if local is None else local + offset, record["attrs"],
            ])


# ---------------------------------------------------------------------------
# wrapping the public entry points
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _size(value) -> int:
    return int(getattr(value, "size", 1))


# module, function name, attrs(args, kwargs) computed before the call
_ENTRY_POINTS = [
    ("oracle", "fast_evolve_series",
     lambda a, k: {"sites": _size(_arg(a, k, 1, "times")) * _arg(a, k, 0, "params").geom.length}),
    ("oracle", "fast_evolve",
     lambda a, k: {"sites": _arg(a, k, 0, "params").geom.length}),
    ("oracle", "fast_apply", lambda a, k: {"sites": _size(_arg(a, k, 1, "v"))}),
    ("oracle", "tree_transform", lambda a, k: {"sites": _size(_arg(a, k, 0, "v"))}),
    ("oracle", "inverse_tree_transform",
     lambda a, k: {"sites": _size(_arg(a, k, 0, "coeffs").values)}),
    ("analytic", "psi_thermo", lambda a, k: {"points": _size(_arg(a, k, 1, "t"))}),
    ("analytic", "psi_finite", lambda a, k: {"points": _size(_arg(a, k, 1, "t"))}),
    # its points are those of the psi_thermo calls it makes (see _totals)
    ("analytic", "time_average", None),
    ("manybody", "evolve_spin",
     lambda a, k: {"t_span": float(_arg(a, k, 2, "times")[-1])}),
    ("manybody", "magnetization_profile", None),
    ("manybody", "entanglement_entropy", None),
    ("cli", "write_table", None),
]


def _traced(tracer: Tracer, name: str, fn, attrs_of):
    track_memory = name.startswith("oracle.")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = attrs_of(args, kwargs) if attrs_of else {}
        # tracemalloc runs only inside the outermost oracle span, so the
        # rest of the traced run pays nothing for it
        measure = track_memory and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        index = tracer.begin(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
            if measure:
                attrs["alloc_peak_b"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    return wrapper


def _traced_write_table(tracer: Tracer, fn):
    @functools.wraps(fn)
    def write_table(path, header, rows, fmt):
        rows = list(rows)
        index = tracer.begin("cli.write_table", {"rows": len(rows)})
        try:
            return fn(path, header, rows, fmt)
        finally:
            tracer.end(index)

    return write_table


def _traced_exponent_fit(tracer: Tracer, fn):
    @functools.wraps(fn)
    def estimate_dynamical_exponent(psi_fn, *args, **kwargs):
        attrs = {"psi_calls": 0}

        def counted(r, t):
            attrs["psi_calls"] += 1
            return psi_fn(r, t)

        index = tracer.begin("analytic.estimate_dynamical_exponent", attrs)
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.end(index)

    return estimate_dynamical_exponent


def _counting_csr_class(tracer: Tracer, csr_matrix):
    class CountingCSR(csr_matrix):
        """CSR matrix whose products with vectors are traced as matvecs.

        `dot` and `@` both end in `__matmul__`, so each product is one span.
        """

        def __matmul__(self, other):
            index = tracer.begin("manybody.matvec")
            try:
                return super().__matmul__(other)
            finally:
                tracer.end(index)

    return CountingCSR


def _traced_build(tracer: Tracer, fn, sparse_hamiltonian, counting_csr):
    @functools.wraps(fn)
    def build_spin_hamiltonian(*args, **kwargs):
        attrs = {}
        index = tracer.begin("manybody.build_spin_hamiltonian", attrs)
        try:
            hamiltonian = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        matrix = hamiltonian.matrix
        attrs["nnz"] = int(matrix.nnz)
        attrs["bytes"] = int(matrix.data.nbytes + matrix.indices.nbytes
                             + matrix.indptr.nbytes)
        return sparse_hamiltonian(counting_csr(matrix), hamiltonian.params)

    return build_spin_hamiltonian


def install(tracer: Tracer) -> None:
    """Wrap hdyson's public entry points for the rest of the process."""
    import importlib

    import scipy.sparse

    modules = [importlib.import_module(name) for name in HDYSON_MODULES]
    by_short = {module.__name__.rsplit(".", 1)[-1]: module for module in modules}
    manybody = by_short["manybody"]
    replacements = []
    for short, fname, attrs_of in _ENTRY_POINTS:
        original = getattr(by_short[short], fname)
        if fname == "write_table":
            wrapped = _traced_write_table(tracer, original)
        else:
            wrapped = _traced(tracer, f"{short}.{fname}", original, attrs_of)
        replacements.append((original, wrapped))
    fit = by_short["analytic"].estimate_dynamical_exponent
    replacements.append((fit, _traced_exponent_fit(tracer, fit)))
    build = manybody.build_spin_hamiltonian
    counting = _counting_csr_class(tracer, scipy.sparse.csr_matrix)
    replacements.append(
        (build, _traced_build(tracer, build, manybody.SparseHamiltonian, counting))
    )

    for original, wrapped in replacements:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

class _Totals:
    __slots__ = ("calls", "time", "self_time", "attrs")

    def __init__(self):
        self.calls = 0
        self.time = 0.0
        self.self_time = 0.0
        self.attrs: dict[str, float] = {}


def _totals(spans: list[list]) -> dict[str, _Totals]:
    """Per-name totals over the spans that lie inside a pass span.

    A `time_average` span is credited with the points of the `psi_thermo`
    calls made inside it, so its grid size is read from the work done
    rather than from its arguments.
    """
    inside = [False] * len(spans)
    child_time = [0.0] * len(spans)
    child_points = [0] * len(spans)
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        inside[index] = name == PASS_SPAN or (parent is not None and inside[parent])
        if parent is not None:
            child_time[parent] += end - start
            if name == "analytic.psi_thermo":
                child_points[parent] += attrs["points"]
    totals: dict[str, _Totals] = {}
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        if not inside[index] or name == PASS_SPAN:
            continue
        if name == "analytic.time_average":
            attrs = {"points": child_points[index]}
        key = name
        if name == "analytic.psi_thermo":
            key += ".short" if attrs["points"] < SHORT_POINTS else ".long"
        entry = totals.setdefault(key, _Totals())
        entry.calls += 1
        entry.time += end - start
        entry.self_time += end - start - child_time[index]
        for attr, value in attrs.items():
            if attr == "alloc_peak_b":
                entry.attrs[attr] = max(entry.attrs.get(attr, 0), value)
            elif isinstance(value, (int, float)):
                entry.attrs[attr] = entry.attrs.get(attr, 0) + value
    return totals


def layer_metrics(spans: list[list], passes: int, health: dict, bytes_written: float,
                  overhead_ratio: float, imports: dict) -> dict:
    """Every per-layer metric, by name; 0 where the workload does no such work.

    Times, counts and bytes (`bytes_written`, already per pass) are per
    pass, the workload's fixed body of work, so counts repeat exactly from
    run to run.
    """
    totals = _totals(spans)
    empty = _Totals()

    def get(name: str) -> _Totals:
        return totals.get(name, empty)

    def per_unit(name: str, attr: str, scale: float) -> float:
        entry = get(name)
        units = entry.attrs.get(attr, 0)
        return entry.time / units * scale if units else 0.0

    out = {}
    for fname in ("fast_evolve", "fast_apply", "tree_transform", "inverse_tree_transform"):
        out[f"oracle.{fname}.ns_per_site"] = per_unit(f"oracle.{fname}", "sites", 1e9)
    out["oracle.fast_evolve_series.self_s"] = get("oracle.fast_evolve_series").self_time / passes
    peaks = [entry.attrs.get("alloc_peak_b", 0) for name, entry in totals.items()
             if name.startswith("oracle.")]
    out["oracle.peak_alloc_mb"] = max(peaks, default=0) / 2**20

    for kind in ("long", "short"):
        out[f"analytic.psi_thermo.{kind}.ns_per_point"] = per_unit(
            f"analytic.psi_thermo.{kind}", "points", 1e9)
    thermo = [get("analytic.psi_thermo.long"), get("analytic.psi_thermo.short")]
    out["analytic.psi_thermo.calls"] = sum(e.calls for e in thermo) / passes
    out["analytic.psi_thermo.points"] = sum(e.attrs.get("points", 0) for e in thermo) / passes
    out["analytic.time_average.ns_per_point"] = per_unit("analytic.time_average", "points", 1e9)
    fit = get("analytic.estimate_dynamical_exponent")
    out["analytic.estimate_dynamical_exponent.self_s"] = fit.self_time / passes
    out["analytic.estimate_dynamical_exponent.psi_calls"] = fit.attrs.get("psi_calls", 0) / passes
    out["analytic.psi_finite.self_s"] = get("analytic.psi_finite").self_time / passes

    matvec = get("manybody.matvec")
    evolve = get("manybody.evolve_spin")
    out["manybody.matvec.calls"] = matvec.calls / passes
    out["manybody.matvec.ms_per_call"] = matvec.time / matvec.calls * 1e3 if matvec.calls else 0.0
    t_span = evolve.attrs.get("t_span", 0.0)
    out["manybody.matvecs_per_unit_time"] = matvec.calls / t_span if t_span else 0.0
    for fname in ("evolve_spin", "magnetization_profile", "entanglement_entropy"):
        out[f"manybody.{fname}.self_s"] = get(f"manybody.{fname}").self_time / passes
    builds = [(end - start, attrs) for name, start, end, _, attrs in spans
              if name == "manybody.build_spin_hamiltonian"]
    seconds, attrs = builds[-1] if builds else (0.0, {"nnz": 0, "bytes": 0})
    out["manybody.build_spin_hamiltonian.s"] = seconds
    out["manybody.hamiltonian.nnz"] = attrs["nnz"]
    out["manybody.hamiltonian.mb"] = attrs["bytes"] / 2**20

    out["cli.import_s"] = imports.get("import_s", 0.0)
    out["cli.import_scipy_s"] = imports.get("import_scipy_s", 0.0)
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = 0.0
    for name, start, end, _, attrs in spans:
        if name == "cli.main":
            key = f"cli.{attrs['command']}.s"
            out[key] += (end - start) / passes
    table = get("cli.write_table")
    rows = table.attrs.get("rows", 0)
    out["cli.write_table.self_s"] = table.self_time / passes
    out["cli.write_table.ns_per_row"] = table.self_time / rows * 1e9 if rows else 0.0
    out["cli.write_table.rows"] = rows / passes
    out["cli.bytes_written"] = bytes_written

    for name in HEALTH:
        out[name] = health.get(name, 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def parse_importtime(stderr: str) -> dict:
    """`import_s` and `import_scipy_s` from `python -X importtime` output.

    Lines come children-first; a line's parent is the next line printed at
    a smaller depth.  scipy time is the cumulative time of each outermost
    scipy module, so nested scipy imports are not counted twice.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        label = fields[2]
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        rows.append((depth, name, int(fields[1]) * 1e-6))
    parent = [None] * len(rows)
    stack: list[int] = []
    for index, (depth, _, _) in enumerate(rows):
        while stack and rows[stack[-1]][0] > depth:
            parent[stack.pop()] = index
        stack.append(index)

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    scipy_s = sum(
        cumulative for index, (_, name, cumulative) in enumerate(rows)
        if is_scipy(name) and (parent[index] is None or not is_scipy(rows[parent[index]][1]))
    )
    import_s = max((c for _, name, c in rows if name == "hdyson.cli"), default=0.0)
    return {"import_s": import_s, "import_scipy_s": scipy_s}
