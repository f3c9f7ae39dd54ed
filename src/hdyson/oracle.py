"""Independent reference evolution paths and the fast tree algorithms.

Two exact routes complement the closed forms of `analytic`:

* a dense route: numerically diagonalize the hopping matrix and evolve by
  spectral decomposition (O(L^3) once, O(L^2) per time), and
* a fast route: an O(L) orthogonal transform onto the tree eigenbasis
  (a pairwise sum/difference cascade), a phase multiply built from the
  N+1 distinct eigenvalues, and the inverse transform, giving O(L) exact
  evolution per time point up to L ~ 2^24.

`fast_apply` is the matching O(L) matrix-vector product: an upward pass
accumulates all block sums, a downward pass accumulates the field each
leaf feels from the sibling block at every level.

The O(L) kernels keep their intermediate pyramids in a per-thread scratch
cache (repeatedly faulting fresh pages costs several times the arithmetic
at these sizes) and accept an optional preallocated `out` array, so a time
series at fixed L runs allocation-free in steady state.  Scratch is
thread-local, so callers may run the kernels from several threads at once,
and holds one size per kernel: a call at another L replaces it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import TreeGeometry, block_bounds, block_range
from .profiles import SITE_MODE, WaveProfile
from .spectral import ModelParams, build_hopping_matrix, eigenvalues, multiplet_degeneracy

__all__ = [
    "DenseOperator",
    "TreeCoefficients",
    "dense_operator",
    "dense_evolve",
    "dense_evolve_series",
    "fast_apply",
    "tree_transform",
    "inverse_tree_transform",
    "fast_evolve",
    "fast_evolve_series",
    "benchmark_fast_ops",
]

_INV_SQRT2 = 2.0 ** -0.5
_SCRATCH = threading.local()


def _scratch(kernel: str, length: int, dtype) -> dict:
    """Per-thread reusable work arrays for one kernel and dtype.

    The slot holds arrays for one length; a call at another length
    replaces it, so the store never holds more than one size per kernel.
    """
    store = getattr(_SCRATCH, "store", None)
    if store is None:
        store = _SCRATCH.store = {}
    key = (kernel, np.dtype(dtype).str)
    slot = store.get(key)
    if slot is None or slot["length"] != length:
        slot = store[key] = {"length": length}
    return slot


def _pyramid(slot: dict, name: str, levels: int, dtype) -> list[np.ndarray]:
    """Arrays of sizes 2^(levels-1), ..., 2, 1 (blocks levels..1)."""
    pyramid = slot.get(name)
    if pyramid is None:
        sizes = block_bounds(levels)[-2:0:-1]
        pyramid = slot[name] = [np.empty(size, dtype=dtype) for size in sizes]
    return pyramid


def _prepare_out(out, length: int, dtype, *aliases) -> np.ndarray:
    if out is None:
        return np.empty(length, dtype=dtype)
    if out.shape != (length,) or out.dtype != np.dtype(dtype):
        raise InputError(f"out must have shape ({length},) and dtype {np.dtype(dtype)}")
    for other in aliases:
        if other is not None and np.shares_memory(out, other):
            raise InputError("out must not overlap the input")
    return out


@dataclass
class DenseOperator:
    """Dense hopping matrix with a lazily cached eigensystem.

    The cache is write-once: after the first `eigensystem()` call the
    operator is effectively immutable and safe to share.
    """

    matrix: np.ndarray
    _evals: np.ndarray | None = field(default=None, repr=False)
    _evecs: np.ndarray | None = field(default=None, repr=False)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._evals is None:
            evals, evecs = np.linalg.eigh(self.matrix)
            self._evals, self._evecs = evals, evecs
        return self._evals, self._evecs


def dense_operator(params: ModelParams) -> DenseOperator:
    return DenseOperator(build_hopping_matrix(params))


def _check_length(params: ModelParams, v: np.ndarray) -> None:
    if v.shape != (params.geom.length,):
        raise InputError(
            f"vector shape {v.shape} does not match chain length {params.geom.length}"
        )


def _check_initial(initial: WaveProfile, length: int) -> np.ndarray:
    if initial.mode != SITE_MODE:
        raise InputError("dense evolution needs a site-mode initial profile")
    if initial.length != length:
        raise InputError(
            f"initial profile length {initial.length} != chain length {length}"
        )
    amp = initial.amplitudes
    if abs(np.vdot(amp, amp).real - 1.0) > 1e-8:
        raise InputError("initial profile is not normalized")
    return amp


def dense_evolve(params: ModelParams, t: float, initial: WaveProfile,
                 op: DenseOperator | None = None) -> WaveProfile:
    """Evolve by spectral decomposition of the numerically diagonalized matrix."""
    amp = dense_evolve_series(params, [t], initial, op)[0]
    return WaveProfile(amp, float(t), SITE_MODE)


def dense_evolve_series(params: ModelParams, times, initial: WaveProfile,
                        op: DenseOperator | None = None) -> np.ndarray:
    """Row i holds the site amplitudes at times[i]; one matmul per call."""
    amp = _check_initial(initial, params.geom.length)
    if op is None:
        op = dense_operator(params)
    evals, evecs = op.eigensystem()
    modes = evecs.conj().T @ amp
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(evals, times)) * modes[:, None]
    return (evecs @ phases).T


def fast_apply(params: ModelParams, v: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Hopping-matrix product in O(L).

    Upward pass: block sums S(p, q) by pairwise addition.  Downward pass:
    the field on a block is its parent's field plus J_p times the sibling
    block sum; the output at a leaf is minus its accumulated field.
    """
    v = np.asarray(v)
    _check_length(params, v)
    n = params.geom.levels
    couplings = params.level_coupling_array()
    dtype = np.result_type(v.dtype, float)
    slot = _scratch("fast_apply", v.size, dtype)
    sums = _pyramid(slot, "sums", n, dtype)      # sums[p-1]: level-p block sums
    fields = _pyramid(slot, "fields", n, dtype)  # fields[p-1]: level-p fields
    out = _prepare_out(out, v.size, dtype, v)

    src = v
    for p in range(n):
        np.add(src[0::2], src[1::2], out=sums[p])
        src = sums[p]

    parent = None  # level-n field is zero
    for p in range(n - 1, -1, -1):
        target = out if p == 0 else fields[p - 1]
        source = v if p == 0 else sums[p - 1]
        np.multiply(source[1::2], couplings[p], out=target[0::2])
        np.multiply(source[0::2], couplings[p], out=target[1::2])
        if parent is not None:
            np.add(target[0::2], parent, out=target[0::2])
            np.add(target[1::2], parent, out=target[1::2])
        parent = target
    np.negative(out, out=out)
    return out


@dataclass(frozen=True)
class TreeCoefficients:
    """Expansion over the tree eigenbasis, one slot per basis vector.

    Multiplet k occupies block k of `geometry.block_bounds` (slot 0 is the
    uniform mode), members ordered left to right by support block.
    """

    values: np.ndarray
    levels: int

    def coefficient(self, k: int, m: int) -> complex:
        if not 0 <= k <= self.levels:
            raise InputError(f"multiplet index {k} outside 0..{self.levels}")
        if not 1 <= m <= multiplet_degeneracy(k):
            raise InputError(f"member index {m} invalid for multiplet {k}")
        return complex(self.values[block_range(k)[0] + m - 1])


def tree_transform(v: np.ndarray, out: np.ndarray | None = None) -> TreeCoefficients:
    """O(L) expansion of a site vector over the tree eigenbasis.

    A pairwise (a+b)/sqrt2, (a-b)/sqrt2 cascade: the differences produced
    while merging blocks of size 2^(p-1) into 2^p are exactly the
    multiplet k = N - p + 1 coefficients.
    """
    v = np.asarray(v)
    n = TreeGeometry.from_length(v.size).levels
    bounds = block_bounds(n)
    dtype = np.result_type(v.dtype, float)
    slot = _scratch("tree_transform", v.size, dtype)
    work = _pyramid(slot, "work", n, dtype)
    values = _prepare_out(out, v.size, dtype, v)

    src = v
    for p in range(1, n + 1):
        k = n - p + 1
        detail = values[bounds[k] : bounds[k + 1]]
        np.subtract(src[0::2], src[1::2], out=detail)
        detail *= _INV_SQRT2
        np.add(src[0::2], src[1::2], out=work[p - 1])
        work[p - 1] *= _INV_SQRT2
        src = work[p - 1]
    values[0] = src[0]
    return TreeCoefficients(values, n)


def inverse_tree_transform(coeffs: TreeCoefficients,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of `tree_transform`; round-trip is the identity."""
    values = np.asarray(coeffs.values)
    n = coeffs.levels
    bounds = block_bounds(n)
    if values.size != bounds[-1]:
        raise InputError("coefficient slot count does not match levels")
    dtype = np.result_type(values.dtype, float)
    slot = _scratch("inverse_tree", values.size, dtype)
    work = _pyramid(slot, "work", n, dtype)  # sizes L/2 .. 1
    out = _prepare_out(out, values.size, dtype, values)

    smooth = work[-1]
    smooth[0] = values[0]
    for k in range(1, n + 1):
        detail = values[bounds[k] : bounds[k + 1]]
        target = out if k == n else work[n - k - 1]
        np.add(smooth, detail, out=target[0::2])
        np.subtract(smooth, detail, out=target[1::2])
        target *= _INV_SQRT2
        smooth = target
    return out


def fast_evolve(params: ModelParams, t: float, initial: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Exact evolution in O(L): transform, phase-multiply, transform back.

    Only the N+1 distinct phases exp(-i eps_k t) are computed; repeating
    each over its multiplet's slots gives the per-slot phase vector.
    """
    v = np.asarray(initial, dtype=complex)
    _check_length(params, v)
    slot = _scratch("fast_evolve", v.size, np.complex128)
    coeff_buf = slot.get("coeffs")
    if coeff_buf is None:
        coeff_buf = slot["coeffs"] = np.empty(v.size, dtype=complex)
    coeffs = tree_transform(v, out=coeff_buf)
    spec = eigenvalues(params)
    np.multiply(coeffs.values,
                np.repeat(np.exp(spec.eps * (-1j * t)), spec.degeneracy),
                out=coeffs.values)
    return inverse_tree_transform(coeffs, out=out)


def fast_evolve_series(params: ModelParams, times, initial: np.ndarray) -> np.ndarray:
    """Amplitudes at every requested time, shape (len(times), L).

    Each time point is one `fast_evolve` call that writes straight into
    its row of the preallocated result block.
    """
    v = np.asarray(initial, dtype=complex)
    times = np.asarray(times, dtype=float)
    result = np.empty((times.size, v.size), dtype=complex)
    for index in range(times.size):
        fast_evolve(params, float(times[index]), v, out=result[index])
    return result


def benchmark_fast_ops(n_values, repeats: int = 5, min_window_s: float = 0.3) -> list[dict]:
    """Wall-clock statistics of the O(L) kernels across system sizes.

    Rows carry N, L, op, mean_ns, stddev_ns (plus min_ns, the quantity to
    use for scaling ratios).  Each sample is a timing window of enough
    back-to-back calls to last ~min_window_s, so scheduler duty cycles
    average out; windows are interleaved round-robin over sizes so a slow
    phase of the host biases every size equally, and a warmup pass also
    calibrates the per-window call counts.
    """
    n_values = [int(n) for n in n_values]
    cases = []
    for n in n_values:
        params = ModelParams(TreeGeometry(n))
        length = params.geom.length
        v = np.zeros(length, dtype=complex)
        v[0] = 1.0
        buf = np.empty(length, dtype=complex)
        cases.append((n, params, v, buf))

    op_names = ("fast_apply", "tree_transform", "fast_evolve")

    def run(name: str, params: ModelParams, v: np.ndarray, buf: np.ndarray):
        if name == "fast_apply":
            fast_apply(params, v, out=buf)
        elif name == "tree_transform":
            tree_transform(v, out=buf)
        else:
            fast_evolve(params, 1.0, v, out=buf)

    calls: dict[tuple[int, str], int] = {}
    for n, params, v, buf in cases:
        for name in op_names:
            run(name, params, v, buf)
            start = time.perf_counter_ns()
            run(name, params, v, buf)
            once = max(time.perf_counter_ns() - start, 1)
            calls[(n, name)] = int(min(max(1, round(min_window_s * 1e9 / once)), 2000))

    samples: dict[tuple[int, str], list[float]] = {key: [] for key in calls}
    for _ in range(repeats):
        for n, params, v, buf in cases:
            for name in op_names:
                k = calls[(n, name)]
                start = time.perf_counter_ns()
                for _ in range(k):
                    run(name, params, v, buf)
                samples[(n, name)].append((time.perf_counter_ns() - start) / k)

    rows = []
    for n, params, _, _ in cases:
        for name in op_names:
            arr = np.asarray(samples[(n, name)], dtype=float)
            rows.append(
                {
                    "N": n,
                    "L": params.geom.length,
                    "op": name,
                    "mean_ns": float(arr.mean()),
                    "stddev_ns": float(arr.std()),
                    "min_ns": float(arr.min()),
                }
            )
    return rows
