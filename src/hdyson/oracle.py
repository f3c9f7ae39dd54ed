"""Independent reference evolution paths and the fast tree algorithms.

Two exact routes complement the closed forms of `analytic`:

* a dense route: numerically diagonalize the hopping matrix and evolve by
  spectral decomposition (O(L^3) per call, O(L^2) per time), and
* a fast route for any f(H), diagonal in the tree eigenbasis with one value
  f(eps_k) per multiplet k = 0..N, in three O(L) stages: an unscaled forward
  cascade of pairwise sums and differences (merging blocks of 2^(p-1) sites
  into 2^p gives multiplet k = N - p + 1, D_k; the last sum is D_0), one
  multiply of each multiplet slice by f(eps_k) 2^(k-N-1) (2^-N for k = 0),
  and an unscaled inverse cascade s -> (s + d, s - d).  `tree_transform` is
  2^(-(N-k+1)/2) D_k (2^(-N/2) D_0) and its inverse needs that scale again,
  so the 1/sqrt2 of every level collapses into the exact power of two.
  `fast_apply` is f(eps) = eps; `fast_evolve_series` runs the forward
  cascade once and the rest per time with f(eps) = exp(-i eps t).

Above one block of 2^b = 2^16 sites the cascades are cache-blocked: each
level of the plain loop sweeps the whole array, 20 strided passes over 16
MiB at N = 20, while a block of 2^16 complex values (1 MiB) with its sums
stays in a 2 MiB L2 cache.  The forward cascade runs the fine levels
N..b+1 one block at a time, writing each level's differences into the
block's run of its multiplet slice, then the coarse levels b..1 once over
the 2^b sums the blocks leave; the inverse runs the coarse levels into 2^b
smooth values, then the fine levels block by block straight into `out`.
Every element sees the same adds, subtracts and multiplies in the same
order as in the plain loop, so the results keep their bits; chains of at
most 2^b sites run the plain loop alone.

The cascades keep their sums in a per-thread scratch cache (faulting fresh
pages costs several times the arithmetic at these sizes): two buffers of
half and a quarter of one block (of the chain, when shorter), plus the 2^b
sums between the fine and coarse levels.  The kernels accept a
preallocated `out`, so a time series at fixed L runs allocation-free in
steady state.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from .analytic import check_times
from .errors import InputError
from .geometry import TreeGeometry, block_bounds
from .spectral import ModelParams, build_hopping_matrix, eigenvalues

__all__ = [
    "TreeCoefficients",
    "dense_evolve_series",
    "fast_apply",
    "tree_transform",
    "inverse_tree_transform",
    "fast_evolve",
    "fast_evolve_series",
    "benchmark_fast_ops",
]

_SCRATCH = threading.local()

# b: the cascades are blocked over 2^b sites (see the module docstring).
_BLOCK_LEVELS = 16


def _scratch(kernel: str, length: int, dtype) -> list[np.ndarray]:
    """Per-thread work arrays of one dtype: L "coefficients", or a "cascade"'s sums.

    A cascade alternates its levels over two buffers, a half and a quarter
    of its widest run (one block, or the whole chain when that is shorter),
    and above one block keeps the 2^b sums between its fine and coarse
    levels in a third.
    """
    store = _SCRATCH.__dict__.setdefault("store", {})
    if kernel == "cascade":
        span = max(min(length, 1 << _BLOCK_LEVELS), length >> _BLOCK_LEVELS)
        sizes = [span >> 1, span >> 2] + ([1 << _BLOCK_LEVELS] if span < length else [])
    else:
        sizes = [length]
    key = (kernel, np.dtype(dtype).str)
    if key not in store or [a.size for a in store[key]] != sizes:
        store[key] = [np.empty(size, dtype=dtype) for size in sizes]
    return store[key]


def _prepare_out(out, length: int, dtype, source) -> np.ndarray:
    if out is None:
        return np.empty(length, dtype=dtype)
    if out.shape != (length,) or out.dtype != np.dtype(dtype):
        raise InputError(f"out must have shape ({length},) and dtype {np.dtype(dtype)}")
    if np.shares_memory(out, source):
        raise InputError("out must not overlap the input")
    return out


def _multiplet_scale(levels: int) -> np.ndarray:
    """2^(k-N-1), and 2^-N for k = 0; the square root is the orthonormal scale."""
    return np.ldexp(1.0, np.maximum(np.arange(-levels - 1, 0), -levels))


def _blocks(levels: int) -> int:
    """Blocks of the fine levels: each spans 2^max(b, N-b) sites and leaves 2^b sums in all."""
    return 1 << min(levels - _BLOCK_LEVELS, _BLOCK_LEVELS)


def _fold(src: np.ndarray, coeffs: np.ndarray, bounds, k: int, blk: int,
          pair: list[np.ndarray], total: np.ndarray, scale) -> None:
    """Levels k, k-1, ... of block blk until src is summed down to total.

    Each level writes its differences into the block's run of slice k
    (the block's share of the slots), times scale[k] unless scale is None,
    and its sums into pair, alternating and widest first, or into total at
    the last level.
    """
    for i in range((src.size // total.size).bit_length() - 1):
        half = src.size >> 1
        start = bounds[k - i] + blk * half
        run = coeffs[start : start + half]
        np.subtract(src[0::2], src[1::2], out=run)
        if scale is not None:
            run *= scale[k - i]
        target = total if half == total.size else pair[i % 2][:half]
        np.add(src[0::2], src[1::2], out=target)
        src = target


def _forward(v: np.ndarray, coeffs: np.ndarray, scale=None) -> None:
    """Cascade of v into coeffs: differences D_k into slice k, the sum into slot 0.

    Slice k is then multiplied by scale[k] while it is in cache, unless
    scale is None.  Above 2^b sites each block runs the fine levels N..b+1,
    and the 2^b sums they leave run the coarse levels b..1.
    """
    n = v.size.bit_length() - 1
    bounds = block_bounds(n)
    pair = _scratch("cascade", v.size, coeffs.dtype)
    if n > _BLOCK_LEVELS:
        sums = pair[2]
        blocks = _blocks(n)
        width, share = v.size // blocks, sums.size // blocks
        for blk in range(blocks):
            _fold(v[blk * width : (blk + 1) * width], coeffs, bounds, n, blk, pair,
                  sums[blk * share : (blk + 1) * share], scale)
        v = sums
    _fold(v, coeffs, bounds, v.size.bit_length() - 1, 0, pair, coeffs[:1], scale)
    if scale is not None:
        coeffs[:1] *= scale[0]


def _expand(smooth: np.ndarray, coeffs: np.ndarray, factors: np.ndarray, bounds,
            k: int, blk: int, pair: list[np.ndarray], out: np.ndarray) -> None:
    """Levels k, k+1, ... of block blk from its smooth values up to out.

    Each level scales the block's run of slice k straight into the odd half
    of its output and forms s + d, s - d there.  The levels before the last
    alternate over pair, widest in pair[0], so smooth must lie in neither
    out nor the first level's buffer.
    """
    levels = (out.size // smooth.size).bit_length() - 1
    for i in range(levels):
        half = smooth.size
        target = out if i == levels - 1 else pair[(levels - i) % 2][: 2 * half]
        detail = target[1::2]
        start = bounds[k + i] + blk * half
        np.multiply(coeffs[start : start + half], factors[k + i], out=detail)
        np.add(smooth, detail, out=target[0::2])
        np.subtract(smooth, detail, out=detail)
        smooth = target


def _inverse(coeffs: np.ndarray, factors: np.ndarray, out: np.ndarray) -> None:
    """Unscaled inverse cascade of coeffs with slice k times factors[k], into out.

    The coarse levels 1..b run once into 2^b smooth values; above 2^b
    sites each block then runs the fine levels b+1..N straight into out.
    """
    n = coeffs.size.bit_length() - 1
    bounds = block_bounds(n)
    pair = _scratch("cascade", coeffs.size, out.dtype)
    top = min(n, _BLOCK_LEVELS)
    smooth = pair[(top - 1) % 2][:1]
    np.multiply(coeffs[:1], factors[0], out=smooth)
    coarse = pair[2] if n > top else out
    _expand(smooth, coeffs, factors, bounds, 1, 0, pair, coarse)
    if n > top:
        blocks = _blocks(n)
        width, share = out.size // blocks, coarse.size // blocks
        for blk in range(blocks):
            _expand(coarse[blk * share : (blk + 1) * share], coeffs, factors, bounds,
                    top + 1, blk, pair, out[blk * width : (blk + 1) * width])


def _check_length(params: ModelParams, v: np.ndarray) -> None:
    if v.shape != (params.geom.length,):
        raise InputError(
            f"vector shape {v.shape} does not match chain length {params.geom.length}"
        )


def _check_normalized(amp: np.ndarray, what: str) -> None:
    norm2 = np.vdot(amp, amp).real
    if not abs(norm2 - 1.0) <= 1e-8:  # also false for a NaN or inf norm
        raise InputError(f"{what} is not finite and normalized: squared norm {norm2}")


def _check_sum(total, what: str) -> None:
    """total sums every entry: it is not finite when one is (or when it overflows)."""
    if not np.isfinite(total):
        raise InputError(f"{what} must be finite: an entry or the sum of all is {total}")


def dense_evolve_series(params: ModelParams, times, initial: np.ndarray) -> np.ndarray:
    """Amplitudes at every time of a finite 1-d grid, shape (len(times), L).

    The initial site amplitudes must be finite and normalized to 1e-8 in
    their squared norm, as in `fast_evolve_series`.  One `eigh` of the
    hopping matrix and one matmul per call; nothing is cached between
    calls, so evaluate many times in one call.
    """
    times = check_times(times, 1)
    amp = np.asarray(initial, dtype=complex)
    _check_length(params, amp)
    _check_normalized(amp, "initial state")
    evals, evecs = np.linalg.eigh(build_hopping_matrix(params))
    modes = evecs.conj().T @ amp
    phases = np.exp(-1j * np.outer(evals, times)) * modes[:, None]
    return (evecs @ phases).T


def fast_apply(params: ModelParams, v: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Hopping-matrix product H v in O(L).

    The forward cascade, multiplet k times eps_k 2^(k-N-1), the inverse
    cascade.  A real v gives a real product.  Like `eigenvalues`, it needs
    sigma > 0 or custom level couplings.  A NaN or infinite entry of v is an
    InputError, found in O(1) from the cascade's sum of all entries.
    """
    v = np.asarray(v)
    _check_length(params, v)
    dtype = np.result_type(v.dtype, float)
    out = _prepare_out(out, v.size, dtype, v)
    factors = eigenvalues(params) * _multiplet_scale(params.geom.levels)
    coeffs = _scratch("coefficients", v.size, dtype)[0]
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        _forward(v, coeffs)
    _check_sum(coeffs[0], "v")
    _inverse(coeffs, factors, out)
    return out


@dataclass(frozen=True)
class TreeCoefficients:
    """Expansion over the tree eigenbasis, one slot per basis vector.

    Multiplet k occupies block k of `geometry.block_bounds` (slot 0 is the
    uniform mode), members ordered left to right by support block.
    """

    values: np.ndarray
    levels: int


def tree_transform(v: np.ndarray, out: np.ndarray | None = None) -> TreeCoefficients:
    """O(L) expansion of a site vector over the tree eigenbasis.

    The forward cascade, with multiplet k times 2^(-(N-k+1)/2) (2^(-N/2)
    for k = 0).  v must be 1-d and finite.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise InputError(f"v must be 1-d, got shape {v.shape}")
    n = TreeGeometry.from_length(v.size).levels
    values = _prepare_out(out, v.size, np.result_type(v.dtype, float), v)
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        _forward(v, values, np.sqrt(_multiplet_scale(n)))
    _check_sum(values[0], "v")
    return TreeCoefficients(values, n)


def inverse_tree_transform(coeffs: TreeCoefficients,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of `tree_transform`; round-trip is the identity.

    The values must be 1-d and finite, one slot per basis vector.
    """
    values = np.asarray(coeffs.values)
    n = coeffs.levels
    if values.shape != (block_bounds(n)[-1],):
        raise InputError(f"coefficient shape {values.shape} is not one slot per basis "
                         f"vector of {n} levels")
    with np.errstate(invalid="ignore", over="ignore"):
        total = np.sum(values)
    _check_sum(total, "coefficients")
    out = _prepare_out(out, values.size, np.result_type(values.dtype, float), values)
    _inverse(values, np.sqrt(_multiplet_scale(n)), out)
    return out


def _evolution_factors(eps: np.ndarray, scale: np.ndarray, t: float) -> np.ndarray:
    """exp(-i eps_k t) 2^(k-N-1): the N+1 multiplet factors of U(t)."""
    return np.exp(eps * (-1j * t)) * scale


def _evolve_rows(params: ModelParams, times: np.ndarray, initial, rows) -> None:
    """rows[i] = exp(-i H times[i]) initial: one forward cascade, one inverse per time."""
    v = np.asarray(initial, dtype=complex)
    _check_length(params, v)
    _check_normalized(v, "initial state")
    eps = eigenvalues(params)
    scale = _multiplet_scale(params.geom.levels)
    coeffs = _scratch("coefficients", v.size, complex)[0]
    _forward(v, coeffs)
    for t, row in zip(times.tolist(), rows):
        _inverse(coeffs, _evolution_factors(eps, scale, t), row)


def fast_evolve(params: ModelParams, t: float, initial: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Exact evolution exp(-i H t) initial in O(L): `fast_evolve_series` at one time t.

    The forward cascade, multiplet k times exp(-i eps_k t) 2^(k-N-1), the
    inverse cascade.
    """
    out = _prepare_out(out, params.geom.length, complex, initial)
    _evolve_rows(params, check_times(t, 0).reshape(1), initial, [out])
    return out


def fast_evolve_series(params: ModelParams, times, initial: np.ndarray) -> np.ndarray:
    """Amplitudes at every time of a finite 1-d grid, shape (len(times), L).

    The initial state, finite and normalized to 1e-8 in its squared norm,
    runs through the forward cascade once; each time then costs multiplet k
    times exp(-i eps_k t) 2^(k-N-1) and one inverse cascade into its row,
    which is bit-identical to a `fast_evolve` call at that time.
    """
    times = check_times(times, 1)
    result = np.empty((times.size, params.geom.length), dtype=complex)
    _evolve_rows(params, times, initial, result)
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
