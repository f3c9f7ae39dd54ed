"""Closed-form single-particle dynamics of the hierarchical chain.

A spin flip created at site 1 on the polarized background evolves, deep in
the paramagnetic phase, under the hierarchical hopping matrix.  Because the
initial delta state overlaps exactly one tree eigenvector per multiplet
(`spectral.delta_decomposition`), its amplitude at hierarchical distance r
is an (N+1)-term sum at finite L and, in the thermodynamic limit, the
exponentially convergent mode series

    psi(0, t) = sum_{k>=0} 2^(-k-1) exp(-i Jt_sigma t 2^(-sigma k)),
    psi(r, t) = 2^(-r) F(2^(-sigma r) t),          r >= 1,
    F(s)      = psi(0, s) - exp(-i Jt_sigma 2^sigma s),

with Jt_sigma the renormalized band coupling.  F is the universal scaling
function: space and time enter only through s = 2^(-sigma r) t, which is
the t ~ x^sigma dynamical scaling.  This module evaluates both forms, the
occupation probabilities P(r, t), their long-time averages and rigorous
bounds, the periodic sigma -> 0 closed forms, and the binary-entropy
entanglement of a single-defect state.

Error model of the thermodynamic series: the terms k >= K are dropped, a
remainder of modulus at most 2^-K (`TruncationPolicy.tail_bound`).  Of the
kept terms, those whose phase is below about _TAIL_PHASE = 1/8 are summed
from their Taylor moments through order _TAIL_ORDER = 13, which adds at
most 6.1e-24 times their total weight (see `_return_series`); the other
terms are summed one exponential at a time.

Conventions: hbar = 1, times in units of 1/J, natural logarithms.  The
thermodynamic-limit amplitudes drop a k-independent phase (the additive
constant -J/(1 - 2^-sigma) of the reindexed spectrum), so they match the
finite-L amplitudes up to the gauge factor exp(-i J t / (1 - 2^-sigma)).
All time-dependent evaluators accept scalar or array t.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np

from ._util import time_steps
from .errors import InputError, ResourceLimitError, SingularLimitError
from .geometry import block_bounds
from .profiles import (
    DEFAULT_POLICY,
    MAX_SHELL,
    SHELL_MODE,
    SITE_MODE,
    TruncationPolicy,
    WaveProfile,
    expand_shells_to_sites,
    shell_weights,
)
from .spectral import ModelParams, eigenvalues, renormalized_coupling

__all__ = [
    "SIGMA_NEAR_ZERO",
    "psi_finite",
    "psi_thermo",
    "scaling_function",
    "occupation",
    "probability_thermo",
    "wave_profile_finite",
    "wave_profile_thermo",
    "time_average",
    "closed_form_average",
    "tail_average",
    "tail_bound",
    "sigma_zero",
    "sigma_zero_probability",
    "binary_entropy",
    "cumulative_probability",
    "single_particle_entropy",
    "estimate_dynamical_exponent",
]

# Below this the 1/(1 - 2^-sigma) prefactors overflow their useful range;
# such runs are rerouted to the sigma = 0 closed forms.
SIGMA_NEAR_ZERO = 1e-6


def _as_time_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _check_sigma(sigma: float, J: float) -> None:
    if not (math.isfinite(sigma) and math.isfinite(J)):
        raise InputError(f"sigma and J must be finite, got sigma = {sigma}, J = {J}")
    if sigma == 0:
        raise SingularLimitError(
            "thermodynamic-limit series diverges at sigma = 0; "
            "use sigma_zero / sigma_zero_probability"
        )
    if sigma < 0:
        raise InputError(f"sigma must be >= 0, got {sigma}")


def _near_zero(sigma: float) -> bool:
    return sigma < SIGMA_NEAR_ZERO


# ---------------------------------------------------------------------------
# finite chain
# ---------------------------------------------------------------------------

def psi_finite(r: int, t, params: ModelParams):
    """Amplitude of the evolved delta state at hierarchical distance r.

    Exact for any L = 2^N: a uniform-mode term, the partial multiplet sum
    for the modes whose positive support still contains shell r, and the
    single sign-flipped term of the shell's own multiplet.  At t = 0 the
    profile reconstructs the site-1 delta exactly.
    """
    n = params.geom.levels
    if not 0 <= r <= n:
        raise InputError(f"shell index {r} outside 0..{n}")
    eps = eigenvalues(params).eps
    L = params.geom.length
    tarr, scalar = _as_time_array(t)
    acc = np.full(tarr.shape, 1.0 / L, dtype=complex) * np.exp(-1j * eps[0] * tarr)
    weights = shell_weights(n)
    k_top = n if r == 0 else n - r
    for k in range(1, k_top + 1):
        acc += (weights[k] / L) * np.exp(-1j * eps[k] * tarr)
    if r >= 1:
        acc -= 2.0 ** (-r) * np.exp(-1j * eps[n - r + 1] * tarr)
    return complex(acc[()]) if scalar else acc


def wave_profile_finite(t: float, params: ModelParams) -> WaveProfile:
    """Site-resolved finite-chain profile at time t (unit norm)."""
    shells = np.array(
        [psi_finite(r, t, params) for r in range(params.geom.levels + 1)]
    )
    return WaveProfile(expand_shells_to_sites(shells, params.geom), float(t), SITE_MODE)


# ---------------------------------------------------------------------------
# thermodynamic limit
# ---------------------------------------------------------------------------

# Small-phase tail of the mode series: the terms whose phase
# |Jt_sigma 2^(-sigma k) s| is below about _TAIL_PHASE are summed from their
# Taylor moments through order _TAIL_ORDER (see `_return_series`).
_TAIL_PHASE = 0.125
_TAIL_ORDER = 13
# Time points per block of `_return_series`: a complex block buffer is
# 64 KiB, below glibc's 128 KiB mmap threshold.
_SERIES_BLOCK = 1 << 12


@functools.lru_cache(maxsize=32)
def _series_plan(sigma: float, J: float, K: int):
    """Constants of `_return_series` for one (sigma, J, K).

    Returns the head rates -i c 2^(-sigma k) and weights 2^(-k-1) as the
    Python scalars of the direct sum, the signed speeds c 2^(-sigma k), the
    scale and offset of the head count (see `_return_series`) and the even
    and odd coefficient rows of the tail polynomial.  With
        N_n(j) = sum_{k=j}^{K-1} 2^(-k-1) 2^(-sigma (k-j) n) / n!,
    the Taylor moments in units of the speed of mode j, the tail of an
    element with k0 = j and y = c 2^(-sigma j) s is
        sum_n N_n(j) (-i y)^n = E_j(y^2) + i y O_j(y^2),
    E_j[m] = (-1)^m N_2m(j) and O_j[m] = -(-1)^m N_(2m+1)(j).  Column j
    holds mode j; the sum over k - j is geometric.
    """
    coupling = renormalized_coupling(sigma, J)
    rates = tuple(-1j * coupling * 2.0 ** (-sigma * k) for k in range(K))
    weights = tuple(2.0 ** (-k - 1) for k in range(K))
    speeds = np.array([coupling * 2.0 ** (-sigma * k) for k in range(K)])
    phase_bits = math.log2(abs(coupling) / _TAIL_PHASE) if coupling else -math.inf
    offset = (phase_bits - 2.0) / sigma + 1.0
    n = np.arange(_TAIL_ORDER + 1)[:, None]
    j = np.arange(K)[None, :]
    ratio = 2.0 ** (-1.0 - sigma * n)
    factorials = np.array([math.factorial(i) for i in range(_TAIL_ORDER + 1)])
    moments = (2.0 ** (-j - 1.0) * (1.0 - ratio ** (K - j)) / (1.0 - ratio)
               / factorials[:, None])
    signs = (-1.0) ** np.arange(moments[0::2].shape[0])[:, None]
    even, odd = signs * moments[0::2], -signs * moments[1::2]
    for array in (speeds, even, odd):
        array.flags.writeable = False
    return rates, weights, speeds, 1.0 / sigma, offset, even, odd


def _return_series(s, sigma: float, J: float, policy: TruncationPolicy):
    """Mode series psi(0, s) = sum_{k<K} 2^(-k-1) exp(-i c 2^(-sigma k) s).

    Error model: the terms k >= K are dropped, a remainder of modulus at
    most 2^-K (policy.tail_bound).  The kept terms split per element at k0:
    - the head k < k0 is summed as the direct sum does (same scalar rate,
      `exp`, weight and ascending order), so each head term is the direct
      sum's to the bit;
    - the tail k0 <= k < K is the Taylor polynomial of order
      _TAIL_ORDER = 13 in the moments of `_series_plan`.
    With s = m 2^e (|m| in [1/2, 1)), k0 counts the k with
    sigma k <= e + 2|m| - 2 + log2(|c| / _TAIL_PHASE), clamped to 0..K.  As
    e + 2|m| - 2 undercuts log2|s| by less than 0.087, every tail phase is
    below 2^0.087 / 8 and the Taylor remainder is at most
    (2^0.087 / 8)^14 / 14! * 2^-k0 < 6.1e-24 * 2^-k0.

    The flattened times go through in blocks of _SERIES_BLOCK points, each
    sorted by descending k0 so that head term k is one `exp` on a prefix.
    Every operation acts elementwise (k0 comes from `frexp`, exactly), so
    an element's value depends on that element alone, not on its block or
    position.  NaN and inf times get k0 = K, the direct sum, and give NaN.
    """
    K = policy.K
    rates, weights, speeds, scale, offset, even, odd = _series_plan(sigma, J, K)
    sarr = np.asarray(s, dtype=float)
    out = np.empty(sarr.shape, dtype=complex)
    flat, flat_out = sarr.reshape(-1), out.reshape(-1)
    size = min(flat.size, _SERIES_BLOCK)
    # block scratch, allocated once per call
    times, bits = np.empty(size), np.empty(size, dtype=np.int32)
    key = np.empty(size, dtype=np.int16)
    modes = np.empty(size, dtype=np.int16)
    acc = np.empty(size, dtype=complex)
    term = np.empty(size, dtype=complex)
    y, u, poly, coef = (np.empty(size) for _ in range(4))
    for start in range(0, flat.size, _SERIES_BLOCK):
        block = flat[start:start + _SERIES_BLOCK]
        m = block.size
        g = times[:m]  # holds the head count k0, then the sorted times
        np.frexp(block, out=(g, bits[:m]))
        np.abs(g, out=g)
        g *= 2.0
        g += bits[:m]
        g *= scale
        g += offset
        np.floor(g, out=g)
        np.fmin(g, K, out=g)  # NaN -> K
        np.fmax(g, 0, out=g)
        np.subtract(K, g, out=key[:m], casting="unsafe")  # K - k0
        order = np.argsort(key[:m], kind="stable")  # radix sort: descending k0
        np.take(block, order, out=times[:m], mode="clip")
        below = np.cumsum(np.bincount(key[:m], minlength=K + 1)).tolist()
        acc[:m] = 0.0
        for k in range(K):
            head = below[K - 1 - k]  # the elements with k0 > k, a prefix
            if head == 0:
                break
            t = term[:head]
            np.multiply(rates[k], times[:head], out=t)
            np.exp(t, out=t)
            np.multiply(weights[k], t, out=t)
            acc[:head] += t
        lo = below[0]  # past the elements with k0 = K, which have no tail
        n = m - lo
        if n:
            modes_t = np.take(key, order[lo:], out=modes[:n], mode="clip")
            np.subtract(K, modes_t, out=modes_t)
            y_t, u_t, poly_t, coef_t = y[:n], u[:n], poly[:n], coef[:n]
            np.take(speeds, modes_t, out=y_t, mode="clip")
            y_t *= times[lo:m]
            np.multiply(y_t, y_t, out=u_t)
            for rows, part in ((even, acc[lo:m].real), (odd, acc[lo:m].imag)):
                np.take(rows[-1], modes_t, out=poly_t, mode="clip")
                for row in rows[-2::-1]:  # Horner in u = y^2
                    poly_t *= u_t
                    poly_t += np.take(row, modes_t, out=coef_t, mode="clip")
                if rows is odd:
                    poly_t *= y_t
                part += poly_t
        flat_out[start:start + m][order] = acc[:m]
    return out


def _scaling_array(sarr: np.ndarray, sigma: float, J: float,
                   policy: TruncationPolicy) -> np.ndarray:
    coupling = renormalized_coupling(sigma, J)
    return _return_series(sarr, sigma, J, policy) - np.exp(
        -1j * coupling * 2.0 ** sigma * sarr
    )


def scaling_function(s, sigma: float, J: float = 1.0,
                     policy: TruncationPolicy = DEFAULT_POLICY):
    """Universal collapse function F(s) = psi(0, s) - exp(-i Jt_sigma 2^sigma s).

    Satisfies psi(r, t) = 2^-r F(2^(-sigma r) t) identically for r >= 1,
    |F| <= 2, and F(0) = 0 (up to the 2^-K series remainder).
    """
    _check_sigma(sigma, J)
    if _near_zero(sigma):
        raise SingularLimitError(
            "the scaling function has no sigma -> 0 limit; "
            "use sigma_zero for the amplitudes"
        )
    sarr, scalar = _as_time_array(s)
    out = _scaling_array(sarr, sigma, J, policy)
    return complex(out[()]) if scalar else out


def psi_thermo(r: int, t, sigma: float, J: float = 1.0,
               policy: TruncationPolicy = DEFAULT_POLICY):
    """Thermodynamic-limit amplitude at hierarchical distance r.

    r = 0 is the truncated return series; r >= 1 is evaluated through the
    scaling function so the collapse identity holds to the bit.  Truncation
    error is bounded by policy.tail_bound.  For 0 < sigma < 1e-6 the call
    falls through to the sigma = 0 closed form (with a warning): that form
    fixes amplitudes only up to a global phase, probabilities exactly.
    """
    if r < 0:
        raise InputError(f"shell index must be >= 0, got {r}")
    _check_sigma(sigma, J)
    if _near_zero(sigma):
        warnings.warn(
            f"sigma = {sigma} is below {SIGMA_NEAR_ZERO}; using the sigma = 0 "
            "closed form (global phase convention differs)",
            stacklevel=2,
        )
        return sigma_zero(r, t, J)
    tarr, scalar = _as_time_array(t)
    if r == 0:
        out = _return_series(tarr, sigma, J, policy)
    else:
        out = 2.0 ** (-r) * _scaling_array(
            tarr * 2.0 ** (-sigma * r), sigma, J, policy
        )
    return complex(out[()]) if scalar else out


def wave_profile_thermo(t: float, sigma: float, J: float = 1.0,
                        policy: TruncationPolicy = DEFAULT_POLICY,
                        r_max: int = 24) -> WaveProfile:
    """Shell-mode thermodynamic profile for r = 0..r_max.

    The shells beyond r_max carry total probability at most 2^(1-r_max).
    r_max beyond MAX_SHELL = 1023 raises ResourceLimitError before any shell
    is evaluated.
    """
    if r_max < 0:
        raise InputError(f"r_max must be >= 0, got {r_max}")
    if r_max > MAX_SHELL:
        raise ResourceLimitError(f"r_max = {r_max} exceeds the shell cap {MAX_SHELL}")
    shells = np.array([psi_thermo(r, t, sigma, J, policy) for r in range(r_max + 1)])
    return WaveProfile(shells, float(t), SHELL_MODE)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def occupation(r, amplitude):
    """P(r) = w_r |psi(r)|^2 on the w_r = `shell_weights` sites of shell r.

    Elementwise; integer shell indices r broadcast against the amplitudes.
    With r = 0 (w = 1) it is the probability |psi(x)|^2 of single sites.
    Shells beyond MAX_SHELL = 1023 raise ResourceLimitError.  |psi|^2 is
    `np.square`, which rounds a scalar as it rounds an array element.
    """
    r = np.asarray(r)
    if r.dtype.kind not in "iu" or np.any(r < 0):
        raise InputError(f"shell indices must be integers >= 0, got {r!r}")
    try:
        return shell_weights(int(r.max(initial=0)))[r] * np.square(np.abs(amplitude))
    except ValueError as exc:  # shapes that do not broadcast
        raise InputError(f"shell indices and amplitudes: {exc}") from exc


def _check_profile_time(source: WaveProfile, t, what: str) -> None:
    if np.ndim(t) != 0:
        raise InputError(f"{what} needs one time, got {t!r}")
    if float(t) != source.time:
        raise InputError(f"profile holds t = {source.time}, {what} asked at t = {t}")


def probability_thermo(r: int, t, sigma: float, J: float = 1.0,
                       policy: TruncationPolicy = DEFAULT_POLICY):
    """Thermodynamic-limit P(r, t); vectorized over t."""
    return occupation(r, psi_thermo(r, t, sigma, J, policy))


# ---------------------------------------------------------------------------
# long-time averages and bounds
# ---------------------------------------------------------------------------

def closed_form_average(r: int) -> float:
    """Infinite-horizon average of P(r, t): 1/3 for r in {0, 1}, 2^(1-r)/3."""
    if r < 0:
        raise InputError(f"shell index must be >= 0, got {r}")
    return 1.0 / 3.0 if r == 0 else 2.0 ** (1 - r) / 3.0


def tail_average(R: int) -> float:
    """Average probability of being at distance r > R: 2^(1-R)/3."""
    if R < 0:
        raise InputError(f"shell index must be >= 0, got {R}")
    return 2.0 ** (1 - R) / 3.0


def tail_bound(R: int) -> float:
    """Bound valid at every time: sum_{r>R} P(r, t) <= 2^(1-R)."""
    if R < 0:
        raise InputError(f"shell index must be >= 0, got {R}")
    return 2.0 ** (1 - R)


def time_average(r: int, T: float, sigma: float, J: float = 1.0,
                 policy: TruncationPolicy = DEFAULT_POLICY,
                 dt: float | None = None) -> float:
    """Finite-horizon average (1/T) int_0^T P(r, t) dt, composite trapezoid.

    The grid step defaults to 0.01/J, about two hundred points per period
    of the fastest mode.  Convergence to `closed_form_average(r)` requires
    a horizon with 2^(r sigma) << J T; the relative error then decays like
    2^(r sigma) / (J T).  Evaluation is chunked so long horizons use bounded
    memory; more than 2^24 steps raise ResourceLimitError.
    """
    if T <= 0:
        raise InputError(f"averaging horizon must be positive, got T = {T}")
    if dt is None:
        dt = 0.01 / J if J > 0 else 0.01
    n_steps = time_steps(T, dt)
    step = T / n_steps
    total = 0.0
    chunk = 1 << 20
    for start in range(0, n_steps + 1, chunk):
        idx = np.arange(start, min(start + chunk, n_steps + 1))
        values = probability_thermo(r, idx * step, sigma, J, policy)
        total += float(np.sum(values))
        if start == 0:
            total -= 0.5 * float(values[0])
    # remove the half-weight of the final grid point
    total -= 0.5 * float(probability_thermo(r, T, sigma, J, policy))
    return total * step / T


# ---------------------------------------------------------------------------
# singular limit sigma -> 0
# ---------------------------------------------------------------------------

def sigma_zero(r: int, t, J: float = 1.0):
    """Amplitude in the sigma -> 0 limit, global divergent phase removed.

    psi(0, t) = 1/(2 - e^{iJt});
    psi(r, t) = 2^(1-r) e^{iJrt} (1 - e^{-iJt}) / (2 - e^{iJt}) for r >= 1.
    Periodic in t with period 2 pi / J.
    """
    if r < 0:
        raise InputError(f"shell index must be >= 0, got {r}")
    if not math.isfinite(J):
        raise InputError(f"J must be finite, got {J}")
    tarr, scalar = _as_time_array(t)
    # a 1-d view keeps a scalar t on numpy's array loops: its scalar complex
    # arithmetic rounds some products differently
    rotor = np.exp(1j * J * tarr.reshape(-1))
    if r == 0:
        out = 1.0 / (2.0 - rotor)
    else:
        out = 2.0 ** (1 - r) * rotor ** r * (1.0 - np.conj(rotor)) / (2.0 - rotor)
    out = out.reshape(tarr.shape)
    return complex(out[()]) if scalar else out


def sigma_zero_probability(r: int, t, J: float = 1.0):
    """P(r, t) in the sigma -> 0 limit: 1/(5 - 4 cos Jt) at r = 0 and
    2^-r (4 - 4 cos Jt)/(5 - 4 cos Jt) beyond; sums to 1 over shells."""
    if r < 0:
        raise InputError(f"shell index must be >= 0, got {r}")
    if not math.isfinite(J):
        raise InputError(f"J must be finite, got {J}")
    tarr, scalar = _as_time_array(t)
    c = np.cos(J * tarr)
    if r == 0:
        out = 1.0 / (5.0 - 4.0 * c)
    else:
        out = 2.0 ** (-r) * (4.0 - 4.0 * c) / (5.0 - 4.0 * c)
    return float(out[()]) if scalar else out


# ---------------------------------------------------------------------------
# single-defect entanglement
# ---------------------------------------------------------------------------

def binary_entropy(p):
    """-p ln p - (1-p) ln(1-p), with 0 ln 0 = 0; p clipped to [0, 1].

    Vectorized over p; a scalar p gives a float.  p = 0 and p = 1 give -0.0,
    which the entropy tables print as -0.  A NaN p raises InputError.
    """
    p = np.asarray(p, dtype=float)
    if np.isnan(p).any():
        raise InputError("binary entropy of a NaN probability")
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(p > 0, p * np.log(p), 0.0)
        out -= np.where(p < 1, (1 - p) * np.log(1 - p), 0.0)
    return float(out) if out.ndim == 0 else out


_SHELL_STARTS = np.array(block_bounds(62))  # first sites of shells 0..63: all int64 cuts


def _cut_array(x, top: int) -> np.ndarray:
    cuts = np.asarray(x)
    if cuts.dtype.kind not in "iu" or np.any(cuts < 1) or np.any(cuts > top):
        raise InputError(f"cut positions must be integers in 1..{top}, got {x!r}")
    return cuts.astype(np.int64, copy=False)


def cumulative_probability(source: WaveProfile, x):
    """Probability that the excitation lies in sites 1..x, elementwise in x.

    x is an integer or an integer array of cuts; a scalar x gives a float.
    Site-mode profiles take cuts 1..L.  Shell-mode profiles count the
    whole shells inside the cut plus the covered fraction of the cut shell;
    shells beyond the profile truncation are treated as empty (their total
    weight is <= 2^(1-r_max)).
    """
    if source.mode == SITE_MODE:
        cuts = _cut_array(x, source.length)
        out = np.cumsum(occupation(0, source.amplitudes))[cuts - 1]
    else:
        n = source.length - 1
        cuts = _cut_array(x, np.iinfo(np.int64).max)
        if n < 63:  # a cut past the profile covers all of it
            cuts = np.minimum(cuts, 1 << n)
        shell = np.searchsorted(_SHELL_STARTS, cuts) - 1  # the shell of site x
        below = np.cumsum(occupation(np.arange(n + 1), source.amplitudes))
        below = np.concatenate(([0.0], below))[shell]
        inside = cuts - _SHELL_STARTS[shell]
        out = below + inside * occupation(0, source.amplitudes[shell])
    return float(out) if out.ndim == 0 else out


def single_particle_entropy(x, t, source: WaveProfile):
    """Entanglement entropy of the cut [1..x] for a single-defect state.

    Equals the binary entropy of P_A, the probability of finding the defect
    left of the cut; natural-log convention.  Elementwise over integer
    cuts x (1..L-1 in site mode); t is the profile's time, a scalar.
    """
    _check_profile_time(source, t, "entropy")
    if source.mode == SITE_MODE:
        _cut_array(x, source.length - 1)
    return binary_entropy(cumulative_probability(source, x))


# ---------------------------------------------------------------------------
# blind recovery of the dynamical exponent
# ---------------------------------------------------------------------------

# Time points per psi_fn call in the exponent scan; bounds its memory.
_SCAN_BLOCK_POINTS = 1 << 18

def estimate_dynamical_exponent(psi_fn, r_values, s_grid,
                                z_min: float = 0.1, z_max: float = 6.0,
                                scan: int = 3001, refine: int = 60) -> float:
    """Exponent z that best collapses 2^r psi(r, t) onto one curve of t 2^(-z r).

    `psi_fn(r, t_array)` supplies the amplitudes; nothing else about the
    model is used, so recovering z = sigma from the hierarchical dynamics
    is a blind check of the t ~ x^z scaling.  The mean pairwise spread has
    an extremely narrow global zero at the true exponent (its width shrinks
    with the largest r and rescaled time in play), so a dense geometric
    scan locates the dip before golden-section refinement; keep the s grid
    within a few oscillation periods or sharpen the scan accordingly.

    The scan hands `psi_fn` 2-d time arrays, one row per trial z, so
    `psi_fn` must act elementwise and return an array of the shape it was
    given (`psi_thermo` and `psi_finite` do).  Rows go out in blocks of at
    most 2^18 time points (one row if the grid is longer), which bounds the
    memory; a row's cost does not depend on the block it is in.  If 2^r or
    2^(z_max r) overflows for the largest r, ResourceLimitError is raised
    before any `psi_fn` call (overflowed scales would give NaN costs).
    """
    r_values = sorted(set(int(r) for r in r_values))
    if len(r_values) < 2:
        raise InputError("need at least two distinct r values to collapse")
    if scan < 2:
        raise InputError(f"scan needs at least 2 trial exponents, got {scan}")
    if refine < 0:
        raise InputError(f"refine must be >= 0, got {refine}")
    if not (math.isfinite(z_min) and z_min > 0):
        raise InputError(f"z_min must be finite and positive, got {z_min}")
    if not (math.isfinite(z_max) and z_max > z_min):
        raise InputError(f"need a finite z_max > z_min, got {z_min}..{z_max}")
    s_grid = np.asarray(s_grid, dtype=float).ravel()
    if s_grid.size == 0 or not np.all(np.isfinite(s_grid)):
        raise InputError("s_grid must be nonempty and finite")
    # 2^x is a finite double exactly when x < sys.float_info.max_exp = 1024
    exponent = max(r_values[-1], z_max * r_values[-1])
    if exponent >= sys.float_info.max_exp:
        raise ResourceLimitError(f"r = {r_values[-1]} needs 2^{exponent:g} in the z scan")
    r0 = r_values[0]

    def scaled_rows(r: int, zs: np.ndarray) -> np.ndarray:
        # scalar powers: np.power over an array rounds some of them
        # differently from the per-z reference
        scales = np.array([2.0 ** (z * r) for z in zs])
        return 2.0 ** r * psi_fn(r, s_grid[None, :] * scales[:, None])

    def spreads(zs: np.ndarray) -> np.ndarray:
        """Mean pairwise spread for each z, from one psi_fn call per shell."""
        ref = scaled_rows(r0, zs)
        acc = np.zeros(zs.size)
        for r in r_values[1:]:
            acc += np.mean(np.abs(scaled_rows(r, zs) - ref) ** 2, axis=-1)
        return acc / (len(r_values) - 1)

    zs = np.geomspace(z_min, z_max, scan)
    block = max(1, _SCAN_BLOCK_POINTS // s_grid.size)
    costs = np.concatenate(
        [spreads(zs[i:i + block]) for i in range(0, scan, block)]
    )
    best = int(np.argmin(costs))
    lo = zs[max(best - 1, 0)]
    hi = zs[min(best + 1, scan - 1)]

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = spreads(np.array([c]))[0], spreads(np.array([d]))[0]
    for _ in range(refine):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = spreads(np.array([c]))[0]
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = spreads(np.array([d]))[0]
    return 0.5 * (a + b)
