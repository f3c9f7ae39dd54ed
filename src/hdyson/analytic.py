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
bounds, the periodic sigma -> 0 closed form, and the binary-entropy
entanglement of a single-defect state.  A profile (`wave_profile_finite`,
`wave_profile_thermo`) is a complex array with the shells r = 0..R on its
last axis and the times on its leading axes; the cut probability and
entropy take such arrays.

Error model of the thermodynamic series: the terms k >= K are dropped, a
remainder of modulus at most 2^-K (`TruncationPolicy`, the cutoff that
every series evaluator takes, and its `tail_bound`).  Of the kept terms,
those whose phase is below about _TAIL_PHASE = 1/8 are summed from their
Taylor moments through order _TAIL_ORDER = 13, which adds at most 6.1e-24
times their total weight (see `_return_series`); the other terms are
summed one exponential at a time.

Long-time averages (`time_average`) are the composite trapezoid of P(r, t)
on the grid t_j = jT/n, summed in closed form over pairs of shell r's K + 1
modes (or, for shells the excitation has not reached, from the Taylor
moments of its amplitude), so they cost O(K^2) per shell, independent of
T / dt.  `time_steps` is the step count of those grids and of the CLI's
output time grids.

Shell indices go through `geometry.check_shell`: an integer 0..MAX_SHELL,
else InputError (ResourceLimitError above the cap).

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
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError, SingularLimitError
from .geometry import BLOCK_STARTS, check_shell, pair_level, shell_weights
from .spectral import ModelParams, eigenvalues, renormalized_coupling

__all__ = [
    "SIGMA_NEAR_ZERO",
    "TruncationPolicy",
    "time_steps",
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
    "binary_entropy",
    "cumulative_probability",
    "single_particle_entropy",
    "estimate_dynamical_exponent",
]

# Below this the 1/(1 - 2^-sigma) prefactors overflow their useful range;
# such runs are rerouted to the sigma = 0 closed forms.
SIGMA_NEAR_ZERO = 1e-6

# 2 pi - math.tau, the part of 2 pi below the last bit of math.tau
_TAU_LOW = 2.4492935982947064e-16

# Term k of the series carries 2^(-k-1), exactly 0 for k >= 1074: a larger K
# only adds zero terms.
MAX_SERIES_TERMS = 1074


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff K of the thermodynamic-limit mode series.

    The discarded tail is a geometric remainder, so its modulus is bounded
    by 2^-K; the default K = 64 pushes it below double precision.
    """

    K: int = 64

    def __post_init__(self):
        if self.K < 1:
            raise InputError(f"series cutoff K must be >= 1, got {self.K}")
        if self.K > MAX_SERIES_TERMS:
            raise ResourceLimitError(
                f"series cutoff K = {self.K} exceeds {MAX_SERIES_TERMS}, "
                "beyond which every term is zero"
            )

    @property
    def tail_bound(self) -> float:
        return 2.0 ** (-self.K)


DEFAULT_POLICY = TruncationPolicy()


def time_steps(span: float, dt: float) -> int:
    """Number of steps of about dt across [0, span]: 0 if span = 0, else >= 1.

    The count is not capped (callers cap what they build from it), but a
    ratio span / dt beyond the double range raises ResourceLimitError.
    """
    if not (span >= 0 and dt > 0):
        raise InputError(f"need span >= 0 and dt > 0, got span={span}, dt={dt}")
    if not math.isfinite(span / dt):
        raise ResourceLimitError(f"span {span} at step {dt} is not a finite number of steps")
    return max(1, int(round(span / dt))) if span > 0 else 0


def _as_time_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _check_sigma(sigma: float, J: float) -> None:
    if not (math.isfinite(sigma) and math.isfinite(J)):
        raise InputError(f"sigma and J must be finite, got sigma = {sigma}, J = {J}")
    if sigma == 0:
        raise SingularLimitError(
            "thermodynamic-limit series diverges at sigma = 0; "
            "use sigma_zero"
        )
    if sigma < 0:
        raise InputError(f"sigma must be >= 0, got {sigma}")
    # the fastest rate of the ladder, c 2^sigma of F's closing mode, must be
    # a finite double: from sigma = 1023 on (less for a large J) it is not
    if not _near_zero(sigma) and not (
            sigma < 1024.0 and math.isfinite(renormalized_coupling(sigma, J) * 2.0 ** sigma)):
        raise InputError(
            f"sigma = {sigma} with J = {J}: the ladder's fastest rate "
            "J_sigma 2^sigma overflows the double range"
        )


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
    r, n = check_shell(r), params.geom.levels
    if r > n:
        raise InputError(f"shell index {r} outside 0..{n}")
    eps = eigenvalues(params)
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


def wave_profile_finite(t, params: ModelParams) -> np.ndarray:
    """Finite-chain profile: psi_finite(r, t) for r = 0..N on the last axis.

    A scalar or array t gives shape t.shape + (N+1,); each element is the
    per-shell `psi_finite` call's.  Unit norm: sum_r P(r) = 1.
    """
    return np.stack(
        [psi_finite(r, t, params) for r in range(params.geom.levels + 1)], axis=-1
    )


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
    rate -i c 2^sigma of the closing term of F, the scale and offset of the
    head count (see `_return_series`) and the even and odd coefficient rows
    of the tail polynomial.  With
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
    closing = -1j * coupling * 2.0 ** sigma
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
    return rates, weights, speeds, closing, 1.0 / sigma, offset, even, odd


def _return_series(s, sigma: float, J: float, policy: TruncationPolicy,
                   shell: int = 0, closing: bool = False):
    """Mode series psi(0, s) = sum_{k<K} 2^(-k-1) exp(-i c 2^(-sigma k) s).

    With `closing` it is F(s) = psi(0, s) - exp(-i c 2^sigma s), and with
    shell = r >= 1 as well psi(r, s) = 2^-r F(2^(-sigma r) s).  The time
    scaling, the closing term and 2^-r are each one elementwise operation
    on a block, so a call on a float array allocates its output and the
    block scratch, no whole-array temporary.

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
    rates, weights, speeds, closing_rate, scale, offset, even, odd = _series_plan(sigma, J, K)
    sarr = np.asarray(s, dtype=float)
    out = np.empty(sarr.shape, dtype=complex)
    flat_out = out.reshape(-1)
    size = min(sarr.size, _SERIES_BLOCK)
    # block scratch, allocated once per call
    block, times, bits = np.empty(size), np.empty(size), np.empty(size, dtype=np.int32)
    key = np.empty(size, dtype=np.int16)
    modes = np.empty(size, dtype=np.int16)
    acc = np.empty(size, dtype=complex)
    term = np.empty(size, dtype=complex)
    y, u, poly, coef = (np.empty(size) for _ in range(4))
    for start in range(0, sarr.size, _SERIES_BLOCK):
        m = min(_SERIES_BLOCK, sarr.size - start)
        block[:m] = sarr.flat[start:start + m]  # C order, whatever the layout
        if shell:
            block[:m] *= 2.0 ** (-sigma * shell)
        g = times[:m]  # holds the head count k0, then the sorted times
        np.frexp(block[:m], out=(g, bits[:m]))
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
        np.take(block[:m], order, out=times[:m], mode="clip")
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
        if closing:
            t = term[:m]
            np.multiply(closing_rate, times[:m], out=t)
            np.exp(t, out=t)
            acc[:m] -= t
        values = acc[:m]
        if shell:  # into term, not in place: numpy's in-place loop for one
            # element gives an underflowed imaginary part the other zero sign
            values = np.multiply(2.0 ** (-shell), values, out=term[:m])
        flat_out[start:start + m][order] = values
    return out


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
    out = _return_series(sarr, sigma, J, policy, closing=True)
    return complex(out[()]) if scalar else out


def _warn_sigma_zero(sigma: float) -> None:
    warnings.warn(
        f"sigma = {sigma} is below {SIGMA_NEAR_ZERO}; using the sigma = 0 "
        "closed form (global phase convention differs)",
        stacklevel=3,
    )


def psi_thermo(r: int, t, sigma: float, J: float = 1.0,
               policy: TruncationPolicy = DEFAULT_POLICY):
    """Thermodynamic-limit amplitude at hierarchical distance r.

    r = 0 is the truncated return series; r >= 1 is evaluated through the
    scaling function so the collapse identity holds to the bit.  Truncation
    error is bounded by policy.tail_bound.  For 0 < sigma < 1e-6 the call
    falls through to the sigma = 0 closed form (with a warning): that form
    fixes amplitudes only up to a global phase, probabilities exactly.
    """
    r = check_shell(r)
    _check_sigma(sigma, J)
    if _near_zero(sigma):
        _warn_sigma_zero(sigma)
        return sigma_zero(r, t, J)
    tarr, scalar = _as_time_array(t)
    out = _return_series(tarr, sigma, J, policy, shell=r, closing=r > 0)
    return complex(out[()]) if scalar else out


def wave_profile_thermo(t, sigma: float, J: float = 1.0,
                        policy: TruncationPolicy = DEFAULT_POLICY,
                        r_max: int = 24) -> np.ndarray:
    """Thermodynamic profile: psi_thermo(r, t) for r = 0..r_max on the last axis.

    A scalar or array t gives shape t.shape + (r_max+1,); each element is
    the per-shell `psi_thermo` call's.  The shells beyond r_max carry total
    probability at most 2^(1-r_max).  r_max beyond MAX_SHELL = 1023 raises
    ResourceLimitError before any shell is evaluated.
    """
    r_max = check_shell(r_max, "r_max")
    return np.stack([psi_thermo(r, t, sigma, J, policy) for r in range(r_max + 1)], axis=-1)


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


def probability_thermo(r: int, t, sigma: float, J: float = 1.0,
                       policy: TruncationPolicy = DEFAULT_POLICY):
    """Thermodynamic-limit P(r, t); vectorized over t."""
    return occupation(r, psi_thermo(r, t, sigma, J, policy))


# ---------------------------------------------------------------------------
# long-time averages and bounds
# ---------------------------------------------------------------------------

def closed_form_average(r: int) -> float:
    """Infinite-horizon average of P(r, t): 1/3 for r in {0, 1}, 2^(1-r)/3."""
    r = check_shell(r)
    return 1.0 / 3.0 if r == 0 else 2.0 ** (1 - r) / 3.0


def tail_average(R: int) -> float:
    """Average probability of being at distance r > R: 2^(1-R)/3."""
    R = check_shell(R)
    return 2.0 ** (1 - R) / 3.0


def tail_bound(R: int) -> float:
    """Bound valid at every time: sum_{r>R} P(r, t) <= 2^(1-R)."""
    R = check_shell(R)
    return 2.0 ** (1 - R)


# Closed-form trapezoid averages (see `time_average`): a shell whose Taylor
# remainder bound at order _AVERAGE_ORDER is below _AVERAGE_REMAINDER of its
# first moment is summed from its moments, through trapezoid means of
# (t/T)^d that are summed directly up to _POWER_SUM_DIRECT steps and by
# Euler-Maclaurin beyond.  The sigma -> 0 ladder keeps _SIGMA_ZERO_MODES
# modes, a remainder below 2^-64 of the closed form's series.
_AVERAGE_ORDER = 20
_AVERAGE_REMAINDER = 2.0 ** -53
_POWER_SUM_DIRECT = 8
_SIGMA_ZERO_MODES = 64


def _shell_modes(r: int, sigma: float, J: float, K: int):
    """Amplitudes a_m, speeds f_m and time scale of shell r's modes.

    2^r psi(r, t) = sum_m a_m exp(-i f_m s) with s = scale * t, up to a
    global phase: the series modes 2^(-k-1) at c 2^(-sigma k) and, for
    r >= 1, the closing mode -1 at c 2^sigma, first, all from
    `_series_plan`, with scale 2^(-sigma r).  Below SIGMA_NEAR_ZERO the
    ladder is the sigma = 0 one, f = -k J and J, with scale 1.
    """
    if _near_zero(sigma):
        K = _SIGMA_ZERO_MODES
        speeds, closing, scale = -J * np.arange(K), J, 1.0
    else:
        _, _, speeds, rate, _, _, _, _ = _series_plan(sigma, J, K)
        closing, scale = -rate.imag, 2.0 ** (-sigma * r)
    amplitudes = 0.5 ** np.arange(1.0, K + 1.0)
    if r == 0:
        return amplitudes, speeds, scale
    return (np.concatenate(([-1.0], amplitudes)), np.concatenate(([closing], speeds)),
            scale)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi = fl(a b) and hi + lo = a b exactly, for a finite product.

    Dekker's product on the mantissas in [0.5, 1), whose 27-bit splits cannot
    overflow whatever the exponents; the exponents are put back after.
    """
    am, ae = np.frexp(a)
    bm, be = np.frexp(b)
    hi = am * bm
    c = 134217729.0 * am  # 2^27 + 1
    a1 = c - (c - am)
    c = 134217729.0 * bm
    b1 = c - (c - bm)
    a2, b2 = am - a1, bm - b1
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    return np.ldexp(hi, ae + be), np.ldexp(lo, ae + be)


def _pair_mean(amplitudes: np.ndarray, speeds: np.ndarray, step: float, n: int) -> float:
    """Trapezoid mean of |sum_m a_m exp(-i f_m s)|^2 over s = j step, j = 0..n.

    Each pair adds a_m a_l sin(2nx) / (n tan x) with x = (f_m - f_l) step / 2:
    the Dirichlet sum cos(nx) sin((n+1)x) / sin x less the trapezoid's half
    end points (1 + cos 2nx) / 2, times 2/n.  It has period pi in x and is 2
    at x = 0; x is reduced mod pi first, since near an aliased x = k pi the
    rounding of x and of 2nx would not cancel.  The difference, the product
    and the reduction are carried in two parts, so the reduced x is within
    an ulp or two of the exact one: with one rounded x of phase 3e3 rad the
    mean was off by 7e-13.
    """
    n = float(n)  # a step count beyond 2^63 is no int64
    m, l = np.triu_indices(amplitudes.size, 1)
    half = step / 2.0
    # f_m - f_l = diff + diff_low exactly (Knuth's two-sum)
    diff = speeds[m] - speeds[l]
    back = diff - speeds[m]
    diff_low = (speeds[m] - (diff - back)) - (speeds[l] + back)
    x, x_low = _two_product(diff, half)
    x_low += diff_low * half
    # x - k pi with pi = np.pi + _TAU_LOW / 2; x - k np.pi is exact near k np.pi
    turns = np.rint(x / np.pi)
    whole, whole_low = _two_product(turns, np.full(turns.size, np.pi))
    x = (x - whole) + (x_low - whole_low - turns * (_TAU_LOW / 2.0))
    pair = np.full(x.size, 2.0)
    moving = x != 0.0
    # 2 (n x) has the bits of (2 n) x, but 2 n overflows from n = 2^1023 on
    pair[moving] = np.sin(2.0 * (n * x[moving])) / (n * np.tan(x[moving]))
    return math.fsum(amplitudes * amplitudes) + math.fsum(amplitudes[m] * amplitudes[l] * pair)


@functools.lru_cache(maxsize=1)
def _euler_maclaurin_rows() -> np.ndarray:
    """Row d/2, column k-1: B_2k binom(d, 2k-1) / 2k for d = 0, 2, .., 2 order.

    The trapezoid mean of x^d on n steps of [0, 1] is 1/(d+1) plus these
    coefficients of n^(-2k); the sum ends at 2k = d, so it is exact.
    """
    order = _AVERAGE_ORDER
    bernoulli = [1.0]
    for m in range(1, 2 * order + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    rows = np.zeros((order + 1, order))
    for i in range(order + 1):
        for k in range(1, i + 1):
            rows[i, k - 1] = bernoulli[2 * k] * math.comb(2 * i, 2 * k - 1) / (2 * k)
    rows.flags.writeable = False
    return rows


def _power_means(n: int) -> np.ndarray:
    """Trapezoid means of (t/T)^d on t = jT/n, j = 0..n, for d = 0, 2, .., 2 order."""
    d = np.arange(0, 2 * _AVERAGE_ORDER + 1, 2)
    if n <= _POWER_SUM_DIRECT:
        x = np.arange(n + 1) / n
        return (np.sum(x ** d[:, None], axis=1) - (x[0] ** d + 1.0) / 2.0) / n
    rows = _euler_maclaurin_rows()
    y = float(n) ** -2
    acc = rows[:, -1].copy()
    for column in rows[:, -2::-1].T:  # Horner in n^-2
        acc *= y
        acc += column
    return 1.0 / (d + 1.0) + acc * y


def _moment_mean(amplitudes: np.ndarray, phases: np.ndarray, n: int) -> float | None:
    """Trapezoid mean of |A|^2 on x = j/n, A(x) = -1 + sum_k a_k exp(-i p_k x).

    With beta_0 = sum_k a_k - 1 and beta_q = sum_k a_k p_k^q / q!, the
    Taylor coefficients of A are (-i)^q beta_q, and |A|^2 has the even
    coefficients (-1)^(d/2) sum_q (-1)^q beta_(d-q) beta_q.  None when the
    remainder bound of order _AVERAGE_ORDER, sum_k a_k |p_k|^(order+1) /
    (order+1)!, exceeds _AVERAGE_REMAINDER of the first moment.
    """
    with np.errstate(over="ignore"):  # a bound past the double range fails the test
        remainder = np.sum(amplitudes * np.abs(phases) ** (_AVERAGE_ORDER + 1))
    if remainder / math.factorial(_AVERAGE_ORDER + 1) > (
            _AVERAGE_REMAINDER * abs(np.sum(amplitudes * phases))):
        return None
    q = np.arange(1, _AVERAGE_ORDER + 1)
    beta = np.empty(_AVERAGE_ORDER + 1)
    beta[0] = -0.5 ** amplitudes.size  # exactly sum_k a_k - 1
    factorials = np.cumprod(q.astype(float))
    beta[1:] = np.sum(amplitudes * phases ** q[:, None], axis=1) / factorials
    signs = (-1.0) ** np.arange(_AVERAGE_ORDER + 1)
    square = np.convolve(beta, signs * beta)[0::2] * signs
    return math.fsum(square * _power_means(n))


def time_average(r: int, T: float, sigma: float, J: float = 1.0,
                 policy: TruncationPolicy = DEFAULT_POLICY,
                 dt: float | None = None) -> float:
    """Finite-horizon average (1/T) int_0^T P(r, t) dt, composite trapezoid.

    The grid is t_j = jT/n, j = 0..n, with n = `time_steps(T, dt)`; the
    step defaults to 0.01/J, about two hundred points per period of the
    fastest mode.  Any finite T / dt is taken; an infinite one, or a
    horizon whose mode phases (T times the spread of the mode speeds)
    overflow the double range, raises ResourceLimitError.
    Convergence to `closed_form_average(r)` requires a horizon with
    2^(r sigma) << J T; the relative error then decays like 2^(r sigma) / (J T).

    The trapezoid is summed in closed form, not sampled: P(r, t) is w_r 2^-2r
    |A(t)|^2 for shell r's K + 1 modes (`_shell_modes`), so its mean is a sum
    over mode pairs, O(K^2) per shell whatever T / dt.  Where every mode
    phase over the horizon is small, that sum cancels to rounding; there
    the mean comes from the Taylor moments of A through order
    _AVERAGE_ORDER = 20, taken when their remainder bound is below
    _AVERAGE_REMAINDER = 2^-53 of the first moment.  The factor 2^-2r comes
    after the mean, one 2^-r into the weight w_r and one into the mean, so
    no shell up to MAX_SHELL underflows for lack of range.  Below
    SIGMA_NEAR_ZERO the sigma = 0 ladder is used (with psi_thermo's
    warning), whatever policy.K.
    """
    if T <= 0:
        raise InputError(f"averaging horizon must be positive, got T = {T}")
    if dt is None:
        dt = 0.01 / J if J > 0 else 0.01
    n = time_steps(T, dt)
    r = check_shell(r)
    _check_sigma(sigma, J)
    if _near_zero(sigma):
        _warn_sigma_zero(sigma)
    weight = occupation(r, 1.0)
    amplitudes, speeds, scale = _shell_modes(r, sigma, J, policy.K)
    horizon = T * scale
    if _near_zero(sigma) and J != 0:
        # P(r, t) then has period 2 pi / J, so only the phase J step modulo
        # 2 pi matters; reducing it sends a grid whose times all sit near
        # multiples of the period, where P is small, to the moment branch.
        # The remainder by math.tau is exact, and the turns it removed take
        # the rest of 2 pi, _TAU_LOW, so no rounded period is multiplied up.
        phase = J * (horizon / n)
        wrapped = math.remainder(phase, math.tau)
        turns = round((phase - wrapped) / math.tau)
        horizon = n * abs(math.remainder(wrapped - turns * _TAU_LOW, math.tau) / J)
    if not math.isfinite(float(np.ptp(speeds)) * float(horizon)):
        raise ResourceLimitError(
            f"horizon T = {T} puts the mode phases of shell {r} beyond the double range"
        )
    # phases of the series modes against the closing mode, which comes first
    mean = _moment_mean(amplitudes[1:], (speeds[1:] - speeds[0]) * horizon, n) if r else None
    if mean is None:  # r = 0, or a shell the excitation has reached
        mean = _pair_mean(amplitudes, speeds, horizon / n, n)
    # a mean of squares; rounding of a pair sum near 0 may not make it negative
    return float(weight * 2.0 ** -r * (2.0 ** -r * max(mean, 0.0)))


# ---------------------------------------------------------------------------
# singular limit sigma -> 0
# ---------------------------------------------------------------------------

def sigma_zero(r: int, t, J: float = 1.0):
    """Amplitude in the sigma -> 0 limit, global divergent phase removed.

    psi(0, t) = 1/(2 - e^{iJt});
    psi(r, t) = 2^(1-r) e^{iJrt} (1 - e^{-iJt}) / (2 - e^{iJt}) for r >= 1.
    Periodic in t with period 2 pi / J.
    """
    r = check_shell(r)
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


def cumulative_probability(amplitudes, x):
    """Probability that the excitation lies in sites 1..x of a profile.

    `amplitudes` holds shells r = 0..R on its last axis; x is an integer or
    an integer array of cuts >= 1.  The result has shape
    amplitudes.shape[:-1] + x.shape (a float for one profile and one cut):
    the whole shells inside the cut plus the covered sites of the cut shell.
    A cut past site 2^R covers the whole profile; shells beyond R are
    treated as empty (their total weight is <= 2^(1-R) for the
    thermodynamic profile).
    """
    amplitudes = np.asarray(amplitudes)
    if amplitudes.ndim == 0 or amplitudes.shape[-1] == 0:
        raise InputError("a profile needs at least shell 0 on its last axis")
    n = amplitudes.shape[-1] - 1
    cuts, top = np.asarray(x), np.iinfo(np.int64).max
    if cuts.dtype.kind not in "iu" or np.any(cuts < 1) or np.any(cuts > top):
        raise InputError(f"cut positions must be integers in 1..{top}, got {x!r}")
    cuts = cuts.astype(np.int64, copy=False)
    if n < 63:  # a cut past the profile covers all of it
        cuts = np.minimum(cuts, 1 << n)
    shell = pair_level(0, cuts - 1) + 1  # the shell of site x
    below = np.cumsum(occupation(np.arange(n + 1), amplitudes), axis=-1)
    below = np.concatenate((np.zeros(below.shape[:-1] + (1,)), below), axis=-1)
    inside = cuts - BLOCK_STARTS[shell]
    out = below[..., shell] + inside * occupation(0, amplitudes[..., shell])
    return float(out) if out.ndim == 0 else out


def single_particle_entropy(amplitudes, x):
    """Entanglement entropy of the cut [1..x] for a single-defect profile.

    Equals the binary entropy of P_A = `cumulative_probability(amplitudes,
    x)`, the probability of finding the defect left of the cut, with the
    same shapes; natural-log convention.
    """
    return binary_entropy(cumulative_probability(amplitudes, x))


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
    before any `psi_fn` call (overflowed scales would give NaN costs).  A
    scan in which every trial exponent gives the same spread (as at J = 0,
    where every amplitude is 0) has no exponent to find: InputError.
    """
    r_values = sorted(set(check_shell(r) for r in r_values))
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
    if np.all(costs == costs[0]):
        raise InputError(
            "every trial exponent gives the same spread: the amplitudes do not "
            "depend on the rescaled time, so there is no exponent to fit"
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
