"""Seeded synthetic series with known ground truth (cycles, slopes, basis).

Randomness comes from the Philox4x64-10 counter-based generator (Salmon,
Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
keyed by O'Neill's seed_seq hash of the seed, with Gaussian draws via the
inverse normal CDF, so identical specs produce bit-identical streams on every
platform. Generator and key are ported to numpy's core, bit-identical to the
uniforms of numpy's own ``Generator(Philox(seed))``, which is never imported.
The inverse CDF is a numpy port of the Cephes ``ndtri`` (Moshier, *Methods
and Programs for Mathematical Functions*, 1989), bit-identical to
``scipy.special.ndtri``. Draw order is fixed: futures-walk innovations first,
then basis innovations, then the initial basis value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .series import PriceSeries

__all__ = ["CointSpec", "SynthSpec", "gen_tones", "gen_coint_pair"]

EPOCH = np.datetime64("2000-01-03", "D")


def _check_finite(spec, *names: str, low: float = -math.inf) -> None:
    """A DataError naming the first field in ``names`` that is not finite or
    is below ``low``."""
    for name in names:
        value = getattr(spec, name)
        if not (math.isfinite(value) and value >= low):
            bound = "" if low == -math.inf else f" and >= {low:g}"
            raise DataError(f"{name} must be finite{bound} (got {value})")


@dataclass(frozen=True)
class CointSpec:
    """Cointegrated pair parameters: log S = intercept + slope * log F + basis."""

    long_run_slope: float = 0.9
    basis_phi: float = 0.8
    basis_sigma: float = 0.005
    intercept: float = 0.1
    walk_drift: float = 0.0002
    walk_sigma: float = 0.01
    start_price: float = 100.0

    def __post_init__(self):
        if not abs(self.basis_phi) < 1.0:
            raise DataError("|basis AR coefficient| must be < 1")
        _check_finite(self, "long_run_slope", "intercept", "walk_drift")
        _check_finite(self, "basis_sigma", "walk_sigma", low=0.0)
        if not 0.0 < self.start_price < math.inf:
            raise DataError(f"start_price must be finite and > 0 (got {self.start_price})")


@dataclass(frozen=True)
class SynthSpec:
    length: int = 1000
    seed: int = 0
    tones: tuple[tuple[float, float], ...] = ()  # (period days, amplitude)
    trend_slope: float = 0.0
    noise_sigma: float = 0.0
    coint: CointSpec | None = None

    def __post_init__(self):
        if self.length < 100:
            raise DataError("length must be >= 100")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        for period, amplitude in self.tones:
            if not period >= 4:
                raise DataError("tone periods must be >= 4 samples")
            if not math.isfinite(amplitude):
                raise DataError(f"tone amplitudes must be finite (got {amplitude})")
        _check_finite(self, "trend_slope")
        _check_finite(self, "noise_sigma", low=0.0)


# Cephes ndtri: a rational approximation in y - 1/2 on the centre
# exp(-2) < y < 1 - exp(-2), and two in z = 1/sqrt(-2 log y) on the tails
# (sqrt(-2 log y) below 8, and from 8 up). Each Q starts with the leading
# 1 that Cephes' p1evl implies; 1.0 * x + c rounds as x + c does.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, highest power first (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of y0 in (0, 1), element for element the
    operations of Cephes ``ndtri``. The tails take ``math.log``, the C
    library ``log`` that Cephes calls, because numpy's own ``log`` may round
    differently."""
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)  # reflect the upper tail
    out = np.empty_like(y)
    centre = y > _EXP_M2
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    tail = ~centre
    x = np.sqrt(np.array([-2.0 * math.log(v) for v in y[tail].tolist()]))
    x0 = x - np.array([math.log(v) for v in x.tolist()]) / x
    z = 1.0 / x
    x1 = np.where(
        x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1), z * _polevl(z, _P2) / _polevl(z, _Q2)
    )
    xt = x0 - x1
    out[tail] = np.where(upper[tail], xt, -xt)
    return out


# numpy's SeedSequence (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905): 32-bit hash constants, 4-word pool
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10: round multipliers and Weyl key increments
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LO32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _philox_key(seed: int) -> tuple[int, int]:
    """numpy's ``SeedSequence(seed).generate_state(2, np.uint64)`` for an int
    seed >= 0: the seed's little-endian 32-bit words hashed into a 4-word
    pool (words past the fourth mixed in afterwards), then four output words
    drawn from it and paired into two 64-bit words."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    out = []
    hash_const = _INIT_B
    for word in pool:
        word ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        out.append(word ^ word >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products ``m * x``, the
    high one summed from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    ll, lh, hl = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (ll >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = x_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def _uniforms(seed: int, n: int) -> np.ndarray:
    """The first ``n`` doubles in [0, 1) of numpy's
    ``Generator(Philox(seed)).random``: Philox4x64-10 blocks, block b on
    counter (b + 1, 0, 0, 0) since numpy bumps the counter before each block,
    their four words in order, each word x giving ``(x >> 11) * 2**-53``."""
    k0, k1 = _philox_key(seed)
    blocks = -(-n // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(blocks, dtype=np.uint64)
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
    x = np.stack([c0, c1, c2, c3], axis=1).ravel()[:n]
    return (x >> np.uint64(11)) * 2.0**-53


def _normals(u: np.ndarray) -> np.ndarray:
    """Standard normals via inverse CDF of uniforms (portable)."""
    return _ndtri(np.clip(u, 1e-15, 1.0 - 1e-16))


def _timestamps(n: int) -> np.ndarray:
    return EPOCH + np.arange(n)


def gen_tones(spec: SynthSpec) -> PriceSeries:
    """Sum of sinusoids plus linear trend and optional Gaussian noise,
    offset so every level is strictly positive."""
    t = np.arange(spec.length, dtype=float)
    x = np.zeros(spec.length)
    for period, amplitude in spec.tones:
        x += amplitude * np.sin(2.0 * math.pi * t / period)
    x += spec.trend_slope * t
    if spec.noise_sigma > 0.0:
        x += spec.noise_sigma * _normals(_uniforms(spec.seed, spec.length))
    offset = 1.0 - min(0.0, float(x.min()))
    return PriceSeries(
        timestamps=_timestamps(spec.length),
        values=x + offset,
    )


def gen_coint_pair(spec: SynthSpec) -> tuple[PriceSeries, PriceSeries]:
    """Cointegrated (spot, futures) levels.

    log F is a Gaussian random walk with drift; log S = a + b log F + u with
    u a stationary AR(1) basis started from its stationary distribution.
    """
    if spec.coint is None:
        raise DataError("coint parameters required")
    c = spec.coint
    n = spec.length
    z = _normals(_uniforms(spec.seed, 2 * n - 1))
    walk_z, basis_z, u0_z = z[: n - 1], z[n - 1 : -1], z[-1]

    log_f = np.empty(n)
    log_f[0] = math.log(c.start_price)
    np.cumsum(c.walk_drift + c.walk_sigma * walk_z, out=log_f[1:])
    log_f[1:] += log_f[0]

    u = np.empty(n)
    stat_sd = c.basis_sigma / math.sqrt(1.0 - c.basis_phi**2) if c.basis_sigma > 0 else 0.0
    u[0] = stat_sd * u0_z
    for i in range(1, n):
        u[i] = c.basis_phi * u[i - 1] + c.basis_sigma * basis_z[i - 1]

    log_s = c.intercept + c.long_run_slope * log_f + u
    ts = _timestamps(n)
    spot = PriceSeries(ts, np.exp(log_s))
    fut = PriceSeries(ts, np.exp(log_f))
    return spot, fut
