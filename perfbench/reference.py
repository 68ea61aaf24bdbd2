"""Independent reference for the benchmark's correctness checks.

Everything here is written from the recipes documented in semsim's module
docstrings and imports nothing from semsim:

* path keys: SplitMix64 of ``master + GOLDEN_GAMMA * (index + 1)``;
* raw words: numpy's Philox-4x64-10 keyed by ``(key, 0)``, counter
  starting at 0 and incremented before each block of four words;
* uniforms from the top 53 bits, ``u = ((w >> 11) + 0.5) * 2**-53``;
* Gaussians by the inverse normal CDF ``ndtri`` (the documented Cephes
  routine, called one scalar at a time);
* increments rounded to the dyadic lattice ``2**-40``;
* the explicit left-point recursion in plain Python (``math``, one running
  sum per row, left to right).

The last step uses libm ``pow``/``exp``/``sin`` where the program uses
numpy's, which may differ in the last ulp, so paths are compared with a
tolerance (``PATH_RTOL``), never bitwise.
"""

from __future__ import annotations

import math

from scipy.special import ndtri

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
QUANTUM = 2.0 ** -40
EPSILON_FLOOR = 0.05

# Relative tolerance (floored at scale 1) for reference paths against
# program paths.  Measured gaps are below 1e-14 (2048-step prefixes with
# state-dependent Hurst and dampening); the slack covers ulp differences
# between libm and numpy that the recursion feeds back through the state.
PATH_RTOL = 1e-12

_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B


def splitmix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def path_key(master: int, index: int) -> int:
    return splitmix64(master + GOLDEN_GAMMA * (index + 1))


def philox_words(key: int, n: int) -> list[int]:
    """First ``n`` raw 64-bit words of Philox-4x64-10 keyed by ``(key, 0)``."""
    out: list[int] = []
    counter = 0
    while len(out) < n:
        counter += 1
        c0, c1, c2, c3 = counter & MASK64, (counter >> 64) & MASK64, 0, 0
        k0, k1 = key & MASK64, key >> 64
        for _ in range(10):
            p0 = _PHILOX_M0 * c0
            p1 = _PHILOX_M1 * c2
            c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & MASK64,
                              (p0 >> 64) ^ c3 ^ k1, p0 & MASK64)
            k0 = (k0 + _PHILOX_W0) & MASK64
            k1 = (k1 + _PHILOX_W1) & MASK64
        out.extend((c0, c1, c2, c3))
    return out[:n]


def increments(master: int, index: int, horizon: float, steps: int) -> list[float]:
    """The ``steps`` lattice-quantized Brownian increments of path ``index``."""
    scale = math.sqrt(horizon / steps)
    values = []
    for w in philox_words(path_key(master, index), steps):
        z = float(ndtri(((w >> 11) + 0.5) * 2.0 ** -53))
        values.append(round(z * scale / QUANTUM) * QUANTUM)
    return values


def hurst_fn(spec: dict):
    """Plain-Python Hurst function of the state, clipped to its range."""
    name, p = spec["name"], spec.get("params", [])
    if name == "constant":
        return lambda x: p[0]
    if name == "bell":
        return lambda x: max(1.0 / (1.0 + x * x), EPSILON_FLOOR)
    if name == "trig":
        lo, hi = p[0] - abs(p[1]), p[0] + abs(p[1])
        return lambda x: min(max(p[0] + p[1] * math.sin(p[2] * x), lo), hi)
    raise ValueError(f"no reference for hurst {name!r}")


def dampening_fn(spec: dict | None):
    if spec is None:
        return None
    name, p = spec["name"], spec.get("params", [])
    if name == "constant":
        return lambda x: p[0]
    if name == "bell":
        return lambda x: max(1.0 / (1.0 + x * x), EPSILON_FLOOR)
    raise ValueError(f"no reference for dampening {name!r}")


def left_point(dB: list[float], horizon: float, steps: int, hurst, dampening,
               upto: int) -> list[float]:
    """Nodes ``0..upto`` of the left-point recursion driven by ``dB``.

    ``X[k] = sum_{i<k} (t_k - t_i)**(h(X[i]) - 1/2)
    * exp(-f(X[i]) * (t_k - t_i)) * dB[i]``, summed left to right.
    """
    dt = horizon / steps
    t = [k * dt for k in range(upto + 1)]
    x = [0.0]
    expo = []
    damp = []
    for k in range(1, upto + 1):
        i = k - 1
        expo.append(hurst(x[i]) - 0.5)
        damp.append(None if dampening is None else -dampening(x[i]))
        tk = t[k]
        total = 0.0
        for i in range(k):
            d = tk - t[i]
            term = math.pow(d, expo[i])
            if dampening is not None:
                term *= math.exp(damp[i] * d)
            term *= dB[i]
            total = term if i == 0 else total + term
        x.append(total)
    return x


def relative_gap(got: list[float], expected: list[float]) -> float:
    """Largest ``|got - expected| / max(1, |expected|)`` over common nodes."""
    return max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, expected))


def acf_abs_increments(x: list[float], max_lag: int) -> list[float]:
    """Biased autocorrelation of ``|X[k+1] - X[k]|`` for lags ``0..max_lag``."""
    d = [abs(b - a) for a, b in zip(x, x[1:])]
    mean = math.fsum(d) / len(d)
    a = [v - mean for v in d]
    denom = math.fsum(v * v for v in a)
    n = len(a)
    return [math.fsum(a[i] * a[i + m] for i in range(n - m)) / denom
            for m in range(max_lag + 1)]


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Ordinary least squares slope of ``log ys`` against ``log xs``."""
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    sxx = math.fsum((u - mx) ** 2 for u in lx)
    sxy = math.fsum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return sxy / sxx
