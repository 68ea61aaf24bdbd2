"""Deterministic Brownian increment generation on uniform time grids.

Reproducibility contract
------------------------
All randomness flows through a single counter-based pipeline:

1. Stream keys are 64-bit integers.  Per-path keys are derived from a master
   seed with the SplitMix64 output permutation, so enumerating path indices
   never produces colliding or overlapping streams.
2. Raw 64-bit words come from the Philox-4x64 counter-based generator keyed
   by the stream key.
3. Each word is mapped to a uniform in the open interval (0, 1) by taking the
   top 53 bits and centering, ``u = (w >> 11 + 0.5) * 2**-53``.  The top
   code, whose centred value rounds to 1.0, maps to ``1 - 2**-53``, the
   largest double below 1.  Exactly one word is consumed per Gaussian.
4. Gaussians are produced by the inverse normal CDF, never by rejection
   sampling, so the draw count is a fixed function of the request size.
   The inverse is a numpy port of the Cephes ``ndtri`` rational
   approximation: the same coefficients, branch tests and operation order,
   with the two tail logarithms taken by ``math.log``, the C library's
   ``log``.  numpy's vectorised ``log`` is not used there because it
   rounds differently from the C library on some inputs.

Increments are quantized to the fixed dyadic lattice ``QUANTUM = 2**-40``.
Every increment is an exact integer multiple of the quantum, and any sum of
desk-scale many increments stays far below ``2**53`` quanta, so block sums
and prefix sums are exact in IEEE double arithmetic no matter how they are
grouped.  This is what makes refinement coupling bit-exact: prefix sums of
coarsened increments agree bitwise with prefix sums of the fine increments
at shared nodes.  The quantization perturbs each draw by at most ``2**-41``,
which is orders of magnitude below every statistical tolerance used here.

Paths are sampled a block at a time: :func:`sample_brownian_block` derives
the keys of a block of path indices at once, restarts one Philox generator
per key and maps the whole block through the inverse CDF in one call.  A
row depends only on its key and the grid, never on its block, and
:func:`sample_brownian` is a block of one.

Results are bit-for-bit reproducible for a fixed numpy and C library on one
platform.  The stream of raw words is stable across builds (Philox is fully
specified), and the rest of the inverse CDF is correctly rounded IEEE
arithmetic, so only the last ulp of the C library's ``log`` may move the
bits from one build to another.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "QUANTUM",
    "TimeGrid",
    "Seed",
    "BrownianIncrements",
    "make_grid",
    "derive_path_seed",
    "sample_brownian",
    "sample_brownian_block",
    "coarsen",
]

# Lattice spacing for increment quantization.  See the module docstring.
QUANTUM = 2.0 ** -40

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _path_keys(master: int, start: int, stop: int) -> np.ndarray:
    """Stream keys of the path indices ``start <= i < stop``, as uint64.

    Key ``i`` is ``splitmix64(master + GOLDEN_GAMMA * (i + 1))``, the
    SplitMix64 output permutation applied in wrapping uint64 arithmetic.
    """
    first = (master + _GOLDEN_GAMMA * (start + 1)) & _UINT64_MASK
    z = np.arange(stop - start, dtype=np.uint64) * np.uint64(_GOLDEN_GAMMA)
    z += np.uint64(first)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


# Cephes ndtri: sqrt(2 pi), exp(-2), and the rational approximations on
# |y - 1/2| <= 3/8 (P0/Q0) and on z = sqrt(-2 log y) in [2, 8) (P1/Q1) and
# [8, 64] (P2/Q2).  The leading coefficient 1 of each Q is implicit.
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _as_int(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``, or ``ValueError`` naming ``name``.

    The rule for every count and index: a value equal to its ``int()`` is
    that int, so ``4``, ``4.0`` and ``np.int64(4)`` are all 4.  Anything
    else, a fraction, NaN, an infinity or a bool included, raises rather
    than being truncated: ``True == 1``, but a flag is not a count.
    """
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


def _as_real(value, name: str) -> float:
    """``value`` as a finite float, or ``ValueError`` naming ``name``.

    The rule for every real input: an int or a float, numpy's included,
    whose float is finite.  Anything else raises rather than being
    converted: a string such as ``"1.0"``, ``None``, NaN, an infinity, an
    int past the float range, or a bool, since a flag is not a number.
    """
    # float, numpy's float64 included, is tested first: the ABC test is slow.
    real = isinstance(value, (float, numbers.Real)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return x


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of each value (see the module docstring)."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF, bitwise equal to Cephes ``ndtri``.

    0 and 1 map to -inf and +inf; values outside [0, 1] and NaN map to
    NaN.  The central and tail branches run on the gathered values of
    each, in the Cephes operation order.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    shape = y0.shape
    y0 = y0.ravel()
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.empty_like(y)

    central = y > _EXP_M2
    index = np.flatnonzero(central)
    yc = y[index]
    yc -= 0.5
    y2 = yc * yc
    x = y2 * _polevl(y2, _P0)
    x /= _p1evl(y2, _Q0)
    x *= yc
    x += yc
    x *= _S2PI
    out[index] = x

    index = np.flatnonzero(~central)
    y = y[index]
    # 0, negatives and NaN land here, where the log is undefined.
    domain = y > 0.0
    if not domain.all():
        edge = index[~domain]
        out[edge] = np.where(y0[edge] == 0.0, -np.inf, np.where(y0[edge] == 1.0, np.inf, np.nan))
        index, y = index[domain], y[domain]
    x = _log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1)
    x1 /= _p1evl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        z = z[far]
        x1[far] = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x0 -= x1
    np.negative(x0, out=x0, where=~upper[index])
    out[index] = x0
    return out.reshape(shape)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of the ``steps + 1`` nodes ``k * dt`` on ``[0, horizon]``.

    ``dt = horizon / steps`` is a rounded quotient, so ``dt * steps`` may
    differ from ``horizon`` by one ulp.
    """

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _as_real(self.horizon, "horizon"))
        object.__setattr__(self, "steps", _as_int(self.steps, "steps", least=1))
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be a positive finite float, got {self.horizon!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        """Read-only array of the ``steps + 1`` node times."""
        t = np.arange(self.steps + 1, dtype=np.float64) * self.dt
        t.setflags(write=False)
        return t


def make_grid(horizon: float, steps: int) -> TimeGrid:
    """Build a :class:`TimeGrid`, validating the inputs.

    Parameters
    ----------
    horizon : float
        Final time ``T``, strictly positive and finite.
    steps : int
        Number of uniform steps ``N``, at least 1; a non-integral value
        raises ``ValueError`` rather than being truncated.
    """
    return TimeGrid(horizon=horizon, steps=steps)


@dataclass(frozen=True)
class Seed:
    """A 64-bit stream key."""

    value: int

    def __post_init__(self) -> None:
        value = _as_int(self.value, "seed value", least=0)
        if value > _UINT64_MASK:
            raise ValueError(f"seed value must be a 64-bit unsigned integer, got {self.value!r}")
        object.__setattr__(self, "value", value)


def derive_path_seed(seed: Seed, path_index: int) -> Seed:
    """Derive the stream key for one path from a master seed.

    The key is ``splitmix64(master + GOLDEN_GAMMA * (path_index + 1))``
    reduced mod ``2**64``.  For a fixed master the pre-mix values are
    distinct for every index (the gamma is odd), and the SplitMix64
    permutation is a bijection, so derived keys never collide across the
    index range of a run.
    """
    path_index = _as_int(path_index, "path_index", least=0)
    return Seed(int(_path_keys(seed.value, path_index, path_index + 1)[0]))


@dataclass(frozen=True)
class BrownianIncrements:
    """Brownian increments over the intervals of a :class:`TimeGrid`.

    ``values[i]`` is the increment over ``[t_i, t_{i+1})``; there are
    ``grid.steps`` of them, each an exact multiple of :data:`QUANTUM`.

    ``seed_provenance`` records ``(master_seed, path_index)``.
    :func:`sample_brownian` records ``(m, 0)`` for ``Seed(m)``; regenerate
    with ``sample_brownian(Seed(m), grid)``.  Increments built from row
    ``k`` of :func:`sample_brownian_block` under ``Seed(m)`` carry ``(m,
    k)``; regenerate with ``sample_brownian(derive_path_seed(Seed(m), k),
    grid)``.  Objects produced by :func:`coarsen` inherit the provenance of
    the fine stream they were reduced from.
    """

    grid: TimeGrid
    values: np.ndarray
    seed_provenance: tuple[int, int]

    def __post_init__(self) -> None:
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (self.grid.steps,)):
            raise ValueError(
                f"values must be a float64 array of shape ({self.grid.steps},), got {getattr(v, 'shape', None)}"
            )


def sample_brownian(seed: Seed, grid: TimeGrid) -> BrownianIncrements:
    """Sample the ``grid.steps`` Gaussian increments of one Brownian path.

    Each increment has mean 0 and variance ``grid.dt`` (up to lattice
    quantization, see the module docstring).  The same ``(seed, grid)``
    always reproduces the identical array.

    Parameters
    ----------
    seed : Seed
        Stream key; use :func:`derive_path_seed` for per-path keys.
    grid : TimeGrid
        Target grid.
    """
    values = _increments([seed.value], grid)[0]
    values.setflags(write=False)
    return BrownianIncrements(grid=grid, values=values, seed_provenance=(seed.value, 0))


def sample_brownian_block(master: Seed, grid: TimeGrid, start: int, stop: int) -> np.ndarray:
    """Sample the increments of the paths ``start <= i < stop`` of a master seed.

    Returns a ``(stop - start, grid.steps)`` array whose row ``i - start``
    is ``sample_brownian(derive_path_seed(master, i), grid).values`` bit
    for bit.  The whole block goes through the inverse CDF in one call.
    """
    start = _as_int(start, "start", least=0)
    stop = _as_int(stop, "stop", least=start)
    return _increments(_path_keys(master.value, start, stop), grid)


def _increments(keys, grid: TimeGrid) -> np.ndarray:
    """Increments on ``grid`` of the stream of each key, one row per key."""
    n = grid.steps
    raw = np.empty((len(keys), n), dtype=np.uint64)
    # Setting the state of one generator with a new key and a zero counter
    # restarts it exactly as a new Philox(key=key) would start, without
    # seeding a new generator per stream.
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    for row, key in zip(raw, keys):
        state["state"]["key"][0] = key
        bitgen.state = state
        row[...] = bitgen.random_raw(n)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
    return np.rint(_ndtri(u) * math.sqrt(grid.dt) / QUANTUM) * QUANTUM


def coarsen(increments: BrownianIncrements, factor: int) -> BrownianIncrements:
    """Aggregate increments onto a grid coarser by an integer ``factor``.

    Output value ``j`` is the sum of input values ``j*factor`` through
    ``(j+1)*factor - 1``, accumulated left to right.  On the quantization
    lattice these block sums are exact, so prefix sums of the result agree
    bitwise with prefix sums of the input at shared nodes.
    """
    factor = _as_int(factor, "factor", least=1)
    n = increments.grid.steps
    if n % factor != 0:
        raise ValueError(f"factor {factor} does not divide the step count {n}")
    if factor == 1:
        return increments
    values = _block_sums(increments.values, factor)
    values.setflags(write=False)
    coarse = TimeGrid(horizon=increments.grid.horizon, steps=n // factor)
    return BrownianIncrements(grid=coarse, values=values, seed_provenance=increments.seed_provenance)


def _block_sums(values: np.ndarray, factor: int) -> np.ndarray:
    """Sums of each run of ``factor`` entries along the last axis, added left to right.

    The last axis must be a multiple of ``factor`` long; every row of a
    batch is summed as :func:`coarsen` sums one path.
    """
    blocks = values.reshape(*values.shape[:-1], -1, factor)
    return np.cumsum(blocks, axis=-1)[..., -1]
