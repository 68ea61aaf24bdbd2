"""Path statistics: moments, structure-function roughness, ACF, convergence.

Estimators here are deliberately plain. The structure-function exponent is
an ordinary least squares fit in log-log coordinates, the autocorrelation
uses the biased normalization, and the refinement study couples every
level to one fine Brownian draw per path through exact block sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .engine import (
    Ensemble,
    SamplePath,
    SimulationConfig,
    refine_config,
    run_blocks,
    solve_batch,
)
from .randomness import _as_int, _as_real, _block_sums, sample_brownian_block
from .special import MittagLefflerError, gronwall_bound

__all__ = [
    "DegeneratePathError",
    "MonteCarloEstimate",
    "HolderEstimate",
    "AcfSeries",
    "ConvergenceReport",
    "estimate_moment",
    "sample_moment",
    "fit_loglog_slope",
    "estimate_holder",
    "acf_abs_increments",
    "convergence_study",
]


class DegeneratePathError(ValueError):
    """The path carries no usable variation for the requested statistic."""


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    r_squared: float
    q: float
    lags: tuple[int, ...]


@dataclass(frozen=True)
class AcfSeries:
    """Autocorrelation values by lag; ``series_length`` counts increments."""

    lags: tuple[int, ...]
    values: np.ndarray
    series_length: int


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level discrepancies against the finest-grid reference.

    ``dt_levels`` is strictly decreasing; ``sup_mse[i]`` is the maximum
    over level ``i``'s nodes of the mean squared gap to the reference at
    shared nodes.  That maximum over noisy per-node means is biased
    upward where the nodes' expected gaps are close: for a constant Hurst
    value of 0.3 (base N = 64, four levels, refine factor 2) it read 7 to
    12 % above the largest exact expectation at 2,000 seeds, and 16 to
    22 % above at 300.

    ``fitted_slope`` is the least-squares slope of ``log sup_mse`` against
    ``log dt``, None when any level is exactly coupled (``degenerate`` is
    then True and a slope is meaningless).  The reference lies only one
    refinement past the finest level, and a level's gap to so near a
    reference shrinks faster than its error, so the slope is steeper than
    the strong rate: for that constant Hurst value of 0.3 the exact local
    slopes of the three level pairs are 1.08, 1.37 and 2.04, and their
    fit is 1.48.  ``theoretical_rate_bound`` is ``2 * h_star``, the
    supremum of provable rates.

    ``envelope_constant`` is the smallest ``C`` such that every level
    satisfies ``sup_mse <= C * dt**0.5 * E_beta(Gamma(beta) * T**beta)``
    with ``beta = h_star``: the measured data re-expressed against a
    conservative comparison-bound envelope at the floor rate 1/2.  It is
    an annotation for calibration tests, None in the degenerate case, when
    the envelope overflows the float range, as it does for small
    ``h_star`` (below about 0.22 at ``T = 1``), and when its Mittag-Leffler
    series does not converge within the term budget.  The annotation never
    fails a study.
    """

    dt_levels: tuple[float, ...]
    sup_mse: tuple[float, ...]
    fitted_slope: float | None
    theoretical_rate_bound: float
    degenerate: bool
    n_paths: int
    refine_factor: int
    envelope_constant: float | None = None


def estimate_moment(ensemble: Ensemble, p: float, node: int) -> MonteCarloEstimate:
    """Monte Carlo estimate of ``E|X(t_node)|**p`` with its standard error."""
    n_nodes = ensemble.config.grid.steps + 1
    node = _as_int(node, "node", least=0)
    if node >= n_nodes:
        raise ValueError(f"node must lie in [0, {n_nodes}), got {node!r}")
    return sample_moment(ensemble.values[:, node], p)


def sample_moment(states: np.ndarray, p: float) -> MonteCarloEstimate:
    """Monte Carlo estimate of ``E|X|**p`` from the 1-d samples ``states`` of ``X``.

    The standard error is the sample standard deviation over the square
    root of the sample count, and 0 for a single sample.  ``states`` that
    are empty or not 1-d raise ``ValueError``, and so does a ``p`` that is
    negative or not a finite real: a string, a bool or an infinity.
    """
    # NaN fails the sign test; _as_real rejects bools and ints past the float range.
    if not (isinstance(p, numbers.Real) and 0.0 <= p < math.inf):
        raise ValueError(f"moment order p must be nonnegative and a finite real, got {p!r}")
    p = _as_real(p, "moment order p")
    states = np.asarray(states)
    if states.ndim != 1 or states.size == 0:
        raise ValueError(f"states must be a non-empty 1-d array, got shape {states.shape}")
    samples = np.abs(states) ** p
    m = samples.shape[0]
    value = float(np.mean(samples))
    std_error = 0.0 if m == 1 else float(np.std(samples, ddof=1) / math.sqrt(m))
    return MonteCarloEstimate(value=value, std_error=std_error, n_samples=m)


def fit_loglog_slope(xs, ys) -> tuple[float, float, float]:
    """OLS fit of ``log ys`` against ``log xs``: (slope, intercept, r^2).

    Requires finite, strictly positive inputs and at least two points.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two 1-d arrays of equal length >= 2")
    # Written so NaN fails it too: NaN > 0.0 is False.
    if not np.all(np.isfinite(xs) & (xs > 0.0) & np.isfinite(ys) & (ys > 0.0)):
        raise ValueError("log-log fit requires finite, strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("abscissae are all equal; slope undefined")
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    intercept = my - slope * mx
    syy = float(np.sum((ly - my) ** 2))
    r_squared = 1.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return slope, intercept, r_squared


# The lags used by default, those of them at most a quarter of the step count.
_DEFAULT_HOLDER_LAGS = (1, 2, 4, 8, 16, 32, 64)


def _holder_lags(steps: int, lags=None) -> tuple[int, ...]:
    """The lags :func:`estimate_holder` fits on a grid of ``steps`` steps.

    ``lags`` if given, else the powers of two up to ``min(64, steps //
    4)``.  Either way there must be at least three, strictly increasing,
    integers in ``[1, steps // 4]``, or ``ValueError`` is raised.
    """
    if lags is None:
        lags = tuple(m for m in _DEFAULT_HOLDER_LAGS if 4 * m <= steps)
    lags = tuple(_as_int(m, "lags", least=1) for m in lags)
    if len(lags) < 3:
        raise ValueError(f"need at least three lags in [1, {steps // 4}], got {lags!r}")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValueError(f"lags must be strictly increasing, got {lags!r}")
    if any(4 * m > steps for m in lags):
        raise ValueError(f"lags must lie in [1, {steps // 4}], got {lags!r}")
    return lags


def estimate_holder(path: SamplePath, q: float = 2.0, lags=None) -> HolderEstimate:
    """Structure-function roughness exponent of one path.

    ``S(m) = mean_k |X[k+m] - X[k]|**q`` is fitted against ``m * dt`` in
    log-log coordinates; the exponent is the slope divided by ``q``.  For
    Brownian input and ``q = 2`` this recovers 1/2.  Lags must be at least
    three, strictly increasing, and no larger than a quarter of the step
    count (larger lags leave too few pairs to average); by default they
    are the powers of two up to ``min(64, N // 4)``.  ``q`` must be a
    positive finite real, not a string or a bool.  A constant path (any
    ``S(m) == 0``) raises :class:`DegeneratePathError`.
    """
    if not (isinstance(q, numbers.Real) and 0.0 < q < math.inf):
        raise ValueError(f"q must be positive and a finite real, got {q!r}")
    q = _as_real(q, "q")
    lags = _holder_lags(path.grid.steps, lags)
    x = path.values
    s_vals = np.empty(len(lags))
    for idx, m in enumerate(lags):
        s_vals[idx] = np.mean(np.abs(x[m:] - x[:-m]) ** q)
    if np.any(s_vals == 0.0):
        raise DegeneratePathError("structure function vanished at some lag; path has no variation")
    taus = np.array(lags, dtype=np.float64) * path.grid.dt
    slope, _, r_squared = fit_loglog_slope(taus, s_vals)
    return HolderEstimate(exponent=slope / q, r_squared=r_squared, q=q, lags=lags)


def acf_abs_increments(path: SamplePath, max_lag: int) -> AcfSeries:
    """Autocorrelation of absolute increments, biased normalization.

    ``values[0]`` is exactly 1, and the lag must stay below half the
    series length so every lag keeps a majority overlap.  A path with
    constant absolute increments has no variance to normalize by and
    raises :class:`DegeneratePathError`.
    """
    max_lag = _as_int(max_lag, "max_lag", least=1)
    n = path.grid.steps
    if 2 * max_lag >= n:
        raise ValueError(f"max_lag must lie in [1, {(n - 1) // 2}], got {max_lag!r}")
    d = np.abs(np.diff(path.values))
    a = d - d.mean()
    denom = float(np.sum(a * a))
    if denom == 0.0:
        raise DegeneratePathError("absolute increments are constant; autocorrelation undefined")
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for m in range(1, max_lag + 1):
        values[m] = float(np.sum(a[:-m] * a[m:])) / denom
    values.setflags(write=False)
    return AcfSeries(lags=tuple(range(max_lag + 1)), values=values, series_length=n)


def _coupled_squared_gaps(config: SimulationConfig, start: int, stop: int,
                          levels: list[SimulationConfig]) -> list[np.ndarray]:
    """Squared gaps to the reference of the driving seeds ``start <= i < stop``.

    ``config`` is the reference's, on the finest grid, and ``levels`` are
    the configs of the levels, each on a grid whose step count divides the
    finest one.  Entry ``l`` is a ``(stop - start, N_l + 1)`` array, one
    row per seed, at the nodes of ``levels[l]``.
    """
    fine = sample_brownian_block(config.seed, config.grid, start, stop)
    reference = solve_batch(config, fine)
    gaps = []
    for level in levels:
        stride = config.grid.steps // level.grid.steps
        # Exact block sums of each row, by the helper randomness.coarsen uses.
        gap = solve_batch(level, _block_sums(fine, stride)) - reference[:, ::stride]
        gaps.append(gap * gap)
    return gaps


def convergence_study(
    config: SimulationConfig,
    n_levels: int,
    refine_factor: int,
    n_workers: int = 1,
) -> ConvergenceReport:
    """Coupled refinement study against a finest-grid reference.

    ``config.grid`` is the coarsest level.  For each of ``config.n_paths``
    driving seeds, one Brownian draw is sampled on the grid refined
    ``n_levels`` times and coarsened by exact block sums onto every level,
    so all levels see the same randomness.  Level ``l`` (``l = 0`` is the
    base grid, ``n_levels`` of them) is compared to the reference at shared
    nodes; the per-level discrepancy is the max over nodes of the mean
    squared gap.  The log-log slope of discrepancy against step size
    estimates the strong rate; it is left unfitted when some level is
    exactly coupled to the reference (e.g. a constant Hurst value of 1/2,
    where every level collapses to the same Brownian prefix sums).

    The level configs are built here once, ``refine_config(config,
    refine_factor ** l)``, and give ``dt_levels``.  Seeds are solved in
    blocks, on ``n_workers`` processes, this one included, when more than
    one is asked for; the block task binds the levels and solves each from
    the exact block sums of the reference's draw.  The other processes are
    workers made by ``os.fork``, so they inherit the task, a config with a
    lambda offset included, and return each block's squared gaps pickled,
    in block order; a platform without ``os.fork`` runs one worker.  The
    squared gaps are added up here in seed order, so the report does not
    depend on the worker count.  A failure raises
    :class:`~semsim.engine.PathSimulationError` naming the lowest failing
    seed index; the block task names a seed by its row in the block and
    the block runner adds the block's first index.
    """
    # Three levels at least, for a slope.
    n_levels = _as_int(n_levels, "n_levels", least=3)
    refine_factor = _as_int(refine_factor, "refine_factor", least=2)
    levels = [refine_config(config, refine_factor ** level) for level in range(n_levels)]

    acc = [np.zeros(level.grid.steps + 1) for level in levels]
    task = partial(_coupled_squared_gaps, levels=levels)
    blocks = run_blocks(task, refine_config(config, refine_factor ** n_levels), n_workers)
    for _, gaps in blocks:
        for total, squared in zip(acc, gaps):
            for row in squared:
                total += row

    sup_mse = tuple(float(np.max(a) / config.n_paths) for a in acc)
    dt_levels = tuple(level.grid.dt for level in levels)
    degenerate = any(v == 0.0 for v in sup_mse)
    slope = None
    envelope_constant = None
    if not degenerate:
        slope, _, _ = fit_loglog_slope(np.array(dt_levels), np.array(sup_mse))
        try:
            envelope = gronwall_bound(1.0, 1.0, config.hurst.h_star, config.grid.horizon)
        except MittagLefflerError:
            envelope = math.inf
        # A small h_star can put the envelope past the float range, or its
        # series past the term budget, and any mse over inf would read 0.0.
        if math.isfinite(envelope):
            envelope_constant = max(
                mse / (dt ** 0.5 * envelope) for dt, mse in zip(dt_levels, sup_mse)
            )
    return ConvergenceReport(
        dt_levels=dt_levels,
        sup_mse=sup_mse,
        fitted_slope=slope,
        theoretical_rate_bound=2.0 * config.hurst.h_star,
        degenerate=degenerate,
        n_paths=config.n_paths,
        refine_factor=refine_factor,
        envelope_constant=envelope_constant,
    )
