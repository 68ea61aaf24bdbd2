"""Euler-Maruyama simulation of self-exciting multifractional paths.

The discrete path is the left-point approximation of a singular-kernel
Volterra equation:

    X[0] = g(0)
    X[k] = g(t_k) + sum_{i < k} sigma(t_k, t_i, X[i]) * dB[i]

with ``sigma(t, s, x) = (t - s)**(h(t, x) - 1/2)``, optionally dampened by
``exp(-f(t, x) * (t - s))``.  The kernel's first argument is the
*evaluation* time ``t_k``, so no kernel value serves two rows and a path
costs Theta(N^2) kernel evaluations.

Batched solver
--------------
One solver serves every caller.  It takes the increments of P paths as a
``(P, N)`` array and makes one numpy call per operation for all P paths,
so the per-call overhead is paid once per step of a batch rather than
once per step of every path.  :func:`simulate_discrete` is a batch of
one; :func:`simulate_blocks` (behind :func:`monte_carlo` and every
command of ``cli``) and the refinement study in ``analysis`` solve
contiguous blocks of ``max(1, 2**14 // N)`` paths.  One in-order map
runs the blocks: the map of a process pool, one task per block, when
more than one worker is asked for, there is more than one block and the
config pickles; the builtin ``map`` in this process otherwise.  Results
arrive in block order either way.

Columns
-------
The solver goes column by column: once node ``i`` is final, its terms for
every later node ``k`` are built as one column and added to the running
sums of those nodes.  A Hurst or dampening function that declares
``lip_t == 0`` does not depend on time, and neither does a constant one,
so it is evaluated once per column, at ``(t_i, X[i])``: one ``evaluate``
call on the node's states as a ``(P, 1)`` column, whose values broadcast
along the later nodes, and N evaluations per path instead of N(N+1)/2.
Every built-in declares ``lip_t == 0``.  Whatever dtype an evaluator
returns, a Python float, float32 or ints, its values enter the exponent
in float64.  A function with ``lip_t > 0`` is evaluated at ``(t_k,
X[i])`` for every later node, as the recursion reads, in one call per
column that takes the later times as a row.  The declaration is trusted:
a custom function that varies in time while declaring ``lip_t == 0`` is
evaluated at the node times only.  :func:`~semsim.model.validate_hurst` and
:func:`~semsim.model.validate_dampening` scan the ``t`` direction and
report such a declaration as a ``lipschitz_t`` violation.

A column of the ``m = N - i`` later nodes is built as one C-contiguous
``(P, m)`` block: the exponents and terms of every column are views of the
first ``P * m`` floats of two flat buffers of ``P * N``, allocated once per
batch, and the running sums keep the path-major ``(P, N + 1)`` layout.
numpy runs the ``exp`` over such a block as one flat loop.  The other
calls cannot be one flat loop: the ``(P, 1)`` Hurst, dampening and
increment columns broadcast along ``(m,)`` rows, and each column is added
to the strided ``[:, i:]`` slice of the sums.  numpy runs such a call
through its iterator's buffers whenever its output has at most
``np.getbufsize()`` elements, 8192 by default, copying the operands into
buffers of that size so one inner loop covers the block; that costs two
to three times a flat call.  Larger calls run one inner loop per row at
about flat speed.  So the column loop sets the buffer to numpy's minimum,
16 elements, under which a small call costs about what a flat one does,
and restores the caller's size when it returns or raises; the Hurst and
dampening evaluators of a column run under it too.  Buffering copies
operands and nothing else: every value is the same IEEE operation
on the same operands, so no bit depends on the buffer size.

On every grid, node ``k > i`` lies the distance ``d[k - i - 1]`` after node
``i``, where ``d = t[1:]`` are the node times themselves: one rounding of
``(k - i) * dt``.  ``log d`` is tabled once per kernel, and a term is one
``exp``: ``exp((h - 1/2) * log d - f * d) * increment``.  An exponent that
does not read the state, a constant Hurst value's or a constant
dampening's, depends on the distance alone; their sum is one state-free
row, tabled once.  A column is the state-dependent Hurst exponent plus
the state-dependent dampening exponent plus that row, exponentiated, times
the increments; one builder assembles every column.

Refinement interpolation builds its sums from the same columns, one per
coarse node over the fine nodes after it.  The solver keeps this batched
builder, with its row and buffers, apart from
:mod:`semsim.kernels`, whose :func:`~semsim.kernels.sigma` (the power
``gap ** (h - 1/2)``) is the reference it is tested against; the two
agree to a few ulp per term.

Diagonals
---------
When no factor reads the state (constant Hurst, no or constant
dampening), on any grid, the kernel is ``K = exp`` of the state-free row:
``X[k] = g(t_k) + sum_{i < k} K[k - i - 1] dB[i]``.  The solver then holds
the sums node-major, ``(N + 1, P)``, and adds one distance ``d`` at a
time, ``sums[d:] += K[d] * dB[:N - d]``, where every operand is one
contiguous block; going from the largest distance down keeps each node's
index order, and ``K[d] * dB[i]`` is the column builder's term bit for
bit.  The offset is added last.  State-dependent kernels keep the
path-major columns, where the node-major layout is slower on narrow
batches.

Summation discipline
--------------------
Every node sums its terms strictly left to right, in index order: the
columns (or diagonals) are added to running sums that start at -0.0, the
identity of float addition, since ``-0.0 + a`` is ``a`` bit for bit, signed
zeros included, where a start at 0.0 would turn a -0.0 sum into +0.0.
Terms are always built as ``exp(exponent) * increment``, the exponent a
sum of at most two terms, so the order in which they are added does not
show in the bits.  Together with the lattice quantization of the driving
increments this makes the exact identities hold bitwise: a constant Hurst
value of 1/2 gives the exponent 0 and the factor 1, which reproduces
Brownian prefix sums; zero dampening adds an exact zero to the exponent,
which reproduces the undampened run; and refinement interpolation
reproduces the coarse path at shared nodes on grids with exact node
products (see ``TimeGrid.has_exact_nodes``), where a coarse distance is
bitwise a fine one.  A path's bits do not depend on the batch it is
solved in, and a constant declared as varying gives the bits of its
tabled row.  The row serves the whole batch, never one path, and constant
dampening is never passed to ``evaluate``.

Failures
--------
After each batch one ``isfinite`` scan checks every state.  A NaN or
infinite state raises :class:`PathSimulationError` naming the path, the
first non-finite step and the step count of its grid; custom Hurst or
dampening functions are the usual cause.  An exception raised inside a
batch is named by the block runner, which re-runs the block's paths one
at a time to find the lowest that fails.
"""

from __future__ import annotations

import concurrent.futures
import pickle
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Iterator

import numpy as np

from .model import DampeningFunction, HurstFunction
from .randomness import (
    BrownianIncrements,
    Seed,
    TimeGrid,
    coarsen,
    make_grid,
    sample_brownian_block,
)

__all__ = [
    "SimulationConfig",
    "SamplePath",
    "Ensemble",
    "PathSimulationError",
    "simulate_discrete",
    "interpolate_on_refinement",
    "monte_carlo",
    "simulate_blocks",
    "refine_config",
]

# Paths per block are chosen so a block holds about this many states.
_BLOCK_STATES = 2 ** 14

# The ufunc buffer size, in elements, while state-dependent columns are
# built (see ``_column_sums``): numpy's minimum.
_BUFSIZE = 16


class PathSimulationError(RuntimeError):
    """A single path failed; ``path_index`` names the offender.

    ``step`` is the first node whose state is not finite, or None when the
    failure was an exception raised while solving.
    """

    def __init__(self, path_index: int, cause: BaseException, step: int | None = None):
        where = f"path {path_index}" if step is None else f"path {path_index} at step {step}"
        super().__init__(f"simulation of {where} failed: {cause!r}")
        self.path_index = path_index
        self.cause = cause
        self.step = step

    def __reduce__(self):
        # Default exception reduction would replay __init__ with the
        # formatted message only; keep every attribute across pickling so
        # worker failures arrive intact.
        return (PathSimulationError, (self.path_index, self.cause, self.step))


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one run.

    ``offset_g`` is an optional deterministic map ``t -> real`` added to
    every node; ``seed`` is the master seed from which per-path streams are
    derived; ``n_paths`` is the ensemble size for :func:`monte_carlo`.
    """

    grid: TimeGrid
    hurst: HurstFunction
    seed: Seed
    dampening: DampeningFunction | None = None
    offset_g: Callable[[float], float] | None = None
    n_paths: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n_paths < np.inf or int(self.n_paths) != self.n_paths:
            raise ValueError(f"n_paths must be an integer of at least 1, got {self.n_paths!r}")
        object.__setattr__(self, "n_paths", int(self.n_paths))
        if not isinstance(self.grid, TimeGrid):
            raise ValueError("grid must be a TimeGrid")
        if not isinstance(self.hurst, HurstFunction):
            raise ValueError("hurst must be a HurstFunction")
        if not isinstance(self.seed, Seed):
            raise ValueError("seed must be a Seed")
        if self.dampening is not None and not isinstance(self.dampening, DampeningFunction):
            raise ValueError("dampening must be a DampeningFunction or None")


@dataclass(frozen=True)
class SamplePath:
    """One realized path: ``values[k]`` is the state at node ``k``."""

    grid: TimeGrid
    values: np.ndarray
    path_index: int = 0

    def __post_init__(self) -> None:
        v = self.values
        if not (isinstance(v, np.ndarray) and v.shape == (self.grid.steps + 1,)):
            raise ValueError(
                f"values must have shape ({self.grid.steps + 1},), got {getattr(v, 'shape', None)}"
            )


@dataclass(frozen=True)
class Ensemble:
    """An ordered collection of paths simulated under one config.

    ``values`` is one read-only ``(n_paths, steps + 1)`` matrix whose row
    ``i`` is path ``i``.
    """

    config: SimulationConfig
    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        shape = (self.config.n_paths, self.config.grid.steps + 1)
        if not (isinstance(v, np.ndarray) and v.shape == shape):
            raise ValueError(f"values must have shape {shape}, got {getattr(v, 'shape', None)}")
        if v.flags.writeable:
            v = v.view()
            v.setflags(write=False)
            object.__setattr__(self, "values", v)

    @cached_property
    def paths(self) -> tuple[SamplePath, ...]:
        """One :class:`SamplePath` per row, viewing the matrix."""
        return tuple(
            SamplePath(grid=self.config.grid, values=row, path_index=i)
            for i, row in enumerate(self.values)
        )

    def values_matrix(self) -> np.ndarray:
        """The ``(n_paths, steps + 1)`` matrix itself, read-only; no copy."""
        return self.values


def _offset_values(config: SimulationConfig) -> np.ndarray | None:
    if config.offset_g is None:
        return None
    return np.array([float(config.offset_g(float(t))) for t in config.grid.nodes])


class _Kernel:
    """Kernel terms of one node for every later node, for a batch of paths.

    Built for the grid of the later nodes and a batch of P paths.  Node
    ``k > i`` is the distance ``d[k - i - 1]`` after node ``i`` on every
    grid, with ``d = t[1:]``, and ``log d`` is tabled once.  A term is
    ``exp(exponent) * increment``, its exponent the sum of ``(h - 1/2) *
    log d`` and ``-f * d``.  The exponents that do not read the state, a
    constant Hurst value's and a constant dampening's, are summed into the
    state-free row ``fixed``; when no factor reads the state,
    ``by_distance`` is its ``exp``, and the kernel of nodes ``d + 1`` steps
    apart is ``by_distance[d]``.  A column of m later nodes is written into
    C-contiguous ``(P, m)`` views of two flat buffers of ``P * N`` floats,
    so its ``exp`` is one flat loop rather than P strided rows; its
    broadcast products are cheap only under the small ufunc buffer that
    :func:`_column_sums` sets.  The kernel owns the buffers, and a column's
    terms last until the next column is built.
    """

    def __init__(self, config: SimulationConfig, n_paths: int):
        hurst, dampening = config.hurst, config.dampening
        n = config.grid.steps
        self.t = config.grid.nodes
        self.d = self.t[1:]
        self.log_d = np.log(self.d)
        self.hurst = hurst
        self.dampening = dampening
        damp_constant = None if dampening is None else dampening.constant_value
        # Whether each factor depends on the state.
        self.h_varies = not hurst.is_constant
        self.damp_varies = dampening is not None and damp_constant is None
        fixed = None if self.h_varies else (hurst.h_star - 0.5) * self.log_d
        if damp_constant is not None:
            damp = -damp_constant * self.d
            fixed = damp if fixed is None else fixed + damp
        self.fixed = fixed
        varies = self.h_varies or self.damp_varies
        self.by_distance = None if varies else np.exp(fixed)
        # The exponents, and the terms; each column views its (P, m) block
        # of them.
        self.n_paths = n_paths
        self.work = np.empty(n_paths * n) if varies else None
        self.terms = np.empty(n_paths * n)

    def column(self, i: int, t_i: float, states: np.ndarray, weights: np.ndarray
               ) -> np.ndarray:
        """Terms of a node at ``(t_i, states)`` for the ``m = N - i`` nodes ``k > i``.

        ``states`` is the node's ``(P, 1)`` column.  Column ``k - i - 1`` of
        the result is ``sigma(t_k, t_i, states) * weights[:, k - i - 1]``, at
        the distance ``d[k - i - 1]``; ``weights`` is ``(P, 1)`` or ``(1,
        m)``.  The exponent goes into the work buffer: the state-dependent
        Hurst exponent, or the ``fixed`` row when Hurst is constant, less a
        state-dependent ``f * d`` built in the terms buffer, or plus the
        ``fixed`` row when the dampening is constant.  One ``exp`` and one
        product with ``weights`` give the terms.  The result is a
        C-contiguous ``(P, m)`` view of the kernel's terms buffer, valid
        until the next call.
        """
        m = self.t.shape[0] - 1 - i
        size = self.n_paths * m
        out = self.terms[:size].reshape(self.n_paths, m)
        if self.by_distance is not None:
            return np.multiply(self.by_distance[:m], weights, out=out)
        exponents = self.work[:size].reshape(self.n_paths, m)
        if self.h_varies:
            h = self._at_column(self.hurst, i, t_i, states)
            # In float64 whatever the evaluator returns.
            np.multiply(np.subtract(h, 0.5, dtype=np.float64), self.log_d[:m], out=exponents)
            base = exponents
        else:
            base = self.fixed[:m]
        if self.damp_varies:
            f = self._at_column(self.dampening, i, t_i, states)
            np.subtract(base, np.multiply(f, self.d[:m], out=out), out=exponents)
        elif self.fixed is not None:
            exponents += self.fixed[:m]
        np.exp(exponents, out=out)
        return np.multiply(out, weights, out=out)

    def _at_column(self, fn, i: int, t_i: float, states: np.ndarray):
        """``fn(t_k, states)`` for the nodes ``k > i``, broadcastable to ``(P, m)``.

        A function declaring ``lip_t == 0`` is evaluated once, at ``t_i``, on
        the ``(P, 1)`` states.  Any other gets the times ``t_k`` as a ``(1,
        m)`` row and the states repeated over the full ``(P, m)`` shape, so
        it is asked about one state per term it returns.  The copy is there
        for that count, not for speed: timed against a broadcast view,
        neither was reliably faster.
        """
        if fn.lip_t == 0.0:
            return fn.evaluate(t_i, states)
        times = self.t[None, i + 1:]
        full = np.empty((states.shape[0], times.shape[1]))
        full[...] = states
        return fn.evaluate(times, full)


def _solve(config: SimulationConfig, dB: np.ndarray, first_index: int = 0) -> np.ndarray:
    """Run the recursion for a batch of paths: ``dB[P, N] -> X[P, N + 1]``.

    Path ``p`` of the batch is reported as ``first_index + p`` when its
    states are not all finite.
    """
    g = _offset_values(config)
    kernel = _Kernel(config, dB.shape[0])
    # Node 0 sums no terms: it is 0.0, or the offset added to -0.0.
    x0 = 0.0 if g is None else -0.0
    if kernel.by_distance is not None:
        x = _diagonal_sums(kernel.by_distance, dB, x0)
    else:
        x = _column_sums(kernel, dB, g, x0)
    if g is not None:
        # Neither loop puts the offset into the sums, so every node gets it
        # once, here.
        x += g
    if not np.isfinite(x).all():
        # The lowest failing path, its first failing step, and the step
        # count N of the grid it is on: a study solves one block on several.
        p, step = (int(i) for i in np.argwhere(~np.isfinite(x))[0])
        cause = FloatingPointError(f"state {float(x[p, step])!r} is not finite (N = {dB.shape[1]})")
        raise PathSimulationError(first_index + p, cause, step=step)
    return x


def _column_sums(kernel: _Kernel, dB: np.ndarray, g: np.ndarray | None, x0: float
                 ) -> np.ndarray:
    """Sums of a batch, path-major, one column of terms per node; no offset added.

    The loop runs under a ufunc buffer of ``_BUFSIZE`` elements, and the
    caller's size comes back however it ends.  At numpy's default of 8192,
    every broadcast product and strided sum of a column with at most 8192
    terms would be copied through 8192-element buffers first.
    """
    n_paths, n = dB.shape
    x = np.full((n_paths, n + 1), -0.0)
    x[:, 0] = x0
    # Once node i is final its terms are added to every later node at once,
    # so each node still sums its terms in index order.  Node i's state
    # includes its offset; the sums do not.
    sums = x[:, 1:]
    # Per-node views: states[i] and weights[i] (node i's states and
    # increments as (P, 1) columns) index faster than x[:, i:i + 1] and
    # dB[:, i:i + 1].
    states, weights, t = x.T[:, :, None], dB.T[:, :, None], kernel.t
    old = np.setbufsize(_BUFSIZE)
    try:
        for i in range(n):
            state = states[i] if g is None else states[i] + g[i]
            sums[:, i:] += kernel.column(i, t[i], state, weights[i])
    finally:
        np.setbufsize(old)
    return x


def _diagonal_sums(by_distance: np.ndarray, dB: np.ndarray, x0: float) -> np.ndarray:
    """Sums of a batch under a kernel of the node distance alone; no offset added.

    The sums are held node-major, ``(N + 1, P)``, and the result is their
    transposed view.  Distance ``d`` adds ``by_distance[d] * dB[i]`` to node
    ``i + d + 1`` for every ``i`` at once, one contiguous block.  Going from
    the largest distance down adds each node's terms in index order.
    """
    n_paths, n = dB.shape
    x = np.full((n + 1, n_paths), -0.0)
    x[0] = x0
    sums = x[1:]
    increments = np.ascontiguousarray(dB.T)
    work = np.empty((n, n_paths))
    for d in range(n - 1, -1, -1):
        m = n - d
        sums[d:] += np.multiply(increments[:m], by_distance[d], out=work[:m])
    return x.T


def simulate_discrete(config: SimulationConfig, increments: BrownianIncrements) -> SamplePath:
    """Run the discrete recursion for one path.

    ``increments.grid`` must equal ``config.grid``.  Cost is Theta(N^2):
    the kernel depends on the evaluation time, so every term is evaluated
    afresh, and each node sums its terms left to right.  A non-finite
    state raises :class:`PathSimulationError` with ``path_index`` 0 and
    the step.
    """
    if increments.grid != config.grid:
        raise ValueError(
            f"increments grid {increments.grid} does not match config grid {config.grid}"
        )
    x = _solve(config, increments.values[None, :])[0]
    x.setflags(write=False)
    return SamplePath(grid=config.grid, values=x, path_index=0)


def interpolate_on_refinement(
    config: SimulationConfig,
    coarse_path: SamplePath,
    fine_increments: BrownianIncrements,
    refine_factor: int,
) -> SamplePath:
    """Extend a coarse path to a refined grid without re-solving.

    Each fine node ``tau_j`` gets

        g(tau_j) + sum over fine intervals below tau_j of
            sigma(tau_j, eta_l, X_coarse[eta_l]) * dB_fine[l]

    where ``eta_l`` is the coarse node at or below the interval start.  The
    kernel value is constant across each whole coarse block, so whole
    blocks are accumulated through the block sums of the fine increments;
    on the lattice those sums are exact, which makes the value at every
    coarse node agree bitwise with the coarse recursion on exact-node
    grids.  ``refine_factor == 1`` returns the coarse values unchanged.

    Each coarse node contributes one column of the solver's builder over
    the fine nodes after it: its kernel at their times, weighted by the
    running sums of its own block's fine increments and then by its
    coarse increment.  Functions declaring ``lip_t > 0`` see every fine
    node's time.

    The coupling precondition (the fine increments coarsen to exactly the
    increments that generated ``coarse_path``) is verified by re-running
    the coarse recursion; a mismatch is rejected.
    """
    if not (isinstance(refine_factor, int) and refine_factor >= 1):
        raise ValueError(f"refine_factor must be a positive integer, got {refine_factor!r}")
    if coarse_path.grid != config.grid:
        raise ValueError("coarse_path grid does not match config grid")
    n = config.grid.steps
    fine = refine_config(config, refine_factor)
    if fine_increments.grid != fine.grid:
        raise ValueError(
            f"fine increments must live on the {refine_factor}-fold refinement {fine.grid}"
        )
    coarse_increments = coarsen(fine_increments, refine_factor)
    recomputed = simulate_discrete(config, coarse_increments)
    if not np.array_equal(recomputed.values, coarse_path.values):
        raise ValueError(
            "coupling violated: fine increments do not coarsen to the increments behind coarse_path"
        )
    if refine_factor == 1:
        return SamplePath(grid=fine.grid, values=coarse_path.values,
                          path_index=coarse_path.path_index)

    # Coarse node i is one column over the fine nodes j > i r.  Its weight
    # for the fine nodes inside its own block is the running sum of the fine
    # increments up to j, and dB_coarse[i] for every later node.  Columns are
    # added in node order to sums that start at -0.0.  The fine grid's
    # distances serve the columns; on an exact fine grid, dt = T / (N r)
    # exactly, so they are bitwise the coarse grid's.
    r = refine_factor
    t_c = config.grid.nodes
    x_c = coarse_path.values
    dB_fine = fine_increments.values
    dB_coarse = coarse_increments.values
    g = _offset_values(fine)
    kernel = _Kernel(fine, 1)
    weights = np.empty((1, n * r))
    out = np.full(n * r + 1, -0.0)
    out[0] = x_c[0]
    sums = out[None, 1:]
    for i in range(n):
        w = weights[:, :(n - i) * r]
        np.cumsum(dB_fine[i * r:(i + 1) * r], out=w[0, :r])
        w[:, r:] = dB_coarse[i]
        sums[:, i * r:] += kernel.column(i * r, t_c[i], x_c[i:i + 1, None], w)
    if g is not None:
        out[1:] += g[1:]
    out.setflags(write=False)
    return SamplePath(grid=fine.grid, values=out, path_index=coarse_path.path_index)


def _run_block(task: Callable, config: SimulationConfig, start: int, stop: int, *args):
    """``task(config, start, stop, *args)``, failing with the lowest failing path named.

    A batched evaluation that raises cannot say which path it was on, so
    the block's paths are then run one at a time to name the first that
    fails.  A non-finite state already names its path and step.
    """
    try:
        return task(config, start, stop, *args)
    except PathSimulationError:
        raise
    except Exception as exc:
        if stop - start > 1:
            for i in range(start, stop):
                _run_block(task, config, i, i + 1, *args)
        raise PathSimulationError(start, exc) from exc


def _run_pickled_block(task: Callable, payload: bytes, start: int, stop: int, *args):
    return _run_block(task, pickle.loads(payload), start, stop, *args)


def _map_blocks(task: Callable, config: SimulationConfig, n_workers: int, *args
                ) -> Iterator[tuple[int, object]]:
    """Yield ``(start, task(config, start, stop, *args))`` block by block, in order.

    The paths ``range(config.n_paths)`` are cut into contiguous blocks of
    ``max(1, 2**14 // N)`` for the ``N`` steps of ``config.grid``, and one
    in-order map runs ``_run_block`` over them.  With ``n_workers > 1``
    and more than one block it is the map of a process pool on
    ``min(n_workers, blocks)`` workers, one task per block and the config
    pickled once for all of them; a single block, one worker, and configs
    whose callables cannot be pickled run in this process under the
    builtin ``map``.  Either way a failure raises
    :class:`PathSimulationError` naming the lowest failing path, from the
    first failing block, and however the caller stops reading, the blocks
    not yet started are dropped.
    """
    n_items, block = config.n_paths, max(1, _BLOCK_STATES // config.grid.steps)
    starts = range(0, n_items, block)
    jobs = (starts, [min(s + block, n_items) for s in starts], *map(repeat, args))
    n_workers = min(int(n_workers), len(starts))
    try:
        payload = pickle.dumps(config) if n_workers > 1 else None
    except Exception:
        payload = None
    if payload is None:
        yield from zip(starts, map(partial(_run_block, task, config), *jobs))
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=n_workers)
    try:
        yield from zip(starts, pool.map(partial(_run_pickled_block, task, payload), *jobs))
    finally:
        pool.shutdown(cancel_futures=True)


def _simulate_block(config: SimulationConfig, start: int, stop: int,
                    finish: Callable[[np.ndarray], object] | None = None) -> object:
    x = _solve(config, sample_brownian_block(config.seed, config.grid, start, stop),
               first_index=start)
    return x if finish is None else finish(x)


def simulate_blocks(config: SimulationConfig, n_workers: int = 1,
                    finish: Callable[[np.ndarray], object] | None = None
                    ) -> Iterator[tuple[int, object]]:
    """Solve the ``config.n_paths`` paths block by block; yield ``(start, result)`` in order.

    A block is the contiguous paths ``start <= i < start + P``, with ``P =
    max(1, 2**14 // N)`` (fewer in the last block), and its result is their
    ``(P, N + 1)`` states, or ``finish`` of them.  ``finish`` runs in the
    task that solved the block, so with ``n_workers > 1`` it runs in the
    pool workers and must be picklable: a module-level function, or a
    ``functools.partial`` of one with picklable arguments.  The
    blocks go through the one in-order map of :func:`monte_carlo`, a
    pool's or the builtin one; closing the iterator early drops the
    blocks not yet started.
    """
    return _map_blocks(_simulate_block, config, n_workers, finish)


def monte_carlo(config: SimulationConfig, n_workers: int = 1) -> Ensemble:
    """Simulate ``config.n_paths`` independent paths.

    Path ``i`` is driven by the stream derived from ``(seed, i)``, so the
    ensemble is a pure function of the config: any worker count, including
    the serial path, produces identical output, and paths can be
    regenerated individually.  Paths are solved in contiguous blocks of
    ``max(1, 2**14 // N)`` by one in-order map: a process pool's, one task
    per block, when ``n_workers > 1`` and there is more than one block;
    the builtin ``map`` in this process for a single block, one worker, or
    a config whose callables cannot be pickled.  Failures surface as
    :class:`PathSimulationError` naming the lowest failing index, and the
    blocks not yet started when the first failing block is read are
    dropped.
    """
    values = np.empty((config.n_paths, config.grid.steps + 1))
    for start, block in simulate_blocks(config, n_workers):
        values[start:start + block.shape[0]] = block
    values.setflags(write=False)
    return Ensemble(config=config, values=values)


def refine_config(config: SimulationConfig, factor: int) -> SimulationConfig:
    """Config on the ``factor``-fold refined grid, all else unchanged."""
    if not (isinstance(factor, int) and factor >= 1):
        raise ValueError(f"factor must be a positive integer, got {factor!r}")
    return replace(config, grid=make_grid(config.grid.horizon, config.grid.steps * factor))
