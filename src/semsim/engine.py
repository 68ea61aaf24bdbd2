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
One solver serves every caller.  :func:`solve_batch` takes the increments
of P paths as a ``(P, N)`` array and makes one numpy call per operation
for all P paths, so the per-call overhead is paid once per step of a
batch rather than once per step of every path.  :func:`simulate_discrete`
is a batch of one; :func:`simulate_blocks` (behind :func:`monte_carlo`
and every command of ``cli``) and the refinement study in ``analysis``
solve contiguous blocks of paths through one block runner,
:func:`run_blocks`.  The worker count counts the processes that compute,
the calling one included, and ``_block_bounds`` states the block policy
once: how many states a block holds, how the paths are split, and which
runs are too small to fork for.  Every block task is ``task(config,
start, stop)``, its other inputs bound with ``functools.partial``, and the
block runner wraps it.  With ``W > 1`` workers the calling process runs
blocks ``0, W, 2W, ...`` itself and ``W - 1`` workers made by ``os.fork``
run the others, worker ``w`` the blocks ``w, w + W, ...``.  A forked
worker inherits the task, so nothing but the blocks' results is pickled:
each worker writes every block's result, or the exception it raised,
pickled to its own pipe, and the calling process reads the pipes in block
order between its own blocks.  Results arrive in block order either way.
A platform without ``os.fork`` runs one worker.

Columns
-------
The solver goes column by column: once node ``i`` is final, its terms for
every later node ``k`` are built as one column and added to the running
sums of those nodes.  The column loop reads node ``i``'s states from the
sums, plus its offset, and its increments itself, as ``(P, 1)`` views.
Every state-dependent factor is evaluated in one ``evaluate`` call per
column on those states.  A Hurst or dampening function that declares
``lip_t == 0`` does not depend on time, and neither does a constant one,
so it is evaluated at ``(t_i, X[i])``, with the node time ``t_i`` as a
Python float, and its values broadcast along the later nodes: N
evaluations per path instead of N(N+1)/2.  Every built-in declares
``lip_t == 0``, and a built-in Hurst function's values are not clipped,
since they stay in its declared range (see
:class:`~semsim.model.HurstFunction`).  Whatever dtype an evaluator
returns, a Python float, float32 or ints, its values enter the exponent
in float64.  A function with ``lip_t > 0`` is evaluated at ``(t_k,
X[i])`` for every later node, as the recursion reads: its call gets the
later times as a ``(1, m)`` row, which broadcasts against the ``(P, 1)``
states.  Which time argument and which ``evaluate`` each factor gets is
decided once per solve, not per column.  The declaration is trusted:
a custom function that varies in time while declaring ``lip_t == 0`` is
evaluated at the node times only.  :func:`~semsim.model.validate_hurst` and
:func:`~semsim.model.validate_dampening` scan the ``t`` direction and
report such a declaration as a ``lipschitz_t`` violation.

A column of the ``m = N - i`` later nodes is built as one C-contiguous
``(P, m)`` block: the exponents and terms of every column are views of the
first ``P * m`` floats of two flat buffers of ``P * N``, which the column
loop allocates once per call, and the running sums keep the path-major
``(P, N + 1)`` layout.
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
``(k - i) * dt``.  ``log d`` is tabled once per solve, and a term is one
``exp``: ``exp((h - 1/2) * log d - f * d) * increment``.  An exponent that
does not read the state, a constant Hurst value's or a constant
dampening's, depends on the distance alone; their sum is one state-free
row, tabled once; ``_kernel_row`` tables it with ``log d`` and names the
factors that read the state, and so decides which loop a solve runs; the
column loop is handed that table, never builds its own.  A column is the
state-dependent Hurst exponent plus the state-dependent dampening exponent
plus that row, exponentiated, times the increments.  A kernel with no
factor that reads the state goes to the diagonal loop below, so every
column reads the state.

The solver keeps this batched column loop, with its row and buffers,
apart from :mod:`semsim.kernels`, whose one formula, the power ``gap **
(h - 1/2)`` of :func:`~semsim.kernels.kernel_values` (and of
:func:`~semsim.kernels.sigma`, which is it at one point), is the
reference it is tested against; the two agree to a few ulp per term.

Diagonals
---------
When no factor reads the state (constant Hurst, no or constant
dampening), on any grid, the kernel is ``K = exp`` of the state-free row:
``X[k] = g(t_k) + sum_{i < k} K[k - i - 1] dB[i]``.  The solver then holds
the sums node-major, ``(N + 1, P)``, and adds one distance ``d`` at a
time, ``sums[d:] += K[d] * dB[:N - d]``, where every operand is one
contiguous block; going from the largest distance down keeps each node's
index order, and ``K[d] * dB[i]`` is the column loop's term bit for
bit.  This loop builds no columns and allocates no column buffers.  The
offset is added last.  State-dependent kernels keep the path-major
columns, where the node-major layout is slower on narrow batches.

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
which reproduces the undampened run; and a level solved from the block
sums of a fine draw, as the refinement study in ``analysis`` solves its
levels, is :func:`solve_batch` on :func:`~semsim.randomness.coarsen` of
that draw, bit for bit.  A path's bits do not depend on the batch it is
solved in, and a constant declared as varying gives the bits of its
tabled row.  The row serves the whole batch, never one path, and
constant dampening is never passed to ``evaluate``.

The bits themselves are those of one numpy build on one class of SIMD
targets: numpy runs ``exp``, ``log`` and ``power`` on arrays through the
widest targets it finds on the CPU, and another target may round a term
differently, while every identity above holds on each.  The CLI's
``manifest.json`` records both, as ``numpy.version`` and ``numpy.simd``.

Failures
--------
After each batch one ``isfinite`` scan checks every state.  A NaN or
infinite state raises :class:`PathSimulationError` naming the path by its
row in the batch, the first non-finite step and the step count of its
grid; custom Hurst or dampening functions are the usual cause.  The block
runner alone knows where a block starts: it re-raises the error with the
block's first index added.  An exception raised inside a batch is named
by the block runner too, which re-runs the block's paths one at a time to
find the lowest that fails.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Iterator

import numpy as np

from .model import _HALF, DampeningFunction, HurstFunction
from .randomness import (
    BrownianIncrements,
    Seed,
    TimeGrid,
    _as_int,
    make_grid,
    sample_brownian_block,
)

__all__ = [
    "SimulationConfig",
    "SamplePath",
    "Ensemble",
    "PathSimulationError",
    "simulate_discrete",
    "solve_batch",
    "monte_carlo",
    "simulate_blocks",
    "run_blocks",
    "refine_config",
]

# A block holds at most this many states, paths times steps, or one path.
_BLOCK_STATES = 2 ** 16

# A run of at most this many states is solved in one process.
_POOL_STATES = 2 ** 14

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
        object.__setattr__(self, "n_paths", _as_int(self.n_paths, "n_paths", least=1))
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


def _offset_values(config: SimulationConfig) -> np.ndarray | None:
    if config.offset_g is None:
        return None
    return np.array([float(config.offset_g(float(t))) for t in config.grid.nodes])


def _kernel_row(config: SimulationConfig) -> tuple:
    """``(log_d, row, hurst, dampening)``: the kernel on ``config.grid``, split by the state.

    ``log_d`` is ``log d`` for the distances ``d = t[1:]``.  ``row`` is the
    state-free row of the exponent: ``(H - 1/2) * log d`` for a constant
    Hurst value ``H``, plus ``-c * d`` for a constant dampening ``c``, or
    None when neither factor is constant.  ``hurst`` and ``dampening`` are
    the factors that read the state, each None when it does not: a
    constant, or no dampening.  When both are None the kernel depends on
    the distance alone, ``exp(row)``.
    """
    d = config.grid.nodes[1:]
    log_d = np.log(d)
    hurst, dampening = config.hurst, config.dampening
    row = None
    if hurst.is_constant:
        row, hurst = (hurst.h_star - 0.5) * log_d, None
    if dampening is not None and dampening.constant_value is not None:
        damp = -dampening.constant_value * d
        row, dampening = (damp if row is None else row + damp), None
    return log_d, row, hurst, dampening


def solve_batch(config: SimulationConfig, increments: np.ndarray) -> np.ndarray:
    """Run the recursion for a batch of paths: ``increments[P, N] -> X[P, N + 1]``.

    Row ``p`` of ``increments`` drives path ``p`` over the ``N`` steps of
    ``config.grid``, and row ``p`` of the result is its states; any other
    shape of ``increments`` raises ``ValueError``.  A path's bits do not
    depend on the batch it is solved in.  Path ``p`` of the batch is
    reported as ``p``, its row, when its states are not all finite; the
    block runner adds the block's first index.
    """
    if increments.ndim != 2 or increments.shape[1] != config.grid.steps:
        raise ValueError(f"increments must be (P, {config.grid.steps}), got {increments.shape}")
    n_paths, n = increments.shape
    g = _offset_values(config)
    kernel = _kernel_row(config)
    _, row, hurst, dampening = kernel
    # Node 0 sums no terms: it is 0.0, or the offset added to -0.0.
    x0 = 0.0 if g is None else -0.0
    if hurst is None and dampening is None:
        x = _diagonal_sums(np.exp(row), increments, x0)
    else:
        x = np.full((n_paths, n + 1), -0.0)
        x[:, 0] = x0
        _column_sums(config, kernel, x, increments, g, range(n))
    if g is not None:
        # Neither loop puts the offset into the sums, so every node gets it
        # once, here.
        x += g
    if not np.isfinite(x).all():
        # The lowest failing path, its first failing step, and the step
        # count N of the grid it is on: a study solves one block on several.
        p, step = (int(i) for i in np.argwhere(~np.isfinite(x))[0])
        cause = FloatingPointError(f"state {float(x[p, step])!r} is not finite (N = {n})")
        raise PathSimulationError(p, cause, step=step)
    return x


def _column_sums(config: SimulationConfig, kernel: tuple, x: np.ndarray, increments: np.ndarray,
                 g: np.ndarray | None, nodes: range) -> None:
    """Add the column of each node ``i`` in ``nodes``, in order, to the sums of the later nodes.

    ``x`` holds the running sums of the nodes of ``config.grid``,
    path-major ``(P, N + 1)``, starting at -0.0; ``increments`` is ``(P,
    N)`` and ``g`` the offset of every node, or None.  Column ``k - i - 1``
    of node ``i``'s terms is ``sigma(t_k, t_i, states) * increments[:, i]``,
    at the distance ``d[k - i - 1]``, for the ``m = N - i`` nodes ``k > i``,
    and is added to ``x[:, i + 1:]``.  The states are node ``i``'s sums plus
    its offset, read as a ``(P, 1)`` column when the column is built: with
    the columns before it added, they are final.  Each factor that reads
    the state gets one ``evaluate`` call per column on the states, at the
    float ``t_i`` when it declares ``lip_t == 0`` and at the ``(1, m)`` row
    of times ``t_k`` otherwise; the time arguments are chosen once per call.
    ``kernel`` is :func:`_kernel_row` of ``config``, tabled once by the
    caller, with at least one factor that reads the state.  The exponent
    starts as its state-free row: a state-dependent Hurst exponent replaces
    it, plus the row when there is one, and a state-dependent ``f * d`` is
    subtracted from it.  One ``exp`` and one product with the increments
    give the terms, in C-contiguous ``(P, m)`` views of two flat buffers of
    ``P * N`` floats, allocated once per call.

    The loop runs under a ufunc buffer of ``_BUFSIZE`` elements, and the
    caller's size comes back however it ends.  At numpy's default of 8192,
    every broadcast product and strided sum of a column with at most 8192
    terms would be copied through 8192-element buffers first.
    """
    log_d, row, hurst, dampening = kernel
    t = config.grid.nodes
    d = t[1:]
    n_paths, n = increments.shape
    # Node i's states and increments as (P, 1) views, which index faster
    # than x[:, i:i + 1].
    states, weights = x.T[:, :, None], increments.T[:, :, None]
    # Each factor's evaluate, and its time argument for node i: the float
    # t_i, or the (1, m) row of later times.
    times = t.tolist()
    (h_eval, h_at), (f_eval, f_at) = [
        (None, None) if fn is None else
        (fn.evaluate, times if fn.lip_t == 0.0 else [t[None, i + 1:] for i in range(n)])
        for fn in (hurst, dampening)]
    # The exponents, and the terms; each column views its (P, m) block.
    work, terms = np.empty(n_paths * n), np.empty(n_paths * n)
    old = np.setbufsize(_BUFSIZE)
    try:
        for i in nodes:
            m = n - i
            out = terms[:n_paths * m].reshape(n_paths, m)
            exponents = work[:n_paths * m].reshape(n_paths, m)
            s = states[i] if g is None else states[i] + g[i]
            exponent = None if row is None else row[:m]
            if hurst is not None:
                h = h_eval(h_at[i], s)
                # In float64 whatever the evaluator returns; _HALF is a 0-d
                # array, which a ufunc takes without converting a float.
                np.multiply(np.subtract(h, _HALF, dtype=np.float64), log_d[:m], out=exponents)
                if exponent is not None:
                    exponents += exponent
                exponent = exponents
            if dampening is not None:
                f = f_eval(f_at[i], s)
                exponent = np.subtract(exponent, np.multiply(f, d[:m], out=out), out=exponents)
            np.exp(exponent, out=out)
            x[:, i + 1:] += np.multiply(out, weights[i], out=out)
    finally:
        np.setbufsize(old)


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
    x = solve_batch(config, increments.values[None, :])[0]
    x.setflags(write=False)
    return SamplePath(grid=config.grid, values=x, path_index=0)


def _run_block(task: Callable, config: SimulationConfig, start: int, stop: int):
    """``task(config, start, stop)``, failing with the lowest failing path named.

    A task names a failing path by its row in the block, and this adds the
    block's ``start``.  A batched evaluation that raises cannot say which
    path it was on, so the block's paths are then run one at a time to
    name the first that fails.  A non-finite state already names its row
    and step.
    """
    try:
        return task(config, start, stop)
    except PathSimulationError as exc:
        raise PathSimulationError(start + exc.path_index, exc.cause, exc.step) from exc
    except Exception as exc:
        if stop - start > 1:
            for i in range(start, stop):
                _run_block(task, config, i, i + 1)
        raise PathSimulationError(start, exc) from exc


def _block_bounds(n_paths: int, steps: int, n_workers: int) -> tuple[list[int], list[int]]:
    """The starts and stops of the blocks that ``n_workers`` workers solve.

    This is the block policy, and the rest of the module points here.
    There are ``ceil(n_paths / max(1, _BLOCK_STATES // steps))`` blocks,
    so none holds more than ``_BLOCK_STATES`` states (``2**16``, paths
    times steps, whatever the kernel) unless one path does.  With
    ``n_workers > 1`` the count is rounded up to a multiple of
    ``n_workers``, capped at ``n_paths``: each worker then gets as many
    blocks as the others, and no block has more than ``ceil(n_paths /
    n_workers)`` paths.  Block ``b`` is the paths ``[n_paths * b //
    n_blocks, n_paths * (b + 1) // n_blocks)``, so sizes differ by at most
    one path.  :func:`run_blocks` caps ``n_workers`` at ``n_paths``, and at
    1 for a run of at most ``_POOL_STATES`` states (``2**14``), where
    forking workers costs more than it saves, before it asks for the
    blocks.
    """
    n_blocks = -(-n_paths // max(1, _BLOCK_STATES // steps))
    if n_workers > 1:
        n_blocks = min(n_paths, -(-n_blocks // n_workers) * n_workers)
    bounds = [n_paths * b // n_blocks for b in range(n_blocks + 1)]
    return bounds[:-1], bounds[1:]


class _Worker:
    """A forked process that runs its share of a run's blocks and pipes back each result.

    The worker runs ``blocks``, a list of ``(start, stop)``, back to back,
    each through ``run``, and writes each block's ``(ok, result or
    exception)``, pickled and prefixed by its length, to its one pipe.  A
    full pipe holds it until the caller reads, so a result the pipe cannot
    hold keeps the worker from starting its next block.  It stops after it
    sends a failure.  It leaves by ``os._exit`` alone, so it never flushes
    the caller's stdio or runs its ``atexit``, and it first closes the pipe
    ends of ``others``, the workers forked before it.
    """

    def __init__(self, run: Callable, blocks: list[tuple[int, int]], others: list[_Worker]):
        result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(result_r)
            os.close(result_w)
            raise
        if self.pid == 0:
            code = 1
            try:
                for fd in (result_r, *(w.results.fileno() for w in others)):
                    os.close(fd)
                _serve(run, blocks, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(result_w)
        self.results = open(result_r, "rb")

    def receive(self, start: int, stop: int) -> object:
        """The result of the block ``[start, stop)``, the next one the worker sends.

        Its failure is raised here.  A worker that ends without sending it,
        or a message that does not unpickle, raises
        :class:`PathSimulationError` naming the block's first path.
        """
        header = self.results.read(8)
        size = int.from_bytes(header, "little")
        body = self.results.read(size)
        if len(header) < 8 or len(body) < size:
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            raise PathSimulationError(start, ChildProcessError(
                f"the worker solving paths {start} to {stop - 1} exited with code "
                f"{os.waitstatus_to_exitcode(status)} before sending their result"))
        try:
            ok, value = pickle.loads(body)
        except Exception as exc:
            raise PathSimulationError(start, pickle.UnpicklingError(
                f"what the worker sent for paths {start} to {stop - 1} does not unpickle: "
                f"{exc!r}")) from exc
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Close the pipe, then end the worker and reap it."""
        self.results.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _serve(run: Callable, blocks: list[tuple[int, int]], results: int) -> None:
    """A worker's loop: run ``blocks`` in turn and send each outcome (see :class:`_Worker`)."""
    with open(results, "wb") as out:
        for start, stop in blocks:
            try:
                ok, value = True, run(start, stop)
            except Exception as exc:
                ok, value = False, exc
            try:
                message = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                what = "result" if ok else f"error {value!r}"
                ok, value = False, PathSimulationError(start, pickle.PicklingError(
                    f"the {what} of paths {start} to {stop - 1} does not pickle: {exc!r}"))
                message = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
            out.write(len(message).to_bytes(8, "little"))
            out.write(message)
            out.flush()
            if not ok:
                return


def run_blocks(task: Callable, config: SimulationConfig, n_workers: int
               ) -> Iterator[tuple[int, object]]:
    """Yield ``(start, task(config, start, stop))`` block by block, in order.

    ``n_workers`` counts the processes that compute, this one included.
    The paths ``range(config.n_paths)`` are cut into the contiguous blocks
    of :func:`_block_bounds`, which also says how ``n_workers`` is capped:
    at the paths, and at one process for a run too small to fork for, or
    on a platform without ``os.fork``.  ``run = partial(_run_block, task,
    config)`` runs each block; a task's other inputs are bound into it with
    ``functools.partial``.  Of ``W`` workers, this process runs blocks
    ``0, W, 2W, ...`` itself, each when its turn comes, and ``W - 1``
    workers made by ``os.fork`` run the others through the same ``run``,
    worker ``w`` the blocks ``w, w + W, ...``; one worker is this process
    alone, running every block.  A worker inherits ``run``, so any task
    runs in it, a lambda included, and only the blocks' results are
    pickled: each worker sends them through its own pipe, and this process
    reads them in block order between its own blocks.  A worker runs its
    blocks back to back, and a full pipe holds it until this process reads.
    A failure raises :class:`PathSimulationError` naming the
    lowest failing path, from the first failing block; a worker that dies,
    or a result that does not pickle, names the block's first path.
    However the caller stops reading, this process starts no block of its
    own after reading a failure, and every worker is ended and reaped
    before the iterator returns, raises or is closed.
    """
    cap = config.n_paths if config.n_paths * config.grid.steps > _POOL_STATES else 1
    n_workers = min(_as_int(n_workers, "n_workers", least=1), cap if hasattr(os, "fork") else 1)
    run = partial(_run_block, task, config)
    blocks = list(zip(*_block_bounds(config.n_paths, config.grid.steps, n_workers)))
    workers: list[_Worker] = []
    try:
        for w in range(1, n_workers):
            workers.append(_Worker(run, blocks[w::n_workers], workers))
        for i, (start, stop) in enumerate(blocks):
            w = i % n_workers
            yield start, run(start, stop) if w == 0 else workers[w - 1].receive(start, stop)
    finally:
        for worker in workers:
            worker.close()


def _simulate_block(config: SimulationConfig, start: int, stop: int,
                    finish: Callable[[np.ndarray], object] | None = None) -> object:
    x = solve_batch(config, sample_brownian_block(config.seed, config.grid, start, stop))
    return x if finish is None else finish(x)


def simulate_blocks(config: SimulationConfig, n_workers: int = 1,
                    finish: Callable[[np.ndarray], object] | None = None
                    ) -> Iterator[tuple[int, object]]:
    """Solve the ``config.n_paths`` paths block by block; yield ``(start, result)`` in order.

    A block is the contiguous paths ``start <= i < start + P``, with ``P``
    set by the policy of ``_block_bounds``.  Its result is their ``(P, N +
    1)`` states, or ``finish`` of them.  ``finish`` is bound
    into the block task and runs in the task that solved the block, so
    with ``n_workers > 1`` it runs in the forked workers too.  A worker
    inherits the task, so any ``finish`` runs there, a lambda included;
    only its results are pickled, and they come back in block order.  The
    blocks are run as for :func:`monte_carlo`, by this process and its
    forked workers or by this process alone; closing the iterator early
    drops the blocks not yet started and reaps the workers.
    """
    return run_blocks(partial(_simulate_block, finish=finish), config, n_workers)


def monte_carlo(config: SimulationConfig, n_workers: int = 1) -> Ensemble:
    """Simulate ``config.n_paths`` independent paths.

    Path ``i`` is driven by the stream derived from ``(seed, i)``, so the
    ensemble is a pure function of the config: any worker count, including
    the serial path, produces identical output, and paths can be
    regenerated individually.  Paths are solved in the contiguous blocks of
    :func:`run_blocks`, sized and spread over the workers by the policy of
    ``_block_bounds``.  ``n_workers`` counts the processes that solve,
    this one included: with ``W > 1`` of them, this process solves blocks
    ``0, W, 2W, ...`` and ``W - 1`` workers made by ``os.fork`` solve the
    others, worker ``w`` the blocks ``w, w + W, ...``.  A worker inherits
    the config, so one that does not pickle (a lambda offset, say) is
    solved there too; each worker returns its blocks' states pickled, and
    they are read in block order.  A single path, one worker, a run too
    small to fork for, or a platform without ``os.fork`` runs in this
    process alone.  Failures surface as :class:`PathSimulationError`
    naming the lowest failing index, and the blocks not yet started when
    the first failing block is read are dropped.
    """
    values = np.empty((config.n_paths, config.grid.steps + 1))
    for start, block in simulate_blocks(config, n_workers):
        values[start:start + block.shape[0]] = block
    values.setflags(write=False)
    return Ensemble(config=config, values=values)


def refine_config(config: SimulationConfig, factor: int) -> SimulationConfig:
    """Config on the ``factor``-fold refined grid, all else unchanged."""
    factor = _as_int(factor, "factor", least=1)
    return replace(config, grid=make_grid(config.grid.horizon, config.grid.steps * factor))
