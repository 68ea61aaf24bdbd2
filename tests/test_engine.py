"""Tests for the discrete solver and the ensemble driver.

The solver is checked three ways: against a deliberately naive double-loop
re-implementation built on the scalar kernel (scalar powers, Python running
sums), against exact identities that must hold bitwise (Brownian collapse at
h = 1/2, zero dampening, table versus direct kernel evaluation, evaluation
per node versus per later time, columns versus diagonals), and
statistically on a shared Gaussian ensemble.
"""

import atexit
import math
import os
import pickle
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest
from scipy import stats

from semsim import (
    BrownianIncrements,
    DampeningFunction,
    Ensemble,
    HurstFunction,
    KernelParams,
    PathSimulationError,
    SamplePath,
    Seed,
    SimulationConfig,
    builtin_dampening,
    builtin_hurst,
    derive_path_seed,
    make_grid,
    monte_carlo,
    refine_config,
    sample_brownian,
    sigma,
    simulate_blocks,
    simulate_discrete,
)
from semsim import engine
from semsim.analysis import convergence_study
from semsim.engine import _column_sums, _kernel_row, _run_block, run_blocks, solve_batch
from semsim.kernels import kernel_values

from _evaluators import NanPastThreshold, RaisingPastThreshold
from _exact import differences_are_distances


@dataclass(frozen=True)
class _FixedValue:
    """Evaluator returning one number regardless of (t, x)."""

    value: float

    def __call__(self, t, x):
        return self.value


class _RaisingEvaluator:
    def __call__(self, t, x):
        raise FloatingPointError("evaluator exploded")


@dataclass(frozen=True)
class _TimeVaryingHurst:
    """h(t, x) = 0.55 + 0.25 t / (1 + x^2): in [0.55, 0.8] on [0, 1]."""

    def __call__(self, t, x):
        x = np.asarray(x, dtype=np.float64)
        return 0.55 + 0.25 * t / (1.0 + x * x)


@dataclass(frozen=True)
class _TimeVaryingDampening:
    """f(t, x) = t |x|."""

    def __call__(self, t, x):
        return t * np.abs(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class _ConstantArray:
    """Returns ``value`` for every state, as an array shaped like ``x``."""

    value: float

    def __call__(self, t, x):
        return np.full(np.shape(x), self.value)


class _CountingEvaluator:
    """Bell-shaped evaluator that counts the ``(t, x)`` pairs it is asked about.

    ``bufsizes`` records ``np.getbufsize()`` at every call.
    """

    def __init__(self):
        self.values = 0
        self.bufsizes = []

    def __call__(self, t, x):
        self.bufsizes.append(np.getbufsize())
        x = np.asarray(x, dtype=np.float64)
        self.values += np.broadcast(t, x).size
        return 0.5 + 0.3 / (1.0 + x * x)


class _OutOfDomain:
    """Raises the ``ValueError`` of an evaluator asked about a state it cannot take."""

    def __call__(self, t, x):
        raise ValueError("state out of the evaluator's domain")


def _fail_first_block(config: SimulationConfig, start: int, stop: int, marks) -> int:
    """A block task: block 0 raises; any other sleeps, then leaves a marker in ``marks``."""
    if start == 0:
        raise FloatingPointError("block 0 fails")
    time.sleep(0.2)
    (marks / f"block-{start}").touch()
    return start


def _fail_blocks_one_and_two(config: SimulationConfig, start: int, stop: int, marks) -> int:
    """A block task: leaves a marker in ``marks`` as it starts; blocks 1 and 2 then raise."""
    (marks / f"started-{start}").touch()
    if start in (1, 2):
        raise FloatingPointError(f"block {start} fails")
    return start


def _process_id(config: SimulationConfig, start: int, stop: int) -> int:
    """A block task: the id of the process that runs it."""
    return os.getpid()


def _fail_last_row(config: SimulationConfig, start: int, stop: int, failing: int) -> int:
    """A block task: the block starting at ``failing`` names its last row at step 3."""
    if start == failing:
        raise PathSimulationError(stop - start - 1, FloatingPointError("row fails"), step=3)
    return start


def _mark_start(config: SimulationConfig, start: int, stop: int, marks, size: int = 0) -> bytes:
    """A block task: leaves a marker in ``marks`` as it starts, and returns ``size`` zero bytes."""
    (marks / f"started-{start}").touch()
    return bytes(size)


def _exit_in_worker(config: SimulationConfig, start: int, stop: int, caller: int,
                    failing: int) -> int:
    """A block task: the block starting at ``failing`` ends its process, unless it is ``caller``."""
    if start == failing and os.getpid() != caller:
        os._exit(3)
    return start


class _TwoArgumentError(Exception):
    """Pickles, but does not unpickle: ``__init__`` takes two arguments and keeps one."""

    def __init__(self, a, b):
        super().__init__(a)


def _unpicklable_outcome(config: SimulationConfig, start: int, stop: int, kind: str):
    """A block task: any block holding path 10 returns or raises what does not travel."""
    if not start <= 10 < stop:
        return start
    if kind == "result":
        return lambda: start
    if kind == "error":
        raise FloatingPointError(lambda: start)
    raise _TwoArgumentError("pickles but does not unpickle", start)


def _started(marks, count: int) -> list[int]:
    """The blocks that left a start marker, once ``count`` have and 0.3 s more have passed."""
    deadline = time.monotonic() + 30.0
    while len(list(marks.iterdir())) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.3)
    return sorted(int(p.name.split("-")[1]) for p in marks.iterdir())


def _open_descriptors() -> int | None:
    """How many descriptors this process has open, or None where ``/proc/self/fd`` does not exist."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _oracle_path(config: SimulationConfig, increments: BrownianIncrements) -> np.ndarray:
    """Naive reference recursion: scalar kernel calls, Python running sums."""
    t = config.grid.nodes
    # The last node can overshoot the nominal horizon by an ulp; widen the
    # kernel domain accordingly so the reference never rejects t = t[-1].
    params = KernelParams(
        hurst=config.hurst,
        dampening=config.dampening,
        horizon=max(config.grid.horizon, float(t[-1])),
    )
    dB = increments.values
    g = config.offset_g
    values = [0.0 if g is None else float(g(0.0))]
    for k in range(1, config.grid.steps + 1):
        total = 0.0
        for i in range(k):
            total += sigma(params, float(t[k]), float(t[i]), values[i]) * float(dB[i])
        values.append(total if g is None else float(g(float(t[k]))) + total)
    return np.array(values)


class TestConfigValidation:
    def test_rejects_bad_n_paths(self):
        grid = make_grid(1.0, 8)
        h = builtin_hurst("constant", [0.5])
        with pytest.raises(ValueError, match="n_paths"):
            SimulationConfig(grid=grid, hurst=h, seed=Seed(1), n_paths=0)
        with pytest.raises(ValueError, match="n_paths"):
            SimulationConfig(grid=grid, hurst=h, seed=Seed(1), n_paths=2.7)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="n_paths"):
                SimulationConfig(grid=grid, hurst=h, seed=Seed(1), n_paths=bad)
        assert SimulationConfig(grid=grid, hurst=h, seed=Seed(1), n_paths=np.int64(3)).n_paths == 3

    def test_rejects_wrong_types(self):
        grid = make_grid(1.0, 8)
        h = builtin_hurst("constant", [0.5])
        with pytest.raises(ValueError, match="grid"):
            SimulationConfig(grid=1.0, hurst=h, seed=Seed(1))
        with pytest.raises(ValueError, match="hurst"):
            SimulationConfig(grid=grid, hurst=0.5, seed=Seed(1))
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(grid=grid, hurst=h, seed=7)
        with pytest.raises(ValueError, match="dampening"):
            SimulationConfig(grid=grid, hurst=h, seed=Seed(1), dampening=1.0)

    def test_sample_path_shape_checked(self):
        grid = make_grid(1.0, 8)
        with pytest.raises(ValueError, match="shape"):
            SamplePath(grid=grid, values=np.zeros(8))

    def test_increment_grid_must_match(self):
        cfg = SimulationConfig(
            grid=make_grid(1.0, 8), hurst=builtin_hurst("constant", [0.5]), seed=Seed(1)
        )
        incr = sample_brownian(Seed(2), make_grid(1.0, 16))
        with pytest.raises(ValueError, match="grid"):
            simulate_discrete(cfg, incr)

    @pytest.mark.parametrize("hurst", [builtin_hurst("constant", [0.7]), builtin_hurst("bell", [])],
                             ids=["diagonals", "columns"])
    @pytest.mark.parametrize("shape", [(2, 4), (2, 16), (8,)], ids=["short", "long", "one-d"])
    def test_batch_increments_must_fit_the_grid(self, hurst, shape):
        cfg = SimulationConfig(grid=make_grid(1.0, 8), hurst=hurst, seed=Seed(1))
        with pytest.raises(ValueError, match=r"increments must be \(P, 8\)"):
            solve_batch(cfg, np.ones(shape))


class TestAgainstNaiveRecursion:
    @pytest.mark.parametrize(
        ("hurst", "dampening", "offset", "seed"),
        [
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), None, None, 401),
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), None, math.sin, 402),
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("abs_value", []), None, 403),
            (
                builtin_hurst("bell", []),
                builtin_dampening("constant", [0.7]),
                lambda t: 0.3 * t,
                404,
            ),
        ],
        ids=["plain", "with-offset", "abs-dampened", "bell-const-damp-offset"],
    )
    def test_matches_double_loop(self, hurst, dampening, offset, seed):
        cfg = SimulationConfig(
            grid=make_grid(1.0, 48),
            hurst=hurst,
            seed=Seed(seed),
            dampening=dampening,
            offset_g=offset,
        )
        incr = sample_brownian(Seed(seed), cfg.grid)
        path = simulate_discrete(cfg, incr)
        expected = _oracle_path(cfg, incr)
        np.testing.assert_allclose(path.values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("driver", ["simulate_discrete", "monte_carlo"])
    def test_time_dependent_functions_are_evaluated_per_row(self, monkeypatch, driver):
        # With lip_t > 0 the kernel of row k must see h and f at the row
        # time t_k; a per-node cache evaluated at t_i would miss the
        # double loop by far more than the tolerance.
        hurst = HurstFunction(
            evaluator=_TimeVaryingHurst(), h_star=0.55, h_sup=0.8, lip_t=0.25, lip_x=0.25
        )
        dampening = DampeningFunction(
            evaluator=_TimeVaryingDampening(), growth_C=1.0, lip_t=1.0, lip_x=1.0
        )
        cfg = SimulationConfig(
            grid=make_grid(1.0, 48), hurst=hurst, seed=Seed(405), dampening=dampening, n_paths=3
        )
        if driver == "simulate_discrete":
            incr = sample_brownian(Seed(405), cfg.grid)
            got = [simulate_discrete(cfg, incr).values]
            increments = [incr]
        else:
            # With no floor, a forked worker solves one of the two blocks.
            monkeypatch.setattr(engine, "_POOL_STATES", 0)
            got = list(monte_carlo(cfg, n_workers=2).values)
            increments = [
                sample_brownian(derive_path_seed(cfg.seed, i), cfg.grid) for i in range(3)
            ]
        for values, incr in zip(got, increments):
            np.testing.assert_allclose(values, _oracle_path(cfg, incr), rtol=1e-12, atol=0.0)

    def test_output_is_readonly(self):
        cfg = SimulationConfig(
            grid=make_grid(1.0, 16), hurst=builtin_hurst("constant", [0.7]), seed=Seed(5)
        )
        path = simulate_discrete(cfg, sample_brownian(Seed(5), cfg.grid))
        with pytest.raises(ValueError):
            path.values[0] = 1.0


class TestExactIdentities:
    @pytest.mark.parametrize("steps", [1, 7, 64, 1000])
    def test_half_hurst_reproduces_brownian_prefix_sums(self, steps):
        grid = make_grid(1.0, steps)
        cfg = SimulationConfig(grid=grid, hurst=builtin_hurst("constant", [0.5]), seed=Seed(11))
        incr = sample_brownian(Seed(11), grid)
        path = simulate_discrete(cfg, incr)
        assert path.values[0] == 0.0
        assert path.values[1:].tobytes() == np.cumsum(incr.values).tobytes()

    def test_zero_dampening_is_bitwise_noop(self):
        grid = make_grid(2.0, 64)
        h = builtin_hurst("smooth_at_origin", [])
        incr = sample_brownian(Seed(21), grid)
        bare = simulate_discrete(SimulationConfig(grid=grid, hurst=h, seed=Seed(21)), incr)
        zeroed = simulate_discrete(
            SimulationConfig(
                grid=grid, hurst=h, seed=Seed(21), dampening=builtin_dampening("constant", [0.0])
            ),
            incr,
        )
        assert bare.values.tobytes() == zeroed.values.tobytes()

    # The state-free row is tabled once over the node distances on either
    # grid; next to a state-dependent factor it is added to that factor's
    # exponents.
    _ROW_GRIDS = pytest.mark.parametrize(("horizon", "steps", "exact"),
                                         [(1.0, 64, True), (10.0, 100, False)],
                                         ids=["exact", "inexact"])

    @_ROW_GRIDS
    @pytest.mark.parametrize(
        "dampening", [None, builtin_dampening("constant", [0.8]), builtin_dampening("bell", [])],
        ids=["undampened", "constant", "bell"],
    )
    def test_hurst_table_matches_direct_evaluation(self, horizon, steps, exact, dampening):
        # Same function twice: once declared constant (a factor of the
        # state-free row), once wrapped so the solver must evaluate it afresh
        # on every column.
        grid = make_grid(horizon, steps)
        assert differences_are_distances(grid) == exact
        tabled = builtin_hurst("constant", [0.75])
        direct = HurstFunction(
            evaluator=_FixedValue(0.75), h_star=0.5, h_sup=1.0, lip_t=0.0, lip_x=0.0
        )
        assert tabled.is_constant and not direct.is_constant
        incr = sample_brownian(Seed(31), grid)
        a, b = (
            simulate_discrete(
                SimulationConfig(grid=grid, hurst=h, seed=Seed(31), dampening=dampening), incr
            )
            for h in (tabled, direct)
        )
        assert a.values.tobytes() == b.values.tobytes()

    @_ROW_GRIDS
    @pytest.mark.parametrize(
        "hurst", [builtin_hurst("constant", [0.7]), builtin_hurst("bell", [])],
        ids=["constant", "bell"],
    )
    def test_dampening_table_matches_direct_evaluation(self, horizon, steps, exact, hurst):
        grid = make_grid(horizon, steps)
        assert differences_are_distances(grid) == exact
        tabled = builtin_dampening("constant", [0.8])
        direct = DampeningFunction(
            evaluator=_FixedValue(0.8), growth_C=0.8, lip_t=0.0, lip_x=0.0
        )
        assert tabled.constant_value == 0.8 and direct.constant_value is None
        incr = sample_brownian(Seed(41), grid)
        a, b = (
            simulate_discrete(
                SimulationConfig(grid=grid, hurst=hurst, seed=Seed(41), dampening=f), incr
            )
            for f in (tabled, direct)
        )
        assert a.values.tobytes() == b.values.tobytes()

    def test_constant_dampening_level_is_read_from_its_evaluator(self):
        # The level the solver tables is the one evaluate returns: a
        # built-in whose evaluator was swapped solves like the built-in of
        # the new level.
        swapped = replace(builtin_dampening("constant", [0.8]),
                          evaluator=builtin_dampening("constant", [0.5]).evaluator)
        assert swapped.constant_value == 0.5
        grid = make_grid(1.0, 64)
        hurst = builtin_hurst("trig", [0.6, 0.2, 1.0])
        incr = sample_brownian(Seed(9), grid)
        a, b = (
            simulate_discrete(
                SimulationConfig(grid=grid, hurst=hurst, seed=Seed(9), dampening=f), incr
            )
            for f in (swapped, builtin_dampening("constant", [0.5]))
        )
        assert a.values.tobytes() == b.values.tobytes()

    def test_offset_sets_initial_value_exactly(self):
        grid = make_grid(1.0, 8)
        cfg = SimulationConfig(
            grid=grid,
            hurst=builtin_hurst("constant", [0.6]),
            seed=Seed(3),
            offset_g=lambda t: 1.5 + t,
        )
        path = simulate_discrete(cfg, sample_brownian(Seed(3), grid))
        assert path.values[0] == 1.5

    @pytest.mark.parametrize("hurst", [builtin_hurst("constant", [0.6]), builtin_hurst("bell", [])],
                             ids=["tabled", "columns"])
    def test_negative_zero_offset_at_node_zero_is_kept(self, hurst):
        # Node 0 sums no terms; with an offset it must be g(0) bit for bit.
        grid = make_grid(1.0, 8)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(3), offset_g=lambda t: -t)
        x = solve_batch(cfg, np.stack([sample_brownian(Seed(3), grid).values] * 2))
        assert np.signbit(x[:, 0]).all() and not x[:, 0].any()


def _declared_time_dependent(fn):
    """The same function declaring ``lip_t > 0``, evaluated at every later node's time."""
    if fn is None:
        return None
    return replace(fn, lip_t=1.0)


class TestColumnOrder:
    """Functions evaluated once per node against the same functions declaring ``lip_t > 0``.

    The latter ("rows" in the names) are evaluated once per column at the
    row of later node times; both must give the same bits.
    """

    @pytest.mark.parametrize(
        ("hurst", "dampening", "offset", "horizon", "steps", "n_paths"),
        [
            # bell is 1 at x = 0, so node 0 has the exponent 1/2.
            (builtin_hurst("bell", []), builtin_dampening("bell", []), None, 10.0, 512, 1),
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("abs_value", []), None,
             10.0, 100, 3),
            (builtin_hurst("bell", []), None, math.sin, 1.0, 64, 2),
            (builtin_hurst("smooth_at_origin", []), builtin_dampening("bell", []),
             lambda t: 0.25 - t, 1.0, 48, 2),
            # A constant factor next to one declaring lip_t > 0: the column
            # reads the constant from its state-free row.
            (builtin_hurst("constant", [0.75]), builtin_dampening("bell", []), None,
             10.0, 512, 2),
            (builtin_hurst("bell", []), builtin_dampening("constant", [0.8]), None,
             2.0, 1024, 2),
            # A 0-d evaluation of h = 1, whose exponent 1/2 is broadcast over
            # the column in either declaration.
            (HurstFunction(_FixedValue(1.0), h_star=0.5, h_sup=1.0, lip_t=0.0, lip_x=0.0), None,
             None, 1.0, 64, 2),
            # A dampening evaluator returning a Python float, which has no
            # array methods, in either declaration.
            (builtin_hurst("bell", []),
             DampeningFunction(_FixedValue(0.8), growth_C=0.8, lip_t=0.0, lip_x=0.0), None,
             1.0, 64, 2),
        ],
        ids=["bell-bell-exact", "trig-abs-inexact", "bell-offset", "smooth-bell-offset-inexact",
             "constant-bell-exact", "bell-constant-exact", "fixed-one-0d", "bell-float-damping"],
    )
    def test_columns_match_rows_bitwise(self, hurst, dampening, offset, horizon, steps, n_paths):
        grid = make_grid(horizon, steps)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(71), dampening=dampening,
                               offset_g=offset)
        by_rows = replace(cfg, hurst=_declared_time_dependent(hurst),
                          dampening=_declared_time_dependent(dampening))
        dB = np.stack([sample_brownian(Seed(71 + p), grid).values for p in range(n_paths)])
        assert solve_batch(cfg, dB).tobytes() == solve_batch(by_rows, dB).tobytes()

    def test_node_zero_exponent_half_matches_rows_bitwise(self):
        # h(0) = 1 for bell, so node 0's exponent is exactly 1/2.  With a
        # single unit increment every later state is node 0's kernel value
        # itself, so no last bit of it can hide in a sum.
        grid = make_grid(10.0, 512)
        cfg = SimulationConfig(grid=grid, hurst=builtin_hurst("bell", []), seed=Seed(73),
                               dampening=builtin_dampening("bell", []))
        by_rows = replace(cfg, hurst=_declared_time_dependent(cfg.hurst),
                          dampening=_declared_time_dependent(cfg.dampening))
        dB = np.zeros((1, 512))
        dB[0, 0] = 1.0
        assert solve_batch(cfg, dB).tobytes() == solve_batch(by_rows, dB).tobytes()

    @pytest.mark.parametrize(
        "hurst",
        [
            builtin_hurst("bell", []),
            builtin_hurst("constant", [0.75]),
            _declared_time_dependent(builtin_hurst("bell", [])),
        ],
        ids=["columns", "tabled-columns", "rows"],
    )
    def test_negative_zero_increments_give_negative_zero_states(self, hurst):
        # Every sum starts from its first term: starting from 0.0 would
        # turn the -0.0 sums into +0.0.
        grid = make_grid(1.0, 64)
        assert differences_are_distances(grid)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(72))
        x = solve_batch(cfg, np.full((2, 64), -0.0))
        assert np.signbit(x[:, 1:]).all()


class TestColumnBlocks:
    """A state-dependent column is one contiguous ``(P, m)`` block of the batch."""

    @pytest.mark.parametrize(
        ("hurst", "dampening", "offset", "horizon", "steps"),
        [
            # bell is 1 at x = 0, so node 0 has the exponent 1/2.
            (builtin_hurst("bell", []), builtin_dampening("bell", []), None, 10.0, 512),
            # The constant dampening is read from its state-free row.
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("constant", [0.8]), None,
             1.0, 256),
            (_declared_time_dependent(builtin_hurst("bell", [])),
             _declared_time_dependent(builtin_dampening("abs_value", [])), None, 1.0, 128),
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("abs_value", []), math.sin,
             10.0, 100),
        ],
        ids=["bell-bell-exact", "trig-constant-table", "rows", "trig-abs-offset-inexact"],
    )
    def test_path_bits_do_not_depend_on_the_batch(self, hurst, dampening, offset, horizon, steps):
        grid = make_grid(horizon, steps)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(76), dampening=dampening,
                               offset_g=offset)
        # Only the case with an offset runs on an inexact grid.
        assert differences_are_distances(grid) == (offset is None)
        dB = np.stack([sample_brownian(Seed(76 + p), grid).values for p in range(32)])
        batch = solve_batch(cfg, dB)
        for p in range(32):
            assert solve_batch(cfg, dB[p:p + 1])[0].tobytes() == batch[p].tobytes(), p

    @pytest.mark.parametrize(
        ("hurst", "dampening"),
        [
            (builtin_hurst("bell", []), builtin_dampening("bell", [])),
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("constant", [0.8])),
        ],
        ids=["bell-bell", "trig-constant"],
    )
    def test_column_is_a_contiguous_block(self, monkeypatch, hurst, dampening):
        grid = make_grid(1.0, 64)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(77), dampening=dampening)
        _, _, h, f = _kernel_row(cfg)
        assert h is not None or f is not None
        blocks = []
        exp = np.exp

        def spy(x, /, *args, **kwargs):
            # The evaluators' own exp calls pass no out.
            if "out" in kwargs:
                blocks.append(kwargs["out"])
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        solve_batch(cfg, np.ones((3, 64)))
        assert len(blocks) == 64
        for i in (1, 30, 63):
            block = blocks[i]
            assert block.shape == (3, 64 - i)
            assert block.flags.c_contiguous


@pytest.fixture
def caller_bufsize():
    """A caller's ufunc buffer size other than numpy's default, restored afterwards."""
    old = np.setbufsize(4096)
    yield 4096
    np.setbufsize(old)


class TestUfuncBuffer:
    """State-dependent columns run under the solver's ufunc buffer size, and only there."""

    @staticmethod
    def _increments(grid, n_paths, seed):
        return np.stack([sample_brownian(Seed(seed + p), grid).values for p in range(n_paths)])

    def test_every_column_sees_the_solver_buffer(self, caller_bufsize):
        recorder = _CountingEvaluator()
        grid = make_grid(1.0, 64)
        hurst = HurstFunction(recorder, h_star=0.5, h_sup=0.8, lip_t=0.0, lip_x=0.2)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(80))
        assert engine._BUFSIZE != caller_bufsize
        solve_batch(cfg, self._increments(grid, 4, 80))
        # One call per column: N of them.
        assert recorder.bufsizes == [engine._BUFSIZE] * 64
        assert np.getbufsize() == caller_bufsize

    def test_caller_buffer_comes_back(self, caller_bufsize):
        grid = make_grid(1.0, 32)
        cfg = SimulationConfig(grid=grid, hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]),
                               seed=Seed(81), dampening=builtin_dampening("constant", [1.0]),
                               n_paths=3)
        assert np.getbufsize() == caller_bufsize
        monte_carlo(cfg)
        assert np.getbufsize() == caller_bufsize
        convergence_study(cfg, n_levels=3, refine_factor=2)
        assert np.getbufsize() == caller_bufsize

    def test_caller_buffer_comes_back_after_a_raise(self, caller_bufsize):
        grid = make_grid(1.0, 64)
        raising = SimulationConfig(
            grid=grid, seed=Seed(82), n_paths=2,
            hurst=HurstFunction(_OutOfDomain(), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0),
        )
        with pytest.raises(PathSimulationError) as excinfo:
            monte_carlo(raising)
        assert isinstance(excinfo.value.cause, ValueError)
        assert np.getbufsize() == caller_bufsize
        nan = replace(raising, n_paths=1, hurst=HurstFunction(
            NanPastThreshold(0.7, 0.0), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0))
        with pytest.raises(PathSimulationError) as excinfo:
            simulate_discrete(nan, sample_brownian(Seed(82), grid))
        assert excinfo.value.step == 2
        assert np.getbufsize() == caller_bufsize

    @pytest.mark.parametrize(
        ("hurst", "dampening", "horizon", "steps", "n_paths"),
        [
            (builtin_hurst("bell", []), builtin_dampening("bell", []), 10.0, 512, 4),
            # Columns of up to 32 * 512 terms: above and below numpy's
            # default buffer of 8192.
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("constant", [0.8]),
             1.0, 512, 32),
            # The evaluators broadcast a (1, m) row of times against (P, m) states.
            (_declared_time_dependent(builtin_hurst("bell", [])),
             _declared_time_dependent(builtin_dampening("abs_value", [])), 1.0, 128, 4),
        ],
        ids=["bell-bell-P4", "trig-constant-P32", "rows-P4"],
    )
    def test_bits_do_not_depend_on_the_buffer(self, monkeypatch, hurst, dampening, horizon,
                                              steps, n_paths):
        grid = make_grid(horizon, steps)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(83), dampening=dampening)
        dB = self._increments(grid, n_paths, 83)
        solved = []
        # 8192 is numpy's default buffer size.
        for size in (16, 8192, 2 ** 16):
            monkeypatch.setattr(engine, "_BUFSIZE", size)
            solved.append(solve_batch(cfg, dB).tobytes())
        assert solved[0] == solved[1] == solved[2]


class TestKernelAccuracy:
    """The solver's terms against the reference ``kernels.kernel_values``, in ulps.

    The solver builds a term as one ``exp((h - 1/2) log d - f d)``; the
    reference as ``d ** (h - 1/2) * exp(-f d)``.  Both round ``h - 1/2`` and
    ``-f d`` the same way, so the gap is the rounding of ``log d``, of its
    product and of the sum, carried through ``exp``: 10 ulp at most and
    under 1 ulp on average over these samples.
    """

    MAX_ULP = 12
    MEAN_ULP = 1.0

    @pytest.mark.parametrize(
        ("hurst", "dampening"),
        [
            (builtin_hurst("bell", []), builtin_dampening("bell", [])),
            (builtin_hurst("constant", [0.75]), builtin_dampening("bell", [])),
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("constant", [0.8])),
            (builtin_hurst("rough_at_origin", []), builtin_dampening("constant", [0.8])),
            (builtin_hurst("bell", []), None),
        ],
        ids=["bell-bell", "constant-bell", "trig-constant", "rough-constant", "bell-undampened"],
    )
    def test_terms_within_ulps_of_reference(self, hurst, dampening):
        grid = make_grid(10.0, 4096)
        # The node differences are the solver's distances bit for bit.
        assert differences_are_distances(grid)
        t = grid.nodes
        n_paths = 64
        states = np.random.default_rng(78).uniform(-4.0, 4.0, n_paths)
        # bell is 1 at x = 0: the exponent 1/2.
        states[0] = 0.0
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(78), dampening=dampening)
        ones = np.ones((n_paths, 4096))
        ulps = []
        for i in range(0, 4096, 256):
            # Node i holds the states; -0.0 + a is a, bit for bit, so the
            # later nodes' sums are node i's column of terms.
            x = np.full((n_paths, 4097), -0.0)
            x[:, i] = states
            _column_sums(cfg, _kernel_row(cfg), x, ones, None, range(i, i + 1))
            got = x[:, i + 1:]
            want = np.broadcast_to(kernel_values(hurst, dampening, t[None, i + 1:], t[i],
                                                 states[:, None]), got.shape)
            assert (got > 0.0).all() and (want > 0.0).all()
            # Positive floats order like their bit patterns.
            ulps.append(np.abs(got.view(np.int64) - np.ascontiguousarray(want).view(np.int64)))
        ulps = np.concatenate(ulps, axis=None)
        assert ulps.size >= 10 ** 6
        assert ulps.max() <= self.MAX_ULP
        assert ulps.mean() <= self.MEAN_ULP


def _tabled_config(dampening, offset=None, horizon=1.0, steps=64):
    """Constant Hurst, on the exact grid T = 1, N = 64 by default: the kernel is tabled."""
    grid = make_grid(horizon, steps)
    assert differences_are_distances(grid) == (steps == 64)
    return SimulationConfig(grid=grid, hurst=builtin_hurst("constant", [0.7]), seed=Seed(74),
                            dampening=dampening, offset_g=offset)


def _distance_sums(config: SimulationConfig, dB: np.ndarray) -> np.ndarray:
    """Plain Python left-to-right sums of ``by_distance[k - i - 1] * dB[i]``, plus the offset.

    ``by_distance`` is the ``exp`` of the kernel's state-free row.
    """
    _, row, hurst, dampening = _kernel_row(config)
    assert hurst is None and dampening is None
    by_distance = np.exp(row)
    g = config.offset_g
    t = config.grid.nodes
    rows = []
    for increments in dB.tolist():
        row = [0.0 if g is None else float(g(0.0))]
        for k in range(1, len(increments) + 1):
            total = -0.0
            for i in range(k):
                total += float(by_distance[k - i - 1]) * increments[i]
            row.append(total if g is None else total + float(g(float(t[k]))))
        rows.append(row)
    return np.array(rows)


class TestDiagonalLoop:
    """A kernel of the node distance alone is summed node-major, one distance at a time."""

    @pytest.mark.parametrize("offset", [None, math.sin], ids=["plain", "sin"])
    # The exact grid T = 1, N = 64, and 3 paths on the inexact T = 10,
    # N = 1000, whose distances are the node times too.
    @pytest.mark.parametrize(("n_paths", "horizon", "steps"),
                             [(1, 1.0, 64), (3, 1.0, 64), (64, 1.0, 64), (3, 10.0, 1000)],
                             ids=["1", "3", "64", "3-inexact"])
    @pytest.mark.parametrize(
        "dampening",
        [None, builtin_dampening("constant", [0.8]), builtin_dampening("constant", [0.0])],
        ids=["undampened", "constant-0.8", "constant-0.0"],
    )
    def test_matches_left_to_right_sums_bitwise(self, dampening, n_paths, horizon, steps, offset):
        cfg = _tabled_config(dampening, offset, horizon, steps)
        dB = np.stack([sample_brownian(Seed(75 + p), cfg.grid).values for p in range(n_paths)])
        assert solve_batch(cfg, dB).tobytes() == _distance_sums(cfg, dB).tobytes()

    @pytest.mark.parametrize(
        "dampening", [None, builtin_dampening("constant", [0.8])], ids=["undampened", "constant"]
    )
    def test_constant_kernel_is_tabled_on_inexact_grid(self, dampening):
        cfg = _tabled_config(dampening, horizon=10.0, steps=1000)
        _, row, hurst, dampening = _kernel_row(cfg)
        assert hurst is None and dampening is None
        assert np.exp(row).shape == (1000,)

    def test_path_bits_do_not_depend_on_the_batch(self):
        cfg = _tabled_config(builtin_dampening("constant", [0.8]), math.sin)
        dB = np.stack([sample_brownian(Seed(75 + p), cfg.grid).values for p in range(64)])
        batch = solve_batch(cfg, dB)
        for p in (0, 17, 63):
            assert solve_batch(cfg, dB[p:p + 1])[0].tobytes() == batch[p].tobytes()

    def test_signed_zero_increments_keep_their_signs(self):
        # A node's sum is -0.0 exactly while every increment before it is
        # -0.0; one +0.0 term makes it +0.0 from then on.
        cfg = _tabled_config(builtin_dampening("constant", [0.8]))
        dB = np.full((4, 64), -0.0)
        dB[1, 10] = 0.0
        dB[2, 0] = 0.0
        dB[3, 1::2] = 0.0
        x = solve_batch(cfg, dB)
        assert x.tobytes() == _distance_sums(cfg, dB).tobytes()
        assert not np.signbit(x[:, 0]).any()
        expected = np.logical_and.accumulate(np.signbit(dB), axis=1)
        assert np.array_equal(np.signbit(x[:, 1:]), expected)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_increment_names_path_and_step(self, bad):
        cfg = _tabled_config(None)
        dB = np.stack([sample_brownian(Seed(75 + p), cfg.grid).values for p in range(3)])
        dB[1, 17] = bad
        # solve_batch names row 1; the block runner adds the block's start, 10.
        with pytest.raises(PathSimulationError) as excinfo:
            _run_block(lambda config, start, stop: solve_batch(config, dB), cfg, 10, 13)
        # Increment 17 first enters the state at node 18.
        assert (excinfo.value.path_index, excinfo.value.step) == (11, 18)


class TestBlockBounds:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("steps", [1, 8, 255, 256, 1000, 4096, 2 ** 16, 2 ** 17])
    def test_blocks_split_the_paths_evenly(self, steps, n_workers):
        budget = engine._BLOCK_STATES
        for n_paths in [*range(1, 41), 255, 256, 257, 600, 1000, 4097]:
            starts, stops = engine._block_bounds(n_paths, steps, n_workers)
            sizes = [stop - start for start, stop in zip(starts, stops)]
            # Contiguous, and every path in exactly one block.
            assert starts[0] == 0 and stops[-1] == n_paths and starts[1:] == stops[:-1]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            if n_workers == 1:
                # The fewest blocks within the budget.
                assert len(sizes) == -(-n_paths // max(1, budget // steps))
            elif n_paths >= n_workers:
                # A multiple of the worker count, or one block per path
                # when the paths are too few for the next multiple.
                assert len(sizes) % n_workers == 0 or len(sizes) == n_paths
            assert max(sizes) * steps <= max(steps, budget)
            assert max(sizes) <= -(-n_paths // n_workers)

    @pytest.mark.parametrize(("n_paths", "steps", "n_workers", "starts"), [
        (600, 256, 2, [0, 150, 300, 450]),
        (64, 512, 2, [0, 32]),
        (64, 512, 1, [0]),
        (4, 4096, 1, [0]),
        (7, 2 ** 16, 3, list(range(7))),
    ])
    def test_blocks_of_some_runs(self, n_paths, steps, n_workers, starts):
        # 600 short paths on two workers are four blocks of 150, two each;
        # one block at N = 512 holds 64 paths, which two workers halve; past
        # 2**16 steps every path is its own block.
        assert engine._block_bounds(n_paths, steps, n_workers)[0] == starts


# A fork in a process with threads warns from Python 3.12 on; in the tests
# that fork workers it fails instead.
_NO_FORK_WITH_THREADS = pytest.mark.filterwarnings("error::DeprecationWarning")


@_NO_FORK_WITH_THREADS
class TestMonteCarlo:
    def _config(self, n_paths=3, steps=64, seed=61):
        return SimulationConfig(
            grid=make_grid(1.0, steps),
            hurst=builtin_hurst("smooth_at_origin", []),
            seed=Seed(seed),
            n_paths=n_paths,
        )

    def test_single_path_matches_direct_simulation(self):
        cfg = self._config(n_paths=1)
        ensemble = monte_carlo(cfg)
        stream = derive_path_seed(cfg.seed, 0)
        incr = sample_brownian(stream, cfg.grid)
        direct = simulate_discrete(cfg, incr)
        assert ensemble.paths[0].values.tobytes() == direct.values.tobytes()

    def test_paths_are_indexed_and_deterministic(self):
        cfg = self._config(n_paths=4)
        a = monte_carlo(cfg)
        b = monte_carlo(cfg)
        assert isinstance(a, Ensemble)
        assert [p.path_index for p in a.paths] == [0, 1, 2, 3]
        assert a.values.tobytes() == b.values.tobytes()
        assert a.values.shape == (4, 65)

    def test_worker_count_does_not_change_output(self):
        # One block of up to 2**16 // 2048 = 32 paths would hold all ten;
        # two workers split them into two blocks of five, so this process
        # runs one and a forked worker the other.
        cfg = self._config(n_paths=10, steps=2048)
        serial = monte_carlo(cfg, n_workers=1)
        parallel = monte_carlo(cfg, n_workers=2)
        assert serial.values.tobytes() == parallel.values.tobytes()

    @pytest.mark.parametrize(("n_paths", "block_states"),
                             [(2, 2 ** 16), (400, 2 ** 16), (400, 2 ** 14)],
                             ids=["2-blocks", "3-blocks", "9-blocks"])
    def test_three_workers_match_serial(self, monkeypatch, n_paths, block_states):
        # Two paths make two blocks and cap the workers at two; with no
        # floor their 512 states fork a worker too.  At N = 256, 400 paths
        # need two blocks of at most 2**16 // 256 = 256 paths, rounded up to
        # three of 133 or 134, one per worker; under a budget of 2**14
        # states, seven of at most 64, rounded up to nine of 44 or 45, of
        # which this process runs 0, 3 and 6 and two forked workers the others.
        monkeypatch.setattr(engine, "_BLOCK_STATES", block_states)
        monkeypatch.setattr(engine, "_POOL_STATES", 0)
        cfg = self._config(n_paths=n_paths, steps=256)
        serial = monte_carlo(cfg, n_workers=1)
        parallel = monte_carlo(cfg, n_workers=3)
        assert serial.values.tobytes() == parallel.values.tobytes()

    @pytest.mark.parametrize(("n_workers", "n_blocks"), [(2, 10), (3, 7)])
    def test_caller_runs_every_n_workers_th_block(self, forks, n_workers, n_blocks):
        # N = 2**16 makes every path its own block: ten blocks on two
        # workers, and seven on three, one per path since there are too few
        # for nine.  The calling process is one of the n_workers: it runs
        # blocks 0, W, 2W, ... and the W - 1 forked workers run the others,
        # worker w the blocks w, w + W, ...
        cfg = SimulationConfig(grid=make_grid(1.0, 2 ** 16), hurst=builtin_hurst("constant", [0.6]),
                               seed=Seed(72), n_paths=n_blocks)
        pids = [pid for _, pid in run_blocks(_process_id, cfg, n_workers)]
        assert [pid == os.getpid() for pid in pids] == [i % n_workers == 0 for i in range(n_blocks)]
        assert len(forks) == n_workers - 1
        assert [pid for i, pid in enumerate(pids) if i % n_workers] == [
            forks[i % n_workers - 1] for i in range(n_blocks) if i % n_workers]

    def test_single_block_runs_without_a_pool(self, forks):
        # Two workers split any two paths or more into two blocks; one path
        # is one block, and caps the workers at one.
        serial = monte_carlo(self._config(n_paths=1), n_workers=1)
        parallel = monte_carlo(self._config(n_paths=1), n_workers=2)
        assert serial.values.tobytes() == parallel.values.tobytes()
        assert forks == []

    @pytest.mark.parametrize(("pool_states", "pools"), [(512, 0), (511, 1)],
                             ids=["at-the-floor", "past-the-floor"])
    def test_small_runs_start_no_pool(self, monkeypatch, forks, pool_states, pools):
        # Two paths of 256 steps are 512 states.  A run of at most
        # _POOL_STATES states is solved here; one state more gives two
        # blocks, one of them in a forked worker.
        cfg = self._config(n_paths=2, steps=256)
        serial = monte_carlo(cfg, n_workers=1)
        monkeypatch.setattr(engine, "_POOL_STATES", pool_states)
        parallel = monte_carlo(cfg, n_workers=2)
        assert serial.values.tobytes() == parallel.values.tobytes()
        assert len(forks) == pools

    def test_the_pool_floor_keeps_the_benchmark_pools(self):
        # A coupled study's 64 seeds on an N = 512 reference and 600 paths
        # of 256 steps fork workers; the floor lies below both.
        assert engine._POOL_STATES < min(64 * 512, 600 * 256)

    def test_lambda_offset_runs_on_two_processes(self, forks):
        # Two workers split the ten paths into two blocks of five on
        # N = 2048.  The forked worker inherits the config, so the lambda
        # offset, which does not pickle, is solved there too.
        cfg = SimulationConfig(
            grid=make_grid(1.0, 2048),
            hurst=builtin_hurst("constant", [0.6]),
            seed=Seed(62),
            offset_g=lambda t: 0.1 * t,
            n_paths=10,
        )
        serial = monte_carlo(cfg, n_workers=1)
        assert forks == []
        forked = monte_carlo(cfg, n_workers=2)
        assert len(forks) == 1
        assert serial.values.tobytes() == forked.values.tobytes()

    def test_lambda_finish_runs_on_two_processes(self, monkeypatch, forks):
        # Under a budget of 2**14 states, blocks of at most 16 paths on
        # N = 1024: four blocks of 15, for one worker or two.  The lambda
        # finish is bound into the block task, which the forked worker
        # inherits: it runs blocks 1 and 3 and pickles only their states.
        monkeypatch.setattr(engine, "_BLOCK_STATES", 2 ** 14)
        cfg = SimulationConfig(grid=make_grid(1.0, 1024), hurst=builtin_hurst("bell", []),
                               seed=Seed(66), n_paths=60)
        serial = [(start, block.tobytes()) for start, block in simulate_blocks(cfg, 1)]
        assert forks == []
        forked = [(start, block.tobytes())
                  for start, block in simulate_blocks(cfg, 2, finish=lambda x: x)]
        assert len(forks) == 1
        assert len(serial) == 4
        assert forked == serial

    @pytest.mark.parametrize("failing", [0, 8], ids=["caller-block", "pool-block"])
    def test_block_runner_adds_the_block_start_to_a_row(self, failing):
        # One block of up to 2**16 // 2048 = 32 paths would hold all 16; two
        # workers split them into two blocks of 8: block 0 runs in this
        # process, block 8 in the forked worker.  The task names its last row,
        # 7, and the error must name the global path.
        cfg = SimulationConfig(grid=make_grid(1.0, 2048), hurst=builtin_hurst("constant", [0.6]),
                               seed=Seed(67), n_paths=16)
        with pytest.raises(PathSimulationError) as excinfo:
            for _ in run_blocks(partial(_fail_last_row, failing=failing), cfg, 2):
                pass
        assert (excinfo.value.path_index, excinfo.value.step) == (failing + 7, 3)
        assert str(excinfo.value.cause) == "row fails"

    def test_no_pending_block_starts_after_the_first_failing_block(self, tmp_path):
        # N = 2**16 makes every path its own block: 24 blocks on 2 workers,
        # this process and n_workers - 1 = 1 forked worker, which runs the
        # 12 odd blocks.  Block 0 fails here, at once, and the worker is
        # killed when that failure is raised.  Every other block sleeps
        # 0.2 s before it leaves its marker, so a prompt kill leaves none,
        # and at most 2 * n_workers - 1 markers allow for a slow one.  Were
        # the worker left running, all 12 of its blocks would leave one.
        cfg = SimulationConfig(grid=make_grid(1.0, 2 ** 16), hurst=builtin_hurst("constant", [0.6]),
                               seed=Seed(71), n_paths=24)
        n_workers = 2
        with pytest.raises(PathSimulationError) as excinfo:
            for _ in run_blocks(partial(_fail_first_block, marks=tmp_path), cfg, n_workers):
                pass
        assert excinfo.value.path_index == 0
        assert isinstance(excinfo.value.cause, FloatingPointError)
        assert len(list(tmp_path.iterdir())) <= 2 * n_workers - 1

    def test_caller_starts_no_block_after_a_pool_failure(self, tmp_path):
        # N = 2**16 makes every path its own block on 2 workers: this
        # process runs blocks 0 and 2, the forked worker blocks 1 and 3.
        # Block 1 fails first in block
        # order, so the error names it, and this process reads that failure
        # before block 2's turn comes, so block 2 never starts.
        cfg = SimulationConfig(grid=make_grid(1.0, 2 ** 16), hurst=builtin_hurst("constant", [0.6]),
                               seed=Seed(73), n_paths=4)
        with pytest.raises(PathSimulationError) as excinfo:
            for _ in run_blocks(partial(_fail_blocks_one_and_two, marks=tmp_path), cfg, 2):
                pass
        assert excinfo.value.path_index == 1
        assert str(excinfo.value.cause) == "block 1 fails"
        assert (tmp_path / "started-0").exists() and (tmp_path / "started-1").exists()
        assert not (tmp_path / "started-2").exists()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_path_failure_names_the_index(self, monkeypatch, n_workers):
        # With no floor, two workers run the two paths in two processes.
        monkeypatch.setattr(engine, "_POOL_STATES", 0)
        broken = HurstFunction(
            evaluator=_RaisingEvaluator(), h_star=0.4, h_sup=0.6, lip_t=0.0, lip_x=0.0
        )
        cfg = SimulationConfig(
            grid=make_grid(1.0, 8), hurst=broken, seed=Seed(63), n_paths=2
        )
        with pytest.raises(PathSimulationError) as excinfo:
            monte_carlo(cfg, n_workers=n_workers)
        assert excinfo.value.path_index in (0, 1)
        assert isinstance(excinfo.value.cause, FloatingPointError)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_non_finite_state_names_path_and_step(self, n_workers):
        # On N = 2048 the ten paths are one block for one worker and two
        # blocks of five for two.  The healthy twin returns the
        # same exponent everywhere, so both runs agree bitwise until the
        # first node past the threshold; the row after it turns NaN.
        grid = make_grid(1.0, 2048)
        healthy = SimulationConfig(
            grid=grid,
            hurst=HurstFunction(_ConstantArray(0.7), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0),
            seed=Seed(64),
            n_paths=10,
        )
        reference = monte_carlo(healthy).values
        threshold = 0.5 * float(np.max(np.abs(reference[0, :-1])))
        crossed = np.abs(reference[:, :-1]) > threshold
        path = int(np.flatnonzero(crossed.any(axis=1))[0])
        step = int(np.argmax(crossed[path])) + 1
        broken = replace(healthy, hurst=HurstFunction(
            NanPastThreshold(0.7, threshold), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0
        ))
        with pytest.raises(PathSimulationError) as excinfo:
            monte_carlo(broken, n_workers=n_workers)
        assert (excinfo.value.path_index, excinfo.value.step) == (path, step)
        assert isinstance(excinfo.value.cause, FloatingPointError)
        assert f"path {path} at step {step}" in str(excinfo.value)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_raising_evaluator_names_the_failing_path(self, monkeypatch, n_workers):
        # The four paths are one block for one worker and, with no floor,
        # two blocks of two for two; the failing path, 1, is the
        # second of block 0 either way.
        # The evaluation that raises covers the whole block, and the error
        # must still name the path whose state left the domain, not the
        # first path of the block.
        monkeypatch.setattr(engine, "_POOL_STATES", 0)
        grid = make_grid(1.0, 64)
        healthy = SimulationConfig(
            grid=grid,
            hurst=HurstFunction(_ConstantArray(0.7), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0),
            seed=Seed(70),
            n_paths=4,
        )
        reference = np.abs(monte_carlo(healthy).values[:, :-1])
        threshold = float(np.max(reference[0]))
        path = int(np.flatnonzero(np.max(reference, axis=1) > threshold)[0])
        assert path > 0
        broken = replace(healthy, hurst=HurstFunction(
            RaisingPastThreshold(0.7, threshold), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0
        ))
        with pytest.raises(PathSimulationError) as excinfo:
            monte_carlo(broken, n_workers=n_workers)
        assert excinfo.value.path_index == path
        assert excinfo.value.step is None
        assert isinstance(excinfo.value.cause, FloatingPointError)

    def test_simulate_discrete_rejects_non_finite_state(self):
        grid = make_grid(1.0, 64)
        hurst = HurstFunction(NanPastThreshold(0.7, 0.0), h_star=0.6, h_sup=0.8,
                              lip_t=0.0, lip_x=0.0)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(65))
        with pytest.raises(PathSimulationError) as excinfo:
            simulate_discrete(cfg, sample_brownian(Seed(65), grid))
        # x[0] = 0 is within the threshold; the first nonzero state is not.
        assert excinfo.value.path_index == 0
        assert excinfo.value.step == 2

    def test_path_error_survives_pickling(self):
        err = PathSimulationError(3, FloatingPointError("nan"), step=17)
        back = pickle.loads(pickle.dumps(err))
        assert (back.path_index, back.step, str(back)) == (3, 17, str(err))
        assert isinstance(back.cause, FloatingPointError)

    def test_values_are_stored_not_copied(self):
        ensemble = monte_carlo(self._config(n_paths=3))
        matrix = ensemble.values
        assert matrix is ensemble.values
        assert not matrix.flags.writeable
        assert all(np.shares_memory(p.values, matrix) for p in ensemble.paths)

    @pytest.mark.parametrize(
        ("counted", "lip_t", "expected"),
        [("hurst", 0.0, 64), ("hurst", 0.5, 64 * 65 // 2),
         ("dampening", 0.0, 64), ("dampening", 0.5, 64 * 65 // 2)],
        ids=["0.0-64", "0.5-2080", "dampening-0.0-64", "dampening-0.5-2080"],
    )
    def test_hurst_is_evaluated_once_per_node_unless_time_dependent(self, counted, lip_t,
                                                                    expected):
        counter = _CountingEvaluator()
        if counted == "hurst":
            hurst = HurstFunction(counter, h_star=0.5, h_sup=0.8, lip_t=lip_t, lip_x=0.2)
            dampening = None
        else:
            hurst = builtin_hurst("bell", [])
            dampening = DampeningFunction(counter, growth_C=0.8, lip_t=lip_t, lip_x=0.2)
        grid = make_grid(1.0, 64)
        simulate_discrete(SimulationConfig(grid=grid, hurst=hurst, seed=Seed(66),
                                           dampening=dampening),
                          sample_brownian(Seed(66), grid))
        assert counter.values == expected

    def test_refine_config_doubles_steps(self):
        cfg = self._config(steps=64)
        fine = refine_config(cfg, 2)
        assert fine.grid.steps == 128
        assert fine.grid.horizon == cfg.grid.horizon
        assert fine.hurst is cfg.hurst
        with pytest.raises(ValueError, match="factor"):
            refine_config(cfg, 0)


class TestCustomHurstClip:
    """A custom Hurst evaluator that strays is clipped into its declared range.

    No golden digest is needed: the same evaluator wrapped in ``np.clip`` by
    hand gives the bits, and the raw one would not.
    """

    @pytest.mark.parametrize("lip_t", [0.0, 1.0], ids=["time-free", "time-varying"])
    @pytest.mark.parametrize("dampening", [None, builtin_dampening("bell")], ids=["plain", "bell"])
    def test_straying_evaluator_gives_the_bits_of_its_clip(self, lip_t, dampening):
        def raw(t, x):
            return 0.5 + 0.6 * np.sin(3.0 * np.asarray(x) + lip_t * t)

        def run(evaluator):
            hurst = HurstFunction(evaluator, h_star=0.2, h_sup=0.8, lip_t=lip_t, lip_x=1.8)
            return monte_carlo(SimulationConfig(grid=make_grid(1.0, 128), hurst=hurst, seed=Seed(31),
                                                dampening=dampening, n_paths=8)).values

        got = run(raw)
        assert got.tobytes() == run(lambda t, x: np.clip(raw(t, x), 0.2, 0.8)).tobytes()
        # The paths take the raw values past both ends of the range.
        strays = raw(make_grid(1.0, 128).nodes, got)
        assert (strays < 0.2).any() and (strays > 0.8).any()


@_NO_FORK_WITH_THREADS
class TestForkedWorkers:
    """The contract of the workers that ``run_blocks`` forks."""

    @staticmethod
    def _one_path_blocks(n_paths: int) -> SimulationConfig:
        # N = 2**16 makes every path its own block.
        return SimulationConfig(grid=make_grid(1.0, 2 ** 16),
                                hurst=builtin_hurst("constant", [0.6]), seed=Seed(74),
                                n_paths=n_paths)

    def test_worker_runs_its_blocks_without_waiting_for_reads(self, tmp_path):
        # Ten blocks on two workers: the forked one runs 1, 3, 5, 7 and 9.
        # Their empty results all fit in the pipe, so it starts every one
        # of them before this process reads any.
        blocks = run_blocks(partial(_mark_start, marks=tmp_path), self._one_path_blocks(10), 2)
        assert next(blocks)[0] == 0
        assert _started(tmp_path, 6) == [0, 1, 3, 5, 7, 9]
        assert [start for start, _ in blocks] == list(range(1, 10))

    def test_a_full_pipe_holds_the_worker_until_the_caller_reads(self, tmp_path):
        # The same ten blocks, but each returns 1 MiB, more than a pipe
        # holds: the worker's write of block 1 waits for this process to
        # read it, so the worker holds one result at a time and starts
        # block 3 only once block 1 is read.
        blocks = run_blocks(partial(_mark_start, marks=tmp_path, size=2 ** 20),
                            self._one_path_blocks(10), 2)
        assert next(blocks)[0] == 0
        assert _started(tmp_path, 2) == [0, 1]
        start, result = next(blocks)
        assert (start, len(result)) == (1, 2 ** 20)
        assert _started(tmp_path, 3) == [0, 1, 3]
        assert [start for start, _ in blocks] == list(range(2, 10))

    def test_dying_worker_names_its_block(self):
        # The forked worker runs blocks 1 and 3 and ends its process in
        # block 3: the error names that block's path, and nothing hangs.
        cfg = self._one_path_blocks(4)
        read = []
        with pytest.raises(PathSimulationError) as excinfo:
            for start, _ in run_blocks(partial(_exit_in_worker, caller=os.getpid(), failing=3),
                                       cfg, 2):
                read.append(start)
        assert read == [0, 1, 2]
        assert excinfo.value.path_index == 3
        assert isinstance(excinfo.value.cause, ChildProcessError)
        assert "exited with code 3" in str(excinfo.value)

    @pytest.mark.parametrize(("kind", "cause", "says"), [
        ("result", pickle.PicklingError, "the result of paths 8 to 15 does not pickle"),
        ("error", pickle.PicklingError, "of paths 8 to 15 does not pickle"),
        ("unpickling", pickle.UnpicklingError, "for paths 8 to 15 does not unpickle"),
    ])
    def test_outcome_that_does_not_travel_names_the_block(self, kind, cause, says):
        # 16 paths on N = 2048 are two blocks of 8 on two workers; the
        # forked worker's block, 8, holds path 10.
        cfg = SimulationConfig(grid=make_grid(1.0, 2048), hurst=builtin_hurst("constant", [0.6]),
                               seed=Seed(75), n_paths=16)
        with pytest.raises(PathSimulationError) as excinfo:
            for _ in run_blocks(partial(_unpicklable_outcome, kind=kind), cfg, 2):
                pass
        assert excinfo.value.path_index == 8
        assert isinstance(excinfo.value.cause, cause)
        assert says in str(excinfo.value)
        assert str(pickle.loads(pickle.dumps(excinfo.value))) == str(excinfo.value)

    @pytest.mark.parametrize("ending", ["normal", "worker-failure", "early-close"])
    def test_every_worker_is_reaped(self, forks, tmp_path, ending):
        # Six blocks on three workers: two forked workers, one with blocks
        # 1 and 4, one with 2 and 5.  However the run ends, neither is left
        # to reap, and no pipe is left open.
        cfg = self._one_path_blocks(6)
        fds = _open_descriptors()
        if ending == "normal":
            assert [start for start, _ in run_blocks(_process_id, cfg, 3)] == list(range(6))
        elif ending == "worker-failure":
            with pytest.raises(PathSimulationError):
                for _ in run_blocks(partial(_fail_blocks_one_and_two, marks=tmp_path), cfg, 3):
                    pass
        else:
            blocks = run_blocks(_process_id, cfg, 3)
            next(blocks)
            blocks.close()
        assert len(forks) == 2
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert _open_descriptors() == fds

    def test_workers_flush_no_buffer_and_run_no_atexit(self, tmp_path):
        # A worker leaves by os._exit: the caller's unflushed buffer is
        # written once, by the caller, and its atexit hooks stay its own.
        marker = tmp_path / "atexit-ran"
        atexit.register(marker.touch)
        try:
            with open(tmp_path / "out.txt", "w") as out:
                out.write("written once")
                assert len(list(run_blocks(_process_id, self._one_path_blocks(4), 2))) == 4
        finally:
            atexit.unregister(marker.touch)
        assert (tmp_path / "out.txt").read_text() == "written once"
        assert not marker.exists()

    def test_a_platform_without_fork_runs_one_worker(self, monkeypatch):
        # Ten paths on N = 2048 are two blocks on two workers, and one block
        # on one.
        cfg = replace(self._one_path_blocks(10), grid=make_grid(1.0, 2048))
        serial = monte_carlo(cfg, n_workers=1)
        monkeypatch.delattr(os, "fork")
        assert [pid for _, pid in run_blocks(_process_id, cfg, 2)] == [os.getpid()]
        assert monte_carlo(cfg, n_workers=2).values.tobytes() == serial.values.tobytes()


class TestGaussianEnsemble:
    """Distributional checks on the shared h = 1/2 ensemble (10^4 paths).

    At h = 1/2 the terminal value is N(0, 1) up to the 2^-40 increment
    lattice, whose variance contribution is below 1e-22.  Margins are
    multiples of the exact sampling standard errors.
    """

    def test_initial_column_is_zero(self, brownian_ensemble):
        vm = brownian_ensemble.values
        assert vm.shape == (10_000, 33)
        assert np.all(vm[:, 0] == 0.0)

    def test_terminal_variance(self, brownian_ensemble):
        terminal = brownian_ensemble.values[:, -1]
        se = math.sqrt(2.0 / (terminal.size - 1))
        assert abs(terminal.var() - 1.0) < 4.0 * se

    def test_terminal_excess_kurtosis(self, brownian_ensemble):
        terminal = brownian_ensemble.values[:, -1]
        assert abs(stats.kurtosis(terminal)) < 0.2

    def test_first_half_agrees_with_full_ensemble(self, brownian_ensemble):
        terminal = brownian_ensemble.values[:, -1]
        half = terminal[:5000]
        se_half = math.sqrt(2.0 / (half.size - 1))
        assert abs(half.var() - terminal.var()) < 4.0 * se_half

    def test_dampening_strictly_reduces_terminal_variance(self):
        grid = make_grid(1.0, 128)
        hurst = builtin_hurst("constant", [0.75])
        variances = []
        for strength in (0.0, 0.5, 1.0, 10.0):
            cfg = SimulationConfig(
                grid=grid,
                hurst=hurst,
                seed=Seed(5150),
                dampening=builtin_dampening("constant", [strength]),
                n_paths=300,
            )
            terminal = monte_carlo(cfg).values[:, -1]
            variances.append(float(terminal.var()))
        assert all(b < a for a, b in zip(variances, variances[1:]))


_COARSE = SimulationConfig(grid=make_grid(1.0, 8), hurst=builtin_hurst("constant", [0.7]),
                           seed=Seed(3))

_COUNT_USES = {
    "n_paths": lambda n: replace(_COARSE, n_paths=n),
    "refine_factor": lambda n: convergence_study(_COARSE, n_levels=3, refine_factor=n),
    "factor": lambda n: refine_config(_COARSE, n),
}


@pytest.mark.parametrize("value", [2.0, np.int64(2), 2.5, 1.9, float("nan"), float("inf"),
                                   float("-inf"), True])
@pytest.mark.parametrize("name", list(_COUNT_USES))
def test_counts_are_integers_or_errors(name, value):
    # A value equal to its int() is that int; any other raises, never truncated.
    use = _COUNT_USES[name]
    if value == 2:
        assert use(value) == use(2)
    else:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            use(value)


# Two workers split each run into two blocks, the ten paths on N = 2048
# and the study's 40 seeds on its N = 512 reference grid, so they fork a worker.
_POOLED_USES = {
    "monte_carlo": lambda n: monte_carlo(
        replace(_COARSE, grid=make_grid(1.0, 2048), n_paths=10), n_workers=n
    ).values.tobytes(),
    "convergence_study": lambda n: convergence_study(
        replace(_COARSE, grid=make_grid(1.0, 64), n_paths=40), n_levels=3, refine_factor=2,
        n_workers=n,
    ),
}


@pytest.mark.parametrize("value", [2.0, np.int64(2), 1.9, 0, float("nan"), float("inf"),
                                   float("-inf"), True])
@pytest.mark.parametrize("use", list(_POOLED_USES))
def test_n_workers_is_a_count(use, value):
    # n_workers follows the count rule: a whole value is that many
    # processes, and anything else, 0 included, raises instead of running
    # serially.
    run = _POOLED_USES[use]
    if value == 2:
        assert run(value) == run(2)
    else:
        with pytest.raises(ValueError, match="n_workers must be an integer"):
            run(value)
