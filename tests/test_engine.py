"""Tests for the discrete solver, refinement interpolation, and the ensemble driver.

The solver is checked three ways: against a deliberately naive double-loop
re-implementation built on the scalar kernel (scalar powers, Python running
sums), against exact identities that must hold bitwise (Brownian collapse at
h = 1/2, zero dampening, table versus direct kernel evaluation, evaluation
per node versus per later time, coarse-node agreement under refinement), and
statistically on a shared Gaussian ensemble.
"""

import concurrent.futures
import math
import pickle
import time
from dataclasses import dataclass, replace

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
    interpolate_on_refinement,
    make_grid,
    monte_carlo,
    refine_config,
    sample_brownian,
    sigma,
    simulate_discrete,
)
from semsim import engine
from semsim.analysis import convergence_study
from semsim.engine import _Kernel, _map_blocks, _solve
from semsim.kernels import kernel_values
from semsim.randomness import coarsen


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


@dataclass(frozen=True)
class _NanPastThreshold:
    """Returns ``value``, or NaN where ``|x|`` exceeds ``threshold``."""

    value: float
    threshold: float

    def __call__(self, t, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(np.abs(x) > self.threshold, np.nan, self.value)


@dataclass(frozen=True)
class _RaisingPastThreshold:
    """Returns ``value``, or raises once any ``|x|`` exceeds ``threshold``."""

    value: float
    threshold: float

    def __call__(self, t, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(np.abs(x) > self.threshold):
            raise FloatingPointError("state out of the evaluator's domain")
        return np.full(x.shape, self.value)


class _CountingEvaluator:
    """Bell-shaped evaluator that counts the states it is asked about.

    ``bufsizes`` records ``np.getbufsize()`` at every call.
    """

    def __init__(self):
        self.values = 0
        self.bufsizes = []

    def __call__(self, t, x):
        self.bufsizes.append(np.getbufsize())
        x = np.asarray(x, dtype=np.float64)
        self.values += x.size
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
    def test_time_dependent_functions_are_evaluated_per_row(self, driver):
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
            got = list(monte_carlo(cfg, n_workers=2).values_matrix())
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
        assert grid.has_exact_nodes == exact
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
        assert grid.has_exact_nodes == exact
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
        x = _solve(cfg, np.stack([sample_brownian(Seed(3), grid).values] * 2))
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
        assert _solve(cfg, dB).tobytes() == _solve(by_rows, dB).tobytes()

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
        assert _solve(cfg, dB).tobytes() == _solve(by_rows, dB).tobytes()

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
        assert grid.has_exact_nodes
        x = _solve(SimulationConfig(grid=grid, hurst=hurst, seed=Seed(72)), np.full((2, 64), -0.0))
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
        assert grid.has_exact_nodes == (offset is None)
        dB = np.stack([sample_brownian(Seed(76 + p), grid).values for p in range(32)])
        batch = _solve(cfg, dB)
        for p in range(32):
            assert _solve(cfg, dB[p:p + 1])[0].tobytes() == batch[p].tobytes(), p

    @pytest.mark.parametrize(
        ("hurst", "dampening"),
        [
            (builtin_hurst("bell", []), builtin_dampening("bell", [])),
            (builtin_hurst("trig", [0.6, 0.2, 1.0]), builtin_dampening("constant", [0.8])),
        ],
        ids=["bell-bell", "trig-constant"],
    )
    def test_column_is_a_contiguous_block(self, hurst, dampening):
        grid = make_grid(1.0, 64)
        cfg = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(77), dampening=dampening)
        kernel = _Kernel(cfg, 3)
        assert kernel.by_distance is None
        states = np.array([-0.5, 0.0, 0.5])
        for i in (1, 30, 63):
            block = kernel.column(i, grid.nodes[i], states[:, None], np.ones((3, 1)))
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
        _solve(cfg, self._increments(grid, 4, 80))
        # One call per column: N of them.
        assert recorder.bufsizes == [engine._BUFSIZE] * 64
        assert np.getbufsize() == caller_bufsize

    def test_caller_buffer_comes_back(self, caller_bufsize):
        grid = make_grid(1.0, 32)
        cfg = SimulationConfig(grid=grid, hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]),
                               seed=Seed(81), dampening=builtin_dampening("constant", [1.0]),
                               n_paths=3)
        fine = sample_brownian(Seed(81), refine_config(cfg, 2).grid)
        coarse = simulate_discrete(cfg, coarsen(fine, 2))
        assert np.getbufsize() == caller_bufsize
        monte_carlo(cfg)
        assert np.getbufsize() == caller_bufsize
        interpolate_on_refinement(cfg, coarse, fine, 2)
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
            _NanPastThreshold(0.7, 0.0), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0))
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
            solved.append(_solve(cfg, dB).tobytes())
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
        assert grid.has_exact_nodes
        t = grid.nodes
        n_paths = 64
        states = np.random.default_rng(78).uniform(-4.0, 4.0, n_paths)
        # bell is 1 at x = 0: the exponent 1/2.
        states[0] = 0.0
        kernel = _Kernel(SimulationConfig(grid=grid, hurst=hurst, seed=Seed(78),
                                          dampening=dampening), n_paths)
        ulps = []
        for i in range(0, 4096, 256):
            got = kernel.column(i, t[i], states[:, None], np.ones((n_paths, 1)))
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
    assert grid.has_exact_nodes == (steps == 64)
    return SimulationConfig(grid=grid, hurst=builtin_hurst("constant", [0.7]), seed=Seed(74),
                            dampening=dampening, offset_g=offset)


def _distance_sums(config: SimulationConfig, dB: np.ndarray) -> np.ndarray:
    """Plain Python left-to-right sums of ``by_distance[k - i - 1] * dB[i]``, plus the offset."""
    by_distance = _Kernel(config, dB.shape[0]).by_distance
    assert by_distance is not None
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
        assert _solve(cfg, dB).tobytes() == _distance_sums(cfg, dB).tobytes()

    @pytest.mark.parametrize(
        "dampening", [None, builtin_dampening("constant", [0.8])], ids=["undampened", "constant"]
    )
    def test_constant_kernel_is_tabled_on_inexact_grid(self, dampening):
        cfg = _tabled_config(dampening, horizon=10.0, steps=1000)
        kernel = _Kernel(cfg, 1)
        assert kernel.by_distance is not None and kernel.by_distance.shape == (1000,)

    def test_path_bits_do_not_depend_on_the_batch(self):
        cfg = _tabled_config(builtin_dampening("constant", [0.8]), math.sin)
        dB = np.stack([sample_brownian(Seed(75 + p), cfg.grid).values for p in range(64)])
        batch = _solve(cfg, dB)
        for p in (0, 17, 63):
            assert _solve(cfg, dB[p:p + 1])[0].tobytes() == batch[p].tobytes()

    def test_signed_zero_increments_keep_their_signs(self):
        # A node's sum is -0.0 exactly while every increment before it is
        # -0.0; one +0.0 term makes it +0.0 from then on.
        cfg = _tabled_config(builtin_dampening("constant", [0.8]))
        dB = np.full((4, 64), -0.0)
        dB[1, 10] = 0.0
        dB[2, 0] = 0.0
        dB[3, 1::2] = 0.0
        x = _solve(cfg, dB)
        assert x.tobytes() == _distance_sums(cfg, dB).tobytes()
        assert not np.signbit(x[:, 0]).any()
        expected = np.logical_and.accumulate(np.signbit(dB), axis=1)
        assert np.array_equal(np.signbit(x[:, 1:]), expected)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_increment_names_path_and_step(self, bad):
        cfg = _tabled_config(None)
        dB = np.stack([sample_brownian(Seed(75 + p), cfg.grid).values for p in range(3)])
        dB[1, 17] = bad
        with pytest.raises(PathSimulationError) as excinfo:
            _solve(cfg, dB, first_index=10)
        # Increment 17 first enters the state at node 18.
        assert (excinfo.value.path_index, excinfo.value.step) == (11, 18)


_TRIG = builtin_hurst("trig", [0.6, 0.2, 1.0])

# (hurst, dampening, offset, coarse steps on T = 1, refinement factor)
_INTERPOLATION_CASES = [
    (_TRIG, None, None, 32, 4),
    (_TRIG, builtin_dampening("abs_value", []), math.sin, 32, 4),
    (HurstFunction(_TimeVaryingHurst(), h_star=0.55, h_sup=0.8, lip_t=0.25, lip_x=0.25),
     DampeningFunction(_TimeVaryingDampening(), growth_C=1.0, lip_t=1.0, lip_x=1.0), None, 32, 4),
    (_TRIG, builtin_dampening("abs_value", []), None, 32, 3),
    # 1/25 is inexact, so neither grid has exact node products.
    (_TRIG, builtin_dampening("bell", []), math.sin, 25, 3),
]
_INTERPOLATION_IDS = ["plain", "dampened-offset", "time-dependent", "r3", "inexact-r3"]


class TestInterpolation:
    def _coupled_setup(self, hurst, dampening=None, offset=None, steps=32, refine=4, seed=51):
        cfg = SimulationConfig(
            grid=make_grid(1.0, steps),
            hurst=hurst,
            seed=Seed(seed),
            dampening=dampening,
            offset_g=offset,
        )
        fine = sample_brownian(Seed(seed), make_grid(1.0, steps * refine))
        coarse_path = simulate_discrete(cfg, coarsen(fine, refine))
        return cfg, coarse_path, fine

    def test_refine_factor_one_is_identity(self):
        cfg, coarse_path, fine = self._coupled_setup(
            builtin_hurst("trig", [0.6, 0.2, 1.0]), refine=1
        )
        out = interpolate_on_refinement(cfg, coarse_path, fine, 1)
        assert out.values.tobytes() == coarse_path.values.tobytes()
        assert out.grid == cfg.grid

    def test_coarse_nodes_agree_bitwise(self):
        for hurst, dampening, offset, steps, r in _INTERPOLATION_CASES:
            cfg, coarse_path, fine = self._coupled_setup(hurst, dampening, offset, steps, r)
            out = interpolate_on_refinement(cfg, coarse_path, fine, r)
            assert out.grid.steps == steps * r
            # A coarse time that is an ulp off the fine time of the same
            # instant (8 of 26 on the inexact grid with r = 3) sees other
            # distances; every coarse node that is a fine node agrees bitwise.
            shared = cfg.grid.nodes == out.grid.nodes[::r]
            assert shared.all() or not cfg.grid.has_exact_nodes
            assert shared.sum() >= steps // 2
            assert out.values[::r][shared].tobytes() == coarse_path.values[shared].tobytes()

    @pytest.mark.parametrize(
        ("hurst", "dampening", "offset", "steps", "r"),
        _INTERPOLATION_CASES, ids=_INTERPOLATION_IDS,
    )
    def test_matches_double_loop(self, hurst, dampening, offset, steps, r):
        cfg, coarse_path, fine = self._coupled_setup(hurst, dampening, offset, steps, r, seed=52)
        out = interpolate_on_refinement(cfg, coarse_path, fine, r)

        t_c = cfg.grid.nodes
        tau = out.grid.nodes
        # The last fine node can overshoot the horizon by an ulp.
        params = KernelParams(hurst=hurst, dampening=dampening, horizon=max(1.0, float(tau[-1])))
        expected = np.empty_like(out.values)
        expected[0] = coarse_path.values[0]
        for j in range(1, tau.shape[0]):
            total = 0.0
            for ell in range(j):
                b = ell // r
                total += sigma(
                    params, float(tau[j]), float(t_c[b]), float(coarse_path.values[b])
                ) * float(fine.values[ell])
            expected[j] = total if offset is None else float(offset(float(tau[j]))) + total
        np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "hurst", [_TRIG, builtin_hurst("constant", [0.75])], ids=["columns", "tabled-columns"]
    )
    def test_negative_zero_increments_give_negative_zero_states(self, hurst):
        # Each fine sum starts from its first term, as in the solver.
        cfg = SimulationConfig(grid=make_grid(1.0, 16), hurst=hurst, seed=Seed(53))
        fine = BrownianIncrements(grid=make_grid(1.0, 64), values=np.full(64, -0.0),
                                  seed_provenance=(53, 0))
        coarse_path = simulate_discrete(cfg, coarsen(fine, 4))
        out = interpolate_on_refinement(cfg, coarse_path, fine, 4)
        assert np.signbit(out.values[1:]).all()

    def test_half_hurst_refinement_is_fine_brownian(self):
        cfg, coarse_path, fine = self._coupled_setup(builtin_hurst("constant", [0.5]))
        out = interpolate_on_refinement(cfg, coarse_path, fine, 4)
        assert out.values[1:].tobytes() == np.cumsum(fine.values).tobytes()
        fine_cfg = refine_config(cfg, 4)
        direct = simulate_discrete(fine_cfg, fine)
        assert out.values.tobytes() == direct.values.tobytes()

    def test_rejects_uncoupled_increments(self):
        cfg, coarse_path, _ = self._coupled_setup(builtin_hurst("constant", [0.7]))
        unrelated = sample_brownian(Seed(999), make_grid(1.0, 128))
        with pytest.raises(ValueError, match="coupling"):
            interpolate_on_refinement(cfg, coarse_path, unrelated, 4)

    def test_rejects_wrong_grids_and_factor(self):
        cfg, coarse_path, fine = self._coupled_setup(builtin_hurst("constant", [0.7]))
        with pytest.raises(ValueError, match="refine_factor"):
            interpolate_on_refinement(cfg, coarse_path, fine, 0)
        with pytest.raises(ValueError, match="refinement"):
            interpolate_on_refinement(cfg, coarse_path, fine, 2)
        other = SamplePath(grid=make_grid(1.0, 16), values=np.zeros(17))
        with pytest.raises(ValueError, match="coarse_path"):
            interpolate_on_refinement(cfg, other, fine, 4)


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
        assert a.values_matrix().tobytes() == b.values_matrix().tobytes()
        assert a.values_matrix().shape == (4, 65)

    def test_worker_count_does_not_change_output(self):
        # Blocks of 2**14 // 2048 = 8 paths: two blocks, so a pool runs.
        cfg = self._config(n_paths=10, steps=2048)
        serial = monte_carlo(cfg, n_workers=1)
        parallel = monte_carlo(cfg, n_workers=2)
        assert serial.values_matrix().tobytes() == parallel.values_matrix().tobytes()

    def test_single_block_runs_without_a_pool(self, monkeypatch):
        serial = monte_carlo(self._config(n_paths=3), n_workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for a single block")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        parallel = monte_carlo(self._config(n_paths=3), n_workers=2)
        assert serial.values_matrix().tobytes() == parallel.values_matrix().tobytes()

    def test_unpicklable_config_falls_back_to_serial(self, monkeypatch):
        # Two blocks of 8 paths on N = 2048, so a pool would run.
        cfg = SimulationConfig(
            grid=make_grid(1.0, 2048),
            hurst=builtin_hurst("constant", [0.6]),
            seed=Seed(62),
            offset_g=lambda t: 0.1 * t,
            n_paths=10,
        )
        serial = monte_carlo(cfg, n_workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for an unpicklable config")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        fallback = monte_carlo(cfg, n_workers=2)
        assert serial.values_matrix().tobytes() == fallback.values_matrix().tobytes()

    def test_no_pending_block_starts_after_the_first_failing_block(self, tmp_path):
        # N = 2**14 makes every path its own block: 24 blocks on 2 workers.
        # When block 0's failure is read, the blocks that may still run are
        # one per worker and those in the pool's call queue, which holds
        # n_workers + 1 calls a future can no longer cancel; both 4 and 5
        # markers occur.  Without the cancel all 23 other blocks would run.
        cfg = SimulationConfig(grid=make_grid(1.0, 2 ** 14), hurst=builtin_hurst("constant", [0.6]),
                               seed=Seed(71), n_paths=24)
        n_workers = 2
        with pytest.raises(PathSimulationError) as excinfo:
            for _ in _map_blocks(_fail_first_block, cfg, n_workers, tmp_path):
                pass
        assert excinfo.value.path_index == 0
        assert isinstance(excinfo.value.cause, FloatingPointError)
        assert len(list(tmp_path.iterdir())) <= 2 * n_workers + 1

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_path_failure_names_the_index(self, n_workers):
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
        # Two blocks of 8 paths on N = 2048.  The healthy twin returns the
        # same exponent everywhere, so both runs agree bitwise until the
        # first node past the threshold; the row after it turns NaN.
        grid = make_grid(1.0, 2048)
        healthy = SimulationConfig(
            grid=grid,
            hurst=HurstFunction(_ConstantArray(0.7), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0),
            seed=Seed(64),
            n_paths=10,
        )
        reference = monte_carlo(healthy).values_matrix()
        threshold = 0.5 * float(np.max(np.abs(reference[0, :-1])))
        crossed = np.abs(reference[:, :-1]) > threshold
        path = int(np.flatnonzero(crossed.any(axis=1))[0])
        step = int(np.argmax(crossed[path])) + 1
        broken = replace(healthy, hurst=HurstFunction(
            _NanPastThreshold(0.7, threshold), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0
        ))
        with pytest.raises(PathSimulationError) as excinfo:
            monte_carlo(broken, n_workers=n_workers)
        assert (excinfo.value.path_index, excinfo.value.step) == (path, step)
        assert isinstance(excinfo.value.cause, FloatingPointError)
        assert f"path {path} at step {step}" in str(excinfo.value)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_raising_evaluator_names_the_failing_path(self, n_workers):
        # All four paths share one block, so the evaluation that raises
        # covers every path; the error must still name the one whose state
        # left the domain, not the first path of the block.
        grid = make_grid(1.0, 64)
        healthy = SimulationConfig(
            grid=grid,
            hurst=HurstFunction(_ConstantArray(0.7), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0),
            seed=Seed(70),
            n_paths=4,
        )
        reference = np.abs(monte_carlo(healthy).values_matrix()[:, :-1])
        threshold = float(np.max(reference[0]))
        path = int(np.flatnonzero(np.max(reference, axis=1) > threshold)[0])
        assert path > 0
        broken = replace(healthy, hurst=HurstFunction(
            _RaisingPastThreshold(0.7, threshold), h_star=0.6, h_sup=0.8, lip_t=0.0, lip_x=0.0
        ))
        with pytest.raises(PathSimulationError) as excinfo:
            monte_carlo(broken, n_workers=n_workers)
        assert excinfo.value.path_index == path
        assert excinfo.value.step is None
        assert isinstance(excinfo.value.cause, FloatingPointError)

    def test_simulate_discrete_rejects_non_finite_state(self):
        grid = make_grid(1.0, 64)
        hurst = HurstFunction(_NanPastThreshold(0.7, 0.0), h_star=0.6, h_sup=0.8,
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

    def test_values_matrix_is_stored_not_copied(self):
        ensemble = monte_carlo(self._config(n_paths=3))
        matrix = ensemble.values_matrix()
        assert matrix is ensemble.values_matrix()
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


class TestGaussianEnsemble:
    """Distributional checks on the shared h = 1/2 ensemble (10^4 paths).

    At h = 1/2 the terminal value is N(0, 1) up to the 2^-40 increment
    lattice, whose variance contribution is below 1e-22.  Margins are
    multiples of the exact sampling standard errors.
    """

    def test_initial_column_is_zero(self, brownian_ensemble):
        vm = brownian_ensemble.values_matrix()
        assert vm.shape == (10_000, 33)
        assert np.all(vm[:, 0] == 0.0)

    def test_terminal_variance(self, brownian_ensemble):
        terminal = brownian_ensemble.values_matrix()[:, -1]
        se = math.sqrt(2.0 / (terminal.size - 1))
        assert abs(terminal.var() - 1.0) < 4.0 * se

    def test_terminal_excess_kurtosis(self, brownian_ensemble):
        terminal = brownian_ensemble.values_matrix()[:, -1]
        assert abs(stats.kurtosis(terminal)) < 0.2

    def test_first_half_agrees_with_full_ensemble(self, brownian_ensemble):
        terminal = brownian_ensemble.values_matrix()[:, -1]
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
            terminal = monte_carlo(cfg).values_matrix()[:, -1]
            variances.append(float(terminal.var()))
        assert all(b < a for a, b in zip(variances, variances[1:]))
