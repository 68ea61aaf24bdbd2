"""Tests for moments, the log-log fitter, roughness and ACF estimators, and the refinement study.

Hand-computable inputs pin down the arithmetic exactly; a 2^14-step Brownian
path provides the statistical oracles (exponent 1/2, uncorrelated absolute
increments); the refinement study is checked once in its degenerate exactly
coupled regime and once on a state-dependent Hurst family with pinned seeds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from semsim import (
    AcfSeries,
    DegeneratePathError,
    Ensemble,
    HurstFunction,
    MittagLefflerError,
    PathSimulationError,
    SamplePath,
    Seed,
    SimulationConfig,
    acf_abs_increments,
    builtin_dampening,
    builtin_hurst,
    convergence_study,
    estimate_holder,
    estimate_moment,
    fit_loglog_slope,
    coarsen,
    derive_path_seed,
    make_grid,
    monte_carlo,
    refine_config,
    sample_brownian,
    sample_brownian_block,
    simulate_discrete,
)
from semsim import analysis
from semsim.analysis import _coupled_squared_gaps
from semsim.engine import solve_batch
from semsim.special import gronwall_bound

from _evaluators import NanPastThreshold, RaisingPastThreshold
from _exact import scheme_weights, structure_function_mean


def _manual_ensemble():
    grid = make_grid(1.0, 4)
    cfg = SimulationConfig(
        grid=grid, hurst=builtin_hurst("constant", [0.5]), seed=Seed(1), n_paths=2
    )
    values = np.array([[0.0, 1.0, 3.0, 2.0, -2.0], [0.0, -1.0, -1.0, 0.5, 4.0]])
    return Ensemble(config=cfg, values=values)


@pytest.fixture(scope="module")
def brownian_path_16k():
    grid = make_grid(1.0, 2**14)
    cfg = SimulationConfig(grid=grid, hurst=builtin_hurst("constant", [0.5]), seed=Seed(777))
    return simulate_discrete(cfg, sample_brownian(Seed(777), grid))


class TestEstimateMoment:
    def test_zeroth_moment_is_exactly_one(self):
        est = estimate_moment(_manual_ensemble(), p=0.0, node=3)
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert est.n_samples == 2

    def test_second_moment_by_hand(self):
        # Node 2 samples are 3^2 = 9 and (-1)^2 = 1: mean 5, sample
        # standard deviation sqrt(32), standard error sqrt(32)/sqrt(2) = 4.
        est = estimate_moment(_manual_ensemble(), p=2.0, node=2)
        assert est.value == 5.0
        assert est.std_error == pytest.approx(4.0, rel=1e-12)

    def test_first_moment_by_hand(self):
        est = estimate_moment(_manual_ensemble(), p=1.0, node=4)
        assert est.value == 3.0

    @pytest.mark.parametrize("node", [-1, 5])
    def test_rejects_out_of_range_node(self, node):
        with pytest.raises(ValueError, match="node"):
            estimate_moment(_manual_ensemble(), p=2.0, node=node)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="p must be nonnegative"):
            estimate_moment(_manual_ensemble(), p=-1.0, node=0)
        with pytest.raises(ValueError, match="p must be nonnegative"):
            estimate_moment(_manual_ensemble(), p=float("nan"), node=0)

    @pytest.mark.parametrize(
        "states", [np.array([]), np.ones((4, 3)), np.float64(1.0)], ids=["empty", "2-d", "0-d"]
    )
    def test_sample_moment_rejects_empty_or_not_1d_samples(self, states):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            analysis.sample_moment(states, 2.0)

    @pytest.mark.parametrize("p", ["2", True, None, math.inf, -math.inf, np.float64(math.inf),
                                   10**400],
                             ids=["str", "bool", "None", "inf", "-inf", "numpy-inf", "huge-int"])
    def test_sample_moment_rejects_orders_that_are_not_finite_reals(self, p):
        with pytest.raises(ValueError, match="moment order p must be .*a finite real"):
            analysis.sample_moment(np.array([1.0, 2.0]), p)

    @pytest.mark.parametrize("p", [2, np.int64(2), np.float32(2.0)],
                             ids=["int", "numpy-int", "numpy-float32"])
    def test_sample_moment_takes_any_real_order(self, p):
        states = np.array([1.0, 2.0])
        assert analysis.sample_moment(states, p) == analysis.sample_moment(states, 2.0)


class TestFitLoglogSlope:
    def test_identity_has_unit_slope(self):
        xs = np.array([0.5, 1.0, 2.0, 4.0])
        slope, intercept, r2 = fit_loglog_slope(xs, xs)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert r2 > 1.0 - 1e-12

    def test_square_has_slope_two(self):
        xs = np.array([0.5, 1.0, 2.0, 4.0])
        slope, _, _ = fit_loglog_slope(xs, xs**2)
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_constant_has_zero_slope_and_perfect_fit(self):
        xs = np.array([1.0, 2.0, 3.0])
        slope, _, r2 = fit_loglog_slope(xs, np.array([3.0, 3.0, 3.0]))
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="equal length"):
            fit_loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([1.0, 2.0], [0.0, 2.0])
        with pytest.raises(ValueError, match="slope undefined"):
            fit_loglog_slope([2.0, 2.0], [1.0, 3.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", ["xs", "ys"])
    def test_rejects_non_finite_data(self, axis, value):
        # NaN is not <= 0 and inf is positive; either would fit a NaN slope
        # and report it with r^2 = 1.
        data = {"xs": [1.0, 2.0, 4.0], "ys": [1.0, 2.0, 3.0]}
        data[axis][1] = value
        with pytest.raises(ValueError, match="finite, strictly positive"):
            fit_loglog_slope(data["xs"], data["ys"])


class TestEstimateHolder:
    def test_linear_path_has_exponent_one(self):
        grid = make_grid(1.0, 64)
        path = SamplePath(grid=grid, values=grid.nodes)
        est = estimate_holder(path, q=2.0)
        assert est.exponent == pytest.approx(1.0, abs=1e-9)
        assert est.r_squared > 0.999999
        assert est.lags == (1, 2, 4, 8, 16)

    def test_constant_path_is_degenerate(self):
        grid = make_grid(1.0, 64)
        path = SamplePath(grid=grid, values=np.full(65, 2.5))
        with pytest.raises(DegeneratePathError):
            estimate_holder(path)

    def test_lag_validation(self):
        grid = make_grid(1.0, 64)
        path = SamplePath(grid=grid, values=grid.nodes)
        with pytest.raises(ValueError, match="three"):
            estimate_holder(path, lags=(1, 2))
        with pytest.raises(ValueError, match="increasing"):
            estimate_holder(path, lags=(1, 4, 2))
        with pytest.raises(ValueError, match=r"\[1, 16\]"):
            estimate_holder(path, lags=(1, 2, 17))
        with pytest.raises(ValueError, match="q must be positive"):
            estimate_holder(path, q=0.0)
        with pytest.raises(ValueError, match="q must be positive"):
            estimate_holder(path, q=float("nan"))

    @pytest.mark.parametrize("q", ["2", True, None, math.inf, np.float64(math.inf), 10**400],
                             ids=["str", "bool", "None", "inf", "numpy-inf", "huge-int"])
    def test_rejects_orders_that_are_not_finite_reals(self, q):
        grid = make_grid(1.0, 64)
        path = SamplePath(grid=grid, values=grid.nodes)
        with pytest.raises(ValueError, match="q must be .*a finite real"):
            estimate_holder(path, q=q)

    def test_brownian_exponent_near_half(self, brownian_path_16k):
        est = estimate_holder(brownian_path_16k, q=2.0)
        assert est.lags == (1, 2, 4, 8, 16, 32, 64)
        assert 0.45 < est.exponent < 0.55
        assert est.r_squared > 0.999

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_exact_structure_function_matches_dense_weights(self, h):
        grid = make_grid(1.0, 64)
        weights = scheme_weights(grid, h)
        for m in (1, 3, 16):
            diff = weights[m:] - weights[:-m]
            sd = np.sqrt(grid.dt * np.sum(diff * diff, axis=1))
            mean_abs = math.sqrt(2.0 / math.pi) * np.mean(sd)
            assert structure_function_mean(grid, h, 1.0, m) == pytest.approx(mean_abs, rel=1e-13)
            assert structure_function_mean(grid, h, 2.0, m) == pytest.approx(
                np.mean(sd * sd), rel=1e-13)

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_structure_function_matches_its_exact_expectation(self, h):
        # For a constant Hurst value and no dampening, every path increment
        # is centred Gaussian with an exact variance, so the mean over paths
        # of S(m) has an exact expectation.  The bound |z| <= 4 at every
        # default lag and the seed were fixed before the first run.  The
        # lags share paths, so their z are correlated.
        cfg = SimulationConfig(grid=make_grid(1.0, 2**12), hurst=builtin_hurst("constant", [h]),
                               seed=Seed(2027), n_paths=200)
        paths = monte_carlo(cfg).values
        lags = estimate_holder(SamplePath(grid=cfg.grid, values=paths[0])).lags
        assert lags == (1, 2, 4, 8, 16, 32, 64)
        for q in (1.0, 2.0):
            for m in lags:
                s = np.mean(np.abs(paths[:, m:] - paths[:, :-m]) ** q, axis=1)
                expected = structure_function_mean(cfg.grid, h, q, m)
                z = (s.mean() - expected) / (s.std(ddof=1) / math.sqrt(cfg.n_paths))
                assert abs(z) <= 4.0, (q, m, z)


class TestAcfAbsIncrements:
    def test_lag_zero_is_exactly_one(self, brownian_path_16k):
        series = acf_abs_increments(brownian_path_16k, max_lag=5)
        assert isinstance(series, AcfSeries)
        assert series.values[0] == 1.0
        assert series.lags == (0, 1, 2, 3, 4, 5)
        assert series.series_length == 2**14

    def test_small_series_by_hand(self):
        # Absolute increments 1,2,3,2,1,3 have mean 2; centered they are
        # -1,0,1,0,-1,1 with sum of squares 4, so lag 1 gives -1/4 and
        # lag 2 gives -2/4.
        grid = make_grid(1.0, 6)
        values = np.concatenate([[0.0], np.cumsum([1.0, 2.0, 3.0, 2.0, 1.0, 3.0])])
        series = acf_abs_increments(SamplePath(grid=grid, values=values), max_lag=2)
        assert series.values[0] == 1.0
        assert series.values[1] == -0.25
        assert series.values[2] == -0.5

    def test_constant_increments_are_degenerate(self):
        grid = make_grid(1.0, 16)
        with pytest.raises(DegeneratePathError):
            acf_abs_increments(SamplePath(grid=grid, values=grid.nodes), max_lag=3)

    def test_values_bounded_by_one(self):
        grid = make_grid(1.0, 200)
        rng = np.random.default_rng(42)
        values = np.concatenate([[0.0], np.cumsum(rng.standard_normal(200))])
        series = acf_abs_increments(SamplePath(grid=grid, values=values), max_lag=80)
        assert np.all(np.abs(series.values) <= 1.0 + 1e-12)

    def test_max_lag_validation(self):
        grid = make_grid(1.0, 4)
        path = SamplePath(grid=grid, values=np.array([0.0, 1.0, 3.0, 4.0, 6.0]))
        with pytest.raises(ValueError, match=r"\[1, 1\]"):
            acf_abs_increments(path, max_lag=2)
        with pytest.raises(ValueError, match="max_lag"):
            acf_abs_increments(path, max_lag=0)

    def test_matches_plain_python_sums(self):
        # One solved path against the biased ACF summed term by term with
        # math.fsum; numpy's pairwise sums may differ only by rounding.
        cfg = SimulationConfig(grid=make_grid(10.0, 1024), hurst=builtin_hurst("bell"),
                               seed=Seed(2031), dampening=builtin_dampening("bell"))
        path = monte_carlo(cfg).paths[0]
        series = acf_abs_increments(path, max_lag=40)
        d = [abs(b - a) for a, b in zip(path.values.tolist(), path.values.tolist()[1:])]
        mean = math.fsum(d) / len(d)
        a = [v - mean for v in d]
        denom = math.fsum(v * v for v in a)
        want = [math.fsum(a[i] * a[i + m] for i in range(len(a) - m)) / denom for m in range(41)]
        assert np.abs(series.values - want).max() <= 1e-9
        # Values this large would move by more than the tolerance under a
        # relative error of 1e-7.
        assert np.abs(series.values[1:]).max() > 0.05

    def test_white_noise_stays_inside_band(self, brownian_path_16k):
        # Brownian absolute increments are independent, so beyond lag 0 the
        # sample ACF should stay within the 3 / sqrt(n) normal band at all
        # but a stray lag or two out of 100.
        series = acf_abs_increments(brownian_path_16k, max_lag=100)
        band = 3.0 / np.sqrt(series.series_length)
        exceedances = int(np.sum(np.abs(series.values[1:]) > band))
        assert exceedances <= 1


class TestConvergenceStudy:
    def _trig_config(self, dampening=None):
        return SimulationConfig(
            grid=make_grid(1.0, 32),
            hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]),
            seed=Seed(808),
            dampening=dampening,
            n_paths=40,
        )

    def test_exactly_coupled_levels_are_degenerate(self):
        # Every level is solved from the block sums of one draw, so the
        # coupling is exact on a grid whose node products are not.
        for grid, exact in [(make_grid(1.0, 16), True), (make_grid(0.1, 30), False)]:
            assert grid.has_exact_nodes is exact
            cfg = SimulationConfig(
                grid=grid,
                hurst=builtin_hurst("constant", [0.5]),
                seed=Seed(9),
                n_paths=2,
            )
            report = convergence_study(cfg, n_levels=3, refine_factor=2)
            assert report.degenerate is True
            assert report.fitted_slope is None
            assert report.envelope_constant is None
            assert report.sup_mse == (0.0, 0.0, 0.0)
            assert report.theoretical_rate_bound == 1.0

    @pytest.mark.parametrize(
        "dampening", [None, builtin_dampening("constant", [1.0])], ids=["plain", "dampened"]
    )
    def test_state_dependent_hurst_converges(self, dampening):
        report = convergence_study(self._trig_config(dampening), n_levels=3, refine_factor=2)
        assert report.dt_levels == (1.0 / 32, 1.0 / 64, 1.0 / 128)
        assert all(m > 0.0 for m in report.sup_mse)
        assert all(b < a for a, b in zip(report.sup_mse, report.sup_mse[1:]))
        assert report.degenerate is False
        assert report.theoretical_rate_bound == pytest.approx(0.8)
        # The sup-MSE tracks the smoothest state the path visits, so the
        # honest band runs up to 2 * h_sup plus fitting noise.
        assert 0.5 < report.fitted_slope < 2.0 * 0.8 + 0.5
        assert report.envelope_constant < 2.5e-6
        assert report.n_paths == 40
        assert report.refine_factor == 2

    def test_envelope_constant_is_recomputed_from_the_report(self):
        # The smallest C with sup_mse <= C * dt**0.5 * E_beta(Gamma(beta) T**beta)
        # at every level, beta = h_star.
        cfg = self._trig_config()
        report = convergence_study(cfg, n_levels=3, refine_factor=2)
        envelope = gronwall_bound(1.0, 1.0, cfg.hurst.h_star, cfg.grid.horizon)
        ratios = [mse / (math.sqrt(dt) * envelope) for dt, mse in zip(report.dt_levels, report.sup_mse)]
        assert report.envelope_constant == pytest.approx(max(ratios), rel=1e-12)

    def test_unconverged_envelope_series_leaves_no_annotation(self, monkeypatch):
        # An envelope series past its term budget is reported like one past
        # the float range: no envelope constant, and the study stands.
        def unconverged(*args):
            raise MittagLefflerError("did not converge", partial_sum=1.0, terms_used=10)

        cfg = replace(self._trig_config(), n_paths=4)
        expected = convergence_study(cfg, n_levels=3, refine_factor=2)
        monkeypatch.setattr(analysis, "gronwall_bound", unconverged)
        report = convergence_study(cfg, n_levels=3, refine_factor=2)
        assert expected.envelope_constant is not None
        assert report.envelope_constant is None
        assert report == replace(expected, envelope_constant=None)

    @pytest.mark.parametrize("refine_factor", [2, 3])
    def test_block_gaps_match_per_path_coarsening(self, refine_factor):
        # The block's one cumsum per level against coarsen on each seed's
        # own draw, for seeds 5..11 of a block starting past 0.
        cfg = self._trig_config(builtin_dampening("constant", [1.0]))
        n_levels, start, stop = 3, 5, 12
        finest = make_grid(1.0, 32 * refine_factor ** n_levels)
        fine = [sample_brownian(derive_path_seed(cfg.seed, i), finest) for i in range(start, stop)]
        reference = solve_batch(replace(cfg, grid=finest), np.stack([f.values for f in fine]))
        levels = [refine_config(cfg, refine_factor ** level) for level in range(n_levels)]
        gaps = _coupled_squared_gaps(refine_config(cfg, refine_factor ** n_levels), start, stop,
                                     levels)
        for level, squared in enumerate(gaps):
            stride = refine_factor ** (n_levels - level)
            dB = np.stack([coarsen(f, stride).values for f in fine])
            level_cfg = replace(cfg, grid=make_grid(1.0, 32 * refine_factor ** level))
            gap = solve_batch(level_cfg, dB) - reference[:, ::stride]
            assert squared.tobytes() == (gap * gap).tobytes()

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_mean_squared_gaps_match_their_exact_expectation(self, h):
        # For a constant Hurst value and no dampening, the gap at level node
        # k, fine node K = k s, is linear in the fine increments: its square
        # has mean E = dt_f sum_j (C_l[k, j] - C_f[K, j])**2 and variance
        # 2 E**2.  The bound |z| <= 4.5 at every node and the seed were
        # fixed before the first run.  Node 0 has no gap at all.
        cfg = SimulationConfig(grid=make_grid(1.0, 16), hurst=builtin_hurst("constant", [h]),
                               seed=Seed(2019), n_paths=2000)
        n_levels, refine_factor = 4, 2
        finest = refine_config(cfg, refine_factor ** n_levels)
        levels = [refine_config(cfg, refine_factor ** level) for level in range(n_levels)]
        gaps = _coupled_squared_gaps(finest, 0, cfg.n_paths, levels)
        reference = scheme_weights(finest.grid, h)
        for level, squared in zip(levels, gaps):
            stride = finest.grid.steps // level.grid.steps
            diff = scheme_weights(level.grid, h, stride) - reference[::stride]
            expected = finest.grid.dt * np.sum(diff * diff, axis=1)
            mean = squared.mean(axis=0)
            assert mean[0] == expected[0] == 0.0
            z = (mean[1:] - expected[1:]) / (expected[1:] * math.sqrt(2.0 / cfg.n_paths))
            assert np.max(np.abs(z)) <= 4.5

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_worker_count_does_not_change_report(self, monkeypatch, forks):
        # Base N = 64 puts the reference on N = 512, where one block of up to
        # 2**16 // 512 = 128 seeds holds all 40.  Two workers split them into
        # two blocks of 20, the first run in this process and the second in
        # one forked worker; the squared gaps must still add up in seed
        # order.
        cfg = replace(self._trig_config(builtin_dampening("constant", [1.0])),
                      grid=make_grid(1.0, 64))
        serial = convergence_study(cfg, n_levels=3, refine_factor=2)
        blocks = []
        run_blocks = analysis.run_blocks

        def recording_run_blocks(*args):
            for start, gaps in run_blocks(*args):
                blocks.append((start, start + gaps[0].shape[0]))
                yield start, gaps

        monkeypatch.setattr(analysis, "run_blocks", recording_run_blocks)
        pooled = convergence_study(cfg, n_levels=3, refine_factor=2, n_workers=2)
        assert blocks == [(0, 20), (20, 40)]
        assert len(forks) == 1
        assert serial == pooled
        assert serial.degenerate is False

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_raising_evaluator_names_the_failing_seed(self, n_workers):
        # Base N = 64 puts the reference on N = 512: the 40 seeds are one
        # block for one worker and two of 20 for two, the first run here and
        # the second in a forked worker.  The evaluation that raises covers a whole block; the error
        # must name the lowest seed whose own study raises, not the first
        # seed of the block.
        hurst = HurstFunction(RaisingPastThreshold(0.7, 1.2), h_star=0.6, h_sup=0.8,
                              lip_t=0.0, lip_x=0.0)
        cfg = replace(self._trig_config(), grid=make_grid(1.0, 64), hurst=hurst)
        finest = refine_config(cfg, 2 ** 3)
        levels = [refine_config(cfg, 2 ** level) for level in range(3)]

        def raises(seed):
            try:
                _coupled_squared_gaps(finest, seed, seed + 1, levels)
            except FloatingPointError:
                return True
            return False

        seed = next(i for i in range(cfg.n_paths) if raises(i))
        assert seed > 0
        with pytest.raises(PathSimulationError) as excinfo:
            convergence_study(cfg, n_levels=3, refine_factor=2, n_workers=n_workers)
        assert excinfo.value.path_index == seed
        assert excinfo.value.step is None
        assert isinstance(excinfo.value.cause, FloatingPointError)

    def test_non_finite_state_names_the_grid_of_its_step(self):
        # Base N = 16 with three levels of r = 2 puts the reference on
        # N = 128, which the config never names.  The reference is solved
        # first, so the first NaN is found there, and its step counts nodes
        # of that grid.
        hurst = HurstFunction(NanPastThreshold(0.7, 1.2), h_star=0.6, h_sup=0.8,
                              lip_t=0.0, lip_x=0.0)
        cfg = replace(self._trig_config(), grid=make_grid(1.0, 16), hurst=hurst)
        finest = refine_config(cfg, 2 ** 3)
        with pytest.raises(PathSimulationError) as direct:
            solve_batch(finest, sample_brownian_block(cfg.seed, finest.grid, 0, cfg.n_paths))
        with pytest.raises(PathSimulationError) as excinfo:
            convergence_study(cfg, n_levels=3, refine_factor=2)
        path, step = direct.value.path_index, direct.value.step
        assert (excinfo.value.path_index, excinfo.value.step) == (path, step)
        assert step > 16
        assert f"path {path} at step {step}" in str(excinfo.value)
        assert "(N = 128)" in str(excinfo.value)

    def test_validation(self):
        cfg = self._trig_config()
        with pytest.raises(ValueError, match="levels"):
            convergence_study(cfg, n_levels=2, refine_factor=2)
        with pytest.raises(ValueError, match="refine_factor"):
            convergence_study(cfg, n_levels=3, refine_factor=1)


_PATH = SamplePath(make_grid(1.0, 64), np.cumsum(np.r_[0.0, np.sin(np.arange(64.0) ** 2)]))
_STUDY = SimulationConfig(grid=make_grid(1.0, 4), hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]),
                          seed=Seed(8), n_paths=2)
_COUNT_USES = {
    "lags": lambda n: estimate_holder(_PATH, lags=[1, n, 4]),
    "max_lag": lambda n: acf_abs_increments(_PATH, n).values.tobytes(),
    "n_levels": lambda n: convergence_study(_STUDY, n_levels=n + 1, refine_factor=2),
    "refine_factor": lambda n: convergence_study(_STUDY, n_levels=3, refine_factor=n),
    "node": lambda n: estimate_moment(_manual_ensemble(), p=2.0, node=n),
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
