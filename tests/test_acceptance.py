"""Acceptance suite: the nine shipped guarantees, one test each, in order.

Each test prints a single ``[k] PASS/FAIL`` summary line (visible under
default capture) and asserts both the substantive property and its wall
clock budget.  Statistical margins were calibrated once against pinned
seeds and are deterministic on a fixed numpy/scipy build.
"""

import json
import math
import pathlib
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

import _scans
from _exact import structure_function_mean
from semsim import (
    KernelParams,
    Seed,
    SimulationConfig,
    acf_abs_increments,
    builtin_dampening,
    builtin_hurst,
    check_fund_ineq,
    convergence_study,
    estimate_holder,
    fit_loglog_slope,
    gronwall_bound,
    lambda_gamma,
    make_grid,
    mittag_leffler,
    monte_carlo,
    sample_brownian,
    simulate_discrete,
)
from semsim.analysis import _holder_lags
from semsim.cli import main as cli_main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _announce(capsys, index, ok, detail):
    with capsys.disabled():
        print(f"\n[{index}] {'PASS' if ok else 'FAIL'} {detail}")


def test_01_brownian_prefix_sum_identity(capsys):
    sizes = [1, 2, 3, 5, 16, 100, 1000, 4096, 16384]
    budget = 1.0
    started = time.monotonic()
    exact = True
    for n in sizes:
        grid = make_grid(1.0, n)
        incr = sample_brownian(Seed(1000 + n), grid)
        cfg = SimulationConfig(grid=grid, hurst=builtin_hurst("constant", [0.5]), seed=Seed(1))
        path = simulate_discrete(cfg, incr)
        exact = exact and path.values[0] == 0.0
        exact = exact and path.values[1:].tobytes() == np.cumsum(incr.values).tobytes()
    elapsed = time.monotonic() - started
    ok = exact and elapsed < budget
    _announce(capsys, 1, ok,
              f"h=1/2 collapses to Brownian prefix sums bit-exactly up to N=2^14 "
              f"({elapsed:.2f}s < {budget:.0f}s)")
    assert exact
    assert elapsed < budget


def test_02_variance_against_exact_finite_sum(capsys):
    budget = 120.0
    started = time.monotonic()
    grid = make_grid(1.0, 2**10)
    t = grid.nodes
    exact = float(np.sum((t[-1] - t[:-1]) ** 0.5) * grid.dt)
    cfg = SimulationConfig(
        grid=grid, hurst=builtin_hurst("constant", [0.75]), seed=Seed(20260822), n_paths=10_000
    )
    terminal = monte_carlo(cfg).values[:, -1]
    sample_var = float(terminal.var())
    std_err = exact * math.sqrt(2.0 / (terminal.size - 1))
    deviation = abs(sample_var - exact)

    t12 = make_grid(1.0, 2**12).nodes
    sum12 = float(np.sum((t12[-1] - t12[:-1]) ** 0.5) * (1.0 / 2**12))
    rel12 = abs(sum12 - 2.0 / 3.0) / (2.0 / 3.0)
    elapsed = time.monotonic() - started
    ok = deviation < 4.0 * std_err and rel12 < 0.01 and elapsed < budget
    _announce(capsys, 2, ok,
              f"terminal variance {sample_var:.4f} within {deviation / std_err:.2f} "
              f"std errors of exact sum {exact:.4f}; N=2^12 sum within {rel12:.2e} "
              f"of 2/3 ({elapsed:.1f}s < {budget:.0f}s)")
    assert deviation < 4.0 * std_err
    assert rel12 < 0.01
    assert elapsed < budget


def test_03_zero_dampening_reduction(capsys):
    budget = 30.0
    started = time.monotonic()
    rng = np.random.default_rng(2026)
    identical = True
    for _ in range(20):
        horizon = float(rng.uniform(0.5, 3.0))
        steps = int(rng.integers(16, 257))
        kind = rng.choice(["constant", "smooth_at_origin", "rough_at_origin", "bell", "trig"])
        params = {
            "constant": [float(rng.uniform(0.1, 1.0))],
            "smooth_at_origin": [],
            "rough_at_origin": [],
            "bell": [],
            "trig": [0.6, 0.2, float(rng.uniform(0.5, 2.0))],
        }[kind]
        hurst = builtin_hurst(kind, params)
        grid = make_grid(horizon, steps)
        incr = sample_brownian(Seed(int(rng.integers(0, 2**63))), grid)
        bare = simulate_discrete(SimulationConfig(grid=grid, hurst=hurst, seed=Seed(1)), incr)
        damped = simulate_discrete(
            SimulationConfig(grid=grid, hurst=hurst, seed=Seed(1),
                             dampening=builtin_dampening("constant", [0.0])),
            incr,
        )
        identical = identical and bare.values.tobytes() == damped.values.tobytes()
    elapsed = time.monotonic() - started
    ok = identical and elapsed < budget
    _announce(capsys, 3, ok,
              f"f=0 dampening bit-identical to the undampened process on 20 random "
              f"configs ({elapsed:.2f}s < {budget:.0f}s)")
    assert identical
    assert elapsed < budget


def test_04_strong_convergence_rate(capsys):
    budget = 600.0
    started = time.monotonic()
    results = {}
    for label, dampening in (("plain", None), ("dampened", builtin_dampening("constant", [1.0]))):
        cfg = SimulationConfig(
            grid=make_grid(1.0, 2**6),
            hurst=builtin_hurst("trig", [0.6, 0.2, 1.0]),
            seed=Seed(31337),
            dampening=dampening,
            n_paths=500,
        )
        report = convergence_study(cfg, n_levels=4, refine_factor=2)
        decreasing = all(b < a for a, b in zip(report.sup_mse, report.sup_mse[1:]))
        results[label] = (report.fitted_slope, decreasing)
    elapsed = time.monotonic() - started
    ok = all(slope >= 0.5 and dec for slope, dec in results.values()) and elapsed < budget
    _announce(capsys, 4, ok,
              f"sup-MSE strictly decreasing with slopes "
              f"{results['plain'][0]:.2f} (plain) and {results['dampened'][0]:.2f} "
              f"(dampened), both >= 0.5 ({elapsed:.1f}s < {budget:.0f}s)")
    for slope, decreasing in results.values():
        assert decreasing
        assert slope >= 0.5
    assert elapsed < budget


def test_05_holder_exponent_recovery(capsys):
    budget = 120.0
    started = time.monotonic()
    medians, exact = {}, {}
    grid = make_grid(1.0, 2**14)
    lags = _holder_lags(grid.steps)
    for target in (0.3, 0.5, 0.7):
        cfg = SimulationConfig(
            grid=grid,
            hurst=builtin_hurst("constant", [target]),
            seed=Seed(77),
            n_paths=20,
        )
        ensemble = monte_carlo(cfg)
        exponents = [estimate_holder(p, q=2.0).exponent for p in ensemble.paths]
        medians[target] = float(np.median(exponents))
        # The exponent the estimator fits to the scheme's exact expected
        # structure function: the scheme's bias at these lags, without noise.
        means = [structure_function_mean(grid, target, 2.0, m) for m in lags]
        exact[target] = fit_loglog_slope(np.array(lags) * grid.dt, np.array(means))[0] / 2.0
    elapsed = time.monotonic() - started
    recovered = all(abs(med - target) < 0.1 for target, med in medians.items())
    unbiased = all(abs(medians[h] - exact[h]) <= 0.01 for h in medians)
    ok = recovered and unbiased and elapsed < budget
    _announce(capsys, 5, ok,
              "median roughness exponents "
              + ", ".join(f"{m:.3f} for h={h} (exact {exact[h]:.4f})" for h, m in medians.items())
              + f", all within 0.1 of h and 0.01 of exact ({elapsed:.1f}s < {budget:.0f}s)")
    for target, med in medians.items():
        assert abs(med - target) < 0.1
        assert abs(med - exact[target]) <= 0.01
    assert elapsed < budget


def test_06_inequality_scans(capsys):
    budget = 60.0
    started = time.monotonic()

    rng = np.random.default_rng(606)
    m = 1_000_000
    v = rng.uniform(1e-6, 5.0, m)
    u = v + rng.uniform(1e-9, 5.0, m)
    alpha = rng.uniform(-3.0, 0.999, m)
    beta = rng.uniform(0.0, 1.0, m)
    fund_violations = sum(
        not check_fund_ineq(u[i], v[i], alpha[i], beta[i]) for i in range(m)
    )

    scan_violations = 0
    for name, hurst in _scans.HURST_FAMILIES.items():
        bad, _ = _scans.growth_violations(hurst, 100_000, seed=101)
        scan_violations += bad
        bad, _ = _scans.lipschitz_violations(hurst, 100_000, seed=202)
        scan_violations += bad

    params = KernelParams(hurst=builtin_hurst("constant", [0.6]), dampening=None, horizon=2.5)
    h_star = 0.6
    worst_rel = 0.0
    for _ in range(1000):
        t_prime, t_eval = np.sort(rng.uniform(1e-3, 2.5, 2))
        if t_eval - t_prime < 1e-6:
            t_eval = t_prime + 1e-6
        gamma = float(rng.uniform(0.05, 2.0 * h_star - 0.05))
        c = float(rng.uniform(0.5, 3.0))
        exponent = -1.0 + h_star - gamma / 2.0

        def smooth_part(s, t_eval=t_eval, t_prime=t_prime, gamma=gamma, c=c, exponent=exponent):
            # The quadrature weight carries the (t'-s)**exponent endpoint
            # factor; the rule samples the closed interval, so clamp s just
            # inside the kernel's open domain.
            s = min(s, math.nextafter(t_prime, 0.0))
            return lambda_gamma(params, t_eval, t_prime, s, gamma, c) * (t_prime - s) ** -exponent

        integral, _ = quad(smooth_part, 0.0, t_prime, weight="alg",
                           wvar=(0.0, exponent), limit=200)
        closed = (c * (t_eval - t_prime) ** gamma
                  * t_prime ** (h_star - gamma / 2.0) / (h_star - gamma / 2.0))
        worst_rel = max(worst_rel, abs(integral - closed) / closed)

    elapsed = time.monotonic() - started
    ok = (fund_violations == 0 and scan_violations == 0 and worst_rel < 1e-6
          and elapsed < budget)
    _announce(capsys, 6, ok,
              f"power-difference inequality 0/10^6 violations, growth and state-Lipschitz "
              f"scans 0 violations at 10^5 per family, two-time kernel integral within "
              f"{worst_rel:.1e} of closed form ({elapsed:.1f}s < {budget:.0f}s)")
    assert fund_violations == 0
    assert scan_violations == 0
    assert worst_rel < 1e-6
    assert elapsed < budget


def test_07_special_function_values(capsys):
    budget = 1.0
    started = time.monotonic()
    checks = [
        mittag_leffler(0.0, beta=0.37) == 1.0,
        abs(mittag_leffler(1.0, beta=1.0) - math.e) < 1e-10,
        abs(mittag_leffler(1.0, beta=0.5) - math.e * erfc(-1.0)) < 1e-4,
        abs(gronwall_bound(2.0, 1.5, 1.0, 1.3) - 2.0 * math.exp(1.5 * 1.3)) < 1e-10,
    ]
    elapsed = time.monotonic() - started
    ok = all(checks) and elapsed < budget
    _announce(capsys, 7, ok,
              f"series values match exp and erfc closed forms at stated tolerances "
              f"({elapsed:.2f}s < {budget:.0f}s)")
    assert all(checks)
    assert elapsed < budget


def test_08_dampening_raises_increment_clustering(capsys):
    budget = 300.0
    started = time.monotonic()
    grid = make_grid(10.0, 2**12)
    hurst = builtin_hurst("bell", [])
    # Path i of both ensembles is driven by the stream of
    # derive_path_seed(Seed(424242), i), so the draws are paired.
    cfg_plain = SimulationConfig(grid=grid, hurst=hurst, seed=Seed(424242), n_paths=100)
    cfg_damped = replace(cfg_plain, dampening=builtin_dampening("constant", [0.1]))
    mean_acf_plain, mean_acf_damped = (
        [float(np.mean(acf_abs_increments(path, max_lag=20).values[1:]))
         for path in monte_carlo(cfg).paths]
        for cfg in (cfg_plain, cfg_damped)
    )
    median_plain = float(np.median(mean_acf_plain))
    median_damped = float(np.median(mean_acf_damped))
    elapsed = time.monotonic() - started
    ok = median_damped > median_plain and elapsed < budget
    _announce(capsys, 8, ok,
              f"median mean-ACF over lags 1..20: {median_damped:.4f} dampened vs "
              f"{median_plain:.4f} plain across 100 paired draws "
              f"({elapsed:.1f}s < {budget:.0f}s)")
    assert median_damped > median_plain
    assert elapsed < budget


def test_09_cli_byte_determinism(capsys, tmp_path):
    budget = 300.0
    started = time.monotonic()
    config_paths = sorted(CONFIG_DIR.glob("*.json"))
    assert config_paths, f"no configs found in {CONFIG_DIR}"
    all_identical = True
    commands_seen = set()
    for config_path in config_paths:
        raw = json.loads(config_path.read_text())
        command = next(
            (c for c in ("converge", "holder", "acf", "moments") if c in raw), "simulate"
        )
        commands_seen.add(command)
        dirs = []
        for threads in ("1", "2"):
            out = tmp_path / config_path.stem / threads
            code = cli_main([command, "--config", str(config_path),
                             "--output-dir", str(out), "--threads", threads])
            assert code == 0, f"{config_path.name} exited {code} with --threads {threads}"
            dirs.append(out)
        names = [sorted(p.name for p in d.iterdir() if p.name != "manifest.json")
                 for d in dirs]
        assert names[0] == names[1]
        for name in names[0]:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                all_identical = False
    elapsed = time.monotonic() - started
    ok = all_identical and commands_seen == {"simulate", "converge", "holder", "acf", "moments"} \
        and elapsed < budget
    _announce(capsys, 9, ok,
              f"all {len(config_paths)} example configs byte-identical across thread "
              f"counts for every command ({elapsed:.1f}s < {budget:.0f}s)")
    assert all_identical
    assert commands_seen == {"simulate", "converge", "holder", "acf", "moments"}
    assert elapsed < budget
