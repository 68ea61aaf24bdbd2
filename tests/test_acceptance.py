"""Acceptance suite: the nine shipped guarantees, one test each, in order.

Each test prints a single ``[k] PASS/FAIL`` summary line (visible under
default capture) with each measured value next to its limit and the wall
time next to its budget, and asserts both the substantive property and
the budget.  Statistical margins were calibrated once against pinned
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


def _announce(capsys, index, ok, detail, elapsed, budget):
    with capsys.disabled():
        print(f"\n[{index}] {'PASS' if ok else 'FAIL'} {detail}; "
              f"{elapsed:.2f}s (budget {budget:.0f}s)")


def test_01_brownian_prefix_sum_identity(capsys):
    sizes = [1, 2, 3, 5, 16, 100, 1000, 4096, 16384]
    budget = 1.0
    started = time.monotonic()
    mismatched = []
    for n in sizes:
        grid = make_grid(1.0, n)
        incr = sample_brownian(Seed(1000 + n), grid)
        cfg = SimulationConfig(grid=grid, hurst=builtin_hurst("constant", [0.5]), seed=Seed(1))
        path = simulate_discrete(cfg, incr)
        if not (path.values[0] == 0.0
                and path.values[1:].tobytes() == np.cumsum(incr.values).tobytes()):
            mismatched.append(n)
    exact = not mismatched
    elapsed = time.monotonic() - started
    ok = exact and elapsed < budget
    _announce(capsys, 1, ok,
              f"h=1/2 paths that differ from Brownian prefix sums: {mismatched} of "
              f"N in {sizes} (limit: empty)", elapsed, budget)
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
              f"terminal variance {sample_var:.4f} against exact sum {exact:.4f}: "
              f"{deviation / std_err:.2f} std errors apart (limit < 4); N=2^12 sum "
              f"{rel12:.2e} from 2/3, relative (limit < 1e-2)", elapsed, budget)
    assert deviation < 4.0 * std_err
    assert rel12 < 0.01
    assert elapsed < budget


def test_03_zero_dampening_reduction(capsys):
    budget = 30.0
    started = time.monotonic()
    rng = np.random.default_rng(2026)
    differing = 0
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
        differing += bare.values.tobytes() != damped.values.tobytes()
    identical = differing == 0
    elapsed = time.monotonic() - started
    ok = identical and elapsed < budget
    _announce(capsys, 3, ok,
              f"random configs whose f=0 dampened path differs from the undampened "
              f"one: {differing} of 20 (limit 0)", elapsed, budget)
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
              "; ".join(f"{label}: sup-MSE slope {slope:.2f} (limit >= 0.5), strictly "
                        f"decreasing {dec} (limit True)"
                        for label, (slope, dec) in results.items()), elapsed, budget)
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
              "; ".join(f"h={h}: median exponent {m:.4f}, |median - h| {abs(m - h):.4f} "
                        f"(limit < 0.1), |median - exact {exact[h]:.4f}| "
                        f"{abs(m - exact[h]):.4f} (limit <= 0.01)"
                        for h, m in medians.items()), elapsed, budget)
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
              f"power-difference inequality violations {fund_violations} of 10^6 (limit 0); "
              f"growth and state-Lipschitz scan violations {scan_violations} at 10^5 per "
              f"family (limit 0); two-time kernel integral {worst_rel:.1e} from closed form, "
              f"relative (limit < 1e-6)", elapsed, budget)
    assert fund_violations == 0
    assert scan_violations == 0
    assert worst_rel < 1e-6
    assert elapsed < budget


def test_07_special_function_values(capsys):
    budget = 1.0
    started = time.monotonic()
    errors = [
        abs(mittag_leffler(0.0, beta=0.37) - 1.0),
        abs(mittag_leffler(1.0, beta=1.0) - math.e),
        abs(mittag_leffler(1.0, beta=0.5) - math.e * erfc(-1.0)),
        abs(gronwall_bound(2.0, 1.5, 1.0, 1.3) - 2.0 * math.exp(1.5 * 1.3)),
    ]
    checks = [errors[0] == 0.0, errors[1] < 1e-10, errors[2] < 1e-4, errors[3] < 1e-10]
    elapsed = time.monotonic() - started
    ok = all(checks) and elapsed < budget
    _announce(capsys, 7, ok,
              "series errors against exp and erfc closed forms: "
              + ", ".join(f"{e:.1e} (limit {limit})" for e, limit in
                          zip(errors, ("0", "< 1e-10", "< 1e-4", "< 1e-10"))),
              elapsed, budget)
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
              f"median mean-ACF over lags 1..20 across 100 paired draws: "
              f"{median_damped:.4f} dampened, {median_plain:.4f} plain "
              f"(limit: dampened > plain)", elapsed, budget)
    assert median_damped > median_plain
    assert elapsed < budget


def test_09_cli_byte_determinism(capsys, tmp_path):
    budget = 300.0
    started = time.monotonic()
    config_paths = sorted(CONFIG_DIR.glob("*.json"))
    assert config_paths, f"no configs found in {CONFIG_DIR}"
    differing = []
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
                differing.append(f"{config_path.stem}/{name}")
    all_identical = not differing
    elapsed = time.monotonic() - started
    ok = all_identical and commands_seen == {"simulate", "converge", "holder", "acf", "moments"} \
        and elapsed < budget
    _announce(capsys, 9, ok,
              f"data files that differ between --threads 1 and 2: {differing} from "
              f"{len(config_paths)} example configs (limit: empty); commands run "
              f"{sorted(commands_seen)} (limit: all 5)", elapsed, budget)
    assert all_identical
    assert commands_seen == {"simulate", "converge", "holder", "acf", "moments"}
    assert elapsed < budget
