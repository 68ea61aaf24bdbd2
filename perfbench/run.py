"""semsim benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout (the program is imported from
``src/``; nothing is built).  Workloads: ``many_short``, ``long_dampened``,
``converge_refine``; see README.md next to this file for why each exists.

A run starts one fresh interpreter (``child.py --serve``) that runs the
workload's ``semsim`` CLI command, on a config generated from ``--seed``,
each time it is asked.  It runs the command once untimed with
``--threads 1`` (warm-up), then repeats whole rounds until ``--seconds``
have passed since the run began.  A round is one set-up probe (a fresh
interpreter from spawn to parsed config), one timed command and the
round's checks.  With ``--trace 1`` a second, traced server runs the same
commands, and the run reports per-layer metrics instead of end-to-end
ones.  After the rounds the outputs are checked against ``reference.py``
and against properties of the method.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")

# A child that runs longer than this is killed and counted as failed; the
# whole run must end within 180 s.
CHILD_TIMEOUT_S = 120.0

# Sampled paths of many_short checked against the reference, and the
# prefix length of each long_dampened path checked against it.
REFERENCE_PATHS = 16
REFERENCE_PREFIX = 2048
# Terminal sample variance must lie within this many standard errors of
# the exact finite sum.
VARIANCE_SE = 4.0
# The reference ACF sums with math.fsum, the program with numpy's pairwise
# sums; values lie in [-1, 1].
ACF_ATOL = 1e-9
SLOPE_ATOL = 1e-9
MIN_SLOPE = 0.5
# Set-up probes per run; setup_s is their median, scaled like the commands.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    config: dict
    data_files: tuple[str, ...]
    # Step count of every solve made for one driving path.
    solve_steps: tuple[int, ...]

    @property
    def n_paths(self) -> int:
        return self.config["n_paths"]

    @property
    def kernel_evals(self) -> int:
        return self.n_paths * sum(n * (n + 1) // 2 for n in self.solve_steps)

    def expected_values(self, spec: dict | None) -> set[int]:
        """Tracer-independent counts of state values a function is evaluated on.

        Zero when the function is absent or a constant served from the
        exact-node tables (every grid here has exact nodes).  Otherwise
        either one value per row term (row-wise evaluation, Sum N(N+1)/2
        per solve) or one per solved node (per-node caching, N per solve).
        """
        if spec is None or spec["name"] == "constant":
            return {0}
        return {self.kernel_evals, self.n_paths * sum(self.solve_steps)}


def make_workload(name: str, seed: int, smoke: bool) -> Workload:
    config_seed = reference.path_key(seed, list(WORKLOADS).index(name))
    return WORKLOADS[name](config_seed, smoke)


def _many_short(config_seed: int, smoke: bool) -> Workload:
    steps, paths = (32, 60) if smoke else (256, 600)
    config = {"process": "sem", "hurst": {"name": "constant", "params": [0.75]},
              "T": 1.0, "N": steps, "seed": config_seed, "n_paths": paths}
    return Workload("many_short", "simulate", 2, config, ("paths.csv",), (steps,))


def _long_dampened(config_seed: int, smoke: bool) -> Workload:
    steps, paths, lag = (256, 2, 8) if smoke else (4096, 4, 64)
    config = {"process": "sem_gamma", "hurst": {"name": "bell", "params": []},
              "dampening": {"name": "bell", "params": []},
              "T": 10.0, "N": steps, "seed": config_seed, "n_paths": paths,
              "acf": {"max_lag": lag}}
    return Workload("long_dampened", "acf", 1, config, ("acf.csv",), (steps,))


def _converge_refine(config_seed: int, smoke: bool) -> Workload:
    steps, paths, levels, factor = (16, 30, 4, 2) if smoke else (32, 64, 4, 2)
    config = {"process": "sem_gamma", "hurst": {"name": "trig", "params": [0.6, 0.2, 1.0]},
              "dampening": {"name": "constant", "params": [1.0]},
              "T": 1.0, "N": steps, "seed": config_seed, "n_paths": paths,
              "converge": {"n_levels": levels, "refine_factor": factor}}
    solves = tuple(steps * factor ** level for level in range(levels + 1))
    return Workload("converge_refine", "converge", 2, config, ("convergence.json",), solves)


WORKLOADS = {
    "many_short": _many_short,
    "long_dampened": _long_dampened,
    "converge_refine": _converge_refine,
}


class Ledger:
    """Operations attempted and failed: paths, CLI commands and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list[str] = []

    def op(self, ok: bool, count: int = 1, failed: int | None = None) -> bool:
        self.attempted += count
        self.failed += (0 if ok else count) if failed is None else failed
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.op(ok)
        if not ok:
            self.failed_checks.append(name)
            print(f"check failed: {name} {detail}".rstrip(), flush=True)
        return ok


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def kill_after(pid: int) -> threading.Timer:
    """Kill ``pid``'s process group unless cancelled within CHILD_TIMEOUT_S."""
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (pid, signal.SIGKILL))
    timer.start()
    return timer


class Server:
    """A fresh interpreter (``child.py --serve``) that runs CLI commands in turn."""

    def __init__(self, work: str, name: str, traced: bool) -> None:
        with open(os.path.join(work, f"{name}.err"), "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, CHILD, "--serve", *(["--trace"] if traced else [])],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
                env=child_env(), cwd=ROOT, start_new_session=True)
        self.peak_rss_mb: float | None = None

    def request(self, payload: dict) -> dict | None:
        """The child's reply to one request, or None if the child died or hung."""
        timer = kill_after(self.proc.pid)
        try:
            self.proc.stdin.write(json.dumps(payload) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        finally:
            timer.cancel()
        return json.loads(line) if line else None

    def close(self) -> None:
        """End the child and wait for it; keep its resident-set peak."""
        timer = kill_after(self.proc.pid)
        try:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        # wait4 reports the child together with its reaped descendants,
        # which include the pool workers; ru_maxrss (KiB) is the largest
        # peak among them (forked workers share pages with the parent, so
        # a sum would double-count).
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def digests(directory: str, names: tuple[str, ...]) -> dict[str, str] | None:
    try:
        out = {}
        for name in names:
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out
    except OSError:
        return None


class Bench:
    def __init__(self, wl: Workload, seed: int, trace: bool, work: str) -> None:
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.work = work
        self.ledger = Ledger()
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(wl.config, fh)
        self.canonical: str | None = None
        self.canonical_digests: dict[str, str] | None = None
        self.runs = 0

    def setup_probe(self) -> float | None:
        """Seconds from spawning a fresh interpreter to its parsed config."""
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, "--setup", self.config_path],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        timer = kill_after(proc.pid)
        try:
            stdout, _ = proc.communicate()
        finally:
            timer.cancel()
        if not self.ledger.op(proc.returncode == 0):
            return None
        return float(stdout.strip()) - started

    def command(self, server: Server, threads: int) -> tuple[dict | None, dict | None]:
        """Run the workload's CLI command once on ``server`` and check its outputs.

        Returns the server's reply (None if the command failed) and, on a
        traced server, the command's per-layer aggregates.
        """
        self.runs += 1
        out_dir = os.path.join(self.work, f"out-{self.runs}")
        trace_path = os.path.join(self.work, f"trace-{self.runs}.json")
        reply = server.request({"args": [self.wl.command, "--config", self.config_path,
                                         "--output-dir", out_dir, "--threads", str(threads)],
                                "trace": trace_path})
        ok = reply is not None and reply["code"] == 0
        path_failed = 0 if ok or reply is None or "simulation of path" not in reply["printed"] else 1
        self.ledger.op(ok)
        self.ledger.op(ok, count=self.wl.n_paths, failed=path_failed)
        if not ok:
            detail = "the server died" if reply is None else (
                f"exit code {reply['code']}: {reply['printed'].strip()}")
            print(f"command failed, {detail}", flush=True)
            return None, None
        found = digests(out_dir, self.wl.data_files)
        if not self.ledger.check("data files written", found is not None):
            return None, None
        if self.canonical is None:
            self.canonical, self.canonical_digests = out_dir, found
        else:
            self.ledger.check("outputs byte-identical across runs",
                              found == self.canonical_digests, f"(run {self.runs})")
            shutil.rmtree(out_dir, ignore_errors=True)
        stats = None
        if os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                stats = json.load(fh)
            os.remove(trace_path)
        return reply, stats

    def output_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.canonical, n)) for n in self.wl.data_files)


# ---- checks of each workload's outputs --------------------------------------

def check_many_short(bench: Bench) -> None:
    wl, ledger = bench.wl, bench.ledger
    cfg = wl.config
    steps, horizon, n_paths = cfg["N"], cfg["T"], cfg["n_paths"]
    with open(os.path.join(bench.canonical, "paths.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    header_ok = rows[0] == ["t"] + [f"path_{i}" for i in range(n_paths)]
    shape_ok = len(rows) == steps + 2 and all(len(r) == n_paths + 1 for r in rows)
    if not ledger.check("paths.csv shape", header_ok and shape_ok):
        return
    dt = horizon / steps
    ledger.check("paths.csv time column", all(float(rows[k + 1][0]) == k * dt
                                              for k in range(steps + 1)))
    hurst = reference.hurst_fn(cfg["hurst"])
    gaps = []
    for index in sorted(random.Random(bench.seed).sample(range(n_paths), REFERENCE_PATHS)):
        dB = reference.increments(cfg["seed"], index, horizon, steps)
        expected = reference.left_point(dB, horizon, steps, hurst, None, steps)
        got = [float(rows[k + 1][index + 1]) for k in range(steps + 1)]
        gaps.append(reference.relative_gap(got, expected))
        ledger.check(f"path {index} matches the reference", gaps[-1] <= reference.PATH_RTOL,
                     f"(relative gap {gaps[-1]:.3g})")
    print(f"reference: {len(gaps)} sampled paths, largest relative gap {max(gaps):.3g}")
    # Var X(T) = sum_i (T - t_i)**(2H - 1) * dt; the sample variance of
    # Gaussian data has standard error var * sqrt(2 / (n - 1)).
    h = cfg["hurst"]["params"][0]
    exact = math.fsum((horizon - i * dt) ** (2 * h - 1) * dt for i in range(steps))
    sample = statistics.variance(float(v) for v in rows[-1][1:])
    se = exact * math.sqrt(2.0 / (n_paths - 1))
    ledger.check("terminal variance within 4 standard errors",
                 abs(sample - exact) <= VARIANCE_SE * se,
                 f"(sample {sample:.6g}, exact {exact:.6g}, se {se:.3g})")


def check_long_dampened(bench: Bench) -> None:
    wl, ledger = bench.wl, bench.ledger
    cfg = wl.config
    steps, horizon, max_lag = cfg["N"], cfg["T"], cfg["acf"]["max_lag"]
    with open(os.path.join(bench.canonical, "acf.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    shape_ok = rows[0] == ["lag", "value"] and [r[0] for r in rows[1:]] == [
        str(m) for m in range(max_lag + 1)]
    if not ledger.check("acf.csv shape", shape_ok):
        return
    acf = [float(r[1]) for r in rows[1:]]
    ledger.check("ACF at lag 0 is exactly 1", acf[0] == 1.0, f"(got {acf[0]!r})")

    # Full paths come from the program's engine; their prefixes are checked
    # against the reference, then the ACF is recomputed from them here.
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from semsim.engine import simulate_discrete
    from semsim.randomness import BrownianIncrements, make_grid
    from semsim.cli import parse_config
    import numpy as np

    sim = parse_config(cfg).simulation_config()
    grid = make_grid(horizon, steps)
    hurst, damp = reference.hurst_fn(cfg["hurst"]), reference.dampening_fn(cfg["dampening"])
    prefix = min(REFERENCE_PREFIX, steps)
    per_path, gaps = [], []
    for index in range(cfg["n_paths"]):
        dB = reference.increments(cfg["seed"], index, horizon, steps)
        incr = BrownianIncrements(grid=grid, values=np.array(dB),
                                  seed_provenance=(cfg["seed"], index))
        path = simulate_discrete(sim, incr).values.tolist()
        expected = reference.left_point(dB, horizon, steps, hurst, damp, prefix)
        gaps.append(reference.relative_gap(path, expected))
        ledger.check(f"path {index} prefix matches the reference", gaps[-1] <= reference.PATH_RTOL,
                     f"(relative gap {gaps[-1]:.3g})")
        per_path.append(reference.acf_abs_increments(path, max_lag))
    print(f"reference: {len(gaps)} path prefixes of {prefix} steps, "
          f"largest relative gap {max(gaps):.3g}")
    mean = [math.fsum(col) / len(per_path) for col in zip(*per_path)]
    worst = max(abs(a - b) for a, b in zip(acf, mean))
    print(f"reference: largest ACF gap {worst:.3g}")
    ledger.check("acf.csv matches the recomputed ACF", worst <= ACF_ATOL, f"(gap {worst:.3g})")


def check_converge_refine(bench: Bench) -> None:
    wl, ledger = bench.wl, bench.ledger
    cfg = wl.config
    section = cfg["converge"]
    with open(os.path.join(bench.canonical, "convergence.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    levels, factor = section["n_levels"], section["refine_factor"]
    dts = [cfg["T"] / (cfg["N"] * factor ** level) for level in range(levels)]
    ledger.check("dt_levels", report["dt_levels"] == dts)
    ledger.check("n_paths and refine_factor",
                 report["n_paths"] == cfg["n_paths"] and report["refine_factor"] == factor)
    mse = report["sup_mse"]
    ledger.check("non-degenerate", report["degenerate"] is False and report["flag"] == "ok"
                 and all(v > 0.0 for v in mse))
    ledger.check("sup_mse strictly decreasing", all(b < a for a, b in zip(mse, mse[1:])),
                 f"({mse})")
    slope = report["fitted_slope"]
    ledger.check(f"fitted slope >= {MIN_SLOPE}", slope is not None and slope >= MIN_SLOPE,
                 f"(got {slope})")
    if slope is not None and all(v > 0.0 for v in mse):
        expected = reference.loglog_slope(dts, mse)
        ledger.check("fitted slope matches the reference fit", abs(slope - expected) <= SLOPE_ATOL,
                     f"(got {slope}, reference {expected})")


CHECKS = {
    "many_short": check_many_short,
    "long_dampened": check_long_dampened,
    "converge_refine": check_converge_refine,
}


# ---- metrics ------------------------------------------------------------------

END_TO_END_UNITS = {"wall_ref_s": "ref_s", "paths_per_ref_s": "paths/ref_s",
                    "cpu_ref_s": "ref_s", "peak_rss_mb": "MB", "setup_s": "s"}

# Seconds child.calibrate takes on the reference machine, in one process
# or in two at once: the unit ``ref_s`` in which command times are reported.
CAL_REF_S = 0.2

# Layers whose work runs inside pool workers when the command uses a pool;
# with --threads > 1 they are measured on the serial traced repeat.
WORKER_LAYERS = ("randomness", "model", "kernels", "engine")
HURST = "model.HurstFunction.evaluate"
DAMP = "model.DampeningFunction.evaluate"

PER_LAYER_UNITS = {
    "randomness.sample_calls": "count", "randomness.sample_s": "s", "randomness.coarsen_s": "s",
    "model.hurst_calls": "count", "model.hurst_values": "count", "model.hurst_s": "s",
    "model.damp_calls": "count", "model.damp_values": "count", "model.damp_s": "s",
    "kernels.calls": "count", "kernels.self_s": "s",
    "engine.solves": "count", "engine.kernel_evals": "count", "engine.self_s": "s",
    "engine.ns_per_kev": "ns", "engine.pool_tasks": "count", "engine.pool_payload_bytes": "bytes",
    "analysis.calls": "count", "analysis.self_s": "s",
    "special.self_s": "s",
    "cli.parse_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(stats: dict, kernel_evals: int) -> dict[str, float]:
    functions = stats["functions"]

    def one(name: str, field: int) -> float:
        return functions.get(name, [0, 0.0, 0.0, 0])[field]

    def layer(name: str, field: int) -> float:
        return sum(v[field] for k, v in functions.items() if k.split(".")[0] == name)

    solver_s = layer("engine", 2) + layer("model", 2) + layer("kernels", 2)
    return {
        "randomness.sample_calls": one("randomness.sample_brownian", 0),
        "randomness.sample_s": one("randomness.sample_brownian", 1),
        "randomness.coarsen_s": one("randomness.coarsen", 1),
        "model.hurst_calls": one(HURST, 0),
        "model.hurst_values": one(HURST, 3),
        "model.hurst_s": one(HURST, 1),
        "model.damp_calls": one(DAMP, 0),
        "model.damp_values": one(DAMP, 3),
        "model.damp_s": one(DAMP, 1),
        "kernels.calls": layer("kernels", 0),
        "kernels.self_s": layer("kernels", 2),
        "engine.solves": one("engine.simulate_discrete", 0),
        "engine.kernel_evals": kernel_evals,
        "engine.self_s": layer("engine", 2),
        "engine.ns_per_kev": solver_s / kernel_evals * 1e9,
        "engine.pool_tasks": stats["pool_tasks"],
        "engine.pool_payload_bytes": stats["pool_payload_bytes"],
        "analysis.calls": layer("analysis", 0),
        "analysis.self_s": layer("analysis", 2),
        "special.self_s": layer("special", 2),
        "cli.parse_s": one("cli.load_config", 1),
        "cli.self_s": layer("cli", 2) - one("cli.load_config", 2) - one("cli.parse_config", 2),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    # median_low keeps a measured sample, so counts stay whole numbers.
    return {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}


def run(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "semsim", "cli.py")):
        print(f"error: no semsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed, args.smoke)
    work = os.path.join(WORK_ROOT, f"{wl.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(Bench(wl, args.seed, bool(args.trace), work), args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def measure(bench: Bench, seconds: float) -> int:
    wl, ledger = bench.wl, bench.ledger
    print(f"workload {wl.name}: semsim {wl.command} --threads {wl.threads}, "
          f"config {json.dumps(wl.config)}", flush=True)
    started = time.monotonic()
    plain = Server(bench.work, "plain", traced=False)
    servers = [plain]
    try:
        if bench.trace:
            servers.append(Server(bench.work, "traced", traced=True))
        # Warm-up, untimed: each server runs the command once with
        # --threads 1, so imports and first-call costs are paid before
        # timing and the outputs of one worker and of wl.threads workers
        # must agree.  Traced, it also measures the layers that otherwise
        # run inside pool workers.
        warm = [bench.command(server, 1) for server in servers]
        if any(reply is None for reply, _ in warm):
            print("error: the warm-up command failed; the program does not run", file=sys.stderr)
            return 1
        serial_stats = warm[-1][1] if bench.trace and wl.threads > 1 else None
        # Set-up probes run apart from the timed commands: a command that
        # follows a probe was measured to run about 8% slower.
        setups = [t for t in (bench.setup_probe() for _ in range(SETUP_PROBES)) if t is not None]
        print(f"set-up probes: {setups} s", flush=True)
        plain_runs: list[dict] = []
        traced_runs: list[tuple[dict, dict]] = []
        calibrate = {"calibrate": wl.threads}
        calibrations = [] if bench.trace else [plain.request(calibrate)]
        rounds = 0
        while rounds == 0 or time.monotonic() - started < seconds:
            rounds += 1
            reply, _ = bench.command(plain, wl.threads)
            if not bench.trace:
                # A calibration on each side of every timed command.
                calibrations.append(plain.request(calibrate))
                if reply is not None and None not in calibrations[-2:]:
                    plain_runs.append({**reply, **{
                        key: (calibrations[-2][key] + calibrations[-1][key]) / 2
                        for key in ("cal_s", "cal_cpu_s")}})
            elif reply is not None:
                plain_runs.append(reply)
            print(f"round {rounds}: wall {reply and reply['wall_s']} s, "
                  f"calibration {calibrations[-1:]}", flush=True)
            if bench.trace:
                reply, stats = bench.command(servers[1], wl.threads)
                if reply is not None:
                    traced_runs.append((reply, stats))
    finally:
        for server in servers:
            server.close()
    if not plain_runs or not setups or (bench.trace and not traced_runs):
        print("error: no command completed; the program does not run", file=sys.stderr)
        return 1
    CHECKS[wl.name](bench)

    if bench.trace:
        metrics = median_metrics([layer_metrics(s, wl.kernel_evals) for _, s in traced_runs])
        if serial_stats is not None:
            serial = layer_metrics(serial_stats, wl.kernel_evals)
            for key in metrics:
                if key.split(".")[0] in WORKER_LAYERS and not key.startswith("engine.pool_"):
                    metrics[key] = serial[key]
            print(f"per-layer metrics of {', '.join(WORKER_LAYERS)} (pool counts excepted) "
                  "come from the serial traced warm-up", flush=True)
        metrics["cli.output_bytes"] = bench.output_bytes()
        metrics["trace.overhead_s"] = (statistics.fmean(r["wall_s"] for r, _ in traced_runs)
                                       - statistics.fmean(r["wall_s"] for r in plain_runs))
        for key, metric in (("hurst", "model.hurst_values"), ("dampening", "model.damp_values")):
            got, expected = metrics[metric], wl.expected_values(wl.config.get(key))
            ledger.check(f"traced {metric} matches the grid count", got in expected,
                         f"(traced {got}, computed {sorted(expected)})")
        units = PER_LAYER_UNITS
    else:
        # The host's cores switch between a fast and a slow state (up to
        # 1.9x apart) for seconds at a time and drift by as much over
        # minutes; CPU time moves with wall time.  A fixed calibration
        # task with the program's mix of code, run in the same process on
        # each side of every command, slows alike: each command is timed
        # in units of the calibrations around it, scaled by the task's
        # time on the reference machine.  CPU time is divided by the
        # calibration's CPU time per process, since a core lost to other
        # tenants stretches wall time but not CPU time.  The mean over the
        # rounds moves smoothly with the share of time spent slow; the
        # median jumps between the two states when that share is near one
        # half.
        wall = statistics.fmean(r["wall_s"] / r["cal_s"] for r in plain_runs) * CAL_REF_S
        cpu = statistics.fmean(r["cpu_s"] / (r["cal_cpu_s"] / wl.threads)
                               for r in plain_runs) * CAL_REF_S
        metrics = {
            "wall_ref_s": wall,
            "paths_per_ref_s": wl.n_paths / wall,
            "cpu_ref_s": cpu,
            "peak_rss_mb": plain.peak_rss_mb,
            # Set-up time drifts with the machine too: scaled alike, by the
            # mean calibration of the run, it stays in (reference) seconds.
            "setup_s": statistics.median(setups)
            / statistics.fmean(r["cal_s"] for r in plain_runs) * CAL_REF_S,
        }
        print(f"measured means: wall {statistics.fmean(r['wall_s'] for r in plain_runs)} s, "
              f"cpu {statistics.fmean(r['cpu_s'] for r in plain_runs)} s, calibration "
              f"{statistics.fmean(r['cal_s'] for r in plain_runs)} s wall, "
              f"{statistics.fmean(r['cal_cpu_s'] for r in plain_runs)} s cpu, "
              f"set-up {statistics.median(setups)} s", flush=True)
        print("round timings (s): " + json.dumps({
            "setup": setups, "wall": [r["wall_s"] for r in plain_runs],
            "cpu": [r["cpu_s"] for r in plain_runs],
            "cal": [r["cal_s"] for r in plain_runs],
            "cal_cpu": [r["cal_cpu_s"] for r in plain_runs]}), flush=True)
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        print(f"  {key} = {value} {units[key]}", flush=True)
    print(f"{rounds} rounds, {ledger.attempted} operations, {ledger.failed} failed", flush=True)
    print(json.dumps({
        "correct": not ledger.failed_checks,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    # Termination from outside still runs the clean-up that stops the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
