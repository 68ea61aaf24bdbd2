"""Batch command line front end.

One JSON config drives every subcommand; outputs are plain CSV/JSON files
plus a run manifest.  Data files are a pure function of the config: the
thread count (or ``SEM_THREADS``) changes wall time only, never bytes.

Each command is one handler, ``(config, section, threads) -> (file name,
text)``, where the text is one string or its chunks in order.  The handler
writes nothing: :func:`main` writes the file it returns, then the
manifest, so every file is written in one place.

Every command that simulates an ensemble runs it one way: through
:func:`~semsim.engine.simulate_blocks` with a ``finish`` that reduces each
block in the task that solved it.  ``simulate`` formats the block's CSV
fields, ``holder`` and ``acf`` estimate each of its paths, and
``moments`` keeps its paths' states at the requested nodes.  The parent
joins the block results in path order and never holds the whole path
matrix.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from . import __version__
from .analysis import (
    _holder_lags,
    acf_abs_increments,
    convergence_study,
    estimate_holder,
    sample_moment,
)
from .engine import SamplePath, SimulationConfig, simulate_blocks
from .model import builtin_dampening, builtin_hurst
from .randomness import Seed, TimeGrid, make_grid

SEED_RULE = "splitmix64-philox-ndtri-v1"

# Each command that needs a config section, and the keys that section may have.
_SECTION_KEYS = {"converge": {"n_levels", "refine_factor"}, "holder": {"q", "lags"},
                 "acf": {"max_lag"}, "moments": {"p", "nodes"}}
_TOP_KEYS = {"process", "hurst", "dampening", "T", "N", "seed", "n_paths", *_SECTION_KEYS}


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest round-tripping decimal.
    return repr(float(x))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v: Any) -> bool:
    # A finite float, or an integer that converts to one: NaN, the
    # infinities and integers past the float range are not numbers here.
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _parse_function(section: Any, where: str) -> tuple[str, tuple]:
    _require(isinstance(section, dict), f"{where} must be an object")
    _check_keys(section, {"name", "params"}, where)
    _require(isinstance(section.get("name"), str), f"{where}.name must be a string")
    params = section.get("params", [])
    _require(isinstance(params, list) and all(_is_num(p) for p in params),
             f"{where}.params must be a list of numbers")
    return section["name"], tuple(params)


def _checked(where: str, fn: Callable, *args):
    """``fn(*args)``, its ``ValueError`` raised as a :class:`ConfigError` naming ``where``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed, validated experiment: what it simulates and its JSON echo.

    The echo is the config as read, so it holds each command's section
    too; :func:`_section` looks one up.
    """

    simulation: SimulationConfig
    echo: dict

    def simulation_config(self) -> SimulationConfig:
        return self.simulation


def parse_config(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "top-level config must be an object")
    _check_keys(raw, _TOP_KEYS, "config")
    for key in ("process", "hurst", "T", "N", "seed", "n_paths"):
        _require(key in raw, f"missing required key: {key}")

    process = raw["process"]
    _require(process in ("sem", "sem_gamma"), "process must be 'sem' or 'sem_gamma'")
    hurst = _checked("hurst", builtin_hurst, *_parse_function(raw["hurst"], "hurst"))
    dampening = None
    if process == "sem_gamma":
        _require("dampening" in raw, "sem_gamma requires a dampening entry")
        dampening = _checked("dampening", builtin_dampening,
                             *_parse_function(raw["dampening"], "dampening"))
    else:
        _require("dampening" not in raw, "dampening is only valid for process 'sem_gamma'")

    _require(_is_num(raw["T"]) and raw["T"] > 0, "T must be a positive number")
    _require(_is_int(raw["N"]) and raw["N"] >= 1, "N must be a positive integer")
    _require(_is_int(raw["seed"]) and 0 <= raw["seed"] < 2 ** 64,
             "seed must be an integer in [0, 2**64)")
    _require(_is_int(raw["n_paths"]) and raw["n_paths"] >= 1,
             "n_paths must be a positive integer")
    steps = raw["N"]
    simulation = SimulationConfig(grid=make_grid(raw["T"], steps), hurst=hurst,
                                  dampening=dampening, seed=Seed(raw["seed"]),
                                  n_paths=raw["n_paths"])

    for name, allowed in _SECTION_KEYS.items():
        if raw.get(name) is not None:
            _require(isinstance(raw[name], dict), f"{name} must be an object")
            _check_keys(raw[name], allowed, name)

    converge = raw.get("converge")
    if converge is not None:
        _require(_is_int(converge.get("n_levels")) and converge["n_levels"] >= 3,
                 "converge.n_levels must be an integer >= 3")
        _require(_is_int(converge.get("refine_factor")) and converge["refine_factor"] >= 2,
                 "converge.refine_factor must be an integer >= 2")

    holder = raw.get("holder")
    if holder is not None:
        _require(_is_num(holder.get("q")) and holder["q"] > 0, "holder.q must be a positive number")
        lags = holder.get("lags")
        _require("lags" not in holder or isinstance(lags, list) and all(map(_is_int, lags)),
                 "holder.lags must be a list of integers")
        # The lags given, or the default ones, as estimate_holder checks them.
        _checked("holder.lags", _holder_lags, steps, lags)

    acf = raw.get("acf")
    if acf is not None:
        _require(_is_int(acf.get("max_lag")) and 1 <= acf["max_lag"] and 2 * acf["max_lag"] < steps,
                 f"acf.max_lag must be an integer in [1, {(steps - 1) // 2}]")

    moments = raw.get("moments")
    if moments is not None:
        ps = moments.get("p")
        _require(isinstance(ps, list) and len(ps) >= 1 and all(_is_num(p) and p >= 0 for p in ps),
                 "moments.p must be a list of nonnegative numbers")
        nodes = moments.get("nodes")
        _require(isinstance(nodes, list) and len(nodes) >= 1
                 and all(_is_int(k) and 0 <= k <= steps for k in nodes),
                 f"moments.nodes must be a list of integers in [0, {steps}]")

    return ExperimentConfig(simulation=simulation, echo=raw)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _atomic_write(directory: str, filename: str, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or its chunks in order, to ``directory/filename``.

    The text goes to ``filename.tmp`` first, which replaces the file once
    it is whole; a write that raises removes it and re-raises.
    """
    os.makedirs(directory, exist_ok=True)
    final = os.path.join(directory, filename)
    tmp = final + ".tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, final)
    except BaseException:
        os.remove(tmp)
        raise


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _section(config: ExperimentConfig, command: str) -> dict:
    """The config section ``command`` runs on: its own, or an empty one for ``simulate``."""
    section = {} if command == "simulate" else config.echo.get(command)
    if section is None:
        raise ConfigError(f"config has no '{command}' section but the {command} command needs one")
    return section


def _csv_fields(block: np.ndarray) -> list[str]:
    """The CSV fields of a block of paths: one comma-joined string per node.

    One node's states become Python floats at a time, so a block never
    holds a Python float per value.
    """
    return [",".join(map(repr, states.tolist())) for states in block.T]


def _cmd_simulate(config: ExperimentConfig, section: dict,
                  threads: int) -> tuple[str, Iterable[str]]:
    """simulate an ensemble and write paths.csv"""
    sim = config.simulation_config()
    t = sim.grid.nodes
    # Each block's task formats its own paths, so the float reprs run in the
    # pool workers too, and every worker formats an equal share of the
    # blocks (engine._block_bounds states the policy).
    # A block's floats are made one node at a time.  The parent keeps only
    # the formatted strings, one per node and block, never a Python float
    # per value, and the rows are made as main writes them instead of as
    # one whole text.
    fields = [block for _, block in simulate_blocks(sim, threads, _csv_fields)]
    header = "t," + ",".join(f"path_{i}" for i in range(sim.n_paths)) + "\n"
    rows = (",".join([_fmt(t[k]), *(f[k] for f in fields)]) + "\n" for k in range(t.shape[0]))
    return "paths.csv", itertools.chain([header], rows)


def _cmd_converge(config: ExperimentConfig, section: dict, threads: int) -> tuple[str, str]:
    """run a coupled refinement study and write convergence.json"""
    report = convergence_study(
        config.simulation_config(),
        n_levels=section["n_levels"],
        refine_factor=section["refine_factor"],
        n_workers=threads,
    )
    payload = {**asdict(report), "flag": "degenerate_exact" if report.degenerate else "ok"}
    return "convergence.json", _json_text(payload)


def _per_path(grid: TimeGrid, estimate: Callable, block: np.ndarray) -> list:
    """``estimate`` of each path of a block, in path order."""
    return [estimate(SamplePath(grid, row)) for row in block]


def _each_path(config: ExperimentConfig, threads: int, estimate: Callable) -> list:
    """``estimate`` of every path of the ensemble, in path order.

    The estimates are made in the task that solved the block, so the
    parent never holds more than one block's states.  ``estimate`` is a
    ``partial`` of a module-level function, so it pickles and the blocks
    can run in a pool; one that does not pickle runs here.
    """
    sim = config.simulation_config()
    blocks = simulate_blocks(sim, threads, partial(_per_path, sim.grid, estimate))
    return [result for _, block in blocks for result in block]


def _cmd_holder(config: ExperimentConfig, section: dict, threads: int) -> tuple[str, str]:
    """estimate structure-function roughness and write holder.json"""
    estimates = _each_path(config, threads, partial(estimate_holder, q=section["q"],
                                                    lags=section.get("lags")))
    payload = {
        "q": float(section["q"]),
        "lags": list(estimates[0].lags),
        "per_path": [
            {"path": i, "exponent": e.exponent, "r_squared": e.r_squared}
            for i, e in enumerate(estimates)
        ],
        "median_exponent": float(np.median([e.exponent for e in estimates])),
    }
    return "holder.json", _json_text(payload)


def _cmd_acf(config: ExperimentConfig, section: dict, threads: int) -> tuple[str, str]:
    """autocorrelation of absolute increments, written to acf.csv"""
    series = _each_path(config, threads, partial(acf_abs_increments, max_lag=section["max_lag"]))
    mean_values = np.mean([s.values for s in series], axis=0)
    lines = ["lag,value"]
    for lag, value in zip(series[0].lags, mean_values):
        lines.append(f"{lag},{_fmt(value)}")
    return "acf.csv", "\n".join(lines) + "\n"


def _cmd_moments(config: ExperimentConfig, section: dict, threads: int) -> tuple[str, str]:
    """Monte Carlo moment table, written to moments.csv"""
    # Each block task keeps its paths' states at the requested nodes only.
    take = partial(np.take, indices=section["nodes"], axis=1)
    blocks = simulate_blocks(config.simulation_config(), threads, take)
    states = np.concatenate([block for _, block in blocks])
    lines = ["node,p,value,std_error"]
    for node, samples in zip(section["nodes"], states.T):
        for p in section["p"]:
            est = sample_moment(samples, p)
            lines.append(f"{node},{_fmt(p)},{_fmt(est.value)},{_fmt(est.std_error)}")
    return "moments.csv", "\n".join(lines) + "\n"


# Each command's handler; its docstring is the command's help text.  A
# handler returns the file it makes, its name and text, and main writes it.
_COMMANDS = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "holder": _cmd_holder,
    "acf": _cmd_acf,
    "moments": _cmd_moments,
}


def _resolve_threads(value: int | None) -> int:
    if value is None:
        env = os.environ.get("SEM_THREADS", "1")
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"SEM_THREADS must be an integer, got {env!r}") from exc
    if value < 1:
        raise ConfigError(f"threads must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semsim",
        description="Simulate and analyze self-exciting multifractional processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--output-dir", default=".", help="directory for output files")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: SEM_THREADS or 1); never changes output bytes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        threads = _resolve_threads(args.threads)
        config = load_config(args.config)
        section = _section(config, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        filename, text = _COMMANDS[args.command](config, section, threads)
        _atomic_write(args.output_dir, filename, text)
        wall = time.monotonic() - started
        manifest = {
            "tool": "semsim",
            "version": __version__,
            "command": args.command,
            "config": config.echo,
            "files": [filename],
            "threads": threads,
            # Whether refinement coupling is bit-exact on the base grid: its
            # node products are exact (TimeGrid.has_exact_nodes).
            "exact_nodes": config.simulation_config().grid.has_exact_nodes,
            "wall_seconds": wall,
            "seed_rule": SEED_RULE,
            # The data bits depend on the numpy build and on the SIMD
            # targets it dispatches to on the running CPU.
            "numpy": {"version": np.__version__,
                      "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"]},
        }
        _atomic_write(args.output_dir, "manifest.json", _json_text(manifest))
        print(f"{args.command}: wrote {filename} and manifest.json "
              f"to {args.output_dir} in {wall:.2f}s")
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
