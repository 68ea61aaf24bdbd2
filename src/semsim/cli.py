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

Every float is written as ``repr`` writes it: the shortest decimal that
reads back as the same double, the closest such one to it.  ``paths.csv``
holds about a hundred thousand of them per block, so :func:`_csv_fields`
makes their bytes with numpy instead of one ``repr`` call each.  It
computes the digits with Schubfach's integer arithmetic (R. Giulietti,
"The Schubfach way to render doubles", 2020), which finds the same
decimal, and lays them out in the fixed notation ``repr`` uses for
``1e-4 <= |x| < 1e16``.  Every other value, zeros and values ``repr``
writes with an exponent, is passed to ``repr`` itself.  The arithmetic is
on integers, so the bytes depend on no SIMD class; the tests compare them
with ``repr`` byte for byte.
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


# The shortest-digits kernel of _csv_fields.  Every uint64 array meets
# np.uint64 operands only: a Python int would be a signed one under numpy's
# older promotion rules, and uint64 with int64 promotes to float64.
_U64 = np.uint64
_M32, _M63 = _U64(2 ** 32 - 1), _U64(2 ** 63 - 1)
# repr writes |x| in [1e-4, 1e16) in fixed notation, and the kernel covers
# exactly these values.
_FIXED = (1e-4, 1e16)
# Values formatted per call of _fields; its buffers are a few hundred kB.
_CHUNK = 4096
# Bytes per value: up to 24 characters, the separator at column 25.
_WIDTH = 28


def _schubfach_table() -> tuple[int, np.ndarray]:
    """The lowest biased exponent of the fixed range, and one table row per rounding case.

    Row ``2 (E - E_lo) + irregular`` serves the doubles of biased exponent
    ``E``, ``irregular`` when the mantissa bits are all zero, where the
    rounding interval is closer below.  It holds, for ``x = c 2**q`` and
    ``k = floor(log10(2**q))`` (of ``3/4 2**q`` when irregular), as
    Giulietti's section 9 names them: ``h + 2``, the shift that makes ``c
    << (h + 2)`` the scaled centre of the interval; the 32-bit halves of
    ``g1`` and ``g0``, where ``g = g1 2**63 + g0 = floor(10**-k 2**(125 -
    floor(log2 10**-k))) + 1``; ``g`` times the half-width of the
    interval above and below, as the bits at and above 127, the 63 bits
    under them and the low 64 bits; and ``k`` modulo ``2**64``.  Every
    ``k`` of the range is at most 0, so ``10**-k`` is an integer.
    """
    lowest = int(np.float64(_FIXED[0]).view(_U64)) >> 52
    highest = int(np.nextafter(_FIXED[1], 0.0).view(_U64)) >> 52

    def words(v: int) -> list[int]:
        return [v >> 127, (v >> 64) & (2 ** 63 - 1), v & (2 ** 64 - 1)]

    rows = []
    for biased in range(lowest, highest + 1):
        q = biased - 1075
        for irregular in (0, 1):
            k = (q * 1262611 - 524031 * irregular) >> 22
            log2_pow10 = (-k * 1741647) >> 19
            g = (10 ** -k << (125 - log2_pow10)) + 1
            h = q + log2_pow10 + 2
            g1, g0 = g >> 63, g & (2 ** 63 - 1)
            rows.append([h + 2, g1 & (2 ** 32 - 1), g1 >> 32, g0 & (2 ** 32 - 1), g0 >> 32,
                         *words(g << (h + 1)), *words(g << (h + 1 - irregular)), k % 2 ** 64])
    return lowest, np.array(rows, dtype=_U64)


_E_LO, _SCHUBFACH = _schubfach_table()
# _ALIGN[n] scales a significand of n = 15, 16 or 17 digits to 17.
_ALIGN = np.array([0] * 15 + [100, 10, 1], dtype=_U64)
# "0000" to "9999", four ASCII digits to a uint32.
_DIGITS4 = np.ascontiguousarray(
    np.moveaxis(np.indices((10,) * 4, np.uint8) + np.uint8(ord("0")), 0, -1)).view(np.uint32).ravel()
# _SHIFT[p] marks the columns (p, 24] of a row, which move one byte right
# to open column p for the point; _KEEP[32 lo + hi] marks a field's
# columns [lo, hi) and its separator.
_COLUMNS = np.arange(_WIDTH)
_SHIFT = ((_COLUMNS > np.arange(25)[:, None]) & (_COLUMNS <= 24)).astype(np.uint8)
_KEEP = ((_COLUMNS >= np.arange(32)[:, None, None]) & (_COLUMNS < np.arange(32)[:, None])
         | (_COLUMNS == 25)).reshape(-1, _WIDTH)


def _shortest_digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, k)``: the decimal ``d 10**k`` that ``repr`` writes for each double of ``ax``.

    ``ax`` holds positive doubles in the fixed range.  ``d`` is the
    shortest significand that reads back as the double, the closest such
    one, an even one on a tie, and has 15 to 17 digits, trailing zeros
    included.  This is Giulietti's figure 9 with the skeleton of his
    figure 7, as in Java's ``DoubleToDecimal``: three products of ``g``
    with a scaled endpoint or centre of the rounding interval, each
    rounded to odd to the bits at and above 127.  The endpoints differ
    from the centre by ``g`` shifted, tabled per row, so one 126 by
    60-bit product in 32-bit limbs serves all three.
    """
    bits = ax.view(_U64)
    t = bits & _U64(2 ** 52 - 1)
    c = t | _U64(2 ** 52)
    row = (((bits >> _U64(52)) - _U64(_E_LO)) << _U64(1)).astype(np.intp) + (t == 0)
    h2, g1l, g1h, g0l, g0h, up_hi, up_mid, up_lo, dn_hi, dn_mid, dn_lo, k = \
        np.take(_SCHUBFACH, row, axis=0).T
    # The centre times g: y 2**63 + x, with y = g1 cb and x = g0 cb.
    cb = c << h2
    b0, b1 = cb & _M32, cb >> _U64(32)
    p = g0l * b0
    mid = (p >> _U64(32)) + g0l * b1 + g0h * b0
    x0, x1 = (mid << _U64(32)) | (p & _M32), g0h * b1 + (mid >> _U64(32))
    p = g1l * b0
    mid = (p >> _U64(32)) + g1l * b1 + g1h * b0
    y0, y1 = (mid << _U64(32)) | (p & _M32), g1h * b1 + (mid >> _U64(32))
    # Its bits at and above 127, the 63 under them and the low 64.
    lo = x0 + (y0 << _U64(63))
    mid = x1 + (y0 >> _U64(1)) + (lo < x0)
    hi, mid = y1 + (mid >> _U64(63)), mid & _M63
    # Rounded to odd: the low bit set when any of the 63 is.
    vb = hi | (mid != 0)
    # The endpoints': the centre's product plus and minus g times the
    # half-widths, the low words' carry and borrow taken into the middle.
    m = mid + up_mid + (lo > ~up_lo)
    vbr = (hi + up_hi + (m >> _U64(63))) | ((m & _M63) != 0)
    m = mid - dn_mid - (lo < dn_lo)
    vbl = (hi - dn_hi - (m >> _U64(63))) | ((m & _M63) != 0)
    # The interval's endpoints belong to it when c is even.
    odd = c & _U64(1)
    lower, upper = vbl + odd, vbr - odd
    # The candidates one digit shorter, u' = 10 sp and w' = u' + 10, and
    # those at full length, u = s and w = s + 1, all scaled by 4 as vb is:
    # when just one of a pair lies in the interval, it is the result.
    s = vb >> _U64(2)
    sp = s // _U64(10)
    u4 = sp * _U64(40)
    upin, wpin = lower <= u4, u4 + _U64(40) <= upper
    s4 = s << _U64(2)
    uin, win = lower <= s4, s4 + _U64(4) <= upper
    # vb - 4 s past the midpoint 2, or on it with s odd: vb % 8 in {3, 6, 7}.
    closer = ((_U64(0xC8) >> (vb & _U64(7))) & _U64(1)).astype(bool)
    shorter = upin != wpin
    d = np.where(shorter, sp + wpin, s + (win & (~uin | closer)))
    return d, k.view(np.int64) + shorter


def _divmod(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    # numpy divides uint64 arrays by a scalar much faster than it takes
    # their remainder.
    q = a // b
    return q, a - q * b


def _fields(x: np.ndarray, rows: np.ndarray) -> bytes:
    """The ``repr`` of each value of ``x``, each followed by its separator.

    ``rows`` is a ``(len(x), _WIDTH)`` uint8 buffer whose column 25 holds
    the separators; its other columns are overwritten.  Row ``i`` gets the
    digits of ``x[i]`` in columns 7 to 23 behind seven zeros, then the
    point opened at its position, the sign, and the field's bounds ``[lo,
    hi)``; a value out of the fixed range gets its ``repr`` in columns 0
    to 23 instead.  One boolean mask over the rows compresses them into
    the text.
    """
    n = x.shape[0]
    ax = np.abs(x)
    fixed = (ax >= _FIXED[0]) & (ax < _FIXED[1])
    others = np.flatnonzero(~fixed)
    if others.size:
        ax[others] = 1.0
    d, k = _shortest_digits(ax)
    # The digit count, the position of the point after the first digit
    # (1 for 1.5, 0 for 0.25, -3 for 0.0001) and the digits left-aligned.
    count = 15 + (d >= _U64(10 ** 15)) + (d >= _U64(10 ** 16))
    point = k + count
    digits = d * np.take(_ALIGN, count)
    # The significant digits: the count less the trailing zeros.
    significant = count.copy()
    tail, q = np.arange(n), d
    while tail.size:
        q, r = _divmod(q, _U64(10))
        zero = r == _U64(0)
        tail, q = tail[zero], q[zero]
        significant[tail] -= 1
    # Seven zeros, then the 17 digits, four to a uint32 from the table.
    first, rest = _divmod(digits, _U64(10 ** 16))
    high, low = _divmod(rest, _U64(10 ** 8))
    groups = np.stack([first, *_divmod(high, _U64(10 ** 4)), *_divmod(low, _U64(10 ** 4))])
    words = rows.view(np.uint32)
    words[:, 0] = _DIGITS4[0]
    words[:, 1:6] = np.take(_DIGITS4, groups).T
    flat = rows.reshape(-1)
    # Column 7 + point takes the point; the digits from there move right.
    at = point + 7
    moved = flat[:-1] - flat[1:]
    moved *= np.take(_SHIFT, at, axis=0).reshape(-1)[1:]
    flat[1:] += moved
    starts = np.arange(0, n * _WIDTH, _WIDTH)
    flat[starts + at] = ord(".")
    # One zero before the point when the value is below 1.
    lo = 6 + np.minimum(point, 1)
    negative = np.signbit(x)
    lo -= negative
    flat[(starts + lo)[negative]] = ord("-")
    # At least one digit after the point, as in "2.0".
    hi = 8 + np.maximum(significant, point + 1)
    if others.size:
        text = [repr(v) for v in x[others].tolist()]
        rows[others, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        lo[others] = 0
        hi[others] = [len(v) for v in text]
    return flat[np.take(_KEEP, lo * 32 + hi, axis=0).reshape(-1)].tobytes()


def _csv_fields(block: np.ndarray) -> list[str]:
    """The CSV fields of a block of paths: one comma-joined string per node.

    Each field is ``repr(float(v))`` of the state, byte for byte.  The
    nodes are formatted a few at a time, about ``_CHUNK`` states and at
    least one node, in one buffer allocated per block, whose separator
    column holds a comma after each path but the last, and a newline
    after it; each chunk's text is cut at the newlines.  No Python float
    is made for a value in the fixed range, and ``repr`` runs for the rest
    only.
    """
    n_paths, n_nodes = block.shape
    step = max(1, _CHUNK // n_paths)
    rows = np.empty((step * n_paths, _WIDTH), np.uint8)
    rows[:, 25] = ord(",")
    rows[n_paths - 1::n_paths, 25] = ord("\n")
    fields = []
    for k in range(0, n_nodes, step):
        states = block[:, k:k + step].T.ravel()
        fields += _fields(states, rows[:states.shape[0]]).decode("ascii").split("\n")[:-1]
    return fields


def _cmd_simulate(config: ExperimentConfig, section: dict,
                  threads: int) -> tuple[str, Iterable[str]]:
    """simulate an ensemble and write paths.csv"""
    sim = config.simulation_config()
    t = sim.grid.nodes
    # Each block's task formats its own paths, so the formatting runs in the
    # forked workers too, and every worker formats an equal share of the
    # blocks (engine._block_bounds states the policy).  The parent keeps
    # only the formatted strings, one per node and block, never a Python
    # float per value, and the rows are made as main writes them instead
    # of as one whole text.
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
    parent never holds more than one block's states.  With ``threads >
    1`` the blocks run here and in workers made by ``os.fork``, which
    inherit ``estimate``; only each block's estimates are pickled back,
    in block order.  A platform without ``os.fork`` runs one worker.
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
            # Whether the base grid's node differences equal the solver's
            # distances t[k - i] bit for bit (TimeGrid.has_exact_nodes).
            # Refinement coupling is bit-exact on every grid.
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
