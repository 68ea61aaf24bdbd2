"""Per-layer tracing of one semsim CLI process, installed from outside.

The layers are semsim's modules.  :func:`install` wraps every public
function of each module, the two ``evaluate`` methods of the model's
function classes and the CLI's command handlers, and rebinds every
reference to an original function in every semsim module namespace, so
calls made through names imported across modules are caught too.  Nothing
in semsim is edited.

Spans are kept in memory and aggregated per function as they close:
calls, inclusive seconds, self seconds (inclusive minus the time covered
by traced child spans) and, for the ``evaluate`` methods, the number of
state values evaluated.  Calls made inside pool workers are not seen: the
workers are separate processes.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("randomness", "model", "kernels", "engine", "analysis", "special", "cli")


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, inclusive_s, self_s, values]
        self.stats: dict[str, list] = {}
        self._open: list[list[float]] = []
        self.pool_tasks = 0
        self.pool_payload_bytes = 0

    def wrap(self, name: str, fn, values=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if values is not None:
                    stats[3] += values(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        payload = {"functions": self.stats, "pool_tasks": self.pool_tasks,
                   "pool_payload_bytes": self.pool_payload_bytes}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def reset(self) -> None:
        """Clear the aggregates in place; the wrappers hold references to them."""
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0, 0]
        self.pool_tasks = 0
        self.pool_payload_bytes = 0


def _state_values(self, t, x):
    return int(np.size(x))


def install() -> Tracer:
    """Wrap semsim's layer boundaries in this process; return the tracer."""
    from semsim import cli, model

    tracer = Tracer()
    layers = {layer: sys.modules[f"semsim.{layer}"] for layer in LAYERS}
    wrapped = {}
    for layer, module in layers.items():
        names = list(getattr(module, "__all__", []))
        if layer == "cli":
            names += ["main", "load_config", "parse_config", "_atomic_write"]
            names += [fn.__name__ for fn in cli._COMMANDS.values()]
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrapped[fn] = tracer.wrap(f"{layer}.{name}", fn)
    for module in [*layers.values(), sys.modules["semsim"]]:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, name, wrapped[value])
    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = wrapped.get(fn, fn)

    model.HurstFunction.evaluate = tracer.wrap(
        "model.HurstFunction.evaluate", model.HurstFunction.evaluate, _state_values)
    model.DampeningFunction.evaluate = tracer.wrap(
        "model.DampeningFunction.evaluate", model.DampeningFunction.evaluate, _state_values)

    submit = concurrent.futures.ProcessPoolExecutor.submit

    @functools.wraps(submit)
    def counted_submit(pool, fn, /, *args, **kwargs):
        tracer.pool_tasks += 1
        tracer.pool_payload_bytes += sum(len(a) for a in args if isinstance(a, bytes))
        return submit(pool, fn, *args, **kwargs)

    concurrent.futures.ProcessPoolExecutor.submit = counted_submit
    return tracer
