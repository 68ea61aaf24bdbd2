"""Child processes of the benchmark: a command server and a set-up probe.

    python3 perfbench/child.py --serve [--trace]
    python3 perfbench/child.py --setup CONFIG.json

``--serve`` runs semsim CLI commands in this interpreter, one per line of
standard input, each line a JSON object ``{"args": [...], "trace": PATH or
null}``.  For each it writes one JSON line to standard output with the
exit code, the command's wall seconds, its CPU seconds (this process and
the pool workers it reaped) and what the command printed.  With
``--trace`` the per-layer tracer is installed first; each command's
aggregates are written to its ``trace`` path and then cleared.  A line
``{"calibrate": K}`` runs :func:`calibrate` instead and replies with its
wall and CPU seconds, ``{"cal_s": ..., "cal_cpu_s": ...}``.

``--setup`` imports semsim, parses the config and prints
``time.monotonic()`` at that point, so the parent can time fresh
interpreter to parsed config.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _calibration_pass(np, rng) -> int:
    # Row loops over short arrays, one Python-level function per row, as in
    # the engine with a state-dependent Hurst function.
    n = 128
    t = np.linspace(0.0, 1.0, n + 1)
    for _ in range(3):
        dB = rng.standard_normal(n) * 0.05
        x = np.zeros(n + 1)
        for k in range(1, n + 1):
            h = np.clip(0.6 + 0.2 * np.sin(x[:k]), 0.4, 0.8)
            x[k] = np.dot(np.power(t[k] - t[:k], h - 0.5), dB[:k])
    # Long rows: elementwise power, exp and cumsum.
    n = 1536
    t = np.linspace(0.0, 10.0, n + 1)
    dB = rng.standard_normal(n) * 0.05
    x = np.zeros(n + 2)
    for k in range(1, n + 1, 2):
        s = t[k] - t[:k]
        h = 1.0 / (1.0 + x[:k] * x[:k])
        x[k] = x[k + 1] = np.cumsum(np.power(s, h - 0.5) * np.exp(-h * s) * dB[:k])[-1]
    # One repr per value, as CSV output does.
    return sum(len(",".join(map(repr, rng.standard_normal(1000).tolist()))) for _ in range(20))


def calibration_task() -> int:
    """Fixed work with semsim's mix of code; it shares no code with semsim."""
    import numpy as np

    rng = np.random.default_rng(20261017)
    return sum(_calibration_pass(np, rng) for _ in range(3))


def calibrate(processes: int) -> tuple[float, float]:
    """Wall and CPU seconds of :func:`calibration_task` in ``processes`` processes at once."""
    cpu = _cpu_s()
    started = time.monotonic()
    children = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            calibration_task()
            os._exit(0)
        children.append(pid)
    calibration_task()
    for pid in children:
        os.waitpid(pid, 0)
    return time.monotonic() - started, _cpu_s() - cpu


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def serve(traced: bool) -> int:
    from semsim import cli

    active = None
    if traced:
        import tracer

        active = tracer.install()
    replies = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if "calibrate" in request:
            wall, cpu = calibrate(request["calibrate"])
            replies.write(json.dumps({"cal_s": wall, "cal_cpu_s": cpu}) + "\n")
            replies.flush()
            continue
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            cpu = _cpu_s()
            started = time.monotonic()
            code = cli.main(request["args"])
            wall = time.monotonic() - started
            cpu = _cpu_s() - cpu
        if active is not None:
            active.dump(request["trace"])
            active.reset()
        replies.write(json.dumps({"code": code, "wall_s": wall, "cpu_s": cpu,
                                  "printed": printed.getvalue()}) + "\n")
        replies.flush()
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        import semsim  # noqa: F401  (the import is what is being timed)
        from semsim import cli

        cli.load_config(argv[1])
        print(repr(time.monotonic()), flush=True)
        return 0
    if argv[:1] == ["--serve"]:
        return serve(argv[1:] == ["--trace"])
    print("usage: child.py --serve [--trace] | --setup CONFIG.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
