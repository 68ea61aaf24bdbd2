"""Run every example config through the command line front end.

The command for each config is inferred from the analysis section it
carries (converge, holder, acf, moments); configs with none run plain
ensemble simulation.  Outputs land in ``results/<config-name>/``.

Usage::

    python3 scripts/run_examples.py [--configs DIR] [--results DIR] [--threads K]
"""

import argparse
import json
import pathlib
import sys

from semsim.cli import _SECTION_KEYS, main as cli_main


def command_for(raw: dict) -> str:
    return next((name for name in _SECTION_KEYS if name in raw), "simulate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", default="configs", help="directory of *.json configs")
    parser.add_argument("--results", default="results", help="output root directory")
    parser.add_argument("--threads", type=int, default=1, help="worker processes per run")
    args = parser.parse_args(argv)

    config_dir = pathlib.Path(args.configs)
    paths = sorted(config_dir.glob("*.json"))
    if not paths:
        print(f"no configs found in {config_dir}", file=sys.stderr)
        return 1

    failures = 0
    for path in paths:
        raw = json.loads(path.read_text())
        command = command_for(raw)
        out_dir = pathlib.Path(args.results) / path.stem
        code = cli_main([command, "--config", str(path), "--output-dir", str(out_dir),
                         "--threads", str(args.threads)])
        if code != 0:
            print(f"{path.name}: exit {code}", file=sys.stderr)
            failures += 1
    print(f"{len(paths) - failures}/{len(paths)} configs succeeded")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
