"""Tests of the helper scripts under ``scripts/``."""

import importlib.util
import json
from pathlib import Path


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_line_count_drops_docstrings_comments_and_blank_lines():
    source = '"""A module docstring\nover two lines."""\n# a comment\n\nx = 1  # trailing\ny = x\n'
    assert _script("count_code_lines").count_code_lines(source) == 2


def test_code_line_report_totals_the_package_tests_and_scripts(tmp_path, capsys):
    files = {"src/semsim/a.py": "x = 1\n", "tests/test_a.py": "x = 1\ny = 2\n",
             "scripts/tool.py": '"""Doc."""\nx = 1\ny = 2\nz = 3\n'}
    for name, source in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    assert _script("count_code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  a                 1", "src/semsim        1", "tests/            2", "scripts/          3",
    ]


_PLAIN = {"process": "sem", "hurst": {"name": "constant", "params": [0.7]},
          "T": 1.0, "N": 32, "seed": 7, "n_paths": 2}


def _run_examples(tmp_path, configs, *args):
    """Write ``configs`` (file stem to JSON object) to a directory and run the script on it."""
    directory = tmp_path / "configs"
    directory.mkdir()
    for stem, raw in configs.items():
        (directory / f"{stem}.json").write_text(json.dumps(raw))
    return _script("run_examples").main(
        ["--configs", str(directory), "--results", str(tmp_path / "results"), *args]
    )


def test_run_examples_runs_every_config(tmp_path, capsys):
    configs = {"plain": _PLAIN, "with_acf": {**_PLAIN, "acf": {"max_lag": 4}}}
    assert _run_examples(tmp_path, configs, "--threads", "2") == 0
    assert "2/2 configs succeeded" in capsys.readouterr().out
    assert (tmp_path / "results" / "plain" / "paths.csv").is_file()
    assert (tmp_path / "results" / "with_acf" / "acf.csv").is_file()


def test_run_examples_reports_a_failing_config(tmp_path, capsys):
    assert _run_examples(tmp_path, {"broken": {**_PLAIN, "unknown_key": 1}}) == 1
    assert "broken.json: exit 2" in capsys.readouterr().err


def test_run_examples_needs_a_config(tmp_path):
    assert _run_examples(tmp_path, {}) == 1
