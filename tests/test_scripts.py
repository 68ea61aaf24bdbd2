"""Tests of the helper scripts under ``scripts/``."""

import importlib.util
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
