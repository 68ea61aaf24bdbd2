"""The package's public names: each module's ``__all__``, re-exported once."""

import ast
import pathlib

import semsim
from semsim import analysis, engine, kernels, model, randomness, special

MODULES = (randomness, model, kernels, special, engine, analysis)


def test_package_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(semsim.__all__) == sorted(["__version__", *names])


def test_every_public_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(semsim, name) is getattr(module, name), (module.__name__, name)



def _engine_imports(source: str):
    """The names a module's source imports from the engine, relatively or absolutely."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == "engine")
            or (node.level == 0 and node.module == "semsim.engine")
        ):
            yield from (alias.name for alias in node.names)


def test_engine_imports_are_parsed():
    source = "from .engine import a\nfrom semsim.engine import b\nfrom .model import c\n"
    assert list(_engine_imports(source)) == ["a", "b"]


def test_engine_privates_stay_in_the_engine():
    # Every other module reaches the engine through its public names only,
    # so the engine can change its privates without breaking a caller.
    public = {*engine.__all__, "*"}
    imported = [
        (path.name, name)
        for path in sorted(pathlib.Path(semsim.__file__).parent.glob("*.py"))
        if path.stem != "engine"
        for name in _engine_imports(path.read_text())
    ]
    assert [pair for pair in imported if pair[1] not in public] == []
    assert ("analysis.py", "run_blocks") in imported
