"""The package's public names: each module's ``__all__``, re-exported once."""

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

