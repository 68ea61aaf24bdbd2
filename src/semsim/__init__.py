"""Simulation and analysis toolkit for self-exciting multifractional processes.

The central object is a Volterra process whose kernel exponent is steered
by the path itself through a Hurst function ``h(t, x)``, optionally
dampened by an exponential factor.  The package provides deterministic
Brownian drivers, an Euler-Maruyama engine with bit-exact refinement
coupling, roughness/moment/autocorrelation estimators, comparison kernels
and bounds, and a batch CLI.

Each module's ``__all__`` is its public API; this package re-exports
every one of them.
"""

__version__ = "0.1.0"

from . import analysis, engine, kernels, model, randomness, special
from .analysis import *
from .engine import *
from .kernels import *
from .model import *
from .randomness import *
from .special import *

__all__ = ["__version__", *randomness.__all__, *model.__all__, *kernels.__all__,
           *special.__all__, *engine.__all__, *analysis.__all__]
