"""Evaluators that fail once the state leaves a range, shared by the engine and analysis tests.

They live in a module of their own, as ``_scans`` does, so that they pickle
by reference and a process pool can run the tests' blocks.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NanPastThreshold:
    """Returns ``value``, or NaN where ``|x|`` exceeds ``threshold``."""

    value: float
    threshold: float

    def __call__(self, t, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(np.abs(x) > self.threshold, np.nan, self.value)


@dataclass(frozen=True)
class RaisingPastThreshold:
    """Returns ``value``, or raises once any ``|x|`` exceeds ``threshold``."""

    value: float
    threshold: float

    def __call__(self, t, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(np.abs(x) > self.threshold):
            raise FloatingPointError("state out of the evaluator's domain")
        return np.full(x.shape, self.value)
