"""Exact second moments of the scheme where it is linear in its increments.

For a constant Hurst value ``h`` and no dampening, the left-point scheme
is ``X[k] = sum_{i < k} t[k - i]**(h - 1/2) dB[i]``, with ``X[0] = 0``.
Every state is then a fixed linear combination of the Brownian increments,
and every covariance of states is an exact finite sum of products of the
weights times the variance ``dt`` of one increment.
"""

import numpy as np


def scheme_weights(grid, h: float, stride: int = 1) -> np.ndarray:
    """The weights of the scheme on ``grid`` over increments ``stride`` times finer.

    Row ``k`` of the ``(N + 1, N * stride)`` result holds ``C[k, j]``, with
    ``X[k] = sum_j C[k, j] dW[j]`` when the scheme on ``grid`` is driven by
    the exact block sums of the increments ``dW`` of the grid refined
    ``stride`` times.  Fine interval ``j`` lies in interval ``j // stride``
    of ``grid``, so ``C[k, j] = t[k - j // stride]**(h - 1/2)`` when
    ``j // stride < k``, and 0 otherwise.
    """
    k = np.arange(grid.steps + 1)[:, None]
    i = np.arange(grid.steps * stride)[None, :] // stride
    # Lags below 1 are masked out; reading them at 1 keeps 0**(h - 1/2) away.
    return np.where(i < k, grid.nodes[np.maximum(k - i, 1)] ** (h - 0.5), 0.0)
