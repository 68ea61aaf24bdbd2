"""Exact moments of the scheme where it is linear in its increments.

For a constant Hurst value ``h`` and no dampening, the left-point scheme
is ``X[k] = sum_{i < k} t[k - i]**(h - 1/2) dB[i]``, with ``X[0] = 0``.
Every state is then a fixed linear combination of the Brownian increments,
and every covariance of states is an exact finite sum of products of the
weights times the variance ``dt`` of one increment.  Every difference of
states is centred Gaussian, so its absolute moments follow from its
variance.
"""

import math

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


def structure_function_mean(grid, h: float, q: float, lag: int) -> float:
    """The exact expectation of ``S(m) = mean_k |X[k+m] - X[k]|**q`` at lag ``m``.

    With ``K_l = t[l + 1]**(h - 1/2)``, the increment ``X[k+m] - X[k]`` is
    centred Gaussian with variance
    ``dt * (sum_{l<m} K_l**2 + sum_{l<k} (K_{l+m} - K_l)**2)``, and a
    centred Gaussian of standard deviation ``s`` has
    ``E|Y|**q = s**q * 2**(q/2) * Gamma((q + 1)/2) / sqrt(pi)``.  The
    variances of every ``k`` come from one cumulative sum, so the cost is
    O(N) per lag rather than the dense weights' O(N**2).
    """
    kernel = grid.nodes[1:] ** (h - 0.5)
    n_pairs = grid.steps + 1 - lag
    gaps = np.concatenate(([0.0], np.cumsum((kernel[lag:] - kernel[:-lag]) ** 2)))
    variance = grid.dt * (np.sum(kernel[:lag] ** 2) + gaps[:n_pairs])
    gaussian = 2.0 ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi)
    return float(gaussian * np.mean(variance ** (q / 2)))
