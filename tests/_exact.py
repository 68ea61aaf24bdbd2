"""Exact moments of the scheme where it is linear in its increments.

For a constant Hurst value ``h`` and no dampening, the left-point scheme
is ``X[k] = sum_{i < k} t[k - i]**(h - 1/2) dB[i]``, with ``X[0] = 0``;
a constant dampening ``c`` multiplies each weight by ``exp(-c t[k - i])``.
Every state is then a fixed linear combination of the Brownian increments,
and every covariance of states is an exact finite sum of products of the
weights times the variance ``dt`` of one increment.  Every difference of
states is centred Gaussian, so its absolute moments follow from its
variance, and any two differences are jointly Gaussian, so the mean of
the product of their absolute values follows from their covariance.
"""

import math

import numpy as np


def differences_are_distances(grid) -> bool:
    """Whether every node difference ``t[k] - t[i]`` is the node time ``t[k - i]`` bit for bit.

    The solver reads the distance from node ``i`` to node ``k`` as
    ``t[k - i]``; a reference evaluated at ``t[k] - t[i]`` sees the same
    distances exactly when every ``t[i:] - t[i]`` equals ``t[:N + 1 - i]``.
    """
    t = grid.nodes
    return all(np.array_equal(t[i:] - t[i], t[:t.size - i]) for i in range(t.size))


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


def abs_increment_product_sums(grid, h: float, lags, c: float = 0.0) -> np.ndarray:
    """The exact expectations of ``sum_k |dX[k]| |dX[k+m]|`` at each lag ``m`` of ``lags``.

    ``dX[k] = X[k+1] - X[k]`` for the scheme with constant Hurst value
    ``h`` and constant dampening ``c``, whose weights ``C`` are
    :func:`scheme_weights` times ``exp(-c t[k - j])``.  The increments are
    ``D C dW``, with ``D`` the difference operator, so their covariance is
    ``dt (D C)(D C)^T``.  For jointly Gaussian ``(U, V)`` with standard
    deviations ``s_U``, ``s_V`` and correlation ``r``,
    ``E|U||V| = (2/pi) s_U s_V (r arcsin r + sqrt(1 - r**2))``; the sum
    over ``k`` runs over the ``N - m`` pairs.  The cost is O(N**3).
    """
    k = np.arange(grid.steps + 1)[:, None]
    j = np.arange(grid.steps)[None, :]
    weights = scheme_weights(grid, h) * np.exp(-c * grid.nodes[np.maximum(k - j, 1)])
    increments = np.diff(weights, axis=0)
    cov = grid.dt * (increments @ increments.T)
    sd = np.sqrt(np.diagonal(cov))
    sums = []
    for m in lags:
        scale = sd[:grid.steps - m] * sd[m:]
        rho = np.clip(np.diagonal(cov, m) / scale, -1.0, 1.0)
        sums.append(2.0 / math.pi * np.sum(scale * (rho * np.arcsin(rho) + np.sqrt(1.0 - rho * rho))))
    return np.array(sums)
