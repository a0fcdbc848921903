"""A continuous surjection nu_n from the cube I_n = [-1,1]^n onto the ordered
simplex Delta_n, built so that the antipodal map on the cube corresponds to a
sign flip of the alternating-sum map on the simplex.

Recursive construction: nu_1(x) = x; on the top face (x_n = +1) the map is
(1, nu_{n-1}(xbar)) and on the bottom face (x_n = -1) it is
(nu_{n-1}(-xbar), -1). In between, the vertical segment over xbar is split
into n equal sections whose n+1 endpoint vectors blend the two face images
coordinate by coordinate: endpoint i takes the top-face value where i < j,
the bottom-face value where i > j, and on the diagonal the median
m_j = median(top_j, bottom_{j-1}, bottom_j) (with m_1 = top_1); the map is
linear within each section.

Evaluating nu(x) and nu(-x) together makes the recursion O(n^2) per point —
each level needs exactly the pair from the level below.
"""

import numpy as np

from ..errors import DomainError
from ..sets import as_set_rows


def _median3(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _blend(top, bottom, s, n):
    """Piecewise-linear vertical interpolation between the endpoint vectors."""
    med = np.empty_like(top)
    med[:, 0] = top[:, 0]
    if n > 1:
        med[:, 1:] = _median3(top[:, 1:], bottom[:, :-1], bottom[:, 1:])

    sec = np.clip(np.floor(s * n), 0.0, n - 1.0)
    frac = s * n - sec
    i0 = sec[:, None]  # 0-based index of the lower endpoint vector
    j = np.arange(n)[None, :]

    v_lo = np.where(i0 < j, top, np.where(i0 == j, med, bottom))
    v_hi = np.where(i0 + 1 < j, top, np.where(i0 + 1 == j, med, bottom))
    frac = frac[:, None]
    return (1.0 - frac) * v_lo + frac * v_hi


def nu_pair_batch(X):
    """(nu(x), nu(-x)) for every row of X, shape (n_points, n) each."""
    X = as_set_rows(np.atleast_2d(X))
    return _pair_recursion(X)


def _pair_recursion(X):
    b, n = X.shape
    if n == 1:
        return X.copy(), -X
    a_bar, b_bar = _pair_recursion(X[:, :-1])  # nu(xbar), nu(-xbar)
    ones = np.ones((b, 1))

    top_pos = np.concatenate([ones, a_bar], axis=1)
    bottom_pos = np.concatenate([b_bar, -ones], axis=1)
    s_pos = (1.0 - X[:, -1]) / 2.0

    top_neg = np.concatenate([ones, b_bar], axis=1)
    bottom_neg = np.concatenate([a_bar, -ones], axis=1)
    s_neg = (1.0 + X[:, -1]) / 2.0

    return _blend(top_pos, bottom_pos, s_pos, n), _blend(top_neg, bottom_neg, s_neg, n)


def nu_batch(X):
    """nu applied to every row of X."""
    return nu_pair_batch(X)[0]


def nu(x):
    """Map one cube point to the ordered simplex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError(f"cube point must be a non-empty 1-D vector, got shape {x.shape}")
    return nu_pair_batch(x[None, :])[0][0]
