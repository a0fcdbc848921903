"""Smooth maximum via log-sum-exp pooling.

lse_max(x, a) = max(x) + log(sum_i exp(a*(x_i - max)))/a is an exact
sum-decomposition of a smooth max surrogate: it brackets the true maximum
within log(M)/a from above, with equality exactly at all-equal inputs.
"""

import numpy as np

from ..errors import DomainError
from ..sets import as_set_input, as_set_rows


def lse_max(x, a):
    """(1/a) log(sum exp(a x_i)), evaluated with the max-shift trick."""
    return float(lse_max_batch(as_set_input(x)[None, :], a)[0])


def lse_max_batch(X, a):
    """lse_max on every row of X (n, M), with one sharpness a or one per row;
    row i equals lse_max(X[i], a_i) bit for bit."""
    X = as_set_rows(X)
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size not in (1, X.shape[0]) or not np.all((a > 0.0) & (a < np.inf)):
        raise DomainError(f"sharpness must be one positive finite number or one per row, got {a}")
    m = np.max(X, axis=1)
    return m + np.log(np.sum(np.exp(a[:, None] * (X - m[:, None])), axis=1)) / a
