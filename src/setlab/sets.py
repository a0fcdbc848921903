"""Canonical set inputs, the ordered simplex, its opposing faces, and the
alternating hard target f*.

A "set" of M reals is carried as an ordered vector; permutation invariance is
enforced by sorting at API boundaries. Multisets (repeated values) are allowed
everywhere — the face constructions require them.
"""

import math

import numpy as np

from .errors import DomainError

# Absolute tolerance for domain / simplex / face membership. Inputs violating
# a constraint by no more than this are clamped; larger violations are errors.
TOL = 1e-12


def as_set_input(x):
    """Validate a set input: finite entries, each in [-1, 1] within TOL.

    Returns a float64 copy with within-tolerance values clamped to [-1, 1].
    """
    values = np.asarray(x, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError(f"set input must be a non-empty 1-D vector, got shape {values.shape}")
    return as_set_rows(values[None, :])[0]


def as_set_rows(X):
    """as_set_input on every row of X (n, M), with the same errors."""
    values = np.asarray(X, dtype=float)
    if values.ndim != 2 or values.shape[1] == 0:
        raise DomainError(f"set rows must be a 2-D array of non-empty rows, got shape {values.shape}")
    if not (np.abs(values) <= 1.0 + TOL).all():  # one test: NaN fails it too
        if not np.isfinite(values).all():
            raise DomainError("set input contains non-finite entries")
        worst = float(np.max(np.abs(values)))
        raise DomainError(f"set input entries must lie in [-1, 1]; |max| = {worst}")
    return np.clip(values, -1.0, 1.0)


def canonicalize(x):
    """Sort a set input descending, the canonical representative of its orbit."""
    return np.sort(as_set_input(x))[::-1].copy()


def as_simplex(z):
    """Validate a point of the ordered simplex (descending, entries in [-1, 1])."""
    coords = np.asarray(z, dtype=float)
    if coords.ndim != 1 or coords.size == 0:
        raise DomainError(f"simplex point must be a non-empty 1-D vector, got shape {coords.shape}")
    return as_simplex_rows(coords[None, :])[0]


def as_simplex_rows(Z):
    """as_simplex on every row of Z (n, N), with as_set_rows' domain errors."""
    raw = np.asarray(Z, dtype=float)
    coords = as_set_rows(raw)
    rising = np.any(np.diff(raw, axis=1) > TOL, axis=1)
    if rising.any():
        raise DomainError(f"simplex point must be descending: {raw[np.argmax(rising)]}")
    # repair sub-tolerance inversions so downstream equality patterns are clean
    return np.minimum.accumulate(coords, axis=1)


def f_star(x):
    """Alternating hard target: +-1 weights on the descending sort, bias -1
    for even M and 0 for odd M. Bounded in [-1, 1] and affine on the simplex.

    Summation is exact (fsum), so the face values +1/-1 are hit bit-exactly.
    """
    return float(f_star_batch(as_set_input(x)[None, :])[0])


def f_star_batch(X):
    """f_star on every row of X (n, M); row i equals f_star(X[i]) bit for bit."""
    U = np.sort(as_set_rows(X), axis=1)[:, ::-1]
    m = U.shape[1]
    bias = [-1.0] if m % 2 == 0 else []
    signed = U * (-1.0) ** np.arange(m)
    return np.array([math.fsum(row + bias) for row in signed.tolist()])


def face_residual_batch(V, face):
    """Largest violation, on every row of V (n, M), of face +1's pattern (x_1 = 1,
    ties x_2=x_3, x_4=x_5, ...) or of face -1's (ties x_1=x_2, x_3=x_4, ...); an
    x_M left out of the ties must be -1. 0 for exact members of the face."""
    V = as_set_rows(V)
    m, first = V.shape[1], int(face == +1)  # ties start at x_2 on face +1, at x_1 on face -1
    parts = [V[:, first : m - 1 : 2] - V[:, first + 1 : m : 2], V[:, :first] - 1.0]
    if (m - first) % 2 == 1:  # a last coordinate left out of the ties must be -1
        parts.append(V[:, m - 1 :] + 1.0)
    return np.max(np.abs(np.concatenate(parts, axis=1)), axis=1)


def build_face_pair(z):
    """Lift a point z of the N-simplex to the pair (x+, x-) on the opposing
    faces of the (N+1)-simplex: even-indexed coordinates of z fill the tied
    pairs of x+, odd-indexed ones fill those of x-, and the remaining
    coordinates are forced by the face patterns (x+_1 = 1, trailing -1).

    The pair satisfies f_star(x+) = 1 and f_star(x-) = -1 exactly, and its
    encodings under any elementwise sum map differ by exactly twice the
    alternating-sum map of z (the collision engine relies on this).
    """
    plus, minus = build_face_pair_batch(as_simplex(z)[None, :])
    return plus[0], minus[0]


def build_face_pair_batch(Z):
    """build_face_pair on every row of Z (n, N): the values of x+ and of x-,
    two (n, N+1) arrays whose rows equal build_face_pair(Z[i]) bit for bit."""
    Z = as_simplex_rows(Z)
    M = Z.shape[1] + 1
    plus, minus = np.empty((Z.shape[0], M)), np.empty((Z.shape[0], M))
    plus[:, 0] = 1.0
    plus[:, 1 : M - 1 : 2] = plus[:, 2:M:2] = Z[:, 1::2]  # 1-based even positions of z
    minus[:, 0 : M - 1 : 2] = minus[:, 1:M:2] = Z[:, 0::2]  # 1-based odd positions
    (plus if M % 2 == 0 else minus)[:, M - 1] = -1.0  # the face whose ties leave x_M out
    return plus, minus
