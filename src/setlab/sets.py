"""Canonical set inputs, the ordered simplex, its opposing faces, and the
alternating hard target f*.

A "set" of M reals is carried as an ordered vector; permutation invariance is
enforced by sorting at API boundaries. Multisets (repeated values) are allowed
everywhere — the face constructions require them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError

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
    if not np.all(np.isfinite(values)):
        raise DomainError("set input contains non-finite entries")
    if np.any(np.abs(values) > 1.0 + TOL):
        worst = float(np.max(np.abs(values)))
        raise DomainError(f"set input entries must lie in [-1, 1]; |max| = {worst}")
    return np.clip(values, -1.0, 1.0)


def canonicalize(x):
    """Sort a set input descending, the canonical representative of its orbit."""
    return np.sort(as_set_input(x))[::-1].copy()


def as_simplex(z, n=None):
    """Validate a point of the ordered simplex (descending, entries in [-1, 1])."""
    coords = np.asarray(z, dtype=float)
    if coords.ndim != 1 or coords.size == 0:
        raise DomainError(f"simplex point must be a non-empty 1-D vector, got shape {coords.shape}")
    if n is not None and coords.size != n:
        raise DomainError(f"expected a {n}-dimensional simplex point, got {coords.size}")
    if not np.all(np.isfinite(coords)):
        raise DomainError("simplex point contains non-finite entries")
    if np.any(np.abs(coords) > 1.0 + TOL):
        raise DomainError("simplex point entries must lie in [-1, 1]")
    if np.any(np.diff(coords) > TOL):
        raise DomainError(f"simplex point must be descending: {coords}")
    coords = np.clip(coords, -1.0, 1.0)
    # repair sub-tolerance inversions so downstream equality patterns are clean
    return np.minimum.accumulate(coords)


def f_star(x):
    """Alternating hard target: +-1 weights on the descending sort, bias -1
    for even M and 0 for odd M. Bounded in [-1, 1] and affine on the simplex.

    Summation is exact (fsum), so the face values +1/-1 are hit bit-exactly.
    """
    u = canonicalize(x)
    m = u.size
    terms = [u[i] if i % 2 == 0 else -u[i] for i in range(m)]
    if m % 2 == 0:
        terms.append(-1.0)
    return math.fsum(terms)


@dataclass(frozen=True)
class FacePoint:
    """A point on one of the two opposing faces of the ordered simplex.

    face=+1: x_1 = 1 and even-numbered ties (x_2=x_3, x_4=x_5, ...; x_M=-1 for
    even M). face=-1: odd-numbered ties (x_1=x_2, x_3=x_4, ...; x_M=-1 for odd
    M). f* is +1 on the former and -1 on the latter.
    """

    values: np.ndarray
    face: int

    def __post_init__(self):
        if self.face not in (+1, -1):
            raise DomainError(f"face tag must be +1 or -1, got {self.face}")
        object.__setattr__(self, "values", as_simplex(self.values))
        err = face_residual(self.values, self.face)
        if err > TOL:
            raise DomainError(f"face {self.face:+d} equality pattern violated by {err}")


def face_residual(values, face):
    """Largest violation of the face equality pattern (0 for exact members)."""
    v = np.asarray(values, dtype=float)
    m = v.size
    err = 0.0
    if face == +1:
        err = max(err, abs(v[0] - 1.0))
        for i in range(1, m - 1, 2):  # 0-based pairs (1,2), (3,4), ...
            err = max(err, abs(v[i] - v[i + 1]))
        if m % 2 == 0:
            err = max(err, abs(v[m - 1] + 1.0))
    else:
        for i in range(0, m - 1, 2):  # 0-based pairs (0,1), (2,3), ...
            err = max(err, abs(v[i] - v[i + 1]))
        if m % 2 == 1:
            err = max(err, abs(v[m - 1] + 1.0))
    return err


def build_face_pair(z, M=None):
    """Lift a point z of the N-simplex to the pair (x+, x-) on the opposing
    faces of the (N+1)-simplex: even-indexed coordinates of z fill the tied
    pairs of x+, odd-indexed ones fill those of x-, and the remaining
    coordinates are forced by the face patterns (x+_1 = 1, trailing -1).

    The pair satisfies f_star(x+) = 1 and f_star(x-) = -1 exactly, and its
    encodings under any elementwise sum map differ by exactly twice the
    alternating-sum map of z (the collision engine relies on this).
    """
    z = as_simplex(z)
    n = z.size
    if M is None:
        M = n + 1
    if M != n + 1:
        raise SizeError(f"face pair requires M = N+1; got N={n}, M={M}")

    plus = np.empty(M)
    plus[0] = 1.0
    for i1 in range(2, n + 1, 2):  # 1-based even positions of z
        plus[i1 - 1] = plus[i1] = z[i1 - 1]
    if M % 2 == 0:
        plus[M - 1] = -1.0

    minus = np.empty(M)
    for i1 in range(1, n + 1, 2):  # 1-based odd positions of z
        minus[i1 - 1] = minus[i1] = z[i1 - 1]
    if M % 2 == 1:
        minus[M - 1] = -1.0

    return FacePoint(plus, +1), FacePoint(minus, -1)
