import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from setlab import DomainError
from setlab.approx import lse_max_batch, nu_pair_batch
from setlab.powersum import power_sum_encode_batch
from setlab.sets import (
    as_set_input,
    as_set_rows,
    as_simplex,
    build_face_pair,
    build_face_pair_batch,
    canonicalize,
    f_star,
    f_star_batch,
    face_residual_batch,
)

unit_floats = st.floats(min_value=-1.0, max_value=1.0)
unit_sets = st.lists(unit_floats, min_size=1, max_size=8)


def test_canonicalize_sorts_descending():
    np.testing.assert_array_equal(canonicalize([0.2, 0.9, 0.4]), [0.9, 0.4, 0.2])


def test_as_set_input_clamps_within_tolerance():
    out = as_set_input([1.0 + 1e-13, -1.0 - 1e-13])
    np.testing.assert_array_equal(out, [1.0, -1.0])


@pytest.mark.parametrize("bad", [[1.1], [-1.000001], [np.nan], [np.inf], [], [[0.1, 0.2]]])
def test_as_set_input_rejects(bad):
    with pytest.raises(DomainError):
        as_set_input(bad)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0.5, np.nan]], "set input contains non-finite entries"),
        ([[0.5, -np.inf]], "set input contains non-finite entries"),
        # a non-finite entry is named first, even beside an out-of-range one
        ([[3.0, 0.5], [np.inf, 0.0]], "set input contains non-finite entries"),
        ([[0.5, -0.25], [1.0 + 2e-12, 0.25]], f"set input entries must lie in [-1, 1]; |max| = {1.0 + 2e-12}"),
        ([[0.5, -3.5]], "set input entries must lie in [-1, 1]; |max| = 3.5"),
        ([0.5, 0.25], "set rows must be a 2-D array of non-empty rows, got shape (2,)"),
        (np.empty((3, 0)), "set rows must be a 2-D array of non-empty rows, got shape (3, 0)"),
    ],
)
def test_as_set_rows_messages(rows, message):
    with pytest.raises(DomainError) as info:
        as_set_rows(rows)
    assert str(info.value) == message


def test_as_set_rows_clamps_and_copies():
    X = np.array([[1.0 + 1e-13, -0.5], [-1.0 - 1e-12, 1.0]])
    out = as_set_rows(X)
    assert out.tolist() == [[1.0, -0.5], [-1.0, 1.0]]
    assert out is not X and X[0, 0] == 1.0 + 1e-13


def test_as_simplex_requires_descending():
    with pytest.raises(DomainError):
        as_simplex([0.1, 0.5])
    with pytest.raises(DomainError):
        build_face_pair_batch([[0.5, 0.1], [0.1, 0.5]])


# every batched set operation validates all of its rows as as_set_rows does
SET_BATCHES = {
    "f_star_batch": f_star_batch,
    "lse_max_batch": lambda X: lse_max_batch(X, 2.0),
    "power_sum_encode_batch": power_sum_encode_batch,
    "build_face_pair_batch": build_face_pair_batch,
    "face_residual_batch": lambda X: face_residual_batch(X, +1),
    "nu_pair_batch": nu_pair_batch,
}
BAD_ROWS = {
    "nan": [[0.5, np.nan]],
    "beyond tolerance": [[0.5, -0.25], [1.0 + 2e-12, 0.25]],
    "out of range": [[2.0, 0.5]],
    "1-D": [0.5, 0.25],
    "zero-width": np.empty((3, 0)),
}


@pytest.mark.parametrize(
    "batch, bad",
    # nu_pair_batch reads a 1-D array as one cube point
    [(b, r) for b in sorted(SET_BATCHES) for r in sorted(BAD_ROWS) if (b, r) != ("nu_pair_batch", "1-D")],
)
def test_set_batches_validate_every_row(batch, bad):
    with pytest.raises(DomainError):
        SET_BATCHES[batch](BAD_ROWS[bad])


def test_as_simplex_repairs_subtolerance_inversions():
    out = as_simplex([0.5, 0.5 + 1e-13])
    assert out[0] == out[1] == 0.5


@given(st.data(), unit_sets)
def test_f_star_permutation_invariant(data, xs):
    perm = data.draw(st.permutations(xs))
    assert f_star(perm) == f_star(xs)


# loop forms of one set at a time: the references the batches must equal bit for bit
def _f_star_loop(x):
    u = np.sort(np.asarray(x, dtype=float))[::-1]
    terms = [u[i] if i % 2 == 0 else -u[i] for i in range(u.size)]
    return math.fsum(terms + [-1.0] * (u.size % 2 == 0))


def _face_residual_loop(v, face):
    m, first = v.size, (1 if face == +1 else 0)
    errs = [abs(v[i] - v[i + 1]) for i in range(first, m - 1, 2)]
    errs += [abs(v[0] - 1.0)] * (face == +1) + [abs(v[m - 1] + 1.0)] * ((m - first) % 2 == 1)
    return max(errs)


def _face_pair_loop(z):
    M = z.size + 1
    plus, minus = np.full(M, -1.0), np.full(M, -1.0)
    plus[0] = 1.0
    for i in range(z.size):  # 0-based odd entries of z tie up in x+, even ones in x-
        (plus if i % 2 else minus)[i : i + 2] = z[i]
    return plus, minus


def _bits(values):
    return [np.float64(v).tobytes() for v in values]


@pytest.mark.parametrize("m", range(1, 9))
def test_f_star_batch_matches_single_sets_bitwise(m):
    rng = np.random.default_rng(m)
    X = rng.uniform(-1.0, 1.0, size=(200, m))  # rows in no particular order
    X[::3, m // 2] = X[::3, 0]  # ties
    X[1::4, 0], X[2::4, -1] = 1.0, -1.0
    X[3::5, (m - 1) // 2] = -0.0
    X[4::6] = rng.choice([-1.0, -0.0, 0.0, 1.0, 0.5], size=X[4::6].shape)
    got = _bits(f_star_batch(X))
    assert got == _bits(f_star(x) for x in X)
    assert got == _bits(_f_star_loop(x) for x in X)


def test_f_star_examples():
    assert f_star([1.0, -1.0]) == 1.0
    for t in (-1.0, -0.25, 0.0, 0.7, 1.0):
        assert f_star([t, t]) == -1.0
        assert f_star([1.0, t, t]) == 1.0


@given(unit_floats, unit_floats)
def test_f_star_closed_form_for_pairs(x1, x2):
    assert f_star([x1, x2]) == pytest.approx(abs(x1 - x2) - 1.0, abs=1e-15)


def test_build_face_pair_one_dimensional():
    plus, minus = build_face_pair(np.array([0.0]))
    np.testing.assert_array_equal(plus, [1.0, -1.0])
    np.testing.assert_array_equal(minus, [0.0, 0.0])
    _, minus = build_face_pair(np.array([1.0]))
    np.testing.assert_array_equal(minus, [1.0, 1.0])


def test_build_face_pair_two_dimensional():
    plus, minus = build_face_pair(np.array([0.5, -0.5]))
    np.testing.assert_array_equal(plus, [1.0, -0.5, -0.5])
    np.testing.assert_array_equal(minus, [0.5, 0.5, -1.0])
    assert f_star(plus) == 1.0
    assert f_star(minus) == -1.0
    # (0.5, -0.5) annihilates the alternating-sum map of this phi, so the
    # lifted pair pools identically
    phi = lambda v: np.array([v + 1.0, (v + 1.0) ** 2])
    np.testing.assert_allclose(
        sum(phi(v) for v in plus), sum(phi(v) for v in minus), atol=1e-15
    )


def _alternating_sum_map(phi, z):
    shifted = lambda v: np.asarray(phi(v)) - np.asarray(phi(-1.0))
    acc = shifted(1.0) / 2.0
    for i1, zi in enumerate(z, start=1):
        acc = acc + (shifted(zi) if i1 % 2 == 0 else -shifted(zi))
    return acc


def test_build_face_pair_pooled_difference_oracle():
    # pooling any elementwise map over the pair differs by exactly twice the
    # alternating-sum map of z — the identity the collision engine relies on
    def pooled(phi, x):
        return sum(np.asarray(phi(v)) for v in x)

    rng = np.random.default_rng(7)
    for n in range(1, 7):
        z = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
        plus, minus = build_face_pair(z)
        for phi in (lambda v: np.array([v + 1.0, (v + 1.0) ** 2]), np.tanh, lambda v: np.exp(0.3 * v)):
            np.testing.assert_allclose(
                pooled(phi, plus) - pooled(phi, minus),
                2.0 * _alternating_sum_map(phi, z),
                atol=1e-12,
            )


@pytest.mark.parametrize("n", range(1, 8))
def test_build_face_pair_hits_faces_exactly(n):
    rng = np.random.default_rng(n)
    for _ in range(300):
        z = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
        plus, minus = build_face_pair(z)
        assert face_residual_batch(plus[None, :], +1)[0] == 0.0
        assert face_residual_batch(minus[None, :], -1)[0] == 0.0
        assert f_star(plus) == 1.0
        assert f_star(minus) == -1.0
    # the batch, on these rows and on rows off the faces, equals its one-row
    # calls, build_face_pair and the loop references bit for bit
    Z = np.sort(rng.uniform(-1.0, 1.0, size=(300, n)), axis=1)[:, ::-1]
    Z[::4, 0] = 1.0
    Z[1::4, -1] = -1.0
    plus, minus = build_face_pair_batch(Z)
    off = np.sort(rng.uniform(-1.0, 1.0, size=(300, n + 1)), axis=1)
    for V, face in ((plus, +1), (minus, -1), (minus, +1), (plus, -1), (off, +1), (off, -1)):
        got = _bits(face_residual_batch(V, face))
        assert got == _bits(face_residual_batch(v[None, :], face)[0] for v in V)
        assert got == _bits(_face_residual_loop(v, face) for v in V)
    for z, p, q in zip(Z, plus, minus):
        pair = build_face_pair(z)
        np.testing.assert_array_equal(p, pair[0])
        np.testing.assert_array_equal(q, pair[1])
        for got, want in zip((p, q), _face_pair_loop(z)):
            np.testing.assert_array_equal(got, want)
