import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlab import DomainError, InfeasibleLatent, SizeError, VarSizeCodec, powersum
from setlab.powersum import (
    aberth_roots,
    exact_eval,
    kahan_sum,
    power_sum_decode,
    power_sum_decode_batch,
    power_sum_encode,
    power_sum_encode_batch,
    power_sums_to_monic,
    varsize_decode,
    varsize_decode_batch,
    varsize_encode,
)
from setlab.sets import canonicalize, f_star

unit_floats = st.floats(min_value=-1.0, max_value=1.0)
unit_sets = st.lists(unit_floats, min_size=1, max_size=8)


def test_kahan_sum_matches_fsum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
        assert kahan_sum(a) == pytest.approx(math.fsum(a), rel=1e-15, abs=1e-300)


def test_encode_examples():
    np.testing.assert_allclose(power_sum_encode([0.5, -0.5]), [0.0, 0.5], atol=0)
    np.testing.assert_array_equal(power_sum_encode([1.0, 1.0]), [2.0, 2.0])


@given(st.data(), unit_sets)
def test_encode_permutation_invariant_bitwise(data, xs):
    perm = data.draw(st.permutations(xs))
    np.testing.assert_array_equal(power_sum_encode(xs), power_sum_encode(perm))


def test_encode_batch_matches_scalar():
    rng = np.random.default_rng(1)
    for m in range(1, 9):
        X = rng.uniform(-1.0, 1.0, size=(32, m))
        X[::3, m // 2] = X[::3, 0]  # ties
        X[1::4, -1] = 1.0
        P = power_sum_encode_batch(X)
        for i in range(32):
            np.testing.assert_array_equal(P[i], power_sum_encode(X[i]))


def test_newton_identities_against_np_poly():
    rng = np.random.default_rng(2)
    for m in range(1, 9):
        for _ in range(25):
            u = rng.uniform(-1.0, 1.0, size=m)
            p = power_sum_encode(u)
            coeffs = power_sums_to_monic(p)[0]
            np.testing.assert_allclose(coeffs, np.poly(np.sort(u)[::-1]), atol=1e-10)


def test_aberth_against_np_roots():
    rng = np.random.default_rng(3)
    for m in range(1, 9):
        for _ in range(25):
            coeffs = np.poly(rng.uniform(-1.0, 1.0, size=m))
            got = np.sort(aberth_roots(coeffs[None, :])[0].real)
            want = np.sort(np.roots(coeffs).real)
            np.testing.assert_allclose(got, want, atol=1e-8)


def _separated_rows(rng, n, m, gap=0.02):
    """n descending rows of m elements of [-1, 1], neighbours at least gap apart."""
    lows = np.sort(rng.uniform(0.0, 2.0 - (m - 1) * gap, size=(n, m)), axis=1)
    return (lows - 1.0 + gap * np.arange(m))[:, ::-1]


def test_aberth_stops_separated_rows_at_their_rounding_floor(monkeypatch):
    # at M = 8 some rows with simple, well-separated roots never get their
    # corrections under ABERTH_TOL; they must stop once those stall, not run
    # the whole ABERTH_MAX_ITER schedule
    S = _separated_rows(np.random.default_rng(5), 500, 8)
    calls = []
    horner = powersum._horner_pair

    def counting(coeffs, z):
        calls.append(len(z))
        return horner(coeffs, z)

    monkeypatch.setattr(powersum, "_horner_pair", counting)
    aberth_roots(power_sums_to_monic(power_sum_encode_batch(S)))
    assert len(calls) - 1 < 50  # the last call is the Newton polish
    np.testing.assert_allclose(power_sum_decode_batch(power_sum_encode_batch(S), 8), S, rtol=0, atol=1e-6)


def test_aberth_rows_independent_of_their_batch():
    # separated rows stop early and clustered ones keep the full schedule;
    # neither the stall test nor the compaction may couple rows
    rng = np.random.default_rng(6)
    X = np.vstack(
        [
            _separated_rows(rng, 4, 6),
            [0.3 + 4.5e-6, 0.3, -0.7, -0.2, 0.6, 0.9],
            [0.12, 0.12, 0.12, 0.9, -0.4, -0.8],
            [-0.5] * 6,
        ]
    )
    coeffs = power_sums_to_monic(power_sum_encode_batch(X))
    batch = aberth_roots(coeffs)
    for i in range(len(X)):
        assert batch[i].tobytes() == aberth_roots(coeffs[i : i + 1])[0].tobytes()


def test_equal_latents_are_decoded_once_and_alike(monkeypatch):
    # the encoder sorts before it sums, so the orderings of a set share one
    # latent; a batch root-finds each distinct latent once and gives every
    # copy the bytes a one-row decode gives
    rng = np.random.default_rng(11)
    sets = [
        *_separated_rows(rng, 3, 6),
        [0.3 + 4.5e-6, 0.3, -0.7, -0.2, 0.6, 0.9],
        [0.12] * 3 + [0.9, -0.4, -0.8],
        [-0.5] * 6,
    ]
    X = np.array([rng.permutation(sets[i]) for i in rng.integers(0, len(sets), size=40)])
    zero = power_sum_encode([0.75, 0.5, 0.25, -0.25, -0.5, -0.75])
    assert zero[0] == 0.0 and not np.signbit(zero[0])
    signed = zero.copy()
    signed[0] = -0.0
    P = np.vstack([power_sum_encode_batch(X), zero, signed, zero, signed])
    distinct = len({p.tobytes() for p in P})
    assert distinct == len(sets) + 2  # +0.0 and -0.0 are two latents
    rows = []
    roots = powersum.aberth_roots

    def counting(coeffs):
        rows.append(len(coeffs))
        return roots(coeffs)

    monkeypatch.setattr(powersum, "aberth_roots", counting)
    U = power_sum_decode_batch(P, 6)
    assert rows == [distinct]
    for p, u in zip(P, U):
        assert u.tobytes() == power_sum_decode(p, 6).tobytes()
    assert power_sum_decode_batch(np.asfortranarray(P), 6).tobytes() == U.tobytes()

    # the variable-size decoder goes through the same dedup at every size
    codec = VarSizeCodec(M_max=6)
    mixed = [s[:k] for s in sets for k in (3, 6)]
    V = np.array([varsize_encode(rng.permutation(mixed[i]), codec) for i in rng.integers(0, len(mixed), size=40)])
    rows.clear()
    got = varsize_decode_batch(V, codec)
    copies = rows.copy()
    rows.clear()
    varsize_decode_batch(np.unique(V, axis=0), codec)
    assert copies == rows
    for v, u in zip(V, got):
        assert u.tobytes() == varsize_decode(v, codec).tobytes()

    # a refused latent is named by its first copy
    bad = P[:10].copy()
    bad[[3, 7]] = [0.0, -1.0, 0.0, 0.0, 0.0, 0.0]  # a negative sum of squares
    with pytest.raises(InfeasibleLatent, match=r"^row 3 "):
        power_sum_decode_batch(bad, 6)


def test_structures_polish_each_cluster_once(monkeypatch):
    # each dendrogram level after the first merges two clusters into one new
    # cluster; every other cluster keeps its polished center from the level
    # before, so a whole walk polishes M - 1 centers
    calls = []
    polish = powersum._polish_center

    def counting(coeffs, mu, mult, leash):
        calls.append(mult)
        return polish(coeffs, mu, mult, leash)

    monkeypatch.setattr(powersum, "_polish_center", counting)
    coeffs = power_sums_to_monic(power_sum_encode([0.5] * 4 + [-0.5] * 4))
    candidates = list(powersum._structures(aberth_roots(coeffs)[0], coeffs[0]))
    assert len(candidates) > 8  # dendrogram levels, then the 8 gap cuts
    assert len(calls) == 8 - 1


def test_decode_examples():
    np.testing.assert_allclose(power_sum_decode([1.0, 1.0], 2), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(power_sum_decode([2.0, 2.0], 2), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(power_sum_decode([0.0, 0.0], 2), [0.0, 0.0], atol=1e-12)


def test_decode_rejects_infeasible():
    with pytest.raises(InfeasibleLatent):
        power_sum_decode([0.0, -10.0], 2)
    with pytest.raises(InfeasibleLatent):
        power_sum_decode([5.0, 1.0], 2)  # mean outside the domain
    with pytest.raises(InfeasibleLatent):
        power_sum_decode([1e300, 1e300, 1e300], 3)  # its polynomial overflows
    # a batch names its first refused row
    good = power_sum_encode([0.5, -0.25])
    with pytest.raises(InfeasibleLatent, match=r"^row 1 "):
        power_sum_decode_batch(np.array([good, [5.0, 1.0], good, [0.0, -10.0]]), 2)
    # a latent of the wrong rank is refused as one of the wrong width is
    for p, M in ((0.5, 1), (np.zeros((3, 3)), 3), (np.zeros((1, 1)), 1)):
        with pytest.raises(DomainError):
            power_sum_decode(p, M)
    with pytest.raises(DomainError):
        power_sum_decode_batch(np.zeros((2, 3, 3)), 3)


def test_decode_rejects_off_image_latent_in_polynomially_many_fits(monkeypatch):
    # block repair tries M gap cuts, not all 2^(M-1) block structures, so a
    # refused M = 12 row costs at most M dendrogram fits plus M block fits
    fits = []
    fit = powersum._fit_multiset

    def counting(v, counts, p):
        fits.append(len(counts))
        return fit(v, counts, p)

    monkeypatch.setattr(powersum, "_fit_multiset", counting)
    rng = np.random.default_rng(0)
    for _ in range(3):
        p = power_sum_encode(rng.uniform(-1.0, 1.0, size=12)) + rng.normal(0.0, 1e-3, size=12)
        fits.clear()
        with pytest.raises(InfeasibleLatent):
            power_sum_decode(p, 12)
        assert 0 < len(fits) <= 2 * 12


def test_decode_validates_input():
    with pytest.raises(DomainError):
        power_sum_decode([1.0, np.nan], 2)
    with pytest.raises(DomainError):
        power_sum_decode([1.0, 1.0, 1.0], 2)


@pytest.mark.parametrize("m", range(1, 9))
def test_round_trip_random(m):
    rng = np.random.default_rng(m)
    X = rng.uniform(-1.0, 1.0, size=(200, m))
    U = power_sum_decode_batch(power_sum_encode_batch(X), m)
    np.testing.assert_allclose(U, np.sort(X, axis=1)[:, ::-1], atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(unit_sets)
def test_decode_total_on_genuine_encodings(xs):
    # every genuine encoding decodes (no InfeasibleLatent) to an in-domain
    # descending multiset that reproduces the latent — elementwise recovery
    # of near-coincident clusters is limited by conditioning, but the latent
    # itself is always matched
    u = canonicalize(xs)
    p = power_sum_encode(xs)
    got = power_sum_decode(p, u.size)
    assert np.all(np.diff(got) <= 0) and np.max(np.abs(got)) <= 1.0
    np.testing.assert_allclose(power_sum_encode(got), p, atol=1e-6)


@pytest.mark.parametrize(
    "x",
    [
        [0.3, 0.3, 0.3, -0.5],
        [1.0] * 8,
        [-1.0] * 6,
        [0.7, 0.7, 0.7, 0.7, 0.7],
        [0.25, 0.25, -0.25, -0.25],
    ],
)
def test_round_trip_repeated_values(x):
    u = canonicalize(x)
    got = power_sum_decode(power_sum_encode(x), u.size)
    np.testing.assert_allclose(got, u, atol=1e-6)


@pytest.mark.parametrize("m", (4, 6, 8))
def test_decode_every_five_level_multiset(m):
    # repeated elements splay into rings of roots that miss the latent, so
    # 16 of 70, 126 of 210 and 402 of 495 rows go through repair; no row may
    # be refused, and every decode must re-encode to its latent
    X = np.array(list(itertools.combinations_with_replacement(np.linspace(-1.0, 1.0, 5), m)))
    P = power_sum_encode_batch(X)
    U = power_sum_decode_batch(P, m)
    assert np.max(np.abs(power_sum_encode_batch(U) - P)) <= powersum.REPRODUCE_TOL


def test_decode_batch_matches_scalar():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, size=(16, 4))
    P = power_sum_encode_batch(X)
    U = power_sum_decode_batch(P, 4)
    for i in range(16):
        np.testing.assert_allclose(U[i], power_sum_decode(P[i], 4), atol=1e-12)


def test_encoding_separates_distinct_multisets():
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = int(rng.integers(1, 7))
        a = np.sort(rng.uniform(-1.0, 1.0, size=m))[::-1]
        b = np.sort(rng.uniform(-1.0, 1.0, size=m))[::-1]
        if np.max(np.abs(a - b)) < 1e-3:
            continue
        assert np.max(np.abs(power_sum_encode(a) - power_sum_encode(b))) >= 1e-9


def test_size_cap():
    with pytest.raises(SizeError):
        power_sum_encode(np.zeros(13))
    with pytest.raises(SizeError):
        power_sum_decode(np.zeros(13), 13)


def test_exact_eval_goes_through_latent():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 7)))
        assert exact_eval(np.max, x) == pytest.approx(np.max(x), abs=1e-8)
        assert exact_eval(f_star, x) == pytest.approx(f_star(x), abs=1e-8)
        assert exact_eval(lambda u: u[-1], x) == pytest.approx(np.min(x), abs=1e-8)


# variable-size codec


def test_varsize_encode_examples():
    codec = VarSizeCodec(M_max=3, filler=2.0)
    np.testing.assert_array_equal(varsize_encode([0.5], codec), [-1.5, -3.75, -7.875])
    np.testing.assert_array_equal(varsize_encode([0.0, 1.0], codec), [-3.0, -7.0, -15.0])
    np.testing.assert_array_equal(varsize_encode([], codec), [0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "M_max, filler",
    # (2, -1.5) and (3, 1.5): a genuine latent can pass the size bound at two
    # sizes ({-0.9, -0.9} at filler -1.5 passes it at size 1 too); (4, 1e4) and
    # (4, 1e6): the latent rounds m * filler^q, and the bound's slack must still
    # admit the true size ({1, 1, 1} at filler 1e4 reads 4 > 3 at q = 4)
    [(5, 2.0), (1, 2.0), (2, -1.5), (3, 1.5), (4, 1e4), (4, 1e6)],
)
def test_varsize_round_trip_all_sizes(M_max, filler):
    codec = VarSizeCodec(M_max=M_max, filler=filler)
    rng = np.random.default_rng(8)
    grid = np.linspace(-1.0, 1.0, 5)
    for m in range(codec.M_max + 1):
        sets = [rng.uniform(-1.0, 1.0, size=m) for _ in range(40)] + [np.full(m, -0.9)]
        sets += [np.array(x) for x in itertools.combinations_with_replacement(grid, m)]
        checked = 0
        for x in sets:
            p = varsize_encode(x, codec)
            # the size-m decode reads the power sums q <= m off p, which keeps
            # them only to about the ulp of m * filler^q; sets a large filler
            # rounds off by more than 1e-9 are beyond any decoder
            if m and np.max(np.abs(p[:m] + m * codec.filler_powers()[:m] - power_sum_encode(x))) > 1e-9:
                continue
            got = varsize_decode(p, codec)
            assert got.size == m
            np.testing.assert_allclose(varsize_encode(got, codec), p, atol=1e-6, rtol=0)
            # repeated values may come back splayed within that tolerance
            # (ROADMAP item 2); distinct ones must come back themselves
            if np.unique(x).size == m:
                np.testing.assert_allclose(got, np.sort(x)[::-1], atol=1e-6)
            checked += 1
        assert checked > 0


def test_varsize_decode_tries_each_row_at_its_own_size_only(monkeypatch):
    codec = VarSizeCodec(M_max=6)
    rng = np.random.default_rng(10)
    sets = [rng.uniform(-1.0, 1.0, size=m) for m in range(codec.M_max + 1) for _ in range(5)]
    rows = []
    decode = powersum._decode_batch_masked

    def counting(P, m):
        rows.append(len(P))
        return decode(P, m)

    monkeypatch.setattr(powersum, "_decode_batch_masked", counting)
    got = varsize_decode_batch(np.array([varsize_encode(x, codec) for x in sets]), codec)
    assert [u.size for u in got] == [x.size for x in sets]
    assert sum(rows) == sum(x.size > 0 for x in sets)


def test_varsize_decode_batch_matches_scalar():
    codec = VarSizeCodec(M_max=4)
    rng = np.random.default_rng(9)
    latents = []
    expected = []
    for m in range(codec.M_max + 1):
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=m)
            latents.append(varsize_encode(x, codec))
            expected.append(np.sort(x)[::-1])
    got = varsize_decode_batch(np.array(latents), codec)
    for g, e in zip(got, expected):
        np.testing.assert_allclose(g, e, atol=1e-6)


def test_varsize_validation():
    codec = VarSizeCodec(M_max=3)
    with pytest.raises(SizeError):
        varsize_encode(np.zeros(4), codec)
    with pytest.raises(DomainError):
        VarSizeCodec(M_max=3, filler=1.2)
    with pytest.raises(SizeError):
        VarSizeCodec(M_max=0)
    with pytest.raises(DomainError):
        varsize_decode(np.zeros(2), codec)
    with pytest.raises(InfeasibleLatent):
        varsize_decode(np.array([5.0, -100.0, 3.0]), codec)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            varsize_decode(np.array([0.0, 0.0, bad]), codec)
        with pytest.raises(DomainError):
            varsize_decode_batch(np.array([varsize_encode([0.5], codec), [bad, 0.0, 0.0]]), codec)
    for bad_shape in ((2, 2), (2, 3, 4)):
        with pytest.raises(DomainError):
            varsize_decode_batch(np.zeros(bad_shape), codec)
    good = varsize_encode([0.5], codec)
    with pytest.raises(InfeasibleLatent, match=r"^row 1 "):
        varsize_decode_batch(np.array([good, [5.0, -100.0, 3.0], good, [9.0, 9.0, 9.0]]), codec)


def test_varsize_negative_filler():
    codec = VarSizeCodec(M_max=3, filler=-2.5)
    x = [0.3, -0.9]
    np.testing.assert_allclose(varsize_decode(varsize_encode(x, codec), codec), [0.3, -0.9], atol=1e-6)
