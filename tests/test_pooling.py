import itertools
import math
import random
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlab import (
    DomainError,
    PhiSpec,
    ProbeDegenerate,
    SizeError,
    enumerate_ktuples,
    f_star,
    janossy_pool,
    max_decomp_counterexample,
    sampled_pool,
    sorted_eval,
)
from setlab.approx import random_mlp_encoder
from setlab.pooling import _exact_mean, _unrank_permutations


def test_enumerate_ktuples_counts():
    assert len(enumerate_ktuples(4, 2)) == 12
    assert len(enumerate_ktuples(3, 3)) == 6
    assert enumerate_ktuples(5, 1).tolist() == [[i] for i in range(5)]


def test_enumerate_ktuples_lexicographic_distinct():
    enum = enumerate_ktuples(4, 2)
    assert enum.shape == (12, 2) and enum.dtype == np.intp
    assert enum.tolist() == [list(t) for t in itertools.permutations(range(4), 2)]


@pytest.mark.parametrize("M,k", [(3, 0), (3, 4), (11, 2), (0, 0)])
def test_enumerate_ktuples_rejects(M, k):
    with pytest.raises(SizeError):
        enumerate_ktuples(M, k)


def test_janossy_unary_identity_is_mean():
    x = np.array([1.0, 2.0, 3.0]) / 3.0
    got = janossy_pool(x, 1, lambda t: t[0])
    assert math.isclose(got, math.fsum(x) / 3.0, rel_tol=1e-15)


def test_janossy_pairwise_product_example():
    x = np.array([0.1, 0.2, 0.3])
    got = janossy_pool(x, 2, lambda t: t[0] * t[1])
    # independent oracle: exact rational mean of the six ordered products
    products = [Fraction(float(a * b)) for a, b in itertools.permutations(x, 2)]
    assert got == float(sum(products) / 6)
    assert math.isclose(got, 0.036666666666666666, rel_tol=1e-12)


def test_janossy_full_tuple_averages_all_orderings():
    x = np.array([0.4, -0.2, 0.9])
    g = lambda t: t[0] - 0.5 * t[1] + 0.25 * t[2]
    got = janossy_pool(x, 3, g)
    oracle = float(sum(Fraction(float(g(np.array(p)))) for p in itertools.permutations(x)) / 6)
    assert got == oracle
    # the p = M! sample is the same exact average, whatever the seed
    assert sampled_pool(x, g, 6, seed=0) == got
    assert sampled_pool(x, g, 6, seed=123) == got


@settings(max_examples=40)
@given(st.data())
def test_janossy_permutation_invariance(data):
    m = data.draw(st.integers(min_value=2, max_value=5))
    x = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=m, max_size=m,
    )))
    perm = data.draw(st.permutations(range(m)))
    phi = lambda t: t[0] - 2.0 * t[1]
    assert janossy_pool(x[list(perm)], 2, phi) == janossy_pool(x, 2, phi)


@pytest.mark.parametrize("k", [2, 3])
def test_kary_first_element_matches_unary(k):
    rng = np.random.default_rng(7)
    phi1 = lambda t: np.tanh(3.0 * t[0]) + t[0] ** 2
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=5)
        assert janossy_pool(x, k, phi1) == janossy_pool(x, 1, phi1)


def test_sampled_pool_single_draw_of_invariant_g():
    x = np.array([0.3, -0.7, 0.1])
    g = lambda t: math.fsum(t)
    for seed in range(4):
        assert sampled_pool(x, g, 1, seed=seed) == g(x)


def test_sampled_pool_deterministic_given_seed():
    x = np.array([0.9, -0.8, 0.2, 0.5])
    g = lambda t: t[0] - 0.3 * t[2]
    assert sampled_pool(x, g, 5, seed=42) == sampled_pool(x, g, 5, seed=42)
    assert sampled_pool(x, g, 5, seed=42) != sampled_pool(x, g, 5, seed=43)


def test_sampled_pool_rejects():
    with pytest.raises(SizeError):
        sampled_pool(np.zeros(9), lambda t: 0.0, 1, seed=0)
    with pytest.raises(SizeError):
        sampled_pool(np.zeros(3), lambda t: 0.0, 7, seed=0)
    with pytest.raises(SizeError):
        sampled_pool(np.zeros(3), lambda t: 0.0, 0, seed=0)


def test_unrank_permutation_covers_lexicographic():
    rng = np.random.default_rng(0)
    for M in range(1, 9):
        table = enumerate_ktuples(M, M)
        assert np.array_equal(_unrank_permutations(np.arange(len(table)), M), table)
        # a sorted draw of a few ranks decodes to the same rows of the table
        ranks = np.sort(rng.permutation(len(table))[:3])
        assert np.array_equal(_unrank_permutations(ranks, M), table[ranks])


def test_sampled_variance_law():
    x = np.array([0.8, -0.5, 0.2])
    g = lambda t: t[0] + 0.5 * t[1] - 0.25 * t[2]
    outputs = np.array([g(x[list(p)]) for p in itertools.permutations(range(3))])
    sigma2 = float(np.mean((outputs - np.mean(outputs)) ** 2))
    p = 2
    predicted = (6 - p) / (6 - 1) * sigma2 / p
    trials = np.array([sampled_pool(x, g, p, seed=s) for s in range(4000)])
    v = float(np.var(trials))
    m4 = float(np.mean((trials - trials.mean()) ** 4))
    se = math.sqrt(max(m4 - v**2 * (len(trials) - 3) / (len(trials) - 1), 0.0) / len(trials))
    assert abs(v - predicted) <= 3.0 * se


def test_sampled_variance_zero_at_full_enumeration():
    x = np.array([0.8, -0.5, 0.2, -0.9])
    g = lambda t: t[0] - 2.0 * t[3]
    vals = [sampled_pool(x, g, 24, seed=s) for s in range(50)]
    # every full-enumeration draw is bit-identical, so the exact variance is 0
    assert statistics.pvariance(vals) == 0.0


def test_sorted_eval_first_coordinate_is_max():
    x = np.array([0.2, -0.4, 0.9, 0.1])
    assert sorted_eval(x, lambda t: t[0]) == np.max(x)


def test_sorted_eval_affine_recovers_alternating_target():
    rng = np.random.default_rng(3)
    for m in (2, 3, 5):
        def g(t):
            terms = [t[i] if i % 2 == 0 else -t[i] for i in range(len(t))]
            if len(t) % 2 == 0:
                terms.append(-1.0)
            return math.fsum(terms)

        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=m)
            assert sorted_eval(x, g) == f_star(x)


def test_sorted_eval_constant():
    assert sorted_eval(np.array([0.1, -0.2]), lambda t: 0.625) == 0.625


@settings(max_examples=40)
@given(st.data())
def test_sorted_eval_permutation_invariance(data):
    m = data.draw(st.integers(min_value=2, max_value=6))
    x = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=m, max_size=m,
    )))
    perm = data.draw(st.permutations(range(m)))
    g = lambda t: t[0] - 3.0 * t[-1]
    assert sorted_eval(x[list(perm)], g) == sorted_eval(x, g)


def test_max_counterexample_identity_pair():
    phi = PhiSpec("piecewise_linear", 1, [[[-1.0, -1.0], [1.0, 1.0]]])
    x, x_tilde, report = max_decomp_counterexample(phi, 2, probes=np.array([0.0, 1.0]))
    np.testing.assert_array_equal(x_tilde, [1.0, 1.0])
    np.testing.assert_array_equal(np.max(phi.eval(x), axis=0), np.max(phi.eval(x_tilde), axis=0))
    assert math.fsum(x) != math.fsum(x_tilde)
    assert report["replaced_index"] == 0


def test_max_counterexample_quadratic_pair():
    phi = PhiSpec("polynomial", 2, [[0.0, 1.0], [0.0, 0.0, 1.0]])  # (x, x^2)
    x, x_tilde, report = max_decomp_counterexample(phi, 3, probes=np.array([-0.5, 0.0, 1.0]))
    assert report["argmax"] == [2, 2]
    assert report["replaced_index"] == 0
    np.testing.assert_array_equal(x_tilde, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(np.max(phi.eval(x), axis=0), np.max(phi.eval(x_tilde), axis=0))


def test_max_counterexample_constant_encoder():
    phi = PhiSpec("polynomial", 1, [[0.7]])
    x, x_tilde, report = max_decomp_counterexample(phi, 2)
    np.testing.assert_array_equal(np.max(phi.eval(x), axis=0), np.max(phi.eval(x_tilde), axis=0))
    assert abs(math.fsum(x) - math.fsum(x_tilde)) >= 1e-6


@pytest.mark.parametrize("M", range(2, 13))
def test_max_counterexample_default_probes(M):
    # the default probes never raise, even for the widest encoder allowed
    # (N = M - 1) or a constant one: some probe attains no coordinate max, and
    # replacing it moves the sum by at least the probe spacing 2/(M-1)
    encoders = [random_mlp_encoder(M - 1, seed=M), PhiSpec("polynomial", M - 1, [[0.7]] * (M - 1))]
    if M > 2:
        encoders.append(PhiSpec("polynomial", 2, [[0.0, 1.0], [0.1, -0.3, 0.8]]))
    for phi in encoders:
        x, x_tilde, report = max_decomp_counterexample(phi, M)
        np.testing.assert_array_equal(np.max(phi.eval(x), axis=0), np.max(phi.eval(x_tilde), axis=0))
        assert report["sum_gap"] >= 1e-6
        assert report["replaced_index"] not in report["argmax"]


def test_max_counterexample_rejects_wide_encoder():
    phi = PhiSpec("polynomial", 3, [[0.0, 1.0]] * 3)
    with pytest.raises(SizeError):
        max_decomp_counterexample(phi, 3)


def test_max_counterexample_validates_supplied_probes():
    phi = random_mlp_encoder(1, seed=0)
    with pytest.raises(SizeError):
        max_decomp_counterexample(phi, 5, probes=[0.0, 1.0])
    for probes in ([7.0, -3.0], [0.0, math.nan]):
        with pytest.raises(DomainError):
            max_decomp_counterexample(phi, 2, probes=probes)


def test_max_counterexample_degenerate_probes():
    phi = PhiSpec("piecewise_linear", 1, [[[-1.0, -1.0], [1.0, 1.0]]])
    probes = np.array([0.3, 0.3 + 1e-9, 0.3 + 2e-9])
    with pytest.raises(ProbeDegenerate):
        max_decomp_counterexample(phi, 3, probes=probes)


def _fraction_mean(terms):
    return float(sum(map(Fraction, terms)) / len(terms))


def test_exact_mean_matches_fraction_oracle():
    # seeded blocks mixing magnitudes from subnormal to near overflow, where
    # the fsum expansion needs several parts, and plain [-1, 1] values
    rng = random.Random(22)
    for _ in range(3000):
        scale = rng.choice([1.0, 1e-300, 1e300, 2.0**-1070])
        block = [
            rng.uniform(-1.0, 1.0) * scale * 10.0 ** rng.randint(-8, 8)
            if rng.random() < 0.8
            else rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0, 3.0])
            for _ in range(rng.randint(1, 40))
        ]
        assert _exact_mean(block).hex() == _fraction_mean(block).hex(), block


@pytest.mark.parametrize(
    "terms,mean",
    [
        ([1e308, 1e308], 1e308),  # fsum's partial sums overflow; Fraction's do not
        ([1e308, 1e308, -1e308], 1e308 / 3),
        ([-0.0], 0.0),
        ([-0.0, -0.0, 0.0], 0.0),
        ([-5e-324, 0.0], -0.0),  # half the smallest subnormal rounds to a signed zero
    ],
)
def test_exact_mean_edges(terms, mean):
    assert _exact_mean(terms).hex() == mean.hex() == _fraction_mean(terms).hex()


def test_pool_vector_valued_phi():
    x = np.array([0.1, -0.7, 0.4])
    phi = lambda t: np.array([t[0] * t[1], t[0] - t[1], 0.25])
    got = janossy_pool(x, 2, phi)
    assert got.shape == (3,)
    tuples = list(itertools.permutations(x, 2))
    for j in range(3):
        assert got[j] == _fraction_mean([float(phi(np.array(t))[j]) for t in tuples])


@pytest.mark.parametrize(
    "out,error",
    [
        (math.inf, OverflowError),
        (math.nan, ValueError),
        ("not a number", ValueError),
    ],
)
def test_pool_refuses_bad_phi_outputs(out, error):
    with pytest.raises(error):
        janossy_pool(np.array([0.2, 0.5]), 1, lambda t: out)


def test_pool_refuses_ragged_phi_outputs():
    with pytest.raises(ValueError):
        janossy_pool(np.array([0.2, 0.5]), 1, lambda t: [t[0]] * (1 if t[0] < 0.3 else 2))
