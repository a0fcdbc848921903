"""Permutation-invariant pooling beyond plain summation.

k-ary pooling averages an order-sensitive map over all k-tuples of distinct
elements; sampled pooling averages over a seeded without-replacement draw of
full permutations; sorted evaluation canonicalizes instead of averaging. The
max-decomposition counterexample constructs two multisets that coordinate-wise
max-pooling cannot tell apart even though their sums differ.
"""

import itertools
import math

import numpy as np

from .errors import ProbeDegenerate, SizeError
from .sets import as_set_input, canonicalize

FACTORIAL_CAP = 8


def enumerate_ktuples(M, k):
    """The P(M,k) = M!/(M-k)! k-tuples of distinct indices from range(M), as the
    lexicographic rows of a (P(M,k), k) index array."""
    M, k = int(M), int(k)
    if not 1 <= k <= M <= 10:
        raise SizeError(f"need 1 <= k <= M <= 10, got k={k}, M={M}")
    flat = itertools.chain.from_iterable(itertools.permutations(range(M), k))
    return np.fromiter(flat, dtype=np.intp, count=math.perm(M, k) * k).reshape(-1, k)


def _unrank_permutations(ranks, M):
    """Lehmer decoding: row r is the ranks[r]-th permutation of range(M) in
    lexicographic order, i.e. row ranks[r] of enumerate_ktuples(M, M)."""
    radix = np.arange(M, 0, -1)  # entry i is a rank among the M - i entries unused before it
    out = ranks[:, None] // np.array([math.factorial(r - 1) for r in radix]) % radix
    for i in range(M - 2, -1, -1):  # ranks among the unused entries to values
        out[:, i + 1 :] += out[:, i + 1 :] >= out[:, i : i + 1]
    return out


def _exact_mean(terms):
    """The correctly rounded mean of a list of floats.

    fsum repeated on its own remainders, s_k = fsum(terms - s_1 - ... -
    s_{k-1}) until one reads 0, writes the exact sum as a few non-overlapping
    parts (Shewchuk's expansions). One part is divided by IEEE rounding;
    several are added as integers over their common power-of-two denominator,
    and integer division rounds once, as a Fraction mean would. Where fsum's
    partial sums overflow (e.g. [1e308, 1e308]) or a term is inf or NaN, every
    term is added so instead: inf raises OverflowError and NaN ValueError.
    """
    parts = []
    try:
        while (s := math.fsum(terms + [-p for p in parts])) != 0.0:
            if not math.isfinite(s):
                raise OverflowError
            parts.append(s)
    except (OverflowError, ValueError):
        parts = terms
    else:
        if len(parts) == 1:
            return parts[0] / len(terms)
    ratios = [p.as_integer_ratio() for p in parts]
    den = max((d for _, d in ratios), default=1)
    return sum(n * (den // d) for n, d in ratios) / (den * len(terms))


def _pool(x, index, phi):
    """Mean of phi (scalar or vector valued) over the rows x[index[i]] of a
    (P, k) index array, one length-k vector per call.

    Each column's mean is its exact sum (an fsum expansion) rounded once, so
    algebraically equal reductions (k-ary over a first-element-only map vs.
    unary, all M! sampled orderings vs. the full average) round to the same
    bits.
    """
    values = np.array([phi(row) for row in x[index]], dtype=float).reshape(len(index), -1)
    return np.array([_exact_mean(col) for col in values.T.tolist()])


def janossy_pool(x, k, phi):
    """The mean of phi over all distinct-entry k-tuples of x: a float when phi
    maps a length-k vector to a scalar, else a vector. Permutation-invariant
    by construction.
    """
    x = as_set_input(x)
    pooled = _pool(x, enumerate_ktuples(x.size, k), phi)
    return float(pooled[0]) if pooled.size == 1 else pooled


def sampled_pool(x, g, p, seed):
    """Mean of g over p permutations of x drawn uniformly without replacement.

    Deterministic given the seed: a seeded shuffle of the M! permutation ranks
    picks the sample, only those p ranks are Lehmer-decoded to orderings, and
    the mean is the same exact one as janossy_pool's — so p = M! reproduces
    the full average bit-for-bit no matter the seed. g must return a scalar.
    """
    x = as_set_input(x)
    M = x.size
    if M > FACTORIAL_CAP:
        raise SizeError(f"sampled pooling enumerates permutation ranks; M={M} > {FACTORIAL_CAP}")
    total = math.factorial(M)
    p = int(p)
    if not 1 <= p <= total:
        raise SizeError(f"need 1 <= p <= M! = {total}, got p={p}")
    rng = np.random.default_rng(seed)
    (mean,) = _pool(x, _unrank_permutations(np.sort(rng.permutation(total)[:p]), M), g)
    return float(mean)


def sorted_eval(x, g):
    """g applied to the canonical (descending) ordering; exactly invariant."""
    return float(g(canonicalize(x)))


def max_decomp_counterexample(phi, M, probes=None):
    """Two multisets with bit-equal coordinate-wise max-pools but different sums.

    Replaces one element that never attains a coordinate max (it exists since
    phi has fewer coordinates than the multiset has elements) with the element
    attaining the first coordinate's max — the pools cannot move, the sum does.
    The first set is probes (default linspace(-1, 1, M), whose sum moves by
    at least their spacing); a sum moving by under 1e-6 is a ProbeDegenerate.
    """
    M = int(M)
    if phi.N >= M:
        raise SizeError(f"need encoder dimension below the set size, got N={phi.N}, M={M}")
    probes = np.linspace(-1.0, 1.0, M) if probes is None else as_set_input(probes)
    if probes.size != M:
        raise SizeError(f"need {M} probes, got {probes.size}")
    mu = np.argmax(phi.eval(probes), axis=0)  # (N,) row of each coordinate's max
    m = min(set(range(M)) - set(mu.tolist()))
    x_tilde = probes.copy()
    x_tilde[m] = probes[mu[0]]
    gap = abs(math.fsum(x_tilde) - math.fsum(probes))
    if gap < 1e-6:
        raise ProbeDegenerate("probe set collapses under the encoder")
    return probes, x_tilde, {"argmax": mu.tolist(), "replaced_index": m, "sum_gap": gap}
