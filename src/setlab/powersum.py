"""Exact sum-decomposition through power sums.

Encoding a multiset {x_1..x_M} as (sum x_i^q)_{q=1..M} is injective on
multisets of [-1, 1] and has a continuous inverse, so any continuous
permutation-invariant target f factors exactly as rho(Phi(x)) with
rho = f o Phi^{-1}. The numerical inverse here converts power sums to the
coefficients of the monic polynomial with Newton's identities and recovers
the multiset as its roots via Aberth-Ehrlich iteration. A row of the batch
stops iterating once its corrections fall below ABERTH_TOL, or once they stop
shrinking below sqrt(eps) while its roots are all farther apart than
eps^(1/M): simple roots converge cubically, so such a correction is rounding
noise. An m-fold root splays only to about eps^(1/m), so rows with clustered
roots keep the whole ABERTH_MAX_ITER schedule that repair relies on.

Decode work is done once: a row decodes independently of its batch and the
encoder sorts before it sums, so the orderings of one set share one latent,
bit for bit, and a batch decodes each distinct latent once. The rows whose
plain roots miss their latent are repaired in one lockstep walk over their
candidate structures, the levels of each row's root dendrogram and then its
gap cuts, polishing each new root cluster once; a row leaves the walk at its
first candidate that reproduces its latent, as it would alone. Only the
cluster means and the Gauss-Newton fits run row by row.

A variable-size codec extends this to sets with up to M_max elements by
measuring each element against a filler value outside the data domain.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleLatent, SizeError
from .sets import as_set_input, as_set_rows, canonicalize

# Power sums are badly conditioned in high degree; the supported claims are
# desk-scale, so set sizes are capped.
M_CAP = 12

IMAG_TOL = 1e-6  # roots further from the real axis than this are infeasible
DOMAIN_SLACK = 1e-6  # roots may poke this far out of [-1, 1] before rejection
REPRODUCE_TOL = 1e-6  # recovered multiset must reproduce the latent this well

ABERTH_MAX_ITER = 200
ABERTH_TOL = 1e-13
FIT_STEPS = 12  # Gauss-Newton steps of each repair fit


def kahan_sum(terms, axis=-1):
    """Compensated summation along one axis (classic Kahan)."""
    terms = np.asarray(terms, dtype=float)
    terms = np.moveaxis(terms, axis, 0)
    total = np.zeros(terms.shape[1:])
    comp = np.zeros_like(total)
    for t in terms:
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total if total.shape else float(total)


def _check_m(m):
    if not 1 <= m <= M_CAP:
        raise SizeError(f"set size {m} outside supported range 1..{M_CAP}")


def _latent_rows(P, m):
    """P as float rows of m power sums, checked for rank and width, then m, then finiteness."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.ndim != 2 or P.shape[1] != m:
        raise DomainError(f"latent must be rows of {m} power sums, got shape {P.shape}")
    _check_m(m)
    if not np.all(np.isfinite(P)):
        raise DomainError("latent vector contains non-finite entries")
    return P


def power_sum_encode(x):
    """Latent vector (sum_i x_i^q) for q = 1..M.

    Inputs are sorted before accumulation and summed with compensation, so the
    result is bit-for-bit identical across permutations of x.
    """
    return power_sum_encode_batch(as_set_input(x)[None, :])[0]


def power_sum_encode_batch(X):
    """Row-wise power_sum_encode for an (n_sets, M) array, validated by as_set_rows."""
    U = np.sort(as_set_rows(X), axis=1)[:, ::-1]
    _check_m(U.shape[1])
    return _encode_sorted(U)


def _encode_sorted(U, degree=None):
    """Power sums q = 1..degree (default: the row length) of pre-sorted rows;
    q-th powers built by cumulative products."""
    n, m = U.shape
    degree = m if degree is None else degree
    out = np.empty((n, degree))
    pw = U.copy()
    for q in range(degree):
        out[:, q] = kahan_sum(pw, axis=1)
        if q < degree - 1:
            pw *= U
    return out


def power_sums_to_monic(p):
    """Newton's identities on the coefficients c (highest degree first) of
    prod (t - x_i): k*c_k = -sum_{i=1..k} c_{k-i} p_i with c_0 = 1.

    p has shape (n, M); returns c of shape (n, M+1)."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    n, m = p.shape
    c = np.zeros((n, m + 1))
    c[:, 0] = 1.0
    for k in range(1, m + 1):
        acc = np.zeros(n)
        for i in range(1, k + 1):
            acc -= c[:, k - i] * p[:, i - 1]
        c[:, k] = acc / k
    return c


def aberth_roots(coeffs):
    """Simultaneous root iteration for a batch of monic real polynomials.

    coeffs: (n, M+1) with coeffs[:, 0] = 1. Returns complex roots (n, M).
    Iterates the Aberth-Ehrlich correction w_i / (1 - w_i * sum_{j!=i}
    1/(z_i - z_j)) with w = P/P', row by row, then applies one Newton polish
    per root. A row stops when its largest correction (relative to 1 + |z|)
    falls to ABERTH_TOL, or when that correction is at most sqrt(eps), no
    smaller than on the previous pass, and every pair of the row's roots is
    more than eps^(1/M) apart: a simple root converges cubically, so a
    correction that stalls there is rounding noise. A multiple root splays
    only to about eps^(1/multiplicity), so a row with clustered roots runs
    on to ABERTH_MAX_ITER passes, as the cluster repair expects. Each row's
    result is independent of the rest of the batch.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    n, mp1 = coeffs.shape
    m = mp1 - 1
    if m == 0:
        return np.empty((n, 0), dtype=complex)

    # initial guesses on a Cauchy-bound circle, angle-offset off the real axis
    radius = 1.0 + np.max(np.abs(coeffs[:, 1:]), axis=1)
    angles = 2.0 * np.pi * (np.arange(m) + 0.5) / m + 0.25
    z = radius[:, None] * np.exp(1j * angles)[None, :]

    eps = np.finfo(float).eps
    # the unfinished rows, kept compact, with each one's previous correction;
    # a row is written back once it finishes
    za, ca, idx, last = z, coeffs, np.arange(n), np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(ABERTH_MAX_ITER):
            pv, dpv = _horner_pair(ca, za)
            # pairwise reciprocal differences; diagonal set to 1 and its
            # contribution subtracted from each row sum
            diff = za[:, :, None] - za[:, None, :]
            diff.reshape(len(za), m * m)[:, :: m + 1] = 1.0
            s = np.sum(1.0 / diff, axis=2) - 1.0
            w = np.where(pv == 0, 0.0, pv / np.where(dpv == 0, 1.0, dpv))
            denom = 1.0 - w * s
            corr = np.where(np.abs(denom) > 1e-300, w / denom, w)
            rel = np.max(np.abs(corr) / (1.0 + np.abs(za)), axis=1)
            done = rel <= ABERTH_TOL
            # a stalled row whose roots are all more than eps^(1/m) apart (the
            # unit diagonal passes) is at its rounding floor; a cluster goes on
            stall = np.flatnonzero((rel >= last) & (rel <= np.sqrt(eps)))
            if stall.size:
                sep = np.min(np.abs(diff[stall]).reshape(stall.size, m * m), axis=1)
                done[stall] |= sep > eps ** (1.0 / m)
            za, last = za - corr, rel
            del pv, dpv, diff, s, w, denom, corr  # freed before the next pass allocates its own
            if done.any():
                z[idx[done]] = za[done]
                za, ca, idx, last = za[~done], ca[~done], idx[~done], last[~done]
            if not idx.size:
                break
        z[idx] = za

        # single Newton polish
        pv, dpv = _horner_pair(coeffs, z)
        step = np.where(np.abs(dpv) > 1e-300, pv / dpv, 0.0)
    z = z - np.where(np.isfinite(step), step, 0.0)
    return z


def _horner_pair(coeffs, z):
    """Vectorized P(z), P'(z) for rows of coefficients (highest degree first)."""
    pv = np.zeros_like(z) + coeffs[:, 0:1]
    dpv = np.zeros_like(z)
    for k in range(1, coeffs.shape[1]):
        dpv = dpv * z + pv
        pv = pv * z + coeffs[:, k : k + 1]
    return pv, dpv


def _polish_centers(coeffs, mu, mult, leash):
    """Newton-refine cluster centers mu of one multiplicity, one per row of
    coeffs, on the (mult-1)-th derivative; a row stops once its derivative
    vanishes, and a center that leaves its leash falls back to mu."""
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(mult - 1):
        c = c[:, :-1] * np.arange(c.shape[1] - 1, 0, -1)
    z, live = mu.copy(), np.arange(mu.size)
    for _ in range(3):
        pv, dpv = (a[:, 0] for a in _horner_pair(c[live], z[live, None]))
        go = ~(np.abs(dpv) < 1e-300)
        live = live[go]
        z[live] -= pv[go] / dpv[go]
    return np.where(np.abs(z - mu) <= leash, z, mu)


def _within_size_bound(P, m, shift=0.0):
    """Rows of P + shift that could be power sums of m elements of [-1, 1].

    Such power sums satisfy |sum_i x_i^q| <= m for every q. The slack covers
    REPRODUCE_TOL and the rounding of the shift, so any row whose decode would
    re-encode to within REPRODUCE_TOL passes.
    """
    slack = REPRODUCE_TOL + 2.0**-52 * (np.abs(shift) + m)
    return np.all(np.abs(P + shift) <= m + slack, axis=1)


def _fit_multiset(v, counts, p):
    """Gauss-Newton on distinct values v with fixed multiplicities against p;
    returns the descending multiset with each value repeated by its count.

    A root cluster perturbs nearby simple roots beyond the reproduction
    tolerance; fitting the value/multiplicity structure directly against p
    removes that error when the structure is correct. Iterates are clipped to
    [-1, 1] (the init too), so the fit only proposes domain-feasible multisets.
    """
    q = np.arange(1.0, p.size + 1.0)[:, None]
    w = np.asarray(counts, dtype=float)
    v = np.clip(v, -1.0, 1.0)
    best, best_err = v, np.inf
    for _ in range(FIT_STEPS):
        resid = (w * v ** q).sum(axis=1) - p
        err = np.max(np.abs(resid))
        if err < best_err:
            best, best_err = v.copy(), err
        if err == 0.0:
            break
        jac = w * q * v ** (q - 1.0)
        step = np.linalg.lstsq(jac, resid, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        v = np.clip(v - step, -1.0, 1.0)
    return np.sort(np.repeat(best, counts))[::-1]


def _repair(roots, coeffs, P):
    """Multisets behind rows whose plain roots miss their latents P, and which
    rows they are found for: each row's first candidate structure, in the
    order below, whose fit against its latent reproduces it.

    A multiple root splays into a small complex ring, so first come the levels
    of the roots' single-linkage dendrogram, finest first: every clustering
    that merging roots within some radius could produce, so no radius schedule
    can miss a level. Each cluster is replaced by its polished center: the
    ring splays like eps^(1/multiplicity), but its mean is accurate to
    coefficient-perturbation order, and polishing the mean on the
    (multiplicity-1)-th derivative, where the center is a simple root,
    sharpens it to full precision. Each level after the first merges the
    closest pair of clusters (first minimum on ties) into one new cluster,
    whose center is polished once; every other cluster keeps its center. A
    level whose merged roots leave the real axis by more than IMAG_TOL or
    [-1, 1] by more than DOMAIN_SLACK yields nothing.

    Nearby multiple roots splay into overlapping rings no clustering can
    separate, but the sorted real parts still split into blocks per true root,
    with the widest gaps between blocks. So then come the M structures that
    cut the sorted real parts at their j largest gaps, j = 0..M-1 (ties: lower
    position first), each block at its mean; refusing an off-image row thus
    costs at most 2M fits, not one per block composition.

    The rows walk this order in lockstep: at each level, then at each cut,
    every row still unresolved forms its candidate, and the rows whose fits
    re-encode to their latents leave the walk. A row's merges, centers,
    candidates and fits read only its own roots, coefficients and latent, so
    it gets the result it would get alone. Cluster means and fits stay per
    row: a masked batched sum would reorder the additions of a mean, and
    np.linalg.lstsq takes no stack of matrices.
    """
    n, m = roots.shape
    out, ok, live = np.zeros((n, m)), np.zeros(n, dtype=bool), np.arange(n)

    def accept(rows, candidates):
        if rows.size:
            U = np.array([_fit_multiset(v, k, P[j]) for j, (v, k) in zip(rows, candidates)])
            hit = np.max(np.abs(_encode_sorted(U) - P[rows]), axis=1) <= REPRODUCE_TOL
            out[rows[hit]], ok[rows[hit]] = U[hit], True

    labels, merged = np.tile(np.arange(m), (n, 1)), roots.copy()
    dist = np.abs(roots[:, :, None] - roots[:, None, :])
    for level in range(m):
        live = live[~ok[live]]
        if not live.size:
            break
        if level:
            lab, at = labels[live], np.arange(live.size)
            gap = np.where(lab[:, :, None] != lab[:, None, :], dist[live], np.inf)
            a, b = np.divmod(np.argmin(gap.reshape(live.size, m * m), axis=1), m)
            lab = np.where(lab == lab[at, b][:, None], lab[at, a][:, None], lab)
            comp, labels[live] = lab == lab[at, a][:, None], lab
            mu = np.array([np.mean(roots[j][c]) for j, c in zip(live, comp)])
            d = np.abs(roots[live] - mu[:, None])
            # the polished center may travel further than the cluster spread
            # (the mean inherits the coefficient-perturbation error), but it
            # must stay closer to the cluster than to any foreign root
            leash = 4.0 * np.max(np.where(comp, d, -np.inf), axis=1)
            rest = np.where(comp.all(axis=1), -np.inf, 0.5 * np.min(np.where(comp, np.inf, d), axis=1))
            leash = np.where(rest > leash, rest, leash)
            size, center = comp.sum(axis=1), np.empty(live.size, dtype=complex)
            for k in np.unique(size):
                center[size == k] = _polish_centers(coeffs[live[size == k]], mu[size == k], k, leash[size == k])
            merged[live] = np.where(comp, center[:, None], merged[live])
        z = merged[live]
        inside = ~((np.max(np.abs(z.imag), axis=1) > IMAG_TOL) | (np.max(np.abs(z.real), axis=1) > 1.0 + DOMAIN_SLACK))
        accept(live[inside], [np.unique(np.clip(u.real, -1.0, 1.0), return_counts=True) for u in z[inside]])
    r = np.sort(roots.real, axis=1)
    widest = np.argsort(-np.diff(r, axis=1), axis=1, kind="stable")
    for j in range(m):
        live = live[~ok[live]]
        if not live.size:
            break
        cuts = [np.concatenate([[0], np.sort(widest[i, :j]) + 1, [m]]) for i in live]
        accept(live, [([r[i, a:b].mean() for a, b in zip(c[:-1], c[1:])], np.diff(c)) for i, c in zip(live, cuts)])
    return out, ok


def _decode_batch_masked(P, m):
    """Decode rows of power sums; returns (multisets, ok_mask).

    Each row decodes independently of its batch, so bit-equal rows decode to
    bit-equal results: only the distinct rows are decoded (compared as bytes,
    which keep 0.0 and -0.0 apart) and their results are scattered back. The
    encoder sorts before it sums, so every ordering of a set is one such row.
    """
    P = _latent_rows(P, m)
    keys = np.ascontiguousarray(P).view(np.dtype((np.void, 8 * m))).ravel()
    keys, inverse = np.unique(keys, return_inverse=True)
    P = keys.view(float).reshape(-1, m)
    out = np.zeros(P.shape)
    ok = np.zeros(P.shape[0], dtype=bool)
    # a row past the size bound has no decode; refusing it before root finding
    # also keeps latents whose polynomial overflows away from the root finder
    rows = np.flatnonzero(_within_size_bound(P, m))
    coeffs = power_sums_to_monic(P[rows])
    roots = aberth_roots(coeffs)

    # fast path: vectorized feasibility + reproduction check
    imag_ok = np.max(np.abs(roots.imag), axis=1) <= IMAG_TOL
    dom_ok = np.max(np.abs(roots.real), axis=1) <= 1.0 + DOMAIN_SLACK
    cand = np.sort(np.clip(roots.real, -1.0, 1.0), axis=1)[:, ::-1]
    plain = np.flatnonzero(imag_ok & dom_ok)
    rep = plain[np.max(np.abs(_encode_sorted(cand[plain]) - P[rows[plain]]), axis=1) <= REPRODUCE_TOL]
    out[rows[rep]] = cand[rep]
    ok[rows[rep]] = True

    miss = np.flatnonzero(~ok[rows])
    out[rows[miss]], ok[rows[miss]] = _repair(roots[miss], coeffs[miss], P[rows[miss]])
    return out[inverse], ok[inverse]


def power_sum_decode(p, M):
    """Recover the descending multiset whose power sums are p.

    Raises InfeasibleLatent when p is not (within tolerance) the encoding of
    any multiset of [-1, 1]^M: a power sum beyond M in magnitude, recovered
    roots with |imag| > 1e-6, roots outside [-1, 1] by more than 1e-6, or a
    power-sum mismatch beyond 1e-6.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise DomainError(f"latent must be one vector, got shape {p.shape}")
    out, ok = _decode_batch_masked(p[None, :], M)
    if not ok[0]:
        raise InfeasibleLatent(f"latent {p} is not an encoding of a multiset in [-1,1]^{M}")
    return out[0]


def power_sum_decode_batch(P, M):
    """Row-wise power_sum_decode; raises on the first infeasible row."""
    out, ok = _decode_batch_masked(P, M)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise InfeasibleLatent(f"row {bad} is not an encoding of a multiset in [-1,1]^{M}")
    return out


def exact_eval(target, x):
    """Evaluate a permutation-invariant target as rho(Phi(x)).

    The value is required to pass through the latent vector: x is encoded,
    decoded back to a multiset, and only then fed to the target.
    """
    x = as_set_input(x)
    p = power_sum_encode(x)
    u = power_sum_decode(p, x.size)
    return float(target(u))


@dataclass(frozen=True)
class VarSizeCodec:
    """Fixed-width codec for sets with 0..M_max elements.

    The filler value sits strictly outside the data domain (margin >= 0.5), so
    genuine elements and padding can never be confused. The latent keeps each
    data power sum only to about the ulp of M_max * |filler|^q beside it, so the
    safe fillers shrink as M_max grows: sample round trips held to 1e-6 up to
    |filler| = 1e4, 1e3, 100, 30, 10, 3, 2, 2 at M_max = 1..8, not beyond.
    """

    M_max: int
    filler: float = 2.0

    def __post_init__(self):
        if not 1 <= self.M_max <= M_CAP:
            raise SizeError(f"M_max must be in 1..{M_CAP}, got {self.M_max}")
        if abs(self.filler) < 1.5:
            raise DomainError(f"filler {self.filler} must clear [-1, 1] by at least 0.5")

    def filler_powers(self):
        k = float(self.filler)
        return np.array([k ** q for q in range(1, self.M_max + 1)])


def varsize_encode(x, codec):
    """Latent vector (sum_i (x_i^q - k^q)) for q = 1..M_max.

    The empty set maps to the zero vector; sets larger than M_max are a
    SizeError. Equals the power sums of the k-padded multiset minus the
    constant M_max-fold k contribution, so it stays injective across sizes.
    """
    x = np.asarray(x, dtype=float)
    if x.size > codec.M_max:
        raise SizeError(f"set has {x.size} elements, codec supports at most {codec.M_max}")
    if x.size == 0:
        return np.zeros(codec.M_max)
    u = canonicalize(x)
    return _encode_sorted(u[None, :], codec.M_max)[0] - u.size * codec.filler_powers()


def varsize_decode(p, codec):
    """Recover the (possibly empty) descending multiset behind a codec latent."""
    p = np.asarray(p, dtype=float)
    if p.shape != (codec.M_max,):
        raise DomainError(f"latent must have {codec.M_max} coordinates, got shape {p.shape}")
    try:
        return varsize_decode_batch(p[None, :], codec)[0]
    except InfeasibleLatent:
        raise InfeasibleLatent(f"latent {p} is not a codec encoding of any set of size <= {codec.M_max}") from None


def varsize_decode_batch(P, codec):
    """Row-wise varsize_decode returning a list of descending multisets.

    The data size M' is not stored. Re-adding M'*k^q recovers the data power
    sums, and a set of m elements of [-1, 1] has |sum_i x_i^q| <= m for every
    q, so with |k| >= 1.5 the latent rules out almost every wrong size. Each
    row is decoded only at the sizes m = 0..M_max that pass this bound,
    smallest first, and accepted at the first size whose decode re-encodes to
    the row (injectivity across sizes makes the accepted size unique).
    """
    P = _latent_rows(P, codec.M_max)
    kp = codec.filler_powers()
    results = [None] * P.shape[0]
    unresolved = np.ones(P.shape[0], dtype=bool)
    for m in range(codec.M_max + 1):
        rows = np.flatnonzero(unresolved & _within_size_bound(P, m, m * kp))
        if rows.size == 0:
            continue
        if m == 0:
            out, ok = np.empty((rows.size, 0)), np.ones(rows.size, dtype=bool)
        else:
            out, ok = _decode_batch_masked(P[rows, :m] + m * kp[:m], m)
        ok &= np.max(np.abs(_encode_sorted(out, codec.M_max) - m * kp - P[rows]), axis=1) <= REPRODUCE_TOL
        for i, u in zip(rows[ok], out[ok]):
            results[i] = u
        unresolved[rows[ok]] = False
    if unresolved.any():
        bad = int(np.flatnonzero(unresolved)[0])
        raise InfeasibleLatent(f"row {bad} is not a codec encoding of any set of size <= {codec.M_max}")
    return results
