"""Constructive encoder collisions and the worst-case error bound.

For an elementwise encoder phi: [-1,1] -> R^N and M = N+1, the alternating-sum
map Gamma(z) = sum_i (-1)^i phi~(z_i) + phi~(1)/2 (with phi~ = phi - phi(-1))
has a zero on the ordered simplex; composing with the cube-to-simplex map nu
turns that into an antipodally antisymmetric boundary field, so a zero always
exists. At a zero z*, the two opposing-face lifts x+ and x- pool identically
under phi while the alternating target separates them by exactly 2 — which
caps how well any rho(sum phi) model can track that target.
"""

import itertools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .._jsonio import SCHEMA_VERSION, dump_file, json_fits, load_file, schema_free_hash
from ..errors import CertMismatch, ConfigError, DomainError, SearchExhausted, SizeError
from ..sets import as_simplex, as_simplex_rows, build_face_pair, f_star

NEWTON_STARTS = 256  # default search budget: sorted-Newton starts per search
NEWTON_STEPS = 24  # damped-Newton steps per start


def gamma_batch(Z, phi):
    """Alternating-sum map applied to rows of Z (each a simplex point)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = Z.shape[1]
    if phi.N != n:
        raise DomainError(f"encoder output dim {phi.N} must match point dim {n}")
    # one evaluation: Z's entries, then phi(-1) and phi(1)
    vals = phi.eval(np.concatenate([Z.reshape(-1), [-1.0, 1.0]]))
    low, high = vals[-2], vals[-1]
    signs = (-1.0) ** np.arange(1, n + 1)
    shifted = vals[:-2].reshape(*Z.shape, phi.N) - low
    return np.einsum("i,bij->bj", signs, shifted) + 0.5 * (high - low)


def gamma(z, phi):
    """Alternating-sum map at one simplex point; DomainError off the simplex."""
    return gamma_batch(as_simplex(z)[None, :], phi)[0]


def left_shift_batch(Z):
    """alpha on every row of Z: drop the first coordinate and append -1 (stays
    in the simplex)."""
    Z = as_simplex_rows(Z)
    return np.concatenate([Z[:, 1:], np.full((Z.shape[0], 1), -1.0)], axis=1)


def left_shift(z):
    """alpha(z) at one simplex point; DomainError off the simplex."""
    return left_shift_batch(as_simplex(z)[None, :])[0]


def pooled_encoding(phi, x):
    """Phi(x) = sum_i phi(x_i)."""
    return phi.eval(np.asarray(x, dtype=float)).sum(axis=0)


@dataclass
class CollisionCertificate:
    """A certified pooling collision between the two opposing faces. M, N,
    the face pair and the target gap are derived from z_star, not given."""

    M: int = field(init=False)
    N: int = field(init=False)
    z_star: np.ndarray
    x_plus: np.ndarray = field(init=False)
    x_minus: np.ndarray = field(init=False)
    phi_residual: float
    f_gap: float = field(init=False)
    search_trace: dict
    phi_hash: str

    def __post_init__(self):
        self.z_star = as_simplex(self.z_star)
        self.N = self.z_star.size
        self.M = self.N + 1
        self.x_plus, self.x_minus = build_face_pair(self.z_star)
        self.f_gap = f_star(self.x_plus) - f_star(self.x_minus)

    def to_config(self):
        return {"schema": SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_config(cls, cfg):
        """A stored certificate, refused (ConfigError) unless every field holds
        a JSON value of its type (a list of numbers for an array), z_star is a
        point of the simplex and M, N, x_plus, x_minus and f_gap are exactly
        what it derives from z_star."""
        try:
            wrong = [
                f.name
                for f in fields(cls)
                if not json_fits(list if f.type is np.ndarray else f.type, cfg[f.name])
            ]
            if wrong:
                raise TypeError(f"fields {wrong} hold JSON values of the wrong type")
            cert = cls(
                np.asarray(cfg["z_star"], dtype=float),
                float(cfg["phi_residual"]),
                dict(cfg["search_trace"]),
                cfg["phi_hash"],
            )
            derived = [f.name for f in fields(cls) if not f.init]
            stored = [np.asarray(cfg[name], dtype=float) for name in derived]
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise ConfigError(f"malformed collision certificate: {exc}") from None
        if not all(np.array_equal(v, getattr(cert, name)) for name, v in zip(derived, stored)):
            raise ConfigError(
                "inconsistent collision certificate: M, N, x_plus, x_minus and f_gap "
                "must be those derived from z_star"
            )
        return cert


def save_certificate(cert, path, seed):
    cfg = cert.to_config()
    dump_file({**cfg, "seed": seed, "config_hash": schema_free_hash(cfg)}, path)


def load_certificate(path):
    return CollisionCertificate.from_config(load_file(path))


def _certificate(phi, z_star, trace):
    plus, minus = build_face_pair(z_star)
    residual = float(np.max(np.abs(pooled_encoding(phi, plus) - pooled_encoding(phi, minus))))
    return CollisionCertificate(z_star, residual, trace, phi.content_hash())


def _damped_newton(field, x, steps, stop_tol=0.0):
    """Square-system damped Newton on a row-batched field ((k, n) points to
    (k, n) values) with a central-difference Jacobian; probes and iterates
    stay in [-1, 1]. Each step evaluates its 2n probes in one call and its
    step ladder in one more. Returns (x, residual)."""
    n = x.size
    val = field(x[None, :])[0]
    r = float(np.max(np.abs(val)))
    h = 1e-7
    step = h * np.eye(n)
    ladder = np.array([1.0, 0.5, 0.25, 0.1])
    for _ in range(steps):
        if r <= stop_tol:
            break
        vals = field(np.clip(np.concatenate([x + step, x - step]), -1.0, 1.0))
        jac = ((vals[:n] - vals[n:]) / (2.0 * h)).T
        try:
            delta = np.linalg.lstsq(jac, -val, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        cands = np.clip(x + ladder[:, None] * delta, -1.0, 1.0)
        cvals = field(cands)
        cres = np.max(np.abs(cvals), axis=1)
        better = np.flatnonzero(cres < r)
        if better.size == 0:
            break
        x, val, r = cands[better[0]], cvals[better[0]], float(cres[better[0]])
    return x, r


_ENUM_CAP = 60000


def _pwl_interval_zeros(phi, n):
    """Exact zeros of the alternating-sum map for piecewise-linear encoders.

    On each box of knot-interval assignments the map is affine, so every zero
    solves one n-by-n linear system. Zeros routinely hide in slabs thinner
    than any sampling resolution (knot gaps can be ~1e-3), which defeats
    sampling-based searches; enumerating the ordered boxes is exact and cheap.
    Returns (residual, z) candidates in enumeration order, or None when the
    encoder has too many intervals for enumeration to stay cheap.
    """
    breaks = np.unique(np.concatenate([[float(r[0]) for r in rows] for rows in phi.params]))
    n_int = breaks.size - 1
    if math.comb(n_int + n - 1, n) > _ENUM_CAP:
        return None
    base = phi.eval(np.array([-1.0, 1.0]))
    half = 0.5 * (base[1] - base[0])
    lo = phi.eval(breaks[:-1]) - base[0]
    hi = phi.eval(breaks[1:]) - base[0]
    slopes = (hi - lo) / np.diff(breaks)[:, None]
    inters = lo - slopes * breaks[:-1, None]
    signs = (-1.0) ** np.arange(1, n + 1)

    combos = np.array(list(itertools.combinations_with_replacement(range(n_int), n)))[:, ::-1]
    A = signs[None, None, :] * np.swapaxes(slopes[combos], 1, 2)  # (C, dim, coord)
    rhs = -(signs[None, :, None] * inters[combos]).sum(axis=1) - half[None, :]
    Z = (np.linalg.pinv(A) @ rhs[:, :, None])[:, :, 0]
    lob, upb = breaks[combos], breaks[combos + 1]
    inbox = np.all(Z >= lob - 1e-9, axis=1) & np.all(Z <= upb + 1e-9, axis=1)
    Zc = np.clip(Z[inbox], lob[inbox], upb[inbox])
    Zc = np.minimum.accumulate(np.clip(Zc, -1.0, 1.0), axis=1)
    R = np.max(np.abs(gamma_batch(Zc, phi)), axis=1)
    return [(float(r), z) for r, z in zip(R, Zc)]


def _bisect_1d(phi):
    """N=1: the boundary values are exact opposites, so bisection is enough."""
    g = lambda t: float(gamma_batch(np.array([[t]]), phi)[0, 0])
    lo, hi = -1.0, 1.0
    glo, ghi = g(lo), g(hi)
    iterations = 0
    # gamma(-1) = -gamma(1) exactly, so ghi is 0 only when glo is
    if glo == 0.0:
        best_t, best_r = lo, 0.0
    else:
        best_t, best_r = (lo, abs(glo)) if abs(glo) < abs(ghi) else (hi, abs(ghi))
        for iterations in range(1, 200):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if abs(gm) < best_r:
                best_t, best_r = mid, abs(gm)
            if gm == 0.0 or hi - lo < 1e-16:
                break
            if (gm > 0) == (glo > 0):
                lo, glo = mid, gm
            else:
                hi = mid
    trace = {"method": "bisection", "starts": 1, "iterations": iterations, "best_residual": best_r}
    return np.array([best_t]), trace


def _staged_certificate(phi, pool, stages):
    """Certificate of the pool's lowest-residual point, earliest on ties."""
    best_r, best_z = min(pool, key=lambda c: c[0])
    starts = sum(s["starts"] for s in stages)
    trace = {"method": "staged", "starts": starts, "stages": stages, "best_residual": best_r}
    return _certificate(phi, best_z, trace)


def find_collision(phi, tol_zero=1e-8, budget=NEWTON_STARTS, seed=0):
    """Search for a simplex point whose opposing-face lifts pool identically.

    Returns a CollisionCertificate whose phi_residual is at most
    tol_zero * (1 + max|phi|); raises SearchExhausted (with the best residual
    and full trace) if the budget runs out first. A zero of the composed field
    always exists, so exhaustion means the budget was too small, not that no
    collision exists; the sets have M = phi.N + 1 elements. A piecewise-linear
    encoder's knot-interval boxes are enumerated first, and Newton runs only
    when no enumerated point certifies. budget is the most sorted-Newton
    starts (default 256), drawn uniform in [-1, 1]^N one at a time from
    np.random.default_rng(seed), so a larger budget begins with the starts of
    a smaller one; a budget below 1 is a SizeError.
    """
    if budget < 1:
        raise SizeError(f"collision search needs a budget of at least 1 start; got {budget}")
    n = phi.N
    scale = phi.scale()
    tol_cert = tol_zero * (1.0 + scale)

    # degenerate encoder: after the phi(-1) shift the field vanishes identically
    probe = np.linspace(-1.0, 1.0, 257)
    shifted = phi.eval(probe) - phi.eval(np.array([-1.0]))[0]
    if np.max(np.abs(shifted)) <= 1e-13 * (1.0 + scale):
        return _certificate(phi, -np.ones(n), {"method": "degenerate", "starts": 0, "best_residual": 0.0})

    if n == 1:
        z_star, trace = _bisect_1d(phi)
        cert = _certificate(phi, z_star, trace)
        if cert.phi_residual <= tol_cert:
            return cert
        raise SearchExhausted(
            f"bisection stalled at residual {cert.phi_residual}",
            best_residual=cert.phi_residual,
            trace=trace,
        )

    stop_tol = max(1e-13 * (1.0 + scale), 0.25 * tol_cert)
    stages = []
    pool = []  # (residual, z) across stages; min keeps the earliest of ties

    # stage 0 (piecewise-linear only): enumerate knot-interval boxes and solve
    # the affine system on each — exact, so it cannot miss thin-slab zeros
    if phi.kind == "piecewise_linear":
        enum = _pwl_interval_zeros(phi, n)
        if enum is not None:
            pool += enum
            stages.append({
                "name": "interval-enumeration",
                "starts": len(enum),
                "best_residual": min((r for r, _ in enum), default=float("inf")),
            })

    # a certified enumeration point ends the search
    if pool:
        cert = _staged_certificate(phi, pool, stages)
        if cert.phi_residual <= tol_cert:
            return cert

    # then Newton in sorted coordinates, one start at a time until a start
    # reaches stop_tol. The map is a sum of one-dimensional terms, so in
    # unsorted coordinates its zero set carries n! mirror copies and every
    # start chases the nearest copy, which makes the basins far wider than in
    # the cube parameterization
    def field(W):
        return gamma_batch(-np.sort(-W, axis=1), phi)

    rng = np.random.default_rng(seed)
    newton = []
    for _ in range(budget):
        w, r = _damped_newton(field, rng.uniform(-1.0, 1.0, n), NEWTON_STEPS, stop_tol)
        newton.append(r)
        pool.append((r, -np.sort(-w)))
        if r <= stop_tol:
            break
    stages.append({"name": "sorted-newton", "starts": len(newton), "best_residual": min(newton)})

    cert = _staged_certificate(phi, pool, stages)
    if cert.phi_residual <= tol_cert:
        return cert
    raise SearchExhausted(
        f"no zero certified within budget (best residual {cert.phi_residual})",
        best_residual=cert.phi_residual,
        trace=cert.search_trace,
    )


def error_lower_bound(model, cert):
    """Worst of the model's errors against the alternating target at the two
    certified collision points — at an exact collision this is at least half
    the target's gap, for any readout the model composes on top.

    The model must expose the encoder it pools with as `encoder_spec`; a
    certificate minted for a different encoder is a CertMismatch.
    """
    model_hash = model.encoder_spec.content_hash()
    if model_hash != cert.phi_hash:
        raise CertMismatch(
            f"certificate encoder {cert.phi_hash[:12]} does not match model encoder {model_hash[:12]}"
        )
    err_plus = abs(float(model(cert.x_plus)) - f_star(cert.x_plus))
    err_minus = abs(float(model(cert.x_minus)) - f_star(cert.x_minus))
    return max(err_plus, err_minus)
