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
from dataclasses import asdict, dataclass

import numpy as np

# scipy.stats and scipy.optimize are imported inside the searches that use them:
# they cost more than the rest of `import setlab`, and codec-only users never need them
from .._jsonio import SCHEMA_VERSION, config_hash, dump_file, load_file
from ..errors import CertMismatch, DomainError, SearchExhausted, SizeError
from ..sets import as_simplex, build_face_pair, f_star
from .simplexmap import nu_batch

NM_MAXITER = 600  # Nelder-Mead iterations per stage-2 start
NEWTON_STEPS = 24  # damped-Newton steps per start (stage 1) or polish (stage 2)
POLISH_TOP = 5  # stage-2 candidates that get the Newton/coordinate polish
COORD_SWEEPS = 6  # coordinate line-search sweeps per polished candidate


def gamma_batch(Z, phi):
    """Alternating-sum map applied to rows of Z (each a simplex point)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = Z.shape[1]
    if phi.N != n:
        raise DomainError(f"encoder output dim {phi.N} must match point dim {n}")
    base = phi.eval(np.array([-1.0, 1.0]))  # rows: phi(-1), phi(1)
    signs = (-1.0) ** np.arange(1, n + 1)
    return np.einsum("i,bij->bj", signs, phi.eval(Z) - base[0]) + 0.5 * (base[1] - base[0])


def gamma(z, phi):
    """Alternating-sum map at one simplex point; DomainError off the simplex."""
    return gamma_batch(as_simplex(z)[None, :], phi)[0]


def left_shift(z):
    """alpha(z): drop the first coordinate and append -1 (stays in the simplex)."""
    z = as_simplex(z)
    return np.append(z[1:], -1.0)


def pooled_encoding(phi, x):
    """Phi(x) = sum_i phi(x_i)."""
    return phi.eval(np.asarray(x, dtype=float)).sum(axis=0)


@dataclass
class CollisionCertificate:
    """A certified pooling collision between the two opposing faces."""

    M: int
    N: int
    z_star: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    phi_residual: float
    f_gap: float
    search_trace: dict
    phi_hash: str

    def to_config(self):
        return {"schema": SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_config(cls, cfg):
        return cls(
            M=int(cfg["M"]),
            N=int(cfg["N"]),
            z_star=np.asarray(cfg["z_star"], dtype=float),
            x_plus=np.asarray(cfg["x_plus"], dtype=float),
            x_minus=np.asarray(cfg["x_minus"], dtype=float),
            phi_residual=float(cfg["phi_residual"]),
            f_gap=float(cfg["f_gap"]),
            search_trace=dict(cfg["search_trace"]),
            phi_hash=str(cfg["phi_hash"]),
        )


def save_certificate(cert, path, seed=None):
    cfg = cert.to_config()
    if seed is not None:
        cfg["seed"] = seed
    cfg["config_hash"] = config_hash({k: v for k, v in cert.to_config().items() if k != "schema"})
    dump_file(cfg, path)


def load_certificate(path):
    return CollisionCertificate.from_config(load_file(path))


def _certificate(phi, z_star, trace):
    z_star = as_simplex(z_star)
    plus, minus = build_face_pair(z_star)
    residual = float(
        np.max(np.abs(pooled_encoding(phi, plus.values) - pooled_encoding(phi, minus.values)))
    )
    gap = f_star(plus.values) - f_star(minus.values)
    return CollisionCertificate(
        M=z_star.size + 1,
        N=z_star.size,
        z_star=z_star,
        x_plus=plus.values,
        x_minus=minus.values,
        phi_residual=residual,
        f_gap=gap,
        search_trace=trace,
        phi_hash=phi.content_hash(),
    )


def _gamma_of_cube(phi):
    def g(x):
        return gamma_batch(nu_batch(np.clip(x, -1.0, 1.0)[None, :]), phi)[0]

    return g


def _damped_newton(g, x, steps, stop_tol=0.0):
    """Square-system damped Newton on a field g with a central-difference
    Jacobian; probes and iterates stay in [-1, 1]. Returns (x, residual)."""
    n = x.size
    val = g(x)
    r = float(np.max(np.abs(val)))
    h = 1e-7
    for _ in range(steps):
        if r <= stop_tol:
            break
        jac = np.empty((n, n))
        for j, e in enumerate(h * np.eye(n)):
            jac[:, j] = (g(np.clip(x + e, -1.0, 1.0)) - g(np.clip(x - e, -1.0, 1.0))) / (2.0 * h)
        try:
            delta = np.linalg.lstsq(jac, -val, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        for t in (1.0, 0.5, 0.25, 0.1):
            cand = np.clip(x + t * delta, -1.0, 1.0)
            cval = g(cand)
            cres = float(np.max(np.abs(cval)))
            if cres < r:
                x, val, r = cand, cval, cres
                break
        else:
            break
    return x, r


def _coordinate_polish(g, x, sweeps):
    """Cyclic bounded line searches on the squared residual (derivative-free)."""
    from scipy import optimize

    h = lambda v: float(np.sum(g(v) ** 2))
    best = h(x)
    for _ in range(sweeps):
        changed = False
        for j in range(x.size):
            def along(t, j=j):
                cand = x.copy()
                cand[j] = t
                return h(cand)

            res = optimize.minimize_scalar(along, bounds=(-1.0, 1.0), method="bounded")
            if res.fun < best:
                x = x.copy()
                x[j] = float(res.x)
                best = res.fun
                changed = True
        if not changed:
            break
    return x, float(np.sqrt(best))


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
    if not inbox.any():
        return []
    Zc = np.clip(Z[inbox], lob[inbox], upb[inbox])
    Zc = np.minimum.accumulate(np.clip(Zc, -1.0, 1.0), axis=1)
    R = np.max(np.abs(gamma_batch(Zc, phi)), axis=1)
    return [(float(r), z) for r, z in zip(R, Zc)]


def _sobol_starts(n, count, seed):
    """Scrambled-Sobol points in the cube [-1, 1]^n: count rounded up to a power
    of two, the only sizes at which Sobol' points keep their balance."""
    from scipy.stats import qmc

    log2 = max(count - 1, 0).bit_length()
    return 2.0 * qmc.Sobol(d=n, scramble=True, seed=seed).random_base2(log2) - 1.0


def _bisect_1d(phi):
    """N=1: the boundary values are exact opposites, so bisection is enough."""
    g = lambda t: float(gamma_batch(np.array([[t]]), phi)[0, 0])
    lo, hi = -1.0, 1.0
    glo, ghi = g(lo), g(hi)
    iterations = 0
    if glo == 0.0:
        best_t, best_r = lo, 0.0
    elif ghi == 0.0:
        best_t, best_r = hi, 0.0
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
                hi, ghi = mid, gm
    trace = {"method": "bisection", "starts": 1, "iterations": iterations, "best_residual": best_r}
    return np.array([best_t]), trace


def find_collision(phi, M=None, tol_zero=1e-8, budget=32, seed=0):
    """Search for a simplex point whose opposing-face lifts pool identically.

    Returns a CollisionCertificate whose phi_residual is at most
    tol_zero * (1 + max|phi|); raises SearchExhausted (with the best residual
    and full trace) if the budget runs out first. A zero of the composed field
    always exists, so exhaustion means the budget was too small, not that no
    collision exists. budget is the number of Sobol starts per stage, rounded
    up to a power of two.
    """
    n = phi.N
    m = n + 1 if M is None else int(M)
    if m != n + 1:
        raise SizeError(f"collision search requires M = N+1; got N={n}, M={m}")
    scale = phi.scale()
    tol_cert = tol_zero * (1.0 + scale)

    # degenerate encoder: after the phi(-1) shift the field vanishes identically
    probe = np.linspace(-1.0, 1.0, 257)
    shifted = phi.eval(probe) - phi.eval(np.array([-1.0]))[0]
    if np.max(np.abs(shifted)) <= 1e-13 * (1.0 + scale):
        cert = _certificate(phi, -np.ones(n), {"method": "degenerate", "starts": 0, "best_residual": 0.0})
        return cert

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
    pool = []  # (residual, order, z) across stages; earliest order wins ties

    # stage 0 (piecewise-linear only): enumerate knot-interval boxes and solve
    # the affine system on each — exact, so it cannot miss thin-slab zeros
    if phi.kind == "piecewise_linear":
        enum = _pwl_interval_zeros(phi, n)
        if enum is not None:
            for r, z in enum:
                pool.append((r, len(pool), z))
            stages.append({
                "name": "interval-enumeration",
                "starts": len(enum),
                "best_residual": min((r for r, _ in enum), default=float("inf")),
            })

    # stage 1: Newton in sorted coordinates — deterministic and cheap. The map
    # is a sum of one-dimensional terms, so in unsorted coordinates its zero
    # set carries n! mirror copies and every start chases the nearest copy,
    # which makes the basins far wider than in the cube parameterization
    if (not pool or min(c[0] for c in pool) > stop_tol) and budget > 0:
        def field(w):
            return gamma_batch(-np.sort(-w)[None, :], phi)[0]

        newton = []
        for w0 in _sobol_starts(n, budget, seed):
            w, r = _damped_newton(field, w0, NEWTON_STEPS, stop_tol)
            newton.append(r)
            pool.append((r, len(pool), -np.sort(-w)))
            if r <= stop_tol:
                break
        stages.append({"name": "sorted-newton", "starts": len(newton), "best_residual": min(newton)})

    # stage 2 (fallback): the cube parameterization turns the boundary field
    # antipodally antisymmetric, so a zero is guaranteed in the interior —
    # multistart Nelder-Mead plus Newton/coordinate polish hunts it down
    if not pool or min(c[0] for c in pool) > stop_tol:
        from scipy import optimize

        g = _gamma_of_cube(phi)
        face_centers = np.zeros((2 * n, n))  # +e_j, then -e_j, for each axis j
        face_centers[2 * np.arange(n), np.arange(n)] = 1.0
        face_centers[2 * np.arange(n) + 1, np.arange(n)] = -1.0
        starts = np.concatenate([face_centers, _sobol_starts(n, max(budget, 1), seed + 1)])

        h = lambda x: float(np.sum(g(x) ** 2))
        candidates = []
        for idx, x0 in enumerate(starts):
            res = optimize.minimize(
                h,
                x0,
                method="Nelder-Mead",
                bounds=[(-1.0, 1.0)] * n,
                options={"maxiter": NM_MAXITER, "xatol": 1e-12, "fatol": 1e-24},
            )
            x = np.clip(res.x, -1.0, 1.0)
            candidates.append({"start": idx, "x": x, "residual": float(np.max(np.abs(g(x))))})

        candidates.sort(key=lambda c: (c["residual"], c["start"]))
        for cand in candidates[:POLISH_TOP]:
            x, r = _damped_newton(g, cand["x"], NEWTON_STEPS)
            if r > tol_cert / 4.0:
                x, r = _coordinate_polish(g, x, COORD_SWEEPS)
            cand["x"], cand["residual"] = x, r

        candidates.sort(key=lambda c: (c["residual"], c["start"]))
        for cand in candidates:
            pool.append((cand["residual"], len(pool), nu_batch(cand["x"][None, :])[0]))
        stages.append({
            "name": "multistart-nm",
            "starts": len(starts),
            "nm_maxiter": NM_MAXITER,
            "best_residual": candidates[0]["residual"],
        })

    best_r, best_order, best_z = min(pool, key=lambda c: (c[0], c[1]))
    trace = {
        "method": "staged",
        "starts": sum(s["starts"] for s in stages),
        "stages": stages,
        "best_residual": best_r,
    }
    cert = _certificate(phi, best_z, trace)
    if cert.phi_residual <= tol_cert:
        return cert
    raise SearchExhausted(
        f"no zero certified within budget (best residual {cert.phi_residual})",
        best_residual=cert.phi_residual,
        trace=trace,
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
