"""Seeded verification suites: every library invariant as a residual check.

Each check draws its own generator from (seed, registry index), measures one
residual, and passes when the residual is at or below its tolerance. Reports
are deterministic given (suite, seed, scale) — byte-identical apart from the
wall_time fields. `scale` multiplies the sample counts (1.0 = full size).
"""

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ._jsonio import SCHEMA_VERSION, config_hash
from .errors import ConfigError
from .mlp import Mlp
from .nnet import DeepSetsModel, TrainConfig, deepsets_eval_batch, train
from .pooling import (
    enumerate_ktuples,
    janossy_pool,
    max_decomp_counterexample,
    sampled_pool,
    sorted_eval,
)
from .powersum import (
    VarSizeCodec,
    _encode_sorted,
    exact_eval,
    power_sum_decode_batch,
    power_sum_encode_batch,
    varsize_decode_batch,
)
from .approx import (
    find_collision,
    gamma_batch,
    left_shift_batch,
    lse_max_batch,
    nu_batch,
    nu_pair_batch,
    pooled_encoding,
    random_mlp_encoder,
    random_piecewise_linear,
    reference_encoders,
)
from .sets import build_face_pair_batch, canonicalize, f_star, f_star_batch, face_residual_batch

SUITES = ("all", "sumdec", "approx", "janossy", "nnet")


def _count(base, scale):
    return max(1, round(base * scale))


# ---------------------------------------------------------------- set core


def _permutation_residual(rng, count, n_perms, fn):
    """Worst |fn(permuted x) - fn(x)| over count sets x of 1..8 uniform elements,
    each drawn with its n_perms permutations; one fn call per set size."""
    by_size = defaultdict(list)
    for _ in range(count):
        x = rng.uniform(-1, 1, int(rng.integers(1, 9)))
        by_size[x.size].append([x] + [rng.permutation(x) for _ in range(n_perms)])
    worst = 0.0
    for m, blocks in by_size.items():
        F = fn(np.reshape(blocks, (-1, m))).reshape(len(blocks), n_perms + 1, -1)
        worst = max(worst, float(np.max(np.abs(F[:, 1:] - F[:, :1]))))
    return worst


def _chk_sort_invariance(rng, scale):
    return _permutation_residual(rng, _count(300, scale), 8, f_star_batch)


def _chk_face_pair_gap(rng, scale):
    worst = 0.0
    for n in range(1, 8):
        Z = np.sort(rng.uniform(-1, 1, size=(_count(10_000, scale), n)), axis=1)[:, ::-1]
        plus, minus = build_face_pair_batch(Z)
        gaps = [face_residual_batch(plus, +1), face_residual_batch(minus, -1)]
        gaps += [f_star_batch(plus) - 1.0, f_star_batch(minus) + 1.0]
        worst = max(worst, float(np.max(np.abs(gaps))))
    return worst


def _chk_canonicalize_idempotent(rng, scale):
    worst = 0.0
    for _ in range(_count(10_000, scale)):
        once = canonicalize(rng.uniform(-1, 1, int(rng.integers(1, 9))))
        worst = max(worst, float(np.max(np.abs(canonicalize(once) - once))))
    return worst


def _chk_planar_closed_form(rng, scale):
    axis = np.linspace(-1.0, 1.0, _count(201, scale))
    XY = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return float(np.max(np.abs(f_star_batch(XY) - (np.abs(XY[:, 0] - XY[:, 1]) - 1.0))))


# ------------------------------------------------------------------ codec


def _chk_round_trip(rng, scale):
    worst = 0.0
    for m in range(1, 9):
        X = rng.uniform(-1, 1, size=(_count(10_000, scale), m))
        S = np.sort(X, axis=1)[:, ::-1]
        U = power_sum_decode_batch(_encode_sorted(S), m)
        worst = max(worst, float(np.max(np.abs(U - S))))
    return worst


def _chk_injectivity_separation(rng, scale):
    floor = np.inf
    for m in range(1, 9):
        n = _count(10_000, scale)
        A = np.sort(rng.uniform(-1, 1, size=(n, m)), axis=1)[:, ::-1]
        B = np.sort(rng.uniform(-1, 1, size=(n, m)), axis=1)[:, ::-1]
        apart = np.max(np.abs(A - B), axis=1) >= 1e-3
        if not apart.any():
            continue
        gaps = np.max(np.abs(_encode_sorted(A[apart]) - _encode_sorted(B[apart])), axis=1)
        floor = min(floor, float(np.min(gaps)))
    return max(0.0, 1e-9 - floor)


def _chk_encode_invariance(rng, scale):
    return _permutation_residual(rng, _count(10_000, scale), 1, power_sum_encode_batch)


def _chk_varsize_round_trip(rng, scale):
    codec = VarSizeCodec(M_max=6)
    worst = 0.0
    for size in range(0, 7):
        sets = [rng.uniform(-1, 1, size) for _ in range(_count(1000, scale))]
        sets = [canonicalize(x) for x in sets] if size else sets
        # varsize_encode of each set, as one encode of the sorted rows
        rows = _encode_sorted(np.array(sets), codec.M_max) - size * codec.filler_powers()
        got = varsize_decode_batch(rows, codec)
        for u, want in zip(got, sets):
            if u.size != want.size:
                return np.inf
            if u.size:
                worst = max(worst, float(np.max(np.abs(u - want))))
    return worst


def _chk_exact_eval_max_grid(rng, scale):
    worst = 0.0
    for m in range(1, 4):
        axis = np.linspace(-1.0, 1.0, 51)
        grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)
        stride = max(1, round(1.0 / scale))
        grid = grid[::stride]
        S = np.sort(grid, axis=1)[:, ::-1]
        U = power_sum_decode_batch(_encode_sorted(S), m)
        worst = max(worst, float(np.max(np.abs(np.max(U, axis=1) - np.max(grid, axis=1)))))
        for i in rng.integers(0, grid.shape[0], size=min(50, grid.shape[0])):
            worst = max(worst, abs(exact_eval(np.max, grid[i]) - np.max(grid[i])))
    return worst


# ------------------------------------------------------------------ approx


def _chk_smoothmax_bound(rng, scale):
    by_size = defaultdict(list)
    for _ in range(_count(100_000, scale)):
        m = int(rng.integers(1, 9))
        by_size[m].append((rng.uniform(-1, 1, m), float(rng.uniform(0.5, 50.0))))
    worst = 0.0
    for m, samples in by_size.items():
        X, a = map(np.array, zip(*samples))
        v, mx = lse_max_batch(X, a), np.max(X, axis=1)
        worst = max(worst, float(np.max(mx - v)), float(np.max(v - mx - np.log(m) / a)))
    return max(0.0, worst)


def _chk_smoothmax_saturation(rng, scale):
    by_size = defaultdict(list)
    for _ in range(_count(2000, scale)):
        m = int(rng.integers(1, 9))
        by_size[m].append((float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 50.0))))
    worst = 0.0
    for m, samples in by_size.items():
        t, a = map(np.array, zip(*samples))
        v = lse_max_batch(np.repeat(t[:, None], m, axis=1), a)
        worst = max(worst, float(np.max(np.abs(v - (t + np.log(m) / a)))))
    return worst


def _chk_surjection_codomain(rng, scale):
    worst = 0.0
    for n in range(1, 7):
        V = nu_batch(rng.uniform(-1, 1, size=(_count(100_000, scale), n)))
        worst = max(worst, float(np.max(np.abs(V))) - 1.0)
        if n > 1:
            worst = max(worst, float(np.max(np.diff(V, axis=1))))
    return max(0.0, worst)


def _chk_interleave_inequality(rng, scale):
    worst = 0.0
    for n in range(2, 7):
        X = rng.uniform(-1, 1, size=(_count(100_000, scale), n))
        V, W = nu_pair_batch(X)
        worst = max(worst, float(np.max(W[:, 1:] - V[:, :-1])))
    return max(0.0, worst)


def _boundary_sample(rng, count, n):
    X = rng.uniform(-1, 1, size=(count, n))
    X[np.arange(count), rng.integers(0, n, size=count)] = rng.choice([-1.0, 1.0], size=count)
    return X


def _chk_boundary_antisymmetry(rng, scale):
    worst = 0.0
    for n in range(1, 7):
        X = _boundary_sample(rng, _count(100_000, scale), n)
        A, B = nu_pair_batch(X)
        for phi in reference_encoders(n):
            worst = max(worst, float(np.max(np.abs(gamma_batch(B, phi) + gamma_batch(A, phi)))))
    return worst


def _chk_vertical_constancy(rng, scale):
    worst = 0.0
    heights = np.linspace(-1.0, 1.0, 9)
    for n in range(2, 7):
        count = _count(2000, scale)
        xbar = _boundary_sample(rng, count, n - 1)
        X = np.concatenate(
            [np.repeat(xbar, heights.size, axis=0), np.tile(heights, count)[:, None]], axis=1
        )
        V = nu_batch(X)
        for phi in reference_encoders(n):
            G = gamma_batch(V, phi).reshape(count, heights.size, n)
            worst = max(worst, float(np.max(np.abs(G - G[:, :1, :]))))
    return worst


def _chk_left_shift_antisymmetry(rng, scale):
    worst = 0.0
    count = _count(400, scale)
    for n in range(2, 7):
        for phi in reference_encoders(n):
            tails = np.sort(rng.uniform(-1, 1, (count, n - 1)), axis=1)[:, ::-1]
            Z = np.concatenate([np.ones((count, 1)), tails], axis=1)
            g = gamma_batch(np.concatenate([Z, left_shift_batch(Z)]), phi)
            worst = max(worst, float(np.max(np.abs(g[count:] + g[:count]))))
    return worst


def _chk_certificate_validity(rng, scale):
    tol = 1e-8
    worst = 0.0
    for n in range(1, 4):
        for rep in range(_count(3, scale)):
            phi = random_piecewise_linear(n, seed=int(rng.integers(1 << 30)))
            cert = find_collision(phi, tol_zero=tol)
            spread = np.max(
                np.abs(pooled_encoding(phi, cert.x_plus) - pooled_encoding(phi, cert.x_minus))
            )
            worst = max(
                worst,
                abs(f_star(cert.x_plus) - 1.0),
                abs(f_star(cert.x_minus) + 1.0),
                float(spread) - tol * (1.0 + phi.scale()),
            )
    return max(0.0, worst)


def _chk_surjection_continuity(rng, scale):
    delta = 1e-6
    ratio = 0.0
    for n in range(1, 7):
        count = _count(10_000, scale)
        X = rng.uniform(-1 + delta, 1 - delta, size=(count, n))
        step = rng.normal(size=(count, n))
        step /= np.linalg.norm(step, axis=1, keepdims=True)
        spread = np.max(np.abs(nu_batch(X) - nu_batch(X + delta * step)), axis=1)
        ratio = max(ratio, float(np.max(spread)) / delta)
    return ratio


# ----------------------------------------------------------------- pooling


def _first_element(v):
    return math.tanh(v[0]) + 0.5 * v[0] ** 2


def _chk_first_element_consistency(rng, scale):
    worst = 0.0
    for k in (2, 3):
        for m in range(3, 7):
            for _ in range(_count(1000, scale)):
                x = rng.uniform(-1, 1, m)
                worst = max(
                    worst,
                    abs(janossy_pool(x, k, _first_element) - janossy_pool(x, 1, _first_element)),
                )
    return worst


def _chk_pool_invariance(rng, scale):
    worst = 0.0
    for m in range(2, 7):
        for _ in range(_count(20 if m < 6 else 5, scale)):
            x = rng.uniform(-1, 1, m)
            base_pool = janossy_pool(x, 2, _first_element)
            base_sort = sorted_eval(x, lambda u: float(u[0] - u[-1]))
            for perm in enumerate_ktuples(m, m):
                y = x[perm]
                worst = max(
                    worst,
                    abs(janossy_pool(y, 2, _first_element) - base_pool),
                    abs(sorted_eval(y, lambda u: float(u[0] - u[-1])) - base_sort),
                )
    return worst


def _order_sensitive(v):
    return float(v @ (0.5 ** np.arange(v.size)))


def _chk_sampled_variance_law(rng, scale):
    x = rng.uniform(-1, 1, 4)
    # each trial's draw comes from the registry seed too, not from the trial
    # index alone, so that seeds differ in their draws and not only in x
    base = int(rng.integers(1 << 30))
    outputs = [_order_sensitive(x[t]) for t in enumerate_ktuples(4, 4)]
    sigma2 = statistics.pvariance(outputs)
    trials = _count(10_000, scale)
    worst = 0.0
    for p in (1, 2, 6, 12, 24):
        vals = [sampled_pool(x, _order_sensitive, p, seed=(base, t)) for t in range(trials)]
        if p == 24:
            worst = max(worst, float(statistics.pvariance(vals)))
            continue
        theory = (24 - p) / 23 * sigma2 / p
        emp = statistics.pvariance(vals)
        m4 = statistics.fmean((np.array(vals) - statistics.fmean(vals)) ** 4)
        se = math.sqrt(max(m4 - (trials - 3) / (trials - 1) * emp**2, 0.0) / trials)
        worst = max(worst, abs(emp - theory) - 3 * se)
    return max(0.0, worst)


def _chk_max_counterexample(rng, scale):
    worst = 0.0
    for _ in range(_count(50, scale)):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, m))
        phi = random_mlp_encoder(n, seed=int(rng.integers(1 << 30)))
        x, x_tilde, report = max_decomp_counterexample(phi, m)
        pool_gap = np.max(
            np.abs(np.max(phi.eval(x), axis=0) - np.max(phi.eval(x_tilde), axis=0))
        )
        worst = max(worst, float(pool_gap), 1e-6 - report["sum_gap"])
    return max(0.0, worst)


# ------------------------------------------------------------------- nnet


def _random_model(rng):
    m = int(rng.integers(2, 7))
    n = int(rng.integers(1, 5))
    phi = Mlp.init([1, 8, n], seed=int(rng.integers(1 << 30)))
    rho = Mlp.init([n, 8, 1], seed=int(rng.integers(1 << 30)))
    return DeepSetsModel(phi_net=phi, N=n, rho_net=rho), m


def _chk_model_invariance(rng, scale):
    worst = 0.0
    for _ in range(_count(30, scale)):
        model, m = _random_model(rng)
        x = rng.uniform(-1, 1, m)
        perms = enumerate_ktuples(m, m)
        if len(perms) > 120:
            perms = perms[rng.integers(0, len(perms), size=120)]
        # row 0 is x as given; row-invariance keeps each value deepsets_eval's
        vals = deepsets_eval_batch(model, np.vstack([x, x[perms]]))
        worst = max(worst, float(np.max(np.abs(vals[1:] - vals[0]))))
    return worst


def _chk_gradient_oracle(rng, scale):
    worst = 0.0
    for _ in range(_count(100, scale)):
        net = Mlp.init([2, int(rng.integers(2, 9)), 1], seed=int(rng.integers(1 << 30)))
        X = rng.uniform(-1, 1, size=(5, 2))

        def loss():
            return float(np.sum(net.forward(X) ** 2))

        out, trace = net.forward_trace(X)
        wg, bg, _ = net.backward(trace, 2.0 * out)
        grad = np.concatenate([g.ravel() for g in wg] + [g.ravel() for g in bg])
        fd = []
        h = 1e-6
        for arr in net.weights + net.biases:
            for i in np.ndindex(arr.shape):
                orig = arr[i]
                arr[i] = orig + h
                up = loss()
                arr[i] = orig - h
                fd.append((up - loss()) / (2 * h))
                arr[i] = orig
        fd = np.array(fd)
        worst = max(worst, float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)))
    return worst


def _small_train_config(seed):
    return TrainConfig(
        task="f_star",
        M=3,
        N=2,
        seed=seed,
        epochs=30,
        batch=64,
        step=0.05,
        n_samples=256,
        phi_hidden=(8,),
        rho_hidden=(8,),
        grid_resolution=7,
    )


def _chk_training_reproducibility(rng, scale):
    seed = int(rng.integers(1 << 30))
    first, _ = train(_small_train_config(seed))
    second, _ = train(_small_train_config(seed))
    worst = 0.0
    for net_a, net_b in ((first.phi_net, second.phi_net), (first.rho_net, second.rho_net)):
        for a, b in zip(net_a.weights + net_a.biases, net_b.weights + net_b.biases):
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _chk_encoder_export_match(rng, scale):
    worst = 0.0
    for _ in range(_count(20, scale)):
        model, m = _random_model(rng)
        spec = model.encoder_spec
        Z = np.sort(rng.uniform(-1, 1, size=(50, model.N)), axis=1)[:, ::-1]
        base = model.phi_net.forward(np.array([[-1.0], [1.0]]))
        signs = (-1.0) ** np.arange(1, model.N + 1)
        direct = np.stack(
            [
                (signs[:, None] * (model.phi_net.forward(z[:, None]) - base[0])).sum(axis=0)
                + 0.5 * (base[1] - base[0])
                for z in Z
            ]
        )
        worst = max(worst, float(np.max(np.abs(gamma_batch(Z, spec) - direct))))
    return worst


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    suite: str
    tolerance: float
    fn: object


CHECKS = (
    Check("fstar-permutation-invariance", "sort-removes-order", "sumdec", 0.0, _chk_sort_invariance),
    Check("face-pair-gap", "opposing-faces-gap-two", "sumdec", 0.0, _chk_face_pair_gap),
    Check("canonicalize-idempotent", "canonical-representative", "sumdec", 0.0, _chk_canonicalize_idempotent),
    Check("planar-closed-form", "pair-closed-form", "sumdec", 1e-12, _chk_planar_closed_form),
    Check("power-sum-round-trip", "codec-bijectivity", "sumdec", 1e-6, _chk_round_trip),
    Check("injectivity-separation", "encoder-injectivity", "sumdec", 0.0, _chk_injectivity_separation),
    Check("encode-permutation-invariance", "canonical-summation", "sumdec", 0.0, _chk_encode_invariance),
    Check("varsize-round-trip", "padded-codec-bijectivity", "sumdec", 1e-6, _chk_varsize_round_trip),
    Check("exact-eval-max-grid", "decode-then-evaluate", "sumdec", 1e-6, _chk_exact_eval_max_grid),
    Check("smoothmax-bound", "smoothmax-envelope", "approx", 1e-12, _chk_smoothmax_bound),
    Check("smoothmax-saturation", "smoothmax-equal-inputs", "approx", 0.0, _chk_smoothmax_saturation),
    Check("surjection-codomain", "cube-to-simplex-codomain", "approx", 1e-9, _chk_surjection_codomain),
    Check("interleave-inequality", "mirror-interleaving", "approx", 1e-9, _chk_interleave_inequality),
    Check("boundary-antisymmetry", "odd-map-boundary", "approx", 1e-9, _chk_boundary_antisymmetry),
    Check("vertical-constancy", "field-constant-verticals", "approx", 1e-9, _chk_vertical_constancy),
    Check("left-shift-antisymmetry", "shift-negates-field", "approx", 1e-12, _chk_left_shift_antisymmetry),
    Check("certificate-validity", "collision-certificates", "approx", 0.0, _chk_certificate_validity),
    Check("surjection-continuity-probe", "local-slope-estimate", "approx", 1e3, _chk_surjection_continuity),
    Check("first-element-consistency", "kary-reduces-to-unary", "janossy", 0.0, _chk_first_element_consistency),
    Check("pool-permutation-invariance", "tuple-average-symmetry", "janossy", 1e-12, _chk_pool_invariance),
    Check("sampled-variance-law", "subsampling-variance", "janossy", 0.0, _chk_sampled_variance_law),
    Check("max-pool-counterexample", "max-pool-collision", "janossy", 0.0, _chk_max_counterexample),
    Check("model-permutation-invariance", "pooled-model-symmetry", "nnet", 0.0, _chk_model_invariance),
    Check("gradient-oracle", "reverse-mode-gradients", "nnet", 1e-4, _chk_gradient_oracle),
    Check("training-reproducibility", "seeded-determinism", "nnet", 0.0, _chk_training_reproducibility),
    Check("encoder-export-match", "export-evaluation-parity", "nnet", 1e-12, _chk_encoder_export_match),
)


def run_suite(suite="all", seed=0, tol=None, scale=1.0):
    """Run one suite's checks; returns the report dict.

    tol, when given, overrides every check's tolerance (tol=0 forces any
    check with a nonzero residual to fail). scale multiplies sample counts.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}")
    if not (isinstance(scale, (int, float)) and 0 < scale <= 1):
        raise ConfigError(f"scale must be in (0, 1], got {scale}")
    if tol is not None and not (isinstance(tol, (int, float)) and 0 <= tol < math.inf):
        raise ConfigError(f"tolerance override must be a finite number >= 0, got {tol}")
    selected = [
        (i, c) for i, c in enumerate(CHECKS) if suite == "all" or c.suite == suite
    ]
    rows = []
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for index, check in selected:
        rng = np.random.default_rng((seed, index))
        start = time.perf_counter()
        residual = float(check.fn(rng, scale))
        wall = time.perf_counter() - start
        tolerance = float(check.tolerance if tol is None else tol)
        status = "pass" if residual <= tolerance else "fail"
        counts[status] += 1
        rows.append(
            {
                "name": check.name,
                "anchor": check.anchor,
                "status": status,
                "residual": residual,
                "tolerance": tolerance,
                "seed": seed,
                "wall_time": wall,
            }
        )
    run_config = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "seed": int(seed),
        "scale": float(scale),
        "tol_override": None if tol is None else float(tol),
    }
    report = dict(run_config)
    report["checks"] = rows
    report["summary"] = {**counts, "total": len(rows)}
    report["config_hash"] = config_hash(run_config)
    return report
