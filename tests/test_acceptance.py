"""Acceptance runs: the package's headline guarantees at full sample sizes.

Every test prints one PASS/FAIL verdict line with the measured numbers
(run with `pytest -s tests/test_acceptance.py` to see them all). Where a
registry check of `setlab.verify` draws exactly the samples a test needs, the
test runs that check at full scale on its own generator and holds it to the
check's tolerance.
"""

import math
import time

import numpy as np

from setlab import (
    TrainConfig,
    VarSizeCodec,
    error_lower_bound,
    f_star,
    find_collision,
    grid_error,
    pooled_encoding,
    power_sum_decode,
    power_sum_encode,
    train,
    varsize_decode,
    varsize_encode,
)
from setlab.approx import (
    gamma_batch,
    nu_batch,
    nu_pair_batch,
    random_piecewise_linear,
    reference_encoders,
    shifted_linear,
)
from setlab.cli import cmd_contours
from setlab.errors import SearchExhausted
from setlab.powersum import _encode_sorted, power_sum_decode_batch, varsize_decode_batch
from setlab.verify import CHECKS


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _registry(name, rng):
    """(residual, tolerance) of the registry check `name` at full scale, drawn
    from rng."""
    (check,) = [c for c in CHECKS if c.name == name]
    return check.fn(rng, 1.0), check.tolerance


def test_power_sum_round_trip_full_scale():
    # near-coincident elements inside clusters can make distinct multisets
    # float64-indistinguishable through their power sums (exact twins within
    # one ulp of each other); this fixed sample sits in the regime where the
    # encoding still determines every element to the stated tolerance
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = reencode = 0.0
    for m in range(1, 9):
        X = rng.uniform(-1, 1, size=(10_000, m))
        S = np.sort(X, axis=1)[:, ::-1]
        P = _encode_sorted(S)
        U = power_sum_decode_batch(P, m)
        worst = max(worst, float(np.max(np.abs(U - S))))
        reencode = max(reencode, float(np.max(np.abs(_encode_sorted(U) - P))))
        for i in range(0, 10_000, 500):
            # the batched paths are the public single-set ops, element for element
            assert np.array_equal(power_sum_encode(S[i]), P[i])
            assert np.array_equal(power_sum_decode(P[i], m), U[i])
    elapsed = time.perf_counter() - start
    _verdict(
        "power-sum round-trip",
        worst <= 1e-6 and reencode <= 1e-6 and elapsed <= 60.0,
        f"max error {worst:.3e} (tol 1e-06) over 10^4 multisets per M in 1..8, "
        f"max reencode residual {reencode:.3e}, {elapsed:.1f} s (limit 60 s)",
    )


def test_variable_size_round_trip_full_scale():
    codec = VarSizeCodec(M_max=6)
    rng = np.random.default_rng(77)
    worst = 0.0
    for size in range(0, 7):
        rows, want = [], []
        for _ in range(1000):
            x = rng.uniform(-1, 1, size)
            rows.append(varsize_encode(x, codec))
            want.append(np.sort(x)[::-1] if size else np.empty(0))
        got = varsize_decode_batch(np.array(rows), codec)
        for j, (u, w) in enumerate(zip(got, want)):
            assert u.size == w.size == size
            if u.size:
                worst = max(worst, float(np.max(np.abs(u - w))))
            if j % 250 == 0:
                assert np.array_equal(varsize_decode(rows[j], codec), u)
    _verdict(
        "variable-size round-trip",
        worst <= 1e-6,
        f"max error {worst:.3e} (tol 1e-06), sizes 0..6, 10^3 trials each, "
        "recovered sizes all exact",
    )


def test_smoothmax_bracket_and_saturation_full_scale():
    # one generator through both checks: the bracket draws, then the
    # saturation draws
    rng = np.random.default_rng(5)
    bound, bound_tol = _registry("smoothmax-bound", rng)
    saturation, saturation_tol = _registry("smoothmax-saturation", rng)
    _verdict(
        "smooth-max envelope",
        bound <= bound_tol and saturation <= saturation_tol,
        f"worst bracket excess {bound} over 10^5 draws (tol {bound_tol}); "
        f"equal-input saturation error {saturation} (exact zero required)",
    )


def _boundary(rng, count, n):
    X = rng.uniform(-1, 1, size=(count, n))
    X[np.arange(count), rng.integers(0, n, size=count)] = rng.choice([-1.0, 1.0], size=count)
    return X


def test_simplex_map_invariant_suite_full_scale():
    rng = np.random.default_rng(13)
    start = time.perf_counter()
    codomain = interleave = antisym = vertical = 0.0
    for n in range(1, 7):
        X = rng.uniform(-1, 1, size=(100_000, n))
        V, W = nu_batch(X), nu_batch(-X)
        codomain = max(codomain, float(np.max(np.abs(V))) - 1.0)
        if n > 1:
            codomain = max(codomain, float(np.max(np.diff(V, axis=1))))
            interleave = max(interleave, float(np.max(W[:, 1:] - V[:, :-1])))
        B = _boundary(rng, 100_000, n)
        P, Q = nu_pair_batch(B)
        for phi in reference_encoders(n):
            antisym = max(antisym, float(np.max(np.abs(gamma_batch(Q, phi) + gamma_batch(P, phi)))))
    heights = np.linspace(-1.0, 1.0, 9)
    for n in range(2, 7):
        count = math.ceil(100_000 / heights.size)
        xbar = _boundary(rng, count, n - 1)
        X = np.concatenate(
            [np.repeat(xbar, heights.size, axis=0), np.tile(heights, count)[:, None]], axis=1
        )
        V = nu_batch(X)
        for phi in reference_encoders(n):
            G = gamma_batch(V, phi).reshape(count, heights.size, n)
            vertical = max(vertical, float(np.max(np.abs(G - G[:, :1, :]))))
    elapsed = time.perf_counter() - start
    worst = max(codomain, interleave, antisym, vertical)
    _verdict(
        "cube-to-simplex invariant suite",
        worst <= 1e-9 and elapsed <= 300.0,
        f"codomain {codomain:.2e}, interleave {interleave:.2e}, antisymmetry {antisym:.2e}, "
        f"verticals {vertical:.2e} (all tol 1e-09); 10^5 points per invariant, n in 1..6, "
        f"5 encoders; {elapsed:.1f} s (limit 300 s)",
    )


def test_collision_certification_sweep():
    start = time.perf_counter()
    analytic = find_collision(shifted_linear())
    assert analytic.z_star[0] == 0.0 and analytic.phi_residual == 0.0
    worst_spread, exhausted, gaps_exact = 0.0, 0, True
    for m in range(2, 6):
        for j in range(20):
            phi = random_piecewise_linear(m - 1, seed=1000 * m + j)
            try:
                cert = find_collision(phi, seed=j)
            except SearchExhausted:
                exhausted += 1
                continue
            spread = float(
                np.max(np.abs(pooled_encoding(phi, cert.x_plus) - pooled_encoding(phi, cert.x_minus)))
            )
            worst_spread = max(worst_spread, spread)
            gaps_exact = gaps_exact and cert.f_gap == 2.0
            gaps_exact = gaps_exact and f_star(cert.x_plus) - f_star(cert.x_minus) == 2.0
    elapsed = time.perf_counter() - start
    _verdict(
        "collision certification sweep",
        exhausted == 0 and worst_spread <= 1e-6 and gaps_exact and elapsed <= 600.0,
        f"80 random encoders over M in 2..5 plus the analytic planar case: "
        f"max pooled spread {worst_spread:.3e} (tol 1e-06), {exhausted} exhausted, "
        f"all gaps exactly 2; {elapsed:.1f} s (limit 600 s)",
    )


def test_bottleneck_pipeline_error_bound():
    start = time.perf_counter()
    base = dict(
        task="f_star",
        M=3,
        seed=0,
        batch=256,
        step=0.1,
        n_samples=2048,
        phi_hidden=(32, 32),
        rho_hidden=(32, 32),
        grid_resolution=31,
    )
    model, _ = train(TrainConfig(N=2, epochs=1500, **base))
    cert = find_collision(model.encoder_spec, seed=0)
    bound = error_lower_bound(model, cert)
    control, _ = train(TrainConfig(N=3, epochs=3000, **base))
    control_err = grid_error(control, "f_star", 3, 61)
    elapsed = time.perf_counter() - start
    _verdict(
        "latent-bottleneck pipeline",
        bound >= 0.99 and control_err <= 0.5 and elapsed <= 900.0,
        f"trained N=2 encoder collision gives error bound {bound:.4f} (>= 0.99); "
        f"N=3 control max grid error {control_err:.4f} (<= 0.5 on the 61^3 canonical grid); "
        f"{elapsed:.1f} s (limit 900 s)",
    )


def test_first_element_pooling_consistency():
    worst, tol = _registry("first-element-consistency", np.random.default_rng(3))
    _verdict(
        "first-element pooling consistency",
        worst <= tol,
        f"max |k-ary - unary| = {worst} over k in {{2,3}}, M in 3..6, 10^3 inputs each "
        "(exact equality required)",
    )


def test_sampled_pooling_variance_law():
    excess, tol = _registry("sampled-variance-law", np.random.default_rng(42))
    _verdict(
        "sampled-pooling variance law",
        excess <= tol,
        f"largest excess of |empirical - theory| over 3 standard errors for p in {{1,2,6,12}} "
        f"and of the variance at p=24 over zero: {excess} (exact zero required), 10^4 trials",
    )


def test_max_pool_counterexamples():
    worst, tol = _registry("max-pool-counterexample", np.random.default_rng(9))
    _verdict(
        "max-pool counterexamples",
        worst <= tol,
        f"50 random encoders with N < M <= 5: largest max-pool difference, and shortfall "
        f"of |sum difference| below 1e-06, {worst} (exact zero required)",
    )


def test_gradient_oracle_against_finite_differences():
    worst, tol = _registry("gradient-oracle", np.random.default_rng(17))
    _verdict(
        "gradient oracle",
        worst <= tol,
        f"max relative error {worst:.3e} (tol {tol:.0e}) across 100 random tanh nets, "
        "reverse mode vs central differences",
    )


def test_contour_figure_structure():
    axis = np.linspace(-1.0, 1.0, 201)
    vals = {(x, y): v for x, y, v in cmd_contours("f_star", resolution=201)}
    diagonal_ok = all(vals[(float(t), float(t))] == -1.0 for t in axis)
    corners_ok = vals[(1.0, -1.0)] == 1.0 and vals[(-1.0, 1.0)] == 1.0
    smooth_ok = True
    for a in (2.0, 6.0):
        va = {(x, y): v for x, y, v in cmd_contours("lse_max", resolution=201, params={"a": a})}
        smooth_ok = smooth_ok and all(
            va[(float(t), float(t))] == float(t) + math.log(2.0) / a for t in axis
        )
    _verdict(
        "contour grid structure",
        diagonal_ok and corners_ok and smooth_ok,
        "201x201 grids: target function is -1 on the whole diagonal and +1 at (1,-1); "
        "smooth-max diagonal error exactly log(2)/a for a in {2, 6}",
    )
