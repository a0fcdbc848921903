import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlab import DomainError, SearchExhausted, SizeError
from setlab.approx import (
    PhiSpec,
    emit_contour_grid,
    error_lower_bound,
    find_collision,
    gamma,
    gamma_batch,
    left_shift,
    load_certificate,
    lse_max,
    lse_max_batch,
    monomial_family,
    nu,
    nu_batch,
    nu_pair_batch,
    pooled_encoding,
    pooled_encoding_batch,
    random_mlp_encoder,
    random_piecewise_linear,
    save_certificate,
    semicircle,
    shifted_linear,
    reference_encoders,
    write_contour_csv,
)
from setlab._jsonio import dumps, format_float
from setlab.errors import CertMismatch, ConfigError
from setlab.mlp import Mlp
from setlab.sets import f_star

unit_floats = st.floats(min_value=-1.0, max_value=1.0)


# lse_max


def test_lse_max_examples():
    assert lse_max([0.0, 0.0, 0.0], 10.0) == pytest.approx(math.log(3) / 10, abs=1e-12)
    assert lse_max([1.0], 3.7) == 1.0
    assert lse_max([0.0, 1.0], 2.0) == pytest.approx(0.5 * math.log(1 + math.e**2), abs=1e-12)


def test_lse_max_rejects_bad_sharpness():
    for a in (0.0, np.inf):
        with pytest.raises(DomainError):
            lse_max([0.1, 0.2], a)
    X = np.zeros((3, 2))
    for a in (0.0, -1.0, np.nan, np.inf, [2.0, 0.0, 2.0], [2.0, np.nan, 2.0], [2.0, np.inf, 2.0], [2.0, 2.0]):
        with pytest.raises(DomainError):
            lse_max_batch(X, a)


@pytest.mark.parametrize("m", range(1, 9))
def test_lse_max_batch_matches_single_sets_bitwise(m):
    rng = np.random.default_rng(m)
    X = rng.uniform(-1.0, 1.0, size=(300, m))
    X[::5] = X[::5, :1]  # all-equal rows
    a = rng.uniform(0.5, 50.0, size=300)

    def reference(x, s):  # the one-set formula, the reference the batch must equal
        top = float(np.max(x))
        return top + float(np.log(np.sum(np.exp(s * (x - top))))) / s

    for sharp, per_row in ((a, a), (7.5, np.full(300, 7.5))):
        got = lse_max_batch(X, sharp)
        np.testing.assert_array_equal(got, [lse_max(x, s) for x, s in zip(X, per_row)])
        np.testing.assert_array_equal(got, [reference(x, float(s)) for x, s in zip(X, per_row)])


@settings(max_examples=200)
@given(st.lists(unit_floats, min_size=1, max_size=8), st.floats(min_value=0.5, max_value=50.0))
def test_lse_max_brackets_max(xs, a):
    val = lse_max(xs, a)
    m = max(xs)
    assert m - 1e-12 <= val <= m + math.log(len(xs)) / a + 1e-12


def test_lse_max_saturates_at_equal_inputs():
    for m in (1, 2, 5, 8):
        for a in (0.5, 2.0, 6.0, 50.0):
            assert lse_max([0.25] * m, a) == 0.25 + math.log(float(m)) / a


# encoder specs


def test_phispec_eval_shapes_and_kinds():
    for spec in (shifted_linear(), monomial_family(3), semicircle(65)):
        out = spec.eval(np.zeros((4, 5)))
        assert out.shape == (4, 5, spec.N)
    lin = shifted_linear()
    np.testing.assert_allclose(lin.eval(np.array([-1.0, 0.0, 1.0]))[:, 0], [0.0, 1.0, 2.0], atol=0)


def test_phispec_validation():
    with pytest.raises(ConfigError):
        PhiSpec("piecewise_linear", 1, [[[0.0, 0.0], [1.0, 1.0]]])  # misses -1
    with pytest.raises(ConfigError):
        PhiSpec("spline", 1, [])
    with pytest.raises(ConfigError):
        PhiSpec("polynomial", 2, [[1.0]])
    with pytest.raises(ConfigError, match="output dimension"):
        PhiSpec("polynomial", 0, [])
    with pytest.raises(ConfigError, match="network must map"):
        PhiSpec("mlp", 3, Mlp.init([1, 4, 2], seed=0))
    # N must be a JSON integer: int() would read 2.5 and "2" as 2, and true as 1
    for n in ("one", 2.5, "2", True):
        with pytest.raises(ConfigError, match="malformed encoder spec"):
            PhiSpec.from_config({**shifted_linear().to_config(), "N": n})
    # knots and coefficients that are not numbers of the right shape
    for kind, params in [
        ("piecewise_linear", [[[-1.0], [1.0]]]),
        ("piecewise_linear", [["", ""]]),
        ("piecewise_linear", [[[-1.0, "a"], [1.0, 2.0]]]),
        ("polynomial", [["a"]]),
        ("polynomial", [[[1.0]]]),
    ]:
        with pytest.raises(ConfigError):
            PhiSpec.from_config({"kind": kind, "N": 1, "params": params})


def test_phispec_round_trip_and_hash():
    spec = random_piecewise_linear(3, seed=5)
    clone = PhiSpec.from_config(spec.to_config())
    assert clone.content_hash() == spec.content_hash()
    assert clone.content_hash() != monomial_family(3).content_hash()
    x = np.linspace(-1, 1, 17)
    np.testing.assert_array_equal(clone.eval(x), spec.eval(x))


# alternating-sum map


def test_gamma_linear_example():
    phi = shifted_linear()
    for z in (-1.0, -0.3, 0.0, 0.8, 1.0):
        assert gamma(np.array([z]), phi)[0] == pytest.approx(-z, abs=1e-15)


def test_gamma_monomial_examples():
    phi = monomial_family(2)
    np.testing.assert_allclose(gamma(np.array([0.5, -0.5]), phi), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(gamma(np.array([1.0, -1.0]), phi), [-1.0, -2.0], atol=1e-15)


def test_gamma_validates_input():
    phi = monomial_family(2)
    with pytest.raises(DomainError):
        gamma(np.array([-0.5, 0.5]), phi)  # ascending
    with pytest.raises(DomainError):
        gamma(np.array([0.5]), phi)  # dim mismatch


def test_gamma_batch_evaluates_encoder_once(monkeypatch):
    rng = np.random.default_rng(3)
    cases = []
    for n in (1, 3):
        Z = np.sort(rng.uniform(-1.0, 1.0, size=(17, n)), axis=1)[:, ::-1]
        for phi in reference_encoders(n):
            # oracle: the boundary rows phi(-1), phi(1) in a call of their own
            base = phi.eval(np.array([-1.0, 1.0]))
            signs = (-1.0) ** np.arange(1, n + 1)
            expected = np.einsum("i,bij->bj", signs, phi.eval(Z) - base[0])
            cases.append((Z, phi, expected + 0.5 * (base[1] - base[0])))
    real_eval = PhiSpec.eval
    calls = []
    monkeypatch.setattr(PhiSpec, "eval", lambda self, v: calls.append(v) or real_eval(self, v))
    for Z, phi, expected in cases:
        calls.clear()
        assert np.array_equal(gamma_batch(Z, phi), expected)
        assert len(calls) == 1


def test_gamma_left_shift_antisymmetry():
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        for phi in reference_encoders(n):
            for _ in range(25):
                z = np.concatenate([[1.0], np.sort(rng.uniform(-1, 1, n - 1))[::-1]])
                np.testing.assert_allclose(
                    gamma(left_shift(z), phi), -gamma(z, phi), atol=1e-12
                )


# cube-to-simplex map


def test_nu_examples():
    assert nu(np.array([0.3]))[0] == 0.3
    np.testing.assert_array_equal(nu(np.array([0.0, 1.0])), [1.0, 0.0])
    np.testing.assert_array_equal(nu(np.array([0.0, -1.0])), [0.0, -1.0])
    np.testing.assert_array_equal(nu(np.array([0.0, 0.0])), [0.0, 0.0])


def test_nu_validates_domain():
    with pytest.raises(DomainError):
        nu(np.array([1.5, 0.0]))


def test_nu_matches_face_recursion():
    rng = np.random.default_rng(12)
    for n in range(2, 7):
        xbar = rng.uniform(-1, 1, size=(50, n - 1))
        a, b = nu_pair_batch(xbar)
        top = nu_batch(np.concatenate([xbar, np.ones((50, 1))], axis=1))
        np.testing.assert_array_equal(top, np.concatenate([np.ones((50, 1)), a], axis=1))
        bottom = nu_batch(np.concatenate([xbar, -np.ones((50, 1))], axis=1))
        np.testing.assert_array_equal(bottom, np.concatenate([b, -np.ones((50, 1))], axis=1))


def test_nu_codomain_descending():
    rng = np.random.default_rng(13)
    for n in range(1, 7):
        out = nu_batch(rng.uniform(-1, 1, size=(2000, n)))
        assert np.all(np.diff(out, axis=1) <= 1e-15)
        assert np.max(np.abs(out)) <= 1.0


def test_nu_opposing_interleave():
    # nu(x)_j >= nu(-x)_{j+1} everywhere
    rng = np.random.default_rng(14)
    for n in range(2, 7):
        a, b = nu_pair_batch(rng.uniform(-1, 1, size=(2000, n)))
        assert np.all(a[:, :-1] >= b[:, 1:] - 1e-12)
        assert np.all(b[:, :-1] >= a[:, 1:] - 1e-12)


def _boundary_sample(rng, count, n):
    X = rng.uniform(-1, 1, size=(count, n))
    which = rng.integers(0, n, size=count)
    X[np.arange(count), which] = rng.choice([-1.0, 1.0], size=count)
    return X


def test_nu_boundary_antisymmetry():
    rng = np.random.default_rng(15)
    for n in range(1, 7):
        X = _boundary_sample(rng, 400, n)
        for phi in reference_encoders(n)[:3]:
            a, b = nu_pair_batch(X)
            np.testing.assert_allclose(
                gamma_batch(b, phi), -gamma_batch(a, phi), atol=1e-9
            )


def test_nu_constant_along_surface_verticals():
    rng = np.random.default_rng(16)
    heights = np.linspace(-1.0, 1.0, 9)
    for n in range(2, 6):
        for phi in reference_encoders(n)[:3]:
            for _ in range(30):
                xbar = _boundary_sample(rng, 1, n - 1)[0]
                X = np.concatenate(
                    [np.tile(xbar, (heights.size, 1)), heights[:, None]], axis=1
                )
                G = gamma_batch(nu_batch(X), phi)
                assert np.max(np.abs(G - G[0])) <= 1e-9


def test_nu_local_continuity_probe():
    rng = np.random.default_rng(17)
    delta = 1e-6
    for n in range(1, 7):
        X = rng.uniform(-1 + delta, 1 - delta, size=(2000, n))
        step = rng.normal(size=(2000, n))
        step /= np.linalg.norm(step, axis=1, keepdims=True)
        Y = X + delta * step
        spread = np.max(np.abs(nu_batch(X) - nu_batch(Y)), axis=1)
        ratio = float(np.max(spread)) / delta
        assert ratio < 100.0


# collision search


def test_find_collision_analytic_line():
    cert = find_collision(shifted_linear(), seed=3)
    assert cert.phi_residual == 0.0
    np.testing.assert_array_equal(cert.z_star, [0.0])
    np.testing.assert_array_equal(cert.x_plus, [1.0, -1.0])
    np.testing.assert_array_equal(cert.x_minus, [0.0, 0.0])
    assert cert.f_gap == 2.0


def test_find_collision_degenerate_constant():
    phi = PhiSpec("polynomial", 1, [[0.7]])
    cert = find_collision(phi)
    assert cert.phi_residual == 0.0
    assert cert.f_gap == 2.0


def test_find_collision_semicircle():
    cert = find_collision(semicircle(), seed=5)
    assert cert.phi_residual <= 1e-8
    assert cert.f_gap == 2.0
    assert f_star(cert.x_plus) == 1.0
    assert f_star(cert.x_minus) == -1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_find_collision_random_encoders(n):
    # piecewise-linear seeds 6 and 12 have zeros hiding in knot slabs ~1e-2
    # wide; the MLP encoders take the sorted-Newton stage
    for seed in (0, 1, 6, 12):
        for phi in (random_piecewise_linear(n, seed=seed), random_mlp_encoder(n, seed=seed)):
            cert = find_collision(phi, seed=seed)
            assert cert.phi_residual <= 1e-8 * (1.0 + phi.scale())
            assert cert.M == n + 1 and cert.N == n
            # the certificate is honest: recompute the pooled difference
            direct = np.max(
                np.abs(pooled_encoding(phi, cert.x_plus) - pooled_encoding(phi, cert.x_minus))
            )
            assert direct == cert.phi_residual
            # a search that stops within 32 starts is the same at the default
            # budget: its first 32 starts are the ones a budget of 32 draws
            small = find_collision(phi, seed=seed, budget=32)
            assert dumps(cert.to_config()) == dumps(small.to_config())


def test_find_collision_stops_once_enumeration_certifies():
    # the best enumerated point certifies (1.81e-12 <= tol_cert 1.97e-12) but
    # lies above stop_tol, and sorted Newton cannot beat it (256 starts reach
    # 0.23 at best), so the search ends after the enumeration
    cert = find_collision(random_piecewise_linear(6, seed=25), tol_zero=1e-12)
    assert [s["name"] for s in cert.search_trace["stages"]] == ["interval-enumeration"]
    assert cert.phi_residual.hex() == "0x1.fca0000000000p-40"


def test_find_collision_budget_exhaustion():
    # at tol 0 a search certifies only when the two pooled encodings cancel to
    # the last bit, and it ends early at any start that reaches stop_tol
    # (1e-13 * (1 + scale)); this encoder's first 26 starts stay above 9e-4,
    # so neither happens and the budget runs out
    phi = random_mlp_encoder(6, seed=1)
    with pytest.raises(SearchExhausted) as info:
        find_collision(phi, tol_zero=0.0, budget=2)
    assert info.value.best_residual > 0.0
    # budget counts the sorted-Newton starts, and nothing runs after them
    assert info.value.trace["starts"] == 2
    assert [s["name"] for s in info.value.trace["stages"]] == ["sorted-newton"]


def test_find_collision_default_budget_certifies_mlp_encoder():
    # 26 starts leave this encoder at a best residual of 1.9e-3; the default
    # budget reaches a zero at start 27
    phi = random_mlp_encoder(6, seed=1)
    cert = find_collision(phi)
    assert cert.phi_residual <= 1e-8 * (1.0 + phi.scale())
    assert [s["name"] for s in cert.search_trace["stages"]] == ["sorted-newton"]


def test_find_collision_budget_is_exact():
    # a search that exhausts runs exactly budget starts, whatever the budget
    with pytest.raises(SearchExhausted) as info:
        find_collision(random_mlp_encoder(6, seed=1), budget=3)
    assert info.value.trace["starts"] == 3


def test_find_collision_size_check():
    # a search needs at least one start
    for budget in (0, -3):
        with pytest.raises(SizeError):
            find_collision(monomial_family(2), budget=budget)


def test_find_collision_refuses_bad_tolerance_and_overflowing_encoder():
    # tol 0 stays legal; a tolerance that is not a finite number >= 0 would
    # certify anything (inf) or nothing (nan, negative)
    for tol in (math.inf, math.nan, -1.0):
        with pytest.raises(ConfigError):
            find_collision(monomial_family(2), tol_zero=tol)
    # max|phi| overflows to inf, which no certificate tolerance can scale by;
    # the check raises before any search and leaks no RuntimeWarning
    with pytest.raises(DomainError):
        find_collision(PhiSpec("polynomial", 2, [[1e308] * 2, [1e308] * 3]))


def test_pooled_encoding_is_permutation_invariant_and_checks_its_domain():
    rng = np.random.default_rng(3)
    for phi in (monomial_family(3), random_piecewise_linear(2, seed=4), random_mlp_encoder(3, seed=5)):
        X = rng.uniform(-1.0, 1.0, size=(50, 9))
        X[:10, 1] = X[:10, 0]  # tied elements
        batch = pooled_encoding_batch(phi, X)
        for i, x in enumerate(X):
            single = pooled_encoding(phi, x)
            np.testing.assert_array_equal(single, batch[i])
            np.testing.assert_array_equal(pooled_encoding(phi, rng.permutation(x)), single)
        np.testing.assert_array_equal(pooled_encoding_batch(phi, X[:, ::-1]), batch)
    for bad in ([5.0, -7.0], [0.5, np.nan], [[0.5, 0.25], [0.1, 0.2]], []):
        with pytest.raises(DomainError):
            pooled_encoding(shifted_linear(), bad)


def test_certificate_round_trip(tmp_path):
    cert = find_collision(monomial_family(2), seed=1)
    path = tmp_path / "cert.json"
    save_certificate(cert, path, seed=1)
    loaded = load_certificate(path)
    assert loaded.phi_hash == cert.phi_hash
    assert loaded.phi_residual == cert.phi_residual
    np.testing.assert_array_equal(loaded.z_star, cert.z_star)
    # the loaded certificate derives M, N, the face pair and the gap from
    # z_star again, and writes the same bytes
    again = tmp_path / "again.json"
    save_certificate(loaded, again, seed=1)
    assert again.read_bytes() == path.read_bytes()


def test_load_certificate_rejects_malformed_files(tmp_path):
    path = tmp_path / "cert.json"
    full = find_collision(monomial_family(2), seed=1).to_config()
    # a count must be a JSON integer: int() would read 3.5 as 3 and 2.7 as 2
    for bad in (
        {"schema": 1, "M": 3},
        [1, 2],
        {**full, "N": "two"},
        {**full, "search_trace": 5},
        {**full, "M": 3.5},
        {**full, "N": 2.7},
        # every other field must hold a JSON value of its own type, not one
        # that float(), str() or np.asarray() would coerce
        {**full, "phi_residual": True},
        {**full, "phi_residual": "0"},
        {**full, "f_gap": "2"},
        {**full, "phi_hash": 5},
        {**full, "z_star": [str(v) for v in full["z_star"]]},
        {**full, "x_plus": [str(v) for v in full["x_plus"]]},
        {**full, "x_minus": [[v] for v in full["x_minus"]]},
        {**full, "search_trace": [["stage", "newton"]]},
    ):
        path.write_text(dumps(bad))
        with pytest.raises(ConfigError, match="malformed collision certificate"):
            load_certificate(path)


def test_load_certificate_rejects_inconsistent_files(tmp_path):
    # every field parses, but the file does not describe its own collision
    path = tmp_path / "cert.json"
    full = find_collision(monomial_family(2), seed=1).to_config()
    z = full["z_star"].tolist()
    for edit in (
        {"M": 7},
        {"N": 3},
        {"M": True},
        {"z_star": z[:1]},
        {"z_star": [2.0, -1.0]},
        {"x_plus": []},
        {"x_minus": np.nextafter(full["x_minus"], 2.0)},
        {"f_gap": -5.0},
        {"M": 7, "z_star": z[:1], "x_plus": [], "f_gap": -5.0},
    ):
        path.write_text(dumps({**full, **edit}))
        with pytest.raises(ConfigError, match="collision certificate"):
            load_certificate(path)


class _StubModel:
    def __init__(self, spec, value):
        self.encoder_spec = spec
        self._value = value

    def __call__(self, x):
        return self._value


def test_error_lower_bound_extremes():
    phi = monomial_family(2)
    cert = find_collision(phi, seed=2)
    assert error_lower_bound(_StubModel(phi, 0.0), cert) == 1.0
    assert error_lower_bound(_StubModel(phi, 1.0), cert) == 2.0
    with pytest.raises(CertMismatch):
        error_lower_bound(_StubModel(random_piecewise_linear(2, seed=0), 0.0), cert)


# contour grids


def _f_star_rows(XY):
    return [f_star(v) for v in XY]


def test_contour_grid_structure(tmp_path):
    rows = emit_contour_grid(_f_star_rows, resolution=5)
    assert len(rows) == 25
    assert rows[0][:2] == (-1.0, -1.0)
    assert rows[1][:2] == (-1.0, -0.5)  # y is the inner loop
    assert rows[-1][:2] == (1.0, 1.0)
    for x, y, v in rows:
        if x == y:
            assert v == -1.0
    by_point = {(x, y): v for x, y, v in rows}
    assert by_point[(1.0, -1.0)] == 1.0
    path = tmp_path / "grid.csv"
    write_contour_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 26
    assert lines[1] == "-1,-1,-1"
    # each value is written as format_float writes it, -0 included
    odd = [(-0.0, 0.1, 1 / 3), (1e-300, -2.5e-17, 123456789.0), (-1.0, 1.0, 2.0 / 3)]
    write_contour_csv(odd, path)
    expected = [",".join(format_float(v) for v in row) for row in odd]
    assert path.read_text().splitlines()[1:] == expected


def test_contour_grid_rejects_a_resolution_below_two():
    with pytest.raises(ConfigError):
        emit_contour_grid(_f_star_rows, resolution=1)
