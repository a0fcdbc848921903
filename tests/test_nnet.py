import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlab import (
    ConfigError,
    DeepSetsModel,
    DivergenceError,
    Mlp,
    ShapeError,
    TrainConfig,
    DomainError,
    canonical_grid,
    deepsets_eval,
    deepsets_eval_batch,
    grid_error,
    load_checkpoint,
    save_checkpoint,
    train,
)
from setlab.approx.collision import gamma_batch
from setlab.sets import f_star


def _linear_mlp(w, b):
    return Mlp([np.asarray(w, dtype=float)], [np.asarray(b, dtype=float)])


def test_mlp_zero_weights_yield_bias():
    net = _linear_mlp(np.zeros((3, 2)), [0.1, -0.2, 0.7])
    np.testing.assert_array_equal(net.forward(np.array([5.0, -3.0])), [0.1, -0.2, 0.7])


def test_mlp_single_linear_layer():
    w = np.array([[1.0, 2.0], [0.5, -1.0]])
    b = np.array([0.25, -0.5])
    v = np.array([0.3, -0.7])
    np.testing.assert_array_equal(_linear_mlp(w, b).forward(v), w @ v + b)


def test_mlp_tanh_odd_at_zero():
    # a tanh layer, then an identity layer that passes it through bit for bit
    net = Mlp([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    np.testing.assert_array_equal(net.forward(np.zeros(2)), np.zeros(2))


def test_mlp_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        _linear_mlp(np.eye(2), np.zeros(2)).forward(np.zeros(3))
    with pytest.raises(ConfigError):
        Mlp([np.eye(2)], [np.zeros(3)])
    # weights and biases that do not align, one per layer
    for weights, biases in (([], []), ([np.eye(2)], [np.zeros(2), np.zeros(2)])):
        with pytest.raises(ConfigError, match="align"):
            Mlp(weights, biases)
    with pytest.raises(ConfigError, match="does not chain"):
        Mlp([np.eye(2), np.ones((1, 3))], [np.zeros(2), np.zeros(1)])
    # a network file records its activations, and only the fixed list loads:
    # tanh after every layer but the last, which is affine
    cfg = Mlp.init([1, 4, 2], seed=0).to_config()
    assert cfg["activations"] == ["tanh", "identity"]
    for acts in (["softplus", "identity"], ["relu", "identity"], ["tanh", "tanh"], ["identity"], "tanh"):
        with pytest.raises(ConfigError, match="activations"):
            Mlp.from_config({**cfg, "activations": acts})
    # weights, biases and layer sizes must be JSON numbers, not strings or
    # bools that np.asarray() would coerce
    w0, b0 = cfg["weights"][0], cfg["biases"][0]
    for edit in (
        {"weights": [[str(v) for v in w0], *cfg["weights"][1:]]},
        {"weights": [[True] * len(w0), *cfg["weights"][1:]]},
        {"biases": [[str(v) for v in b0], *cfg["biases"][1:]]},
        {"biases": [b0, "0.5"]},
        {"layer_sizes": [1, 4.0, 2]},
        {"layer_sizes": ["1", "4", "2"]},
    ):
        with pytest.raises(ConfigError, match="malformed network config"):
            Mlp.from_config({**cfg, **edit})


def _params(net):
    """Parameter arrays of an Mlp, or of a pooled model (encoder net first)."""
    if isinstance(net, DeepSetsModel):
        return _params(net.phi_net) + _params(net.rho_net)
    return net.weights + net.biases


def _flat_params(net):
    return np.concatenate([a.reshape(-1) for a in _params(net)])


def _set_flat_params(net, flat):
    pos = 0
    for arr in _params(net):
        arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size


def _batch_loss(net, X, y):
    out, _ = net.forward_trace(X)
    return float(np.mean((out[:, 0] - y) ** 2))


def _analytic_grad(net, X, y):
    out, trace = net.forward_trace(X)
    grad_out = np.zeros_like(out)
    grad_out[:, 0] = 2.0 * (out[:, 0] - y) / X.shape[0]
    if isinstance(net, DeepSetsModel):
        (phi_wg, phi_bg), (rho_wg, rho_bg) = net.backward(trace, grad_out)
        return np.concatenate([a.reshape(-1) for a in phi_wg + phi_bg + rho_wg + rho_bg])
    wg, bg, _ = net.backward(trace, grad_out)
    return np.concatenate([a.reshape(-1) for a in wg + bg])


def _fd_rel_error(net, X, y, h=1e-5):
    """Relative distance of the analytic batch-MSE gradient from central differences."""
    analytic = _analytic_grad(net, X, y)
    flat = _flat_params(net)
    fd = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        _set_flat_params(net, bumped)
        up = _batch_loss(net, X, y)
        bumped[i] = flat[i] - h
        _set_flat_params(net, bumped)
        down = _batch_loss(net, X, y)
        fd[i] = (up - down) / (2.0 * h)
    _set_flat_params(net, flat)
    return np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12)


def test_linear_model_gradient_closed_form():
    net = Mlp([np.array([[0.4, -0.3]])], [np.array([0.2])])
    x = np.array([[0.5, -1.0]])
    y = np.array([0.9])
    pred = float(net.forward(x[0])[0])
    grad = _analytic_grad(net, x, y)
    expected_w = 2.0 * (pred - y[0]) * x[0]
    np.testing.assert_allclose(grad[:2], expected_w, rtol=1e-15)
    assert math.isclose(grad[2], 2.0 * (pred - y[0]), rel_tol=1e-15)


def test_constant_loss_zero_gradient():
    net = Mlp([np.zeros((1, 2))], [np.array([0.3])])
    X = np.random.default_rng(0).uniform(-1, 1, (8, 2))
    grad = _analytic_grad(net, X, np.full(8, 0.3))
    np.testing.assert_array_equal(grad, np.zeros_like(grad))


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    net = Mlp.init([2, 5, 3, 1], seed=seed)
    X = rng.uniform(-1.0, 1.0, size=(4, 2))
    y = rng.uniform(-1.0, 1.0, size=4)
    assert _fd_rel_error(net, X, y) <= 1e-4


def _random_model(n, seed):
    phi = Mlp.init([1, 8, n], seed=seed)
    rho = Mlp.init([n, 8, 1], seed=seed + 1)
    return DeepSetsModel(phi, n, rho)


@pytest.mark.parametrize("seed", range(5))
def test_pooled_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = _random_model(2 + seed % 2, seed=seed)
    X = np.sort(rng.uniform(-1.0, 1.0, size=(5, 3)), axis=1)[:, ::-1]
    y = rng.uniform(-1.0, 1.0, size=5)
    assert _fd_rel_error(model, X, y) <= 1e-4


def test_pooled_forward_matches_single_set_evaluation():
    model = _random_model(3, seed=4)
    X = np.sort(np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 4)), axis=1)[:, ::-1]
    pred, _ = model.forward_trace(X)
    np.testing.assert_allclose(pred[:, 0], [model(x) for x in X], rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        model.forward_trace(X[0])


@pytest.mark.parametrize("n, fan_in, fan_out", [(768, 32, 32), (3, 1, 32), (500, 32, 1), (97, 32, 2)])
def test_mlp_forward_is_row_invariant(n, fan_in, fan_out):
    # Mlp.init's draws under tanh, then an identity layer that passes the tanh
    # output through bit for bit, so that NumPy's vectorized tanh stays under test
    rng, r = np.random.default_rng(n), 1.0 / math.sqrt(fan_in)
    net = Mlp(
        [rng.uniform(-r, r, size=(fan_out, fan_in)), np.eye(fan_out)],
        [rng.uniform(-r, r, size=fan_out), np.zeros(fan_out)],
    )
    X = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, fan_in))
    batch = net.forward(X)
    for i in range(n):
        np.testing.assert_array_equal(batch[i], net.forward(X[i]))
    np.testing.assert_array_equal(net.forward(X[n // 3 :]), batch[n // 3 :])


def test_batched_model_evaluation_matches_single_sets():
    phi = Mlp.init([1, 32, 32, 2], seed=7)
    rho = Mlp.init([2, 32, 32, 1], seed=8)
    model = DeepSetsModel(phi, 2, rho)
    X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(200, 3))  # rows not in canonical order
    values = deepsets_eval_batch(model, X)
    pooled = model.pooled_batch(X)
    for i, x in enumerate(X):
        assert values[i] == deepsets_eval(model, x) == model(x)
        np.testing.assert_array_equal(pooled[i], model.pooled(x))
    np.testing.assert_array_equal(deepsets_eval_batch(model, X[:, ::-1]), values)
    np.testing.assert_array_equal(deepsets_eval_batch(model, X[::-1]), values[::-1])


def test_batched_model_evaluation_validates_every_row():
    model = _random_model(2, seed=3)
    for bad in ([[0.5, np.nan]], [[0.5, -0.25], [0.5, 1.5]], [0.5, 0.25], np.empty((2, 0))):
        with pytest.raises(DomainError):
            deepsets_eval_batch(model, bad)
    with pytest.raises(DomainError):
        deepsets_eval(model, [[0.5, 0.25]])
    # entries within tolerance of the domain are clamped, as for a single set
    clamped = deepsets_eval_batch(model, [[1.0 + 1e-13, -0.5], [0.25, -1.0 - 1e-13]])
    np.testing.assert_array_equal(clamped, [deepsets_eval(model, [1.0, -0.5]), deepsets_eval(model, [0.25, -1.0])])


def test_deepsets_identity_sums():
    phi = _linear_mlp([[1.0]], [0.0])
    rho = _linear_mlp([[1.0]], [0.0])
    model = DeepSetsModel(phi, 1, rho)
    x = np.array([0.25, -0.5, 0.125, 0.75])  # dyadic, so the sum is exact
    assert deepsets_eval(model, x) == math.fsum(x)


def test_deepsets_zero_readout():
    phi = Mlp.init([1, 4, 2], seed=0)
    rho = _linear_mlp(np.zeros((1, 2)), [0.0])
    model = DeepSetsModel(phi, 2, rho)
    for x in ([0.1], [0.4, -0.9, 0.3]):
        assert deepsets_eval(model, np.array(x)) == 0.0


@settings(max_examples=40)
@given(st.data())
def test_deepsets_permutation_invariance_bitexact(data):
    m = data.draw(st.integers(min_value=2, max_value=6))
    x = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=m, max_size=m,
    )))
    perm = data.draw(st.permutations(range(m)))
    model = _random_model(3, seed=11)
    assert deepsets_eval(model, x[list(perm)]) == deepsets_eval(model, x)


def test_model_dim_validation():
    phi = Mlp.init([1, 4, 2], seed=0)
    rho = Mlp.init([3, 4, 1], seed=1)
    with pytest.raises(ConfigError, match="readout net"):
        DeepSetsModel(phi, 2, rho)
    with pytest.raises(ConfigError, match="encoder net"):
        DeepSetsModel(Mlp.init([1, 4, 3], seed=0), 2, Mlp.init([2, 4, 1], seed=1))
    # N must be a JSON integer: int() would read 2.5 and "2" as 2, and true as 1
    for n in ("two", 2.5, "2", True):
        with pytest.raises(ConfigError, match="malformed model config"):
            DeepSetsModel.from_config({**_random_model(2, seed=0).to_config(), "N": n})


def test_encoder_export_matches_direct_gamma():
    model = _random_model(3, seed=5)
    spec = model.encoder_spec
    Z = np.array([[0.5, 0.0, -0.25], [1.0, 1.0, -1.0]])
    base = model.phi_net.forward(np.array([[-1.0], [1.0]]))
    signs = (-1.0) ** np.arange(1, 4)
    direct = np.stack([
        (signs[:, None] * (model.phi_net.forward(z[:, None]) - base[0])).sum(axis=0)
        + 0.5 * (base[1] - base[0])
        for z in Z
    ])
    np.testing.assert_allclose(gamma_batch(Z, spec), direct, atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(task="sum", M=3, N=2, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(task="f_star", M=0, N=2, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(task="f_star", M=3, N=2, seed=0, step=-0.1)
    for step in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            TrainConfig(task="f_star", M=3, N=2, seed=0, step=step)
    for hidden in ({"phi_hidden": (8, 0)}, {"rho_hidden": (-1,)}):
        with pytest.raises(ConfigError):
            TrainConfig(task="f_star", M=3, N=2, seed=0, **hidden)
    cfg = TrainConfig(task="f_star", M=3, N=2, seed=7)
    assert TrainConfig.from_config(cfg.to_config()).content_hash() == cfg.content_hash()
    # the step decay and the training data are fixed: a file may record them
    # only at their one value
    for fixed in ({"decay": "exponential"}, {"decay": "none"}, {"data": "gaussian"}, {"data": "uniform"}):
        with pytest.raises(ConfigError, match="is fixed at"):
            TrainConfig.from_config({**cfg.to_config(), **fixed})
    # a JSON value of another type is refused, not converted: "32" would train
    # widths (3, 2), 2.7 epochs 2 and true M = 1
    for override in ({"phi_hidden": "32"}, {"epochs": 2.7}, {"M": True}):
        with pytest.raises(ConfigError):
            TrainConfig.from_config({**cfg.to_config(), **override})


def test_train_config_from_config_keeps_the_dataclass_defaults():
    required = {"task": "f_star", "M": 3, "N": 2, "seed": 7}
    assert TrainConfig.from_config(required) == TrainConfig(**required)
    # a missing required key or a value of the wrong type is a ConfigError
    for cfg in ({"task": "f_star", "M": 3, "N": 2}, {**required, "epochs": "many"}, {**required, "phi_hidden": 8}):
        with pytest.raises(ConfigError):
            TrainConfig.from_config(cfg)


def _small_config(**overrides):
    base = dict(
        task="f_star", M=3, N=3, seed=3, epochs=40, batch=64,
        step=0.05, n_samples=256, phi_hidden=(8,), rho_hidden=(8,),
        grid_resolution=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_is_reproducible():
    m1, r1 = train(_small_config())
    m2, r2 = train(_small_config())
    for a, b in zip(m1.phi_net.weights + m1.rho_net.weights,
                    m2.phi_net.weights + m2.rho_net.weights):
        np.testing.assert_array_equal(a, b)
    assert r1["loss_curve"] == r2["loss_curve"]
    assert r1["config_hash"] == r2["config_hash"]


def test_train_reduces_loss_and_reports_grid_error():
    model, metrics = train(_small_config(epochs=120))
    assert metrics["final_loss"] < metrics["loss_curve"][0]
    assert metrics["grid_max_error"] == grid_error(model, "f_star", 3, 7)
    assert np.isfinite(metrics["grid_max_error"])


def test_train_max_task_runs():
    model, metrics = train(_small_config(task="max", N=2, epochs=60))
    assert metrics["final_loss"] < metrics["loss_curve"][0]


def test_train_divergence():
    with pytest.raises(DivergenceError):
        train(_small_config(step=1e8, epochs=50))


def test_canonical_grid_shape_and_order():
    grid = canonical_grid(3, 5)
    assert grid.shape == (math.comb(5 + 2, 3), 3)
    assert np.all(np.diff(grid, axis=1) <= 0)
    np.testing.assert_array_equal(grid[0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(grid[-1], [-1.0, -1.0, -1.0])


def test_grid_error_evaluates_like_deepsets_eval():
    # one evaluation path: the grid error is read off deepsets_eval's values;
    # at this size the trainer's GEMM pass, pooled by plain summation, gives
    # other bits
    wide = dict(phi_hidden=(32, 32), rho_hidden=(32, 32))
    model, _ = train(_small_config(M=4, N=4, seed=0, epochs=5, **wide))
    for task, target in (("f_star", f_star), ("max", max)):
        want = max(abs(deepsets_eval(model, row) - target(row)) for row in canonical_grid(4, 7))
        assert grid_error(model, task, 4, 7) == want


def test_grid_error_of_zero_model():
    phi = _linear_mlp([[0.0]], [0.0])
    rho = _linear_mlp([[0.0]], [0.0])
    model = DeepSetsModel(phi, 1, rho)
    # |f*| reaches 1 on the grid, and the zero model outputs 0 everywhere
    assert grid_error(model, "f_star", 2, 9) == 1.0


def test_checkpoint_round_trip(tmp_path):
    model, metrics = train(_small_config(epochs=10))
    cfg = _small_config(epochs=10)
    path = tmp_path / "model.json"
    save_checkpoint(model, cfg, path, metrics=metrics)
    loaded, payload = load_checkpoint(path)
    x = np.array([0.3, -0.8, 0.5])
    assert deepsets_eval(loaded, x) == deepsets_eval(model, x)
    assert payload["config_hash"] == cfg.content_hash()
    assert payload["seed"] == cfg.seed
    assert payload["config"]["task"] == "f_star"
