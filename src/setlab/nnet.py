"""Sum-pooled network models and a deterministic trainer.

A model is rho(sum_i phi(x_i)) with both maps given by small dense networks.
Evaluation canonicalizes the input and pools with compensated summation in
sorted order, so the value is bit-identical under permutation. The trainer is
seeded gradient descent with a cosine-decayed step on canonicalized uniform
samples plus a grid — deterministic to the parameter bits given the config.
"""

import itertools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._jsonio import SCHEMA_VERSION, dump_file, json_fits, load_file, schema_free_hash
from .approx.phispec import PhiSpec
from .errors import ConfigError, DivergenceError, ShapeError
from .mlp import Mlp
from .powersum import kahan_sum
from .sets import as_set_input, as_set_rows, f_star_batch

TASKS = ("f_star", "max")


@dataclass
class DeepSetsModel:
    """rho(sum phi): an elementwise encoder net (1 -> N), summation, readout net (N -> 1)."""

    phi_net: Mlp
    N: int
    rho_net: Mlp

    def __post_init__(self):
        if self.phi_net.layer_sizes[0] != 1 or self.phi_net.layer_sizes[-1] != self.N:
            raise ConfigError(
                f"encoder net must map 1 -> {self.N}, got {self.phi_net.layer_sizes}"
            )
        if self.rho_net.layer_sizes[0] != self.N or self.rho_net.layer_sizes[-1] != 1:
            raise ConfigError(
                f"readout net must map {self.N} -> 1, got {self.rho_net.layer_sizes}"
            )

    @property
    def encoder_spec(self):
        """The encoder as a declarative spec sharing this model's network."""
        return PhiSpec("mlp", self.N, self.phi_net)

    def pooled(self, x):
        """sum_i phi(x_i) over the canonical ordering, compensated summation."""
        return self.pooled_batch(as_set_input(x)[None, :])[0]

    def pooled_batch(self, X):
        """pooled on every row of X (n, M), bit for bit: Mlp.forward is row-invariant."""
        U = np.sort(as_set_rows(X), axis=1)[:, ::-1]  # canonical order, as canonicalize
        return kahan_sum(self.phi_net.forward(U.reshape(-1, 1)).reshape(*U.shape, self.N), axis=1)

    def __call__(self, x):
        return deepsets_eval(self, x)

    def forward_trace(self, X):
        """Predictions (B, 1) on a batch of canonical rows (B, M), pooled by
        plain summation, with what backward needs: (pred, trace)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ShapeError(f"expected a batch of set rows, got shape {X.shape}")
        B, M = X.shape
        feats, phi_trace = self.phi_net.forward_trace(X.reshape(-1, 1))
        pred, rho_trace = self.rho_net.forward_trace(feats.reshape(B, M, self.N).sum(axis=1))
        return pred, (M, phi_trace, rho_trace)

    def backward(self, trace, grad_pred):
        """Gradients ((phi_wg, phi_bg), (rho_wg, rho_bg)) given d(scalar)/d(pred), shape (B, 1)."""
        M, phi_trace, rho_trace = trace
        rho_wg, rho_bg, grad_pooled = self.rho_net.backward(rho_trace, grad_pred)
        phi_wg, phi_bg, _ = self.phi_net.backward(phi_trace, np.repeat(grad_pooled, M, axis=0))
        return (phi_wg, phi_bg), (rho_wg, rho_bg)

    def to_config(self):
        return {
            "schema": SCHEMA_VERSION,
            "N": self.N,
            "phi": self.phi_net.to_config(),
            "rho": self.rho_net.to_config(),
        }

    @classmethod
    def from_config(cls, cfg):
        try:
            if not json_fits(int, cfg["N"]):
                raise TypeError(f"N must be an integer, got {cfg['N']!r}")
            return cls(Mlp.from_config(cfg["phi"]), cfg["N"], Mlp.from_config(cfg["rho"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed model config: {exc}") from None


def deepsets_eval_batch(model, X):
    """rho(sum phi) on every row of X (n, M); row i equals deepsets_eval(model, X[i])."""
    return model.rho_net.forward(model.pooled_batch(X))[:, 0]


def deepsets_eval(model, x):
    """rho(sum phi(x_i)); exactly permutation-invariant."""
    return float(deepsets_eval_batch(model, as_set_input(x)[None, :])[0])


@dataclass
class TrainConfig:
    """Everything a training run depends on; two equal configs train equal bits."""

    task: str
    M: int
    N: int
    seed: int
    epochs: int = 2000
    batch: int = 256
    step: float = 0.05
    # fixed, not settable: fields only so that every config file and hash records them
    decay: str = field(default="cosine", init=False)
    data: str = field(default="uniform+grid", init=False)
    n_samples: int = 2048
    phi_hidden: tuple = (32, 32)
    rho_hidden: tuple = (32, 32)
    grid_resolution: int = 21

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name in ("M", "N", "epochs", "batch", "n_samples", "grid_resolution"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0 < self.step < math.inf:
            raise ConfigError("step size must be positive and finite")
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        self.phi_hidden = tuple(int(h) for h in self.phi_hidden)
        self.rho_hidden = tuple(int(h) for h in self.rho_hidden)
        if min(self.phi_hidden + self.rho_hidden, default=1) < 1:
            raise ConfigError("hidden layer widths must be positive")

    def to_config(self):
        cfg = {"schema": SCHEMA_VERSION, **asdict(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()}

    @classmethod
    def from_config(cls, cfg):
        # a fixed field may be given only at its value, any other only as a JSON
        # value of its annotated type (converted by it); a missing required one
        # is a TypeError, and the rest keep their defaults
        for f in fields(cls):
            if not f.init and f.name in cfg and cfg[f.name] != f.default:
                raise ConfigError(f"train config field {f.name!r} is fixed at {f.default!r}")
        given = {f.name: f.type for f in fields(cls) if f.init and f.name in cfg}
        wrong = [name for name, kind in given.items() if not json_fits(kind, cfg[name])]
        if wrong:
            raise ConfigError(f"train config fields {wrong} hold JSON values of the wrong type")
        try:
            return cls(**{name: kind(cfg[name]) for name, kind in given.items()})
        except TypeError as exc:
            raise ConfigError(f"malformed train config: {exc}") from None

    def content_hash(self):
        return schema_free_hash(self.to_config())


def _target(task, rows):
    """Per-row training target on canonicalized rows."""
    if task == "f_star":
        return f_star_batch(rows)
    return rows[:, 0].copy()  # canonical rows are descending, so max is first


def canonical_grid(M, resolution):
    """All descending M-tuples from a uniform grid on [-1, 1] (one per multiset)."""
    axis = np.linspace(1.0, -1.0, resolution)
    return np.array(list(itertools.combinations_with_replacement(axis, M)))


def grid_error(model, task, M, resolution):
    """Max |model - target| over the canonical grid (C(resolution+M-1, M) points)."""
    grid = canonical_grid(M, resolution)
    return float(np.max(np.abs(deepsets_eval_batch(model, grid) - _target(task, grid))))


def train(config):
    """Seeded full-precision gradient descent; returns (model, metrics).

    Data is uniform over the cube plus the canonical grid, canonicalized so
    capacity is not spent on permutation copies; the step decays by a cosine.
    Raises DivergenceError the moment the loss stops being finite.
    """
    rng = np.random.default_rng(config.seed)
    X = np.sort(rng.uniform(-1.0, 1.0, size=(config.n_samples, config.M)), axis=1)[:, ::-1]
    # uniform canonical sampling under-covers near-equal coordinates, which is
    # exactly where recovering order statistics from the pooled latent is
    # worst-conditioned; a coarse canonical grid patches that
    X = np.concatenate([X, canonical_grid(config.M, config.grid_resolution)])
    y = _target(config.task, X)
    n_rows = X.shape[0]

    phi = Mlp.init([1, *config.phi_hidden, config.N], seed=config.seed)
    rho = Mlp.init([config.N, *config.rho_hidden, 1], seed=config.seed + 1)
    model = DeepSetsModel(phi, config.N, rho)

    losses = []
    for epoch in range(config.epochs):
        lr = config.step * (0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs)))
        order = rng.permutation(n_rows)
        epoch_loss = 0.0
        for lo in range(0, n_rows, config.batch):
            idx = order[lo : lo + config.batch]
            xb, yb = X[idx], y[idx]
            B = xb.shape[0]

            with np.errstate(over="ignore", invalid="ignore"):
                pred, trace = model.forward_trace(xb)
                resid = pred[:, 0] - yb
                loss = float(np.mean(resid**2))
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"loss became non-finite at epoch {epoch}; lower the step size"
                )
            epoch_loss += loss * B

            (phi_wg, phi_bg), (rho_wg, rho_bg) = model.backward(trace, (2.0 / B) * resid[:, None])
            for net, wg, bg in ((rho, rho_wg, rho_bg), (phi, phi_wg, phi_bg)):
                for i in range(len(net.weights)):
                    net.weights[i] -= lr * wg[i]
                    net.biases[i] -= lr * bg[i]
        losses.append(epoch_loss / n_rows)

    metrics = {
        "loss_curve": losses,
        "final_loss": losses[-1],
        "grid_max_error": grid_error(model, config.task, config.M, config.grid_resolution),
        "init": "uniform(-r, r), r = 1/sqrt(fan_in)",
        "seed": config.seed,
        "config_hash": config.content_hash(),
    }
    return model, metrics


def save_checkpoint(model, config, path, metrics):
    """JSON checkpoint: layer sizes, activations, row-major weights, config hash, seed."""
    payload = model.to_config()
    payload["config"] = config.to_config()
    payload["config_hash"] = config.content_hash()
    payload["seed"] = config.seed
    payload["metrics"] = {k: v for k, v in metrics.items() if k != "loss_curve"}
    dump_file(payload, path)


def load_checkpoint(path):
    """Returns (model, payload dict with config/config_hash/seed back out)."""
    payload = load_file(path)
    return DeepSetsModel.from_config(payload), payload
