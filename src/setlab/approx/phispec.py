"""Declarative elementwise encoders phi: [-1, 1] -> R^N.

Three kinds cover what the rest of the package needs: piecewise-linear maps
(knot lists per output dimension), polynomials (coefficient rows, ascending
powers), and small dense networks. Specs serialize to JSON and are identified
by a content hash, which certificates use to bind themselves to an encoder.
"""

import math
from dataclasses import dataclass

import numpy as np

from .._jsonio import SCHEMA_VERSION, dump_file, json_fits, load_file, schema_free_hash
from ..errors import ConfigError
from ..mlp import Mlp

KINDS = ("piecewise_linear", "polynomial", "mlp")


@dataclass
class PhiSpec:
    """Continuous map from [-1, 1] to R^N, evaluable on arrays of any shape."""

    kind: str
    N: int
    params: object

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown encoder kind {self.kind!r}")
        if self.N < 1:
            raise ConfigError(f"output dimension must be positive, got {self.N}")
        if self.kind == "piecewise_linear":
            knots = self.params
            if len(knots) != self.N:
                raise ConfigError("need one knot list per output dimension")
            for rows in knots:
                pairs = np.asarray(rows, dtype=float)
                t = pairs[:, 0] if pairs.ndim == 2 and pairs.shape[1] == 2 else np.empty(0)
                if t.size < 2 or t[0] != -1.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0):
                    raise ConfigError("knots must be (x, y) pairs with x increasing strictly from -1 to 1")
        elif self.kind == "polynomial":
            rows = [np.asarray(row, dtype=float) for row in self.params]
            if len(rows) != self.N or any(row.ndim != 1 or row.size == 0 for row in rows):
                raise ConfigError("need one non-empty coefficient row per output dimension")
        else:
            net = self.params if isinstance(self.params, Mlp) else Mlp.from_config(self.params)
            if net.layer_sizes[0] != 1 or net.layer_sizes[-1] != self.N:
                raise ConfigError(
                    f"network must map 1 -> {self.N}, got {net.layer_sizes[0]} -> {net.layer_sizes[-1]}"
                )
            self.params = net

    def eval(self, values):
        """phi applied elementwise: shape S in, shape S + (N,) out."""
        values = np.asarray(values, dtype=float)
        flat = values.reshape(-1)
        if self.kind == "piecewise_linear":
            cols = [
                np.interp(flat, [r[0] for r in rows], [r[1] for r in rows]) for rows in self.params
            ]
            out = np.stack(cols, axis=-1)
        elif self.kind == "polynomial":
            out = np.stack(
                [np.polynomial.polynomial.polyval(flat, row) for row in self.params], axis=-1
            )
        else:
            out = self.params.forward(flat[:, None])
        return out.reshape(values.shape + (self.N,))

    def scale(self):
        """Crude magnitude estimate max|phi| over the domain (dense sample)."""
        return float(np.max(np.abs(self.eval(np.linspace(-1.0, 1.0, 513)))))

    def to_config(self):
        params = self.params.to_config() if self.kind == "mlp" else self.params
        return {"schema": SCHEMA_VERSION, "kind": self.kind, "N": self.N, "params": params}

    @classmethod
    def from_config(cls, cfg):
        try:
            if not json_fits(int, cfg["N"]):
                raise TypeError(f"N must be an integer, got {cfg['N']!r}")
            return cls(cfg["kind"], cfg["N"], cfg["params"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed encoder spec: {exc}") from None

    def content_hash(self):
        return schema_free_hash(self.to_config())


def save_phispec(spec, path):
    dump_file(spec.to_config(), path)


def load_phispec(path):
    return PhiSpec.from_config(load_file(path))


def shifted_linear():
    """The analytic warm-up encoder phi(x) = x + 1 (N=1)."""
    return PhiSpec("piecewise_linear", 1, [[[-1.0, 0.0], [1.0, 2.0]]])


def monomial_family(n):
    """phi(x) = (x+1, (x+1)^2, ..., (x+1)^n), the running analytic example."""
    rows = [[float(math.comb(j, i)) for i in range(j + 1)] for j in range(1, n + 1)]
    return PhiSpec("polynomial", n, rows)


def semicircle(n_knots=257):
    """Piecewise-linear trace of the unit semicircle arc (N=2)."""
    t = np.linspace(-1.0, 1.0, n_knots)
    angle = np.pi * (t + 1.0) / 2.0
    first = [[float(a), float(v)] for a, v in zip(t, np.cos(angle))]
    second = [[float(a), float(v)] for a, v in zip(t, np.sin(angle))]
    return PhiSpec("piecewise_linear", 2, [first, second])


def random_piecewise_linear(n, seed, n_knots=9, amplitude=1.0):
    """Random continuous encoder: per output dim, values at shared random knots."""
    rng = np.random.default_rng(seed)
    interior = np.sort(rng.uniform(-1.0, 1.0, size=max(n_knots - 2, 0)))
    t = np.concatenate([[-1.0], interior, [1.0]])
    knots = [
        [[float(a), float(v)] for a, v in zip(t, rng.uniform(-amplitude, amplitude, size=t.size))]
        for _ in range(n)
    ]
    return PhiSpec("piecewise_linear", n, knots)


def random_mlp_encoder(n, seed):
    return PhiSpec("mlp", n, Mlp.init([1, 16, n], seed))


def reference_encoders(n):
    """Five structurally different encoders of output dimension n, used by the
    verification sweeps: analytic polynomial, random kinked maps, a smooth
    network, and a sawtooth with many segments."""
    saw_t = np.linspace(-1.0, 1.0, 33)
    saw = [
        [[float(a), float(abs(((a * (j + 2) + 1) % 2) - 1))] for a in saw_t] for j in range(n)
    ]
    return [
        monomial_family(n),
        random_piecewise_linear(n, seed=101 + n, n_knots=7),
        random_piecewise_linear(n, seed=202 + n, n_knots=15, amplitude=2.0),
        random_mlp_encoder(n, seed=303 + n),
        PhiSpec("piecewise_linear", n, saw),
    ]
