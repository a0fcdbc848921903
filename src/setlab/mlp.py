"""Minimal dense networks with explicit reverse-mode gradients.

One implementation serves both the trainer and exported elementwise encoders,
so a network evaluated directly and through an export hits the same code path
(and therefore the same floating-point values).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import json_fits
from .errors import ConfigError, ShapeError


@dataclass
class Mlp:
    """Dense layers, weights (fan_out, fan_in): tanh after every layer but the last, which is affine."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) >= 1):
            raise ConfigError("weights and biases must align, one per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ConfigError(f"layer {i} has inconsistent shapes {w.shape} / {b.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ConfigError(f"layer {i} input width {w.shape[1]} does not chain")

    @classmethod
    def init(cls, layer_sizes, seed):
        """Each layer seeded uniform(-r, r) with r = 1/sqrt(fan_in)."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            r = 1.0 / math.sqrt(fan_in)
            weights.append(rng.uniform(-r, r, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-r, r, size=fan_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def activations(self):
        """The per-layer activation names a network file records."""
        return ["tanh"] * (len(self.weights) - 1) + ["identity"]

    def forward(self, x):
        """Evaluate on a single input (in_dim,) or a batch (n, in_dim).
        Row-invariant: a row's bits do not depend on the batch it sits in."""
        x = np.asarray(x, dtype=float)
        out = self._layers(np.atleast_2d(x), stacked=True)[-1][1]
        return out[0] if x.ndim == 1 else out

    def forward_trace(self, X):
        """The trainer's batch pass, on plain matrix products (a row's bits may
        depend on its batch), keeping what backward needs: (output, trace)."""
        trace = self._layers(X, stacked=False)
        return trace[-1][1], trace

    def _layers(self, X, stacked):
        """(input, output) per layer; stacked makes each row its own 1-row product."""
        h = np.asarray(X, dtype=float)
        if h.ndim != 2 or h.shape[1] != self.weights[0].shape[1]:
            raise ShapeError(
                f"expected inputs of width {self.weights[0].shape[1]}, got shape {h.shape}"
            )
        trace = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = (h[:, None, :] @ w.T)[:, 0, :] + b if stacked else h @ w.T + b
            trace.append((h, a if i == last else np.tanh(a)))
            h = trace[-1][1]
        return trace

    def backward(self, trace, grad_out):
        """Reverse-mode pass. grad_out is d(scalar)/d(output), shape (n, out).

        Returns (weight_grads, bias_grads, input_grad).
        """
        g = np.asarray(grad_out, dtype=float)
        weight_grads = [None] * len(self.weights)
        bias_grads = [None] * len(self.weights)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            h_in, h_out = trace[i]
            ga = g if i == last else g * (1.0 - h_out * h_out)
            weight_grads[i] = ga.T @ h_in
            bias_grads[i] = ga.sum(axis=0)
            g = ga @ self.weights[i]
        return weight_grads, bias_grads, g

    def to_config(self):
        """JSON-ready dict; weight matrices are flattened row-major."""
        return {
            "layer_sizes": self.layer_sizes,
            "activations": self.activations,
            "weights": [w.reshape(-1).tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_config(cls, cfg):
        try:
            sizes, acts = cfg["layer_sizes"], list(cfg["activations"])
            arrays = [*cfg["weights"], *cfg["biases"]]
            if not (json_fits(tuple, sizes) and all(json_fits(list, v) for v in arrays)):
                raise TypeError("layer sizes must be integers, weights and biases lists of numbers")
            weights = [
                np.asarray(flat, dtype=float).reshape(fan_out, fan_in)
                for flat, fan_in, fan_out in zip(cfg["weights"], sizes[:-1], sizes[1:])
            ]
            biases = [np.asarray(b, dtype=float) for b in cfg["biases"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed network config: {exc}") from None
        net = cls(weights, biases)
        if acts != net.activations:
            raise ConfigError(f"network activations must be {net.activations}, got {acts}")
        return net
