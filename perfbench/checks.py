"""Reference computations made apart from setlab, and the checkers built on them.

Nothing here imports setlab. Every expected value is derived from the inputs
with NumPy and the standard library alone, so a fault in the program cannot
hide in its own reference. Each checker returns per-operation verdicts; the
self-test (selftest.py) feeds every one of them corrupted output.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)

# The registry's codec tolerance (power-sum-round-trip, varsize-round-trip).
CODEC_TOL = 1e-6
# The codec's own acceptance test: a decoded row is kept when its re-encoding
# lies within this distance of the latent. Restated here only to tell the
# known fault (accepted but never polished) apart from any other failure.
REPRODUCE_TOL = 1e-6
# The multisets the known fault spoils, per `multiset` batch (known_fault.json).
KNOWN_FAULT_FILE = Path(__file__).resolve().parent / "known_fault.json"

# Registry tolerances as committed; a report that carries any other value
# fails the check, so loosening a tolerance cannot turn a check green.
REGISTRY_TOLERANCES = {
    "fstar-permutation-invariance": 0.0,
    "face-pair-gap": 0.0,
    "canonicalize-idempotent": 0.0,
    "planar-closed-form": 1e-12,
    "power-sum-round-trip": 1e-6,
    "injectivity-separation": 0.0,
    "encode-permutation-invariance": 0.0,
    "varsize-round-trip": 1e-6,
    "exact-eval-max-grid": 1e-6,
    "smoothmax-bound": 1e-12,
    "smoothmax-saturation": 0.0,
    "surjection-codomain": 1e-9,
    "interleave-inequality": 1e-9,
    "boundary-antisymmetry": 1e-9,
    "vertical-constancy": 1e-9,
    "left-shift-antisymmetry": 1e-12,
    "certificate-validity": 0.0,
    "surjection-continuity-probe": 1e3,
    "first-element-consistency": 0.0,
    "pool-permutation-invariance": 1e-12,
    "sampled-variance-law": 0.0,
    "max-pool-counterexample": 0.0,
    "model-permutation-invariance": 0.0,
    "gradient-oracle": 1e-4,
    "training-reproducibility": 0.0,
    "encoder-export-match": 1e-12,
}


# ------------------------------------------------------------------ codec


def sorted_desc(rows):
    """Each row sorted descending: the multiset the codec must give back."""
    return -np.sort(-np.asarray(rows, dtype=float), axis=1)


def multiset_key(x):
    """A multiset as a hashable key: its elements sorted descending, to 1e-9."""
    return tuple(round(float(v), 9) for v in sorted(x, reverse=True))


def load_known_fault():
    """{batch label: frozenset of multiset keys} of the rows the known codec
    fault spoils. Which rows these are does not depend on the seed."""
    with open(KNOWN_FAULT_FILE) as fh:
        return {label: frozenset(map(multiset_key, rows)) for label, rows in json.load(fh).items()}


def fsum_power_sums(x, q_max, filler=None):
    """sum_i x_i**q for q = 1..q_max, each summed exactly with math.fsum.

    With a filler k, returns the variable-size latent sum_i (x_i**q - k**q).
    """
    x = [float(v) for v in x]
    out = []
    for q in range(1, q_max + 1):
        terms = [v**q for v in x]
        if filler is not None:
            terms.extend([-(filler**q)] * len(x))
        out.append(math.fsum(terms))
    return np.array(out)


def power_sum_tolerance(x, q_max, filler=None):
    """Rounding allowance between the codec's latent and fsum_power_sums.

    The codec builds x**q by q-1 products (relative error <= (q-1) eps per
    term) and sums with compensation (<= 2 eps of the absolute sum); Python's
    x**q adds one more rounding. Twice that total is allowed.
    """
    x = np.abs(np.asarray(x, dtype=float))
    q = np.arange(1, q_max + 1)
    mass = np.array([np.sum(x**k) for k in q])
    if filler is not None:
        mass = mass + x.size * abs(filler) ** q
    return 2.0 * (q + 3) * EPS * mass + 4.0 * EPS


def check_round_trip(latent, decoded, inputs, shuffled_latent, sample_every, known=frozenset()):
    """Verdicts for fixed-size codec round trips, one per row.

    latent: the program's encoding of `inputs` (rows in any order);
    decoded: the program's decode of `latent` (NaN rows where decode raised);
    shuffled_latent: the program's encoding of the same rows with their
    elements shuffled. A row passes when its decode matches the sorted input
    within CODEC_TOL, its shuffled encoding is bit-identical, and, for every
    `sample_every`-th row, its latent matches fsum power sums.

    Returns (ok, fault): ok[i] is the verdict; fault[i] marks a failed row
    that is the known codec fault: its multiset is in `known` (keys of
    multiset_key), and its decode re-encodes within REPRODUCE_TOL of the
    latent although it is off by more than CODEC_TOL.
    """
    latent = np.asarray(latent, dtype=float)
    decoded = np.asarray(decoded, dtype=float)
    expect = sorted_desc(inputs)
    m = expect.shape[1]
    with np.errstate(invalid="ignore"):
        err = np.max(np.abs(decoded - expect), axis=1)
    close = err <= CODEC_TOL  # NaN (decode raised) compares False
    bitwise = np.all(latent == np.asarray(shuffled_latent), axis=1)
    fsum_ok = np.ones(len(latent), dtype=bool)
    for i in range(0, len(latent), sample_every):
        ref = fsum_power_sums(expect[i], m)
        fsum_ok[i] = np.all(np.abs(latent[i] - ref) <= power_sum_tolerance(expect[i], m))
    ok = close & bitwise & fsum_ok
    fault = np.zeros(len(latent), dtype=bool)
    for i in np.flatnonzero(~ok & bitwise & fsum_ok & np.isfinite(err)):
        fault[i] = multiset_key(expect[i]) in known and _reencodes(decoded[i], latent[i])
    return ok, fault


def _reencodes(decoded, latent, filler=None):
    """Whether a decode passes the codec's own test: its fsum power sums lie
    within REPRODUCE_TOL of the latent."""
    gap = np.max(np.abs(fsum_power_sums(decoded, len(latent), filler) - latent))
    return bool(gap <= REPRODUCE_TOL)


def check_varsize(latent, decoded, inputs, shuffled_latent, filler, sample_every, known=frozenset()):
    """Verdicts for variable-size round trips; `decoded` is a list of arrays
    (None where decode raised). A row also fails when it comes back at the
    wrong size. Returns (ok, fault) as check_round_trip does."""
    n = len(inputs)
    ok = np.zeros(n, dtype=bool)
    fault = np.zeros(n, dtype=bool)
    for i, (x, u) in enumerate(zip(inputs, decoded)):
        m = len(latent[i])
        if not np.array_equal(latent[i], shuffled_latent[i]):
            continue
        if i % sample_every == 0:
            ref = fsum_power_sums(x, m, filler)
            if not np.all(np.abs(latent[i] - ref) <= power_sum_tolerance(x, m, filler)):
                continue
        if u is None or len(u) != len(x):
            continue
        if len(x) == 0:
            ok[i] = True
            continue
        err = np.max(np.abs(np.asarray(u, dtype=float) - sorted_desc([x])[0]))
        if err <= CODEC_TOL:
            ok[i] = True
        else:
            fault[i] = multiset_key(x) in known and _reencodes(u, latent[i], filler)
    return ok, fault


# ---------------------------------------------------------------- certify


ACTIVATIONS = {"tanh": np.tanh, "relu": lambda a: np.maximum(a, 0.0), "identity": lambda a: a}


class DenseNet:
    """A network rebuilt from its JSON config: weights (fan_out, fan_in),
    flattened row-major, one activation name per layer."""

    def __init__(self, cfg):
        sizes = [int(s) for s in cfg["layer_sizes"]]
        self.acts = [ACTIVATIONS[a] for a in cfg["activations"]]
        self.weights = [
            np.asarray(w, dtype=float).reshape(fan_out, fan_in)
            for w, fan_in, fan_out in zip(cfg["weights"], sizes[:-1], sizes[1:])
        ]
        self.biases = [np.asarray(b, dtype=float) for b in cfg["biases"]]

    def __call__(self, H):
        H = np.asarray(H, dtype=float)
        for w, b, act in zip(self.weights, self.biases, self.acts):
            H = act(np.einsum("ij,nj->ni", w, H) + b)
        return H

    def lipschitz_bound(self):
        """Product of spectral norms: each activation here is 1-Lipschitz."""
        if not all(np.all(np.isfinite(w)) for w in self.weights):
            return math.inf
        return math.prod(float(np.linalg.norm(w, 2)) for w in self.weights)


def f_star_ref(x):
    """The alternating target: +-1 weights on the descending sort, bias -1
    for an even number of elements, summed exactly."""
    u = sorted((float(v) for v in x), reverse=True)
    terms = [v if i % 2 == 0 else -v for i, v in enumerate(u)]
    if len(u) % 2 == 0:
        terms.append(-1.0)
    return math.fsum(terms)


def pooled(phi, x):
    """sum_i phi(x_i), each coordinate summed exactly."""
    feats = phi(np.sort(np.asarray(x, dtype=float))[::-1][:, None])
    return np.array([math.fsum(col) for col in feats.T])


def model_values_on_pairs(phi, rho, XY):
    """Model values on two-element sets, one per row of XY."""
    U = sorted_desc(XY)
    feats = phi(U.reshape(-1, 1)).reshape(U.shape[0], 2, -1)
    return rho(feats[:, 0, :] + feats[:, 1, :])[:, 0]


def check_certificate(checkpoint, encoder, certificate, tol):
    """Problems found in one collision certificate (empty list when sound).

    Recomputes, from the JSON files alone: the pooled residual against
    tol * (1 + max|phi|) (max over the 513-point grid the search uses), the
    target values f*(x+) = 1 and f*(x-) = -1, and the paper's bound: the
    model's worse error at x+ and x- is at least 1 - L * |Sphi(x+) -
    Sphi(x-)| / 2, where L bounds the readout's Lipschitz constant, less
    1e-9 for floating-point evaluation.
    """
    problems = []
    phi = DenseNet(checkpoint["phi"])
    rho = DenseNet(checkpoint["rho"])
    if encoder.get("kind") != "mlp" or encoder.get("params") != checkpoint["phi"]:
        problems.append("exported encoder differs from the checkpoint's phi")
    x_plus = np.asarray(certificate["x_plus"], dtype=float)
    x_minus = np.asarray(certificate["x_minus"], dtype=float)
    n = int(checkpoint["N"])
    if not (int(certificate["N"]) == n and int(certificate["M"]) == n + 1 == x_plus.size == x_minus.size):
        problems.append("certificate sizes do not match M = N + 1")
        return problems
    scale = float(np.max(np.abs(phi(np.linspace(-1.0, 1.0, 513)[:, None]))))
    delta = pooled(phi, x_plus) - pooled(phi, x_minus)
    allowed = tol * (1.0 + scale) + 1e-12 * (1.0 + scale)
    if not float(np.max(np.abs(delta))) <= allowed:
        problems.append(f"pooled residual {np.max(np.abs(delta)):.3g} exceeds {allowed:.3g}")
    if not (abs(f_star_ref(x_plus) - 1.0) <= 1e-12 and abs(f_star_ref(x_minus) + 1.0) <= 1e-12):
        problems.append("f* is not +1 at x+ and -1 at x-")
    value_plus = float(rho(pooled(phi, x_plus)[None, :])[0, 0])
    value_minus = float(rho(pooled(phi, x_minus)[None, :])[0, 0])
    worse = max(abs(value_plus - 1.0), abs(value_minus + 1.0))
    slack = 0.5 * rho.lipschitz_bound() * float(np.linalg.norm(delta)) + 1e-9
    if not worse >= 1.0 - slack:
        problems.append(f"worse error {worse:.6g} is below the bound 1 - {slack:.3g}")
    return problems


def check_contours(checkpoint, csv_path, resolution=201):
    """Problems found in a contour CSV of a checkpoint (empty list when sound).

    Rows must be the corner-anchored resolution x resolution grid, x the outer
    loop, and every value must match this module's evaluation of the
    checkpoint within 1e-9 * (1 + |value|).
    """
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["x", "y", "value"]:
            return ["contour CSV header is not x,y,value"]
        rows = np.array([[float(v) for v in row] for row in reader])
    axis = np.linspace(-1.0, 1.0, resolution)
    if rows.shape != (resolution * resolution, 3):
        return [f"contour CSV has shape {rows.shape}"]
    if not (np.array_equal(rows[:, 0], np.repeat(axis, resolution))
            and np.array_equal(rows[:, 1], np.tile(axis, resolution))):
        return ["contour rows are not on the corner-anchored grid"]
    want = model_values_on_pairs(DenseNet(checkpoint["phi"]), DenseNet(checkpoint["rho"]), rows[:, :2])
    bad = ~(np.abs(rows[:, 2] - want) <= 1e-9 * (1.0 + np.abs(want)))
    if bad.any():
        return [f"{int(bad.sum())} contour values differ from the checkpoint's evaluation"]
    return []


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------- verify


def check_report_row(row, known=frozenset()):
    """Verdict on one registry row of a run_suite report: (problem, fault).

    problem is None when the row passes under the registry's tolerance as
    committed. fault is True for a row that fails that tolerance with a
    finite residual when its check is in `known`, the checks whose inputs
    the known codec fault spoils.
    """
    name = row["name"]
    if name not in REGISTRY_TOLERANCES:
        return f"{name}: not a registry check this benchmark knows", False
    tol = REGISTRY_TOLERANCES[name]
    if row["tolerance"] != tol:
        return f"{name}: tolerance {row['tolerance']} differs from the registry's {tol}", False
    residual = float(row["residual"])
    if row["status"] == "pass" and residual <= tol:
        return None, False
    fault = name in known and row["status"] == "fail" and math.isfinite(residual) and residual > tol
    return f"{name}: status {row['status']}, residual {residual:.3g} > {tol}", fault
