"""The benchmark's four workloads.

Each workload builds its inputs once from the seed (set-up), then runs whole
rounds of the same operations. A round returns how many operations it
attempted, which failed, and the seconds spent inside setlab calls; the
checks run outside those seconds. Workloads drive setlab only through its
public functions and, for `certify`, through `setlab.cli.main` in process.
"""

import contextlib
import io
import itertools
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import setlab
import setlab.cli
import setlab.powersum as powersum
from setlab.errors import InfeasibleLatent

import checks

CODEC_SIZES = range(2, 9)
# Ten batches of 500 sets per size in one round. Whether a batch runs the
# root finder to its 200-iteration cap depends on whether one of its rows
# stagnates, which at M = 4 and 5 happens in about half of the 500-row
# batches; ten batches per size keep that chance from setting a seed's cost.
CODEC_BATCHES = 10
CODEC_BATCH = 500
# Elements of a codec row are at least this far apart. Near-coincident
# elements take the repair path and belong to `multiset`, where the known
# fault is counted. Over 60000 uniform rows per size, those with all gaps of
# at least 0.01 decoded with a worst error of 1.4e-8.
CODEC_GAP = 0.02

LEVELS = np.linspace(-1.0, 1.0, 5)
LEVEL_SIZES = (4, 6, 8)
GRID_AXIS = np.linspace(-1.0, 1.0, 51)  # the exact-eval-max-grid axis, unstrided
VARSIZE_MAX = 6
VARSIZE_LEVELS = (-0.5, 0.0, 0.5)

CERTIFY_SIZES = (2, 3)
CERTIFY_EPOCHS = 50
COLLIDE_TOL = 1e-8

VERIFY_SCALE = 0.1
# The registry seed of `verify`, the same in every run. Three checks fail on
# some registry seeds at this scale (seeds 0..59 tried: power-sum-round-trip
# on 8, 42, 57; sampled-variance-law on 7, 27, 49, 51; max-pool-counterexample
# on 4, 33), so a registry seed taken from --seed would make the share of
# failed operations differ between seeds. At seed 8 every outcome is fixed:
# power-sum-round-trip fails by the known codec fault (a row with two
# elements 4.5e-6 apart comes back 1.17e-6 off) and the other 25 pass.
VERIFY_SEED = 8
VERIFY_KNOWN_FAULT = frozenset({"power-sum-round-trip"})


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    fault: int = 0  # failed operations that show the known codec fault
    busy_s: float = 0.0
    problems: list = field(default_factory=list)
    check_s: dict = field(default_factory=dict)  # verify: per-check wall time

    def add(self, ok, fault, label):
        ok = np.asarray(ok, dtype=bool)
        fault = np.asarray(fault, dtype=bool) & ~ok
        self.attempted += ok.size
        self.failed += int((~ok).sum())
        self.fault += int(fault.sum())
        for i in np.flatnonzero(~ok & ~fault)[:3]:
            self.problems.append(f"{label} row {int(i)}")

    def fail(self, problem, fault=False):
        self.attempted += 1
        self.failed += 1
        if fault:
            self.fault += 1
        else:
            self.problems.append(problem)


class Timer:
    """Accumulates the wall time of the setlab calls made inside it."""

    def __init__(self, rnd):
        self.rnd = rnd

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.rnd.busy_s += time.perf_counter() - self.t0


class Workload:
    min_rounds = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def setup(self):
        pass

    def close(self):
        pass


def _shuffle_rows(rng, X):
    """Each row's elements in a random order."""
    order = np.argsort(rng.random(X.shape), axis=1)
    return np.take_along_axis(X, order, axis=1)


def _multisets(levels, size):
    return np.array(list(itertools.combinations_with_replacement(levels, size)), dtype=float)


def _decode_rows(P, m):
    """Batch decode; if the batch refuses a row, decode row by row and mark
    the refused rows NaN so the checker counts them as failed."""
    try:
        return powersum.power_sum_decode_batch(P, m)
    except InfeasibleLatent:
        out = np.full(P.shape, np.nan)
        for i, p in enumerate(P):
            try:
                out[i] = setlab.power_sum_decode(p, m)
            except InfeasibleLatent:
                pass
        return out


class Codec(Workload):
    """Round trips of sets with well-separated elements, M = 2..8."""

    def setup(self):
        self.batches = []
        for m in CODEC_SIZES:
            span = 2.0 - (m - 1) * CODEC_GAP
            for _ in range(CODEC_BATCHES):
                lows = np.sort(self.rng.uniform(0.0, span, size=(CODEC_BATCH, m)), axis=1)
                rows = _shuffle_rows(self.rng, lows - 1.0 + CODEC_GAP * np.arange(m))
                self.batches.append((m, rows, _shuffle_rows(self.rng, rows)))

    def run_round(self, index):
        rnd = Round()
        for m, rows, shuffled in self.batches:
            with Timer(rnd):
                P = powersum.power_sum_encode_batch(rows)
                U = _decode_rows(P, m)
            P2 = powersum.power_sum_encode_batch(shuffled)
            ok, fault = checks.check_round_trip(P, U, rows, P2, sample_every=16)
            rnd.add(ok, fault, f"M={m}")
        return rnd


class Multiset(Workload):
    """Round trips of sets with repeated elements: every multiset over five
    levels at M = 4, 6, 8; the full 51^3 grid; and every multiset of size
    0..6 over three levels through VarSizeCodec(M_max=6). The seed orders
    the rows and the elements within them; which multisets appear does not
    depend on it, so neither do the rows the known fault spoils, which
    known_fault.json lists."""

    def setup(self):
        rng = self.rng
        self.known = checks.load_known_fault()
        self.fixed = []
        for m in LEVEL_SIZES:
            rows = _shuffle_rows(rng, rng.permutation(_multisets(LEVELS, m)))
            self.fixed.append((f"levels M={m}", m, rows, _shuffle_rows(rng, rows)))
        grid = np.stack(np.meshgrid(GRID_AXIS, GRID_AXIS, GRID_AXIS, indexing="ij"), axis=-1)
        grid = _shuffle_rows(rng, rng.permutation(grid.reshape(-1, 3)))
        self.fixed.append(("grid M=3", 3, grid, _shuffle_rows(rng, grid)))
        self.codec = setlab.VarSizeCodec(M_max=VARSIZE_MAX)
        sets = [s for k in range(VARSIZE_MAX + 1) for s in _multisets(VARSIZE_LEVELS, k)]
        self.var_sets = [rng.permutation(sets[i]) for i in rng.permutation(len(sets))]
        self.var_shuffled = [rng.permutation(s) for s in self.var_sets]

    def run_round(self, index):
        rnd = Round()
        for label, m, rows, shuffled in self.fixed:
            with Timer(rnd):
                P = powersum.power_sum_encode_batch(rows)
                U = _decode_rows(P, m)
            P2 = powersum.power_sum_encode_batch(shuffled)
            ok, fault = checks.check_round_trip(P, U, rows, P2, sample_every=64, known=self.known[label])
            rnd.add(ok, fault, label)
        with Timer(rnd):
            P = np.array([setlab.varsize_encode(x, self.codec) for x in self.var_sets])
            U = self._varsize_decode(P)
        P2 = np.array([setlab.varsize_encode(x, self.codec) for x in self.var_shuffled])
        ok, fault = checks.check_varsize(
            P, U, self.var_sets, P2, self.codec.filler, sample_every=1, known=self.known["varsize"]
        )
        rnd.add(ok, fault, "varsize")
        return rnd

    def _varsize_decode(self, P):
        try:
            return powersum.varsize_decode_batch(P, self.codec)
        except InfeasibleLatent:
            out = []
            for p in P:
                try:
                    out.append(setlab.varsize_decode(p, self.codec))
                except InfeasibleLatent:
                    out.append(None)
            return out


class Certify(Workload):
    """The bottleneck pipeline through the CLI: train (N = M - 1, task f_star,
    default widths and data, few epochs), collide on the exported encoder,
    contours of the checkpoint on the default 201^2 grid. One operation is
    one model carried through all three commands."""

    min_rounds = 2  # the second round checks that checkpoints repeat byte for byte

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.configs = {}
        for m in CERTIFY_SIZES:
            path = os.path.join(self.workdir, f"config-M{m}.json")
            with open(path, "w") as fh:
                fh.write(
                    f'{{"task": "f_star", "M": {m}, "N": {m - 1}, '
                    f'"seed": {self.seed}, "epochs": {CERTIFY_EPOCHS}}}\n'
                )
            self.configs[m] = path
        self.first_checkpoint = {}

    def run_round(self, index):
        rnd = Round()
        for m in CERTIFY_SIZES:
            problem = self._op(rnd, index, m)
            if problem:
                rnd.fail(f"M={m}: {problem}")
            else:
                rnd.attempted += 1
        return rnd

    def _op(self, rnd, index, m):
        out = os.path.join(self.workdir, f"round{index}-M{m}")
        ckpt = os.path.join(out, "checkpoint.json")
        cert = os.path.join(out, "certificate.json")
        grid = os.path.join(out, "contours.csv")
        commands = (
            ["train", "--config", self.configs[m], "--out", out],
            ["collide", os.path.join(out, "encoder.json"), "--tol", repr(COLLIDE_TOL),
             "--seed", str(self.seed), "--out", cert],
            ["contours", ckpt, "--out", grid],
        )
        for argv in commands:
            with Timer(rnd), contextlib.redirect_stdout(io.StringIO()):
                code = setlab.cli.main(argv)
            if code != 0:
                return f"setlab {argv[0]} exited {code}"
        with open(ckpt, "rb") as fh:
            ckpt_bytes = fh.read()
        first = self.first_checkpoint.setdefault(m, ckpt_bytes)
        problems = [] if ckpt_bytes == first else ["checkpoint differs from round 0"]
        try:
            checkpoint = checks.load_json(ckpt)
            encoder = checks.load_json(os.path.join(out, "encoder.json"))
            certificate = checks.load_json(cert)
            problems += checks.check_certificate(checkpoint, encoder, certificate, COLLIDE_TOL)
            problems += checks.check_contours(checkpoint, grid)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out)
        return "; ".join(problems)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class Verify(Workload):
    """The registry at a reduced budget: run_suite("all", VERIFY_SEED,
    scale=0.1), timed as one call. One operation is one registry check."""

    def run_round(self, index):
        rnd = Round()
        with Timer(rnd):
            report = setlab.run_suite("all", seed=VERIFY_SEED, scale=VERIFY_SCALE)
        for row in report["checks"]:
            rnd.check_s[row["name"]] = row["wall_time"]
            problem, fault = checks.check_report_row(row, VERIFY_KNOWN_FAULT)
            if problem:
                rnd.fail(problem, fault)
            else:
                rnd.attempted += 1
        if len(report["checks"]) != len(checks.REGISTRY_TOLERANCES):
            rnd.fail(f"report has {len(report['checks'])} checks")
        return rnd


WORKLOADS = {"codec": Codec, "multiset": Multiset, "certify": Certify, "verify": Verify}
