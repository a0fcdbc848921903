#!/usr/bin/env python3
"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py

Each checker first gets genuine setlab output, which it must accept, and then
deliberately corrupted copies of it, each of which it must count as failed.
Exits 0 when every case behaves, 1 otherwise. Scratch files go under
perfbench/out/ and are removed.
"""

import contextlib
import copy
import io
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import setlab  # noqa: E402
import setlab.cli  # noqa: E402
import setlab.powersum as powersum  # noqa: E402

import checks  # noqa: E402

RESULTS = []


def expect(name, accepted, want_accepted, outcomes=("accepted", "counted as failed")):
    RESULTS.append(accepted == want_accepted)
    verdict = "ok  " if accepted == want_accepted else "FAIL"
    print(f"{verdict} {name}: {outcomes[0] if accepted else outcomes[1]}")


def expect_fault(name, marked, want_marked):
    """A failed operation must count as the known fault exactly when it is one."""
    expect(name, marked, want_marked, ("failed, the known fault", "failed, not the known fault"))


def codec_cases():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(64, 5))
    P = powersum.power_sum_encode_batch(X)
    U = powersum.power_sum_decode_batch(P, 5)
    P2 = powersum.power_sum_encode_batch(X[:, ::-1])
    ok, _ = checks.check_round_trip(P, U, X, P2, sample_every=1)
    expect("codec: genuine round trips", ok.all(), True)

    bad = U.copy()
    bad[3, 2] += 1e-5
    listed = frozenset({checks.multiset_key(X[3])})
    ok, fault = checks.check_round_trip(P, bad, X, P2, sample_every=1, known=listed)
    expect("codec: one decoded value moved by 1e-5", ok[3], False)
    expect_fault("codec: one decoded value moved by 1e-5, its set listed as faulty", fault[3], False)

    bad = U.copy()
    bad[5] = np.nan
    ok, _ = checks.check_round_trip(P, bad, X, P2, sample_every=1)
    expect("codec: a row the decoder refused", ok[5], False)

    bad = P2.copy()
    bad[7, 1] = np.nextafter(bad[7, 1], np.inf)
    ok, _ = checks.check_round_trip(P, U, X, bad, sample_every=1)
    expect("codec: shuffled encoding one ulp off", ok[7], False)

    bad, bad2 = P.copy(), P2.copy()
    bad[9, 4] += 1e-9
    bad2[9, 4] += 1e-9
    ok, _ = checks.check_round_trip(bad, U, X, bad2, sample_every=1)
    expect("codec: latent 1e-9 off its fsum power sums", ok[9], False)

    triple = np.array([[-0.5, -0.5, -0.5]])
    Pt = powersum.power_sum_encode_batch(triple)
    Ut = powersum.power_sum_decode_batch(Pt, 3)
    ok, fault = checks.check_round_trip(Pt, Ut, triple, Pt, sample_every=1)
    expect("codec: (-0.5, -0.5, -0.5) outside known_fault.json", ok[0], False)
    expect_fault("codec: (-0.5, -0.5, -0.5) outside known_fault.json", fault[0], False)
    grid = np.full((1, 3), np.linspace(-1.0, 1.0, 51)[16])
    Pg = powersum.power_sum_encode_batch(grid)
    Ug = powersum.power_sum_decode_batch(Pg, 3)
    ok, fault = checks.check_round_trip(Pg, Ug, grid, Pg, 1, known=checks.load_known_fault()["grid M=3"])
    expect("codec: grid row (-0.36)^3, listed in known_fault.json", ok[0], False)
    expect_fault("codec: grid row (-0.36)^3, listed in known_fault.json", fault[0], True)

    codec = setlab.VarSizeCodec(M_max=6)
    sets = [rng.uniform(-1.0, 1.0, k) for k in range(7)]
    L = np.array([setlab.varsize_encode(x, codec) for x in sets])
    D = powersum.varsize_decode_batch(L, codec)
    ok, _ = checks.check_varsize(L, D, sets, L, codec.filler, sample_every=1)
    expect("varsize: genuine round trips", ok.all(), True)
    wrong = list(D)
    wrong[4] = wrong[4][:-1]
    ok, _ = checks.check_varsize(L, wrong, sets, L, codec.filler, sample_every=1)
    expect("varsize: a set returned one element short", ok[4], False)
    wrong = list(D)
    wrong[5] = wrong[5] + 2e-6
    listed = frozenset({checks.multiset_key(sets[5])})
    ok, fault = checks.check_varsize(L, wrong, sets, L, codec.filler, sample_every=1, known=listed)
    expect("varsize: a set returned 2e-6 off", ok[5], False)
    expect_fault("varsize: a set returned 2e-6 off, its set listed as faulty", fault[5], False)


def certify_cases(work):
    config = work / "config.json"
    config.write_text('{"task": "f_star", "M": 3, "N": 2, "seed": 3, "epochs": 5}\n')
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            setlab.cli.main(["train", "--config", str(config), "--out", str(work)]),
            setlab.cli.main(["collide", str(work / "encoder.json"), "--tol", "1e-8",
                             "--out", str(work / "cert.json")]),
            setlab.cli.main(["contours", str(work / "checkpoint.json"), "--resolution", "21",
                             "--out", str(work / "grid.csv")]),
        ]
    expect("certify: commands exit 0", codes == [0, 0, 0], True)
    ckpt = checks.load_json(work / "checkpoint.json")
    enc = checks.load_json(work / "encoder.json")
    cert = checks.load_json(work / "cert.json")

    def cert_ok(ck, en, ce):
        return not checks.check_certificate(ck, en, ce, 1e-8)

    expect("certificate: genuine", cert_ok(ckpt, enc, cert), True)
    bad = copy.deepcopy(cert)
    bad["x_plus"][1] += 1e-4
    bad["x_plus"][2] += 1e-4
    expect("certificate: x+ moved off the collision", cert_ok(ckpt, enc, bad), False)
    bad = copy.deepcopy(cert)
    bad["x_minus"] = [0.9, 0.1, -0.3]
    expect("certificate: x- off its face", cert_ok(ckpt, enc, bad), False)
    bad = copy.deepcopy(enc)
    bad["params"]["biases"][0][0] += 1e-3
    expect("certificate: encoder differs from the checkpoint", cert_ok(ckpt, bad, cert), False)
    bad = copy.deepcopy(ckpt)
    bad["rho"]["weights"][-1][0] = float("nan")
    expect("certificate: non-finite readout (error bound)", cert_ok(bad, enc, cert), False)

    grid = work / "grid.csv"
    text = grid.read_text().splitlines()
    expect("contours: genuine", not checks.check_contours(ckpt, grid, 21), True)
    for name, lines in (
        ("one value off by 1e-6", text[:5] + [_shift(text[5], 2, 1e-6)] + text[6:]),
        ("an x coordinate off the axis", text[:9] + [_shift(text[9], 0, 1e-3)] + text[10:]),
        ("a row missing", text[:-1]),
        ("wrong header", ["a,b,c"] + text[1:]),
    ):
        bad = work / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        expect(f"contours: {name}", not checks.check_contours(ckpt, bad, 21), False)


def _shift(line, column, delta):
    values = [float(v) for v in line.split(",")]
    values[column] += delta
    return ",".join(repr(v) for v in values)


def verify_cases():
    row = {"name": "face-pair-gap", "status": "pass", "residual": 0.0, "tolerance": 0.0}
    expect("verify: genuine passing row", checks.check_report_row(row)[0] is None, True)
    listed = frozenset({"face-pair-gap"})
    for name, change in (
        ("status fail", {"status": "fail", "residual": 1.0}),
        ("residual above its tolerance", {"residual": 1e-3}),
        ("tolerance loosened", {"tolerance": 1.0, "residual": 0.5}),
        ("residual NaN", {"residual": float("nan")}),
        ("unknown check", {"name": "no-such-check"}),
    ):
        expect(f"verify: {name}", checks.check_report_row({**row, **change})[0] is None, False)
    for name, change in (
        ("tolerance loosened", {"tolerance": 1.0, "residual": 0.5}),
        ("residual NaN", {"status": "fail", "residual": float("nan")}),
    ):
        _, fault = checks.check_report_row({**row, **change}, listed)
        expect_fault(f"verify: {name}, its check listed as faulty", fault, False)
    faulty = {"name": "power-sum-round-trip", "status": "fail", "residual": 1.17e-6, "tolerance": 1e-6}
    problem, fault = checks.check_report_row(faulty, frozenset({"power-sum-round-trip"}))
    expect("verify: power-sum-round-trip 1.17e-6 off, listed", problem is None, False)
    expect_fault("verify: power-sum-round-trip 1.17e-6 off, listed", fault, True)
    expect_fault("verify: power-sum-round-trip 1.17e-6 off, not listed", checks.check_report_row(faulty)[1], False)


def main():
    work = BENCH / "out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        codec_cases()
        certify_cases(work)
        verify_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)} of {len(RESULTS)} cases behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
