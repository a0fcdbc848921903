import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import setlab
from setlab import DeepSetsModel, Mlp, deepsets_eval
from setlab._jsonio import dumps
from setlab.approx import (
    load_certificate,
    random_mlp_encoder,
    random_piecewise_linear,
    save_phispec,
    shifted_linear,
)
from setlab.cli import main

TINY_TRAIN = {
    "task": "f_star",
    "M": 3,
    "N": 2,
    "seed": 1,
    "epochs": 30,
    "batch": 64,
    "step": 0.05,
    "n_samples": 256,
    "phi_hidden": [8],
    "rho_hidden": [8],
    "grid_resolution": 7,
}


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _run_python(args, **env):
    """Run a fresh interpreter that imports this setlab package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(setlab.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
    )


def _run_cli(argv, **env):
    """Run the setlab command line in a fresh interpreter."""
    return _run_python(["-m", "setlab.cli", *argv], **env)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def test_dumps_golden_bytes():
    # NumPy arrays and scalars, nested tuples, empty containers, -0.0, a
    # subnormal, non-string keys and non-ASCII text, indented and canonical
    obj = {
        "floats": np.array([[1.5, -0.0], [5e-324, 1 / 3]]),
        "ints": np.arange(3, dtype=np.int64),
        "flags": np.array([True, False]),
        "scalars": [np.float64(0.1), np.float32(0.1), np.int32(-7), np.bool_(True), np.uint8(255)],
        "nested": (1, (2.5, ()), [None, False], {}),
        "empty": {"list": [], "array": np.zeros((0,))},
        -0.0: -0.0,
        3: 2.2250738585072014e-308 / 4,
        "text": "naïve ✓ \"q\"",
    }
    indented = r'''{
  "floats": [
    [
      1.5,
      -0
    ],
    [
      4.9406564584124654e-324,
      0.33333333333333331
    ]
  ],
  "ints": [
    0,
    1,
    2
  ],
  "flags": [
    true,
    false
  ],
  "scalars": [
    0.10000000000000001,
    0.10000000149011612,
    -7,
    true,
    255
  ],
  "nested": [
    1,
    [
      2.5,
      []
    ],
    [
      null,
      false
    ],
    {}
  ],
  "empty": {
    "list": [],
    "array": []
  },
  "-0.0": -0,
  "3": 5.5626846462680035e-309,
  "text": "na\u00efve \u2713 \"q\""
}'''
    assert dumps(obj) == indented
    assert dumps(obj, indent=None, sort_keys=True) == (
        '{"-0.0":-0,"3":5.5626846462680035e-309,"empty":{"array":[],"list":[]},"flags":[true,false],'
        '"floats":[[1.5,-0],[4.9406564584124654e-324,0.33333333333333331]],"ints":[0,1,2],'
        '"nested":[1,[2.5,[]],[null,false],{}],'
        '"scalars":[0.10000000000000001,0.10000000149011612,-7,true,255],'
        '"text":"na\\u00efve \\u2713 \\"q\\""}'
    )


def test_import_loads_no_scipy(tmp_path):
    # the runtime needs NumPy alone, so scipy is a test dependency only
    code = "import sys, setlab, setlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # a collision search that reaches sorted Newton runs where every
    # `import scipy` fails
    phi, out = tmp_path / "phi.json", tmp_path / "cert.json"
    save_phispec(random_mlp_encoder(2, seed=0), str(phi))
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from setlab.cli import main\n"
        f"code = main(['collide', {str(phi)!r}, '--out', {str(out)!r}])\n"
        "print(code, sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod))"
    )
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    stages = load_certificate(str(out)).search_trace["stages"]
    assert [s["name"] for s in stages] == ["sorted-newton"]


# verify


def test_verify_writes_report_and_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "janossy", "--budget", "0.02", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["summary"]["fail"] == 0
    assert {row["status"] for row in report["checks"]} == {"pass"}


def test_verify_same_seed_reports_identical_modulo_wall_time(tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["verify", "--suite", "sumdec", "--seed", "4", "--budget", "0.01", "--out", str(out)]) == 0
    a, b = (json.loads(out.read_text()) for out in outs)
    for report in (a, b):
        for row in report["checks"]:
            row.pop("wall_time")
    assert a == b


def test_verify_zero_tolerance_override_exits_one(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "sumdec", "--tol", "0", "--budget", "0.01", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["summary"]["fail"] > 0


def test_verify_rejects_unknown_suite_and_bad_budget(tmp_path):
    assert main(["verify", "--suite", "set_core"]) == 2
    assert main(["verify", "--suite", "all", "--budget", "0"]) == 2
    # a tolerance override must be a finite number >= 0
    for tol in ("inf", "nan", "-1"):
        proc = _run_cli(["verify", "--suite", "janossy", "--budget", "0.01", "--tol", tol])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
    # a collision search needs at least one start
    phi = tmp_path / "phi.json"
    save_phispec(random_piecewise_linear(2, seed=7), str(phi))
    for budget in ("0", "-1"):
        proc = _run_cli(["collide", str(phi), "--budget", budget])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


# collide


def test_collide_certifies_the_analytic_planar_case(tmp_path):
    phi = tmp_path / "phi.json"
    save_phispec(shifted_linear(), str(phi))
    out = tmp_path / "cert.json"
    assert main(["collide", str(phi), "--out", str(out)]) == 0
    cert = load_certificate(str(out))
    assert cert.M == 2 and cert.f_gap == 2.0
    np.testing.assert_array_equal(cert.x_plus, [1.0, -1.0])
    np.testing.assert_array_equal(cert.x_minus, [0.0, 0.0])


def test_collide_random_encoder_writes_certificate(tmp_path):
    phi = tmp_path / "phi.json"
    save_phispec(random_piecewise_linear(2, seed=7), str(phi))
    out = tmp_path / "cert.json"
    assert main(["collide", str(phi), "--seed", "3", "--budget", "16", "--out", str(out)]) == 0
    cert = load_certificate(str(out))
    assert cert.M == 3 and cert.phi_residual <= 1e-8 * (1 + 2.0)


def test_collide_exhaustion_writes_trace_and_exits_two(tmp_path):
    phi = tmp_path / "phi.json"
    save_phispec(random_mlp_encoder(2, seed=11), str(phi))
    out = tmp_path / "trace.json"
    assert main(["collide", str(phi), "--tol", "0", "--budget", "2", "--out", str(out)]) == 2
    trace = json.loads(out.read_text())
    assert trace["error"] == "SearchExhausted"
    assert trace["schema"] == 1 and trace["best_residual"] > 0


# contours


def test_contours_fstar_grid_values(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["contours", "f_star", "--resolution", "5", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 25
    values = {(x, y): v for x, y, v in rows}
    for t in np.linspace(-1, 1, 5):
        assert values[(t, t)] == -1.0
    assert values[(1.0, -1.0)] == 1.0 and values[(-1.0, 1.0)] == 1.0


def test_contours_lse_max_needs_params_and_saturates(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["contours", "lse_max", "--resolution", "3", "--out", str(out)]) == 2
    cfg = _write_json(tmp_path / "params.json", {"a": 2.0})
    assert main(["contours", "lse_max", "--config", cfg, "--resolution", "3", "--out", str(out)]) == 0
    values = {(x, y): v for x, y, v in _read_csv(out)}
    for t in (-1.0, 0.0, 1.0):
        assert values[(t, t)] == t + math.log(2.0) / 2.0
    for a in (None, "two", [2.0]):
        cfg = _write_json(tmp_path / "params.json", {"a": a})
        assert main(["contours", "lse_max", "--config", cfg, "--resolution", "3", "--out", str(out)]) == 2


def test_contours_max_is_exact(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["contours", "max", "--resolution", "4", "--out", str(out)]) == 0
    for x, y, v in _read_csv(out):
        assert v == max(x, y)


def test_contours_unknown_function_exits_two(tmp_path):
    assert main(["contours", "nosuch", "--out", str(tmp_path / "g.csv")]) == 2


def _wide_checkpoint(tmp_path):
    # layers 32 wide: there, a plain matrix product gives a row other bits
    # depending on the batch it sits in
    phi = Mlp.init([1, 32, 32, 2], seed=2)
    rho = Mlp.init([2, 32, 32, 1], seed=3)
    model = DeepSetsModel(phi, 2, rho)
    return model, _write_json(tmp_path / "checkpoint.json", model.to_config())


def test_checkpoint_contours_equal_single_set_evaluation(tmp_path):
    model, ckpt = _wide_checkpoint(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(["contours", ckpt, "--resolution", "21", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 21 * 21
    for x, y, v in rows:
        assert v == deepsets_eval(model, [x, y])


def test_checkpoint_contours_that_overflow_exit_two_and_write_nothing(tmp_path):
    phi = Mlp.init([1, 4, 2], seed=0)
    rho = Mlp.init([2, 4, 1], seed=1)
    rho.weights[0][:], rho.biases[0][:] = 0.0, 5.0
    rho.weights[1][:], rho.biases[1][:] = 1.5e308, 1.5e308  # finite weights, infinite output
    ckpt = _write_json(tmp_path / "checkpoint.json", DeepSetsModel(phi, 2, rho).to_config())
    out = tmp_path / "grid.csv"
    proc = _run_cli(["contours", ckpt, "--resolution", "5", "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_checkpoint_contours_are_identical_across_blas_thread_counts(tmp_path):
    _, ckpt = _wide_checkpoint(tmp_path)
    grids = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = _run_cli(["contours", ckpt, "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        grids.append(out.read_bytes())
    assert grids[0] == grids[1]


# train


def test_train_pipeline_artifacts_feed_contours_and_collide(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", TINY_TRAIN)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["schema"] == 1 and math.isfinite(metrics["final_loss"])
    grid = tmp_path / "grid.csv"
    assert main(["contours", str(out / "checkpoint.json"), "--resolution", "3", "--out", str(grid)]) == 0
    assert len(_read_csv(grid)) == 9
    cert = tmp_path / "cert.json"
    assert main(["collide", str(out / "encoder.json"), "--out", str(cert)]) == 0
    assert load_certificate(str(cert)).M == 3


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", TINY_TRAIN)
    # the fixed step decay and training data, spelled out at their one value
    spelled = {**TINY_TRAIN, "decay": "cosine", "data": "uniform+grid"}
    spelled = _write_json(tmp_path / "spelled.json", spelled)
    for name, path in (("one", cfg), ("two", cfg), ("spelled", spelled)):
        assert main(["train", "--config", path, "--out", str(tmp_path / name)]) == 0
    first = (tmp_path / "one/checkpoint.json").read_bytes()
    for name in ("two", "spelled"):
        assert (tmp_path / name / "checkpoint.json").read_bytes() == first


def test_train_seed_flag_overrides_config(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", TINY_TRAIN)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "base")]) == 0
    assert main(["train", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "over")]) == 0
    ck = json.loads((tmp_path / "over/checkpoint.json").read_text())
    assert ck["seed"] == 9
    assert (tmp_path / "base/checkpoint.json").read_bytes() != (tmp_path / "over/checkpoint.json").read_bytes()


def test_train_invalid_config_exits_two(tmp_path):
    for override in ({"M": 0}, {"phi_hidden": [0]}, {"rho_hidden": [8, 0]}, {"seed": -1}):
        cfg = _write_json(tmp_path / "cfg.json", {**TINY_TRAIN, **override})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2, override


def test_train_config_of_the_wrong_json_type_exits_two_and_writes_nothing(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {**TINY_TRAIN, "phi_hidden": "32"})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["verify", "collide", "contours", "train"])
def test_negative_seed_flag_is_a_usage_error(tmp_path, command):
    argv = {
        "verify": ["verify"],
        "collide": ["collide", "phi.json"],
        "contours": ["contours", "max", "--out", str(tmp_path / "g.csv")],
        "train": ["train", "--config", "cfg.json", "--out", str(tmp_path / "run")],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"])
    assert info.value.code == 2


def test_train_output_path_that_is_a_file_exits_two(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", TINY_TRAIN)
    blocker = tmp_path / "run"
    blocker.write_text("")
    assert main(["train", "--config", cfg, "--out", str(blocker)]) == 2


def test_train_divergence_exits_three(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {**TINY_TRAIN, "step": 1e9, "epochs": 5})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 3


def test_train_checkpoint_is_identical_across_blas_thread_counts(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"task": "f_star", "M": 3, "N": 2, "seed": 1, "epochs": 300})
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _run_cli(["train", "--config", cfg, "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        checkpoints.append((out / "checkpoint.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]


# unreadable input files


def _checkpoint_config():
    phi = Mlp.init([1, 4, 2], seed=0)
    rho = Mlp.init([2, 4, 1], seed=1)
    return DeepSetsModel(phi, 2, rho).to_config()


# command line for (input file, output path), and a valid input it would accept
JSON_INPUT_COMMANDS = {
    "collide": (lambda f, out: ["collide", f], shifted_linear().to_config()),
    "contours --config": (lambda f, out: ["contours", "lse_max", "--config", f, "--out", out], {"a": 2.5}),
    "contours <checkpoint>": (lambda f, out: ["contours", f, "--out", out], _checkpoint_config()),
    "train --config": (lambda f, out: ["train", "--config", f, "--out", out], TINY_TRAIN),
}


@pytest.mark.parametrize("flaw", ["missing", "truncated", "NaN", "1e999"])
@pytest.mark.parametrize("command", sorted(JSON_INPUT_COMMANDS))
def test_unreadable_json_input_exits_two(tmp_path, command, flaw):
    argv, valid = JSON_INPUT_COMMANDS[command]
    text = json.dumps(valid)
    path = tmp_path / "input.json"
    if flaw == "truncated":
        path.write_text(text[: len(text) // 2])
    elif flaw != "missing":  # a non-finite number in place of the first float literal
        path.write_text(re.sub(r"-?\d+\.\d+", flaw, text, count=1))
    proc = _run_cli(argv(str(path), str(tmp_path / "out")))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def _train_argv(f, out):
    return ["train", "--config", f, "--out", out]


def _tanh_output(cfg, net):
    """cfg with its network's activations ending in tanh, where the fixed shape is affine."""
    cfg[net]["activations"] = ["tanh"] * len(cfg[net]["activations"])
    return cfg


# files that record a model shape other than the fixed one: tanh after every
# layer but the last, a cosine-decayed step, uniform samples plus the grid
OFF_SHAPE_INPUTS = {
    "checkpoint phi ending in tanh": (
        lambda f, out: ["contours", f, "--resolution", "5", "--out", out],
        lambda: _tanh_output(_checkpoint_config(), "phi"),
    ),
    "encoder ending in tanh": (
        lambda f, out: ["collide", f, "--out", out],
        lambda: _tanh_output(random_mlp_encoder(2, seed=0).to_config(), "params"),
    ),
    "decay none": (_train_argv, lambda: {**TINY_TRAIN, "decay": "none"}),
    "data uniform": (_train_argv, lambda: {**TINY_TRAIN, "data": "uniform"}),
}


def _refused_with_exit_two(tmp_path, argv, make):
    out = tmp_path / "out"
    proc = _run_cli(argv(_write_json(tmp_path / "input.json", make()), str(out)))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(OFF_SHAPE_INPUTS))
def test_input_off_the_fixed_model_shape_exits_two_and_writes_nothing(tmp_path, case):
    _refused_with_exit_two(tmp_path, *OFF_SHAPE_INPUTS[case])


def _collide_argv(f, out):
    return ["collide", f, "--out", out]


def _contours_argv(f, out):
    return ["contours", f, "--resolution", "5", "--out", out]


# files whose N is a JSON value other than an integer, which int() would read
# as one: 2.5 as 2, "2" as 2, true as 1
NON_INTEGER_COUNTS = {
    "encoder N 2.5": (_collide_argv, lambda: {**random_mlp_encoder(2, seed=0).to_config(), "N": 2.5}),
    "encoder N '2'": (_collide_argv, lambda: {**random_mlp_encoder(2, seed=0).to_config(), "N": "2"}),
    "encoder N true": (_collide_argv, lambda: {**shifted_linear().to_config(), "N": True}),
    "checkpoint N 2.5": (_contours_argv, lambda: {**_checkpoint_config(), "N": 2.5}),
    "checkpoint N '2'": (_contours_argv, lambda: {**_checkpoint_config(), "N": "2"}),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_COUNTS))
def test_non_integer_count_exits_two_and_writes_nothing(tmp_path, case):
    _refused_with_exit_two(tmp_path, *NON_INTEGER_COUNTS[case])


# fuzzed input files: numbers stay small, so that a fuzzed config that happens
# to be valid trains a tiny model or draws a small grid
def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-16, 16) | st.floats(-16.0, 16.0) | st.text(max_size=8),
    _json_containers,
    max_leaves=12,
)


@st.composite
def input_files(draw, valid):
    """Raw bytes, an arbitrary JSON value, or the valid input with one value replaced."""
    kind = draw(st.sampled_from(["bytes", "json", "edit"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(json_values)).encode()
    key = draw(st.sampled_from(sorted(valid)))
    return json.dumps({**valid, key: draw(json_values)}).encode()


@pytest.mark.parametrize("command", sorted(JSON_INPUT_COMMANDS))
def test_fuzzed_json_input_keeps_the_exit_code_contract(tmp_path, command):
    argv, valid = JSON_INPUT_COMMANDS[command]
    path, out = tmp_path / "input.json", str(tmp_path / "out")
    extra = ["--resolution", "5"] if command.startswith("contours") else []

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(input_files(valid))
    def run(content):
        path.write_bytes(content)
        assert main(argv(str(path), out) + extra) in (0, 1, 2, 3)

    run()
