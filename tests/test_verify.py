import numpy as np
import pytest

from setlab import CHECKS, ConfigError, SUITES, run_suite


def _strip_wall(report):
    return {
        **{k: v for k, v in report.items() if k != "checks"},
        "checks": [{k: v for k, v in row.items() if k != "wall_time"} for row in report["checks"]],
    }


# registry


def test_registry_names_unique_and_suites_known():
    names = [c.name for c in CHECKS]
    assert len(set(names)) == len(names)
    assert {c.suite for c in CHECKS} <= set(SUITES) - {"all"}


def test_every_check_runs_exactly_once_in_all():
    report = run_suite("all", seed=0, scale=0.01)
    assert [row["name"] for row in report["checks"]] == [c.name for c in CHECKS]
    assert report["summary"]["total"] == len(CHECKS)


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_suites_partition_the_registry(suite):
    report = run_suite(suite, seed=0, scale=0.01)
    want = [c.name for c in CHECKS if c.suite == suite]
    assert [row["name"] for row in report["checks"]] == want


# report contract


def test_report_rows_carry_full_record():
    report = run_suite("janossy", seed=7, scale=0.02)
    for row in report["checks"]:
        assert set(row) == {"name", "anchor", "status", "residual", "tolerance", "seed", "wall_time"}
        assert row["status"] in ("pass", "fail")
        assert row["seed"] == 7
    # every check returns a residual, so the summary's skip count stays 0
    counts = report["summary"]
    assert counts["skip"] == 0 and counts["pass"] + counts["fail"] == counts["total"]


def test_same_seed_reports_identical_modulo_wall_time():
    a = run_suite("sumdec", seed=11, scale=0.01)
    b = run_suite("sumdec", seed=11, scale=0.01)
    assert _strip_wall(a) == _strip_wall(b)
    assert a["config_hash"] == b["config_hash"]


def test_different_seeds_change_the_hash_not_the_shape():
    a = run_suite("janossy", seed=0, scale=0.02)
    b = run_suite("janossy", seed=1, scale=0.02)
    assert a["config_hash"] != b["config_hash"]
    assert [r["name"] for r in a["checks"]] == [r["name"] for r in b["checks"]]


def test_small_scale_suites_pass():
    for suite in ("sumdec", "approx", "janossy", "nnet"):
        report = run_suite(suite, seed=0, scale=0.02)
        failed = [r["name"] for r in report["checks"] if r["status"] == "fail"]
        assert failed == []


def test_zero_tolerance_override_forces_failures():
    report = run_suite("sumdec", seed=0, tol=0.0, scale=0.01)
    assert report["summary"]["fail"] > 0
    assert report["tol_override"] == 0.0
    for row in report["checks"]:
        assert row["tolerance"] == 0.0


def test_rejects_unknown_suite_and_bad_scale():
    with pytest.raises(ConfigError):
        run_suite("set_core")
    with pytest.raises(ConfigError):
        run_suite("all", scale=0.0)
    with pytest.raises(ConfigError):
        run_suite("all", scale=2.0)


# spot-check two residuals against independent recomputation


def test_round_trip_residual_matches_direct_probe():
    from setlab.powersum import _encode_sorted, power_sum_decode_batch

    rng = np.random.default_rng((5, 4))
    report = run_suite("sumdec", seed=5, scale=0.005)
    row = next(r for r in report["checks"] if r["name"] == "power-sum-round-trip")
    worst = 0.0
    for m in range(1, 9):
        X = rng.uniform(-1, 1, size=(max(1, round(10_000 * 0.005)), m))
        S = np.sort(X, axis=1)[:, ::-1]
        U = power_sum_decode_batch(_encode_sorted(S), m)
        worst = max(worst, float(np.max(np.abs(U - S))))
    assert row["residual"] == worst


def test_saturation_residual_is_exactly_zero():
    report = run_suite("approx", seed=2, scale=0.01)
    row = next(r for r in report["checks"] if r["name"] == "smoothmax-saturation")
    assert row["residual"] == 0.0 and row["status"] == "pass"


@pytest.mark.parametrize("seed", [4, 33])
def test_max_pool_counterexample_pools_are_bit_equal(seed):
    # the copied element sits at another row of phi.eval than the original;
    # a row-invariant encoder gives both rows the same bits
    index = next(i for i, c in enumerate(CHECKS) if c.name == "max-pool-counterexample")
    assert CHECKS[index].tolerance == 0.0
    assert CHECKS[index].fn(np.random.default_rng((seed, index)), 0.1) == 0.0
