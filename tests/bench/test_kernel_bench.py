"""The kernel perf-history pipeline: artifact writer + baseline gate.

Covers ``write_kernel_bench`` (the ``BENCH_kernel.json`` producer behind
``python -m repro.bench selftest --bench-json``) and the gate logic in
``scripts/check_bench.py`` that CI's ``bench-history`` job runs against
the committed baseline — both unit-tested on synthesized records so the
tests never pay for a real benchmark sweep.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.runner import RunRecord, calibration_hash, write_kernel_bench

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_check_bench():
    """Import scripts/check_bench.py (scripts/ is not a package)."""
    path = REPO_ROOT / "scripts" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("check_bench", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


check_bench = _load_check_bench()


def _kernel_block(events=1000, wall_s=0.01):
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "scenarios": {
            "mixed 8x100": {"wall_s": wall_s, "events": events, "events_per_s": events / wall_s}
        },
    }


def _selftest_record(bench=None):
    return RunRecord(
        experiment_id="selftest",
        title="Kernel selftest",
        data={"kernel_bench": bench or _kernel_block()},
    )


# ---------------------------------------------------------------------------
# write_kernel_bench
# ---------------------------------------------------------------------------


def test_write_kernel_bench_happy_path(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    path = write_kernel_bench(
        [RunRecord(experiment_id="latency"), _selftest_record()],
        out,
        quick=True,
        run_id="test-run",
    )
    assert path == out
    doc = json.loads(out.read_text())
    assert doc["run_id"] == "test-run"
    assert doc["mode"] == "quick"
    assert doc["calibration_hash"] == calibration_hash()
    assert doc["events"] == 1000
    assert doc["events_per_s"] == 100_000.0
    assert "mixed 8x100" in doc["scenarios"]


def test_write_kernel_bench_skips_errored_records(tmp_path):
    bad = _selftest_record()
    bad.status = "error"
    good = _selftest_record(_kernel_block(events=2000))
    write_kernel_bench([bad, good], tmp_path / "b.json")
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["events"] == 2000


def test_write_kernel_bench_requires_selftest_data(tmp_path):
    with pytest.raises(ValueError, match="selftest"):
        write_kernel_bench(
            [RunRecord(experiment_id="latency"), RunRecord(experiment_id="faults")],
            tmp_path / "b.json",
        )
    assert not (tmp_path / "b.json").exists()


def test_calibration_hash_is_stable_and_short():
    h = calibration_hash()
    assert h == calibration_hash()
    assert len(h) == 12
    int(h, 16)  # hex string


# ---------------------------------------------------------------------------
# check_bench gate logic
# ---------------------------------------------------------------------------


def _artifact(eps=500_000.0, events=1000, cal=None):
    return {
        "run_id": "t",
        "calibration_hash": cal if cal is not None else calibration_hash(),
        "events": events,
        "wall_s": events / eps,
        "events_per_s": eps,
        "scenarios": {},
    }


def _baseline(eps=400_000, max_reg=20, cal=None):
    return {
        "calibration_hash": cal if cal is not None else calibration_hash(),
        "max_regression_pct": max_reg,
        "events_per_s": eps,
    }


def test_gate_passes_on_healthy_artifact():
    assert check_bench.check(_artifact(), _baseline()) == []


def test_gate_flags_throughput_regression():
    # 20% of 400k -> floor 320k; 300k is below it.
    failures = check_bench.check(_artifact(eps=300_000.0), _baseline())
    assert len(failures) == 1
    assert "regresses" in failures[0]


def test_gate_allows_regression_within_tolerance():
    # 350k is below the 400k reference but above the 320k floor.
    assert check_bench.check(_artifact(eps=350_000.0), _baseline()) == []


def test_gate_flags_calibration_mismatch():
    failures = check_bench.check(_artifact(cal="deadbeef0000"), _baseline())
    assert any("calibration" in f for f in failures)


def test_gate_rejects_malformed_artifact():
    failures = check_bench.check({"run_id": "t"}, _baseline())
    assert len(failures) == 1
    assert "no kernel throughput" in failures[0]


def test_check_bench_cli_roundtrip(tmp_path, capsys):
    art_path = tmp_path / "BENCH_kernel.json"
    base_path = tmp_path / "baseline.json"
    art_path.write_text(json.dumps(_artifact()))
    base_path.write_text(json.dumps(_baseline()))
    rc = check_bench.main([str(art_path), "--baseline", str(base_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok" in out

    art_path.write_text(json.dumps(_artifact(eps=100_000.0)))
    rc = check_bench.main([str(art_path), "--baseline", str(base_path)])
    assert rc == 1


def test_check_bench_cli_unreadable_artifact(tmp_path, capsys):
    with pytest.raises(SystemExit):
        check_bench.main([str(tmp_path / "missing.json")])
    assert "cannot read" in capsys.readouterr().err


def test_committed_baseline_matches_current_calibration():
    """The committed baseline must gate artifacts produced by the current
    cost-model calibration — otherwise every CI run fails at the hash
    check and the baseline was not refreshed with the calibration."""
    baseline = check_bench.load(check_bench.DEFAULT_BASELINE)
    assert baseline["calibration_hash"] == calibration_hash()
    assert baseline["events_per_s"] > 0
