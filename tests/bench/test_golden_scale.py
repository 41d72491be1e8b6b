"""Golden-number regression tests for the `scale` experiment.

Same contract as test_golden_numbers.py / test_golden_recovery.py: the
flow model is deterministic *model* time (no wall-clock anywhere), so
every quick-mode comparison row is pinned with exact float equality, and
the full per-row records for the <= 6^3 configs are pinned against the
committed ``benchmarks/baselines/scale.json`` — drifting either means
the flow model, the large-torus BFS, or the calibration changed, and the
goldens + baseline + EXPERIMENTS.md table must be refreshed together.

The jobs-determinism test additionally proves that ``--jobs 1`` and
``--jobs 4`` sweeps are bit-identical: the experiment run in a
supervised worker process reproduces the in-process run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import harness
from repro.bench.runner import calibration_hash, run_experiments

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "scale.json"

GOLDEN = {
    "parity: lossless aggregates bit-exact": (1.0, "bool"),
    "parity: completions within tolerance": (1.0, "bool"),
    "parity: completion max rel dev": (2.6631055738590968e-05, "rel"),
    "TEPS 4^3 (scale 12)": (24917576.188836824, "TEPS"),
    "levels checksum 4^3": (6645.0, "sum"),
    "TEPS 6^3 (scale 14)": (42353538.493716106, "TEPS"),
    "levels checksum 6^3": (35389.0, "sum"),
    "TEPS 8^3 (scale 16)": (90846786.62831299, "TEPS"),
    "levels checksum 8^3": (160953.0, "sum"),
    "TEPS 12^3 (scale 16)": (45472215.951238655, "TEPS"),
    "levels checksum 12^3": (160953.0, "sum"),
}


@pytest.fixture(scope="module")
def result():
    return harness.run("scale", quick=True)


def test_golden_rows_exact(result):
    measured = {name: (value, unit) for name, value, _paper, unit in result.comparisons}
    assert set(measured) == set(GOLDEN), (
        "comparison row set changed — update GOLDEN deliberately"
    )
    mismatches = {
        name: (measured[name], golden)
        for name, golden in GOLDEN.items()
        if measured[name] != golden
    }
    assert not mismatches, (
        f"scale drifted from golden values (measured, golden): {mismatches}"
    )


def test_parity_probe_reports_lossless_and_tight(result):
    parity = result.data["scale_bench"]["parity"]
    assert parity["lossless_ok"] is True
    assert parity["within_tolerance"] is True
    assert 0.0 <= parity["completion_max_rel"] <= parity["time_rtol"]
    assert abs(parity["makespan_rel"]) <= parity["time_rtol"]
    assert parity["busy_max_rel"] <= 1e-6


def test_rows_cover_the_quick_ladder_with_recovery_enabled(result):
    rows = result.data["scale_bench"]["rows"]
    assert [tuple(r["dims"]) for r in rows] == [
        (4, 4, 4), (6, 6, 6), (8, 8, 8), (12, 12, 12)
    ]
    for row in rows:
        assert row["dead_links"] == 1  # recovery-enabled: detoured fault
        assert row["shards"] == 4
        assert row["teps"] > 0 and row["total_time_ns"] > 0
        assert row["reached"] > 0 and row["comm_bytes"] > 0
    # The acceptance config: 12^3 = 1728 ranks actually swept.
    assert rows[-1]["n_ranks"] == 1728


def test_golden_rows_match_committed_baseline(result):
    """benchmarks/baselines/scale.json gates CI artifacts; it must agree
    with what the code produces *now*, field for field."""
    baseline = json.loads(BASELINE.read_text())
    assert baseline["calibration_hash"] == calibration_hash()
    rows = {
        (tuple(r["dims"]), r["scale"]): r
        for r in result.data["scale_bench"]["rows"]
    }
    golden_dims = [tuple(d) for d in result.data["scale_bench"]["golden_dims"]]
    assert baseline["golden_rows"], "baseline lost its golden rows"
    for ref in baseline["golden_rows"]:
        key = (tuple(ref["dims"]), ref["scale"])
        assert key[0] in golden_dims
        row = rows[key]
        for fld, expected in ref.items():
            if fld == "dims":
                continue
            assert row[fld] == expected, (key, fld)


def test_jobs_1_vs_jobs_4_sweeps_are_bit_identical(result):
    """The determinism claim, through the runner's supervised workers.

    With ``jobs=4`` the scale experiment executes in a forked worker
    process and must reproduce the in-process run bit for bit.
    """
    records = run_experiments(["table1", "scale"], quick=True, jobs=4, use_cache=False)
    by_id = {r.experiment_id: r for r in records}
    rec = by_id["scale"]
    assert rec.status == "ok", rec.error
    assert [tuple(c) for c in rec.comparisons] == list(result.comparisons)
    # The engine makes payloads JSON-safe (tuples -> lists), so
    # compare both sides in canonical JSON form; every number must still
    # be bit-identical.
    canon = lambda obj: json.loads(json.dumps(obj))
    assert canon(rec.data["scale_bench"]["rows"]) == canon(
        result.data["scale_bench"]["rows"]
    )
    assert canon(rec.data["scale_bench"]["parity"]) == canon(
        result.data["scale_bench"]["parity"]
    )


def test_scale_run_is_deterministic(result):
    again = harness.run("scale", quick=True)
    assert again.comparisons == result.comparisons  # bit-identical
    assert again.rendered == result.rendered


# ---------------------------------------------------------------------------
# scripts/check_bench.py --scale gate logic (on the real run's data)
# ---------------------------------------------------------------------------


def _load_check_bench():
    """Import scripts/check_bench.py (scripts/ is not a package)."""
    import importlib.util

    path = REPO_ROOT / "scripts" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("check_bench_scale", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


check_bench = _load_check_bench()


def _artifact(result):
    bench = json.loads(json.dumps(result.data["scale_bench"]))
    return {
        "run_id": "t",
        "calibration_hash": calibration_hash(),
        "rows": bench["rows"],
        "parity": bench["parity"],
    }


def test_scale_gate_passes_on_healthy_artifact(result):
    baseline = json.loads(BASELINE.read_text())
    assert check_bench.check_scale(_artifact(result), baseline) == []


def test_scale_gate_flags_lossless_violation(result):
    art = _artifact(result)
    art["parity"]["lossless_ok"] = False
    failures = check_bench.check_scale(art, json.loads(BASELINE.read_text()))
    assert any("bit-exact" in f for f in failures)


def test_scale_gate_flags_parity_drift(result):
    art = _artifact(result)
    art["parity"]["completion_max_rel"] = 0.5
    failures = check_bench.check_scale(art, json.loads(BASELINE.read_text()))
    assert any("ceiling" in f for f in failures)


def test_scale_gate_flags_golden_row_drift(result):
    art = _artifact(result)
    art["rows"][0]["teps"] += 1.0
    failures = check_bench.check_scale(art, json.loads(BASELINE.read_text()))
    assert any("golden row" in f and "teps" in f for f in failures)


def test_scale_gate_flags_missing_required_torus(result):
    art = _artifact(result)
    art["rows"] = [r for r in art["rows"] if tuple(r["dims"]) != (12, 12, 12)]
    failures = check_bench.check_scale(art, json.loads(BASELINE.read_text()))
    assert any("required torus" in f for f in failures)


def test_scale_gate_flags_calibration_mismatch(result):
    art = _artifact(result)
    art["calibration_hash"] = "deadbeef0000"
    failures = check_bench.check_scale(art, json.loads(BASELINE.read_text()))
    assert any("calibration" in f for f in failures)


def test_scale_gate_cli_roundtrip(result, tmp_path, capsys):
    art_path = tmp_path / "BENCH_scale.json"
    art_path.write_text(json.dumps(_artifact(result)))
    rc = check_bench.main([str(art_path), "--scale"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "parity" in out and "ok" in out

    broken = _artifact(result)
    broken["parity"]["within_tolerance"] = False
    art_path.write_text(json.dumps(broken))
    rc = check_bench.main([str(art_path), "--scale"])
    assert rc == 1
