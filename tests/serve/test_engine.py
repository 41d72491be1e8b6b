"""Tests for the shared execution core (repro.bench.engine).

The engine is the single place that turns (experiment, quick, trace) into
a payload; the CLI runner and the service must both be thin shells over
it, and its deterministic view is the bit-identity surface the service's
crash-retry guarantee is stated against.
"""

import pytest

from repro.bench import harness, runner
from repro.bench.engine import (
    DETERMINISTIC_KEYS,
    ENGINE,
    ExecutionEngine,
    deterministic_view,
)


@pytest.fixture
def toy_experiment():
    exp_id = "_t_engine_toy"

    def run(quick):
        """Deterministic toy runner used by the engine tests."""
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="engine-test experiment",
            rendered=f"quick={quick}",
            comparisons=[("metric", 1.0 if quick else 2.0, 1.0, "units")],
            data={"mode": "quick" if quick else "full"},
        )

    harness.register(exp_id, "engine-test experiment", "—")(run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


def test_runner_entry_points_are_the_engine(toy_experiment, monkeypatch, tmp_path):
    # The refactor contract: CLI and service share ONE execution core, so
    # an in-process sweep executes through the shared ENGINE.
    calls = []
    real = ENGINE.execute

    def spy(experiment_id, quick, trace=False):
        calls.append((experiment_id, quick, trace))
        return real(experiment_id, quick, trace)

    monkeypatch.setattr(ENGINE, "execute", spy)
    (record,) = runner.run_experiments(
        [toy_experiment], quick=True, jobs=1, use_cache=False, cache_dir=tmp_path
    )
    assert calls == [(toy_experiment, True, False)]
    assert record.status == "ok"
    assert runner.pool_worker((toy_experiment, True, False))["rendered"] == "quick=True"
    assert calls[-1] == (toy_experiment, True, False)


def test_success_payload_contract(toy_experiment):
    payload = ExecutionEngine().execute(toy_experiment, quick=True)
    assert payload["experiment_id"] == toy_experiment
    assert payload["rendered"] == "quick=True"
    assert payload["comparisons"] == [["metric", 1.0, 1.0, "units"]]
    assert payload["data"] == {"mode": "quick"}
    assert "error" not in payload
    assert payload["wall_s"] >= 0 and payload["events"] >= 0


def test_error_payload_contract():
    exp_id = "_t_engine_boom"

    def run(quick):
        """Always-failing toy runner used by the engine tests."""
        raise RuntimeError("intentional engine failure")

    harness.register(exp_id, "engine-test failure", "—")(run)
    try:
        payload = ExecutionEngine().execute(exp_id, quick=True)
    finally:
        harness._REGISTRY.pop(exp_id, None)
    assert payload["error_class"] == "RuntimeError"
    assert "intentional engine failure" in payload["error"]
    assert payload["args"] == {"experiment_id": exp_id, "quick": True}


def test_deterministic_view_strips_telemetry(toy_experiment):
    payload = ExecutionEngine().execute(toy_experiment, quick=True)
    view = deterministic_view(payload)
    assert set(view) <= set(DETERMINISTIC_KEYS)
    assert "wall_s" not in view and "events" not in view
    # Two independent executions agree bit for bit on the view.
    again = deterministic_view(ExecutionEngine().execute(toy_experiment, quick=True))
    assert view == again


def test_trace_payload_attached_only_when_requested():
    traced = ExecutionEngine().execute("fig3", quick=True, trace=True)
    plain = ExecutionEngine().execute("fig3", quick=True)
    assert "trace" in traced and traced["trace"]["events"]
    assert "trace" not in plain
    assert deterministic_view(traced) == deterministic_view(plain)
