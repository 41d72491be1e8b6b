"""Tests for the parallel experiment runner and its on-disk result cache."""

import json
import os
import signal
import threading

import pytest

from repro.bench import harness
from repro.bench.engine import deterministic_view
from repro.bench.runner import (
    ResultCache,
    cache_key,
    run_experiments,
    write_json,
)


@pytest.fixture
def cheap_experiment():
    """Register a tiny deterministic experiment, unregister on teardown."""
    exp_id = "_t_runner_cheap"

    def runner(quick):
        """Deterministic toy runner used by the runner tests."""
        n = 3 if quick else 7
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="runner-test experiment",
            rendered=f"n={n}",
            comparisons=[("toy quantity", float(n), 3.0, "units")],
        )

    harness.register(exp_id, "runner-test experiment", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def failing_experiment():
    exp_id = "_t_runner_boom"

    def runner(quick):
        """Always-failing toy runner used by the runner tests."""
        raise RuntimeError("intentional test failure")

    harness.register(exp_id, "runner-test failure", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def crash_once_experiment(tmp_path):
    """SIGKILLs its worker on the first run, succeeds after.

    The sentinel file lives on disk, so the retried worker (a fresh fork)
    sees that the first attempt already crashed and completes.
    """
    exp_id = "_t_runner_crash_once"
    sentinel = tmp_path / "crashed-once"

    def runner(quick):
        """Chaos runner: SIGKILL itself once, then behave."""
        if not sentinel.exists():
            sentinel.write_text("boom")
            os.kill(os.getpid(), signal.SIGKILL)
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="crash-once runner experiment",
            rendered="survived",
            comparisons=[("metric", 7.0, 7.0, "units")],
            data={"attempted": True},
        )

    harness.register(exp_id, "runner-test crash once", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def crash_always_experiment():
    exp_id = "_t_runner_crash_always"

    def runner(quick):
        """Chaos runner: always SIGKILL itself."""
        os.kill(os.getpid(), signal.SIGKILL)

    harness.register(exp_id, "runner-test crash always", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


def run_guarded(*args, timeout_s=60.0, **kwargs):
    """``run_experiments`` on a daemon thread: a hang fails the test
    after *timeout_s* instead of stalling the suite."""
    out = {}

    def target():
        try:
            out["records"] = run_experiments(*args, **kwargs)
        except BaseException as exc:  # re-raised in the test thread below
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"run_experiments still running after {timeout_s:g}s"
    if "error" in out:
        raise out["error"]
    return out["records"]


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path, cheap_experiment):
    first = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert first[0].status == "ok" and not first[0].cached

    second = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert second[0].status == "cached" and second[0].cached
    assert second[0].comparisons == first[0].comparisons
    assert second[0].rendered == first[0].rendered


def test_use_cache_false_never_reads_or_writes(tmp_path, cheap_experiment):
    run_experiments([cheap_experiment], cache_dir=tmp_path, use_cache=False)
    assert list(tmp_path.iterdir()) == []
    again = run_experiments([cheap_experiment], cache_dir=tmp_path, use_cache=False)
    assert not again[0].cached


def test_corrupted_cache_file_is_a_miss_and_gets_repaired(tmp_path, cheap_experiment):
    run_experiments([cheap_experiment], cache_dir=tmp_path)
    key = cache_key(cheap_experiment, quick=True)
    path = ResultCache(tmp_path).path(key)
    assert path.exists()

    path.write_text("{not valid json ...")
    rerun = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert rerun[0].status == "ok" and not rerun[0].cached  # miss -> re-executed

    # The re-execution repaired the entry: next run is a hit again.
    assert json.loads(path.read_text())["experiment_id"] == cheap_experiment
    third = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert third[0].cached


def test_cache_payload_missing_keys_is_a_miss(tmp_path, cheap_experiment):
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.put(key, {"experiment_id": cheap_experiment})  # valid JSON, truncated payload
    assert cache.get(key) is None
    records = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert not records[0].cached


def test_truncated_cache_file_is_a_miss(tmp_path, cheap_experiment):
    """A torn write (e.g. power loss mid-flush) must read as a miss."""
    run_experiments([cheap_experiment], cache_dir=tmp_path)
    key = cache_key(cheap_experiment, quick=True)
    path = ResultCache(tmp_path).path(key)
    intact = path.read_text()
    path.write_text(intact[: len(intact) // 2])  # torn mid-document
    assert ResultCache(tmp_path).get(key) is None
    rerun = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert rerun[0].status == "ok" and not rerun[0].cached


def test_empty_cache_file_is_a_miss_and_gets_overwritten(tmp_path, cheap_experiment):
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.path(key).parent.mkdir(parents=True, exist_ok=True)
    cache.path(key).write_text("")  # zero-byte file (crash before any write)
    assert cache.get(key) is None
    run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert json.loads(cache.path(key).read_text())["experiment_id"] == cheap_experiment


def test_cache_file_with_non_dict_json_is_a_miss(tmp_path, cheap_experiment):
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.path(key).parent.mkdir(parents=True, exist_ok=True)
    for blob in ('["a", "list"]', '"just a string"', "42", "null"):
        cache.path(key).write_text(blob)
        assert cache.get(key) is None, blob


def test_cache_put_is_atomic_no_tmp_debris(tmp_path, cheap_experiment):
    """put() lands via tmp-file + os.replace: afterwards the directory
    holds only complete entries, never partially written temporaries."""
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.put(key, {"experiment_id": cheap_experiment, "payload": "x" * 4096})
    names = [p.name for p in tmp_path.rglob("*") if p.is_file()]
    assert names == [cache.path(key).name]
    assert ".tmp" not in "".join(names)


def test_cache_key_distinguishes_experiment_and_mode():
    keys = {
        cache_key("fig3", quick=True),
        cache_key("fig3", quick=False),
        cache_key("fig8", quick=True),
    }
    assert len(keys) == 3
    assert cache_key("fig3", quick=True) == cache_key("fig3", quick=True)


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------


def test_jobs_1_and_jobs_4_identical_comparisons(tmp_path):
    ids = ["fig3", "fig8", "fig10"]
    serial = run_experiments(ids, jobs=1, use_cache=False)
    parallel = run_experiments(ids, jobs=4, use_cache=False)
    assert [r.experiment_id for r in serial] == ids
    assert [r.experiment_id for r in parallel] == ids
    for s, p in zip(serial, parallel):
        assert s.status == p.status == "ok"
        assert s.comparisons == p.comparisons  # bit-identical, not approximate
        assert s.rendered == p.rendered


def test_jobs_identical_with_fault_injection(tmp_path):
    """Fault-injected runs stay bit-identical across --jobs counts.

    Fault sampling uses per-site streams derived from (plan seed, site
    name), so worker forking and scheduling must not shift a single draw:
    the whole chaos sweep — goodput curves, retransmit counts, the
    escalated LinkFailure — is reproduced exactly in serial and parallel.
    """
    ids = ["faults", "fig3"]
    serial = run_experiments(ids, jobs=1, use_cache=False)
    parallel = run_experiments(ids, jobs=4, use_cache=False)
    for s, p in zip(serial, parallel):
        assert s.status == p.status == "ok"
        assert s.comparisons == p.comparisons  # bit-identical, not approximate
        assert s.rendered == p.rendered


def test_parallel_run_sees_runtime_registered_experiments(tmp_path, cheap_experiment):
    # Workers are forked, so they inherit experiments registered after import.
    records = run_experiments(
        [cheap_experiment, "fig3"], jobs=2, cache_dir=tmp_path
    )
    assert [r.status for r in records] == ["ok", "ok"]
    assert records[0].comparisons == [("toy quantity", 3.0, 3.0, "units")]


def test_killed_worker_is_retried_and_sweep_completes(
    tmp_path, cheap_experiment, crash_once_experiment
):
    ids = [crash_once_experiment, cheap_experiment]
    parallel = run_guarded(ids, jobs=2, cache_dir=tmp_path / "cache")
    assert [r.status for r in parallel] == ["ok", "ok"]
    # The sentinel now exists, so an in-process run takes the healthy path.
    serial = run_guarded(ids, jobs=1, use_cache=False)
    for p, s in zip(parallel, serial):
        assert deterministic_view(p.to_dict()) == deterministic_view(s.to_dict())


def test_always_crashing_worker_lands_as_uncached_error(
    tmp_path, cheap_experiment, crash_always_experiment
):
    cache = ResultCache(tmp_path)
    ids = [crash_always_experiment, cheap_experiment]
    crashed, cheap = run_guarded(ids, jobs=2, cache_dir=tmp_path)
    assert crashed.status == "error" and crashed.error_class == "worker-crash"
    assert "retry budget" in crashed.error
    assert cheap.status == "ok"
    assert cache.get(cache_key(crash_always_experiment, quick=True)) is None
    assert cache.get(cache_key(cheap_experiment, quick=True)) is not None


def test_unknown_id_fails_fast(tmp_path):
    with pytest.raises(KeyError, match="nonexistent"):
        run_experiments(["nonexistent"], cache_dir=tmp_path)


def test_jobs_must_be_positive(tmp_path, cheap_experiment):
    with pytest.raises(ValueError):
        run_experiments([cheap_experiment], jobs=0, cache_dir=tmp_path)


# ---------------------------------------------------------------------------
# Failures + artifact
# ---------------------------------------------------------------------------


def test_failed_experiment_recorded_but_not_cached(tmp_path, failing_experiment):
    records = run_experiments([failing_experiment], cache_dir=tmp_path)
    assert records[0].status == "error"
    assert "intentional test failure" in records[0].error
    assert list(tmp_path.iterdir()) == []  # errors never poison the cache


def test_write_json_artifact(tmp_path, cheap_experiment, failing_experiment):
    records = run_experiments(
        [cheap_experiment, failing_experiment], cache_dir=tmp_path
    )
    path = write_json(records, tmp_path / "run.json", quick=True, jobs=2, run_id="t")
    doc = json.loads(path.read_text())
    assert doc["run_id"] == "t"
    assert doc["mode"] == "quick" and doc["jobs"] == 2
    assert doc["n_errors"] == 1 and doc["n_cached"] == 0
    assert len(doc["records"]) == 2
    assert doc["records"][0]["comparisons"] == [["toy quantity", 3.0, 3.0, "units"]]
