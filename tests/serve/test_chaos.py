"""Chaos acceptance tests for the service (ISSUE 10 acceptance gate).

Drives :class:`SimulationService` directly (no HTTP) through the three
failure stories the robustness PR promises:

a. a worker killed mid-execution is retried with backoff and the final
   payload is **bit-identical** to an undisturbed run of the same request;
b. a hung worker trips the per-request deadline and terminates with a
   structured ``failed`` status — never a silent hang;
c. submissions beyond the queue bound are rejected with 429 (with a
   ``Retry-After`` hint), and SIGTERM-style drain finishes in-flight work
   and reports ``repro_serve_up 0`` before exit;
d. a fault inside the service itself (the supervisor or the landing step
   raising) fails the affected requests instead of stranding them.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.bench import harness
from repro.bench.engine import ExecutionEngine, deterministic_view
from repro.serve import Rejected, ServeConfig, SimulationService
from repro.serve.supervisor import WorkerSupervisor


def _register(exp_id, run):
    harness.register(exp_id, f"chaos-test {exp_id}", "—")(run)


@pytest.fixture
def crash_once_experiment(tmp_path):
    exp_id = "_t_chaos_crash_once"
    sentinel = tmp_path / "crashed-once"

    def run(quick):
        """Chaos runner: SIGKILL itself on the first execution only."""
        if not sentinel.exists():
            sentinel.write_text("boom")
            os.kill(os.getpid(), signal.SIGKILL)
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="crash-once chaos experiment",
            rendered="recovered",
            comparisons=[("survivors", 1.0, 1.0, "runs")],
            data={"series": [3.5, 7.0]},
        )

    _register(exp_id, run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def hang_experiment():
    exp_id = "_t_chaos_hang"

    def run(quick):
        """Chaos runner: never returns."""
        while True:
            time.sleep(3600)

    _register(exp_id, run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def slow_experiment():
    exp_id = "_t_chaos_slow"

    def run(quick):
        """Slow-but-healthy runner (drain must wait for it)."""
        time.sleep(0.3)
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="slow chaos experiment",
            rendered="slow-done",
            comparisons=[("naps", 1.0, 1.0, "naps")],
        )

    _register(exp_id, run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


def _service(**kw):
    kw.setdefault("use_cache", False)
    kw.setdefault("backoff_base_s", 0.01)
    return SimulationService(ServeConfig(**kw))


async def _wait_terminal(service, request_id, timeout_s=30.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        doc = service.status(request_id)
        if doc["state"] in ("done", "failed"):
            return doc
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"{request_id} never reached a terminal state")
        await asyncio.sleep(0.02)


# -- (a) crash -> retry -> bit-identical ------------------------------------


def test_killed_worker_is_retried_and_result_is_bit_identical(
    crash_once_experiment,
):
    async def main():
        service = _service()
        status, doc = await service.submit({"experiment": crash_once_experiment})
        assert status == 202
        final = await _wait_terminal(service, doc["request_id"])
        assert final["state"] == "done"
        assert final["telemetry"]["attempts"] == 2
        assert final["telemetry"]["retries"] == 1
        assert service.m_retries.value() == 1
        assert service.m_worker_restarts.value() == 1  # the SIGKILLed fork
        assert service.m_completed.value(outcome="done") == 1
        return service.result(doc["request_id"])["result"]

    served = asyncio.run(main())
    # The acceptance gate: bit-identical to an undisturbed in-process run
    # (the sentinel exists now, so this takes the healthy path).
    clean = deterministic_view(
        ExecutionEngine().execute(crash_once_experiment, quick=True)
    )
    assert served == clean


# -- (b) hang -> deadline -> structured failure ------------------------------


def test_hung_worker_terminates_with_structured_failure(hang_experiment):
    async def main():
        service = _service()
        status, doc = await service.submit(
            {"experiment": hang_experiment, "deadline_s": 0.3}
        )
        assert status == 202
        final = await _wait_terminal(service, doc["request_id"])
        assert final["state"] == "failed"
        assert final["outcome"] == "timeout"
        assert "killed" in final["detail"]
        assert service.m_completed.value(outcome="timeout") == 1
        assert service.m_worker_restarts.value() == 1  # the killed hang
        # The request is terminal and the slot is free again: the service
        # never hangs, and /result explains what happened.
        res = service.result(doc["request_id"])
        assert res["outcome"] == "timeout" and "result" not in res

    asyncio.run(main())


def test_execution_error_surfaces_class_and_traceback():
    exp_id = "_t_chaos_raise"

    def run(quick):
        """Always-failing chaos runner."""
        raise RuntimeError("injected chaos failure")

    _register(exp_id, run)

    async def main():
        service = _service()
        status, doc = await service.submit({"experiment": exp_id})
        final = await _wait_terminal(service, doc["request_id"])
        assert final["state"] == "failed"
        assert final["outcome"] == "execution-error"
        assert final["telemetry"]["attempts"] == 1  # deterministic: no retry
        res = service.result(doc["request_id"])
        assert res["error"]["error_class"] == "RuntimeError"
        assert "injected chaos failure" in res["error"]["traceback"]

    try:
        asyncio.run(main())
    finally:
        harness._REGISTRY.pop(exp_id, None)


# -- (c) overload 429 + graceful drain ---------------------------------------


def test_queue_flood_rejected_with_429(slow_experiment, hang_experiment):
    async def main():
        service = _service(workers=1, queue_limit=1)
        # Two distinct keys admitted back to back (no await between them):
        # the first fills the only queue slot, the second must bounce.
        await service.submit({"experiment": slow_experiment})
        with pytest.raises(Rejected) as exc:
            await service.submit({"experiment": hang_experiment, "quick": False})
        assert exc.value.status == 429
        assert exc.value.retry_after_s == service.config.retry_after_s
        assert "queue full" in exc.value.reason
        assert service.m_requests.value(outcome="rejected") == 1
        service.begin_drain()
        await asyncio.wait_for(service.drained.wait(), timeout=30)

    asyncio.run(main())


def test_drain_finishes_inflight_work_then_reports_down(slow_experiment):
    async def main():
        service = _service()
        status, doc = await service.submit({"experiment": slow_experiment})
        assert status == 202
        await asyncio.sleep(0)  # let the execution task start
        service.begin_drain()
        assert service.draining and not service.accepting
        assert "repro_serve_up 0" in service.metrics_text()
        # New work bounces immediately...
        with pytest.raises(Rejected) as exc:
            await service.submit({"experiment": slow_experiment})
        assert exc.value.status == 503
        # ...but the in-flight request still runs to a real result.
        await asyncio.wait_for(service.drained.wait(), timeout=30)
        final = service.result(doc["request_id"])
        assert final["state"] == "done"
        assert final["result"]["rendered"] == "slow-done"
        assert service.inflight_executions() == 0
        assert service.m_inflight.value() == 0

    asyncio.run(main())


def test_drain_with_nothing_inflight_is_immediate():
    async def main():
        service = _service()
        service.begin_drain()
        service.begin_drain()  # idempotent
        await asyncio.wait_for(service.drained.wait(), timeout=1)

    asyncio.run(main())


# -- (d) service-side fault -> internal-error, nothing stranded ---------------


def test_execution_task_fault_lands_requests_as_internal_error(
    slow_experiment, monkeypatch
):
    real_run = WorkerSupervisor.run
    calls = []

    def flaky_run(self, spec, deadline_s):
        calls.append(spec.experiment_id)
        if len(calls) == 1:
            raise OSError("No space left on device")
        return real_run(self, spec, deadline_s)

    monkeypatch.setattr(WorkerSupervisor, "run", flaky_run)

    async def main():
        service = _service()
        # Back to back, no await between them: the second coalesces.
        _, first = await service.submit({"experiment": slow_experiment})
        _, second = await service.submit({"experiment": slow_experiment})
        assert service.status(second["request_id"])["coalesced"]
        for doc in (first, second):
            final = await _wait_terminal(service, doc["request_id"], timeout_s=5.0)
            assert final["state"] == "failed"
            assert final["outcome"] == "internal-error"
            assert "OSError: No space left on device" in final["detail"]
            error = service.result(doc["request_id"])["error"]
            assert error["error_class"] == "OSError"
            assert "flaky_run" in error["traceback"]
        assert service.m_inflight.value() == 0
        assert service.m_completed.value(outcome="internal-error") == 2
        assert service.inflight_executions() == 0
        # The dead execution is gone: an identical submit runs afresh.
        status, third = await service.submit({"experiment": slow_experiment})
        assert status == 202 and not third["coalesced"]
        final = await _wait_terminal(service, third["request_id"])
        assert final["state"] == "done"
        assert calls == [slow_experiment, slow_experiment]
        service.begin_drain()
        await asyncio.wait_for(service.drained.wait(), timeout=5)

    asyncio.run(main())
