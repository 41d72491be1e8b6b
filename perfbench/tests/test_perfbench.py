"""Fast tests of the benchmark's own bookkeeping, on synthetic inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path

import numpy
import pytest

import ledger
import run
import workloads
from workloads import Window

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent


# -- tail percentile ---------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    pct, value, beyond = ledger.tail(list(range(1, 101)))
    assert (pct, value, beyond) == (90.0, 90, 10)
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_tail_is_order_independent_and_states_the_percentile():
    samples = [float(v) for v in (13, 5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 14, 15, 16, 20, 17, 18, 19, 21)]
    pct, value, beyond = ledger.tail(samples)
    assert value == 11.0  # 21 samples: the 11th smallest has 10 beyond it
    assert beyond == 10
    assert pct == pytest.approx(100 * 11 / 21)


def test_tail_of_too_few_samples_is_the_flagged_maximum():
    # Under 20 samples the 10-beyond point would sit below the median.
    assert ledger.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert ledger.tail([float(i) for i in range(19)]) == (100.0, 18.0, 0)
    assert ledger.tail([float(i) for i in range(20)]) == (50.0, 9.0, 10)
    with pytest.raises(ValueError):
        ledger.tail([])


def test_median():
    assert ledger.median([3, 1, 2]) == 2
    assert ledger.median([4, 1, 3, 2]) == 2.5


# -- error rate --------------------------------------------------------------


def test_error_rate_counts_refusals_as_misses():
    assert ledger.error_rate(100, 0) == 0.0
    assert ledger.error_rate(100, 2) == 0.02
    assert ledger.error_rate(100, 2, refused=3) == 0.05
    assert ledger.error_rate(4, 0, refused=4) == 1.0


@pytest.mark.parametrize("attempted,failed,refused", [(0, 0, 0), (3, 2, 2), (5, -1, 0)])
def test_error_rate_rejects_impossible_counts(attempted, failed, refused):
    with pytest.raises(ValueError):
        ledger.error_rate(attempted, failed, refused)


# -- layer bucketing -----------------------------------------------------------


@pytest.mark.parametrize(
    "filename,funcname,bucket",
    [
        ("/w/src/repro/sim/core.py", "run", "sim.core"),
        ("/w/src/repro/sim/channel.py", "transfer", "sim.channel"),
        ("/w/src/repro/sim/__init__.py", "f", "sim"),
        ("/w/src/repro/apps/bfs/csr.py", "from_edges", "apps.bfs"),
        ("/w/src/repro/apps/bfs/distributed.py", "run_bfs", "apps.bfs"),
        ("/w/src/repro/pcie/fabric.py", "read", "pcie"),
        ("/w/src/repro/serve/service.py", "submit", "serve"),
        ("/w/src/repro/units.py", "us", "repro"),
        ("~", "<built-in method builtins.len>", "builtins"),
        ("~", "<method 'append' of 'list' objects>", "builtins"),
        ("~", "<method 'reduce' of 'numpy.ufunc' objects>", "numpy"),
        ("~", "<built-in method numpy.core._multiarray_umath.implement_array_function>", "numpy"),
        ("<string>", "__init__", "builtins"),
        ("/venv/lib/python3.11/site-packages/numpy/core/fromnumeric.py", "sum", "numpy"),
        ("/venv/lib/python3.11/site-packages/other/mod.py", "f", "other"),
        ("/w/perfbench/workloads.py", "measure", "perfbench"),
        ("/home/repro/src/repro/ib/card.py", "rdma_write", "ib"),
        ("/home/repro/venv/lib/python3.11/json/decoder.py", "decode", "other"),
    ],
)
def test_layer_of(filename, funcname, bucket):
    assert ledger.layer_of(filename, funcname) == bucket


def test_layer_of_real_stdlib_and_numpy_files():
    assert ledger.layer_of(os.__file__, "join") == "stdlib"
    assert ledger.layer_of(threading.__file__, "wait") == "stdlib"
    assert ledger.layer_of(numpy.__file__, "<module>") == "numpy"


def test_layer_self_seconds_and_counters_on_a_synthetic_table():
    stats = {
        ("/w/src/repro/pcie/fabric.py", 401, "read"): (3, 5, 0.5, 0.9, {}),
        ("/w/src/repro/pcie/fabric.py", 464, "read_pipelined"): (1, 1, 0.25, 0.5, {}),
        ("/w/src/repro/pcie/device.py", 9, "read"): (7, 7, 0.25, 0.25, {}),
        ("/w/src/repro/sim/core.py", 1, "run"): (1, 1, 2.0, 3.0, {}),
        ("~", 0, "<built-in method builtins.len>"): (9, 9, 1.0, 1.0, {}),
    }
    selfs = ledger.layer_self_seconds(stats)
    assert selfs == {"pcie": 1.0, "sim.core": 2.0, "builtins": 1.0}
    reads = (("pcie/fabric.py", "read"), ("pcie/fabric.py", "read_pipelined"))
    assert ledger.call_count(stats, reads) == 6  # device.py's read is not the fabric's
    assert ledger.cumulative_seconds(stats, reads) == pytest.approx(1.4)


def test_profiler_merges_threads():
    prof = ledger.Profiler()

    def work():
        handle = prof.start()
        sorted(range(1000))
        prof.stop(handle)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    calls = [v[1] for k, v in prof.stats().items() if k[2] == "<built-in method builtins.sorted>"]
    assert calls == [2]


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_covered_children_once():
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0), (20.0, 21.0)]
    # Covered inside (0, 10): [1, 4] + [6, 7] + [9, 10] = 5.
    assert ledger.self_time((0.0, 10.0), children) == pytest.approx(5.0)


def test_self_time_edge_cases():
    assert ledger.self_time((0.0, 2.0), []) == 2.0
    assert ledger.self_time((0.0, 2.0), [(0.0, 2.0), (0.5, 1.0)]) == 0.0
    assert ledger.self_time((5.0, 6.0), [(0.0, 1.0)]) == 1.0
    with pytest.raises(ValueError):
        ledger.self_time((2.0, 1.0), [])


# -- contract with BENCHMARK.json ------------------------------------------------


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _window(**kw) -> Window:
    win = Window(attempted=4, work=100.0, passes=2, events=10)
    win.pass_walls = [1.0, 1.5]
    win.spans = [("op", 0.0, 0.5, "pass-0"), ("pass-0", 0.0, 1.0, "run")]
    win.outputs = [[{"x": 1}], [{"x": 1}]]
    for key, value in kw.items():
        setattr(win, key, value)
    return win


def test_end_to_end_metrics_match_benchmark_json():
    metrics, _notes = run.end_to_end(workloads.GGBandwidth(), _window(), [0.4, 0.5, 0.6], 40.0)
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert set(metrics) == set(declared)
    assert {k: run._unit(k) for k in metrics} == declared
    assert all(v > 0 for v in metrics.values())  # end-to-end metrics are never 0


def test_serve_rate_comes_from_blocks_and_latency_from_requests():
    win = _window(work=30.0, passes=2, pass_walls=[2.0, 4.0], op_latencies=[0.5, 0.5, 0.7, 0.8])
    metrics, notes = run.end_to_end(workloads.ServeClosedLoop(), win, [1.0], 50.0)
    assert metrics["work_per_s"] == pytest.approx(15.0 / 3.0)  # requests per block / median block
    assert metrics["latency_p50_s"] == pytest.approx(0.6)
    assert "2 blocks" in notes["work_per_s"] and "4 requests" in notes["latency_p50_s"]


def test_per_layer_metrics_match_benchmark_json():
    wl = workloads.BfsStrongScaling()
    metrics = run.per_layer(wl, _window(), _window(pass_walls=[3.0, 3.0]), {})
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert set(metrics) == set(declared)
    assert {k: run._unit(k) for k in metrics} == declared
    assert metrics["trace.overhead_ratio"] == pytest.approx(3.0 / 1.25)
    assert metrics["sim.events"] == 5.0


def test_benchmark_json_names_every_workload():
    names = [w["name"] for w in _benchmark()["workloads"]]
    assert names == list(workloads.WORKLOADS)


# -- inputs come from the seed alone -------------------------------------------


def test_gg_sizes_are_seeded_and_in_range(tmp_path):
    a, b, c = workloads.GGBandwidth(), workloads.GGBandwidth(), workloads.GGBandwidth()
    a.setup(7, tmp_path)
    b.setup(7, tmp_path)
    c.setup(8, tmp_path)
    assert a.sizes == b.sizes != c.sizes
    assert set(workloads.GGBandwidth.REFERENCE_SIZES) <= set(a.sizes)
    assert min(a.sizes) >= 26 and max(a.sizes) == 4 * workloads.MiB
    assert all(2 <= a.messages(s) <= a.MAX_MESSAGES for s in a.sizes)


# -- staying alive across the planned deletions ---------------------------------

#: Names the benchmark must never use: the kernel-backend switch and its
#: calendar queue, event pooling, the runner's private aliases, the test-only
#: trace helpers and the result cache's internals.
FORBIDDEN = [
    r"REPRO_BACKEND", r"--backend", r"\bbackend\s*=", r"\bwheel\b", r"CalendarScheduler",
    r"EventPool", r"pooled_timeout", r"\b_execute\b", r"\b_worker\b", r"BandwidthMeter",
    r"TraceLog", r"ResultCache", r"_pool_context", r"import\s+_\w+", r"from\s+repro\S*\s+import\s+_",
]


def test_benchmark_uses_no_doomed_or_private_names():
    sources = [p for p in PERFBENCH.rglob("*.py") if p.parent.name != "tests"]
    assert sources
    for path in sources:
        text = path.read_text()
        for pattern in FORBIDDEN:
            assert not re.search(pattern, text), f"{path.name} uses {pattern!r}"


def test_counted_functions_exist_in_the_program():
    targets = [t for group in run.COUNTERS.values() for t in group] + list(run.GRAPH_BUILD)
    for module, fn in targets:
        source = (ROOT / "src" / "repro" / module).read_text()
        assert re.search(rf"def {fn}\(", source), f"repro/{module} has no {fn}()"

