"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload gg_bandwidth --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no profiler attached;
``--trace 1`` measures an untraced window, then a ``cProfile``-traced
window, and prints the per-layer ledger.  Every run checks the simulated
outputs (invariants for any seed, a pinned fingerprint for the default
seed), prints each metric by name and unit, writes its spans and machine
context to ``.perfbench_runs/``, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when the outputs are correct, 1 when a check failed and
2 when the program under test is missing (no ``src/repro`` beside this
directory).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNTIME = ROOT / ".perfbench_runs"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120.0

#: Share of ``--seconds`` a traced run spends untraced (the reference the
#: tracing overhead and ns/event are taken against).
UNTRACED_SHARE = 1 / 3

#: Per-layer self-time buckets reported as ``<bucket>.self_s``.
SELF_BUCKETS = (
    "sim.core", "sim.channel", "sim.resources", "pcie", "apenet", "gpu", "cuda",
    "net", "mpi", "ib", "apps.bfs", "scale", "serve", "bench", "numpy",
    "builtins", "stdlib", "perfbench",
)

#: Per-layer call counters: metric -> (module under ``repro/``, function).
COUNTERS = {
    "sim.channel.transfers": (("sim/channel.py", "transfer"),),
    "pcie.reads": (("pcie/fabric.py", "read"), ("pcie/fabric.py", "read_pipelined")),
    "pcie.writes": (("pcie/fabric.py", "write"),),
    "apenet.puts": (("apenet/rdma.py", "put"),),
    "cuda.memcpys": (("cuda/memcpy.py", "memcpy_sync"), ("cuda/memcpy.py", "memcpy_async")),
    "mpi.sends": (("mpi/comm.py", "isend"),),
    "ib.rdma_writes": (("ib/card.py", "rdma_write"),),
    "scale.transfers": (("scale/flow.py", "_admit"), ("scale/bfs.py", "level_time")),
}

#: Graph construction inside the BFS calls (``apps.bfs.graph_s``).
GRAPH_BUILD = (("apps/bfs/rmat.py", "rmat_edges"), ("apps/bfs/csr.py", "from_edges"))

SERVE_LAYER = (
    "serve.admission_s", "serve.queue_s", "serve.execute_s", "serve.land_s",
    "serve.overhead_s", "serve.cache_hit_ratio", "serve.coalesced", "serve.retries",
    "serve.worker_restarts", "serve.rejected",
)
GG_LAYER = ("path.p2p_bytes_per_s", "path.staged_bytes_per_s", "model.paper_err_pct")

UNITS = {
    "setup_s": "s", "work_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "peak_rss_mib": "MiB", "ok_rate": "ratio",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_bytes_per_s"):
        return "B/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_rate")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name == "sim.ns_per_event":
        return "ns"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set the workload up, print 'ready', tear down, exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(args) -> list[float]:
    """Spawn-to-ready seconds of fresh processes setting the workload up."""
    samples = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        samples.append(ready)
    return samples


def fingerprint(data) -> str:
    """sha256 of the canonical JSON of a workload's simulated outputs."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def check_outputs(wl, windows, seed: int) -> tuple[list[str], str]:
    """Invariants, pass-to-pass identity and (default seed) the pinned hash."""
    problems = list(wl.check(windows[0]))
    first = windows[0].outputs[0] if windows[0].outputs else None
    for win in windows:
        for i, outs in enumerate(win.outputs):
            if outs != first:
                problems.append(f"pass {i} outputs differ from the first pass")
                break
    fp = fingerprint(wl.fingerprint_data(windows[0]))
    if seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "fingerprints.json").read_text()).get(wl.name)
        if pinned != fp:
            problems.append(f"fingerprint {fp} != pinned {pinned}")
    return problems, fp


def end_to_end(wl, win, setup_samples, rss_mib) -> tuple[dict, dict]:
    import ledger

    serve = bool(win.op_latencies)  # requests in blocks, else passes of calls
    samples = win.op_latencies if serve else win.pass_walls
    # every pass (block) does the same work, so the median one sets the rate
    rate = win.work / win.passes / ledger.median(win.pass_walls)
    pct, tail_value, beyond = ledger.tail(samples)
    metrics = {
        "setup_s": ledger.median(setup_samples),
        "work_per_s": rate,
        "latency_p50_s": ledger.median(samples),
        "latency_tail_s": tail_value,
        "peak_rss_mib": rss_mib,
        "ok_rate": 1.0 - ledger.error_rate(win.attempted, win.failed, win.refused),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh-process set-ups",
        "work_per_s": f"{wl.work_unit} per host second, median over "
        + f"{win.passes} {'blocks' if serve else 'passes'}",
        "latency_p50_s": f"median over {len(samples)} {'requests' if serve else 'passes'}",
        "latency_tail_s": (
            f"p{pct:.1f} over {len(samples)} samples, {beyond} beyond"
            if beyond else f"maximum of {len(samples)} samples (too few for a tail)"
        ),
        "ok_rate": f"{win.failed} failed + {win.refused} refused of {win.attempted} attempted",
    }
    return metrics, notes


def per_layer(wl, untraced, traced, stats) -> dict:
    import ledger

    passes = max(1, traced.passes)
    selfs = ledger.layer_self_seconds(stats)
    out = {f"{b}.self_s": selfs.get(b, 0.0) / passes for b in SELF_BUCKETS}
    for name, targets in COUNTERS.items():
        out[name] = ledger.call_count(stats, targets) / passes
    out["apps.bfs.graph_s"] = ledger.cumulative_seconds(stats, GRAPH_BUILD) / passes
    out["scale.calibrate_s"] = getattr(wl, "calibrate_s", 0.0)
    events = untraced.events / max(1, untraced.passes)
    out["sim.events"] = events
    wall = ledger.median(untraced.pass_walls)
    # serve runs the simulation in forked workers, so its window counts no events
    out["sim.ns_per_event"] = wall / events * 1e9 if events else 0.0
    out["trace.overhead_ratio"] = ledger.median(traced.pass_walls) / wall
    children = {}
    for name, s, e, parent in untraced.spans:
        children.setdefault(parent, []).append((s, e))
    out["perfbench.pass_self_s"] = ledger.median([
        ledger.self_time((s, e), children.get(name, ()))
        for name, s, e, parent in untraced.spans if parent == "run"
    ])
    extra = wl.extra_figures(untraced)
    for name in SERVE_LAYER + GG_LAYER:
        out[name] = float(extra.get(name, 0.0))
    out["error_rate"] = ledger.error_rate(
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        untraced.refused + traced.refused,
    )
    return out


def write_artifact(args, context, metrics, notes, windows, fp, problems) -> Path:
    RUNTIME.mkdir(exist_ok=True)
    path = RUNTIME / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = [
        {"window": w, "name": n, "start": s, "end": e, "parent": p}
        for w, win in enumerate(windows)
        for n, s, e, p in win.spans
    ]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "metrics": metrics,
        "notes": notes,
        "fingerprint": fp,
        "problems": problems,
        "spans": spans,
    }
    path.write_text(json.dumps(doc, indent=1))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ledger
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    RUNTIME.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()

    if args.setup_probe:
        wl.setup(args.seed, RUNTIME)
        print("ready", flush=True)
        wl.teardown()
        return 0

    setup_samples = measure_setup(args) if args.trace == 0 else []
    context = ledger.machine_context(ROOT, args.seed)
    wl.setup(args.seed, RUNTIME)
    try:
        if args.trace == 0:
            windows = [wl.measure(args.seconds)]
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            t0 = time.perf_counter()
            untraced = wl.measure(args.seconds * UNTRACED_SHARE)
            prof = ledger.Profiler(wl.PROFILE_TIMER)
            traced = wl.measure(args.seconds - (time.perf_counter() - t0), prof=prof)
            windows = [untraced, traced]
        problems, fp = check_outputs(wl, windows, args.seed)
    finally:
        wl.teardown()

    if args.trace == 0:
        metrics, notes = end_to_end(wl, windows[0], setup_samples, rss_mib)
    else:
        metrics, notes = per_layer(wl, untraced, traced, prof.stats()), {}
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed + w.refused for w in windows)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context: " + " ".join(f"{k}={v}" for k, v in context.items()))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {_unit(name)}{note}")
    print(f"operations: {attempted} attempted, {failed} failed or refused")
    print(f"fingerprint: {fp}" + (" (pinned)" if args.seed == DEFAULT_SEED else " (seed not pinned)"))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"check: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    artifact = write_artifact(args, context, metrics, notes, windows, fp, problems)
    print(f"artifact: {artifact.relative_to(ROOT)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
