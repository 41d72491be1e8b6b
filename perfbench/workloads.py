"""The four benchmark workloads, each a seeded input set over public calls.

Every workload builds its inputs from the benchmark seed alone and hands
the program only those inputs.  A *batch* workload (``gg_bandwidth``,
``bfs_strong_scaling``, ``scale_ladder``) runs one *pass* — every public
call of its input set, in a fixed order — as many times as the timed
window allows.  ``serve_closed_loop`` instead drives the service with one
closed-loop client, in blocks of requests with the same mix.

Each workload also states what correct output is: :meth:`check` returns
the problems it found (empty when correct) and :meth:`fingerprint_data`
the simulated outputs whose hash is pinned for the default seed.  The
simulator is deterministic, so these never depend on host timing.

Only public functions are called, and only ones that are planned to
survive the kernel-backend and event-pool removals; ``tests/`` greps this
directory to keep it that way.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import random
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

import numpy as np

KiB = 1024
MiB = 1024 * KiB


@dataclass
class Op:
    """One public call of a pass: a name for its span, and the call."""

    name: str
    call: Callable[[], tuple[Any, float]]  # -> (output, work units)


@dataclass
class Window:
    """Everything measured in one timed window (untraced or traced)."""

    pass_walls: list[float] = field(default_factory=list)  # batch workloads
    op_latencies: list[float] = field(default_factory=list)  # serve requests
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    events: int = 0
    passes: int = 0
    spans: list[tuple] = field(default_factory=list)  # (name, start, end, parent)
    outputs: list[list] = field(default_factory=list)  # batch: per-pass outputs
    extra: dict = field(default_factory=dict)


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


class Workload:
    """What every workload provides to ``run.py``."""

    name = ""
    work_unit = ""
    PROFILE_TIMER = None  # one busy thread: the profiler's default clock

    def setup(self, seed: int, runtime_dir) -> None:
        """Build the seeded inputs and warm whatever users pay for once."""
        raise NotImplementedError

    def measure(self, budget_s: float, prof=None) -> Window:
        """Run the workload for about ``budget_s`` seconds."""
        raise NotImplementedError

    def check(self, window: Window) -> list[str]:
        """Invariants on the simulated outputs; empty when correct."""
        raise NotImplementedError

    def fingerprint_data(self, window: Window) -> Any:
        """The simulated outputs whose hash is pinned for the default seed."""
        return window.outputs[0]

    def extra_figures(self, window: Window) -> dict:
        """Workload-specific per-layer figures from an untraced window."""
        return dict(window.extra)

    def teardown(self) -> None:
        """Release what :meth:`setup` acquired."""


class BatchWorkload(Workload):
    """A workload that repeats one pass of public calls."""

    def ops(self) -> list[Op]:
        """The public calls of one pass, in order."""
        raise NotImplementedError

    def measure(self, budget_s: float, prof=None) -> Window:
        """Run whole passes until the next one would overrun ``budget_s``.

        At least one pass always runs.  With ``prof`` (a
        :class:`ledger.Profiler`) the calling thread is profiled for the
        window.
        """
        from repro.sim import kernel_event_count

        win = Window()
        ops = self.ops()
        ev0 = kernel_event_count()
        t_start = time.perf_counter()
        handle = prof.start() if prof is not None else None
        try:
            while True:
                pass_outputs = []
                p0 = time.perf_counter()
                parent = f"pass-{win.passes}"
                for op in ops:
                    win.attempted += 1
                    c0 = time.perf_counter()
                    try:
                        out, work = op.call()
                    except Exception as exc:  # one failing call is counted, not fatal
                        traceback.print_exc()
                        win.failed += 1
                        out, work = {"error": f"{type(exc).__name__}: {exc}"}, 0.0
                    c1 = time.perf_counter()
                    win.spans.append((op.name, c0, c1, parent))
                    win.work += work
                    pass_outputs.append(out)
                p1 = time.perf_counter()
                win.spans.append((parent, p0, p1, "run"))
                win.pass_walls.append(p1 - p0)
                win.outputs.append(pass_outputs)
                win.passes += 1
                elapsed = p1 - t_start
                typical = sorted(win.pass_walls)[len(win.pass_walls) // 2]
                if elapsed + typical > budget_s:
                    break
        finally:
            if handle is not None:
                prof.stop(handle)
        win.events = kernel_event_count() - ev0
        return win


# ---------------------------------------------------------------------------
# gg_bandwidth — the paper's Fig 7 core
# ---------------------------------------------------------------------------


class GGBandwidth(BatchWorkload):
    """G-G PUT bandwidth, P2P=ON against host staging (P2P=OFF).

    Sizes: the paper's two Fig 7 reference sizes (8 KiB, 4 MiB) plus one
    seeded log-uniform size inside each of six narrow bands whose centres
    step evenly from 32 B towards 4 MiB (the last centre sits near
    600 KiB; 4 MiB itself is a reference size).  The bands keep a pass's
    cost nearly the same for every seed while the exact sizes, almost all
    off powers of two, change.
    Each call moves about :data:`BYTES_PER_CALL` (never fewer than two
    messages, never more than :data:`MAX_MESSAGES`).
    """

    name = "gg_bandwidth"
    work_unit = "payload bytes"
    REFERENCE_SIZES = (8 * KiB, 4 * MiB)
    BANDS = 6
    BAND_HALF_WIDTH = 0.25  # octaves either side of a band centre
    BYTES_PER_CALL = 256 * KiB
    MAX_MESSAGES = 32

    def setup(self, seed: int, runtime_dir) -> None:
        from repro.apenet.buflist import BufferKind
        from repro.apenet.config import DEFAULT_CONFIG
        from repro.bench.microbench import (
            staged_unidirectional_bandwidth,
            unidirectional_bandwidth,
        )
        from repro.pcie.tlp import LinkParams

        rng = _rng(seed, self.name)
        lo, hi = math.log2(32), math.log2(4 * MiB)
        seeded = []
        for i in range(self.BANDS):
            centre = lo + (hi - lo) * i / self.BANDS
            u = rng.uniform(-self.BAND_HALF_WIDTH, self.BAND_HALF_WIDTH)
            seeded.append(int(round(2.0 ** (centre + u))))
        self.sizes = sorted(set(self.REFERENCE_SIZES) | set(seeded))
        self.ceiling = min(
            DEFAULT_CONFIG.link_bandwidth,
            LinkParams(gen=DEFAULT_CONFIG.pcie_gen, lanes=DEFAULT_CONFIG.pcie_lanes).raw_bandwidth,
        )
        G = BufferKind.GPU
        self._p2p = lambda size, n: unidirectional_bandwidth(G, G, size, n_messages=n)
        self._staged = lambda size, n: staged_unidirectional_bandwidth(size, n_messages=n)

    def messages(self, size: int) -> int:
        """Messages per call for ``size``: about BYTES_PER_CALL, at least 2."""
        return max(2, min(self.MAX_MESSAGES, math.ceil(self.BYTES_PER_CALL / size)))

    def ops(self) -> list[Op]:
        out = []
        for size in self.sizes:
            n = self.messages(size)
            for method, fn in (("p2p", self._p2p), ("staged", self._staged)):
                out.append(Op(f"{method}@{size}", self._call(method, fn, size, n)))
        return out

    @staticmethod
    def _call(method, fn, size, n):
        def call():
            r = fn(size, n)
            out = {
                "method": method,
                "size": size,
                "requested": n,
                "n_messages": r.n_messages,
                "bandwidth": r.bandwidth,
            }
            return out, float(r.n_messages * size)

        return call

    def paper_err_pct(self, outputs: list) -> float:
        """Mean |deviation| in % from the four Fig 7 G-G reference points."""
        from repro.bench.experiments.fig67 import PAPER_FIG7

        label = {"p2p": "P2P=ON", "staged": "P2P=OFF"}
        errs = []
        for out in outputs:
            paper = PAPER_FIG7.get((label[out["method"]], out["size"]))
            if paper is not None:
                errs.append(abs(out["bandwidth"] * 1000.0 - paper) / paper)
        return 100.0 * sum(errs) / len(errs)

    def check(self, window: Window) -> list[str]:
        problems = []
        for out in window.outputs[0]:
            tag = f"{out.get('method')}@{out.get('size')}"
            if "error" in out:
                problems.append(f"{tag}: {out['error']}")
                continue
            if out["n_messages"] != out["requested"]:
                problems.append(f"{tag}: {out['n_messages']} of {out['requested']} PUTs delivered")
            if not 0.0 < out["bandwidth"] < self.ceiling:
                problems.append(
                    f"{tag}: bandwidth {out['bandwidth']:.4f} B/ns outside (0, {self.ceiling})"
                )
        return problems

    def fingerprint_data(self, window: Window) -> Any:
        return {"calls": window.outputs[0], "paper_err_pct": self.paper_err_pct(window.outputs[0])}

    def extra_figures(self, window: Window) -> dict:
        secs = {"p2p": 0.0, "staged": 0.0}
        nbytes = {"p2p": 0.0, "staged": 0.0}
        outputs = [o for pass_out in window.outputs for o in pass_out]
        calls = [s for s in window.spans if "@" in s[0]]
        for out, (_name, c0, c1, _parent) in zip(outputs, calls):
            if "error" in out:
                continue
            secs[out["method"]] += c1 - c0
            nbytes[out["method"]] += out["n_messages"] * out["size"]
        return {
            "path.p2p_bytes_per_s": nbytes["p2p"] / secs["p2p"],
            "path.staged_bytes_per_s": nbytes["staged"] / secs["staged"],
            "model.paper_err_pct": self.paper_err_pct(window.outputs[0]),
        }


# ---------------------------------------------------------------------------
# bfs_strong_scaling — the §VI application path
# ---------------------------------------------------------------------------


class BfsStrongScaling(BatchWorkload):
    """``run_bfs`` on one seeded R-MAT graph, NP 1-8, APEnet+ and InfiniBand.

    The graph seed and the root come from the benchmark seed; the root is
    drawn among vertices of degree >= 4 so it lies in the giant component
    and every seed traverses a comparable share of the graph.  Levels are
    validated against ``serial_bfs`` after the timed window.
    """

    name = "bfs_strong_scaling"
    work_unit = "traversed edges"
    SCALE = 12
    EDGEFACTOR = 16
    NPS = (1, 2, 4, 8)
    TRANSPORTS = ("apenet", "ib")

    def setup(self, seed: int, runtime_dir) -> None:
        from repro.apps.bfs import BfsConfig, CSRGraph, rmat_edges, run_bfs

        rng = _rng(seed, self.name)
        self.graph_seed = rng.randrange(1, 2**31)
        edges = rmat_edges(self.SCALE, self.EDGEFACTOR, seed=self.graph_seed)
        self.graph = CSRGraph.from_edges(1 << self.SCALE, edges)
        degrees = np.diff(self.graph.row_ptr)
        candidates = np.flatnonzero(degrees >= 4)
        self.root = int(candidates[rng.randrange(len(candidates))])
        self.configs = [
            BfsConfig(
                scale=self.SCALE,
                edgefactor=self.EDGEFACTOR,
                np_=np_,
                transport=transport,
                seed=self.graph_seed,
                root=self.root,
                validate=False,
            )
            for transport in self.TRANSPORTS
            for np_ in self.NPS
        ]
        self._run = run_bfs
        self.levels: dict[str, np.ndarray] = {}

    def ops(self) -> list[Op]:
        return [Op(f"run_bfs:{c.transport}:np{c.np_}", self._call(c)) for c in self.configs]

    def _call(self, cfg):
        key = f"{cfg.transport}:np{cfg.np_}"

        def call():
            r = self._run(cfg)
            self.levels.setdefault(key, r.levels)
            visited = r.levels >= 0
            out = {
                "config": key,
                "teps": r.teps,
                "total_time_ns": r.total_time_ns,
                "n_levels": r.n_levels,
                "traversed": r.traversed,
                "reached": int(visited.sum()),
                "levels_checksum": int(r.levels[visited].sum()),
            }
            return out, float(r.traversed)

        return call

    def check(self, window: Window) -> list[str]:
        from repro.apps.bfs import serial_bfs, traversed_edges

        ref, _parents = serial_bfs(self.graph, self.root)
        ref_traversed = traversed_edges(self.graph, ref)
        problems = []
        for out in window.outputs[0]:
            key = out.get("config")
            if "error" in out:
                problems.append(f"{key}: {out['error']}")
                continue
            if not np.array_equal(self.levels[key], ref):
                problems.append(f"{key}: levels differ from serial_bfs")
            if out["traversed"] != ref_traversed:
                problems.append(f"{key}: traversed {out['traversed']} != {ref_traversed}")
        return problems

    def fingerprint_data(self, window: Window) -> Any:
        return {"graph_seed": self.graph_seed, "root": self.root, "runs": window.outputs[0]}


# ---------------------------------------------------------------------------
# scale_ladder — the NumPy flow model, bypassing the DES kernel
# ---------------------------------------------------------------------------


class ScaleLadder(BatchWorkload):
    """``run_scale_bfs`` over the quick 4^3-12^3 ladder plus the parity probe.

    The seed picks one dead link: a rank valid on every rung, a dimension
    and a direction (one dead link never partitions a torus).  The R-MAT
    graphs keep the ``scale`` experiment's seed, :data:`GRAPH_SEED`: the
    graph alone moves this workload's peak memory by a third between
    seeds, which would drown any change a later commit makes.
    ``calibrate()`` runs in set-up, before timing.
    """

    name = "scale_ladder"
    work_unit = "traversed edges"
    GRAPH_SEED = 1

    def setup(self, seed: int, runtime_dir) -> None:
        import os

        from repro.apenet.buflist import BufferKind
        from repro.bench.experiments.scale import CONFIGS_QUICK, parity_probe
        from repro.scale import calibrate, run_scale_bfs

        rng = _rng(seed, self.name)
        self.graph_seed = self.GRAPH_SEED
        smallest = min(dx * dy * dz for (dx, dy, dz), _s in CONFIGS_QUICK)
        self.dead_links = ((rng.randrange(smallest), rng.randrange(3), rng.choice((1, -1))),)
        self.shards = max(1, min(2, os.cpu_count() or 1))
        self.ladder = CONFIGS_QUICK
        t0 = time.perf_counter()
        calibrate()  # the flow network's host-buffer probes (parity probe)
        calibrate(src_kind=BufferKind.GPU, dst_kind=BufferKind.GPU)  # BFS traffic
        self.calibrate_s = time.perf_counter() - t0
        self._run = run_scale_bfs
        self._parity = parity_probe

    def ops(self) -> list[Op]:
        out = [
            Op(f"run_scale_bfs:{dims[0]}^3", self._bfs_call(dims, scale))
            for dims, scale in self.ladder
        ]
        out.append(Op("parity_probe", self._parity_call))
        return out

    def _bfs_call(self, dims, scale):
        def call():
            r = self._run(
                dims, scale, seed=self.graph_seed, dead_links=self.dead_links, shards=self.shards
            )
            out = asdict(r)
            out["dims"] = list(out["dims"])
            out.pop("shards")  # any shard count gives identical results
            return out, float(r.traversed)

        return call

    def _parity_call(self):
        return self._parity(), 0.0

    def check(self, window: Window) -> list[str]:
        from repro.apps.bfs import CSRGraph, rmat_edges, serial_bfs

        problems = []
        graphs: dict[int, Any] = {}
        for out in window.outputs[0]:
            if "error" in out:
                problems.append(out["error"])
                continue
            if "lossless_ok" in out:
                if not out["lossless_ok"]:
                    problems.append("parity probe: lossless aggregates differ from the exact DES")
                if not out["within_tolerance"]:
                    problems.append("parity probe: completion times outside tolerance")
                continue
            scale = out["scale"]
            if scale not in graphs:
                edges = rmat_edges(scale, 16, seed=self.graph_seed)
                graphs[scale] = CSRGraph.from_edges(1 << scale, edges)
            levels, _parents = serial_bfs(graphs[scale], out["root"])
            visited = levels >= 0
            if int(visited.sum()) != out["reached"]:
                problems.append(f"{out['dims']}: reached {out['reached']} != serial")
            if int(levels[visited].sum()) != out["levels_checksum"]:
                problems.append(f"{out['dims']}: levels checksum differs from serial_bfs")
        return problems

    def fingerprint_data(self, window: Window) -> Any:
        return {"dead_links": self.dead_links, "runs": window.outputs[0]}


# ---------------------------------------------------------------------------
# serve_closed_loop — repro.serve over HTTP, one closed-loop client
# ---------------------------------------------------------------------------


class ServeClosedLoop(Workload):
    """``repro.serve`` booted in-process, driven over HTTP on localhost.

    One client sends its next request only after the previous one
    completed: submit, poll the status every :data:`POLL_S` until terminal,
    fetch the result.  A single client keeps the load to one forked worker
    beside the service, so on a two-core machine the figures measure the
    service, not the scheduler.  Every block of requests has the same mix;
    the seed draws the order and which cached experiment each hit asks for.
    Per block: ten ``fig3``, one ``fig10`` and one ``fig8`` execution with
    ``cache:false`` (the fork + execute path) and four ``cache:true`` hits
    on the cache that set-up filled.  ``fig3`` is the cheapest of the three
    simulations, so the service's own work (admission, fork, landing) is a
    larger share of each request than with ``fig8`` or ``fig10``, whose
    longer simulations made the figures spread more from run to run.  The
    service starts with an empty temporary cache.
    """

    name = "serve_closed_loop"
    work_unit = "requests"
    CACHED = ("fig3", "fig8", "fig10")
    MISSES = ("fig3",) * 10 + ("fig10", "fig8")
    HITS = 4
    POLL_S = 0.005
    HTTP_TIMEOUT_S = 60.0
    #: A request not terminal after this long is given up on and counted as
    #: failed, and a service that has not drained after this long is torn
    #: down anyway, so no failure of the service can hang the benchmark.
    REQUEST_TIMEOUT_S = 30.0
    DRAIN_TIMEOUT_S = 30.0
    #: The profiled threads mostly wait; charge them CPU time, not waits.
    PROFILE_TIMER = staticmethod(time.thread_time)

    @property
    def block(self) -> int:
        """Requests in one block: the unit per-layer figures are given per."""
        return len(self.MISSES) + self.HITS

    def setup(self, seed: int, runtime_dir) -> None:
        from repro.serve import HttpFrontend, ServeConfig, SimulationService

        self._rng = _rng(seed, self.name)
        self._tmp = tempfile.TemporaryDirectory(prefix="serve-cache-", dir=runtime_dir)
        self.loop = asyncio.new_event_loop()
        self.loop.set_exception_handler(self._loop_error)
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-serve", daemon=True
        )
        self.thread.start()

        async def boot():
            config = ServeConfig(host="127.0.0.1", port=0, workers=1, cache_dir=self._tmp.name)
            service = SimulationService(config)
            frontend = HttpFrontend(service)
            _host, port = await frontend.start(config.host, config.port)
            return service, frontend, port

        self.service, self.frontend, self.port = self._on_loop(boot())
        self.results: dict[str, list] = {}
        for exp in self.CACHED:  # fill the cache the hits will read
            kind, doc, _lat = self.request({"experiment": exp, "cache": True})
            if kind != "ok":
                raise RuntimeError(f"warming the cache with {exp} failed: {doc}")

    def _on_loop(self, coro, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    @staticmethod
    def _loop_error(loop, context) -> None:
        """Report an error the service's event loop could not deliver,
        such as an execution task that died; its requests then never end."""
        exc = context.get("exception")
        detail = "".join(traceback.format_exception(exc)) if exc else ""
        print(f"perfbench: service event loop error: {context.get('message')}\n{detail}",
              file=sys.stderr, flush=True)

    def teardown(self) -> None:
        import multiprocessing

        async def stop():
            self.service.begin_drain()
            try:
                await asyncio.wait_for(self.service.drained.wait(), self.DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                print(f"perfbench: service not drained after {self.DRAIN_TIMEOUT_S:g} s "
                      f"({self.service.inflight_executions()} executions in flight)",
                      file=sys.stderr, flush=True)
            await self.frontend.stop()

        try:
            self._on_loop(stop(), timeout=self.DRAIN_TIMEOUT_S + 30.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(30)
            if not self.thread.is_alive():
                self.loop.close()
            for child in multiprocessing.active_children():
                child.join(10)
                if child.is_alive():
                    child.kill()
                    child.join(10)
            self._tmp.cleanup()

    # -- HTTP client ---------------------------------------------------------

    def _http(self, method: str, path: str, body: Optional[dict] = None) -> tuple[int, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.HTTP_TIMEOUT_S)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data is not None else {}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            if resp.getheader("Content-Type", "").startswith("application/json"):
                return resp.status, json.loads(raw)
            return resp.status, raw.decode()
        finally:
            conn.close()

    def request(self, body: dict) -> tuple[str, Any, float]:
        """One closed-loop request; returns ``(kind, result doc, latency)``.

        ``kind`` is ``ok``, ``refused`` (429/503) or ``failed``.
        """
        t0 = time.perf_counter()
        status, doc = self._http("POST", "/submit", body)
        if status in (429, 503):
            return "refused", doc, time.perf_counter() - t0
        if status == 202:
            rid = doc["request_id"]
            while True:
                time.sleep(self.POLL_S)
                status, doc = self._http("GET", f"/status/{rid}")
                if status != 200 or doc.get("state") in ("done", "failed"):
                    break
                if time.perf_counter() - t0 > self.REQUEST_TIMEOUT_S:
                    doc = {"error": f"{rid} not terminal after {self.REQUEST_TIMEOUT_S:g} s"}
                    return "failed", doc, time.perf_counter() - t0
            if status == 200:
                status, doc = self._http("GET", f"/result/{rid}")
        latency = time.perf_counter() - t0
        ok = status == 200 and doc.get("state") == "done" and doc.get("outcome") == "done"
        return ("ok" if ok else "failed"), doc, latency

    def _next_block(self) -> list[dict]:
        bodies = [{"experiment": e, "cache": False} for e in self.MISSES]
        bodies += [{"experiment": self._rng.choice(self.CACHED), "cache": True} for _ in range(self.HITS)]
        self._rng.shuffle(bodies)
        return bodies

    def metric_value(self, family: str) -> float:
        """One unlabelled sample from the service's /metrics document."""
        _status, text = self._http("GET", "/metrics")
        for line in text.splitlines():
            if line.startswith(family + " "):
                return float(line.split()[1])
        return 0.0

    # -- measurement ---------------------------------------------------------

    def measure(self, budget_s: float, prof=None) -> Window:
        """Whole blocks of closed-loop requests until the next would overrun.

        At least one block always runs.  A block's wall time is a *pass*:
        every block has the same mix, so throughput is taken from the median
        block, like a batch workload's passes.  With ``prof`` (a
        :class:`ledger.Profiler`) the client thread and the service's
        event-loop thread are profiled for the window.
        """
        win = Window()
        records: list[tuple] = []  # (body, kind, doc, latency, start, end)
        restarts0 = self.metric_value("repro_serve_worker_restarts_total")

        loop_handle = None
        if prof is not None:
            async def start_loop_profile():
                return prof.start()

            loop_handle = self._on_loop(start_loop_profile())
        handle = prof.start() if prof is not None else None
        t_start = time.perf_counter()
        try:
            while True:
                b0 = time.perf_counter()
                for body in self._next_block():
                    c0 = time.perf_counter()
                    try:
                        kind, doc, latency = self.request(body)
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        kind, doc, latency = "failed", {"error": repr(exc)}, time.perf_counter() - c0
                    records.append((body, kind, doc, latency, c0, time.perf_counter()))
                b1 = time.perf_counter()
                win.spans.append((f"block-{win.passes}", b0, b1, "run"))
                win.pass_walls.append(b1 - b0)
                win.passes += 1
                typical = sorted(win.pass_walls)[len(win.pass_walls) // 2]
                if b1 - t_start + typical > budget_s:
                    break
        finally:
            if handle is not None:
                prof.stop(handle)
            if loop_handle is not None:
                async def stop_loop_profile():
                    prof.stop(loop_handle)

                self._on_loop(stop_loop_profile())

        for body, kind, doc, latency, c0, c1 in records:
            win.attempted += 1
            win.op_latencies.append(latency)
            win.spans.append((f"request:{body['experiment']}", c0, c1, f"block-{(win.attempted - 1) // self.block}"))
            if kind == "refused":
                win.refused += 1
                continue
            if kind == "failed":
                win.failed += 1
                continue
            win.work += 1.0
            self.results.setdefault(body["experiment"], []).append((body, doc))
        win.extra = self._telemetry(records)
        win.extra["serve.worker_restarts"] = (
            self.metric_value("repro_serve_worker_restarts_total") - restarts0
        )
        return win

    def _telemetry(self, records) -> dict:
        """Per-layer serve figures from the telemetry each result carries."""
        from ledger import median

        spans: dict[str, list[float]] = {n: [] for n in ("admission", "queue", "execute", "land")}
        overhead, retries, coalesced, cached, done = [], 0, 0, 0, 0
        for body, kind, doc, latency, _c0, _c1 in records:
            if kind != "ok":
                continue
            done += 1
            tele = doc.get("telemetry", {})
            for span in tele.get("spans", ()):
                if span.get("name") in spans:
                    spans[span["name"]].append(span["dur"] / 1e9)
            retries += tele.get("retries", 0)
            coalesced += bool(doc.get("coalesced"))
            cached += bool(doc.get("cached"))
            if not doc.get("cached") and not doc.get("coalesced"):
                overhead.append(latency - tele.get("wall_s", 0.0))
        out = {f"serve.{n}_s": (median(v) if v else 0.0) for n, v in spans.items()}
        out["serve.overhead_s"] = median(overhead) if overhead else 0.0
        out["serve.cache_hit_ratio"] = cached / done if done else 0.0
        out["serve.coalesced"] = float(coalesced)
        out["serve.retries"] = float(retries)
        out["serve.rejected"] = float(sum(1 for r in records if r[1] == "refused"))
        return out

    def check(self, window: Window) -> list[str]:
        """Every result equals a direct in-process run of the same experiment."""
        from repro.bench.engine import ExecutionEngine, deterministic_view

        problems = []
        engine = ExecutionEngine()
        for exp, got in sorted(self.results.items()):
            ref = _canonical(deterministic_view(engine.execute(exp, True)))
            for body, doc in got:
                if _canonical(doc.get("result")) != ref:
                    problems.append(f"{exp}: served result differs from a direct run")
                    break
                if body["cache"] and not doc.get("cached"):
                    problems.append(f"{exp}: cache:true request missed the warmed cache")
                    break
        if not self.results:
            problems.append("no request completed")
        return problems

    def fingerprint_data(self, window: Window) -> Any:
        return {
            exp: _canonical(got[0][1]["result"]) for exp, got in sorted(self.results.items())
        }


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


WORKLOADS = {
    w.name: w
    for w in (GGBandwidth, BfsStrongScaling, ScaleLadder, ServeClosedLoop)
}
