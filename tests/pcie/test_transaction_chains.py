"""Split reads and write quanta as callback chains: cost, routing, failure.

The fabric runs each split read, and every hop after the first of a write
quantum, as a chain of completion callbacks started by one zero-delay
kernel event.  These tests pin what that costs in kernel events, what it
shows a bus analyzer, how memoized routes behave, and how an exhausted
TLP replay budget surfaces.  The pinned times and fault records equal
those of the earlier one-process-per-transaction engine; only the event
counts dropped (one never-awaited process-completion event per read and
per quantum).
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFailure
from repro.pcie import (
    BusAnalyzer,
    LinkParams,
    PCIeDevice,
    ReadBehavior,
    TlpKind,
    TransferRecord,
    WriteBehavior,
    plx_platform,
)
from repro.sim import BACKENDS, RateLimiter, Simulator
from repro.sim import core as sim_core

NIC_BASE = 0x100_0000_0000
GPU_BASE = 0x200_0000_0000
HOST_ADDR = 0x1000


class Endpoint(PCIeDevice):
    """A 1 MiB window with a slow first access and rate-limited engines."""

    def __init__(self, sim, name, base, read_latency=500.0, limited=True):
        super().__init__(sim, name)
        self.add_window(base, 1 << 20, "bar0")
        self._read = ReadBehavior(
            latency=read_latency, limiter=RateLimiter(sim, 2.0) if limited else None
        )
        self._write = WriteBehavior(limiter=RateLimiter(sim, 3.0) if limited else None)

    def describe_read(self, addr):
        return self._read

    def describe_write(self, addr):
        return self._write


def build(sim, **gpu_kwargs):
    """NIC (x8) and GPU (x16) behind the PLX switch of a plx_platform."""
    plat = plx_platform(sim)
    nic = Endpoint(sim, "nic", NIC_BASE)
    gpu = Endpoint(sim, "gpu", GPU_BASE, **gpu_kwargs)
    plat.attach(nic, "nic")
    plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
    return plat, nic, gpu


# ---------------------------------------------------------------------------
# Per-transaction cost
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_uncontended_read_cost_is_pinned(backend):
    sim = Simulator(backend=backend)
    plat, nic, gpu = build(sim)
    ev = plat.fabric.read(nic, HOST_ADDR, 512)
    sim.run()
    assert ev.value == 512
    assert sim.now == 1533.157894736842
    # start + 3 request hops + first access + limiter + 3 completion hops
    # + done.
    assert sim.events_processed == 10


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_quantum_write_cost_is_pinned(backend):
    sim = Simulator(backend=backend)
    plat, nic, gpu = build(sim)
    ev = plat.fabric.write(nic, GPU_BASE, 3 * 4096)
    sim.run()
    assert ev.value == 3 * 4096
    assert sim.now == 6084.421052631578
    # Producer: start + 3 first hops + completion.  Each quantum: start +
    # 1 remaining hop + sink limiter + its done event.  Plus the write's
    # done event: 1 + 3 + 1 + 3 * 4 + 1.
    assert sim.events_processed == 18


def test_analyzer_sees_the_same_records():
    sim = Simulator()
    plat, nic, gpu = build(sim)
    analyzer = BusAnalyzer(sim)
    analyzer.attach(plat.fabric.link_of("nic"))
    plat.fabric.read(nic, HOST_ADDR, 512)
    sim.run()
    assert analyzer.records == [
        TransferRecord(0.0, TlpKind.MEM_READ, HOST_ADDR, 512, 24, "up", "nic"),
        # Two MPS-sized completions: 512 bytes + 2 * 20 bytes of overhead.
        TransferRecord(
            1277.8947368421052, TlpKind.COMPLETION, HOST_ADDR, 512, 552, "down", "nic"
        ),
    ]


def test_read_of_own_window_crosses_no_link():
    sim = Simulator()
    plat, nic, gpu = build(sim)
    ev = plat.fabric.read(nic, NIC_BASE + 0x40, 64)
    sim.run()
    assert ev.value == 64
    # First access (500 ns) then 64 bytes through the 2 B/ns limiter.
    assert sim.now == 500.0 + 64 / 2.0
    # start + first access + limiter + done.
    assert sim.events_processed == 4


def test_read_of_target_without_latency_or_limiter():
    sim = Simulator()
    plat, nic, gpu = build(sim, read_latency=0.0, limited=False)
    fab = plat.fabric
    ev = fab.read(nic, GPU_BASE, 256)
    sim.run()

    def crossing(src, dst, wire):
        return sum(
            link.channel(d).serialization_time(wire) + link.channel(d).latency
            for link, d in fab.path(src, dst)
        )

    # A 24-byte MRd out, one 256-byte completion (20 bytes of overhead) back.
    request = crossing(nic.node, gpu.node, 24)
    completion = crossing(gpu.node, nic.node, 256 + 20)
    assert ev.value == 256
    assert sim.now == pytest.approx(request + completion, rel=1e-12)
    # start + 2 request hops + 2 completion hops + done.
    assert sim.events_processed == 6


def test_no_process_per_read_or_quantum(monkeypatch):
    created = []
    real_init = sim_core.Process.__init__

    def counting_init(self, sim, gen, name=""):
        created.append(name)
        real_init(self, sim, gen, name)

    monkeypatch.setattr(sim_core.Process, "__init__", counting_init)
    sim = Simulator()
    plat, nic, gpu = build(sim)
    for i in range(5):
        plat.fabric.read(nic, HOST_ADDR + 512 * i, 512)
    sim.run()
    assert created == []
    plat.fabric.write(nic, GPU_BASE, 3 * 4096)
    sim.run()
    # One producer per write; its quanta's remaining hops are chains.
    assert len(created) == 1


# ---------------------------------------------------------------------------
# Memoized routes
# ---------------------------------------------------------------------------


def hop_names(hops):
    return [(link.child.name, d) for link, d in hops]


def test_mutating_a_returned_path_leaves_routes_unchanged():
    sim = Simulator()
    plat, nic, gpu = build(sim)
    fab = plat.fabric
    first = fab.path(nic.node, gpu.node)
    expected = hop_names(first)
    first.reverse()
    first.append(first[0])
    assert hop_names(fab.path(nic.node, gpu.node)) == expected
    fab.path(nic.node, gpu.node).clear()
    # Transactions use the cached route, not the mutated copies.
    ev = fab.read(nic, GPU_BASE, 64)
    sim.run()
    assert ev.value == 64
    assert hop_names(fab.path(nic.node, gpu.node)) == [("nic", "up"), ("gpu", "down")]


def test_route_cached_before_a_later_endpoint_stays_correct():
    def read_time(attach_late):
        sim = Simulator()
        plat, nic, gpu = build(sim)
        fab = plat.fabric
        late = Endpoint(sim, "late", 0x300_0000_0000)
        if not attach_late:
            plat.attach(late, "gpu")
        before = hop_names(fab.path(nic.node, plat.host_memory.node))
        if attach_late:
            plat.attach(late, "gpu")
        assert hop_names(fab.path(nic.node, plat.host_memory.node)) == before
        assert hop_names(fab.path(late.node, nic.node)) == [("late", "up"), ("nic", "down")]
        ev = fab.read(nic, HOST_ADDR, 512)
        sim.run()
        assert ev.value == 512
        return sim.now

    assert read_time(attach_late=True) == read_time(attach_late=False) == 1533.157894736842


# ---------------------------------------------------------------------------
# Failure semantics: an exhausted TLP replay budget
# ---------------------------------------------------------------------------


def run_until_failure(op, seed, ber):
    """Two initiators stream *op* traffic at each other's side of the PLX."""
    sim = Simulator()
    plat, nic, gpu = build(sim)
    injector = FaultInjector(FaultPlan(seed=seed, tlp_ber=ber, max_retries=0))
    plat.fabric.faults = injector

    def reader(dev, base):
        for i in range(40):
            yield dev.fabric.read(dev, base + 256 * i, 256)

    def writer(dev, addr):
        for _ in range(4):
            yield dev.fabric.write(dev, addr, 3 * 4096)

    proc = reader if op == "read" else writer
    sim.process(proc(nic, HOST_ADDR))
    sim.process(proc(gpu, NIC_BASE))
    with pytest.raises(LinkFailure) as info:
        sim.run()
    return sim.now, info.value, injector.stats


def failure(site):
    return {"site": site, "attempts": 1, "time": None, "kind": "tlp-replay"}


@pytest.mark.parametrize(
    "seed, ber, now, site",
    [
        # MRd request hop of the NIC's host read.
        (1, 3e-5, 857.4736842105262, "nic->plx.plx"),
        # Completion hop back from host memory.
        (2, 1e-4, 702.6315789473684, "plx.dram->plx.rc"),
        # Completion hop down to the GPU, after contention on the switch.
        (0, 1e-4, 2226.5263157894733, "plx.plx->gpu"),
    ],
)
def test_read_hop_failure_escapes_run(seed, ber, now, site):
    t, exc, stats = run_until_failure("read", seed, ber)
    assert (t, exc.site, exc.attempts, exc.kind) == (now, site, 1, "tlp-replay")
    assert stats.link_failures == [failure(site)]
    assert (stats.tlp_replays, stats.tlp_replay_bytes) == (0, 0)


def test_write_quantum_hop_failure_escapes_run():
    # The third hop of a quantum (root complex -> DRAM) runs in the chain.
    t, exc, stats = run_until_failure("write", 0, 1e-6)
    assert (t, exc.site) == (4566.315789473685, "plx.rc->plx.dram")
    assert stats.link_failures == [failure("plx.rc->plx.dram")]
    assert (stats.tlp_replays, stats.tlp_replay_bytes) == (0, 0)


def test_chain_failure_waits_for_same_time_events():
    # The GPU producer's first hop fails; before its crash surfaces, the
    # same kernel time still runs a quantum chain whose next hop fails too.
    # Both failures are on the books, and the first one escapes.
    t, exc, stats = run_until_failure("write", 8, 1e-5)
    assert (t, exc.site) == (699.4736842105264, "gpu->plx.plx")
    assert stats.link_failures == [failure("gpu->plx.plx"), failure("plx.plx->nic")]


class Refuser(Endpoint):
    """Rejects every delivered payload from its ``on_write`` hook."""

    def __init__(self, sim, name, base):
        super().__init__(sim, name, base)
        self._write = WriteBehavior(on_write=self._refuse)

    def _refuse(self, addr, nbytes, payload):
        raise RuntimeError(f"refused {nbytes} bytes at {addr:#x}")


def test_delivery_hook_error_escapes_run_at_absorption():
    sim = Simulator()
    plat = plx_platform(sim)
    nic = Endpoint(sim, "nic", NIC_BASE)
    sink = Refuser(sim, "sink", GPU_BASE)
    plat.attach(nic, "nic")
    plat.attach(sink, "gpu", LinkParams(gen=2, lanes=16))
    done = plat.fabric.write(nic, GPU_BASE, 3 * 4096, payload=b"x")
    with pytest.raises(RuntimeError, match="refused 12288 bytes at 0x20000000000"):
        sim.run()
    assert not done.triggered
    assert sim.now == 4566.315789473685
