"""Tests for the IB fabric, HCA, and MPI layer."""

import numpy as np
import pytest

from repro.mpi import OpenMPIProtocol, make_mpi_pair, osu_bandwidth, osu_latency
from repro.units import kib, mib, us


# ---------------------------------------------------------------------------
# Host-pointer point-to-point
# ---------------------------------------------------------------------------


def test_eager_send_recv_moves_data():
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    src = cluster.node(0).runtime.host_alloc(1024)
    dst = cluster.node(1).runtime.host_alloc(1024)
    src.data[:] = np.arange(1024, dtype=np.uint8) % 250

    def rank0():
        yield from a.send(1, src.addr, 1024, tag=7)

    def rank1():
        yield from b.recv(0, dst.addr, 1024, tag=7)

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    np.testing.assert_array_equal(dst.data, src.data)


def test_finalize_frees_eager_and_control_rings():
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    src = cluster.node(0).runtime.host_alloc(1024)
    dst = cluster.node(1).runtime.host_alloc(1024)
    src.data[:] = 3

    def rank0():
        yield from a.send(1, src.addr, 1024, tag=7)

    def rank1():
        yield from b.recv(0, dst.addr, 1024, tag=7)

    sim.process(rank0())
    sim.process(rank1())
    sim.run()
    rings = [(ep, ep._eager_rx) for ep in (a, b)] + [(ep, ep._ctrl) for ep in (a, b)]
    assert b._eager_rx._data is not None  # the eager copy-in materialized it
    world.finalize()
    for ep, ring in rings:
        assert ring._data is None
        with pytest.raises(KeyError):
            ep.node.runtime.host_buffer_at(ring.addr)
    # User buffers are the application's to free.
    assert cluster.node(1).runtime.host_buffer_at(dst.addr) is dst
    world.finalize()  # a second call is a no-op


def test_rendezvous_send_recv_moves_data():
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    n = kib(256)  # well above eager threshold
    src = cluster.node(0).runtime.host_alloc(n)
    dst = cluster.node(1).runtime.host_alloc(n)
    src.data[:] = 42

    def rank0():
        yield from a.send(1, src.addr, n, tag="big")

    def rank1():
        yield from b.recv(0, dst.addr, n, tag="big")

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    assert dst.data.min() == 42


def test_unexpected_message_then_late_recv():
    """Eager data arriving before the recv is posted must still match."""
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    src = cluster.node(0).runtime.host_alloc(512)
    dst = cluster.node(1).runtime.host_alloc(512)
    src.data[:] = 9

    def rank0():
        yield from a.send(1, src.addr, 512, tag=1)

    def rank1():
        yield sim.timeout(us(200))  # far after arrival
        yield from b.recv(0, dst.addr, 512, tag=1)

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    assert dst.data.min() == 9


def test_late_rts_matching():
    """Rendezvous RTS arriving before the recv must match when posted."""
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    n = kib(64)
    src = cluster.node(0).runtime.host_alloc(n)
    dst = cluster.node(1).runtime.host_alloc(n)
    src.data[:] = 5

    def rank0():
        yield from a.send(1, src.addr, n, tag="x")

    def rank1():
        yield sim.timeout(us(300))
        yield from b.recv(0, dst.addr, n, tag="x")

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    assert dst.data.min() == 5


def test_tag_matching_is_selective():
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    rt = cluster.node(0).runtime
    s1, s2 = rt.host_alloc(64), rt.host_alloc(64)
    d1, d2 = cluster.node(1).runtime.host_alloc(64), cluster.node(1).runtime.host_alloc(64)
    s1.data[:] = 1
    s2.data[:] = 2

    def rank0():
        yield from a.send(1, s1.addr, 64, tag="one")
        yield from a.send(1, s2.addr, 64, tag="two")

    def rank1():
        # Recv in reverse tag order: matching must be by tag, not arrival.
        yield from b.recv(0, d2.addr, 64, tag="two")
        yield from b.recv(0, d1.addr, 64, tag="one")

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    assert d1.data.min() == 1
    assert d2.data.min() == 2


def test_sendrecv_exchanges():
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    sa = cluster.node(0).runtime.host_alloc(128)
    ra = cluster.node(0).runtime.host_alloc(128)
    sb = cluster.node(1).runtime.host_alloc(128)
    rb = cluster.node(1).runtime.host_alloc(128)
    sa.data[:] = 10
    sb.data[:] = 20

    def rank0():
        yield from a.sendrecv(1, sa.addr, 1, ra.addr, 128, tag="hx")

    def rank1():
        yield from b.sendrecv(0, sb.addr, 0, rb.addr, 128, tag="hx")

    p0 = sim.process(rank0())
    p1 = sim.process(rank1())
    sim.run()
    assert p0.processed and p1.processed
    assert ra.data.min() == 20
    assert rb.data.min() == 10


# ---------------------------------------------------------------------------
# GPU-pointer staging
# ---------------------------------------------------------------------------


def test_gpu_small_message_staged():
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    gsrc = cluster.node(0).gpu.alloc(kib(4))
    gdst = cluster.node(1).gpu.alloc(kib(4))
    gsrc.data[:] = 77

    def rank0():
        yield from a.send(1, gsrc.addr, kib(4), tag="g")

    def rank1():
        yield from b.recv(0, gdst.addr, kib(4), tag="g")

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    assert gdst.data.min() == 77


def test_gpu_large_message_pipelined():
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    n = mib(1)
    gsrc = cluster.node(0).gpu.alloc(n)
    gdst = cluster.node(1).gpu.alloc(n)
    rng = np.random.default_rng(1)
    gsrc.data[:] = rng.integers(0, 255, n, dtype=np.uint8)

    def rank0():
        yield from a.send(1, gsrc.addr, n, tag="big-g")

    def rank1():
        yield from b.recv(0, gdst.addr, n, tag="big-g")

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    np.testing.assert_array_equal(gdst.data, gsrc.data)


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


def test_barrier_synchronizes():
    sim, cluster, world = make_mpi_pair(n_nodes=4)
    release_times = []

    def ranker(r, delay):
        def proc():
            yield sim.timeout(delay)
            yield from world.endpoint(r).barrier(tag=("b", 0))
            release_times.append((r, sim.now))

        return proc

    for r, d in enumerate([0, us(50), us(120), us(20)]):
        sim.process(ranker(r, d)())
    sim.run()
    assert len(release_times) == 4
    # Nobody leaves before the slowest entered.
    assert min(t for _, t in release_times) >= us(120)


def test_allreduce_sum():
    sim, cluster, world = make_mpi_pair(n_nodes=4)
    results = {}

    def ranker(r):
        def proc():
            val = yield from world.endpoint(r).allreduce(r + 1, tag=("ar", 0))
            results[r] = val

        return proc

    for r in range(4):
        sim.process(ranker(r)())
    sim.run()
    assert results == {0: 10, 1: 10, 2: 10, 3: 10}


# ---------------------------------------------------------------------------
# OSU-style numbers (calibration targets from the paper)
# ---------------------------------------------------------------------------


def test_osu_gg_latency_matches_paper():
    """MVAPICH2/IB G-G small-message latency ≈ 17.4 us (Fig 9)."""
    lat = osu_latency(32, gpu_buffers=True) / 1000.0
    assert lat == pytest.approx(17.4, rel=0.20)


def test_osu_hh_latency_small():
    """Host-to-host IB latency: a few microseconds."""
    lat = osu_latency(32, gpu_buffers=False) / 1000.0
    assert 1.0 < lat < 4.0


def test_osu_gg_bandwidth_large_beats_apenet():
    """IB G-G plateau ≈ 3 GB/s at 4 MiB (Fig 7's reference curve)."""
    bw = osu_bandwidth(mib(4), gpu_buffers=True, window=4, iterations=2)
    assert 2.3 < bw < 3.6


def test_x4_slot_halves_bandwidth():
    """Cluster I's x4 HCA slot caps IB bandwidth (the paper's caveat)."""
    bw8 = osu_bandwidth(mib(1), gpu_buffers=False, window=8, iterations=2, pcie_lanes=8)
    bw4 = osu_bandwidth(mib(1), gpu_buffers=False, window=8, iterations=2, pcie_lanes=4)
    assert bw4 < bw8 * 0.62


def test_openmpi_protocol_also_works():
    sim, cluster, world = make_mpi_pair(protocol_factory=OpenMPIProtocol)
    a, b = world.endpoint(0), world.endpoint(1)
    g0 = cluster.node(0).gpu.alloc(kib(128))
    g1 = cluster.node(1).gpu.alloc(kib(128))
    g0.data[:] = 3

    def rank0():
        yield from a.send(1, g0.addr, kib(128), tag=0)

    def rank1():
        yield from b.recv(0, g1.addr, kib(128), tag=0)

    sim.process(rank0())
    p = sim.process(rank1())
    sim.run()
    assert p.processed
    assert g1.data.min() == 3
