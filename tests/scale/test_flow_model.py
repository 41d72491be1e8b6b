"""Unit tests for the batched flow engine (repro.scale.flow).

Fragment arithmetic, routing (including detours and partition verdicts),
calibration memoisation, and the scalar-vs-vectorised latency model.
Parity against the exact per-packet driver lives in test_parity_*.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.packet import MAX_PACKET_PAYLOAD, PACKET_HEADER_BYTES
from repro.net.topology import TorusShape
from repro.scale import (
    FlowNetwork,
    calibrate,
    fragment_count,
    hop_route,
    last_fragment_bytes,
    wire_bytes,
)
from repro.scale.flow import normalize_dead_links

pytestmark = pytest.mark.scale


# ---------------------------------------------------------------------------
# Fragment arithmetic (the lossless backbone)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "nbytes,n,last",
    [
        (1, 1, 1),
        (300, 1, 300),
        (MAX_PACKET_PAYLOAD, 1, MAX_PACKET_PAYLOAD),
        (MAX_PACKET_PAYLOAD + 1, 2, 1),
        (2 * MAX_PACKET_PAYLOAD, 2, MAX_PACKET_PAYLOAD),
        (65536, 16, MAX_PACKET_PAYLOAD),
        (65537, 17, 1),
    ],
)
def test_fragment_arithmetic(nbytes, n, last):
    assert fragment_count(nbytes) == n
    assert last_fragment_bytes(nbytes) == last
    assert wire_bytes(nbytes) == nbytes + n * PACKET_HEADER_BYTES
    # Fragment payloads must re-sum to the transfer size.
    assert (n - 1) * MAX_PACKET_PAYLOAD + last == nbytes


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_hop_route_fault_free_is_dimension_ordered():
    shape = TorusShape(3, 3, 3)
    for src, dst in [(0, 13), (5, 22), (26, 0), (7, 7)]:
        route = hop_route(shape, src, dst)
        assert route is not None
        assert len(route) == shape.distance(shape.coord(src), shape.coord(dst))
        # Walking the hop list must land on dst.
        cur = shape.coord(src)
        for rank, dim, direction in route:
            assert rank == shape.rank(cur)
            cur = shape.neighbor(cur, dim, direction)
        assert shape.rank(cur) == dst


def test_hop_route_detours_around_dead_link():
    shape = TorusShape(3, 3, 3)
    dead = normalize_dead_links(shape, [(0, 0, 1)])  # +X out of rank 0
    route = hop_route(shape, 0, 1, dead)
    assert route is not None
    assert (0, 0, 1) not in route  # the dead hop is never taken
    # The detour is longer than the direct hop but still reaches dst.
    assert len(route) > 1
    cur = shape.coord(0)
    for _rank, dim, direction in route:
        cur = shape.neighbor(cur, dim, direction)
    assert shape.rank(cur) == 1


def test_hop_route_partition_verdict_is_none():
    # On a 2-node line both X channels out of rank 0 are the only exits.
    shape = TorusShape(2, 1, 1)
    dead = normalize_dead_links(shape, [(0, 0, 1), (0, 0, -1)])
    assert hop_route(shape, 0, 1, dead) is None
    # The reverse direction uses rank 1's (alive) channels.
    assert hop_route(shape, 1, 0, dead) is not None


def test_unreachable_flow_record_is_undelivered():
    net = FlowNetwork((2, 1, 1), dead_links=[(0, 0, 1), (0, 0, -1)])
    rec = net.bulk_put(0, 1, 4096)
    assert rec.completion is None and not rec.delivered
    agg = net.aggregates()
    assert agg.bytes_delivered == 0
    assert agg.completions == (None,)
    assert not agg.link_bytes  # nothing ever hit a wire


# ---------------------------------------------------------------------------
# Calibration and the latency model
# ---------------------------------------------------------------------------


def test_calibrate_is_memoised():
    a = calibrate()
    b = calibrate()
    assert a is b  # module-wide memo: same object, no re-probing


def test_calibration_is_physically_sane():
    cal = calibrate()
    assert cal.per_fragment > 0
    assert cal.hop_base > 0
    # Latency knots are strictly increasing in fragment count.
    assert all(b > a for a, b in zip(cal.knot_times, cal.knot_times[1:]))


def test_latency_monotone_in_size_and_hops():
    cal = calibrate()
    sizes = [64, 512, 4096, 8192, 65536, 131072]
    lat = [
        cal.completion_latency(fragment_count(s), last_fragment_bytes(s), 1)
        for s in sizes
    ]
    assert all(b > a for a, b in zip(lat, lat[1:]))
    hops = [cal.completion_latency(2, MAX_PACKET_PAYLOAD, h) for h in (1, 2, 3, 5)]
    assert all(b > a for a, b in zip(hops, hops[1:]))


def test_vectorised_latency_matches_scalar():
    cal = calibrate()
    nbytes = np.array([1, 300, 512, 4096, 4097, 5000, 8192, 40000, 600000])
    hops = np.array([1, 2, 3, 1, 4, 2, 1, 5, 3])
    vec = cal.completion_latency_array(nbytes, hops)
    for i, (nb, h) in enumerate(zip(nbytes, hops)):
        scalar = cal.completion_latency(
            fragment_count(int(nb)), last_fragment_bytes(int(nb)), int(h)
        )
        assert vec[i] == pytest.approx(scalar, rel=0, abs=1e-9)


def test_latency_is_exact_at_probed_knots():
    """The model must reproduce its own probe points bit-for-bit."""
    cal = calibrate()
    for i, n in enumerate(cal.knots):
        assert cal.completion_latency(n, MAX_PACKET_PAYLOAD, 1) == cal.knot_times[i]
    for i, b in enumerate(cal.single_byte_knots):
        assert cal.completion_latency(1, b, 1) == cal.single_byte_times[i]


# ---------------------------------------------------------------------------
# Flow scheduling invariants
# ---------------------------------------------------------------------------


def test_back_to_back_flows_are_spaced_by_occupancy():
    net = FlowNetwork((2, 1, 1))
    cal = net.calibration()
    n = 9
    r1 = net.bulk_put(0, 1, n * MAX_PACKET_PAYLOAD)
    r2 = net.bulk_put(0, 1, n * MAX_PACKET_PAYLOAD)
    # The steady same-path gap is one flow's RX occupancy: the RX loop
    # serves its n fragments, then its completion post.  The exact DES
    # spaces a burst of 9-fragment PUTs by the same 30.05 us.
    assert r2.completion - r1.completion == pytest.approx(
        n * cal.per_fragment + cal.rx_post, rel=1e-12
    )


def test_run_transfers_matches_incremental_for_sorted_posts():
    from repro.scale import BulkTransfer

    transfers = [
        BulkTransfer(0, 13, 8192, 0.0),
        BulkTransfer(1, 26, 5000, 1000.0),
        BulkTransfer(5, 22, 300, 2000.0),
    ]
    batch = FlowNetwork((3, 3, 3)).run_transfers(transfers)
    inc = FlowNetwork((3, 3, 3))
    for tr in transfers:
        inc.bulk_put(tr.src, tr.dst, tr.nbytes, tr.start, tr.src_kind, tr.dst_kind)
    assert batch.completions == inc.aggregates().completions
    assert batch.link_bytes == inc.aggregates().link_bytes
