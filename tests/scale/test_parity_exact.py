"""Exact-vs-batched parity: scenario classes with documented tolerances.

Every scenario runs the same transfer batch through the per-packet golden
driver (:func:`repro.scale.exact.run_exact`) and the batched flow engine
(:class:`repro.scale.flow.FlowNetwork`), then diffs the aggregates:

* the **lossless** aggregates — delivered bytes, per-link wire bytes,
  per-link packet counts, the delivered set — must be *bit-exact* in
  every scenario (equality, not tolerance);
* **completion times** carry a per-scenario tolerance that widens with
  traffic entanglement.  The ceilings asserted here are the documented
  parity envelope (EXPERIMENTS.md "Scaling beyond the paper"):

  =========================  ==========  =====================
  traffic class              completion  makespan
  =========================  ==========  =====================
  non-overlapping             2e-3        2e-3
  dead-link detours           2e-3        2e-3
  same-path burst (at knot)   8e-2        8e-2
  same-path burst (off-knot)  2e-1        2e-1
  same-source overlap         3e-2        3e-2
  general cross contention    2.5e-1      5e-2
  =========================  ==========  =====================

  (The latency curve is probed at fragment-count knots and
  interpolated between them, so bursts of knot-aligned sizes track the
  exact driver much more tightly than off-knot sizes.)

Link busy time is analytic in both modes, so it is held to 1e-6
everywhere.  Tightening a ceiling requires a model change; loosening one
requires an EXPERIMENTS.md update in the same commit.
"""

from __future__ import annotations

import pytest

from repro.apenet.buflist import BufferKind
from repro.scale import BulkTransfer, FlowNetwork, compare_aggregates, run_exact
from repro.units import us

pytestmark = pytest.mark.scale

BUSY_RTOL = 1e-6


def parity(dims, transfers, dead_links=()):
    """Run both modes over the same batch; return (report, exact, flow)."""
    exact = run_exact(dims, transfers, dead_links=dead_links)
    net = FlowNetwork(dims, dead_links=dead_links)
    flow = net.run_transfers(transfers)
    return compare_aggregates(exact, flow), exact, flow


def assert_lossless(report):
    """The equality half of the contract — no tolerance involved."""
    assert report.bytes_exact, "delivered byte totals differ"
    assert report.link_bytes_exact, "per-link wire bytes differ"
    assert report.link_packets_exact, "per-link packet counts differ"
    assert report.delivered_set_exact, "delivered/undeliverable sets differ"


def test_non_overlapping_staggered_mixed_sizes():
    """Tightest class: flows spaced so no two lifetimes overlap."""
    transfers = [
        BulkTransfer(0, 13, 8192, 0.0),
        BulkTransfer(1, 26, 5000, us(150.0)),  # partial last fragment
        BulkTransfer(14, 3, 65536, us(300.0)),  # deep 16-fragment pipeline
        BulkTransfer(5, 22, 300, us(550.0)),  # sub-fragment payload
        BulkTransfer(9, 4, 12000, us(700.0)),
    ]
    report, exact, flow = parity((3, 3, 3), transfers)
    assert_lossless(report)
    assert report.within(2e-3, busy_rtol=BUSY_RTOL)
    # Spot check the strongest form: identical link byte maps, key by key.
    assert {k: v for k, v in exact.link_bytes.items() if v} == {
        k: v for k, v in flow.link_bytes.items() if v
    }


def test_gpu_kinds_same_source_overlap():
    """GPU/GPU transfers from one source with overlapping lifetimes."""
    transfers = [
        BulkTransfer(0, 13, 32768, 0.0, BufferKind.GPU, BufferKind.GPU),
        BulkTransfer(0, 22, 32768, us(5.0), BufferKind.GPU, BufferKind.GPU),
        BulkTransfer(0, 7, 8192, us(10.0), BufferKind.GPU, BufferKind.GPU),
    ]
    report, _exact, _flow = parity((3, 3, 3), transfers)
    assert_lossless(report)
    assert report.within(3e-2, busy_rtol=BUSY_RTOL)


def test_dead_link_detours_stay_lossless_and_tight():
    """Recovery-style reroutes: routes must match hop for hop."""
    dead = ((0, 0, 1),)  # +X out of the origin
    transfers = [
        BulkTransfer(0, 1, 8192, 0.0),  # direct hop is dead: must detour
        BulkTransfer(0, 13, 16384, us(200.0)),  # dimension-ordered X first
        BulkTransfer(4, 0, 4096, us(400.0)),  # reverse direction unaffected
    ]
    report, exact, flow = parity((3, 3, 3), transfers, dead_links=dead)
    assert_lossless(report)
    assert report.within(2e-3, busy_rtol=BUSY_RTOL)
    # Nothing crossed the dead channel in either mode.
    dead_key = (0, 0, 1)
    assert exact.link_bytes.get(dead_key, 0) == 0
    assert flow.link_bytes.get(dead_key, 0) == 0


def test_partitioned_destinations_agree_on_undeliverable():
    """Severing a 2-node line: both modes report the same delivered set."""
    dead = ((0, 0, 1), (0, 0, -1))  # both channels out of rank 0
    transfers = [
        BulkTransfer(0, 1, 8192, 0.0),  # unreachable
        BulkTransfer(1, 0, 8192, 0.0),  # reverse channels still alive
    ]
    report, exact, flow = parity((2, 1, 1), transfers, dead_links=dead)
    assert_lossless(report)
    assert exact.completions[0] is None and flow.completions[0] is None
    assert exact.completions[1] is not None and flow.completions[1] is not None
    assert report.within(2e-3, busy_rtol=BUSY_RTOL)


def test_same_path_burst_at_occupancy_knot():
    """Six 9-fragment PUTs down one path: occupancy-dominated, probed size."""
    transfers = [BulkTransfer(0, 13, 36864, 0.0) for _ in range(6)]
    report, _exact, _flow = parity((3, 3, 3), transfers)
    assert_lossless(report)
    assert report.completion_max_rel <= 8e-2
    assert abs(report.makespan_rel) <= 8e-2
    assert report.busy_max_rel <= BUSY_RTOL


def test_same_path_burst_off_knot():
    """Bursts of interpolated (off-knot) sizes carry the widest ceiling."""
    transfers = [BulkTransfer(0, 13, 16384, 0.0) for _ in range(6)]
    report, _exact, _flow = parity((3, 3, 3), transfers)
    assert_lossless(report)
    assert report.completion_max_rel <= 2e-1
    assert abs(report.makespan_rel) <= 2e-1
    assert report.busy_max_rel <= BUSY_RTOL


def test_general_cross_contention():
    """Many concurrent flows with crossing routes: the loosest class.

    Per-flow completions may drift up to 25% (queueing order inside the
    fabric differs from the model's injection-order service), but the
    batch-level makespan stays within 5% and every byte-level aggregate
    is still bit-exact.
    """
    transfers = []
    for i in range(18):
        src = (5 * i + 1) % 27
        dst = (11 * i + 13) % 27
        if src == dst:
            dst = (dst + 1) % 27
        transfers.append(BulkTransfer(src, dst, 4096 + 512 * (i % 7), us(2.0 * i)))
    report, _exact, _flow = parity((3, 3, 3), transfers)
    assert_lossless(report)
    assert report.completion_max_rel <= 2.5e-1
    assert abs(report.makespan_rel) <= 5e-2
    assert report.busy_max_rel <= BUSY_RTOL
