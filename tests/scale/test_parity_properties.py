"""Property-based exact-vs-batched parity over random scenarios.

Hypothesis draws random small tori, random transfer batches (sizes,
start times, buffer kinds) and random fault seeds (dead-link subsets,
including severing ones), then asserts the flow engine's contract
against the per-packet golden driver:

* lossless aggregates (delivered bytes, per-link wire bytes and packet
  counts, delivered/undeliverable sets) are **bit-exact** — on every
  topology, payload mix and fault set, with no tolerance;
* link busy time agrees to 1e-6 (analytic in both modes);
* completion times and makespan stay inside the widest documented
  envelope (3e-1) — random batches may land in any traffic class,
  including the degenerate duplicate-tiny-flow case pinned below, which
  sits above the 2.5e-1 general-contention ceiling of
  test_parity_exact.py.

Tori are kept small (<= 18 nodes) so each example's exact-DES reference
stays in the millisecond range; the traffic *classes* these examples
fall into are the same ones the 16^3 sweeps use, because the flow model
is per-(src,dst-kind) calibrated and topology-agnostic.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apenet.buflist import BufferKind
from repro.scale import BulkTransfer, FlowNetwork, compare_aggregates, run_exact
from repro.units import us

pytestmark = pytest.mark.scale

# The widest class the random sweep can land in.  Wider than the 2.5e-1
# general-contention ceiling: hypothesis found tiny flows sharing one
# destination that deviated up to ~3.6e-1 before the flow model replayed
# each card's Nios II (an RX loop that serves a later fragment before an
# earlier flow's completion post, and GPU TX tasks queued behind RX
# work).  Those scenarios are pinned as explicit @examples so the bound
# stays honest; they now sit near 1e-2.
ENVELOPE_RTOL = 3e-1
BUSY_RTOL = 1e-6

DIMS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 3, 1), (3, 2, 2)]


def _size(dims):
    return dims[0] * dims[1] * dims[2]


def _all_links(dims):
    """Every directed link as (src_rank, dim, direction)."""
    nx, ny, nz = dims
    links = []
    for rank in range(_size(dims)):
        for dim, extent in enumerate(dims):
            if extent == 1:
                continue
            for direction in (1, -1):
                links.append((rank, dim, direction))
    return links


@st.composite
def scenarios(draw):
    dims = draw(st.sampled_from(DIMS))
    n_ranks = _size(dims)
    n_transfers = draw(st.integers(min_value=1, max_value=4))
    transfers = []
    for _ in range(n_transfers):
        src = draw(st.integers(min_value=0, max_value=n_ranks - 1))
        dst = draw(st.integers(min_value=0, max_value=n_ranks - 1))
        if dst == src:
            dst = (dst + 1) % n_ranks
        nbytes = draw(st.integers(min_value=1, max_value=20_000))
        start = us(float(draw(st.integers(min_value=0, max_value=40)) * 5))
        kinds = draw(
            st.sampled_from(
                [
                    (BufferKind.HOST, BufferKind.HOST),
                    (BufferKind.GPU, BufferKind.GPU),
                    (BufferKind.HOST, BufferKind.GPU),
                    (BufferKind.GPU, BufferKind.HOST),
                ]
            )
        )
        transfers.append(BulkTransfer(src, dst, nbytes, start, *kinds))
    # Fault seed -> dead-link subset (0-2 links, any channels, possibly
    # severing a destination entirely: the drivers must agree on that too).
    fault_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(fault_seed)
    n_dead = rng.randrange(3)
    dead = tuple(rng.sample(_all_links(dims), n_dead)) if n_dead else ()
    return dims, tuple(transfers), dead


#: Two identical 1-byte host-to-host flows on the same path of a 2-node
#: ring with a dead link (~2.8e-1 under the old free-time RX model).
#: Pinned so every run re-checks it.
_DUPLICATE_TINY_DETOUR = (
    (2, 1, 1),
    (
        BulkTransfer(0, 1, 1, 0.0, BufferKind.HOST, BufferKind.HOST),
        BulkTransfer(0, 1, 1, 0.0, BufferKind.HOST, BufferKind.HOST),
    ),
    ((1, 0, -1),),
)

#: The same pair with the second flow GPU-to-GPU (~3.6e-1 under the old
#: model, which charged the GPU source's feed gap to the shared RX).
_MIXED_KIND_TINY_PAIR = (
    (2, 1, 1),
    (
        BulkTransfer(0, 1, 1, 0.0, BufferKind.HOST, BufferKind.HOST),
        BulkTransfer(0, 1, 1, 0.0, BufferKind.GPU, BufferKind.GPU),
    ),
    ((1, 0, -1),),
)


@settings(max_examples=25, deadline=None)
@given(scenarios())
@example(_DUPLICATE_TINY_DETOUR)
@example(_MIXED_KIND_TINY_PAIR)
def test_random_scenarios_hold_the_parity_contract(scenario):
    dims, transfers, dead = scenario
    exact = run_exact(dims, transfers, dead_links=dead)
    flow = FlowNetwork(dims, dead_links=dead).run_transfers(transfers)
    report = compare_aggregates(exact, flow)

    # Lossless: exact equality, regardless of topology/payload/faults.
    assert report.bytes_exact, (dims, dead, "delivered bytes differ")
    assert report.link_bytes_exact, (dims, dead, "link wire bytes differ")
    assert report.link_packets_exact, (dims, dead, "link packet counts differ")
    assert report.delivered_set_exact, (dims, dead, "delivered sets differ")

    # Toleranced: inside the widest documented class.
    assert report.busy_max_rel <= BUSY_RTOL
    assert report.completion_max_rel <= ENVELOPE_RTOL
    assert abs(report.makespan_rel) <= ENVELOPE_RTOL


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_flow_engine_is_deterministic(scenario):
    """Same batch, fresh engine -> bit-identical aggregates (no DES, no RNG)."""
    dims, transfers, dead = scenario
    a = FlowNetwork(dims, dead_links=dead).run_transfers(transfers)
    b = FlowNetwork(dims, dead_links=dead).run_transfers(transfers)
    assert a.completions == b.completions
    assert a.link_bytes == b.link_bytes
    assert a.link_packets == b.link_packets
    assert a.link_busy == b.link_busy
    assert a.makespan == b.makespan
