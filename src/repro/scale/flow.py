"""Batched bulk-flow engine: the NumPy/analytic twin of the per-packet path.

Large RDMA PUTs are simulated as *flow records* instead of per-packet
events: fragment fan-out, wire bytes and per-link byte/packet/busy
accounting are computed analytically (these aggregates are **lossless**
— bit-identical to the exact per-packet driver in
:mod:`repro.scale.exact` by construction), while completion *times* come
from a probe-calibrated piecewise-affine latency model.

Calibration (:func:`calibrate`) runs a handful of tiny exact-DES probes
through the golden per-packet stack and fits

* a piecewise-linear base latency over fragment-count knots (exact at the
  knots, slope beyond the last knot equal to the steady per-fragment
  service time of the RX Nios II — the pipeline bottleneck, §IV.C),
* a per-hop term (pipelined link+router traversal),
* per-byte sensitivities for a partial last fragment, and
* back-to-back *occupancy* knots (the steady-state gap between
  consecutive same-path messages, the LogP ``g`` of the flow model).

Because the exact simulator is deterministic, calibration is a pure
function of the :class:`~repro.apenet.config.ApenetConfig` and the
buffer kinds; it is memoised module-wide.

Contention between concurrent flows is modelled per resource.  Each
source posts its PUTs sequentially and has one TX engine per buffer kind,
each held for its probed feed occupancy; every traversed link is a FIFO
queue with a free time.  Each card's Nios II is replayed as the FIFO
server it is in the per-packet stack, shared by the RX loop, the
completion-event posts and the GPU TX engine's tasks: a flow that lands
close behind another delays the earlier one's completion post, and RX
work delays a GPU send on the same card.  Same-path bursts reproduce the
exact driver's steady gap, and crossing traffic queues by load, not by
full latency; the parity suite in ``tests/scale/`` measures and pins the
documented tolerances.

Routing mirrors :class:`~repro.recovery.manager.RecoveryManager` hop by
hop: with dead links present every hop re-runs
:meth:`~repro.net.topology.TorusShape.route_avoiding` from the current
node, so flow paths are bit-identical to the per-packet router's.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..apenet.buflist import BufferKind
from ..apenet.config import DEFAULT_CONFIG, ApenetConfig, GpuTxVersion
from ..net.packet import MAX_PACKET_PAYLOAD, PACKET_HEADER_BYTES
from ..net.topology import TorusShape

__all__ = [
    "BulkTransfer",
    "TransferAggregates",
    "FlowCalibration",
    "FlowRecord",
    "FlowNetwork",
    "ParityReport",
    "calibrate",
    "compare_aggregates",
    "fragment_count",
    "last_fragment_bytes",
    "wire_bytes",
    "hop_route",
]

#: Fragment-count knots probed during calibration.  Base latency is exact
#: at every knot and linearly interpolated between them; beyond the last
#: knot the slope is the steady per-fragment RX service time, taken from
#: the last two (deep-pipeline) knots.
LATENCY_KNOTS: Tuple[int, ...] = (1, 2, 3, 4, 6, 9, 13, 17, 25, 33, 49, 65, 97, 129)

#: Payload-byte knots for single-fragment PUTs (the sub-4-KiB path is
#: visibly nonlinear: host-read request chunking, pipeline fill).
SINGLE_BYTE_KNOTS: Tuple[int, ...] = (64, 512, 1024, 2048, 3072, MAX_PACKET_PAYLOAD)

#: Last-fragment payload knots for multi-fragment PUTs (delta vs full,
#: probed at both a shallow (n=2) and a deep (n=9) pipeline and blended).
MULTI_LAST_KNOTS: Tuple[int, ...] = (64, 512, 1024, 2048, 3072, MAX_PACKET_PAYLOAD)

#: Fragment-count knots for the back-to-back occupancy probes.
OCCUPANCY_KNOTS: Tuple[int, ...] = (1, 9, 33)


# ---------------------------------------------------------------------------
# Shared transfer / aggregate types (used by both the flow and exact drivers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BulkTransfer:
    """One bulk RDMA PUT: *nbytes* from rank *src* to rank *dst*.

    ``start`` is the requested post time in ns after the common epoch
    (same-source transfers post sequentially, never earlier than this).
    """

    src: int
    dst: int
    nbytes: int
    start: float = 0.0
    src_kind: BufferKind = BufferKind.HOST
    dst_kind: BufferKind = BufferKind.HOST


@dataclass
class TransferAggregates:
    """Aggregate outcome of a batch of bulk transfers, mode-agnostic.

    The integer fields (``bytes_delivered``, ``link_bytes``,
    ``link_packets``) are the *lossless* aggregates: flow mode reproduces
    them bit-exactly.  ``completions`` (ns after the epoch, ``None`` for
    undeliverable transfers) and ``link_busy`` carry the documented
    tolerance.  Link keys are ``(src_rank, dim, direction)``.
    """

    bytes_delivered: int
    completions: Tuple[Optional[float], ...]
    link_bytes: Dict[Tuple[int, int, int], int]
    link_packets: Dict[Tuple[int, int, int], int]
    link_busy: Dict[Tuple[int, int, int], float]
    makespan: float


# ---------------------------------------------------------------------------
# Fragment arithmetic (shared, lossless)
# ---------------------------------------------------------------------------


def fragment_count(nbytes: int) -> int:
    """Number of wire packets a *nbytes* PUT fragments into (§IV.A)."""
    return max(1, math.ceil(nbytes / MAX_PACKET_PAYLOAD))


def last_fragment_bytes(nbytes: int) -> int:
    """Payload bytes of the final (possibly partial) fragment."""
    rem = nbytes % MAX_PACKET_PAYLOAD
    return MAX_PACKET_PAYLOAD if rem == 0 and nbytes > 0 else rem


def wire_bytes(nbytes: int) -> int:
    """Total bytes on every traversed link: payload + per-packet headers."""
    return nbytes + fragment_count(nbytes) * PACKET_HEADER_BYTES


# ---------------------------------------------------------------------------
# Routing (mirrors RecoveryManager._lookup hop by hop)
# ---------------------------------------------------------------------------


def normalize_dead_links(
    shape: TorusShape, dead_links: Iterable
) -> frozenset:
    """Canonicalise dead-link specs to ``(src_coord, dim, direction)``.

    Accepts either coordinates or ranks for the source endpoint, so test
    generators can speak ranks while the recovery layer speaks coords.
    """
    out = set()
    for src, dim, direction in dead_links:
        coord = shape.coord(src) if isinstance(src, int) else tuple(src)
        out.add((coord, int(dim), int(direction)))
    return frozenset(out)


def hop_route(
    shape: TorusShape,
    src: int,
    dst: int,
    dead: frozenset = frozenset(),
) -> Optional[Tuple[Tuple[int, int, int], ...]]:
    """Hop list ``((src_rank, dim, direction), ...)`` from *src* to *dst*.

    Fault-free this is the dimension-ordered :meth:`TorusShape.route`.
    With dead links it re-runs ``route_avoiding`` from every intermediate
    node and takes the *first* hop each time — exactly what the
    per-packet router does via ``RecoveryManager.next_hop``, so detours
    match the exact driver hop for hop.  Returns ``None`` when *dst* is
    unreachable (partition verdict).
    """
    cur = shape.coord(src)
    goal = shape.coord(dst)
    hops: List[Tuple[int, int, int]] = []
    while cur != goal:
        if dead:
            path = shape.route_avoiding(cur, goal, dead)
            if not path:
                return None
            dim, direction = path[0]
        else:
            dim, direction = shape.route(cur, goal)[0]
        hops.append((shape.rank(cur), dim, direction))
        cur = shape.neighbor(cur, dim, direction)
    return tuple(hops)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _interp(knots: Sequence[int], values: Sequence[float], x: float, tail_slope: float) -> float:
    """Piecewise-linear through (knots, values); linear tail beyond the end."""
    if x >= knots[-1]:
        return values[-1] + (x - knots[-1]) * tail_slope
    if x <= knots[0]:
        return values[0]
    i = bisect.bisect_left(knots, x)
    if knots[i] == x:
        return values[i]
    lo, hi = knots[i - 1], knots[i]
    frac = (x - lo) / (hi - lo)
    return values[i - 1] + frac * (values[i] - values[i - 1])


@dataclass(frozen=True)
class FlowCalibration:
    """Probe-fitted latency/occupancy model for one (src_kind, dst_kind).

    All times in ns.  ``knot_times[i]`` is the exact one-hop completion
    latency of a ``LATENCY_KNOTS[i]``-fragment PUT with a full last
    fragment; ``single_byte_times`` covers the sub-4-KiB single-fragment
    curve, ``multi_last_delta`` the partial-last-fragment correction, and
    ``occ_times`` the back-to-back message gap.  ``hop_base`` is the
    store-and-forward constant per extra hop (link + router latency); the
    last fragment's wire serialisation is added per hop at evaluation
    time, which is what makes the probed n=9 hop gap reproduce exactly.
    ``rx_handoff`` is the RX hand-off of a 1-byte fragment (service end to
    completion-post request), probed with two such PUTs landing on one
    destination together.
    """

    src_kind: BufferKind
    dst_kind: BufferKind
    bandwidth: float  # link bandwidth, bytes/ns (for hop serialisation)
    knots: Tuple[int, ...]
    knot_times: Tuple[float, ...]
    single_byte_knots: Tuple[int, ...]
    single_byte_times: Tuple[float, ...]
    multi_last_knots: Tuple[int, ...]
    multi_last_delta_shallow: Tuple[float, ...]  # probed at n=2
    multi_last_delta: Tuple[float, ...]  # probed at n=9 (deep pipeline)
    occ_knots: Tuple[int, ...]
    occ_times: Tuple[float, ...]
    occ_single_small: float  # back-to-back gap, n=1 at 512 B payload
    occ_tx_times: Tuple[float, ...]  # TX feed gap (same src, distinct dsts)
    occ_tx_single_small: float  # TX feed gap, n=1 at 512 B payload
    per_fragment: float  # steady RX service time per extra fragment
    hop_base: float  # per-extra-hop constant (link + router latency)
    rx_handoff: float  # 1-byte fragment: RX service end -> completion post
    rx_post: float  # Nios II completion-event post (config)

    # -- scalar model -------------------------------------------------------

    def _hop_cost(self, n: int, last: int) -> float:
        # Store-and-forward pacing: with n >= 2 fragments the *full* head
        # fragments pace every extra hop (the partial tail rides behind
        # them); a lone fragment paces itself.
        serial = MAX_PACKET_PAYLOAD if n > 1 else last
        return self.hop_base + (serial + PACKET_HEADER_BYTES) / self.bandwidth

    def completion_latency(self, n: int, last: int, hops: int) -> float:
        """Uncontended post-to-RX-completion latency of one PUT."""
        if n == 1:
            base = _interp(self.single_byte_knots, self.single_byte_times, last, 0.0)
        else:
            base = _interp(self.knots, self.knot_times, n, self.per_fragment)
            base += self._last_delta(n, last)
        return base + (hops - 1) * self._hop_cost(n, last)

    def _last_delta(self, n, last):
        deep = _interp(self.multi_last_knots, self.multi_last_delta, last, 0.0)
        shallow = _interp(self.multi_last_knots, self.multi_last_delta_shallow, last, 0.0)
        w = min(max((n - 2) / 7.0, 0.0), 1.0)
        return shallow + w * (deep - shallow)

    def occupancy(self, n: int, last: int) -> float:
        """Steady back-to-back gap between same-path PUTs (LogP ``g``)."""
        occ = _interp(self.occ_knots, self.occ_times, n, self.per_fragment)
        if n == 1:
            full = MAX_PACKET_PAYLOAD
            slope = (self.occ_times[0] - self.occ_single_small) / (full - 512)
            occ -= (full - last) * slope
        else:
            occ += self._last_delta(n, last)
        return max(occ, self.per_fragment)

    def tx_feed(self) -> float:
        """Steady source feed time per full fragment (TX probes, n=1 -> 9)."""
        return (self.occ_tx_times[1] - self.occ_tx_times[0]) / (
            self.occ_knots[1] - self.occ_knots[0]
        )

    # -- RX terms (the destination's Nios II loop) ---------------------------
    #
    # A single-fragment PUT of b bytes decomposes as
    #   latency(1, b) = rx_arrival(b) + per_fragment + rx_handoff_at(b) + rx_post:
    # the fragment reaches the RX FIFO, takes one Nios II service, its
    # payload write DMA hands off to the completion post, and the post
    # runs.  The hand-off is probed at 1 byte; the arrival grows with the
    # source read and the link serialisation of the extra bytes, and the
    # rest of the measured latency curve is hand-off (the write DMA).

    def rx_arrival(self, first: int) -> float:
        """Post-to-RX-FIFO time of a first fragment of *first* bytes (1 hop)."""
        tiny = (
            _interp(self.single_byte_knots, self.single_byte_times, 1, 0.0)
            - self.per_fragment
            - self.rx_handoff
            - self.rx_post
        )
        per_byte = self.tx_feed() / MAX_PACKET_PAYLOAD + 1.0 / self.bandwidth
        return tiny + (first - 1) * per_byte

    def rx_handoff_at(self, last: int) -> float:
        """Service end of a *last*-byte final fragment -> its post request."""
        single = _interp(self.single_byte_knots, self.single_byte_times, last, 0.0)
        return max(
            single - self.rx_arrival(last) - self.per_fragment - self.rx_post, 0.0
        )

    def tx_occupancy(self, n: int, last: int) -> float:
        """Source-side feed occupancy: the gap one PUT imposes on the next
        PUT from the same source (probed with distinct destinations, so
        downstream pacing is excluded)."""
        tx_tail = (self.occ_tx_times[-1] - self.occ_tx_times[-2]) / (
            self.occ_knots[-1] - self.occ_knots[-2]
        )
        occ = _interp(self.occ_knots, self.occ_tx_times, n, tx_tail)
        if n == 1:
            full = MAX_PACKET_PAYLOAD
            slope = (self.occ_tx_times[0] - self.occ_tx_single_small) / (full - 512)
            occ -= (full - last) * slope
        else:
            occ -= (MAX_PACKET_PAYLOAD - last) / self.bandwidth
        return max(occ, (last + PACKET_HEADER_BYTES) / self.bandwidth)

    # -- vectorised model (BFS alltoall batches) ----------------------------

    def completion_latency_array(
        self, nbytes: np.ndarray, hops: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`completion_latency` over payload/hop arrays."""
        nbytes = np.asarray(nbytes, dtype=np.int64)
        hops = np.asarray(hops, dtype=np.float64)
        n = np.maximum(1, -(-nbytes // MAX_PACKET_PAYLOAD))
        last = nbytes - (n - 1) * MAX_PACKET_PAYLOAD
        multi = np.interp(n, self.knots, self.knot_times)
        over = n > self.knots[-1]
        if np.any(over):
            multi = np.where(
                over,
                self.knot_times[-1] + (n - self.knots[-1]) * self.per_fragment,
                multi,
            )
        deep = np.interp(last, self.multi_last_knots, self.multi_last_delta)
        shallow = np.interp(last, self.multi_last_knots, self.multi_last_delta_shallow)
        w = np.clip((n - 2) / 7.0, 0.0, 1.0)
        multi = multi + shallow + w * (deep - shallow)
        single = np.interp(last, self.single_byte_knots, self.single_byte_times)
        base = np.where(n == 1, single, multi)
        serial = np.where(n > 1, MAX_PACKET_PAYLOAD, last)
        hop_cost = self.hop_base + (serial + PACKET_HEADER_BYTES) / self.bandwidth
        return base + (hops - 1) * hop_cost


_CAL_CACHE: Dict[tuple, FlowCalibration] = {}


def _config_blob(config: ApenetConfig) -> str:
    import dataclasses
    import json

    return json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":"), default=str
    )


def calibrate(
    config: Optional[ApenetConfig] = None,
    src_kind: BufferKind = BufferKind.HOST,
    dst_kind: BufferKind = BufferKind.HOST,
) -> FlowCalibration:
    """Fit a :class:`FlowCalibration` by probing the exact per-packet stack.

    Deterministic (the DES is seedless), so the
    result is memoised per ``(config, kinds)``.  Probes run on 2- and
    4-node line tori and take a few tiny simulations each.
    """
    config = config or DEFAULT_CONFIG
    key = (_config_blob(config), src_kind, dst_kind)
    cached = _CAL_CACHE.get(key)
    if cached is not None:
        return cached

    from .exact import run_exact  # lazy: exact.py imports this module's types

    full = MAX_PACKET_PAYLOAD
    half = MAX_PACKET_PAYLOAD // 2

    def probe(dims, transfers):
        agg = run_exact(dims, transfers, config=config)
        return agg.completions

    def one(dims, src, dst, nbytes):
        (t,) = probe(
            dims, [BulkTransfer(src, dst, nbytes, src_kind=src_kind, dst_kind=dst_kind)]
        )
        return t

    knot_times = tuple(one((2, 1, 1), 0, 1, n * full) for n in LATENCY_KNOTS)
    per_fragment = (knot_times[-1] - knot_times[-2]) / (
        LATENCY_KNOTS[-1] - LATENCY_KNOTS[-2]
    )

    # Single-fragment byte curve (shares its 4-KiB endpoint with knot 1).
    single_byte_times = tuple(
        one((2, 1, 1), 0, 1, b) if b != full else knot_times[0]
        for b in SINGLE_BYTE_KNOTS
    )

    # Partial-last-fragment correction for multi-fragment PUTs: deltas
    # against the full-last-fragment knots at a shallow (n=2) and a deep
    # (n=9) pipeline; intermediate depths blend linearly.
    base2 = knot_times[LATENCY_KNOTS.index(2)]
    base9 = knot_times[LATENCY_KNOTS.index(9)]
    multi_last_delta_shallow = tuple(
        (one((2, 1, 1), 0, 1, full + b) - base2) if b != full else 0.0
        for b in MULTI_LAST_KNOTS
    )
    multi_last_delta = tuple(
        (one((2, 1, 1), 0, 1, 8 * full + b) - base9) if b != full else 0.0
        for b in MULTI_LAST_KNOTS
    )

    # Hop term from the 2-hop vs 3-hop gap on line tori (intercept is the
    # 1-hop knot, so linearity across 1->2->3 hops is probed, not assumed).
    # The measured gap is latency + last-fragment store-and-forward; keep
    # the constant part and re-add the size-dependent serialisation at
    # evaluation time.
    t_h2 = one((4, 1, 1), 0, 2, 9 * full)
    t_h3 = one((6, 1, 1), 0, 3, 9 * full)
    hop_base = (t_h3 - t_h2) - (full + PACKET_HEADER_BYTES) / config.link_bandwidth


    # Back-to-back occupancy: two identical PUTs posted immediately after
    # one another; the completion gap is the steady per-message spacing.
    def back_to_back(nbytes):
        pair = [
            BulkTransfer(0, 1, nbytes, src_kind=src_kind, dst_kind=dst_kind),
            BulkTransfer(0, 1, nbytes, src_kind=src_kind, dst_kind=dst_kind),
        ]
        c0, c1 = probe((2, 1, 1), pair)
        return c1 - c0

    occ_times = tuple(back_to_back(n * full) for n in OCCUPANCY_KNOTS)
    occ_single_small = back_to_back(512)

    # TX feed occupancy: same source, *distinct* destinations (both one
    # hop on a 2x2 mesh), so the completion gap isolates the sender-side
    # feed cost from any downstream pacing.
    def tx_gap(nbytes):
        pair = [
            BulkTransfer(0, 1, nbytes, src_kind=src_kind, dst_kind=dst_kind),
            BulkTransfer(0, 2, nbytes, src_kind=src_kind, dst_kind=dst_kind),
        ]
        c0, c1 = probe((2, 2, 1), pair)
        return c1 - c0

    occ_tx_times = tuple(tx_gap(n * full) for n in OCCUPANCY_KNOTS)
    occ_tx_single_small = tx_gap(512)

    # RX hand-off: two 1-byte PUTs from distinct sources land on one
    # destination together.  The RX loop serves the second fragment while
    # the first one's payload write runs, so the first flow's completion
    # post waits one fragment service minus that hand-off.
    alone = one((2, 2, 1), 0, 1, 1)
    first = min(
        probe(
            (2, 2, 1),
            [
                BulkTransfer(0, 1, 1, src_kind=src_kind, dst_kind=dst_kind),
                BulkTransfer(2, 1, 1, src_kind=src_kind, dst_kind=dst_kind),
            ],
        )
    )
    rx_handoff = per_fragment - (first - alone)

    cal = FlowCalibration(
        src_kind=src_kind,
        dst_kind=dst_kind,
        bandwidth=config.link_bandwidth,
        knots=LATENCY_KNOTS,
        knot_times=knot_times,
        single_byte_knots=SINGLE_BYTE_KNOTS,
        single_byte_times=single_byte_times,
        multi_last_knots=MULTI_LAST_KNOTS,
        multi_last_delta_shallow=multi_last_delta_shallow,
        multi_last_delta=multi_last_delta,
        occ_knots=OCCUPANCY_KNOTS,
        occ_times=occ_times,
        occ_single_small=occ_single_small,
        occ_tx_times=occ_tx_times,
        occ_tx_single_small=occ_tx_single_small,
        per_fragment=per_fragment,
        hop_base=hop_base,
        rx_handoff=rx_handoff,
        rx_post=config.rx_event_post_cost,
    )
    _CAL_CACHE[key] = cal
    return cal


# ---------------------------------------------------------------------------
# The flow engine
# ---------------------------------------------------------------------------


def _nios_replay(
    rx_shapes: Sequence[tuple], tx_shapes: Sequence[tuple], post: float
) -> Tuple[List[float], List[float]]:
    """Replay one card's Nios II; return RX post ends and TX task ends.

    The Nios II is one FIFO server (:class:`~repro.apenet.nios.NiosII`)
    shared by three kinds of request, served in request-time order:

    * the RX loop takes fragments in arrival order and requests the next
      one only when the previous one's service ends
      (:class:`~repro.apenet.rx.RxEngine`);
    * a flow's completion-event post (*post* ns) is requested its
      hand-off time after its last fragment's service ends;
    * a GPU-source flow's TX engine requests its per-message startup,
      then one flow-control task per fragment, each after the previous
      one (:class:`~repro.apenet.gpu_tx.GpuTxEngine`).

    *rx_shapes* are ``(first arrival, feed, fragments, service, hand-off)``
    and *tx_shapes* ``(request, startup, fragments, chunk cost, chunk
    interval)`` tuples.  Returns each RX flow's post end and each TX
    flow's last task end.
    """
    fragments = sorted(
        (first + i * feed, k, service, i == n - 1, handoff)
        for k, (first, feed, n, service, handoff) in enumerate(rx_shapes)
        for i in range(n)
    )
    rx_done = [0.0] * len(rx_shapes)
    tx_done = [0.0] * len(tx_shapes)
    # (request time, tie-break, flow, TX task index or -1 for a post)
    queue: List[Tuple[float, int, int, int]] = []
    for k, (request, _startup, _n, _cost, _interval) in enumerate(tx_shapes):
        queue.append((request, k, k, 0))
    heapq.heapify(queue)
    tie = len(tx_shapes)
    nios_free = rx_ready = -math.inf
    j = 0
    while j < len(fragments) or queue:
        request = (
            max(fragments[j][0], rx_ready) if j < len(fragments) else math.inf
        )
        if queue and queue[0][0] <= request:
            asked, _tie, k, task = heapq.heappop(queue)
            if task < 0:
                nios_free = max(asked, nios_free) + post
                rx_done[k] = nios_free
                continue
            _request, startup, n, cost, interval = tx_shapes[k]
            nios_free = max(asked, nios_free) + (cost if task else startup)
            tx_done[k] = nios_free
            if task < n:
                gap = interval if task else 0.0
                heapq.heappush(queue, (nios_free + gap, tie, k, task + 1))
                tie += 1
            continue
        _arrival, k, service, last, handoff = fragments[j]
        j += 1
        nios_free = rx_ready = max(request, nios_free) + service
        if last:
            heapq.heappush(queue, (nios_free + handoff, tie, k, -1))
            tie += 1
    return rx_done, tx_done


@dataclass
class FlowRecord:
    """One bulk PUT as the flow engine saw it."""

    src: int
    dst: int
    nbytes: int
    start: float
    completion: Optional[float]
    n_fragments: int
    wire_bytes: int
    route: Tuple[Tuple[int, int, int], ...]

    @property
    def delivered(self) -> bool:
        return self.completion is not None


class FlowNetwork:
    """Batched bulk-transfer simulator over one torus.

    Feed it :meth:`bulk_put` calls (in post order) and read
    :meth:`aggregates`; byte/packet/route aggregates are bit-identical
    to the exact driver, completion times carry the calibrated model's
    documented tolerance.  No DES events are created — a 16^3 torus costs
    dictionary updates, not packets.
    """

    def __init__(
        self,
        dims: Tuple[int, int, int],
        config: Optional[ApenetConfig] = None,
        dead_links: Iterable = (),
    ):
        self.shape = TorusShape(*dims)
        self.config = config or DEFAULT_CONFIG
        self.dead = normalize_dead_links(self.shape, dead_links)
        self.records: List[FlowRecord] = []
        self.link_bytes: Dict[Tuple[int, int, int], int] = {}
        self.link_packets: Dict[Tuple[int, int, int], int] = {}
        self.link_busy: Dict[Tuple[int, int, int], float] = {}
        self._post_free: Dict[int, float] = {}  # src rank -> host CPU free
        # (src rank, source buffer kind) -> that TX engine's feed free
        self._tx_free: Dict[Tuple[int, BufferKind], float] = {}
        self._link_free: Dict[Tuple[int, int, int], float] = {}
        self._rx_flows: Dict[int, list] = {}  # dst rank -> admitted flows
        self._tx_flows: Dict[int, list] = {}  # src rank -> admitted GPU-source flows
        self._routes: Dict[Tuple[int, int], Optional[tuple]] = {}
        self._cals: Dict[Tuple[BufferKind, BufferKind], FlowCalibration] = {}
        self._obs_sim = None

    # -- plumbing -----------------------------------------------------------

    def _route(self, src: int, dst: int):
        key = (src, dst)
        if key not in self._routes:
            self._routes[key] = hop_route(self.shape, src, dst, self.dead)
        return self._routes[key]

    def calibration(
        self, src_kind: BufferKind = BufferKind.HOST, dst_kind: BufferKind = BufferKind.HOST
    ) -> FlowCalibration:
        """The (memoised) calibration used for this network's config."""
        key = (src_kind, dst_kind)
        if key not in self._cals:
            self._cals[key] = calibrate(self.config, src_kind, dst_kind)
        return self._cals[key]

    def _obs_scope(self):
        # Flow spans: when a TraceSession is active, anchor a (zero-event)
        # simulator so span_at() can record flow timelines with the model's
        # own computed times.  Costs one attribute test when tracing is off.
        from ..sim import core as _kernel

        if not _kernel.active_observers():
            return None
        if self._obs_sim is None:
            from ..sim import Simulator

            self._obs_sim = Simulator()
        return self._obs_sim._obs

    # -- the engine ---------------------------------------------------------
    #
    # Three stages, mirroring the hardware's structure:
    #
    #   TX feed: each source's PUTs post sequentially on the host CPU
    #   (driver costs from the config), and each source buffer kind has
    #   its own TX engine (host DMA reads vs GPU_P2P_TX).  A PUT starts
    #   *injecting* once it is posted and its engine is free
    #   (``inj = max(post, tx_free[src, kind])``), holding the engine for
    #   its probed feed occupancy — much shorter than the end-to-end
    #   latency.  A PUT's completion is ``inj + T_lat`` when uncontended.
    #
    #   Nios II: each card's firmware CPU serves, FIFO, the RX loop (one
    #   fragment at a time, in arrival order), each flow's completion-event
    #   post (requested a write-DMA hand-off after its last fragment) and
    #   the GPU TX engine's per-message and per-fragment tasks.  The RX
    #   loop requests the next fragment at once, so a flow arriving close
    #   behind delays the completion of the one in front by up to a
    #   fragment's service.  Cards shared by two or more flows replay
    #   their Nios II (:func:`_nios_replay`); a flow's delay is its time
    #   there minus its time alone.
    #
    #   links: flows are served in deterministic injection order, each
    #   link an independent FIFO queue:
    #   completion >= max(link_free, inj) + O_link + t_frag.
    #
    # Same-path bursts settle to the exact driver's steady gap (a flow's
    # fragment services plus its post); crossing traffic queues by load,
    # not by full latency, so cascades cannot build transitively the way a
    # naive critical-path model would.

    def _post_cost(self, n: int) -> float:
        """Host CPU time to post one PUT: the call plus its first ring batch."""
        cfg = self.config
        return (
            cfg.put_post_cost
            + cfg.driver_fragment_cost
            + min(n, 8) * cfg.driver_descriptor_cost
        )

    def _admit(self, tr: BulkTransfer, seq: int):
        """TX stage for one transfer: route, accounting, injection time."""
        route = self._route(tr.src, tr.dst)
        if route is None:
            return None
        n = fragment_count(tr.nbytes)
        last = last_fragment_bytes(tr.nbytes)
        wire = wire_bytes(tr.nbytes)
        link_occ = wire / self.config.link_bandwidth
        for hop in route:
            self.link_bytes[hop] = self.link_bytes.get(hop, 0) + wire
            self.link_packets[hop] = self.link_packets.get(hop, 0) + n
            self.link_busy[hop] = self.link_busy.get(hop, 0.0) + link_occ
        cal = self.calibration(tr.src_kind, tr.dst_kind)
        post = max(tr.start, self._post_free.get(tr.src, 0.0))
        self._post_free[tr.src] = post + self._post_cost(n)
        engine = (tr.src, tr.src_kind)
        inj = max(post, self._tx_free.get(engine, 0.0))
        self._tx_free[engine] = inj + cal.tx_occupancy(n, last)
        return (inj, seq, tr, route, cal, n, last, wire, link_occ)

    def _rx_shape(self, admitted) -> tuple:
        """How the destination's RX loop sees one admitted flow.

        ``(first arrival, feed, fragments, service, hand-off)``.  The RX
        terms belong to the destination, so they come from the
        host-source calibration for its buffer kind, whose probes are
        RX-bound; the first fragment arrives that RX tail before the
        flow's own single-fragment latency, plus its extra hops.
        """
        inj, _seq, tr, route, cal, n, last, _wire, _link_occ = admitted
        rx = self.calibration(BufferKind.HOST, tr.dst_kind)
        first = MAX_PACKET_PAYLOAD if n > 1 else last
        arrival = (
            inj
            + cal.completion_latency(1, first, 1)
            - rx.per_fragment
            - rx.rx_handoff_at(first)
            - rx.rx_post
            + (len(route) - 1) * cal._hop_cost(n, last)
            # the host builds a longer first descriptor batch before the
            # engine moves a byte
            + self._post_cost(n)
            - self._post_cost(1)
        )
        return (arrival, cal.tx_feed(), n, rx.per_fragment, rx.rx_handoff_at(last))

    def _tx_shape(self, admitted) -> tuple:
        """A GPU-source flow's TX tasks on its card's Nios II:
        ``(request, startup, fragments, chunk cost, chunk interval)``.

        The engine receives the job once the host has posted it.
        """
        inj, _seq, _tr, _route, _cal, n, _last, _wire, _link_occ = admitted
        cfg = self.config
        cost = 0.0 if cfg.gpu_tx_method == "bar1" else cfg.gpu_chunk_nios_cost()
        interval = (
            cfg.v2_request_interval if cfg.gpu_tx_version >= GpuTxVersion.V2 else 0.0
        )
        return (
            inj + self._post_cost(n),
            cfg.gpu_tx_msg_overhead,
            n if cost > 0 else 0,
            cost,
            interval,
        )

    def _nios_delays(self, admitted_items) -> Dict[int, float]:
        """Nios II contention delay per admitted flow, keyed by its ``seq``.

        Two passes over the cards' Nios II replays (:func:`_nios_replay`):
        first, a GPU-source flow's TX tasks queue behind the RX work of
        its own card; then every destination replays its RX loop with
        each arriving flow shifted by that TX delay.  A flow's delay is
        its TX delay plus its post time in the shared replay minus its
        post time alone.  Flows admitted earlier on this network (earlier
        :meth:`bulk_put` or :meth:`run_transfers` calls) still occupy the
        cards; their own completions are not revised.
        """
        for item in admitted_items:
            tr = item[2]
            self._rx_flows.setdefault(tr.dst, []).append(item)
            if tr.src_kind is BufferKind.GPU:
                self._tx_flows.setdefault(tr.src, []).append(item)
        post = self.config.rx_event_post_cost

        tx_delay: Dict[int, float] = {}  # id(admitted item) -> TX delay
        for card, senders in self._tx_flows.items():
            receivers = self._rx_flows.get(card, ())
            if len(senders) + len(receivers) < 2:
                continue
            tx = [self._tx_shape(item) for item in senders]
            rx = [self._rx_shape(item) for item in receivers]
            shared = _nios_replay(rx, tx, post)[1]
            for item, shape, end in zip(senders, tx, shared):
                tx_delay[id(item)] = end - _nios_replay((), (shape,), post)[1][0]

        delays = {item[1]: tx_delay.get(id(item), 0.0) for item in admitted_items}
        new = {id(item) for item in admitted_items}
        for dst in sorted({item[2].dst for item in admitted_items}):
            receivers = self._rx_flows[dst]
            senders = self._tx_flows.get(dst, ())
            if len(receivers) + len(senders) < 2:
                continue
            rx = []
            for item in receivers:
                arrival, *rest = self._rx_shape(item)
                rx.append((arrival + tx_delay.get(id(item), 0.0), *rest))
            shared = _nios_replay(rx, [self._tx_shape(item) for item in senders], post)[0]
            for item, shape, end in zip(receivers, rx, shared):
                if id(item) in new:
                    delays[item[1]] += end - _nios_replay((shape,), (), post)[0][0]
        return delays

    def _serve(self, admitted, nios_delay: float) -> FlowRecord:
        """Link stage for one admitted transfer: link queues, completion."""
        inj, _seq, tr, route, cal, n, last, wire, link_occ = admitted
        completion = inj + cal.completion_latency(n, last, len(route)) + nios_delay
        tail = cal.per_fragment
        for hop in route:
            link_free = self._link_free.get(hop, 0.0)
            completion = max(completion, max(link_free, inj) + link_occ + tail)
            self._link_free[hop] = max(link_free, inj) + link_occ
        rec = FlowRecord(
            tr.src, tr.dst, tr.nbytes, tr.start, completion, n, wire, route
        )
        scope = self._obs_scope()
        if scope is not None:
            scope.span_at(
                "flow",
                "bulk_put",
                inj,
                completion,
                src=tr.src,
                dst=tr.dst,
                nbytes=tr.nbytes,
                fragments=n,
                hops=len(route),
            )
        return rec

    def bulk_put(
        self,
        src: int,
        dst: int,
        nbytes: int,
        start: float = 0.0,
        src_kind: BufferKind = BufferKind.HOST,
        dst_kind: BufferKind = BufferKind.HOST,
    ) -> FlowRecord:
        """Post one bulk PUT as a flow record; returns its outcome.

        Incremental form: the flow is admitted and served immediately, so
        call in post order.  A flow's completion cannot see PUTs posted
        after it, so for batches with overlapping lifetimes prefer
        :meth:`run_transfers`, which serves in injection order like the
        fabric does.
        """
        tr = BulkTransfer(src, dst, nbytes, start, src_kind, dst_kind)
        seq = len(self.records)
        admitted = self._admit(tr, seq)
        if admitted is None:
            rec = FlowRecord(src, dst, nbytes, start, None, 0, 0, ())
        else:
            rec = self._serve(admitted, self._nios_delays([admitted]).get(seq, 0.0))
        self.records.append(rec)
        return rec

    def run_transfers(self, transfers: Sequence[BulkTransfer]) -> TransferAggregates:
        """Schedule a batch (posted like the exact driver posts) and aggregate.

        Sources post in ``(start, index)`` order; the fabric serves in
        deterministic ``(injection time, post index)`` order.
        """
        post_order = sorted(
            range(len(transfers)), key=lambda i: (transfers[i].start, i)
        )
        admitted = []
        recs: List[Optional[FlowRecord]] = [None] * len(transfers)
        for seq, i in enumerate(post_order):
            tr = transfers[i]
            item = self._admit(tr, seq)
            if item is None:
                recs[i] = FlowRecord(tr.src, tr.dst, tr.nbytes, tr.start, None, 0, 0, ())
            else:
                admitted.append((item, i))
        delays = self._nios_delays([item for item, _ in admitted])
        for item, i in sorted(admitted, key=lambda pair: (pair[0][0], pair[0][1])):
            recs[i] = self._serve(item, delays.get(item[1], 0.0))
        self.records.extend(recs[i] for i in post_order)
        return self._aggregate(recs)

    def _aggregate(self, recs) -> TransferAggregates:
        completions = tuple(r.completion for r in recs)
        delivered = sum(r.nbytes for r in recs if r.delivered)
        finished = [c for c in completions if c is not None]
        return TransferAggregates(
            bytes_delivered=delivered,
            completions=completions,
            link_bytes=dict(self.link_bytes),
            link_packets=dict(self.link_packets),
            link_busy=dict(self.link_busy),
            makespan=max(finished) if finished else 0.0,
        )

    def aggregates(self) -> TransferAggregates:
        """Aggregates over every flow posted so far (post order)."""
        return self._aggregate(self.records)


# ---------------------------------------------------------------------------
# Parity comparison
# ---------------------------------------------------------------------------


@dataclass
class ParityReport:
    """Exact-vs-flow comparison of two :class:`TransferAggregates`.

    The boolean fields are the lossless contract (must be exactly True);
    the ``*_rel`` fields are the worst relative deviations of the
    toleranced quantities.
    """

    bytes_exact: bool
    link_bytes_exact: bool
    link_packets_exact: bool
    delivered_set_exact: bool
    completion_max_rel: float
    busy_max_rel: float
    makespan_rel: float

    def lossless_ok(self) -> bool:
        return (
            self.bytes_exact
            and self.link_bytes_exact
            and self.link_packets_exact
            and self.delivered_set_exact
        )

    def within(self, time_rtol: float, busy_rtol: float = 1e-6) -> bool:
        return (
            self.lossless_ok()
            and self.completion_max_rel <= time_rtol
            and self.busy_max_rel <= busy_rtol
            and abs(self.makespan_rel) <= time_rtol
        )


def _max_rel(pairs) -> float:
    worst = 0.0
    for a, b in pairs:
        denom = max(abs(a), abs(b), 1e-12)
        worst = max(worst, abs(a - b) / denom)
    return worst


def compare_aggregates(
    exact: TransferAggregates, flow: TransferAggregates
) -> ParityReport:
    """Build the parity report: exact driver vs flow engine aggregates."""
    exact_links = {k: v for k, v in exact.link_bytes.items() if v}
    flow_links = {k: v for k, v in flow.link_bytes.items() if v}
    exact_pkts = {k: v for k, v in exact.link_packets.items() if v}
    flow_pkts = {k: v for k, v in flow.link_packets.items() if v}
    delivered_e = tuple(c is not None for c in exact.completions)
    delivered_f = tuple(c is not None for c in flow.completions)
    completion_pairs = [
        (a, b)
        for a, b in zip(exact.completions, flow.completions)
        if a is not None and b is not None
    ]
    busy_pairs = [
        (exact.link_busy.get(k, 0.0), flow.link_busy.get(k, 0.0))
        for k in set(exact_links) | set(flow_links)
    ]
    makespan_rel = (
        (flow.makespan - exact.makespan) / exact.makespan if exact.makespan else 0.0
    )
    return ParityReport(
        bytes_exact=exact.bytes_delivered == flow.bytes_delivered,
        link_bytes_exact=exact_links == flow_links,
        link_packets_exact=exact_pkts == flow_pkts,
        delivered_set_exact=delivered_e == delivered_f,
        completion_max_rel=_max_rel(completion_pairs),
        busy_max_rel=_max_rel(busy_pairs),
        makespan_rel=makespan_rel,
    )
