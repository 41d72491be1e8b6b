"""The PCIe fabric: topology, routing, and split-transaction engines.

The fabric is a tree (root complex at the top, switches below, endpoints at
the leaves — a dual-socket platform is modelled as a virtual top node whose
children are the two root complexes joined by QPI-latency links).  Each edge
is a full-duplex pair of :class:`~repro.sim.channel.Channel` objects sized
from :class:`~repro.pcie.tlp.LinkParams`.

Transactions:

* :meth:`PCIeFabric.write` — posted write.  Payload is fragmented into
  *quanta* (default 4 KiB of payload, i.e. a batch of MPS-sized TLPs whose
  summed wire overhead is accounted exactly); quanta pipeline hop by hop.
  The returned event fires when the last quantum has been absorbed by the
  target (including the target's sink rate limiter).
* :meth:`PCIeFabric.read` — one split transaction (request ≤ MRRS): a
  header-only MRd travels to the target, waits the target's first-access
  latency and rate limiter, and MPS-chunked completions travel back.  The
  event fires when the last completion lands at the initiator.
* :meth:`PCIeFabric.read_pipelined` — a windowed initiator issuing many
  MRRS-sized requests with a bounded number outstanding (how real DMA
  engines achieve bandwidth despite the read round-trip).

A split read, and every hop after the first of a write quantum, runs as a
*callback chain* rather than a process: a small ``__slots__`` object whose
completion callback on each hop's arrival event issues the next step
(request hops, target latency, target rate limiter, completion hops, then
the ``done`` event).  The chain starts from one zero-delay kernel event,
not inline: its first hop must claim its channel only after the same-time
events already queued, as a process's start event does, or same-time
contenders reorder.  So results are bit-identical to a process per
transaction, minus the never-awaited process-completion event.  Routes are
memoized per (source, destination) node pair; the tree only grows by
attaching leaves, so a cached route never goes stale.

Timing only: reads do not move Python data (the simulation gives callers
global visibility of memory objects); writes may carry an opaque payload
delivered to the target's ``on_write`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import Channel, Event, SimulationError, Simulator
from .device import PCIeDevice, ReadBehavior, WriteBehavior
from .tlp import DEFAULT_MPS, DEFAULT_MRRS, LinkParams, TlpKind, fragment, tlp_overhead

__all__ = ["PCIeFabric", "FabricNode", "FabricLink", "TransferRecord"]

_MEM_READ = TlpKind.MEM_READ
_MEM_WRITE = TlpKind.MEM_WRITE
_COMPLETION = TlpKind.COMPLETION
# A read request is a header-only TLP; completions carry payload.
_MRD_WIRE = tlp_overhead(_MEM_READ)
_CPL_OVERHEAD = tlp_overhead(_COMPLETION)

#: One hop of a memoized route: (link, direction, the direction's channel).
_Hop = tuple["FabricLink", str, Channel]


@dataclass
class TransferRecord:
    """One observed link crossing (fed to bus-analyzer taps)."""

    time: float
    kind: TlpKind
    addr: int
    payload_bytes: int
    wire_bytes: int
    direction: str  # "up" (toward root) or "down"
    requester: str


class FabricLink:
    """Full-duplex edge between a node and its parent."""

    def __init__(
        self,
        sim: Simulator,
        child: "FabricNode",
        parent: "FabricNode",
        params: LinkParams,
        latency: float,
    ):
        bw = params.effective_bandwidth
        self.params = params
        self.child = child
        self.parent = parent
        # "up" carries traffic toward the root, "down" away from it.
        self.up = Channel(sim, bw, latency, name=f"{child.name}->{parent.name}")
        self.down = Channel(sim, bw, latency, name=f"{parent.name}->{child.name}")
        self.taps: list[Callable[[TransferRecord], None]] = []

    def channel(self, direction: str) -> Channel:
        """The channel for *direction* ('up' or 'down')."""
        return self.up if direction == "up" else self.down

    def notify(self, rec: TransferRecord) -> None:
        """Feed *rec* to any attached analyzer taps."""
        for tap in self.taps:
            tap(rec)


class FabricNode:
    """A position in the tree: root complex, switch, or endpoint slot."""

    def __init__(self, name: str, kind: str, parent: Optional["FabricNode"]):
        self.name = name
        self.kind = kind  # "root" | "switch" | "endpoint"
        self.parent = parent
        self.uplink: Optional[FabricLink] = None
        self.device: Optional[PCIeDevice] = None
        self.depth = 0 if parent is None else parent.depth + 1

    def ancestors(self) -> list["FabricNode"]:
        """This node and all its ancestors, leaf-first."""
        chain = [self]
        node = self
        while node.parent is not None:
            node = node.parent
            chain.append(node)
        return chain


def _reraise(ev: Event) -> None:
    raise ev._value


class _SplitRead:
    """One split-transaction read, run as a chain of completion callbacks.

    ``request`` walks the request hops, ``access`` runs once the MRd has
    reached the target (first-access latency over, rate limiter next),
    ``complete`` walks the completion hops and finally fires ``done``.
    """

    __slots__ = (
        "fabric", "requester", "addr", "nbytes", "behavior", "fwd", "rev",
        "cpl_wire", "hop", "done",
    )

    def __init__(
        self,
        fabric: "PCIeFabric",
        requester: str,
        addr: int,
        nbytes: int,
        behavior: ReadBehavior,
        fwd: tuple[_Hop, ...],
        rev: tuple[_Hop, ...],
        done: Event,
    ):
        self.fabric = fabric
        self.requester = requester
        self.addr = addr
        self.nbytes = nbytes
        self.behavior = behavior
        self.fwd = fwd
        self.rev = rev
        # One completion TLP per MPS-aligned chunk the range touches.
        mps = fabric.mps
        n_cpl = (addr + nbytes - 1) // mps - addr // mps + 1
        self.cpl_wire = nbytes + n_cpl * _CPL_OVERHEAD
        self.hop = 0
        self.done = done

    def request(self, _ev: Optional[Event]) -> None:
        """Send the MRd over the next request hop, or reach the target."""
        fabric = self.fabric
        hop = self.hop
        try:
            if hop < len(self.fwd):
                self.hop = hop + 1
                fabric._issue(
                    self.fwd[hop], _MEM_READ, self.addr, self.nbytes, _MRD_WIRE,
                    self.requester,
                ).callbacks.append(self.request)
                return
            self.hop = 0
            latency = self.behavior.latency
            if latency > 0:
                fabric.sim.timeout(latency).callbacks.append(self.access)
                return
        except BaseException as exc:  # repro: noqa-SIM001 — crash boundary
            fabric._crash(exc)
            return
        self.access(None)

    def access(self, _ev: Optional[Event]) -> None:
        """First access is over: pace through the target's rate limiter."""
        limiter = self.behavior.limiter
        if limiter is None:
            self.complete(None)
            return
        try:
            limiter.consume(self.nbytes).callbacks.append(self.complete)
        except BaseException as exc:  # repro: noqa-SIM001 — crash boundary
            self.fabric._crash(exc)

    def complete(self, _ev: Optional[Event]) -> None:
        """Send completions over the next return hop, or fire ``done``."""
        hop = self.hop
        if hop == len(self.rev):
            self.done.succeed(self.nbytes)
            return
        self.hop = hop + 1
        fabric = self.fabric
        try:
            fabric._issue(
                self.rev[hop], _COMPLETION, self.addr, self.nbytes, self.cpl_wire,
                self.requester,
            ).callbacks.append(self.complete)
        except BaseException as exc:  # repro: noqa-SIM001 — crash boundary
            fabric._crash(exc)


class _WriteQuantum:
    """The hops after the first of one posted-write quantum, as a chain.

    ``forward`` walks the remaining hops, then the target's sink limiter;
    ``absorb`` delivers the payload (final quantum only) and fires ``done``.
    """

    __slots__ = (
        "fabric", "requester", "addr", "nbytes", "wire", "delivery",
        "behavior", "route", "hop", "done",
    )

    def __init__(
        self,
        fabric: "PCIeFabric",
        requester: str,
        addr: int,
        nbytes: int,
        wire: int,
        delivery: Optional[tuple[int, int, Any]],
        behavior: WriteBehavior,
        route: tuple[_Hop, ...],
        done: Event,
    ):
        self.fabric = fabric
        self.requester = requester
        self.addr = addr
        self.nbytes = nbytes
        self.wire = wire
        self.delivery = delivery
        self.behavior = behavior
        self.route = route
        self.hop = 1  # the producer already crossed route[0]
        self.done = done

    def forward(self, _ev: Optional[Event]) -> None:
        """Cross the next hop, or enter the target's sink limiter."""
        fabric = self.fabric
        hop = self.hop
        try:
            if hop < len(self.route):
                self.hop = hop + 1
                fabric._issue(
                    self.route[hop], _MEM_WRITE, self.addr, self.nbytes, self.wire,
                    self.requester,
                ).callbacks.append(self.forward)
                return
            limiter = self.behavior.limiter
            if limiter is not None:
                limiter.consume(self.nbytes).callbacks.append(self.absorb)
                return
        except BaseException as exc:  # repro: noqa-SIM001 — crash boundary
            fabric._crash(exc)
            return
        self.absorb(None)

    def absorb(self, _ev: Optional[Event]) -> None:
        """Absorbed by the target: deliver the payload, fire ``done``."""
        delivery = self.delivery
        on_write = self.behavior.on_write
        if delivery is not None and on_write is not None:
            try:
                on_write(*delivery)
            except BaseException as exc:  # repro: noqa-SIM001 — crash boundary
                self.fabric._crash(exc)
                return
        self.done.succeed(self.nbytes)


class PCIeFabric:
    """A tree of PCIe links with address-routed split transactions."""

    def __init__(
        self,
        sim: Simulator,
        mps: int = DEFAULT_MPS,
        mrrs: int = DEFAULT_MRRS,
        write_quantum: int = 4096,
    ):
        self.sim = sim
        self.mps = mps
        self.mrrs = mrrs
        self.write_quantum = write_quantum
        self.nodes: dict[str, FabricNode] = {}
        self.root: Optional[FabricNode] = None
        # Address index: sorted list of (base, limit, device).
        self._windows: list[tuple[int, int, PCIeDevice]] = []
        # Memoized routes, keyed by (src, dst) node (identity hash).
        self._routes: dict[tuple[FabricNode, FabricNode], tuple[_Hop, ...]] = {}
        # Fault-injection site (repro.faults): when set, every hop transfer
        # consults it for LCRC-triggered TLP replays.  None (the default)
        # leaves the transaction paths bit-identical to the fault-free
        # fabric — the hook is a single predictable branch per hop.
        self.faults = None

    def _issue(
        self,
        hop: _Hop,
        kind: TlpKind,
        addr: int,
        nbytes: int,
        wire: int,
        requester: str,
    ) -> Event:
        """Start one link crossing; returns the tail's arrival event.

        Analyzer taps see the nominal *wire* bytes; the channel carries
        them inflated by any TLP replays the fault site draws.
        """
        link, direction, channel = hop
        if link.taps:
            link.notify(
                TransferRecord(
                    self.sim.now, kind, addr, nbytes, wire, direction, requester
                )
            )
        faults = self.faults
        if faults is not None:
            wire += faults.tlp_extra_wire(channel.name, wire)
        return channel.transfer(wire)

    def _crash(self, exc: BaseException) -> None:
        """Surface a transaction chain's exception out of the kernel.

        A zero-delay failed event whose callback re-raises: the exception
        escapes ``sim.run()`` at the kernel step where a crashed process's
        completion event would have, so same-time events still run first.
        """
        ev = Event(self.sim)
        ev.callbacks.append(_reraise)
        ev.fail(exc)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_root(self, name: str = "root-complex") -> FabricNode:
        """Create the tree root (exactly one per fabric)."""
        if self.root is not None:
            raise SimulationError("fabric already has a root")
        node = FabricNode(name, "root", None)
        self.root = node
        self.nodes[name] = node
        return node

    def _attach(
        self,
        name: str,
        kind: str,
        parent: FabricNode,
        link: LinkParams,
        latency: float,
    ) -> FabricNode:
        if name in self.nodes:
            raise SimulationError(f"duplicate fabric node name {name!r}")
        node = FabricNode(name, kind, parent)
        node.uplink = FabricLink(self.sim, node, parent, link, latency)
        self.nodes[name] = node
        return node

    def add_switch(
        self,
        name: str,
        parent: FabricNode,
        link: LinkParams = LinkParams(gen=2, lanes=16),
        latency: float = 150.0,
    ) -> FabricNode:
        """Attach a switch (e.g. a PLX) below *parent*."""
        return self._attach(name, "switch", parent, link, latency)

    def add_endpoint(
        self,
        device: PCIeDevice,
        parent: FabricNode,
        link: LinkParams = LinkParams(gen=2, lanes=8),
        latency: float = 150.0,
    ) -> FabricNode:
        """Attach *device* below *parent* and index its address windows."""
        node = self._attach(device.name, "endpoint", parent, link, latency)
        node.device = device
        device.fabric = self
        device.node = node
        for win in device.windows:
            self.index_window(device, win)
        return node

    def index_window(self, device: PCIeDevice, win) -> None:
        """Register an address window for routing."""
        for base, limit, dev in self._windows:
            if not (win.limit <= base or limit <= win.base):
                raise SimulationError(
                    f"window clash: {device.name} [{win.base:#x},{win.limit:#x}) "
                    f"overlaps {dev.name}"
                )
        self._windows.append((win.base, win.limit, device))
        self._windows.sort()

    def resolve(self, addr: int) -> PCIeDevice:
        """The device owning *addr*."""
        for base, limit, dev in self._windows:
            if base <= addr < limit:
                return dev
        raise SimulationError(f"address 0x{addr:x} does not route anywhere")

    def link_of(self, name: str) -> FabricLink:
        """The uplink of node *name* (for analyzer attachment)."""
        node = self.nodes[name]
        if node.uplink is None:
            raise SimulationError(f"{name} is the root; it has no uplink")
        return node.uplink

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def path(
        self, src: FabricNode, dst: FabricNode
    ) -> list[tuple[FabricLink, str]]:
        """The ordered (link, direction) hops from *src* to *dst*."""
        return [(link, direction) for link, direction, _ in self._route(src, dst)]

    def _route(self, src: FabricNode, dst: FabricNode) -> tuple[_Hop, ...]:
        """The memoized hops from *src* to *dst*, with their channels."""
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            route = tuple(
                (link, direction, link.channel(direction))
                for link, direction in self._walk(src, dst)
            )
            self._routes[key] = route
        return route

    @staticmethod
    def _walk(src: FabricNode, dst: FabricNode) -> list[tuple[FabricLink, str]]:
        """Climb from *src* to the lowest common ancestor, descend to *dst*."""
        if src is dst:
            return []
        src_chain = src.ancestors()
        dst_chain = dst.ancestors()
        # Keyed by the node itself (identity hash): same membership semantics
        # as id()-keys but with no raw-address handling (DET001).
        dst_index = {n: i for i, n in enumerate(dst_chain)}
        hops: list[tuple[FabricLink, str]] = []
        # Climb from src until we hit a node on dst's ancestor chain.
        meet_idx = None
        for node in src_chain:
            if node in dst_index:
                meet_idx = dst_index[node]
                break
            hops.append((node.uplink, "up"))
        if meet_idx is None:
            raise SimulationError(f"no path {src.name} -> {dst.name}")
        # Descend from the meeting point to dst.
        down = [(n.uplink, "down") for n in dst_chain[:meet_idx]]
        hops.extend(reversed(down))
        return hops

    def _device_node(self, device: PCIeDevice) -> FabricNode:
        if device.node is None:
            raise SimulationError(f"{device.name} is not attached to the fabric")
        return device.node

    # ------------------------------------------------------------------
    # Posted writes
    # ------------------------------------------------------------------

    def write(
        self,
        initiator: PCIeDevice,
        addr: int,
        nbytes: int,
        payload: Any = None,
        quantum: Optional[int] = None,
    ) -> Event:
        """Posted write of *nbytes* to *addr*; fires on target absorption."""
        if nbytes <= 0:
            raise SimulationError("write needs a positive size")
        target = self.resolve(addr)
        behavior = target.describe_write(addr)
        route = self._route(self._device_node(initiator), self._device_node(target))
        q = quantum or self.write_quantum
        done = Event(self.sim)
        obs = self.sim._obs
        if obs is not None:
            span = obs.span("pcie", "write", initiator=initiator.name, nbytes=nbytes)
            done.callbacks.append(span.end_event)
        self.sim.process(
            self._write_proc(initiator, addr, nbytes, payload, behavior, route, q, done),
            name=f"wr:{initiator.name}->0x{addr:x}",
        )
        return done

    def _wire_bytes_for_write(self, addr: int, nbytes: int) -> int:
        # TLP count == number of MPS-aligned boundaries the range touches.
        n_tlps = (addr + nbytes - 1) // self.mps - addr // self.mps + 1
        return nbytes + n_tlps * tlp_overhead(TlpKind.MEM_WRITE)

    def _write_proc(self, initiator, addr, nbytes, payload, behavior, route, q, done):
        # Split into quanta that pipeline across hops.  The producer issues
        # each quantum's FIRST hop inline so that competing initiators
        # interleave fairly at shared links; the remaining hops run as a
        # detached callback chain, giving store-and-forward pipelining.
        groups = [
            (qaddr, qsize, self._wire_bytes_for_write(qaddr, qsize))
            for qaddr, qsize in fragment(addr, nbytes, max(q, self.mps))
        ]
        state = {"left": len(groups)}

        def _count(ev):
            state["left"] -= 1
            if state["left"] == 0:
                done.succeed(nbytes)

        sim = self.sim
        requester = initiator.name
        last = len(groups) - 1
        for i, (qaddr, qsize, wire) in enumerate(groups):
            if route:
                yield self._issue(route[0], _MEM_WRITE, qaddr, qsize, wire, requester)
            ev = Event(sim)
            ev.callbacks.append(_count)
            # The full payload is delivered once, with the whole write's base
            # address and size, when the final quantum is absorbed.
            delivery = (addr, nbytes, payload) if i == last else None
            rest = _WriteQuantum(
                self, requester, qaddr, qsize, wire, delivery, behavior, route, ev
            )
            # Zero-delay start, not inline: same-time contenders keep order.
            sim._wake_event(True, None).callbacks.append(rest.forward)

    # ------------------------------------------------------------------
    # Split-transaction reads
    # ------------------------------------------------------------------

    def read(self, initiator: PCIeDevice, addr: int, nbytes: int) -> Event:
        """One split-transaction read (≤ MRRS); fires when data is back."""
        if nbytes <= 0:
            raise SimulationError("read needs a positive size")
        if nbytes > self.mrrs:
            raise SimulationError(
                f"read of {nbytes} exceeds MRRS {self.mrrs}; "
                "use read_pipelined for bulk transfers"
            )
        target = self.resolve(addr)
        behavior = target.describe_read(addr)
        src = self._device_node(initiator)
        dst = self._device_node(target)
        sim = self.sim
        done = Event(sim)
        obs = sim._obs
        if obs is not None:
            span = obs.span("pcie", "read", initiator=initiator.name, nbytes=nbytes)
            done.callbacks.append(span.end_event)
        chain = _SplitRead(
            self, initiator.name, addr, nbytes, behavior,
            self._route(src, dst), self._route(dst, src), done,
        )
        # Zero-delay start, not inline: same-time contenders keep order.
        sim._wake_event(True, None).callbacks.append(chain.request)
        return done

    def read_pipelined(
        self,
        initiator: PCIeDevice,
        addr: int,
        nbytes: int,
        outstanding: int = 4,
        request_size: Optional[int] = None,
        on_data: Optional[Callable[[int, int], None]] = None,
    ) -> Event:
        """Windowed bulk read: many MRRS-sized requests, bounded in flight.

        ``on_data(chunk_addr, chunk_size)`` runs as each chunk's completions
        arrive (used by DMA engines to forward data onward).  The returned
        event fires when the final chunk lands.
        """
        if outstanding < 1:
            raise SimulationError("need at least one outstanding request")
        rs = request_size or self.mrrs
        if rs > self.mrrs:
            raise SimulationError(f"request_size {rs} exceeds MRRS {self.mrrs}")
        done = Event(self.sim)
        obs = self.sim._obs
        if obs is not None:
            span = obs.span(
                "pcie",
                "read_pipelined",
                initiator=initiator.name,
                nbytes=nbytes,
                outstanding=outstanding,
            )
            done.callbacks.append(span.end_event)
        self.sim.process(
            self._read_pipelined_proc(initiator, addr, nbytes, outstanding, rs, on_data, done),
            name=f"rdpipe:{initiator.name}",
        )
        return done

    def _read_pipelined_proc(self, initiator, addr, nbytes, outstanding, rs, on_data, done):
        chunks = list(fragment(addr, nbytes, rs))
        in_flight: list[Event] = []
        completed = {"n": 0}
        total = len(chunks)

        def _make_cb(caddr, csize):
            def _cb(ev):
                completed["n"] += 1
                if on_data is not None:
                    on_data(caddr, csize)
                if completed["n"] == total:
                    done.succeed(nbytes)

            return _cb

        for caddr, csize in chunks:
            # Respect the window: wait for the oldest request to finish.
            while len(in_flight) >= outstanding:
                oldest = in_flight.pop(0)
                if not oldest.processed:
                    yield oldest
            ev = self.read(initiator, caddr, csize)
            ev.callbacks.append(_make_cb(caddr, csize))
            in_flight.append(ev)
        # Drain.
        for ev in in_flight:
            if not ev.processed:
                yield ev
