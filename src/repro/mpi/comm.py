"""An MPI point-to-point layer over the InfiniBand fabric.

Implements the protocol structure that determines MVAPICH2/OpenMPI
performance in the paper:

* **eager** — small messages are RDMA-written into a pre-registered
  per-peer bounce ring at the receiver and copied out on match;
* **rendezvous** — large messages handshake (RTS → CTS) and then
  RDMA-write straight into the posted receive buffer;
* **GPU awareness** — device pointers are staged through host vbufs,
  synchronously for small messages and through a chunked *single-stream*
  pipeline for large ones (see :mod:`repro.mpi.gpu_aware`), reproducing
  the behaviour the paper contrasts against P2P.

All caller-facing operations are generators (``yield from``); ``isend`` /
``irecv`` return :class:`MpiRequest` handles with ``.done`` events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from ..ib.cluster import IBCluster, IBClusterNode
from ..sim import Event, Simulator
from ..units import KiB, us
from .gpu_aware import GpuProtocol, MVAPICH2Protocol

__all__ = ["MpiWorld", "MpiEndpoint", "MpiRequest", "EAGER_THRESHOLD"]

EAGER_THRESHOLD = 12 * KiB
_EAGER_SLOTS = 16  # bounce slots per peer (credit-managed vbufs)
_HOST_COPY_RATE = 6.0  # bytes/ns, eager copy-out

_req_ids = itertools.count(1)


@dataclass
class MpiRequest:
    """Handle for a non-blocking operation."""

    kind: str  # "send" | "recv"
    peer: int
    tag: Any
    nbytes: int
    done: Event = None

    def __post_init__(self):
        if self.done is None:
            raise ValueError("request needs a done event")


@dataclass
class _PostedRecv:
    src: int  # peer rank or -1 for ANY_SOURCE
    tag: Any
    addr: int
    nbytes: int
    req: MpiRequest = None


@dataclass
class _Envelope:
    """Metadata riding on every wire message."""

    kind: str  # "eager" | "rts" | "cts" | "data"
    src: int
    tag: Any
    nbytes: int
    req_id: int = 0
    dst_addr: int = 0  # CTS: where the sender should write


class MpiEndpoint:
    """Per-rank progress engine + communication calls."""

    def __init__(self, world: "MpiWorld", node: IBClusterNode):
        self.world = world
        self.node = node
        self.sim: Simulator = world.sim
        self.rank = node.rank
        node.hca.on_receive = self._on_receive
        self._posted: list[_PostedRecv] = []
        self._unexpected: list[tuple[_Envelope, int]] = []  # (env, eager_addr)
        # Per-peer eager bounce rings (several slots so back-to-back eager
        # sends from one peer don't overwrite each other before copy-out)
        # and a control-message landing zone.
        n = len(world.cluster)
        self._eager_rx = node.runtime.host_alloc(
            EAGER_THRESHOLD * _EAGER_SLOTS * max(1, n)
        )
        self._eager_seq_tx: dict[int, int] = {}  # per-destination counter
        self._ctrl = node.runtime.host_alloc(4096)
        # Rendezvous state: sender req_id -> (src_addr, CTS event);
        # receiver req_id -> posted recv awaiting the data message.
        self._rdv_waiting_cts: dict[int, tuple[int, Event]] = {}
        self._rdv_posted: dict[int, _PostedRecv] = {}
        self.gpu: GpuProtocol = world.protocol_factory(self)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def _eager_slot(self, src_rank: int, seq: int) -> int:
        base = self._eager_rx.addr + src_rank * _EAGER_SLOTS * EAGER_THRESHOLD
        return base + (seq % _EAGER_SLOTS) * EAGER_THRESHOLD

    def _is_device(self, addr: int) -> bool:
        return self.node.runtime.pointer_attributes(addr).is_device

    def _host_data(self, addr: int, nbytes: int):
        buf = self.node.runtime.host_buffer_at(addr)
        if buf._data is None:
            return None
        off = addr - buf.addr
        return buf.data[off : off + nbytes]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def isend(self, dst: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: start a send; returns an MpiRequest."""
        req = MpiRequest("send", dst, tag, nbytes, done=Event(self.sim))
        obs = self.sim._obs
        if obs is not None:
            span = obs.span("mpi", "send", dst=dst, nbytes=nbytes)
            req.done.callbacks.append(span.end_event)
        if self._is_device(addr):
            yield from self.gpu.send(dst, addr, nbytes, tag, req)
        else:
            yield from self._host_isend(dst, addr, nbytes, tag, req)
        return req

    def send(self, dst: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: blocking send (returns when the buffer is reusable)."""
        req = yield from self.isend(dst, addr, nbytes, tag)
        yield req.done
        return req

    def irecv(self, src: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: post a receive; returns an MpiRequest."""
        req = MpiRequest("recv", src, tag, nbytes, done=Event(self.sim))
        obs = self.sim._obs
        if obs is not None:
            span = obs.span("mpi", "recv", src=src, nbytes=nbytes)
            req.done.callbacks.append(span.end_event)
        if self._is_device(addr):
            yield from self.gpu.recv(src, addr, nbytes, tag, req)
        else:
            yield from self._host_irecv(src, addr, nbytes, tag, req)
        return req

    def recv(self, src: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: blocking receive."""
        req = yield from self.irecv(src, addr, nbytes, tag)
        yield req.done
        return req

    def sendrecv(self, dst, send_addr, src, recv_addr, nbytes, tag: Any = 0):
        """Generator: simultaneous send + receive (halo-exchange staple)."""
        rreq = yield from self.irecv(src, recv_addr, nbytes, tag)
        sreq = yield from self.isend(dst, send_addr, nbytes, tag)
        yield self.sim.all_of([rreq.done, sreq.done])
        return rreq, sreq

    def wait_all(self, requests):
        """Generator: wait for every request in *requests*."""
        pending = [r.done for r in requests if not r.done.processed]
        if pending:
            yield self.sim.all_of(pending)

    # ------------------------------------------------------------------
    # Host-pointer protocol
    # ------------------------------------------------------------------

    def _host_isend(self, dst, addr, nbytes, tag, req):
        hca = self.node.hca
        yield self.sim.timeout(hca.post_cost)
        data = self._host_data(addr, nbytes)
        env = _Envelope("eager", self.rank, tag, nbytes, req_id=next(_req_ids))
        dst_ep = self.world.endpoint(dst)
        if nbytes <= EAGER_THRESHOLD:
            seq = self._eager_seq_tx.get(dst, 0)
            self._eager_seq_tx[dst] = seq + 1
            env.dst_addr = dst_ep._eager_slot(self.rank, seq)
            ev = hca.rdma_write(
                dst, addr, env.dst_addr, nbytes, meta=env, data=data
            )
            # Eager: the local buffer is reusable once the HCA has read it.
            ev.callbacks.append(lambda _e: req.done.succeed(req))
        else:
            env.kind = "rts"
            cts_ev = Event(self.sim)
            self._rdv_waiting_cts[env.req_id] = (addr, cts_ev)
            hca.rdma_write(dst, addr, dst_ep._ctrl.addr, 64, meta=env)
            # Progress continues in _on_cts once the receiver matches.
            cts_ev.callbacks.append(
                lambda ev, e=env, a=addr, n=nbytes, r=req, d=dst: self._rdv_send_data(
                    d, a, n, e, ev.value, r
                )
            )

    def _rdv_send_data(self, dst, addr, nbytes, env, dst_addr, req):
        data = self._host_data(addr, nbytes)
        denv = _Envelope("data", self.rank, env.tag, nbytes, req_id=env.req_id)
        ev = self.node.hca.rdma_write(dst, addr, dst_addr, nbytes, meta=denv, data=data)
        ev.callbacks.append(lambda _e: req.done.succeed(req))

    def _host_irecv(self, src, addr, nbytes, tag, req):
        yield self.sim.timeout(self.node.hca.completion_cost)
        posted = _PostedRecv(src, tag, addr, nbytes, req)
        # Check the unexpected queue first.
        for i, (env, eager_addr) in enumerate(self._unexpected):
            if self._matches(posted, env):
                del self._unexpected[i]
                if env.kind == "rts":
                    self._send_cts(env, posted)
                else:
                    self._complete_eager(posted, env, eager_addr)
                return
        self._posted.append(posted)

    # ------------------------------------------------------------------
    # Progress engine (HCA receive callbacks)
    # ------------------------------------------------------------------

    @staticmethod
    def _matches(posted: _PostedRecv, env: _Envelope) -> bool:
        return (posted.src in (-1, env.src)) and posted.tag == env.tag

    def _find_posted(self, env: _Envelope) -> Optional[_PostedRecv]:
        for i, p in enumerate(self._posted):
            if self._matches(p, env):
                return self._posted.pop(i)
        return None

    def _on_receive(self, msg) -> None:
        env: _Envelope = msg.meta
        if env.kind == "eager":
            posted = self._find_posted(env)
            if posted is None:
                self._unexpected.append((env, env.dst_addr))
            else:
                self._complete_eager(posted, env, env.dst_addr)
        elif env.kind == "rts":
            posted = self._find_posted(env)
            if posted is None:
                self._unexpected.append((env, 0))
            else:
                self._send_cts(env, posted)
        elif env.kind == "cts":
            entry = self._rdv_waiting_cts.pop(env.req_id, None)
            if entry is None:
                raise RuntimeError(f"rank {self.rank}: stray CTS {env.req_id}")
            _addr, cts_ev = entry
            cts_ev.succeed(env.dst_addr)
        elif env.kind == "data":
            # Rendezvous payload landed directly in the posted buffer.
            pending = self._rdv_posted.pop(env.req_id)
            pending.req.done.succeed(pending.req)
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown envelope kind {env.kind!r}")

    def _send_cts(self, env: _Envelope, posted: _PostedRecv) -> None:
        self._rdv_posted[env.req_id] = posted
        cts = _Envelope(
            "cts", self.rank, env.tag, env.nbytes, req_id=env.req_id,
            dst_addr=posted.addr,
        )
        src_ep = self.world.endpoint(env.src)
        self.node.hca.rdma_write(env.src, posted.addr, src_ep._ctrl.addr, 64, meta=cts)

    def _complete_eager(self, posted: _PostedRecv, env: _Envelope, eager_addr: int) -> None:
        # Copy out of the bounce ring into the user buffer.
        def copier():
            obs = self.sim._obs
            span = None
            if obs is not None:
                span = obs.span("mpi", "eager_copy", nbytes=env.nbytes)
            yield self.sim.timeout(env.nbytes / _HOST_COPY_RATE + us(0.2))
            if span is not None:
                span.end()
            src_buf = self.node.runtime.host_buffer_at(eager_addr)
            if src_buf._data is not None:
                data = src_buf.read_bytes(eager_addr, env.nbytes)
                dst_buf = self.node.runtime.host_buffer_at(posted.addr)
                dst_buf.write_bytes(posted.addr, data)
            posted.req.done.succeed(posted.req)

        self.sim.process(copier(), name=f"mpi{self.rank}.eagercp")

    # ------------------------------------------------------------------
    # Collectives (linear implementations — cluster sizes are ≤ 12)
    # ------------------------------------------------------------------

    def barrier(self, tag: Any = "_barrier"):
        """Generator: linear fan-in to rank 0, fan-out back."""
        n = len(self.world.cluster)
        if n == 1:
            return
        scratch = self.world.scratch(self.rank)
        if self.rank == 0:
            for src in range(1, n):
                yield from self.recv(src, scratch, 1, tag=(tag, "in"))
            for dst in range(1, n):
                yield from self.send(dst, scratch, 1, tag=(tag, "out"))
        else:
            yield from self.send(0, scratch, 1, tag=(tag, "in"))
            yield from self.recv(0, scratch, 1, tag=(tag, "out"))

    def allreduce(self, value, op=None, tag: Any = "_allreduce"):
        """Generator: reduce a Python value with *op* (default sum) to all.

        Values ride the envelope tag (control-plane data, not simulated
        payload bytes beyond a small message).
        """
        import operator

        op = op or operator.add
        n = len(self.world.cluster)
        if n == 1:
            return value
        scratch = self.world.scratch(self.rank)
        if self.rank == 0:
            acc = value
            for src in range(1, n):
                yield from self.recv(src, scratch, 8, tag=(tag, "v", src))
                acc = op(acc, self.world._collect_box.pop((tag, src)))
            for dst in range(1, n):
                self.world._collect_box[(tag, "r", dst)] = acc
                yield from self.send(dst, scratch, 8, tag=(tag, "res", dst))
            return acc
        else:
            self.world._collect_box[(tag, self.rank)] = value
            yield from self.send(0, scratch, 8, tag=(tag, "v", self.rank))
            yield from self.recv(0, scratch, 8, tag=(tag, "res", self.rank))
            return self.world._collect_box.pop((tag, "r", self.rank))


class MpiWorld:
    """All endpoints of one MPI job."""

    def __init__(self, cluster: IBCluster, protocol_factory=None):
        self.sim = cluster.sim
        self.cluster = cluster
        self.protocol_factory = protocol_factory or MVAPICH2Protocol
        self._endpoints: list[MpiEndpoint] = []
        self._scratch: list[int] = []
        self._collect_box: dict = {}
        for node in cluster.nodes:
            ep = MpiEndpoint(self, node)
            self._endpoints.append(ep)
            self._scratch.append(node.runtime.host_alloc(256).addr)

    def finalize(self) -> None:
        """Free every endpoint's eager ring and control landing zone.

        The ``MPI_Finalize`` analogue: call once the job's traffic is over.
        The rings' backing arrays are released at once, so a finished job
        pins no host memory while its objects wait for garbage collection.
        A second call is a no-op.
        """
        scratch, self._scratch = self._scratch, []
        for ep, addr in zip(self._endpoints, scratch):
            rt = ep.node.runtime
            rt.host_free(ep._eager_rx)
            rt.host_free(ep._ctrl)
            rt.host_free(rt.host_buffer_at(addr))

    def endpoint(self, rank: int) -> MpiEndpoint:
        """The endpoint for *rank*."""
        return self._endpoints[rank]

    def scratch(self, rank: int) -> int:
        """A small host scratch address on *rank* (collectives plumbing)."""
        return self._scratch[rank]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self._endpoints)
