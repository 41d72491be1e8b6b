"""Distributed level-synchronous BFS on the simulated GPU clusters (§V.E).

1-D vertex partition: rank r owns a contiguous block of vertices and the
CSR rows for them.  Per level, each rank:

1. expands its local frontier on the GPU (expansion kernel, timed by
   :class:`~repro.apps.bfs.perf.BfsKernelModel`),
2. buckets (neighbor, parent) pairs by owner rank,
3. exchanges bucket *counts*, then the buckets themselves — an all-to-all
   whose messages shrink and grow with the frontier, "so that the
   performance of the networking compartment is exercised in different
   regions of the bandwidth plot",
4. filters first visits on the GPU and forms the next frontier,
5. all-reduces the global frontier size to detect termination.

Transports: APEnet+ RDMA PUTs between GPU buffers (P2P=ON — the mode of
Table IV) or GPU-aware MPI over InfiniBand.  In both cases the vertex
data really rides the simulated network, so the distributed result can be
validated against :func:`~repro.apps.bfs.serial.serial_bfs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...apenet.buflist import BufferKind
from ...apenet.config import DEFAULT_CONFIG, ApenetConfig
from ...cuda.memcpy import memcpy_sync
from ...gpu.kernels import KernelLaunch
from ...mpi.comm import MpiWorld
from ...ib.cluster import build_ib_cluster
from ...net.cluster import build_apenet_cluster
from ...net.topology import TorusShape
from ...sim import DeadlockError, Simulator
from ...units import Gbps, us
from .csr import CSRGraph
from .perf import BfsKernelModel
from .rmat import rmat_edges
from .serial import UNVISITED, serial_bfs, traversed_edges, validate_bfs

__all__ = [
    "BfsConfig",
    "BfsResult",
    "BfsSuiteResult",
    "RankBreakdown",
    "run_bfs",
    "run_bfs_suite",
    "bfs_torus",
]

_PAIR_BYTES = 8  # (vertex, parent) as two packed uint32s


def bfs_torus(np_: int) -> TorusShape:
    """Torus shapes for the strong-scaling runs (Cluster I layout)."""
    shapes = {1: (1, 1, 1), 2: (2, 1, 1), 4: (4, 1, 1), 8: (4, 2, 1)}
    if np_ not in shapes:
        raise ValueError(f"NP={np_} not in the paper's scaling set")
    return TorusShape(*shapes[np_])


@dataclass
class BfsConfig:
    """One BFS run."""

    scale: int = 14
    edgefactor: int = 16
    np_: int = 2
    transport: str = "apenet"  # "apenet" | "ib"
    seed: int = 3
    root: Optional[int] = None  # default: the highest-degree vertex's block
    validate: bool = True
    link_bandwidth: float = Gbps(28)
    # Cluster II packs TWO M2075s per node, so two BFS ranks share one
    # ConnectX-2: approximated as an x4-slot per-rank share of the HCA.
    ib_pcie_lanes: int = 4
    apenet_config: Optional[ApenetConfig] = None

    def __post_init__(self):
        if self.transport not in ("apenet", "ib"):
            raise ValueError(f"unknown transport {self.transport!r}")

    @property
    def n_vertices(self) -> int:
        """Graph size |V| = 2^scale."""
        return 1 << self.scale


@dataclass
class RankBreakdown:
    """Per-rank time split (Fig 12)."""

    rank: int
    t_compute_ns: float = 0.0
    t_comm_ns: float = 0.0

    @property
    def comm_fraction(self) -> float:
        """Share of this rank's busy time spent communicating."""
        total = self.t_compute_ns + self.t_comm_ns
        return self.t_comm_ns / total if total else 0.0


@dataclass
class BfsResult:
    """Outcome of one traversal."""

    config: BfsConfig
    teps: float  # traversed edges per (real) second
    total_time_ns: float
    n_levels: int
    traversed: int
    breakdown: list[RankBreakdown] = field(default_factory=list)
    levels: Optional[np.ndarray] = None
    parents: Optional[np.ndarray] = None
    validation_errors: Optional[list[str]] = None


def _pack_pairs(vertices: np.ndarray, parents: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(vertices), dtype=np.uint32)
    out[0::2] = vertices.astype(np.uint32)
    out[1::2] = parents.astype(np.uint32)
    return out.view(np.uint8)


def _unpack_pairs(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    arr = np.frombuffer(bytes(raw), dtype=np.uint32)
    return arr[0::2].astype(np.int64), arr[1::2].astype(np.int64)


class _BfsRank:
    """Per-rank BFS state."""

    def __init__(self, cfg: BfsConfig, rank: int, node, graph: CSRGraph):
        self.cfg = cfg
        self.rank = rank
        self.node = node
        n = cfg.n_vertices
        self.chunk = math.ceil(n / cfg.np_)
        self.lo = rank * self.chunk
        self.hi = min(n, self.lo + self.chunk)
        self.rows = graph.row_slice(self.lo, self.hi)
        self.levels = np.full(n, UNVISITED, dtype=np.int64)
        self.parents = np.full(n, UNVISITED, dtype=np.int64)
        self.model = BfsKernelModel(node.gpu.spec)
        self.breakdown = RankBreakdown(rank)
        self.frontier = np.empty(0, dtype=np.int64)

    def owner(self, vertices: np.ndarray) -> np.ndarray:
        """Owning rank of each vertex id (1-D block partition)."""
        return vertices // self.chunk

    def expand(self) -> dict[int, np.ndarray]:
        """Neighbor (vertex, parent) buckets by destination rank."""
        nbrs, pars = self.rows.neighbors_of_set_global(self.frontier)
        owners = self.owner(nbrs)
        buckets: dict[int, np.ndarray] = {}
        for peer in range(self.cfg.np_):
            mask = owners == peer
            buckets[peer] = _pack_pairs(nbrs[mask], pars[mask])
        self._edges_scanned = len(nbrs) + len(self.frontier)
        return buckets

    def absorb(self, raws: list[np.ndarray], level: int) -> int:
        """Filter first visits from all received buckets; returns count."""
        cand_v, cand_p = [], []
        for raw in raws:
            if len(raw) == 0:
                continue
            v, p = _unpack_pairs(raw)
            cand_v.append(v)
            cand_p.append(p)
        self._candidates = 0
        if not cand_v:
            self.frontier = np.empty(0, dtype=np.int64)
            return 0
        v = np.concatenate(cand_v)
        p = np.concatenate(cand_p)
        self._candidates = len(v)
        fresh = self.levels[v] == UNVISITED
        v, p = v[fresh], p[fresh]
        if len(v) == 0:
            self.frontier = np.empty(0, dtype=np.int64)
            return 0
        uniq, first = np.unique(v, return_index=True)
        self.levels[uniq] = level + 1
        self.parents[uniq] = p[first]
        self.frontier = uniq
        return len(uniq)


def run_bfs(cfg: BfsConfig) -> BfsResult:
    """Execute one configuration end to end."""
    # Build the graph once (shared, read-only across the simulated ranks).
    edges = rmat_edges(cfg.scale, cfg.edgefactor, seed=cfg.seed)
    graph = CSRGraph.from_edges(cfg.n_vertices, edges)
    degrees = np.diff(graph.row_ptr)
    root = cfg.root if cfg.root is not None else int(np.argmax(degrees))

    sim = Simulator()
    world = None
    if cfg.transport == "apenet":
        acfg = (cfg.apenet_config or DEFAULT_CONFIG).with_(
            link_bandwidth=cfg.link_bandwidth
        )
        cluster = build_apenet_cluster(sim, bfs_torus(cfg.np_), acfg)
        nodes = cluster.nodes[: cfg.np_]
        comm_factory = lambda st: _ApenetComm(sim, cfg, st, nodes)
    else:
        cluster = build_ib_cluster(sim, cfg.np_, pcie_lanes=cfg.ib_pcie_lanes)
        world = MpiWorld(cluster)
        nodes = cluster.nodes
        comm_factory = lambda st: _MpiComm(sim, cfg, st, world)

    states = [_BfsRank(cfg, r, nodes[r], graph) for r in range(cfg.np_)]
    comms = [comm_factory(st) for st in states]
    for comm in comms:
        comm.link(comms)
    t_span = {}

    def rank_proc(st: _BfsRank, comm):
        yield from comm.setup()
        gpu = st.node.gpu
        if st.lo <= root < st.hi:
            st.levels[root] = 0
            st.parents[root] = root
            st.frontier = np.array([root], dtype=np.int64)
        t_span[st.rank] = sim.now
        level = 0
        while True:
            buckets = st.expand()
            t0 = sim.now
            yield gpu.compute.execute(
                KernelLaunch("expand", st.model.expand_ns(st._edges_scanned))
            )
            st.breakdown.t_compute_ns += sim.now - t0
            # Keep the local bucket; ship the rest.
            local = buckets.pop(st.rank)
            t1 = sim.now
            received = yield from comm.alltoall(buckets, level)
            st.breakdown.t_comm_ns += sim.now - t1
            new_count = st.absorb([local] + received, level)
            t2 = sim.now
            yield gpu.compute.execute(
                KernelLaunch("filter", st.model.filter_ns(max(st._candidates, 1)))
            )
            st.breakdown.t_compute_ns += sim.now - t2
            t3 = sim.now
            total_new = yield from comm.allreduce(new_count, level)
            st.breakdown.t_comm_ns += sim.now - t3
            level += 1
            if total_new == 0:
                break
        t_span[st.rank] = sim.now - t_span[st.rank]
        return level

    procs = [
        sim.process(rank_proc(st, comm), name=f"bfs.r{st.rank}")
        for st, comm in zip(states, comms)
    ]
    sim.run()
    if not all(p.processed for p in procs):
        raise DeadlockError("BFS ranks deadlocked")
    n_levels = max(p.value for p in procs)

    # Reassemble the global result from the owned slices.
    levels = np.full(cfg.n_vertices, UNVISITED, dtype=np.int64)
    parents = np.full(cfg.n_vertices, UNVISITED, dtype=np.int64)
    for st in states:
        levels[st.lo : st.hi] = st.levels[st.lo : st.hi]
        parents[st.lo : st.hi] = st.parents[st.lo : st.hi]

    # The run is over: free its buffers now rather than when the cluster's
    # reference cycles are next collected.
    for comm in comms:
        comm.release()
    if world is not None:
        world.finalize()

    total_time = max(t_span.values())
    traversed = traversed_edges(graph, levels)
    teps = traversed / (total_time / 1e9)
    errors = None
    if cfg.validate:
        errors = validate_bfs(graph, root, levels, parents)
        ref_levels, _ = serial_bfs(graph, root)
        if not np.array_equal(ref_levels, levels):
            errors.append("levels differ from the serial reference")
    return BfsResult(
        config=cfg,
        teps=teps,
        total_time_ns=total_time,
        n_levels=n_levels,
        traversed=traversed,
        breakdown=[st.breakdown for st in states],
        levels=levels,
        parents=parents,
        validation_errors=errors,
    )


@dataclass
class BfsSuiteResult:
    """A graph500-style multi-root campaign."""

    results: list[BfsResult]

    @property
    def harmonic_mean_teps(self) -> float:
        """The graph500 summary statistic."""
        inv = [1.0 / r.teps for r in self.results]
        return len(inv) / sum(inv)

    @property
    def min_teps(self) -> float:
        """Slowest traversal of the campaign."""
        return min(r.teps for r in self.results)

    @property
    def max_teps(self) -> float:
        """Fastest traversal of the campaign."""
        return max(r.teps for r in self.results)


def run_bfs_suite(cfg: BfsConfig, n_roots: int = 4) -> BfsSuiteResult:
    """Run *n_roots* traversals from distinct non-isolated roots.

    The graph500 specification samples 64 search keys and reports the
    harmonic-mean TEPS; this is the same campaign at a configurable root
    count (each traversal rebuilds a fresh cluster so runs are
    independent and deterministic).
    """
    edges = rmat_edges(cfg.scale, cfg.edgefactor, seed=cfg.seed)
    graph = CSRGraph.from_edges(cfg.n_vertices, edges)
    degrees = np.diff(graph.row_ptr)
    candidates = np.flatnonzero(degrees > 0)
    rng = np.random.default_rng(cfg.seed ^ 0xBF5)
    roots = rng.choice(candidates, size=min(n_roots, len(candidates)), replace=False)
    results = []
    for root in roots:
        sub = BfsConfig(
            scale=cfg.scale,
            edgefactor=cfg.edgefactor,
            np_=cfg.np_,
            transport=cfg.transport,
            seed=cfg.seed,
            root=int(root),
            validate=cfg.validate,
            link_bandwidth=cfg.link_bandwidth,
            ib_pcie_lanes=cfg.ib_pcie_lanes,
            apenet_config=cfg.apenet_config,
        )
        results.append(run_bfs(sub))
    return BfsSuiteResult(results)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------
#
# Counts travel as 8-byte control messages, then each non-empty bucket as
# one message sized exactly to its content.  In ``validate`` runs the
# bucket bytes really ride the simulated network and are read back out of
# the landing buffers; in timing-only runs the same messages are sent
# (identical timing) while the numpy payload short-circuits through an
# in-process mailbox.


class _ApenetComm:
    """All-to-all + allreduce over APEnet+ RDMA PUTs (P2P=ON)."""

    def __init__(self, sim, cfg: BfsConfig, st: _BfsRank, nodes):
        self.sim = sim
        self.cfg = cfg
        self.st = st
        self.nodes = nodes
        self.node = nodes[st.rank]
        self.mailbox: dict[tuple, np.ndarray] = {}
        self._peers: list["_ApenetComm"] = []
        np_ = cfg.np_
        me = st.rank
        # Exact worst-case bucket per peer: edges from my rows into the
        # peer's vertex range (a bucket can never exceed it).
        owners = st.rows.col_idx // st.chunk
        sizes = np.bincount(owners, minlength=np_) * _PAIR_BYTES + 64
        self.count_buf = self.node.gpu.alloc(max(8 * np_, 64))
        self.reduce_buf = self.node.gpu.alloc(max(8 * np_, 64))
        self.small_scratch = self.node.gpu.alloc(64)
        self.send_bufs = {
            p: self.node.gpu.alloc(int(sizes[p])) for p in range(np_) if p != me
        }
        self.data_bufs: dict[int, object] = {}
        # Events arriving out of phase (a fast peer's next-level counts can
        # beat rank 0's serialized allreduce results) are parked here.
        self._deferred: list = []

    def link(self, peers: list["_ApenetComm"]) -> None:
        """Wire peer references and allocate landing buffers to match the
        senders' worst-case bucket sizes."""
        self._peers = peers
        me = self.st.rank
        for p, peer in enumerate(peers):
            if p == me:
                continue
            self.data_bufs[p] = self.node.gpu.alloc(peer.send_bufs[me].size)

    def setup(self):
        """Generator: register landing buffers before the first level."""
        ep = self.node.endpoint
        yield from ep.register(self.count_buf.addr, self.count_buf.size)
        yield from ep.register(self.reduce_buf.addr, self.reduce_buf.size)
        yield from ep.register(self.small_scratch.addr, self.small_scratch.size)
        for buf in self.data_bufs.values():
            yield from ep.register(buf.addr, buf.size)
        for buf in self.send_bufs.values():
            yield from ep.register(buf.addr, buf.size)
        yield self.sim.timeout(us(50))  # registration settle

    def release(self) -> None:
        """Free this rank's GPU buffers (after the run)."""
        for buf in [
            self.count_buf,
            self.reduce_buf,
            self.small_scratch,
            *self.send_bufs.values(),
            *self.data_bufs.values(),
        ]:
            self.node.gpu.free(buf)

    def _wait_matching(self, pred):
        """Generator: next completion event satisfying *pred*."""
        for i, rec in enumerate(self._deferred):
            if pred(rec.tag):
                return self._deferred.pop(i)
        ep = self.node.endpoint
        while True:
            rec = yield from ep.wait_event()
            if pred(rec.tag):
                return rec
            self._deferred.append(rec)

    def alltoall(self, buckets: dict[int, np.ndarray], level: int):
        """Exchange buckets; returns the received raw byte arrays."""
        ep = self.node.endpoint
        np_ = self.cfg.np_
        me = self.st.rank
        # Phase 1: counts (8-byte control puts; value rides the tag).
        for peer, raw in buckets.items():
            pc = self._peers[peer]
            pc.mailbox[(level, me)] = raw
            yield from ep.put(
                peer, self.small_scratch.addr, pc.count_buf.addr + me * 8, 8,
                src_kind=BufferKind.GPU, tag=("cnt", level, me, len(raw)),
            )
        # Phase 2: data.
        for peer, raw in buckets.items():
            if len(raw) == 0:
                continue
            pc = self._peers[peer]
            if self.cfg.validate:
                self.send_bufs[peer].data[: len(raw)] = raw
            yield from ep.put(
                peer, self.send_bufs[peer].addr, pc.data_bufs[me].addr, len(raw),
                src_kind=BufferKind.GPU, tag=("data", level, me),
            )
        # Collect: all counts plus one data message per non-empty count.
        counts: dict[int, int] = {}
        data_got: set[int] = set()

        def complete() -> bool:
            if len(counts) < np_ - 1:
                return False
            return all(counts[p] == 0 or p in data_got for p in counts)

        while not complete():
            rec = yield from self._wait_matching(
                lambda t: t[0] in ("cnt", "data") and t[1] == level
            )
            tag = rec.tag
            if tag[0] == "cnt":
                counts[tag[2]] = tag[3]
            else:
                data_got.add(tag[2])
        out = []
        for p in sorted(counts):
            n = counts[p]
            if n == 0:
                out.append(np.empty(0, dtype=np.uint8))
            elif self.cfg.validate:
                out.append(np.array(self.data_bufs[p].data[:n]))
                self._peers[p].mailbox.pop((level, p), None)
                self.mailbox.pop((level, p), None)
            else:
                out.append(self.mailbox.pop((level, p)))
        return out

    def allreduce(self, value: int, level: int):
        """Sum across ranks via small PUTs through rank 0."""
        ep = self.node.endpoint
        np_ = self.cfg.np_
        me = self.st.rank
        if np_ == 1:
            return value
        if me == 0:
            total = value
            for _ in range(np_ - 1):
                rec = yield from self._wait_matching(
                    lambda t: t[0] == "red" and t[1] == level
                )
                total += rec.tag[2]
            for peer in range(1, np_):
                yield from ep.put(
                    peer, self.small_scratch.addr,
                    self._peers[peer].reduce_buf.addr, 8,
                    src_kind=BufferKind.GPU, tag=("red", level, total),
                )
            return total
        yield from ep.put(
            0, self.small_scratch.addr, self._peers[0].reduce_buf.addr + me * 8, 8,
            src_kind=BufferKind.GPU, tag=("red", level, value),
        )
        rec = yield from self._wait_matching(
            lambda t: t[0] == "red" and t[1] == level
        )
        return rec.tag[2]


class _MpiComm:
    """All-to-all + allreduce over MPI/IB with *manual* staging.

    The paper's MPI BFS predates usable GPU-aware MPI: the 2012 code stages
    GPU buckets through host bounce buffers with plain synchronous
    cudaMemcpy calls around host-pointer MPI operations, one peer at a time
    — a major reason its communication time is so much worse than the raw
    IB wire rate (and what the APEnet version beats at small scale).
    """

    def __init__(self, sim, cfg: BfsConfig, st: _BfsRank, world: MpiWorld):
        self.sim = sim
        self.cfg = cfg
        self.st = st
        self.world = world
        self.ep = world.endpoint(st.rank)
        self.mailbox: dict[tuple, np.ndarray] = {}
        self._peers: list["_MpiComm"] = []
        np_ = cfg.np_
        me = st.rank
        node = world.cluster.node(me)
        rt = node.runtime
        owners = st.rows.col_idx // st.chunk
        sizes = np.bincount(owners, minlength=np_) * _PAIR_BYTES + 64
        self.send_bufs = {
            p: node.gpu.alloc(int(sizes[p])) for p in range(np_) if p != me
        }
        self.send_stage = {
            p: rt.host_alloc(int(sizes[p])) for p in range(np_) if p != me
        }
        self.recv_bufs: dict[int, object] = {}
        self.recv_stage: dict[int, object] = {}
        self.cnt_send = {p: rt.host_alloc(8) for p in range(np_) if p != me}
        self.cnt_recv = {p: rt.host_alloc(8) for p in range(np_) if p != me}

    def link(self, peers: list["_MpiComm"]) -> None:
        """Allocate receive buffers sized to the senders' worst cases."""
        self._peers = peers
        me = self.st.rank
        node = self.world.cluster.node(me)
        for p, peer in enumerate(peers):
            if p == me:
                continue
            size = peer.send_bufs[me].size
            self.recv_bufs[p] = node.gpu.alloc(size)
            self.recv_stage[p] = node.runtime.host_alloc(size)

    def release(self) -> None:
        """Free this rank's GPU buffers and host staging (after the run)."""
        node = self.world.cluster.node(self.st.rank)
        for buf in [*self.send_bufs.values(), *self.recv_bufs.values()]:
            node.gpu.free(buf)
        for buf in [
            *self.send_stage.values(),
            *self.recv_stage.values(),
            *self.cnt_send.values(),
            *self.cnt_recv.values(),
        ]:
            node.runtime.host_free(buf)

    def setup(self):
        """Generator: MPI needs no registration; small settle delay."""
        yield self.sim.timeout(us(50))

    def alltoall(self, buckets: dict[int, np.ndarray], level: int):
        """Generator: counts, then manually staged data; returns buckets."""
        ep = self.ep
        me = self.st.rank
        rt = self.world.cluster.node(me).runtime
        reqs = []
        # Counts (8-byte host messages; the value rides the payload).
        for peer, raw in buckets.items():
            self._peers[peer].mailbox[(level, me)] = raw
            self.cnt_send[peer].data[:] = np.frombuffer(
                np.uint64(len(raw)).tobytes(), dtype=np.uint8
            )
            r = yield from ep.isend(
                peer, self.cnt_send[peer].addr, 8, tag=("cnt", level, me)
            )
            reqs.append(r)
        cnt_reqs = {}
        for peer in buckets:
            r = yield from ep.irecv(
                peer, self.cnt_recv[peer].addr, 8, tag=("cnt", level, peer)
            )
            cnt_reqs[peer] = r
        yield from ep.wait_all(list(cnt_reqs.values()) + reqs)
        counts = {
            p: int(np.frombuffer(bytes(self.cnt_recv[p].data), dtype=np.uint64)[0])
            for p in cnt_reqs
        }
        # Data phase: sync D2H stage per peer, host sends, then sync H2D.
        reqs = []
        for peer, raw in buckets.items():
            if len(raw) == 0:
                continue
            if self.cfg.validate:
                self.send_bufs[peer].data[: len(raw)] = raw
            yield from memcpy_sync(
                rt, self.send_stage[peer].addr, self.send_bufs[peer].addr, len(raw)
            )
            r = yield from ep.isend(
                peer, self.send_stage[peer].addr, len(raw), tag=("data", level, me)
            )
            reqs.append(r)
        for peer, n in counts.items():
            if n == 0:
                continue
            r = yield from ep.irecv(
                peer, self.recv_stage[peer].addr, n, tag=("data", level, peer)
            )
            reqs.append(r)
        yield from ep.wait_all(reqs)
        for peer, n in counts.items():
            if n == 0:
                continue
            yield from memcpy_sync(
                rt, self.recv_bufs[peer].addr, self.recv_stage[peer].addr, n
            )
        out = []
        for p in sorted(counts):
            n = counts[p]
            if n == 0:
                out.append(np.empty(0, dtype=np.uint8))
            elif self.cfg.validate:
                out.append(np.array(self.recv_bufs[p].data[:n]))
                self.mailbox.pop((level, p), None)
            else:
                out.append(self.mailbox.pop((level, p)))
        return out

    def allreduce(self, value: int, level: int):
        """Generator: termination reduction through the MPI layer."""
        result = yield from self.ep.allreduce(value, tag=("bfs-ar", level))
        return result
