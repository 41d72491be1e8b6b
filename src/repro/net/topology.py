"""3D torus topology math: coordinates, ranks, dimension-ordered routes.

APEnet+ "implements a dimension-ordered static routing algorithm" (§III.B)
over a 3D torus with six links per node (X±, Y±, Z±).  The paper's
Cluster I is a 4×2 torus (8 nodes; the Z dimension is size 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["TorusShape", "Coord", "DIMS"]

Coord = tuple[int, int, int]

# Port naming: (dimension index, direction). "X+" = (0, +1), etc.
DIMS = ("X", "Y", "Z")


@dataclass(frozen=True)
class TorusShape:
    """Dimensions of a 3D torus (any dimension may be 1)."""

    nx: int
    ny: int
    nz: int = 1

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("torus dimensions must be >= 1")

    @property
    def size(self) -> int:
        """Number of nodes."""
        return self.nx * self.ny * self.nz

    @property
    def dims(self) -> tuple[int, int, int]:
        """(nx, ny, nz)."""
        return (self.nx, self.ny, self.nz)

    def coords(self) -> Iterator[Coord]:
        """All coordinates in rank order."""
        for z in range(self.nz):
            for y in range(self.ny):
                for x in range(self.nx):
                    yield (x, y, z)

    def rank(self, coord: Coord) -> int:
        """Linear rank of *coord* (x fastest)."""
        x, y, z = self.wrap(coord)
        return x + self.nx * (y + self.ny * z)

    def coord(self, rank: int) -> Coord:
        """Coordinate of linear *rank*."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for {self.size} nodes")
        x = rank % self.nx
        y = (rank // self.nx) % self.ny
        z = rank // (self.nx * self.ny)
        return (x, y, z)

    def wrap(self, coord: Coord) -> Coord:
        """Apply periodic boundary conditions."""
        return (coord[0] % self.nx, coord[1] % self.ny, coord[2] % self.nz)

    def neighbor(self, coord: Coord, dim: int, direction: int) -> Coord:
        """The adjacent coordinate along *dim* in *direction* (±1)."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        delta = [0, 0, 0]
        delta[dim] = direction
        return self.wrap(tuple(c + d for c, d in zip(coord, delta)))

    def _step(self, delta: int, extent: int) -> int:
        """Shortest-path direction for a signed offset on a ring."""
        if delta == 0:
            return 0
        # Wrap to (-extent/2, extent/2]; ties go positive (deterministic).
        delta %= extent
        if delta * 2 > extent:
            delta -= extent
        return 1 if delta > 0 else -1

    def route(self, src: Coord, dst: Coord) -> list[tuple[int, int]]:
        """Dimension-ordered hop list [(dim, direction), ...] src -> dst.

        Corrects X fully, then Y, then Z, taking the shorter way around
        each ring (static, deterministic).
        """
        src = self.wrap(src)
        dst = self.wrap(dst)
        hops: list[tuple[int, int]] = []
        cur = list(src)
        for dim, extent in enumerate(self.dims):
            while cur[dim] != dst[dim]:
                step = self._step(dst[dim] - cur[dim], extent)
                hops.append((dim, step))
                cur[dim] = (cur[dim] + step) % extent
        return hops

    def distance(self, src: Coord, dst: Coord) -> int:
        """Hop count of the dimension-ordered route."""
        return len(self.route(src, dst))

    def neighbors(self, coord: Coord) -> Iterator[tuple[int, int, Coord]]:
        """Outgoing links of *coord* as (dim, direction, neighbor).

        Deterministic order (dims ascending, +1 before -1) — the detour
        BFS below ties its tie-breaks to this order, so routes are stable
        run to run.  Extent-1 dimensions have no links.
        """
        for dim, extent in enumerate(self.dims):
            if extent == 1:
                continue
            for direction in (1, -1):
                yield dim, direction, self.neighbor(coord, dim, direction)

    def route_avoiding(
        self, src: Coord, dst: Coord, dead: "frozenset | set"
    ) -> list[tuple[int, int]] | None:
        """Shortest detour route src -> dst avoiding dead directed links.

        *dead* is a collection of ``(src_coord, dim, direction)`` triples
        (the sender-side identity of a directed link; on an extent-2 ring
        the +1 and -1 channels are distinct and can die independently).
        Returns a ``[(dim, direction), ...]`` hop list, or None when every
        surviving path is severed (the explicit "unreachable" verdict).

        Deterministic breadth-first search: nodes expand in FIFO order and
        neighbors in :meth:`neighbors` order, so among equal-length detours
        the same one is always chosen.  Because every router derives its
        hop from the same dead-link set, per-hop forwarding along these
        routes decreases the remaining BFS distance by exactly one — the
        detour scheme is loop-free even though it abandons dimension order.
        """
        src = self.wrap(src)
        dst = self.wrap(dst)
        if src == dst:
            return []
        parent: dict[Coord, tuple[Coord, int, int] | None] = {src: None}
        frontier = [src]
        while frontier:
            next_frontier: list[Coord] = []
            for cur in frontier:
                for dim, direction, nxt in self.neighbors(cur):
                    if (cur, dim, direction) in dead or nxt in parent:
                        continue
                    parent[nxt] = (cur, dim, direction)
                    if nxt == dst:
                        hops: list[tuple[int, int]] = []
                        node = dst
                        while node != src:
                            prev, d, s = parent[node]
                            hops.append((d, s))
                            node = prev
                        hops.reverse()
                        return hops
                    next_frontier.append(nxt)
            frontier = next_frontier
        return None

    def links(self) -> Iterator[tuple[Coord, int, int, Coord]]:
        """Every directed link as (src, dim, direction, dst).

        Skips dimensions of extent 1 (no self-links) and emits each
        physical direction once per node; for extent-2 rings the +1 and -1
        links connect the same pair but are distinct channels (as on the
        real hardware, where all six cables exist).
        """
        for coord in self.coords():
            for dim, extent in enumerate(self.dims):
                if extent == 1:
                    continue
                for direction in (1, -1):
                    yield coord, dim, direction, self.neighbor(coord, dim, direction)
