"""GPU device-memory allocator, buffers, and page descriptors.

Buffers are allocated from the device's VRAM with a first-fit free-list
allocator.  Each buffer can lazily attach a real NumPy backing array so
data-integrity tests can move actual bytes end to end; simulations that only
need timing never touch the array.

The GPUDirect P2P protocol hands out one *page descriptor* per 64 KB page
(§III.A): :func:`page_descriptors` produces them, and
:class:`GpuPageTable` models the 4-level table the APEnet+ firmware keeps
per GPU (constant-depth walks, matching "constant traversal time thanks to
the 4-level page table").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .specs import GPU_PAGE_SIZE

__all__ = [
    "GpuBuffer",
    "DeviceMemoryAllocator",
    "PageDescriptor",
    "page_descriptors",
    "GpuPageTable",
    "OutOfMemoryError",
]


class OutOfMemoryError(MemoryError):
    """Device memory exhausted."""


@dataclass
class GpuBuffer:
    """One allocation in GPU global memory.

    ``addr`` is the device-virtual address (also used as the physical
    address in this model — the GPU V2P indirection is modelled separately
    by :class:`GpuPageTable` walk costs, not by actually relocating pages).
    """

    addr: int
    size: int
    gpu_name: str
    _data: Optional[np.ndarray] = field(default=None, repr=False)
    freed: bool = False

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.addr + self.size

    @property
    def data(self) -> np.ndarray:
        """Lazily-created byte view of the buffer contents."""
        if self.freed:
            raise ValueError("use-after-free of GPU buffer")
        if self._data is None:
            self._data = np.zeros(self.size, dtype=np.uint8)
        return self._data

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        """True if [addr, addr+nbytes) falls inside the buffer."""
        return self.addr <= addr and addr + nbytes <= self.end

    def write_bytes(self, addr: int, payload: np.ndarray) -> None:
        """Copy *payload* into the buffer at device address *addr*."""
        off = addr - self.addr
        if off < 0 or off + len(payload) > self.size:
            raise IndexError("write outside buffer bounds")
        self.data[off : off + len(payload)] = payload

    def read_bytes(self, addr: int, nbytes: int) -> np.ndarray:
        """Copy *nbytes* out of the buffer starting at device address *addr*."""
        off = addr - self.addr
        if off < 0 or off + nbytes > self.size:
            raise IndexError("read outside buffer bounds")
        return self.data[off : off + nbytes].copy()


class DeviceMemoryAllocator:
    """First-fit free-list allocator over [base, base + vram).

    Allocations are page-aligned (64 KB) because the P2P protocol maps
    whole pages.
    """

    def __init__(self, base: int, vram: int, gpu_name: str = "gpu"):
        if vram <= 0:
            raise ValueError("vram must be positive")
        self.base = base
        self.vram = vram
        self.gpu_name = gpu_name
        # Free list of (addr, size), sorted by addr, coalesced.
        self._free: list[tuple[int, int]] = [(base, vram)]
        self._live: dict[int, GpuBuffer] = {}

    @staticmethod
    def _round_up(n: int) -> int:
        return (n + GPU_PAGE_SIZE - 1) // GPU_PAGE_SIZE * GPU_PAGE_SIZE

    @property
    def used(self) -> int:
        """Bytes currently allocated (page-rounded)."""
        return self.vram - sum(size for _, size in self._free)

    @property
    def free_bytes(self) -> int:
        """Bytes currently free."""
        return sum(size for _, size in self._free)

    def alloc(self, nbytes: int) -> GpuBuffer:
        """Allocate *nbytes* (rounded up to the 64 KB page size)."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        need = self._round_up(nbytes)
        for i, (addr, size) in enumerate(self._free):
            if size >= need:
                if size == need:
                    del self._free[i]
                else:
                    self._free[i] = (addr + need, size - need)
                buf = GpuBuffer(addr, nbytes, self.gpu_name)
                self._live[addr] = buf
                return buf
        raise OutOfMemoryError(
            f"{self.gpu_name}: cannot allocate {nbytes} bytes "
            f"({self.free_bytes} free of {self.vram})"
        )

    def free(self, buf: GpuBuffer) -> None:
        """Return *buf* to the free list (coalescing neighbours)."""
        if buf.freed:
            raise ValueError("double free of GPU buffer")
        if buf.addr not in self._live:
            raise ValueError("buffer does not belong to this allocator")
        del self._live[buf.addr]
        buf.freed = True
        buf._data = None  # freed contents are unreachable (use-after-free)
        size = self._round_up(buf.size)
        self._free.append((buf.addr, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for addr, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((addr, sz))
        self._free = merged

    def buffer_at(self, addr: int) -> GpuBuffer:
        """The live buffer containing device address *addr*."""
        for buf in self._live.values():
            if buf.contains(addr):
                return buf
        raise KeyError(f"{self.gpu_name}: no live buffer at 0x{addr:x}")

    def live_buffers(self) -> Iterator[GpuBuffer]:
        """All live buffers, in address order."""
        return iter(sorted(self._live.values(), key=lambda b: b.addr))


@dataclass(frozen=True)
class PageDescriptor:
    """One 64 KB P2P page descriptor: physical address + protocol tokens."""

    virtual_addr: int
    physical_addr: int
    token: int  # opaque low-level protocol token


def page_descriptors(buf: GpuBuffer) -> list[PageDescriptor]:
    """The P2P page descriptors covering *buf* (one per 64 KB page)."""
    first_page = buf.addr // GPU_PAGE_SIZE * GPU_PAGE_SIZE
    descriptors = []
    page = first_page
    while page < buf.end:
        descriptors.append(
            PageDescriptor(
                virtual_addr=page,
                physical_addr=page,  # identity in this model
                token=(page >> 16) ^ 0xA9E,
            )
        )
        page += GPU_PAGE_SIZE
    return descriptors


class GpuPageTable:
    """The 4-level per-GPU V2P table kept by the APEnet+ firmware.

    Lookups are constant-depth (4 node visits).  The table is sparse:
    only registered pages resolve; unregistered lookups raise ``KeyError``
    (the firmware would drop the packet).
    """

    LEVELS = 4
    # 64 KB pages, 9 bits per level above the page offset.
    _BITS_PER_LEVEL = 9
    _PAGE_SHIFT = 16

    def __init__(self, gpu_name: str = "gpu"):
        self.gpu_name = gpu_name
        self._root: dict = {}
        self.pages_mapped = 0

    def _indices(self, vaddr: int) -> list[int]:
        page = vaddr >> self._PAGE_SHIFT
        idx = []
        for level in range(self.LEVELS):
            shift = (self.LEVELS - 1 - level) * self._BITS_PER_LEVEL
            idx.append((page >> shift) & ((1 << self._BITS_PER_LEVEL) - 1))
        return idx

    def map_page(self, desc: PageDescriptor) -> None:
        """Install one page descriptor."""
        node = self._root
        idx = self._indices(desc.virtual_addr)
        for i in idx[:-1]:
            node = node.setdefault(i, {})
        if idx[-1] not in node:
            self.pages_mapped += 1
        node[idx[-1]] = desc

    def map_buffer(self, buf: GpuBuffer) -> int:
        """Install descriptors for every page of *buf*; returns page count."""
        descs = page_descriptors(buf)
        for d in descs:
            self.map_page(d)
        return len(descs)

    def lookup(self, vaddr: int) -> PageDescriptor:
        """Translate *vaddr*; constant-depth (4 visits) by construction."""
        node = self._root
        visits = 0
        for i in self._indices(vaddr):
            visits += 1
            if i not in node:
                raise KeyError(
                    f"{self.gpu_name}: unmapped GPU vaddr 0x{vaddr:x}"
                )
            node = node[i]
        if visits != self.LEVELS:
            raise RuntimeError(
                f"{self.gpu_name}: page-table walk took {visits} levels, "
                f"expected {self.LEVELS} — corrupted radix tree"
            )
        return node

    def is_mapped(self, vaddr: int) -> bool:
        """True if *vaddr* translates."""
        try:
            self.lookup(vaddr)
            return True
        except KeyError:
            return False
