"""Unit tests for GPU memory allocator, page descriptors, page tables."""

import numpy as np
import pytest

from repro.gpu import (
    GPU_PAGE_SIZE,
    DeviceMemoryAllocator,
    GpuPageTable,
    OutOfMemoryError,
    page_descriptors,
)


def make_alloc(vram=16 * GPU_PAGE_SIZE, base=0x1000_0000):
    return DeviceMemoryAllocator(base, vram, "gpu0")


def test_alloc_is_page_aligned():
    a = make_alloc()
    b1 = a.alloc(100)
    b2 = a.alloc(100)
    assert b1.addr % GPU_PAGE_SIZE == 0
    assert b2.addr % GPU_PAGE_SIZE == 0
    assert b2.addr == b1.addr + GPU_PAGE_SIZE


def test_alloc_exhaustion():
    a = make_alloc(vram=2 * GPU_PAGE_SIZE)
    a.alloc(GPU_PAGE_SIZE)
    a.alloc(1)
    with pytest.raises(OutOfMemoryError):
        a.alloc(1)


def test_free_and_reuse():
    a = make_alloc(vram=2 * GPU_PAGE_SIZE)
    b1 = a.alloc(GPU_PAGE_SIZE)
    a.free(b1)
    b2 = a.alloc(2 * GPU_PAGE_SIZE)  # coalesced back to full size
    assert b2.addr == a.base


def test_free_coalesces_neighbours():
    a = make_alloc(vram=4 * GPU_PAGE_SIZE)
    bufs = [a.alloc(GPU_PAGE_SIZE) for _ in range(4)]
    a.free(bufs[1])
    a.free(bufs[2])
    a.free(bufs[0])
    big = a.alloc(3 * GPU_PAGE_SIZE)
    assert big.addr == a.base


def test_double_free_rejected():
    a = make_alloc()
    b = a.alloc(64)
    a.free(b)
    with pytest.raises(ValueError, match="double free"):
        a.free(b)


def test_use_after_free_rejected():
    a = make_alloc()
    b = a.alloc(64)
    a.free(b)
    with pytest.raises(ValueError, match="use-after-free"):
        _ = b.data


def test_free_releases_backing_array():
    a = make_alloc()
    b = a.alloc(64)
    b.data[:] = 7
    a.free(b)
    assert b._data is None


def test_buffer_at_resolves():
    a = make_alloc()
    b = a.alloc(1000)
    assert a.buffer_at(b.addr) is b
    assert a.buffer_at(b.addr + 999) is b
    with pytest.raises(KeyError):
        a.buffer_at(b.addr + 1000)


def test_buffer_data_round_trip():
    a = make_alloc()
    b = a.alloc(256)
    payload = np.arange(64, dtype=np.uint8)
    b.write_bytes(b.addr + 10, payload)
    out = b.read_bytes(b.addr + 10, 64)
    np.testing.assert_array_equal(out, payload)


def test_buffer_bounds_checked():
    a = make_alloc()
    b = a.alloc(100)
    with pytest.raises(IndexError):
        b.write_bytes(b.addr + 90, np.zeros(20, dtype=np.uint8))
    with pytest.raises(IndexError):
        b.read_bytes(b.addr - 1, 10)


def test_used_free_accounting():
    a = make_alloc(vram=8 * GPU_PAGE_SIZE)
    assert a.used == 0
    b = a.alloc(GPU_PAGE_SIZE + 1)  # rounds to 2 pages
    assert a.used == 2 * GPU_PAGE_SIZE
    a.free(b)
    assert a.used == 0
    assert a.free_bytes == 8 * GPU_PAGE_SIZE


def test_page_descriptors_cover_buffer():
    a = make_alloc()
    b = a.alloc(3 * GPU_PAGE_SIZE + 5)
    descs = page_descriptors(b)
    assert len(descs) == 4
    assert descs[0].virtual_addr == b.addr
    assert all(d.virtual_addr % GPU_PAGE_SIZE == 0 for d in descs)
    # Descriptor span covers the buffer end.
    assert descs[-1].virtual_addr + GPU_PAGE_SIZE >= b.end


def test_page_table_lookup():
    a = make_alloc()
    b = a.alloc(2 * GPU_PAGE_SIZE)
    pt = GpuPageTable("gpu0")
    n = pt.map_buffer(b)
    assert n == 2
    assert pt.pages_mapped == 2
    d = pt.lookup(b.addr + GPU_PAGE_SIZE + 123)
    assert d.virtual_addr == b.addr + GPU_PAGE_SIZE


def test_page_table_unmapped_raises():
    pt = GpuPageTable("gpu0")
    with pytest.raises(KeyError):
        pt.lookup(0xDEAD0000)
    assert not pt.is_mapped(0xDEAD0000)


def test_page_table_remap_idempotent():
    a = make_alloc()
    b = a.alloc(GPU_PAGE_SIZE)
    pt = GpuPageTable()
    pt.map_buffer(b)
    pt.map_buffer(b)
    assert pt.pages_mapped == 1
