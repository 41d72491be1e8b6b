"""Tests for the CUDA runtime: UVA resolution, allocation, tokens."""

import pytest

from repro.cuda import CudaRuntime, MemoryType
from repro.gpu import FERMI_2050, FERMI_2070, GPUDevice
from repro.pcie import LinkParams, plx_platform
from repro.sim import Simulator


def build(n_gpus=1):
    sim = Simulator()
    plat = plx_platform(sim)
    rt = CudaRuntime(sim, plat)
    for i in range(n_gpus):
        spec = FERMI_2050 if i == 0 else FERMI_2070
        gpu = GPUDevice(sim, f"gpu{i}", spec, index=i)
        plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
        rt.add_device(gpu)
    return sim, plat, rt


def test_host_alloc_addresses_disjoint():
    sim, plat, rt = build()
    a = rt.host_alloc(5000)
    b = rt.host_alloc(100)
    assert a.end <= b.addr
    assert rt.host_buffer_at(a.addr + 4999) is a
    assert rt.host_buffer_at(b.addr) is b


def test_host_free_drops_index_entry_and_array():
    sim, plat, rt = build()
    a = rt.host_alloc(5000)
    b = rt.host_alloc(100)
    a.data[:] = 1
    rt.host_free(a)
    assert a._data is None
    with pytest.raises(KeyError):
        rt.host_buffer_at(a.addr)
    with pytest.raises(KeyError):
        rt.pointer_attributes(a.addr + 10)
    assert rt.host_buffer_at(b.addr) is b
    # Freed ranges are never reissued.
    assert rt.host_alloc(100).addr > b.addr


def test_host_free_rejects_double_and_foreign_frees():
    sim, plat, rt = build()
    a = rt.host_alloc(64)
    rt.host_free(a)
    with pytest.raises(ValueError, match="not allocated"):
        rt.host_free(a)
    mine = rt.host_alloc(64)
    other = build()[2]
    other.host_alloc(64)
    theirs = other.host_alloc(64)
    assert theirs.addr == mine.addr  # the same address on another node
    with pytest.raises(ValueError, match="not allocated"):
        rt.host_free(theirs)
    assert rt.host_buffer_at(mine.addr) is mine


def test_host_alloc_rejects_nonpositive():
    sim, plat, rt = build()
    with pytest.raises(ValueError):
        rt.host_alloc(0)


def test_pointer_attributes_host():
    sim, plat, rt = build()
    h = rt.host_alloc(4096)
    attrs = rt.pointer_attributes(h.addr + 100)
    assert attrs.memory_type is MemoryType.HOST
    assert attrs.device_index is None
    assert attrs.buffer_base == h.addr
    assert not attrs.is_device


def test_pointer_attributes_device():
    sim, plat, rt = build(n_gpus=2)
    d = rt.device_alloc(1, 8192)
    attrs = rt.pointer_attributes(d.addr + 8000)
    assert attrs.is_device
    assert attrs.device_index == 1
    assert attrs.device_name == "gpu1"
    assert attrs.buffer_size == 8192


def test_unknown_pointer_raises():
    sim, plat, rt = build()
    with pytest.raises(KeyError):
        rt.pointer_attributes(0x7777_7777_7777)


def test_pointer_query_charges_host_time():
    sim, plat, rt = build()
    d = rt.device_alloc(0, 4096)

    def proc():
        t0 = sim.now
        attrs = yield from rt.pointer_get_attributes(d.addr)
        return attrs, sim.now - t0

    attrs, elapsed = sim.run_process(proc())
    assert attrs.is_device
    assert elapsed == pytest.approx(rt.costs.attribute_query_cost)


def test_p2p_tokens_only_for_device_pointers():
    sim, plat, rt = build()
    h = rt.host_alloc(64)
    d = rt.device_alloc(0, 64)

    def ask(addr):
        def proc():
            tok = yield from rt.get_p2p_tokens(addr)
            return tok

        return sim.run_process(proc())

    tok = ask(d.addr)
    assert tok.va_space_token == 0x5A5A_0000
    with pytest.raises(ValueError):
        ask(h.addr)


def test_host_buffer_data_round_trip():
    import numpy as np

    sim, plat, rt = build()
    h = rt.host_alloc(256)
    h.write_bytes(h.addr + 16, np.arange(10, dtype=np.uint8))
    out = h.read_bytes(h.addr + 16, 10)
    np.testing.assert_array_equal(out, np.arange(10, dtype=np.uint8))
    with pytest.raises(IndexError):
        h.read_bytes(h.addr + 250, 10)
