"""Integration tests: distributed BFS over the simulated interconnects."""

import numpy as np
import pytest

from repro.apps.bfs import BfsConfig, run_bfs
from repro.apps.bfs import distributed
from repro.cuda import HostBuffer
from repro.gpu import GpuBuffer


@pytest.mark.parametrize("np_", [2, 4, 8])
def test_apenet_bfs_matches_serial(np_):
    res = run_bfs(BfsConfig(scale=12, np_=np_, transport="apenet", validate=True))
    assert res.validation_errors == []


@pytest.mark.parametrize("np_", [2, 4])
def test_ib_bfs_matches_serial(np_):
    res = run_bfs(BfsConfig(scale=12, np_=np_, transport="ib", validate=True))
    assert res.validation_errors == []


def test_single_rank_bfs():
    res = run_bfs(BfsConfig(scale=10, np_=1, transport="apenet", validate=True))
    assert res.validation_errors == []
    assert res.breakdown[0].t_comm_ns == 0.0


def test_teps_metric_sanity():
    res = run_bfs(BfsConfig(scale=12, np_=2, validate=True))
    # TEPS = traversed / seconds.
    assert res.teps == pytest.approx(res.traversed / (res.total_time_ns / 1e9))
    assert res.traversed > 0
    assert res.n_levels >= 2


def test_breakdown_accounting():
    res = run_bfs(BfsConfig(scale=12, np_=4, validate=False))
    assert len(res.breakdown) == 4
    for b in res.breakdown:
        assert b.t_compute_ns > 0
        assert b.t_comm_ns > 0
        assert 0 < b.comm_fraction < 1


def test_scaling_improves_teps():
    """Strong scaling: more GPUs give more TEPS (Table IV's trend)."""
    t1 = run_bfs(BfsConfig(scale=14, np_=1, validate=False)).teps
    t4 = run_bfs(BfsConfig(scale=14, np_=4, validate=False)).teps
    assert t4 > t1 * 1.1


def test_comm_fraction_grows_with_ranks():
    """"the computation carried out on each GPU increases slowly whereas
    the communication increases with ... the number of GPUs" (§V.E)."""
    f2 = run_bfs(BfsConfig(scale=14, np_=2, validate=False)).breakdown[1].comm_fraction
    f8 = run_bfs(BfsConfig(scale=14, np_=8, validate=False)).breakdown[1].comm_fraction
    assert f8 > f2


def test_ib_beats_apenet_at_np8():
    """Table IV's inversion: the torus suffers on all-to-all at NP=8."""
    ape = run_bfs(BfsConfig(scale=16, np_=8, transport="apenet", validate=False)).teps
    ib = run_bfs(BfsConfig(scale=16, np_=8, transport="ib", validate=False)).teps
    assert ib > ape


def test_np1_teps_anchor():
    """Table IV NP=1: 6.7e7 TEPS (APEnet cluster's C2050) at scale 20.

    Checked at scale 16 where the rate model predicts the same order of
    magnitude (graph smaller => slightly lower TEPS from fixed overheads).
    """
    res = run_bfs(BfsConfig(scale=16, np_=1, validate=False))
    assert 4e7 < res.teps < 9e7


def test_deterministic_given_seed():
    a = run_bfs(BfsConfig(scale=12, np_=2, seed=9, validate=False))
    b = run_bfs(BfsConfig(scale=12, np_=2, seed=9, validate=False))
    assert a.total_time_ns == b.total_time_ns
    assert a.traversed == b.traversed


def test_bad_transport_rejected():
    with pytest.raises(ValueError):
        BfsConfig(transport="pigeon")


def test_explicit_root():
    res = run_bfs(BfsConfig(scale=10, np_=2, root=5, validate=True))
    assert res.validation_errors == []
    assert res.levels[5] == 0


def test_multi_root_suite():
    from repro.apps.bfs import BfsConfig, run_bfs_suite

    suite = run_bfs_suite(BfsConfig(scale=11, np_=2, validate=True), n_roots=3)
    assert len(suite.results) == 3
    assert all(r.validation_errors == [] for r in suite.results)
    # Distinct roots were used (the root is the unique level-0 vertex).
    import numpy as np

    roots = {int(np.flatnonzero(r.levels == 0)[0]) for r in suite.results}
    assert len(roots) == 3
    assert suite.min_teps <= suite.harmonic_mean_teps <= suite.max_teps


def _owned_buffers(comm):
    for value in vars(comm).values():
        for item in value.values() if isinstance(value, dict) else [value]:
            if isinstance(item, (GpuBuffer, HostBuffer)):
                yield item


@pytest.mark.parametrize("transport", ["apenet", "ib"])
def test_run_frees_its_comm_buffers(monkeypatch, transport):
    released = []
    materialized = []
    for cls in (distributed._ApenetComm, distributed._MpiComm):
        real = cls.release

        def spy(self, _real=real):
            released.append(self)
            materialized.extend(b for b in _owned_buffers(self) if b._data is not None)
            _real(self)

        monkeypatch.setattr(cls, "release", spy)
    res = run_bfs(BfsConfig(scale=10, np_=2, transport=transport, validate=True))
    assert res.validation_errors == []
    assert len(released) == 2
    assert materialized  # validate runs move real bytes through the buffers
    bufs = [buf for comm in released for buf in _owned_buffers(comm)]
    assert len(bufs) >= 8
    for buf in bufs:
        assert buf._data is None
        if isinstance(buf, GpuBuffer):
            assert buf.freed
