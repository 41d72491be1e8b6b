"""Simulation-based reproduction of *GPU peer-to-peer techniques applied
to a cluster interconnect* (Ammendola et al., 2013 — the APEnet+ paper).

The package is a calibrated discrete-event model of the paper's entire
stack — PCIe fabric, Fermi/Kepler GPUDirect protocols, the APEnet+ card
(Nios II firmware, GPU_P2P_TX engines, 3D-torus router), an
InfiniBand/MVAPICH2 baseline — plus the two evaluation applications
(Heisenberg Spin Glass, distributed BFS) running *real* computation over
the simulated network.

Quick tour:

>>> from repro import Simulator, TorusShape, build_apenet_cluster
>>> sim = Simulator()
>>> cluster = build_apenet_cluster(sim, TorusShape(2, 1, 1))

See ``examples/quickstart.py``, and ``python -m repro.bench`` for the
table/figure reproductions.
"""

from .apenet import ApenetConfig, ApenetEndpoint, BufferKind, GpuTxVersion
from .gpu import FERMI_2050, FERMI_2070, FERMI_2075, KEPLER_K10, KEPLER_K20, GPUDevice
from .net import ApenetCluster, ClusterNode, TorusShape, build_apenet_cluster
from .sim import Simulator

__version__ = "1.6.0"

__all__ = [
    "Simulator",
    "TorusShape",
    "build_apenet_cluster",
    "ApenetCluster",
    "ClusterNode",
    "ApenetConfig",
    "ApenetEndpoint",
    "BufferKind",
    "GpuTxVersion",
    "GPUDevice",
    "FERMI_2050",
    "FERMI_2070",
    "FERMI_2075",
    "KEPLER_K10",
    "KEPLER_K20",
    "__version__",
]
