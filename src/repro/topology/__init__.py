"""Hardware topology substrate.

Models a shared-memory node the way Linux exposes it: *hardware threads*
(logical CPUs with OS ids) grouped into *cores* (SMT siblings), cores into
*NUMA domains*, domains into *sockets*.  The two platforms of the paper are
provided as presets:

* :func:`~repro.topology.platforms.dardel_topology` — 2× AMD EPYC Zen2
  64-core, SMT-2, 8 NUMA domains of 16 cores, 256 hardware threads.
* :func:`~repro.topology.platforms.vera_topology` — 2× Intel Xeon Gold 6130
  16-core, 2 NUMA domains, 32 hardware threads (SMT disabled, as on Vera).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.topology.hwthread": [
        "HWThread", "Core", "NUMADomain", "Socket", "Machine",
    ],
    "repro.topology.builder": ["TopologyBuilder"],
    "repro.topology.cpuset": ["CpuSet"],
    "repro.topology.distance": ["numa_distance_matrix"],
    "repro.topology.platforms": ["dardel_topology", "vera_topology"],
})
