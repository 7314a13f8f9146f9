"""NUMA memory-system substrate.

Provides the bandwidth model behind BabelStream:

* :class:`~repro.mem.bandwidth.MemorySpec` — per-NUMA-domain capacity,
  per-core link limit, remote-access penalties;
* :class:`~repro.mem.bandwidth.BandwidthModel` — a fair-share contention
  solver giving each thread its achieved bandwidth;
* :class:`~repro.mem.pages.PagePlacement` — first-touch page homes, the
  reason unpinned BabelStream threads end up streaming over the
  interconnect after migrations (Figure 4c/4f).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.mem.bandwidth": ["MemorySpec", "BandwidthModel"],
    "repro.mem.pages": ["PagePlacement"],
})
