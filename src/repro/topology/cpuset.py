"""CPU sets: immutable sets of logical CPU ids with Linux-style parsing.

The kernel and tools like ``taskset``/``numactl`` describe CPU sets as
comma-separated ranges (``0-15,32,48-63``).  :class:`CpuSet` supports that
syntax plus the set algebra the binding and scheduling code needs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import TopologyError

__all__ = ["CpuSet"]


class CpuSet:
    """An immutable, ordered set of non-negative CPU ids."""

    __slots__ = ("_cpus",)

    def __init__(self, cpus: Iterable[int] = ()):
        ids = sorted({int(c) for c in cpus})
        if ids and ids[0] < 0:
            raise TopologyError(f"negative cpu id in {ids[:5]}")
        object.__setattr__(self, "_cpus", tuple(ids))

    def __setattr__(self, name, value):
        raise AttributeError("CpuSet is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "CpuSet":
        """Parse ``"0-3,8,10-11"`` (whitespace tolerated, empty = empty set)."""
        text = text.strip()
        if not text:
            return cls()
        cpus: list[int] = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise TopologyError(f"empty range token in cpu list {text!r}")
            if "-" in token:
                lo_s, _, hi_s = token.partition("-")
                try:
                    lo, hi = int(lo_s), int(hi_s)
                except ValueError as exc:
                    raise TopologyError(f"bad cpu range {token!r}") from exc
                if hi < lo:
                    raise TopologyError(f"descending cpu range {token!r}")
                cpus.extend(range(lo, hi + 1))
            else:
                try:
                    cpus.append(int(token))
                except ValueError as exc:
                    raise TopologyError(f"bad cpu id {token!r}") from exc
        return cls(cpus)

    @classmethod
    def range(cls, start: int, stop: int) -> "CpuSet":
        """CPUs in ``[start, stop)``."""
        return cls(range(start, stop))

    # -- set protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cpus)

    def __iter__(self) -> Iterator[int]:
        return iter(self._cpus)

    def __contains__(self, cpu: object) -> bool:
        return cpu in set(self._cpus)

    def __getitem__(self, i: int) -> int:
        return self._cpus[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CpuSet):
            return self._cpus == other._cpus
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._cpus)

    def __bool__(self) -> bool:
        return bool(self._cpus)

    # -- algebra -------------------------------------------------------------

    def union(self, other: "CpuSet") -> "CpuSet":
        return CpuSet(set(self._cpus) | set(other._cpus))

    def intersection(self, other: "CpuSet") -> "CpuSet":
        return CpuSet(set(self._cpus) & set(other._cpus))

    def difference(self, other: "CpuSet") -> "CpuSet":
        return CpuSet(set(self._cpus) - set(other._cpus))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def isdisjoint(self, other: "CpuSet") -> bool:
        return set(self._cpus).isdisjoint(other._cpus)

    # -- rendering -----------------------------------------------------------

    def to_ranges(self) -> list[tuple[int, int]]:
        """Collapse into inclusive ``(lo, hi)`` runs."""
        runs: list[tuple[int, int]] = []
        for cpu in self._cpus:
            if runs and cpu == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], cpu)
            else:
                runs.append((cpu, cpu))
        return runs

    def __str__(self) -> str:
        parts = []
        for lo, hi in self.to_ranges():
            parts.append(str(lo) if lo == hi else f"{lo}-{hi}")
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"CpuSet('{self}')"
