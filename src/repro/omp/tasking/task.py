"""Task descriptors.

A :class:`Task` is one node of a task graph: a compute body (seconds at the
platform's calibration frequency, like every other work quantity in the
simulator) plus the children it spawns.  Task graphs are built *up front*
by the workload generators (:mod:`repro.omp.tasking.workloads`) so a given
parameter set always produces the identical graph; what varies between runs
is purely the runtime's behavior (victim selection, noise, frequency),
never the work itself.

Execution semantics (see the scheduler): when a worker begins a task it
first spawns the children into its own deque — the LLVM-style
``task``-then-work pattern of divide-and-conquer code — and then executes
the body.  Children therefore become stealable while the parent's body
runs.  Joins (``taskwait``/``taskgroup``) are modelled only as the final
quiescence barrier: the measured region ends when every task in the graph
has completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterator

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class Task:
    """One node of a task graph."""

    work: float
    tag: str = "task"
    children: tuple["Task", ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 <= self.work < inf:  # catches nan too
            raise ConfigurationError(
                f"task {self.tag!r} needs finite non-negative work, "
                f"got {self.work!r}"
            )

    def count(self) -> int:
        """Total tasks in this subtree (including this one)."""
        return 1 + sum(child.count() for child in self.children)

    def total_work(self) -> float:
        """Total body work (seconds at calibration frequency) in the subtree."""
        return self.work + sum(child.total_work() for child in self.children)

    def depth(self) -> int:
        """Longest spawn chain in the subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def walk(self) -> Iterator["Task"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()
