"""Per-thread task deques with Chase-Lev access semantics.

Each worker owns one :class:`TaskDeque`.  The owner pushes and pops at the
*bottom* (LIFO — freshest task first, which keeps divide-and-conquer
working sets cache-hot), while thieves remove from the *top* (FIFO — the
oldest task, which in recursive workloads is the largest remaining
subtree, so one steal moves a lot of work).

The simulator runs the runtime as a discrete-event loop, so there is no
real concurrency here; the class is a plain container whose two removal
ends encode the owner/thief policy.  Its ``tasks`` attribute is the live
:class:`collections.deque` (bottom = right end, top = left end): the
scheduler reads its truth value to test for work at C speed, and mutates
it only through :meth:`TaskDeque.push`, :meth:`TaskDeque.pop` and
:meth:`TaskDeque.steal`.  The *costs* of the operations live in
:class:`~repro.omp.tasking.params.TaskCostModel`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.omp.tasking.task import Task


class TaskDeque:
    """One worker's double-ended task queue.

    >>> from repro.omp.tasking.task import Task
    >>> d = TaskDeque(owner=0)
    >>> for name in ("a", "b", "c"):
    ...     d.push(Task(work=1e-6, tag=name))
    >>> d.pop().tag        # owner takes the freshest
    'c'
    >>> d.steal().tag      # thief takes the oldest
    'a'
    >>> len(d)
    1
    """

    __slots__ = ("owner", "tasks", "pushes", "pops", "steals_taken")

    def __init__(self, owner: int):
        self.owner = owner
        self.tasks: deque = deque()
        self.pushes = 0
        self.pops = 0
        self.steals_taken = 0

    def __len__(self) -> int:
        return len(self.tasks)

    def __bool__(self) -> bool:
        return bool(self.tasks)

    def push(self, task: "Task") -> None:
        """Owner operation: append at the bottom."""
        self.tasks.append(task)
        self.pushes += 1

    def pop(self) -> "Task":
        """Owner operation: remove the most recently pushed task (LIFO)."""
        if not self.tasks:
            raise SimulationError(f"pop from empty deque of worker {self.owner}")
        self.pops += 1
        return self.tasks.pop()

    def steal(self) -> "Task":
        """Thief operation: remove the oldest task (FIFO)."""
        if not self.tasks:
            raise SimulationError(f"steal from empty deque of worker {self.owner}")
        self.steals_taken += 1
        return self.tasks.popleft()

    def peek_steal(self) -> Optional["Task"]:
        """The task a thief would take, or ``None`` (probe, no removal)."""
        return self.tasks[0] if self.tasks else None
