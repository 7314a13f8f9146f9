"""EPCC measurement machinery shared by syncbench and schedbench.

The EPCC suite's procedure, reproduced here:

1. calibrate ``delay(delaylength)`` so one call lasts ``delaytime`` — in
   the simulator the calibration frequency is the platform's single-core
   boost, so the *nominal* delay stretches when a loaded machine runs at a
   lower all-core frequency, exactly as on real hardware;
2. choose ``innerreps`` by doubling from 1 until ``innerreps x
   estimated-iteration-time`` reaches the target test time;
3. run ``outer_repetitions`` timed tests.  The suite prints mean / sd /
   min / max and the count of 3-sigma outliers over them; here those come
   from :func:`repro.stats.summarize` and :func:`repro.stats.sigma_outliers`
   over the repetition times each benchmark's ``series`` returns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields
from typing import Any, Callable

from repro.errors import BenchmarkError


def require_finite(params: object) -> None:
    """Reject a benchmark-parameter dataclass holding a NaN or infinite float.

    Range checks such as ``x < 0`` are false for NaN and let infinities
    through, so every ``__post_init__`` runs this first; the violation
    surfaces as :class:`~repro.errors.BenchmarkError` (``error: ...`` at
    the CLI) instead of a failure deep inside the simulation.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise BenchmarkError(f"{f.name} must be finite, got {value!r}")


#: Field annotations (as ``from __future__ import annotations`` keeps
#: them) that hold an integer count.
_INTEGER_ANNOTATIONS = ("int", "int | None")


def require_integers(params: object) -> None:
    """Reject a benchmark-parameter dataclass holding a non-integer count.

    A field annotated ``int`` (or ``int | None``, which may be ``None``)
    must hold a :class:`numbers.Integral` that is not a ``bool``: a float
    count such as ``1e3`` would fail deep inside NumPy, or be accepted
    under a second cache key for the same config.  NumPy integers pass.
    """
    for f in fields(params):
        if f.type not in _INTEGER_ANNOTATIONS:
            continue
        value = getattr(params, f.name)
        if value is None and f.type == "int | None":
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise BenchmarkError(f"{f.name} must be an integer, got {value!r}")


def parse_entries(
    name: str, value: Any, what: str, parse: Callable[[Any], Any]
) -> tuple:
    """*value*, a non-empty list or tuple, with *parse* applied to each
    entry; the violation is a :class:`~repro.errors.BenchmarkError`.

    A bare string is rejected, not read as one entry.  *parse* raises
    ``ValueError`` or ``TypeError`` for an entry it does not accept, and
    an entry that parses like an earlier one is a duplicate.
    """
    if not isinstance(value, (list, tuple)) or not value:
        raise BenchmarkError(
            f"{name} must be a non-empty list of {what}, got {value!r}"
        )
    parsed: list = []
    for entry in value:
        try:
            item = parse(entry)
        except (TypeError, ValueError):
            raise BenchmarkError(
                f"{name}: bad entry {entry!r}; expected {what}"
            ) from None
        if item in parsed:
            raise BenchmarkError(f"{name} lists {entry!r} twice")
        parsed.append(item)
    return tuple(parsed)


def target_innerreps(test_time: float, iter_time_estimate: float,
                     max_reps: int = 1 << 22) -> int:
    """EPCC's inner-repetition doubling: smallest power of two ``p`` with
    ``p * iter_time_estimate >= test_time``.

    >>> target_innerreps(1e-3, 1e-5)
    128
    """
    if test_time <= 0:
        raise BenchmarkError(f"test time must be positive, got {test_time}")
    if iter_time_estimate <= 0:
        raise BenchmarkError(
            f"iteration estimate must be positive, got {iter_time_estimate}"
        )
    p = 1
    while p * iter_time_estimate < test_time and p < max_reps:
        p <<= 1
    return p
