"""Deterministic named random-number streams.

Every stochastic component of the simulator (noise sources, the OS
scheduler's placement decisions, frequency dips, ...) draws from its own
named stream derived from a single master seed.  This gives three properties
the reproduction needs:

* **Exact reproducibility** — a master seed fully determines every figure.
* **Stream independence** — adding draws to one subsystem does not perturb
  another subsystem's sequence, so experiments stay comparable across code
  changes that touch unrelated models.
* **Run/repetition separation** — the harness derives per-run and
  per-repetition children so "run 7" is the same realization whether it is
  simulated alone or as part of a sweep.

Streams are identified by a *path* of hashable components, e.g.
``("noise", "daemon", run=3)``.  The path is hashed (SHA-256) together with
the master seed into a 128-bit seed for :class:`numpy.random.PCG64`
(:func:`derive_seed`).  A factory hashes its master seed and prefix once
and extends a copy of that hash state per stream or child, so a stream's
seed is :func:`derive_seed` of its full path while only the components
past the prefix are hashed again.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

__all__ = ["RepStreams", "RngFactory", "derive_seed"]


def _encode_component(component: Any) -> bytes:
    """Encode a single path component into bytes for hashing.

    Accepts ints, strings, bools, None and floats (floats are encoded via
    ``repr`` which is exact for Python floats).  Tuples/lists are encoded
    recursively.  Anything else is rejected to avoid silently unstable
    hashes (e.g. objects whose ``repr`` includes a memory address).
    """
    if isinstance(component, bool):  # check before int: bool is an int
        return b"b" + (b"1" if component else b"0")
    if isinstance(component, int):
        return b"i" + str(component).encode()
    if isinstance(component, float):
        return b"f" + repr(component).encode()
    if isinstance(component, str):
        return b"s" + component.encode("utf-8")
    if component is None:
        return b"n"
    if isinstance(component, (tuple, list)):
        inner = b"|".join(_encode_component(c) for c in component)
        return b"t(" + inner + b")"
    raise TypeError(
        f"rng stream path components must be str/int/float/bool/None/tuple, "
        f"got {type(component).__name__}"
    )


def _extended(state, path: tuple[Any, ...]):
    """*state* updated in place with *path*, as :func:`derive_seed` hashes it."""
    for component in path:
        state.update(b"/")
        state.update(_encode_component(component))
    return state


def derive_seed(master_seed: int, *path: Any) -> int:
    """Derive a 128-bit integer seed from *master_seed* and a stream path."""
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    for component in path:
        h.update(b"/")
        h.update(_encode_component(component))
    return int.from_bytes(h.digest()[:16], "little")


class RngFactory:
    """Factory producing independent, reproducible RNG streams.

    Parameters
    ----------
    master_seed:
        The experiment-level seed.  Two factories with the same master seed
        produce identical streams for identical paths.
    prefix:
        Optional path prefix applied to every stream created by this
        factory; used by :meth:`child` to scope subsystems.

    Examples
    --------
    >>> f = RngFactory(42)
    >>> a = f.stream("noise", 0)
    >>> b = f.stream("noise", 0)
    >>> float(a.random()) == float(b.random())
    True
    >>> c = f.stream("noise", 1)
    >>> float(f.stream("noise", 0).random()) != float(c.random())
    True
    """

    __slots__ = ("master_seed", "prefix", "_state")

    def __init__(self, master_seed: int, prefix: tuple[Any, ...] = ()):
        self.master_seed = int(master_seed)
        self.prefix = tuple(prefix)
        self._state = None  # SHA-256 of the seed and prefix, built on first use

    def _hashed(self):
        """The SHA-256 state after the master seed and the prefix.

        Callers extend a ``copy()``; the state itself is never updated.
        """
        state = self._state
        if state is None:
            state = hashlib.sha256(str(self.master_seed).encode())
            self._state = state = _extended(state, self.prefix)
        return state

    def stream(self, *path: Any) -> np.random.Generator:
        """Return a fresh :class:`numpy.random.Generator` for *path*.

        Calling this twice with the same path returns two generators that
        produce identical sequences (they are distinct objects, so consuming
        one does not affect the other).  The seed is
        ``derive_seed(master_seed, *prefix, *path)``.
        """
        digest = _extended(self._hashed().copy(), path).digest()
        seed = int.from_bytes(digest[:16], "little")
        return np.random.Generator(np.random.PCG64(seed))

    def child(self, *path: Any) -> "RngFactory":
        """Return a factory whose streams are scoped under *path*."""
        child = RngFactory(self.master_seed, self.prefix + path)
        child._state = _extended(self._hashed().copy(), path)
        return child

    def __reduce__(self):
        # a hashlib state cannot be pickled: rebuild it on the other side
        return RngFactory, (self.master_seed, self.prefix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(master_seed={self.master_seed}, prefix={self.prefix!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RngFactory):
            return NotImplemented
        return (self.master_seed, self.prefix) == (other.master_seed, other.prefix)

    def __hash__(self) -> int:
        return hash((self.master_seed, self.prefix))


class RepStreams:
    """``R`` parallel generators over the rep axis, drawn as ``(R, ...)`` arrays.

    Each row holds its own :class:`numpy.random.Generator`, so a batched
    draw of ``size=k`` from row ``r`` produces exactly the same floats as
    ``k`` sequential scalar draws from run ``r``'s stream (NumPy's
    distribution fills are sequential per generator; the equivalence is
    locked by ``tests/test_rng.py``).  Consuming a draw
    advances every row by the same number of variates, exactly as one
    variate per repetition drawn run by run.
    """

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[np.random.Generator, ...]):
        self.generators = tuple(generators)

    @property
    def n_reps(self) -> int:
        return len(self.generators)

    def _stack(self, rows: list) -> np.ndarray:
        return np.asarray(rows, dtype=np.float64)

    def random(self, size: int | None = None) -> np.ndarray:
        return self._stack([g.random(size) for g in self.generators])

    def uniform(
        self, low: float, high: float, size: int | None = None
    ) -> np.ndarray:
        return self._stack(
            [g.uniform(low, high, size=size) for g in self.generators]
        )

    def lognormal(
        self, mean: float, sigma: float, size: int | None = None
    ) -> np.ndarray:
        return self._stack(
            [g.lognormal(mean=mean, sigma=sigma, size=size) for g in self.generators]
        )

    def normal(
        self, loc: float, scale: float, size: int | None = None
    ) -> np.ndarray:
        return self._stack(
            [g.normal(loc=loc, scale=scale, size=size) for g in self.generators]
        )
