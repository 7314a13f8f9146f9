"""Per-file analysis context: source, AST, imports, package scoping.

Rules never touch the filesystem or re-parse anything themselves — a
:class:`FileContext` is built once per file and handed to every rule.  It
carries the parsed tree, an import table for resolving dotted call names
(``np.random.default_rng`` -> ``numpy.random.default_rng``) and the
file's position inside the ``repro`` package so rules can scope
themselves to the subsystems they guard (``sim``, ``omp.tasking``, ...).
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath


def normalize_path(path: str | Path) -> str:
    """Stable display/baseline form of *path*.

    Posix separators; if the path contains a ``src/repro`` or ``tests``
    component, it is trimmed to start there, so the same file hashes to
    the same baseline identity whether the linter was invoked as
    ``lint src``, ``lint src/repro/sim`` or with an absolute path.
    Otherwise the path is made relative to the current directory when
    possible and returned as-is when not.
    """
    p = Path(path)
    parts = p.parts
    for anchor in (("src", "repro"), ("tests",)):
        for i in range(len(parts) - len(anchor) + 1):
            if parts[i:i + len(anchor)] == anchor:
                return str(PurePosixPath(*parts[i:]))
    try:
        p = p.relative_to(Path.cwd())
    except ValueError:
        pass
    return str(PurePosixPath(p))


def _module_parts(path: Path) -> tuple[str, ...]:
    """Dotted-module components of *path*, anchored at the ``repro`` dir.

    ``.../src/repro/omp/tasking/scheduler.py`` ->
    ``("repro", "omp", "tasking", "scheduler")``; files outside a
    ``repro`` directory get an empty tuple (package-scoped rules skip
    them).
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return tuple(parts[i:])
    return ()


class FileContext:
    """Everything the rules need to know about one source file."""

    __slots__ = (
        "path", "display_path", "source", "lines", "tree",
        "module_parts", "imports",
    )

    def __init__(
        self,
        source: str,
        path: str | Path,
        module_parts: tuple[str, ...] | None = None,
    ):
        self.path = Path(path)
        self.display_path = normalize_path(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.module_parts = (
            module_parts if module_parts is not None else _module_parts(self.path)
        )
        self.imports = self._build_import_table(self.tree)

    # -- package scoping -----------------------------------------------------

    @property
    def module_name(self) -> str:
        """Dotted module name (``repro.sim.trace``), or ``""``."""
        return ".".join(self.module_parts)

    def in_package(self, *packages: str) -> bool:
        """Whether this file lives under any of the given sub-packages of
        ``repro`` (``"sim"``, ``"omp.tasking"``, ...)."""
        if not self.module_parts or self.module_parts[0] != "repro":
            return False
        subpath = ".".join(self.module_parts[1:])
        return any(
            subpath == pkg or subpath.startswith(pkg + ".") for pkg in packages
        )

    # -- source access -------------------------------------------------------

    def snippet(self, line: int) -> str:
        """The stripped source text of 1-based *line* (empty if out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # -- name resolution -----------------------------------------------------

    def _build_import_table(self, tree: ast.Module) -> dict[str, str]:
        """Map local names to the dotted names they import.

        ``import numpy as np`` -> ``{"np": "numpy"}``;
        ``from numpy.random import default_rng`` ->
        ``{"default_rng": "numpy.random.default_rng"}``.  Relative imports
        are resolved against this file's package when known.
        """
        table: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    table[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative: resolve against our package
                    pkg = list(self.module_parts[:-1])
                    pkg = pkg[: len(pkg) - (node.level - 1)] if node.level > 1 else pkg
                    base = ".".join(pkg + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        return table

    def resolve(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to an imported dotted name.

        Returns ``None`` when the chain does not start at an imported
        name (locals, ``self.x``, computed expressions).
        """
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        chain.append(base)
        return ".".join(reversed(chain))
