"""Hot-path contract rules: PERF001 (``__slots__`` discipline), PERF002
(no per-iteration closure allocation) and PERF003 (no per-run Python
loops in rep-axis code).

The event loops were made fast by keeping them allocation-free: slotted
instances, and callables bound once per episode rather than built per
event (the work-stealing scheduler binds each thread's frequency and
noise queries before its loop); the region executor
(:mod:`repro.omp.region`) and the benchmark
drivers written over it evaluate all runs of a bound configuration as
one array program over the run axis.  These rules keep both disciplines
from eroding as the hot modules grow.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext
from repro.analysis.registry import Reporter, Rule, register_rule
from repro.analysis.visitor import WalkState

#: The simulation hot path: every instance attribute read/write and every
#: allocation in these packages happens O(events) times per run.
HOT_PACKAGES = ("sim", "omp.tasking")

#: Base-class names that make __slots__ pointless or impossible.
_EXEMPT_BASES = {
    "Exception", "BaseException", "Enum", "IntEnum", "StrEnum", "Flag",
    "NamedTuple", "Protocol", "TypedDict", "type", "ABC",
}


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):  # Generic[...] / Protocol[...]
        return _base_name(node.value)
    return ""


def _declares_slots(node: ast.ClassDef) -> bool:
    for item in node.body:
        if isinstance(item, ast.Assign):
            targets = [t.id for t in item.targets if isinstance(t, ast.Name)]
            if "__slots__" in targets:
                return True
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and item.target.id == "__slots__":
                return True
    return False


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return deco
    return None


@register_rule
class SlotsDiscipline(Rule):
    """PERF001: hot-path classes must declare ``__slots__``."""

    id = "PERF001"
    title = "hot-path classes must declare __slots__"
    rationale = (
        "Instances in sim/ and omp/tasking/ are touched O(events) times "
        "per run; a __dict__-backed attribute read is a hash lookup where "
        "a slotted one is an indexed load, and every un-slotted instance "
        "costs ~3x the memory.  The PR 5 speedups assumed (and the bench "
        "trajectory tracks) slotted hot-path objects."
    )
    fix_hint = (
        "add __slots__ = (...) to the class, or slots=True to its "
        "@dataclass decorator"
    )
    packages = HOT_PACKAGES
    node_types = (ast.ClassDef,)

    def visit(
        self, node: ast.ClassDef, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        base_names = {_base_name(b) for b in node.bases}
        if base_names & _EXEMPT_BASES or any(
            name.endswith(("Error", "Exception", "Warning")) for name in base_names
        ):
            return
        if _declares_slots(node):
            return
        deco = _dataclass_decorator(node)
        if deco is not None:
            if isinstance(deco, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            ):
                return
            report(
                node,
                f"hot-path dataclass {node.name!r} lacks slots=True",
                fix_hint="add slots=True to the @dataclass(...) decorator",
            )
            return
        report(node, f"hot-path class {node.name!r} declares no __slots__")


@register_rule
class NoClosureInLoop(Rule):
    """PERF002: no closure/lambda allocation inside hot-path loops."""

    id = "PERF002"
    title = "no per-iteration closure/lambda allocation in hot loops"
    rationale = (
        "A lambda or def inside a for/while body allocates a fresh "
        "function object every iteration.  On the event hot path that "
        "was the dominant allocation churn before the event loops were "
        "reworked (one lambda per process step); the work-stealing "
        "scheduler binds its per-thread callables once per episode "
        "precisely to avoid it, and new per-event closures would undo "
        "that win invisibly."
    )
    fix_hint = (
        "hoist the function out of the loop and bind loop variables via "
        "default arguments, or bind the callable once before the loop "
        "(as WorkStealingScheduler.run binds each thread's "
        "invert_integral and overlap)"
    )
    packages = HOT_PACKAGES
    node_types = (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(
        self, node: ast.AST, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        if state.loop_depth == 0:
            return
        kind = (
            "lambda" if isinstance(node, ast.Lambda)
            else f"nested function {node.name!r}"
        )
        report(
            node,
            f"{kind} is allocated on every iteration of an enclosing "
            f"hot-path loop",
        )


#: Identifiers that name the run count, i.e. the rep axis.  A ``for``
#: loop over ``range(<one of these>)`` in rep-axis code walks the runs in
#: Python — exactly the per-run shape the ``(R, ...)`` arrays replace.
#: Benchmark repetitions (``outer_reps``, ``num_times``) are time steps,
#: sequential by nature, and stay legal loop bounds.
_REP_COUNT_NAMES = frozenset({"runs", "n_runs", "num_runs", "n_reps"})

#: The unified rep-axis modules: the region executor and the three
#: benchmark drivers written over it.
_REP_AXIS_MODULES = frozenset({
    ("repro", "omp", "region"),
    ("repro", "bench", "epcc", "syncbench"),
    ("repro", "bench", "epcc", "schedbench"),
    ("repro", "bench", "babelstream"),
})


def _range_rep_name(iter_node: ast.AST) -> str | None:
    """The run-count identifier a ``range(...)`` iteration consumes.

    Returns the offending name when *iter_node* is a ``range(...)`` call
    whose arguments mention a :data:`_REP_COUNT_NAMES` identifier
    (directly, as an attribute like ``config.runs``, or inside arithmetic
    such as ``range(n_reps - 1)``); ``None`` otherwise.  Loops over
    ``range(p.outer_reps)``, ``range(out.shape[1])``,
    ``np.flatnonzero(...)``, ``enumerate(...)`` or plain collections never
    match — the sanctioned sequential loops (time-coupled *steps*, not
    runs) use exactly those shapes.
    """
    if not isinstance(iter_node, ast.Call):
        return None
    func = iter_node.func
    if not (isinstance(func, ast.Name) and func.id == "range"):
        return None
    for arg in list(iter_node.args) + [kw.value for kw in iter_node.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name) and sub.id in _REP_COUNT_NAMES:
                return sub.id
            if isinstance(sub, ast.Attribute) and sub.attr in _REP_COUNT_NAMES:
                return sub.attr
    return None


@register_rule
class NoRepLoopInFusedPath(Rule):
    """PERF003: no per-run Python ``for`` loops in rep-axis code."""

    id = "PERF003"
    title = "no per-run Python loops in rep-axis scopes"
    rationale = (
        "The region executor and the syncbench/schedbench/BabelStream "
        "drivers evaluate every run of a bound configuration as one "
        "(R, ...)-shaped array program; a Python `for` over "
        "range(runs/n_reps/...) in those modules or in a *_fused batched "
        "primitive reintroduces the per-run interpreter loop the rep "
        "axis exists to replace, and the regression is invisible because "
        "results stay byte-identical."
    )
    fix_hint = (
        "vectorize over the rep axis (RepStreams draws, (R, n) array "
        "ops); a genuinely sequential loop over time steps should iterate "
        "the repetition count (outer_reps, num_times) or an array shape "
        "instead of a run-count name"
    )
    packages = None  # rep-axis scopes are named, not package-bound
    node_types = (ast.For,)

    def visit(
        self, node: ast.For, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        in_module = tuple(ctx.module_parts) in _REP_AXIS_MODULES
        in_fused_function = any(
            name.endswith("_fused") for name in state.scope_stack
        )
        if not (in_module or in_fused_function):
            return
        name = _range_rep_name(node.iter)
        if name is None:
            return
        where = (
            ".".join(ctx.module_parts) if in_module
            else f"fused-path function {state.scope_name()!r}"
        )
        report(
            node,
            f"per-run loop over range({name}) in {where} walks "
            f"the rep axis in Python",
        )
