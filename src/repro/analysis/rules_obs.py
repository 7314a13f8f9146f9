"""Observability contract rule: OBS001 (guarded trace emission).

PR 7's zero-overhead tracing contract (docs/observability.md) hinges on
every hot-path trace emission being skipped with one boolean test when
tracing is off.  An unguarded ``tracer.span(...)`` still no-ops through
:class:`~repro.obs.tracer.NullTracer`, but it pays the call, the argument
tuple, and any ``args={...}`` dict allocation *per event* — exactly the
churn the engine overhaul removed, re-introduced invisibly.  OBS001 keeps
the guard mandatory wherever simulated-time tracing happens.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext
from repro.analysis.registry import Reporter, Rule, register_rule
from repro.analysis.visitor import WalkState

#: Packages that emit simulated-time trace events (the instrumented
#: simulation/model/benchmark layers).  The obs package itself and the
#: harness are exempt: a SpanTracer is by definition enabled, and harness
#: code runs once per run, not per event.
TRACE_PACKAGES = ("sim", "omp", "sched", "osnoise", "bench")

#: Tracer methods whose call sites must sit behind the enabled flag.
EMIT_METHODS = frozenset({
    "span", "instant", "counter", "thread_name", "begin_run", "begin_process",
})


def _is_tracerish(expr: ast.AST) -> bool:
    """Whether *expr* looks like a tracer receiver (``tracer``,
    ``self.tracer``, ``ctx.tracer``, ...)."""
    if isinstance(expr, ast.Name):
        return "tracer" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "tracer" in expr.attr.lower()
    return False


def _mentions_enabled(test: ast.AST) -> bool:
    """Whether a condition consults the tracing-enabled flag: any
    ``<x>.enabled`` attribute, or a local named like the hoisted
    ``tracing = tracer.enabled`` bool."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and (
            "tracing" in sub.id.lower() or "enabled" in sub.id.lower()
        ):
            return True
    return False


def _has_guard_return(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether *fn* opens with the dedicated-helper guard style::

        def trace_xxx(tracer, ...):
            if not tracer.enabled:
                return ...
    """
    body = fn.body
    i = 0
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        i = 1  # skip the docstring
    if i >= len(body):
        return False
    first = body[i]
    return (
        isinstance(first, ast.If)
        and _mentions_enabled(first.test)
        and any(isinstance(stmt, ast.Return) for stmt in first.body)
    )


@register_rule
class GuardedTraceEmission(Rule):
    """OBS001: hot-path trace emission must be guarded by the enabled flag."""

    id = "OBS001"
    title = "trace emission must be guarded by the tracer's enabled flag"
    rationale = (
        "The null-tracer path must cost one boolean test per episode, not "
        "one method call (plus an args-dict allocation) per event.  An "
        "unguarded tracer.span/instant/counter call site pays that cost "
        "O(events) times per run with tracing off — the exact overhead "
        "docs/observability.md promises is absent, and the event-loop "
        "throughput the bench trajectory tracks would silently regress."
    )
    fix_hint = (
        "wrap the emission in `if tracing:` (hoist `tracing = "
        "tracer.enabled` once per episode), test `if <x>.tracer.enabled:` "
        "directly, or make the enclosing helper guard-return on entry "
        "(`if not tracer.enabled: return`)"
    )
    packages = TRACE_PACKAGES
    node_types = (ast.Call,)

    def visit(
        self, node: ast.Call, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in EMIT_METHODS:
            return
        if not _is_tracerish(func.value):
            return
        for parent in state.parents:
            if isinstance(parent, ast.If) and _mentions_enabled(parent.test):
                return
        fn = state.enclosing_function()
        if fn is not None and _has_guard_return(fn):
            return
        report(
            node,
            f"tracer emission {func.attr!r} is not guarded by the "
            f"tracing-enabled flag",
        )
