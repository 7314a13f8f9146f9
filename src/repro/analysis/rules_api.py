"""API-surface rules: API001 (experiment drivers must be registered).

The CLI, the bench harness and CI discover experiments exclusively
through the registry (``repro.harness.experiments.EXPERIMENTS``); a
driver that is written but not decorated simply does not exist to any
user-facing surface.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext
from repro.analysis.registry import Reporter, Rule, register_rule
from repro.analysis.visitor import WalkState


def _returns_artifact(node: ast.FunctionDef) -> bool:
    ann = node.returns
    if ann is None:
        return False
    name = ann.attr if isinstance(ann, ast.Attribute) else (
        ann.id if isinstance(ann, ast.Name) else (
            ann.value if isinstance(ann, ast.Constant) else ""
        )
    )
    return name == "ExperimentArtifact"


def _has_experiment_decorator(node: ast.FunctionDef, ctx: FileContext) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = ctx.resolve(target)
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "experiment":
            return True
        if isinstance(target, ast.Name) and target.id == "experiment":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "experiment":
            return True
    return False


@register_rule
class DriverRegistration(Rule):
    """API001: every public experiment driver must register itself."""

    id = "API001"
    title = "experiment drivers must register via @experiment"
    rationale = (
        "repro-omp list/experiment, the bench harness and the CI smokes "
        "all walk the experiment registry; a public driver function that "
        "is not decorated with @experiment is unreachable from every one "
        "of those surfaces — it will silently rot."
    )
    fix_hint = (
        "decorate the renderer with @experiment(\"<description>\", "
        "study=<builder>) (or prefix its name with _ if it is a helper, "
        "not a driver)"
    )
    packages = ("harness",)
    node_types = (ast.FunctionDef,)

    def visit(
        self, node: ast.FunctionDef, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        if state.enclosing_function() is not None or state.enclosing_class():
            return  # only module-level functions can be drivers
        if node.name.startswith("_"):
            return
        if not _returns_artifact(node):
            return
        if _has_experiment_decorator(node, ctx):
            return
        report(
            node,
            f"public driver {node.name!r} returns ExperimentArtifact but "
            f"is not registered via @experiment — the CLI, bench harness "
            f"and CI cannot reach it",
        )
