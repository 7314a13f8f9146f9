"""Static analysis of the repo's own determinism and hot-path contracts.

The reproduction's value rests on invariants nothing used to enforce
mechanically: bit-identical serial/parallel/cached replays, the RNG
draw-order contract (docs/performance.md), JSON-pure cache keys, and the
allocation discipline of the PR 5 event hot path.  This package checks
them at the cheapest possible time — before the code runs — with an
AST-based rule framework:

=========  =============================================================
DET001     no ambient nondeterminism in simulation code (stdlib random,
           numpy global state, un-seeded default_rng, wall clocks, OS
           entropy, id()-derived values)
DET002     no iteration over set/frozenset in simulation code
           (hash-randomized order is replay-unstable)
DET003     cache-key purity: every field of a frozen config dataclass
           must flow into to_dict() as a JSON-stable value
PERF001    hot-path classes (sim/, omp/tasking/) must declare __slots__
PERF002    no per-iteration closure/lambda allocation in hot-path loops
API001     experiment drivers must register via @experiment
=========  =============================================================

Entry points: ``repro-omp lint`` on the command line,
:func:`~repro.analysis.runner.lint_paths` programmatically,
:func:`~repro.analysis.runner.lint_source` for fixture tests.
Intentional exceptions live in the committed ``lint-baseline.json``
(see :mod:`repro.analysis.baseline` and docs/static-analysis.md).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.baseline": [
        "Baseline", "BaselineEntry", "DEFAULT_BASELINE_NAME",
    ],
    "repro.analysis.findings": ["Finding", "Severity"],
    "repro.analysis.registry": [
        "RULES", "Rule", "available_rules", "get_rules", "register_rule",
    ],
    "repro.analysis.runner": [
        "LintReport", "format_json", "format_text", "iter_python_files",
        "lint_paths", "lint_source",
    ],
})
