"""The JSON job-spec schema: the Study surface as a wire format.

A job spec is a plain JSON object describing either a declarative sweep
(the full :class:`~repro.harness.study.Study` surface: base config,
``grid`` / ``zip`` / ``cases`` axes, ``derive`` / ``where`` clauses,
``reps``, shard selection) or a registered experiment by
name.  :func:`validate_spec` checks it strictly — every error names the
offending field — and :func:`spec_to_study` builds the Study it
describes.  The CLI's ``run`` / ``sweep`` / ``gather`` compile their
flags to a spec and build it through the same two functions, so a job
submitted over HTTP produces records byte-identical to the same sweep
run locally.  Each registered experiment's builder returns a sweep spec
too (:mod:`repro.harness.experiments`), built the same way.

Sweep specs::

    {
      "kind": "sweep",
      "base": {"platform": "vera", "benchmark": "syncbench", "runs": 2},
      "axes": [
        {"kind": "grid", "axes": {"num_threads": [4, 8]}},
        {"kind": "zip", "axes": {"schedule": ["static", "dynamic"],
                                  "runtime": ["gnu", "llvm"]}},
        {"kind": "cases", "points": [{"noise": "quiet"}]}
      ],
      "derive": {"places": "'threads' if num_threads > 128 else 'cores'"},
      "where": ["num_threads <= 30 or platform == 'dardel'"],
      "reps": 3
    }

Experiment specs::

    {"kind": "experiment", "experiment": "table2", "runs": 2, "reps": 5}

expand to the experiment's own sweep spec at those knobs, so an
experiment job and a sweep job of that spec share configs and
fingerprint.

``derive`` / ``where`` clauses are *expressions over config fields*, not
Python callables: they are parsed against a strict AST whitelist (names,
constants, arithmetic, comparisons, boolean logic, conditional
expressions — no calls, no attributes, no subscripts), so a spec can
carry logic without the service evaluating arbitrary code.  Names
resolve like axis keys: config fields first, then ``benchmark_params``.

Everything here is a pure function of the spec's content — fingerprints
hash sorted cache keys, never clocks or pids (DET005).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import fields as _dataclass_fields
from typing import Any, Callable, Mapping

from repro.bench.registry import reps_param
from repro.errors import AxisPointError, ConfigurationError, HarnessError, JobSpecError
from repro.harness.cache import cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.shard import parse_shard, shard_members
from repro.harness.study import Study

__all__ = [
    "compile_clause",
    "spec_fingerprint",
    "spec_shard",
    "spec_to_study",
    "validate_spec",
]

#: Legal ExperimentConfig field names for ``base``.
_CONFIG_FIELDS = tuple(f.name for f in _dataclass_fields(ExperimentConfig))

_AXIS_KINDS = ("grid", "zip", "cases")

_SWEEP_KEYS = frozenset({
    "kind", "base", "axes", "derive", "where", "reps",
    "name", "description", "shard",
})
_EXPERIMENT_KEYS = frozenset({
    "kind", "experiment", "runs", "reps", "seed", "shard",
})


# ---------------------------------------------------------------------------
# Safe derive/where expressions
# ---------------------------------------------------------------------------

#: AST nodes a derive/where clause may contain.  Deliberately closed:
#: no Call, no Attribute, no Subscript, no comprehensions — a clause is
#: data-flow over config fields, not a program.
_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp, ast.And, ast.Or,
    ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
    ast.Mod, ast.Pow,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.In, ast.NotIn, ast.Is, ast.IsNot,
    ast.IfExp,
    ast.Constant,
    ast.Name, ast.Load,
    ast.Tuple, ast.List,
)


def compile_clause(text: str, field: str) -> Callable[[ExperimentConfig], Any]:
    """Compile a derive/where expression into ``fn(config) -> value``.

    *field* names the spec location for error messages (e.g.
    ``derive.places``).  Raises :class:`JobSpecError` for syntax errors
    and for any construct outside the whitelist.
    """
    if not isinstance(text, str) or not text.strip():
        raise JobSpecError(
            f"job spec field {field!r}: expected a non-empty expression "
            f"string, got {text!r}"
        )
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise JobSpecError(
            f"job spec field {field!r}: invalid expression {text!r} ({exc.msg})"
        ) from None
    names: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise JobSpecError(
                f"job spec field {field!r}: expression {text!r} uses "
                f"{type(node).__name__}, which is outside the clause "
                f"whitelist (names, constants, arithmetic, comparisons, "
                f"boolean logic, conditionals)"
            )
        if isinstance(node, ast.Name):
            if node.id not in names:
                names.append(node.id)
    code = compile(tree, filename=f"<{field}>", mode="eval")

    def evaluate(cfg: ExperimentConfig) -> Any:
        from repro.harness.study import config_value

        try:
            scope = {name: config_value(cfg, name) for name in names}
        except HarnessError as exc:
            raise JobSpecError(f"job spec field {field!r}: {exc}") from None
        return eval(code, {"__builtins__": {}}, scope)  # noqa: S307 - whitelisted AST

    evaluate.clause = text  # type: ignore[attr-defined]
    return evaluate


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _require_mapping(value: Any, field: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise JobSpecError(
            f"job spec field {field!r}: expected an object, got "
            f"{type(value).__name__}"
        )
    return value


def _require_int(value: Any, field: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise JobSpecError(
            f"job spec field {field!r}: expected an integer >= {minimum}, "
            f"got {value!r}"
        )
    return value


def _validate_base(base: Any) -> dict:
    base = _require_mapping(base, "base")
    for key in base:
        if key not in _CONFIG_FIELDS:
            raise JobSpecError(
                f"job spec field 'base.{key}': unknown config field "
                f"(choose from {', '.join(_CONFIG_FIELDS)})"
            )
    if "benchmark_params" in base:
        _require_mapping(base["benchmark_params"], "base.benchmark_params")
    return {k: base[k] for k in base}


def _validate_axis(entry: Any, index: int) -> dict:
    field = f"axes[{index}]"
    entry = _require_mapping(entry, field)
    kind = entry.get("kind")
    if kind not in _AXIS_KINDS:
        raise JobSpecError(
            f"job spec field '{field}.kind': expected one of "
            f"{_AXIS_KINDS}, got {kind!r}"
        )
    if kind in ("grid", "zip"):
        extra = set(entry) - {"kind", "axes"}
        if extra:
            raise JobSpecError(
                f"job spec field '{field}.{sorted(extra)[0]}': unknown key "
                f"for a {kind} axis (expected 'kind' and 'axes')"
            )
        axes = _require_mapping(entry.get("axes"), f"{field}.axes")
        if not axes:
            raise JobSpecError(
                f"job spec field '{field}.axes': a {kind} axis needs at "
                f"least one KEY: [values] entry"
            )
        clean: dict[str, list] = {}
        lengths = set()
        for key, values in axes.items():
            vfield = f"{field}.axes.{key}"
            if not isinstance(values, list) or not values:
                raise JobSpecError(
                    f"job spec field '{vfield}': expected a non-empty "
                    f"list of values, got {values!r}"
                )
            clean[str(key)] = list(values)
            lengths.add(len(values))
        if kind == "zip" and len(lengths) != 1:
            raise JobSpecError(
                f"job spec field '{field}.axes': zip axes must share a "
                f"length, got { {k: len(v) for k, v in clean.items()} }"
            )
        return {"kind": kind, "axes": clean}
    # cases
    extra = set(entry) - {"kind", "points"}
    if extra:
        raise JobSpecError(
            f"job spec field '{field}.{sorted(extra)[0]}': unknown key "
            f"for a cases axis (expected 'kind' and 'points')"
        )
    points = entry.get("points")
    if not isinstance(points, list) or not points:
        raise JobSpecError(
            f"job spec field '{field}.points': expected a non-empty list "
            f"of override objects, got {points!r}"
        )
    for j, point in enumerate(points):
        _require_mapping(point, f"{field}.points[{j}]")
    return {"kind": "cases", "points": [dict(p) for p in points]}


def validate_spec(spec: Any) -> dict:
    """Validate and normalize a job spec; raises :class:`JobSpecError`
    naming the offending field.

    Returns a normalized copy: defaults filled in (``kind``, ``base``,
    ``axes``, ``name``, ``description``), axis entries cleaned, clause
    expressions compile-checked.  The normalized dict is pure data —
    callers re-derive callables via :func:`spec_to_study`.
    """
    spec = _require_mapping(spec, "<root>")
    kind = spec.get("kind", "sweep")
    if kind not in ("sweep", "experiment"):
        raise JobSpecError(
            f"job spec field 'kind': expected 'sweep' or 'experiment', "
            f"got {kind!r}"
        )

    legal = _SWEEP_KEYS if kind == "sweep" else _EXPERIMENT_KEYS
    for key in spec:
        if key not in legal:
            raise JobSpecError(
                f"job spec field {key!r}: unknown key for a {kind} spec "
                f"(choose from {', '.join(sorted(legal))})"
            )

    out: dict[str, Any] = {"kind": kind}
    if spec.get("shard") is not None:
        shard = spec["shard"]
        try:
            parse_shard(str(shard))
        except ConfigurationError as exc:
            raise JobSpecError(f"job spec field 'shard': {exc}") from None
        out["shard"] = str(shard)
    if spec.get("reps") is not None:
        out["reps"] = _require_int(spec["reps"], "reps")

    if kind == "experiment":
        from repro.harness.experiments import EXPERIMENTS

        name = spec.get("experiment")
        if name not in EXPERIMENTS:
            raise JobSpecError(
                f"job spec field 'experiment': unknown experiment "
                f"{name!r} (choose from {', '.join(sorted(EXPERIMENTS))})"
            )
        out["experiment"] = name
        if spec.get("runs") is not None:
            out["runs"] = _require_int(spec["runs"], "runs")
        if spec.get("seed") is not None:
            out["seed"] = _require_int(spec["seed"], "seed", minimum=0)
        return out

    out["base"] = _validate_base(spec.get("base", {}))
    axes_raw = spec.get("axes", [])
    if not isinstance(axes_raw, list):
        raise JobSpecError(
            f"job spec field 'axes': expected a list of axis objects, "
            f"got {type(axes_raw).__name__}"
        )
    out["axes"] = [_validate_axis(entry, i) for i, entry in enumerate(axes_raw)]

    if spec.get("derive") is not None:
        derive = _require_mapping(spec["derive"], "derive")
        for key, text in derive.items():
            compile_clause(text, f"derive.{key}")
        out["derive"] = {str(k): v for k, v in derive.items()}
    if spec.get("where") is not None:
        where = spec["where"]
        if not isinstance(where, list):
            raise JobSpecError(
                f"job spec field 'where': expected a list of expression "
                f"strings, got {type(where).__name__}"
            )
        for j, text in enumerate(where):
            compile_clause(text, f"where[{j}]")
        out["where"] = list(where)

    out["name"] = str(spec.get("name", "sweep"))
    out["description"] = str(spec.get("description", "declarative CLI sweep"))

    # an unexpandable spec should fail at submit time, not inside a worker
    try:
        study = spec_to_study(out)
        if not study.configs():
            raise JobSpecError(
                "job spec field 'where': the filters select no "
                "configurations"
            )
    except AxisPointError as exc:
        raise JobSpecError(f"job spec field {exc.field!r}: {exc}") from None
    except (ConfigurationError, HarnessError) as exc:
        raise JobSpecError(f"job spec: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Spec -> Study
# ---------------------------------------------------------------------------

def spec_to_study(spec: Mapping[str, Any]) -> Study:
    """Build the :class:`Study` a validated *spec* describes.

    The CLI and every registered experiment build their Study here too,
    so identical parameters produce identical configs (and identical
    cache keys) whether they arrive as flags, as JSON or as an
    experiment's knobs.
    """
    if spec.get("kind") == "experiment":
        from repro.harness.experiments import EXPERIMENTS

        exp = EXPERIMENTS[spec["experiment"]]
        return exp.build_study(
            **exp.knobs(spec.get("runs"), spec.get("reps"), spec.get("seed"))
        )

    base_fields = dict(spec.get("base", {}))
    try:
        base = ExperimentConfig(**base_fields)
    except (ConfigurationError, TypeError) as exc:
        raise JobSpecError(f"job spec field 'base': {exc}") from None
    study = Study(
        base,
        name=str(spec.get("name", "sweep")),
        description=str(spec.get("description", "declarative CLI sweep")),
    )
    for entry in spec.get("axes", []):
        if entry["kind"] == "grid":
            study = study.grid(**entry["axes"])
        elif entry["kind"] == "zip":
            study = study.zip(**entry["axes"])
        else:
            study = study.cases(*entry["points"])
    for key, text in (spec.get("derive") or {}).items():
        study = study.derive(**{key: compile_clause(text, f"derive.{key}")})
    for j, text in enumerate(spec.get("where") or []):
        study = study.where(compile_clause(text, f"where[{j}]"))
    reps = spec.get("reps")
    if reps is not None:
        # per config: the knob's name is the registry's repetition
        # parameter of each config's benchmark (which may be a swept
        # axis), and an explicit axis/param value wins
        study = study.derive(benchmark_params=lambda cfg: {
            reps_param(cfg.benchmark): reps, **cfg.benchmark_params
        })
    return study


def spec_shard(spec: Mapping[str, Any]) -> tuple[int, int] | None:
    """The ``(index, count)`` a validated *spec*'s ``shard`` names, if any."""
    shard = spec.get("shard")
    return parse_shard(shard) if shard is not None else None


def spec_fingerprint(
    study: Study, shard: tuple[int, int] | None = None
) -> str:
    """Content fingerprint of a job: the SHA-256 over the sorted cache
    keys of the configs it executes — the study's expanded configs, or
    the ones shard ``(index, count)`` owns.

    Two jobs that execute the same work share a fingerprint — the
    dedup key for in-flight sharing.  A shard job also writes that
    shard's manifest, so its fingerprint covers the shard too: two
    different shards of one study never collide, even when both own no
    configs.  A pure function of the spec's content (the cache keys are
    themselves SHA-256 over canonical config JSON): no clock, pid,
    hostname or entropy may enter here (DET005).
    """
    configs = study.configs()
    if shard is None:
        payload: Any = sorted(cache_key(cfg) for cfg in configs)
    else:
        owned = shard_members(configs, shard)
        payload = {
            "shard": list(shard),
            "keys": sorted(cache_key(configs[i]) for i in owned),
        }
    blob = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
