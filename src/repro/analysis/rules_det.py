"""Determinism rules: DET001 (ambient nondeterminism), DET002 (set-order
iteration), DET003 (cache-key purity), DET004 (shard/manifest identity
purity), DET005 (job-service identity purity).

These are the static mirrors of the determinism contracts the repo
enforces dynamically: byte-locked goldens, serial == jobs=N == cached
replay, and the RNG draw-order contract of docs/performance.md.  The
point of checking them at analysis time is that a violation is caught
when it is written, not after it has silently corrupted a sweep.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext
from repro.analysis.registry import Reporter, Rule, register_rule
from repro.analysis.visitor import WalkState

#: Sub-packages whose code runs inside a simulation (and therefore must
#: be a pure function of the master seed).
SIMULATION_PACKAGES = ("sim", "omp", "sched", "osnoise", "mem")


# ---------------------------------------------------------------------------
# DET001 — ambient nondeterminism
# ---------------------------------------------------------------------------

#: Exact dotted names whose *call* injects process-ambient state.
_BANNED_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.monotonic": "wall-clock time",
    "time.monotonic_ns": "wall-clock time",
    "time.perf_counter": "wall-clock time",
    "time.perf_counter_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived identifier",
    "uuid.uuid4": "OS entropy",
}

#: numpy.random module-level functions that draw from (or reseed) the
#: hidden global RandomState instead of a named stream.
_NUMPY_GLOBAL_STATE = {
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "lognormal", "exponential", "poisson", "bytes",
}

#: Dotted-module prefixes that are nondeterministic wholesale.
_BANNED_PREFIXES = {
    "random": "the process-seeded stdlib RNG",
    "secrets": "OS entropy",
}


@register_rule
class AmbientNondeterminism(Rule):
    """DET001: simulation code must not read ambient process state."""

    id = "DET001"
    title = "no ambient nondeterminism in simulation code"
    rationale = (
        "Every simulated quantity must be a pure function of the master "
        "seed: stdlib random, the numpy global RandomState, un-seeded "
        "default_rng(), wall-clock reads, OS entropy and id()-derived "
        "values all vary per process, so any of them breaks the "
        "serial == jobs=N == cached-replay contract silently."
    )
    fix_hint = (
        "draw from a named RngFactory stream (repro.rng) and read time "
        "from simulated time (the run context's cursor, ctx.t)"
    )
    packages = SIMULATION_PACKAGES
    node_types = (ast.Call,)

    def visit(
        self, node: ast.Call, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        # builtin id(): the result is a memory address — keying or
        # ordering anything by it varies per process
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and "id" not in ctx.imports
        ):
            report(
                node,
                "id() yields a per-process memory address; data keyed or "
                "ordered by it cannot replay identically",
                fix_hint="key by a stable field (name, index, seq) instead",
            )
            return
        dotted = ctx.resolve(node.func)
        if dotted is None:
            return
        head = dotted.split(".", 1)[0]
        if head in _BANNED_PREFIXES and (dotted == head or "." in dotted):
            report(
                node,
                f"{dotted}() draws from {_BANNED_PREFIXES[head]}; results "
                f"differ across processes and replays",
            )
            return
        if dotted in _BANNED_CALLS:
            report(
                node,
                f"{dotted}() reads {_BANNED_CALLS[dotted]}, which is not a "
                f"function of the master seed",
            )
            return
        if dotted == "numpy.random.default_rng" and not node.args and not node.keywords:
            report(
                node,
                "numpy.random.default_rng() without a seed draws fresh OS "
                "entropy per call",
                fix_hint="derive the seed from a named RngFactory stream path",
            )
            return
        if (
            dotted.startswith("numpy.random.")
            and dotted.rsplit(".", 1)[-1] in _NUMPY_GLOBAL_STATE
        ):
            report(
                node,
                f"{dotted}() uses numpy's hidden global RandomState; draws "
                f"interleave unpredictably across call sites",
            )


# ---------------------------------------------------------------------------
# DET002 — iteration over sets
# ---------------------------------------------------------------------------

def _is_set_expr(expr: ast.AST, ctx: FileContext, assigns: dict[str, bool]) -> bool:
    """Whether *expr* statically evaluates to a set/frozenset."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset") and expr.func.id not in ctx.imports:
            return True
    if isinstance(expr, ast.Name):
        return assigns.get(expr.id, False)
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra (a | b, a - b, ...) stays a set if either side is one
        return _is_set_expr(expr.left, ctx, assigns) or _is_set_expr(
            expr.right, ctx, assigns
        )
    return False


def _set_assignments(scope: ast.AST, ctx: FileContext) -> dict[str, bool]:
    """Names assigned a set-valued expression anywhere in *scope*.

    A name is marked set-valued only if *every* simple assignment to it
    is set-valued (a name reassigned to a list is not flagged).
    """
    assigns: dict[str, bool] = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                is_set = _is_set_expr(node.value, ctx, assigns)
                if target.id in assigns:
                    assigns[target.id] = assigns[target.id] and is_set
                else:
                    assigns[target.id] = is_set
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                assigns[node.target.id] = _is_set_expr(node.value, ctx, assigns)
    return assigns


@register_rule
class SetIterationOrder(Rule):
    """DET002: no iteration over sets in simulation code."""

    id = "DET002"
    title = "no iteration over set/frozenset in simulation code"
    rationale = (
        "Set iteration order depends on insertion history and, for str "
        "keys, on per-process hash randomization (PYTHONHASHSEED).  A "
        "loop that draws from an RNG, schedules events or feeds a cache "
        "key in set order therefore produces a different realization in "
        "every process — the exact replay instability the named-stream "
        "design exists to prevent."
    )
    fix_hint = "iterate sorted(the_set) or keep the collection a tuple/list"
    packages = SIMULATION_PACKAGES
    node_types = (
        ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
        ast.GeneratorExp,
    )

    def begin_file(self, ctx: FileContext) -> None:
        self._assign_cache: dict[int, dict[str, bool]] = {}

    def _assigns_for(self, ctx: FileContext, state: WalkState) -> dict[str, bool]:
        scope = state.enclosing_function() or ctx.tree
        key = id(scope)  # cache per scope object for this file walk
        if key not in self._assign_cache:
            module_assigns = self._assign_cache.setdefault(
                id(ctx.tree), _set_assignments(ctx.tree, ctx)
            )
            if scope is ctx.tree:
                return module_assigns
            local = _set_assignments(scope, ctx)
            # locals shadow module-level names
            self._assign_cache[key] = {**module_assigns, **local}
        return self._assign_cache[key]

    def visit(
        self, node: ast.AST, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        iters = (
            [node.iter]
            if isinstance(node, (ast.For, ast.AsyncFor))
            else [gen.iter for gen in node.generators]
        )
        assigns = None
        for it in iters:
            if assigns is None:
                assigns = self._assigns_for(ctx, state)
            if _is_set_expr(it, ctx, assigns):
                report(
                    it,
                    "iteration over a set/frozenset is replay-unstable "
                    "(hash-randomized order)",
                )


# ---------------------------------------------------------------------------
# DET003 — cache-key purity
# ---------------------------------------------------------------------------

#: Field annotations that JSON-encode canonically (the cache key is a
#: SHA-256 over the canonical JSON of to_dict()).
_JSON_STABLE_ATOMS = {"str", "int", "float", "bool", "None"}

#: Converter callables that take responsibility for producing a
#: JSON-stable value (``_jsonify`` is the harness's own normalizer).
_SANCTIONED_CONVERTERS = {
    "_jsonify", "str", "int", "float", "bool", "list", "dict", "sorted",
}

#: Method names on a value that produce JSON-stable output.
_SANCTIONED_METHODS = {"to_dict", "tolist", "isoformat", "value"}


def _annotation_is_stable(annotation: ast.AST) -> bool:
    text = ast.unparse(annotation).replace(" ", "")
    for part in text.split("|"):
        if part.startswith("Optional[") and part.endswith("]"):
            part = part[len("Optional["):-1]
        if part not in _JSON_STABLE_ATOMS:
            return False
    return True


def _is_dataclass_decorated(node: ast.ClassDef) -> tuple[bool, bool]:
    """(is_dataclass, is_frozen) from the decorator list."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            frozen = isinstance(deco, ast.Call) and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            )
            return True, frozen
    return False, False


def _self_attr(expr: ast.AST) -> str | None:
    """``self.X`` -> ``"X"``, else None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _value_is_sanctioned(expr: ast.AST) -> bool:
    """Whether a to_dict entry that is not a bare field is acceptable.

    Calls through a sanctioned converter or a ``.to_dict()``-style method
    take responsibility for their own JSON stability; constants are
    trivially stable.
    """
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, ast.Name):
        # a local assembled inside to_dict(); its inputs are checked where
        # they are read (the self.X reference scan below still sees them)
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _SANCTIONED_CONVERTERS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SANCTIONED_METHODS:
            return True
    # attribute of an attribute (self.x.value for enums) — the .value
    # access pattern is stable only through the method/converter forms
    return False


@register_rule
class CacheKeyPurity(Rule):
    """DET003: every field flowing into a cache-key ``to_dict`` must be
    JSON-stable."""

    id = "DET003"
    title = "cache-key to_dict() fields must be JSON-stable"
    rationale = (
        "The result cache keys entries by the SHA-256 of the canonical "
        "JSON of ExperimentConfig.to_dict().  A field whose type does "
        "not encode canonically (objects, callables, raw mappings) "
        "either crashes at runtime (the PR 3 strict encoder) or — worse "
        "— a field omitted from to_dict() changes results WITHOUT "
        "changing the key, silently replaying stale cache entries."
    )
    fix_hint = (
        "keep config fields to str/int/float/bool/None (or wrap them in "
        "_jsonify) and mirror every dataclass field in to_dict()"
    )
    packages = ("harness",)
    node_types = (ast.ClassDef,)

    def visit(
        self, node: ast.ClassDef, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        is_dc, frozen = _is_dataclass_decorated(node)
        if not (is_dc and frozen):
            return
        to_dict = next(
            (
                item for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "to_dict"
            ),
            None,
        )
        if to_dict is None:
            return
        returned = next(
            (
                stmt.value for stmt in ast.walk(to_dict)
                if isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Dict)
            ),
            None,
        )
        if returned is None:
            return

        annotations = {
            item.target.id: item.annotation
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and not ast.unparse(item.annotation).startswith("ClassVar")
        }

        # 1) every bare `self.X` entry must have a JSON-stable annotation
        for value in returned.values:
            field_name = _self_attr(value)
            if field_name is not None:
                annotation = annotations.get(field_name)
                if annotation is not None and not _annotation_is_stable(annotation):
                    report(
                        value,
                        f"field path {field_name!r} "
                        f"(annotated {ast.unparse(annotation)!r}) feeds the "
                        f"cache key but is not a JSON-stable literal type",
                    )
            elif not _value_is_sanctioned(value):
                report(
                    value,
                    f"opaque expression {ast.unparse(value)!r} feeds the "
                    f"cache key; its JSON encoding is not statically stable",
                    fix_hint=(
                        "route the value through _jsonify() or a "
                        "to_dict()/tolist() conversion"
                    ),
                )

        # 2) every dataclass field must flow into to_dict somewhere —
        #    a field that does not cannot invalidate the cache key
        referenced = {
            attr for n in ast.walk(to_dict)
            if (attr := _self_attr(n)) is not None
        }
        for field_name in annotations:
            if field_name not in referenced:
                report(
                    to_dict,
                    f"field path {field_name!r} never flows into to_dict(): "
                    f"changing it would NOT invalidate cached results",
                )


# ---------------------------------------------------------------------------
# DET004 — shard/manifest identity purity
# ---------------------------------------------------------------------------

#: Calls that inject per-process / per-host / per-moment state.  Any of
#: these inside shard-assignment or manifest code would let two workers
#: of the same partition compute different splits or identities.
_IDENTITY_BANNED_CALLS = {
    **_BANNED_CALLS,
    "os.getpid": "the process id",
    "os.getppid": "the parent process id",
    "socket.gethostname": "the host name",
    "platform.node": "the host name",
}

#: Scope-name fragments that mark distributed-identity code.  Matching is
#: case-insensitive over the enclosing class/function names, so
#: ``shard_members``, ``Sweep._complete_shard`` and
#: ``write_shard_manifest`` are all in scope.
_IDENTITY_SCOPE_FRAGMENTS = ("shard", "manifest")


@register_rule
class ShardIdentityPurity(Rule):
    """DET004: shard assignment and manifest identity must be pure."""

    id = "DET004"
    title = "no wall-clock/pid/host state in shard or manifest code"
    rationale = (
        "A sharded sweep only partitions correctly because every worker "
        "computes the identical assignment from the configs' content "
        "hashes alone, and gather only verifies because manifest entry "
        "identities are pure functions of config + entry bytes.  A "
        "wall-clock read, process id, host name or entropy draw inside "
        "that code makes workers disagree — configs silently skipped or "
        "simulated twice, manifests that never match."
    )
    fix_hint = (
        "derive shard membership and manifest identity from cache keys / "
        "file digests only; keep timing in the metrics registry and pid "
        "suffixes in helpers outside shard/manifest scopes (e.g. "
        "_atomic_write_json)"
    )
    packages = ("harness",)
    node_types = (ast.Call,)

    def visit(
        self, node: ast.Call, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        scopes = [name.lower() for name in state.scope_stack]
        if not any(
            fragment in scope
            for scope in scopes
            for fragment in _IDENTITY_SCOPE_FRAGMENTS
        ):
            return
        dotted = ctx.resolve(node.func)
        if dotted is None:
            return
        head = dotted.split(".", 1)[0]
        if head in _BANNED_PREFIXES:
            report(
                node,
                f"{dotted}() draws from {_BANNED_PREFIXES[head]} inside "
                f"shard/manifest code; workers would compute different "
                f"partitions or identities",
            )
            return
        if dotted in _IDENTITY_BANNED_CALLS:
            report(
                node,
                f"{dotted}() reads {_IDENTITY_BANNED_CALLS[dotted]} inside "
                f"shard/manifest code; shard assignment and manifest "
                f"identity must be pure functions of config content",
            )


# ---------------------------------------------------------------------------
# DET005 — job-service identity purity
# ---------------------------------------------------------------------------

#: Wall-clock reads: banned everywhere in the service package.  The
#: monotonic family is listed separately because it has a sanctioned
#: home (clock/telemetry helpers); wall time has none.
_WALL_CLOCK_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
}

#: Monotonic clock reads: legitimate for rate limiting and telemetry
#: durations, so they are allowed — but only inside scopes that are
#: explicitly named as clock carriers.
_MONOTONIC_CALLS = (
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
)

#: Entropy draws: banned everywhere in the service package.
_SERVICE_ENTROPY_CALLS = {
    "os.urandom": "OS entropy",
    "uuid.uuid1": "a host/time-derived identifier",
    "uuid.uuid4": "OS entropy",
}

#: Scope-name fragments under which a monotonic read is sanctioned.
#: ``monotonic_clock`` (the service's one clock) and telemetry helpers
#: match; nothing minting identity ever should.
_CLOCK_SCOPE_FRAGMENTS = ("clock", "telemetry")

#: Scope-name fragments that mark identity-minting service code (job
#: ids, spec fingerprints, dedup keys).  Inside these, even the
#: monotonic exemption is off: identity is content, full stop.
_SERVICE_IDENTITY_FRAGMENTS = ("job_id", "fingerprint", "spec_hash", "dedup")


@register_rule
class ServiceIdentityPurity(Rule):
    """DET005: job-service identities must be pure functions of content."""

    id = "DET005"
    title = "no ambient wall-clock or entropy in job-service code"
    rationale = (
        "The job service promises deterministic identities: the same "
        "submitted spec always yields the same fingerprint, dedup key "
        "and (per submission ordinal) job id, which is what makes "
        "duplicate detection and crash-recovery replay sound.  A "
        "wall-clock read, uuid4() or entropy draw anywhere near id or "
        "fingerprint construction silently breaks dedup — two identical "
        "submissions stop matching — so clocks live only in explicitly "
        "named clock/telemetry helpers, and identity scopes allow none "
        "at all."
    )
    fix_hint = (
        "derive job ids and fingerprints from spec content (cache keys, "
        "submission ordinals); read time only through monotonic_clock() "
        "or a *telemetry* helper, never wall time"
    )
    packages = ("serve",)
    node_types = (ast.Call,)

    def visit(
        self, node: ast.Call, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        dotted = ctx.resolve(node.func)
        if dotted is None:
            return
        scopes = [name.lower() for name in state.scope_stack]
        head = dotted.split(".", 1)[0]
        if head in _BANNED_PREFIXES:
            report(
                node,
                f"{dotted}() draws from {_BANNED_PREFIXES[head]} in "
                f"job-service code; service identities must be pure "
                f"functions of the submitted content",
            )
            return
        if dotted in _SERVICE_ENTROPY_CALLS:
            report(
                node,
                f"{dotted}() reads {_SERVICE_ENTROPY_CALLS[dotted]} in "
                f"job-service code; identical specs would stop deduping",
            )
            return
        if dotted in _WALL_CLOCK_CALLS:
            report(
                node,
                f"{dotted}() reads wall-clock time in job-service code; "
                f"durations come from monotonic_clock(), identities from "
                f"content only",
            )
            return
        if dotted in _MONOTONIC_CALLS:
            in_identity = any(
                fragment in scope
                for scope in scopes
                for fragment in _SERVICE_IDENTITY_FRAGMENTS
            )
            in_clock = any(
                fragment in scope
                for scope in scopes
                for fragment in _CLOCK_SCOPE_FRAGMENTS
            )
            if in_identity or not in_clock:
                report(
                    node,
                    f"{dotted}() outside a clock/telemetry helper; the "
                    f"service reads time only through monotonic_clock() "
                    f"(and never while minting job ids or fingerprints)",
                )
