"""Shard assignment, shard manifests and the gather step for distributed
sweeps.

A sharded sweep splits one :class:`~repro.harness.study.Study` across N
independent workers: each worker runs the same study spec with
``--shard i/N`` and a *shared* cache directory, executes only the configs
:func:`shard_index_of` assigns to it, and finishes by writing a **shard
manifest** — a small JSON file recording exactly which cache entries its
shard covers, each with the SHA-256 of the entry file's bytes.
``repro-omp gather`` then assembles the shards: it checks that every
shard of the partition reported in (no missing or duplicate indices),
that every config of the study is covered by the shard that owns it, and
that every referenced cache entry still hashes to the digest its
producer recorded — then replays the entries into a single
:class:`~repro.harness.study.StudyResult` that is byte-identical to an
unsharded serial run of the same study.

Everything that *identifies* work here — shard assignment, manifest entry
keys, entry digests — is a pure function of config content and file
bytes.  No wall-clock values, process ids or host names participate
(enforced statically by the DET004 lint rule); timing telemetry travels
in a separate ``telemetry`` block that gather merges for reporting but
never hashes.

See docs/distributed.md for the workflow end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import __version__ as _code_version
from repro.errors import ConfigurationError, HarnessError, ReproError
from repro.harness.cache import CACHE_SCHEMA_VERSION, ResultCache, cache_key
from repro.harness.config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.study import Study, StudyResult
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "ReplayCache",
    "ShardRunComplete",
    "ShardSummary",
    "check_shard",
    "gather_study",
    "load_manifests",
    "manifest_path",
    "parse_shard",
    "shard_index_of",
    "shard_members",
    "write_shard_manifest",
]

#: Bump when the manifest JSON layout changes.
MANIFEST_SCHEMA_VERSION = 1

#: Discriminator stored in every manifest (refuses foreign JSON files).
_MANIFEST_KIND = "repro-omp-shard-manifest"

_MANIFEST_NAME_RE = re.compile(r"^shard-(\d+)of(\d+)\.manifest\.json$")

#: Hex digits of the cache key consumed by shard assignment.  16 nibbles
#: = 64 bits, far beyond any realistic shard count, and cheap to parse.
_SHARD_KEY_NIBBLES = 16


def shard_index_of(key: str, shard_count: int) -> int:
    """Deterministic shard assignment for one cache *key*.

    A pure function of the key's leading 64 bits and the shard count:
    independent of config order, wall time, process and host, so every
    worker of an N-shard run computes the identical partition.  Because
    the cache key is itself a SHA-256 over the canonical config JSON,
    assignment is uniform across shards for any config family.
    """
    if shard_count <= 0:
        raise ConfigurationError(f"shard_count must be positive, got {shard_count}")
    return int(key[:_SHARD_KEY_NIBBLES], 16) % shard_count


def check_shard(shard: tuple[int, int]) -> tuple[int, int]:
    """Validate a ``(shard_index, shard_count)`` pair; ``shard_index`` is
    zero-based and must satisfy ``0 <= shard_index < shard_count``."""
    index, count = shard
    if count <= 0:
        raise ConfigurationError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index {index} out of range for {count} shard(s) "
            f"(zero-based: 0..{count - 1})"
        )
    return index, count


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse an ``I/N`` shard spec into ``(shard_index, shard_count)``."""
    index_text, sep, count_text = spec.partition("/")
    try:
        if not sep:
            raise ValueError("missing '/'")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ConfigurationError(
            f"bad shard spec {spec!r}: expected I/N with integers, "
            f"e.g. --shard 0/4"
        ) from None
    return check_shard((index, count))


def shard_members(
    configs: Sequence[ExperimentConfig], shard: tuple[int, int]
) -> list[int]:
    """Positions in *configs* of the configs shard ``(index, count)`` owns.

    Membership is :func:`shard_index_of` over each config's cache key, so
    independent workers running the same study with ``--shard 0/N`` ..
    ``--shard N-1/N`` partition it exactly, in any order, on any host.
    """
    index, count = shard
    return [
        i for i, cfg in enumerate(configs)
        if shard_index_of(cache_key(cfg), count) == index
    ]


@dataclass(frozen=True)
class ShardSummary:
    """What one shard of a sweep did (returned via :class:`ShardRunComplete`)."""

    shard_index: int
    shard_count: int
    configs_total: int
    assigned: int
    simulated: int
    cached: int
    manifest_path: Path

    @property
    def label(self) -> str:
        return f"{self.shard_index}/{self.shard_count}"


class ShardRunComplete(ReproError):
    """Control flow, not failure: a sharded sweep finished *its shard*.

    A shard deliberately executes only a subset of the study, so there is
    no complete :class:`~repro.harness.study.StudyResult` to hand back —
    returning a partial one would let downstream rendering silently
    aggregate a fraction of the data.  The sweep instead raises this after
    committing the shard's results and manifest; drivers let it propagate
    and the CLI reports the shard summary and exits cleanly.
    """

    def __init__(self, summary: ShardSummary):
        self.summary = summary
        super().__init__(
            f"shard {summary.label} complete: {summary.assigned} of "
            f"{summary.configs_total} config(s) assigned "
            f"({summary.simulated} simulated, {summary.cached} from cache); "
            f"manifest: {summary.manifest_path}"
        )


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write *payload* as JSON atomically (same tmp + rename discipline as
    :meth:`~repro.harness.cache.ResultCache.put`, so a crashed writer never
    leaves a truncated file and concurrent shards on one host don't race)."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _entry_digest(path: Path) -> tuple[str, int]:
    """SHA-256 hex digest and size in bytes of one cache entry file."""
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def manifest_path(cache: ResultCache, shard_index: int, shard_count: int) -> Path:
    """Where the manifest of shard ``shard_index``/``shard_count`` lives
    inside *cache*'s directory."""
    return cache.cache_dir / f"shard-{shard_index}of{shard_count}.manifest.json"


def write_shard_manifest(
    cache: ResultCache,
    shard_index: int,
    shard_count: int,
    configs: Sequence[ExperimentConfig],
    telemetry: Mapping | None = None,
) -> Path:
    """Record the cache entries shard ``shard_index`` covers.

    *configs* are the configs assigned to this shard (cache hits and
    freshly simulated alike — the manifest describes coverage, not work).
    Every config's entry must already be committed to *cache*; each is
    re-read and digested so the manifest pins the exact bytes gather will
    verify.  Returns the manifest path.
    """
    entries = []
    for cfg in configs:
        key = cache_key(cfg)
        path = cache.cache_dir / f"{key}.json"
        if not path.exists():
            raise HarnessError(
                f"cannot write shard manifest: cache entry {key} for config "
                f"{cfg.display_label!r} is missing from {cache.cache_dir}"
            )
        digest, n_bytes = _entry_digest(path)
        entries.append({
            "key": key,
            "sha256": digest,
            "bytes": n_bytes,
            "label": cfg.display_label,
        })
    entries.sort(key=lambda e: e["key"])
    payload = {
        "kind": _MANIFEST_KIND,
        "schema": MANIFEST_SCHEMA_VERSION,
        "shard_index": shard_index,
        "shard_count": shard_count,
        "code_version": _code_version,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "entries": entries,
        "telemetry": dict(telemetry) if telemetry is not None else None,
    }
    path = manifest_path(cache, shard_index, shard_count)
    _atomic_write_json(path, payload)
    return path


def _load_manifest_file(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"unreadable shard manifest {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != _MANIFEST_KIND:
        raise HarnessError(
            f"{path} is not a shard manifest (missing kind={_MANIFEST_KIND!r})"
        )
    if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise HarnessError(
            f"shard manifest {path} has schema {payload.get('schema')!r}, "
            f"this build reads schema {MANIFEST_SCHEMA_VERSION} — regenerate "
            f"the shards with matching tooling"
        )
    for field in ("shard_index", "shard_count", "entries"):
        if field not in payload:
            raise HarnessError(f"shard manifest {path} lacks {field!r}")
    return payload


def load_manifests(
    cache: ResultCache, expected_shards: int | None = None
) -> dict[int, dict]:
    """Load and cross-validate every shard manifest in *cache*'s directory.

    Returns ``{shard_index: payload}`` for a complete, consistent
    partition.  Raises :class:`HarnessError` with an actionable message
    when shards disagree on the partition size, an index appears twice,
    indices are missing (lists the exact ``--shard i/N`` runs to repeat),
    or a cache entry is claimed by more than one shard.
    """
    found: dict[int, tuple[Path, dict]] = {}
    counts: set[int] = set()
    paths = sorted(cache.cache_dir.glob("shard-*.manifest.json"))
    for path in paths:
        if not _MANIFEST_NAME_RE.match(path.name):
            continue
        payload = _load_manifest_file(path)
        index = int(payload["shard_index"])
        count = int(payload["shard_count"])
        counts.add(count)
        if expected_shards is not None and count != expected_shards:
            raise HarnessError(
                f"shard manifest {path.name} belongs to a {count}-shard "
                f"partition but --expect-shards={expected_shards}; remove "
                f"stale manifests from {cache.cache_dir} or fix the flag"
            )
        if index in found:
            raise HarnessError(
                f"duplicate manifests for shard {index}: {found[index][0].name} "
                f"and {path.name} — remove the stale one from {cache.cache_dir}"
            )
        found[index] = (path, payload)
    if not found:
        raise HarnessError(
            f"no shard manifests in {cache.cache_dir}; run the sweep with "
            f"--shard i/N into this cache dir first"
        )
    if len(counts) > 1:
        raise HarnessError(
            f"shard manifests in {cache.cache_dir} disagree on the partition "
            f"size ({sorted(counts)} shards); they come from different runs — "
            f"clear the stale manifests or use --expect-shards to say which "
            f"partition to gather"
        )
    (count,) = counts
    missing = sorted(set(range(count)) - set(found))
    if missing:
        todo = ", ".join(f"--shard {i}/{count}" for i in missing)
        raise HarnessError(
            f"incomplete partition: {len(found)} of {count} shard manifest(s) "
            f"present in {cache.cache_dir}; missing shard(s) "
            f"{missing} — run the same sweep with {todo} first"
        )
    claimed: dict[str, int] = {}
    for index, (path, payload) in sorted(found.items()):
        for entry in payload["entries"]:
            key = entry["key"]
            owner = shard_index_of(key, count)
            if owner != index:
                raise HarnessError(
                    f"shard manifest {path.name} claims entry {key[:16]}… "
                    f"which the partition assigns to shard {owner} — the "
                    f"manifests were produced by inconsistent sweeps; "
                    f"re-run the shards from one study spec"
                )
            if key in claimed:
                raise HarnessError(
                    f"cache entry {key[:16]}… is claimed by shard "
                    f"{claimed[key]} and shard {index} — duplicate or stale "
                    f"manifests in {cache.cache_dir}"
                )
            claimed[key] = index
    return {index: payload for index, (path, payload) in sorted(found.items())}


def verify_manifest_entries(
    cache: ResultCache, manifests: Mapping[int, dict]
) -> int:
    """Recompute the digest of every cache entry the manifests reference.

    Returns the number of entries verified; raises :class:`HarnessError`
    naming the first missing or tampered entry.
    """
    verified = 0
    for index, payload in sorted(manifests.items()):
        for entry in payload["entries"]:
            path = cache.cache_dir / f"{entry['key']}.json"
            if not path.exists():
                raise HarnessError(
                    f"integrity failure: cache entry {entry['key'][:16]}… "
                    f"({entry.get('label', '?')}) recorded by shard {index} "
                    f"is missing from {cache.cache_dir} — re-run that shard"
                )
            digest, n_bytes = _entry_digest(path)
            if digest != entry["sha256"]:
                raise HarnessError(
                    f"integrity failure: cache entry {entry['key'][:16]}… "
                    f"({entry.get('label', '?')}) does not match the digest "
                    f"shard {index} recorded (file {digest[:16]}… vs manifest "
                    f"{entry['sha256'][:16]}…, {n_bytes} vs {entry['bytes']} "
                    f"bytes) — the entry was modified after the shard ran; "
                    f"re-run shard {index} or clear the cache"
                )
            verified += 1
    return verified


class ReplayCache(ResultCache):
    """A :class:`ResultCache` that refuses to simulate around a miss.

    Gather must assemble results that already exist; a miss means the
    shards did not actually cover the study (or the cache dir is wrong),
    and silently re-simulating would mask that.  ``get`` raises on a miss
    and ``put`` refuses outright.
    """

    def get(self, config: ExperimentConfig):
        result = super().get(config)
        if result is None:
            raise HarnessError(
                f"gather: no cache entry for config {config.display_label!r} "
                f"in {self.cache_dir} — the shard runs did not cover this "
                f"study (wrong --cache-dir, or the study spec differs from "
                f"the one the shards ran)"
            )
        return result

    def put(self, result) -> Path:
        raise HarnessError(
            "gather replays existing entries and never simulates; refusing "
            f"to write config {result.config.display_label!r} into the cache"
        )


def _record_gather_metrics(
    metrics: "MetricsRegistry",
    manifests: Mapping[int, dict],
    verified: int,
) -> None:
    total_entries = sum(len(p["entries"]) for p in manifests.values())
    total_bytes = sum(
        e["bytes"] for p in manifests.values() for e in p["entries"]
    )
    metrics.gauge("manifest_shards").set(len(manifests))
    metrics.gauge("manifest_entries").set(total_entries)
    metrics.gauge("manifest_total_bytes").set(total_bytes)
    metrics.counter("manifest_entries_verified").inc(verified)
    for index, payload in sorted(manifests.items()):
        label = f"{index}/{payload['shard_count']}"
        metrics.counter("shard_manifest_entries", shard=label).inc(
            len(payload["entries"])
        )
        telemetry = payload.get("telemetry")
        if telemetry:
            metrics.merge_dict(telemetry)


def gather_study(
    study: "Study",
    cache: ResultCache,
    expected_shards: int | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> "StudyResult":
    """Assemble the shards of *study* into one :class:`StudyResult`.

    Validates the manifest partition (:func:`load_manifests`), verifies
    every referenced entry's digest (:func:`verify_manifest_entries`),
    checks that the study's own config expansion is fully covered — each
    config's entry must appear in the manifest of the shard that owns its
    key — then replays the entries through a :class:`ReplayCache`.  The
    result is byte-identical to ``study.run(jobs=1, cache=...)`` on a
    single host because the cached entries *are* the serial results.
    """
    from repro.harness.study import StudyResult

    manifests = load_manifests(cache, expected_shards)
    verified = verify_manifest_entries(cache, manifests)
    shard_count = next(iter(manifests.values()))["shard_count"]

    configs = study.configs()
    if not configs:
        raise HarnessError(
            f"study {study.name!r} selects no configurations — nothing to gather"
        )
    covered = {
        entry["key"]: index
        for index, payload in manifests.items()
        for entry in payload["entries"]
    }
    for cfg in configs:
        key = cache_key(cfg)
        owner = shard_index_of(key, shard_count)
        if key not in covered:
            raise HarnessError(
                f"config {cfg.display_label!r} (entry {key[:16]}…) is not in "
                f"any shard manifest; shard {owner}/{shard_count} should have "
                f"produced it — that shard ran a different study spec, or "
                f"didn't run; re-run --shard {owner}/{shard_count} with this "
                f"exact spec"
            )

    replay = ReplayCache(cache.cache_dir)
    results = [replay.get(cfg) for cfg in configs]
    if metrics is not None:
        _record_gather_metrics(metrics, manifests, verified)
        metrics.counter("configs_total").inc(len(configs))
        metrics.counter("configs_cached").inc(len(configs))
    return StudyResult(study=study, configs=configs, results=tuple(results))
