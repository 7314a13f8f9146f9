"""Tests for sharded execution: assignment, manifests, gather, cache tools.

The distributed-execution contract under test is the determinism
contract extended across hosts: the union of N shard runs, gathered,
must be **byte-identical** to the unsharded serial artifact — and every
failure mode (missing shard, tampered entry, mixed partitions) must be
an actionable error, never silently partial data.
"""

import json

import pytest

from repro.errors import ConfigurationError, HarnessError
from repro.harness import (
    ExperimentConfig,
    ProcessPoolBackend,
    ReplayCache,
    ResultCache,
    SerialBackend,
    ShardRunComplete,
    Study,
    Sweep,
    cache_key,
    experiments,
    parse_shard,
    shard_index_of,
)
from repro.harness.shard import (
    ShardSummary,
    load_manifests,
    manifest_path,
    shard_members,
    verify_manifest_entries,
    write_shard_manifest,
)
from repro.obs.metrics import MetricsRegistry

QUICK = {"outer_reps": 6}


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        platform="toy", benchmark="syncbench", num_threads=4,
        runs=2, seed=17, benchmark_params=QUICK,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _study(threads=(2, 4, 8), runs=2) -> Study:
    return Study(
        _cfg(runs=runs), name="shard-test", description="sharding fixtures"
    ).grid(num_threads=list(threads))


def _run_all_shards(study: Study, cache: ResultCache, n: int) -> list[ShardSummary]:
    summaries = []
    for i in range(n):
        with pytest.raises(ShardRunComplete) as exc_info:
            study.run(cache=cache, shard=(i, n))
        summaries.append(exc_info.value.summary)
    return summaries


def _dumps(result) -> str:
    return json.dumps(
        [r.to_dict() for r in result.results], sort_keys=True
    )


# ---------------------------------------------------------------------------
# Shard assignment and spec parsing
# ---------------------------------------------------------------------------


class TestShardAssignment:
    def test_pure_function_of_key(self):
        key = cache_key(_cfg())
        assert shard_index_of(key, 4) == shard_index_of(key, 4)
        assert 0 <= shard_index_of(key, 4) < 4

    def test_independent_of_config_order(self):
        """Assignment derives from content hashes, not list positions."""
        configs = [_cfg(num_threads=t) for t in (2, 4, 8, 16)]
        forward = {cache_key(c): shard_index_of(cache_key(c), 3) for c in configs}
        backward = {
            cache_key(c): shard_index_of(cache_key(c), 3)
            for c in reversed(configs)
        }
        assert forward == backward

    def test_partition_is_exact(self):
        """Every config lands in exactly one shard; shards are disjoint."""
        configs = [_cfg(num_threads=t) for t in (2, 4, 8, 16)]
        n = 3
        members = [shard_members(configs, (i, n)) for i in range(n)]
        for pos, cfg in enumerate(configs):
            owners = [i for i in range(n) if pos in members[i]]
            assert owners == [shard_index_of(cache_key(cfg), n)]

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            shard_index_of("ab" * 32, 0)

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)

    @pytest.mark.parametrize("spec", ["4/4", "-1/4", "0/0", "1", "a/b", "1/"])
    def test_parse_shard_rejects(self, spec):
        with pytest.raises(ConfigurationError):
            parse_shard(spec)

    def test_sweep_validates_shard(self, tmp_path):
        for shard in ((2, 2), (-1, 2), (0, 0)):
            with pytest.raises(ConfigurationError):
                Sweep(cache=ResultCache(tmp_path), shard=shard)


# ---------------------------------------------------------------------------
# Backend extraction keeps the engine bit-identical
# ---------------------------------------------------------------------------


class TestBackendRefactor:
    def test_explicit_serial_backend_matches_jobs1(self):
        configs = [_cfg(num_threads=t) for t in (2, 4)]
        via_jobs = Sweep(jobs=1).run(configs)
        via_backend = Sweep(backend=SerialBackend()).run(configs)
        assert [r.to_dict() for r in via_backend] == [
            r.to_dict() for r in via_jobs
        ]

    def test_explicit_pool_backend_matches_serial(self):
        configs = [_cfg(num_threads=t, runs=3) for t in (2, 4)]
        serial = Sweep(jobs=1).run(configs)
        pooled = Sweep(backend=ProcessPoolBackend(2)).run(configs)
        assert json.dumps([r.to_dict() for r in pooled], sort_keys=True) == (
            json.dumps([r.to_dict() for r in serial], sort_keys=True)
        )

    def test_sweep_reports_backend_workers(self):
        assert Sweep(backend=ProcessPoolBackend(5)).jobs == 5
        assert Sweep(backend=SerialBackend()).jobs == 1

    def test_backend_follows_jobs(self, tmp_path):
        """``jobs`` alone picks the backend, sharded or not."""
        cache = ResultCache(tmp_path)
        for shard in (None, (0, 2)):
            assert isinstance(
                Sweep(jobs=1, cache=cache, shard=shard).backend, SerialBackend
            )
            pool = Sweep(jobs=3, cache=cache, shard=shard).backend
            assert isinstance(pool, ProcessPoolBackend) and pool.workers == 3


# ---------------------------------------------------------------------------
# Sharded runs + gather
# ---------------------------------------------------------------------------


class TestShardedRun:
    def test_requires_cache(self):
        with pytest.raises(HarnessError, match="shared cache"):
            _study().run(shard=(0, 2))

    def test_raises_shard_run_complete_with_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        with pytest.raises(ShardRunComplete) as exc_info:
            study.run(cache=cache, shard=(0, 2))
        summary = exc_info.value.summary
        assert summary.label == "0/2"
        assert summary.manifest_path.exists()
        assert summary.assigned == summary.simulated + summary.cached
        payload = json.loads(summary.manifest_path.read_text())
        assert payload["kind"] == "repro-omp-shard-manifest"
        assert len(payload["entries"]) == summary.assigned

    def test_manifest_covers_cache_hits_too(self, tmp_path):
        """Re-running a shard over a warm cache still records coverage."""
        cache = ResultCache(tmp_path)
        study = _study()
        first = _run_all_shards(study, cache, 2)
        again = _run_all_shards(study, cache, 2)
        for before, after in zip(first, again):
            assert after.assigned == before.assigned
            assert after.simulated == 0
            assert after.cached == before.assigned

    def test_shards_partition_the_study(self, tmp_path):
        summaries = _run_all_shards(_study(), ResultCache(tmp_path), 2)
        assert sum(s.assigned for s in summaries) == len(_study())

    def test_per_shard_metrics(self, tmp_path):
        """Everything a sharded run records, on a cold cache and then a
        warm one, serial and pooled: the values the dedicated shard path
        recorded before sharding joined the sweep's one execution path.
        The study has 3 configs of 2 runs; the shard owns ``owned``."""
        pool_only = {
            "pool_elapsed_seconds", "pool_utilization", "pool_workers_used",
            "queue_wait_seconds",
        }
        for jobs, index in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            study, shard, label = _study(), (index, 2), f"{index}/2"
            owned = len(shard_members(study.configs(), shard))
            # name -> (cold, warm)
            counters = {
                "configs_total": (3, 3),
                "configs_simulated": (owned, 0),
                "configs_cached": (0, owned),
                "cache_hits": (0, owned),
                "cache_misses": (owned, 0),
                "cache_stores": (owned, 0),
            }
            sharded = {
                "shard_configs_assigned": (owned, owned),
                "shard_configs_simulated": (owned, 0),
                "shard_configs_cached": (0, owned),
            }
            samples = {
                "config_wall_seconds": (owned, 0),
                "run_wall_seconds": (2 * owned, 0),
            }
            cache_dir = tmp_path / f"jobs{jobs}-shard{index}"
            for phase in (0, 1):
                metrics = MetricsRegistry()
                with pytest.raises(ShardRunComplete) as exc_info:
                    study.run(
                        jobs=jobs, cache=ResultCache(cache_dir),
                        metrics=metrics, shard=shard,
                    )
                assert exc_info.value.summary.assigned == owned
                # read the names first: looking a metric up creates it
                recorded = {
                    entry["name"]
                    for kind in ("counters", "gauges", "histograms")
                    for entry in metrics.to_dict()[kind]
                }
                simulated = phase == 0 and owned > 0
                assert recorded == (
                    set(counters) | set(sharded) | {"pool_workers"}
                    | (set(samples) if simulated else set())
                    | (pool_only if simulated and jobs > 1 else set())
                )
                for name, values in counters.items():
                    assert metrics.counter(name).value == values[phase], name
                for name, values in sharded.items():
                    value = metrics.counter(name, shard=label).value
                    assert value == values[phase], name
                assert metrics.gauge("pool_workers").value == jobs
                for name, values in samples.items():
                    assert metrics.histogram(name).count == values[phase], name


class TestGather:
    def test_gather_equals_serial(self, tmp_path):
        study = _study()
        serial = study.run(jobs=1)
        cache = ResultCache(tmp_path)
        _run_all_shards(study, cache, 2)
        gathered = study.gather(cache)
        assert _dumps(gathered) == _dumps(serial)

    def test_gathered_export_byte_identical(self, tmp_path):
        study = _study()
        serial_path = tmp_path / "serial.json"
        merged_path = tmp_path / "merged.json"
        study.run(jobs=1).to_json(serial_path)
        cache = ResultCache(tmp_path / "cache")
        _run_all_shards(study, cache, 2)
        study.gather(cache).to_json(merged_path)
        assert serial_path.read_bytes() == merged_path.read_bytes()

    def test_single_shard_equals_unsharded(self, tmp_path):
        """N=1: the degenerate partition is just a sharded serial run."""
        study = _study()
        cache = ResultCache(tmp_path)
        (summary,) = _run_all_shards(study, cache, 1)
        assert summary.assigned == len(study)
        assert _dumps(study.gather(cache)) == _dumps(study.run(jobs=1))

    def test_more_shards_than_configs(self, tmp_path):
        """Empty shards write (empty) manifests and gather cleanly."""
        study = _study(threads=(2, 4))  # 2 configs
        cache = ResultCache(tmp_path)
        summaries = _run_all_shards(study, cache, 5)
        assert sum(s.assigned for s in summaries) == 2
        # keys embed the code version, so which shards the two configs land
        # in changes with it: count the empty ones from the keys themselves
        occupied = {shard_index_of(cache_key(c), 5) for c in study.configs()}
        assert sum(1 for s in summaries if s.assigned == 0) == 5 - len(occupied)
        assert _dumps(study.gather(cache)) == _dumps(study.run(jobs=1))

    def test_uneven_split(self, tmp_path):
        """A partition never loses configs, however lopsided it falls."""
        study = _study(threads=(1, 2, 4, 8, 16), runs=1)
        cache = ResultCache(tmp_path)
        summaries = _run_all_shards(study, cache, 3)
        sizes = sorted(s.assigned for s in summaries)
        assert sum(sizes) == 5
        assert _dumps(study.gather(cache)) == _dumps(study.run(jobs=1))

    def test_gather_merges_shard_telemetry(self, tmp_path):
        study = _study()
        cache = ResultCache(tmp_path)
        for i in range(2):
            with pytest.raises(ShardRunComplete):
                study.run(cache=cache, shard=(i, 2), metrics=MetricsRegistry())
        metrics = MetricsRegistry()
        study.gather(cache, metrics=metrics)
        assert metrics.gauge("manifest_shards").value == 2
        assert metrics.gauge("manifest_entries").value == len(study)
        assert metrics.gauge("manifest_total_bytes").value > 0
        # the shards' own simulated-config counters merged in
        simulated = sum(
            metrics.counter("shard_configs_simulated", shard=f"{i}/2").value
            for i in range(2)
        )
        assert simulated == len(study)

    def test_expected_shards_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        with pytest.raises(HarnessError, match="--expect-shards"):
            study.gather(cache, expected_shards=3)


class TestGatherFailureModes:
    def test_no_manifests(self, tmp_path):
        with pytest.raises(HarnessError, match="no shard manifests"):
            _study().gather(ResultCache(tmp_path))

    def test_missing_shard_names_the_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, shard=(0, 2))
        with pytest.raises(HarnessError, match=r"--shard 1/2"):
            study.gather(cache)

    def test_mixed_partitions_detected(self, tmp_path):
        """Manifests from two different --shard I/N partitions in one dir."""
        cache = ResultCache(tmp_path)
        study = _study()
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, shard=(0, 2))
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, shard=(1, 3))
        with pytest.raises(HarnessError, match="disagree on the partition"):
            study.gather(cache)

    def test_stale_partition_duplicate_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, shard=(0, 3))
        with pytest.raises(HarnessError, match="duplicate manifests"):
            study.gather(cache)

    def test_tampered_entry_is_integrity_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        entry = next(
            p for p in cache.cache_dir.glob("*.json")
            if "manifest" not in p.name
        )
        data = json.loads(entry.read_text())
        data["records"][0]["series"] = {
            k: [v * 1.5 for v in vals]
            for k, vals in data["records"][0]["series"].items()
        }
        entry.write_text(json.dumps(data))
        with pytest.raises(HarnessError, match="integrity failure"):
            study.gather(cache)

    def test_tampered_manifest_digest_is_integrity_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        target = next(
            p for p in cache.cache_dir.glob("shard-*.manifest.json")
            if json.loads(p.read_text())["entries"]
        )
        payload = json.loads(target.read_text())
        payload["entries"][0]["sha256"] = "0" * 64
        target.write_text(json.dumps(payload))
        with pytest.raises(HarnessError, match="integrity failure"):
            study.gather(cache)

    def test_deleted_entry_is_integrity_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        entry = next(
            p for p in cache.cache_dir.glob("*.json")
            if "manifest" not in p.name
        )
        entry.unlink()
        with pytest.raises(HarnessError, match="missing"):
            study.gather(cache)

    def test_foreign_shard_claim_detected(self, tmp_path):
        """A manifest claiming a key the partition assigns elsewhere."""
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        manifests = {
            i: json.loads(manifest_path(cache, i, 2).read_text())
            for i in range(2)
        }
        donor = next(i for i, p in manifests.items() if p["entries"])
        thief = 1 - donor
        manifests[thief]["entries"].append(manifests[donor]["entries"][0])
        manifest_path(cache, thief, 2).write_text(
            json.dumps(manifests[thief])
        )
        with pytest.raises(HarnessError, match="assigns to shard"):
            load_manifests(cache)

    def test_uncovered_config_names_owning_shard(self, tmp_path):
        """Shards ran a *different* study: gather must say which shard to
        re-run for the uncovered config, not replay a partial union."""
        cache = ResultCache(tmp_path)
        narrow = _study(threads=(2, 4))
        _run_all_shards(narrow, cache, 2)
        wide = _study(threads=(2, 4, 8))
        with pytest.raises(HarnessError, match="not in any shard manifest"):
            wide.gather(cache)

    def test_replay_cache_refuses_miss_and_put(self, tmp_path):
        replay = ReplayCache(tmp_path)
        with pytest.raises(HarnessError, match="no cache entry"):
            replay.get(_cfg())
        result = Sweep(jobs=1).run([_cfg()])[0]
        with pytest.raises(HarnessError, match="never simulates"):
            replay.put(result)


class TestManifestWriting:
    def test_write_requires_committed_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(HarnessError, match="missing from"):
            write_shard_manifest(cache, 0, 2, [_cfg()])

    def test_entries_sorted_by_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 1)
        payload = json.loads(manifest_path(cache, 0, 1).read_text())
        keys = [e["key"] for e in payload["entries"]]
        assert keys == sorted(keys)
        assert verify_manifest_entries(cache, {0: payload}) == len(keys)


# ---------------------------------------------------------------------------
# Registered experiments: sharded == serial, byte for byte
# ---------------------------------------------------------------------------


class TestShardedExperiments:
    @pytest.mark.parametrize(
        "driver,kwargs",
        [
            (experiments.table2, dict(runs=2, outer_reps=5)),
            (
                experiments.figure1,
                dict(
                    runs=2, outer_reps=5,
                    dardel_threads=[2, 4], vera_threads=[2, 4],
                ),
            ),
        ],
        ids=["table2", "figure1"],
    )
    def test_gathered_artifact_byte_identical(self, tmp_path, driver, kwargs):
        serial = driver(**kwargs).render()
        cache = ResultCache(tmp_path)
        # the shards and the gather share the experiment's study, as
        # `experiment --shard` and `gather --experiment` do
        spec = experiments.get_experiment(driver.__name__)
        study = spec.build_study(**kwargs)
        for i in range(2):
            with pytest.raises(ShardRunComplete):
                study.run(cache=cache, shard=(i, 2))
        metrics = MetricsRegistry()
        result = study.gather(cache, expected_shards=2, metrics=metrics)
        gathered = spec.render(result, **kwargs).render()
        assert gathered.encode() == serial.encode()
        # the manifests cover exactly the study, and gather replays them
        # without simulating (its cache raises on a miss)
        assert metrics.counter("manifest_entries_verified").value == len(study)
        assert metrics.counter("configs_cached").value == len(study)


# ---------------------------------------------------------------------------
# Cache stats / gc
# ---------------------------------------------------------------------------


class TestCacheStatsGc:
    def test_stats_counts_entries_and_versions(self, tmp_path):
        cache = ResultCache(tmp_path)
        Sweep(jobs=1, cache=cache).run([_cfg(num_threads=t) for t in (2, 4)])
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert sum(stats["by_version"].values()) == 2
        assert "unknown" not in stats["by_version"]

    def test_stats_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = Sweep(jobs=1, cache=cache)
        sweep.run([_cfg()])
        sweep.run([_cfg()])
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_stats_ignores_manifests(self, tmp_path):
        cache = ResultCache(tmp_path)
        _run_all_shards(_study(), cache, 2)
        assert cache.stats()["entries"] == len(_study())
        assert len(cache) == len(_study())

    def test_gc_keeps_current_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        Sweep(jobs=1, cache=cache).run([_cfg()])
        counts = cache.gc()
        assert counts == {
            "kept": 1, "removed_stale": 0,
            "removed_corrupt": 0, "removed_tmp": 0,
        }
        assert len(cache) == 1

    def test_gc_prunes_stale_version_entries(self, tmp_path):
        """An entry filed under a key the current version can't recompute
        is dead weight — exactly what a code-version bump leaves behind."""
        cache = ResultCache(tmp_path)
        path = Sweep(jobs=1, cache=cache).run([_cfg()])
        entry = next(iter(cache._entry_files()))
        stale = entry.with_name(("0" * 64) + ".json")
        stale.write_text(entry.read_text())
        counts = cache.gc()
        assert counts["kept"] == 1
        assert counts["removed_stale"] == 1
        assert not stale.exists() and entry.exists()

    def test_gc_prunes_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = cache.cache_dir / (("ab" * 32) + ".json")
        bad.write_text("{not json")
        counts = cache.gc()
        assert counts["removed_corrupt"] == 1
        assert not bad.exists()

    def test_entry_carries_cache_meta(self, tmp_path):
        from repro import __version__

        cache = ResultCache(tmp_path)
        Sweep(jobs=1, cache=cache).run([_cfg()])
        entry = next(iter(cache._entry_files()))
        meta = json.loads(entry.read_text())["cache_meta"]
        assert meta["code_version"] == __version__

    def test_cache_meta_invisible_to_results(self, tmp_path):
        """Entries with provenance replay identically to entries without."""
        cache = ResultCache(tmp_path)
        (fresh,) = Sweep(jobs=1, cache=cache).run([_cfg()])
        (replayed,) = Sweep(jobs=1, cache=cache).run([_cfg()])
        assert replayed.to_dict() == fresh.to_dict()


# ---------------------------------------------------------------------------
# Metrics merge (gather's telemetry accumulation)
# ---------------------------------------------------------------------------


class TestMetricsMerge:
    def test_counters_add_gauges_last_win(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(7)
        a.merge(b)
        assert a.counter("n").value == 5
        assert a.gauge("g").value == 7

    def test_histograms_combine(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        h = a.histogram("h")
        assert (h.count, h.total, h.minimum, h.maximum) == (3, 9.0, 1.0, 5.0)
