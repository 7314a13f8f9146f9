"""Tests for repro.rng (deterministic named streams)."""

import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import RngFactory, derive_seed

#: Path components of every type a stream path accepts, nested included.
components = st.recursive(
    st.one_of(
        st.integers(),
        st.text(max_size=8),
        st.floats(),
        st.booleans(),
        st.none(),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)
paths = st.lists(components, max_size=4).map(tuple)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "noise", 3) == derive_seed(42, "noise", 3)

    def test_path_sensitivity(self):
        assert derive_seed(42, "noise", 3) != derive_seed(42, "noise", 4)
        assert derive_seed(42, "noise") != derive_seed(42, "freq")

    def test_seed_sensitivity(self):
        assert derive_seed(42, "noise") != derive_seed(43, "noise")

    def test_component_types_distinguished(self):
        # int 1 vs str "1" vs True must hash differently
        seeds = {
            derive_seed(0, 1),
            derive_seed(0, "1"),
            derive_seed(0, True),
            derive_seed(0, 1.0),
            derive_seed(0, None),
        }
        assert len(seeds) == 5

    def test_tuple_components(self):
        assert derive_seed(0, ("a", 1)) == derive_seed(0, ("a", 1))
        assert derive_seed(0, ("a", 1)) != derive_seed(0, ("a", 2))

    def test_rejects_unhashable_objects(self):
        with pytest.raises(TypeError):
            derive_seed(0, object())

    def test_128_bit_range(self):
        s = derive_seed(42, "x")
        assert 0 <= s < 2**128


class TestRngFactory:
    def test_same_path_same_sequence(self):
        f = RngFactory(7)
        a = f.stream("scheduler", 0).random(10)
        b = f.stream("scheduler", 0).random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent_objects(self):
        f = RngFactory(7)
        a = f.stream("x")
        a.random(5)  # consuming a must not affect a fresh stream
        b = f.stream("x")
        assert b.random() == RngFactory(7).stream("x").random()

    def test_different_paths_differ(self):
        f = RngFactory(7)
        a = f.stream("noise").random(4)
        b = f.stream("freq").random(4)
        assert not np.array_equal(a, b)

    def test_child_scoping(self):
        f = RngFactory(7)
        child = f.child("run", 3)
        direct = f.stream("run", 3, "noise").random(4)
        scoped = child.stream("noise").random(4)
        np.testing.assert_array_equal(direct, scoped)

    def test_child_of_child(self):
        f = RngFactory(1).child("a").child("b", 2)
        np.testing.assert_array_equal(
            f.stream("z").random(3), RngFactory(1).stream("a", "b", 2, "z").random(3)
        )

    def test_equality_and_hash(self):
        assert RngFactory(5) == RngFactory(5)
        assert RngFactory(5) != RngFactory(6)
        assert RngFactory(5).child("x") == RngFactory(5).child("x")
        assert hash(RngFactory(5)) == hash(RngFactory(5))

    def test_master_seed_changes_everything(self):
        a = RngFactory(1).stream("noise").random(8)
        b = RngFactory(2).stream("noise").random(8)
        assert not np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-2**70, max_value=2**70), paths, paths, paths)
    def test_prefix_hashed_streams_are_derive_seed_streams(
        self, master, prefix, scope, path
    ):
        """A factory extends its hashed seed and prefix per stream: the
        generator is the one ``derive_seed`` of the whole path seeds."""
        got = RngFactory(master, prefix).child(*scope).stream(*path)
        want = np.random.Generator(
            np.random.PCG64(derive_seed(master, *prefix, *scope, *path))
        )
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(3).tolist() == want.random(3).tolist()

    def test_pickled_factory_derives_equal_streams(self):
        f = RngFactory(11, ("run", 2)).child("taskbench", 1.5)
        before = f.stream("thread", 0).random(4)  # the hash state is cached
        again = pickle.loads(pickle.dumps(f))
        assert again == f
        np.testing.assert_array_equal(again.stream("thread", 0).random(4), before)
        np.testing.assert_array_equal(
            again.child("rep", 3).stream(None).random(4),
            f.child("rep", 3).stream(None).random(4),
        )


class TestBatchedDrawEquivalence:
    """The hot-path refactor pre-draws per-run arrays instead of looping
    scalar draws.  These tests lock the contract that makes that safe:
    a batched numpy draw consumes the generator's stream exactly like the
    equivalent sequence of scalar draws, so results stay bit-identical
    (goldens must not move)."""

    def test_choice_batched_equals_scalar_loop(self):
        pool = [3, 7, 11, 19, 23, 29]
        a, b = np.random.default_rng(42), np.random.default_rng(42)
        scalar = [int(a.choice(pool)) for _ in range(64)]
        batched = [int(c) for c in b.choice(pool, size=64)]
        assert scalar == batched
        # generator state advanced identically: next draws agree
        assert a.random() == b.random()
        # a list and an int64 array of equal length: same bits, same
        # position (the wakeup placer draws from masked array pools)
        for n in (1, 2, 3, 7, 31, 128, 255):
            pool = list(range(5, 5 + 3 * n, 3))
            for seed in range(50):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                from_list = int(a.choice(pool))
                assert from_list == int(b.choice(np.asarray(pool, dtype=np.int64)))
                assert a.bit_generator.state == b.bit_generator.state

    def test_uniform_batched_equals_affine_random(self):
        lo, hi = -0.3, 1.7
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        u = a.uniform(lo, hi, size=512)
        r = lo + (hi - lo) * b.random(512)
        np.testing.assert_array_equal(u, r)

    def test_lognormal_batched_equals_scalar_loop(self):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        scalar = [a.lognormal(mean=-0.01, sigma=0.2) for _ in range(128)]
        batched = b.lognormal(mean=-0.01, sigma=0.2, size=128).tolist()
        assert scalar == batched
        assert a.random() == b.random()

    def test_placement_matches_scalar_reference(self):
        """idle_first_cpus's batched draw must reproduce the historical
        per-event loop bit-for-bit (same CPUs, same final stream state)."""
        from repro.osnoise.placement import idle_first_cpus
        from repro.platform import get_platform

        machine = get_platform("vera").machine
        busy = list(range(8))

        def reference(n, machine, busy_cpus, rng):
            busy = set(busy_cpus)
            busy_cores = {machine.hwthread(c).core_id for c in busy}
            idle_free = [
                c for c in range(machine.n_cpus)
                if c not in busy and machine.hwthread(c).core_id not in busy_cores
            ]
            idle_sib = [
                c for c in range(machine.n_cpus)
                if c not in busy and machine.hwthread(c).core_id in busy_cores
            ]
            all_cpus = np.arange(machine.n_cpus)
            out = []
            for _ in range(n):
                if idle_free:
                    cpu = int(rng.choice(idle_free))
                elif idle_sib:
                    cpu = int(rng.choice(idle_sib))
                else:
                    cpu = int(rng.choice(all_cpus))
                out.append(cpu)
            return out

        a, b = np.random.default_rng(1234), np.random.default_rng(1234)
        got = idle_first_cpus(machine, busy, 40, b)
        want = reference(40, machine, busy, a)
        assert got.tolist() == want
        assert a.random() == b.random()

    def test_placement_saturated_machine(self):
        """All CPUs busy: the batched draw falls through to the random
        preemption pool, still matching the scalar reference."""
        from repro.osnoise.placement import idle_first_cpus
        from repro.platform import get_platform

        machine = get_platform("vera").machine
        busy = list(range(machine.n_cpus))
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        got = idle_first_cpus(machine, busy, 16, b)
        want = [int(a.choice(np.arange(machine.n_cpus))) for _ in range(16)]
        assert got.tolist() == want
        assert a.random() == b.random()

    def test_scan_victims_early_out_consumes_same_stream(self):
        """The all-deques-empty fast path must draw the permutation anyway
        (draw order is the determinism contract) and force the exact
        outcome the probe loop would have produced."""
        from repro.omp.tasking.params import TaskCostModel, TaskCostParams
        from repro.omp.tasking.scheduler import WorkStealingScheduler
        from repro.omp.team import Team
        from repro.platform import get_platform

        plat = get_platform("vera")
        team = Team(machine=plat.machine, cpus=tuple(range(8)), bound=True)
        sched = WorkStealingScheduler(
            team, TaskCostModel(TaskCostParams()), None, None, [None] * 8
        )

        deques = [deque() for _ in range(8)]
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        # fast path (queued=0) vs the probe loop (queued>0, all empty)
        fast = sched._scan_victims(2, deques, a, queued=0)
        slow = sched._scan_victims(2, deques, b, queued=1)
        assert fast == slow == (None, 7)
        assert a.random() == b.random()
