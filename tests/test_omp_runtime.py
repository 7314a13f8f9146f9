"""Tests for the OpenMP runtime facade and run contexts."""

import numpy as np
import pytest

from repro.errors import BindingError, ConfigurationError
from repro.omp import OMPEnvironment, OpenMPRuntime
from repro.platform import dardel, toy, vera, get_platform
from repro.rng import RngFactory
from repro.types import PLATFORMS, ProcBind


class TestTeamResolution:
    def test_bound_team_st(self):
        rt = OpenMPRuntime(
            toy(), OMPEnvironment(num_threads=4, places="cores",
                                  proc_bind=ProcBind.CLOSE)
        )
        team = rt.resolve_bound_team()
        assert team.cpus == (0, 1, 2, 3)
        assert team.bound
        assert not team.uses_smt

    def test_bound_team_mt(self):
        rt = OpenMPRuntime(
            toy(), OMPEnvironment(num_threads=4, places="threads",
                                  proc_bind=ProcBind.CLOSE)
        )
        team = rt.resolve_bound_team()
        # toy: core c owns cpus (c, c+8); threads-places pack siblings
        assert team.cpus == (0, 8, 1, 9)
        assert team.uses_smt

    def test_dardel_254_mt(self):
        rt = OpenMPRuntime(
            dardel(), OMPEnvironment(num_threads=254, places="threads",
                                     proc_bind=ProcBind.CLOSE)
        )
        team = rt.resolve_bound_team()
        assert team.n_threads == 254
        assert team.active_cores == 127

    def test_unbound_team(self):
        rt = OpenMPRuntime(toy(), OMPEnvironment(num_threads=4))
        team, fork = rt.resolve_unbound_team(RngFactory(1).stream("p"))
        assert not team.bound
        assert team.n_threads == 4
        assert fork.cpus == team.cpus

    def test_bound_resolution_requires_binding(self):
        rt = OpenMPRuntime(toy(), OMPEnvironment(num_threads=4))
        with pytest.raises(BindingError):
            rt.resolve_bound_team()

    def test_too_many_threads(self):
        with pytest.raises(ConfigurationError):
            OpenMPRuntime(toy(), OMPEnvironment(num_threads=99))


class TestRunContext:
    def make_runtime(self):
        return OpenMPRuntime(
            toy(), OMPEnvironment(num_threads=4, places="cores",
                                  proc_bind=ProcBind.CLOSE)
        )

    def test_start_run_components(self):
        rt = self.make_runtime()
        ctx = rt.start_run(0, RngFactory(2), horizon=1.0)
        assert ctx.team.bound
        assert ctx.freq_plan.calibration_hz == rt.platform.freq_spec.calibration_hz
        assert ctx.t == 0.0
        assert ctx.machine is rt.machine

    def test_runs_share_the_bound_team(self):
        """The pinned team is resolved once per runtime, not per run."""
        rt = self.make_runtime()
        first, second = (rt.start_run(run, RngFactory(2), 1.0) for run in (0, 1))
        assert first.team is second.team is rt.resolve_bound_team()

    def test_advance(self):
        ctx = self.make_runtime().start_run(0, RngFactory(2), 1.0)
        ctx.advance(0.5)
        assert ctx.t == 0.5
        with pytest.raises(ConfigurationError):
            ctx.advance(-0.1)

    def test_run_streams_scoped_by_run(self):
        rt = self.make_runtime()
        a = rt.start_run(0, RngFactory(2), 1.0).stream("x").random(4)
        b = rt.start_run(1, RngFactory(2), 1.0).stream("x").random(4)
        assert not np.array_equal(a, b)

    def test_same_run_same_noise(self):
        rt = self.make_runtime()
        n1 = rt.start_run(0, RngFactory(2), 1.0).noise
        n2 = rt.start_run(0, RngFactory(2), 1.0).noise
        for mine, theirs in zip(n1.events(), n2.events()):
            np.testing.assert_array_equal(mine, theirs)

    def test_extra_busy_cpus_absorb_placement(self):
        rt = self.make_runtime()
        ctx = rt.start_run(0, RngFactory(2), 1.0, extra_busy_cpus=(15,))
        # logger cpu is busy: daemons must not land there preferentially
        assert 15 not in ctx.team.cpus

    def test_refork_unbound_changes_nothing_for_bound(self):
        rt = self.make_runtime()
        ctx = rt.start_run(0, RngFactory(2), 1.0)
        cpus_before = ctx.team.cpus
        ctx.refork_unbound(RngFactory(9).stream("z"))
        assert ctx.team.cpus == cpus_before

    def test_refork_unbound_resamples(self):
        rt = OpenMPRuntime(toy(), OMPEnvironment(num_threads=6))
        ctx = rt.start_run(0, RngFactory(2), 1.0)
        rng = RngFactory(3).stream("reforks")
        placements = set()
        for _ in range(10):
            ctx.refork_unbound(rng)
            placements.add(ctx.team.cpus)
        assert len(placements) > 1  # placement actually varies

    def test_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            self.make_runtime().start_run(0, RngFactory(2), 0.0)

    def test_reforked_cpus_see_noise(self):
        """Regression: an unbound run's noise is realized machine-wide, so
        a reforked team never lands on noise-free CPUs (previously the
        realization only covered the *initial* placement)."""
        rt = OpenMPRuntime(toy(), OMPEnvironment(num_threads=6))
        ctx = rt.start_run(0, RngFactory(2), horizon=1.0)
        rng = RngFactory(3).stream("reforks")
        seen_cpus = set()
        for _ in range(20):
            ctx.refork_unbound(rng)
            seen_cpus.update(ctx.team.cpus)
            for cpu in ctx.team.cpus:
                # toy's tick source fires 250/s on every (machine-wide
                # busy) CPU: one simulated second cannot be silent
                assert ctx.noise_batch.stolen(cpu)(0.0, 1.0) > 0, (
                    f"reforked cpu {cpu} has no noise events"
                )
        assert len(seen_cpus) > 6  # reforks actually moved the team

    def test_unbound_noise_covers_whole_machine(self):
        rt = OpenMPRuntime(toy(), OMPEnvironment(num_threads=2))
        ctx = rt.start_run(0, RngFactory(2), horizon=1.0)
        machine = rt.machine
        assert all(
            ctx.noise_batch.stolen(cpu)(0.0, 1.0) > 0
            for cpu in range(machine.n_cpus)
        )

    def test_bound_noise_still_placement_scoped(self):
        """Bound teams keep the historical team-scoped realization."""
        rt = self.make_runtime()  # bound, cpus 0-3
        ctx = rt.start_run(0, RngFactory(2), horizon=1.0)
        # ticks fire on busy CPUs only; cpu 7 hosts no benchmark thread
        _, _, cpus, kinds = ctx.noise.events()
        kinds_off_team = set(kinds[cpus == 7].tolist())
        assert "tick" not in kinds_off_team


class TestPlatformPresets:
    def test_available(self):
        assert set(PLATFORMS) == {"dardel", "toy", "vera"}
        assert all(get_platform(name).name == name for name in PLATFORMS)

    def test_get_platform(self):
        assert get_platform("DARDEL").name == "dardel"
        with pytest.raises(ConfigurationError):
            get_platform("summit")

    def test_presets_are_built_once(self):
        assert get_platform("dardel") is get_platform("DARDEL") is dardel()
        assert get_platform("vera") is vera()
        assert toy(smt=4) is toy(smt=4)
        assert toy(smt=4) is not toy()
        assert toy(smt=4).machine.n_cpus == 32 and toy().machine.n_cpus == 16

    def test_registered_platform_resolves_to_its_own_object(self, monkeypatch):
        import repro.platform as platform_module

        custom = vera().quiet()
        monkeypatch.setitem(platform_module._PLATFORMS, "custom", lambda: custom)
        assert get_platform("custom") is custom
        assert get_platform("vera") is vera() is not custom

    def test_dardel_spec_sanity(self):
        p = dardel()
        assert p.machine.n_cpus == 256
        assert p.freq_spec.calibration_hz == pytest.approx(3.4e9)
        assert p.freq_spec.boost.all_core_floor == pytest.approx(2.8e9)

    def test_vera_spec_sanity(self):
        p = vera()
        assert p.machine.n_cpus == 32
        assert p.freq_spec.calibration_hz == pytest.approx(3.7e9)
        # Vera's dip process is the hot one (paper Sec 5.4)
        assert p.freq_spec.dips.cross_numa_rate > dardel().freq_spec.dips.cross_numa_rate

    def test_quiet_copy(self):
        p = dardel().quiet()
        assert not p.noise_profile.sources
        assert p.machine.n_cpus == 256

    def test_describe(self):
        assert "noise profile" in vera().describe()
