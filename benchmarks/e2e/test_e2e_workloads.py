"""The seeded workload generator and the output checks."""

from collections import Counter

import pytest

import workloads as wl


def _composition(configs):
    """Everything that sets a config's host cost."""
    return Counter(
        (c["platform"], c["benchmark"], c["proc_bind"], c["runs"],
         c["num_threads"], c["places"] if c["platform"] == "dardel" else None)
        for c in configs
    )


def test_same_seed_same_configs():
    assert wl.mixed_sweep_configs(7) == wl.mixed_sweep_configs(7)
    argv = wl.WORKLOADS["mixed-sweep"].invocations(7)[0].argv
    assert argv == wl.WORKLOADS["mixed-sweep"].invocations(7)[0].argv


def test_seeds_differ_but_share_composition():
    draws = [wl.mixed_sweep_configs(s) for s in range(20)]
    assert len({repr(d) for d in draws}) == 20
    reference = _composition(draws[0])
    for configs in draws:
        assert len(configs) == wl.MIXED_CONFIGS
        assert _composition(configs) == reference
        assert [c["platform"] for c in configs[:4]] == ["vera", "dardel"] * 2
        assert sum(c["proc_bind"] == "false" for c in configs) == 12
        assert sorted(c["runs"] for c in configs) == [1] * 12 + [4] * 12


def test_random_axes_vary_across_seeds():
    seen = {key: set() for key in ("runtime", "wait_policy", "places")}
    for s in range(20):
        for c in wl.mixed_sweep_configs(s):
            for key in seen:
                seen[key].add((c["platform"], c[key]))
    assert {rt for _, rt in seen["runtime"]} == {"gnu", "llvm"}
    assert {wp for _, wp in seen["wait_policy"]} == {None, "active", "passive"}
    assert {("vera", "cores"), ("vera", "threads")} <= seen["places"]


def test_binding_smt_and_unbound_teams_are_covered():
    configs = wl.mixed_sweep_configs(0)
    assert {c["proc_bind"] for c in configs} == {"false", "close", "spread"}
    for c in configs:
        assert (c["places"] is None) == (c["proc_bind"] == "false")
    # Dardel teams above its 128 cores need hardware-thread places (SMT)
    smt = [c for c in configs if c["platform"] == "dardel" and c["places"] == "threads"]
    assert len(smt) == 3 and max(c["num_threads"] for c in smt) == 254


def test_template_and_check_subsets():
    for s in range(10):
        configs = wl.mixed_sweep_configs(s)
        template = wl.template_indices(configs)
        assert len(template) == 6
        assert all(configs[i]["runs"] == 1 for i in template)
        assert sum(configs[i]["proc_bind"] != "false" for i in template) == 3
        simulated = [c for i, c in enumerate(configs) if i not in template]
        assert sum(c["runs"] for c in simulated) == 54
        check = wl.check_indices(configs, template)
        assert len(check) == 4 and not set(check) & set(template)
        strata = {(configs[i]["proc_bind"] != "false", configs[i]["runs"]) for i in check}
        assert len(strata) == 4


def test_zip_args_round_trip_values():
    configs = wl.mixed_sweep_configs(3)[:2]
    args = wl.zip_args(configs)
    assert args[0] == "--zip" and args[1].startswith("platform=")
    places = next(a for a in args if a.startswith("places="))
    assert places.split("=")[1].split(",") == [
        "none" if c["places"] is None else c["places"] for c in configs
    ]


def test_timed_commands_use_only_stable_flags():
    for workload in wl.WORKLOADS.values():
        for inv in workload.invocations(1):
            assert "--fused" not in inv.argv and "--backend" not in inv.argv


TABLE2 = """### table2: run-to-run schedbench dynamic_1 execution times
--- per-run means ---
schedbench dynamic_1 mean time (us) per run
run #   dardel@4  dardel@254     vera@4    vera@30
-----  ---------  ----------  ---------  ---------
    1  124000.00   154200.00  136500.00  164700.00
    2  124000.00   169620.00  136500.00  164700.00
"""


def test_table2_error():
    # dardel@254 is 5 % high on average; the other cells are exact
    assert wl.table2_err_pct(TABLE2) == pytest.approx(5.0 / 4)
    with pytest.raises(ValueError):
        wl.table2_err_pct("no table here")
