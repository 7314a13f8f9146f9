"""Fresh-interpreter entry points started by ``run.py``.

``child.py cli REPORT -- ARGV...``
    One timed CLI invocation: imports ``repro.cli`` (timing the import),
    then runs ``repro.cli.main(ARGV)`` exactly as ``repro-omp ARGV``
    would.  Writes ``{"import_s": ...}`` to REPORT and exits with the
    CLI's exit code.

``child.py setup SPEC REPORT``
    One set-up pass of a workload, as described by the JSON file SPEC
    (see ``Workload.setup_spec``): count the runs each experiment
    simulates via its registered study, run CLI commands in-process
    (cache population), and expand + validate a sweep's configs through
    ``sweep --dry-run``.  Writes what it found to REPORT.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time


def _cli(report: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    with open(report, "w") as fh:
        json.dump({"import_s": import_s}, fh)
    return repro.cli.main(argv)


def _run_main(main, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"set-up command failed ({code}): {' '.join(argv)}")
    return buf.getvalue()


def _setup(spec_path: str, report: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import repro.cli
    from repro.harness.config import ExperimentConfig
    from repro.harness.experiments import get_experiment
    from repro.harness.runner import Runner

    out: dict = {"runs": {}, "outputs": []}
    for exp in spec.get("experiments", []):
        study = get_experiment(exp["name"]).build_study(
            runs=exp["runs"], outer_reps=exp["reps"], num_times=exp["reps"],
            seed=exp["seed"],
        )
        out["runs"][exp["name"]] = sum(cfg.runs for cfg in study.configs())
    for argv in spec.get("cli", []):
        text = _run_main(repro.cli.main, argv)
        out["outputs"].append(hashlib.sha256(text.encode()).hexdigest())
        if argv[:2] == ["experiment", "table2"]:
            out["table2_text"] = text
    if spec.get("dry_run"):
        preview = json.loads(
            _run_main(repro.cli.main, spec["dry_run"] + ["--dry-run"])
        )
        cached = [row for row in preview["configs"] if row["cached"]]
        if len(cached) != spec["expect_cached"]:
            raise SystemExit(
                f"expected {spec['expect_cached']} pre-warmed configs, "
                f"found {len(cached)}"
            )
        out["cached"] = len(cached)
        for row in preview["configs"]:
            # constructing the runner resolves places and binding, which
            # Study.configs() alone does not check
            Runner(ExperimentConfig.from_dict(row["config"])).planned_cpus()
        out["runs"]["sweep"] = sum(
            row["config"]["runs"] for row in preview["configs"]
            if not row["cached"]
        )
    with open(report, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(_cli(sys.argv[2], sys.argv[4:]))
    sys.exit(_setup(sys.argv[2], sys.argv[3]))
