"""The compare rules (win / regression / unresolved) on synthetic samples."""

import json

import compare

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]


def test_claimed_win_needs_nine_of_ten_and_gap_over_iqr():
    faster = [v * 0.9 for v in PARENT]
    assert compare.verdict(PARENT, faster, "lower", 0.1, claimed=True) == "win"
    # one more tie-free loss than allowed: 8 / 10 wins
    mixed = faster[:8] + [11.0, 11.0]
    assert compare.verdict(PARENT, mixed, "lower", 0.1, claimed=True) == "claim not met"
    # consistent but smaller than the parent's own spread
    tiny = [v - 0.01 for v in PARENT]
    assert compare.verdict(PARENT, tiny, "lower", 0.1, claimed=True) == "claim not met"
    # fewer than ten pairs never supports a claim
    assert compare.verdict(PARENT[:9], faster[:9], "lower", 0.1, claimed=True) == "claim not met"
    # more failures than the parent cancels the gain
    assert compare.verdict(PARENT, faster, "lower", 0.1, claimed=True,
                           more_failures=True) == "claim not met"


def test_higher_is_better_direction():
    more = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, more, "higher", 0.1, claimed=True) == "win"
    assert compare.verdict(PARENT, more, "lower", 0.1) == "regression"
    assert compare.verdict(PARENT, more, "higher", 0.1) == "ok"


def test_within_bound_is_ok_and_beyond_is_regression():
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "ok"
    assert compare.verdict(PARENT, [v * 1.15 for v in PARENT], "lower", 0.1) == "regression"


def test_noisy_metric_is_unresolved_unless_all_runs_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(PARENT, noisy, "lower", 0.1) == "unresolved"
    all_better = [v * 0.5 for v in noisy]
    assert compare.verdict(PARENT, all_better, "lower", 0.1) == "better"


def _results(path, values, sha="a"):
    runs = [
        {"workload": "w", "seed": i, "trace": 0, "failed": 0,
         "output_sha256": sha,
         "metrics": {"wall_s": {"value": v}}}
        for i, v in enumerate(values)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_reports_rows_and_exit_status(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(compare, "load_spec", lambda: {
        "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.1},
    })
    parent = _results(tmp_path / "p.json", PARENT)
    same = _results(tmp_path / "c.json", PARENT)
    assert compare.compare(parent, same, []) == 0
    row = capsys.readouterr().out.strip()
    assert row.startswith("w: pairs=10") and "output same" in row and " ok" in row
    slower = _results(tmp_path / "s.json", [v * 1.3 for v in PARENT], sha="b")
    assert compare.compare(parent, slower, []) == 1
    row = capsys.readouterr().out
    assert "regression" in row and "output CHANGED" in row
