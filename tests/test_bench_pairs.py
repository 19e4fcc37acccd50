"""scripts/bench_pairs.py: the gain rule and the exit code, on hand-built runs."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def metric(base, change, better="lower"):
    """A report's metric entry for paired runs base[i], change[i]."""
    wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
    return {"unit": "s", "better": better, "base": bench_pairs.summary(base),
            "change": bench_pairs.summary(change), "change_wins": wins}


BASE = [1.00, 1.02, 0.98, 1.05, 0.95, 1.01, 0.99, 1.03, 0.97, 1.00]


def test_gain_holds_with_nine_wins_beyond_the_base_spread():
    pct, holds = bench_pairs.verdict(metric(BASE, [0.8 * b for b in BASE]))
    assert pct == pytest.approx(-20.0)
    assert holds


def test_gain_needs_nine_wins():
    # eight pairs won by far, two lost: the medians move, the rule does not hold
    change = [0.7 * b for b in BASE[:8]] + [1.2 * b for b in BASE[8:]]
    m = metric(BASE, change)
    assert m["change_wins"] == 8
    pct, holds = bench_pairs.verdict(m)
    assert pct < -20 and not holds


def test_gain_needs_the_medians_apart_by_more_than_the_base_spread():
    # every pair won, by less than the base's q3 - q1
    m = metric(BASE, [b - 0.005 for b in BASE])
    assert m["change_wins"] == 10
    assert m["base"]["q3"] - m["base"]["q1"] > 0.005
    assert not bench_pairs.verdict(m)[1]


def test_gain_follows_the_metric_direction():
    faster = [1.3 * b for b in BASE]
    pct, holds = bench_pairs.verdict(metric(BASE, faster, better="higher"))
    assert pct == pytest.approx(30.0) and holds
    # a higher time is no gain, whatever the wins count says
    m = metric(BASE, faster)
    m["change_wins"] = 10
    assert not bench_pairs.verdict(m)[1]


def fake_runs(bad):
    """A run_bench stand-in: every run correct, except those of the (workload, side) in `bad`."""

    def run_bench(tree, workload, seed):
        ok = (workload, tree.name) not in bad
        value = {"wall_s": 1.0, "items_per_s": 100.0, "setup_s": 0.1, "peak_rss_mb": 40.0}
        return {}, {"correct": ok, "attempted": 10, "failed": 0 if ok else 1,
                    "metrics": {k: {"value": v + seed * 1e-3} for k, v in value.items()}}

    return run_bench


@pytest.mark.parametrize("bad", [set(), {("scan", "change")}, {("gram", "base")}])
def test_exit_code_names_failed_sides_after_writing_the_report(tmp_path, monkeypatch, capsys,
                                                               bad):
    monkeypatch.setattr(bench_pairs, "git",
                        lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pairs, "export", lambda commit, dest: pathlib.Path(dest) / "base")
    monkeypatch.setattr(bench_pairs, "copy_working_tree",
                        lambda dest: pathlib.Path(dest) / "change")
    monkeypatch.setattr(bench_pairs, "run_bench", fake_runs(bad))
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--base", "HEAD", "--out", str(out), "--seed-start", "5"])
    report = json.loads(out.read_text())
    assert report["seeds"] == list(range(5, 15))
    assert sorted(bench_pairs.failures(report)) == sorted(bad)
    err = capsys.readouterr().err
    assert code == (1 if bad else 0)
    for workload, side in bad:
        assert f"{workload} {side}:" in err
    assert bool(err) == bool(bad)
