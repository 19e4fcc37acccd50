#!/usr/bin/env python3
"""Paired benchmark runs: the working tree against a committed base.

    python3 scripts/bench_pairs.py --base HEAD --seed-start 100 --out BENCH_<n>.json

Exports the base commit with `git archive`, and copies the working tree's
files (tracked and untracked, not ignored), into one temporary directory, and
runs `perfbench/run.py --workload W --seed S --trace 0` in each copy, one
after the other, for each of 10 pairs and each workload of `BENCHMARK.json`;
`perfbench/run.py` sets the run length, the same on both sides.  Both sides
run from fresh directories side by side, so neither gains from where it
lies or from what earlier runs left in it.  Pair i uses seed `seed-start + i` on both
sides, and the side that runs first alternates from pair to pair, so a drift
of the machine's speed hits both sides alike.  The JSON written to --out
holds, per workload and end-to-end metric of `BENCHMARK.json`, every run's
value, the median and quartiles of each side, and the number of pairs in
which the working tree did better; and per workload and side, whether every
run was `correct` and the share of failed operations.

Each summary line gives the change of the median in percent and whether the
gain rule holds: the working tree did better in at least 9 of the 10 pairs,
and its median differs from the base's by more than the base's q3 - q1.
After writing --out, the script exits 1, naming the workload and side, if
any run on either side was not `correct` or had failed operations.

Each run is its own process group and is killed with it if the script stops
early (on an exception, Ctrl-C, SIGTERM or SIGHUP), and both copies are
removed on exit, so nothing is left behind.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10
GAIN_WINS = 9  # pairs of the 10 the working tree must win for a gain


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit, dest):
    """Write the tree of `commit` under dest, as `git archive` gives it."""
    archive = Path(dest) / "base.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                       stdout=fh)
    tree = Path(dest) / "base"
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12+, 3.11.4+
            tar.extractall(tree, filter="data")
        else:  # our own git archive, no untrusted member
            tar.extractall(tree)
    archive.unlink()
    return tree


def copy_working_tree(dest):
    """Copy the working tree's tracked and untracked, not ignored, files under dest."""
    tree = Path(dest) / "change"
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, tree / name)
    return tree


def run_bench(tree, workload, seed):
    """One `perfbench/run.py --trace 0` run in `tree`; returns (env, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # the group may be gone already
            os.killpg(proc.pid, signal.SIGKILL)  # the run and the worker it started
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} in {tree}")
    lines = out.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return env, json.loads(lines[-1])


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def verdict(m):
    """(change of the median in percent, whether the gain rule holds) of a metric entry."""
    base, change = m["base"]["median"], m["change"]["median"]
    better = change < base if m["better"] == "lower" else change > base
    holds = (better and m["change_wins"] >= GAIN_WINS
             and abs(change - base) > m["base"]["q3"] - m["base"]["q1"])
    return 100 * (change - base) / base, holds


def failures(report):
    """(workload, side) of every side with a run that was not correct or had failed operations."""
    return [(workload, side) for workload, entry in report["workloads"].items() for side in SIDES
            if not entry["correct"][side] or entry["fail_frac"][side] > 0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare the working tree against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seed-start", type=int, default=0, help="seed of the first pair")
    args = p.parse_args(argv)
    # unwind on a termination request too, so the runs are killed and the copies removed
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    base_commit = git("rev-parse", args.base)
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    env = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": export(base_commit, tmp), "change": copy_working_tree(tmp)}
        for i in range(PAIRS):
            seed = args.seed_start + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    env, result = run_bench(trees[side], workload, seed)
                    runs[workload][side].append(result)
                    print(f"pair {i} seed {seed} {workload} {side}: "
                          + " ".join(f"{k}={v['value']:.6g}"
                                     for k, v in result["metrics"].items()), flush=True)

    report = {
        "base": base_commit,
        "change": {"head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain"))},  # untracked files are copied too
        "pairs": PAIRS, "seeds": [args.seed_start + i for i in range(PAIRS)],
        "order": "base first on even pairs, change first on odd",
        "machine": env, "workloads": {},
    }
    for workload in workloads:
        sides = runs[workload]
        entry = {
            "correct": {s: all(r["correct"] for r in sides[s]) for s in SIDES},
            "fail_frac": {s: sum(r["failed"] for r in sides[s])
                          / max(1, sum(r["attempted"] for r in sides[s])) for s in SIDES},
            "metrics": {},
        }
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            values = {s: [r["metrics"][name]["value"] for r in sides[s]] for s in SIDES}
            wins = sum((c < b) if lower else (c > b)
                       for b, c in zip(values["base"], values["change"]))
            entry["metrics"][name] = {"unit": m["unit"], "better": m["better"],
                                      **{s: summary(values[s]) for s in SIDES},
                                      "change_wins": wins}
        report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            pct, holds = verdict(m)
            print(f"{workload:10s} {name:12s} {m['base']['median']:12.6g} -> "
                  f"{m['change']['median']:12.6g} {m['unit']:4s} {pct:+7.1f} % "
                  f"(base q1 {m['base']['q1']:.6g}, q3 {m['base']['q3']:.6g}; "
                  f"change better in {m['change_wins']}/{PAIRS}; "
                  f"gain {'holds' if holds else 'does not hold'})")
    bad = failures(report)
    for workload, side in bad:
        print(f"{workload} {side}: a run was not correct or had failed operations",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
