"""Benchmark entry point for qtgl3.

    python3 perfbench/run.py --workload gram --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Runs from the root of a checkout and benchmarks the package under ``src``.
Each iteration of a workload is one worker process (fresh interpreter, fresh
``WordEngine`` memo tables, its own peak RSS).  Iterations repeat until
``--seconds`` have passed; each iteration also gives one set-up time sample.
The last line of stdout is one JSON object:

- ``--trace 0``: the end-to-end metrics (medians over the iterations);
- ``--trace 1``: untraced iterations for ``--seconds``, then one traced
  iteration; the per-layer metrics, ``trace.overhead_s``, and the bypass
  assertions (a broken bypass counts as a failed operation).

``--workload all`` runs the four workloads in turn and prints every metric of
each, ``fail_frac`` included.  See perfbench/README.md for what each metric
and workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_LIMIT_S = 170  # one workload's run must end within 180 s
BLAS_THREADS = "1"

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# (counter, workload predicate): the counter must be zero on these workloads
BYPASSES = (
    ("form", lambda w: w == "verify"),
    ("unitarity", lambda w: w == "verify"),
    ("unitarity.specialize", lambda w: w in ("gram", "crosscheck")),
    ("form.form_combinatorial", lambda w: w != "crosscheck"),
)


def child_env():
    env = dict(os.environ)
    env.pop("QTW_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(workload, seed, deadline, extra=()):
    """Run one worker; returns (its JSON document or None, set-up seconds or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"worker for {workload} timed out", file=sys.stderr)
            return None, None
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or not out.strip():
        print(f"worker for {workload} exited {proc.returncode}", file=sys.stderr)
        return None, None
    doc = json.loads(out.decode().strip().splitlines()[-1])
    return doc, doc["t_first"] - t_spawn


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, seed, seconds, deadline):
    """Untraced iterations until `seconds` have passed; each document gains its "setup_s"."""
    runs, attempted, failed = [], 0, 0
    start = time.monotonic()
    while True:
        doc, setup = spawn(workload, seed, deadline)
        if doc is None:
            attempted += 1
            failed += 1
        else:
            doc["setup_s"] = setup
            runs.append(doc)
            attempted += doc["items"]
            failed += doc["failed"]
        if time.monotonic() - start >= seconds or time.monotonic() >= deadline:
            break
    return runs, attempted, failed


def end_to_end(runs):
    """Per-iteration samples of each end-to-end metric."""
    return {
        "wall_s": [r["wall_s"] for r in runs],
        "items_per_s": [r["items"] / r["wall_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def traced(workload, seed, seconds, deadline):
    runs, attempted, failed = measure(workload, seed, seconds, deadline)
    out_dir = HERE / "out"
    trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
    doc, _ = spawn(workload, seed, deadline, ["--trace", str(trace_file)])
    if doc is None or not runs:
        return None, attempted + 1, failed + 1, runs
    attempted += doc["items"]
    failed += doc["failed"]
    layers = doc["layers"]
    layers["trace.overhead_s"] = doc["wall_s"] - statistics.median(r["wall_s"] for r in runs)
    for prefix, applies in BYPASSES:
        if not applies(workload):
            continue
        attempted += 1
        calls = sum(n for name, n in doc["calls"].items()
                    if name == prefix or name.startswith(prefix + "."))
        if calls:
            failed += 1
            print(f"bypass broken: {workload} made {calls} {prefix} calls", file=sys.stderr)
    if workload == "crosscheck":
        attempted += 1
        failed += not doc["calls"].get("form.form_combinatorial")
    return layers, attempted, failed, runs


def per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS)}


def run_one(workload, seed, seconds, trace, deadline):
    """Returns (metrics {name: (value, unit)}, attempted, failed, worker documents)."""
    if trace:
        layers, attempted, failed, runs = traced(workload, seed, seconds, deadline)
        metrics = {name: (layers.get(name, 0) if layers else 0, unit)
                   for name, unit in per_layer_units().items()}
        return metrics, attempted, failed, runs
    runs, attempted, failed = measure(workload, seed, seconds, deadline)
    if not runs:
        return {}, attempted, failed, runs
    samples = end_to_end(runs)
    metrics = {}
    for name, unit in END_TO_END.items():
        values = samples[name]
        metrics[name] = (statistics.median(values), unit)
        q1, q3 = quartiles(values)
        print(f"{workload:10s} {name:12s} {metrics[name][0]:14.6g} {unit:4s} "
              f"(median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
    return metrics, attempted, failed, runs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qtgl3" / "__init__.py").is_file():
        print(f"error: no qtgl3 package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    env = environment()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    iterations = {}
    for name in names:
        metrics, attempted, failed, runs = run_one(
            name, args.seed, args.seconds, args.trace, time.monotonic() + RUN_LIMIT_S)
        if runs:
            env["numpy"] = runs[0]["numpy"]
        iterations[name] = [{k: r[k] for k in ("wall_s", "setup_s", "items", "failed",
                                               "peak_rss_mb")}
                            for r in runs]
        fail_frac = failed / attempted if attempted else 1.0
        print(f"{name:10s} {'fail_frac':12s} {fail_frac:14.6g} 1    "
              f"({failed} of {attempted} operations failed)")
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
        if args.trace == 0 and len(metrics) < len(END_TO_END):
            result["failed"] += 1
            result["attempted"] += 1
    result["correct"] = result["failed"] == 0
    record = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, "iterations": iterations},
                                 indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
