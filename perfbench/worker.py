"""One iteration of one workload, in a process of its own.

    python3 perfbench/worker.py --workload gram --seed 0 [--trace FILE]

The parent (run.py) starts this with ``src`` as PYTHONPATH.  The worker
imports qtgl3, builds the seeded inputs, notes the monotonic clock at its
first timed call (so the parent can compute set-up time from the moment it
spawned the process), times the call, checks the output, and prints one
JSON line.  With ``--trace FILE`` it installs the tracer first, reports the
per-layer metrics and writes the spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", default=None, help="write spans to this file")
    args = p.parse_args(argv)

    import numpy
    import qtgl3.cli  # the whole CLI is imported during set-up, not in the timed call

    src = (ROOT / "src").resolve()
    if src not in Path(qtgl3.__file__).resolve().parents:
        print(f"error: imported {qtgl3.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    out_path = ROOT / "perfbench" / "out" / f"{args.workload}-{os.getpid()}.json"

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
    root = tracer.begin(f"bench.{args.workload}") if tracer else None
    t0 = time.perf_counter()
    result = workloads.run(args.workload, inputs, out_path)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.end(root)
        tracer.uninstall()

    items, failed = workloads.check(args.workload, inputs, result, out_path,
                                    workloads.load_reference())
    out_bytes = out_path.stat().st_size if out_path.exists() else 0
    out_path.unlink(missing_ok=True)

    doc = {
        "t_first": t_first,
        "wall_s": wall,
        "items": items,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        doc["layers"] = dict(tracer.metrics(), **{"cli.out_bytes": out_bytes})
        doc["calls"] = tracer.call_counts()
        tracer.write(args.trace)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
