"""Record the reference outputs the benchmark's output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

writes ``perfbench/reference.json``: the SHA-256 of the ``gram`` JSON, the
scan samples for every theta the ``scan`` workload can draw, and the SHA-256
of the ``verify`` JSON for seeds 0-99.  The committed file was recorded at the
commit that introduced the benchmark; regenerate it only when an output format
is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import workloads

VERIFY_SEEDS = range(100)
MIN_EIG_ABS_TOL = 1e-9


def _output(workload, inputs, out_path):
    code = workloads.run(workload, inputs, out_path)
    if code != 0:
        raise SystemExit(f"{workload} exited {code}; refusing to record a reference")
    data = out_path.read_bytes()
    out_path.unlink()
    return data


def main():
    from qtgl3.form import enumerate_words
    from qtgl3.unitarity import PD_TOLERANCE

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"reference-{os.getpid()}.json"

    gram = _output("gram", workloads.make_inputs("gram", 0), out_path)
    n = len(json.loads(gram)["basis"])
    ref = {"gram": {"sha256": hashlib.sha256(gram).hexdigest(),
                    "upper_entries": n * (n + 1) // 2}}

    level = tuple(int(x) for x in workloads.SCAN_LEVEL.split(","))
    thetas = {}
    for theta in workloads.SCAN_THETAS:
        inputs = workloads.scan_inputs(theta)
        thetas[theta] = json.loads(_output("scan", inputs, out_path))["samples"]
    ref["scan"] = {"dim": len(enumerate_words(level, window=2)),
                   "pd_tolerance": PD_TOLERANCE,
                   "min_eig_abs_tol": MIN_EIG_ABS_TOL,
                   "thetas": thetas}

    digests, checks = {}, set()
    for seed in VERIFY_SEEDS:
        data = _output("verify", workloads.make_inputs("verify", seed), out_path)
        checks.add(sum(s["checks"] for s in json.loads(data)["suites"]))
        digests[str(seed)] = hashlib.sha256(data).hexdigest()
        print(f"verify seed {seed}", file=sys.stderr)
    if len(checks) != 1:
        raise SystemExit(f"verify check count depends on the seed: {sorted(checks)}")
    ref["verify"] = {"checks": checks.pop(), "sha256_by_seed": digests}

    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
