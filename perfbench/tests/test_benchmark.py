"""The benchmark's own tests: negative controls, seeding, tracing, and the contract.

    python3 -m pytest perfbench/tests -q

The negative controls inject a known fault into each checked workload and
require its output check to report failed operations, so a check that silently
passes everything would be caught here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from qtgl3.form import word_level  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["gram", "crosscheck", "verify"])
def test_negative_control_raises_fail_frac(workload, tmp_path):
    inputs = workloads.make_inputs(workload, 0)
    out_path = tmp_path / "out.json"
    reference = workloads.load_reference()
    if workload == "gram":
        result = workloads.run(workload, inputs, out_path)
        assert workloads.check(workload, inputs, result, out_path, reference)[1] == 0
        reference = workloads.with_altered_gram_digest(reference)
    else:
        result = workloads.run(workload, inputs, out_path, control=True)
    items, failed = workloads.check(workload, inputs, result, out_path, reference)
    assert items > 0
    assert failed / items > 0


def test_crosscheck_sample_is_seeded_and_keeps_the_level_mix():
    a = workloads.crosscheck_sample(7)
    assert a == workloads.crosscheck_sample(7)
    b = workloads.crosscheck_sample(8)
    assert a != b
    assert len(a) == len(set(a)) == workloads.CROSSCHECK_WORDS
    assert Counter(map(word_level, a)) == Counter(map(word_level, b))


def test_scan_reference_covers_every_theta():
    ref = workloads.load_reference()["scan"]["thetas"]
    assert set(ref) == set(workloads.SCAN_THETAS)
    assert {workloads.make_inputs("scan", s)["theta"] for s in range(20)} <= set(ref)


def test_per_layer_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = list(tracing.Tracer().metrics()) + ["cli.out_bytes", "trace.overhead_s"]
    assert listed == produced


def test_traced_counters_repeat_and_bypasses_hold():
    runs = [result_of(bench("--workload", "verify", "--seed", "3", "--seconds", "0",
                            "--trace", "1")) for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "ratio", "bytes")}
              for r in runs]
    assert runs[0]["correct"] and runs[1]["correct"]
    assert counts[0] == counts[1]
    assert counts[0]["verify.checks"] == workloads.load_reference()["verify"]["checks"]
    assert counts[0]["form.form_words.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "gram", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
