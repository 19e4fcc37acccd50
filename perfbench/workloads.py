"""The four benchmark workloads: their inputs, their timed call, and their output checks.

Each workload is one call into qtgl3 that a user would make:

- ``gram``: ``qtgl3 gram --level 2,1 --window 1`` (exact Gram assembly and JSON output);
- ``scan``: ``qtgl3 unitarity-scan --level 2,0 --window 2`` over a 12-point mu grid
  at a theta drawn by the seed (exact Gram, then numeric specialization and eigensolves);
- ``crosscheck``: ``form_words`` against ``form_combinatorial`` on every ordered pair
  of a seeded 400-word sample of the total-level <= 3, window-1 words, with one
  fresh ``WordEngine``, the same loop ``qtgl3 form-crosscheck`` runs;
- ``verify``: ``qtgl3 verify-brackets --samples 2000 --seed <seed>``.

This module is imported by the worker processes (with qtgl3 on the path) and by
the benchmark's own tests.  It does not import qtgl3 at module level, so the
import is timed as part of set-up.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

NAMES = ("gram", "scan", "crosscheck", "verify")

GRAM_LEVEL = "2,1"
SCAN_LEVEL = "2,0"
SCAN_THETAS = ("1/3", "1/7", "89/233")
SCAN_MU = "-1,-0.5,0,0.25,0.5,0.75,1,1.5,2,3,4,5"
CROSSCHECK_WORDS = 400
CROSSCHECK_BUDGET = 3
VERIFY_SAMPLES = 2000

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs ---------------------------------------------------------------


def crosscheck_strata():
    """Words of total level <= 3 at window 1, one list per level (k, l)."""
    from qtgl3.form import enumerate_words

    return [
        enumerate_words((k, l), window=1)
        for k in range(CROSSCHECK_BUDGET + 1)
        for l in range(CROSSCHECK_BUDGET + 1 - k)
    ]


def crosscheck_sample(seed, size=CROSSCHECK_WORDS):
    """A seeded sample of `size` words, stratified by level.

    Each level gets its share of `size` by largest remainder, so every seed
    keeps the natural mix of cross-level, cross-weight and same-weight pairs
    and the combinatorial evaluator (factorial in the level) sees the same
    amount of work; only which words are drawn changes with the seed.
    """
    strata = crosscheck_strata()
    total = sum(len(s) for s in strata)
    quota = [len(s) * size // total for s in strata]
    by_remainder = sorted(range(len(strata)), key=lambda i: (-(len(strata[i]) * size % total), i))
    for i in by_remainder[: size - sum(quota)]:
        quota[i] += 1
    rng = random.Random(seed)
    words = [w for s, q in zip(strata, quota) for w in rng.sample(s, q)]
    rng.shuffle(words)
    return words


def scan_inputs(theta):
    return {
        "theta": theta,
        "argv": ["unitarity-scan", "--level", SCAN_LEVEL, "--window", "2",
                 "--theta", theta, f"--mu={SCAN_MU}"],
    }


def make_inputs(workload, seed):
    """Everything the timed call needs, derived from the seed alone."""
    if workload == "gram":
        return {"argv": ["gram", "--level", GRAM_LEVEL, "--window", "1"]}
    if workload == "scan":
        return scan_inputs(random.Random(seed).choice(SCAN_THETAS))
    if workload == "crosscheck":
        return {"words": crosscheck_sample(seed)}
    if workload == "verify":
        return {"seed": seed,
                "argv": ["verify-brackets", "--samples", str(VERIFY_SAMPLES),
                         "--seed", str(seed)]}
    raise ValueError(f"unknown workload {workload!r}")


# -- the timed call ---------------------------------------------------------


def run(workload, inputs, out_path, control=False):
    """Run one iteration; returns the exit code (CLI workloads) or the mismatch count.

    `control=True` injects a known fault (a negative control): the verify
    suites run with their corruption hook, and the crosscheck uses the
    rejected block-order convention of the combinatorial evaluator.
    """
    from qtgl3 import cli

    if workload == "crosscheck":
        return _crosscheck(inputs["words"], control)
    argv = inputs["argv"] + ["--out", str(out_path)]
    if workload == "verify" and control:
        original = cli.verify.run_all
        cli.verify.run_all = functools.partial(original, corrupt=True)
        try:
            return cli.main(argv)
        finally:
            cli.verify.run_all = original
    return cli.main(argv)


def _crosscheck(words, control):
    from qtgl3 import form

    engine = form.WordEngine()
    mismatches = 0
    for u in words:
        for v in words:
            a = engine.form_words(u, v)
            if control:
                b = engine.form_combinatorial(u, v, identify_block_order=False)
            else:
                b = engine.form_combinatorial(u, v)
            if a != b:
                mismatches += 1
    return mismatches


# -- output checks ------------------------------------------------------------


def check(workload, inputs, result, out_path, reference):
    """Return (items, failed): work units attempted and how many failed their check.

    A non-zero exit or a wrong whole-output digest fails every item of the
    iteration; otherwise items fail one by one (a crosscheck mismatch, a scan
    sample off its reference).
    """
    if workload == "crosscheck":
        n = len(inputs["words"])
        return n * n, result
    data = _read(out_path)
    if workload == "gram":
        ref = reference["gram"]
        items = ref["upper_entries"]
        ok = result == 0 and data is not None and _sha256(data) == ref["sha256"]
        return items, 0 if ok else items
    if workload == "scan":
        return _check_scan(inputs, result, data, reference["scan"])
    if workload == "verify":
        return _check_verify(inputs, result, data, reference["verify"])
    raise ValueError(f"unknown workload {workload!r}")


def with_altered_gram_digest(reference):
    """A copy of the reference whose Gram digest no output can match (a negative control)."""
    gram = dict(reference["gram"], sha256="0" * 64)
    return dict(reference, gram=gram)


def _read(path):
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _check_scan(inputs, result, data, ref):
    expected = ref["thetas"][inputs["theta"]]
    items = len(expected)
    try:
        samples = json.loads(data)["samples"] if result == 0 and data else None
    except (ValueError, KeyError, TypeError):
        samples = None
    if samples is None or len(samples) != items:
        return items, items
    tol = ref["pd_tolerance"] * ref["dim"]
    failed = 0
    for got, want in zip(samples, expected):
        ok = (
            got["mu"] == want["mu"]
            and got["pd"] == want["pd"]
            and abs(got["min_eig"] - want["min_eig"]) <= ref["min_eig_abs_tol"]
            and got["pd"] == (got["min_eig"] > tol)
        )
        failed += not ok
    return items, failed


def _check_verify(inputs, result, data, ref):
    items = ref["checks"]
    try:
        doc = json.loads(data) if data else None
    except ValueError:
        doc = None
    if result != 0 or doc is None:
        return items, items
    suites = doc.get("suites", [])
    checks = sum(s.get("checks", 0) for s in suites)
    digest = ref["sha256_by_seed"].get(str(inputs["seed"]))
    ok = (
        doc.get("ok") is True
        and all(s.get("ok") is True for s in suites)
        and checks == items
        and (digest is None or _sha256(data) == digest)
    )
    return items, 0 if ok else items
