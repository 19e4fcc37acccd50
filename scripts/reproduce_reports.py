#!/usr/bin/env python3
"""Reproduce the machine-readable reports: verification, cross-check,
Gram matrices, and mu scans over the full (theta, mu) grid.

Writes everything under reports/ (or the directory given as argv[1])
through the same CLI entry points a user would call, so the artifacts
are byte-reproducible.  Exits with the worst exit code of those calls,
so a failed check or a failed command fails the script.
"""

import json
import pathlib
import sys

from qtgl3.cli import main

THETAS = ["0/1", "1/3", "1/7", "89/233"]
LEVELS = ["0,0", "1,0", "0,1", "2,0", "1,1", "0,2", "3,0", "2,1", "1,2", "0,3"]
MU_GRID = "-1,-0.5,0,0.25,1,5"


def run(outdir):
    """Write the reports under outdir; return the worst CLI exit code."""
    outdir.mkdir(parents=True, exist_ok=True)

    rc = main(["verify-brackets", "--samples", "200", "--seed", "0",
               "--out", str(outdir / "verify_brackets.json")])
    print(f"verify-brackets: exit {rc}")
    worst = rc

    rc = main(["form-crosscheck", "--level", "2,1", "--window", "1",
               "--out", str(outdir / "form_crosscheck.json")])
    print(f"form-crosscheck: exit {rc}")
    worst = max(worst, rc)

    for level in ("0,0", "1,0", "1,1", "2,0"):
        name = f"gram_{level.replace(',', '_')}_w1.json"
        worst = max(worst, main(["gram", "--level", level, "--window", "1",
                                 "--out", str(outdir / name)]))
    print("gram matrices written")

    summary = []
    for level in LEVELS:
        for theta in THETAS:
            name = f"scan_{level.replace(',', '_')}_theta_{theta.replace('/', 'over')}.json"
            worst = max(worst, main(["unitarity-scan", "--level", level, "--window", "1",
                                     "--theta", theta, f"--mu={MU_GRID}",
                                     "--out", str(outdir / name)]))
            scan = json.loads((outdir / name).read_text(encoding="utf-8"))
            flags = {s["mu"]: s["pd"] for s in scan["samples"]}
            summary.append((level, theta, flags))
    print("\nlevel    theta    pd by mu " + MU_GRID)
    for level, theta, flags in summary:
        line = " ".join("T" if flags[mu] else "." for mu in sorted(flags))
        print(f"{level:8} {theta:8} {line}")
    print("\n(T = positive definite, . = not; note the theta-dependence at small mu)")
    return worst


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("reports")
    sys.exit(run(target))
