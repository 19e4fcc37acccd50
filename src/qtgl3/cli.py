"""Command-line surface: verification runs, Gram matrices, and mu scans.

All commands emit a single JSON document (UTF-8, sorted keys) to --out
or stdout.  Identical invocations, including the seed, produce
byte-identical output.  Exit codes: 0 all checks pass, 1 a mathematical
check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction

from . import unitarity, verify
from .form import WordEngine, enumerate_words, word_str


class ConfigError(Exception):
    pass


def _parse_level(text):
    try:
        k, l = (int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad level {text!r}; expected k,l") from None
    if k < 0 or l < 0:
        raise ConfigError("level components must be nonnegative")
    return (k, l)


def _parse_constraint(text):
    try:
        a, b = (int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad constraint {text!r}; expected two integers") from None
    if a < 0 or b < 0:
        raise ConfigError("constraint components must be nonnegative")
    return (a, b)


def _window(args):
    """The --window value, 1 when it is not given."""
    window = 1 if args.window is None else args.window
    if window < 0:
        raise ConfigError("window must be nonnegative")
    return window


def _basis_spec(args):
    """(window, constraint) of a gram or scan request."""
    if args.constraint is None:
        return _window(args), None
    if args.window is not None:
        raise ConfigError("give --window or --constraint, not both")
    return None, _parse_constraint(args.constraint)


def _parse_theta(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad theta {text!r}; expected a rational p/q") from None


def _parse_mu_grid(text):
    try:
        grid = [float(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad mu grid {text!r}; expected comma-separated reals") from None
    if not all(math.isfinite(mu) for mu in grid):
        raise ConfigError(f"bad mu grid {text!r}; every mu must be finite")
    return grid


def _emit(obj, out_path):
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify_brackets(args):
    if args.samples < 0:
        raise ConfigError("samples must be nonnegative")
    reports = verify.run_all(samples=args.samples, seed=args.seed)
    ok = all(r.ok for r in reports)
    _emit(
        {
            "command": "verify-brackets",
            "seed": args.seed,
            "samples": args.samples,
            "suites": [r.to_json() for r in reports],
            "ok": ok,
        },
        args.out,
    )
    if not ok:
        first = next(r for r in reports if not r.ok)
        print(f"FAILED {first.name}: {first.failures[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_gram(args):
    window, constraint = _basis_spec(args)
    engine = WordEngine()
    g = engine.gram(_parse_level(args.level), window=window, constraint=constraint)
    _emit(g.to_json(), args.out)
    return 0


def cmd_form_crosscheck(args):
    budget = sum(_parse_level(args.level))
    window = _window(args)
    engine = WordEngine()
    words = []
    for k in range(budget + 1):
        for l in range(budget + 1 - k):
            words.extend(enumerate_words((k, l), window=window))
    mismatches = []
    pairs = 0
    for u, v in itertools.product(words, repeat=2):
        pairs += 1
        a = engine.form_words(u, v)
        b = engine.form_combinatorial(u, v)
        if a != b:
            mismatches.append(
                {"u": word_str(u), "v": word_str(v),
                 "recursive": str(a), "combinatorial": str(b)}
            )
    _emit(
        {
            "command": "form-crosscheck",
            "total_level_budget": budget,
            "window": window,
            "words": len(words),
            "pairs": pairs,
            "mismatches": mismatches[:50],
            "ok": not mismatches,
        },
        args.out,
    )
    if mismatches:
        print(f"FAILED: {len(mismatches)} mismatching pairs; first: "
              f"{mismatches[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_unitarity_scan(args):
    window, constraint = _basis_spec(args)
    engine = WordEngine()
    report = unitarity.mu_scan(
        engine,
        _parse_level(args.level),
        _parse_theta(args.theta),
        _parse_mu_grid(args.mu),
        window=window,
        constraint=constraint,
    )
    _emit(report.to_json(), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtgl3",
        description="Exact quantum-torus module computations and unitarity scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-brackets",
                       help="run the exact bracket/homomorphism suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_brackets)

    p = sub.add_parser("gram", help="write a Gram matrix as JSON")
    p.add_argument("--level", required=True, help="k,l")
    p.add_argument("--window", type=int, default=None,
                   help="per-argument exponent window (default 1)")
    p.add_argument("--constraint", default=None,
                   help="M,N nonnegative total-exponent budget (alternative to --window)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("form-crosscheck",
                       help="compare the recursive and combinatorial form evaluators")
    p.add_argument("--level", default="2,1",
                   help="k,l; all word pairs with total level <= k+l are compared")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_form_crosscheck)

    p = sub.add_parser("unitarity-scan",
                       help="minimum Gram eigenvalues over a mu grid")
    p.add_argument("--level", required=True, help="k,l")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--constraint", default=None)
    p.add_argument("--theta", required=True, help="rational p/q with q = exp(2*pi*i*theta)")
    p.add_argument("--mu", required=True, help="comma-separated mu grid")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_unitarity_scan)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
