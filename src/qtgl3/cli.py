"""Command-line surface: verification runs, Gram matrices, and mu scans.

All commands emit a single JSON document (UTF-8, sorted keys) to --out
or stdout.  Identical invocations, including the seed, produce
byte-identical output.  Exit codes: 0 all checks pass, 1 a mathematical
check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from . import unitarity, verify
from .form import WordEngine, enumerate_words, int_poly_scalar, word_str


class ConfigError(Exception):
    pass


def _parse_pair(text, what):
    """A nonnegative integer pair "a,b"; errors name the argument `what`."""
    try:
        a, b = (int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad {what} {text!r}; expected two integers a,b") from None
    if a < 0 or b < 0:
        raise ConfigError(f"{what} components must be nonnegative")
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
    return None, _parse_pair(args.constraint, "constraint")


def _gram_builder(args):
    """Validate --window/--constraint, then --level, and return the function
    that builds the Gram they ask for: a command validates its own arguments
    in between, so every usage error comes before the Gram is built."""
    window, constraint = _basis_spec(args)
    level = _parse_pair(args.level, "level")

    def build():
        try:
            return WordEngine().gram(level, window=window, constraint=constraint)
        except RecursionError:  # the engine recurses once per factor of a word
            raise ConfigError(f"level {args.level} is too deep for the interpreter's "
                              f"recursion limit ({sys.getrecursionlimit()})") from None
    return build


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


# The one copy of the output settings, the streamed Gram document included.
_JSON = dict(sort_keys=True, ensure_ascii=False, indent=1, allow_nan=False)


def _dumps(obj):
    return json.dumps(obj, **_JSON)


@contextlib.contextmanager
def _output(out_path):
    """The --out file opened for writing, or stdout.

    A reader that closes stdout early raises BrokenPipeError here; stdout is
    then pointed at devnull, so the flush at exit does not raise it again
    (the recipe of the Python docs' note on SIGPIPE).
    """
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _emit(obj, out_path):
    text = _dumps(obj) + "\n"
    with _output(out_path) as fh:
        fh.write(text)


def gram_entry_texts(g):
    """The encoded JSON string of each distinct entry of a Gram, by entry
    number.  Every entry is rendered here, before any output is opened: a
    coefficient with more digits than the interpreter converts to a string
    (`sys.get_int_max_str_digits()`) is a usage error, and nothing is written."""
    rendered, texts = {}, []  # values that differ only in term order render alike
    try:
        for e in range(len(g.pool)):
            x = g.pool.poly(e)
            key = frozenset(x.items())
            text = rendered.get(key)
            if text is None:
                text = rendered[key] = _dumps(str(int_poly_scalar(x, g.scale)))
            texts.append(text)
    except ValueError:  # int-to-str conversion past the digit limit
        level = ",".join(map(str, g.level))
        raise ConfigError(f"level {level} has a Gram coefficient of more than "
                          f"{sys.get_int_max_str_digits()} digits, the interpreter's "
                          f"limit for integer string conversion") from None
    return texts


def write_gram_json(g, texts, fh):
    """Write the dense JSON document of a Gram to `fh`, one row at a time.

    The text is what `_emit` writes for {"level", "window", "basis", "entries"}
    (and "constraint" in constraint mode), "entries" being the n x n matrix of
    entry strings, but no n x n grid is built: a row starts as n copies of the
    encoded "0", its weight block is patched in, and the row is joined in one
    call.  `texts` holds each distinct entry rendered once, by entry number
    (`gram_entry_texts`).
    """
    doc = {"level": list(g.level), "window": g.window,
           "basis": [word_str(w) for w in g.basis], "entries": None}
    if g.constraint is not None:
        doc["constraint"] = list(g.constraint)
    head, tail = _dumps(doc).split('"entries": null')
    # the layout json.dumps gives a matrix at depth 1: rows at depth 2, items
    # at depth 3 (every basis holds a word, so no row or matrix is empty)
    step = " " * _JSON["indent"]
    row_open, row_close = "\n" + step * 2 + "[\n" + step * 3, "\n" + step * 2 + "]"
    item_sep = ",\n" + step * 3
    zero = _dumps("0")
    n = len(g.basis)
    fh.write(head + '"entries": [')
    sep = ""
    for cols, numbers in g.rows():
        row = [zero] * n
        for j, e in zip(cols, numbers):
            row[j] = texts[e]
        fh.write(sep + row_open + item_sep.join(row) + row_close)
        sep = ","
    fh.write("\n" + step + "]" + tail + "\n")


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
    g = _gram_builder(args)()
    texts = gram_entry_texts(g)
    with _output(args.out) as fh:
        write_gram_json(g, texts, fh)
    return 0


def cmd_form_crosscheck(args):
    budget = sum(_parse_pair(args.level, "level"))
    window = _window(args)
    engine = WordEngine()
    words = []
    for k in range(budget + 1):
        for l in range(budget + 1 - k):
            words.extend(enumerate_words((k, l), window=window))
    listed = []  # the first 50 mismatches, rendered; the rest are only counted
    mismatches = pairs = 0
    for u, v in itertools.product(words, repeat=2):
        pairs += 1
        a = engine.form_words(u, v)
        b = engine.form_combinatorial(u, v)
        if a != b:
            mismatches += 1
            if len(listed) < 50:
                listed.append({"u": word_str(u), "v": word_str(v),
                               "recursive": str(a), "combinatorial": str(b)})
    _emit(
        {
            "command": "form-crosscheck",
            "total_level_budget": budget,
            "window": window,
            "words": len(words),
            "pairs": pairs,
            "mismatches": listed,
            "ok": not mismatches,
        },
        args.out,
    )
    if mismatches:
        print(f"FAILED: {mismatches} mismatching pairs; first: "
              f"{listed[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_unitarity_scan(args):
    build_gram = _gram_builder(args)
    theta, mu_grid = _parse_theta(args.theta), _parse_mu_grid(args.mu)
    report = unitarity.mu_scan(build_gram(), theta, mu_grid)
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
    except (ConfigError, unitarity.NonFiniteSample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
