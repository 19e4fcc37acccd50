"""The benchmark's tracer still finds every method it wraps where it looks for it.

`perfbench/tracing.py` patches names in a class's own `__dict__`; a method
moved into a base class (say, a ScalarPoly operation folded into SparseSum)
would break the traced benchmark run without breaking any other test.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
from qtgl3.scalars import ONE, ScalarPoly, SparseSum, q_pow  # noqa: E402
from qtgl3.torus import TorusElement  # noqa: E402


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer.patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, attr
        # the wrapped scalar sum counts scalar additions and leaves the other sums alone
        assert ONE + ONE == ScalarPoly.term(2)
        assert tracer.leaves["scalars.add"].calls == 1
        assert TorusElement.__add__ is SparseSum.__add__
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, attr
    assert ScalarPoly.__dict__["__add__"] is SparseSum.__add__


def test_tracer_counts_a_scalar_subtraction_as_one_addition():
    # a difference is the sum with the negation, so `scalars.add` sees every scalar sum
    tracer = tracing.Tracer()
    try:
        tracer.install()
        before = tracer.leaves["scalars.add"].calls
        diff = q_pow(1) - ONE
        assert tracer.leaves["scalars.add"].calls == before + 1
    finally:
        tracer.uninstall()
    assert diff == ScalarPoly.term(1, q_exp=1) + ScalarPoly.term(-1)
