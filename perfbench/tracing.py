"""Opt-in tracing of qtgl3 from outside: wrappers at the names callers look up.

Only the traced worker imports this module; untraced workers run the package
unpatched.  Two kinds of wrapper are installed:

- a *span* per call for the coarse, rarely called functions (``cli.main``,
  ``WordEngine.gram``, ``mu_scan``, ``specialize``, the verify suites, ...).
  Each span records its name, start, end, the id of the span that caused it,
  and the time its traced children covered, so self time is its duration
  minus that;
- a *leaf counter* for hot or recursive functions (scalar ops, ``act_mono``,
  ``form_words``, the generator operators, ...): a call count plus the summed
  time of the outermost call, so the trace's memory does not grow with the
  number of calls.

The spans and counters stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array

# SuiteReport names of the suites verify.run_all runs
VERIFY_SUITES = ("homomorphism", "homomorphism_random_config", "lie_axioms",
                 "weyl_relations", "degree_operators")

_clock = time.perf_counter


class _Leaf:
    __slots__ = ("calls", "seconds", "active")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.active = False


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, child_seconds]
        self.stack = []
        self.leaves = {}
        self.open_leaves = 0
        self.patches = []
        self.latencies = {}  # leaf name -> per-call seconds
        self.engines = []
        # outermost form_words calls: the pairs a workload evaluates
        self.pairs = 0
        self.nonzero = 0
        self.cross_weight = 0
        self.first_words = set()
        self.entries_evaluated = 0
        self.checks = 0

    # -- spans and leaves ------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, name, _clock(), None, 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span[4] = _clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1][5] += span[4] - span[3]

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return wrapper

    def leaf(self, name, fn, on_outer=None, per_call=False):
        st = self.leaves.setdefault(name, _Leaf())
        lat = self.latencies.setdefault(name, array("d")) if per_call else None

        def wrapper(*args, **kwargs):
            st.calls += 1
            if st.active:
                return fn(*args, **kwargs)
            st.active = True
            top = self.open_leaves == 0
            self.open_leaves += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                st.seconds += dt
                st.active = False
                self.open_leaves -= 1
                if top and self.stack:
                    self.stack[-1][5] += dt
            if lat is not None:
                lat.append(dt)
            if on_outer is not None:
                # the hook's own time counts as traced child time, not as the caller's
                h0 = _clock()
                on_outer(args, result)
                if top and self.stack:
                    self.stack[-1][5] += _clock() - h0
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_span(self, owner, attr, name, on_result=None):
        self._patch(owner, attr, self.span(name, getattr(owner, attr), on_result))

    def _patch_leaf(self, owners, attr, name, **kw):
        """One counter shared by every name under which callers look the function up."""
        wrapper = self.leaf(name, getattr(owners[0], attr), **kw)
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def install(self):
        """Wrap qtgl3's public functions.  Call before any WordEngine is built."""
        from qtgl3 import cli, fock, form, gl3, torus, unitarity, verify
        from qtgl3.scalars import ScalarPoly
        from qtgl3.torus import TorusElement

        engine_init = form.WordEngine.__init__

        def init(engine, *args, **kwargs):
            engine_init(engine, *args, **kwargs)
            self.engines.append(engine)

        self._patch(form.WordEngine, "__init__", init)

        self._patch_span(cli, "main", "cli.main")
        self._patch_span(form.WordEngine, "gram", "form.gram")
        for owner in (form, cli):
            self._patch_span(owner, "enumerate_words", "form.enumerate_words")
        self._patch_span(unitarity, "mu_scan", "unitarity.mu_scan")
        self._patch_span(unitarity, "specialize", "unitarity.specialize", self._specialized)
        self._patch_span(unitarity, "min_eigenvalue", "unitarity.min_eigenvalue")
        self._patch_span(verify, "run_all", "verify.run_all")
        for suite in ("homomorphism_suite", "lie_axiom_suite", "weyl_suite",
                      "derivation_suite"):
            self._patch_span(verify, suite, "verify.suite", self._suite_done)

        self._patch_leaf([form.WordEngine], "form_words", "form.form_words",
                         on_outer=self._pair_done)
        self._patch_leaf([form.WordEngine], "act_mono", "form.act_mono")
        self._patch_leaf([form.WordEngine], "form_combinatorial",
                         "form.form_combinatorial", per_call=True)
        # WordEngine() reads this module global as its default bracket table
        self._patch_leaf([form], "matrix_bracket_terms", "gl3.matrix_bracket_terms")

        self._patch_leaf([ScalarPoly], "__add__", "scalars.add")
        mul = self.leaf("scalars.mul", ScalarPoly.__mul__)
        self._patch(ScalarPoly, "__mul__", mul)
        self._patch(ScalarPoly, "__rmul__", mul)
        self._patch_leaf([ScalarPoly], "evaluate", "scalars.evaluate")

        self._patch_leaf([fock], "apply_generator", "fock.apply_generator")
        self._patch_leaf([fock], "apply_D", "fock.apply_D")
        self._patch_leaf([fock], "pi", "fock.pi")

        # verify imports these by name; gl3.jacobi_residual looks bracket up in gl3
        self._patch_leaf([verify, gl3], "bracket", "gl3.bracket")
        self._patch_leaf([verify, gl3], "omega", "gl3.omega")
        self._patch_leaf([verify], "jacobi_residual", "gl3.jacobi_residual")

        self._patch_leaf([TorusElement], "__mul__", "torus.mul")
        self._patch_leaf([torus], "mono_mul", "torus.mono_mul")

        from qtgl3.form import word_weight
        self._word_weight = word_weight

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- hooks ---------------------------------------------------------------

    def _pair_done(self, args, result):
        _, u, v = args
        self.pairs += 1
        self.first_words.add(u)
        if result:
            self.nonzero += 1
        if self._word_weight(u) != self._word_weight(v):
            self.cross_weight += 1

    def _specialized(self, span, args, result):
        self.entries_evaluated += result.matrix.size

    def _suite_done(self, span, args, report):
        span[2] = f"verify.{report.name}"
        self.checks += report.checks

    # -- results -------------------------------------------------------------

    def _span_stats(self, name):
        spans = [s for s in self.spans if s[2] == name]
        total = sum(s[4] - s[3] for s in spans)
        child = sum(s[5] for s in spans)
        return len(spans), total, total - child

    def metrics(self):
        """Per-layer metrics, by name; zero where the workload bypasses a layer."""
        m = {}

        def leaf(name, seconds=True):
            st = self.leaves.get(name, _Leaf())
            m[f"{name}.calls"] = st.calls
            if seconds:
                m[f"{name}.s"] = st.seconds

        def span(name, calls=False, self_s=None):
            n, total, own = self._span_stats(name)
            if calls:
                m[f"{name}.calls"] = n
            m[f"{name}.s"] = total
            if self_s:
                m[self_s] = own

        span("form.gram", self_s="form.gram.self_s")
        span("form.enumerate_words")
        m["form.basis_size"] = len(self.first_words)
        leaf("form.form_words")
        leaf("form.act_mono")
        m["form.form_memo.size"] = sum(len(getattr(e, "_form_cache", ())) for e in self.engines)
        m["form.act_memo.size"] = sum(len(getattr(e, "_act_cache", ())) for e in self.engines)
        m["form.nonzero_frac"] = self.nonzero / self.pairs if self.pairs else 0.0
        m["form.cross_weight_frac"] = self.cross_weight / self.pairs if self.pairs else 0.0
        leaf("form.form_combinatorial")
        lat = sorted(self.latencies.get("form.form_combinatorial", ()))
        m["form.form_combinatorial.p99_us"] = (
            lat[min(len(lat) - 1, int(0.99 * len(lat)))] * 1e6 if lat else 0.0)

        span("unitarity.mu_scan")
        span("unitarity.specialize", calls=True)
        m["unitarity.entries_evaluated"] = self.entries_evaluated
        span("unitarity.min_eigenvalue", calls=True)

        for name in ("scalars.add", "scalars.mul"):
            leaf(name, seconds=False)
        leaf("scalars.evaluate")

        leaf("fock.apply_generator")
        leaf("fock.apply_D", seconds=False)
        leaf("fock.pi", seconds=False)

        leaf("gl3.bracket")
        for name in ("gl3.omega", "gl3.jacobi_residual", "gl3.matrix_bracket_terms",
                     "torus.mul", "torus.mono_mul"):
            leaf(name, seconds=False)

        span("verify.run_all")
        for suite in VERIFY_SUITES:
            span(f"verify.{suite}")
        m["verify.checks"] = self.checks

        span("cli.main", self_s="cli.self_s")
        return m

    def call_counts(self):
        """Calls per layer, spans included; the bypass assertions read these."""
        counts = {name: st.calls for name, st in self.leaves.items()}
        for s in self.spans:
            counts[s[2]] = counts.get(s[2], 0) + 1
        return counts

    def write(self, path):
        doc = {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b,
                 "self_s": (b - a) - c}
                for i, p, n, a, b, c in self.spans
            ],
            "leaves": {n: {"calls": st.calls, "s": st.seconds}
                       for n, st in sorted(self.leaves.items())},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
