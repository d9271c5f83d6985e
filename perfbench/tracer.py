"""Per-layer tracing of eulersum from outside the package.

The tracer replaces every binding of each layer's public functions, in every
loaded eulersum module and class, with a wrapper.  Layer calls become spans
(name, start, end, parent span, op index) kept in memory.  The hot BigReal and
SymExpr operations only bump counters, and SymExpr ops add to one aggregate
time, because a span per arithmetic operation would swamp what it measures.

A span's self time is its duration minus the durations of its direct
children; spans of the same name nested in one another add to busy time once.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

# (module, attribute) -> span name
SPANS = {
    ("eulersum.cli", "run"): "cli",
    ("eulersum.oracle", "oracle_eval"): "oracle",
    ("eulersum.numerics", "zeta_num"): "numerics.zeta_num",
    ("eulersum.numerics", "li4_half_num"): "numerics.li4_half_num",
    ("eulersum.numerics", "const_pi"): "numerics.const",
    ("eulersum.numerics", "const_log2"): "numerics.const",
    ("eulersum.numerics", "const_gamma"): "numerics.const",
    ("eulersum.numerics", "eval_sym"): "numerics.eval_sym",
    ("eulersum.numerics", "BigReal.decimal"): "numerics.decimal",
    ("eulersum.closedform", "closed_form_for"): "closedform.closed_form_for",
    ("eulersum.relations", "relations_for_weight"): "relations.relations_for_weight",
    ("eulersum.relations", "solve_weight"): "relations.solve_weight",
    ("eulersum.relations", "verify_sum_theorem"): "relations.verify_sum_theorem",
    ("eulersum.relations", "Relation.residual"): "relations.residual",
}

# (module, attribute) -> counter name; BigReal ops also count as oracle work
COUNTERS = {
    ("eulersum.numerics", "BigReal.__add__"): "bigreal.add",
    ("eulersum.numerics", "BigReal.__sub__"): "bigreal.sub",
    ("eulersum.numerics", "BigReal.__mul__"): "bigreal.mul",
    ("eulersum.numerics", "BigReal.__truediv__"): "bigreal.div",
    ("eulersum.numerics", "BigReal.ln"): "bigreal.ln",
    ("eulersum.numerics", "BigReal.inv_int_power"): "bigreal.inv_int_power",
    ("eulersum.numerics", "BigReal.from_fraction"): "bigreal.from_fraction",
    ("eulersum.symexpr", "SymExpr.__add__"): "symexpr.add",
    ("eulersum.symexpr", "SymExpr.__mul__"): "symexpr.mul",
    ("eulersum.symexpr", "SymExpr.scaled"): "symexpr.scaled",
}

_START_N = 32  # the oracle's cutoff search doubles N from here


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """The spans and counters of one worker; install() puts the wrappers in place."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.symexpr_busy = 0.0
        self._symexpr_depth = 0
        self.work = 0  # BigReal operations so far; a call that adds none was served from a cache
        self.op = -1

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            work0, result, error = self.work, None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(result, error, self.work != work0)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        if name.startswith("bigreal."):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                self.work += 1
                return fn(*args, **kwargs)
            return wrapper

        clock = time.perf_counter

        def timed(*args, **kwargs):
            counts[name] += 1
            if self._symexpr_depth:
                return fn(*args, **kwargs)
            self._symexpr_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.symexpr_busy += clock() - t0
                self._symexpr_depth = 0

        return timed

    # -- hooks that read results -------------------------------------------

    def _after_oracle(self, result, exc, did_work):
        c = self.counts
        if exc is not None:
            c["oracle.budget_exhausted"] += isinstance(exc, sys.modules["eulersum.oracle"].BudgetExhausted)
        elif not did_work:
            c["oracle.cache_hits"] += 1
        else:
            n = result.terms_used
            c["oracle.terms"] += n
            c["oracle.select_candidates"] += int(math.log2(n / _START_N)) + 1

    def _after_zeta(self, result, exc, did_work):
        self.counts["numerics.zeta_num.misses"] += did_work

    def _after_eval_sym(self, result, exc, did_work):
        self.counts["numerics.eval_sym.precision_exhausted"] += isinstance(
            exc, sys.modules["eulersum.numerics"].PrecisionExhausted)

    def _after_solve(self, result, exc, did_work):
        if exc is None:
            self.counts["relations.rows"] += result.relations_used
            self.counts["relations.rank"] += result.rank

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded eulersum modules.

        Raises RuntimeError when a traced function no longer exists, so that a
        renamed layer cannot drop out of the trace silently.
        """
        hooks = {"oracle": self._after_oracle, "numerics.zeta_num": self._after_zeta,
                 "numerics.eval_sym": self._after_eval_sym, "relations.solve_weight": self._after_solve}
        originals, wrappers = {}, {}  # keyed by id(): module dicts hold unhashable values too
        for key, name in SPANS.items():
            fn = _resolve(*key)
            originals[id(fn)], wrappers[id(fn)] = fn, self._span(name, fn, hooks.get(name))
        for key, name in COUNTERS.items():
            fn = _resolve(*key)
            originals[id(fn)], wrappers[id(fn)] = fn, self._counter(name, fn)
        modules = [m for n, m in sys.modules.items() if n == "eulersum" or n.startswith("eulersum.")]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("eulersum")}
        unbound = set(wrappers)
        for ns in modules + list(classes.values()):
            for attr, value in list(vars(ns).items()):
                static = isinstance(value, staticmethod)
                key = id(value.__func__ if static else value)
                if key in wrappers:
                    setattr(ns, attr, staticmethod(wrappers[key]) if static else wrappers[key])
                    unbound.discard(key)
        if unbound:
            raise RuntimeError(f"traced functions not bound anywhere: {[originals[k].__qualname__ for k in unbound]}")

    # -- results -------------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """(calls, busy seconds, self seconds) per span name."""
        calls, busy, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += end - start
        return calls, busy, self_s

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        calls, busy, self_s = self.layer_times()
        c = self.counts
        return {
            "oracle.calls": calls["oracle"],
            "oracle.cache_hits": c["oracle.cache_hits"],
            "oracle.busy_s": busy["oracle"],
            "oracle.self_s": self_s["oracle"],
            "oracle.terms": c["oracle.terms"],
            "oracle.select_candidates": c["oracle.select_candidates"],
            "oracle.budget_exhausted": c["oracle.budget_exhausted"],
            "numerics.zeta_num.calls": calls["numerics.zeta_num"],
            "numerics.zeta_num.misses": c["numerics.zeta_num.misses"],
            "numerics.zeta_num.busy_s": busy["numerics.zeta_num"],
            "numerics.li4_half_num.busy_s": busy["numerics.li4_half_num"],
            "numerics.const.busy_s": busy["numerics.const"],
            "numerics.eval_sym.calls": calls["numerics.eval_sym"],
            "numerics.eval_sym.self_s": self_s["numerics.eval_sym"],
            "numerics.eval_sym.precision_exhausted": c["numerics.eval_sym.precision_exhausted"],
            "numerics.decimal.busy_s": busy["numerics.decimal"],
            **{name: c[name] for name in COUNTERS.values()},
            "symexpr.busy_s": self.symexpr_busy,
            "closedform.closed_form_for.calls": calls["closedform.closed_form_for"],
            "closedform.closed_form_for.busy_s": busy["closedform.closed_form_for"],
            "relations.relations_for_weight.busy_s": busy["relations.relations_for_weight"],
            "relations.solve_weight.self_s": self_s["relations.solve_weight"],
            "relations.residual.calls": calls["relations.residual"],
            "relations.verify_sum_theorem.self_s": self_s["relations.verify_sum_theorem"],
            "relations.rows": c["relations.rows"],
            "relations.rank": c["relations.rank"],
            "cli.self_s": self_s["cli"],
        }
