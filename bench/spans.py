"""Span tracing of catverify's layers, from outside the program.

`Tracer.install` replaces each traced public function by a wrapper in every
catverify module namespace that holds it, so calls made through an imported
name (`member` in `contracts`, `verifier` and `cli`; `chop` or `curr_scope`
in `interp`) are seen as well. Each wrapped call records a span: request
(operation) id, name, start, end and parent span. A span's self time is its
duration minus the time its child spans cover; time in functions that are
not traced (private helpers, `syntax`) counts toward the nearest traced
caller. A call of a function from inside its own span (recursion) is folded
into the outer span.

The benchmark runs in one thread, so no layer ever waits for another and
there is no wait time to report; every span is busy time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# layer -> public functions traced in that layer
LAYERS = {
    "cli": ("main",),
    "parser": ("parse_program", "parse_contracts", "parse_formula"),
    "interp": ("enumerate_traces", "step_global", "eval_local",
               "initial_configuration", "eval_global", "eval_local_big",
               "check_file_correct"),
    "trace": ("chop", "curr_scope", "returned_not_popped", "max_call_id",
              "schedule", "call_tree", "ends_with_event"),
    "formula": ("member", "denotation", "included", "normalize"),
    "contracts": ("program_correct", "adheres_procedure", "adheres_trace",
                  "blame_clause", "adherence_formula"),
    "verifier": ("verify_program", "verify_procedure", "discharge_local",
                 "eval_update", "subtype", "max_contracts"),
}

# per-layer metrics, in report order, with their units (all per operation)
METRICS = (
    ("interp.step_global.calls", "count/op"),
    ("interp.branch_points", "count/op"),
    ("interp.traces", "count/op"),
    ("interp.trace_items", "count/op"),
    ("interp.self_s", "s/op"),
    ("trace.self_s", "s/op"),
    ("trace.chop.calls", "count/op"),
    ("trace.chop.items_copied", "count/op"),
    ("formula.member.calls", "count/op"),
    ("formula.member.items", "count/op"),
    ("formula.member.self_s", "s/op"),
    ("formula.included.calls", "count/op"),
    ("formula.included.candidates", "count/op"),
    ("formula.included.self_s", "s/op"),
    ("formula.included.verdicts.included", "count/op"),
    ("formula.included.verdicts.counterexample", "count/op"),
    ("formula.included.verdicts.unknown", "count/op"),
    ("formula.self_s", "s/op"),
    ("contracts.checks", "count/op"),
    ("contracts.blame.calls", "count/op"),
    ("contracts.self_s", "s/op"),
    ("verifier.discharge.syntactic.calls", "count/op"),
    ("verifier.discharge.syntactic.self_s", "s/op"),
    ("verifier.discharge.witness.calls", "count/op"),
    ("verifier.discharge.witness.self_s", "s/op"),
    ("verifier.discharge.concrete.calls", "count/op"),
    ("verifier.discharge.concrete.self_s", "s/op"),
    ("verifier.discharge.open.calls", "count/op"),
    ("verifier.discharge.open.self_s", "s/op"),
    ("verifier.leaves.exact", "count/op"),
    ("verifier.leaves.bounded", "count/op"),
    ("verifier.leaves.open", "count/op"),
    ("verifier.eval_update.calls", "count/op"),
    ("verifier.eval_update.self_s", "s/op"),
    ("verifier.self_s", "s/op"),
    ("parser.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("tracing.spans", "count/op"),
)


def discharge_class(d) -> str:
    """Engine that settled a `Discharge`, read from its evidence."""
    if not d.closed:
        return "open"
    if "witness" in d.evidence:
        return "witness"
    if "evaluation" in d.evidence:
        return "concrete"
    return "syntactic"


def _leaves(node):
    if node.is_leaf:
        return [node]
    return [leaf for p in node.premises for leaf in _leaves(p)]


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.spans = []          # (op, name, start, end, parent index)
        self.stack = []          # open frames: [name, span index, child time]
        self.totals = defaultdict(float)
        self.op = 0
        self._patched = []       # (module, attribute, original)

    # --- installation ----------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "catverify" or name.startswith("catverify.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"catverify.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        on_return = getattr(self, f"_on_{layer}_{fn.__name__}", None)
        stack, spans, totals = self.stack, self.spans, self.totals
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)   # filled in on exit, as a tuple the GC skips
            frame = [name, index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name, start, end,
                                parent[1] if parent else -1)
                if parent is not None:
                    parent[2] += end - start
            self_time = end - start - frame[2]
            totals[f"{layer}.self_s"] += self_time
            if on_return is not None:
                on_return(args, result, self_time, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- per-function counters ---------------------------------------------

    def _on_interp_step_global(self, args, result, self_time, parent):
        self.totals["interp.step_global.calls"] += 1
        if len(result) > 1:
            self.totals["interp.branch_points"] += 1

    def _on_interp_enumerate_traces(self, args, result, self_time, parent):
        self.totals["interp.traces"] += len(result)
        self.totals["interp.trace_items"] += sum(len(t) for t in result)

    def _on_trace_chop(self, args, result, self_time, parent):
        self.totals["trace.chop.calls"] += 1
        self.totals["trace.chop.items_copied"] += len(result)

    def _on_formula_member(self, args, result, self_time, parent):
        self.totals["formula.member.calls"] += 1
        self.totals["formula.member.items"] += len(args[0])
        self.totals["formula.member.self_s"] += self_time
        if any(frame[0] == "formula.included" for frame in self.stack):
            self.totals["formula.included.candidates"] += 1

    def _on_formula_included(self, args, result, self_time, parent):
        self.totals["formula.included.calls"] += 1
        self.totals["formula.included.self_s"] += self_time
        self.totals[f"formula.included.verdicts.{result.status}"] += 1

    def _on_contracts_adheres_trace(self, args, result, self_time, parent):
        if parent is not None and parent[0] == "contracts.adheres_procedure":
            self.totals["contracts.checks"] += 1

    def _on_contracts_blame_clause(self, args, result, self_time, parent):
        self.totals["contracts.blame.calls"] += 1

    def _on_verifier_discharge_local(self, args, result, self_time, parent):
        cls = discharge_class(result)
        self.totals[f"verifier.discharge.{cls}.calls"] += 1
        self.totals[f"verifier.discharge.{cls}.self_s"] += self_time

    def _on_verifier_verify_procedure(self, args, result, self_time, parent):
        for leaf in _leaves(result):
            if leaf.status != "closed":
                kind = "open"
            else:
                kind = "bounded" if leaf.bounded else "exact"
            self.totals[f"verifier.leaves.{kind}"] += 1

    def _on_verifier_eval_update(self, args, result, self_time, parent):
        self.totals["verifier.eval_update.calls"] += 1
        self.totals["verifier.eval_update.self_s"] += self_time

    # --- results -------------------------------------------------------------

    def metrics(self, ops):
        """Every per-layer metric, averaged over `ops` operations."""
        self.totals["tracing.spans"] = len(self.spans)
        return {name: {"value": self.totals.get(name, 0.0) / ops, "unit": unit}
                for name, unit in METRICS}

    def write(self, path):
        """Spans as JSON lines: a header naming the fields, then one span
        per line with times in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["op", "name", "start_us",
                                            "end_us", "parent"]}) + "\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f'[{op},"{name}",{(start - t0) * 1e6:.1f},'
                         f'{(end - t0) * 1e6:.1f},{parent}]\n')
