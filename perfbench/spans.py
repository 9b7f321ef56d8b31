"""Span recorder for the traced run.

The recorder wraps the engine's public functions from outside the program:
it replaces module and class attributes with timing wrappers and puts the
originals back afterwards. Each call becomes a span with a name, a start, an
end and the span that was open when it began (its parent). Deterministic
counters (search nodes, plan actions, trace lines, ...) are taken at the same
boundaries from arguments and results.

What such wrappers cannot see, left to tracing inside the program:
- names bound by `from module import name` before wrapping: `solver` and
  `ddd` call `model.validate` through their own `validate` binding, so the
  structural validation inside a solve or a DDD parse counts as their self
  time;
- private phases: the solver's placement and wiring search, the manager's
  restart and re-solve paths, the evaluator's walker;
- anything not called through a module or class attribute.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from deladas import ddd, evaluator, fabric, lang, madme, solver
from deladas.fabric import Fabric
from deladas.madme import Manager


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int | None]] = []
        self.counts: Counter = Counter()
        self._open: list[tuple[int, str]] = []  # spans not yet closed
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name=None, count=None, span=True):
        """Replace owner.attr with a recording wrapper.

        name: span name, or a function of the call's arguments giving it.
        count: called as count(counts, result, args, parent_name).
        span: False records counts only (for very frequent calls)."""
        original = getattr(owner, attr)
        name = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        recorder = self

        def wrapper(*args, **kwargs):
            parent = recorder._open[-1] if recorder._open else (None, None)
            if span:
                index = len(recorder.spans)
                span_name = name(args) if callable(name) else name
                recorder.spans.append((span_name, 0, 0, parent[0]))
                recorder._open.append((index, span_name))
                started = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    ended = time.perf_counter_ns()
                    recorder._open.pop()
                    recorder.spans[index] = (span_name, started, ended,
                                             parent[0])
            else:
                result = original(*args, **kwargs)
            if count is not None:
                count(recorder.counts, result, args, parent[1])
            return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- reading ----------------------------------------------------------------

    def extend(self, spans, counts) -> None:
        """Append spans recorded elsewhere (the traced server)."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append((name, start, end,
                               None if parent is None else parent + offset))
        self.counts.update(counts)

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, start, end, _ in self.spans
                if n == name]

    def self_ms(self, name: str) -> list[float]:
        """Duration minus the time covered by direct child spans."""
        children = Counter()
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        return [(end - start - children[i]) / 1e6
                for i, (n, start, end, _) in enumerate(self.spans) if n == name]

    def dump(self, path: Path, section: str) -> None:
        """Append this recorder's spans and counters as one JSON line."""
        with open(path, "a") as out:
            out.write(json.dumps({"section": section, "spans": self.spans,
                                  "counts": self.counts}) + "\n")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# What is wrapped, and what each boundary counts
# ---------------------------------------------------------------------------

def _calls(key):
    def count(counts, result, args, parent):
        counts[key] += 1
    return count


def _solve(counts, outcome, args, parent):
    counts["solver.solve_calls"] += 1
    counts["solver.nodes"] += outcome.stats.nodes
    if parent == "solver.resolve_with_relaxation":
        counts["solver.relax_solves"] += 1


def _relax(counts, result, args, parent):
    counts["solver.relax_dropped_pins"] += len(result[1])


def _tokens(counts, tokens, args, parent):
    counts["lang.tokens"] += len(tokens)


def _to_xml(counts, data, args, parent):
    counts["ddd.bytes_out"] += len(data)


def _diff(counts, plan, args, parent):
    counts["ddd.plan_actions"] += len(plan)


def _apply_plan(counts, effects, args, parent):
    counts["fabric.actions_applied"] += len(args[1])


_DECISIONS = {madme.RestartInPlace: "madme.decisions.restart",
              madme.Resolve: "madme.decisions.resolve",
              madme.ConstraintError: "madme.decisions.constraint_error"}


def _on_events(counts, decisions, args, parent):
    for decision in decisions:
        key = _DECISIONS.get(type(decision))
        if key:
            counts[key] += 1


def install(rec: Recorder) -> None:
    for module, names in ((lang, ("validate_document", "merge_documents",
                                  "pretty_print")),
                          (solver, ("connect_patterns", "enumerate_all")),
                          (evaluator, ("reachable", "connected_instances")),
                          (ddd, ("from_xml", "parse_ddd", "apply_plan")),
                          (fabric, ("boot", "parse_scenario"))):
        for attr in names:
            rec.wrap(module, attr)
    rec.wrap(lang, "tokenize", count=_tokens)
    rec.wrap(lang, "parse", count=_calls("lang.parse_calls"))
    rec.wrap(solver, "solve", count=_solve)
    rec.wrap(solver, "resolve_with_relaxation", count=_relax)
    rec.wrap(evaluator, "check", count=_calls("evaluator.check_calls"))
    rec.wrap(ddd, "to_xml", count=_to_xml)
    rec.wrap(ddd, "diff", count=_diff)
    rec.wrap(Fabric, "step", name="fabric.step")
    rec.wrap(Fabric, "apply_plan", name="fabric.apply_plan", count=_apply_plan)
    rec.wrap(Fabric, "log", span=False, count=_calls("fabric.trace_lines"))
    rec.wrap(Manager, "deploy_initial", name="madme.deploy_initial")
    rec.wrap(Manager, "on_events", name="madme.on_events", count=_on_events)
    rec.wrap(Manager, "handle_request",
             name=lambda args: f"madme.handle_request.{args[1]}")
