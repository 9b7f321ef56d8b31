"""The traced run, which gives the per-layer metrics.

It has three parts, all recorded with spans.Recorder:
1. the scaling sweep: a cold satisfy of randc at 4..10 hosts, each search
   capped by SWEEP_NODE_BUDGET (a budget hit is reported as unknown);
2. a tour shared by every workload, so that every layer metric exists on
   every workload: one failover episode of each kind (the router-host crash
   runs the 8-host relaxation) and each protocol method against a traced
   server;
3. a fixed batch of the workload's own seeded operations, run once untraced
   and twice traced. The deterministic counters of the two traced passes
   must be equal, and the traced against untraced time of the batch is the
   tracing overhead.

Layer metrics aggregate the tour and the first traced pass; the sweep feeds
only the .h4..h10 curve.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path

import core
import serve
import spans
import workloads

SWEEP_HOSTS = range(4, 11)
SWEEP_NODE_BUDGET = 250_000
TOUR_EPISODES = ("host:h7", "host:h1", "process:Client@h1#0")
BATCH_SERVE_REQUESTS = 300

# Counters that must repeat exactly for the same inputs.
DETERMINISTIC = ("solver.solve_calls", "solver.nodes", "solver.relax_solves",
                 "solver.relax_dropped_pins", "evaluator.check_calls",
                 "lang.parse_calls", "lang.tokens", "ddd.plan_actions",
                 "ddd.bytes_out", "fabric.actions_applied",
                 "fabric.trace_lines", "madme.decisions.restart",
                 "madme.decisions.resolve", "madme.decisions.constraint_error")


def sweep(tally: core.Tally, golden: dict,
          notes: list[str]) -> tuple[dict, spans.Recorder]:
    metrics = {}
    with spans.Recorder() as rec:
        for n in SWEEP_HOSTS:
            doc, outcome, xml = core.cold_satisfy(n, SWEEP_NODE_BUDGET)
            if outcome.solutions:
                status = "solved"
                tally.add(core.satisfy_problems(n, doc, outcome, xml, golden))
            elif outcome.exhausted:
                status = "unsatisfiable"
                tally.add([f"h{n}: randc reported unsatisfiable"])
            else:
                status = "unknown"  # node budget hit: no verdict either way
            metrics[f"solver.nodes.h{n}"] = (outcome.stats.nodes, "count")
            metrics[f"solver.solve_ms.h{n}"] = (
                rec.durations_ms("solver.solve")[-1], "ms")
            notes.append(f"sweep h{n}: {status}, {outcome.stats.nodes} nodes, "
                         f"{metrics[f'solver.solve_ms.h{n}'][0]:.1f} ms")
    return metrics, rec


def batch_workload(workload: str, seed: int, dep: core.Deployment8,
                   spans_path: Path | None):
    """The workload at its fixed batch size: one cycle, one round, or
    BATCH_SERVE_REQUESTS requests."""
    if workload == "randc-scale":
        return workloads.RandcScale(seed, cycles=1)
    if workload == "failover":
        return workloads.Failover(seed, rounds=1, dep=dep)
    return workloads.ServeRequests(seed, BATCH_SERVE_REQUESTS,
                                   spans_path=spans_path)


def run_pass(workload, run: workloads.Run, rec: spans.Recorder) -> None:
    """One pass of the workload; a traced server's spans and counters are
    merged into rec."""
    workload.one_pass(run)
    spans_path = getattr(workload, "spans_path", None)
    if spans_path is not None:
        for section in spans.load(spans_path):
            rec.extend(section["spans"], section["counts"])
        spans_path.unlink()


def traced(workload: str, seed: int,
           golden: dict) -> tuple[dict, core.Tally, list]:
    notes: list[str] = []
    tally = core.Tally(golden)
    dep = core.Deployment8()
    run_dir = serve.RUN_DIR
    run_dir.mkdir(exist_ok=True)
    server_spans = run_dir / f"server-{seed}.spans"
    out_path = run_dir / f"spans-{workload}-seed{seed}.jsonl"
    for stale in (server_spans, out_path):
        stale.unlink(missing_ok=True)

    metrics, swept = sweep(tally, golden, notes)

    tour_run = workloads.Run(golden, tally=tally)
    with spans.Recorder() as tour:
        for name in TOUR_EPISODES + (golden["known_failing_episodes"][0],):
            tour_run.episode(dep, dep.by_name[name])
    run_pass(workloads.ServeRequests(seed, methods=list(serve.METHODS) * 3,
                                     spans_path=server_spans),
             tour_run, tour)

    untraced = workloads.Run(golden, tally=tally)
    batch_workload(workload, seed, dep, None).one_pass(untraced)
    passes = []
    for _ in range(2):
        run = workloads.Run(golden, tally=tally)
        with spans.Recorder() as rec:
            run_pass(batch_workload(workload, seed, dep, server_spans), run,
                     rec)
        passes.append((rec, run))
    (first, first_run), (second, _) = passes
    mismatched = [k for k in DETERMINISTIC
                  if first.counts[k] != second.counts[k]]
    if mismatched:
        tally.unexpected.append("deterministic counters differ between two "
                                "passes of the same batch: "
                                + ", ".join(mismatched))
    notes.append("deterministic counters equal in both traced passes: "
                 + ("no" if mismatched else "yes"))
    traced_ms, untraced_ms = (sum(r.own_ms()) for r in (first_run, untraced))
    notes.append(f"tracing overhead on the batch: {traced_ms:.1f} ms traced, "
                 f"{untraced_ms:.1f} ms untraced")

    merged = spans.Recorder()
    for rec in (tour, first):
        merged.extend(rec.spans, rec.counts)
    metrics.update(layer_metrics(merged, tour_run.samples + first_run.samples))
    metrics["trace.overhead_ratio"] = (traced_ms / untraced_ms, "ratio")
    for section, rec in (("sweep", swept), ("tour", tour), ("batch", first)):
        rec.dump(out_path, section)
    notes.append(f"spans written to {out_path.relative_to(core.ROOT)}")
    return metrics, tally, notes


def layer_metrics(rec: spans.Recorder, samples) -> dict:
    def median(name, values=None):
        values = rec.durations_ms(name) if values is None else values
        if not values:
            raise RuntimeError(f"no {name} spans in the traced run")
        return statistics.median(values), "ms"

    counts: Counter = rec.counts
    out = {
        "solver.solve_ms": median("solver.solve"),
        "solver.relax_ms": median("solver.resolve_with_relaxation"),
        "evaluator.check_ms": median("evaluator.check"),
        "lang.parse_ms": median("lang.parse"),
        "ddd.to_xml_ms": median("ddd.to_xml"),
        "ddd.parse_ddd_ms": median("ddd.parse_ddd"),
        "ddd.diff_ms": median("ddd.diff"),
        "fabric.step_ms": median("fabric.step"),
        "fabric.apply_plan_ms": median("fabric.apply_plan"),
        "madme.on_events_self_ms": median(
            "madme.on_events", rec.self_ms("madme.on_events")),
    }
    for key in DETERMINISTIC:
        out[key] = (counts[key], "bytes" if key == "ddd.bytes_out" else "count")
    for method in serve.METHODS:
        out[f"madme.handle_request_ms.{method}"] = median(
            f"madme.handle_request.{method}")
        out[f"serve.rtt_ms.{method}"] = median(
            f"rtt {method}",
            [s.ms for s in samples if s.kind == f"rtt_ms.{method}"])
    return out
