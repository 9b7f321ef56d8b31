"""The engine surface the benchmark's traced run depends on.

perfbench/spans.py replaces engine functions and methods, looked up by name,
with recording wrappers, and perfbench/traced.py then requires a span of
each layer. A renamed or deleted name makes spans.install raise, and a layer
no longer called through its module attribute leaves its span missing;
either way the traced run dies without a summary. This test loads the two
perfbench modules it needs unchanged and fails first.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The spans traced.layer_metrics reads that a cold satisfy, a host-crash
# repair and a process-crash restart record. ddd.parse_ddd and the
# handle_request spans come from the benchmark's traced server, which this
# test does not start.
SPANS = ("solver.solve", "solver.resolve_with_relaxation", "evaluator.check",
         "lang.parse", "ddd.to_xml", "ddd.diff", "fabric.step",
         "fabric.apply_plan", "madme.on_events")
COUNTS = ("solver.solve_calls", "solver.nodes", "solver.relax_solves",
          "evaluator.check_calls", "lang.parse_calls", "lang.tokens",
          "ddd.plan_actions", "ddd.bytes_out", "fabric.actions_applied",
          "fabric.trace_lines", "madme.decisions.resolve",
          "madme.decisions.restart")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_layers_record_their_spans():
    from deladas import fabric, solver
    core, spans = _load("core"), _load("spans")
    golden = core.load_golden()
    dep = core.Deployment8()
    episodes = [dep.by_name[core.PROBE_EPISODES[kind]]
                for kind in ("router_host", "process")]
    originals = (solver.solve, fabric.Fabric.step)
    rec = spans.Recorder()
    try:  # restore even when install stops halfway
        spans.install(rec)
        doc, outcome, xml = core.cold_satisfy(4)
        results = [core.run_episode(dep, episode) for episode in episodes]
    finally:
        rec.restore()
    assert (solver.solve, fabric.Fabric.step) == originals
    assert core.satisfy_problems(4, doc, outcome, xml, golden) == []
    for result, episode in zip(results, episodes):
        assert core.episode_problems(result, episode, golden) == []
    recorded = {name for name, *_ in rec.spans}
    assert [name for name in SPANS if name not in recorded] == []
    assert "fabric.boot" in recorded
    assert [key for key in COUNTS if not rec.counts[key]] == []
