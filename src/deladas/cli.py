"""Command-line entry point.

Subcommands cover the whole cycle: parse a goal, satisfy it into solution
DDDs, check a DDD against a goal, diff two DDDs into an enactment plan, run
a full autonomic simulation from a scenario file, and serve the five-method
manager protocol on a socket.

Exit codes: 0 success; 1 usage/parse/validation/I-O error; 2 no solutions
(satisfy) or constraint violations found (check); 3 the simulation ended in
a constraint error (run).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ddd, evaluator, fabric as fabric_mod, lang, madme, model, solver
from .lang import DeladasError, SpecDocument


def _load_documents(resources: str, constraints: str) -> SpecDocument:
    res_path = Path(resources)
    cons_path = Path(constraints)
    res_doc = lang.parse(res_path.read_text())
    if res_path.resolve() == cons_path.resolve():
        return res_doc
    cons_doc = lang.parse(cons_path.read_text())
    return lang.merge_documents(res_doc, cons_doc)


def _pins_from(path: str | None):
    if path is None:
        return (), None
    parsed = ddd.parse_ddd(Path(path).read_bytes())
    prior = parsed.configuration
    return tuple(model.bindings_of(prior)), prior


def _options(args, pins=(), prior=None) -> solver.SolveOptions:
    return solver.SolveOptions(
        max_instances_per_host=getattr(args, "max_per_host", 1),
        solution_limit=getattr(args, "limit", 1),
        pins=pins,
        prior=prior)


def _cmd_parse(args) -> int:
    doc = lang.parse(Path(args.spec).read_text())
    print(f"components: {len(doc.components)} "
          f"({', '.join(c.name for c in doc.components) or '-'})")
    print(f"hosts: {len(doc.hosts)} "
          f"({', '.join(h.name for h in doc.hosts) or '-'})")
    for cs in doc.constraintsets:
        print(f"constraintset {cs.name}: {len(cs.constraints)} constraints")
    if not doc.constraintsets:
        print("constraintsets: 0")
    return 0


def _cmd_satisfy(args) -> int:
    doc = _load_documents(args.resources, args.constraints)
    cs_name = madme.select_constraintset(doc, args.set)
    pins, prior = _pins_from(args.pins)
    outcome = solver.solve(doc, cs_name, _options(args, pins, prior))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, config in enumerate(outcome.solutions):
        (out_dir / f"solution-{i}.xml").write_bytes(
            ddd.to_xml(config, doc, cs_name))
    stats = outcome.stats
    print(f"{len(outcome.solutions)} solution(s), {stats.nodes} nodes "
          f"({stats.placement_nodes} placement, {stats.wiring_nodes} wiring), "
          f"{stats.bound_cuts} bound cuts, {stats.evaluations} evaluations, "
          f"exhausted={outcome.exhausted}")
    return 0 if outcome.solutions else 2


def _cmd_check(args) -> int:
    doc = _load_documents(args.resources, args.constraints)
    cs_name = madme.select_constraintset(doc, args.set)
    parsed = ddd.parse_ddd(Path(args.deployment).read_bytes(), doc)
    result = evaluator.check(parsed.configuration, doc.constraintset(cs_name), doc)
    if result.satisfied:
        print("ok")
        return 0
    for violation in result.violations:
        print(violation)
    return 2


def _cmd_diff(args) -> int:
    old = ddd.parse_ddd(Path(args.old).read_bytes())
    new = ddd.parse_ddd(Path(args.new).read_bytes())
    # Code URIs come from the documents themselves.
    codes = dict(old.codes)
    codes.update(new.codes)
    doc = SpecDocument(tuple(lang.ComponentType(name, code, ())
                             for name, code in sorted(codes.items())))
    plan = ddd.diff(old.configuration, new.configuration, doc)
    if len(plan):
        print(plan.render())
    return 0


def _cmd_run(args) -> int:
    doc = _load_documents(args.resources, args.constraints)
    cs_name = madme.select_constraintset(doc, args.set)
    events = fabric_mod.parse_scenario(Path(args.scenario).read_text())
    pins, prior = _pins_from(args.pins)

    fabric = fabric_mod.boot(list(doc.hosts), args.seed)
    manager = madme.Manager(doc, cs_name, fabric, _options(args))

    exit_code = 0
    decision = manager.deploy_initial(pins, prior)
    if isinstance(decision, madme.ConstraintError):
        exit_code = 3
    else:
        for event in events:
            fabric.inject(event)
        while fabric.pending():
            delivered = fabric.step()
            decisions = manager.on_events(delivered)
            if any(isinstance(d, madme.ConstraintError) for d in decisions):
                exit_code = 3
                break
        if exit_code == 0:
            final = evaluator.check(manager.deployed,
                                    manager.doc.constraintset(manager.cs_name),
                                    manager.doc)
            if not final.satisfied:  # pragma: no cover - autonomic steps restore
                print("final deployment violates the goal", file=sys.stderr)
                exit_code = 1

    Path(args.trace).write_text("\n".join(fabric.trace) + "\n")
    return exit_code


def _cmd_serve(args) -> int:
    doc = _load_documents(args.resources, args.constraints)
    cs_name = madme.select_constraintset(doc, args.set)
    fabric = fabric_mod.boot(list(doc.hosts), args.seed)
    manager = madme.Manager(doc, cs_name, fabric, _options(args))
    listener = madme.make_listener(args.socket)
    print(f"serving on {args.socket}", file=sys.stderr)
    try:
        madme.serve(manager, listener)
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deladas",
        description="constraint-based deployment engine and autonomic manager")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a Deladas file and summarize it")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("satisfy", help="solve a goal into solution DDDs")
    p.add_argument("-r", "--resources", required=True)
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument("--set", default=None, help="constraintset name")
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--max-per-host", dest="max_per_host", type=int, default=1)
    p.add_argument("--pins", default=None, help="DDD whose bindings are pinned")
    p.add_argument("-o", "--output", required=True, help="solution directory")
    p.set_defaults(func=_cmd_satisfy)

    p = sub.add_parser("check", help="check a DDD against a goal")
    p.add_argument("-d", "--deployment", required=True)
    p.add_argument("-r", "--resources", required=True)
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument("--set", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("diff", help="print the plan transforming one DDD into another")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("run", help="simulate a scenario under the autonomic manager")
    p.add_argument("-r", "--resources", required=True)
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument("--set", default=None)
    p.add_argument("--scenario", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-per-host", dest="max_per_host", type=int, default=1)
    p.add_argument("--pins", default=None,
                   help="DDD pinning the initial deployment (placements and "
                        "preferred channels)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("serve", help="expose the five-method manager protocol")
    p.add_argument("--socket", required=True, help="TCP port or unix socket path")
    p.add_argument("-r", "--resources", required=True)
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument("--set", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-per-host", dest="max_per_host", type=int, default=1)
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # Usage errors exit 1; --help keeps its clean exit. Exit 2 is
        # reserved for "no solutions" / "violations found".
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except DeladasError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
