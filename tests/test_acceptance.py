"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import threading
import time
from contextlib import contextmanager

import generators
import helpers
import oracle
from deladas import (cli, ddd, evaluator, fabric as fabric_mod, lang, madme,
                     model, solver)
from deladas.model import Binding, InstanceId

RES = str(helpers.SAMPLES / "resources.deladas")
CONS = str(helpers.SAMPLES / "constraints.deladas")
PINS = str(helpers.SAMPLES / "example-deployment.xml")


@contextmanager
def criterion(number, name, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
    print(f"acceptance {number} [{name}]: PASS "
          f"({elapsed:.2f}s < {budget_seconds}s)")


def test_01_source_fidelity():
    with criterion(1, "sample source fidelity", 1.0):
        resources = lang.parse(helpers.RESOURCES_TEXT)
        assert [c.name for c in resources.components] == ["Client", "Router"]
        client, router = resources.components
        assert [(p.name, p.variadic) for p in client.ports] == [
            ("in", False), ("out", False)]
        assert [(p.name, p.variadic) for p in router.ports] == [
            ("cin", True), ("cout", True), ("rin", True), ("rout", True)]
        assert [h.name for h in resources.hosts] == [f"h{i}" for i in range(1, 7)]
        assert [dict(h.attributes)["ipaddress"] for h in resources.hosts] == [
            f"192.168.0.{i}" for i in range(1, 7)]
        constraints = lang.parse(helpers.CONSTRAINTS_TEXT)
        cs = constraints.constraintset("randc")
        assert cs is not None and len(cs.constraints) == 5
        last = cs.constraints[4]
        assert [b.sort for b in last.binders] == ["Router", "Router"]
        assert isinstance(last.body, lang.Reachable)


def test_02_example_configuration_reproduction():
    with criterion(2, "example configuration reproduction", 5.0):
        doc = helpers.merged_doc()
        example = helpers.example_configuration()
        assert model.validate(example, doc) == []
        assert oracle.check(example, doc.constraintset("randc"), doc).satisfied
        pins = (Binding("Router", "h3", 1), Binding("Router", "h4", 1))
        out = solver.solve(doc, "randc", solver.SolveOptions(pins=pins))
        assert len(out.solutions) == 1
        assert model.bindings_of(out.solutions[0]) == model.bindings_of(example)


def test_03_solver_soundness_and_completeness():
    with criterion(3, "solver soundness and bounded completeness", 60.0):
        doc3 = helpers.three_host_doc()
        reference = oracle.enumerate_all(doc3, "randc")
        full = solver.solve(doc3, "randc", solver.SolveOptions(
            solution_limit=len(reference.solutions) + 1))
        assert full.exhausted
        assert set(full.solutions) == set(reference.solutions)

        rng = helpers.rng(103)
        checked = 0
        for _ in range(1000):
            doc = generators.gen_solver_instance(rng)
            out = solver.solve(doc, "goal", solver.SolveOptions(solution_limit=2))
            for config in out.solutions:
                assert model.validate(config, doc) == []
                assert oracle.check(config, doc.constraintset("goal"),
                                    doc).satisfied
                checked += 1
        assert checked >= 500


def test_04_host_failure_scenario(tmp_path):
    with criterion(4, "host-failure scenario", 10.0):
        scenario = tmp_path / "host.scenario"
        scenario.write_text("at 20 crash-host h3\n")
        trace_path = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace_path)])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert "23 host-failure-suspected h3" in lines
        resolve_lines = [l for l in lines if " decision-resolve " in l
                         and not l.startswith("0 ")]
        assert resolve_lines == ["23 decision-resolve removed=Client@h1x1"]

        # Brute-force cross-check: keeping all five surviving pins is
        # unsatisfiable, so one removed binding is the minimum.
        doc = helpers.merged_doc()
        doc5 = lang.SpecDocument(
            doc.components, tuple(h for h in doc.hosts if h.name != "h3"),
            doc.constraintsets)
        surviving = model.restrict_to_hosts(
            helpers.example_configuration(), {h.name for h in doc5.hosts})
        pins = tuple(model.bindings_of(surviving))
        reference = oracle.enumerate_all(doc5, "randc",
                                         solver.SolveOptions(pins=pins))
        assert reference.exhausted and reference.solutions == ()


def test_05_process_failure_scenario(tmp_path):
    with criterion(5, "process-failure scenario", 5.0):
        scenario = tmp_path / "proc.scenario"
        scenario.write_text("at 10 crash-process Router@h3#0\n")
        trace_path = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace_path)])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert "10 decision-restart Router@h3#0" in lines
        effects = [l for l in lines if l.startswith("10 ")
                   and l.split()[1] in ("install", "instantiate", "terminate",
                                        "wire", "unwire")]
        assert sum(1 for l in effects if l.split()[1] == "instantiate") == 1
        wires = [l for l in effects if l.split()[1] == "wire"]
        assert len(wires) == 6
        for line in effects:
            assert "@h3#" in line or " h3 " in line

        # Replay the scenario in-process to check the final state directly.
        doc = helpers.merged_doc()
        fab = fabric_mod.boot(list(doc.hosts), 0)
        manager = madme.Manager(doc, "randc", fab)
        example = helpers.example_configuration()
        manager.deploy_initial(tuple(model.bindings_of(example)), prior=example)
        fab.inject(fabric_mod.CrashProcess(10, InstanceId("Router", "h3", 0)))
        while fab.pending():
            manager.on_events(fab.step())
        assert oracle.check(manager.deployed,
                            doc.constraintset("randc"), doc).satisfied
        machine = fab.machine(InstanceId("Router", "h3", 0))
        assert machine.alive and len(machine.channels) == 6


def test_06_constraint_error_path(tmp_path):
    with criterion(6, "constraint-error path", 10.0):
        resources = "\n".join(helpers.RESOURCES_TEXT.splitlines()[:11]) + "\n"
        res3 = tmp_path / "res3.deladas"
        res3.write_text(resources)
        scenario = tmp_path / "err.scenario"
        scenario.write_text("at 20 crash-host h2\nat 30 crash-host h3\n")
        trace_path = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", str(res3), "-c", CONS,
                         "--scenario", str(scenario), "--trace", str(trace_path)])
        assert code == 3
        lines = trace_path.read_text().splitlines()
        error_lines = [i for i, l in enumerate(lines)
                       if " decision-constraint-error " in l]
        assert error_lines
        after = lines[error_lines[0] + 1:]
        assert [l for l in after
                if l.split()[1] in ("install", "instantiate", "terminate",
                                    "wire", "unwire")] == []

        # The oracle confirms one host cannot satisfy the goal at all.
        doc1 = lang.SpecDocument(
            helpers.merged_doc().components,
            (helpers.merged_doc().hosts[0],),
            helpers.merged_doc().constraintsets)
        reference = oracle.enumerate_all(doc1, "randc")
        assert reference.exhausted and reference.solutions == ()


def test_07_round_trips():
    with criterion(7, "round trips", 60.0):
        rng = helpers.rng(107)
        for _ in range(500):
            doc = generators.gen_document(rng)
            assert lang.parse(lang.pretty_print(doc)) == doc
        for _ in range(500):
            doc = generators.gen_document(rng)
            config = generators.gen_configuration(rng, doc)
            assert ddd.from_xml(ddd.to_xml(config, doc, "g"), doc) == config
        for _ in range(500):
            doc = generators.gen_document(rng)
            old = generators.gen_configuration(rng, doc)
            new = generators.gen_configuration(rng, doc)
            plan = ddd.diff(old, new, doc)
            assert ddd.apply_plan(old, plan, doc) == new


def test_08_determinism(tmp_path):
    with criterion(8, "determinism", 30.0):
        scenarios = {
            "process": "at 10 crash-process Router@h3#0\n",
            "host": "at 20 crash-host h3\n",
            "double": "at 10 crash-process Router@h3#0\nat 20 crash-host h3\n",
        }
        for name, text in scenarios.items():
            scenario = tmp_path / f"{name}.scenario"
            scenario.write_text(text)
            traces = []
            for attempt in range(2):
                trace_path = tmp_path / f"{name}-{attempt}.trace"
                code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                                 "--scenario", str(scenario),
                                 "--trace", str(trace_path)])
                assert code == 0
                traces.append(trace_path.read_bytes())
            assert traces[0] == traces[1], f"trace differs for {name}"

        blobs = []
        for attempt in range(2):
            out_dir = tmp_path / f"solutions-{attempt}"
            code = cli.main(["satisfy", "-r", RES, "-c", CONS, "--limit", "3",
                             "-o", str(out_dir)])
            assert code == 0
            blobs.append([p.read_bytes() for p in sorted(out_dir.iterdir())])
        assert blobs[0] == blobs[1]


def test_09_reachability_oracle():
    with criterion(9, "reachability oracle", 5.0):
        from test_evaluator import _closure
        rng = helpers.rng(109)
        digraphs = 0
        for _ in range(200):
            config = generators.gen_digraph_config(rng)
            closure = _closure(config)
            ids = config.instance_ids()
            for a in ids:
                for b in ids:
                    assert evaluator.reachable(config, a, b) == closure[(a, b)]
            digraphs += 1
        assert digraphs == 200


def test_10_five_method_protocol(tmp_path):
    with criterion(10, "five-method protocol", 5.0):
        out_dir = tmp_path / "solutions"
        assert cli.main(["satisfy", "-r", RES, "-c", CONS,
                         "-o", str(out_dir)]) == 0
        solution_bytes = (out_dir / "solution-0.xml").read_bytes()

        doc = helpers.merged_doc()
        fab = fabric_mod.boot(list(doc.hosts), 0)
        manager = madme.Manager(doc, "randc", fab)
        listener = madme.make_listener("0")
        port = listener.getsockname()[1]
        thread = threading.Thread(target=madme.serve,
                                  args=(manager, listener), daemon=True)
        thread.start()
        try:
            sock = madme.connect(str(port))
            ok, body = madme.request(sock, "satisfy", madme.join_parts(
                [helpers.CONSTRAINTS_TEXT, helpers.RESOURCES_TEXT, "", "2"]))
            assert ok
            solutions = madme.split_parts(body)
            assert len(solutions) >= 1
            for text in solutions:
                config = ddd.from_xml(text.encode(), doc)
                assert oracle.check(config, doc.constraintset("randc"),
                                    doc).satisfied

            before_resources = madme.request(sock, "get-resources")
            before_constraints = madme.request(sock, "get-constraints")

            # Enacting the CLI's solution file makes get-deployment answer
            # with exactly those bytes.
            ok, _ = madme.request(sock, "enact", solution_bytes.decode())
            assert ok
            ok, deployment = madme.request(sock, "get-deployment")
            assert ok
            assert deployment.encode() == solution_bytes

            # Selectors preserve state: same answers, deployment unchanged.
            assert madme.request(sock, "get-resources") == before_resources
            assert madme.request(sock, "get-constraints") == before_constraints
            ok, again = madme.request(sock, "get-deployment")
            assert ok and again == deployment
            sock.close()
        finally:
            listener.close()
