import socket
import threading

import pytest

import helpers
import oracle
from deladas import ddd, fabric as fabric_mod, lang, madme, model, solver
from deladas.fabric import AmpReport, CrashHost, CrashProcess, HostFailureSuspected
from deladas.lang import HostSpec
from deladas.madme import (ConstraintError, Manager, NoOp, Resolve,
                           RestartInPlace, evolve_resources)
from deladas.model import InstanceId


def example_manager():
    doc = helpers.merged_doc()
    fab = fabric_mod.boot(list(doc.hosts), seed=0)
    manager = Manager(doc, "randc", fab)
    example = helpers.example_configuration()
    decision = manager.deploy_initial(tuple(model.bindings_of(example)), prior=example)
    assert isinstance(decision, Resolve)
    assert manager.deployed == example
    return manager


def resolves_in(trace) -> list[str]:
    return [l for l in trace if l.split()[1] == "decision-resolve"]


def constraint_errors_in(trace) -> list[str]:
    return [l for l in trace if l.split()[1] == "decision-constraint-error"]


class TestClassify:
    """How on_events reads each failure signal it is handed."""

    def test_amp_report_is_process_failure(self):
        manager = example_manager()
        router = InstanceId("Router", "h3", 0)
        manager.fabric.inject(CrashProcess(10, router))
        assert manager.fabric.step() == [AmpReport(10, "h3", router)]
        decisions = manager.on_events([AmpReport(10, "h3", router)])
        assert decisions == [RestartInPlace(router)]
        assert manager.doc.host("h3") is not None

    def test_suspicion_is_host_failure(self):
        manager = example_manager()
        manager.fabric.inject(CrashHost(20, "h3"))
        manager.fabric.step()
        decisions = manager.on_events([HostFailureSuspected(23, "h3")])
        assert len(decisions) == 1 and isinstance(decisions[0], Resolve)
        assert manager.doc.host("h3") is None

    def test_empty_window_is_noop(self):
        manager = example_manager()
        trace = list(manager.fabric.trace)
        assert manager.on_events([]) == []
        assert manager.fabric.trace == trace

    def test_amp_report_covers_suspicion_for_same_host(self):
        """A host whose AMP reported is alive: a suspicion of it in the same
        window neither drops it nor re-solves."""
        manager = example_manager()
        router = InstanceId("Router", "h3", 0)
        manager.fabric.inject(CrashProcess(9, router))
        manager.fabric.step()
        decisions = manager.on_events([AmpReport(9, "h3", router),
                                       HostFailureSuspected(9, "h3")])
        assert decisions == [RestartInPlace(router), NoOp("host h3 is alive")]
        assert manager.doc.host("h3") is not None
        assert len(resolves_in(manager.fabric.trace)) == 1  # the initial one


class TestEvolveResources:
    def test_remove_host(self):
        doc = helpers.merged_doc()
        out = evolve_resources(doc, {"h3"}, [])
        assert [h.name for h in out.hosts] == ["h1", "h2", "h4", "h5", "h6"]
        assert out.components == doc.components
        assert out.constraintsets == doc.constraintsets

    def test_add_host_appends(self):
        doc = helpers.merged_doc()
        h7 = HostSpec("h7", (("ipaddress", "192.168.0.7"),))
        out = evolve_resources(doc, set(), [h7])
        assert [h.name for h in out.hosts] == [
            "h1", "h2", "h3", "h4", "h5", "h6", "h7"]

    def test_identity(self):
        doc = helpers.merged_doc()
        assert evolve_resources(doc, set(), []) == doc

    def test_unknown_and_duplicate(self):
        doc = helpers.merged_doc()
        with pytest.raises(madme.UnknownHost):
            evolve_resources(doc, {"h9"}, [])
        with pytest.raises(fabric_mod.DuplicateHost):
            evolve_resources(doc, set(), [doc.hosts[0]])


class TestProcessFailure:
    def test_restart_in_place(self):
        manager = example_manager()
        fab = manager.fabric
        before = manager.deployed
        fab.inject(CrashProcess(10, InstanceId("Router", "h3", 0)))
        delivered = fab.step()
        decisions = manager.on_events(delivered)
        assert decisions == [RestartInPlace(InstanceId("Router", "h3", 0))]
        assert manager.deployed == before  # placement unchanged
        machine = fab.machine(InstanceId("Router", "h3", 0))
        assert machine.alive
        assert len(machine.channels) == 6

    def test_restart_touches_only_the_failed_host(self):
        manager = example_manager()
        fab = manager.fabric
        fab.inject(CrashProcess(10, InstanceId("Router", "h3", 0)))
        manager.on_events(fab.step())
        tick_lines = [l for l in fab.trace if l.startswith("10 ")]
        effects = [l for l in tick_lines
                   if l.split()[1] in ("install", "instantiate", "terminate",
                                       "wire", "unwire")]
        assert effects, "restart produced no effects"
        for line in effects:
            kind = line.split()[1]
            assert kind in ("instantiate", "wire")
            assert "@h3#" in line or " h3 " in line
        assert sum(1 for l in effects if l.split()[1] == "instantiate") == 1
        assert sum(1 for l in effects if l.split()[1] == "wire") == 6

    def test_peer_channel_sets_are_restored(self):
        manager = example_manager()
        fab = manager.fabric
        fab.inject(CrashProcess(10, InstanceId("Router", "h3", 0)))
        manager.on_events(fab.step())
        client = fab.machine(InstanceId("Client", "h1", 0))
        assert len(client.channels) == 2

    def test_unknown_instance_is_noop(self):
        manager = example_manager()
        trace = list(manager.fabric.trace)
        decisions = manager.on_events(
            [AmpReport(10, "h9", InstanceId("Router", "h9", 0))])
        assert decisions == [NoOp("Router@h9#0 is not part of the deployment")]
        assert manager.fabric.trace == trace

    def test_restart_installs_only_missing_code(self):
        """The fabric's installed code decides Install: restarting the only
        client on h1 installs nothing, unless the code went missing."""
        manager = example_manager()
        fab = manager.fabric
        client = InstanceId("Client", "h1", 0)
        fab.inject(CrashProcess(10, client))
        manager.on_events(fab.step())
        assert not [l for l in fab.trace if l.startswith("10 install")]
        fab.hosts["h1"].installed.clear()
        fab.inject(CrashProcess(11, client))
        manager.on_events(fab.step())
        assert [l for l in fab.trace if l.startswith("11 install")] == [
            "11 install h1 file:///D:ClientBundle.xml"]
        assert fab.machine(client).alive

    def test_same_tick_pair_of_wired_instances(self):
        """The first restart skips the channels to its peer, which is down
        too; the peer's restart wires them."""
        manager = example_manager()
        fab = manager.fabric
        client, router = (InstanceId("Client", "h1", 0),
                          InstanceId("Router", "h3", 0))
        fab.inject(CrashProcess(10, client))
        fab.inject(CrashProcess(10, router))
        decisions = manager.on_events(fab.step())
        assert decisions == [RestartInPlace(client), RestartInPlace(router)]
        lines = [l for l in fab.trace if l.startswith("10 ")]
        assert lines[lines.index("10 decision-restart Client@h1#0") + 1:
                     lines.index("10 decision-restart Router@h3#0")] == [
            "10 instantiate Client@h1#0"]
        assert fab.observed().config.channels == manager.deployed.channels

    def test_restart_on_a_host_that_went_down_is_noop(self):
        """The host's suspicion repairs what the AMP report could not."""
        manager = example_manager()
        fab = manager.fabric
        fab.inject(CrashProcess(10, InstanceId("Client", "h1", 0)))
        fab.inject(CrashHost(10, "h1"))
        decisions = manager.on_events(fab.step())
        assert decisions == [NoOp("host h1 is down")]
        decisions = manager.on_events(fab.step())
        assert len(decisions) == 1 and isinstance(decisions[0], Resolve)
        assert manager.doc.host("h1") is None
        observed = fab.observed().config
        assert observed.instances == manager.deployed.instances
        assert observed.channels == manager.deployed.channels

    def test_restart_cost_does_not_grow_with_the_deployment(self):
        """A crash and its restart read only the instance's channels: one
        client of randc's first solution makes as many Python calls at 8,
        16 and 32 hosts. Only equality is asserted, since the count itself
        differs between Python versions."""
        calls = []
        for hosts in (8, 16, 32):
            doc = helpers.randc_doc(hosts)
            config = solver.solve(doc, "randc").solutions[0]
            fab = fabric_mod.boot(list(doc.hosts))
            manager = Manager(doc, "randc", fab)
            manager.deploy_initial(tuple(model.bindings_of(config)), config)
            client = next(i.id for i in config.instances if i.type == "Client")
            fab.inject(CrashProcess(10, client))
            decisions = []
            counted = helpers.python_calls(
                lambda: decisions.extend(manager.on_events(fab.step())))
            assert decisions == [RestartInPlace(client)]
            assert fab.observed().config.channels == manager.deployed.channels
            calls.append(sum(counted.values()))
        assert calls[0] == calls[1] == calls[2], calls


class TestHostFailure:
    def test_a_client_host_repair_evaluates_its_wiring_once(self):
        """A client host's crash leaves the surviving wiring valid, so the
        re-solve settles the wiring's items once, on the leftmost leaf,
        which keeps every surviving channel, and not once per candidate
        channel: randc's first solution at 8, 16 and 32 hosts has one
        instance per host, so the all-pins solve makes one _Search._settle
        call per surviving host's placement node and one for its wiring."""
        for hosts in (8, 16, 32):
            manager = helpers.deployed_manager(hosts)
            before = manager.deployed
            manager.fabric.inject(CrashHost(10, "h1"))
            calls = helpers.python_calls(helpers.repair, manager)
            assert calls[solver._Search._wire.__code__] == 1
            assert calls[solver._Search._settle.__code__] == (hosts - 1) + 1
            families = [{(ch.src.instance, ch.src.port, ch.dst.instance,
                          ch.dst.port) for ch in config.channels}
                        for config in (before, manager.deployed)]
            assert families[1] == {f for f in families[0]
                                   if "h1" not in (f[0].host, f[2].host)}

    def test_a_client_host_re_solve_shares_the_deployed_objects(
            self, monkeypatch):
        """The re-solve after a client host's crash keeps the deployed id
        object of every instance it keeps, and the deployed Channel object
        of every channel it keeps, so its diff compares them by identity:
        it makes no lang._record_eq call."""
        manager = helpers.deployed_manager()
        before = manager.deployed
        diffs, real = [], ddd.diff

        def diff(*args):
            plan = []
            diffs.append(helpers.python_calls(lambda: plan.append(real(*args))))
            return plan[0]
        monkeypatch.setattr(ddd, "diff", diff)
        manager.fabric.inject(CrashHost(10, "h1"))
        helpers.repair(manager)
        after = manager.deployed
        assert after != before and len(diffs) == 1
        assert lang._record_eq.__code__ not in diffs[0]
        ids = {i.id.text: i.id for i in before.instances}
        kept = [i.id for i in after.instances if i.id.text in ids]
        assert len(kept) == len(after.instances) == 7
        assert all(iid is ids[iid.text] for iid in kept)
        channels = {(ch.src.text, ch.dst.text): ch for ch in before.channels}
        kept = [ch for ch in after.channels
                if (ch.src.text, ch.dst.text) in channels]
        assert 0 < len(kept) < len(after.channels)
        assert all(ch is channels[ch.src.text, ch.dst.text] for ch in kept)
        ids = {i.id.text: i.id for i in after.instances}
        assert all(slot.instance is ids[slot.instance.text]
                   for ch in after.channels for slot in (ch.src, ch.dst))

    def test_a_re_solve_drops_every_host_seen_down(self):
        """h4 is down but not yet suspected when h3's suspicion re-solves:
        the re-solve drops both, and h4's own suspicion is then a no-op."""
        manager = example_manager()
        fab = manager.fabric
        fab.inject(CrashHost(10, "h3"))
        fab.inject(CrashHost(11, "h4"))
        fab.step()
        fab.step()
        decisions = manager.on_events(fab.step())  # h3 suspected at 13
        assert len(decisions) == 1 and isinstance(decisions[0], Resolve)
        assert [h.name for h in manager.doc.hosts] == ["h1", "h2", "h5", "h6"]
        assert {i.id.host for i in manager.deployed.instances} <= {
            "h1", "h2", "h5", "h6"}
        assert manager.on_events(fab.step()) == [
            NoOp("host h4 already dropped")]
        assert constraint_errors_in(manager.fabric.trace) == []

    def test_resolve_after_host_loss(self):
        manager = example_manager()
        fab = manager.fabric
        fab.inject(CrashHost(20, "h3"))
        fab.step()  # crash
        decisions = manager.on_events(fab.step())  # suspicion at 23
        assert len(decisions) == 1
        decision = decisions[0]
        assert isinstance(decision, Resolve)
        assert [str(b) for b in decision.removed] == ["Client@h1x1"]
        assert [h.name for h in manager.doc.hosts] == [
            "h1", "h2", "h4", "h5", "h6"]
        result = oracle.check(manager.deployed,
                              manager.doc.constraintset("randc"), manager.doc)
        assert result.satisfied
        counts = {}
        for b in model.bindings_of(manager.deployed):
            counts[b.type] = counts.get(b.type, 0) + b.count
        assert counts == {"Router": 2, "Client": 3}

    def test_fabric_matches_deployment_after_resolve(self):
        manager = example_manager()
        fab = manager.fabric
        fab.inject(CrashHost(20, "h3"))
        fab.step()
        manager.on_events(fab.step())
        assert set(fab.alive_instances()) == set(manager.deployed.instance_ids())
        live_channels = set()
        for state in fab.hosts.values():
            for machine in state.machines.values():
                if machine.alive:
                    live_channels |= machine.channels
        assert live_channels == set(manager.deployed.channels)


class TestRevise:
    def test_a_resource_host_the_fabric_lacks_is_dropped(self, tmp_path):
        resources = tmp_path / "seven.deladas"
        resources.write_text(helpers.RESOURCES_TEXT
                             + 'host h0 = host(ipaddress = "192.168.0.9")\n')
        manager = example_manager()
        fab = manager.fabric
        fab.inject(fabric_mod.Revise(
            10, str(helpers.SAMPLES / "constraints.deladas"), str(resources)))
        decisions = manager.on_events(fab.step())
        assert len(decisions) == 1 and isinstance(decisions[0], Resolve)
        assert manager.doc.host("h0") is None
        assert manager.deployed.instances == fab.observed().config.instances


CONSTRAINED_GOAL = """
constraintset goal = constraintset {
  exists Router r1 in deployment (
    exists Router r2 in deployment ( r1 != r2 )
  )
  exists Client c in deployment ( c = c )
}
"""


class TestConstraintError:
    def _manager(self):
        resources = "\n".join(helpers.RESOURCES_TEXT.splitlines()[:11])
        doc = lang.merge_documents(lang.parse(resources),
                                   lang.parse(CONSTRAINED_GOAL))
        fab = fabric_mod.boot(list(doc.hosts), seed=0)
        manager = Manager(doc, "goal", fab)
        assert isinstance(manager.deploy_initial(), Resolve)
        return manager

    def test_two_hosts_cannot_satisfy(self):
        # The oracle proves the reduced problem unsatisfiable first.
        manager = self._manager()
        reduced = evolve_resources(manager.doc, {"h3"}, [])
        reference = oracle.enumerate_all(reduced, "goal")
        assert reference.exhausted and reference.solutions == ()

        fab = manager.fabric
        deployed_before = manager.deployed
        fab.inject(CrashHost(20, "h3"))
        fab.step()
        trace_mark = len(fab.trace)
        decisions = manager.on_events(fab.step())
        assert len(decisions) == 1
        assert isinstance(decisions[0], ConstraintError)
        assert manager.deployed == deployed_before
        # No fabric actions after the failed resolve.
        effects = [l for l in fab.trace[trace_mark:]
                   if l.split()[1] in ("install", "instantiate", "terminate",
                                       "wire", "unwire")]
        assert effects == []
        assert constraint_errors_in(manager.fabric.trace)

    def test_budget_hit_is_reported_unknown(self):
        """A re-solve that runs out of node budget keeps every pin and the
        fabric as they are, and says the answer is unknown."""
        manager = example_manager()
        manager.options = solver.SolveOptions(node_budget=5)
        fab = manager.fabric
        deployed_before = manager.deployed
        fab.inject(CrashHost(20, "h3"))
        fab.step()
        trace_mark = len(fab.trace)
        decisions = manager.on_events(fab.step())
        assert len(decisions) == 1
        assert isinstance(decisions[0], ConstraintError)
        assert "unknown" in decisions[0].detail
        assert "no configuration satisfies" not in decisions[0].detail
        assert manager.deployed == deployed_before
        effects = [l for l in fab.trace[trace_mark:]
                   if l.split()[1] in ("install", "instantiate", "terminate",
                                       "wire", "unwire")]
        assert effects == []

    def test_initial_budget_hit_is_reported_unknown(self):
        doc = helpers.merged_doc()
        fab = fabric_mod.boot(list(doc.hosts), seed=0)
        manager = Manager(doc, "randc", fab, solver.SolveOptions(node_budget=5))
        decision = manager.deploy_initial()
        assert isinstance(decision, ConstraintError)
        assert "unknown" in decision.detail


class TestGoalRestoration:
    @pytest.mark.parametrize("event", [
        CrashProcess(10, InstanceId("Router", "h3", 0)),
        CrashHost(20, "h3"),
        CrashHost(20, "h1"),
    ])
    def test_final_state_satisfies_goal(self, event):
        manager = example_manager()
        fab = manager.fabric
        fab.inject(event)
        while fab.pending():
            manager.on_events(fab.step())
        assert constraint_errors_in(manager.fabric.trace) == []
        result = oracle.check(manager.deployed,
                              manager.doc.constraintset("randc"), manager.doc)
        assert result.satisfied


class TestRequests:
    def test_selectors_are_idempotent(self):
        manager = example_manager()
        snapshot = (manager.doc, manager.cs_name, manager.deployed,
                    list(manager.fabric.trace))
        for method in ("get-resources", "get-constraints", "get-deployment"):
            response = manager.handle_request(method, "")
            assert response.startswith(b"ok\n")
        assert (manager.doc, manager.cs_name, manager.deployed,
                manager.fabric.trace) == snapshot

    def test_get_resources_round_trips(self):
        manager = example_manager()
        body = manager.handle_request("get-resources", "").split(b"\n", 1)[1]
        doc = lang.parse(body.decode())
        assert doc.components == manager.doc.components
        assert doc.hosts == manager.doc.hosts

    def test_get_constraints_round_trips(self):
        manager = example_manager()
        body = manager.handle_request("get-constraints", "").split(b"\n", 1)[1]
        doc = lang.parse(body.decode())
        assert doc.constraintsets == manager.doc.constraintsets

    def test_get_deployment_before_enact_is_empty(self):
        doc = helpers.merged_doc()
        fab = fabric_mod.boot(list(doc.hosts), seed=0)
        manager = Manager(doc, "randc", fab)
        body = manager.handle_request("get-deployment", "").split(b"\n", 1)[1]
        config = ddd.from_xml(body)
        assert config.instances == ()
        assert config.channels == ()
        assert len(config.hosts) == 6

    def test_satisfy_null_config(self):
        manager = example_manager()
        body = madme.join_parts([helpers.CONSTRAINTS_TEXT,
                                 helpers.RESOURCES_TEXT, "", "3"])
        response = manager.handle_request("satisfy", body)
        assert response.startswith(b"ok\n")
        parts = madme.split_parts(response.split(b"\n", 1)[1].decode())
        assert 1 <= len(parts) <= 3
        doc = helpers.merged_doc()
        for part in parts:
            config = ddd.from_xml(part.encode(), doc)
            assert oracle.check(config, doc.constraintset("randc"),
                                doc).satisfied

    def test_satisfy_with_pins_document(self):
        manager = example_manager()
        pins_ddd = ddd.to_xml(helpers.example_configuration(),
                              manager.doc, "randc").decode()
        body = madme.join_parts([helpers.CONSTRAINTS_TEXT,
                                 helpers.RESOURCES_TEXT, pins_ddd])
        response = manager.handle_request("satisfy", body)
        assert response.startswith(b"ok\n")
        part = madme.split_parts(response.split(b"\n", 1)[1].decode())[0]
        config = ddd.from_xml(part.encode())
        assert model.bindings_of(config) == model.bindings_of(
            helpers.example_configuration())

    def test_satisfy_unsatisfiable_returns_empty_collection(self):
        manager = example_manager()
        impossible = ("constraintset goal = constraintset {\n"
                      "forall host h in deployment ("
                      " card(instancesof Router in h) = 1"
                      " card(instancesof Router in h) = 0 )\n}")
        body = madme.join_parts([impossible, helpers.RESOURCES_TEXT])
        response = manager.handle_request("satisfy", body)
        assert response == b"ok\n"

    def test_enact_identity_is_stable(self):
        manager = example_manager()
        current = manager.handle_request("get-deployment", "").split(b"\n", 1)[1]
        trace_before = list(manager.fabric.trace)
        response = manager.handle_request("enact", current.decode())
        assert response == b"ok\n"  # empty plan
        assert manager.handle_request("get-deployment", "").split(b"\n", 1)[1] \
            == current
        assert manager.fabric.trace == trace_before

    def test_enact_rejects_goal_violating_document(self):
        manager = example_manager()
        doc = manager.doc
        bad = ddd.to_xml(model.empty_on(doc.hosts), doc, "randc")
        response = manager.handle_request("enact", bad.decode())
        assert response.startswith(b"error\nConstraintError")

    def test_enact_rejects_unknown_host(self):
        manager = example_manager()
        data = ddd.to_xml(helpers.example_configuration(), manager.doc,
                          "randc").decode()
        data = data.replace("h6", "h9")
        response = manager.handle_request("enact", data)
        assert response.startswith(b"error\n")

    def test_malformed_method_and_payload(self):
        manager = example_manager()
        assert manager.handle_request("bogus", "").startswith(
            b"error\nMalformedPayload")
        assert manager.handle_request("satisfy", "only-one-part").startswith(
            b"error\nMalformedPayload")
        assert manager.handle_request("enact", "").startswith(
            b"error\nMalformedPayload")


class TestFraming:
    def test_frame_round_trip_over_socket(self):
        left, right = socket.socketpair()
        madme.write_frame(left, b"hello\nworld")
        assert madme.read_frame(right) == b"hello\nworld"
        madme.write_frame(right, b"")
        assert madme.read_frame(left) == b""
        left.close()
        assert madme.read_frame(right) is None
        right.close()

    def test_served_protocol(self):
        doc = helpers.merged_doc()
        fab = fabric_mod.boot(list(doc.hosts), seed=0)
        manager = Manager(doc, "randc", fab)
        listener = madme.make_listener("0")
        port = listener.getsockname()[1]
        thread = threading.Thread(target=madme.serve,
                                  args=(manager, listener), daemon=True)
        thread.start()
        try:
            sock = madme.connect(str(port))
            ok, body = madme.request(sock, "satisfy", madme.join_parts(
                [helpers.CONSTRAINTS_TEXT, helpers.RESOURCES_TEXT, ""]))
            assert ok
            solution = madme.split_parts(body)[0]
            ok, _ = madme.request(sock, "enact", solution)
            assert ok
            ok, deployment = madme.request(sock, "get-deployment")
            assert ok
            assert deployment.rstrip("\n") == solution.rstrip("\n")
            sock.close()
        finally:
            listener.close()

    @pytest.mark.parametrize("spec, address", [
        ("8123", ("127.0.0.1", 8123)),
        ("localhost:8123", ("localhost", 8123)),
        (":8123", ("", 8123)),
        ("server.sock", "server.sock"),
        ("a:b:8123", "a:b:8123"),
        ("host:", "host:"),
        ("host:x1", "host:x1"),
    ])
    def test_listener_and_client_read_one_address(self, spec, address):
        assert madme._address(spec) == address

    def test_served_over_a_unix_socket(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a short relative path fits sun_path
        doc = helpers.merged_doc()
        manager = Manager(doc, "randc", fabric_mod.boot(list(doc.hosts), 0))
        listener = madme.make_listener("server.sock")
        threading.Thread(target=madme.serve, args=(manager, listener),
                         daemon=True).start()
        try:
            sock = madme.connect("server.sock")
            ok, body = madme.request(sock, "get-resources")
            assert ok and "component Router" in body
            sock.close()
        finally:
            listener.close()

    def test_server_survives_a_non_utf8_frame(self):
        doc = helpers.merged_doc()
        manager = Manager(doc, "randc", fabric_mod.boot(list(doc.hosts), seed=0))
        listener = madme.make_listener("0")
        port = listener.getsockname()[1]
        thread = threading.Thread(target=madme.serve,
                                  args=(manager, listener), daemon=True)
        thread.start()
        try:
            sock = madme.connect(str(port))
            madme.write_frame(sock, b"\xff\xfe")
            response = madme.read_frame(sock)
            assert response.startswith(b"error\nMalformedPayload")
            ok, body = madme.request(sock, "get-resources")
            assert ok
            assert "component Router" in body
            sock.close()
        finally:
            listener.close()


    @staticmethod
    def _start_server():
        doc = helpers.merged_doc()
        manager = Manager(doc, "randc", fabric_mod.boot(list(doc.hosts), seed=0))
        listener = madme.make_listener("0")
        threading.Thread(target=madme.serve, args=(manager, listener),
                         daemon=True).start()
        return listener, str(listener.getsockname()[1])

    def test_server_survives_deep_nesting(self):
        listener, port = self._start_server()
        try:
            sock = madme.connect(port)
            deep = ("constraintset g = constraintset { " + "(" * 3000
                    + "1 = 1" + ")" * 3000 + " }")
            ok, body = madme.request(sock, "satisfy", madme.join_parts(
                [deep, helpers.RESOURCES_TEXT]))
            assert not ok
            assert body.startswith("ParseError") and "nested deeper" in body
            ok, body = madme.request(sock, "get-resources")
            assert ok
            assert "component Router" in body
            sock.close()
        finally:
            listener.close()

    def test_server_survives_a_non_decimal_digit(self):
        listener, port = self._start_server()
        try:
            sock = madme.connect(port)
            goal = ("constraintset g = constraintset { forall host h in "
                    "deployment(card(instancesof Client in h) = \u00b2) }")
            ok, body = madme.request(sock, "satisfy", madme.join_parts(
                [goal, helpers.RESOURCES_TEXT]))
            assert not ok
            assert body.startswith("LexError") and "'\u00b2'" in body
            ok, body = madme.request(sock, "get-resources")
            assert ok
            assert "component Router" in body
            sock.close()
        finally:
            listener.close()

    def test_oversized_frame_is_refused_unread(self):
        """A header just over the limit is answered at once, without
        waiting for its body, and the connection is closed; the server
        goes on accepting connections."""
        listener, port = self._start_server()
        try:
            sock = madme.connect(port)
            sock.sendall((madme.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            response = madme.read_frame(sock)
            assert response.startswith(b"error\nMalformedPayload")
            assert b"exceeds" in response
            assert madme.read_frame(sock) is None
            sock.close()
            sock = madme.connect(port)
            ok, _ = madme.request(sock, "get-resources")
            assert ok
            sock.close()
        finally:
            listener.close()


# What the request fuzz splices into payloads: non-ASCII digits and letters,
# part separators, Deladas and XML fragments, and encoding declarations.
FUZZ_FRAGMENTS = (
    "0", "7", "\u00b2", "\u0663", "\u2167", "\u00bd", "x", "\u00e9", "\u03a9",
    "\u4e2d", "%%", "\n%%\n", "\n", " ", "(", ")", "{", "}", "[]", "=", "!=",
    "<=", ".", ",", '"', "//", "forall", "exists", "card", "instancesof",
    "connectsto", "reachable", "host", "Router", "<", ">", "&", "&amp;", "&#0;",
    "\x00", "<![CDATA[", "]]>", "<hosts/>", "</deployment>",
    '<instance id="Router@h3#0"/>',
    '<channel from="Client@h1#0:out" to="Router@h3#0:cin[9]"/>',
    '<?xml version="1.0" encoding="', 'encoding="cp932"',
    'encoding="TF-8"', 'encoding="idna"', 'encoding="utf-16"',
)


def _mutate(rng, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(8))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(FUZZ_FRAGMENTS) + text[i:]
        elif op == 1:
            text = text[:i] + text[j:]
        else:
            text = text[:i] + rng.choice(FUZZ_FRAGMENTS) + text[j:]
    return text


class TestRequestFuzz:
    """Every satisfy or enact request answers a response frame, whatever
    its payload: no exception escapes handle_request."""

    DDD = helpers.SAMPLES.joinpath("example-deployment.xml").read_text()

    def _assert_answers(self, manager, method, body):
        response = manager.handle_request(method, body)
        assert isinstance(response, bytes)
        assert response.startswith((b"ok\n", b"error\n")), (method, body)

    def test_mutated_payloads(self):
        rng = helpers.rng(15)
        manager = example_manager()
        for _ in range(4000):  # about 2 s
            if rng.random() < 0.25:
                self._assert_answers(manager, "enact", _mutate(rng, self.DDD))
                continue
            parts = [helpers.CONSTRAINTS_TEXT, helpers.RESOURCES_TEXT,
                     rng.choice(("", self.DDD))]
            for k in rng.sample(range(3), rng.randint(1, 3)):
                parts[k] = _mutate(rng, parts[k])
            self._assert_answers(manager, "satisfy", madme.join_parts(parts))

    def test_pinned_faults(self):
        """Payloads that once escaped handle_request and that random
        mutation seldom builds: a digit int() rejects, and DDD encodings
        expat cannot use, as satisfy pins and as enact."""
        manager = example_manager()
        digit = helpers.CONSTRAINTS_TEXT.replace("= 1", "= \u00b2", 1)
        self._assert_answers(manager, "satisfy", madme.join_parts(
            [digit, helpers.RESOURCES_TEXT]))
        for encoding in ("TF-8", "cp932", "idna"):
            data = self.DDD.replace('encoding="UTF-8"', f'encoding="{encoding}"')
            self._assert_answers(manager, "enact", data)
            self._assert_answers(manager, "satisfy", madme.join_parts(
                [helpers.CONSTRAINTS_TEXT, helpers.RESOURCES_TEXT, data]))


class TestPartCodec:
    def test_split_join_round_trip(self):
        parts = ["alpha\nbeta", "gamma", ""]
        assert madme.split_parts(madme.join_parts(parts)) == parts

    def test_single_part(self):
        assert madme.split_parts("just one") == ["just one"]
