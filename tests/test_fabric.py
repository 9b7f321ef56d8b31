from collections import namedtuple

import pytest

import helpers
from deladas import ddd, model
from deladas.fabric import (AddHost, AmpReport, CrashHost, CrashProcess,
                            DuplicateHost, FabricError, HostDown,
                            HostFailureSuspected, PastEvent, Revise,
                            ScenarioError, UnknownInstance, boot,
                            parse_scenario)
from deladas.lang import HostSpec
from deladas.model import InstanceId


def deployed_fabric():
    doc = helpers.merged_doc()
    fab = boot(list(doc.hosts), seed=0)
    plan = ddd.diff(model.empty_on(doc.hosts), helpers.example_configuration(), doc)
    fab.apply_plan(plan)
    return doc, fab


class TestBoot:
    def test_six_hosts_alive_with_amps(self):
        doc = helpers.merged_doc()
        fab = boot(list(doc.hosts), seed=0)
        assert len(fab.hosts) == 6
        assert all(s.alive and s.amp_alive for s in fab.hosts.values())
        assert all(not s.machines for s in fab.hosts.values())
        assert fab.clock == 0

    def test_empty_fabric(self):
        fab = boot([], seed=0)
        assert fab.hosts == {}
        assert fab.clock == 0

    def test_duplicate_host(self):
        spec = HostSpec("h1", (("ipaddress", "1"),))
        with pytest.raises(DuplicateHost):
            boot([spec, spec], seed=0)


class TestApplyPlan:
    def test_initial_deployment_counts(self):
        _, fab = deployed_fabric()
        machines = fab.alive_instances()
        assert len(machines) == 6
        channels = set()
        for state in fab.hosts.values():
            for machine in state.machines.values():
                channels |= machine.channels
        assert len(channels) == 10

    def test_empty_plan_is_a_noop(self):
        _, fab = deployed_fabric()
        before = list(fab.trace)
        assert fab.apply_plan(ddd.EnactmentPlan()) == []
        assert fab.trace == before

    def test_plan_on_dead_host_rejected_atomically(self):
        doc, fab = deployed_fabric()
        fab.inject(CrashHost(5, "h3"))
        fab.step()
        plan = ddd.EnactmentPlan(
            (ddd.Instantiate(InstanceId("Router", "h3", 1)),))
        machines_before = fab.alive_instances()
        with pytest.raises(HostDown):
            fab.apply_plan(plan)
        assert fab.alive_instances() == machines_before

    def test_wire_to_missing_instance(self):
        _, fab = deployed_fabric()
        ghost = helpers.chan("Client@h1#0:out", "Router@h9#0:cin[0]")
        with pytest.raises(HostDown):
            fab.apply_plan(ddd.EnactmentPlan((ddd.Wire(ghost),)))
        present = helpers.chan("Client@h1#0:out", "Router@h4#0:cin[2]")
        fab.hosts["h4"].machines.pop(InstanceId("Router", "h4", 0))
        with pytest.raises(UnknownInstance):
            fab.apply_plan(ddd.EnactmentPlan((ddd.Wire(present),)))


class TestEvents:
    def test_inject_past_event(self):
        _, fab = deployed_fabric()
        fab.inject(CrashProcess(5, InstanceId("Router", "h3", 0)))
        fab.step()
        assert fab.clock == 5
        with pytest.raises(PastEvent):
            fab.inject(CrashProcess(4, InstanceId("Router", "h4", 0)))

    def test_crash_process_reports_same_tick(self):
        _, fab = deployed_fabric()
        fab.inject(CrashProcess(10, InstanceId("Router", "h3", 0)))
        delivered = fab.step()
        assert delivered == [AmpReport(10, "h3", InstanceId("Router", "h3", 0))]
        host = fab.hosts["h3"]
        assert host.alive and host.amp_alive
        assert not host.machines[InstanceId("Router", "h3", 0)].alive

    def test_crash_host_suspected_after_timeout(self):
        _, fab = deployed_fabric()
        fab.inject(CrashHost(20, "h3"))
        assert fab.step() == []  # the crash itself is silent
        delivered = fab.step()
        assert delivered == [HostFailureSuspected(23, "h3")]
        assert fab.clock == 23
        state = fab.hosts["h3"]
        assert not state.alive and not state.amp_alive
        assert all(not m.alive for m in state.machines.values())

    def test_no_amp_report_for_host_crash(self):
        _, fab = deployed_fabric()
        fab.inject(CrashHost(20, "h3"))
        events = fab.run_to_idle()
        assert not any(isinstance(e, AmpReport) for e in events)

    def test_empty_queue_step_is_noop(self):
        _, fab = deployed_fabric()
        assert fab.step() == []

    def test_add_host(self):
        _, fab = deployed_fabric()
        spec = HostSpec("h7", (("ipaddress", "192.168.0.7"),))
        fab.inject(AddHost(5, spec))
        delivered = fab.step()
        assert delivered == [AddHost(5, spec)]
        assert fab.hosts["h7"].alive

    def test_duplicate_add_host_ignored(self):
        _, fab = deployed_fabric()
        fab.inject(AddHost(5, HostSpec("h3", (("ipaddress", "x"),))))
        assert fab.step() == []
        assert fab.hosts["h3"].spec.ipaddress == "192.168.0.3"

    def test_unknown_event_is_rejected(self):
        """Heartbeats were such an event once: nothing produced them."""
        _, fab = deployed_fabric()
        fab.inject(namedtuple("Heartbeat", "at source")(4, "amp:h1"))
        with pytest.raises(FabricError, match="unknown event"):
            fab.step()

    def test_crash_on_dead_target_is_ignored(self):
        _, fab = deployed_fabric()
        fab.inject(CrashHost(5, "h3"))
        fab.inject(CrashHost(6, "h3"))
        fab.inject(CrashProcess(7, InstanceId("Router", "h3", 0)))
        events = fab.run_to_idle()
        assert [e for e in events if isinstance(e, HostFailureSuspected)] == [
            HostFailureSuspected(8, "h3")]

    def test_same_tick_events_in_insertion_order(self):
        _, fab = deployed_fabric()
        fab.inject(CrashProcess(5, InstanceId("Router", "h3", 0)))
        fab.inject(CrashProcess(5, InstanceId("Router", "h4", 0)))
        delivered = fab.step()
        assert [e.failed_instance.host for e in delivered] == ["h3", "h4"]


class TestInvariants:
    def test_conservation_after_process_crash(self):
        _, fab = deployed_fabric()
        fab.inject(CrashProcess(10, InstanceId("Router", "h3", 0)))
        fab.step()
        dead = InstanceId("Router", "h3", 0)
        for state in fab.hosts.values():
            for machine in state.machines.values():
                for ch in machine.channels:
                    assert dead not in (ch.src.instance, ch.dst.instance)

    def test_no_live_machines_on_dead_hosts(self):
        _, fab = deployed_fabric()
        fab.inject(CrashHost(10, "h4"))
        fab.run_to_idle()
        for state in fab.hosts.values():
            if not state.alive:
                assert all(not m.alive for m in state.machines.values())

    def test_reliable_detection_contract(self):
        _, fab = deployed_fabric()
        fab.inject(CrashProcess(5, InstanceId("Client", "h1", 0)))
        fab.inject(CrashProcess(7, InstanceId("Client", "h2", 0)))
        fab.inject(CrashHost(9, "h5"))
        events = fab.run_to_idle()
        reports = [e for e in events if isinstance(e, AmpReport)]
        suspected = [e for e in events if isinstance(e, HostFailureSuspected)]
        assert len(reports) == 2
        assert len(suspected) == 1

    def test_trace_determinism(self):
        traces = []
        for _ in range(2):
            _, fab = deployed_fabric()
            fab.inject(CrashProcess(10, InstanceId("Router", "h3", 0)))
            fab.inject(CrashHost(20, "h6"))
            fab.run_to_idle()
            traces.append("\n".join(fab.trace))
        assert traces[0] == traces[1]


class TestScenarioFiles:
    def test_parse_all_event_kinds(self):
        text = """
        # a comment
        at 10 crash-process Router@h3#0

        at 20 crash-host h3
        at 30 add-host h7 ipaddress=192.168.0.7 owner=ops
        at 40 revise constraints=new.deladas resources=res.deladas
        """
        events = parse_scenario(text)
        assert [type(e).__name__ for e in events] == [
            "CrashProcess", "CrashHost", "AddHost", "Revise"]
        assert events[0] == CrashProcess(10, InstanceId("Router", "h3", 0))
        assert events[2].host.attributes == (
            ("ipaddress", "192.168.0.7"), ("owner", "ops"))
        assert events[3] == Revise(40, "new.deladas", "res.deladas")

    @pytest.mark.parametrize("line", [
        "crash-host h1",
        "at x crash-host h1",
        "at 5 explode h1",
        "at 5 crash-process",
        "at 5 add-host h9",
        "at 5 add-host h9 owner=ops",
        "at 5 revise constraints=a",
    ])
    def test_rejects_malformed_lines(self, line):
        with pytest.raises(ScenarioError):
            parse_scenario(line)
