"""Small-scope oracle for the autonomic manager.

Every crash the scenario language can express on a small deployment is
taken singly, as a same-tick pair and as an ordered pair one tick apart,
with host arrivals and revisions mixed in, and a seeded random suite runs
longer scenarios. Right after every fabric step, and again after the
manager reacts, each channel a machine holds must be at that machine, and
both its ends must run and hold it. After the reaction the manager must
also agree with the fabric: what observed() reports is what the machines
run, and it equals the deployment restricted to the alive hosts. No
exception may leave on_events, a constraint error must be proved by
enumerate_all, and a scenario that raises none ends in a deployment that
satisfies the goal.
"""

import itertools

import pytest

import generators
import helpers
import oracle
from deladas import fabric, model, solver
from deladas.fabric import AddHost, CrashHost, CrashProcess, Revise
from deladas.lang import HostSpec
from deladas.madme import ConstraintError, Manager, Resolve

CS = "randc"
H7 = HostSpec("h7", (("ipaddress", "192.168.0.7"),))


def live(fab) -> tuple[set, set]:
    """The instances and channels the machines of alive hosts run."""
    instances, channels = set(), set()
    for state in fab.hosts.values():
        if state.alive:
            for machine in state.machines.values():
                if machine.alive:
                    instances.add(machine.instance)
                    channels |= machine.channels
    return instances, channels


def channel_problems(fab) -> list[str]:
    """Channel conservation: a machine holds only channels at it, and both
    ends of each are alive machines that hold it."""
    problems = []
    for state in fab.hosts.values():
        for machine in state.machines.values():
            for ch in machine.channels:
                if machine.instance not in (ch.src.instance, ch.dst.instance):
                    problems.append(f"{machine.instance} holds {ch}, "
                                    f"which is not at it")
                for slot in (ch.src, ch.dst):
                    end = fab.machine(slot.instance)
                    if end is None or not end.alive or ch not in end.channels:
                        problems.append(f"{machine.instance} holds {ch}, "
                                        f"but {slot.instance} does not")
    return problems


def unproven(manager, decision) -> list[str]:
    """A constraint error stands only if no configuration exists."""
    if not decision.detail.startswith("no configuration satisfies"):
        return [f"constraint error: {decision.detail}"]
    if len(manager.doc.hosts) > 3:
        return [f"constraint error on {len(manager.doc.hosts)} hosts, "
                f"too many for the oracle: {decision.detail}"]
    reference = oracle.enumerate_all(manager.doc, manager.cs_name)
    if not reference.exhausted or reference.solutions:
        return [f"constraint error, but a configuration exists: "
                f"{decision.detail}"]
    return []


def step_problems(manager, decisions) -> list[str]:
    fab = manager.fabric
    observed = fab.observed().config
    seen = (set(observed.instance_ids()), set(observed.channels))
    problems = channel_problems(fab)
    if seen != live(fab):
        problems.append("observed() differs from the machines")
    alive = {name for name, state in fab.hosts.items() if state.alive}
    expected = model.restrict_to_hosts(manager.deployed, alive)
    if seen != (set(expected.instance_ids()), set(expected.channels)):
        problems.append("the deployment differs from what is observed")
    for decision in decisions:
        if isinstance(decision, ConstraintError):
            problems += unproven(manager, decision)
    return problems


def run_scenario(doc, events, pins=(), prior=None) -> list[str]:
    fab = fabric.boot(list(doc.hosts))
    manager = Manager(doc, CS, fab)
    assert isinstance(manager.deploy_initial(pins, prior), Resolve)
    for event in events:
        fab.inject(event)
    problems = []
    errored = False
    while fab.pending():
        try:
            events = fab.step()
            problems += [f"{fab.clock}: after the step: {p}"
                         for p in channel_problems(fab)]
            decisions = manager.on_events(events)
        except Exception as e:  # the oracle reports what escapes
            return problems + [f"{fab.clock}: {type(e).__name__} left "
                               f"on_events: {e}"]
        problems += [f"{fab.clock}: {p}"
                     for p in step_problems(manager, decisions)]
        errored = errored or any(isinstance(d, ConstraintError)
                                 for d in decisions)
    if not errored:
        if {i.id.host for i in manager.deployed.instances} - {
                h.name for h in manager.doc.hosts}:
            problems.append("the deployment uses a dropped host")
        result = oracle.check(manager.deployed,
                              manager.doc.constraintset(manager.cs_name),
                              manager.doc)
        if not result.satisfied:
            problems.append("the final deployment violates the goal")
    return problems


def crash_events(config, doc):
    """Each crash the scenario language can express, as a function of its
    tick: every process of config, then every host."""
    return ([lambda t, i=inst.id: CrashProcess(t, i) for inst in config.instances]
            + [lambda t, h=h.name: CrashHost(t, h) for h in doc.hosts])


def small_scope(crashes):
    """Singles, same-tick pairs and ordered pairs one tick apart."""
    out = [[c(10)] for c in crashes]
    out += [[a(10), b(10)] for a, b in itertools.combinations(crashes, 2)]
    out += [[a(10), b(11)] for a, b in itertools.permutations(crashes, 2)]
    return out


def failures(doc, scenarios, pins=(), prior=None) -> dict:
    out = {}
    for events in scenarios:
        problems = run_scenario(doc, events, pins, prior)
        if problems:
            out["; ".join(map(repr, events))] = problems
    return out


def report(found: dict, total: int) -> str:
    head = list(found.items())[:5]
    return (f"{len(found)} of {total} scenarios failed, for example:\n"
            + "\n".join(f"  {name}: {problems}" for name, problems in head))


@pytest.fixture(scope="module")
def example():
    doc = helpers.merged_doc()
    config = helpers.example_configuration()
    return doc, tuple(model.bindings_of(config)), config


@pytest.fixture(scope="module")
def revisions(tmp_path_factory):
    """Two revisions: the resources without h6, and the goal with at most
    one client per router."""
    root = tmp_path_factory.mktemp("revisions")
    smaller = root / "five.deladas"
    smaller.write_text("\n".join(l for l in helpers.RESOURCES_TEXT.splitlines()
                                 if "h6" not in l) + "\n")
    capped = root / "capped.deladas"
    capped.write_text(helpers.CONSTRAINTS_TEXT.replace(
        "connectedto r) <= 2", "connectedto r) <= 1"))
    assert capped.read_text() != helpers.CONSTRAINTS_TEXT
    resources = str(helpers.SAMPLES / "resources.deladas")
    constraints = str(helpers.SAMPLES / "constraints.deladas")
    return [(constraints, str(smaller)), (str(capped), resources)]


def test_every_crash_pair_of_the_example(example):
    """12 crashes of the six-host example: 210 scenarios."""
    doc, pins, config = example
    scenarios = small_scope(crash_events(config, doc))
    assert len(scenarios) == 210
    found = failures(doc, scenarios, pins, config)
    assert not found, report(found, len(scenarios))


def test_crashes_with_a_host_arrival_or_a_revision(example, revisions):
    doc, pins, config = example
    (keep_goal, smaller), (capped, keep_resources) = revisions
    scenarios = []
    for crash in crash_events(config, doc):
        scenarios += [[AddHost(5, H7), crash(10)], [AddHost(10, H7), crash(10)],
                      [Revise(10, keep_goal, smaller), crash(10)],
                      [crash(10), Revise(11, capped, keep_resources)]]
    found = failures(doc, scenarios, pins, config)
    assert not found, report(found, len(scenarios))


def test_every_crash_pair_of_three_hosts():
    """Losing two of three hosts leaves no configuration: those constraint
    errors are proved, and every other scenario ends in the goal."""
    doc = helpers.three_host_doc()
    config = solver.solve(doc, CS).solutions[0]
    scenarios = small_scope(crash_events(config, doc))
    found = failures(doc, scenarios)
    assert not found, report(found, len(scenarios))


@pytest.mark.parametrize("seed", range(4))
def test_random_longer_scenarios(example, revisions, seed):
    doc, pins, config = example
    rng = helpers.rng(1800 + seed)
    scenarios = [generators.gen_scenario(
        rng, [h.name for h in doc.hosts], ["Client", "Router"], revisions,
        rng.randint(4, 10)) for _ in range(10)]
    found = failures(doc, scenarios, pins, config)
    assert not found, report(found, len(scenarios))


def test_the_oracle_sees_a_divergence(example):
    """A manager that forgets a restart is caught at the step it happens."""
    doc, pins, config = example
    fab = fabric.boot(list(doc.hosts))
    manager = Manager(doc, CS, fab)
    manager.deploy_initial(pins, config)
    fab.inject(CrashProcess(10, helpers.iid("Router@h3#0")))
    fab.step()  # the AMP report is dropped
    assert step_problems(manager, []) == [
        "the deployment differs from what is observed"]


def test_the_oracle_sees_a_channel_left_on_a_peer(example):
    """A crash's channels must leave its peers in the same tick, before the
    restart wires the same channels again."""
    doc, pins, config = example
    fab = fabric.boot(list(doc.hosts))
    manager = Manager(doc, CS, fab)
    manager.deploy_initial(pins, config)
    router = helpers.iid("Router@h3#0")
    fab.inject(CrashProcess(10, router))
    fab.step()
    assert channel_problems(fab) == []
    left = helpers.chan("Client@h1#0:out", "Router@h3#0:cin[0]")
    assert left in config.channels
    fab.machine(helpers.iid("Client@h1#0")).channels.add(left)
    assert channel_problems(fab) == [
        f"Client@h1#0 holds {left}, but Router@h3#0 does not"]
