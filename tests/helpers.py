"""Shared builders for the test suite.

The canonical six-host client/router example lives here: two routers on h3
and h4, four clients elsewhere, each client pair-wired to one router and the
routers mutually wired. The wiring below was checked by hand against all
five constraint clauses before any solver existed; tests treat it as ground
truth.
"""

from __future__ import annotations

import collections
import random
import sys
from pathlib import Path

from deladas import ddd, evaluator, fabric, lang, madme, model, solver
from deladas.model import Channel, Configuration, Instance, InstanceId, PortSlot

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

RESOURCES_TEXT = (SAMPLES / "resources.deladas").read_text()
CONSTRAINTS_TEXT = (SAMPLES / "constraints.deladas").read_text()


def resources_doc() -> lang.SpecDocument:
    return lang.parse(RESOURCES_TEXT)


def constraints_doc() -> lang.SpecDocument:
    return lang.parse(CONSTRAINTS_TEXT)


def merged_doc() -> lang.SpecDocument:
    return lang.merge_documents(resources_doc(), constraints_doc())


def iid(text: str) -> InstanceId:
    return InstanceId.parse(text)


def slot(text: str) -> PortSlot:
    return PortSlot.parse(text)


def chan(src: str, dst: str) -> Channel:
    return Channel(slot(src), slot(dst))


def client_router_pair(client: str, router: str, index: int) -> list[Channel]:
    """The two channels attaching one client to one router."""
    return [
        chan(f"{client}:out", f"{router}:cin[{index}]"),
        chan(f"{client}:in", f"{router}:cout[{index}]"),
    ]


def ring_pair(r1: str, r2: str, i1: int = 0, i2: int = 0) -> list[Channel]:
    """Mutual rout->rin channels between two routers."""
    return [
        chan(f"{r1}:rout[{i1}]", f"{r2}:rin[{i2}]"),
        chan(f"{r2}:rout[{i2}]", f"{r1}:rin[{i1}]"),
    ]


def example_configuration() -> Configuration:
    """Routers on h3/h4, clients on h1/h2/h5/h6, 10 channels."""
    doc = resources_doc()
    instances = [
        Instance(iid("Client@h1#0"), "Client"),
        Instance(iid("Client@h2#0"), "Client"),
        Instance(iid("Router@h3#0"), "Router"),
        Instance(iid("Router@h4#0"), "Router"),
        Instance(iid("Client@h5#0"), "Client"),
        Instance(iid("Client@h6#0"), "Client"),
    ]
    channels = (
        client_router_pair("Client@h1#0", "Router@h3#0", 0)
        + client_router_pair("Client@h5#0", "Router@h3#0", 1)
        + client_router_pair("Client@h2#0", "Router@h4#0", 0)
        + client_router_pair("Client@h6#0", "Router@h4#0", 1)
        + ring_pair("Router@h3#0", "Router@h4#0")
    )
    return Configuration.build(doc.hosts, instances, channels)


def parse_snippet(text: str) -> lang.SpecDocument:
    return lang.parse(text)


def three_host_doc() -> lang.SpecDocument:
    """The six-host example reduced to its first three hosts."""
    return randc_doc(3)


def randc_doc(hosts: int) -> lang.SpecDocument:
    """The sample goal over hosts h1..hN, addressed as in the sample."""
    doc = merged_doc()
    specs = tuple(lang.HostSpec(f"h{i}", (("ipaddress", f"192.168.0.{i}"),))
                  for i in range(1, hosts + 1))
    return lang.SpecDocument(doc.components, specs, doc.constraintsets)


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def forget_programs() -> None:
    """Empty this thread's cache of compiled goals (evaluator._program), so
    the next solve or check of any goal compiles it."""
    evaluator._PROGRAMS.__dict__.clear()


def record_compiles(monkeypatch) -> list:
    """From now on, append the expression of every evaluator._compile call,
    the solver's included, to the returned list, and compile as before."""
    compiled, real = [], evaluator._compile

    def recording(expr, *args):
        compiled.append(expr)
        return real(expr, *args)
    monkeypatch.setattr(evaluator, "_compile", recording)
    monkeypatch.setattr(solver, "_compile", recording)
    return compiled


def outcome(out):
    """A SolveOutcome without its wall-clock seconds, for comparing."""
    return out._replace(stats=out.stats._replace(seconds=0.0))


def small_goals(count: int) -> list[lang.SpecDocument]:
    """count one-host documents, each with a different goal named goal."""
    return [parse_snippet(
        'component A(code = "a", ports = {p})\n'
        'host m0 = host(ipaddress = "1")\n'
        "constraintset goal = constraintset {\n"
        f"  forall host h in deployment ( card(instancesof A in h) <= {n} )\n"
        "}\n") for n in range(1, count + 1)]


def python_calls(run, *args) -> collections.Counter:
    """Call run(*args) and count the Python-level calls it makes, per code
    object, with sys.setprofile; run's own call is not counted, nor are
    calls into builtins. The total differs between Python versions; whether
    a given function is called does not."""
    calls: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(*args)
    finally:
        sys.setprofile(previous)
    calls[run.__code__] -= 1
    return +calls


# The sample's component declarations, without its hosts.
COMPONENTS_TEXT = "".join(line for line in RESOURCES_TEXT.splitlines(
    keepends=True) if not line.startswith("host "))


def resources_text(hosts: int) -> str:
    """The sample's components with hosts h1..hN, addressed as in the
    sample, as Deladas text."""
    return COMPONENTS_TEXT + "".join(
        f'host h{i} = host(ipaddress = "192.168.0.{i}")\n'
        for i in range(1, hosts + 1))


def cold_satisfy(hosts: int) -> bytes:
    """Parse and merge randc over hosts h1..hN, solve it and write the
    first solution's DDD."""
    doc = lang.merge_documents(lang.parse(resources_text(hosts)),
                               lang.parse(CONSTRAINTS_TEXT))
    config = solver.solve(doc, "randc").solutions[0]
    return ddd.to_xml(config, doc, "randc")


def deployed_manager(hosts: int = 8) -> madme.Manager:
    """A manager that has deployed randc's first solution over hosts
    h1..hN, read back from its DDD with its bindings pinned, as a stored
    deployment is."""
    doc = randc_doc(hosts)
    config = solver.solve(doc, "randc").solutions[0]
    prior = ddd.from_xml(ddd.to_xml(config, doc, "randc"), doc)
    manager = madme.Manager(doc, "randc", fabric.boot(list(doc.hosts)))
    manager.deploy_initial(tuple(model.bindings_of(prior)), prior)
    return manager


def repair(manager: madme.Manager) -> None:
    """Run the manager's cycle until the fabric idles."""
    while manager.fabric.pending():
        manager.on_events(manager.fabric.step())


def operation_calls() -> dict[str, int]:
    """Python calls per operation (python_calls): on randc's 8-host first
    solution, the repair of a client host's crash (h1) and of a router
    host's (h7), and the restart of the process of its first instance
    (Client@h1#0), each from the event's injection until the fabric idles;
    the repairs of a client host's crash (h1) and of the middle router
    host's (h27) on the 32-host first solution; and cold satisfies (parse,
    merge, solve, write the DDD) at 5, 8 and 32 hosts. Each operation runs
    once uncounted first, so that its goal is compiled."""
    def crashed(event, hosts: int = 8) -> int:
        calls = 0
        for _ in range(2):
            manager = deployed_manager(hosts)
            manager.fabric.inject(event(manager))
            calls = sum(python_calls(repair, manager).values())
        return calls

    def satisfied(hosts: int) -> int:
        cold_satisfy(hosts)
        return sum(python_calls(cold_satisfy, hosts).values())

    return {
        "client-host repair (h1)": crashed(
            lambda m: fabric.CrashHost(10, "h1")),
        "router-host repair (h7)": crashed(
            lambda m: fabric.CrashHost(10, "h7")),
        "process restart (Client@h1#0)": crashed(
            lambda m: fabric.CrashProcess(10, m.deployed.instances[0].id)),
        "client-host repair, 32 hosts (h1)": crashed(
            lambda m: fabric.CrashHost(10, "h1"), 32),
        "router-host repair, 32 hosts (h27)": crashed(
            lambda m: fabric.CrashHost(10, "h27"), 32),
        "cold satisfy, 5 hosts": satisfied(5),
        "cold satisfy, 8 hosts": satisfied(8),
        "cold satisfy, 32 hosts": satisfied(32),
    }
