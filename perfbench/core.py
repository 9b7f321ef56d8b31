"""Inputs, operations, output checks and statistics shared by the workloads.

Every operation the benchmark times is a public entry point of the engine,
called exactly as a user of the library would call it. The checks that judge
an operation's output use the functions captured at import time below, so
that the traced run's wrappers never see or time the benchmark's own checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

from deladas import ddd, evaluator, fabric, lang, madme, model, solver
from deladas.fabric import CrashHost, CrashProcess

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SAMPLES = ROOT / "samples"
INPUTS = BENCH / "inputs"
GOLDEN_PATH = BENCH / "golden.json"

CS = "randc"
CRASH_TICK = 10
SOLVE_HOSTS = (5, 6, 7, 8)  # the host counts of the solve_ms.* metrics

# Untraced references for the checks (see the module docstring).
_validate = model.validate
_check = evaluator.check
_to_xml = ddd.to_xml
_parse_ddd = ddd.parse_ddd
_diff = ddd.diff
_merge = lang.merge_documents
_parse = lang.parse
_pretty_print = lang.pretty_print
_restrict = model.restrict_to_hosts

CONSTRAINTS_TEXT = (SAMPLES / "constraints.deladas").read_text()
# The component declarations of the sample; hosts are generated per size.
COMPONENTS_TEXT = "".join(
    line for line in (SAMPLES / "resources.deladas").read_text()
    .splitlines(keepends=True) if not line.startswith("host "))


def resources_text(hosts: int) -> str:
    """The sample's components with hosts h1..hN, addressed as in samples/."""
    return COMPONENTS_TEXT + "".join(
        f'host h{i} = host(ipaddress = "192.168.0.{i}")\n'
        for i in range(1, hosts + 1))


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def goal_problems(config, doc) -> list[str]:
    """Structural problems plus violated clauses; empty when the output is
    a valid deployment that satisfies the goal."""
    problems = list(_validate(config, doc))
    if not problems:
        result = _check(config, doc.constraintset(CS), doc)
        problems += [str(v) for v in result.violations]
    return problems


# ---------------------------------------------------------------------------
# Cold satisfy (randc-scale, the scaling sweep and the solve probes)
# ---------------------------------------------------------------------------

def cold_satisfy(hosts: int, node_budget: int | None = None):
    """One cold `satisfy`: parse both texts, merge, solve, serialize.

    Returns the merged document, the solver outcome and the first solution's
    DDD (None when the search found none)."""
    doc = lang.merge_documents(lang.parse(resources_text(hosts)),
                               lang.parse(CONSTRAINTS_TEXT))
    outcome = solver.solve(doc, CS, solver.SolveOptions(
        solution_limit=1, node_budget=node_budget))
    xml = (ddd.to_xml(outcome.solutions[0], doc, CS)
           if outcome.solutions else None)
    return doc, outcome, xml


def satisfy_problems(hosts: int, doc, outcome, xml, golden: dict) -> list[str]:
    if xml is None:
        return [f"h{hosts}: no solution (exhausted={outcome.exhausted})"]
    problems = goal_problems(outcome.solutions[0], doc)
    expected = golden["first_solution"].get(str(hosts))
    if expected is not None and digest(xml) != expected:
        problems.append(f"h{hosts}: first-solution DDD digest {digest(xml)} "
                        f"!= {expected}")
    return problems


# ---------------------------------------------------------------------------
# Failure episodes on the stored 8-host deployment (failover)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Episode:
    name: str
    kind: str  # process, process_pair, client_host or router_host
    events: tuple


class Deployment8:
    """The 8-host goal's first solution, stored as a DDD, and its episodes."""

    def __init__(self):
        self.xml = (INPUTS / "randc-h8.xml").read_bytes()
        self.doc = _merge(_parse(resources_text(8)), _parse(CONSTRAINTS_TEXT))
        self.prior = _parse_ddd(self.xml, self.doc).configuration
        self.pins = tuple(model.bindings_of(self.prior))
        routers = {b.host for b in self.pins if b.type == "Router"}
        ids = [inst.id for inst in self.prior.instances]
        episodes = []
        for host in self.doc.hosts:
            kind = "router_host" if host.name in routers else "client_host"
            episodes.append(Episode(f"host:{host.name}", kind,
                                    (CrashHost(CRASH_TICK, host.name),)))
        for iid in ids:
            episodes.append(Episode(f"process:{iid}", "process",
                                    (CrashProcess(CRASH_TICK, iid),)))
        # Two crashes in one tick: every pair the scenario language can
        # express, including the pairs that hit the known restart defect.
        for a, b in itertools.combinations(ids, 2):
            episodes.append(Episode(f"pair:{a}+{b}", "process_pair",
                                    (CrashProcess(CRASH_TICK, a),
                                     CrashProcess(CRASH_TICK, b))))
        self.episodes = episodes
        self.by_name = {e.name: e for e in episodes}


@dataclass
class EpisodeResult:
    setup_s: float
    repair_s: float
    problems: list[str]
    trace_digest: str


def live_state(fab) -> tuple[set, set]:
    instances = set(fab.alive_instances())
    channels = set()
    for state in fab.hosts.values():
        if state.alive:
            for machine in state.machines.values():
                if machine.alive:
                    channels |= machine.channels
    return instances, channels


def step_problems(manager, decisions) -> list[str]:
    """The invariants that must hold after every fabric step."""
    problems = [f"constraint error: {d.detail}" for d in decisions
                if isinstance(d, madme.ConstraintError)]
    alive = {name for name, s in manager.fabric.hosts.items() if s.alive}
    expected = _restrict(manager.deployed, alive)
    instances, channels = live_state(manager.fabric)
    if instances != set(expected.instance_ids()):
        problems.append("live instances differ from deployed")
    if channels != set(expected.channels):
        problems.append("live channels differ from deployed")
    problems += goal_problems(manager.deployed, manager.doc)
    return problems


def run_episode(dep: Deployment8, episode: Episode) -> EpisodeResult:
    """Untimed set-up (boot and initial deployment), then the timed repair:
    the fabric.step and Manager.on_events calls until the fabric is idle."""
    started = time.perf_counter()
    fab = fabric.boot(list(dep.doc.hosts), 0)
    manager = madme.Manager(dep.doc, CS, fab)
    manager.deploy_initial(dep.pins, dep.prior)
    setup_s = time.perf_counter() - started
    problems = []
    if _to_xml(manager.deployed, dep.doc, CS) != dep.xml:
        problems.append("initial deployment differs from the stored DDD")
    for event in episode.events:
        fab.inject(event)
    repair_s = 0.0
    while fab.pending():
        started = time.perf_counter()
        decisions = manager.on_events(fab.step())
        repair_s += time.perf_counter() - started
        problems += step_problems(manager, decisions)
    return EpisodeResult(setup_s, repair_s, problems,
                         digest("\n".join(fab.trace)))


def episode_problems(result: EpisodeResult, episode: Episode,
                     golden: dict) -> list[str]:
    """Invariant problems, plus a trace that differs from the seed commit's.

    Episodes that fail at the seed commit are judged by the invariants only:
    fixing the defect is expected to change their traces."""
    problems = list(result.problems)
    if episode.name not in golden["known_failing_episodes"]:
        expected = golden["episode_trace"][episode.name]
        if result.trace_digest != expected:
            problems.append(f"{episode.name}: trace digest "
                            f"{result.trace_digest} != {expected}")
    return problems


# ---------------------------------------------------------------------------
# Timed operations: each returns its time in ms and the problems found
# ---------------------------------------------------------------------------

# The failover episodes that stand for their kind where another workload
# probes the repair metrics.
PROBE_EPISODES = {"process": "process:Client@h1#0",
                  "client_host": "host:h1",
                  "router_host": "host:h7"}
# Probe operations per pass: the cheap ones more often, since a single short
# operation is noisier.
PROBE_REPEATS = {"process": 15, "client_host": 9, "router_host": 3,
                 5: 9, 6: 6, 7: 3, 8: 3}


def solve_op(hosts: int, golden: dict) -> tuple[float, list[str]]:
    started = time.perf_counter()
    doc, outcome, xml = cold_satisfy(hosts)
    ms = (time.perf_counter() - started) * 1e3
    return ms, satisfy_problems(hosts, doc, outcome, xml, golden)


def episode_op(dep: Deployment8, episode: Episode,
               golden: dict) -> tuple[EpisodeResult, list[str]]:
    result = run_episode(dep, episode)
    return result, episode_problems(result, episode, golden)


class Tally:
    """Operations attempted and failed. A failure of an episode that fails
    at the seed commit still counts, but does not make the run incorrect."""

    def __init__(self, golden: dict):
        self.known = set(golden["known_failing_episodes"])
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, problems: list[str], name: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if name not in self.known:
                self.unexpected += problems


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest value. Returns (value, percentile)."""
    n = len(values)
    if n < 11:
        raise ValueError(f"{n} samples leave none with 10 beyond it")
    return sorted(values)[n - 11], 100 * (n - 10) / n
