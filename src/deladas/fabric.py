"""Deterministic virtual-time simulation of the managed host fabric.

Hosts run component instances in per-process machines; each host also runs
an AMP (autonomic management process) that reliably reports the death of a
collocated machine in the same tick. A whole-host crash kills the AMP too,
so the only signal is a HostFailureSuspected event HEARTBEAT_TIMEOUT ticks
later. Everything is driven by an event queue ordered by (tick, insertion);
identical boot arguments and injected events produce byte-identical traces.

Channel conservation: a machine holds every channel at it, and only those.
Wire adds a channel to both ends and Unwire discards it from both; a crash
or termination removes each of the machine's channels from the peer in the
same tick, so repairing one process costs in proportion to its channels.

Scenario files: one event per line, `#` comments:

    at <tick> crash-process <InstanceId>
    at <tick> crash-host <hostName>
    at <tick> add-host <hostName> ipaddress=<value> [key=value ...]
    at <tick> revise constraints=<path> resources=<path>

Trace log: one line per event/effect, "<tick> <kind> <args...>".
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .ddd import EnactmentPlan, Install, Instantiate, Terminate, Unwire, Wire
from .lang import (DeladasError, HostSpec, ValidationError, canonical_host,
                   record)
from .model import Channel, Configuration, Instance, InstanceId, _text

HEARTBEAT_TIMEOUT = 3  # ticks from a host crash to its suspicion


class FabricError(DeladasError):
    pass


class DuplicateHost(FabricError):
    pass


class HostDown(FabricError):
    def __init__(self, host: str):
        super().__init__(f"host {host} is down or unknown")
        self.host = host


class UnknownInstance(FabricError):
    pass


class PastEvent(FabricError):
    pass


class ScenarioError(FabricError):
    pass


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

@record
class CrashProcess(NamedTuple):
    at: int
    instance: InstanceId


@record
class CrashHost(NamedTuple):
    at: int
    host: str


@record
class AddHost(NamedTuple):
    at: int
    host: HostSpec


@record
class AmpReport(NamedTuple):
    at: int
    host: str
    failed_instance: InstanceId


@record
class HostFailureSuspected(NamedTuple):
    at: int
    host: str


@record
class Revise(NamedTuple):
    at: int
    constraints_path: str
    resources_path: str


FabricEvent = (CrashProcess | CrashHost | AddHost | AmpReport
               | HostFailureSuspected | Revise)


@record
class Observed(NamedTuple):
    """What runs: the alive hosts with their alive instances and channels,
    and the (host, code URI) pairs installed on the alive hosts."""

    config: Configuration
    installed: frozenset[tuple[str, str]]


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

class MachineState:
    def __init__(self, instance: InstanceId):
        self.instance = instance
        self.record = Instance(instance, instance.type)
        self.alive = True
        self.channels: set[Channel] = set()


class HostState:
    def __init__(self, spec: HostSpec):
        self.spec = spec
        self.alive = True  # the host and its AMP live and die together
        self.machines: dict[InstanceId, MachineState] = {}
        self.installed: set[str] = set()


class Fabric:
    def __init__(self, hosts: list[HostSpec], seed: int):
        """seed is only recorded in the boot trace line: nothing is random."""
        self.clock = 0
        self.hosts: dict[str, HostState] = {}
        self._queue: list[tuple[int, int, FabricEvent]] = []
        self._seq = 0
        self.trace: list[str] = []
        for spec in hosts:
            if spec.name in self.hosts:
                raise DuplicateHost(spec.name)
            self.hosts[spec.name] = HostState(spec)
        names = ",".join(h.name for h in hosts)
        self.log("boot", f"seed={seed}", f"hosts={names}")

    # -- trace ---------------------------------------------------------------

    def log(self, kind: str, *args: object) -> None:
        parts = " ".join(map(str, args))
        self.trace.append(f"{self.clock} {kind} {parts}".rstrip())

    # -- queue ----------------------------------------------------------------

    def pending(self) -> int:
        return len(self._queue)

    def inject(self, event: FabricEvent) -> None:
        if event.at < self.clock:
            raise PastEvent(f"event at {event.at} is before tick {self.clock}")
        heapq.heappush(self._queue, (event.at, self._seq, event))
        self._seq += 1

    # -- machines ------------------------------------------------------------

    def machine(self, instance: InstanceId) -> MachineState | None:
        host = self.hosts.get(instance.host)
        if host is None:
            return None
        return host.machines.get(instance)

    def alive_instances(self) -> list[InstanceId]:
        out = []
        for name in sorted(self.hosts):
            state = self.hosts[name]
            for iid in sorted(state.machines, key=_text):
                if state.machines[iid].alive:
                    out.append(iid)
        return out

    def observed(self) -> Observed:
        """Configuration.build sorts the channels by their slots' texts,
        which each slot holds, so nothing is formatted here."""
        hosts, instances, channels = [], [], set()
        alive = [state for state in self.hosts.values() if state.alive]
        for state in alive:
            hosts.append(state.spec)
            for m in state.machines.values():
                if m.alive:
                    instances.append(m.record)
                    channels |= m.channels
        installed = frozenset({(state.spec.name, code) for state in alive
                               for code in state.installed})
        return Observed(Configuration.build(hosts, instances, channels),
                        installed)

    def _kill_machine(self, machine: MachineState) -> None:
        # Conservation: channels die in the same tick as an endpoint. The
        # machine holds every channel at it, so its own set names each peer
        # (and its own end, now empty).
        machine.alive = False
        channels, machine.channels = machine.channels, set()
        for ch in channels:
            for slot in (ch.src, ch.dst):
                self.machine(slot.instance).channels.discard(ch)

    # -- event processing ------------------------------------------------------

    def step(self) -> list[FabricEvent]:
        """Advance to the next event tick and process everything due.

        Returns the events delivered to observers (AMP reports, failure
        suspicions, host arrivals, revisions). A no-op on an empty queue.
        """
        if not self._queue:
            return []
        tick = self._queue[0][0]
        self.clock = tick
        delivered: list[FabricEvent] = []
        while self._queue and self._queue[0][0] == tick:
            _, _, event = heapq.heappop(self._queue)
            delivered.extend(self._process(event))
        return delivered

    def _process(self, event: FabricEvent) -> list[FabricEvent]:
        if isinstance(event, CrashProcess):
            # A host crash kills its machines: an alive one's AMP is alive.
            machine = self.machine(event.instance)
            if machine is None or not machine.alive:
                self.log("crash-process", event.instance.text, "ignored")
                return []
            self.log("crash-process", event.instance.text)
            self._kill_machine(machine)
            report = AmpReport(self.clock, event.instance.host, event.instance)
            self.log("amp-report", report.host, report.failed_instance.text)
            return [report]
        if isinstance(event, CrashHost):
            state = self.hosts.get(event.host)
            if state is None or not state.alive:
                self.log("crash-host", event.host, "ignored")
                return []
            self.log("crash-host", event.host)
            state.alive = False
            for iid in sorted(state.machines, key=_text):
                machine = state.machines[iid]
                if machine.alive:
                    self._kill_machine(machine)
            self.inject(HostFailureSuspected(self.clock + HEARTBEAT_TIMEOUT,
                                             event.host))
            return []
        if isinstance(event, HostFailureSuspected):
            self.log("host-failure-suspected", event.host)
            return [event]
        if isinstance(event, AddHost):
            if event.host.name in self.hosts:
                self.log("add-host", event.host.name, "duplicate")
                return []
            self.hosts[event.host.name] = HostState(event.host)
            attrs = " ".join(f"{k}={v}" for k, v in event.host.attributes)
            self.log("add-host", event.host.name, attrs)
            return [event]
        if isinstance(event, Revise):
            self.log("revise", f"constraints={event.constraints_path}",
                     f"resources={event.resources_path}")
            return [event]
        raise FabricError(f"unknown event {event!r}")

    # -- enactment -------------------------------------------------------------

    def apply_plan(self, plan: EnactmentPlan) -> list[tuple[int, object]]:
        """Fire a plan's actions on the fabric, in order, at this tick.

        All target hosts are checked before anything runs; a dead or unknown
        host raises HostDown and leaves the fabric untouched. Nothing else is
        checked in advance: an action that fails while running raises a
        FabricError (UnknownInstance for a Wire to an instance that is not
        running, say), and the actions before it stay applied. The manager
        plans by ddd.diff from observed() to a target on alive hosts, so its
        plans meet neither error."""
        for action in plan:
            if isinstance(action, (Wire, Unwire)):
                hosts = (action.channel.src.instance.host,
                         action.channel.dst.instance.host)
            elif isinstance(action, Install):
                hosts = (action.host,)
            else:
                hosts = (action.instance.host,)
            for host in hosts:
                state = self.hosts.get(host)
                if state is None or not state.alive:
                    raise HostDown(host)
        effects: list[tuple[int, object]] = []
        for action in plan:
            self._execute(action)
            effects.append((self.clock, action))
        return effects

    def _execute(self, action) -> None:
        if isinstance(action, Install):
            self.hosts[action.host].installed.add(action.code)
            self.log("install", action.host, action.code)
        elif isinstance(action, Instantiate):
            host = self.hosts[action.instance.host]
            existing = host.machines.get(action.instance)
            if existing is not None and existing.alive:
                raise FabricError(f"{action.instance} is already running")
            host.machines[action.instance] = MachineState(action.instance)
            self.log("instantiate", action.instance.text)
        elif isinstance(action, Terminate):
            machine = self.machine(action.instance)
            if machine is None or not machine.alive:
                raise UnknownInstance(f"{action.instance} is not running")
            self._kill_machine(machine)
            self.log("terminate", action.instance.text)
        elif isinstance(action, Wire):
            ends = []
            for slot in (action.channel.src, action.channel.dst):
                machine = self.machine(slot.instance)
                if machine is None or not machine.alive:
                    raise UnknownInstance(f"{slot.instance} is not running")
                ends.append(machine)
            for machine in ends:
                machine.channels.add(action.channel)
            self.log("wire", action.channel.src.text, action.channel.dst.text)
        elif isinstance(action, Unwire):
            for slot in (action.channel.src, action.channel.dst):
                machine = self.machine(slot.instance)
                if machine is None:
                    raise UnknownInstance(f"{slot.instance} does not exist")
                machine.channels.discard(action.channel)
            self.log("unwire", action.channel.src.text,
                     action.channel.dst.text)
        else:
            raise FabricError(f"unknown action {action!r}")


def boot(hosts: list[HostSpec], seed: int = 0) -> Fabric:
    """Bring up a fabric with every host (and its AMP) alive and idle."""
    return Fabric(list(hosts), seed)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def parse_scenario(text: str) -> list[FabricEvent]:
    events: list[FabricEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3 or parts[0] != "at":
            raise ScenarioError(f"line {lineno}: expected 'at <tick> <event> ...'")
        try:
            tick = int(parts[1])
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad tick {parts[1]!r}") from None
        kind = parts[2]
        args = parts[3:]
        if kind == "crash-process":
            if len(args) != 1:
                raise ScenarioError(f"line {lineno}: crash-process takes one instance")
            events.append(CrashProcess(tick, InstanceId.parse(args[0])))
        elif kind == "crash-host":
            if len(args) != 1:
                raise ScenarioError(f"line {lineno}: crash-host takes one host")
            events.append(CrashHost(tick, args[0]))
        elif kind == "add-host":
            if len(args) < 2:
                raise ScenarioError(
                    f"line {lineno}: add-host needs a name and ipaddress=<value>")
            attrs = []
            for item in args[1:]:
                key, sep, value = item.partition("=")
                if not sep or not key:
                    raise ScenarioError(f"line {lineno}: bad attribute {item!r}")
                attrs.append((key, value))
            try:
                host = canonical_host(args[0], attrs)
            except ValidationError as e:
                raise ScenarioError(f"line {lineno}: {e}") from None
            events.append(AddHost(tick, host))
        elif kind == "revise":
            keyed = dict(item.partition("=")[::2] for item in args)
            if set(keyed) != {"constraints", "resources"}:
                raise ScenarioError(
                    f"line {lineno}: revise needs constraints=<path> resources=<path>")
            events.append(Revise(tick, keyed["constraints"], keyed["resources"]))
        else:
            raise ScenarioError(f"line {lineno}: unknown event {kind!r}")
    return events
