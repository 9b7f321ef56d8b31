"""The autonomic manager: goal knowledge, failure reactions, five methods.

The manager holds the current resources and constraints, the deployed
configuration, and a handle on the fabric it manages. Fabric events drive
the autonomic cycle, one decision per failure, AMP reports first. Each
reaction enacts ddd.diff from what the fabric observes to a target: a
process failure restarts the instance and wires its channels to running
peers (a peer that is down too wires the rest when it restarts); a host
failure or a revised goal drops every host the fabric shows down and
re-solves with the observed bindings pinned, relaxing pins progressively;
if nothing works, or the search runs out of node budget before it can tell,
a constraint error is issued and the fabric is left untouched. A restart
reads only the deployed channels at the instance: the manager indexes them
by instance whenever its deployment changes.

External interface: five methods over length-prefixed frames (4-byte
big-endian payload length, UTF-8 payload). Requests put the method name on
line 1 and the body after it; multi-part bodies separate parts with a line
containing only "%%". Responses answer "ok" or "error" on line 1.

    get-resources                -> canonical Deladas components and hosts
    get-constraints              -> canonical Deladas constraintsets
    get-deployment               -> the current DDD
    satisfy                      -> parts: constraints, resources,
                                    pins DDD or empty, optional limit;
                                    answers a collection of DDDs
    enact                        -> one DDD; applies the diff to the fabric
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import ddd, evaluator, lang, model, solver
from .ddd import EnactmentPlan
from .fabric import (AddHost, AmpReport, DuplicateHost, Fabric, HostDown,
                     HostFailureSuspected, Revise)
from .lang import DeladasError, HostSpec, SpecDocument, record
from .model import Binding, Channel, Configuration, Instance, InstanceId

if TYPE_CHECKING:
    import socket


class UnknownHost(DeladasError):
    pass


class MalformedPayload(DeladasError):
    pass


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------

@record
class RestartInPlace(NamedTuple):
    instance: InstanceId


@record
class Resolve(NamedTuple):
    removed: tuple[Binding, ...]
    config: Configuration


@record
class ConstraintError(NamedTuple):
    detail: str


@record
class NoOp(NamedTuple):
    reason: str = ""


Decision = RestartInPlace | Resolve | ConstraintError | NoOp


def evolve_resources(doc: SpecDocument, remove: set[str],
                     add: list[HostSpec]) -> SpecDocument:
    """Update the host list; components and constraintsets are untouched."""
    names = {h.name for h in doc.hosts}
    for name in sorted(remove):
        if name not in names:
            raise UnknownHost(name)
    hosts = [h for h in doc.hosts if h.name not in remove]
    for spec in add:
        if spec.name in names:
            raise DuplicateHost(spec.name)
        names.add(spec.name)
        hosts.append(spec)
    return SpecDocument(doc.components, tuple(hosts), doc.constraintsets)


def select_constraintset(doc: SpecDocument, name: str | None) -> str:
    """Resolve which constraintset to use: the named one, or the only one."""
    if name:
        if doc.constraintset(name) is None:
            raise solver.UnknownConstraintSet(name)
        return name
    if len(doc.constraintsets) == 1:
        return doc.constraintsets[0].name
    if not doc.constraintsets:
        raise solver.UnknownConstraintSet("no constraintset declared")
    names = ", ".join(cs.name for cs in doc.constraintsets)
    raise solver.UnknownConstraintSet(
        f"ambiguous constraintset; choose one of: {names}")


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------

class Manager:
    def __init__(self, doc: SpecDocument, cs_name: str, fabric: Fabric,
                 options: solver.SolveOptions | None = None):
        self.doc = doc
        self.cs_name = select_constraintset(doc, cs_name)
        self.fabric = fabric
        self.options = options or solver.SolveOptions()
        self.deployed = model.empty_on(doc.hosts)

    @property
    def deployed(self) -> Configuration:
        return self._deployed

    @deployed.setter
    def deployed(self, config: Configuration) -> None:
        """Also index config's channels by instance, each with its peer,
        in config's (canonical) order."""
        at: dict[InstanceId, list[tuple[Channel, InstanceId]]] = {
            iid: [] for iid in config.instance_ids()}
        for ch in config.channels:
            at[ch.src.instance].append((ch, ch.dst.instance))
            at[ch.dst.instance].append((ch, ch.src.instance))
        self._deployed = config
        self._channels_at = at

    # -- helpers ----------------------------------------------------------------

    def _cs(self) -> lang.ConstraintSet:
        cs = self.doc.constraintset(self.cs_name)
        if cs is None:  # pragma: no cover - guarded at construction
            raise solver.UnknownConstraintSet(self.cs_name)
        return cs

    def _record(self, decision: Decision) -> Decision:
        if isinstance(decision, ConstraintError):
            self.fabric.log("decision-constraint-error", decision.detail)
        elif isinstance(decision, Resolve):
            removed = ",".join(str(b) for b in decision.removed) or "-"
            self.fabric.log("decision-resolve", f"removed={removed}")
        elif isinstance(decision, RestartInPlace):
            self.fabric.log("decision-restart", decision.instance)
        return decision

    def _enact(self, plan: EnactmentPlan, new_config: Configuration) -> None:
        self.fabric.apply_plan(plan)
        self.deployed = new_config

    # -- the autonomic cycle ------------------------------------------------------

    def deploy_initial(self, pins: tuple[Binding, ...] = (),
                       prior: Configuration | None = None) -> Decision:
        """Solve and enact the initial deployment."""
        opts = self.options._replace(pins=pins, prior=prior, solution_limit=1)
        outcome = solver.solve(self.doc, self.cs_name, opts)
        if not outcome.solutions and not outcome.exhausted:
            return self._record(ConstraintError(
                f"node budget of {opts.node_budget} ran out; "
                f"satisfiability of {self.cs_name} unknown"))
        if not outcome.solutions:
            return self._record(ConstraintError(
                f"no configuration satisfies {self.cs_name}"))
        config = outcome.solutions[0]
        decision = Resolve((), config)
        self._record(decision)
        plan = ddd.diff(self.deployed, config, self.doc)
        self._enact(plan, config)
        return decision

    def on_events(self, events) -> list[Decision]:
        """React to one step's delivered events."""
        decisions: list[Decision] = []
        for event in events:
            if isinstance(event, AddHost):
                try:
                    self.doc = evolve_resources(self.doc, set(), [event.host])
                except DuplicateHost:
                    pass
            elif isinstance(event, Revise):
                decisions.append(self._revise(event))
        for event in events:
            if isinstance(event, AmpReport):
                decisions.append(self._restart(event.failed_instance))
        for event in events:
            if isinstance(event, HostFailureSuspected):
                decisions.append(self._host_failure(event.host))
        return decisions

    def _running(self, instance: InstanceId) -> bool:
        machine = self.fabric.machine(instance)
        return machine is not None and machine.alive

    def _restart(self, instance: InstanceId) -> Decision:
        """Reconcile one instance's neighbourhood: the instance and each
        deployed channel of it whose peer runs."""
        channels = self._channels_at.get(instance)
        if channels is None:
            return self._record(NoOp(f"{instance} is not part of the deployment"))
        host = self.fabric.hosts.get(instance.host)
        if host is None or not host.alive:
            return self._record(NoOp(f"host {instance.host} is down"))
        wanted = tuple(ch for ch, peer in channels if self._running(peer))
        # diff reads only instances and channels, in any order.
        me = (Instance(instance, instance.type),)
        live = (Configuration((), me, tuple(self.fabric.machine(instance).channels))
                if self._running(instance) else Configuration())
        plan = ddd.diff(live, Configuration((), me, wanted), self.doc, frozenset(
            (instance.host, code) for code in host.installed))
        decision = self._record(RestartInPlace(instance))
        self.fabric.apply_plan(plan)
        return decision

    def _host_failure(self, host: str) -> Decision:
        state = self.fabric.hosts.get(host)
        if state is not None and state.alive:
            return self._record(NoOp(f"host {host} is alive"))
        if self.doc.host(host) is None:
            return self._record(NoOp(f"host {host} already dropped"))
        return self._resolve(f"no configuration satisfies {self.cs_name} "
                             f"after losing {host}")

    def _revise(self, event: Revise) -> Decision:
        try:
            constraints = lang.parse(Path(event.constraints_path).read_text())
            resources = lang.parse(Path(event.resources_path).read_text())
            doc2 = lang.merge_documents(resources, constraints)
            cs_name = select_constraintset(
                doc2, self.cs_name if doc2.constraintset(self.cs_name) else None)
        except (OSError, DeladasError) as e:
            return self._record(ConstraintError(f"revision rejected: {e}"))
        self.doc = doc2
        self.cs_name = cs_name
        return self._resolve(
            f"no configuration satisfies revised goal {cs_name}")

    def _resolve(self, unsatisfiable: str) -> Decision:
        """Re-solve the current goal from the observed configuration, its
        bindings pinned and relaxed as needed, over the resource hosts that
        the fabric shows alive, and enact the change. When no answer comes
        out, record a constraint error and leave the fabric untouched."""
        observed = self.fabric.observed()
        base = observed.config
        self.doc = evolve_resources(self.doc, {h.name for h in self.doc.hosts}
                                    - {h.name for h in base.hosts}, [])
        # Instances on alive hosts outside the resources stay in the base
        # unpinned, so the diff terminates them.
        doc_hosts = {h.name for h in self.doc.hosts}
        pins = [b for b in model.bindings_of(base) if b.host in doc_hosts]
        try:
            config, removed = solver.resolve_with_relaxation(
                self.doc, self.cs_name, pins,
                self.options._replace(prior=base))
        except solver.NoSolution:
            return self._record(ConstraintError(unsatisfiable))
        except solver.SearchBudgetExceeded as e:
            return self._record(ConstraintError(str(e)))
        decision = self._record(Resolve(tuple(removed), config))
        self._enact(ddd.diff(base, config, self.doc, observed.installed),
                    config)
        return decision

    # -- the five-method interface --------------------------------------------------

    def handle_request(self, method: str, body: str) -> bytes:
        try:
            return self._dispatch(method, body)
        except MalformedPayload as e:
            return f"error\nMalformedPayload: {e}".encode()
        except HostDown as e:
            return f"error\nEnactFailed: {e}".encode()
        except DeladasError as e:
            return f"error\n{type(e).__name__}: {e}".encode()

    def _dispatch(self, method: str, body: str) -> bytes:
        if method == "get-resources":
            text = lang.pretty_print(SpecDocument(self.doc.components,
                                                  self.doc.hosts, ()))
            return b"ok\n" + text.encode()
        if method == "get-constraints":
            text = lang.pretty_print(SpecDocument((), (), self.doc.constraintsets))
            return b"ok\n" + text.encode()
        if method == "get-deployment":
            return b"ok\n" + ddd.to_xml(self.deployed, self.doc, self.cs_name)
        if method == "satisfy":
            return self._satisfy(body)
        if method == "enact":
            return self._enact_request(body)
        raise MalformedPayload(f"unknown method {method!r}")

    def _satisfy(self, body: str) -> bytes:
        parts = split_parts(body)
        if len(parts) < 2 or len(parts) > 4:
            raise MalformedPayload(
                "satisfy needs parts: constraints, resources[, pins ddd[, limit]]")
        constraints = lang.parse(parts[0])
        resources = lang.parse(parts[1])
        doc = lang.merge_documents(resources, constraints)
        cs_name = select_constraintset(
            doc, self.cs_name if doc.constraintset(self.cs_name) else None)
        pins: tuple[Binding, ...] = ()
        prior = None
        if len(parts) >= 3 and parts[2].strip():
            parsed = ddd.parse_ddd(parts[2].encode())
            prior = parsed.configuration
            pins = tuple(model.bindings_of(prior))
        limit = 1
        if len(parts) == 4 and parts[3].strip():
            try:
                limit = int(parts[3].strip())
            except ValueError:
                raise MalformedPayload(f"bad limit {parts[3]!r}") from None
        opts = self.options._replace(pins=pins, prior=prior,
                                     solution_limit=limit)
        outcome = solver.solve(doc, cs_name, opts)
        documents = [ddd.to_xml(config, doc, cs_name).decode()
                     for config in outcome.solutions]
        return b"ok\n" + join_parts(documents).encode()

    def _enact_request(self, body: str) -> bytes:
        if not body.strip():
            raise MalformedPayload("enact needs a DDD body")
        config = ddd.from_xml(body.encode())
        known = {h.name for h in self.doc.hosts}
        for inst in config.instances:
            if inst.id.host not in known:
                raise lang.ValidationError(
                    f"instance {inst.id}: host {inst.id.host} is not a resource")
        config = Configuration.build(self.doc.hosts, config.instances,
                                     config.channels)
        problems = model.validate(config, self.doc)
        if problems:
            raise lang.ValidationError("; ".join(problems))
        result = evaluator.check(config, self._cs(), self.doc)
        if not result.satisfied:
            detail = "; ".join(str(v) for v in result.violations)
            return f"error\nConstraintError: {detail}".encode()
        plan = ddd.diff(self.deployed, config, self.doc)
        self._enact(plan, config)
        return b"ok\n" + plan.render().encode()


# ---------------------------------------------------------------------------
# Framing and the serve loop
# ---------------------------------------------------------------------------

# Largest frame payload read_frame accepts; a longer header is refused
# before any of its body is read.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def write_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(len(payload).to_bytes(4, "big") + payload)


def read_frame(sock: socket.socket) -> bytes | None:
    header = _read_exact(sock, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise MalformedPayload(f"frame of {length} bytes exceeds the "
                               f"{MAX_FRAME_BYTES}-byte limit")
    if length == 0:
        return b""
    return _read_exact(sock, length)


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def split_parts(body: str) -> list[str]:
    parts: list[list[str]] = [[]]
    for line in body.split("\n"):
        if line == "%%":
            parts.append([])
        else:
            parts[-1].append(line)
    return ["\n".join(p) for p in parts]


def join_parts(parts: list[str]) -> str:
    return "\n%%\n".join(part.rstrip("\n") for part in parts)


def request(sock: socket.socket, method: str, body: str = "") -> tuple[bool, str]:
    """Client helper: send one framed request, read one framed response."""
    payload = method + ("\n" + body if body else "")
    write_frame(sock, payload.encode())
    response = read_frame(sock)
    if response is None:
        raise DeladasError("connection closed mid-request")
    text = response.decode()
    status, _, rest = text.partition("\n")
    return status == "ok", rest


def serve(manager: Manager, listener: socket.socket) -> None:
    """Serve framed requests one at a time until the listener is closed."""
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            while True:
                try:
                    frame = read_frame(conn)
                except MalformedPayload as e:
                    write_frame(conn, f"error\nMalformedPayload: {e}".encode())
                    break  # the unread body leaves the stream unframed
                if frame is None:
                    break
                try:
                    text = frame.decode()
                except UnicodeDecodeError as e:
                    write_frame(conn, f"error\nMalformedPayload: request is "
                                      f"not UTF-8 ({e.reason} at byte "
                                      f"{e.start})".encode())
                    continue
                method, _, body = text.partition("\n")
                response = manager.handle_request(method.strip(), body)
                write_frame(conn, response)


def _address(spec: str) -> tuple[str, int] | str:
    """A TCP (host, port) for '8123' (on 127.0.0.1) or 'host:8123', else
    spec itself as a unix socket path."""
    host, sep, port = spec.rpartition(":")
    if port.isdigit() and ":" not in host:
        return (host if sep else "127.0.0.1", int(port))
    return spec


def make_listener(spec: str) -> socket.socket:
    """Listen on a TCP port ('8123' or 'host:8123') or a unix socket path."""
    import socket  # only serving needs it; the other commands start faster
    address = _address(spec)
    family = socket.AF_UNIX if isinstance(address, str) else socket.AF_INET
    return socket.create_server(address, family=family, backlog=4)


def connect(spec: str) -> socket.socket:
    """Connect to an address that make_listener accepts."""
    import socket
    address = _address(spec)
    if not isinstance(address, str):
        return socket.create_connection(address)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(address)
    return sock
