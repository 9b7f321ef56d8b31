"""Core deployment-domain value types.

A Configuration maps component instances to hosts and wires their ports with
uni-directional channels. All types are immutable; Configuration.build puts
hosts, instances and channels into a canonical order so that structurally
equal configurations have identical representations (and serializations).
"""

from __future__ import annotations

from typing import NamedTuple

from .lang import DeladasError, HostSpec, SpecDocument, record


class ModelError(DeladasError):
    pass


@record
class InstanceId(NamedTuple):
    """Identity of a deployed component instance: Type@host#ordinal."""

    type: str
    host: str
    ordinal: int

    def __str__(self) -> str:
        return f"{self.type}@{self.host}#{self.ordinal}"

    @classmethod
    def parse(cls, text: str) -> "InstanceId":
        try:
            type_, rest = text.split("@", 1)
            host, ordinal = rest.split("#", 1)
            if not type_ or not host:
                raise ValueError
            return cls(type_, host, int(ordinal))
        except ValueError:
            raise ModelError(f"malformed instance id {text!r}") from None


@record
class PortSlot(NamedTuple):
    """One attachment point: a port of an instance, indexed if variadic."""

    instance: InstanceId
    port: str
    index: int | None = None

    def __str__(self) -> str:
        if self.index is None:
            return f"{self.instance}:{self.port}"
        return f"{self.instance}:{self.port}[{self.index}]"

    @classmethod
    def parse(cls, text: str) -> "PortSlot":
        try:
            head, port = text.rsplit(":", 1)
        except ValueError:
            raise ModelError(f"malformed port slot {text!r}") from None
        index = None
        if port.endswith("]"):
            port, _, idx = port[:-1].partition("[")
            try:
                index = int(idx)
            except ValueError:
                raise ModelError(f"malformed port slot {text!r}") from None
        if not port:
            raise ModelError(f"malformed port slot {text!r}")
        return cls(InstanceId.parse(head), port, index)


@record
class Channel(NamedTuple):
    """Uni-directional channel between two port slots."""

    src: PortSlot
    dst: PortSlot

    def __str__(self) -> str:
        return f"{self.src} -> {self.dst}"

    def key(self) -> tuple[str, str]:
        return (str(self.src), str(self.dst))


@record
class Instance(NamedTuple):
    id: InstanceId
    type: str


@record
class Binding(NamedTuple):
    """A placement fact: `count` instances of `type` on `host`."""

    type: str
    host: str
    count: int

    def __str__(self) -> str:
        return f"{self.type}@{self.host}x{self.count}"


@record
class Configuration(NamedTuple):
    hosts: tuple[HostSpec, ...] = ()
    instances: tuple[Instance, ...] = ()
    channels: tuple[Channel, ...] = ()

    @staticmethod
    def build(hosts, instances, channels) -> "Configuration":
        """Construct a configuration in canonical order.

        Instances sort by (host position, type name, ordinal); channels sort
        lexicographically by (src, dst) canonical strings. Host order is kept
        as given (it is the declaration order).
        """
        hosts = tuple(hosts)
        insts = sorted(
            (Instance(i.id, i.type) if isinstance(i, Instance) else Instance(*i)
             for i in instances), key=_instance_order(hosts))
        chans = sorted(channels, key=Channel.key)
        return Configuration(hosts, tuple(insts), tuple(chans))

    def instance_ids(self) -> list[InstanceId]:
        return [i.id for i in self.instances]


def _instance_order(hosts: tuple[HostSpec, ...]):
    """An instance's canonical sort key: host position (unknown hosts
    last), type name, ordinal."""
    host_pos = {h.name: i for i, h in enumerate(hosts)}
    return lambda x: (host_pos.get(x.id.host, len(hosts)), x.id.type,
                      x.id.ordinal)


def empty_on(hosts: tuple[HostSpec, ...]) -> Configuration:
    """A deployment of nothing onto the given hosts."""
    return Configuration.build(hosts, [], [])


def validate(config: Configuration, doc: SpecDocument) -> list[str]:
    """Return every broken structural invariant, with a human-readable locus.

    An empty list means the configuration is well-formed against doc.
    """
    out: list[str] = []
    host_pos = {h.name: i for i, h in enumerate(config.hosts)}

    seen_hosts: set[str] = set()
    for h in config.hosts:
        if h.name in seen_hosts:
            out.append(f"duplicate host {h.name}")
        seen_hosts.add(h.name)

    by_id: dict[InstanceId, Instance] = {}
    per_pair: dict[tuple[str, str], list[int]] = {}
    for inst in config.instances:
        if inst.id in by_id:
            out.append(f"duplicate instance {inst.id}")
            continue
        by_id[inst.id] = inst
        if inst.type != inst.id.type:
            out.append(f"instance {inst.id}: type field {inst.type} "
                       f"does not match id")
        if inst.id.host not in host_pos:
            out.append(f"instance {inst.id}: unknown host {inst.id.host}")
        if doc.component(inst.type) is None:
            out.append(f"instance {inst.id}: unknown component type {inst.type}")
        per_pair.setdefault((inst.id.type, inst.id.host), []).append(inst.id.ordinal)
    for (type_, host), ordinals in sorted(per_pair.items()):
        if sorted(ordinals) != list(range(len(ordinals))):
            out.append(f"instances of {type_} on {host}: ordinals not dense")

    # Each slot is formatted once: a channel's key, its (src, dst) strings,
    # serves the duplicate, slot-reuse and order checks.
    keys = [(str(ch.src), str(ch.dst)) for ch in config.channels]
    # Exact duplicate channels are reported once; slot bookkeeping below only
    # runs over distinct channels so a duplicate yields exactly one violation.
    seen_channels: set[tuple[str, str]] = set()
    distinct: list[tuple[Channel, tuple[str, str]]] = []
    for ch, key in zip(config.channels, keys):
        if key in seen_channels:
            out.append(f"duplicate channel {ch}")
            continue
        seen_channels.add(key)
        distinct.append((ch, key))

    slot_uses: dict[str, int] = {}
    family_indices: dict[tuple[InstanceId, str], set[int]] = {}
    for ch, names in distinct:
        if ch.src == ch.dst:
            out.append(f"channel {ch}: src equals dst")
        elif ch.src.instance == ch.dst.instance:
            out.append(f"channel {ch}: connects an instance to itself")
        for slot, name in zip((ch.src, ch.dst), names):
            inst = by_id.get(slot.instance)
            if inst is None:
                out.append(f"channel {ch}: unknown instance {slot.instance}")
                continue
            ctype = doc.component(inst.type)
            if ctype is None:
                continue  # already reported above
            port = ctype.port(slot.port)
            if port is None:
                out.append(f"channel {ch}: unknown port {slot.port} "
                           f"on {inst.type}")
                continue
            if port.variadic and slot.index is None:
                out.append(f"channel {ch}: variadic port {slot.port} "
                           f"needs an index")
            if not port.variadic and slot.index is not None:
                out.append(f"channel {ch}: port {slot.port} is not variadic")
            if port.variadic and slot.index is not None:
                family_indices.setdefault(
                    (slot.instance, slot.port), set()).add(slot.index)
            slot_uses[name] = slot_uses.get(name, 0) + 1
    for slot_str, uses in sorted(slot_uses.items()):
        if uses > 1:
            out.append(f"port slot reused: {slot_str} appears in {uses} channels")
    for (iid, port), indices in sorted(family_indices.items(),
                                       key=lambda kv: (str(kv[0][0]), kv[0][1])):
        if indices != set(range(len(indices))):
            out.append(f"variadic indices on {iid}:{port} not dense from 0")

    # Configuration.build's order: Instance records by _instance_order.
    order = list(map(_instance_order(config.hosts), config.instances))
    if (any(type(i) is not Instance for i in config.instances)
            or any(a > b for a, b in zip(order, order[1:]))):
        out.append("instances not in canonical order")
    if any(a > b for a, b in zip(keys, keys[1:])):
        out.append("channels not in canonical order")
    return out


def bindings_of(config: Configuration) -> list[Binding]:
    """Collapse a configuration's placements to (type, host, count) facts."""
    host_pos = {h.name: i for i, h in enumerate(config.hosts)}
    counts: dict[tuple[str, str], int] = {}
    for inst in config.instances:
        counts[(inst.id.host, inst.id.type)] = counts.get(
            (inst.id.host, inst.id.type), 0) + 1
    ordered = sorted(counts.items(),
                     key=lambda kv: (host_pos.get(kv[0][0], len(host_pos)),
                                     kv[0][1]))
    return [Binding(type_, host, n) for (host, type_), n in ordered]


def binding_sort_key(binding: Binding, doc: SpecDocument) -> tuple[int, str, str]:
    host_pos = {h.name: i for i, h in enumerate(doc.hosts)}
    return (host_pos.get(binding.host, len(host_pos)), binding.host, binding.type)


def restrict_to_hosts(config: Configuration, keep: set[str]) -> Configuration:
    """Drop instances outside `keep` and every channel touching them."""
    hosts = tuple(h for h in config.hosts if h.name in keep)
    instances = [i for i in config.instances if i.id.host in keep]
    ids = {i.id for i in instances}
    channels = [ch for ch in config.channels
                if ch.src.instance in ids and ch.dst.instance in ids]
    return Configuration.build(hosts, instances, channels)
