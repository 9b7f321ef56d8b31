"""Core deployment-domain value types.

A Configuration maps component instances to hosts and wires their ports with
uni-directional channels. All types are immutable; Configuration.build puts
hosts, instances and channels into a canonical order so that structurally
equal configurations have identical representations (and serializations).
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple

from .lang import DeladasError, HostSpec, SpecDocument, record


class ModelError(DeladasError):
    pass


# A canonical decimal numeral: ASCII digits, no sign, no leading zero.
_NUMERAL = re.compile(r"0|[1-9][0-9]*")


def _numeral(text: str) -> int:
    """The value of a canonical numeral; ValueError for any other text, so
    that a parsed id or slot prints back as the text it came from."""
    if _NUMERAL.fullmatch(text) is None:
        raise ValueError(text)
    return int(text)


class _InstanceIdFields(NamedTuple):
    type: str
    host: str
    ordinal: int


@record
class InstanceId(_InstanceIdFields):
    """Identity of a deployed component instance: Type@host#ordinal.

    Its text is formatted once, when the id is made, and read as `text`;
    str() returns it. The text is not a field, so equality and hashing are
    those of (type, host, ordinal)."""

    def __new__(cls, type: str, host: str, ordinal: int) -> "InstanceId":
        self = tuple.__new__(cls, (type, host, ordinal))
        self.text = f"{type}@{host}#{ordinal}"
        return self

    @classmethod
    def _make(cls, fields) -> "InstanceId":
        return cls(*fields)

    def __str__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str) -> "InstanceId":
        try:
            type_, rest = text.split("@", 1)
            host, ordinal = rest.split("#", 1)
            if not type_ or not host:
                raise ValueError
            return cls(type_, host, _numeral(ordinal))
        except ValueError:
            raise ModelError(f"malformed instance id {text!r}") from None


class _PortSlotFields(NamedTuple):
    instance: InstanceId
    port: str
    index: int | None = None


@record
class PortSlot(_PortSlotFields):
    """One attachment point: a port of an instance, indexed if variadic.

    Its text, `instance:port` or `instance:port[index]`, is built once from
    the instance's text when the slot is made (an instance that is not an
    InstanceId formats as str does)."""

    def __new__(cls, instance: InstanceId, port: str,
                index: int | None = None) -> "PortSlot":
        self = tuple.__new__(cls, (instance, port, index))
        head = f"{getattr(instance, 'text', instance)}:{port}"
        self.text = head if index is None else f"{head}[{index}]"
        return self

    @classmethod
    def _make(cls, fields) -> "PortSlot":
        return cls(*fields)

    def __str__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str,
              known: dict[str, InstanceId] | None = None) -> "PortSlot":
        """The slot a canonical text names. An instance whose text is in
        known is that id object, shared rather than parsed again."""
        head, colon, port = text.rpartition(":")
        index = None
        try:
            if not colon:
                raise ValueError
            if port.endswith("]"):
                port, _, idx = port[:-1].partition("[")
                index = _numeral(idx)
            if not port:
                raise ValueError
        except ValueError:
            raise ModelError(f"malformed port slot {text!r}") from None
        instance = known.get(head) if known else None
        return cls(instance or InstanceId.parse(head), port, index)


@record
class Channel(NamedTuple):
    """Uni-directional channel between two port slots."""

    src: PortSlot
    dst: PortSlot

    def __str__(self) -> str:
        return f"{self.src.text} -> {self.dst.text}"


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
        lexicographically by the texts of their (src, dst) slots, so h10
        sorts before h2. Host order is kept as given (it is the declaration
        order).
        """
        hosts = tuple(hosts)
        insts = [i if type(i) is Instance else Instance(*i) for i in instances]
        chans = list(channels)
        return Configuration(hosts,
                             _in_order(insts, _instance_keys(hosts, insts)),
                             _in_order(chans, _channel_keys(chans)))

    def instance_ids(self) -> list[InstanceId]:
        return [i.id for i in self.instances]


def _instance_keys(hosts, instances) -> list[tuple]:
    """Each instance's canonical sort key: host position (unknown hosts
    last), type name, ordinal."""
    host_pos = {h.name: i for i, h in enumerate(hosts)}
    last = len(hosts)
    return [(host_pos.get(i.id.host, last), i.id.type, i.id.ordinal)
            for i in instances]


def _channel_keys(channels) -> list[tuple[str, str]]:
    """Each channel's canonical sort key: the texts of its src and dst."""
    return [(ch.src.text, ch.dst.text) for ch in channels]


def _in_order(items: list, keys: list) -> tuple:
    """items sorted stably by their keys, with no Python call per item."""
    return tuple(map(items.__getitem__,
                     sorted(range(len(keys)), key=keys.__getitem__)))


def _ascending(keys: list) -> bool:
    return all(map(operator.le, keys, keys[1:]))


_text = operator.attrgetter("text")


def port_rules(components) -> dict[str, dict[str, bool]]:
    """{type name: {port name: variadic}} for the component declarations.
    The first declaration of a name wins, as in SpecDocument.component and
    ComponentType.port."""
    return {c.name: {p.name: p.variadic for p in reversed(c.ports)}
            for c in reversed(components)}


def empty_on(hosts: tuple[HostSpec, ...]) -> Configuration:
    """A deployment of nothing onto the given hosts."""
    return Configuration.build(hosts, [], [])


def validate(config: Configuration, doc: SpecDocument) -> list[str]:
    """Return every broken structural invariant, with a human-readable locus.

    An empty list means the configuration is well-formed against doc. The
    port rules come from one map built per call, slots and port families
    are keyed by their records, and only faulty entries are sorted, so a
    well-formed configuration costs no Python call per instance or channel.
    """
    out: list[str] = []
    host_pos = {h.name: i for i, h in enumerate(config.hosts)}

    seen_hosts: set[str] = set()
    for h in config.hosts:
        if h.name in seen_hosts:
            out.append(f"duplicate host {h.name}")
        seen_hosts.add(h.name)

    rules = port_rules(doc.components)
    by_id: dict[InstanceId, Instance] = {}
    per_pair: dict[tuple[str, str], list[int]] = {}
    records = True  # every instance an Instance record, as build makes
    for inst in config.instances:
        records = records and type(inst) is Instance
        iid = inst.id
        if iid in by_id:
            out.append(f"duplicate instance {iid}")
            continue
        by_id[iid] = inst
        if inst.type != iid.type:
            out.append(f"instance {iid}: type field {inst.type} "
                       f"does not match id")
        if iid.host not in host_pos:
            out.append(f"instance {iid}: unknown host {iid.host}")
        if inst.type not in rules:
            out.append(f"instance {iid}: unknown component type {inst.type}")
        per_pair.setdefault((iid.type, iid.host), []).append(iid.ordinal)
    sparse = [pair for pair, ordinals in per_pair.items()
              if sorted(ordinals) != list(range(len(ordinals)))]
    for type_, host in sorted(sparse):
        out.append(f"instances of {type_} on {host}: ordinals not dense")

    # The channels' keys, the texts of their slots, serve the duplicate and
    # order checks. Exact duplicate channels are reported once; slot
    # bookkeeping below only runs over distinct channels so a duplicate
    # yields exactly one violation.
    keys = _channel_keys(config.channels)
    seen_channels: set[tuple[str, str]] = set()
    distinct: list[Channel] = []
    for ch, key in zip(config.channels, keys):
        if key in seen_channels:
            out.append(f"duplicate channel {ch}")
            continue
        seen_channels.add(key)
        distinct.append(ch)

    slot_uses: dict[PortSlot, int] = {}
    family_indices: dict[tuple[InstanceId, str], set[int]] = {}
    for ch in distinct:
        if ch.src.text == ch.dst.text:
            out.append(f"channel {ch}: src equals dst")
        elif ch.src.instance.text == ch.dst.instance.text:
            out.append(f"channel {ch}: connects an instance to itself")
        for slot in (ch.src, ch.dst):
            inst = by_id.get(slot.instance)
            if inst is None:
                out.append(f"channel {ch}: unknown instance {slot.instance}")
                continue
            ports = rules.get(inst.type)
            if ports is None:
                continue  # already reported above
            variadic = ports.get(slot.port)
            if variadic is None:
                out.append(f"channel {ch}: unknown port {slot.port} "
                           f"on {inst.type}")
                continue
            if variadic and slot.index is None:
                out.append(f"channel {ch}: variadic port {slot.port} "
                           f"needs an index")
            if not variadic and slot.index is not None:
                out.append(f"channel {ch}: port {slot.port} is not variadic")
            if variadic and slot.index is not None:
                family_indices.setdefault(
                    (slot.instance, slot.port), set()).add(slot.index)
            slot_uses[slot] = slot_uses.get(slot, 0) + 1
    reused = [(slot.text, uses) for slot, uses in slot_uses.items()
              if uses > 1]
    for text, uses in sorted(reused):
        out.append(f"port slot reused: {text} appears in {uses} channels")
    gaps = [(iid.text, port) for (iid, port), indices in family_indices.items()
            if indices != set(range(len(indices)))]
    for text, port in sorted(gaps):
        out.append(f"variadic indices on {text}:{port} not dense from 0")

    if not (records and _ascending(_instance_keys(config.hosts,
                                                  config.instances))):
        out.append("instances not in canonical order")
    if not _ascending(keys):
        out.append("channels not in canonical order")
    return out


def bindings_of(config: Configuration) -> list[Binding]:
    """Collapse a configuration's placements to (type, host, count) facts,
    ordered by host position (unknown hosts last, in order of appearance),
    then type name."""
    host_pos = {h.name: i for i, h in enumerate(config.hosts)}
    last = len(host_pos)
    counts: dict[tuple[str, str], int] = {}
    for inst in config.instances:
        key = (inst.id.host, inst.id.type)
        counts[key] = counts.get(key, 0) + 1
    items = list(counts.items())
    keys = [(host_pos.get(host, last), type_) for (host, type_), _ in items]
    return [Binding(type_, host, n)
            for (host, type_), n in _in_order(items, keys)]


def restrict_to_hosts(config: Configuration, keep: set[str]) -> Configuration:
    """Drop instances outside `keep` and every channel touching them."""
    hosts = tuple(h for h in config.hosts if h.name in keep)
    instances = [i for i in config.instances if i.id.host in keep]
    ids = {i.id for i in instances}
    channels = [ch for ch in config.channels
                if ch.src.instance in ids and ch.dst.instance in ids]
    return Configuration.build(hosts, instances, channels)
