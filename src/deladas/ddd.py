"""Deployment Description Documents: XML codec and enactment plans.

A DDD is the canonical XML serialization of a Configuration. Output is
byte-deterministic: two-space indent, fixed attribute order, instances and
channels in canonical order. diff() turns two configurations into an ordered
EnactmentPlan (unwire, terminate, install, instantiate, wire) and apply()
is the reference interpreter for those plans.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import NamedTuple

from .lang import (DeladasError, HostSpec, SpecDocument, ValidationError,
                   canonical_host, record)
from .model import (Channel, Configuration, Instance, InstanceId, PortSlot,
                    validate)


class XmlError(DeladasError):
    def __init__(self, message: str, position: tuple[int, int] | None = None):
        if position:
            message = f"line {position[0]}, col {position[1]}: {message}"
        super().__init__(message)
        self.position = position


class SchemaError(DeladasError):
    pass


# ---------------------------------------------------------------------------
# Actions and plans
# ---------------------------------------------------------------------------

@record
class Unwire(NamedTuple):
    channel: Channel

    def __str__(self) -> str:
        return f"unwire {self.channel.src} {self.channel.dst}"


@record
class Terminate(NamedTuple):
    instance: InstanceId

    def __str__(self) -> str:
        return f"terminate {self.instance}"


@record
class Install(NamedTuple):
    instance: InstanceId
    code: str
    host: str

    def __str__(self) -> str:
        return f"install {self.host} {self.code}"


@record
class Instantiate(NamedTuple):
    instance: InstanceId

    def __str__(self) -> str:
        return f"instantiate {self.instance}"


@record
class Wire(NamedTuple):
    channel: Channel

    def __str__(self) -> str:
        return f"wire {self.channel.src} {self.channel.dst}"


Action = Unwire | Terminate | Install | Instantiate | Wire

# Phase rank: all unwires, then terminates, installs, instantiates, wires.
_PHASES = (Unwire, Terminate, Install, Instantiate, Wire)


class EnactmentPlan:
    """An ordered sequence of actions: iterating a plan or taking its length
    goes over its actions. A plain class, since a tuple would iterate and
    measure its one field."""

    __slots__ = ("actions",)

    def __init__(self, actions: tuple[Action, ...] = ()):
        self.actions = actions

    def __eq__(self, other) -> bool:
        return (other.__class__ is EnactmentPlan
                and self.actions == other.actions)

    def __repr__(self) -> str:
        return f"EnactmentPlan(actions={self.actions!r})"

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def render(self) -> str:
        return "\n".join(str(a) for a in self.actions)


def action_key(action: Action):
    phase = _PHASES.index(type(action))
    if isinstance(action, (Unwire, Wire)):
        return (phase, str(action.channel.src), str(action.channel.dst))
    if isinstance(action, Install):
        return (phase, action.host, action.code)
    return (phase, str(action.instance), "")


# ---------------------------------------------------------------------------
# XML encoding
# ---------------------------------------------------------------------------

def _escape(text: str) -> str:
    out = (text.replace("&", "&amp;").replace("<", "&lt;")
               .replace(">", "&gt;").replace('"', "&quot;"))
    # Literal whitespace inside attributes would be normalized away by XML
    # parsers; keep round-trips exact.
    return (out.replace("\n", "&#10;").replace("\t", "&#9;")
               .replace("\r", "&#13;"))


def to_xml(config: Configuration, doc: SpecDocument,
           constraintset: str = "") -> bytes:
    """Serialize a configuration as a canonical DDD.

    doc supplies each instance type's code URI; constraintset is recorded on
    the root element (empty string allowed).
    """
    config = Configuration.build(config.hosts, config.instances, config.channels)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<deployment constraintset="{_escape(constraintset)}">']
    if config.hosts:
        lines.append("  <hosts>")
        for h in config.hosts:
            attrs = "".join(f' {k}="{_escape(v)}"' for k, v in h.attributes)
            lines.append(f'    <host id="{_escape(h.name)}"{attrs}/>')
        lines.append("  </hosts>")
    else:
        lines.append("  <hosts/>")
    if config.instances:
        lines.append("  <instances>")
        for inst in config.instances:
            ctype = doc.component(inst.type)
            code = ctype.code if ctype else ""
            lines.append(
                f'    <instance id="{_escape(str(inst.id))}" '
                f'type="{_escape(inst.type)}" host="{_escape(inst.id.host)}" '
                f'code="{_escape(code)}"/>')
        lines.append("  </instances>")
    else:
        lines.append("  <instances/>")
    if config.channels:
        lines.append("  <channels>")
        for ch in config.channels:
            lines.append(f'    <channel from="{_escape(str(ch.src))}" '
                         f'to="{_escape(str(ch.dst))}"/>')
        lines.append("  </channels>")
    else:
        lines.append("  <channels/>")
    lines.append("</deployment>")
    return ("\n".join(lines) + "\n").encode("utf-8")


@record
class DddDocument(NamedTuple):
    """Everything a DDD carries beyond the bare Configuration."""

    configuration: Configuration
    constraintset: str
    codes: dict[str, str]  # type name -> code URI


_INSTANCE_ATTRS = ("id", "type", "host", "code")
_CHANNEL_ATTRS = ("from", "to")


def parse_ddd(data: bytes, doc: SpecDocument | None = None) -> DddDocument:
    """Parse a DDD; element order is a serialization concern and is
    re-canonicalized. With doc given, also runs full structural validation."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        raise XmlError(str(e), getattr(e, "position", None)) from None
    except (LookupError, ValueError) as e:
        # The declared encoding is unknown, not a text codec, multi-byte
        # (expat decodes only single-byte ones itself) or fails to decode.
        raise XmlError(f"unusable encoding: {e}") from None
    if root.tag != "deployment":
        raise SchemaError(f"expected <deployment>, found <{root.tag}>")
    extra = set(root.attrib) - {"constraintset"}
    if extra:
        raise SchemaError(f"unknown deployment attributes: {sorted(extra)}")
    cs_name = root.attrib.get("constraintset", "")

    sections = {"hosts": None, "instances": None, "channels": None}
    for child in root:
        if child.tag not in sections:
            raise SchemaError(f"unknown element <{child.tag}>")
        if sections[child.tag] is not None:
            raise SchemaError(f"duplicate element <{child.tag}>")
        sections[child.tag] = child

    hosts: list[HostSpec] = []
    if sections["hosts"] is not None:
        for el in sections["hosts"]:
            if el.tag != "host":
                raise SchemaError(f"unknown element <{el.tag}> in <hosts>")
            if "id" not in el.attrib:
                raise SchemaError("<host> needs an id attribute")
            hosts.append(canonical_host(el.attrib["id"], [
                (k, v) for k, v in el.attrib.items() if k != "id"]))

    instances: list[Instance] = []
    codes: dict[str, str] = {}
    if sections["instances"] is not None:
        for el in sections["instances"]:
            if el.tag != "instance":
                raise SchemaError(f"unknown element <{el.tag}> in <instances>")
            unknown = set(el.attrib) - set(_INSTANCE_ATTRS)
            if unknown:
                raise SchemaError(f"unknown instance attributes: {sorted(unknown)}")
            for key in _INSTANCE_ATTRS:
                if key not in el.attrib:
                    raise SchemaError(f"<instance> needs a {key} attribute")
            iid = InstanceId.parse(el.attrib["id"])
            if iid.type != el.attrib["type"] or iid.host != el.attrib["host"]:
                raise ValidationError(
                    f"instance {iid}: type/host attributes disagree with id")
            instances.append(Instance(iid, iid.type))
            code = el.attrib["code"]
            if codes.setdefault(iid.type, code) != code:
                raise ValidationError(
                    f"instance {iid}: conflicting code for type {iid.type}")

    channels: list[Channel] = []
    if sections["channels"] is not None:
        for el in sections["channels"]:
            if el.tag != "channel":
                raise SchemaError(f"unknown element <{el.tag}> in <channels>")
            unknown = set(el.attrib) - set(_CHANNEL_ATTRS)
            if unknown:
                raise SchemaError(f"unknown channel attributes: {sorted(unknown)}")
            for key in _CHANNEL_ATTRS:
                if key not in el.attrib:
                    raise SchemaError(f"<channel> needs a {key} attribute")
            channels.append(Channel(PortSlot.parse(el.attrib["from"]),
                                    PortSlot.parse(el.attrib["to"])))

    config = Configuration.build(hosts, instances, channels)
    ids = {i.id for i in config.instances}
    for ch in config.channels:
        for side in (ch.src.instance, ch.dst.instance):
            if side not in ids:
                raise ValidationError(f"channel {ch}: unknown instance {side}")
    if doc is not None:
        problems = validate(config, doc)
        if problems:
            raise ValidationError("; ".join(problems))
    return DddDocument(config, cs_name, codes)


def from_xml(data: bytes, doc: SpecDocument | None = None) -> Configuration:
    """Parse a DDD back into a Configuration (structural inverse of to_xml)."""
    return parse_ddd(data, doc).configuration


# ---------------------------------------------------------------------------
# Diff and apply
# ---------------------------------------------------------------------------

def diff(old: Configuration, new: Configuration, doc: SpecDocument,
         installed: frozenset[tuple[str, str]] | None = None) -> EnactmentPlan:
    """Minimal ordered plan transforming old into new.

    Instances are identical iff their (type, host, ordinal) ids match;
    channels are identical iff both slots match exactly. Install is emitted
    once per (host, code) pair not already present: not in `installed` when
    it is given (what a fabric has installed), else run by no instance of
    old. Only old's and new's instances and channels are read, in any order.
    """
    old_ids = {i.id for i in old.instances}
    new_ids = {i.id for i in new.instances}
    old_channels = set(old.channels)
    new_channels = set(new.channels)

    actions: list[Action] = []
    for ch in old_channels - new_channels:
        actions.append(Unwire(ch))
    for iid in old_ids - new_ids:
        actions.append(Terminate(iid))

    if installed is None:
        present = {(iid.host, ctype.code) for iid in old_ids
                   if (ctype := doc.component(iid.type)) is not None}
    else:
        present = set(installed)
    for iid in sorted(new_ids - old_ids, key=str):
        ctype = doc.component(iid.type)
        code = ctype.code if ctype else ""
        if (iid.host, code) not in present:
            present.add((iid.host, code))
            actions.append(Install(iid, code, iid.host))
        actions.append(Instantiate(iid))
    for ch in new_channels - old_channels:
        actions.append(Wire(ch))

    return EnactmentPlan(tuple(sorted(actions, key=action_key)))


def apply_plan(config: Configuration, plan: EnactmentPlan,
               doc: SpecDocument) -> Configuration:
    """Reference interpreter: apply a plan to a configuration."""
    instances = {i.id: i for i in config.instances}
    channels = set(config.channels)
    for action in plan:
        if isinstance(action, Unwire):
            if action.channel not in channels:
                raise ValidationError(f"cannot unwire missing channel {action.channel}")
            channels.remove(action.channel)
        elif isinstance(action, Terminate):
            if action.instance not in instances:
                raise ValidationError(f"cannot terminate missing {action.instance}")
            del instances[action.instance]
        elif isinstance(action, Install):
            pass  # bookkeeping only; code URIs are opaque here
        elif isinstance(action, Instantiate):
            if action.instance in instances:
                raise ValidationError(f"{action.instance} already instantiated")
            instances[action.instance] = Instance(action.instance,
                                                  action.instance.type)
        elif isinstance(action, Wire):
            if action.channel in channels:
                raise ValidationError(f"channel {action.channel} already wired")
            channels.add(action.channel)
        else:
            raise ValidationError(f"unknown action {action!r}")
    return Configuration.build(config.hosts, instances.values(), channels)
