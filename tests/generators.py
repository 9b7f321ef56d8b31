"""Seeded random generators for property tests.

Everything takes an explicit random.Random so test runs are reproducible.
Generated artifacts are valid by construction (the properties under test are
round trips and solver/evaluator agreement), except what
break_configuration returns, which pins the problems validation reports.
"""

from __future__ import annotations

import random
from collections import namedtuple

from deladas import lang
from deladas.lang import (And, Binder, Card, Compare, ComponentType,
                          ConnectsTo, ConnectedTo, ConstraintSet, HostSpec,
                          HOST_SORT, InstancesOf, IntLiteral, Or, PortRef,
                          Quantified, Reachable, SpecDocument, Var)
from deladas.model import Channel, Configuration, Instance, InstanceId, PortSlot

PORT_POOL = ["in", "out", "link", "data", "ctl"]
TYPE_POOL = ["Alpha", "Beta", "Gamma"]
ATTR_POOL = ["owner", "platform", "zone"]


def gen_document(rng: random.Random) -> SpecDocument:
    components = []
    for name in TYPE_POOL[:rng.randint(1, 3)]:
        ports = tuple(lang.Port(p, rng.random() < 0.4)
                      for p in rng.sample(PORT_POOL, rng.randint(1, 4)))
        components.append(ComponentType(name, f"http://bundles/{name}.xml", ports))
    hosts = []
    for i in range(rng.randint(1, 5)):
        attrs = [("ipaddress", f"10.0.{i}.1")]
        for key in ATTR_POOL:
            if rng.random() < 0.3:
                attrs.append((key, f"{key}-{rng.randint(0, 9)}"))
        hosts.append(HostSpec(f"n{i}", tuple(attrs)))
    constraintsets = []
    for i in range(rng.randint(0, 2)):
        constraints = tuple(gen_constraint(rng, components)
                            for _ in range(rng.randint(0, 4)))
        constraintsets.append(ConstraintSet(f"goal{i}", constraints))
    doc = SpecDocument(tuple(components), tuple(hosts), tuple(constraintsets))
    return lang.validate_document(doc)


def gen_constraint(rng: random.Random, components) -> lang.ConstraintExpr:
    scope: list[Binder] = []
    used: set[str] = set()
    return _gen_expr(rng, components, scope, used, depth=0, quantify=True)


def _fresh(rng: random.Random, used: set[str]) -> str:
    i = 0
    while f"v{i}" in used:
        i += 1
    used.add(f"v{i}")
    return f"v{i}"


def _gen_expr(rng, components, scope, used, depth, quantify):
    roll = rng.random()
    if quantify and (depth == 0 or roll < 0.35) and depth < 3:
        kind = rng.choice(["forall", "exists"])
        binders = []
        for _ in range(rng.randint(1, 2)):
            var = _fresh(rng, used)
            if rng.random() < 0.4:
                binders.append(Binder(var, HOST_SORT))
            else:
                binders.append(Binder(var, rng.choice(components).name))
        inner_scope = scope + binders
        body = _gen_expr(rng, components, inner_scope, used, depth + 1, True)
        for b in binders:
            used.discard(b.var)
        return Quantified(kind, tuple(binders), body)
    if roll < 0.55 and depth < 3:
        node = And if rng.random() < 0.5 else Or
        items = tuple(_gen_expr(rng, components, scope, used, depth + 1, True)
                      for _ in range(rng.randint(2, 3)))
        return node(items)
    return _gen_leaf(rng, components, scope, used)


def _gen_leaf(rng, components, scope, used):
    hosts_in_scope = [b for b in scope if b.sort == HOST_SORT]
    insts_in_scope = [b for b in scope if b.sort != HOST_SORT]
    choices = ["int-compare"]
    if hosts_in_scope:
        choices.append("card-instancesof")
    if insts_in_scope:
        choices += ["card-connectedto", "identity", "reachable"]
        if any(components_by(components, b.sort) and
               components_by(components, b.sort).ports for b in insts_in_scope):
            choices.append("connectsto")
    kind = rng.choice(choices)
    if kind == "card-instancesof":
        h = rng.choice(hosts_in_scope).var
        t = rng.choice(components).name
        return Compare(rng.choice(["=", "!=", "<=", ">=", "<", ">"]),
                       Card(InstancesOf(t, h)), IntLiteral(rng.randint(0, 2)))
    if kind == "card-connectedto":
        peer = rng.choice(insts_in_scope).var
        t = rng.choice(components).name
        return Compare(rng.choice(["<=", ">=", "=", "<", ">"]),
                       Card(ConnectedTo(t, _loose_fresh(used), peer)),
                       IntLiteral(rng.randint(0, 2)))
    if kind == "identity":
        a = rng.choice(insts_in_scope).var
        b = rng.choice(insts_in_scope).var
        return Compare(rng.choice(["=", "!="]), Var(a), Var(b))
    if kind == "reachable":
        a = rng.choice(insts_in_scope).var
        b = rng.choice(insts_in_scope).var
        return Reachable(a, b)
    if kind == "connectsto":
        binders = [b for b in insts_in_scope
                   if components_by(components, b.sort)
                   and components_by(components, b.sort).ports]
        src = rng.choice(binders)
        dst = rng.choice(binders)
        src_port = rng.choice(components_by(components, src.sort).ports).name
        dst_port = rng.choice(components_by(components, dst.sort).ports).name
        return ConnectsTo(PortRef(src.var, src_port), PortRef(dst.var, dst_port))
    return Compare(rng.choice(["=", "!=", "<=", "<"]),
                   IntLiteral(rng.randint(0, 3)), IntLiteral(rng.randint(0, 3)))


def _loose_fresh(used: set[str]) -> str:
    i = 0
    while f"w{i}" in used:
        i += 1
    return f"w{i}"


def components_by(components, name):
    for c in components:
        if c.name == name:
            return c
    return None


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def gen_configuration(rng: random.Random, doc: SpecDocument,
                      max_per_pair: int = 2, max_channels: int = 8) -> Configuration:
    instances = []
    for host in doc.hosts:
        for ctype in doc.components:
            for ordinal in range(rng.randint(0, max_per_pair)):
                instances.append(Instance(InstanceId(ctype.name, host.name, ordinal),
                                          ctype.name))
    channels: list[Channel] = []
    used_slots: set[str] = set()
    next_index: dict[tuple[InstanceId, str], int] = {}

    def make_slot(inst: Instance) -> PortSlot | None:
        ctype = components_by(doc.components, inst.type)
        if not ctype.ports:
            return None
        port = rng.choice(ctype.ports)
        if port.variadic:
            idx = next_index.get((inst.id, port.name), 0)
            return PortSlot(inst.id, port.name, idx)
        slot = PortSlot(inst.id, port.name)
        if str(slot) in used_slots:
            return None
        return slot

    if len(instances) >= 2:
        for _ in range(rng.randint(0, max_channels)):
            a, b = rng.sample(instances, 2)
            src = make_slot(a)
            dst = make_slot(b)
            if src is None or dst is None:
                continue
            for slot in (src, dst):
                used_slots.add(str(slot))
                if slot.index is not None:
                    next_index[(slot.instance, slot.port)] = slot.index + 1
            channels.append(Channel(src, dst))
    return Configuration.build(doc.hosts, instances, channels)


def gen_digraph_config(rng: random.Random, max_nodes: int = 8) -> Configuration:
    """A configuration that is just a random instance-level digraph."""
    n = rng.randint(1, max_nodes)
    hosts = tuple(HostSpec(f"g{i}", (("ipaddress", f"10.1.{i}.1"),))
                  for i in range(n))
    instances = [Instance(InstanceId("Node", f"g{i}", 0), "Node")
                 for i in range(n)]
    next_index: dict[tuple[InstanceId, str], int] = {}
    channels = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.25:
                src_i = next_index.get((instances[i].id, "link"), 0)
                next_index[(instances[i].id, "link")] = src_i + 1
                dst_i = next_index.get((instances[j].id, "link"), 0)
                next_index[(instances[j].id, "link")] = dst_i + 1
                channels.append(Channel(PortSlot(instances[i].id, "link", src_i),
                                        PortSlot(instances[j].id, "link", dst_i)))
    return Configuration.build(hosts, instances, channels)


# ---------------------------------------------------------------------------
# Tiny solver instances
# ---------------------------------------------------------------------------

SOLVER_CLAUSES = [
    "forall host h in deployment ( card(instancesof A in h) <= 1 )",
    "forall host h in deployment ( card(instancesof A in h) = 1 or "
    "card(instancesof B in h) = 1 )",
    "forall A a in deployment ( exists B b in deployment ( "
    "a.out connectsto b.feed ) )",
    "forall B b in deployment ( card(A z connectedto b) <= 1 )",
    "forall B b1, b2 in deployment ( reachable(b1, b2) )",
    "forall B b1 in deployment ( exists B b2 in deployment ( "
    "b1.tie connectsto b2.tie b1 != b2 ) )",
    "exists A a in deployment ( a = a )",
]

SOLVER_RESOURCES = """
component A(
  code = "http://bundles/A.xml",
  ports = {out, in}
)
component B(
  code = "http://bundles/B.xml",
  ports = {feed[], tie[]}
)
"""


def gen_solver_instance(rng: random.Random):
    hosts = "\n".join(
        f'host m{i} = host(ipaddress = "10.2.{i}.1")'
        for i in range(rng.randint(2, 3)))
    clauses = rng.sample(SOLVER_CLAUSES, rng.randint(1, 3))
    text = (SOLVER_RESOURCES + hosts
            + "\nconstraintset goal = constraintset {\n"
            + "\n".join(clauses) + "\n}\n")
    return lang.parse(text)


# ---------------------------------------------------------------------------
# Instances for derived cardinality bounds
# ---------------------------------------------------------------------------

BOUND_TYPES = ["P", "Q", "R"]
CAP_OPS = ["<=", "<", "=", ">=", ">", "!="]  # the first three cap card


def gen_bound_instance(rng: random.Random):
    """A goal built around the two clause shapes a bound |X| <= k * |Y| is
    derived from: every X has a Y neighbour, and every Y has at most k X
    neighbours. Types, ports, k, the comparison and its operand order are
    random; the types may coincide, the cap's counted type may differ from
    X, and either shape may sit under `or`, so many instances must derive
    nothing. Returns the document and the per-host instance bound (2 only
    on two hosts, to keep the oracle small)."""
    types = BOUND_TYPES[:rng.randint(2, 3)]
    x, y = rng.choice(types), rng.choice(types)
    hosts = rng.randint(2, 4 if len(types) == 2 and x != y else 3)
    counted = x if rng.random() < 0.8 else rng.choice(types)
    refs = [f"a.{rng.choice(['one', 'many'])}", f"b.{rng.choice(['one', 'many'])}"]
    rng.shuffle(refs)
    need = (f"forall {x} a in deployment ( exists {y} b in deployment ( "
            f"{refs[0]} connectsto {refs[1]} ) )")
    card, n = f"card({counted} v connectedto c)", str(rng.randint(0, 3))
    op = rng.choice(CAP_OPS[:3] if rng.random() < 0.7 else CAP_OPS[3:])
    operands = [card, n] if rng.random() < 0.5 else [n, card]
    if operands[0] == n:
        op = {"<=": ">=", "<": ">", ">=": "<=", ">": "<"}.get(op, op)
    cap = f"forall {y} c in deployment ( {operands[0]} {op} {operands[1]} )"
    escape = f"forall host h in deployment ( card(instancesof {x} in h) = 0 )"
    clauses = [need, cap]
    for i in range(2):
        if rng.random() < 0.15:
            clauses[i] = f"{clauses[i]} or {escape}"
    if rng.random() < 0.6:
        clauses.append(f"forall host h in deployment ( card(instancesof {x} "
                       f"in h) = 1 or card(instancesof {y} in h) = 1 )")
    text = "".join(f'component {t}(code = "http://bundles/{t}.xml", '
                   f"ports = {{one, many[]}})\n" for t in types)
    text += "".join(f'host m{i} = host(ipaddress = "10.3.{i}.1")\n'
                    for i in range(hosts))
    text += "constraintset goal = constraintset {\n" + "\n".join(clauses) + "\n}\n"
    return lang.parse(text), 2 if hosts == 2 and rng.random() < 0.5 else 1


# ---------------------------------------------------------------------------
# Broken configurations
# ---------------------------------------------------------------------------

# A tuple with an Instance's fields that is not an Instance record.
PlainInstance = namedtuple("PlainInstance", "id type")

BREAKS = ("duplicate channel", "unknown host", "unknown type",
          "sparse ordinals", "slot reuse", "self channel",
          "sparse variadic indices", "reversed instances",
          "reversed channels", "plain-tuple instances", "type mismatch",
          "duplicate instance", "duplicate host", "unknown port",
          "unknown instance", "index on a fixed port", "missing index")


def break_configuration(rng: random.Random, cfg: Configuration,
                        doc: SpecDocument, how: str) -> Configuration:
    """cfg broken in the given way of BREAKS, or cfg itself when it has
    nothing to break that way. The result need not be in canonical order."""
    hosts, insts, chans = cfg.hosts, list(cfg.instances), list(cfg.channels)
    inst = rng.choice(insts) if insts else None
    chan = rng.choice(chans) if chans else None
    type_ = doc.components[0].name if doc.components else "Alpha"
    if how == "duplicate channel" and chan:
        chans.append(chan)
    elif how == "unknown host":
        insts.append(Instance(InstanceId(type_, "nowhere", 0), type_))
    elif how == "unknown type" and hosts:
        insts.append(Instance(InstanceId("Nope", hosts[0].name, 0), "Nope"))
    elif how == "sparse ordinals" and inst:
        insts.remove(inst)
        insts.append(Instance(inst.id._replace(ordinal=inst.id.ordinal + 2),
                              inst.type))
    elif how == "slot reuse" and len(chans) >= 2:
        other = rng.choice(chans)
        chans.append(Channel(chan.src, other.dst if other != chan
                             else PortSlot(chan.dst.instance, "x")))
    elif how == "self channel" and chan:
        chans.append(Channel(chan.src, chan.src) if rng.random() < 0.5
                     else Channel(chan.src, chan.dst._replace(
                         instance=chan.src.instance)))
    elif how == "sparse variadic indices" and chan:
        slot = chan.src if chan.src.index is not None else chan.dst
        if slot.index is not None:
            chans.remove(chan)
            bumped = slot._replace(index=slot.index + 3)
            chans.append(Channel(bumped, chan.dst) if slot is chan.src
                         else Channel(chan.src, bumped))
    elif how == "reversed instances":
        return Configuration(hosts, tuple(reversed(insts)), cfg.channels)
    elif how == "reversed channels":
        return Configuration(hosts, cfg.instances, tuple(reversed(chans)))
    elif how == "plain-tuple instances" and inst:
        return Configuration(hosts, tuple(
            PlainInstance(*i) if i is inst or rng.random() < 0.3 else i
            for i in insts), cfg.channels)
    elif how == "type mismatch" and inst:
        insts[insts.index(inst)] = Instance(inst.id, "Other")
    elif how == "duplicate instance" and inst:
        insts.append(inst)
    elif how == "duplicate host" and hosts:
        hosts = hosts + (hosts[0],)
    elif how == "unknown port" and inst and insts:
        peer = rng.choice(insts)
        chans.append(Channel(PortSlot(inst.id, "nosuch"),
                             PortSlot(peer.id, "nosuch", 0)))
    elif how == "unknown instance" and chan:
        ghost = chan.src.instance._replace(ordinal=9)
        chans.append(Channel(chan.src._replace(instance=ghost), chan.dst))
    elif how == "index on a fixed port" and chan:
        chans.remove(chan)
        chans.append(Channel(chan.src._replace(index=chan.src.index or 0),
                             chan.dst._replace(index=chan.dst.index or 0)))
    elif how == "missing index" and chan:
        chans.remove(chan)
        chans.append(Channel(chan.src._replace(index=None),
                             chan.dst._replace(index=None)))
    return Configuration.build(hosts, insts, chans)
