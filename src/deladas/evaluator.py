"""Constraint evaluation: does a Configuration satisfy a ConstraintSet?

This is the engine's ground truth; the solver is checked against it. All
evaluation is pure and deterministic: quantifiers range in canonical order
and the first falsifying assignment becomes the reported witness. A binder
its quantifier's body does not mention is tried at its first value only, so
nested quantifiers cost time linear in their depth.

Semantics notes:
  - `p.a connectsto q.b` holds when some channel joins slots of the two port
    families in either orientation (channels remain uni-directional; the
    predicate asserts attachment, not flow direction).
  - `reachable(a, b)` is directed reachability over the instance-level
    channel digraph and is reflexive.
  - `card(T x connectedto y)` counts distinct instances, not channels.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from . import lang
from .lang import (And, Card, Compare, ConnectsTo, ConstraintSet,
                   DeladasError, HOST_SORT, InstancesOf, IntLiteral, Or,
                   Quantified, Reachable, SpecDocument, Var, record)
from .model import Configuration, InstanceId


class EvalTypeError(DeladasError):
    """An operand had the wrong runtime kind (defense in depth)."""


class UnknownInstance(DeladasError):
    pass


@record
class HostBinding(NamedTuple):
    host: str

    def __str__(self) -> str:
        return self.host


@record
class InstanceBinding(NamedTuple):
    instance: InstanceId

    def __str__(self) -> str:
        return str(self.instance)


Environment = dict[str, "HostBinding | InstanceBinding"]


@record
class Violation(NamedTuple):
    index: int
    witness: tuple[tuple[str, HostBinding | InstanceBinding], ...]

    def __str__(self) -> str:
        bindings = ", ".join(f"{var}={val}" for var, val in self.witness)
        return f"constraint {self.index} violated ({bindings})" if bindings \
            else f"constraint {self.index} violated"


@record
class CheckResult(NamedTuple):
    satisfied: bool
    violations: tuple[Violation, ...]


class _Context:
    """Per-check caches over one configuration, binder ranges included."""

    def __init__(self, config: Configuration, doc: SpecDocument):
        self.doc = doc
        self.out_edges: dict[InstanceId, set[InstanceId]] = {}
        self.neighbours: dict[InstanceId, set[InstanceId]] = {}
        self.families: set[tuple[InstanceId, str, InstanceId, str]] = set()
        self.hosts = [HostBinding(h.name) for h in config.hosts]
        self.by_type: dict[str, list[InstanceBinding]] = {}
        self.on_host = Counter((i.id.host, i.type) for i in config.instances)
        self._free: dict[int, set[str]] = {}
        for inst in config.instances:
            self.out_edges[inst.id] = set()
            self.neighbours[inst.id] = set()
            self.by_type.setdefault(inst.type, []).append(InstanceBinding(inst.id))
        for ch in config.channels:
            u, v = ch.src.instance, ch.dst.instance
            self.out_edges.setdefault(u, set()).add(v)
            self.neighbours.setdefault(u, set()).add(v)
            self.neighbours.setdefault(v, set()).add(u)
            self.families.add((u, ch.src.port, v, ch.dst.port))

    def reachable(self, a: InstanceId, b: InstanceId) -> bool:
        return has_path(self.out_edges, a, b)

    def free_in_body(self, expr: Quantified) -> set[str]:
        """lang.free_vars of the quantifier's body, one walk per check."""
        if id(expr) not in self._free:
            lang.free_vars(expr, self._free)
        return self._free[id(expr)]

    def connected(self, p: InstanceId, a: str, q: InstanceId, b: str) -> bool:
        return (p, a, q, b) in self.families or (q, b, p, a) in self.families


def has_path(adj, a, b) -> bool:
    """True iff a directed path in adj (node -> successors) leads from a to
    b; reflexive. The solver's compiled clauses share it."""
    if a == b:
        return True
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v == b:
                return True
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def _value(expr, env: Environment, ctx: _Context):
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise EvalTypeError(f"unbound variable {expr.name}")
        return env[expr.name]
    if isinstance(expr, Card):
        inner = expr.inner
        if isinstance(inner, InstancesOf):
            bound = env.get(inner.host_var)
            if not isinstance(bound, HostBinding):
                raise EvalTypeError(
                    f"instancesof needs a host, {inner.host_var} is not one")
            return ctx.on_host[(bound.host, inner.type_name)]
        bound = env.get(inner.peer_var)
        if not isinstance(bound, InstanceBinding):
            raise EvalTypeError(
                f"connectedto needs an instance, {inner.peer_var} is not one")
        peers = ctx.neighbours.get(bound.instance, set())
        return sum(1 for i in ctx.by_type.get(inner.type_name, ())
                   if i.instance in peers)
    raise EvalTypeError(f"not a value expression: {expr!r}")


def _compare(op: str, lhs, rhs) -> bool:
    lhs_int = isinstance(lhs, int)
    rhs_int = isinstance(rhs, int)
    if op in ("<", "<=", ">", ">="):
        if not (lhs_int and rhs_int):
            raise EvalTypeError("ordering comparison needs integer operands")
        return {"<": lhs < rhs, "<=": lhs <= rhs,
                ">": lhs > rhs, ">=": lhs >= rhs}[op]
    if lhs_int != rhs_int:
        raise EvalTypeError("cannot compare a value with an integer")
    if not lhs_int and type(lhs) is not type(rhs):
        raise EvalTypeError("cannot compare a host with an instance")
    return (lhs == rhs) if op == "=" else (lhs != rhs)


def _instance_of(env: Environment, var: str) -> InstanceId:
    bound = env.get(var)
    if not isinstance(bound, InstanceBinding):
        raise EvalTypeError(f"{var} is not bound to an instance")
    return bound.instance


def _eval(expr, env: Environment, ctx: _Context) -> tuple[bool, Environment]:
    """Evaluate expr; on falsehood also return the witness environment.

    The witness is the environment at the first falsifying assignment in
    canonical enumeration order (for `or`, the first disjunct's witness).
    """
    if isinstance(expr, Quantified):
        names = [b.var for b in expr.binders]
        # A binder the body does not mention only repeats the body's value,
        # so its first value stands for its whole range (miniscoping), and an
        # empty range still leaves no assignment. The first falsifying
        # assignment in canonical order has such a binder at its first value,
        # so the witness is the one the full product would report.
        free = ctx.free_in_body(expr)
        ranges = [ctx.hosts if b.sort == HOST_SORT
                  else ctx.by_type.get(b.sort, []) for b in expr.binders]
        ranges = [r if b.var in free else r[:1]
                  for b, r in zip(expr.binders, ranges)]
        # A flat product, not a recursive generator closure: such a closure
        # is a reference cycle that holds ctx until the cycle collector runs.
        assignments = ({**env, **dict(zip(names, combo))}
                       for combo in itertools.product(*ranges))
        if expr.kind == "forall":
            for env2 in assignments:
                ok, witness = _eval(expr.body, env2, ctx)
                if not ok:
                    return False, witness
            return True, env
        for env2 in assignments:
            ok, _ = _eval(expr.body, env2, ctx)
            if ok:
                return True, env
        return False, env
    if isinstance(expr, And):
        for item in expr.items:
            ok, witness = _eval(item, env, ctx)
            if not ok:
                return False, witness
        return True, env
    if isinstance(expr, Or):
        first_witness: Environment | None = None
        for item in expr.items:
            ok, witness = _eval(item, env, ctx)
            if ok:
                return True, env
            if first_witness is None:
                first_witness = witness
        return False, first_witness if first_witness is not None else env
    if isinstance(expr, Compare):
        ok = _compare(expr.op,
                      _value(expr.lhs, env, ctx),
                      _value(expr.rhs, env, ctx))
        return ok, env
    if isinstance(expr, ConnectsTo):
        p = _instance_of(env, expr.src.var)
        q = _instance_of(env, expr.dst.var)
        return ctx.connected(p, expr.src.port, q, expr.dst.port), env
    if isinstance(expr, Reachable):
        a = _instance_of(env, expr.a)
        b = _instance_of(env, expr.b)
        return ctx.reachable(a, b), env
    raise EvalTypeError(f"not a constraint expression: {expr!r}")


def check(config: Configuration, cs: ConstraintSet,
          doc: SpecDocument) -> CheckResult:
    """Evaluate every constraint; report one witness per violated clause."""
    ctx = _Context(config, doc)
    violations: list[Violation] = []
    for index, constraint in enumerate(cs.constraints):
        ok, witness = _eval(constraint, {}, ctx)
        if not ok:
            violations.append(Violation(index, tuple(witness.items())))
    return CheckResult(not violations, tuple(violations))


def reachable(config: Configuration, a: InstanceId, b: InstanceId) -> bool:
    """True iff a directed channel path leads from a to b (reflexive)."""
    ids = set(config.instance_ids())
    for x in (a, b):
        if x not in ids:
            raise UnknownInstance(str(x))
    return _Context(config, SpecDocument()).reachable(a, b)


def connected_instances(config: Configuration, x: InstanceId) -> set[InstanceId]:
    """All instances sharing at least one channel with x, either direction."""
    if x not in set(config.instance_ids()):
        raise UnknownInstance(str(x))
    ctx = _Context(config, SpecDocument())
    return set(ctx.neighbours.get(x, set()))
