"""Constraint evaluation: the one semantics of the constraint language.

A constraint compiles, against a _View, into a closure that returns True
(the constraint holds in every completion of the view), False (it holds in
none) or None (not yet known). solve and check take their compiled goals
from one per-thread cache keyed by constraint set and component
declarations (_program), so a process compiles a goal once for each of
them, whatever the host list. The solver's program reads a view of count
intervals and of edges included (sure) or not yet excluded (possible).
check's reads the view of one complete configuration at a time, where
every interval is exact and sure equals possible, so every value is
definite: a complete instance is the case lower bound == upper bound
(Torlak & Jackson, "Kodkod: A Relational Model Finder", TACAS 2007). The
tests judge both against an independent reference walker.

Evaluation is pure and deterministic: quantifiers range in canonical order
(hosts in declaration order, instances in configuration order), and check
reports the first falsifying assignment as the witness. A binder its
quantifier's body does not mention is tried at its first value only
(miniscoping), so nested quantifiers cost time linear in their depth.

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
import threading
from typing import NamedTuple

from .lang import (And, Compare, ConnectsTo, ConstraintSet, DeladasError,
                   HOST_SORT, InstancesOf, IntLiteral, Or, Quantified,
                   Reachable, SpecDocument, Var, free_vars, record)
from .model import Configuration, InstanceId


class EvalTypeError(DeladasError):
    """A comparison orders variables or compares a variable with a number.
    Validation rejects both; a hand-built constraint set may have them."""


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


class _Edge(NamedTuple):
    """A channel between two numbered instances at port-family level (no
    variadic index). The tuple itself is the port family the compiled
    clauses look up."""

    src: int
    src_port: str
    dst: int
    dst_port: str


class _EdgeSet:
    """A set of edges in the shapes the compiled clauses read: port
    families, directed adjacency (successor -> number of edges) and its
    reverse (predecessor -> number of edges), and per (instance, type) the
    number of distinct neighbours of that type."""

    def __init__(self):
        self.families: set[_Edge] = set()
        self.adj: dict[int, dict[int, int]] = {}
        self.pred: dict[int, dict[int, int]] = {}
        self.degree: dict[tuple[int, str], int] = {}
        self._types: list[str] = []

    def reset(self, types: list[str], edges=()) -> None:
        """Hold exactly edges over instances of the given types. The
        containers are emptied in place: compiled clauses hold them."""
        for part in (self.families, self.adj, self.pred, self.degree):
            part.clear()
        self._types = types
        for edge in edges:
            self.add(edge)

    def add(self, edge: _Edge) -> None:
        self.families.add(edge)
        self._link(edge.src, edge.dst, 1)

    def remove(self, edge: _Edge) -> None:
        self.families.discard(edge)
        self._link(edge.src, edge.dst, -1)

    def _link(self, u: int, v: int, step: int) -> None:
        """Several port families can join the same two instances: u and v
        become or stop being neighbours only with the first or last edge
        between them in either direction."""
        out, into = self.adj.setdefault(u, {}), self.pred.setdefault(v, {})
        n = out.get(v, 0) + step
        if n:
            out[v] = into[u] = n
        else:
            del out[v], into[u]
        if n == (1 if step > 0 else 0) and u not in self.adj.get(v, ()):
            degree, types = self.degree, self._types
            for key in ((u, types[v]), (v, types[u])):
                degree[key] = degree.get(key, 0) + step


class _View:
    """What the compiled clauses read. The solver refills its view for each
    search and mutates it in place while searching; check refills an exact
    one for each configuration. The closures hold the view's lists and
    containers, so start resizes and empties them in place.

    Host variables hold host positions and instance variables instance
    numbers. lo[t][h] and hi[t][h] bound the number of t instances on host
    h; members[t] lists the instances of type t; sure holds the included
    edges and possible those not yet excluded. move is the solver's wiring
    decision that led to the node being evaluated: True for an include,
    False for an exclude, None otherwise."""

    def __init__(self, types: list[str]):
        self.host_names: list[str] = []
        self.hosts: list[int] = []
        self.zeros: list[int] = []
        self.lo: dict[str, list[int]] = {t: [] for t in types}
        self.hi: dict[str, list[int]] = {t: [] for t in types}
        self.members: dict[str, list[int]] = {}
        self.sure = _EdgeSet()
        self.possible = _EdgeSet()
        self.move: bool | None = None

    def start(self, host_names: list[str]) -> None:
        """Show the given hosts with no instance or edge. lo and hi keep
        their values, and the caller sizes and fills them."""
        self.host_names[:] = host_names
        self.hosts[:] = range(len(host_names))
        self.zeros[:] = [0] * len(host_names)
        for members in self.members.values():
            members.clear()
        self.sure.reset([])
        self.possible.reset([])
        self.move = None

    def counts(self, type_name: str) -> tuple[list[int], list[int]]:
        """lo and hi of a type; a type without counts has no instance."""
        return (self.lo.get(type_name, self.zeros),
                self.hi.get(type_name, self.zeros))

    def place(self, placement, candidates: list[_Edge]) -> None:
        """Show the solver's complete placement with no edge included or
        excluded."""
        for type_name, lo in self.lo.items():
            hi = self.hi[type_name]
            for h, host in enumerate(self.host_names):
                lo[h] = hi[h] = placement.counts.get((host, type_name), 0)
        for type_name, members in self.members.items():
            members[:] = placement.by_type.get(type_name, ())
        self.sure.reset(placement.types)
        self.possible.reset(placement.types, candidates)
        self.move = None


# (lo1, hi1, lo2, hi2) -> True when lhs op rhs holds for every pair of values
# in the two intervals, False when for none, None otherwise.
_DECIDE = {
    "<=": lambda a, b, c, d: True if b <= c else False if a > d else None,
    "<": lambda a, b, c, d: True if b < c else False if a >= d else None,
    ">=": lambda a, b, c, d: True if a >= d else False if b < c else None,
    ">": lambda a, b, c, d: True if a > d else False if b <= c else None,
    "=": lambda a, b, c, d: (False if b < c or d < a
                             else True if a == b == c == d else None),
    "!=": lambda a, b, c, d: (True if b < c or d < a
                              else False if a == b == c == d else None),
}


def _compile(expr, view: _View, scope: dict[str, int], env: list):
    """expr, from a validated document, as a closure returning True (in
    every completion of the view), False (in none) or None (not yet known).

    scope maps each bound variable to its slot in env. Every predicate is
    monotone in the counts and the edge set, so reading counts as intervals
    and edges as sure/possible gives a definite value only when it holds in
    every completion."""
    if isinstance(expr, Quantified):
        return _compile_quantified(expr, view, scope, env)
    if isinstance(expr, (And, Or)):
        items = [_compile(item, view, scope, env) for item in expr.items]
        return _fold(items, isinstance(expr, And))
    if isinstance(expr, Compare):
        return _compile_compare(expr, view, scope, env)
    if isinstance(expr, ConnectsTo):
        p, q = scope[expr.src.var], scope[expr.dst.var]
        a, b = expr.src.port, expr.dst.port
        sure, possible = view.sure.families, view.possible.families

        def connects():
            u, v = env[p], env[q]
            if (u, a, v, b) in sure or (v, b, u, a) in sure:
                return True
            if (u, a, v, b) in possible or (v, b, u, a) in possible:
                return None
            return False
        return connects
    if isinstance(expr, Reachable):
        a, b = scope[expr.a], scope[expr.b]
        sure_adj, possible_adj = view.sure.adj, view.possible.adj

        def reachable():
            u, v = env[a], env[b]
            if has_path(sure_adj, u, v):
                return True
            return None if has_path(possible_adj, u, v) else False
        return reachable
    raise EvalTypeError(f"not a constraint expression: {expr!r}")


def _fold(items: list, conjunction: bool):
    """and/or over compiled items, stopping at the first deciding value."""
    stop = not conjunction

    def fold():
        unknown = False
        for item in items:
            v = item()
            if v is stop:
                return stop
            if v is None:
                unknown = True
        return None if unknown else conjunction
    fold.items = items  # for _witness
    return fold


def _compile_quantified(expr: Quantified, view: _View, scope, env):
    """Binders the body does not mention are dropped (miniscoping): they
    only repeat the body's value, unless their range is empty, which makes
    the quantifier vacuous. Ranges change between placements, so that
    emptiness is read when the quantifier runs."""
    free = free_vars(expr.body)
    inner = dict(scope)
    first = len(env)
    live, dead = [], []
    for b in expr.binders:
        values = (view.hosts if b.sort == HOST_SORT
                  else view.members.setdefault(b.sort, []))
        if b.var in free:
            inner[b.var] = len(env)
            env.append(None)
            live.append(values)
        else:
            dead.append(values)
    end = len(env)
    body = _compile(expr.body, view, inner, env)
    forall = expr.kind == "forall"
    stop = not forall  # the body value that decides the quantifier

    def quantified():
        for values in dead:
            if not values:
                return forall
        unknown = False
        for combo in itertools.product(*live):
            env[first:end] = combo
            v = body()
            if v is stop:
                return stop
            if v is None:
                unknown = True
        return None if unknown else forall
    quantified.body, quantified.first = body, first  # for _witness
    return quantified


def _compile_compare(expr: Compare, view: _View, scope, env):
    if isinstance(expr.lhs, Var) or isinstance(expr.rhs, Var):
        if expr.op not in ("=", "!="):
            raise EvalTypeError("ordering comparison needs integer operands")
        if type(expr.lhs) is not type(expr.rhs):
            raise EvalTypeError("cannot compare a value with an integer")
        a, b = scope[expr.lhs.name], scope[expr.rhs.name]
        equal = expr.op == "="
        return lambda: (env[a] == env[b]) is equal
    lhs, rhs = (_compile_count(v, view, scope, env) for v in (expr.lhs, expr.rhs))
    decide = _DECIDE[expr.op]

    def compare():
        lo1, hi1 = lhs()
        lo2, hi2 = rhs()
        return decide(lo1, hi1, lo2, hi2)
    return compare


def _compile_count(value, view: _View, scope, env):
    """An integer operand as a closure returning its interval (lo, hi)."""
    if isinstance(value, IntLiteral):
        pair = (value.value, value.value)
        return lambda: pair
    inner = value.inner
    if isinstance(inner, InstancesOf):
        h = scope[inner.host_var]
        lo, hi = view.counts(inner.type_name)
        return lambda: (lo[env[h]], hi[env[h]])
    peer = scope[inner.peer_var]
    sure, possible = view.sure.degree, view.possible.degree
    type_name = inner.type_name

    def card():
        key = (env[peer], type_name)
        return (sure.get(key, 0), possible.get(key, 0))
    return card


def has_path(adj, a, b) -> bool:
    """True iff a directed path in adj (node -> successors) leads from a to
    b; reflexive."""
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


# Compiled goals, per thread since a goal's view is refilled in place for
# every call. Records compare by value, so equal goals share one program.
_PROGRAMS = threading.local()
_PROGRAMS_KEPT = 16  # the least recently used program is dropped beyond this


def _program(kind, cs: ConstraintSet, components: tuple):
    """kind(cs, components), compiled once per thread and kept while it is
    among the _PROGRAMS_KEPT most recently used. kind is the compiler:
    _exact for check, the solver's for its search. Neither reads the host
    list, so one program serves every host list (see _View.start); the
    solver's reads the port declarations, so the key holds those and not
    only the type names."""
    programs = _PROGRAMS.__dict__.setdefault("by_key", {})
    key = (kind, cs, components)
    program = programs.pop(key, None)  # reinserted last: most recently used
    if program is None:
        program = kind(cs, components)
        if len(programs) >= _PROGRAMS_KEPT:
            del programs[next(iter(programs))]
    programs[key] = program
    return program


def _exact(cs: ConstraintSet, components: tuple) -> tuple:
    """cs compiled over an exact view of the component types: the view, the
    env slots and one closure per constraint."""
    types = [c.name for c in components]
    view = _View(types)
    view.hi = view.lo
    view.possible = view.sure
    view.members.update((t, []) for t in types)
    env: list = []
    return view, env, [_compile(c, view, {}, env) for c in cs.constraints]


def check(config: Configuration, cs: ConstraintSet,
          doc: SpecDocument) -> CheckResult:
    """Evaluate every constraint; report one witness per violated clause.

    Defined for a configuration that model.validate accepts against doc;
    every caller validates first. The constraints run over the
    configuration's exact view: per host and type, lo == hi == the number
    of instances; members lists each type's instances in configuration
    order; sure and possible are both its channels. check and the solver
    take their compiled goals from one per-thread cache keyed by constraint
    set and component declarations (see _program), and check refills its
    view for each call."""
    view, env, closures = _program(_exact, cs, doc.components)
    hosts = [h.name for h in config.hosts]
    view.start(hosts)
    position = {name: h for h, name in enumerate(hosts)}
    number = {inst.id: n for n, inst in enumerate(config.instances)}
    for counts in view.lo.values():
        counts[:] = view.zeros
    for n, inst in enumerate(config.instances):
        view.lo[inst.type][position[inst.id.host]] += 1
        view.members[inst.type].append(n)
    view.sure.reset([inst.type for inst in config.instances],
                    (_Edge(number[ch.src.instance], ch.src.port,
                           number[ch.dst.instance], ch.dst.port)
                     for ch in config.channels))
    violations: list[Violation] = []
    for index, (constraint, closure) in enumerate(zip(cs.constraints,
                                                      closures)):
        if not closure():
            violations.append(Violation(
                index, _witness(constraint, closure, view, env, config)))
    return CheckResult(not violations, tuple(violations))


def _witness(expr, closure, view: _View, env: list,
             config: Configuration) -> tuple:
    """The bindings of the first falsifying assignment of expr, whose
    closure has just returned False on the exact view.

    A False forall stops at its first assignment whose body is False, so
    its slots in env still hold that assignment, and so do those of the
    quantifiers below it on the way to the false leaf. The walk reads them:
    at a forall, its binders in order (a binder the body does not mention,
    and so has no slot, at its first value); at an `and`, it descends into
    the first item that is False; at an `or`, into the first item (all are
    False). An exists or a leaf ends the walk."""
    bound: list = []
    while True:
        if isinstance(expr, And):
            expr, closure = next((item, c) for item, c in
                                 zip(expr.items, closure.items) if not c())
        elif isinstance(expr, Or):
            expr, closure = expr.items[0], closure.items[0]
        elif isinstance(expr, Quantified) and expr.kind == "forall":
            free = free_vars(expr.body)
            slot = closure.first
            for b in expr.binders:
                if b.var in free:
                    v, slot = env[slot], slot + 1
                else:
                    v = 0 if b.sort == HOST_SORT else view.members[b.sort][0]
                bound.append((b.var, HostBinding(config.hosts[v].name)
                              if b.sort == HOST_SORT
                              else InstanceBinding(config.instances[v].id)))
            expr, closure = expr.body, closure.body
        else:
            return tuple(bound)


def reachable(config: Configuration, a: InstanceId, b: InstanceId) -> bool:
    """True iff a directed channel path leads from a to b (reflexive)."""
    ids = set(config.instance_ids())
    for x in (a, b):
        if x not in ids:
            raise UnknownInstance(str(x))
    adj: dict[InstanceId, set[InstanceId]] = {}
    for ch in config.channels:
        adj.setdefault(ch.src.instance, set()).add(ch.dst.instance)
    return has_path(adj, a, b)


def connected_instances(config: Configuration, x: InstanceId) -> set[InstanceId]:
    """All instances sharing at least one channel with x, either direction."""
    if x not in set(config.instance_ids()):
        raise UnknownInstance(str(x))
    return ({ch.dst.instance for ch in config.channels if ch.src.instance == x}
            | {ch.src.instance for ch in config.channels if ch.dst.instance == x})
