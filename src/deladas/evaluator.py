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

An `and`, an `or` or a quantifier is one closure whose own loop tests its
leaves, so a fold of leaves is one Python call (Feeley & Lapalme, "Using
closures for code generation", Computer Languages 1987); a comparison is
one test of the interval of lhs - rhs against the op's range.

Semantics notes:
  - `p.a connectsto q.b` holds when some channel joins slots of the two port
    families in either orientation (channels remain uni-directional; the
    predicate asserts attachment, not flow direction).
  - `reachable(a, b)` is directed reachability over the instance-level
    channel digraph and is reflexive.
  - `card(T x connectedto y)` counts distinct instances, not channels.
"""

from __future__ import annotations

import functools
import math
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


# _Edge((src, src_port, dst, dst_port)) as tuple.__new__ makes it, which is
# what the fields' constructor does, but without a Python-level call: a
# wiring and a check make one per channel.
_edge = functools.partial(tuple.__new__, _Edge)


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

    def reset(self, types: list[str], edges: list[_Edge] = ()) -> None:
        """Hold exactly edges over instances of the given types. The
        containers are emptied in place: compiled clauses hold them. An
        adjacency map's inner dicts are new ones, so a reference to an old
        one (a mesh witness, see solver._strongly_connected) goes stale."""
        families, adj, pred, degree = (self.families, self.adj, self.pred,
                                       self.degree)
        for part in (families, adj, pred, degree):
            part.clear()
        self._types = types
        families.update(edges)
        for u, _, v, _ in edges:  # add's bookkeeping, inline
            out = adj.setdefault(u, {})
            n = out[v] = out.get(v, 0) + 1
            pred.setdefault(v, {})[u] = n
            if n == 1 and u not in adj.get(v, ()):
                for key in ((u, types[v]), (v, types[u])):
                    degree[key] = degree.get(key, 0) + 1

    def add(self, edge: _Edge) -> None:
        """Include edge. Several port families can join the same two
        instances: u and v become neighbours only with the first edge
        between them in either direction."""
        self.families.add(edge)
        u, _, v, _ = edge
        adj = self.adj
        out = adj.setdefault(u, {})
        n = out[v] = out.get(v, 0) + 1
        self.pred.setdefault(v, {})[u] = n
        if n == 1 and u not in adj.get(v, ()):
            degree, types = self.degree, self._types
            for key in ((u, types[v]), (v, types[u])):
                degree[key] = degree.get(key, 0) + 1

    def remove(self, edge: _Edge) -> None:
        """Drop edge, which the set holds: u and v stop being neighbours
        only with the last edge between them in either direction."""
        self.families.discard(edge)
        u, _, v, _ = edge
        adj = self.adj
        out, into = adj[u], self.pred[v]
        n = out[v] - 1
        if n:
            out[v] = into[u] = n
        else:
            del out[v], into[u]
            if u not in adj.get(v, ()):
                degree, types = self.degree, self._types
                for key in ((u, types[v]), (v, types[u])):
                    degree[key] -= 1


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

    def place(self, placement, possible: list[_Edge],
              sure: list[_Edge] = ()) -> None:
        """Show the solver's complete placement with the edges of sure
        included and every edge not in possible excluded: a wiring root
        with possible its candidates, or a leaf with sure = possible."""
        for type_name, lo in self.lo.items():
            hi = self.hi[type_name]
            for h, host in enumerate(self.host_names):
                lo[h] = hi[h] = placement.counts.get((host, type_name), 0)
        for type_name, members in self.members.items():
            members[:] = placement.by_type.get(type_name, ())
        self.sure.reset(placement.types, sure)
        self.possible.reset(placement.types, possible)
        self.move = None


# Fold items are tuples (kind, a, b, c, d, e, f); see _item and _compare.
_LINK, _SAME, _HOSTED, _DEGREE, _DIFF, _PATH, _CALL = range(7)

# Per op, the range of lhs - rhs in which lhs op rhs holds; != negates =.
_RANGES = {"<=": (-math.inf, 0), "<": (-math.inf, -1), ">=": (0, math.inf),
           ">": (1, math.inf), "=": (0, 0), "!=": (0, 0)}


def _compile(expr, view: _View, scope: dict[str, int], env: list):
    """expr, from a validated document, as a closure returning True (in
    every completion of the view), False (in none) or None (not yet known).

    scope maps each bound variable to its slot in env. Every predicate is
    monotone in the counts and the edge set, so reading counts as intervals
    and edges as sure/possible gives a definite value only when it holds in
    every completion. An `and`, an `or` and a leaf compile to a fold."""
    if isinstance(expr, Quantified):
        return _compile_quantified(expr, view, scope, env)
    return _fold(view, env, *_parts(expr, view, scope, env))


def _parts(expr, view: _View, scope, env) -> tuple[list, bool]:
    """The items of a fold for expr and whether it is their conjunction:
    an `and`'s or an `or`'s items, or expr alone as a one-item `and`."""
    if isinstance(expr, (And, Or)):
        return ([_item(item, view, scope, env) for item in expr.items],
                isinstance(expr, And))
    return [_item(expr, view, scope, env)], True


def _item(expr, view: _View, scope, env) -> tuple:
    """expr as a fold item. _LINK: `a.b connectsto c.d`, a and c slots.
    _PATH: reachable from slot a to slot b. _SAME: whether slots a and b
    hold the same value is c. _CALL: closure a, for a quantifier, an `and`
    or an `or`. A comparison is one of these or a count (see _compare)."""
    if isinstance(expr, ConnectsTo):
        return (_LINK, scope[expr.src.var], expr.src.port,
                scope[expr.dst.var], expr.dst.port, None, None)
    if isinstance(expr, Compare):
        return _compare(expr, view, scope, env)
    if isinstance(expr, Reachable):
        return (_PATH, scope[expr.a], scope[expr.b], None, None, None, None)
    if isinstance(expr, (Quantified, And, Or)):
        return (_CALL, _compile(expr, view, scope, env)) + (None,) * 5
    raise EvalTypeError(f"not a constraint expression: {expr!r}")


def _compare(expr: Compare, view: _View, scope, env) -> tuple:
    """A comparison as a fold item: _SAME for variables, else an interval
    tested against the range [d, e] (f inside it, not f outside it), with
    a literal folded into the range. _HOSTED: lo b and hi c at the host in
    slot a; _DEGREE: the type b neighbours of the instance in slot a;
    _DIFF: count against count, from the operand closures a and b."""
    lhs, rhs = expr.lhs, expr.rhs
    if isinstance(lhs, Var) or isinstance(rhs, Var):
        if expr.op not in ("=", "!="):
            raise EvalTypeError("ordering comparison needs integer operands")
        if type(lhs) is not type(rhs):
            raise EvalTypeError("cannot compare a value with an integer")
        return (_SAME, scope[lhs.name], scope[rhs.name], expr.op == "=",
                None, None, None)
    lo, hi = _RANGES[expr.op]
    same = expr.op != "!="
    if isinstance(rhs, IntLiteral):  # lhs - k inside [lo, hi]
        lo, hi, rhs = lo + rhs.value, hi + rhs.value, None
    elif isinstance(lhs, IntLiteral):  # k - rhs inside [lo, hi]
        lo, hi, lhs, rhs = lhs.value - hi, lhs.value - lo, rhs, None
    if isinstance(lhs, IntLiteral):  # a constant: slot 0 equals itself
        return (_SAME, 0, 0, (lo <= lhs.value <= hi) is same) + (None,) * 3
    if rhs is not None:
        return (_DIFF, _count(lhs, view, scope, env),
                _count(rhs, view, scope, env), None, lo, hi, same)
    inner = lhs.inner
    if isinstance(inner, InstancesOf):
        return (_HOSTED, scope[inner.host_var], *view.counts(inner.type_name),
                lo, hi, same)
    return (_DEGREE, scope[inner.peer_var], inner.type_name, None, lo, hi,
            same)


def _count(value, view: _View, scope, env):
    """A count compared with a count, as a closure returning (lo, hi)."""
    inner = value.inner
    if isinstance(inner, InstancesOf):
        h, (lo, hi) = scope[inner.host_var], view.counts(inner.type_name)
        return lambda: (lo[env[h]], hi[env[h]])
    p, t = scope[inner.peer_var], inner.type_name
    sure, possible = view.sure.degree, view.possible.degree
    return lambda: (sure.get((env[p], t), 0), possible.get((env[p], t), 0))


def _fold(view: _View, env: list, items: list, conjunction: bool,
          values=(None,), slot: int = 0, forall: bool = True, dead=()):
    """The `and` of items (their `or` unless conjunction) for each value of
    values in env[slot], folded over the values as forall (or exists) does,
    each fold stopping at its first deciding value; vacuous when a range in
    dead is empty. With values (None,), a plain `and` or `or` (env[0] is
    scratch). Every item but a _CALL is tested in the loop itself."""
    links, open_links = view.sure.families, view.possible.families
    adj, open_adj = view.sure.adj, view.possible.adj
    degree, open_degree = view.sure.degree, view.possible.degree
    stop = not conjunction  # the item value that decides the items
    decided = not forall  # the items' value that decides the fold

    def fold():
        for dropped in dead:  # a dropped binder's range
            if not dropped:
                return forall
        unknown = False
        for x in values:
            env[slot] = x
            value = conjunction
            for kind, a, b, c, d, e, f in items:
                if kind is _LINK:  # in either orientation
                    u, v = env[a], env[c]
                    t = (True if (u, b, v, d) in links or (v, d, u, b) in links
                         else None if (u, b, v, d) in open_links
                         or (v, d, u, b) in open_links else False)
                elif kind is _SAME:
                    t = (env[a] == env[b]) is c
                elif kind is _CALL:
                    t = a()
                elif kind is _PATH:
                    u, v = env[a], env[b]
                    t = (True if has_path(adj, u, v)
                         else None if has_path(open_adj, u, v) else False)
                else:
                    if kind is _HOSTED:
                        lo, hi = b[env[a]], c[env[a]]
                    elif kind is _DEGREE:
                        key = (env[a], b)
                        lo, hi = degree.get(key, 0), open_degree.get(key, 0)
                    else:
                        (lo, hi), (lo2, hi2) = a(), b()
                        lo, hi = lo - hi2, hi - lo2
                    t = (f if d <= lo and hi <= e
                         else not f if hi < d or e < lo else None)
                if t is stop:
                    value = stop
                    break
                if t is None:
                    value = None
            if value is decided:
                return decided
            if value is None:
                unknown = True
        return None if unknown else forall
    fold.items, fold.first, fold.body = items, slot, None  # for _witness
    return fold


def _compile_quantified(expr: Quantified, view: _View, scope, env):
    """One fold per binder the body mentions, over its range and nested in
    binder order; the innermost folds the body's items. Binders the body
    does not mention are dropped (miniscoping): they only repeat the
    body's value, unless their range is empty, which makes the quantifier
    vacuous, so the outermost fold reads their ranges when it runs."""
    inner = dict(scope)
    free = free_vars(expr.body)
    live, dead = [], []
    for b in expr.binders:
        values = (view.hosts if b.sort == HOST_SORT
                  else view.members.setdefault(b.sort, []))
        if b.var in free:
            inner[b.var] = len(env)
            live.append((values, len(env)))
            env.append(None)
        else:
            dead.append(values)
    items, conjunction = _parts(expr.body, view, inner, env)
    body = items[0][1] if isinstance(expr.body, Quantified) else None
    forall = expr.kind == "forall"
    for values, slot in reversed(live[1:]):
        fold = _fold(view, env, items, conjunction, values, slot, forall)
        body = body or fold
        items, conjunction = [(_CALL, fold) + (None,) * 5], True
    values, slot = live[0] if live else ((None,), 0)
    fold = _fold(view, env, items, conjunction, values, slot, forall, dead)
    fold.body = body  # for _witness
    return fold


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
    env: list = [None]
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
                    [_edge((number[ch.src.instance], ch.src.port,
                            number[ch.dst.instance], ch.dst.port))
                     for ch in config.channels])
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
    False). An exists or a leaf ends the walk. It reads a fold's items and,
    at a quantifier, its first slot and its body's fold if not its own."""
    bound: list = []
    while True:
        if isinstance(expr, And):
            expr, closure = next(
                (e, item[1]) for e, item in zip(expr.items, closure.items)
                if not _fold(view, env, [item], True)())
        elif isinstance(expr, Or):
            expr, closure = expr.items[0], closure.items[0][1]
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
            expr, closure = expr.body, closure.body or closure
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
