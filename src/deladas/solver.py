"""Configuration search: find placements and wirings satisfying a goal.

The search runs in two phases, both depth-first and both pruned by a
three-valued evaluation of the constraints, compiled once per search into
closures over the state the search mutates (_View): False means false in
every completion of the current node, True means true in every completion.
A quantifier drops the binders its body does not mention while their range
is non-empty (miniscoping), so nested quantifiers cost linear time.

Ground items. A top-level `forall` whose body mentions its first binder is
split into one item per value of that binder: a host position while
placing, an instance number while wiring. Its other binders stay a nested
forall, and its body closure is the only one compiled for it. Every other
clause is one item. A static walk of the body anchors an item when its
value can change only with its own host's counts (placing: every instance
count reads that host) or with the channels at its own instance (wiring:
no reachable, every connectsto has the instance at one end, every
connectedto counts its neighbours). The root of each phase evaluates every
item. After that a node evaluates only the unanchored items and those
anchored on the host it assigned or on either end of the channel it
decided, since no other item can have changed (as watched literals and
propagation events do in SAT and CP solvers). A False item cuts the
branch; a True one holds in every descendant and is dropped from the
subtree. All-pairs reachability over one type, `forall T a, b in
deployment (reachable(a, b))`, is one unanchored item: a strong
connectivity test on the sure and on the possible edges. For the sample
goal it is the router mesh, and every other clause is anchored.

Placement assigns hosts, in declaration order, a small multiset of
instances within bounds. Placement-only clauses (those quantifying over
hosts alone and reading only instance counts) are evaluated with every
unassigned host's counts read as the interval [pin floor,
max_instances_per_host]. Clauses that mention instances or channels wait
for the wiring phase, but placement also checks the bounds |X| <= k * |Y|
that cardinality_bounds derives from them (every X needs a Y neighbour,
every Y takes at most k X neighbours): a branch whose fewest X exceed k
times its most Y is cut.

Wiring then decides, for every candidate channel, whether it is present.
Candidate channels are the instantiations of the `connectsto` patterns
appearing in the selected constraintset (typed port pairs, oriented as
written) between the placement's instances, numbered 0..n-1, built once per
placement. Each decision includes or excludes one edge in the view's
incremental edge sets and is undone on backtrack.

No recursion. Both phases are loops over explicit stacks that undo their
own decisions, and a node calls nothing deeper than the item closures, so
a solve's deepest frame lies a fixed distance below its caller whatever
the number of hosts and channels. CPython 3.11 and later allocate frames
in 16 KiB chunks and free a chunk when its first frame returns, so a call
that crosses a chunk boundary again and again allocates and frees a chunk
each time. A search recursing once per host and per channel spans most of
a chunk, and its cost depended on its caller's depth: for a pinned 8-host
solve the slow depths repeated every ~136 wrapper frames (about 16 KiB),
and on CPython 3.11.7 the solve took 1.6-1.7 ms at its best depth and
4.8-6.9 ms at its worst (two sweeps). A flat search has such a slow zone
too, but only where the boundary falls within the short span of its item
closures and per-solution checks: about a tenth of all caller depths.

Determinism: hosts and types are tried in declaration order (per host: empty
first, then single instances of earlier-declared types, and so on); candidate
channels are tried in the canonical order of the instances' names (src, dst),
with channels present in opts.prior tried include-first so surviving
structure is retained on re-solves. Symmetry is broken by dense instance
ordinals and by assigning variadic port indices canonically (sorted by peer),
so no two search leaves materialize the same configuration. Pruning only
skips subtrees without solutions, so the solution sequence is that of the
unpruned search.

enumerate_all is the independent oracle: exhaustive generate-and-test over
the same bounded space using only evaluator.check.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections.abc import Callable
from typing import NamedTuple

from . import evaluator
from .lang import (And, Card, Compare, ConnectedTo, ConnectsTo, ConstraintSet,
                   DeladasError, HOST_SORT, InstancesOf, IntLiteral, Or,
                   Quantified, Reachable, SpecDocument, ValidationError, Var,
                   free_vars, record)
from .model import (Binding, Channel, Configuration, Instance, InstanceId,
                    PortSlot, binding_sort_key, validate)


class UnknownConstraintSet(DeladasError):
    pass


class BoundsError(DeladasError):
    pass


class SpaceTooLarge(DeladasError):
    pass


class NoSolution(DeladasError):
    """Even with every pin removed the bounded problem is unsatisfiable."""


class SearchBudgetExceeded(DeladasError):
    """The node budget ran out before the search could decide: the answer
    is unknown, not unsatisfiable."""


@record
class SolveOptions(NamedTuple):
    max_instances_per_host: int = 1
    max_total_instances: int | None = None  # default: hosts * per-host bound
    solution_limit: int = 1
    pins: tuple[Binding, ...] = ()
    channel_budget: int | None = None  # default: instances**2 per placement
    prior: Configuration | None = None  # channel preference only
    node_budget: int | None = None


@record
class SolveStats(NamedTuple):
    """Search effort: placement nodes (host assignments tried), wiring
    nodes (candidate-channel decisions tried) and wall-clock seconds."""

    placement_nodes: int
    wiring_nodes: int
    seconds: float
    bound_cuts: int = 0  # placement branches cut by a derived bound
    evaluations: int = 0  # ground items evaluated, in both phases

    @property
    def nodes(self) -> int:
        return self.placement_nodes + self.wiring_nodes


@record
class SolveOutcome(NamedTuple):
    """Search result. exhausted is conservative: stopping at the solution
    limit or the node budget reports the space as not fully explored."""

    solutions: tuple[Configuration, ...]
    exhausted: bool
    stats: SolveStats


# Oracle guards: refuse exhaustive enumeration beyond these.
ORACLE_MAX_HOSTS_TIMES_TYPES = 12
ORACLE_MAX_CANDIDATES = 24


class _Edge(NamedTuple):
    """A candidate channel between two numbered instances of a _Placement,
    at port-family level (indices assigned later).

    The tuple itself is the port family the compiled clauses look up."""

    src: int
    src_port: str
    dst: int
    dst_port: str


def _check_options(doc: SpecDocument, opts: SolveOptions) -> SolveOptions:
    if opts.max_instances_per_host < 1:
        raise BoundsError("max_instances_per_host must be >= 1")
    if opts.solution_limit < 1:
        raise BoundsError("solution_limit must be >= 1")
    total = opts.max_total_instances
    if total is None:
        total = len(doc.hosts) * opts.max_instances_per_host
    if total < 1 and doc.hosts:
        raise BoundsError("max_total_instances must be >= 1")
    if opts.channel_budget is not None and opts.channel_budget < 0:
        raise BoundsError("channel_budget must be >= 0")
    host_names = {h.name for h in doc.hosts}
    type_names = {c.name for c in doc.components}
    for pin in opts.pins:
        if pin.host not in host_names:
            raise ValidationError(f"pin {pin}: unknown host {pin.host}")
        if pin.type not in type_names:
            raise ValidationError(f"pin {pin}: unknown type {pin.type}")
        if pin.count < 1:
            raise ValidationError(f"pin {pin}: count must be >= 1")
    return opts._replace(max_total_instances=total)


def _pin_floors(pins: tuple[Binding, ...]) -> dict[str, dict[str, int]]:
    """Per host and type, the largest pinned count."""
    floors: dict[str, dict[str, int]] = {}
    for pin in pins:
        per_type = floors.setdefault(pin.host, {})
        per_type[pin.type] = max(per_type.get(pin.type, 0), pin.count)
    return floors


def connect_patterns(cs: ConstraintSet) -> list[tuple[str, str, str, str]]:
    """Typed (src type, src port, dst type, dst port) patterns from the
    constraintset's connectsto leaves, in first-appearance order."""
    seen: list[tuple[str, str, str, str]] = []
    for constraint in cs.constraints:
        _add_patterns(constraint, {}, seen)
    return seen


def _add_patterns(expr, env: dict[str, str], seen: list) -> None:
    if isinstance(expr, Quantified):
        inner = dict(env)
        for b in expr.binders:
            inner[b.var] = b.sort
        _add_patterns(expr.body, inner, seen)
    elif isinstance(expr, (And, Or)):
        for item in expr.items:
            _add_patterns(item, env, seen)
    elif isinstance(expr, ConnectsTo):
        pat = (env.get(expr.src.var, ""), expr.src.port,
               env.get(expr.dst.var, ""), expr.dst.port)
        if pat not in seen:
            seen.append(pat)


def _placement_only(expr) -> bool:
    """True when expr reads instance counts only: it quantifies over hosts
    alone and has no connectsto, reachable or card(... connectedto ...)."""
    if isinstance(expr, Quantified):
        return (all(b.sort == HOST_SORT for b in expr.binders)
                and _placement_only(expr.body))
    if isinstance(expr, (And, Or)):
        return all(_placement_only(item) for item in expr.items)
    if isinstance(expr, Compare):
        return not any(isinstance(v, Card) and isinstance(v.inner, ConnectedTo)
                       for v in (expr.lhs, expr.rhs))
    return False


def _conjuncts(expr):
    """expr itself, or its items when it is an `and`, recursively."""
    if isinstance(expr, And):
        for item in expr.items:
            yield from _conjuncts(item)
    else:
        yield expr


_CAP_SLACK = {"<=": 0, "<": 1, "=": 0}  # card <op> n caps card at n - slack
_SWAPPED = {">=": "<=", ">": "<", "=": "="}


def cardinality_bounds(cs: ConstraintSet) -> list[tuple[str, str, int]]:
    """Bounds (X, Y, k), each meaning |X| <= k * |Y| in every solution.

    A bound pairs two conjunctive single-binder clauses over distinct
    instance types: `forall X x (exists Y y (... x.p connectsto y.q ...))`
    gives every X a Y neighbour, and `forall Y y (card(X v connectedto y)
    <= k)` (or `< k+1`, `= k`, operands either way round) lets each Y have
    at most k X neighbours."""
    needs, caps = set(), {}
    for clause in cs.constraints:
        for outer in _conjuncts(clause):
            if not (isinstance(outer, Quantified) and outer.kind == "forall"
                    and len(outer.binders) == 1):
                continue
            x = outer.binders[0]
            for part in _conjuncts(outer.body):
                if (isinstance(part, Quantified) and part.kind == "exists"
                        and len(part.binders) == 1):
                    y = part.binders[0]
                    if any(isinstance(e, ConnectsTo)
                           and {e.src.var, e.dst.var} == {x.var, y.var}
                           for e in _conjuncts(part.body)):
                        needs.add((x.sort, y.sort))
                elif isinstance(part, Compare):
                    op, card, n = part.op, part.lhs, part.rhs
                    if isinstance(card, IntLiteral):
                        op, card, n = _SWAPPED.get(op), n, card
                    if (op in _CAP_SLACK and isinstance(n, IntLiteral)
                            and isinstance(card, Card)
                            and isinstance(card.inner, ConnectedTo)
                            and card.inner.peer_var == x.var):
                        key = (card.inner.type_name, x.sort)
                        k = max(0, n.value - _CAP_SLACK[op])
                        caps[key] = min(k, caps.get(key, k))
    return [(x, y, caps[(x, y)]) for x, y in sorted(needs)
            if (x, y) in caps and x != y and HOST_SORT not in (x, y)]


class _Budget(Exception):
    pass


class _Placement:
    """One complete placement. Its instances are numbered 0..n-1 in
    placement order (host, then type declaration, then ordinal); the wiring
    phase works on those numbers, and ids, names and types map them back."""

    def __init__(self, doc: SpecDocument, counts: dict[tuple[str, str], int]):
        self.counts = counts
        self.instances = [Instance(InstanceId(c.name, h.name, ordinal), c.name)
                          for h in doc.hosts for c in doc.components
                          for ordinal in range(counts.get((h.name, c.name), 0))]
        self.ids = [inst.id for inst in self.instances]
        self.names = [str(i) for i in self.ids]
        self.types = [inst.type for inst in self.instances]
        self.by_type: dict[str, list[int]] = {}
        for n, type_name in enumerate(self.types):
            self.by_type.setdefault(type_name, []).append(n)


def _candidate_edges(placement: _Placement,
                     patterns: list[tuple[str, str, str, str]]) -> list[_Edge]:
    """Every instantiation of the patterns, in the order of the instances'
    names (not their numbers: "Client@h10#0" sorts before "Client@h2#0")."""
    edges: set[_Edge] = set()
    for tsrc, psrc, tdst, pdst in patterns:
        for u in placement.by_type.get(tsrc, ()):
            for v in placement.by_type.get(tdst, ()):
                if u != v:
                    edges.add(_Edge(u, psrc, v, pdst))
    names = placement.names
    return sorted(edges, key=lambda e: (names[e.src], e.src_port,
                                        names[e.dst], e.dst_port))


class _EdgeSet:
    """A set of candidate edges in the shapes the compiled clauses read:
    port families, directed adjacency (successor -> number of edges) and
    its reverse (predecessor -> number of edges), and per (instance, type)
    the number of distinct neighbours of that type."""

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
    """What the compiled clauses read. The search mutates it in place.

    Host variables hold host positions and instance variables instance
    numbers. lo[t][h] and hi[t][h] bound the number of t instances on host
    h (an unplaced host reads [pin floor, per-host bound]); members[t] lists
    the instances of type t; sure holds the included edges and possible
    those not yet excluded (both empty while placing)."""

    def __init__(self, doc: SpecDocument, floors: dict[str, dict[str, int]],
                 per_host: int):
        self.host_names = [h.name for h in doc.hosts]
        self.hosts = range(len(doc.hosts))
        self.zeros = [0] * len(doc.hosts)
        self.lo = {c.name: [floors.get(h, {}).get(c.name, 0)
                            for h in self.host_names] for c in doc.components}
        self.hi = {c.name: [per_host] * len(doc.hosts) for c in doc.components}
        self.members: dict[str, list[int]] = {}
        self.sure = _EdgeSet()
        self.possible = _EdgeSet()

    def counts(self, type_name: str) -> tuple[list[int], list[int]]:
        """lo and hi of a type; an undeclared type has no instance anywhere."""
        return (self.lo.get(type_name, self.zeros),
                self.hi.get(type_name, self.zeros))

    def place(self, placement: _Placement, candidates: list[_Edge]) -> None:
        """Show a complete placement with no edge included or excluded."""
        for type_name, lo in self.lo.items():
            hi = self.hi[type_name]
            for h, host in enumerate(self.host_names):
                lo[h] = hi[h] = placement.counts.get((host, type_name), 0)
        for type_name, members in self.members.items():
            members[:] = placement.by_type.get(type_name, ())
        self.sure.reset(placement.types)
        self.possible.reset(placement.types, candidates)


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
            if evaluator.has_path(sure_adj, u, v):
                return True
            return None if evaluator.has_path(possible_adj, u, v) else False
        return reachable
    raise DeladasError(f"not a constraint expression: {expr!r}")


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
    return quantified


def _compile_compare(expr: Compare, view: _View, scope, env):
    if isinstance(expr.lhs, Var):  # validation: then both are, and = or !=
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


class _Clause(NamedTuple):
    """A compiled constraint as the search evaluates it: ground items.

    A split clause (sort set) has one item per value of its first binder:
    body runs with that value in env[slot]. Any other clause is one item,
    its whole closure. anchored: each item's value depends only on its own
    host's counts (placement clauses) or on the channels at its own instance
    (wiring clauses)."""

    body: Callable[[], bool | None]
    slot: int
    sort: str | None
    anchored: bool

    def items(self, view: _View) -> list[tuple]:
        """(body, slot, value) per ground item, in value order."""
        if self.sort is None:
            return [(self.body, self.slot, None)]
        values = view.hosts if self.sort == HOST_SORT else view.members[self.sort]
        return [(self.body, self.slot, v) for v in values]


def _compile_clause(expr, view: _View, env: list, placing: bool) -> _Clause:
    """Split a top-level forall on its first binder when the body mentions
    it; the other binders stay a nested forall. env[0] is the slot an
    unsplit clause's item writes its (unused) value to. All-pairs
    reachability over one type is one unsplit item (_strongly_connected)."""
    sort = _mesh_sort(expr)
    if sort is not None:
        return _Clause(_strongly_connected(view, sort), 0, None, False)
    if (isinstance(expr, Quantified) and expr.kind == "forall"
            and expr.binders[0].var in free_vars(expr.body)):
        first, rest = expr.binders[0], expr.binders[1:]
        body = Quantified("forall", rest, expr.body) if rest else expr.body
        slot = len(env)
        env.append(None)
        if first.sort != HOST_SORT:
            view.members.setdefault(first.sort, [])
        # Placement anchors on hosts and wiring on instances.
        anchored = ((first.sort == HOST_SORT) == placing
                    and _anchored(body, first.var, placing))
        return _Clause(_compile(body, view, {first.var: slot}, env), slot,
                       first.sort, anchored)
    return _Clause(_compile(expr, view, {}, env), 0, None, False)


def _mesh_sort(expr) -> str | None:
    """T when expr is `forall T a, b in deployment (reachable(a, b))`, with
    the operands in either order; None for any other clause."""
    if (isinstance(expr, Quantified) and expr.kind == "forall"
            and len(expr.binders) == 2 and isinstance(expr.body, Reachable)):
        a, b = expr.binders
        if (a.sort == b.sort != HOST_SORT and a.var != b.var
                and {expr.body.a, expr.body.b} == {a.var, b.var}):
            return a.sort
    return None


def _strongly_connected(view: _View, sort: str):
    """`forall T a, b (reachable(a, b))` as one closure. reachable is
    reflexive and a path may pass through any instance, so the clause holds
    exactly when every T instance lies in one strongly connected component
    of the channel graph: when a search forward and one backward from the
    first T instance reach every T instance (Tarjan, SIAM J. Comput. 1972).
    True on the sure edges, else None on the possible edges, else False:
    the values of the conjunction of reachable over every pair."""
    members = view.members.setdefault(sort, [])
    sure, possible = view.sure, view.possible

    def strongly_connected():
        if len(members) < 2:
            return True
        if _spans(sure.adj, members) and _spans(sure.pred, members):
            return True
        if _spans(possible.adj, members) and _spans(possible.pred, members):
            return None
        return False
    return strongly_connected


def _spans(adj: dict[int, dict[int, int]], members: list[int]) -> bool:
    """Whether a search along adj from the first member reaches them all."""
    start = members[0]
    seen = {start}
    stack = [start]
    while stack:
        for v in adj.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen.issuperset(members)


def _anchored(expr, x: str, placing: bool) -> bool:
    """Whether expr, with x free, reads only the counts of host x (placing)
    or only channels with instance x at one end (wiring: no reachable, every
    connectsto has x at an end, every connectedto counts x's neighbours;
    instance counts are fixed while wiring). A binder named x hides it."""
    if isinstance(expr, Quantified):
        return (all(b.var != x for b in expr.binders)
                and _anchored(expr.body, x, placing))
    if isinstance(expr, (And, Or)):
        return all(_anchored(item, x, placing) for item in expr.items)
    if isinstance(expr, ConnectsTo):
        return not placing and x in (expr.src.var, expr.dst.var)
    if isinstance(expr, Reachable):
        return False
    for value in (expr.lhs, expr.rhs):
        if not isinstance(value, Card):
            continue
        if isinstance(value.inner, InstancesOf):
            if placing and value.inner.host_var != x:
                return False
        elif placing or value.inner.peer_var != x:
            return False
    return True


def _materialize(doc: SpecDocument, placement: _Placement,
                 edges: list[_Edge]) -> Configuration:
    """Assign variadic indices canonically and build the configuration."""
    ids, names = placement.ids, placement.names
    uses: dict[tuple[int, str], list[tuple[tuple, _Edge, str]]] = {}
    for edge in edges:
        src_key = (names[edge.dst], edge.dst_port, "s")
        dst_key = (names[edge.src], edge.src_port, "d")
        uses.setdefault((edge.src, edge.src_port), []).append((src_key, edge, "s"))
        uses.setdefault((edge.dst, edge.dst_port), []).append((dst_key, edge, "d"))

    edge_index: dict[tuple[_Edge, str], int] = {}
    for (inst, port), family_uses in uses.items():
        ctype = doc.component(placement.types[inst])
        pdecl = ctype.port(port) if ctype else None
        if pdecl is None or not pdecl.variadic:
            continue
        for rank, (key, edge, role) in enumerate(sorted(family_uses,
                                                        key=lambda u: u[0])):
            edge_index[(edge, role)] = rank

    channels = []
    for edge in edges:
        src_idx = edge_index.get((edge, "s"))
        dst_idx = edge_index.get((edge, "d"))
        channels.append(Channel(PortSlot(ids[edge.src], edge.src_port, src_idx),
                                PortSlot(ids[edge.dst], edge.dst_port, dst_idx)))
    return Configuration.build(doc.hosts, placement.instances, channels)


def _count_vectors(types: list[str], per_host: int, floors: dict[str, int]):
    """All per-type count tuples for one host, in canonical value order:
    ascending total, then more of earlier-declared types first."""
    out: list[tuple[int, ...]] = [()]
    for t in types:
        out = [v + (n,) for v in out
               for n in range(floors.get(t, 0), per_host - sum(v) + 1)]
    out.sort(key=lambda v: (sum(v), tuple(-x for x in v)))
    return out


class _Search:
    def __init__(self, doc: SpecDocument, cs: ConstraintSet, opts: SolveOptions):
        self.doc = doc
        self.cs = cs
        self.opts = opts
        self.patterns = connect_patterns(cs)
        self.placement_nodes = 0
        self.wiring_nodes = 0
        self.evaluations = 0
        self.solutions: list[Configuration] = []
        prior = opts.prior.channels if opts.prior is not None else ()
        self.prior_edges = {(ch.src.instance, ch.src.port, ch.dst.instance,
                             ch.dst.port) for ch in prior}
        self.pin_floors = _pin_floors(opts.pins)
        # Non-variadic ports admit a single channel per instance.
        self.fixed_ports = {(c.name, p.name) for c in doc.components
                            for p in c.ports if not p.variadic}
        placing = [_placement_only(c) for c in cs.constraints]
        self.placement_clauses = tuple(
            i for i, p in enumerate(placing) if p)
        self.wiring_clauses = tuple(
            i for i, p in enumerate(placing) if not p)
        self.bounds = cardinality_bounds(cs)
        self.bound_cuts = 0
        self.view = _View(doc, self.pin_floors, opts.max_instances_per_host)
        self.env: list = [None]
        self.clauses = [_compile_clause(c, self.view, self.env, p)
                        for c, p in zip(cs.constraints, placing)]

    def run(self) -> bool:
        """Search placements and wirings; returns True if fully explored."""
        try:
            return self._place()
        except _Budget:
            return False

    def _place(self) -> bool:
        """Assign hosts in declaration order, each host its count vectors in
        canonical order, and wire every complete placement. Returns False
        when the solution limit is reached.

        An explicit-stack loop: depth i is host i. The first host's node
        evaluates every placement item; host i's node then evaluates the
        unanchored items and those anchored on host i, with the unassigned
        hosts read as count intervals. groups[h] holds the open items
        anchored on host h and groups[-1] the unanchored ones; a node saves
        the groups it replaces, and they are put back when it is left."""
        doc, view, env = self.doc, self.view, self.env
        hosts = doc.hosts
        n = len(hosts)
        types = [c.name for c in doc.components]
        per_host = self.opts.max_instances_per_host
        most = self.opts.max_total_instances
        lo, hi = view.lo, view.hi
        groups: list[list[tuple]] = [[] for _ in range(n + 1)]
        for index in self.placement_clauses:
            clause = self.clauses[index]
            for item in clause.items(view):
                groups[item[2] if clause.anchored else n].append(item)
        if not n:
            return self._wire(_Placement(doc, {}), groups[n])
        floors = [self.pin_floors.get(h.name, {}) for h in hosts]
        vectors = [_count_vectors(types, per_host, f) for f in floors]
        tried = [0] * n
        totals = [0] * n
        saved: list[list[tuple[int, list]]] = [[] for _ in range(n)]
        budget = self.opts.node_budget
        if budget is None:
            budget = sys.maxsize
        i = 0
        while True:
            k = tried[i]
            if k == len(vectors[i]):  # host i is spent: unassign it
                for t in types:
                    lo[t][i], hi[t][i] = floors[i].get(t, 0), per_host
                if i == 0:
                    return True
                i -= 1
                for g, items in saved[i]:
                    groups[g] = items
                continue
            tried[i] = k + 1
            vector = vectors[i][k]
            total = totals[i] + sum(vector)
            if total > most:
                continue
            self.placement_nodes += 1
            if self.placement_nodes + self.wiring_nodes > budget:
                raise _Budget()
            for t, count in zip(types, vector):
                lo[t][i] = hi[t][i] = count
            cut = False
            fresh = []
            for g in (range(n + 1) if i == 0 else (i, n)):
                keep = []
                for item in groups[g]:
                    self.evaluations += 1
                    env[item[1]] = item[2]
                    value = item[0]()
                    if value is None:
                        keep.append(item)
                    elif value is False:
                        cut = True
                        break
                if cut:
                    break
                fresh.append((g, keep))
            if cut:
                continue
            if self._starved():
                self.bound_cuts += 1
                continue
            saved[i] = [(g, groups[g]) for g, _ in fresh]
            for g, items in fresh:
                groups[g] = items
            if i + 1 < n:
                i += 1
                tried[i] = 0
                totals[i] = total
                continue
            placed = {(h.name, t): lo[t][j]
                      for j, h in enumerate(hosts) for t in types}
            if not self._wire(_Placement(doc, placed),
                              [item for items in groups for item in items]):
                return False
            for g, items in saved[i]:
                groups[g] = items

    def _starved(self) -> bool:
        """True when some derived bound |X| <= k * |Y| fails in every
        completion: the fewest X possible exceed k times the most Y."""
        counts = self.view.counts
        return any(sum(counts(x)[0]) > k * sum(counts(y)[1])
                   for x, y, k in self.bounds)

    def _wire(self, placement: _Placement, carried: list[tuple]) -> bool:
        """Decide every candidate channel of a placement, include or exclude,
        with the placement items still open in carried. Returns False when
        the solution limit is reached.

        An explicit-stack loop: node i has candidates[:i] decided. The root
        evaluates every item; node i then evaluates the unanchored items and
        those anchored on either end of candidates[i - 1], and puts back the
        groups it replaced when it is left. tried[i] counts the options node
        i has tried, and the last one tried is the decision to undo."""
        candidates = _candidate_edges(placement, self.patterns)
        # Decide surviving channels first, include-first, so backtracking
        # disturbs them last; each group keeps the name order.
        number = {iid: n for n, iid in enumerate(placement.ids)}
        prior = {(number[u], p, number[v], q) for u, p, v, q in self.prior_edges
                 if u in number and v in number}
        if prior:
            candidates = ([e for e in candidates if e in prior]
                          + [e for e in candidates if e not in prior])
        order = [(True, False) if e in prior else (False, True)
                 for e in candidates]
        types = placement.types
        fixed = [tuple(fam for fam in ((e.src, e.src_port), (e.dst, e.dst_port))
                       if (types[fam[0]], fam[1]) in self.fixed_ports)
                 for e in candidates]
        budget = self.opts.channel_budget
        if budget is None:
            budget = len(placement.instances) ** 2
        view, env = self.view, self.env
        view.place(placement, candidates)
        sure, possible = view.sure, view.possible
        used_fixed: set[tuple[int, str]] = set()
        chosen: list[_Edge] = []
        n, m = len(placement.instances), len(candidates)
        # Open items by anchor instance; groups[n] holds the unanchored ones.
        groups: list[list[tuple]] = [[] for _ in range(n + 1)]
        root = [(n, item) for item in carried]
        for index in self.wiring_clauses:
            clause = self.clauses[index]
            root += ((item[2] if clause.anchored else n, item)
                     for item in clause.items(view))
        tried = [0] * (m + 1)
        saved: list = [None] * (m + 1)
        # The node count and budget check, inlined: placement nodes stay put
        # while one placement is wired.
        limit = self.opts.node_budget
        limit = sys.maxsize if limit is None else limit - self.placement_nodes
        nodes, evals = self.wiring_nodes, 0
        i = 0
        try:
            while True:
                nodes += 1
                if nodes > limit:
                    raise _Budget()
                cut = False
                if i:
                    edge = candidates[i - 1]
                    a, b = edge.src, edge.dst
                    saved[i] = touched = (groups[a], groups[b], groups[n])
                    fresh = []
                    for items in touched:
                        keep = []
                        for item in items:
                            evals += 1
                            env[item[1]] = item[2]
                            value = item[0]()
                            if value is None:
                                keep.append(item)
                            elif value is False:
                                cut = True
                                break
                        if cut:
                            break
                        fresh.append(keep)
                    if not cut:
                        groups[a], groups[b], groups[n] = fresh
                else:
                    for g, item in root:
                        evals += 1
                        env[item[1]] = item[2]
                        value = item[0]()
                        if value is None:
                            groups[g].append(item)
                        elif value is False:
                            cut = True
                            break
                if cut or i == m:
                    tried[i] = 2
                    if not cut:  # every edge decided: every item held
                        self._accept(placement, chosen)
                        if len(self.solutions) >= self.opts.solution_limit:
                            return False
                else:
                    tried[i] = 0
                # Take node i's next option, leaving the nodes that have none.
                while True:
                    k = tried[i]
                    if k < 2:
                        tried[i] = k + 1
                        edge = candidates[i]
                        if order[i][k]:
                            if (len(chosen) >= budget
                                    or not used_fixed.isdisjoint(fixed[i])):
                                continue
                            sure.add(edge)
                            used_fixed.update(fixed[i])
                            chosen.append(edge)
                        else:
                            possible.remove(edge)
                        i += 1
                        break
                    if i == 0:
                        return True
                    edge = candidates[i - 1]
                    groups[edge.src], groups[edge.dst], groups[n] = saved[i]
                    i -= 1
                    if order[i][tried[i] - 1]:
                        chosen.pop()
                        used_fixed.difference_update(fixed[i])
                        sure.remove(edge)
                    else:
                        possible.add(edge)
        finally:
            self.wiring_nodes = nodes
            self.evaluations += evals

    def _accept(self, placement: _Placement, edges: list[_Edge]) -> None:
        config = _materialize(self.doc, placement, edges)
        problems = validate(config, self.doc)
        if problems:  # pragma: no cover - guarded by construction
            raise DeladasError(
                f"solver produced invalid configuration: {problems}")
        if not evaluator.check(config, self.cs, self.doc).satisfied:
            raise DeladasError(  # pragma: no cover
                "solver solution rejected by evaluator")
        self.solutions.append(config)


def solve(doc: SpecDocument, cs_name: str,
          opts: SolveOptions | None = None) -> SolveOutcome:
    """Search for configurations satisfying the named constraintset.

    Sound (every solution passes evaluator.check and honors pins as floors)
    and bounded-complete: with exhausted True and no solutions, nothing in
    the bounded space satisfies the goal.
    """
    opts = _check_options(doc, opts or SolveOptions())
    cs = doc.constraintset(cs_name)
    if cs is None:
        raise UnknownConstraintSet(cs_name)
    started = time.perf_counter()
    search = _Search(doc, cs, opts)
    exhausted = search.run()
    elapsed = time.perf_counter() - started
    return SolveOutcome(tuple(search.solutions), exhausted,
                        SolveStats(search.placement_nodes, search.wiring_nodes,
                                   elapsed, search.bound_cuts,
                                   search.evaluations))


def resolve_with_relaxation(doc: SpecDocument, cs_name: str,
                            pins: list[Binding],
                            opts: SolveOptions | None = None,
                            ) -> tuple[Configuration, list[Binding]]:
    """First solution keeping as many pins as possible.

    Iterative deepening on the number of removed pins; for each depth,
    removal subsets are tried in lexicographic canonical order. Raises
    NoSolution when even the pin-free problem is unsatisfiable, and
    SearchBudgetExceeded when a solve runs out of node budget before
    deciding, since dropping more pins past an unknown answer could drop
    pins that a solution keeps.
    """
    opts = opts or SolveOptions()
    ordered = sorted(pins, key=lambda b: binding_sort_key(b, doc))
    for k in range(len(ordered) + 1):
        for removed in itertools.combinations(range(len(ordered)), k):
            removed_set = set(removed)
            kept = tuple(b for i, b in enumerate(ordered)
                         if i not in removed_set)
            outcome = solve(doc, cs_name,
                            opts._replace(pins=kept, solution_limit=1))
            if outcome.solutions:
                return outcome.solutions[0], [ordered[i] for i in removed]
            if not outcome.exhausted:
                raise SearchBudgetExceeded(
                    f"node budget of {opts.node_budget} ran out with {k} of "
                    f"{len(ordered)} pins removed; satisfiability of "
                    f"{cs_name} unknown")
    raise NoSolution(
        f"no configuration satisfies {cs_name} even with all pins removed")


def enumerate_all(doc: SpecDocument, cs_name: str,
                  opts: SolveOptions | None = None) -> SolveOutcome:
    """Exhaustive generate-and-test oracle over the bounded space.

    Independent of the solver: every structurally valid placement/wiring in
    the space is materialized and judged by evaluator.check alone. Its
    placement_nodes count every placement in the bounded space.
    """
    opts = _check_options(doc, opts or SolveOptions())
    cs = doc.constraintset(cs_name)
    if cs is None:
        raise UnknownConstraintSet(cs_name)
    if len(doc.hosts) * len(doc.components) > ORACLE_MAX_HOSTS_TIMES_TYPES:
        raise SpaceTooLarge(
            f"hosts x types = {len(doc.hosts) * len(doc.components)} "
            f"> {ORACLE_MAX_HOSTS_TIMES_TYPES}")
    patterns = connect_patterns(cs)
    types = [c.name for c in doc.components]
    floors = _pin_floors(opts.pins)
    per_host = [_count_vectors(types, opts.max_instances_per_host,
                               floors.get(h.name, {})) for h in doc.hosts]
    placements = []
    for vectors in itertools.product(*per_host):
        if sum(map(sum, vectors)) > opts.max_total_instances:
            continue
        placements.append(_Placement(doc, {
            (h.name, t): n for h, vector in zip(doc.hosts, vectors)
            for t, n in zip(types, vector)}))
    worst = max((len(_candidate_edges(p, patterns)) for p in placements),
                default=0)
    if worst > ORACLE_MAX_CANDIDATES:
        raise SpaceTooLarge(
            f"channel candidates = {worst} > {ORACLE_MAX_CANDIDATES}")

    started = time.perf_counter()
    nodes = 0
    solutions: list[Configuration] = []
    for placement in placements:
        candidates = _candidate_edges(placement, patterns)
        budget = opts.channel_budget
        if budget is None:
            budget = len(placement.instances) ** 2

        nonvariadic: list[tuple[int, tuple[int, str]]] = []
        for idx, edge in enumerate(candidates):
            for inst, port in ((edge.src, edge.src_port),
                               (edge.dst, edge.dst_port)):
                ctype = doc.component(placement.types[inst])
                pdecl = ctype.port(port) if ctype else None
                if pdecl is not None and not pdecl.variadic:
                    nonvariadic.append((idx, (inst, port)))

        for mask in range(1 << len(candidates)):
            nodes += 1
            if bin(mask).count("1") > budget:
                continue
            taken = [family for idx, family in nonvariadic if mask >> idx & 1]
            if len(taken) != len(set(taken)):  # a non-variadic port reused
                continue
            edges = [e for idx, e in enumerate(candidates) if mask >> idx & 1]
            config = _materialize(doc, placement, edges)
            if evaluator.check(config, cs, doc).satisfied:
                solutions.append(config)
    elapsed = time.perf_counter() - started
    return SolveOutcome(tuple(solutions), True,
                        SolveStats(len(placements), nodes, elapsed))
