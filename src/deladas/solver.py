"""Configuration search: find placements and wirings satisfying a goal.

The search runs in two phases, both depth-first and both pruned by a
three-valued partial evaluation of the constraints (_PartialEval): False
means false in every completion of the current node, True means true in
every completion.

Placement assigns hosts, in declaration order, a small multiset of
instances within bounds. After each assignment the still-open
placement-only clauses (those quantifying over hosts alone and reading only
instance counts) are evaluated with every unassigned host's counts read as
the interval [pin floor, max_instances_per_host]; a False cuts the branch.
Clauses that mention instances or channels wait for the wiring phase, but
placement also checks the bounds |X| <= k * |Y| that cardinality_bounds
derives from them (every X needs a Y neighbour, every Y takes at most k X
neighbours): a branch whose fewest X exceed k times its most Y is cut.

Wiring then decides, for every candidate channel, whether it is present.
Candidate channels are the instantiations of the `connectsto` patterns
appearing in the selected constraintset (typed port pairs, oriented as
written), built once per placement. Each decision includes or excludes one
edge in the evaluator's incremental state and is undone on backtrack. At
each node only the clauses not yet entailed are evaluated: a False cuts the
branch, and a True stays true in every descendant, so it is dropped from the
set passed down.

Determinism: hosts and types are tried in declaration order (per host: empty
first, then single instances of earlier-declared types, and so on); candidate
channels are tried in canonical (src, dst) order with channels present in
opts.prior tried include-first so surviving structure is retained on
re-solves. Symmetry is broken by dense instance ordinals and by assigning
variadic port indices canonically (sorted by peer), so no two search leaves
materialize the same configuration. Pruning only skips subtrees without
solutions, so the solution sequence is that of the unpruned search.

enumerate_all is the independent oracle: exhaustive generate-and-test over
the same bounded space using only evaluator.check.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import evaluator
from .lang import (And, Card, Compare, ConnectedTo, ConnectsTo, ConstraintSet,
                   DeladasError, HOST_SORT, InstancesOf, IntLiteral, Or,
                   Quantified, Reachable, SpecDocument, ValidationError, Var)
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


@dataclass(frozen=True)
class SolveOptions:
    max_instances_per_host: int = 1
    max_total_instances: int | None = None  # default: hosts * per-host bound
    solution_limit: int = 1
    pins: tuple[Binding, ...] = ()
    channel_budget: int | None = None  # default: instances**2 per placement
    prior: Configuration | None = None  # channel preference only
    node_budget: int | None = None


@dataclass(frozen=True)
class SolveStats:
    """Search effort: placement nodes (host assignments tried), wiring
    nodes (candidate-channel decisions tried) and wall-clock seconds."""

    placement_nodes: int
    wiring_nodes: int
    seconds: float
    bound_cuts: int = 0  # placement branches cut by a derived bound

    @property
    def nodes(self) -> int:
        return self.placement_nodes + self.wiring_nodes


@dataclass(frozen=True)
class SolveOutcome:
    """Search result. exhausted is conservative: stopping at the solution
    limit or the node budget reports the space as not fully explored."""

    solutions: tuple[Configuration, ...]
    exhausted: bool
    stats: SolveStats


# Oracle guards: refuse exhaustive enumeration beyond these.
ORACLE_MAX_HOSTS_TIMES_TYPES = 12
ORACLE_MAX_CANDIDATES = 24


class _Edge(NamedTuple):
    """A candidate channel at port-family level (indices assigned later).

    The tuple itself is the port family the evaluator looks up."""

    src: InstanceId
    src_port: str
    dst: InstanceId
    dst_port: str

    def key(self):
        return (str(self.src), self.src_port, str(self.dst), self.dst_port)


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
    return replace(opts, max_total_instances=total)


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
    """One complete placement plus caches the wiring phase needs."""

    def __init__(self, doc: SpecDocument, counts: dict[tuple[str, str], int]):
        self.counts = counts
        instances: list[Instance] = []
        for h in doc.hosts:
            for c in doc.components:
                for ordinal in range(counts.get((h.name, c.name), 0)):
                    instances.append(Instance(InstanceId(c.name, h.name, ordinal),
                                              c.name))
        self.instances = instances
        self.by_type: dict[str, list[InstanceId]] = {}
        for inst in instances:
            self.by_type.setdefault(inst.type, []).append(inst.id)
        self.hosts = [h.name for h in doc.hosts]

    def count_bounds(self, host: str, type_name: str) -> tuple[int, int]:
        n = self.counts.get((host, type_name), 0)
        return (n, n)


class _PartialPlacement:
    """The placement phase's view of the hosts assigned so far.

    Assigned hosts have an entry per type in the shared counts dict; the
    others may still receive anything from their pin floor up to the
    per-host bound. No instance exists yet, so only clauses that quantify
    over hosts alone can be evaluated against it."""

    def __init__(self, doc: SpecDocument, counts: dict[tuple[str, str], int],
                 floors: dict[str, dict[str, int]], per_host: int):
        self.counts = counts
        self.floors = floors
        self.per_host = per_host
        self.hosts = [h.name for h in doc.hosts]

    def count_bounds(self, host: str, type_name: str) -> tuple[int, int]:
        n = self.counts.get((host, type_name))
        if n is not None:
            return (n, n)
        return (self.floors.get(host, {}).get(type_name, 0), self.per_host)


def _candidate_edges(placement: _Placement,
                     patterns: list[tuple[str, str, str, str]]) -> list[_Edge]:
    edges: set[_Edge] = set()
    for tsrc, psrc, tdst, pdst in patterns:
        for u in placement.by_type.get(tsrc, ()):
            for v in placement.by_type.get(tdst, ()):
                if u != v:
                    edges.add(_Edge(u, psrc, v, pdst))
    return sorted(edges, key=_Edge.key)


class _EdgeSet:
    """A set of candidate edges in the three shapes the evaluator reads:
    port families, directed adjacency and undirected neighbours.

    Several port families can join the same two instances, so adjacency
    keeps a reference count per ordered pair and drops a neighbour only
    when its last edge goes."""

    def __init__(self, edges=()):
        self.families: set[_Edge] = set()
        self.adj: dict[InstanceId, set[InstanceId]] = {}
        self.neigh: dict[InstanceId, set[InstanceId]] = {}
        self._adj_refs: dict[tuple[InstanceId, InstanceId], int] = {}
        self._neigh_refs: dict[tuple[InstanceId, InstanceId], int] = {}
        for edge in edges:
            self.add(edge)

    def add(self, edge: _Edge) -> None:
        self.families.add(edge)
        u, v = edge.src, edge.dst
        _ref(self.adj, self._adj_refs, u, v)
        _ref(self.neigh, self._neigh_refs, u, v)
        _ref(self.neigh, self._neigh_refs, v, u)

    def remove(self, edge: _Edge) -> None:
        self.families.discard(edge)
        u, v = edge.src, edge.dst
        _unref(self.adj, self._adj_refs, u, v)
        _unref(self.neigh, self._neigh_refs, u, v)
        _unref(self.neigh, self._neigh_refs, v, u)


def _ref(sets, refs, u, v) -> None:
    n = refs.get((u, v), 0)
    refs[(u, v)] = n + 1
    if n == 0:
        sets.setdefault(u, set()).add(v)


def _unref(sets, refs, u, v) -> None:
    n = refs[(u, v)] - 1
    refs[(u, v)] = n
    if n == 0:
        sets[u].discard(v)


class _PartialEval:
    """Three-valued constraint evaluation over a partial placement or a
    partial wiring.

    Instance counts are intervals (exact once a host is placed). Edges split
    into definitely-in (`sure`) and not-yet-excluded (`possible`); the
    wiring search moves one edge at a time with include/exclude and undoes
    the move on backtrack. Every predicate is monotone in the counts and
    the edge set, so False here means false in every completion and True
    means true in every completion.
    """

    def __init__(self, placement, constraints, candidates=()):
        self.placement = placement
        self.constraints = constraints
        self.sure = _EdgeSet()
        self.possible = _EdgeSet(candidates)

    def include(self, edge: _Edge) -> None:
        self.sure.add(edge)

    def undo_include(self, edge: _Edge) -> None:
        self.sure.remove(edge)

    def exclude(self, edge: _Edge) -> None:
        self.possible.remove(edge)

    def undo_exclude(self, edge: _Edge) -> None:
        self.possible.add(edge)

    def open_clauses(self, clauses: tuple[int, ...]) -> tuple[int, ...] | None:
        """The clauses (by index) not yet true in every completion, or None
        when one of them is false in every completion."""
        still = []
        for index in clauses:
            v = self._eval(self.constraints[index], {})
            if v is False:
                return None
            if v is None:
                still.append(index)
        return tuple(still)

    # -- three-valued recursion ------------------------------------------------

    def _range(self, binder):
        if binder.sort == HOST_SORT:
            return [("host", h) for h in self.placement.hosts]
        return [("inst", i) for i in self.placement.by_type.get(binder.sort, ())]

    def _eval(self, expr, env) -> bool | None:
        if isinstance(expr, Quantified):
            ranges = [self._range(b) for b in expr.binders]
            names = [b.var for b in expr.binders]
            if expr.kind == "forall":
                result: bool | None = True
                for combo in itertools.product(*ranges):
                    env2 = dict(env)
                    env2.update(zip(names, combo))
                    v = self._eval(expr.body, env2)
                    if v is False:
                        return False
                    if v is None:
                        result = None
                return result
            some_unknown = False
            for combo in itertools.product(*ranges):
                env2 = dict(env)
                env2.update(zip(names, combo))
                v = self._eval(expr.body, env2)
                if v is True:
                    return True
                if v is None:
                    some_unknown = True
            return None if some_unknown else False
        if isinstance(expr, And):
            result = True
            for item in expr.items:
                v = self._eval(item, env)
                if v is False:
                    return False
                if v is None:
                    result = None
            return result
        if isinstance(expr, Or):
            some_unknown = False
            for item in expr.items:
                v = self._eval(item, env)
                if v is True:
                    return True
                if v is None:
                    some_unknown = True
            return None if some_unknown else False
        if isinstance(expr, Compare):
            return self._compare(expr, env)
        if isinstance(expr, ConnectsTo):
            p = env[expr.src.var][1]
            q = env[expr.dst.var][1]
            fam = (p, expr.src.port, q, expr.dst.port)
            rev = (q, expr.dst.port, p, expr.src.port)
            if fam in self.sure.families or rev in self.sure.families:
                return True
            if fam in self.possible.families or rev in self.possible.families:
                return None
            return False
        if isinstance(expr, Reachable):
            a = env[expr.a][1]
            b = env[expr.b][1]
            if self._path(a, b, self.sure.adj):
                return True
            if self._path(a, b, self.possible.adj):
                return None
            return False
        raise DeladasError(f"not a constraint expression: {expr!r}")

    @staticmethod
    def _path(a, b, adj) -> bool:
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

    def _interval(self, value, env) -> tuple[int, int] | tuple[str, object]:
        if isinstance(value, IntLiteral):
            return (value.value, value.value)
        if isinstance(value, Var):
            return env[value.name]
        inner = value.inner
        if isinstance(inner, InstancesOf):
            return self.placement.count_bounds(env[inner.host_var][1],
                                               inner.type_name)
        peer = env[inner.peer_var][1]
        name = inner.type_name
        lo = sum(1 for i in self.sure.neigh.get(peer, ()) if i.type == name)
        hi = sum(1 for i in self.possible.neigh.get(peer, ()) if i.type == name)
        return (lo, hi)

    def _compare(self, expr: Compare, env) -> bool | None:
        lhs = self._interval(expr.lhs, env)
        rhs = self._interval(expr.rhs, env)
        lhs_val = isinstance(lhs[0], int)
        rhs_val = isinstance(rhs[0], int)
        if lhs_val != rhs_val:
            raise evaluator.EvalTypeError("cannot compare a value with an integer")
        if not lhs_val:
            eq = lhs == rhs
            return eq if expr.op == "=" else not eq
        lo1, hi1 = lhs
        lo2, hi2 = rhs
        if expr.op in ("=", "!="):
            if hi1 < lo2 or hi2 < lo1:
                eq: bool | None = False
            elif lo1 == hi1 == lo2 == hi2:
                eq = True
            else:
                eq = None
            if expr.op == "=":
                return eq
            return None if eq is None else not eq
        table = {
            "<=": (hi1 <= lo2, lo1 > hi2),
            "<": (hi1 < lo2, lo1 >= hi2),
            ">=": (lo1 >= hi2, hi1 < lo2),
            ">": (lo1 > hi2, hi1 <= lo2),
        }
        certain_true, certain_false = table[expr.op]
        if certain_true:
            return True
        if certain_false:
            return False
        return None


def _materialize(doc: SpecDocument, placement: _Placement,
                 edges: list[_Edge]) -> Configuration:
    """Assign variadic indices canonically and build the configuration."""
    uses: dict[tuple[InstanceId, str], list[tuple[tuple, _Edge, str]]] = {}
    for edge in edges:
        src_key = (str(edge.dst), edge.dst_port, "s")
        dst_key = (str(edge.src), edge.src_port, "d")
        uses.setdefault((edge.src, edge.src_port), []).append((src_key, edge, "s"))
        uses.setdefault((edge.dst, edge.dst_port), []).append((dst_key, edge, "d"))

    edge_index: dict[tuple[int, str], int] = {}
    for family, family_uses in uses.items():
        inst, port = family
        ctype = doc.component(inst.type)
        pdecl = ctype.port(port) if ctype else None
        if pdecl is None or not pdecl.variadic:
            continue
        for rank, (key, edge, role) in enumerate(sorted(family_uses,
                                                        key=lambda u: u[0])):
            edge_index[(id(edge), role)] = rank

    channels = []
    for edge in edges:
        src_idx = edge_index.get((id(edge), "s"))
        dst_idx = edge_index.get((id(edge), "d"))
        channels.append(Channel(PortSlot(edge.src, edge.src_port, src_idx),
                                PortSlot(edge.dst, edge.dst_port, dst_idx)))
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
        self.solutions: list[Configuration] = []
        self.prior_edges: set[tuple] = set()
        if opts.prior is not None:
            for ch in opts.prior.channels:
                self.prior_edges.add((ch.src.instance, ch.src.port,
                                      ch.dst.instance, ch.dst.port))
        self.pin_floors = _pin_floors(opts.pins)
        # Non-variadic ports admit a single channel per instance.
        self.fixed_ports = {(c.name, p.name) for c in doc.components
                            for p in c.ports if not p.variadic}
        clauses = range(len(cs.constraints))
        self.placement_clauses = tuple(
            i for i in clauses if _placement_only(cs.constraints[i]))
        self.wiring_clauses = tuple(
            i for i in clauses if i not in self.placement_clauses)
        self.bounds = cardinality_bounds(cs)
        self.bound_cuts = 0

    def _check_budget(self):
        if (self.opts.node_budget is not None
                and self.placement_nodes + self.wiring_nodes
                > self.opts.node_budget):
            raise _Budget()

    def placements(self):
        """Yield complete placements in canonical order, bounds respected,
        each with its placement-only clauses that are still open (none,
        unless there are no hosts to place on).

        Every host assignment re-evaluates the open placement-only clauses
        with unassigned hosts read as count intervals, and a clause false
        in every completion cuts the branch."""
        hosts = self.doc.hosts
        types = [c.name for c in self.doc.components]
        per_host = self.opts.max_instances_per_host
        counts: dict[tuple[str, str], int] = {}
        partial = _PartialPlacement(self.doc, counts, self.pin_floors, per_host)
        ev = _PartialEval(partial, self.cs.constraints)

        def assign(i: int, total: int, clauses: tuple[int, ...]):
            if i == len(hosts):
                yield _Placement(self.doc, dict(counts)), clauses
                return
            host = hosts[i].name
            floors = self.pin_floors.get(host, {})
            for vector in _count_vectors(types, per_host, floors):
                extra = sum(vector)
                if total + extra > self.opts.max_total_instances:
                    continue
                self.placement_nodes += 1
                self._check_budget()
                for t, n in zip(types, vector):
                    counts[(host, t)] = n
                still = ev.open_clauses(clauses)
                if still is None:
                    continue
                if self._starved(partial):
                    self.bound_cuts += 1
                    continue
                yield from assign(i + 1, total + extra, still)
            for t in types:
                counts.pop((host, t), None)

        try:
            yield from assign(0, 0, self.placement_clauses)
        finally:
            # assign reaches itself through its closure: dropping the name
            # breaks that cycle, so the search state is freed at once.
            del assign

    def _starved(self, partial: _PartialPlacement) -> bool:
        """True when some derived bound |X| <= k * |Y| fails in every
        completion: the fewest X possible exceed k times the most Y."""
        for x, y, k in self.bounds:
            lo = sum(partial.count_bounds(h, x)[0] for h in partial.hosts)
            hi = sum(partial.count_bounds(h, y)[1] for h in partial.hosts)
            if lo > k * hi:
                return True
        return False

    def run(self) -> bool:
        """DFS over placements and wirings; returns True if fully explored."""
        try:
            for placement, clauses in self.placements():
                if not self._wire(placement,
                                  tuple(sorted(clauses + self.wiring_clauses))):
                    return False  # solution limit reached
            return True
        except _Budget:
            return False

    def _wire(self, placement: _Placement, clauses: tuple[int, ...]) -> bool:
        candidates = _candidate_edges(placement, self.patterns)
        # Decide surviving channels first so backtracking disturbs them last.
        if self.prior_edges:
            candidates.sort(key=lambda e: (e not in self.prior_edges, e.key()))
        prefer_in = [e in self.prior_edges for e in candidates]
        fixed = [tuple(fam for fam in ((e.src, e.src_port), (e.dst, e.dst_port))
                       if (fam[0].type, fam[1]) in self.fixed_ports)
                 for e in candidates]
        budget = self.opts.channel_budget
        if budget is None:
            budget = len(placement.instances) ** 2
        ev = _PartialEval(placement, self.cs.constraints, candidates)
        used_fixed: set[tuple[InstanceId, str]] = set()
        chosen: list[_Edge] = []

        def dfs(i: int, clauses: tuple[int, ...]) -> bool:
            self.wiring_nodes += 1
            self._check_budget()
            still = ev.open_clauses(clauses)
            if still is None:
                return True
            if i == len(candidates):
                if not still:
                    config = _materialize(self.doc, placement, chosen)
                    problems = validate(config, self.doc)
                    if problems:  # pragma: no cover - guarded by construction
                        raise DeladasError(
                            f"solver produced invalid configuration: {problems}")
                    result = evaluator.check(config, self.cs, self.doc)
                    if not result.satisfied:  # pragma: no cover
                        raise DeladasError(
                            "solver solution rejected by evaluator")
                    self.solutions.append(config)
                    return len(self.solutions) < self.opts.solution_limit
                return True
            edge = candidates[i]
            include_ok = (len(chosen) < budget
                          and not any(f in used_fixed for f in fixed[i]))
            for include in ((True, False) if prefer_in[i] else (False, True)):
                if include:
                    if not include_ok:
                        continue
                    ev.include(edge)
                    used_fixed.update(fixed[i])
                    chosen.append(edge)
                    keep_going = dfs(i + 1, still)
                    chosen.pop()
                    used_fixed.difference_update(fixed[i])
                    ev.undo_include(edge)
                else:
                    ev.exclude(edge)
                    keep_going = dfs(i + 1, still)
                    ev.undo_exclude(edge)
                if not keep_going:
                    return False
            return True

        try:
            return dfs(0, clauses)
        finally:
            del dfs  # as in placements: break the closure's self-reference


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
                                   elapsed, search.bound_cuts))


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
                            replace(opts, pins=kept, solution_limit=1))
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

        nonvariadic: list[tuple[int, tuple[InstanceId, str]]] = []
        for idx, edge in enumerate(candidates):
            for inst, port in ((edge.src, edge.src_port),
                               (edge.dst, edge.dst_port)):
                ctype = doc.component(inst.type)
                pdecl = ctype.port(port) if ctype else None
                if pdecl is not None and not pdecl.variadic:
                    nonvariadic.append((idx, (inst, port)))

        for mask in range(1 << len(candidates)):
            nodes += 1
            if bin(mask).count("1") > budget:
                continue
            used: dict[tuple[InstanceId, str], int] = {}
            clash = False
            for idx, family in nonvariadic:
                if mask >> idx & 1:
                    used[family] = used.get(family, 0) + 1
                    if used[family] > 1:
                        clash = True
                        break
            if clash:
                continue
            edges = [e for idx, e in enumerate(candidates) if mask >> idx & 1]
            config = _materialize(doc, placement, edges)
            if evaluator.check(config, cs, doc).satisfied:
                solutions.append(config)
    elapsed = time.perf_counter() - started
    return SolveOutcome(tuple(solutions), True,
                        SolveStats(len(placements), nodes, elapsed))
