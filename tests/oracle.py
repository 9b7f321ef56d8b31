"""The reference semantics the tests judge the engine by.

check is the package's former evaluator, a walker over the constraint AST.
The package now has one evaluator, compiled clauses that both the solver
and evaluator.check run, and the tests compare it against this second,
independent reading of the language. The walker takes from the package
only the records it reports, the errors it raises and the AST (with
lang.free_vars); it has its own has_path.

scope_faults is the package's former static walker over constraintsets,
which the parser's scope checks replaced; it collects every fault where
the walker raised the first.

enumerate_all walks the solver's bounded space exactly as
solver.enumerate_all does, with the solver's space builders, but judges
every configuration by check.

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
import time
from collections import Counter

from deladas.evaluator import (CheckResult, EvalTypeError, HostBinding,
                               InstanceBinding, Violation)
from deladas.lang import (And, Card, Compare, ConnectsTo, ConstraintSet,
                          HOST_SORT, InstancesOf, IntLiteral, Or, Quantified,
                          Reachable, SpecDocument, Var, free_vars)
from deladas.model import Configuration, InstanceId
from deladas.solver import (ORACLE_MAX_CANDIDATES, ORACLE_MAX_HOSTS_TIMES_TYPES,
                            SolveOptions, SolveOutcome, SolveStats,
                            SpaceTooLarge, UnknownConstraintSet, _Placement,
                            _candidate_edges, _check_options, _count_vectors,
                            _materialize, _pin_floors, connect_patterns)

Environment = dict[str, "HostBinding | InstanceBinding"]


class _Context:
    """Per-check caches over one configuration, binder ranges included."""

    def __init__(self, config: Configuration):
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
        """lang.free_vars of the quantifier's body, once per check."""
        if id(expr) not in self._free:
            self._free[id(expr)] = free_vars(expr.body)
        return self._free[id(expr)]

    def connected(self, p: InstanceId, a: str, q: InstanceId, b: str) -> bool:
        return (p, a, q, b) in self.families or (q, b, p, a) in self.families


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
    ctx = _Context(config)
    violations: list[Violation] = []
    for index, constraint in enumerate(cs.constraints):
        ok, witness = _eval(constraint, {}, ctx)
        if not ok:
            violations.append(Violation(index, tuple(witness.items())))
    return CheckResult(not violations, tuple(violations))


def scope_faults(doc: SpecDocument) -> list[str]:
    """Every scope, sort and port fault of doc's constraint sets, each as
    "constraintset NAME: message". An unbound variable has no sort, so the
    rules about its sort are not checked."""
    faults: list[str] = []
    for cs in doc.constraintsets:
        found: list[str] = []
        for expr in cs.constraints:
            _scope_faults(expr, {}, doc, found)
        faults += [f"constraintset {cs.name}: {message}" for message in found]
    return faults


def _scope_faults(expr, env: dict[str, str], doc: SpecDocument,
                  faults: list[str]) -> None:
    if isinstance(expr, Quantified):
        inner = dict(env)
        for b in expr.binders:
            if b.var in inner:
                faults.append(f"variable {b.var} already bound")
            inner[b.var] = b.sort
        _scope_faults(expr.body, inner, doc, faults)
    elif isinstance(expr, (And, Or)):
        for item in expr.items:
            _scope_faults(item, env, doc, faults)
    elif isinstance(expr, Compare):
        lk = _operand_kind(expr.lhs, env, faults)
        rk = _operand_kind(expr.rhs, env, faults)
        if lk is None or rk is None:
            return
        if expr.op in ("<", "<=", ">", ">="):
            if lk != "int" or rk != "int":
                faults.append("ordering comparison requires integer operands")
        elif lk != rk:
            faults.append(f"cannot compare {lk} with {rk}")
    elif isinstance(expr, ConnectsTo):
        for ref in (expr.src, expr.dst):
            sort = _sort_of(ref.var, env, faults)
            if sort == HOST_SORT:
                faults.append(f"{ref.var} is a host variable, not an instance")
            elif sort is not None:
                ctype = doc.component(sort)
                if ctype is not None and ctype.port(ref.port) is None:
                    faults.append(f"type {sort} has no port {ref.port}")
    elif isinstance(expr, Reachable):
        for var in (expr.a, expr.b):
            if _sort_of(var, env, faults) == HOST_SORT:
                faults.append(
                    f"reachable needs instance variables, {var} is a host")
    else:
        faults.append(f"unknown expression {expr!r}")


def _sort_of(var: str, env: dict[str, str],
             faults: list[str]) -> str | None:
    if var not in env:
        faults.append(f"unbound variable {var}")
    return env.get(var)


def _operand_kind(value, env: dict[str, str],
                  faults: list[str]) -> str | None:
    """int, host-var or instance-var; None for an unbound variable."""
    if isinstance(value, IntLiteral):
        return "int"
    if isinstance(value, Var):
        sort = _sort_of(value.name, env, faults)
        if sort is None:
            return None
        return "host-var" if sort == HOST_SORT else "instance-var"
    inner = value.inner
    if isinstance(inner, InstancesOf):
        if _sort_of(inner.host_var, env, faults) not in (None, HOST_SORT):
            faults.append(f"instancesof needs a host variable, "
                          f"{inner.host_var} is not one")
    else:
        if inner.var in env:
            faults.append(f"variable {inner.var} already bound")
        if inner.var == inner.peer_var:
            faults.append("connectedto variable shadows its peer")
        elif _sort_of(inner.peer_var, env, faults) == HOST_SORT:
            faults.append("connectedto peer must be an instance variable")
    return "int"


def enumerate_all(doc: SpecDocument, cs_name: str,
                  opts: SolveOptions | None = None) -> SolveOutcome:
    """Exhaustive generate-and-test over the solver's bounded space.

    Every structurally valid placement/wiring in the space (the solver's,
    with placement.max_channels channels at most) is materialized and judged
    by check alone. Its placement_nodes count every placement in the
    bounded space.
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
    placements = [_Placement(doc, {
        (h.name, t): n for h, vector in zip(doc.hosts, vectors)
        for t, n in zip(types, vector)})
        for vectors in itertools.product(*per_host)]
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
            if bin(mask).count("1") > placement.max_channels:
                continue
            taken = [family for idx, family in nonvariadic if mask >> idx & 1]
            if len(taken) != len(set(taken)):  # a non-variadic port reused
                continue
            edges = [e for idx, e in enumerate(candidates) if mask >> idx & 1]
            config = _materialize(doc, placement, edges)
            if check(config, cs, doc).satisfied:
                solutions.append(config)
    elapsed = time.perf_counter() - started
    return SolveOutcome(tuple(solutions), True,
                        SolveStats(len(placements), nodes, elapsed))
