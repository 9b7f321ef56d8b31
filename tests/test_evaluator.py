import gc
import hashlib

import pytest

import generators
import helpers
from deladas import evaluator, lang, model
from deladas.evaluator import (EvalTypeError, HostBinding, InstanceBinding,
                               UnknownInstance, check, connected_instances,
                               reachable)
from deladas.model import Channel, Configuration, Instance, InstanceId


class TestCheckExamples:
    def test_example_configuration_satisfies_goal(self):
        doc = helpers.merged_doc()
        result = check(helpers.example_configuration(),
                       doc.constraintset("randc"), doc)
        assert result.satisfied
        assert result.violations == ()

    def test_empty_placement_violates_first_clause(self):
        doc = helpers.merged_doc()
        empty = model.empty_on(doc.hosts)
        result = check(empty, doc.constraintset("randc"), doc)
        assert not result.satisfied
        assert [v.index for v in result.violations] == [0]
        witness = dict(result.violations[0].witness)
        assert witness["h"] == HostBinding("h1")

    def test_three_clients_on_one_router(self):
        doc = helpers.merged_doc()
        cfg = helpers.example_configuration()
        # Re-wire h6's client to Router@h3, giving it three clients.
        channels = [ch for ch in cfg.channels
                    if "Client@h6#0" not in (str(ch.src.instance),
                                             str(ch.dst.instance))]
        channels += helpers.client_router_pair("Client@h6#0", "Router@h3#0", 2)
        crowded = Configuration.build(cfg.hosts, cfg.instances, channels)
        assert model.validate(crowded, doc) == []
        result = check(crowded, doc.constraintset("randc"), doc)
        assert [v.index for v in result.violations] == [2]
        witness = dict(result.violations[0].witness)
        assert witness["r"] == InstanceBinding(InstanceId("Router", "h3", 0))

    def test_determinism(self):
        doc = helpers.merged_doc()
        empty = model.empty_on(doc.hosts)
        first = check(empty, doc.constraintset("randc"), doc)
        second = check(empty, doc.constraintset("randc"), doc)
        assert first == second

    def test_check_leaves_no_reference_cycles(self):
        """Everything a check allocates is freed by reference counting, so
        the configuration's context does not wait for the cycle collector."""
        doc = helpers.merged_doc()
        cs = doc.constraintset("randc")
        for config in (helpers.example_configuration(),
                       model.empty_on(doc.hosts)):
            gc.collect()
            gc.disable()
            try:
                check(config, cs, doc)
                assert gc.collect() == 0
            finally:
                gc.enable()

    # Digest of every CheckResult below, recorded before the context counted
    # instances per type and host once per check.
    RESULTS_DIGEST = "8676a1597c67f615"

    def test_results_and_witnesses_are_pinned(self):
        """Whole results, violations and witnesses included, of random goals
        on generator configurations, a third of them broken in one way."""
        rng = helpers.rng(137)
        randc = helpers.merged_doc()
        lines, violated = [], 0
        for n in range(200):
            doc = randc if n % 4 == 0 else generators.gen_document(rng)
            if not doc.constraintsets:
                continue
            cs = doc.constraintsets[0]
            for _ in range(3):
                cfg = generators.gen_configuration(rng, doc, max_channels=10)
                if rng.random() < 0.3:
                    cfg = generators.break_configuration(
                        rng, cfg, doc, rng.choice(generators.BREAKS))
                result = check(cfg, cs, doc)
                lines.append(repr(result))
                violated += len(result.violations)
        assert len(lines) >= 400 and violated >= 300
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == self.RESULTS_DIGEST

    def test_ordering_on_instances_is_a_type_error(self):
        doc = helpers.merged_doc()
        cs = lang.ConstraintSet("broken", (
            lang.Quantified("forall",
                            (lang.Binder("a", "Client"), lang.Binder("b", "Client")),
                            lang.Compare("<=", lang.Var("a"), lang.Var("b"))),))
        with pytest.raises(EvalTypeError):
            check(helpers.example_configuration(), cs, doc)


class TestReachable:
    def test_reflexive(self):
        cfg = helpers.example_configuration()
        for iid in cfg.instance_ids():
            assert reachable(cfg, iid, iid)

    def test_mutual_pair(self):
        cfg = helpers.example_configuration()
        r3 = InstanceId("Router", "h3", 0)
        r4 = InstanceId("Router", "h4", 0)
        assert reachable(cfg, r3, r4)
        assert reachable(cfg, r4, r3)

    def test_one_way_channel(self):
        doc = helpers.merged_doc()
        instances = [Instance(InstanceId("Router", "h1", 0), "Router"),
                     Instance(InstanceId("Router", "h2", 0), "Router")]
        cfg = Configuration.build(
            doc.hosts, instances,
            [helpers.chan("Router@h1#0:rout[0]", "Router@h2#0:rin[0]")])
        assert reachable(cfg, instances[0].id, instances[1].id)
        assert not reachable(cfg, instances[1].id, instances[0].id)

    def test_unknown_instance(self):
        cfg = helpers.example_configuration()
        with pytest.raises(UnknownInstance):
            reachable(cfg, InstanceId("Router", "h9", 0), cfg.instance_ids()[0])

    def test_against_transitive_closure_oracle(self):
        rng = helpers.rng(23)
        for _ in range(200):
            cfg = generators.gen_digraph_config(rng)
            ids = cfg.instance_ids()
            closure = _closure(cfg)
            for a in ids:
                for b in ids:
                    assert reachable(cfg, a, b) == closure[(a, b)]


def _closure(cfg):
    """Brute-force reflexive-transitive closure by repeated expansion."""
    ids = cfg.instance_ids()
    reach = {(a, b): a == b for a in ids for b in ids}
    for ch in cfg.channels:
        reach[(ch.src.instance, ch.dst.instance)] = True
    changed = True
    while changed:
        changed = False
        for a in ids:
            for b in ids:
                if reach[(a, b)]:
                    continue
                if any(reach[(a, m)] and reach[(m, b)] for m in ids):
                    reach[(a, b)] = True
                    changed = True
    return reach


class TestConnected:
    def test_example_router_neighbours(self):
        cfg = helpers.example_configuration()
        got = connected_instances(cfg, InstanceId("Router", "h3", 0))
        assert got == {InstanceId("Client", "h1", 0),
                       InstanceId("Client", "h5", 0),
                       InstanceId("Router", "h4", 0)}

    def test_isolated_instance(self):
        doc = helpers.merged_doc()
        cfg = Configuration.build(
            doc.hosts, [Instance(InstanceId("Client", "h1", 0), "Client")], [])
        assert connected_instances(cfg, InstanceId("Client", "h1", 0)) == set()

    def test_paired_channels_count_one_neighbour(self):
        cfg = helpers.example_configuration()
        got = connected_instances(cfg, InstanceId("Client", "h1", 0))
        assert got == {InstanceId("Router", "h3", 0)}

    def test_unknown_instance(self):
        with pytest.raises(UnknownInstance):
            connected_instances(helpers.example_configuration(),
                                InstanceId("Client", "h9", 0))


class TestMonotonicity:
    def test_adding_channels_preserves_connectsto(self):
        """A satisfied connectsto leaf stays satisfied under channel growth."""
        rng = helpers.rng(5)
        doc = helpers.merged_doc()
        cfg = helpers.example_configuration()
        leaves = [("Client@h1#0", "out", "Router@h3#0", "cin"),
                  ("Client@h1#0", "in", "Router@h3#0", "cout"),
                  ("Router@h3#0", "rout", "Router@h4#0", "rin")]
        for _ in range(30):
            grown = _add_random_channel(rng, cfg, doc)
            for p, a, q, b in leaves:
                assert _connects(grown, p, a, q, b)
            cfg = grown

    def test_random_leaf_monotonicity(self):
        rng = helpers.rng(6)
        doc = helpers.merged_doc()
        for _ in range(40):
            cfg = generators.gen_configuration(rng, doc, max_per_pair=1,
                                               max_channels=4)
            satisfied = [(str(ch.src.instance), ch.src.port,
                          str(ch.dst.instance), ch.dst.port)
                         for ch in cfg.channels]
            grown = _add_random_channel(rng, cfg, doc)
            for leaf in satisfied:
                assert _connects(grown, *leaf)


def _connects(cfg, p, a, q, b):
    pi, qi = InstanceId.parse(p), InstanceId.parse(q)
    for ch in cfg.channels:
        fam = (ch.src.instance, ch.src.port, ch.dst.instance, ch.dst.port)
        if fam in ((pi, a, qi, b), (qi, b, pi, a)):
            return True
    return False


def _add_random_channel(rng, cfg, doc):
    instances = list(cfg.instances)
    for _ in range(20):
        a, b = rng.sample(instances, 2)
        at = doc.component(a.type)
        bt = doc.component(b.type)
        pa = rng.choice(at.ports)
        pb = rng.choice(bt.ports)
        if not (pa.variadic and pb.variadic):
            continue
        def next_idx(inst, port):
            return 1 + max((s.index for ch in cfg.channels
                            for s in (ch.src, ch.dst)
                            if s.instance == inst.id and s.port == port.name),
                           default=-1)
        ch = Channel(model.PortSlot(a.id, pa.name, next_idx(a, pa)),
                     model.PortSlot(b.id, pb.name, next_idx(b, pb)))
        return Configuration.build(cfg.hosts, cfg.instances, cfg.channels + (ch,))
    return cfg


class TestDeMorgan:
    """A violated forall corresponds to a satisfied exists-of-negation,
    judged by an independent negation-pushing evaluator."""

    def test_forall_violation_iff_negated_exists(self):
        rng = helpers.rng(9)
        doc = helpers.merged_doc()
        cs_candidates = []
        for _ in range(60):
            constraint = generators.gen_constraint(rng, list(doc.components))
            if isinstance(constraint, lang.Quantified) and constraint.kind == "forall":
                cs_candidates.append(constraint)
        assert len(cs_candidates) >= 10
        for constraint in cs_candidates:
            cfg = generators.gen_configuration(rng, doc, max_per_pair=1,
                                               max_channels=5)
            cs = lang.ConstraintSet("t", (constraint,))
            try:
                violated = not check(cfg, cs, doc).satisfied
            except EvalTypeError:
                continue
            negated = lang.Quantified("exists", constraint.binders,
                                      _negate(constraint.body))
            assert violated == _simple_eval(negated, {}, cfg)


def _negate(expr):
    if isinstance(expr, lang.Quantified):
        kind = "exists" if expr.kind == "forall" else "forall"
        return lang.Quantified(kind, expr.binders, _negate(expr.body))
    if isinstance(expr, lang.And):
        return lang.Or(tuple(_negate(e) for e in expr.items))
    if isinstance(expr, lang.Or):
        return lang.And(tuple(_negate(e) for e in expr.items))
    if isinstance(expr, lang.Compare):
        flip = {"=": "!=", "!=": "=", "<=": ">", ">": "<=", "<": ">=", ">=": "<"}
        return lang.Compare(flip[expr.op], expr.lhs, expr.rhs)
    return ("not", expr)


def _simple_eval(expr, env, cfg):
    """Small independent evaluator supporting ('not', leaf) nodes."""
    if type(expr) is tuple:  # AST records are tuples too
        return not _simple_eval(expr[1], env, cfg)
    if isinstance(expr, lang.Quantified):
        ranges = []
        for b in expr.binders:
            if b.sort == lang.HOST_SORT:
                ranges.append([("host", h.name) for h in cfg.hosts])
            else:
                ranges.append([("inst", i.id) for i in cfg.instances
                               if i.type == b.sort])
        import itertools
        combos = itertools.product(*ranges)
        results = []
        for combo in combos:
            env2 = dict(env)
            env2.update(zip([b.var for b in expr.binders], combo))
            results.append(_simple_eval(expr.body, env2, cfg))
        return all(results) if expr.kind == "forall" else any(results)
    if isinstance(expr, lang.And):
        return all(_simple_eval(e, env, cfg) for e in expr.items)
    if isinstance(expr, lang.Or):
        return any(_simple_eval(e, env, cfg) for e in expr.items)
    if isinstance(expr, lang.Compare):
        lhs = _simple_value(expr.lhs, env, cfg)
        rhs = _simple_value(expr.rhs, env, cfg)
        import operator
        ops = {"=": operator.eq, "!=": operator.ne, "<=": operator.le,
               ">=": operator.ge, "<": operator.lt, ">": operator.gt}
        return ops[expr.op](lhs, rhs)
    if isinstance(expr, lang.ConnectsTo):
        return _connects(cfg, str(env[expr.src.var][1]), expr.src.port,
                         str(env[expr.dst.var][1]), expr.dst.port)
    if isinstance(expr, lang.Reachable):
        closure = _closure(cfg)
        return closure[(env[expr.a][1], env[expr.b][1])]
    raise AssertionError(expr)


def _simple_value(value, env, cfg):
    if isinstance(value, lang.IntLiteral):
        return value.value
    if isinstance(value, lang.Var):
        return env[value.name]
    inner = value.inner
    if isinstance(inner, lang.InstancesOf):
        host = env[inner.host_var][1]
        return sum(1 for i in cfg.instances
                   if i.type == inner.type_name and i.id.host == host)
    peer = env[inner.peer_var][1]
    neighbours = set()
    for ch in cfg.channels:
        if ch.src.instance == peer:
            neighbours.add(ch.dst.instance)
        if ch.dst.instance == peer:
            neighbours.add(ch.src.instance)
    neighbours.discard(peer)
    return sum(1 for i in cfg.instances
               if i.type == inner.type_name and i.id in neighbours)


def _nested(kind: str, levels: int, leaf: str) -> lang.SpecDocument:
    """levels nested `kind host hI` around leaf, on hosts m0 and m1."""
    head = "".join(f"{kind} host h{i} in deployment ( " for i in range(levels))
    return lang.parse('component A(code = "a", ports = {p})\n'
                      'host m0 = host(ipaddress = "1")\n'
                      'host m1 = host(ipaddress = "2")\n'
                      "constraintset goal = constraintset {\n"
                      + head + leaf + " )" * levels + "\n}\n")


def _a_on(doc, host: str) -> Configuration:
    return Configuration.build(doc.hosts, [Instance(InstanceId("A", host, 0), "A")],
                               [])


class _FullProduct(evaluator._Context):
    """Tries every value of every binder, as check did before it dropped
    the binders a body does not mention."""

    def free_in_body(self, expr):
        return {b.var for b in expr.binders}


class TestMiniscoping:
    """A binder the body does not mention is tried at its first value only.
    99 nested quantifiers on 2 hosts would otherwise walk 2**98 assignments
    before reaching h0 = m1."""

    def test_nested_exists_around_the_outermost_host(self):
        doc = _nested("exists", 99, "card(instancesof A in h0) = 1")
        cs = doc.constraintset("goal")
        assert check(_a_on(doc, "m1"), cs, doc).satisfied
        result = check(model.empty_on(doc.hosts), cs, doc)
        assert [(v.index, v.witness) for v in result.violations] == [(0, ())]

    def test_nested_forall_witness_binds_every_binder_in_order(self):
        doc = _nested("forall", 99, "card(instancesof A in h0) = 0")
        result = check(_a_on(doc, "m1"), doc.constraintset("goal"), doc)
        witness = result.violations[0].witness
        assert [var for var, _ in witness] == [f"h{i}" for i in range(99)]
        assert [str(val) for _, val in witness] == ["m1"] + ["m0"] * 98

    @pytest.mark.parametrize("kind, body, value", [
        ("forall", "1 = 2", True), ("exists", "1 = 1", False)])
    def test_an_unmentioned_binder_over_nothing_is_vacuous(self, kind, body,
                                                           value):
        doc = lang.parse('component A(code = "a", ports = {p})\n'
                         'host m0 = host(ipaddress = "1")\n'
                         "constraintset goal = constraintset {\n"
                         f"  {kind} A a in deployment ( {body} ) }}\n")
        empty = model.empty_on(doc.hosts)
        assert check(empty, doc.constraintset("goal"), doc).satisfied is value

    def test_verdicts_and_witnesses_match_the_full_product(self):
        rng = helpers.rng(83)
        compared = violated = 0
        for _ in range(60):
            doc = generators.gen_document(rng)
            if not doc.constraintsets:
                continue
            for _ in range(3):
                cfg = generators.gen_configuration(rng, doc, max_per_pair=2,
                                                   max_channels=6)
                for constraint in doc.constraintsets[0].constraints:
                    got = evaluator._eval(constraint, {},
                                          evaluator._Context(cfg, doc))
                    want = evaluator._eval(constraint, {},
                                           _FullProduct(cfg, doc))
                    assert got[0] == want[0]
                    assert list(got[1].items()) == list(want[1].items())
                    compared += 1
                    violated += not got[0]
        assert compared >= 150 and violated >= 50
