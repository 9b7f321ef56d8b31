import gc
import hashlib
import itertools
import sys
from collections import Counter

import pytest

import generators
import helpers
from deladas import ddd, evaluator, lang, model, solver
from deladas.model import Binding
from deladas.solver import (BoundsError, NoSolution, SearchBudgetExceeded,
                            SolveOptions, SpaceTooLarge, UnknownConstraintSet,
                            enumerate_all, resolve_with_relaxation, solve)

CONTRADICTION = """
component Router(code = "u", ports = {rin[], rout[]})
host a = host(ipaddress = "1")
host b = host(ipaddress = "2")
constraintset goal = constraintset {
  forall host h in deployment (
    card(instancesof Router in h) = 1
    card(instancesof Router in h) = 0
  )
}
"""


def _ids_of(placement, edge):
    """A candidate channel of a placement in instance ids."""
    return (placement.ids[edge.src], edge.src_port,
            placement.ids[edge.dst], edge.dst_port)


class TestSolveBasics:
    def test_example_goal_has_a_solution(self):
        doc = helpers.merged_doc()
        out = solve(doc, "randc")
        assert len(out.solutions) == 1
        result = evaluator.check(out.solutions[0], doc.constraintset("randc"), doc)
        assert result.satisfied
        assert model.validate(out.solutions[0], doc) == []

    def test_pins_force_the_example_placements(self):
        doc = helpers.merged_doc()
        pins = (Binding("Router", "h3", 1), Binding("Router", "h4", 1))
        out = solve(doc, "randc", SolveOptions(pins=pins))
        assert [str(b) for b in model.bindings_of(out.solutions[0])] == [
            "Client@h1x1", "Client@h2x1", "Router@h3x1", "Router@h4x1",
            "Client@h5x1", "Client@h6x1"]

    def test_contradiction_is_exhausted_and_empty(self):
        doc = lang.parse(CONTRADICTION)
        out = solve(doc, "goal", SolveOptions(solution_limit=5))
        assert out.solutions == ()
        assert out.exhausted

    def test_unknown_constraintset(self):
        with pytest.raises(UnknownConstraintSet):
            solve(helpers.merged_doc(), "nope")

    def test_zero_bounds_rejected(self):
        doc = helpers.merged_doc()
        with pytest.raises(BoundsError):
            solve(doc, "randc", SolveOptions(max_instances_per_host=0))
        with pytest.raises(BoundsError):
            solve(doc, "randc", SolveOptions(solution_limit=0))
        with pytest.raises(BoundsError):
            solve(doc, "randc", SolveOptions(max_total_instances=0))

    def test_pins_must_reference_declared_resources(self):
        doc = helpers.merged_doc()
        with pytest.raises(lang.ValidationError):
            solve(doc, "randc", SolveOptions(pins=(Binding("Router", "h9", 1),)))
        with pytest.raises(lang.ValidationError):
            solve(doc, "randc", SolveOptions(pins=(Binding("Widget", "h1", 1),)))

    def test_node_budget_reports_not_exhausted(self):
        doc = helpers.merged_doc()
        out = solve(doc, "randc", SolveOptions(node_budget=10))
        assert not out.exhausted
        assert out.solutions == ()

    def test_node_budget_stops_at_the_first_node_past_it(self):
        """Whichever phase the budget runs out in, and however many nodes
        the other phase has visited, the search stops at node budget + 1
        with the solutions found before it."""
        doc = helpers.randc_doc(4)
        opts = SolveOptions(solution_limit=30)  # over 16 placement nodes
        full = solve(doc, "randc", opts)
        for budget in range(full.stats.nodes):
            out = solve(doc, "randc", opts._replace(node_budget=budget))
            assert out.stats.nodes == budget + 1 and not out.exhausted
            assert out.solutions == full.solutions[:len(out.solutions)]

    @pytest.mark.parametrize("kind, solutions, nodes", [
        ("exists", 0, (0, 1)), ("forall", 1, (0, 1))])
    def test_no_hosts(self, kind, solutions, nodes):
        """With no host to place on, the host clauses are decided at the
        root of the wiring phase: exists fails and forall holds."""
        doc = lang.parse('component A(code = "a", ports = {p})\n'
                         "constraintset goal = constraintset {\n"
                         f"  {kind} host h in deployment ( "
                         "card(instancesof A in h) = 0 ) }\n")
        out = solve(doc, "goal", SolveOptions(solution_limit=2))
        assert len(out.solutions) == solutions and out.exhausted
        assert (out.stats.placement_nodes, out.stats.wiring_nodes) == nodes

    def test_prior_channels_are_replayed(self):
        doc = helpers.merged_doc()
        example = helpers.example_configuration()
        out = solve(doc, "randc",
                    SolveOptions(pins=tuple(model.bindings_of(example)), prior=example))
        assert out.solutions[0] == example


class TestOracleAgreement:
    def test_three_host_solution_sets_are_equal(self):
        doc3 = helpers.three_host_doc()
        oracle = enumerate_all(doc3, "randc")
        full = solve(doc3, "randc",
                     SolveOptions(solution_limit=len(oracle.solutions) + 1))
        assert full.exhausted
        assert set(full.solutions) == set(oracle.solutions)
        # solution_limit N3+1 returns exactly N3
        assert len(full.solutions) == len(oracle.solutions)

    def test_oracle_counts_placement_families(self):
        doc3 = helpers.three_host_doc()
        oracle = enumerate_all(doc3, "randc")
        placements = {tuple(str(i.id) for i in s.instances)
                      for s in oracle.solutions}
        # Two routers and one client (three rotations) or three routers.
        assert placements == {
            ("Client@h1#0", "Router@h2#0", "Router@h3#0"),
            ("Router@h1#0", "Client@h2#0", "Router@h3#0"),
            ("Router@h1#0", "Router@h2#0", "Client@h3#0"),
            ("Router@h1#0", "Router@h2#0", "Router@h3#0")}

    def test_oracle_walks_the_whole_placement_space(self):
        """Three hosts, two types, at most one instance per host: each host
        takes nothing, a Client or a Router, so 3**3 placements, including
        those the solver prunes for leaving a host empty. The goal is the
        sample's placement clause alone, so no placement has channels."""
        doc3 = helpers.three_host_doc()
        doc = lang.SpecDocument(doc3.components, doc3.hosts, (
            lang.ConstraintSet("hosts", doc3.constraintset("randc")
                               .constraints[:1]),))
        assert enumerate_all(doc, "hosts").stats.placement_nodes == 27
        pinned = enumerate_all(doc, "hosts", SolveOptions(
            pins=(Binding("Router", "h1", 1),)))
        assert pinned.stats.placement_nodes == 9

    def test_unsatisfiable_oracle(self):
        doc = lang.parse(CONTRADICTION)
        out = enumerate_all(doc, "goal")
        assert out.solutions == ()
        assert out.exhausted

    def test_oracle_guard_hosts_times_types(self):
        doc = helpers.merged_doc()
        seven = lang.SpecDocument(
            doc.components,
            doc.hosts + (lang.HostSpec("h7", (("ipaddress", "7"),)),),
            doc.constraintsets)
        with pytest.raises(SpaceTooLarge):
            enumerate_all(seven, "randc")

    def test_oracle_guard_candidates(self):
        # Six hosts and two types stay within hosts*types, but the worst
        # placement carries 30 candidate channels.
        with pytest.raises(SpaceTooLarge, match="candidates"):
            enumerate_all(helpers.merged_doc(), "randc")

    def test_example_configuration_is_in_the_bounded_space(self):
        """Membership in enumerate_all's solution set, shown via the oracle's
        own definition: the configuration lies inside the bounded space and
        satisfies the goal (direct enumeration at six hosts exceeds the
        oracle guards)."""
        doc = helpers.merged_doc()
        example = helpers.example_configuration()
        opts = SolveOptions()
        patterns = solver.connect_patterns(doc.constraintset("randc"))
        example_edges = {(ch.src.instance, ch.src.port, ch.dst.instance, ch.dst.port)
                     for ch in example.channels}
        placement = solver._Placement(
            doc, {(i.id.host, i.id.type): 1 for i in example.instances})
        allowed = {_ids_of(placement, e)
                   for e in solver._candidate_edges(placement, patterns)}
        assert example_edges <= allowed
        assert len(example.channels) <= len(example.instances) ** 2
        per_host = Counter(i.id.host for i in example.instances)
        assert max(per_host.values()) <= opts.max_instances_per_host
        assert evaluator.check(example, doc.constraintset("randc"), doc).satisfied

    def test_random_tiny_instances_agree_with_oracle(self):
        rng = helpers.rng(29)
        compared = 0
        for _ in range(40):
            doc = generators.gen_solver_instance(rng)
            try:
                oracle = enumerate_all(doc, "goal")
            except SpaceTooLarge:
                continue
            full = solve(doc, "goal",
                         SolveOptions(solution_limit=len(oracle.solutions) + 1))
            assert set(full.solutions) == set(oracle.solutions)
            compared += 1
        assert compared >= 20


class TestSoundness:
    def test_random_solutions_pass_the_evaluator(self):
        rng = helpers.rng(31)
        checked = 0
        for _ in range(150):
            doc = generators.gen_solver_instance(rng)
            out = solve(doc, "goal", SolveOptions(solution_limit=3))
            for config in out.solutions:
                assert model.validate(config, doc) == []
                assert evaluator.check(config, doc.constraintset("goal"),
                                       doc).satisfied
                assert all(b.count <= 1 for b in model.bindings_of(config))
                checked += 1
        assert checked >= 100

    def test_solutions_are_pairwise_distinct(self):
        doc3 = helpers.three_host_doc()
        out = solve(doc3, "randc", SolveOptions(solution_limit=50))
        assert len(set(out.solutions)) == len(out.solutions)

    def test_determinism_across_runs(self):
        doc = helpers.merged_doc()
        first = solve(doc, "randc", SolveOptions(solution_limit=3))
        second = solve(doc, "randc", SolveOptions(solution_limit=3))
        blobs1 = [ddd.to_xml(s, doc, "randc") for s in first.solutions]
        blobs2 = [ddd.to_xml(s, doc, "randc") for s in second.solutions]
        assert blobs1 == blobs2

    def test_pins_are_floors(self):
        rng = helpers.rng(37)
        satisfied = 0
        for _ in range(40):
            doc = generators.gen_solver_instance(rng)
            types = [c.name for c in doc.components]
            pins = (Binding(rng.choice(types), doc.hosts[0].name, 1),)
            out = solve(doc, "goal", SolveOptions(pins=pins, solution_limit=2))
            for config in out.solutions:
                bindings = {(b.type, b.host): b.count
                            for b in model.bindings_of(config)}
                for pin in pins:
                    assert bindings.get((pin.type, pin.host), 0) >= pin.count
                satisfied += 1
        assert satisfied >= 5


class TestRelaxation:
    def test_consistent_pins_remove_nothing(self):
        doc = helpers.merged_doc()
        example = helpers.example_configuration()
        config, removed = resolve_with_relaxation(
            doc, "randc", model.bindings_of(example), SolveOptions(prior=example))
        assert removed == []
        assert config == example

    def test_host_failure_narrative(self):
        """Losing h3 from the example deployment removes exactly one pin: the
        first client host in canonical order is re-purposed as a router."""
        doc = helpers.merged_doc()
        example = helpers.example_configuration()
        doc5 = lang.SpecDocument(
            doc.components,
            tuple(h for h in doc.hosts if h.name != "h3"),
            doc.constraintsets)
        surviving = model.restrict_to_hosts(example, {h.name for h in doc5.hosts})
        pins = model.bindings_of(surviving)
        config, removed = resolve_with_relaxation(
            doc5, "randc", pins, SolveOptions(prior=surviving))
        assert [str(b) for b in removed] == ["Client@h1x1"]
        counts = {}
        for b in model.bindings_of(config):
            counts[b.type] = counts.get(b.type, 0) + b.count
        assert counts == {"Router": 2, "Client": 3}
        assert evaluator.check(config, doc5.constraintset("randc"),
                               doc5).satisfied

    def test_host_failure_minimality_against_oracle(self):
        """The brute-force oracle confirms no solution keeps all five pins."""
        doc = helpers.merged_doc()
        example = helpers.example_configuration()
        doc5 = lang.SpecDocument(
            doc.components,
            tuple(h for h in doc.hosts if h.name != "h3"),
            doc.constraintsets)
        surviving = model.restrict_to_hosts(example, {h.name for h in doc5.hosts})
        pins = model.bindings_of(surviving)
        oracle = enumerate_all(doc5, "randc", SolveOptions(pins=tuple(pins)))
        assert oracle.exhausted
        assert oracle.solutions == ()

    def test_budget_hit_is_unknown_not_unsatisfiable(self):
        """With a node budget too small to decide even the all-pins solve,
        relaxation must not go on to drop pins."""
        doc = helpers.merged_doc()
        example = helpers.example_configuration()
        doc5 = lang.SpecDocument(
            doc.components,
            tuple(h for h in doc.hosts if h.name != "h3"),
            doc.constraintsets)
        surviving = model.restrict_to_hosts(example, {h.name for h in doc5.hosts})
        with pytest.raises(SearchBudgetExceeded, match="unknown"):
            resolve_with_relaxation(
                doc5, "randc", model.bindings_of(surviving),
                SolveOptions(prior=surviving, node_budget=5))

    def test_unsatisfiable_raises_no_solution(self):
        doc = lang.parse(CONTRADICTION)
        with pytest.raises(NoSolution):
            resolve_with_relaxation(doc, "goal", [])

    def test_pin_dominance_against_oracle(self):
        """Relaxation never removes k pins when fewer removals would admit a
        solution, judged against exhaustive enumeration."""
        import itertools
        rng = helpers.rng(41)
        examined = 0
        for _ in range(30):
            doc = generators.gen_solver_instance(rng)
            try:
                oracle = enumerate_all(doc, "goal")
            except SpaceTooLarge:
                continue
            types = [c.name for c in doc.components]
            pins = sorted(
                {Binding(rng.choice(types), h.name, 1)
                 for h in rng.sample(list(doc.hosts), min(2, len(doc.hosts)))},
                key=lambda b: model.binding_sort_key(b, doc))
            all_bindings = [
                {(b.type, b.host): b.count for b in model.bindings_of(s)}
                for s in oracle.solutions]

            def dominated(kept):
                return any(all(bs.get((p.type, p.host), 0) >= p.count
                               for p in kept) for bs in all_bindings)

            try:
                _, removed = resolve_with_relaxation(doc, "goal", pins)
                k = len(removed)
            except NoSolution:
                k = len(pins) + 1
            for smaller in range(min(k, len(pins) + 1)):
                for combo in itertools.combinations(pins, len(pins) - smaller):
                    assert not dominated(combo), (pins, k, combo)
            examined += 1
        assert examined >= 10


ROUTER_RING = """
component Router(code = "u", ports = {rin[], rout[]})
host h1 = host(ipaddress = "1")
host h2 = host(ipaddress = "2")
constraintset ring = constraintset {
  forall host h in deployment ( card(instancesof Router in h) = 1 )
  forall Router r1 in deployment (
    exists Router r2 in deployment (
      r1.rout connectsto r2.rin
      r1.rin connectsto r2.rout
      r1 != r2
    )
  )
}
"""


class TestRouterRing:
    """Two hosts, one router each, mutually wired: the oracle's solutions are
    exactly the ring wirings (9 by hand: each direction of the pairing is
    served by either orientation of its two candidate channels), and solve
    returns a subset of them."""

    def test_oracle_matches_hand_count(self):
        doc = lang.parse(ROUTER_RING)
        oracle = enumerate_all(doc, "ring")
        assert len(oracle.solutions) == 9
        assert {tuple(str(i.id) for i in s.instances)
                for s in oracle.solutions} == {("Router@h1#0", "Router@h2#0")}
        mutual = {("Router@h1#0:rout[0]", "Router@h2#0:rin[0]"),
                  ("Router@h2#0:rout[0]", "Router@h1#0:rin[0]")}
        assert any({(str(c.src), str(c.dst)) for c in s.channels} == mutual
                   for s in oracle.solutions)

    def test_solve_returns_a_subset(self):
        doc = lang.parse(ROUTER_RING)
        oracle = enumerate_all(doc, "ring")
        out = solve(doc, "ring", SolveOptions(solution_limit=3))
        assert set(out.solutions) <= set(oracle.solutions)

    def test_solution_counts_respect_the_per_host_bound(self):
        doc = lang.parse(ROUTER_RING)
        for config in enumerate_all(doc, "ring").solutions:
            for binding in model.bindings_of(config):
                assert binding.count <= 1


class TestEnumerationBudget:
    def test_channel_budget_prunes_solutions(self):
        doc3 = helpers.three_host_doc()
        tight = enumerate_all(doc3, "randc", SolveOptions(channel_budget=4))
        loose = enumerate_all(doc3, "randc")
        assert set(tight.solutions) <= set(loose.solutions)
        assert all(len(s.channels) <= 4 for s in tight.solutions)
        full = solve(doc3, "randc",
                     SolveOptions(channel_budget=4,
                                  solution_limit=len(loose.solutions) + 1))
        assert set(full.solutions) == set(tight.solutions)


def _sequence_digest(doc, cs_name: str, outcome) -> str:
    """SHA-256 prefix of the ordered solution DDDs and the exhausted flag."""
    blob = b"\0".join([ddd.to_xml(s, doc, cs_name) for s in outcome.solutions]
                      + [str(outcome.exhausted).encode()])
    return hashlib.sha256(blob).hexdigest()[:16]


def _generated_digests(seed: int = 53, documents: int = 30) -> list[str]:
    """One digest per generated document over four solves: plain, pinned,
    with a prior, and pinned with a prior. The prior is the plain solve's
    last solution, so the prior-first channel order is exercised."""
    rng = helpers.rng(seed)
    out = []
    for _ in range(documents):
        doc = generators.gen_solver_instance(rng)
        types = [c.name for c in doc.components]
        pin = (Binding(rng.choice(types), rng.choice(doc.hosts).name, 1),)
        plain = solve(doc, "goal", SolveOptions(solution_limit=4))
        prior = plain.solutions[-1] if plain.solutions else None
        parts = [_sequence_digest(doc, "goal", plain)]
        for pins, pri in ((pin, None), ((), prior), (pin, prior)):
            outcome = solve(doc, "goal", SolveOptions(
                solution_limit=4, pins=pins, prior=pri))
            parts.append(_sequence_digest(doc, "goal", outcome))
        out.append(hashlib.sha256(" ".join(parts).encode()).hexdigest()[:16])
    return out


class TestSolutionOrderLock:
    """The solution sequence recorded before the search was made to prune:
    pruning may only cut nodes, never change what the search returns."""

    RANDC_FIRST_TEN = {3: "1c4d1949ff00e249", 4: "1babf54fa66ad85c",
                       5: "de36b57c026638c8", 6: "3563b3b6753b9372"}

    GENERATED = [
        "eada81eea6edab7e", "95ee50f7f1dbb503", "038d5b6b46830e99", "7e8983810a0845c3",
        "d11b5b3ff655ce92", "7c4bb34845ba01ac", "47cd497ac696ec4d", "95ee50f7f1dbb503",
        "5fd9965295f53508", "bed9b48276d01562", "1c30c34f573a300f", "bed9b48276d01562",
        "3b887cc038647583", "9c50741624644834", "a9e549eed31c6f52", "e6ef3725c78d5662",
        "117e565ddbb88f8d", "99dfc86fb2e39172", "8aca64f8a98935c7", "f13ec2d8fbb183e0",
        "eada81eea6edab7e", "f5b3f3804198ca69", "693b9cbdc6e8053b", "3aad40c93c1b4b82",
        "0e8df090ec620b96", "321000444618effd", "02ada46769ca0e8a", "00f82f4fddcbbe5e",
        "49da7f30f53389ba", "9f57cfd8bf3f3d22",
    ]

    # (placement nodes, wiring nodes, bound cuts) of the first solution; the
    # search visited 130, 341, 957, 3279 and 8759 nodes at 4-8 hosts before
    # it pruned, and (13, 22), (15, 30), (17, 38), (29, 519) and (31, 531)
    # before it cut placements with derived cardinality bounds.
    RANDC_NODES = {4: (10, 19, 2), 5: (12, 27, 2), 6: (14, 35, 2),
                   7: (17, 53, 3), 8: (19, 65, 3), 10: (24, 103, 4),
                   12: (28, 135, 4), 16: (38, 251, 6)}

    # Ground items evaluated for the first solution, in both phases. The
    # router mesh clause is one strong-connectivity item; as one reachable
    # item per router it read 75, 110, 141, 260, 321, 595, 773 and 1877.
    RANDC_EVALUATIONS = {4: 64, 5: 94, 6: 120, 7: 182, 8: 227, 10: 355,
                         12: 465, 16: 863}

    def test_randc_first_ten_solutions(self):
        got = {}
        for hosts in self.RANDC_FIRST_TEN:
            doc = helpers.randc_doc(hosts)
            got[hosts] = _sequence_digest(
                doc, "randc", solve(doc, "randc", SolveOptions(solution_limit=10)))
        assert got == self.RANDC_FIRST_TEN

    # From ten hosts on, instance names no longer sort in host order
    # ("Client@h10#0" < "Client@h2#0"), and candidate channels are tried in
    # name order, whatever numbers the search gives the instances. Recorded
    # before the search numbered its instances.
    RANDC_FIRST_THREE = {10: "3120632491cc02ef", 11: "e17df555603ae15e",
                         12: "be7a91361e752d64"}

    def test_randc_first_three_solutions_past_nine_hosts(self):
        got = {}
        for hosts in self.RANDC_FIRST_THREE:
            doc = helpers.randc_doc(hosts)
            got[hosts] = _sequence_digest(
                doc, "randc", solve(doc, "randc", SolveOptions(solution_limit=3)))
        assert got == self.RANDC_FIRST_THREE

    def test_generated_documents(self):
        assert _generated_digests() == self.GENERATED

    # Solves of randc that prefer the channels of a prior solution (its 4th
    # and 8th): (nodes, sequence digest) of the first three solutions,
    # recorded before the search was flattened. They fail if the prior's
    # channels are no longer decided first.
    RANDC_PRIOR = {5: [(38, "b03a443155d3"), (32, "7faed09baab5")],
                   6: [(46, "67739f999662"), (38, "2539c7344fbe")],
                   7: [(57, "fdd2e9055547"), (57, "d8cc3c528773")],
                   8: [(65, "690bb064c02f"), (65, "9856b69163fc")]}

    def test_randc_prior_resolves(self):
        got = {}
        for hosts in self.RANDC_PRIOR:
            doc = helpers.randc_doc(hosts)
            sols = solve(doc, "randc", SolveOptions(solution_limit=8)).solutions
            got[hosts] = []
            for prior in (sols[3], sols[7]):
                out = solve(doc, "randc",
                            SolveOptions(solution_limit=3, prior=prior))
                got[hosts].append((out.stats.nodes, _sequence_digest(
                    doc, "randc", out)[:12]))
        assert got == self.RANDC_PRIOR

    def test_randc_node_counts(self):
        got, evaluations = {}, {}
        for hosts in self.RANDC_NODES:
            stats = solve(helpers.randc_doc(hosts), "randc").stats
            assert stats.nodes == stats.placement_nodes + stats.wiring_nodes
            got[hosts] = (stats.placement_nodes, stats.wiring_nodes,
                          stats.bound_cuts)
            evaluations[hosts] = stats.evaluations
        assert got == self.RANDC_NODES
        assert evaluations == self.RANDC_EVALUATIONS


class TestIncrementalWiringState:
    """add/remove and their undo keep an edge set's views equal to a rebuild
    from scratch, whatever order the moves come in. The edge set works on
    instance numbers; its views are compared in instance ids, mapped back
    through the placement."""

    @staticmethod
    def _rebuild(edges, status):
        """The views as a from-scratch pass over the decided statuses
        (1 included, -1 excluded, 0 open) of id-level edges computes them."""
        sure = {"families": set(), "adj": {}, "neigh": {}}
        possible = {"families": set(), "adj": {}, "neigh": {}}
        for edge, st in zip(edges, status):
            src, _, dst, _ = edge
            for views, member in ((possible, st != -1), (sure, st == 1)):
                if member:
                    views["families"].add(edge)
                    views["adj"].setdefault(src, set()).add(dst)
                    views["neigh"].setdefault(src, set()).add(dst)
                    views["neigh"].setdefault(dst, set()).add(src)
        for views in (sure, possible):
            neigh = views.pop("neigh")
            views["degree"] = dict(Counter(
                (u, v.type) for u, peers in neigh.items() for v in peers))
        return sure, possible

    @staticmethod
    def _views(edge_set, placement):
        ids = placement.ids
        return {"families": {_ids_of(placement, e) for e in edge_set.families},
                "adj": {ids[u]: {ids[v] for v in vs}
                        for u, vs in edge_set.adj.items() if vs},
                "degree": {(ids[u], t): n
                           for (u, t), n in edge_set.degree.items() if n}}

    def test_random_moves_match_a_rebuild(self):
        doc = helpers.merged_doc()
        cs = doc.constraintset("randc")
        placement = solver._Placement(
            doc, {(h.name, t): 1 for h, t in zip(
                doc.hosts, ["Client", "Router", "Router", "Client", "Router",
                            "Client"])})
        candidates = solver._candidate_edges(placement,
                                             solver.connect_patterns(cs))
        edges = [_ids_of(placement, e) for e in candidates]
        rng = helpers.rng(43)
        for _ in range(20):
            sure, possible = solver._EdgeSet(), solver._EdgeSet()
            sure.reset(placement.types)
            possible.reset(placement.types, candidates)
            status = [0] * len(candidates)
            order = rng.sample(range(len(candidates)), len(candidates))
            moves = []
            for i in order:
                if rng.random() < 0.5:
                    sure.add(candidates[i])
                    status[i] = 1
                else:
                    possible.remove(candidates[i])
                    status[i] = -1
                moves.append(i)
                want_sure, want_possible = self._rebuild(edges, status)
                assert self._views(sure, placement) == want_sure
                assert self._views(possible, placement) == want_possible
            for i in reversed(moves):
                if status[i] == 1:
                    sure.remove(candidates[i])
                else:
                    possible.add(candidates[i])
                status[i] = 0
                want_sure, want_possible = self._rebuild(edges, status)
                assert self._views(sure, placement) == want_sure
                assert self._views(possible, placement) == want_possible


MESH_RESOURCES = ('component A(code = "a", ports = {in, out})\n'
                  'component B(code = "b", ports = {feed[], back[], tie[]})\n'
                  + "".join(f'host m{i} = host(ipaddress = "{i}")\n'
                            for i in range(5)))

# Candidate channels between B instances, and from A to B and back, so
# that paths between B instances may pass through A instances.
MESH_LINKS = ("forall B x in deployment ( exists B y in deployment ( "
              "x.tie connectsto y.tie ) )\n"
              "forall A x in deployment ( exists B y in deployment ( "
              "x.out connectsto y.feed y.back connectsto x.in ) )\n")


def _mesh_search(body: str):
    doc = helpers.parse_snippet(
        MESH_RESOURCES + "constraintset goal = constraintset {\n"
        + MESH_LINKS + f"forall B b1, b2 in deployment ( {body} )\n}}\n")
    return _compiled_search(doc)


def _pairwise(view, members):
    """The conjunction of one reachable item per ordered pair of members,
    each True on a sure path, else None on a possible path, else False."""
    value = True
    for u, v in itertools.product(members, repeat=2):
        if evaluator.has_path(view.sure.adj, u, v):
            continue
        if not evaluator.has_path(view.possible.adj, u, v):
            return False
        value = None
    return value


class TestStrongConnectivity:
    """`forall T a, b in deployment ( reachable(a, b) )` is one item: every
    T instance in one strongly connected component of the sure edges (True)
    or of the possible edges (None), else False. It must take the values
    of the per-pair items it replaces on every partial wiring state."""

    @pytest.mark.parametrize("body", ["reachable(b1, b2)", "reachable(b2, b1)"])
    def test_random_moves_match_the_per_pair_items(self, body):
        search = _mesh_search(body)
        view, mesh = search.view, search.clauses[-1]
        assert (mesh.sort, mesh.anchored) == (None, False)
        rng = helpers.rng(101)
        sizes, values = Counter(), Counter()
        for n in range(120):
            # n % 5 B instances over the hosts, and an A on some hosts.
            b_hosts = rng.sample(range(5), n % 5)
            placement = solver._Placement(search.doc, {
                (f"m{h}", t): 1 for h in range(5)
                for t, on in (("A", rng.random() < 0.4), ("B", h in b_hosts))
                if on})
            candidates = solver._candidate_edges(placement, search.patterns)
            view.place(placement, candidates)
            members = view.members["B"]
            status = [0] * len(candidates)
            moves = rng.sample(range(len(candidates)), len(candidates))
            exclude = rng.random()
            for i in [None] + moves:
                if i is not None:
                    roll = rng.random()
                    new = -1 if roll < exclude else 1 if roll < 0.9 else 0
                    _set_status((view.sure, view.possible), candidates[i],
                                status[i], new)
                    status[i] = new
                got = mesh.body()
                assert got is _pairwise(view, members)
                sizes[min(len(members), 3)] += 1
                values[got] += 1
            for i in reversed(moves):
                _set_status((view.sure, view.possible), candidates[i],
                            status[i], 0)
                status[i] = 0
                assert mesh.body() is _pairwise(view, members)
        assert min(sizes[n] for n in range(4)) >= 20
        assert min(values[v] for v in (True, None, False)) >= 100

    @pytest.mark.parametrize("clause, sort", [
        ("forall B b1, b2, b3 in deployment ( reachable(b1, b2) )", "B"),
        ("forall B b1, b2 in deployment ( reachable(b1, b1) )", "B"),
        ("forall A a, B b in deployment ( reachable(a, b) )", "A"),
        ("forall B b1, b2 in deployment ( reachable(b1, b2) or b1 = b2 )",
         "B"),
        ("forall B b1, b2 in deployment ( reachable(b1, b2) ) or 1 = 2",
         None),
        ("exists B b1, b2 in deployment ( reachable(b1, b2) )", None),
        ("forall B b1 in deployment ( forall B b2 in deployment ( "
         "reachable(b1, b2) ) )", "B"),
    ])
    def test_other_shapes_compile_as_before(self, clause, sort):
        doc = helpers.parse_snippet(
            MESH_RESOURCES + "constraintset goal = constraintset {\n"
            + clause + "\n}\n")
        (got,) = _compiled_search(doc).clauses
        assert (got.sort, got.anchored) == (sort, False)
        assert got.body.__name__ != "strongly_connected"

    @pytest.mark.parametrize("body", ["reachable(b1, b2)", "reachable(b2, b1)"])
    def test_the_shape_compiles_to_one_item(self, body):
        mesh = _mesh_search(body).clauses[-1]
        assert mesh.body.__name__ == "strongly_connected"


def _random_documents(seed: int, count: int):
    """(doc, per-host bound, rng) from the two seeded solver generators and
    from the evaluator's random documents, whose first goal (if any) is
    renamed goal: nested and mixed quantifiers, every comparison."""
    rng = helpers.rng(seed)
    for n in range(count):
        if n % 3 == 1:
            yield generators.gen_bound_instance(rng) + (rng,)
            continue
        doc = generators.gen_document(rng) if n % 3 == 2 else None
        if doc is None or not doc.constraintsets:
            yield generators.gen_solver_instance(rng), 1, rng
            continue
        goal = lang.ConstraintSet("goal", doc.constraintsets[0].constraints)
        yield doc._replace(constraintsets=(goal,)), 1, rng


def _random_placement(rng, doc, per_host):
    types = [c.name for c in doc.components]
    counts = {}
    for h in doc.hosts:
        vector = rng.choice(solver._count_vectors(types, per_host, {}))
        counts.update({(h.name, t): n for t, n in zip(types, vector)})
    return solver._Placement(doc, counts)


def _compiled_search(doc, per_host=1):
    return solver._Search(doc, doc.constraintset("goal"), solver._check_options(
        doc, SolveOptions(max_instances_per_host=per_host)))


def _clause_value(search, index):
    """A clause's three-valued value as the fold of its ground items: False
    if one is False, else None if one is None, else True."""
    value = True
    for body, slot, v in search.clauses[index].items(search.view):
        search.env[slot] = v
        got = body()
        if got is False:
            return False
        if got is None:
            value = None
    return value


def _show(search, placement, possible, sure=()):
    """Load a placement into the search's view with the given edges."""
    search.view.place(placement, possible)
    for edge in sure:
        search.view.sure.add(edge)
    return [_clause_value(search, i) for i in range(len(search.clauses))]


def _verdicts(doc, placement, edges):
    """Per clause, whether evaluator.check finds it satisfied."""
    cs = doc.constraintset("goal")
    config = solver._materialize(doc, placement, edges)
    violated = {v.index for v in evaluator.check(config, cs, doc).violations}
    return [i not in violated for i in range(len(cs.constraints))]


class TestCompiledClauses:
    """The compiled three-valued clauses against evaluator.check, the
    independent oracle: exact on complete configurations, and a definite
    value on a partial state holds in every completion of it."""

    def test_complete_configurations_match_the_evaluator(self):
        compared = definite = 0
        for doc, per_host, rng in _random_documents(61, 120):
            search = _compiled_search(doc, per_host)
            for _ in range(4):
                placement = _random_placement(rng, doc, per_host)
                candidates = solver._candidate_edges(placement, search.patterns)
                chosen = [e for e in candidates if rng.random() < 0.4]
                got = _show(search, placement, chosen, chosen)
                assert got == _verdicts(doc, placement, chosen)
                compared += len(got)
                definite += sum(v is False for v in got)
        assert compared >= 800 and definite >= 300

    def test_definite_wiring_values_hold_in_every_completion(self):
        decided = 0
        for doc, per_host, rng in _random_documents(67, 150):
            search = _compiled_search(doc, per_host)
            placement = _random_placement(rng, doc, per_host)
            candidates = solver._candidate_edges(placement, search.patterns)
            status = [rng.choice((-1, 0, 1)) for _ in candidates]
            open_edges = [e for e, st in zip(candidates, status) if st == 0]
            if len(open_edges) > 7:
                continue
            sure = [e for e, st in zip(candidates, status) if st == 1]
            got = _show(search, placement,
                        [e for e, st in zip(candidates, status) if st != -1], sure)
            for mask in range(1 << len(open_edges)):
                extra = [e for i, e in enumerate(open_edges) if mask >> i & 1]
                verdicts = _verdicts(doc, placement, sure + extra)
                for value, verdict in zip(got, verdicts):
                    assert value is None or value == verdict
            decided += sum(v is not None for v in got)
        assert decided >= 250

    def test_definite_placement_values_hold_in_every_completion(self):
        """Hosts placed in order, the rest read as [pin floor, bound]."""
        decided = undecided = 0
        for doc, per_host, rng in _random_documents(71, 150):
            search = _compiled_search(doc, per_host)
            types = [c.name for c in doc.components]
            vectors = solver._count_vectors(types, per_host, {})
            full = _random_placement(rng, doc, per_host)
            placed = rng.randint(0, len(doc.hosts) - 1)
            search.view.place(full, [])
            for i in range(placed, len(doc.hosts)):
                for t in types:
                    search.view.lo[t][i], search.view.hi[t][i] = 0, per_host
            got = {i: _clause_value(search, i) for i in search.placement_clauses}
            for rest in itertools.product(vectors, repeat=len(doc.hosts) - placed):
                counts = dict(full.counts)
                for h, vector in zip(doc.hosts[placed:], rest):
                    counts.update({(h.name, t): n for t, n in zip(types, vector)})
                verdicts = _verdicts(doc, solver._Placement(doc, counts), [])
                for i, value in got.items():
                    assert value is None or value == verdicts[i]
            decided += sum(v is not None for v in got.values())
            undecided += sum(v is None for v in got.values())
        assert decided >= 30 and undecided >= 30

    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">", "=", "!="])
    def test_interval_comparisons_against_every_pair(self, op):
        """True when every pair of values in the two intervals compares
        true, False when none does, None otherwise."""
        holds = {"<=": int.__le__, "<": int.__lt__, ">=": int.__ge__,
                 ">": int.__gt__, "=": int.__eq__, "!=": int.__ne__}[op]
        intervals = [(lo, hi) for lo in range(4) for hi in range(lo, 4)]
        for (a, b), (c, d) in itertools.product(intervals, repeat=2):
            outcomes = {holds(x, y) for x in range(a, b + 1)
                        for y in range(c, d + 1)}
            want = outcomes.pop() if len(outcomes) == 1 else None
            assert solver._DECIDE[op](a, b, c, d) is want

    @pytest.mark.parametrize("kind, body, members, value", [
        ("forall", "1 = 2", 0, True), ("exists", "1 = 1", 0, False),
        ("forall", "1 = 2", 1, False), ("exists", "1 = 1", 1, True)])
    def test_a_dropped_binder_with_an_empty_range_is_vacuous(
            self, kind, body, members, value):
        """The body never mentions b, so b is dropped, but only while some
        B exists: over no B, forall holds and exists fails."""
        doc = helpers.parse_snippet(
            'component B(code = "b", ports = {p})\n'
            'host m0 = host(ipaddress = "1")\n'
            "constraintset goal = constraintset {\n"
            f"  {kind} B b in deployment ( {body} ) }}\n")
        search = _compiled_search(doc)
        placement = solver._Placement(doc, {("m0", "B"): members})
        assert _show(search, placement, []) == [value]


# Clauses, and the sort of the binder each is split on (None: not split)
# and whether its items are anchored.
ANCHOR_CASES = [
    ("forall host h in deployment ( card(instancesof A in h) = 1 )",
     "host", True),
    ("forall host h in deployment ( exists host g in deployment ( "
     "card(instancesof A in g) = 1 or g = h ) )", "host", False),
    ("forall host h in deployment ( exists host g in deployment ( "
     "card(instancesof A in h) = 1 or g = h ) )", "host", True),
    ("forall A a in deployment ( exists A b in deployment ( "
     "a.p connectsto b.q ) )", "A", True),
    ("forall A a in deployment ( exists A b, A c in deployment ( "
     "b.p connectsto c.q a != b ) )", "A", False),
    ("forall A a, A b in deployment ( b.p connectsto a.q )", "A", True),
    ("forall A a in deployment ( forall A b in deployment ( "
     "card(A v connectedto a) <= 1 ) )", "A", True),
    ("forall A a in deployment ( forall A b in deployment ( "
     "card(A v connectedto b) <= 1 or a = b ) )", "A", False),
    ("forall A a in deployment ( reachable(a, a) )", "A", False),
    ("forall A a in deployment ( exists host h in deployment ( "
     "card(instancesof A in h) = 2 or a.p connectsto a.q ) )", "A", True),
    ("forall host h in deployment ( exists A a in deployment ( "
     "a.p connectsto a.q or card(instancesof A in h) = 0 ) )", "host",
     False),
    ("forall A a in deployment ( 1 = 1 )", None, False),
    ("exists A a in deployment ( a.p connectsto a.q )", None, False),
]

ANCHOR_RESOURCES = ('component A(code = "a", ports = {p, q})\n'
                    + "".join(f'host m{i} = host(ipaddress = "{i}")\n'
                              for i in range(3)))


def _anchor_documents(seed: int, count: int):
    """(doc, per-host bound, rng) for a goal of all ANCHOR_CASES clauses,
    which has unanchored shapes the random goals seldom have."""
    doc = helpers.parse_snippet(
        ANCHOR_RESOURCES + "constraintset goal = constraintset {\n"
        + "\n".join(clause for clause, _, _ in ANCHOR_CASES) + "\n}\n")
    rng = helpers.rng(seed)
    for _ in range(count):
        yield doc, 2, rng


def _anchored_values(search, indices):
    """{(clause index, anchor): value} over the anchored clauses' items."""
    out = {}
    for index in indices:
        clause = search.clauses[index]
        if clause.anchored:
            for body, slot, v in clause.items(search.view):
                search.env[slot] = v
                out[(index, v)] = body()
    return out


def _set_status(edge_sets, edge, old: int, new: int) -> None:
    """Move an edge between included (1), open (0) and excluded (-1)."""
    sure, possible = edge_sets
    if old == 1:
        sure.remove(edge)
    if old == -1:
        possible.add(edge)
    if new == 1:
        sure.add(edge)
    if new == -1:
        possible.remove(edge)


class TestAnchors:
    """An item anchored on a host reads only that host's counts while
    placing; one anchored on an instance reads only the channels at that
    instance while wiring. Any other host or channel may change under it."""

    def test_randc_anchors(self):
        doc = helpers.merged_doc()
        search = solver._Search(doc, doc.constraintset("randc"),
                                solver._check_options(doc, SolveOptions()))
        assert [(c.sort, c.anchored) for c in search.clauses] == [
            ("host", True), ("Client", True), ("Router", True),
            ("Router", True), (None, False)]

    @pytest.mark.parametrize("clause, sort, anchored", ANCHOR_CASES)
    def test_which_clauses_are_split_and_anchored(self, clause, sort, anchored):
        """Placement items anchor on hosts and wiring items on instances."""
        doc = helpers.parse_snippet(
            ANCHOR_RESOURCES + "constraintset goal = constraintset {\n"
            + clause + "\n}\n")
        (got,) = _compiled_search(doc).clauses
        assert (got.sort, got.anchored) == (sort, anchored)

    def test_a_binder_reusing_the_anchor_name_hides_it(self):
        """Validation rejects the shadowing; the walk does not rely on it."""
        link = lang.ConnectsTo(lang.PortRef("x", "p"), lang.PortRef("y", "q"))
        inner = lang.Quantified("exists", (lang.Binder("y", "B"),), link)
        assert solver._anchored(inner, "x", False)
        shadow = lang.Quantified("exists", (lang.Binder("x", "B"),), inner)
        assert not solver._anchored(shadow, "x", False)

    def test_placement_items_ignore_other_hosts(self):
        compared = changed = 0
        for doc, per_host, rng in itertools.chain(_random_documents(73, 300),
                                                  _anchor_documents(89, 20)):
            search = _compiled_search(doc, per_host)
            view = search.view
            types = [c.name for c in doc.components]
            states = [None] + solver._count_vectors(types, per_host, {})

            def put(h, state):
                for j, t in enumerate(types):
                    view.lo[t][h], view.hi[t][h] = (
                        (0, per_host) if state is None else (state[j],) * 2)
            for h in view.hosts:
                put(h, rng.choice(states))
            before = _anchored_values(search, search.placement_clauses)
            for h in view.hosts:
                saved = [(view.lo[t][h], view.hi[t][h]) for t in types]
                put(h, rng.choice(states))
                after = _anchored_values(search, search.placement_clauses)
                for (index, anchor), value in before.items():
                    if anchor != h:
                        assert after[(index, anchor)] is value
                        compared += 1
                    else:
                        changed += after[(index, anchor)] is not value
                for t, (lo, hi) in zip(types, saved):
                    view.lo[t][h], view.hi[t][h] = lo, hi
        assert compared >= 500 and changed >= 100

    def test_wiring_items_ignore_other_channels(self):
        compared = changed = 0
        for doc, per_host, rng in itertools.chain(_random_documents(79, 150),
                                                  _anchor_documents(97, 20)):
            search = _compiled_search(doc, per_host)
            view = search.view
            # Up to three instances per host, so most channels miss most
            # anchors.
            placement = _random_placement(rng, doc, 3)
            candidates = solver._candidate_edges(placement, search.patterns)
            view.place(placement, candidates)
            edge_sets = (view.sure, view.possible)
            status = [rng.choice((-1, 0, 1)) for _ in candidates]
            for edge, st in zip(candidates, status):
                _set_status(edge_sets, edge, 0, st)
            before = _anchored_values(search, search.wiring_clauses)
            for edge, st in zip(candidates, status):
                new = rng.choice([x for x in (-1, 0, 1) if x != st])
                _set_status(edge_sets, edge, st, new)
                after = _anchored_values(search, search.wiring_clauses)
                for (index, anchor), value in before.items():
                    if anchor not in (edge.src, edge.dst):
                        assert after[(index, anchor)] is value
                        compared += 1
                    else:
                        changed += after[(index, anchor)] is not value
                _set_status(edge_sets, edge, new, st)
        assert compared >= 1000 and changed >= 100


class TestFrameDepth:
    def test_search_depth_does_not_grow_with_hosts(self):
        """Both phases loop over explicit stacks, so a solve's deepest Python
        frame lies as far below its caller at 12 hosts as at 4. (Recursing
        once per host and per channel took it 24 frames deep at 4 hosts and
        100 at 12.)"""
        def depth(frame):
            n = 0
            while frame is not None:
                n, frame = n + 1, frame.f_back
            return n

        peaks = {}
        for hosts in (4, 12):
            doc = helpers.randc_doc(hosts)
            base, peak = depth(sys._getframe()), [0]

            def profile(frame, event, arg):
                if event == "call":
                    peak[0] = max(peak[0], depth(frame))
            sys.setprofile(profile)
            try:
                solve(doc, "randc")
            finally:
                sys.setprofile(None)
            peaks[hosts] = peak[0] - base
        assert peaks[4] == peaks[12]


def _nested_goal(levels: int, mentioned: int, count: int) -> str:
    """levels nested `exists host` around one count of hN, N = mentioned."""
    head = "".join(f"exists host h{i} in deployment ( " for i in range(levels))
    return ('component A(code = "a", ports = {p})\n'
            'host m0 = host(ipaddress = "1")\n'
            'host m1 = host(ipaddress = "2")\n'
            "constraintset goal = constraintset {\n" + head
            + f"card(instancesof A in h{mentioned}) = {count}"
            + " )" * levels + "\n}\n")


class TestNestedQuantifiers:
    """99 nested host quantifiers on 2 hosts: every unplaced host leaves the
    count unknown, so without dropping the binders the body does not
    mention, each evaluation would walk 2**98 assignments."""

    @pytest.mark.parametrize("mentioned", [98, 0])
    def test_satisfiable(self, mentioned):
        """evaluator.check re-checks the solution. Counting the outermost
        host, it would try h0 = m0 with all 2**98 assignments of h1..h98
        before h0 = m1, unless it too drops the binders the body does not
        mention."""
        doc = lang.parse(_nested_goal(99, mentioned, 1))
        out = solve(doc, "goal")
        assert [str(b) for b in model.bindings_of(out.solutions[0])] == [
            "A@m1x1"]
        assert (out.stats.placement_nodes, out.stats.wiring_nodes) == (3, 1)

    @pytest.mark.parametrize("mentioned", [98, 0])
    def test_unsatisfiable(self, mentioned):
        doc = lang.parse(_nested_goal(99, mentioned, 2))
        out = solve(doc, "goal", SolveOptions(solution_limit=2))
        assert out.solutions == () and out.exhausted
        assert (out.stats.placement_nodes, out.stats.wiring_nodes) == (2, 0)


class TestNoReferenceCycles:
    def test_searches_free_their_state_without_the_cycle_collector(self):
        """Whether a solve stops at its solution limit, exhausts the space or
        runs out of node budget in either phase, everything it allocated is
        freed by reference counting."""
        cases = [(helpers.randc_doc(6), "randc", SolveOptions(solution_limit=2)),
                 (lang.parse(CONTRADICTION), "goal", SolveOptions()),
                 (helpers.randc_doc(6), "randc", SolveOptions(node_budget=5)),
                 (helpers.randc_doc(6), "randc", SolveOptions(node_budget=30))]
        for doc, name, opts in cases:
            gc.collect()
            gc.disable()
            try:
                solve(doc, name, opts)
                assert gc.collect() == 0
            finally:
                gc.enable()


class TestPlacementPruning:
    def test_only_host_quantified_count_clauses_prune_placements(self):
        cs = helpers.merged_doc().constraintset("randc")
        assert [solver._placement_only(c) for c in cs.constraints] == [
            True, False, False, False, False]

    def test_contradiction_is_cut_at_the_first_host(self):
        out = solve(lang.parse(CONTRADICTION), "goal")
        # Both vectors for host a (no Router, one Router) falsify the clause.
        assert (out.stats.placement_nodes, out.stats.wiring_nodes) == (2, 0)
        assert out.exhausted and out.solutions == ()


NEED = ("forall Client c in deployment ( exists Router r in deployment "
        "( c.out connectsto r.cin ) )")


def _router_cap(compare: str) -> str:
    return f"forall Router r in deployment ( {compare} )"


class TestCardinalityBounds:
    """Bounds |X| <= k * |Y| read from the goal, and the placement
    branches they cut."""

    @staticmethod
    def _bounds(*clauses):
        doc = lang.parse(helpers.RESOURCES_TEXT
                         + "constraintset g = constraintset {\n"
                         + "\n".join(clauses) + "\n}\n")
        return solver.cardinality_bounds(doc.constraintset("g"))

    def test_sample_goal(self):
        cs = helpers.merged_doc().constraintset("randc")
        assert solver.cardinality_bounds(cs) == [("Client", "Router", 2)]

    @pytest.mark.parametrize("compare, k", [
        ("card(Client c connectedto r) <= 2", 2),
        ("card(Client c connectedto r) < 3", 2),
        ("card(Client c connectedto r) = 1", 1),
        ("2 >= card(Client c connectedto r)", 2),
        ("3 > card(Client c connectedto r)", 2),
        ("1 = card(Client c connectedto r)", 1),
        ("card(Client c connectedto r) < 0", 0),
    ])
    def test_cap_forms(self, compare, k):
        assert self._bounds(NEED, _router_cap(compare)) == [
            ("Client", "Router", k)]

    def test_conjunctive_positions_and_the_tightest_cap(self):
        need = ("forall Client c in deployment ( c = c and exists Router r "
                "in deployment ( (c != c or c = c)  r.cout connectsto c.in ) )")
        caps = _router_cap("card(Client c connectedto r) <= 3 "
                         "card(Client c connectedto r) < 2")
        assert self._bounds(need, caps) == [("Client", "Router", 1)]

    @pytest.mark.parametrize("clauses", [
        # the need under `or`
        (f"{NEED} or forall host h in deployment ( 1 = 1 )",
         _router_cap("card(Client c connectedto r) <= 2")),
        # the cap under `or`
        (NEED, _router_cap("card(Client c connectedto r) <= 2 or 1 = 1")),
        # the connectsto under `or` inside the exists
        ("forall Client c in deployment ( exists Router r in deployment "
         "( c.out connectsto r.cin or 1 = 1 ) )",
         _router_cap("card(Client c connectedto r) <= 2")),
        # a lower bound is no cap
        (NEED, _router_cap("card(Client c connectedto r) >= 2")),
        (NEED, _router_cap("2 <= card(Client c connectedto r)")),
        (NEED, _router_cap("card(Client c connectedto r) != 2")),
        # the cap counts another type
        (NEED, _router_cap("card(Router c connectedto r) <= 2")),
        # x and y share a type
        ("forall Router a in deployment ( exists Router b in deployment "
         "( a.rout connectsto b.rin ) )",
         _router_cap("card(Router c connectedto r) <= 2")),
        # the need's connectsto does not join x and y
        ("forall Client c in deployment ( exists Router r in deployment "
         "( exists Router s in deployment ( s.rout connectsto r.rin ) ) )",
         _router_cap("card(Client c connectedto r) <= 2")),
        # several binders, and forall in place of exists
        ("forall Client c, Client d in deployment ( exists Router r in "
         "deployment ( c.out connectsto r.cin ) )",
         _router_cap("card(Client c connectedto r) <= 2")),
        ("forall Client c in deployment ( forall Router r in deployment "
         "( c.out connectsto r.cin ) )",
         _router_cap("card(Client c connectedto r) <= 2")),
    ])
    def test_nothing_is_derived(self, clauses):
        assert self._bounds(*clauses) == []

    def test_cap_on_another_peer_is_no_cap(self):
        """A cap inside `forall Router r` whose card counts the neighbours
        of another variable s says nothing about r's neighbours."""
        doc = lang.parse(helpers.RESOURCES_TEXT
                         + "constraintset g = constraintset {\n" + NEED
                         + "\nforall Router s in deployment ( forall Router r "
                         "in deployment ( card(Client c connectedto s) <= 2 ) )"
                         "\n}\n")
        need, nested = doc.constraintset("g").constraints
        cs = lang.ConstraintSet("g", (need, nested.body))
        assert solver.cardinality_bounds(cs) == []

    def test_starved_placements_are_cut(self):
        """Ten hosts: without the bound, the 3-router placements with 7
        clients were refuted only by exhausting their wirings."""
        stats = solve(helpers.randc_doc(10), "randc").stats
        assert (stats.placement_nodes, stats.wiring_nodes,
                stats.bound_cuts) == (24, 103, 4)

    def test_random_goals_agree_with_oracle_and_bounds_hold(self):
        """Generated goals around the two shapes, some with a pin: the
        pruned search returns exactly the oracle's solutions, and every
        oracle solution satisfies every derived bound."""
        rng = helpers.rng(59)
        compared = derived = cut = 0
        for _ in range(60):
            doc, per_host = generators.gen_bound_instance(rng)
            cs = doc.constraintset("goal")
            pins = ()
            if rng.random() < 0.4:
                pins = (Binding(rng.choice(doc.components).name,
                                rng.choice(doc.hosts).name, 1),)
            opts = SolveOptions(max_instances_per_host=per_host, pins=pins)
            try:
                oracle = enumerate_all(doc, "goal", opts)
            except SpaceTooLarge:
                continue
            full = solve(doc, "goal", SolveOptions(
                max_instances_per_host=per_host, pins=pins,
                solution_limit=len(oracle.solutions) + 1))
            assert full.exhausted
            assert set(full.solutions) == set(oracle.solutions)
            assert len(full.solutions) == len(oracle.solutions)
            bounds = solver.cardinality_bounds(cs)
            for config in oracle.solutions:
                types = Counter(i.type for i in config.instances)
                for x, y, k in bounds:
                    assert types[x] <= k * types[y]
            compared += 1
            derived += bool(bounds)
            cut += full.stats.bound_cuts > 0
        assert compared >= 50 and derived >= 10 and cut >= 5
