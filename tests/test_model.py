import hashlib
from collections import Counter

import pytest

import generators
import helpers
from deladas import model
from deladas.model import (Binding, Channel, Configuration, Instance,
                           InstanceId, ModelError, PortSlot)


class TestIds:
    def test_instance_id_round_trip(self):
        iid = InstanceId("Router", "h3", 0)
        assert str(iid) == "Router@h3#0"
        assert InstanceId.parse("Router@h3#0") == iid

    @pytest.mark.parametrize("bad", ["Router", "Router@h3", "@h3#0", "R@h#x"])
    def test_malformed_instance_id(self, bad):
        with pytest.raises(ModelError):
            InstanceId.parse(bad)

    def test_port_slot_round_trip(self):
        for text in ["Client@h1#0:out", "Router@h3#0:cin[2]"]:
            assert str(PortSlot.parse(text)) == text

    def test_malformed_port_slot(self):
        with pytest.raises(ModelError):
            PortSlot.parse("Client@h1#0")

    @pytest.mark.parametrize("bad", [
        "Client@h1#+0", "Client@h1# 0", "Client@h1#00", "Client@h1#\u0661",
        "Client@h1#1_0", "Client@h1#01", "Client@h1#-1", "Client@h1#0 "])
    def test_non_canonical_ordinal_is_malformed(self, bad):
        with pytest.raises(ModelError):
            InstanceId.parse(bad)

    @pytest.mark.parametrize("bad", [
        "Client@h1#0:out[01]", "Client@h1#0:out[+1]", "Client@h1#0:out[ 1]",
        "Client@h1#0:out[\u0661]", "Client@h1#0:out[1_0]", "Client@h1#0:out[]",
        "Client@h1#00:out"])
    def test_non_canonical_index_is_malformed(self, bad):
        with pytest.raises(ModelError):
            PortSlot.parse(bad)

    def test_every_accepted_text_prints_back(self):
        """str(parse(t)) == t for every text either parse accepts, so an id
        or slot can be known by its text. Texts are random edits of valid
        ones, over the characters that numerals and separators use."""
        rng = helpers.rng(29)
        alphabet = "0123456789+-_ #@:[]\u0661a"
        accepted = 0
        for _ in range(4000):
            text = list(rng.choice(["Client@h1#0:out", "Router@h10#12:cin[3]"]))
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                op = rng.random()
                if op < 0.4:
                    text.insert(at, rng.choice(alphabet))
                elif op < 0.7 and at < len(text):
                    del text[at]
                elif at < len(text):
                    text[at] = rng.choice(alphabet)
            text = "".join(text)
            for parse in (InstanceId.parse, PortSlot.parse,
                          lambda t: InstanceId.parse(t.rpartition(":")[0])):
                try:
                    parsed = parse(text)
                except ModelError:
                    continue
                accepted += 1
                assert str(parsed) == parsed.text
                assert parsed.text in (text, text.rpartition(":")[0])
        assert accepted > 1000

    def test_text_is_formatted_when_the_id_is_made(self):
        iid = InstanceId("Router", "h3", 0)
        slot = PortSlot(iid, "cin", 2)
        assert (iid.text, slot.text) == ("Router@h3#0", "Router@h3#0:cin[2]")
        assert iid._replace(ordinal=1).text == "Router@h3#1"
        assert slot._replace(index=None).text == "Router@h3#0:cin"
        assert hash(iid) == hash(("Router", "h3", 0)) and iid == InstanceId(
            "Router", "h3", 0)


class TestCanonicalOrder:
    def test_build_sorts_instances_and_channels(self):
        cfg = helpers.example_configuration()
        shuffled = Configuration.build(
            cfg.hosts, tuple(reversed(cfg.instances)), tuple(reversed(cfg.channels)))
        assert shuffled == cfg

    def test_sorting_twice_is_noop(self):
        cfg = helpers.example_configuration()
        again = Configuration.build(cfg.hosts, cfg.instances, cfg.channels)
        assert again == cfg

    def test_instance_order_is_host_then_type_then_ordinal(self):
        cfg = helpers.example_configuration()
        assert [str(i.id) for i in cfg.instances] == [
            "Client@h1#0", "Client@h2#0", "Router@h3#0",
            "Router@h4#0", "Client@h5#0", "Client@h6#0"]

    def test_random_configurations_are_stable(self):
        rng = helpers.rng(3)
        for _ in range(50):
            doc = generators.gen_document(rng)
            cfg = generators.gen_configuration(rng, doc)
            assert Configuration.build(cfg.hosts, cfg.instances, cfg.channels) == cfg


class TestValidate:
    def test_example_configuration_is_valid(self):
        assert model.validate(helpers.example_configuration(),
                              helpers.merged_doc()) == []

    def test_unknown_port(self):
        cfg = helpers.example_configuration()
        bad = Configuration.build(
            cfg.hosts, cfg.instances,
            cfg.channels + (helpers.chan("Client@h1#0:out", "Router@h3#0:zin[0]"),))
        problems = model.validate(bad, helpers.merged_doc())
        assert any("unknown port zin" in p for p in problems)

    def test_duplicated_channel_yields_exactly_one_violation(self):
        cfg = helpers.example_configuration()
        bad = Configuration.build(cfg.hosts, cfg.instances,
                                  cfg.channels + (cfg.channels[0],))
        problems = model.validate(bad, helpers.merged_doc())
        assert len(problems) == 1
        assert "duplicate channel" in problems[0]

    def test_nonvariadic_slot_reuse(self):
        cfg = helpers.example_configuration()
        # Client@h1's out slot is already wired to Router@h3.
        extra = helpers.chan("Client@h1#0:out", "Router@h4#0:cin[2]")
        bad = Configuration.build(cfg.hosts, cfg.instances, cfg.channels + (extra,))
        problems = model.validate(bad, helpers.merged_doc())
        assert any("port slot reused" in p for p in problems)

    def test_self_channel(self):
        cfg = helpers.example_configuration()
        loop = helpers.chan("Router@h3#0:rout[1]", "Router@h3#0:rin[1]")
        bad = Configuration.build(cfg.hosts, cfg.instances, cfg.channels + (loop,))
        problems = model.validate(bad, helpers.merged_doc())
        assert any("itself" in p for p in problems)

    def test_sparse_ordinals(self):
        doc = helpers.merged_doc()
        cfg = Configuration.build(
            doc.hosts, [Instance(InstanceId("Client", "h1", 1), "Client")], [])
        problems = model.validate(cfg, doc)
        assert any("ordinals not dense" in p for p in problems)

    def test_sparse_variadic_indices(self):
        cfg = helpers.example_configuration()
        doc = helpers.merged_doc()
        jump = helpers.chan("Router@h3#0:rout[5]", "Router@h4#0:rin[1]")
        bad = Configuration.build(cfg.hosts, cfg.instances, cfg.channels + (jump,))
        problems = model.validate(bad, doc)
        assert any("not dense from 0" in p for p in problems)

    def test_unknown_host_and_type(self):
        doc = helpers.merged_doc()
        cfg = Configuration.build(
            doc.hosts,
            [Instance(InstanceId("Widget", "h9", 0), "Widget")], [])
        problems = model.validate(cfg, doc)
        assert any("unknown host h9" in p for p in problems)
        assert any("unknown component type Widget" in p for p in problems)

    def test_index_on_nonvariadic_port(self):
        cfg = helpers.example_configuration()
        doc = helpers.merged_doc()
        bad_channels = list(cfg.channels)
        bad_channels[0] = Channel(
            PortSlot(InstanceId("Client", "h1", 0), "in", 0),
            bad_channels[0].dst)
        bad = Configuration.build(cfg.hosts, cfg.instances, bad_channels)
        problems = model.validate(bad, doc)
        assert any("not variadic" in p for p in problems)

    def test_non_canonical_order_reported(self):
        cfg = helpers.example_configuration()
        twisted = Configuration(cfg.hosts, tuple(reversed(cfg.instances)),
                                cfg.channels)
        problems = model.validate(twisted, helpers.merged_doc())
        assert any("canonical order" in p for p in problems)

    def test_validate_agrees_with_naive_reimplementation(self):
        rng = helpers.rng(11)
        doc = helpers.merged_doc()
        agreements = 0
        for _ in range(150):
            cfg = generators.gen_configuration(rng, doc)
            cfg = self._maybe_break(rng, cfg)
            assert (model.validate(cfg, doc) == []) == _naive_valid(cfg, doc)
            agreements += 1
        assert agreements == 150

    # Digest of every problem list below, recorded before validate formatted
    # each slot once and checked canonical order on adjacent sort keys.
    PROBLEMS_DIGEST = "501b09dd89421263"

    PROBLEM_KINDS = (
        "duplicate host", "duplicate instance", "does not match id",
        "unknown host", "unknown component type", "ordinals not dense",
        "duplicate channel", "src equals dst", "connects an instance to itself",
        "unknown instance", "unknown port", "needs an index", "is not variadic",
        "port slot reused", "not dense from 0",
        "instances not in canonical order", "channels not in canonical order")

    def test_problem_lists_are_pinned(self):
        """Whole problem lists, in order, on generator configurations
        broken in one to three ways each."""
        rng = helpers.rng(131)
        docs = [helpers.merged_doc()] + [generators.gen_document(rng)
                                         for _ in range(20)]
        lines, seen = [], Counter()
        for n in range(600):
            doc = docs[n % len(docs)]
            cfg = generators.gen_configuration(rng, doc)
            for how in rng.sample(generators.BREAKS, rng.randint(1, 3)):
                cfg = generators.break_configuration(rng, cfg, doc, how)
            problems = model.validate(cfg, doc)
            lines.append(repr(problems))
            seen.update(kind for kind in self.PROBLEM_KINDS
                        if any(kind in p for p in problems))
        assert min(seen[kind] for kind in self.PROBLEM_KINDS) >= 5
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == self.PROBLEMS_DIGEST

    @staticmethod
    def _maybe_break(rng, cfg):
        roll = rng.random()
        if roll < 0.25 and cfg.channels:
            return Configuration.build(cfg.hosts, cfg.instances,
                                       cfg.channels + (cfg.channels[0],))
        if roll < 0.5 and cfg.instances:
            broken = Instance(InstanceId(cfg.instances[0].type, "nowhere", 0),
                              cfg.instances[0].type)
            return Configuration.build(cfg.hosts, cfg.instances + (broken,), cfg.channels)
        return cfg


def _naive_valid(cfg, doc):
    """Independent dumb re-implementation of the structural invariants."""
    hosts = [h.name for h in cfg.hosts]
    if len(set(hosts)) != len(hosts):
        return False
    ids = [i.id for i in cfg.instances]
    if len(set(ids)) != len(ids):
        return False
    for inst in cfg.instances:
        if inst.id.host not in hosts or inst.type != inst.id.type:
            return False
        if doc.component(inst.type) is None:
            return False
    for type_ in {i.type for i in cfg.instances}:
        for host in hosts:
            ords = sorted(i.id.ordinal for i in cfg.instances
                          if i.type == type_ and i.id.host == host)
            if ords != list(range(len(ords))):
                return False
    slots = []
    for ch in cfg.channels:
        if ch.src.instance == ch.dst.instance:
            return False
        for slot in (ch.src, ch.dst):
            if slot.instance not in set(ids):
                return False
            ctype = doc.component(slot.instance.type)
            port = ctype.port(slot.port)
            if port is None or port.variadic != (slot.index is not None):
                return False
            slots.append(str(slot))
    if len(set(slots)) != len(slots):
        return False
    for inst in cfg.instances:
        ctype = doc.component(inst.type)
        for port in ctype.ports:
            if not port.variadic:
                continue
            indices = sorted({s.index for ch in cfg.channels
                              for s in (ch.src, ch.dst)
                              if s.instance == inst.id and s.port == port.name})
            if indices != list(range(len(indices))):
                return False
    canon = Configuration.build(cfg.hosts, cfg.instances, cfg.channels)
    return canon.instances == cfg.instances and canon.channels == cfg.channels


class TestBindings:
    def test_example_bindings_in_host_order(self):
        assert model.bindings_of(helpers.example_configuration()) == [
            Binding("Client", "h1", 1), Binding("Client", "h2", 1),
            Binding("Router", "h3", 1), Binding("Router", "h4", 1),
            Binding("Client", "h5", 1), Binding("Client", "h6", 1)]

    def test_empty_configuration(self):
        assert model.bindings_of(model.empty_on(())) == []

    def test_counts_collapse(self):
        doc = helpers.merged_doc()
        cfg = Configuration.build(
            doc.hosts,
            [Instance(InstanceId("Client", "h1", 0), "Client"),
             Instance(InstanceId("Client", "h1", 1), "Client")], [])
        assert model.bindings_of(cfg) == [Binding("Client", "h1", 2)]

    def test_restrict_to_hosts(self):
        cfg = helpers.example_configuration()
        survived = model.restrict_to_hosts(cfg, {"h1", "h2", "h4", "h5", "h6"})
        assert [str(b) for b in model.bindings_of(survived)] == [
            "Client@h1x1", "Client@h2x1", "Router@h4x1",
            "Client@h5x1", "Client@h6x1"]
        # Channels touching the dropped router disappear with it.
        assert len(survived.channels) == 4
        assert all("h3" not in str(c) for c in survived.channels)
