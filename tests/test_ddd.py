from pathlib import Path

import pytest

import generators
import helpers
from deladas import ddd, lang, model
from deladas.ddd import (EnactmentPlan, Install, Instantiate, SchemaError,
                         Terminate, Unwire, Wire, XmlError)
from deladas.fabric import ScenarioError, parse_scenario
from deladas.lang import HostSpec, SpecDocument, ValidationError
from deladas.model import Configuration, Instance, InstanceId

GOLDEN = Path(__file__).resolve().parent.parent / "samples" / "example-deployment.xml"


class TestToXml:
    def test_golden_bytes(self):
        doc = helpers.merged_doc()
        data = ddd.to_xml(helpers.example_configuration(), doc, "randc")
        assert data == GOLDEN.read_bytes()

    def test_empty_configuration(self):
        data = ddd.to_xml(Configuration(), helpers.merged_doc(), "randc")
        assert data == (b'<?xml version="1.0" encoding="UTF-8"?>\n'
                        b'<deployment constraintset="randc">\n'
                        b'  <hosts/>\n  <instances/>\n  <channels/>\n'
                        b'</deployment>\n')

    def test_example_counts(self):
        text = GOLDEN.read_text()
        assert text.count("<host ") == 6
        assert text.count("<instance ") == 6
        assert text.count("<channel ") == 10

    def test_byte_determinism(self):
        doc = helpers.merged_doc()
        cfg = helpers.example_configuration()
        assert ddd.to_xml(cfg, doc, "randc") == ddd.to_xml(cfg, doc, "randc")

    def test_attribute_escaping_round_trips(self):
        doc = helpers.lang.parse(
            'component C(code = "u?a=1&b=<2>", ports = {p[]})\n'
            'host w = host(ipaddress = "1", note = "a\\"b\\nc")')
        cfg = Configuration.build(
            doc.hosts, [Instance(InstanceId("C", "w", 0), "C")], [])
        assert ddd.from_xml(ddd.to_xml(cfg, doc, "x"), doc) == cfg


class TestFromXml:
    def test_round_trip_example(self):
        doc = helpers.merged_doc()
        cfg = helpers.example_configuration()
        assert ddd.from_xml(ddd.to_xml(cfg, doc, "randc"), doc) == cfg

    def test_round_trip_random(self):
        rng = helpers.rng(13)
        for _ in range(100):
            doc = generators.gen_document(rng)
            cfg = generators.gen_configuration(rng, doc)
            assert ddd.from_xml(ddd.to_xml(cfg, doc, "g"), doc) == cfg

    def test_one_id_object_per_instance(self):
        """from_xml makes one InstanceId object per instance, from its id
        attribute, and shares it with every channel slot naming it."""
        cfg = ddd.from_xml(GOLDEN.read_bytes())
        ids = {i.id.text: i.id for i in cfg.instances}
        assert len(ids) == len(cfg.instances) == 6
        slots = [slot for ch in cfg.channels for slot in (ch.src, ch.dst)]
        assert len(slots) == 20
        assert all(slot.instance is ids[slot.instance.text] for slot in slots)

    def test_permuted_elements_are_recanonicalized(self):
        lines = GOLDEN.read_text().splitlines()
        start = lines.index("  <instances>") + 1
        end = lines.index("  </instances>")
        lines[start:end] = reversed(lines[start:end])
        permuted = "\n".join(lines).encode()
        assert permuted != GOLDEN.read_bytes()
        assert ddd.from_xml(permuted) == ddd.from_xml(GOLDEN.read_bytes())

    def test_malformed_xml(self):
        with pytest.raises(XmlError):
            ddd.from_xml(b"<deployment><hosts>")

    @pytest.mark.parametrize("encoding", ["TF-8", "rot13", "zlib", "cp932",
                                          "utf-32", "utf-7", "idna",
                                          "punycode"])
    def test_unusable_encoding_is_an_xml_error(self, encoding):
        data = GOLDEN.read_bytes().replace(b'encoding="UTF-8"',
                                           f'encoding="{encoding}"'.encode())
        with pytest.raises(XmlError, match="encoding"):
            ddd.parse_ddd(data)

    def test_unknown_element(self):
        with pytest.raises(SchemaError):
            ddd.from_xml(b'<?xml version="1.0"?><deployment><bogus/></deployment>')

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            ddd.from_xml(b'<deployment><channels>'
                         b'<channel from="A@h#0:p" to="B@h#0:q" color="red"/>'
                         b'</channels></deployment>')

    def test_missing_endpoint_instance(self):
        data = (b'<deployment><hosts><host id="h1" ipaddress="1"/></hosts>'
                b'<instances/>'
                b'<channels><channel from="A@h1#0:p" to="B@h1#0:q"/></channels>'
                b'</deployment>')
        with pytest.raises(ValidationError, match="unknown instance"):
            ddd.from_xml(data)

    def test_full_validation_needs_doc(self):
        # Index on a non-variadic port passes doc-free parsing but fails
        # against the component declarations.
        doc = helpers.merged_doc()
        data = GOLDEN.read_bytes().replace(b'Client@h1#0:in', b'Client@h1#0:in[0]')
        ddd.from_xml(data)
        with pytest.raises(ValidationError, match="not variadic"):
            ddd.from_xml(data, doc)

    def test_codes_recovered(self):
        parsed = ddd.parse_ddd(GOLDEN.read_bytes())
        assert parsed.constraintset == "randc"
        assert parsed.codes == {"Client": "file:///D:ClientBundle.xml",
                                "Router": "http://deladas.org/RBundle.xml"}


def _host_round_trip(host: HostSpec) -> None:
    """host survives a DDD and Deladas text unchanged."""
    data = ddd.to_xml(model.empty_on((host,)), SpecDocument(), "")
    assert ddd.parse_ddd(data).configuration.hosts == (host,)
    text = lang.pretty_print(SpecDocument(hosts=(host,)))
    assert lang.parse(text).hosts == (host,)


class TestHostForm:
    """Every path that reads a host (Deladas text, a DDD, a scenario's
    add-host) accepts exactly the hosts that a DDD can carry."""

    @pytest.mark.parametrize("attrs", [
        'ipaddress = "1", id = "x"',  # the DDD's own name attribute
        'ipaddress = "1", ª = "x"',  # identifiers, but not XML names
        'ipaddress = "1", ǅ = "x"',
        'ipaddress = "1", xmlns = "x"',  # a namespace declaration in XML
        'ipaddress = "1\x01"',  # not an XML character
        'ipaddress = "1", ipaddress = "2"',
        'owner = "ops"',
    ])
    def test_text_rejects(self, attrs):
        with pytest.raises(ValidationError):
            lang.parse(f"host h1 = host({attrs})\n")

    @pytest.mark.parametrize("args", [
        "h9 ipaddress=1 ipaddress=2",
        "h9 ipaddress=1 a<b=2",
        "h9 ipaddress=1 id=7",
        "h#9 ipaddress=1",
        "forall ipaddress=1",
        "h9 ipaddress=1 ª=2",
        "h9 ipaddress=1 ǅ=2",
        "h9 ipaddress=1\x01",
    ])
    def test_scenario_rejects(self, args):
        with pytest.raises(ScenarioError, match="^line 2: "):
            parse_scenario(f"at 1 crash-host h1\nat 5 add-host {args}\n")

    @pytest.mark.parametrize("host", ["h#9", "forall", "", "9h"])
    def test_ddd_rejects_a_host_name_that_is_no_identifier(self, host):
        data = (f'<deployment><hosts><host id="{host}" ipaddress="1"/>'
                '</hosts></deployment>').encode()
        with pytest.raises(ValidationError):
            ddd.parse_ddd(data)

    def test_accepted_keys_round_trip(self):
        doc = lang.parse('host h1 = host(é = "1", ipaddress = "2", '
                         'os_2 = "linux", _k = "")\n')
        assert doc.hosts[0].attributes == (
            ("ipaddress", "2"), ("é", "1"), ("os_2", "linux"), ("_k", ""))
        event, = parse_scenario("at 5 add-host h9 é=1 ipaddress=2\n")
        assert event.host.attributes == (("ipaddress", "2"), ("é", "1"))
        for host in doc.hosts + (event.host,):
            _host_round_trip(host)

    def test_every_accepted_host_round_trips(self):
        """Random names, keys and values: each is rejected with a
        ValidationError or survives to_xml and parse_ddd."""
        rng = helpers.rng(71)
        letters = ["a", "Z", "_", "é", "ß", "〇", "ª", "ǅ", "µ", "²", "7", "#",
                   "<", "@", "-"]
        words = ["id", "xmlns", "host", "forall", "ipaddress"]
        chars = ["1", " ", "\t", "\n", "\r", "&", '"', "<", "\\", "\x01",
                 "\x7f", "\ufffe", "é", "\U0001f600"]

        def word():
            if rng.random() < 0.2:
                return rng.choice(words)
            return "".join(rng.choices(letters, k=rng.randint(0, 3)))
        accepted = 0
        for _ in range(2000):
            attrs = [(word(), "".join(rng.choices(chars, k=rng.randint(0, 3))))
                     for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.8:
                attrs.insert(rng.randint(0, len(attrs)), ("ipaddress", "1"))
            try:
                host = lang.canonical_host(word(), attrs)
            except ValidationError:
                continue
            _host_round_trip(host)
            accepted += 1
        assert accepted > 100


def evolved_configuration():
    """The example after h6's client becomes a third router."""
    doc = helpers.merged_doc()
    instances = [
        Instance(InstanceId("Client", "h1", 0), "Client"),
        Instance(InstanceId("Client", "h2", 0), "Client"),
        Instance(InstanceId("Router", "h3", 0), "Router"),
        Instance(InstanceId("Router", "h4", 0), "Router"),
        Instance(InstanceId("Client", "h5", 0), "Client"),
        Instance(InstanceId("Router", "h6", 0), "Router"),
    ]
    channels = (
        helpers.client_router_pair("Client@h1#0", "Router@h3#0", 0)
        + helpers.client_router_pair("Client@h5#0", "Router@h3#0", 1)
        + helpers.client_router_pair("Client@h2#0", "Router@h4#0", 0)
        + helpers.ring_pair("Router@h3#0", "Router@h4#0")
        + helpers.ring_pair("Router@h4#0", "Router@h6#0", i1=1, i2=0)
    )
    return Configuration.build(doc.hosts, instances, channels)


class TestDiff:
    def test_identity_is_empty(self):
        doc = helpers.merged_doc()
        cfg = helpers.example_configuration()
        assert len(ddd.diff(cfg, cfg, doc)) == 0

    def test_from_empty_installs_everything(self):
        doc = helpers.merged_doc()
        cfg = helpers.example_configuration()
        plan = ddd.diff(model.empty_on(doc.hosts), cfg, doc)
        by_kind = {}
        for action in plan:
            by_kind.setdefault(type(action), []).append(action)
        assert len(by_kind[Install]) == 6
        assert len(by_kind[Instantiate]) == 6
        assert len(by_kind[Wire]) == 10
        assert Unwire not in by_kind and Terminate not in by_kind

    def test_evolved_configuration_plan(self):
        doc = helpers.merged_doc()
        old = helpers.example_configuration()
        new = evolved_configuration()
        plan = ddd.diff(old, new, doc)
        terminates = [a for a in plan if isinstance(a, Terminate)]
        installs = [a for a in plan if isinstance(a, Install)]
        instantiates = [a for a in plan if isinstance(a, Instantiate)]
        assert [str(t.instance) for t in terminates] == ["Client@h6#0"]
        assert [(i.host, i.code) for i in installs] == [
            ("h6", "http://deladas.org/RBundle.xml")]
        assert [str(i.instance) for i in instantiates] == ["Router@h6#0"]
        # The untouched client on h1 appears in no action at all.
        assert not any("Client@h1#0" in str(a) for a in plan)
        assert ddd.apply_plan(old, plan, doc) == new

    def test_phase_order(self):
        doc = helpers.merged_doc()
        plan = ddd.diff(helpers.example_configuration(), evolved_configuration(),
                        doc)
        phases = [ddd._PHASES.index(type(a)) for a in plan]
        assert phases == sorted(phases)

    def test_install_once_per_host_and_code(self):
        doc = helpers.lang.merge_documents(
            helpers.resources_doc(),
            helpers.lang.parse("constraintset empty = constraintset {\n}"))
        two_clients = Configuration.build(
            doc.hosts,
            [Instance(InstanceId("Client", "h1", 0), "Client"),
             Instance(InstanceId("Client", "h1", 1), "Client")], [])
        plan = ddd.diff(model.empty_on(doc.hosts), two_clients, doc)
        assert len([a for a in plan if isinstance(a, Install)]) == 1
        assert len([a for a in plan if isinstance(a, Instantiate)]) == 2

    def test_installed_set_decides_install(self):
        """Given what a fabric has installed, Install is emitted for exactly
        the (host, code) pairs missing from it, whatever old runs."""
        doc = helpers.merged_doc()
        old = helpers.example_configuration()
        new = evolved_configuration()
        router_code = "http://deladas.org/RBundle.xml"
        client_code = "file:///D:ClientBundle.xml"
        plan = ddd.diff(old, new, doc, frozenset({("h6", router_code)}))
        assert not [a for a in plan if isinstance(a, Install)]
        plan = ddd.diff(old, old, doc, frozenset())
        assert len(plan) == 0
        plan = ddd.diff(model.empty_on(doc.hosts), old, doc,
                        frozenset({("h1", client_code), ("h3", router_code)}))
        assert sorted(a.host for a in plan if isinstance(a, Install)) == [
            "h2", "h4", "h5", "h6"]
        assert ddd.apply_plan(old, ddd.diff(old, new, doc, frozenset()),
                              doc) == new


class TestApply:
    def test_apply_random_pairs(self):
        rng = helpers.rng(17)
        for _ in range(200):
            doc = generators.gen_document(rng)
            old = generators.gen_configuration(rng, doc)
            new = generators.gen_configuration(rng, doc)
            plan = ddd.diff(old, new, doc)
            assert ddd.apply_plan(old, plan, doc) == new

    def test_plan_minimality(self):
        rng = helpers.rng(19)
        for _ in range(100):
            doc = generators.gen_document(rng)
            old = generators.gen_configuration(rng, doc)
            new = generators.gen_configuration(rng, doc)
            plan = ddd.diff(old, new, doc)
            churn = len([a for a in plan
                         if isinstance(a, (Terminate, Instantiate))])
            old_ids = {i.id for i in old.instances}
            new_ids = {i.id for i in new.instances}
            assert churn == len(old_ids ^ new_ids)

    def test_apply_rejects_missing_unwire(self):
        doc = helpers.merged_doc()
        cfg = model.empty_on(doc.hosts)
        ghost = helpers.chan("Client@h1#0:out", "Router@h3#0:cin[0]")
        with pytest.raises(ValidationError):
            ddd.apply_plan(cfg, EnactmentPlan((Unwire(ghost),)), doc)
