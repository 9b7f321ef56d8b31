import re

import pytest

import generators
import helpers
import oracle
from deladas import lang
from deladas.lang import (And, Compare, ConnectsTo, LexError, Or, ParseError,
                          Quantified, Reachable, ValidationError)


# (source, tokens as (kind, text, line, column)) or (source, LexError as
# (message, line, column)).
LEX_TABLE = [
    ("!", ("unexpected character '!'", 1, 1)),
    ("/", ("unexpected character '/'", 1, 1)),
    ("a // end", [("identifier", "a", 1, 1)]),
    ("a\r\nb", [("identifier", "a", 1, 1), ("identifier", "b", 2, 1)]),
    ("a\vb", ("unexpected character '\\x0b'", 1, 2)),
    ("a\u3000b", ("unexpected character '\\u3000'", 1, 2)),
    ("_x", [("identifier", "_x", 1, 1)]),
    ("\u00e9", [("identifier", "\u00e9", 1, 1)]),
    ("a\u00b2", [("identifier", "a\u00b2", 1, 1)]),
    ("\u00b2a", ("unexpected character '\u00b2'", 1, 1)),
    ("12abc", [("integer-literal", "12", 1, 1), ("identifier", "abc", 1, 3)]),
    ("foralls", [("identifier", "foralls", 1, 1)]),
    ('"\\q"', [("string-literal", "q", 1, 1)]),
    ('x "a\\', ("unterminated string literal", 1, 3)),
    ('x "a\\\nb" y', ("unterminated string literal", 1, 3)),
    ('"a"\n  "b', ("unterminated string literal", 2, 3)),
]

# One clause per static rule, as the third line of SCOPE_HEAD's document:
# (clause, message, (line, column) of the token at fault). The port rule
# needs the whole document, so validate_document reports it without one.
SCOPE_HEAD = ('component C(code = "u", ports = {in, out})\n'
              "constraintset s = constraintset {\n")
SCOPE_TABLE = [
    ("forall C a, a in deployment ( a = a )",
     "variable a already bound", (3, 13)),
    ("forall C a in deployment ( exists C a in deployment ( a = a ) )",
     "variable a already bound", (3, 37)),
    ("forall C a in deployment ( b = a )", "unbound variable b", (3, 28)),
    ("forall C a in deployment ( card(instancesof C in h) = 1 )",
     "unbound variable h", (3, 50)),
    ("forall C a in deployment ( card(C b connectedto p) = 1 )",
     "unbound variable p", (3, 49)),
    ("forall C a in deployment ( a.out connectsto b.in )",
     "unbound variable b", (3, 45)),
    ("forall C a in deployment ( reachable(a, b) )",
     "unbound variable b", (3, 41)),
    ("forall C a in deployment ( card(instancesof C in a) = 1 )",
     "instancesof needs a host variable, a is not one", (3, 50)),
    ("forall host h, C a in deployment ( h.out connectsto a.in )",
     "h is a host variable, not an instance", (3, 36)),
    ("forall host h, C a in deployment ( reachable(a, h) )",
     "reachable needs instance variables, h is a host", (3, 49)),
    ("forall C a, b in deployment ( a <= b )",
     "ordering comparison requires integer operands", (3, 33)),
    ("forall host h, C a in deployment ( h = a )",
     "cannot compare host-var with instance-var", (3, 38)),
    ("forall C a in deployment ( a != 1 )",
     "cannot compare instance-var with int", (3, 30)),
    ("forall C a, b in deployment ( card(C b connectedto a) = 1 )",
     "variable b already bound", (3, 38)),
    ("forall C a in deployment ( card(C b connectedto b) = 1 )",
     "connectedto variable shadows its peer", (3, 49)),
    ("forall host h in deployment ( card(C b connectedto h) = 1 )",
     "connectedto peer must be an instance variable", (3, 52)),
    ("forall C a, b in deployment ( a.zap connectsto b.in )",
     "type C has no port zap", None),
]

_POSITION = re.compile(r"line (\d+), col (\d+): ")


def _position(err: Exception) -> tuple[int, int] | None:
    """The line and column a scope fault's message starts with."""
    m = _POSITION.match(str(err))
    return (int(m[1]), int(m[2])) if m else None


# Random lexer inputs draw from these pieces.
LEX_ALPHABET = list("ab_Z09 \t\r\n\"\\/!=<>(){}[],.@#") + [
    "\u00b2", "\u00bd", "\u216b", "\u0663", "\u00e9", "\x0b", "//",
    "forall", "host", '"x\\"y"', "\\\n"]


class TestTokenize:
    def test_host_declaration(self):
        toks = lang.tokenize('host h1 = host(ipaddress = "192.168.0.1")')
        assert len(toks) == 9
        assert toks[-1].text == ")"
        assert [t.kind for t in toks[:2]] == ["keyword", "identifier"]
        assert toks[7].kind == "string-literal"
        assert toks[7].text == "192.168.0.1"

    def test_empty_input(self):
        assert lang.tokenize("") == []

    def test_illegal_character_position(self):
        with pytest.raises(LexError) as err:
            lang.tokenize("host h1 @ h2")
        assert err.value.line == 1
        assert err.value.column == 9

    def test_comments_produce_no_tokens(self):
        toks = lang.tokenize("// nothing here\nhost // trailing\n")
        assert [t.text for t in toks] == ["host"]

    def test_positions_are_one_based(self):
        toks = lang.tokenize("forall\n  card")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_multichar_punctuation(self):
        toks = lang.tokenize("a != b <= c >= d")
        assert [t.text for t in toks if t.kind == "punctuation"] == ["!=", "<=", ">="]

    def test_string_escapes(self):
        toks = lang.tokenize(r'"a\"b\\c"')
        assert toks[0].text == 'a"b\\c'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            lang.tokenize('"oops')

    def test_non_decimal_digit_is_a_lex_error(self):
        # '²' is a digit to str.isdigit but not a number to int().
        clause = ("  forall host h in deployment("
                  "card(instancesof Client in h) = \u00b2)")
        with pytest.raises(LexError) as err:
            lang.parse(f"constraintset c = constraintset {{\n{clause}\n}}")
        assert (err.value.line, err.value.column) == (
            2, clause.index("\u00b2") + 1)

    def test_decimal_digits_of_any_script_are_integers(self):
        toks = lang.tokenize("\u0663\u0664 12")
        assert [(t.kind, int(t.text)) for t in toks] == [
            ("integer-literal", 34), ("integer-literal", 12)]

    @pytest.mark.parametrize("source, expected", LEX_TABLE)
    def test_lex_table(self, source, expected):
        if isinstance(expected, list):
            assert [tuple(t) for t in lang.tokenize(source)] == expected
        else:
            with pytest.raises(LexError) as err:
                lang.tokenize(source)
            message, line, column = expected
            assert str(err.value) == f"line {line}, col {column}: {message}"
            assert (err.value.line, err.value.column) == (line, column)

    def test_lex_positions_point_at_the_source(self):
        """Each token's (line, column) is where its raw text starts on that
        physical line, and each LexError names the offending character or the
        opening quote of the unterminated string."""
        rng = helpers.rng(11)
        sources = [lang.pretty_print(generators.gen_document(rng))
                   for _ in range(50)]
        sources += ["".join(rng.choice(LEX_ALPHABET)
                            for _ in range(rng.randint(0, 16)))
                    for _ in range(3000)]
        for source in sources:
            lines = source.split("\n") + [""]  # a position past the end reads ""
            try:
                tokens = lang.tokenize(source)
            except LexError as err:
                at = lines[err.line - 1][err.column - 1:err.column]
                assert str(err).endswith(
                    "unterminated string literal" if at == '"'
                    else f"unexpected character {at!r}"), repr(source)
                continue
            for tok in tokens:
                raw = '"' if tok.kind == "string-literal" else tok.text
                assert lines[tok.line - 1].startswith(raw, tok.column - 1), \
                    (repr(source), tok)


class TestIdentifierRule:
    @staticmethod
    def _by_hand(text: str) -> bool:
        """The identifier rule as isalpha/isalnum restate it."""
        word = text.replace("_", "a")  # _ goes wherever a letter does
        return (word[:1].isalpha() and word.isalnum()
                and text not in lang.KEYWORDS)

    def test_is_identifier_asks_the_lexer(self):
        """lang._is_identifier agrees with the rule stated by hand on every
        keyword and on sampled code points alone, after `a`, before `a`
        and after `_`."""
        rng = helpers.rng(11)
        points = list(range(128)) + rng.sample(range(128, 0x110000), 5000)
        texts = sorted(lang.KEYWORDS) + [
            text for p in points
            for text in (chr(p), "a" + chr(p), chr(p) + "a", "_" + chr(p))]
        assert [t for t in texts
                if lang._is_identifier(t) != self._by_hand(t)] == []
        assert lang._is_identifier("a\u00b2")
        assert not lang._is_identifier("\u00b2a")


class TestParseFigures:
    def test_resources_figure(self):
        doc = helpers.resources_doc()
        assert [c.name for c in doc.components] == ["Client", "Router"]
        client, router = doc.components
        assert [(p.name, p.variadic) for p in client.ports] == [
            ("in", False), ("out", False)]
        assert [(p.name, p.variadic) for p in router.ports] == [
            ("cin", True), ("cout", True), ("rin", True), ("rout", True)]
        assert client.code == "file:///D:ClientBundle.xml"
        assert [h.name for h in doc.hosts] == ["h1", "h2", "h3", "h4", "h5", "h6"]
        assert [dict(h.attributes)["ipaddress"] for h in doc.hosts] == [
            f"192.168.0.{i}" for i in range(1, 7)]

    def test_constraints_figure(self):
        doc = helpers.constraints_doc()
        assert len(doc.constraintsets) == 1
        cs = doc.constraintsets[0]
        assert cs.name == "randc"
        assert len(cs.constraints) == 5
        assert all(isinstance(c, Quantified) for c in cs.constraints)
        last = cs.constraints[4]
        assert [b.sort for b in last.binders] == ["Router", "Router"]
        assert isinstance(last.body, Reachable)

    def test_clause_bodies(self):
        cs = helpers.constraints_doc().constraintsets[0]
        first = cs.constraints[0]
        assert first.binders[0].sort == lang.HOST_SORT
        assert isinstance(first.body, Or) and len(first.body.items) == 2
        second = cs.constraints[1].body
        assert isinstance(second, Quantified) and second.kind == "exists"
        assert isinstance(second.body, And) and len(second.body.items) == 2
        fourth = cs.constraints[3].body.body
        assert isinstance(fourth, And) and len(fourth.items) == 3
        assert isinstance(fourth.items[0], ConnectsTo)
        assert isinstance(fourth.items[2], Compare) and fourth.items[2].op == "!="


class TestParseRules:
    def test_unbound_variable(self):
        with pytest.raises(ValidationError, match="unbound variable d"):
            lang.parse("constraintset s = constraintset {"
                       " forall Client c in deployment ( d.out connectsto c.in ) }")

    def test_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate host"):
            lang.parse('host a = host(ipaddress = "1")\n'
                       'host a = host(ipaddress = "2")')

    def test_code_and_bundles_are_synonyms(self):
        via_code = lang.parse('component C(code = "u", ports = {p})')
        via_bundles = lang.parse('component C(bundles = "u", ports = {p})')
        assert via_code == via_bundles
        assert via_code.components[0].code == "u"

    def test_both_code_keys_rejected(self):
        with pytest.raises(ValidationError, match="exactly one"):
            lang.parse('component C(code = "u", bundles = "v", ports = {p})')

    def test_missing_ports(self):
        with pytest.raises(ValidationError, match="missing ports"):
            lang.parse('component C(code = "u")')

    def test_unknown_component_attribute(self):
        with pytest.raises(ValidationError, match="unknown attribute"):
            lang.parse('component C(code = "u", ports = {p}, size = "3")')

    def test_host_requires_ipaddress(self):
        with pytest.raises(ValidationError, match="ipaddress"):
            lang.parse('host a = host(owner = "x")')

    def test_host_extra_attributes_preserved(self):
        doc = lang.parse('host a = host(owner = "x", ipaddress = "1", zone = "z")')
        assert doc.hosts[0].attributes == (
            ("ipaddress", "1"), ("owner", "x"), ("zone", "z"))

    def test_juxtaposition_is_conjunction(self):
        doc = lang.parse("constraintset s = constraintset {"
                         " forall host h in deployment ("
                         "  card(instancesof A in h) = 1"
                         "  card(instancesof B in h) = 0"
                         " ) }")
        body = doc.constraintsets[0].constraints[0].body
        assert isinstance(body, And) and len(body.items) == 2

    def test_and_binds_tighter_than_or(self):
        doc = lang.parse("constraintset s = constraintset {"
                         " forall host h in deployment ("
                         "  1 = 1 2 = 2 or 3 = 3"
                         " ) }")
        body = doc.constraintsets[0].constraints[0].body
        assert isinstance(body, Or)
        assert isinstance(body.items[0], And)

    def test_top_level_clauses_do_not_merge(self):
        doc = lang.parse("constraintset s = constraintset {"
                         " forall host h in deployment ( 1 = 1 )"
                         " forall host g in deployment ( 2 = 2 )"
                         " }")
        assert len(doc.constraintsets[0].constraints) == 2

    def test_shadowing_rejected(self):
        with pytest.raises(ValidationError, match="already bound"):
            lang.parse("constraintset s = constraintset {"
                       " forall Client c in deployment ("
                       "  exists Client c in deployment ( c = c ) ) }")

    def test_ordering_needs_integers(self):
        with pytest.raises(ValidationError, match="ordering comparison"):
            lang.parse("constraintset s = constraintset {"
                       " forall Client a, b in deployment ( a <= b ) }")

    def test_instance_versus_integer_rejected(self):
        with pytest.raises(ValidationError, match="cannot compare"):
            lang.parse("constraintset s = constraintset {"
                       " forall Client a in deployment ( a = 1 ) }")

    def test_instancesof_needs_host_variable(self):
        with pytest.raises(ValidationError, match="host variable"):
            lang.parse("constraintset s = constraintset {"
                       " forall Client c in deployment ("
                       "  card(instancesof Client in c) = 1 ) }")

    def test_port_reference_checked_when_type_declared(self):
        text = ('component Client(code = "u", ports = {in, out})\n'
                "constraintset s = constraintset {"
                " forall Client a, b in deployment ( a.zap connectsto b.in ) }")
        with pytest.raises(ValidationError, match="no port zap"):
            lang.parse(text)

    @pytest.mark.parametrize("clause, message, position", SCOPE_TABLE)
    def test_scope_rule(self, clause, message, position):
        with pytest.raises(ValidationError) as err:
            lang.parse(SCOPE_HEAD + clause + "\n}")
        assert _position(err.value) == position
        assert (_POSITION.sub("", str(err.value))
                == f"constraintset s: {message}")

    def test_first_fault_in_source_order_is_reported(self):
        """A scope fault before a syntax error is the one reported."""
        with pytest.raises(ValidationError, match="unbound variable b"):
            lang.parse(SCOPE_HEAD + "forall C a in deployment ( b = a ) )}")

    def test_peer_must_be_an_identifier(self):
        """A string spelled like the counted variable is no peer at all."""
        with pytest.raises(ParseError, match="expected variable"):
            lang.parse(SCOPE_HEAD + "forall C a in deployment ("
                       ' card(C b connectedto "b") = 1 )\n}')

    def test_scope_faults_match_the_reference(self):
        """Scope-mutated generator documents: the parser accepts exactly
        those the reference walker finds no fault in, and reports the
        reference's fault when it finds one."""
        rng = helpers.rng(23)
        faulty = single = 0
        for _ in range(400):
            doc = generators.mutate_scopes(rng, generators.gen_document(rng))
            faults = oracle.scope_faults(doc)
            text = lang.pretty_print(doc)
            try:
                parsed = lang.parse(text)
            except ValidationError as err:
                assert faults, text
                faulty += 1
                if len(faults) == 1:
                    single += 1
                    assert _POSITION.sub("", str(err)) == faults[0], text
            else:
                assert faults == [], text
                assert parsed == doc
        assert faulty > 50 and single > 30

    def test_parse_error_reports_expectation(self):
        with pytest.raises(ParseError) as err:
            lang.parse("component C(")
        assert err.value.expected

    @staticmethod
    def _nested(depth: int) -> str:
        return ("constraintset g = constraintset { " + "(" * (depth - 1)
                + "1 = 1" + ")" * (depth - 1) + " }")

    def test_nesting_limit(self):
        """A top-level clause is one level; each parenthesis or quantifier
        body adds one. Past the limit the parser stops with a ParseError
        instead of exhausting Python's recursion limit."""
        doc = lang.parse(self._nested(lang.MAX_NESTING))
        assert len(doc.constraintsets[0].constraints) == 1
        for depth in (lang.MAX_NESTING + 1, 3000):
            with pytest.raises(ParseError, match="nested deeper"):
                lang.parse(self._nested(depth))
        quantifiers = ("constraintset g = constraintset { "
                       + "".join(f"forall host h{i} in deployment ("
                                 for i in range(lang.MAX_NESTING))
                       + "1 = 1" + ")" * lang.MAX_NESTING + " }")
        with pytest.raises(ParseError, match="nested deeper"):
            lang.parse(quantifiers)


class TestMerge:
    def test_merge_resources_and_constraints(self):
        merged = helpers.merged_doc()
        assert len(merged.components) == 2
        assert len(merged.hosts) == 6
        assert len(merged.constraintsets) == 1

    def test_identical_duplicates_collapse(self):
        doc = helpers.resources_doc()
        merged = lang.merge_documents(doc, doc)
        assert merged == doc

    def test_conflicting_declarations_rejected(self):
        a = lang.parse('host a = host(ipaddress = "1")')
        b = lang.parse('host a = host(ipaddress = "2")')
        with pytest.raises(ValidationError, match="conflicting"):
            lang.merge_documents(a, b)


class TestPrettyPrint:
    def test_figures_round_trip(self):
        for doc in (helpers.resources_doc(), helpers.constraints_doc(),
                    helpers.merged_doc()):
            assert lang.parse(lang.pretty_print(doc)) == doc

    def test_empty_document(self):
        assert lang.pretty_print(lang.SpecDocument()) == ""

    def test_random_documents_round_trip(self):
        rng = helpers.rng(7)
        for _ in range(100):
            doc = generators.gen_document(rng)
            printed = lang.pretty_print(doc)
            assert lang.parse(printed) == doc, printed


class TestPositionSoundness:
    """Single-token mutations of the sample sources must fail (if they fail)
    at or after the mutated token, and the position must name a real token."""

    REPLACEMENTS = ["component", "host", ")", "(", "=", "card", "zzz", "7"]

    def _mutations(self, source):
        tokens = lang.tokenize(source)
        for i in range(0, len(tokens), 7):
            yield i, tokens, self.REPLACEMENTS[i % len(self.REPLACEMENTS)]

    def _rebuild(self, tokens, index, replacement):
        texts = []
        for j, tok in enumerate(tokens):
            if j == index:
                if replacement is None:
                    continue
                texts.append(replacement)
            else:
                text = tok.text
                if tok.kind == "string-literal":
                    text = f'"{text}"'
                texts.append(text)
        return " ".join(texts)

    @pytest.mark.parametrize("source_name", ["resources", "constraints"])
    def test_mutations(self, source_name):
        source = (helpers.RESOURCES_TEXT if source_name == "resources"
                  else helpers.CONSTRAINTS_TEXT)
        checked = placed = 0
        for index, tokens, replacement in self._mutations(source):
            for mutated in (self._rebuild(tokens, index, replacement),
                            self._rebuild(tokens, index, None)):
                remaining = lang.tokenize(mutated)
                positions = {(t.line, t.column) for t in remaining}
                try:
                    lang.parse(mutated)
                except ParseError as err:
                    assert err.token_index >= index
                    if err.token_index < len(remaining):
                        assert (err.line, err.column) in positions
                    checked += 1
                except ValidationError as err:
                    # A scope fault names the token at fault.
                    if _position(err) is not None:
                        assert _position(err) in positions
                        placed += 1
                except LexError:
                    pass
        assert checked > 10
        assert placed > 0 or source_name == "resources"
