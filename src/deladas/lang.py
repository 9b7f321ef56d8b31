"""Deladas source handling: lexer, parser, validator and pretty printer.

Deladas is a small declarative language describing deployment goals: software
component types, hosts, and named constraint sets over their placement and
wiring. It contains no computational constructs.

Grammar (EBNF):

    spec          := { decl }
    decl          := componentDecl | hostDecl | csDecl
    componentDecl := "component" IDENT "(" attr { "," attr } ")"
    attr          := IDENT "=" ( STRING | "{" port { "," port } "}" )
    port          := IDENT [ "[" "]" ]
    hostDecl      := "host" IDENT "=" "host" "(" attr { "," attr } ")"
    csDecl        := "constraintset" IDENT "=" "constraintset" "{" { expr } "}"
    expr          := orExpr
    orExpr        := andExpr { "or" andExpr }
    andExpr       := primary { [ "and" ] primary }
    primary       := quant | compare | connects | reach | "(" expr ")"
    quant         := ("forall"|"exists") binder { "," binder }
                     "in" "deployment" "(" expr ")"
    binder        := "host" IDENT | IDENT IDENT
    compare       := value ("="|"!="|"<="|">="|"<"|">") value
    value         := NUMBER | IDENT | "card" "(" setExpr ")"
    setExpr       := "instancesof" IDENT "in" IDENT
                   | IDENT IDENT "connectedto" IDENT
    connects      := IDENT "." IDENT "connectsto" IDENT "." IDENT
    reach         := "reachable" "(" IDENT "," IDENT ")"

Juxtaposed predicates inside a quantifier body are conjunction; the `and`
keyword is an explicit synonym. `and` binds tighter than `or`.

Static rules. The parser checks variable scopes and sorts at the token
that binds or uses each variable, or at the comparison operator, and its
ValidationError starts with that token's line and column. validate_document
checks what needs the whole document: distinct names, hosts and connectsto
ports. A SpecDocument built by hand gets no scope check.

Lexical rules. An identifier is a letter or `_`, then letters, digits or
`_`; the keywords are reserved. An integer is decimal digits of any script.
A string is double-quoted on one line, with escapes \\n \\t \\\\ \\" and any
other escaped character read as itself. Blanks are space, tab and CR only;
`//` starts a comment that runs to the end of the line. Files use extension
.deladas, UTF-8.
"""

from __future__ import annotations

import re
from typing import NamedTuple


KEYWORDS = frozenset([
    "component", "host", "constraintset", "forall", "exists", "in",
    "deployment", "card", "instancesof", "connectsto", "connectedto",
    "reachable", "and", "or",
])

COMPARISON_OPS = frozenset(["=", "!=", "<=", ">=", "<", ">"])
# Deepest nesting of parentheses and quantifier bodies the parser accepts;
# it keeps every recursive walker of the syntax tree far from Python's
# recursion limit.
MAX_NESTING = 100

HOST_SORT = "host"  # binder sort marker; "host" is a keyword so no type clashes


class DeladasError(Exception):
    """Base class for all errors raised by this package."""


class LexError(DeladasError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ParseError(DeladasError):
    def __init__(self, message: str, line: int, column: int,
                 token_index: int, expected: tuple[str, ...] = ()):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.token_index = token_index
        self.expected = expected


class ValidationError(DeladasError):
    """A document is grammatical but breaks a static rule."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _record_eq(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _record_ne(self, other) -> bool:
    return self.__class__ is not other.__class__ or tuple.__ne__(self, other)


def record(cls):
    """Make a NamedTuple class an immutable value type of the package.

    A record equals only a record of its own type with equal fields, so
    And(items) != Or(items) and no record equals a plain tuple. Its hash is
    the tuple hash of its fields. A record must have at least one field: an
    empty tuple is falsy."""
    cls.__eq__ = _record_eq
    cls.__ne__ = _record_ne
    cls.__hash__ = tuple.__hash__
    return cls


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

KEYWORD = "keyword"
IDENT = "identifier"
STRING = "string-literal"
INTEGER = "integer-literal"
PUNCT = "punctuation"


@record
class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


_STRING_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}

# One alternative per lexical class, tried in order. \w is isalnum() or _;
# \d is isdecimal(), as int() rejects digits such as '²'.
_LEXEME = re.compile(r"""
    (?P<newline>\n)
  | [ \t\r]+ | //[^\n]*
  | (?P<string>"(?:\\[^\n]|[^"\\\n])*")
  | (?P<word>[^\W\d]\w*)
  | (?P<integer>\d+)
  | (?P<punct>!=|<=|>=|[(){}\[\],.=<>])
  | (?P<other>[\s\S])
""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    """Tokenize Deladas source text.

    Comments (`//` to end of line) and blanks produce no tokens.
    Raises LexError for any character outside the grammar.
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "word":
            # \w also takes numerals such as '²', which may not start a word.
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"unexpected character {text[0]!r}", line, col)
            tokens.append(Token(KEYWORD if text in KEYWORDS else IDENT,
                                text, line, col))
        elif kind == "string":
            body = text[1:-1]
            if "\\" in body:
                body = re.sub(r"\\(.)",
                              lambda e: _STRING_ESCAPES.get(e[1], e[1]), body)
            tokens.append(Token(STRING, body, line, col))
        elif kind == "integer":
            tokens.append(Token(INTEGER, text, line, col))
        elif kind == "punct":
            tokens.append(Token(PUNCT, text, line, col))
        elif text == '"':
            raise LexError("unterminated string literal", line, col)
        else:
            raise LexError(f"unexpected character {text!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@record
class Port(NamedTuple):
    name: str
    variadic: bool = False


@record
class ComponentType(NamedTuple):
    name: str
    code: str
    ports: tuple[Port, ...]

    def port(self, name: str) -> Port | None:
        for p in self.ports:
            if p.name == name:
                return p
        return None


@record
class HostSpec(NamedTuple):
    name: str
    # Ordered (key, value) pairs; validation puts ipaddress first.
    attributes: tuple[tuple[str, str], ...]


@record
class IntLiteral(NamedTuple):
    value: int


@record
class Var(NamedTuple):
    name: str


@record
class InstancesOf(NamedTuple):
    type_name: str
    host_var: str


@record
class ConnectedTo(NamedTuple):
    type_name: str
    var: str
    peer_var: str


@record
class Card(NamedTuple):
    inner: InstancesOf | ConnectedTo


ValueExpr = IntLiteral | Var | Card


@record
class Binder(NamedTuple):
    var: str
    sort: str  # HOST_SORT or a component type name


@record
class Quantified(NamedTuple):
    kind: str  # "forall" | "exists"
    binders: tuple[Binder, ...]
    body: "ConstraintExpr"


@record
class And(NamedTuple):
    items: tuple["ConstraintExpr", ...]


@record
class Or(NamedTuple):
    items: tuple["ConstraintExpr", ...]


@record
class Compare(NamedTuple):
    op: str
    lhs: ValueExpr
    rhs: ValueExpr


@record
class PortRef(NamedTuple):
    var: str
    port: str


@record
class ConnectsTo(NamedTuple):
    src: PortRef
    dst: PortRef


@record
class Reachable(NamedTuple):
    a: str
    b: str


ConstraintExpr = Quantified | And | Or | Compare | ConnectsTo | Reachable


def free_vars(expr: ConstraintExpr) -> set[str]:
    """The variables expr reads that no quantifier inside it binds. The
    counted variable of `card(T v connectedto p)` is bound by the card."""
    if isinstance(expr, Quantified):
        return free_vars(expr.body) - {b.var for b in expr.binders}
    if isinstance(expr, (And, Or)):
        return set().union(*(free_vars(item) for item in expr.items))
    if isinstance(expr, ConnectsTo):
        return {expr.src.var, expr.dst.var}
    if isinstance(expr, Reachable):
        return {expr.a, expr.b}
    out = set()
    for value in (expr.lhs, expr.rhs):
        if isinstance(value, Var):
            out.add(value.name)
        elif isinstance(value, Card):
            inner = value.inner
            out.add(inner.host_var if isinstance(inner, InstancesOf)
                    else inner.peer_var)
    return out


@record
class ConstraintSet(NamedTuple):
    name: str
    constraints: tuple[ConstraintExpr, ...]


@record
class SpecDocument(NamedTuple):
    components: tuple[ComponentType, ...] = ()
    hosts: tuple[HostSpec, ...] = ()
    constraintsets: tuple[ConstraintSet, ...] = ()

    def component(self, name: str) -> ComponentType | None:
        for c in self.components:
            if c.name == name:
                return c
        return None

    def host(self, name: str) -> HostSpec | None:
        for h in self.hosts:
            if h.name == name:
                return h
        return None

    def constraintset(self, name: str) -> ConstraintSet | None:
        for cs in self.constraintsets:
            if cs.name == name:
                return cs
        return None


# What a SpecDocument's fields declare, in field order, for messages.
_DECLARATION_KINDS = ("component", "host", "constraintset")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_EOF = Token("eof", "", 0, 0)


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        # Variables the enclosing quantifiers bind, with their sorts, and
        # the constraintset being parsed, for scope faults.
        self.scope: dict[str, str] = {}
        self.where = ""
        # EOF position for error reporting.
        lines = source.split("\n")
        self.eof_line = len(lines)
        self.eof_col = len(lines[-1]) + 1

    def _peek(self, ahead: int = 0) -> Token:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else _EOF

    def _advance(self) -> Token:
        tok = self._peek()
        self.pos += 1
        return tok

    def _error(self, expected: tuple[str, ...]) -> ParseError:
        tok = self._peek()
        if tok is _EOF:
            found = "end of input"
            line, col = self.eof_line, self.eof_col
        else:
            found = f"{tok.kind} {tok.text!r}"
            line, col = tok.line, tok.column
        want = " or ".join(expected)
        return ParseError(f"expected {want}, found {found}", line, col,
                          self.pos, expected)

    def _fault(self, tok: Token, message: str) -> ValidationError:
        return ValidationError(
            f"line {tok.line}, col {tok.column}: {self.where}: {message}")

    def _expect_kw(self, word: str) -> Token:
        tok = self._peek()
        if tok.kind == KEYWORD and tok.text == word:
            return self._advance()
        raise self._error((f"'{word}'",))

    def _expect_punct(self, text: str) -> Token:
        tok = self._peek()
        if tok.kind == PUNCT and tok.text == text:
            return self._advance()
        raise self._error((f"'{text}'",))

    def _expect_ident(self, what: str = "identifier") -> Token:
        tok = self._peek()
        if tok.kind == IDENT:
            return self._advance()
        raise self._error((what,))

    def _expect_port_name(self) -> Token:
        # Port names live in their own namespace; keywords like `in` are
        # legal here (`ports = {in, out}`) and unambiguous.
        tok = self._peek()
        if tok.kind in (IDENT, KEYWORD):
            return self._advance()
        raise self._error(("port name",))

    def _at_kw(self, word: str, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok.kind == KEYWORD and tok.text == word

    def _at_punct(self, text: str, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok.kind == PUNCT and tok.text == text

    # -- declarations --------------------------------------------------------

    def parse_document(self) -> SpecDocument:
        components: list[ComponentType] = []
        hosts: list[HostSpec] = []
        constraintsets: list[ConstraintSet] = []
        while self._peek() is not _EOF:
            if self._at_kw("component"):
                components.append(self._parse_component())
            elif self._at_kw("host"):
                hosts.append(self._parse_host())
            elif self._at_kw("constraintset"):
                constraintsets.append(self._parse_constraintset())
            else:
                raise self._error(("'component'", "'host'", "'constraintset'"))
        return SpecDocument(tuple(components), tuple(hosts), tuple(constraintsets))

    def _parse_attrs(self) -> list[tuple[str, str | tuple[Port, ...]]]:
        self._expect_punct("(")
        attrs: list[tuple[str, str | tuple[Port, ...]]] = []
        while True:
            name = self._expect_ident("attribute name").text
            self._expect_punct("=")
            tok = self._peek()
            if tok.kind == STRING:
                attrs.append((name, self._advance().text))
            elif self._at_punct("{"):
                self._advance()
                ports: list[Port] = []
                while True:
                    pname = self._expect_port_name().text
                    variadic = False
                    if self._at_punct("["):
                        self._advance()
                        self._expect_punct("]")
                        variadic = True
                    ports.append(Port(pname, variadic))
                    if self._at_punct(","):
                        self._advance()
                        continue
                    break
                self._expect_punct("}")
                attrs.append((name, tuple(ports)))
            else:
                raise self._error(("string literal", "'{'"))
            if self._at_punct(","):
                self._advance()
                continue
            break
        self._expect_punct(")")
        return attrs

    def _parse_component(self) -> ComponentType:
        self._expect_kw("component")
        name = self._expect_ident("component name").text
        attrs = self._parse_attrs()
        return _component_from_attrs(name, attrs)

    def _parse_host(self) -> HostSpec:
        self._expect_kw("host")
        name = self._expect_ident("host name").text
        self._expect_punct("=")
        self._expect_kw("host")
        attrs = self._parse_attrs()
        for key, value in attrs:
            if not isinstance(value, str):
                raise ValidationError(
                    f"host {name}: attribute {key} must be a string")
        return HostSpec(name, tuple((k, v) for k, v in attrs))  # type: ignore[misc]

    def _parse_constraintset(self) -> ConstraintSet:
        self._expect_kw("constraintset")
        name = self._expect_ident("constraintset name").text
        self.where = f"constraintset {name}"
        self._expect_punct("=")
        self._expect_kw("constraintset")
        self._expect_punct("{")
        constraints: list[ConstraintExpr] = []
        while not self._at_punct("}"):
            if self._peek() is _EOF:
                raise self._error(("'}'",))
            # At constraintset top level each expression is its own clause;
            # juxtaposition only means conjunction inside bodies and parens.
            constraints.append(self._parse_expr(juxtapose=False))
        self._expect_punct("}")
        return ConstraintSet(name, tuple(constraints))

    # -- expressions ----------------------------------------------------------

    def _parse_expr(self, juxtapose: bool = True) -> ConstraintExpr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self._peek()
            raise ParseError(f"expression nested deeper than {MAX_NESTING} "
                             "levels", tok.line, tok.column, self.pos)
        items = [self._parse_and(juxtapose)]
        while self._at_kw("or"):
            self._advance()
            items.append(self._parse_and(juxtapose))
        self.depth -= 1
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _parse_and(self, juxtapose: bool) -> ConstraintExpr:
        items = [self._parse_primary()]
        while True:
            if self._at_kw("and"):
                self._advance()
                items.append(self._parse_primary())
            elif juxtapose and self._starts_primary():
                items.append(self._parse_primary())
            else:
                break
        return items[0] if len(items) == 1 else And(tuple(items))

    def _starts_primary(self) -> bool:
        tok = self._peek()
        if tok.kind == KEYWORD:
            return tok.text in ("forall", "exists", "card", "reachable")
        if tok.kind in (IDENT, INTEGER):
            return True
        return tok.kind == PUNCT and tok.text == "("

    def _parse_primary(self) -> ConstraintExpr:
        tok = self._peek()
        if tok.kind == KEYWORD and tok.text in ("forall", "exists"):
            return self._parse_quantified()
        if tok.kind == KEYWORD and tok.text == "reachable":
            return self._parse_reachable()
        if self._at_punct("("):
            self._advance()
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        if tok.kind == KEYWORD and tok.text == "card" or tok.kind == INTEGER:
            return self._parse_compare()
        if tok.kind == IDENT:
            if self._at_punct(".", ahead=1):
                return self._parse_connects()
            nxt = self._peek(1)
            if nxt.kind == PUNCT and nxt.text in COMPARISON_OPS:
                return self._parse_compare()
            self._advance()
            raise self._error(("'.'", "comparison operator"))
        raise self._error(("'forall'", "'exists'", "'card'", "'reachable'",
                           "identifier", "integer", "'('"))

    def _parse_quantified(self) -> Quantified:
        kind = self._advance().text
        binders = [self._parse_binder(None)]
        while self._at_punct(","):
            self._advance()
            binders.append(self._parse_binder(binders[-1].sort))
        self._expect_kw("in")
        self._expect_kw("deployment")
        self._expect_punct("(")
        body = self._parse_expr()
        self._expect_punct(")")
        for b in binders:
            del self.scope[b.var]
        return Quantified(kind, tuple(binders), body)

    def _parse_binder(self, prev_sort: str | None) -> Binder:
        """Parse one binder and bind its variable until the body ends."""
        if self._at_kw("host"):
            self._advance()
            tok, sort = self._expect_ident("host variable"), HOST_SORT
        else:
            first = self._expect_ident(
                "type name" if prev_sort is None else "binder")
            if self._peek().kind == IDENT:
                tok, sort = self._advance(), first.text
            # A bare variable after a comma shares the previous binder's
            # sort, as in `forall Router r1, r2`.
            elif prev_sort is None:
                raise self._error(("variable",))
            else:
                tok, sort = first, prev_sort
        self.scope[self._unbound(tok)] = sort
        return Binder(tok.text, sort)

    def _unbound(self, tok: Token) -> str:
        """The name of a variable token that no enclosing quantifier binds."""
        if tok.text in self.scope:
            raise self._fault(tok, f"variable {tok.text} already bound")
        return tok.text

    def _var(self, what: str = "variable") -> tuple[Token, str]:
        """A variable use and the sort its quantifier gave it."""
        tok = self._expect_ident(what)
        if tok.text not in self.scope:
            raise self._fault(tok, f"unbound variable {tok.text}")
        return tok, self.scope[tok.text]

    def _instance_var(self, fault: str) -> str:
        """A variable use that must be an instance; fault, formatted with
        its name, is the message when it is a host."""
        tok, sort = self._var()
        if sort == HOST_SORT:
            raise self._fault(tok, fault.format(tok.text))
        return tok.text

    def _parse_compare(self) -> Compare:
        lhs, lhs_kind = self._parse_value()
        op = self._peek()
        if not (op.kind == PUNCT and op.text in COMPARISON_OPS):
            raise self._error(("comparison operator",))
        self._advance()
        rhs, rhs_kind = self._parse_value()
        if op.text in ("<", "<=", ">", ">="):
            if lhs_kind != "int" or rhs_kind != "int":
                raise self._fault(
                    op, "ordering comparison requires integer operands")
        elif lhs_kind != rhs_kind:
            raise self._fault(op, f"cannot compare {lhs_kind} with {rhs_kind}")
        return Compare(op.text, lhs, rhs)

    def _parse_value(self) -> tuple[ValueExpr, str]:
        """A comparison operand and its kind: int, host-var or instance-var."""
        tok = self._peek()
        if tok.kind == INTEGER:
            return IntLiteral(int(self._advance().text)), "int"
        if tok.kind == KEYWORD and tok.text == "card":
            self._advance()
            self._expect_punct("(")
            inner = self._parse_set_expr()
            self._expect_punct(")")
            return Card(inner), "int"
        if tok.kind == IDENT:
            _, sort = self._var()
            return Var(tok.text), ("host-var" if sort == HOST_SORT
                                   else "instance-var")
        raise self._error(("integer", "identifier", "'card'"))

    def _parse_set_expr(self) -> InstancesOf | ConnectedTo:
        if self._at_kw("instancesof"):
            self._advance()
            type_name = self._expect_ident("type name").text
            self._expect_kw("in")
            tok, sort = self._var("host variable")
            if sort != HOST_SORT:
                raise self._fault(tok, "instancesof needs a host variable, "
                                       f"{tok.text} is not one")
            return InstancesOf(type_name, tok.text)
        type_name = self._expect_ident("type name").text
        # The counted variable is the card's own; it may not rebind one.
        var = self._unbound(self._expect_ident("variable"))
        self._expect_kw("connectedto")
        peer_tok = self._peek()
        if peer_tok.kind == IDENT and peer_tok.text == var:
            raise self._fault(peer_tok,
                              "connectedto variable shadows its peer")
        peer = self._instance_var("connectedto peer must be an instance "
                                  "variable")
        return ConnectedTo(type_name, var, peer)

    def _parse_connects(self) -> ConnectsTo:
        src = self._parse_port_ref()
        self._expect_kw("connectsto")
        return ConnectsTo(src, self._parse_port_ref())

    def _parse_port_ref(self) -> PortRef:
        var = self._instance_var("{} is a host variable, not an instance")
        self._expect_punct(".")
        return PortRef(var, self._expect_port_name().text)

    def _parse_reachable(self) -> Reachable:
        fault = "reachable needs instance variables, {} is a host"
        self._expect_kw("reachable")
        self._expect_punct("(")
        a = self._instance_var(fault)
        self._expect_punct(",")
        b = self._instance_var(fault)
        self._expect_punct(")")
        return Reachable(a, b)


def _component_from_attrs(name: str,
                          attrs: list[tuple[str, str | tuple[Port, ...]]]) -> ComponentType:
    code: str | None = None
    ports: tuple[Port, ...] | None = None
    seen: set[str] = set()
    for key, value in attrs:
        if key in seen:
            raise ValidationError(f"component {name}: duplicate attribute {key}")
        seen.add(key)
        if key in ("code", "bundles"):
            if code is not None:
                raise ValidationError(
                    f"component {name}: give exactly one of code or bundles")
            if not isinstance(value, str):
                raise ValidationError(f"component {name}: {key} must be a string")
            code = value
        elif key == "ports":
            if isinstance(value, str):
                raise ValidationError(f"component {name}: ports must be a port list")
            ports = value
        else:
            raise ValidationError(f"component {name}: unknown attribute {key}")
    if code is None:
        raise ValidationError(f"component {name}: missing code (or bundles) attribute")
    if not code:
        raise ValidationError(f"component {name}: code must be non-empty")
    if ports is None:
        raise ValidationError(f"component {name}: missing ports attribute")
    names = [p.name for p in ports]
    if len(set(names)) != len(names):
        raise ValidationError(f"component {name}: duplicate port names")
    return ComponentType(name, code, ports)


# ---------------------------------------------------------------------------
# Static validation
# ---------------------------------------------------------------------------

def validate_document(doc: SpecDocument) -> SpecDocument:
    """Check the rules that need the whole document and canonicalize it.

    Names are distinct per declaration kind, hosts pass canonical_host, and
    each connectsto port is one its type declares, when the document
    declares that type. The parser has already checked variable scopes and
    sorts; a hand-built document gets no such check here. Host attributes
    are reordered with ipaddress first; everything else is returned as-is.
    Raises ValidationError on the first broken rule.
    """
    for what, decls in zip(_DECLARATION_KINDS, doc):
        seen: set[str] = set()
        for decl in decls:
            if decl.name in seen:
                raise ValidationError(f"duplicate {what} name {decl.name}")
            seen.add(decl.name)
    hosts = tuple(canonical_host(h.name, h.attributes) for h in doc.hosts)
    for cs in doc.constraintsets:
        for pattern in connect_patterns(cs):
            for sort, port in (pattern[:2], pattern[2:]):
                ctype = doc.component(sort)
                if ctype is not None and ctype.port(port) is None:
                    raise ValidationError(f"constraintset {cs.name}: "
                                          f"type {sort} has no port {port}")
    return SpecDocument(doc.components, hosts, doc.constraintsets)


def connect_patterns(cs: ConstraintSet) -> list[tuple[str, str, str, str]]:
    """Typed (src type, src port, dst type, dst port) patterns from the
    constraintset's connectsto leaves, in first-appearance order. An unbound
    variable's type is ""."""
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


def canonical_host(name: str, attributes) -> HostSpec:
    """A host as Deladas text, a DDD and add-host all read it, ipaddress
    first. Names and keys are identifiers, keys distinct XML names but `id`
    (the DDD's name attribute), values XML text and ipaddress non-empty, so
    the host prints and survives ddd.to_xml and ddd.parse_ddd."""
    keys = [k for k, _ in attributes]
    if not _is_identifier(name):
        raise ValidationError(f"host name {name!r} is not an identifier")
    if len(set(keys)) != len(keys):
        raise ValidationError(f"host {name}: duplicate attribute keys")
    for key, value in attributes:
        if not (_is_attribute_key(key) and _is_xml_text(value)):
            raise ValidationError(f"host {name}: bad attribute {key!r}")
    ip = [(k, v) for k, v in attributes if k == "ipaddress"]
    if not ip or not ip[0][1]:
        raise ValidationError(f"host {name}: ipaddress attribute required")
    rest = [(k, v) for k, v in attributes if k != "ipaddress"]
    return HostSpec(name, tuple(ip + rest))


def _is_identifier(text: str) -> bool:
    """Whether tokenize reads text as one identifier token."""
    m = _LEXEME.fullmatch(text)
    return (m is not None and m.lastgroup == "word"
            and (text[0].isalpha() or text[0] == "_") and text not in KEYWORDS)


def _is_attribute_key(key: str) -> bool:
    """An identifier but id that the DDD's XML parser reads back as a key:
    not xmlns (a namespace), and a non-ASCII one only if the parser takes
    it, as its name characters predate most letters (it rejects 'ª')."""
    if key == "id" or not _is_identifier(key):
        return False
    if key.isascii():
        return key != "xmlns"
    import xml.etree.ElementTree as ET  # only non-ASCII keys need it
    try:
        return ET.fromstring(f'<host {key}=""/>').attrib == {key: ""}
    except ET.ParseError:
        return False


def _is_xml_text(value: str) -> bool:
    """Whether value holds only XML 1.0 characters; printable ones all are."""
    return value.isprintable() or all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
        or c >= "\U00010000" for c in value)


def parse(source: str) -> SpecDocument:
    """Parse and validate Deladas source text into a SpecDocument. Scope
    faults are reported at their token, the first in source order."""
    tokens = tokenize(source)
    doc = _Parser(tokens, source).parse_document()
    return validate_document(doc)


def merge_documents(a: SpecDocument, b: SpecDocument) -> SpecDocument:
    """Combine two documents (e.g. a resources file and a constraints file).

    Identical duplicate declarations collapse; conflicting ones are an error.
    The merged document is re-validated, which also checks constraint port
    references against the now-known component types.
    """
    merged = []
    for what, ours, theirs in zip(_DECLARATION_KINDS, a, b):
        decls = list(ours)
        for decl in theirs:
            existing = next((x for x in decls if x.name == decl.name), None)
            if existing is None:
                decls.append(decl)
            elif existing != decl:
                raise ValidationError(
                    f"conflicting declarations of {what} {decl.name}")
        merged.append(tuple(decls))
    return validate_document(SpecDocument(*merged))


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def _quote(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _fmt_value(value: ValueExpr) -> str:
    if isinstance(value, IntLiteral):
        return str(value.value)
    if isinstance(value, Var):
        return value.name
    inner = value.inner
    if isinstance(inner, InstancesOf):
        return f"card(instancesof {inner.type_name} in {inner.host_var})"
    return f"card({inner.type_name} {inner.var} connectedto {inner.peer_var})"


def _fmt_expr(expr: ConstraintExpr, indent: int) -> str:
    pad = " " * indent
    if isinstance(expr, Quantified):
        binders = ", ".join(
            f"host {b.var}" if b.sort == HOST_SORT else f"{b.sort} {b.var}"
            for b in expr.binders)
        body = _fmt_expr(expr.body, indent + 2)
        return (f"{expr.kind} {binders} in deployment (\n"
                f"{' ' * (indent + 2)}{body}\n{pad})")
    if isinstance(expr, And):
        parts = []
        for item in expr.items:
            text = _fmt_expr(item, indent)
            if isinstance(item, (And, Or)):
                text = f"({text})"
            parts.append(text)
        return " and ".join(parts)
    if isinstance(expr, Or):
        parts = []
        for item in expr.items:
            text = _fmt_expr(item, indent)
            if isinstance(item, Or):
                text = f"({text})"
            parts.append(text)
        return " or ".join(parts)
    if isinstance(expr, Compare):
        return f"{_fmt_value(expr.lhs)} {expr.op} {_fmt_value(expr.rhs)}"
    if isinstance(expr, ConnectsTo):
        return (f"{expr.src.var}.{expr.src.port} connectsto "
                f"{expr.dst.var}.{expr.dst.port}")
    if isinstance(expr, Reachable):
        return f"reachable({expr.a}, {expr.b})"
    raise TypeError(f"not a constraint expression: {expr!r}")


def pretty_print(doc: SpecDocument) -> str:
    """Render a SpecDocument as canonical Deladas text.

    Parsing the output yields a document structurally equal to the input;
    byte-level layout is not preserved.
    """
    blocks: list[str] = []
    for c in doc.components:
        ports = ", ".join(p.name + ("[]" if p.variadic else "") for p in c.ports)
        blocks.append(
            f"component {c.name}(\n"
            f"  code = {_quote(c.code)},\n"
            f"  ports = {{{ports}}}\n"
            f")")
    for h in doc.hosts:
        attrs = ", ".join(f"{k} = {_quote(v)}" for k, v in h.attributes)
        blocks.append(f"host {h.name} = host({attrs})")
    for cs in doc.constraintsets:
        if cs.constraints:
            body = "\n".join("  " + _fmt_expr(e, 2) for e in cs.constraints)
            blocks.append(f"constraintset {cs.name} = constraintset {{\n{body}\n}}")
        else:
            blocks.append(f"constraintset {cs.name} = constraintset {{\n}}")
    return "\n\n".join(blocks) + ("\n" if blocks else "")
