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

Files use extension .deladas, UTF-8, `//` line comments.
"""

from __future__ import annotations

from typing import NamedTuple


KEYWORDS = frozenset([
    "component", "host", "constraintset", "forall", "exists", "in",
    "deployment", "card", "instancesof", "connectsto", "connectedto",
    "reachable", "and", "or",
])

# Longest first so != / <= / >= win over their single-char prefixes.
PUNCTUATION = ("!=", "<=", ">=", "(", ")", "{", "}", "[", "]", ",", ".", "=", "<", ">")

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


def tokenize(source: str) -> list[Token]:
    """Tokenize Deladas source text.

    Comments (`//` to end of line) and whitespace produce no tokens.
    Raises LexError for any character outside the grammar.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    while i < n:
        ch = source[i]

        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue

        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf: list[str] = []
            while i < n and source[i] != '"':
                if source[i] == "\n":
                    raise LexError("unterminated string literal", start_line, start_col)
                if source[i] == "\\" and i + 1 < n:
                    i += 1
                    col += 1
                    buf.append(_STRING_ESCAPES.get(source[i], source[i]))
                else:
                    buf.append(source[i])
                i += 1
                col += 1
            if i >= n:
                raise LexError("unterminated string literal", start_line, start_col)
            i += 1  # closing quote
            col += 1
            tokens.append(Token(STRING, "".join(buf), start_line, start_col))
            continue

        if ch.isalpha() or ch == "_":
            start_col = col
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            text = source[start:i]
            kind = KEYWORD if text in KEYWORDS else IDENT
            tokens.append(Token(kind, text, line, start_col))
            continue

        # isdecimal, not isdigit: int() rejects digits such as '²'.
        if ch.isdecimal():
            start_col = col
            start = i
            while i < n and source[i].isdecimal():
                i += 1
                col += 1
            tokens.append(Token(INTEGER, source[start:i], line, start_col))
            continue

        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(Token(PUNCT, punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)

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

    @property
    def ipaddress(self) -> str:
        for key, value in self.attributes:
            if key == "ipaddress":
                return value
        return ""


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


def free_vars(expr: ConstraintExpr,
              bodies: dict[int, set[str]] | None = None) -> set[str]:
    """The variables expr reads that no quantifier inside it binds. The
    counted variable of `card(T v connectedto p)` is bound by the card.
    bodies, if given, also gets under id(q) the free variables of the body
    of every quantifier q in expr, expr included, from the same walk."""
    if isinstance(expr, Quantified):
        free = free_vars(expr.body, bodies)
        if bodies is not None:
            bodies[id(expr)] = free
        return free - {b.var for b in expr.binders}
    if isinstance(expr, (And, Or)):
        return set().union(*(free_vars(item, bodies) for item in expr.items))
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


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_EOF = Token("eof", "", 0, 0)


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
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
        return Quantified(kind, tuple(binders), body)

    def _parse_binder(self, prev_sort: str | None) -> Binder:
        if self._at_kw("host"):
            self._advance()
            var = self._expect_ident("host variable").text
            return Binder(var, HOST_SORT)
        first = self._expect_ident("type name" if prev_sort is None else "binder").text
        if self._peek().kind == IDENT:
            return Binder(self._advance().text, first)
        # A bare variable after a comma shares the previous binder's sort,
        # as in `forall Router r1, r2`.
        if prev_sort is None:
            raise self._error(("variable",))
        return Binder(first, prev_sort)

    def _parse_compare(self) -> Compare:
        lhs = self._parse_value()
        tok = self._peek()
        if tok.kind == PUNCT and tok.text in COMPARISON_OPS:
            op = self._advance().text
        else:
            raise self._error(("comparison operator",))
        rhs = self._parse_value()
        return Compare(op, lhs, rhs)

    def _parse_value(self) -> ValueExpr:
        tok = self._peek()
        if tok.kind == INTEGER:
            return IntLiteral(int(self._advance().text))
        if tok.kind == KEYWORD and tok.text == "card":
            self._advance()
            self._expect_punct("(")
            inner = self._parse_set_expr()
            self._expect_punct(")")
            return Card(inner)
        if tok.kind == IDENT:
            return Var(self._advance().text)
        raise self._error(("integer", "identifier", "'card'"))

    def _parse_set_expr(self) -> InstancesOf | ConnectedTo:
        if self._at_kw("instancesof"):
            self._advance()
            type_name = self._expect_ident("type name").text
            self._expect_kw("in")
            host_var = self._expect_ident("host variable").text
            return InstancesOf(type_name, host_var)
        type_name = self._expect_ident("type name").text
        var = self._expect_ident("variable").text
        self._expect_kw("connectedto")
        peer = self._expect_ident("variable").text
        return ConnectedTo(type_name, var, peer)

    def _parse_connects(self) -> ConnectsTo:
        v1 = self._expect_ident("variable").text
        self._expect_punct(".")
        p1 = self._expect_port_name().text
        self._expect_kw("connectsto")
        v2 = self._expect_ident("variable").text
        self._expect_punct(".")
        p2 = self._expect_port_name().text
        return ConnectsTo(PortRef(v1, p1), PortRef(v2, p2))

    def _parse_reachable(self) -> Reachable:
        self._expect_kw("reachable")
        self._expect_punct("(")
        a = self._expect_ident("variable").text
        self._expect_punct(",")
        b = self._expect_ident("variable").text
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
    """Check cross-declaration rules and canonicalize the document.

    Host attributes are reordered with ipaddress first; everything else is
    returned as-is. Raises ValidationError on the first broken rule.
    """
    _check_distinct([c.name for c in doc.components], "component")
    _check_distinct([h.name for h in doc.hosts], "host")
    _check_distinct([cs.name for cs in doc.constraintsets], "constraintset")

    hosts = tuple(_canonical_host(h) for h in doc.hosts)
    for cs in doc.constraintsets:
        for expr in cs.constraints:
            _check_expr(expr, {}, doc, cs.name)
    return SpecDocument(doc.components, hosts, doc.constraintsets)


def _check_distinct(names: list[str], what: str) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValidationError(f"duplicate {what} name {name}")
        seen.add(name)


def _canonical_host(h: HostSpec) -> HostSpec:
    keys = [k for k, _ in h.attributes]
    if len(set(keys)) != len(keys):
        raise ValidationError(f"host {h.name}: duplicate attribute keys")
    ip = [(k, v) for k, v in h.attributes if k == "ipaddress"]
    if not ip or not ip[0][1]:
        raise ValidationError(f"host {h.name}: ipaddress attribute required")
    rest = [(k, v) for k, v in h.attributes if k != "ipaddress"]
    return HostSpec(h.name, tuple(ip + rest))


def _check_expr(expr: ConstraintExpr, env: dict[str, str],
                doc: SpecDocument, cs_name: str) -> None:
    where = f"constraintset {cs_name}"
    if isinstance(expr, Quantified):
        inner = dict(env)
        for b in expr.binders:
            if b.var in inner:
                raise ValidationError(f"{where}: variable {b.var} already bound")
            inner[b.var] = b.sort
        _check_expr(expr.body, inner, doc, cs_name)
    elif isinstance(expr, (And, Or)):
        for item in expr.items:
            _check_expr(item, env, doc, cs_name)
    elif isinstance(expr, Compare):
        lk = _value_kind(expr.lhs, env, doc, where)
        rk = _value_kind(expr.rhs, env, doc, where)
        if expr.op in ("<", "<=", ">", ">="):
            if lk != "int" or rk != "int":
                raise ValidationError(
                    f"{where}: ordering comparison requires integer operands")
        else:  # = or !=
            if lk != rk:
                raise ValidationError(
                    f"{where}: cannot compare {lk} with {rk}")
    elif isinstance(expr, ConnectsTo):
        for ref in (expr.src, expr.dst):
            sort = _lookup(ref.var, env, where)
            if sort == HOST_SORT:
                raise ValidationError(
                    f"{where}: {ref.var} is a host variable, not an instance")
            ctype = doc.component(sort)
            if ctype is not None and ctype.port(ref.port) is None:
                raise ValidationError(
                    f"{where}: type {sort} has no port {ref.port}")
    elif isinstance(expr, Reachable):
        for var in (expr.a, expr.b):
            if _lookup(var, env, where) == HOST_SORT:
                raise ValidationError(
                    f"{where}: reachable needs instance variables, {var} is a host")
    else:
        raise ValidationError(f"{where}: unknown expression {expr!r}")


def _lookup(var: str, env: dict[str, str], where: str) -> str:
    if var not in env:
        raise ValidationError(f"{where}: unbound variable {var}")
    return env[var]


def _value_kind(value: ValueExpr, env: dict[str, str],
                doc: SpecDocument, where: str) -> str:
    if isinstance(value, IntLiteral):
        return "int"
    if isinstance(value, Card):
        inner = value.inner
        if isinstance(inner, InstancesOf):
            if _lookup(inner.host_var, env, where) != HOST_SORT:
                raise ValidationError(
                    f"{where}: instancesof needs a host variable, "
                    f"{inner.host_var} is not one")
        else:
            if inner.var in env:
                raise ValidationError(
                    f"{where}: variable {inner.var} already bound")
            if inner.var == inner.peer_var:
                raise ValidationError(
                    f"{where}: connectedto variable shadows its peer")
            if _lookup(inner.peer_var, env, where) == HOST_SORT:
                raise ValidationError(
                    f"{where}: connectedto peer must be an instance variable")
        return "int"
    sort = _lookup(value.name, env, where)
    return "host-var" if sort == HOST_SORT else "instance-var"


def parse(source: str) -> SpecDocument:
    """Parse and validate Deladas source text into a SpecDocument."""
    tokens = tokenize(source)
    doc = _Parser(tokens, source).parse_document()
    return validate_document(doc)


def merge_documents(a: SpecDocument, b: SpecDocument) -> SpecDocument:
    """Combine two documents (e.g. a resources file and a constraints file).

    Identical duplicate declarations collapse; conflicting ones are an error.
    The merged document is re-validated, which also checks constraint port
    references against the now-known component types.
    """
    components = list(a.components)
    for c in b.components:
        existing = next((x for x in components if x.name == c.name), None)
        if existing is None:
            components.append(c)
        elif existing != c:
            raise ValidationError(f"conflicting declarations of component {c.name}")
    hosts = list(a.hosts)
    for h in b.hosts:
        existing_h = next((x for x in hosts if x.name == h.name), None)
        if existing_h is None:
            hosts.append(h)
        elif existing_h != h:
            raise ValidationError(f"conflicting declarations of host {h.name}")
    css = list(a.constraintsets)
    for cs in b.constraintsets:
        existing_cs = next((x for x in css if x.name == cs.name), None)
        if existing_cs is None:
            css.append(cs)
        elif existing_cs != cs:
            raise ValidationError(f"conflicting declarations of constraintset {cs.name}")
    return validate_document(SpecDocument(tuple(components), tuple(hosts), tuple(css)))


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
