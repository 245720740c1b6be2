"""Textual input language: declarations of quivers, Vquivers, algebras,
morphisms and check directives.

Grammar (EBNF; whitespace and line comments starting with `#` are skipped):

    document      = { statement } ;
    statement     = field_decl | quiver_decl | vquiver_decl
                  | algebra_decl | morphism_decl | check_decl ;
    field_decl    = "field" field_name ";" ;
    field_name    = "Q" | "F" integer ;
    quiver_decl   = "quiver" name "{" "vertices" ":" namelist ";"
                    [ "arrows" ":" arrow { "," arrow } ";" ] "}" ;
    arrow         = name ":" name "->" name ;
    vquiver_decl  = "vquiver" name "{" "vertices" ":" namelist ";"
                    { "space" name "->" name "=" "[" namelist "]" ";" } "}" ;
    algebra_decl  = "algebra" name "=" alg_expr ";" ;
    alg_expr      = ("kvq" | "cpa") "(" name "," "level" "=" integer ")"
                    [ "/" "ideal" "(" expr { "," expr } ")" ]
                  | "table" "{" "basis" ":" namelist ";" "unit" ":" expr ";"
                    { name "*" name "=" expr ";" } "}" ;
    morphism_decl = "morphism" name ":" name "->" name
                    "{" { name "->" expr ";" } "}" ;
    check_decl    = "check" name "(" [ arg { "," arg } ] ")" ";" ;
    arg           = name | integer ;
    expr          = [ "-" ] term { ("+" | "-") term } ;
    term          = coeff [ "*" word ] | word ;
    word          = name { "*" name } ;
    coeff         = integer [ "/" integer ] ;
    namelist      = name { "," name } ;

Unlisted products in a `table` algebra are zero.  A morphism body must give
an image for every generator of the source presentation (the vertex
idempotents `e<vertex>` and the arrow labels).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import QuivkitError
from .algebra import (
    FinAlgebra,
    _mul_raw,
    ideal_generated_by,
    induced_on_quotient,
    quotient_algebra,
    table_algebra,
)
from .exactlin import MAX_CHAR_DIGITS, field_by_name, QQ, add_scaled
from .pathalg import MAX_KVQ_DIM, build_kvq, cpa, universal_map
from .vquiver import Quiver, VQuiver


def _err(code, msg, line, col):
    raise QuivkitError(code, f"{msg} (line {line}, column {col})")


def _at(stmt, fn, *args):
    """fn(*args), with the statement's position added to a QuivkitError."""
    try:
        return fn(*args)
    except QuivkitError as exc:
        _err(exc.code, exc.message, stmt.line, stmt.col)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# One alternative per token rule, tried in this order at each position: a
# newline, blanks, a comment, an ASCII integer, a word (letters, digits and
# "_" in the Unicode sense; a NAME when it starts with a letter or "_"), a
# symbol and any other character.  Blanks and comments have no group.
_TOKEN = re.compile(r"""
    (?P<NL>\n) | [ \t\r]+ | \#[^\n]*
  | (?P<INT>[0-9]+) | (?P<NAME>\w+) | (?P<SYM>->|[{}()\[\]:;,=*+\-/]) | (?P<BAD>.)
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text: str):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "NL":
            line, line_start = line + 1, m.end()
            continue
        value, col = m.group(), m.start() - line_start + 1
        if kind == "INT":
            if len(value) > MAX_CHAR_DIGITS:
                _err("PARSE_ERROR", f"integer literal has {len(value)} digits "
                                    f"(at most {MAX_CHAR_DIGITS})", line, col)
            value = int(value)
        elif kind != "SYM" and not (value[0].isalpha() or value[0] == "_"):
            _err("PARSE_ERROR", f"unexpected character {value[0]!r}", line, col)
        tokens.append(Token(kind, value, line, col))
    # a comment ends the last line without moving its column
    end = text.find("#", line_start)
    tokens.append(Token("EOF", None, line, (len(text) if end < 0 else end) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Node:
    """Tiny struct with keyword fields and structural equality."""

    def __init__(self, kind, **fields):
        self.kind = kind
        self.fields = fields

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError as exc:
            raise AttributeError(name) from exc

    def _shape(self):
        return {k: v for k, v in self.fields.items() if k not in ("line", "col")}

    def __eq__(self, other):
        # positions are metadata: two parses are equal when the content is
        return (isinstance(other, Node) and self.kind == other.kind
                and self._shape() == other._shape())

    def __repr__(self):
        return f"Node({self.kind}, {self.fields})"


def _parse_error(tok, msg):
    _err("PARSE_ERROR", msg, tok.line, tok.col)


class Parser:
    """Recursive descent over the tokens, one method per grammar rule."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.declarations = {"field": self.field_decl, "quiver": self.quiver_decl,
                             "vquiver": self.vquiver_decl, "algebra": self.algebra_decl,
                             "morphism": self.morphism_decl, "check": self.check_decl}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text) -> bool:
        """Whether the next token is the keyword or symbol `text`."""
        return self.tokens[self.pos].value == text

    def read(self, *parts) -> list:
        """Read `parts` in turn: a string is a keyword or symbol that must
        come next, anything else a reader, whose results are returned."""
        out = []
        for part in parts:
            if isinstance(part, str):
                tok = self.next()
                if tok.value != part:
                    _parse_error(tok, f"expected {part!r}, found {tok.value!r}")
            else:
                out.append(part())
        return out

    def expect(self, kind):
        """The value of the next token, which must be of `kind`."""
        tok = self.next()
        if tok.kind != kind:
            _parse_error(tok, f"expected {kind!r}, found {tok.value!r}")
        return tok.value

    def name(self) -> str:
        return self.expect("NAME")

    def integer(self) -> int:
        return self.expect("INT")

    def label(self) -> str:
        """A vertex/arrow label: an identifier or a bare integer."""
        tok = self.next()
        if tok.kind not in ("NAME", "INT"):
            _parse_error(tok, f"expected a label, found {tok.value!r}")
        return str(tok.value)

    def separated(self, item) -> list:
        """item { "," item }"""
        items = [item()]
        while self.at(","):
            self.pos += 1
            items.append(item())
        return items

    def namelist(self):
        return self.separated(self.label)

    # -- grammar ------------------------------------------------------------

    def document(self):
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        return Node("document", statements=stmts)

    def statement(self):
        """A declaration: its keyword, which names its node's kind, and the
        fields its method reads."""
        kw = self.next()
        if kw.kind != "NAME":
            _parse_error(kw, f"expected a declaration, found {kw.value!r}")
        if kw.value not in self.declarations:
            _parse_error(kw, f"unknown declaration {kw.value!r}")
        return Node(kw.value, **self.declarations[kw.value](), line=kw.line, col=kw.col)

    def field_decl(self):
        name = self.name()
        if name == "F":
            name = f"F{self.integer()}"
        self.read(";")
        return {"name": name}

    def quiver_decl(self):
        name, vertices = self.read(self.name, "{", "vertices", ":", self.namelist, ";")
        arrows = []
        if self.at("arrows"):
            self.read("arrows", ":")
            arrows = self.separated(self.arrow)
            self.read(";")
        self.read("}")
        return {"name": name, "vertices": vertices, "arrows": arrows}

    def arrow(self):
        return tuple(self.read(self.label, ":", self.label, "->", self.label))

    def vquiver_decl(self):
        name, vertices = self.read(self.name, "{", "vertices", ":", self.namelist, ";")
        spaces = []
        while self.at("space"):
            spaces.append(tuple(self.read("space", self.label, "->", self.label,
                                          "=", "[", self.namelist, "]", ";")))
        self.read("}")
        return {"name": name, "vertices": vertices, "spaces": spaces}

    def algebra_decl(self):
        name, = self.read(self.name, "=")
        head = self.next()
        if head.value in ("kvq", "cpa"):
            base, level = self.read("(", self.name, ",", "level", "=", self.integer, ")")
            ideal = []
            if self.at("/"):
                self.read("/", "ideal", "(")
                ideal = self.separated(self.expr)
                self.read(")")
            self.read(";")
            return {"name": name, "ctor": head.value, "base": base, "level": level,
                    "ideal": ideal}
        if head.value == "table":
            basis, unit = self.read("{", "basis", ":", self.namelist, ";",
                                    "unit", ":", self.expr, ";")
            products = []
            while self.peek().kind == "NAME":
                products.append(tuple(self.read(self.name, "*", self.name, "=", self.expr, ";")))
            self.read("}", ";")
            return {"name": name, "ctor": "table", "basis": basis, "unit": unit,
                    "products": products}
        _parse_error(head, f"expected kvq, cpa or table, found {head.value!r}")

    def morphism_decl(self):
        name, source, target = self.read(self.name, ":", self.name, "->", self.name, "{")
        images = []
        while self.peek().kind == "NAME":
            images.append(tuple(self.read(self.name, "->", self.expr, ";")))
        self.read("}")
        return {"name": name, "source": source, "target": target, "images": images}

    def check_decl(self):
        name, = self.read(self.name, "(")
        args = [] if self.at(")") else self.separated(self.argument)
        self.read(")", ";")
        return {"name": name, "args": args}

    def argument(self):
        tok = self.next()
        if tok.kind not in ("NAME", "INT"):
            _parse_error(tok, "check arguments are names or integers")
        return tok.value

    # -- expressions ----------------------------------------------------------

    def expr(self):
        negate = self.at("-")
        if negate:
            self.pos += 1
        terms = [self.term(negate)]
        while self.at("+") or self.at("-"):
            terms.append(self.term(self.next().value == "-"))
        return Node("expr", terms=terms)

    def term(self, negate: bool):
        tok = self.peek()
        coeff = Fraction(-1 if negate else 1)
        word = []
        if tok.kind == "INT":
            self.pos += 1
            den = 1
            if self.at("/"):
                self.pos += 1
                den_tok = self.peek()
                den = self.integer()
                if den == 0:
                    _parse_error(den_tok, "zero denominator")
            coeff *= Fraction(tok.value, den)
            if self.at("*"):
                self.pos += 1
                word = self.word()
        elif tok.kind == "NAME":
            word = self.word()
        else:
            _parse_error(tok, f"expected a term, found {tok.value!r}")
        return Node("term", coeff=coeff, word=word, line=tok.line, col=tok.col)

    def word(self):
        """name { "*" name }; a "*" that no name follows is left unread."""
        names = [self.name()]
        tokens = self.tokens
        while self.at("*") and tokens[self.pos + 1].kind == "NAME":
            names.append(tokens[self.pos + 1].value)
            self.pos += 2
        return names


def parse_ast(text: str) -> Node:
    return Parser(tokenize(text)).document()


# ---------------------------------------------------------------------------
# elaboration into validated objects
# ---------------------------------------------------------------------------

class AlgebraEntry:
    __slots__ = ("algebra", "tensor", "relations", "projection")

    def __init__(self, algebra, tensor=None, relations=None, projection=None):
        self.algebra = algebra
        self.tensor = tensor
        self.relations = relations
        self.projection = projection


class MorphismEntry:
    __slots__ = ("morphism", "source_name", "target_name")

    def __init__(self, morphism, source_name, target_name):
        self.morphism = morphism
        self.source_name = source_name
        self.target_name = target_name


class Document:
    """Validated declarations of one input file."""

    def __init__(self, ast: Node):
        self.ast = ast
        self.field = QQ
        self.quivers: dict[str, Quiver] = {}
        self.vquivers: dict[str, VQuiver] = {}
        self.algebras: dict[str, AlgebraEntry] = {}
        self.morphisms: dict[str, MorphismEntry] = {}
        self.checks: list[Node] = []
        self.order: list[tuple[str, str]] = []
        self._positions: dict[str, tuple[int, int]] = {}

    def _declare(self, kind, name, line, col):
        if name in self._positions:
            old = self._positions[name]
            _err("DUPLICATE_NAME",
                 f"name {name!r} already declared at line {old[0]}, column {old[1]}",
                 line, col)
        self._positions[name] = (line, col)
        self.order.append((kind, name))

    def lookup(self, kind, name, stmt):
        """The declaration of `name` as a `kind`; UNKNOWN_NAME at `stmt` when
        there is none."""
        decls = {"quiver": self.quivers, "vquiver": self.vquivers,
                 "algebra": self.algebras, "morphism": self.morphisms}[kind]
        if name not in decls:
            _err("UNKNOWN_NAME", f"{kind} {name!r} not declared", stmt.line, stmt.col)
        return decls[name]


def _coeff(field, term: Node):
    """A term's coefficient as a field element (SEMANTIC_ERROR when the
    field's characteristic divides its denominator)."""
    try:
        return field.of(term.coeff)
    except ZeroDivisionError:
        _err("SEMANTIC_ERROR",
             f"coefficient {term.coeff} is undefined over {field.name}",
             term.line, term.col)


def eval_expr(expr: Node, algebra: FinAlgebra):
    """Evaluate a linear combination of label words inside an algebra, as a
    sparse element."""
    f, sc = algebra.field, algebra.structconst
    out = {}
    for term in expr.terms:
        c = _coeff(f, term)
        piece = algebra.unit
        for k, label in enumerate(term.word):
            i = algebra._label_index.get(label)
            if i is None:
                _err("UNKNOWN_NAME",
                     f"{label!r} is not a basis label of the algebra",
                     term.line, term.col)
            piece = {i: f.one} if k == 0 else _mul_raw(f, sc, piece, {i: f.one})
        add_scaled(f, out, c, piece)
    return out


def elaborate(ast: Node) -> Document:
    doc = Document(ast)
    # the field applies to the whole document, so it is read first
    fields = [stmt for stmt in ast.statements if stmt.kind == "field"]
    if len(fields) > 1:
        _err("SEMANTIC_ERROR", f"field already declared at line {fields[0].line}, "
             f"column {fields[0].col}", fields[1].line, fields[1].col)
    if fields:
        doc.field = _at(fields[0], field_by_name, fields[0].name)
    for stmt in ast.statements:
        if stmt.kind == "field":
            continue
        if stmt.kind == "quiver":
            doc._declare("quiver", stmt.name, stmt.line, stmt.col)
            doc.quivers[stmt.name] = _at(stmt, Quiver, stmt.vertices, stmt.arrows)
            continue
        if stmt.kind == "vquiver":
            doc._declare("vquiver", stmt.name, stmt.line, stmt.col)
            spaces = {}
            for src, tgt, labels in stmt.spaces:
                spaces.setdefault((src, tgt), []).extend(labels)
            doc.vquivers[stmt.name] = _at(stmt, VQuiver, stmt.vertices, spaces)
            continue
        if stmt.kind == "algebra":
            doc._declare("algebra", stmt.name, stmt.line, stmt.col)
            doc.algebras[stmt.name] = _elaborate_algebra(doc, stmt)
            continue
        if stmt.kind == "morphism":
            doc._declare("morphism", stmt.name, stmt.line, stmt.col)
            doc.morphisms[stmt.name] = _elaborate_morphism(doc, stmt)
            continue
        if stmt.kind == "check":
            _validate_check(doc, stmt)
            doc.checks.append(stmt)
            continue
        raise QuivkitError("INTERNAL", f"unknown statement kind {stmt.kind}")
    return doc


def _elaborate_algebra(doc: Document, stmt: Node) -> AlgebraEntry:
    f = doc.field
    if stmt.ctor in ("kvq", "cpa"):
        kind, build = ("vquiver", build_kvq) if stmt.ctor == "kvq" else ("quiver", cpa)
        tensor = _at(stmt, build, f, doc.lookup(kind, stmt.base, stmt), stmt.level)
        if not stmt.ideal:
            return AlgebraEntry(tensor.carrier, tensor=tensor)
        rels = [eval_expr(e, tensor.carrier) for e in stmt.ideal]
        ideal = ideal_generated_by(tensor.carrier, rels)
        quotient, pi = _at(stmt, quotient_algebra, tensor.carrier, ideal)
        return AlgebraEntry(quotient, tensor=tensor, relations=rels,
                            projection=pi)
    # table form, written straight into the stored sparse form
    basis = stmt.basis
    dim = len(basis)
    if dim > MAX_KVQ_DIM:
        _err("TOO_LARGE", f"table has {dim} basis labels, more than {MAX_KVQ_DIM}",
             stmt.line, stmt.col)
    index = {lab: i for i, lab in enumerate(basis)}

    def expr_terms(expr):
        acc = {}
        for term in expr.terms:
            if not term.word:
                _err("SEMANTIC_ERROR", "constants need the unit declared first",
                     term.line, term.col)
            if len(term.word) != 1:
                _err("SEMANTIC_ERROR",
                     "table entries are linear combinations of basis labels",
                     term.line, term.col)
            lab = term.word[0]
            if lab not in index:
                _err("UNKNOWN_NAME", f"{lab!r} is not in the declared basis",
                     term.line, term.col)
            m = index[lab]
            acc[m] = f.add(acc.get(m, f.zero), _coeff(f, term))
        return tuple((m, c) for m, c in sorted(acc.items()) if c)

    sc = [[()] * dim for _ in range(dim)]
    given = set()
    for left, right, val in stmt.products:
        if left not in index or right not in index:
            _err("UNKNOWN_NAME", f"product {left}*{right} uses unknown labels",
                 stmt.line, stmt.col)
        if (left, right) in given:
            _err("DUPLICATE_NAME", f"product {left}*{right} given twice",
                 val.terms[0].line, val.terms[0].col)
        given.add((left, right))
        sc[index[left]][index[right]] = expr_terms(val)
    return AlgebraEntry(_at(stmt, table_algebra, f, basis, sc, dict(expr_terms(stmt.unit))))


def _elaborate_morphism(doc: Document, stmt: Node) -> MorphismEntry:
    src_entry = doc.lookup("algebra", stmt.source, stmt)
    tgt_entry = doc.lookup("algebra", stmt.target, stmt)
    tensor = src_entry.tensor
    if tensor is None:
        _err("SEMANTIC_ERROR",
             "morphism sources must be kvq/cpa-presented algebras",
             stmt.line, stmt.col)
    target = tgt_entry.algebra
    vq = tensor.vq
    idem_labels = {f"e{v}": v for v in vq.vertices}
    arrow_labels = set(vq.arrow_labels())
    given = {}
    for gen, expr in stmt.images:
        if gen in given:
            _err("DUPLICATE_NAME", f"generator {gen!r} assigned twice",
                 expr.terms[0].line, expr.terms[0].col)
        given[gen] = expr
    needed = set(idem_labels) | arrow_labels
    missing = sorted(needed - set(given))
    extra = sorted(set(given) - needed)
    if missing:
        _err("SEMANTIC_ERROR", f"missing generator images: {', '.join(missing)}",
             stmt.line, stmt.col)
    if extra:
        _err("SEMANTIC_ERROR", f"unknown generators: {', '.join(extra)}",
             stmt.line, stmt.col)
    idem_images = {}
    for lab, v in idem_labels.items():
        idem_images[v] = eval_expr(given[lab], target)
    arrow_images = {lab: eval_expr(given[lab], target) for lab in arrow_labels}
    lifted = _at(stmt, universal_map, tensor, target, idem_images, arrow_images)
    if src_entry.relations is None:
        return MorphismEntry(lifted, stmt.source, stmt.target)
    # descend through the quotient: killing its relations kills its ideal
    if any(lifted.apply(r) for r in src_entry.relations):
        _err("SEMANTIC_ERROR", "images do not kill the presentation ideal",
             stmt.line, stmt.col)
    descended = induced_on_quotient(src_entry.projection, lifted)
    return MorphismEntry(descended, stmt.source, stmt.target)


_CHECK_SIGNATURES = {
    "sim0": ("morphism", "morphism"),
    "sim1": ("morphism", "morphism"),
    "simn": ("morphism", "morphism", "int"),
    "factor_delta": ("morphism", "morphism"),
    "adjunction": ("vquiver", "algebra"),
    "counit": ("algebra",),
    "unit": ("vquiver", "int"),
    "gq_dims": ("algebra",),
}


def _validate_check(doc: Document, stmt: Node):
    sig = _CHECK_SIGNATURES.get(stmt.name)
    if sig is None:
        _err("SEMANTIC_ERROR", f"unknown check {stmt.name!r}", stmt.line, stmt.col)
    if len(stmt.args) != len(sig):
        _err("SEMANTIC_ERROR",
             f"check {stmt.name} expects {len(sig)} arguments",
             stmt.line, stmt.col)
    for arg, want in zip(stmt.args, sig):
        if want != "int":
            doc.lookup(want, arg, stmt)
        elif not isinstance(arg, int):
            _err("SEMANTIC_ERROR", f"argument {arg!r} must be an integer",
                 stmt.line, stmt.col)


def parse(text: str) -> Document:
    """Parse and validate a document (positions in all diagnostics)."""
    return elaborate(parse_ast(text))


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------

def _print_expr(expr: Node) -> str:
    parts = []
    for i, term in enumerate(expr.terms):
        coeff = term.coeff
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        word = "*".join(term.word)
        if not term.word:
            body = str(mag)
        elif mag == 1:
            body = word
        else:
            body = f"{mag}*{word}"
        if i == 0:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def print_ast(ast: Node) -> str:
    out = []
    for stmt in ast.statements:
        if stmt.kind == "field":
            out.append(f"field {stmt.name};")
        elif stmt.kind == "quiver":
            out.append(f"quiver {stmt.name} {{")
            out.append(f"  vertices: {', '.join(stmt.vertices)};")
            if stmt.arrows:
                arrows = ", ".join(f"{lab}: {s} -> {t}" for lab, s, t in stmt.arrows)
                out.append(f"  arrows: {arrows};")
            out.append("}")
        elif stmt.kind == "vquiver":
            out.append(f"vquiver {stmt.name} {{")
            out.append(f"  vertices: {', '.join(stmt.vertices)};")
            for src, tgt, labels in stmt.spaces:
                out.append(f"  space {src} -> {tgt} = [{', '.join(labels)}];")
            out.append("}")
        elif stmt.kind == "algebra":
            if stmt.ctor in ("kvq", "cpa"):
                head = f"algebra {stmt.name} = {stmt.ctor}({stmt.base}, level={stmt.level})"
                if stmt.ideal:
                    exprs = ", ".join(_print_expr(e) for e in stmt.ideal)
                    head += f" / ideal({exprs})"
                out.append(head + ";")
            else:
                out.append(f"algebra {stmt.name} = table {{")
                out.append(f"  basis: {', '.join(stmt.basis)};")
                out.append(f"  unit: {_print_expr(stmt.unit)};")
                for left, right, val in stmt.products:
                    out.append(f"  {left}*{right} = {_print_expr(val)};")
                out.append("};")
        elif stmt.kind == "morphism":
            out.append(f"morphism {stmt.name}: {stmt.source} -> {stmt.target} {{")
            for gen, expr in stmt.images:
                out.append(f"  {gen} -> {_print_expr(expr)};")
            out.append("}")
        elif stmt.kind == "check":
            args = ", ".join(str(a) for a in stmt.args)
            out.append(f"check {stmt.name}({args});")
    return "\n".join(out) + "\n"


def format_text(text: str) -> str:
    """Canonical form; parse(format_text(t)) equals parse(t) structurally."""
    ast = parse_ast(text)
    elaborate(ast)  # surface diagnostics before printing
    return print_ast(ast)
