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

from fractions import Fraction

from .errors import QuivkitError
from .algebra import (
    FinAlgebra,
    ideal_generated_by,
    induced_on_quotient,
    quotient_algebra,
    table_algebra,
)
from .exactlin import MAX_CHAR_DIGITS, field_by_name, QQ, vec_combination
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

_SYMBOLS = ["->", "{", "}", "(", ")", "[", "]", ":", ";", ",", "=", "*",
            "+", "-", "/"]


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
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            if i - start > MAX_CHAR_DIGITS:
                _err("PARSE_ERROR", f"integer literal has {i - start} digits "
                                    f"(at most {MAX_CHAR_DIGITS})", line, col)
            tokens.append(Token("INT", int(text[start:i]), line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched is None:
            _err("PARSE_ERROR", f"unexpected character {ch!r}", line, col)
        tokens.append(Token("SYM", matched, line, col))
        i += len(matched)
        col += len(matched)
    tokens.append(Token("EOF", None, line, col))
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


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            _err("PARSE_ERROR", f"expected {want!r}, found {tok.value!r}",
                 tok.line, tok.col)
        return self.next()

    def at_sym(self, value) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.value == value

    def at_name(self, value=None) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and (value is None or tok.value == value)

    def label(self) -> str:
        """A vertex/arrow label: an identifier or a bare integer."""
        tok = self.peek()
        if tok.kind in ("NAME", "INT"):
            self.next()
            return str(tok.value)
        _err("PARSE_ERROR", f"expected a label, found {tok.value!r}",
             tok.line, tok.col)

    # -- grammar ------------------------------------------------------------

    def document(self):
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        return Node("document", statements=stmts)

    def statement(self):
        tok = self.peek()
        if tok.kind != "NAME":
            _err("PARSE_ERROR", f"expected a declaration, found {tok.value!r}",
                 tok.line, tok.col)
        if tok.value == "field":
            return self.field_decl()
        if tok.value == "quiver":
            return self.quiver_decl()
        if tok.value == "vquiver":
            return self.vquiver_decl()
        if tok.value == "algebra":
            return self.algebra_decl()
        if tok.value == "morphism":
            return self.morphism_decl()
        if tok.value == "check":
            return self.check_decl()
        _err("PARSE_ERROR", f"unknown declaration {tok.value!r}",
             tok.line, tok.col)

    def field_decl(self):
        kw = self.expect("NAME", "field")
        tok = self.expect("NAME")
        name = tok.value
        if name == "F":
            num = self.expect("INT")
            name = f"F{num.value}"
        self.expect("SYM", ";")
        return Node("field", name=name, line=kw.line, col=kw.col)

    def namelist(self):
        names = [self.label()]
        while self.at_sym(","):
            self.next()
            names.append(self.label())
        return names

    def quiver_decl(self):
        kw = self.expect("NAME", "quiver")
        name = self.expect("NAME")
        self.expect("SYM", "{")
        self.expect("NAME", "vertices")
        self.expect("SYM", ":")
        vertices = self.namelist()
        self.expect("SYM", ";")
        arrows = []
        if self.at_name("arrows"):
            self.next()
            self.expect("SYM", ":")
            while True:
                lab = self.label()
                self.expect("SYM", ":")
                src = self.label()
                self.expect("SYM", "->")
                tgt = self.label()
                arrows.append((lab, src, tgt))
                if self.at_sym(","):
                    self.next()
                    continue
                break
            self.expect("SYM", ";")
        self.expect("SYM", "}")
        return Node("quiver", name=name.value, vertices=vertices,
                    arrows=arrows, line=kw.line, col=kw.col)

    def vquiver_decl(self):
        kw = self.expect("NAME", "vquiver")
        name = self.expect("NAME")
        self.expect("SYM", "{")
        self.expect("NAME", "vertices")
        self.expect("SYM", ":")
        vertices = self.namelist()
        self.expect("SYM", ";")
        spaces = []
        while self.at_name("space"):
            self.next()
            src = self.label()
            self.expect("SYM", "->")
            tgt = self.label()
            self.expect("SYM", "=")
            self.expect("SYM", "[")
            labels = self.namelist()
            self.expect("SYM", "]")
            self.expect("SYM", ";")
            spaces.append((src, tgt, labels))
        self.expect("SYM", "}")
        return Node("vquiver", name=name.value, vertices=vertices,
                    spaces=spaces, line=kw.line, col=kw.col)

    def algebra_decl(self):
        kw = self.expect("NAME", "algebra")
        name = self.expect("NAME")
        self.expect("SYM", "=")
        head = self.peek()
        if head.kind == "NAME" and head.value in ("kvq", "cpa"):
            ctor = self.next().value
            self.expect("SYM", "(")
            base = self.expect("NAME").value
            self.expect("SYM", ",")
            self.expect("NAME", "level")
            self.expect("SYM", "=")
            level = self.expect("INT").value
            self.expect("SYM", ")")
            ideal_exprs = []
            if self.at_sym("/"):
                self.next()
                self.expect("NAME", "ideal")
                self.expect("SYM", "(")
                ideal_exprs.append(self.expr())
                while self.at_sym(","):
                    self.next()
                    ideal_exprs.append(self.expr())
                self.expect("SYM", ")")
            self.expect("SYM", ";")
            return Node("algebra", name=name.value, ctor=ctor, base=base,
                        level=level, ideal=ideal_exprs, line=kw.line, col=kw.col)
        if head.kind == "NAME" and head.value == "table":
            self.next()
            self.expect("SYM", "{")
            self.expect("NAME", "basis")
            self.expect("SYM", ":")
            basis = self.namelist()
            self.expect("SYM", ";")
            self.expect("NAME", "unit")
            self.expect("SYM", ":")
            unit = self.expr()
            self.expect("SYM", ";")
            products = []
            while self.peek().kind == "NAME":
                left = self.expect("NAME").value
                self.expect("SYM", "*")
                right = self.expect("NAME").value
                self.expect("SYM", "=")
                val = self.expr()
                self.expect("SYM", ";")
                products.append((left, right, val))
            self.expect("SYM", "}")
            self.expect("SYM", ";")
            return Node("algebra", name=name.value, ctor="table", basis=basis,
                        unit=unit, products=products, line=kw.line, col=kw.col)
        _err("PARSE_ERROR", f"expected kvq, cpa or table, found {head.value!r}",
             head.line, head.col)

    def morphism_decl(self):
        kw = self.expect("NAME", "morphism")
        name = self.expect("NAME")
        self.expect("SYM", ":")
        src = self.expect("NAME").value
        self.expect("SYM", "->")
        tgt = self.expect("NAME").value
        self.expect("SYM", "{")
        images = []
        while self.peek().kind == "NAME":
            gen = self.expect("NAME").value
            self.expect("SYM", "->")
            val = self.expr()
            self.expect("SYM", ";")
            images.append((gen, val))
        self.expect("SYM", "}")
        return Node("morphism", name=name.value, source=src, target=tgt,
                    images=images, line=kw.line, col=kw.col)

    def check_decl(self):
        kw = self.expect("NAME", "check")
        cname = self.expect("NAME").value
        self.expect("SYM", "(")
        args = []
        if not self.at_sym(")"):
            while True:
                tok = self.peek()
                if tok.kind == "NAME":
                    args.append(self.next().value)
                elif tok.kind == "INT":
                    args.append(self.next().value)
                else:
                    _err("PARSE_ERROR", "check arguments are names or integers",
                         tok.line, tok.col)
                if self.at_sym(","):
                    self.next()
                    continue
                break
        self.expect("SYM", ")")
        self.expect("SYM", ";")
        return Node("check", name=cname, args=args, line=kw.line, col=kw.col)

    # -- expressions ----------------------------------------------------------

    def expr(self):
        terms = []
        negate = False
        if self.at_sym("-"):
            self.next()
            negate = True
        terms.append(self.term(negate))
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().value
            terms.append(self.term(op == "-"))
        return Node("expr", terms=terms)

    def term(self, negate: bool):
        tok = self.peek()
        coeff = Fraction(-1 if negate else 1)
        word = []
        if tok.kind == "INT":
            self.next()
            num = tok.value
            den = 1
            if self.at_sym("/"):
                self.next()
                den_tok = self.expect("INT")
                den = den_tok.value
                if den == 0:
                    _err("PARSE_ERROR", "zero denominator",
                         den_tok.line, den_tok.col)
            coeff *= Fraction(num, den)
            if self.at_sym("*"):
                self.next()
                word = self.word()
        elif tok.kind == "NAME":
            word = self.word()
        else:
            _err("PARSE_ERROR", f"expected a term, found {tok.value!r}",
                 tok.line, tok.col)
        return Node("term", coeff=coeff, word=word, line=tok.line, col=tok.col)

    def word(self):
        names = [self.expect("NAME").value]
        while self.at_sym("*"):
            save = self.pos
            self.next()
            if self.peek().kind == "NAME":
                names.append(self.next().value)
            else:
                self.pos = save
                break
        return names


def parse_ast(text: str) -> Node:
    return Parser(tokenize(text)).document()


# ---------------------------------------------------------------------------
# elaboration into validated objects
# ---------------------------------------------------------------------------

class AlgebraEntry:
    __slots__ = ("algebra", "tensor", "ideal", "projection")

    def __init__(self, algebra, tensor=None, ideal=None, projection=None):
        self.algebra = algebra
        self.tensor = tensor
        self.ideal = ideal
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
    """Evaluate a linear combination of label words inside an algebra."""
    f = algebra.field
    coeffs = []
    pieces = []
    for term in expr.terms:
        coeffs.append(_coeff(f, term))
        if not term.word:
            piece = list(algebra.unit)
        else:
            piece = None
            for label in term.word:
                if label not in algebra.basis_labels:
                    _err("UNKNOWN_NAME",
                         f"{label!r} is not a basis label of the algebra",
                         term.line, term.col)
                vec = algebra.element(label)
                piece = vec if piece is None else algebra.mul(piece, vec)
        pieces.append(piece)
    return vec_combination(f, algebra.dim, coeffs, pieces)


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
        kind, decls, build = (("vquiver", doc.vquivers, build_kvq)
                              if stmt.ctor == "kvq" else ("quiver", doc.quivers, cpa))
        if stmt.base not in decls:
            _err("UNKNOWN_NAME", f"{kind} {stmt.base!r} not declared",
                 stmt.line, stmt.col)
        tensor = _at(stmt, build, f, decls[stmt.base], stmt.level)
        if not stmt.ideal:
            return AlgebraEntry(tensor.carrier, tensor=tensor)
        gens = [eval_expr(e, tensor.carrier) for e in stmt.ideal]
        ideal = ideal_generated_by(tensor.carrier, gens)
        quotient, pi = _at(stmt, quotient_algebra, tensor.carrier, ideal)
        return AlgebraEntry(quotient, tensor=tensor, ideal=ideal,
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
    unit = [f.zero] * dim
    for m, c in expr_terms(stmt.unit):
        unit[m] = c
    return AlgebraEntry(_at(stmt, table_algebra, f, basis, sc, unit))


def _elaborate_morphism(doc: Document, stmt: Node) -> MorphismEntry:
    src_entry = doc.algebras.get(stmt.source)
    tgt_entry = doc.algebras.get(stmt.target)
    if src_entry is None:
        _err("UNKNOWN_NAME", f"algebra {stmt.source!r} not declared",
             stmt.line, stmt.col)
    if tgt_entry is None:
        _err("UNKNOWN_NAME", f"algebra {stmt.target!r} not declared",
             stmt.line, stmt.col)
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
    if src_entry.ideal is None:
        return MorphismEntry(lifted, stmt.source, stmt.target)
    # descend through the quotient presentation
    if lifted.image_of(src_entry.ideal.space).dim:
        _err("SEMANTIC_ERROR", "images do not kill the presentation ideal",
             stmt.line, stmt.col)
    descended = _at(stmt, induced_on_quotient, src_entry.projection, lifted)
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
        if want == "int":
            if not isinstance(arg, int):
                _err("SEMANTIC_ERROR", f"argument {arg!r} must be an integer",
                     stmt.line, stmt.col)
        elif want == "morphism":
            if arg not in doc.morphisms:
                _err("UNKNOWN_NAME", f"morphism {arg!r} not declared",
                     stmt.line, stmt.col)
        elif want == "algebra":
            if arg not in doc.algebras:
                _err("UNKNOWN_NAME", f"algebra {arg!r} not declared",
                     stmt.line, stmt.col)
        elif want == "vquiver":
            if arg not in doc.vquivers:
                _err("UNKNOWN_NAME", f"vquiver {arg!r} not declared",
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
