"""The DSL front end as it stood before its lexer became one token pattern
and its parser one reader per rule: a character-by-character `tokenize` and
a `Parser` with one `expect` per token.  Kept unchanged as the oracle of
`test_dsl_frontend.py`, which holds `quivkit.dsl` to the same tokens, ASTs,
printed text and error strings."""

from fractions import Fraction

from quivkit.dsl import Node, Token, _err
from quivkit.exactlin import MAX_CHAR_DIGITS

_SYMBOLS = ["->", "{", "}", "(", ")", "[", "]", ":", ";", ",", "=", "*",
            "+", "-", "/"]


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

