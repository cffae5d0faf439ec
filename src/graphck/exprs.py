"""Element expression language.

Grammar (whitespace free between tokens):

    expr   := ["-"] term | expr "+" term | expr "-" term
    term   := coeff? factor ("*" factor)*
    factor := "S(" edge-id ")" | "p(" vertex-id ")" | "adj(" expr ")"
            | "(" expr ")"
    coeff  := rational | rational "i"
            | "(" rational ("+"|"-") rational "i" ")"
    rational := int | int "/" int

A coefficient is juxtaposed with its factor ("1/2 p(v)"); a "*" after the
coefficient is tolerated.  The leading "-" is a convenience extension.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import CKElement, GaussianRational
from .errors import ExprSyntaxError
from .graphs import Graph

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/]))")

# Nesting bound for "(...)" and "adj(...)": at three frames per level it
# keeps deep input a syntax error, far from the interpreter's recursion limit.
_MAX_DEPTH = 100


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip():
                raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos=pos)
            break
        if m.group(1) is not None:
            tokens.append(("INT", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("ID", m.group(2), m.start(2)))
        else:
            tokens.append(("SYM", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, graph: Graph):
        self.graph = graph
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self, offset=0):
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else (None, None, None)

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect_sym(self, sym):
        kind, value, at = self._next()
        if kind != "SYM" or value != sym:
            raise ExprSyntaxError(f"expected {sym!r}", pos=at)

    def _fail(self, message):
        _, _, at = self._peek()
        raise ExprSyntaxError(message, pos=at)

    def parse(self) -> CKElement:
        result = self.parse_expr()
        if self.pos != len(self.tokens):
            self._fail("trailing input")
        return result

    def parse_expr(self) -> CKElement:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self._fail(f"expression nested more than {_MAX_DEPTH} levels deep")
        negate = False
        if self._peek()[:2] == ("SYM", "-"):
            self._next()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self._peek()[0] == "SYM" and self._peek()[1] in "+-":
            op = self._next()[1]
            term = self.parse_term()
            acc = acc + term if op == "+" else acc - term
        self.depth -= 1
        return acc

    def parse_term(self) -> CKElement:
        coeff = self._try_coeff()
        if coeff is not None and self._peek()[:2] == ("SYM", "*"):
            self._next()
        acc = self.parse_factor()
        while self._peek()[:2] == ("SYM", "*"):
            self._next()
            acc = acc * self.parse_factor()
        return acc if coeff is None else acc.scale(coeff)

    def _try_coeff(self):
        save = self.pos
        try:
            return self._parse_coeff()
        except ExprSyntaxError:
            self.pos = save
            return None

    def _parse_coeff(self) -> GaussianRational:
        kind, value, _ = self._peek()
        if kind == "SYM" and value == "(":
            # parenthesized complex: "(" rational +- rational "i" ")"
            self._next()
            re_part = self._parse_rational()
            kind, op, at = self._next()
            if kind != "SYM" or op not in "+-":
                raise ExprSyntaxError("expected + or - in complex coefficient", pos=at)
            im_part = self._parse_rational()
            if op == "-":
                im_part = -im_part
            kind, value, at = self._next()
            if (kind, value) != ("ID", "i"):
                raise ExprSyntaxError("expected i in complex coefficient", pos=at)
            self._expect_sym(")")
            return GaussianRational(re_part, im_part)
        re_part = self._parse_rational()
        if self._peek()[:2] == ("ID", "i"):
            self._next()
            return GaussianRational(Fraction(0), re_part)
        return GaussianRational(re_part, Fraction(0))

    def _parse_rational(self) -> Fraction:
        kind, value, at = self._next()
        if kind != "INT":
            raise ExprSyntaxError("expected integer", pos=at)
        num = value
        if self._peek()[:2] == ("SYM", "/"):
            self._next()
            kind, den, at = self._next()
            if kind != "INT":
                raise ExprSyntaxError("expected denominator", pos=at)
            if den == 0:
                raise ExprSyntaxError("zero denominator", pos=at)
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self) -> CKElement:
        kind, value, at = self._next()
        if kind == "ID" and value in ("S", "p", "adj"):
            self._expect_sym("(")
            if value == "adj":
                inner = self.parse_expr()
                self._expect_sym(")")
                return inner.adjoint()
            kind2, name, at2 = self._next()
            if kind2 != "ID":
                raise ExprSyntaxError("expected identifier", pos=at2)
            self._expect_sym(")")
            if value == "S":
                if name not in self.graph.edge_index:
                    raise ExprSyntaxError(f"unknown edge {name!r}", pos=at2)
                return CKElement.edge_isometry(self.graph, name)
            if name not in self.graph.vertex_index:
                raise ExprSyntaxError(f"unknown vertex {name!r}", pos=at2)
            return CKElement.vertex_projection(self.graph, name)
        if kind == "SYM" and value == "(":
            inner = self.parse_expr()
            self._expect_sym(")")
            return inner
        raise ExprSyntaxError("expected S(...), p(...), adj(...) or parenthesis", pos=at)


def parse_element(text: str, graph: Graph) -> CKElement:
    """Parse an element expression over the given graph."""
    parser = _Parser(text, graph)
    if not parser.tokens:
        raise ExprSyntaxError("empty expression")
    return parser.parse()


def format_element(elem: CKElement) -> str:
    """Render an element in the expression grammar (round-trips by parse)."""
    g = elem.graph
    if not elem.terms:
        anchor = g.vertices[0] if g.n_vertices else "v"
        return f"0 p({anchor})"
    pieces = []
    for term, coeff in elem.sorted_terms():
        factors = [f"S({g.edge_names[e]})" for e in term.mu.edges]
        if term.nu.edges:
            inner = "*".join(f"S({g.edge_names[e]})" for e in term.nu.edges)
            factors.append(f"adj({inner})")
        if not factors:
            factors = [f"p({g.vertices[term.mu.start]})"]
        body = "*".join(factors)
        # move a negative real part (or negative imaginary when purely
        # imaginary) into the joining sign so coefficients stay unsigned
        negative = coeff.re < 0 or (not coeff.re and coeff.im < 0)
        mag = -coeff if negative else coeff
        if mag.re == 1 and not mag.im:
            text = body
        else:
            text = f"{mag} {body}"
        pieces.append(("-" if negative else "+", text))
    first_sign, first_text = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_text
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out
