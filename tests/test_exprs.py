import random
from fractions import Fraction

import pytest

from graphck.algebra import CKElement, GaussianRational, is_equal, is_zero
from graphck.errors import ExprSyntaxError
from graphck.exprs import _MAX_DEPTH, format_element, parse_element

from corpus import o2, random_element, two_vertex


def test_parse_generators():
    g = o2()
    assert is_equal(parse_element("S(a)", g), CKElement.edge_isometry(g, "a"))
    assert is_equal(parse_element("p(v)", g), CKElement.vertex_projection(g, "v"))


def test_parse_products_and_adjoint():
    g = o2()
    sab = CKElement.path_isometry(g, g.path("a", "b"))
    assert is_equal(parse_element("S(a)*S(b)", g), sab)
    assert is_equal(parse_element("adj(S(a)*S(b))", g), sab.adjoint())
    word = parse_element("S(a)*adj(S(b))", g)
    assert is_equal(word, CKElement.word(g, g.path("a"), g.path("b")))


def test_parse_coefficients():
    g = o2()
    pv = CKElement.vertex_projection(g, "v")
    assert is_equal(parse_element("1/2 p(v) + 1/2 p(v)", g), pv)
    assert is_equal(parse_element("2 p(v)", g), pv.scale(2))
    assert is_equal(parse_element("2*p(v)", g), pv.scale(2))   # tolerated star
    i = GaussianRational(Fraction(0), Fraction(1))
    assert is_equal(parse_element("1i p(v)", g), pv.scale(i))
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert is_equal(parse_element("(1/2-3/4i) p(v)", g), pv.scale(z))


def test_parse_sums_and_parens():
    g = o2()
    sa, sb = CKElement.edge_isometry(g, "a"), CKElement.edge_isometry(g, "b")
    assert is_equal(parse_element("(S(a)+S(b))*adj(S(b))", g),
                    (sa + sb) * sb.adjoint())
    assert is_equal(parse_element("-S(a) + S(a)", g), CKElement.zero(g))


def test_parse_relation_expression():
    g = o2()
    assert is_zero(parse_element("p(v) - S(a)*adj(S(a)) - S(b)*adj(S(b))", g))


def test_parse_errors():
    g = o2()
    for bad in ("", "S(", "S(x)", "p(w)", "S(a)+", "2", "(3)*S(a)",
                "1/0 p(v)", "S(a) S(b)", "adj()"):
        with pytest.raises(ExprSyntaxError):
            parse_element(bad, g)


def test_nesting_depth_bound():
    g = o2()
    pv = CKElement.vertex_projection(g, "v")
    inner = _MAX_DEPTH - 1  # the top-level expression is one level
    assert is_equal(parse_element("(" * inner + "p(v)" + ")" * inner, g), pv)
    assert is_equal(parse_element("adj(" * inner + "p(v)" + ")" * inner, g), pv)
    with pytest.raises(ExprSyntaxError, match="nested"):
        parse_element("(" * _MAX_DEPTH + "p(v)" + ")" * _MAX_DEPTH, g)


def test_format_round_trip_random():
    rng = random.Random(31)
    for maker in (o2, two_vertex):
        g = maker()
        for _ in range(150):
            a = random_element(g, rng)
            text = format_element(a)
            assert is_equal(parse_element(text, g), a)


def test_format_zero():
    g = o2()
    text = format_element(CKElement.zero(g))
    assert is_zero(parse_element(text, g))


def test_format_deterministic():
    g = o2()
    a = parse_element("S(b) + 2 S(a) - 1/3 p(v)", g)
    assert format_element(a) == format_element(parse_element(format_element(a), g))
