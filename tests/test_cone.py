from fractions import Fraction

import pytest

from graphck.afcore import k0f_equal, k0f_is_zero, k0f_value_in_closed_form
from graphck.algebra import CKElement
from graphck.cone import (ConeClass, cone_equal, decompose_relations, ev_star,
                          mapping_cone_k_groups, vfa_membership)
from graphck.errors import AdmissibilityError, HypothesisError
from graphck.exprs import format_element
from graphck.graphs import enumerate_paths, parse_graph
from graphck.pairing import pairing_value

from corpus import (SINK_TEXT, cuntz, cycle3_chords, disconnected_pair, o2,
                    o3, single_loop, two_vertex)


def test_vfa_membership_examples():
    g = o2()
    ok, diags = vfa_membership(CKElement.path_isometry(g, g.path("a", "b")))
    assert ok and not diags
    ok, diags = vfa_membership(CKElement.vertex_projection(g, "v"))
    assert ok
    sa = CKElement.edge_isometry(g, "a")
    bad = sa + CKElement.path_isometry(g, g.path("b", "a")).adjoint()
    ok, diags = vfa_membership(bad)
    assert not ok and any("v v* v" in d for d in diags)


def test_ev_star_cuntz():
    for n in (2, 4):
        g = cuntz(n)
        for m in (1, 2, 3):
            mu = enumerate_paths(g, m)[0]
            c = ConeClass.of(CKElement.path_isometry(g, mu))
            value = k0f_value_in_closed_form(ev_star(c))
            assert value == Fraction(n ** m - 1, n ** m)


def test_ev_star_vanishes_in_core():
    g = o2()
    w = CKElement.word(g, g.path("a", "b"), g.path("b", "b"))
    assert k0f_is_zero(ev_star(ConeClass.of(w)))


def test_ev_zero_but_pairing_nonzero_on_loop():
    g = single_loop()
    se = CKElement.edge_isometry(g, "e")
    c = ConeClass.of(se)
    assert k0f_is_zero(ev_star(c))
    assert not k0f_is_zero(c.index_class)


def test_decompose_path_word():
    g = o2()
    result = decompose_relations(CKElement.path_isometry(g, g.path("a", "b")))
    parts = [(s, format_element(e)) for s, e in result["parts"]]
    assert parts == [(1, "S(a)*S(b)*adj(S(b))"), (1, "S(b)")]
    assert result["certificate"] == {"pairing_preserved": True, "ev_preserved": True}


def test_decompose_edge_is_fixed_point():
    g = o2()
    result = decompose_relations(CKElement.edge_isometry(g, "a"))
    assert [(s, format_element(e)) for s, e in result["parts"]] == [(1, "S(a)")]


def test_decompose_word_splits():
    g = o2()
    result = decompose_relations(CKElement.word(g, g.path("a"), g.path("b")))
    assert [(s, format_element(e)) for s, e in result["parts"]] \
        == [(1, "S(a)"), (-1, "S(b)")]


def test_decompose_projection_is_zero():
    g = o2()
    result = decompose_relations(CKElement.path_projection(g, g.path("a")))
    assert result["parts"] == []


def test_decompose_adjoint_word():
    g = o2()
    result = decompose_relations(
        CKElement.word(g, g.vertex_path("v"), g.path("a", "b")))
    assert [(s, format_element(e)) for s, e in result["parts"]] == [(-1, "S(a)*S(b)")]


def test_decompose_with_projection_payload():
    # three-step path word against a path projection telescopes to edges
    g = o3()
    alpha = g.path("a", "b", "c")
    tau = g.path("a")
    elem = CKElement.path_isometry(g, alpha) * CKElement.path_projection(g, tau)
    result = decompose_relations(elem)
    assert len(result["parts"]) == 3
    for sign, part in result["parts"]:
        assert sign == 1
        (term,) = part.terms
        assert len(term.mu) - len(term.nu) == 1  # edge-level class


def test_decompose_malformed():
    g = o2()
    two_terms = CKElement.edge_isometry(g, "a") + CKElement.path_isometry(g, g.path("b", "a"))
    with pytest.raises(AdmissibilityError, match="single spanning word"):
        decompose_relations(two_terms)
    with pytest.raises(AdmissibilityError, match="coefficient 1"):
        decompose_relations(CKElement.edge_isometry(g, "a").scale(2))


def test_decompose_coverage_to_edge_level():
    # every horizon-bounded word class reduces to edge-level generators
    g = two_vertex()
    for m in (1, 2, 3):
        for mu in enumerate_paths(g, m):
            for nu in enumerate_paths(g, max(0, m - 2)):
                if nu.range != mu.range:
                    continue
                try:
                    word = CKElement.word(g, mu, nu)
                except ValueError:
                    continue
                stack = [(1, word)]
                edge_level = []
                for _ in range(10):
                    nxt = []
                    for sign, el in stack:
                        (term,) = el.terms
                        if len(term.mu) - len(term.nu) == 1:
                            edge_level.append((sign, el))
                            continue
                        for s2, part in decompose_relations(el)["parts"]:
                            nxt.append((sign * s2, part))
                    if not nxt:
                        break
                    stack = nxt
                total = None
                from graphck.afcore import k0f_combine
                total = k0f_combine(g, [(s, pairing_value(e)) for s, e in edge_level])
                assert k0f_equal(total, pairing_value(word))


def test_cone_equal_same_range():
    g = o2()
    a = ConeClass.of(CKElement.edge_isometry(g, "a"))
    b = ConeClass.of(CKElement.edge_isometry(g, "b"))
    assert cone_equal(a, b) == "equal"


def test_cone_equal_different_range():
    g = two_vertex()
    alpha = g.path("b")  # starts at v2
    gen_c = ConeClass.of(CKElement.edge_isometry(g, "c") * CKElement.path_projection(g, alpha))
    gen_a = ConeClass.of(CKElement.edge_isometry(g, "a") * CKElement.path_projection(g, alpha))
    # S_a P_b = 0 (ranges differ), so the classes differ by nonvanishing
    assert cone_equal(gen_c, gen_a) == "unequal"


def test_cone_equal_unknown_when_disconnected():
    g = disconnected_pair()
    a = ConeClass.of(CKElement.edge_isometry(g, "a1"))
    b = ConeClass.of(CKElement.edge_isometry(g, "b1"))
    assert cone_equal(a, b) == "unknown"
    far = ConeClass.of(CKElement.edge_isometry(g, "a2"))
    assert cone_equal(a, far) == "unequal"


def test_mapping_cone_groups_cuntz():
    for n in (2, 3, 5):
        report = mapping_cone_k_groups(cuntz(n))
        assert report["K1_mapping_cone"].is_trivial
        assert report["index_isomorphism"]["K0_mapping_cone"] == f"Z[1/{n}]"
        assert report["ev_image"] == f"({n - 1})Z[1/{n}]"


def test_mapping_cone_groups_single_loop():
    report = mapping_cone_k_groups(single_loop())
    assert report["K1_mapping_cone"].is_trivial
    assert report["index_isomorphism"]["K0_mapping_cone"] == "Z"
    assert report["graph_K1"].free_rank == 1
    assert report["ev_image"] == "0"


def test_mapping_cone_groups_need_hypotheses():
    with pytest.raises(HypothesisError):
        mapping_cone_k_groups(parse_graph(SINK_TEXT))


def test_mapping_cone_groups_disconnected():
    report = mapping_cone_k_groups(disconnected_pair())
    assert report["K1_mapping_cone"].is_trivial
    assert not report["weakly_connected"]
    assert "index_isomorphism" not in report


def test_cone_class_invariants_additive():
    g = cycle3_chords()
    v = CKElement.path_isometry(g, g.path("c1", "c2"))
    w = CKElement.path_isometry(g, g.path("d1"))
    from graphck.pairing import AdmissibleIsometry
    both = ConeClass.of(AdmissibleIsometry((v, w)))
    from graphck.afcore import k0f_combine
    assert k0f_equal(ev_star(both),
                     k0f_combine(g, [(1, ev_star(ConeClass.of(v))),
                                     (1, ev_star(ConeClass.of(w)))]))
    assert k0f_equal(both.index_class,
                     k0f_combine(g, [(1, ConeClass.of(v).index_class),
                                     (1, ConeClass.of(w).index_class)]))


def test_adjoint_negates_both_invariants():
    g = o3()
    v = CKElement.path_isometry(g, g.path("a", "b"))
    c = ConeClass.of(v)
    cadj = ConeClass.of(v.adjoint())
    from graphck.afcore import k0f_combine
    assert k0f_is_zero(k0f_combine(g, [(1, ev_star(c)), (1, ev_star(cadj))]))
    assert k0f_is_zero(k0f_combine(g, [(1, c.index_class), (1, cadj.index_class)]))


def test_core_partial_isometries_have_zero_class():
    g = o2()
    w = CKElement.word(g, g.path("a", "b"), g.path("b", "a"))
    c = ConeClass.of(w)
    assert k0f_is_zero(ev_star(c)) and k0f_is_zero(c.index_class)
