import random
from fractions import Fraction

import pytest

from graphck.afcore import (K0FClass, class_of_projection, k0f_combine,
                            k0f_equal, k0f_is_zero, k0f_value_in_closed_form)
from graphck.algebra import CKElement, classify, gauge_component, is_equal
from graphck.errors import AdmissibilityError, HypothesisError
from graphck.graphs import enumerate_paths, parse_graph
from graphck.pairing import (AdmissibleIsometry, check_admissible,
                             crosscheck_generators, pairing, pairing_crosscheck,
                             pairing_value, windows_to_class)

from corpus import (SINK_TEXT, cuntz, cycle3_chords, o2, o3, random_element,
                    regular_corpus, single_loop, two_vertex)

ADJOINT_KERNELS = ("adjoint_ordinary", "adjoint_extended", "adjoint_trivial")


def test_pairing_cuntz_closed_form():
    for n in (2, 3):
        g = cuntz(n)
        for m in range(1, 5):
            for mu in enumerate_paths(g, m):
                value = pairing_value(CKElement.path_isometry(g, mu))
                expected = Fraction(n ** m - 1, (n - 1) * n ** m)
                assert k0f_value_in_closed_form(value) == expected


def test_pairing_expands_no_words_for_classes(monkeypatch):
    # counted, not timed: the window [(1 - q_r) Phi_0] of a length-8 path
    # isometry on O_5 holds 5^8 = 390,625 words at level 8, and the class
    # evaluation reads its trace through B without writing any of them
    expanded = []
    expand = CKElement.normal_form

    def counting(self, m):
        out = expand(self, m)
        expanded.append(len(out.terms))
        return out

    monkeypatch.setattr(CKElement, "normal_form", counting)
    g = cuntz(5)
    rep = pairing(CKElement.path_isometry(g, g.path(*"abcdeabc")))
    assert rep.agree
    assert k0f_value_in_closed_form(rep.value) == Fraction(5 ** 8 - 1, 4 * 5 ** 8)
    assert sum(expanded) <= 100
    length = 20
    value = pairing_value(CKElement.path_isometry(g, g.path(*("abcde" * 4))))
    assert k0f_value_in_closed_form(value) == Fraction(5 ** length - 1, 4 * 5 ** length)


def test_pairing_vanishes_on_core():
    g = o2()
    p = CKElement.path_projection(g, g.path("a", "b"))
    assert pairing(p).per_route_breakdown["odd"] == []
    assert k0f_is_zero(pairing_value(p))
    w = CKElement.word(g, g.path("a", "b"), g.path("b", "a"))
    assert k0f_is_zero(pairing_value(w))


def _sum(g, a, b):
    return k0f_combine(g, [(1, a), (1, b)])


def _aps_summands(v):
    """pairing(v) and the class of each half-line summand of its breakdown,
    evaluated with the projection check on."""
    rep = pairing(v)
    return rep, {key: windows_to_class(v.graph, windows)
                 for key, windows in rep.per_route_breakdown["aps"].items()}


def test_pairing_adjoint_antisymmetry():
    g = o3()
    for m in (1, 2, 3):
        for mu in enumerate_paths(g, m)[:6]:
            v = CKElement.path_isometry(g, mu)
            plus = pairing_value(v)
            minus = pairing_value(v.adjoint())
            assert k0f_is_zero(_sum(g, plus, minus))


def test_pairing_additive_over_direct_sums():
    g = two_vertex()
    v = CKElement.path_isometry(g, g.path("a", "c"))
    w = CKElement.path_isometry(g, g.path("b"))
    vw = AdmissibleIsometry((v, w))
    lhs = pairing_value(vw)
    rhs = _sum(g, pairing_value(v), pairing_value(w))
    assert k0f_equal(lhs, rhs)


def test_pairing_direct_sum_with_adjoint_is_zero():
    g = o3()
    v = CKElement.path_isometry(g, g.path("a", "b"))
    rep = pairing(AdmissibleIsometry((v, v.adjoint())))
    assert rep.agree and k0f_is_zero(rep.value)


def test_pairing_inhomogeneous_admissible():
    # S_c + S_aa has orthogonal component ranges and sources
    g = two_vertex()
    v = CKElement.edge_isometry(g, "c") + CKElement.path_isometry(g, g.path("a", "a"))
    rep = pairing(v)
    assert rep.agree
    split = _sum(g, pairing_value(CKElement.edge_isometry(g, "c")),
                 pairing_value(CKElement.path_isometry(g, g.path("a", "a"))))
    assert k0f_equal(rep.value, split)


def test_admissibility_rejections():
    g = o2()
    sa = CKElement.edge_isometry(g, "a")
    bad = sa + sa.adjoint()  # not a partial isometry
    with pytest.raises(AdmissibilityError):
        AdmissibleIsometry.of(bad)
    # a partial isometry whose components overlap: S_a + p_v has
    # v v* v = v failing through the cross terms
    mixed = sa + CKElement.vertex_projection(g, "v")
    diags = check_admissible([mixed])
    assert diags
    with pytest.raises(AdmissibilityError) as exc:
        AdmissibleIsometry.of(mixed)
    assert exc.value.diagnostics


def test_admissibility_diagnostic_names_degrees():
    # orthogonality failure with both components genuine partial isometries
    g = two_vertex()
    v = CKElement.edge_isometry(g, "c") + CKElement.path_isometry(g, g.path("a", "c"))
    diags = check_admissible([v])
    assert any("degrees 1 and 2" in d for d in diags)


def test_pairing_rejects_overlapping_components():
    g = o2()
    sa = CKElement.edge_isometry(g, "a")
    v = sa + CKElement.path_isometry(g, g.path("b", "a", "a"))
    with pytest.raises(AdmissibilityError):
        pairing(v)


def test_pairing_requires_regular_graph():
    g = parse_graph(SINK_TEXT)
    with pytest.raises((HypothesisError, AdmissibilityError)):
        pairing_value(CKElement.edge_isometry(g, "e"))


def test_aps_kernel_breakdown_cuntz():
    g = o3()
    v = CKElement.path_isometry(g, g.path("a", "a"))
    rep, aps = _aps_summands(v)
    assert k0f_value_in_closed_form(aps["kernel"]) == Fraction(1, 3)
    ords = [k0f_value_in_closed_form(aps[key]) for key in ADJOINT_KERNELS]
    assert ords == [0, 0, Fraction(8, 9)]
    assert k0f_value_in_closed_form(aps["index_cylinder"]) == -1
    assert k0f_value_in_closed_form(rep.routes["aps"]) == Fraction(4, 9)
    # the route value is the kernel minus the adjoint kernels and the cylinder
    value = k0f_combine(g, [(1, aps["kernel"])] + [(-1, aps[key]) for key in ADJOINT_KERNELS]
                        + [(-1, aps["index_cylinder"])])
    assert k0f_equal(value, rep.routes["aps"])


def test_aps_kernel_zero_degree():
    g = o3()
    q = CKElement.path_projection(g, g.path("a"))
    rep, aps = _aps_summands(q)
    assert k0f_is_zero(aps["kernel"])
    assert k0f_is_zero(rep.routes["aps"])


def test_aps_single_loop():
    g = single_loop()
    se = CKElement.edge_isometry(g, "e")
    rep, aps = _aps_summands(se)
    assert k0f_is_zero(aps["kernel"])
    # 1 - vv* = 0 in the one-vertex unital case: adjoint kernels all vanish
    assert all(k0f_is_zero(aps[key]) for key in ADJOINT_KERNELS)
    assert k0f_equal(rep.routes["aps"], K0FClass(g, 0, (1,)))
    assert k0f_equal(rep.routes["simplified"], K0FClass(g, 0, (1,)))


def test_simplified_route_examples():
    g = o3()
    v = CKElement.path_isometry(g, g.path("a", "a"))
    assert k0f_value_in_closed_form(pairing(v).routes["simplified"]) == Fraction(4, 9)
    # right multiplication by the source projection changes nothing
    v2 = v * CKElement.vertex_projection(g, "v")
    assert is_equal(v, v2)
    assert k0f_value_in_closed_form(pairing(v2).routes["simplified"]) == Fraction(4, 9)


def test_breakdown_windows_are_core_projections():
    # pairing() evaluates its windows without the projection check;
    # admissibility must make every window a projection in the core
    for _, g in regular_corpus():
        for label, elem, _ in crosscheck_generators(g, 2):
            table = pairing(elem).per_route_breakdown
            windows = (table["odd"] + table["simplified"]
                       + [w for ws in table["aps"].values() for w in ws])
            for _, w in windows:
                if w.q.terms:
                    info = classify(w.q)
                    assert info.in_F and info.is_projection, (label, w)


def test_degree_shift_covariance():
    # Phi_k (v x) = v Phi_(k-d) x: multiplication shifts the grading
    rng = random.Random(23)
    for g in (o2(), two_vertex()):
        paths = enumerate_paths(g, 2)
        for mu in paths[:4]:
            v = CKElement.path_isometry(g, mu)
            d = 2
            for _ in range(25):
                x = random_element(g, rng)
                for k in range(-4, 5):
                    assert is_equal(gauge_component(v * x, k),
                                    v * gauge_component(x, k - d))


def test_pairing_nonvanishing_on_edge_generators():
    for g in (o2(), two_vertex(), cycle3_chords()):
        for e in range(g.n_edges):
            for alpha in enumerate_paths(g, 2):
                if alpha.source != g.edge_range[e]:
                    continue
                v = CKElement.edge_isometry(g, e) * CKElement.path_projection(g, alpha)
                assert not k0f_is_zero(pairing_value(v))


def test_pairing_matches_projection_class_for_shift_words():
    g = two_vertex()
    for m in (1, 2, 3):
        for mu in enumerate_paths(g, m):
            v = CKElement.word(g, mu, mu.shift(1))
            value = pairing_value(v)
            expected = class_of_projection(CKElement.path_projection(g, mu))
            assert k0f_equal(value, expected)


def test_crosscheck_corpus_small():
    for g in (o2(), single_loop(), two_vertex()):
        report = pairing_crosscheck(g, horizon=3)
        assert report["all_agree"], report["failures"]
        assert report["generators_checked"] > 0


def test_crosscheck_cuntz_family():
    for n in (2, 3, 4):
        report = pairing_crosscheck(cuntz(n), horizon=3 if n < 4 else 2)
        assert report["all_agree"], report["failures"]
        assert "orientation" in report


def test_admissible_isometry_helpers():
    g = o3()
    v = AdmissibleIsometry.of(CKElement.path_isometry(g, g.path("a", "b")))
    w = AdmissibleIsometry.of(CKElement.edge_isometry(g, "c"))
    both = v.direct_sum(w)
    assert len(both.blocks) == 2
    assert k0f_equal(pairing_value(both),
                     _sum(g, pairing_value(v), pairing_value(w)))
    flipped = v.adjoint()
    assert k0f_is_zero(_sum(g, pairing_value(v), pairing_value(flipped)))
