import pytest

from graphck.afcore import K0FClass
from graphck.errors import HypothesisError
from graphck.graphs import parse_graph, transfer_matrix
from graphck.intmat import AbelianGroup, IntMatrix
from graphck.ktheory import (exactness_report, graph_k_theory, j_star,
                             j_star_is_zero, presentation_matrix)

from corpus import (SINK_TEXT, cuntz, cycle3_chords, o2, single_loop, singular_b,
                    two_vertex)


def e_vec(g, v):
    return tuple(1 if i == v else 0 for i in range(g.n_vertices))


def test_cuntz_k_theory():
    for n in range(2, 7):
        report = graph_k_theory(cuntz(n))
        if n == 2:
            assert report.k0.is_trivial
        else:
            assert report.k0 == AbelianGroup(0, (n - 1,))
        assert report.k1.is_trivial
        assert report.presentation_matrix.entries == ((1 - n,),)


def test_single_loop_k_theory():
    report = graph_k_theory(single_loop())
    assert report.k0 == AbelianGroup(1, ())
    assert report.k1 == AbelianGroup(1, ())


def test_two_vertex_k_theory():
    report = graph_k_theory(two_vertex())
    assert report.k0 == AbelianGroup(1, ())
    assert report.k1 == AbelianGroup(1, ())
    assert report.presentation_matrix.entries == ((0, 0), (-1, 0))


def test_k_theory_requires_hypotheses():
    with pytest.raises(HypothesisError):
        graph_k_theory(parse_graph(SINK_TEXT))


def test_generator_images_present():
    g = cuntz(4)
    report = graph_k_theory(g)
    assert set(report.k0_generator_images) == {"v"}
    img = report.k0_generator_images["v"]
    assert img.moduli == (3,) and not img.is_zero
    # the generator has order 3: tripling it lands on the zero coset
    assert j_star_is_zero(K0FClass(g, 0, (3,)))


def test_j_star_on_generators():
    g = two_vertex()
    for v in range(2):
        inclusion, sequence = j_star(K0FClass(g, 0, e_vec(g, v)))
        # the two oriented maps are negatives of each other in the quotient
        direct = j_star(K0FClass(g, 0, tuple(-a for a in e_vec(g, v))))[0]
        assert sequence == direct
        assert inclusion.moduli == sequence.moduli


def test_j_star_well_defined_across_levels():
    for g in (cuntz(3), two_vertex(), cycle3_chords()):
        B = transfer_matrix(g)
        for v in range(g.n_vertices):
            vec = e_vec(g, v)
            base = j_star(K0FClass(g, 0, vec))[0]
            for m in range(1, 4):
                vec = B.apply(vec)
                assert j_star(K0FClass(g, m, vec))[0] == base


def test_j_star_cuntz_independent_of_level():
    # 4^m is 1 modulo 3, so [1, m] maps to the same coset for every m
    g = cuntz(4)
    base = j_star(K0FClass(g, 0, (1,)))[0]
    for m in range(5):
        inclusion, _ = j_star(K0FClass(g, m, (1,)))
        assert inclusion == base and inclusion.moduli == (3,)


def test_exactness_report_corpus():
    for g in (o2(), cuntz(3), single_loop(), two_vertex(), cycle3_chords(), singular_b()):
        report = exactness_report(g, horizon=3)
        assert report["composite_zero"], report["composite_failures"]
        assert report["j_star_surjective"]
        assert report["not_certified"] == []
        assert report["generators_checked"] > 0


def test_kernel_sample_certificate_catches_a_wrong_entry():
    # the samples are read from the graph's 1 - B and the witnesses from B;
    # a wrong entry in column j of 1 - B changes every sample at vertex j,
    # and B^k e_i is never zero without sinks, so every level shows it
    for make in (two_vertex, cycle3_chords, singular_b):
        for i, j in ((0, 0), (1, 0), (0, 1)):
            g = make()
            rows = [list(row) for row in presentation_matrix(g).entries]
            rows[i][j] += 1
            g._presentation_matrix = IntMatrix.from_rows(rows)
            report = exactness_report(g, horizon=2)
            assert report["not_certified"] == [
                f"[(1-B)e_{g.vertices[j]}, level {m}]" for m in range(3)], (make, i, j)


def test_exactness_single_loop_kernel():
    # for the one-loop graph 1 - B = 0, so the inclusion map is injective
    # and every evaluation image is the zero class
    g = single_loop()
    report = exactness_report(g, horizon=3)
    assert report["composite_zero"]
    assert j_star_is_zero(K0FClass(g, 0, (0,)))
    assert not j_star_is_zero(K0FClass(g, 0, (1,)))


def test_presentation_matrix_orientation():
    g = two_vertex()
    M = presentation_matrix(g)
    B = transfer_matrix(g)
    for i in range(2):
        for j in range(2):
            assert M[i, j] == (1 if i == j else 0) - B[i, j]
