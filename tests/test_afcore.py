import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphck.afcore import (K0FClass, _block_rank_vector, class_of_projection,
                            k0f_combine, k0f_describe, k0f_equal, k0f_is_zero,
                            k0f_value_in_closed_form, k0f_zero, k1f)
from graphck.algebra import GR_I, CKElement, GaussianRational, linear_combine, normal_form
from graphck.errors import (HypothesisError, InternalInvariantError,
                            NotAProjectionError)
from graphck.graphs import enumerate_paths, parse_graph, transfer_matrix
from corpus import (SINK_TEXT, block_trace_by_expansion, cuntz, cycle3_chords,
                    disconnected_pair, o2, o3, regular_corpus, single_loop, two_vertex)


def e_vec(g, v):
    if isinstance(v, str):
        v = g.vertex_index[v]
    return tuple(1 if i == v else 0 for i in range(g.n_vertices))


def test_class_of_path_projection():
    g = o3()
    mu = g.path("a", "b")
    cls = class_of_projection(CKElement.path_projection(g, mu))
    assert cls.level == 2 and cls.vec == (1,)
    assert k0f_value_in_closed_form(cls) is not None


def test_class_of_vertex_projection():
    g = two_vertex()
    cls = class_of_projection(CKElement.vertex_projection(g, "v2"))
    assert cls.level == 0 and cls.vec == e_vec(g, "v2")


def test_class_of_identity_level_invariance():
    g = o3()
    unit = CKElement.unit(g)
    base = class_of_projection(unit)
    for m in range(1, 4):
        pushed = class_of_projection(normal_form(unit, m))
        assert pushed.level == m and pushed.vec == (3 ** m,)
        assert k0f_equal(base, pushed)


def test_class_rejects_non_projections():
    g = o2()
    with pytest.raises(NotAProjectionError):
        class_of_projection(CKElement.edge_isometry(g, "a"))
    with pytest.raises(NotAProjectionError):
        class_of_projection(CKElement.vertex_projection(g, "v").scale(2))


def test_class_requires_regular_graph():
    g = parse_graph(SINK_TEXT)
    with pytest.raises(HypothesisError):
        class_of_projection(CKElement.vertex_projection(g, "v"))


def test_block_trace_hard_assertion():
    g = o2()
    pv = CKElement.vertex_projection(g, "v")
    bad = pv.scale(GaussianRational(Fraction(1, 2), Fraction(0)))
    with pytest.raises(InternalInvariantError):
        _block_rank_vector(bad, 0)
    with pytest.raises(InternalInvariantError):
        _block_rank_vector(pv.scale(-1), 0)
    with pytest.raises(InternalInvariantError, match="not real"):
        _block_rank_vector(pv.scale(GR_I), 0)
    # without the projection check the trace guards still name the vertex
    g = two_vertex()
    p2 = CKElement.vertex_projection(g, "v2")
    with pytest.raises(InternalInvariantError, match="block trace -1 at vertex 'v2'"):
        class_of_projection(p2.scale(-1), check=False)
    with pytest.raises(InternalInvariantError, match="block trace 1/2 at vertex 'v2'"):
        class_of_projection(p2.scale(Fraction(1, 2)), 2, check=False)
    with pytest.raises(InternalInvariantError, match="not real"):
        class_of_projection(p2.scale(GR_I), -1, check=False)


def test_graded_projection_shift_rule():
    for g in (o3(), two_vertex(), cycle3_chords()):
        for m in (1, 2, 3):
            for mu in enumerate_paths(g, m):
                for j in range(0, m + 1):
                    lhs = class_of_projection(CKElement.path_projection(g, mu), j)
                    rhs = class_of_projection(CKElement.path_projection(g, mu.shift(j)))
                    assert k0f_equal(lhs, rhs)


def test_graded_projection_k0_consistency():
    g = two_vertex()
    q = CKElement.path_projection(g, g.path("a", "c"))
    assert k0f_equal(class_of_projection(q, 0), class_of_projection(q))


def test_graded_projection_negative_degree():
    g = o3()
    pv = CKElement.vertex_projection(g, "v")
    cls = class_of_projection(pv, -1)
    assert cls.level == 1 and cls.vec == (1,)
    # [p_v Phi_(-1)] equals [p_lambda] for any length-1 path lambda into v
    lam = class_of_projection(CKElement.path_projection(g, g.path("b")))
    assert k0f_equal(cls, lam)


def test_graded_projection_level_choice_invariance():
    g = two_vertex()
    q = CKElement.vertex_projection(g, "v1")
    for k in (-2, -1, 0, 1, 2):
        base = class_of_projection(q, k)
        for extra in (1, 2):
            deeper = class_of_projection(normal_form(q, extra), k)
            assert k0f_equal(base, deeper)


def test_class_additive_on_orthogonal_projections():
    g = o2()
    paths = enumerate_paths(g, 2)
    q1 = CKElement.path_projection(g, paths[0])
    q2 = CKElement.path_projection(g, paths[1])
    total = class_of_projection(q1 + q2)
    added = k0f_combine(g, [(1, class_of_projection(q1)), (1, class_of_projection(q2))])
    assert k0f_equal(total, added)


def test_mvn_invariance_random():
    rng = random.Random(77)
    for g in (o2(), two_vertex(), cycle3_chords()):
        by_range = {}
        for m in (1, 2):
            for p in enumerate_paths(g, m):
                by_range.setdefault((m, p.range), []).append(p)
        pairs = [(mu, nu) for group in by_range.values()
                 for mu in group for nu in group]
        rng.shuffle(pairs)
        for mu, nu in pairs[:40]:
            w = CKElement.word(g, mu, nu)
            left = class_of_projection(w * w.adjoint())
            right = class_of_projection(w.adjoint() * w)
            assert k0f_equal(left, right)


def test_k0f_equal_stability():
    g = two_vertex()
    B = transfer_matrix(g)
    for v in range(2):
        x = K0FClass(g, 1, e_vec(g, v))
        y = K0FClass(g, 2, B.apply(e_vec(g, v)))
        assert k0f_equal(x, y)


def test_k0f_equal_cuntz():
    g = o3()
    assert k0f_equal(K0FClass(g, 0, (1,)), K0FClass(g, 1, (3,)))
    assert not k0f_equal(K0FClass(g, 0, (1,)), K0FClass(g, 1, (1,)))


def test_k0f_equal_nontrivial_stabilized_kernel():
    # transfer matrix [[1,1],[0,0]] comes from two edges into the first vertex
    g = parse_graph("vertex u\nvertex w\nedge a u u\nedge b w u")
    assert transfer_matrix(g).entries == ((1, 1), (0, 0))
    assert k0f_equal(K0FClass(g, 0, (1, -1)), k0f_zero(g))
    assert not k0f_equal(K0FClass(g, 0, (1, 0)), k0f_zero(g))


def test_k0f_combine():
    g = o3()
    x = K0FClass(g, 1, (1,))
    assert k0f_is_zero(k0f_combine(g, [(1, x), (-1, x)]))
    three = k0f_combine(g, [(1, x)] * 3)
    assert k0f_equal(three, K0FClass(g, 0, (1,)))
    mixed = k0f_combine(g, [(1, K0FClass(g, 1, (1,))), (1, K0FClass(g, 2, (1,)))])
    assert mixed.level == 2 and mixed.vec == (4,)


def test_k0f_combine_keeps_max_level():
    g = o2()
    # canonical representative sits at the largest input level, never pulled back
    mixed = k0f_combine(g, [(1, K0FClass(g, 0, (1,))), (1, K0FClass(g, 3, (0,)))])
    assert mixed.level == 3 and mixed.vec == (8,)


def test_k0f_describe():
    for n in (2, 5):
        desc = k0f_describe(cuntz(n))
        assert desc["closed_form"] == f"Z[1/{n}]"
    assert k0f_describe(single_loop())["closed_form"] == "Z"
    assert k0f_describe(two_vertex())["closed_form"] == "Z^2"
    bulk = parse_graph("vertex v1\nvertex v2\nedge a v1 v1\nedge a2 v1 v1\n"
                       "edge b v2 v2\nedge c v1 v2")
    assert k0f_describe(bulk)["closed_form"] is None
    assert k1f(o2()).is_trivial


def test_k0f_class_dunder_behaviour():
    g = o3()
    assert K0FClass(g, 0, (1,)) == K0FClass(g, 1, (3,))
    with pytest.raises(TypeError):
        hash(K0FClass(g, 0, (1,)))


def test_k0f_equal_matches_bounded_power_search():
    rng = random.Random(1234)
    for g in (o2(), two_vertex(), cycle3_chords()):
        B = transfer_matrix(g)
        for _ in range(120):
            vec = tuple(rng.randrange(-6, 7) for _ in range(g.n_vertices))
            lx = rng.randrange(3)
            x = K0FClass(g, lx, vec)
            brute = False
            w = vec
            for _ in range(6):
                if not any(w):
                    brute = True
                    break
                w = B.apply(w)
            brute = brute or not any(w)
            assert k0f_equal(x, K0FClass(g, lx, (0,) * g.n_vertices)) == brute


# Rank-one projections onto a xi_mu + b xi_nu with |a|^2 + |b|^2 = 1, as
# (|a|^2, a conj(b), |b|^2): real, imaginary and fractional coefficients.
_RANK_ONE = tuple((Fraction(wm), GaussianRational(Fraction(re), Fraction(im)), Fraction(wn))
                  for wm, re, im, wn in (("1/2", "1/2", 0, "1/2"),
                                         ("1/2", 0, "1/2", "1/2"),
                                         ("9/25", "12/25", 0, "16/25"),
                                         ("9/25", 0, "-12/25", "16/25")))
_HIDDEN_ZERO_COEFFS = (GR_I, GaussianRational(Fraction(1, 3), Fraction(-2, 3)),
                       GaussianRational(Fraction(-1, 2), Fraction(0)))
_TRACE_GRAPHS = [g for _, g in regular_corpus()] + [disconnected_pair()]


def _incomparable(mu, nu):
    return not mu.is_prefix_of(nu) and not nu.is_prefix_of(mu)


@st.composite
def core_projections(draw):
    """A projection in the core of a regular corpus graph: a sum of
    orthogonal path projections, 1 - p_mu, or a rank-one projection
    w_mu p_mu + c S_mu S_nu* + conj(c) S_nu S_mu* + w_nu p_nu with
    |mu| = |nu|, r(mu) = r(nu) and mu != nu, optionally plus
    1 - p_mu - p_nu.  Some draws add a multiple of the zero element
    p_rho - sum_e p_(rho e), so the diagonal coefficients of one element
    sit at two levels and may be imaginary or fractional."""
    g = draw(st.sampled_from(_TRACE_GRAPHS))
    paths = [p for length in range(4) for p in enumerate_paths(g, length)]
    kind = draw(st.sampled_from(("orthogonal_sum", "complement", "rank_one")))
    if kind == "orthogonal_sum":
        chosen = []
        for p in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=5)):
            if all(_incomparable(p, c) for c in chosen):
                chosen.append(p)
        q = linear_combine([(1, CKElement.path_projection(g, p)) for p in chosen])
    else:
        mu = draw(st.sampled_from(paths))
        p_mu = CKElement.path_projection(g, mu)
        if kind == "complement":
            q = CKElement.unit(g) - p_mu
        else:
            partners = [nu for nu in enumerate_paths(g, len(mu))
                        if nu.range == mu.range and nu != mu]
            assume(partners)
            nu = draw(st.sampled_from(partners))
            p_nu = CKElement.path_projection(g, nu)
            w_mu, c, w_nu = draw(st.sampled_from(_RANK_ONE))
            q = linear_combine([(w_mu, p_mu), (c, CKElement.word(g, mu, nu)),
                                (c.conj(), CKElement.word(g, nu, mu)), (w_nu, p_nu)])
            if draw(st.booleans()):
                q = q + CKElement.unit(g) - p_mu - p_nu
    if draw(st.booleans()):
        rho = draw(st.sampled_from(paths))
        zero = linear_combine([(1, CKElement.path_projection(g, rho))]
                              + [(-1, CKElement.path_projection(g, rho.extend(e)))
                                 for e in g.out_edges[rho.range]])
        q = q + zero.scale(draw(st.sampled_from(_HIDDEN_ZERO_COEFFS)))
    return q


@settings(max_examples=150, deadline=None)
@given(core_projections(), st.integers(-3, 3), st.integers(0, 2))
def test_trace_rule_matches_word_expansion(q, k, extra):
    m = max(k, 0, q.min_level())
    reference = block_trace_by_expansion(q, m + extra)
    assert all(not x.im and x.re.denominator == 1 for x in reference)
    assert _block_rank_vector(q, m + extra) == tuple(int(x.re) for x in reference)
    cls = class_of_projection(q, k)  # classify certifies q first
    expected = tuple(int(x.re) for x in block_trace_by_expansion(q, m))
    if q.terms:
        assert (cls.level, cls.vec) == (m - k, expected)
    else:
        assert cls.level == 0 and not any(cls.vec) and not any(expected)
