import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphck import intmat
from graphck.intmat import (AbelianGroup, IntMatrix, abelian_group_from_cokernel,
                            coset_canonical_form, in_stabilized_kernel,
                            smith_normal_form)

from corpus import fundamental_domain_order


def M(rows):
    return IntMatrix.from_rows(rows)


def test_snf_diag_example():
    res = smith_normal_form(M([[2, 0], [0, 3]]))
    assert res.D.diagonal() == (1, 6)


def test_snf_zero_matrix():
    res = smith_normal_form(M([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert res.D == M([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_snf_negative_1x1():
    res = smith_normal_form(M([[-2]]))
    assert res.D.diagonal() == (2,)


def _random_matrix(rng, max_size=6, lo=-5, hi=5):
    r = rng.randrange(1, max_size + 1)
    c = rng.randrange(1, max_size + 1)
    return M([[rng.randrange(lo, hi + 1) for _ in range(c)] for _ in range(r)])


def test_snf_random_suite():
    rng = random.Random(20240901)
    for _ in range(1000):
        mat = _random_matrix(rng)
        res = smith_normal_form(mat)  # factorisation verified on construction
        assert abs(res.U.det()) == 1 and abs(res.V.det()) == 1
        diag = res.D.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        assert res.rank == _fraction_rank(mat.entries)


def test_snf_deterministic():
    # two equal matrix objects are factored separately and identically
    first = smith_normal_form(M([[6, 4, 2], [4, 8, 0], [2, 0, 10]]))
    second = smith_normal_form(M([[6, 4, 2], [4, 8, 0], [2, 0, 10]]))
    assert first is not second
    assert first.U == second.U and first.V == second.V and first.D == second.D


def test_one_factorisation_shared_by_every_query(monkeypatch):
    mat = M([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    snf = smith_normal_form(mat)

    def refactor(_):
        raise AssertionError("matrix factored twice")

    monkeypatch.setattr(intmat, "_smith_normal_form", refactor)
    assert smith_normal_form(mat) is snf and mat.snf is snf
    assert abelian_group_from_cokernel(mat) == AbelianGroup(0, (2, 6, 12))
    assert coset_canonical_form(mat, (2, -6, 10)) == ((0, 0, 0), (2, 6, 12))
    with pytest.raises(AssertionError, match="factored twice"):
        smith_normal_form(M(mat.entries))


def _fraction_rank(rows):
    """Rank over the rationals (Gauss-Jordan elimination)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_det_and_product_against_definitions():
    rng = random.Random(7)
    for _ in range(600):
        n = rng.randrange(0, 7)
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [[rng.randrange(-4, 5) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        assert M(rows).det() == _fraction_det(rows)
        c = rng.randrange(0, 5)
        other = [[rng.randrange(-4, 5) if rng.random() < density else 0 for _ in range(c)]
                 for _ in range(n)]
        expected = [[sum(rows[i][k] * other[k][j] for k in range(n)) for j in range(c)]
                    for i in range(n)]
        if n:
            assert (M(rows) * M(other)).entries == M(expected).entries


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=4), min_size=1,
                max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_hypothesis(rows):
    res = smith_normal_form(M(rows))
    assert res.U * M(rows) * res.V == res.D


def test_cokernel_examples():
    for n in range(2, 7):
        grp = abelian_group_from_cokernel(M([[1 - n]]))
        if n == 2:
            assert grp.is_trivial
        else:
            assert grp == AbelianGroup(0, (n - 1,))
    assert abelian_group_from_cokernel(M([[0, 0], [0, 0]])) == AbelianGroup(2, ())
    assert abelian_group_from_cokernel(M([[0, 0], [-1, 0]])) == AbelianGroup(1, ())


def test_cokernel_order_against_point_counting():
    rng = random.Random(7321)
    hits = 0
    for _ in range(300):
        k = rng.randrange(1, 4)
        rows = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(k)]
        order = fundamental_domain_order(rows)
        grp = abelian_group_from_cokernel(M(rows))
        if order == 0:
            assert grp.free_rank > 0
        else:
            hits += 1
            assert grp.free_rank == 0 and grp.order() == order
    assert hits > 50  # the sample hit plenty of finite quotients


def test_stabilized_kernel_examples():
    assert not in_stabilized_kernel(M([[3]]), (1,))
    # nilpotent: everything dies, (0, 1) only under the second power
    for vec in ((1, 0), (0, 1), (3, -2)):
        assert in_stabilized_kernel(M([[0, 1], [0, 0]]), vec)
    assert in_stabilized_kernel(M([[1, 1], [0, 0]]), (1, -1))
    assert not in_stabilized_kernel(M([[1, 1], [0, 0]]), (1, 0))


def test_stabilized_kernel_invariance():
    # ker B = Z(1, -1, 0) < ker B^2 = ker B^3 = {x + y + z = 0}
    B = M([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    for vec in ((1, -1, 0), (0, 1, -1), (2, 3, -5)):
        assert in_stabilized_kernel(B, vec)
        # B-invariance: B maps the stabilized kernel into itself
        assert in_stabilized_kernel(B, B.apply(vec))
        # the same sublattice from any power of B
        assert in_stabilized_kernel(B * B, vec)
    for vec in ((1, 0, 0), (0, 0, 1), (1, 1, -1)):
        assert not in_stabilized_kernel(B, vec)
        assert not in_stabilized_kernel(B * B, vec)


def test_stabilized_membership_matches_bounded_search():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randrange(1, 4)
        B = M([[rng.randrange(-2, 3) for _ in range(k)] for _ in range(k)])
        vec = tuple(rng.randrange(-4, 5) for _ in range(k))
        brute = False
        w = vec
        for _ in range(6):
            w = B.apply(w)
            if not any(w):
                brute = True
                break
        assert in_stabilized_kernel(B, vec) == brute


def test_coset_canonical_form():
    mat = M([[2]])
    coords, moduli = coset_canonical_form(mat, (3,))
    assert moduli == (2,) and coords == (1,)
    coords2, _ = coset_canonical_form(mat, (5,))
    assert coords == coords2


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))  # chain violated
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    assert str(AbelianGroup(1, (3,))) == "Z + Z/3"
    assert AbelianGroup(0, ()).order() == 1
    assert AbelianGroup(2, ()).order() is None
