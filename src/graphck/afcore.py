"""K-theory of the gauge fixed-point algebra as a stationary direct limit.

A class is a pair (level m, integer vector over the vertices): the vector
of block ranks of a projection written in words of length m, i.e. its
per-vertex trace at level m.  Pushing one level deeper multiplies the
vector by B, the transpose of the vertex matrix, so (vec, m) and
(B vec, m+1) are the same class and equality is decided in the limit by a
stabilized kernel test.

The rank vector is read from traces through B, never from word expansion:
a diagonal word S_mu S_mu* has trace e_r(mu) at level |mu| and so
B^(m-|mu|) e_r(mu) at level m, and an off-diagonal word has none at any
level.  Graded classes [q Phi_k] (the projection q cutting the degree-k
part of the gauge module) satisfy the unified rule: take the rank vector
of q at any level m >= max(k, 0) and place it at level m - k.  For k >= 0
this is the shift S_(sigma^k mu) S_mu*; for k < 0 it is conjugation by
any S_rho S_mu* with |rho| = m - k and r(rho) = r(mu), which exists
because the graph has no sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .algebra import CKElement, classify
from .errors import InternalInvariantError, NotAProjectionError
from .graphs import Graph, require_regular, transfer_matrix
from .intmat import AbelianGroup, in_stabilized_kernel


@dataclass(frozen=True, eq=False, repr=False)
class K0FClass:
    """(level, vector) representative of a core K-theory class."""

    graph: Graph
    level: int
    vec: tuple

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("negative level")
        if len(self.vec) != self.graph.n_vertices:
            raise ValueError("vector length must match the vertex count")
        object.__setattr__(self, "vec", tuple(int(x) for x in self.vec))

    def __eq__(self, other):
        if not isinstance(other, K0FClass):
            return NotImplemented
        return k0f_equal(self, other)

    def __hash__(self):
        raise TypeError("direct-limit classes are not hashable; compare with k0f_equal")

    def __repr__(self):
        return f"K0F[level={self.level}, vec={self.vec}]"


@dataclass(frozen=True)
class GradedProjection:
    """A projection in the core together with a gauge degree index k.

    Stands for the right module cut out of the degree-k subspace by q.
    """

    q: CKElement
    k: int


def _block_rank_vector(q: CKElement, m: int) -> tuple:
    """Per-vertex trace of q at level m; must be integer ranks.

    Traces are linear and only the diagonal words S_mu S_mu* carry any:
    an off-diagonal word expands only into off-diagonal words.  Expanding
    S_mu S_mu* to level m gives one diagonal word per path of length
    m - |mu| from r(mu), counted per range by B^(m-|mu|) e_r(mu).  So the
    trace is the sum of c * B^(m-|mu|) e_r(mu) over the diagonal terms,
    with no word expanded.  The real and imaginary parts are summed
    exactly, as integers over the common denominator of the coefficients.
    """
    g = q.graph
    if m < q.min_level():
        raise ValueError("level below a term's min length")
    diagonal = [(len(t.mu), t.mu.range, c) for t, c in q.terms.items() if t.mu == t.nu]
    den = lcm(*(x.denominator for _, _, c in diagonal for x in (c.re, c.im)))
    by_power = {}
    for length, v, c in diagonal:
        re, im = by_power.setdefault(m - length, ([0] * g.n_vertices, [0] * g.n_vertices))
        re[v] += c.re.numerator * (den // c.re.denominator)
        im[v] += c.im.numerator * (den // c.im.denominator)
    B = transfer_matrix(g)
    re, im = [0] * g.n_vertices, [0] * g.n_vertices
    for power, (re_p, im_p) in by_power.items():
        re = list(map(add, re, B.apply_power(power, re_p)))
        im = list(map(add, im, B.apply_power(power, im_p)))
    if any(im):
        raise InternalInvariantError("projection block trace is not real")
    for v, total in enumerate(re):
        if total % den or total < 0:
            raise InternalInvariantError(
                f"block trace {Fraction(total, den)} at vertex {g.vertices[v]!r} is "
                "not a nonnegative integer; input was not a projection in the core")
    return tuple(total // den for total in re)


def class_of_projection(q: CKElement, k: int = 0, check: bool = True) -> K0FClass:
    """Graded class [q Phi_k] of a projection q in the core, by the unified
    rule; k = 0 is the plain class [q].

    Takes the trace of q at m = max(k, 0, natural level), summed through
    B without expanding any word, and returns that rank vector at level
    m - k.  With check=True, classify first certifies q as a projection
    in the core (through normal-form equality); with check=False only the
    trace guards remain.
    """
    require_regular(q.graph)
    if check and q.terms:
        info = classify(q)
        if not info.in_F:
            raise NotAProjectionError("element is not in the core (nonzero gauge degree)")
        if not info.is_projection:
            raise NotAProjectionError("element is not a projection")
    if not q.terms:
        return k0f_zero(q.graph)
    m = max(k, 0, q.min_level())
    return K0FClass(q.graph, m - k, _block_rank_vector(q, m))


def k0f_zero(g: Graph) -> K0FClass:
    return K0FClass(g, 0, (0,) * g.n_vertices)


def k0f_equal(x: K0FClass, y: K0FClass) -> bool:
    """Equality in the direct limit: the aligned difference dies under B."""
    if x.graph is not y.graph:
        raise ValueError("classes live over different graphs")
    B = transfer_matrix(x.graph)
    n = max(x.level, y.level)
    u = B.apply_power(n - x.level, x.vec)
    w = B.apply_power(n - y.level, y.vec)
    diff = tuple(a - b for a, b in zip(u, w))
    return in_stabilized_kernel(B, diff)


def k0f_combine(graph: Graph, terms) -> K0FClass:
    """Integer combination of classes, aligned to the largest input level."""
    terms = list(terms)
    if not terms:
        return k0f_zero(graph)
    B = transfer_matrix(graph)
    n = max(cls.level for _, cls in terms)
    acc = [0] * graph.n_vertices
    for coeff, cls in terms:
        if cls.graph is not graph:
            raise ValueError("classes live over different graphs")
        vec = B.apply_power(n - cls.level, cls.vec)
        for i, v in enumerate(vec):
            acc[i] += coeff * v
    return K0FClass(graph, n, tuple(acc))


def k0f_is_zero(x: K0FClass) -> bool:
    return k0f_equal(x, k0f_zero(x.graph))


def k1f(g: Graph) -> AbelianGroup:
    """K_1 of the core: always trivial (the core is approximately
    finite-dimensional, and such algebras have no odd K-theory)."""
    return AbelianGroup(0, ())


def k0f_closed_form(g: Graph):
    """Closed-form name of the limit group when one is recognised."""
    B = transfer_matrix(g)
    if g.n_vertices == 1:
        n = B[0, 0]
        return "Z" if n == 1 else f"Z[1/{n}]"
    if g.n_vertices and abs(B.det()) == 1:
        return f"Z^{g.n_vertices}"
    return None


def k0f_value_in_closed_form(x: K0FClass):
    """Exact value of a class under the single-vertex reading, if any."""
    g = x.graph
    if g.n_vertices != 1:
        return None
    n = transfer_matrix(g)[0, 0]
    return Fraction(x.vec[0], n ** x.level)


def k0f_describe(g: Graph) -> dict:
    """Description of the limit group: the transfer matrix plus any
    recognised closed form (single vertex or unimodular transfer)."""
    require_regular(g)
    B = transfer_matrix(g)
    return {
        "model": f"colim(Z^{g.n_vertices}, B)",
        "transfer_matrix": B,
        "closed_form": k0f_closed_form(g),
        "k1": k1f(g),
    }
