"""K-theory of the graph algebra and the six-term bookkeeping.

Both K-groups are presented by 1 - B on column vectors (B the transpose
of the vertex matrix): the cokernel in even degree, the kernel in odd
degree.  The map induced on the core's limit group by the inclusion sends
(vec, m) to the coset of vec; the connecting sequence carries minus that
map (up to the suspension identification), and reports carry both signs
while exactness checks compare subgroups, which are sign-insensitive.

The K-groups, the cosets and the surjectivity certificate all come from
the one factorisation U(1 - B)V = D kept on the graph's presentation
matrix; the odd K-group is free of rank n minus the rank of D.  The
vertex classes surject onto the even K-group: [p_v] maps to the coset of
e_v, whose coordinates are column v of U, and the columns of U span Z^n
because the factorisation is only accepted with |det U| = 1.  Exactness
at the core's K_0 needs no further factorisation: each sampled kernel
element of the inclusion map is certified by an explicit combination of
evaluation images read off the edges of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .afcore import K0FClass, k0f_combine
from .graphs import (Graph, enumerate_paths, presentation_matrix, require_regular,
                     transfer_matrix)
from .intmat import (AbelianGroup, IntMatrix, abelian_group_from_cokernel,
                     coset_canonical_form)


@dataclass(frozen=True)
class CosetClass:
    """Canonical element of Z^n / im(1 - B): coords reduced modulo moduli
    (modulus 0 marks a free coordinate)."""

    coords: tuple
    moduli: tuple

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class KTheoryReport:
    k0: AbelianGroup
    k1: AbelianGroup
    presentation_matrix: IntMatrix
    k0_generator_images: dict  # vertex name -> CosetClass


def graph_k_theory(g: Graph) -> KTheoryReport:
    """K_0 = coker(1 - B), K_1 = ker(1 - B)."""
    require_regular(g)
    M = presentation_matrix(g)
    k0 = abelian_group_from_cokernel(M)
    k1 = AbelianGroup(M.cols - M.snf.rank, ())
    images = {}
    for v, name in enumerate(g.vertices):
        e_v = tuple(1 if i == v else 0 for i in range(g.n_vertices))
        coords, moduli = coset_canonical_form(M, e_v)
        images[name] = CosetClass(coords, moduli)
    return KTheoryReport(k0, k1, M, images)


def vertex_classes_surject(g: Graph) -> bool:
    """The vertex classes generate the even K-group coker(1 - B).

    Forces the factorisation U(1 - B)V = D: the image of [p_v] has the
    coordinates of column v of U, and the columns of U span Z^n because
    SNFResult raises InternalInvariantError unless |det U| = 1.  So this
    returns True or raises; it never returns False.
    """
    return presentation_matrix(g).snf is not None


def _inclusion_coset(x: K0FClass) -> CosetClass:
    require_regular(x.graph)
    return CosetClass(*coset_canonical_form(presentation_matrix(x.graph), x.vec))


def j_star(x: K0FClass):
    """Image of a core class under the inclusion, as a coset of im(1 - B).

    Well defined on the limit: pushing a representative one level deeper
    changes the vector by (B - 1)vec, which dies in the quotient.  Returns
    (inclusion coset, sequence coset); the second is the negative, which
    is the arrow that actually appears in the connecting sequence.
    """
    inclusion = _inclusion_coset(x)
    neg_coords = tuple(-c % m if m else -c
                       for c, m in zip(inclusion.coords, inclusion.moduli))
    return inclusion, CosetClass(neg_coords, inclusion.moduli)


def j_star_is_zero(x: K0FClass) -> bool:
    return _inclusion_coset(x).is_zero


def exactness_report(g: Graph, horizon: int = 4) -> dict:
    """Check the connecting sequence on the edge-level generators.

    (i) the composite (inclusion map after evaluation) kills every
    generator; (ii) the vertex classes already surject onto the even
    K-group; (iii) each sampled kernel element [(1-B)e_v, m] of the
    inclusion map is minus an explicit sum of evaluation images: the image
    keyed (m-1, v) for m >= 1, and the images keyed (0, r(e)) over the
    edges e leaving v for m = 0, because B e_v is the sum of the e_r(e).
    A sample is certified when its witness keys are among the checked
    generators and the sum equals the sample at level horizon + 1;
    misses are reported as not certified.
    """
    props = require_regular(g)
    B = transfer_matrix(g)
    n = g.n_vertices

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n))

    # S_e P_alpha (r(e) = s(alpha), m = |alpha|, w = r(alpha)) evaluates to
    # [e_w, m] - [e_w, m+1] = [(B-1)e_w, m+1], so the composite and the
    # witnesses depend on (m, w) alone: each distinct pair is checked once
    generators = 0
    composite_failures = []
    composite_zero = {}  # (m, w) -> whether the inclusion kills the class
    paths = [enumerate_paths(g, length) for length in range(horizon + 1)]
    for e in range(g.n_edges):
        for length, alphas in enumerate(paths):
            for alpha in alphas:
                if alpha.source != g.edge_range[e]:
                    continue  # S_e P_alpha = 0
                generators += 1
                key = (length, alpha.range)
                if key not in composite_zero:
                    e_w = unit(alpha.range)
                    composite_zero[key] = j_star_is_zero(k0f_combine(g, [
                        (1, K0FClass(g, length, e_w)),
                        (-1, K0FClass(g, length + 1, e_w)),
                    ]))
                if not composite_zero[key]:
                    composite_failures.append(f"S({g.edge_names[e]})P[{alpha}]")

    # the images pushed to level horizon + 1, where equal vectors are equal
    # classes of the limit group
    level = horizon + 1
    images = {}
    for length, w in composite_zero:
        e_w = unit(w)
        vec = tuple(a - b for a, b in zip(B.apply(e_w), e_w))
        images[length, w] = B.apply_power(level - length - 1, vec)
    M1B = presentation_matrix(g)
    samples = []
    for v in range(n):
        for m in range(horizon + 1):
            keys = [(m - 1, v)] if m else [(0, g.edge_range[e]) for e in g.out_edges[v]]
            aligned = B.apply_power(level - m, M1B.apply(unit(v)))
            witness = [images.get(key) for key in keys]
            hit = None not in witness and tuple(-sum(c) for c in zip(*witness)) == aligned
            samples.append({
                "sample": f"[(1-B)e_{g.vertices[v]}, level {m}]",
                "certified": hit,
            })
    return {
        "horizon": horizon,
        "weakly_connected": props.weakly_connected,
        "generators_checked": generators,
        "composite_zero": not composite_failures,
        "composite_failures": composite_failures,
        "j_star_surjective": vertex_classes_surject(g),
        "kernel_samples": samples,
        "not_certified": [s["sample"] for s in samples if not s["certified"]],
    }
