"""K-theory of the graph algebra and the six-term bookkeeping.

Both K-groups are presented by 1 - B on column vectors (B the transpose
of the vertex matrix): the cokernel in even degree, the kernel in odd
degree.  The map induced on the core's limit group by the inclusion sends
(vec, m) to the coset of vec; the connecting sequence carries minus that
map (up to the suspension identification), and reports carry both signs
while exactness checks compare subgroups, which are sign-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .afcore import K0FClass, k0f_combine
from .graphs import (Graph, enumerate_paths, presentation_matrix, require_regular,
                     transfer_matrix)
from .intmat import (AbelianGroup, IntMatrix, abelian_group_from_cokernel,
                     coset_canonical_form, integer_kernel_basis,
                     smith_normal_form, solve_integer_linear, stabilized_kernel)


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
    k1 = AbelianGroup(len(integer_kernel_basis(M)), ())
    images = {}
    for v, name in enumerate(g.vertices):
        e_v = tuple(1 if i == v else 0 for i in range(g.n_vertices))
        coords, moduli = coset_canonical_form(M, e_v)
        images[name] = CosetClass(coords, moduli)
    return KTheoryReport(k0, k1, M, images)


def j_star(x: K0FClass):
    """Image of a core class under the inclusion, as a coset of im(1 - B).

    Well defined on the limit: pushing a representative one level deeper
    changes the vector by (B - 1)vec, which dies in the quotient.  Returns
    (inclusion coset, sequence coset); the second is the negative, which
    is the arrow that actually appears in the connecting sequence.
    """
    g = x.graph
    require_regular(g)
    M = presentation_matrix(g)
    coords, moduli = coset_canonical_form(M, x.vec)
    neg_coords, _ = coset_canonical_form(M, tuple(-a for a in x.vec))
    return CosetClass(coords, moduli), CosetClass(neg_coords, moduli)


def j_star_is_zero(x: K0FClass) -> bool:
    inclusion, _ = j_star(x)
    return inclusion.is_zero


def _verify_j_surjective(g: Graph) -> bool:
    """The vertex classes generate the quotient: [I | 1-B] spans Z^n."""
    n = g.n_vertices
    M = presentation_matrix(g)
    cols = []
    for v in range(n):
        cols.append(tuple(1 if i == v else 0 for i in range(n)))
    for j in range(n):
        cols.append(tuple(M.entries[i][j] for i in range(n)))
    stacked = IntMatrix.from_rows(list(zip(*cols)))
    diag = smith_normal_form(stacked).D.diagonal()
    return sum(1 for d in diag if d == 1) == n


def exactness_report(g: Graph, horizon: int = 4) -> dict:
    """Check the connecting sequence on the edge-level generators.

    (i) the composite (inclusion map after evaluation) kills every
    generator; (ii) the vertex classes already surject onto the even
    K-group; (iii) sampled kernel elements of the inclusion map are hit by
    integer combinations of evaluation images, with misses reported as
    not certified.
    """
    props = require_regular(g)
    B = transfer_matrix(g)
    n = g.n_vertices

    generators = []
    composite_failures = []
    paths = [enumerate_paths(g, length) for length in range(horizon + 1)]
    for e in range(g.n_edges):
        for length, alphas in enumerate(paths):
            for alpha in alphas:
                if alpha.source != g.edge_range[e]:
                    continue  # S_e P_alpha = 0
                label = f"S({g.edge_names[e]})P[{alpha}]"
                generators.append((label, alpha.range, length))
                e_w = tuple(1 if i == alpha.range else 0 for i in range(n))
                ev_cls = k0f_combine(g, [
                    (1, K0FClass(g, length, e_w)),
                    (-1, K0FClass(g, length + 1, e_w)),
                ])
                if not j_star_is_zero(ev_cls):
                    composite_failures.append(label)

    surjective = _verify_j_surjective(g)

    # kernel samples: [(1-B)e_v, m]; solve for them inside the lattice
    # spanned by the aligned evaluation images plus the zero classes
    level = horizon + 1
    columns = []
    for e in range(g.n_edges):
        # w = r(alpha) over the paths alpha from r(e): S_e P_alpha has evaluation
        # class [e_w, m] - [e_w, m+1] = [(B-1)e_w, m+1], m = |alpha|
        reachable = {g.edge_range[e]}
        for length in range(0, horizon + 1):
            for w in sorted(reachable):
                e_w = tuple(1 if i == w else 0 for i in range(n))
                vec = tuple(a - b for a, b in zip(B.apply(e_w), e_w))
                columns.append(B.apply_power(level - length - 1, vec))
            reachable = {g.edge_range[f] for u in reachable for f in g.out_edges[u]}
    columns.extend(stabilized_kernel(B))
    samples = []
    M1B = presentation_matrix(g)
    if columns:
        lattice = IntMatrix.from_rows(list(zip(*columns)))
        for v in range(n):
            for m in range(0, horizon + 1):
                e_v = tuple(1 if i == v else 0 for i in range(n))
                target_vec = M1B.apply(e_v)
                aligned = B.apply_power(level - m, target_vec)
                hit = solve_integer_linear(lattice, aligned) is not None
                samples.append({
                    "sample": f"[(1-B)e_{g.vertices[v]}, level {m}]",
                    "certified": hit,
                })
    return {
        "horizon": horizon,
        "weakly_connected": props.weakly_connected,
        "generators_checked": len(generators),
        "composite_zero": not composite_failures,
        "composite_failures": composite_failures,
        "j_star_surjective": surjective,
        "kernel_samples": samples,
        "not_certified": [s["sample"] for s in samples if not s["certified"]],
    }
