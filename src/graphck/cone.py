"""Partial-isometry classes for the mapping cone of the core inclusion.

A class is carried by an admissible partial isometry v with source and
range projections in the core.  Two computable invariants are attached:
the evaluation class [v*v] - [vv*] in the limit group, and the index
pairing.  On graphs with no sinks, no sources and a weakly connected
underlying graph the index map is an isomorphism, so equality of classes
is decided by the index invariant alone; elsewhere differing invariants
certify inequality and matching invariants are reported as unknown.
"""

from __future__ import annotations

from .afcore import (K0FClass, class_of_projection, k0f_combine, k0f_describe,
                     k0f_equal)
from .algebra import CKElement
from .errors import AdmissibilityError, GraphMismatchError, InternalInvariantError
from .graphs import Graph, Path, require_regular, transfer_matrix, validate_graph
from .intmat import AbelianGroup
from .ktheory import graph_k_theory, vertex_classes_surject
from .pairing import AdmissibleIsometry, check_admissible, pairing


def vfa_membership(v) -> tuple:
    """Whether v (an element or a list of blocks) represents a cone class.

    Returns (flag, diagnostics), the diagnostics of check_admissible:
    membership needs each block to satisfy v v* v = v with v*v and vv* in
    the core, and the orthogonality of homogeneous components is what makes
    the index routes applicable.
    """
    diagnostics = check_admissible([v] if isinstance(v, CKElement) else list(v))
    return (not diagnostics, diagnostics)


class ConeClass:
    """A cone class with lazily cached computable invariants.

    The representative passes admissibility on construction; the cached
    evaluation and index classes are recomputable from it at any time.
    """

    __slots__ = ("rep", "_ev", "_index")

    def __init__(self, rep):
        if isinstance(rep, CKElement):
            rep = AdmissibleIsometry.of(rep)
        self.rep = rep
        self._ev = None
        self._index = None

    @staticmethod
    def of(v) -> "ConeClass":
        return ConeClass(v)

    @property
    def graph(self) -> Graph:
        return self.rep.graph

    @property
    def ev_class(self) -> tuple:
        """([v*v], [vv*]) as limit classes, summed over blocks."""
        if self._ev is None:
            g = self.graph
            src = k0f_combine(g, [(1, class_of_projection(b.adjoint() * b, check=False))
                                  for b in self.rep.blocks])
            rng = k0f_combine(g, [(1, class_of_projection(b * b.adjoint(), check=False))
                                  for b in self.rep.blocks])
            self._ev = (src, rng)
        return self._ev

    @property
    def index_class(self) -> K0FClass:
        if self._index is None:
            self._index = pairing(self.rep).value
        return self._index


def ev_star(c: ConeClass) -> K0FClass:
    """Evaluation: class of the source projection minus the range projection."""
    src, rng = c.ev_class
    return k0f_combine(c.graph, [(1, src), (-1, rng)])


def cone_equal(a: ConeClass, b: ConeClass) -> str:
    """Decide equality of two cone classes: equal, unequal, or unknown.

    With no sinks, no sources and weak connectivity the index invariant is
    complete.  Without those hypotheses a difference in either invariant
    still certifies inequality (both are homomorphisms), but agreement
    decides nothing and is reported as unknown.
    """
    if a.graph is not b.graph:
        raise GraphMismatchError("classes live over different graphs")
    g = a.graph
    props = validate_graph(g)
    index_eq = k0f_equal(a.index_class, b.index_class)
    ev_eq = k0f_equal(ev_star(a), ev_star(b))
    if props.no_sinks and props.no_sources and props.weakly_connected:
        if index_eq and not ev_eq:
            raise InternalInvariantError(
                "index classes agree but evaluation classes differ on a graph "
                "where the index map is injective")
        return "equal" if index_eq else "unequal"
    if not index_eq or not ev_eq:
        return "unequal"
    return "unknown"


def decompose_relations(v: CKElement) -> dict:
    """Rewrite a single spanning-word class in terms of smaller generators.

    For a path word times a path projection, telescopes to edge-level
    classes: S_(a_1...a_k) P_tau = sum over j of the class of
    S_(a_j) P_(sigma^j(a) tau), all with sign +1.  For a general word
    S_pi S_nu* it splits as [S_pi] - [S_nu].  A projection decomposes to
    nothing.  The certificate re-evaluates pairing and evaluation on both
    sides; both must match exactly.  Any other element (several terms, or
    a coefficient other than 1) is refused with AdmissibilityError.
    """
    if len(v.terms) != 1:
        raise AdmissibilityError(["decomposition needs a single spanning word"])
    (term, coeff), = v.terms.items()
    if coeff.im or coeff.re != 1:
        raise AdmissibilityError(["decomposition needs coefficient 1"])
    g = v.graph
    pi, nu = term.mu, term.nu
    parts = []
    if pi == nu:
        pass  # projection in the core: class zero
    elif len(pi) > len(nu) and pi.edges[len(pi) - len(nu):] == nu.edges:
        # pi = alpha nu: telescope S_alpha P_nu into edge-level classes
        k = len(pi) - len(nu)
        alpha = pi.prefix(k)
        for j in range(1, k):
            edge = alpha.edges[j - 1]
            tail = alpha.shift(j).concat(nu) if len(nu) else alpha.shift(j)
            mu_part = Path(g, g.edge_source[edge], (edge,) + tail.edges)
            parts.append((1, CKElement.word(g, mu_part, tail)))
        edge = alpha.edges[k - 1]
        mu_part = Path(g, g.edge_source[edge], (edge,) + nu.edges)
        parts.append((1, CKElement.word(g, mu_part, nu)))
    else:
        if len(pi):
            parts.append((1, CKElement.path_isometry(g, pi)))
        if len(nu):
            parts.append((-1, CKElement.path_isometry(g, nu)))

    input_pairing = pairing(AdmissibleIsometry.of(v)).value
    input_ev = ev_star(ConeClass.of(v))
    out_pairing = k0f_combine(g, [(s, pairing(AdmissibleIsometry.of(e)).value)
                                  for s, e in parts])
    out_ev = k0f_combine(g, [(s, ev_star(ConeClass.of(e))) for s, e in parts])
    certificate = {
        "pairing_preserved": k0f_equal(input_pairing, out_pairing),
        "ev_preserved": k0f_equal(input_ev, out_ev),
    }
    if not all(certificate.values()):
        raise InternalInvariantError("decomposition failed its invariance certificate")
    return {"parts": parts, "certificate": certificate}


def mapping_cone_k_groups(g: Graph) -> dict:
    """K-groups of the mapping cone via the connecting sequence.

    The odd group vanishes once the vertex classes surject onto the even
    K-group of the graph algebra.  That is certified, not assumed, by the
    unimodular U of the factorisation U(1 - B)V = D that also gives the
    K-groups (ktheory.vertex_classes_surject).  The even group is an
    extension of the kernel of the inclusion-induced map by the odd
    K-group of the graph algebra; when the graph is also weakly connected
    the index map identifies it with the limit group of the core.
    """
    props = require_regular(g)
    kt = graph_k_theory(g)
    vertex_classes_surject(g)
    B = transfer_matrix(g)
    report = {
        "K1_mapping_cone": AbelianGroup(0, ()),
        "K1_certificate": "inclusion-induced map is onto the even K-group "
                          "(verified on the vertex classes)",
        "K0_extension": {
            "kernel_of_inclusion": "classes [vec, m] with vec in im(1 - B)",
            "by_K1_of_graph_algebra": kt.k1,
        },
        "graph_K0": kt.k0,
        "graph_K1": kt.k1,
        "weakly_connected": props.weakly_connected,
    }
    if props.weakly_connected:
        desc = k0f_describe(g)
        report["index_isomorphism"] = {
            "statement": "the index pairing identifies the cone group with the "
                         "limit group of the core",
            "K0_mapping_cone": desc["closed_form"] or desc["model"],
            "transfer_matrix": desc["transfer_matrix"],
        }
        if g.n_vertices == 1:
            n = B[0, 0]
            if n >= 2:
                report["ev_image"] = f"({n - 1})Z[1/{n}]"
            elif n == 1:
                report["ev_image"] = "0"
    return report
