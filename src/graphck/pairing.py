"""The index pairing against the gauge module, by three routes.

For a partial isometry v of pure gauge degree d with range projection
q_r = v v* and source projection q_s = v* v (both in the core), left
multiplication intertwines the spectral projections of the degree
operator: Phi_k v = v Phi_(k-d).  Every route below reduces through that
identity to a finite window of graded classes [q Phi_j] and is then
evaluated in the limit group:

  odd route        ker/coker of the compression of v* to the nonnegative
                   part: window +[q_r Phi_j], j in [0, d) for d > 0, and
                   -[q_s Phi_j], j in [0, -d) for d < 0;
  half-line route  kernel  +[q_s Phi_j], j in [1-d, 0)
                   minus the three adjoint-kernel summands
                   [q_s Phi_j] over [0, -d), [q_s Phi_(-d)] when d <= 0,
                   and [(1 - q_r) Phi_0],
                   minus the cylinder index -[Phi_0];
  two-term route   +[q_s Phi_j] over [-d, 0) minus [q_s Phi_j] over [0, -d).

The three must agree on every admissible input; the orientation (which of
the two compressions is called the pairing) is fixed once by the rank-one
closed form on the single-vertex graphs and printed in every report.

Inhomogeneous inputs are handled through admissibility: homogeneous
components with pairwise orthogonal ranges and sources split the class
into a sum of homogeneous ones, and blocks of a formal diagonal direct
sum add.
"""

from __future__ import annotations

from dataclasses import dataclass

from .afcore import (GradedProjection, K0FClass, class_of_projection,
                     k0f_combine, k0f_equal)
from .algebra import CKElement, is_equal, is_zero
from .errors import AdmissibilityError, InternalInvariantError
from .graphs import Graph, enumerate_paths, require_regular

ORIENTATION_NOTE = ("pairing = Index of the compressed adjoint isometry "
                    "(positive on path isometries); fixed by the single-vertex closed form")


def _homogeneous_parts(v: CKElement):
    """Nonzero gauge components of v as a sorted list of (degree, part)."""
    return [(d, v.gauge_component(d)) for d in sorted(v.degrees())]


def check_admissible(blocks) -> list:
    """Diagnostics for the admissibility of a formal diagonal direct sum.

    Each block must be a partial isometry whose homogeneous components are
    pairwise orthogonal (v_d v_e* = 0 = v_d* v_e for d != e); the source
    and range projections of every component then land in the core
    automatically.  Empty list means admissible.
    """
    diagnostics = []
    for idx, v in enumerate(blocks):
        tag = f"block {idx}"
        if not is_equal(v * v.adjoint() * v, v):
            diagnostics.append(f"{tag}: not a partial isometry (v v* v != v)")
        parts = _homogeneous_parts(v)
        for i, (d, vd) in enumerate(parts):
            for e, ve in parts[i + 1:]:
                if not is_zero(vd * ve.adjoint()):
                    diagnostics.append(
                        f"{tag}: components of degrees {d} and {e} have "
                        "non-orthogonal ranges (v_d v_e* != 0)")
                if not is_zero(vd.adjoint() * ve):
                    diagnostics.append(
                        f"{tag}: components of degrees {d} and {e} have "
                        "non-orthogonal sources (v_d* v_e != 0)")
        for d, vd in parts:
            if (vd.adjoint() * vd).degrees() - {0}:
                diagnostics.append(f"{tag}: source projection of degree-{d} part not in the core")
            if (vd * vd.adjoint()).degrees() - {0}:
                diagnostics.append(f"{tag}: range projection of degree-{d} part not in the core")
    return diagnostics


@dataclass(frozen=True)
class AdmissibleIsometry:
    """Formal diagonal direct sum of admissible partial isometries."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise AdmissibilityError(["empty direct sum"])
        g = self.blocks[0].graph
        for b in self.blocks:
            if b.graph is not g:
                raise AdmissibilityError(["blocks live over different graphs"])
        diagnostics = check_admissible(self.blocks)
        if diagnostics:
            raise AdmissibilityError(diagnostics)

    @staticmethod
    def of(element: CKElement) -> "AdmissibleIsometry":
        return AdmissibleIsometry((element,))

    @property
    def graph(self) -> Graph:
        return self.blocks[0].graph

    def components(self):
        """All (degree, homogeneous part) pairs across the blocks."""
        out = []
        for b in self.blocks:
            out.extend(_homogeneous_parts(b))
        return out

    def direct_sum(self, other: "AdmissibleIsometry") -> "AdmissibleIsometry":
        return AdmissibleIsometry(self.blocks + other.blocks)

    def adjoint(self) -> "AdmissibleIsometry":
        return AdmissibleIsometry(tuple(b.adjoint() for b in self.blocks))


# Sign of each half-line summand in the route value: the kernel, minus the
# three adjoint kernels, minus the cylinder index.
_APS_SIGNS = {"kernel": 1, "adjoint_ordinary": -1, "adjoint_extended": -1,
              "adjoint_trivial": -1, "index_cylinder": -1}


def _route_windows(g: Graph, d: int, q_s: CKElement, q_r: CKElement) -> dict:
    """Signed windows (sign, GradedProjection) of the three routes for one
    component of degree d: odd, the five half-line summands, simplified.

    Each route is built from (d, q_s, q_r) alone, never from another
    route's windows: the agreement of the routes is the cross-check.
    """
    one = CKElement.unit(g)
    if d > 0:
        odd = [(1, GradedProjection(q_r, j)) for j in range(0, d)]
    else:
        odd = [(-1, GradedProjection(q_s, j)) for j in range(0, -d)]
    aps = {"kernel": [(1, GradedProjection(q_s, j)) for j in range(1 - d, 0)],
           "adjoint_ordinary": [(1, GradedProjection(q_s, j)) for j in range(0, -d)],
           "adjoint_extended": [(1, GradedProjection(q_s, -d))] if d <= 0 else [],
           "adjoint_trivial": [(1, GradedProjection(one - q_r, 0))],
           "index_cylinder": [(-1, GradedProjection(one, 0))]}
    simplified = ([(1, GradedProjection(q_s, j)) for j in range(-d, 0)]
                  + [(-1, GradedProjection(q_s, j)) for j in range(0, -d)])
    return {"odd": odd, "aps": aps, "simplified": simplified}


def windows_to_class(g: Graph, windows, check: bool = True) -> K0FClass:
    """The class of a signed window list: the sum of sign * [q Phi_k]."""
    return k0f_combine(g, [(sign, class_of_projection(w.q, w.k, check=check))
                           for sign, w in windows])


@dataclass(frozen=True)
class PairingReport:
    odd_route: K0FClass
    aps_route: K0FClass
    simplified_route: K0FClass
    agree: bool
    per_route_breakdown: dict
    orientation: str = ORIENTATION_NOTE

    @property
    def routes(self) -> dict:
        return {"odd": self.odd_route, "aps": self.aps_route,
                "simplified": self.simplified_route}

    @property
    def value(self) -> K0FClass:
        if not self.agree:
            raise InternalInvariantError("pairing routes disagree; no canonical value")
        return self.odd_route


def pairing(v) -> PairingReport:
    """All three routes, summed over blocks and homogeneous components.

    Admissibility (checked at construction) certifies every component as a
    partial isometry, so the window projections are projections in the
    core by construction and are evaluated without re-verification.
    """
    if isinstance(v, CKElement):
        v = AdmissibleIsometry.of(v)
    g = v.graph
    require_regular(g)
    breakdown = {"odd": [], "aps": {key: [] for key in _APS_SIGNS}, "simplified": []}
    for d, part in v.components():
        table = _route_windows(g, d, part.adjoint() * part, part * part.adjoint())
        breakdown["odd"] += table["odd"]
        breakdown["simplified"] += table["simplified"]
        for key, windows in table["aps"].items():
            breakdown["aps"][key] += windows
    aps_windows = [(sign * s, w) for key, sign in _APS_SIGNS.items()
                   for s, w in breakdown["aps"][key]]
    odd = windows_to_class(g, breakdown["odd"], check=False)
    aps = windows_to_class(g, aps_windows, check=False)
    simp = windows_to_class(g, breakdown["simplified"], check=False)
    agree = k0f_equal(odd, aps) and k0f_equal(odd, simp)
    return PairingReport(odd, aps, simp, agree, breakdown)


def pairing_value(v) -> K0FClass:
    return pairing(v).value


def crosscheck_generators(g: Graph, horizon: int):
    """The generator families used by the route crosscheck, with labels."""
    gens = []
    for n in range(1, horizon + 1):
        for mu in enumerate_paths(g, n):
            gens.append((f"S[{mu}]", CKElement.path_isometry(g, mu), None))
    for e in range(g.n_edges):
        for n in range(1, horizon + 1):
            for alpha in enumerate_paths(g, n):
                if alpha.source != g.edge_range[e]:
                    continue
                elem = CKElement.edge_isometry(g, e) * CKElement.path_projection(g, alpha)
                gens.append((f"S({g.edge_names[e]})P[{alpha}]", elem, None))
    for n in range(1, horizon + 1):
        for mu in enumerate_paths(g, n):
            vbar = CKElement.word(g, mu, mu.shift(1))
            gens.append((f"S[{mu}]S[{mu.shift(1)}]*", vbar, mu))
    return gens


def pairing_crosscheck(g: Graph, horizon: int = 4) -> dict:
    """Three-route agreement on every generator up to the horizon.

    Also checks that the pairing of S_mu S_(sigma mu)* is the class of the
    path projection p_mu, the surjectivity mechanism of the index map.
    """
    require_regular(g)
    checked = 0
    failures = []
    for label, elem, mu in crosscheck_generators(g, horizon):
        rep = pairing(AdmissibleIsometry.of(elem))
        checked += 1
        if not rep.agree:
            failures.append({
                "generator": label,
                "odd": rep.odd_route,
                "aps": rep.aps_route,
                "simplified": rep.simplified_route,
            })
            continue
        if mu is not None:
            expected = class_of_projection(CKElement.path_projection(g, mu))
            if not k0f_equal(rep.value, expected):
                failures.append({"generator": label,
                                 "odd": rep.odd_route,
                                 "expected_projection_class": expected})
    return {"horizon": horizon, "generators_checked": checked,
            "all_agree": not failures, "failures": failures,
            "orientation": ORIENTATION_NOTE}
