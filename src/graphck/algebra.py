"""The dense *-algebra of a graph algebra: words S_mu S_nu*.

Elements are finite Gaussian-rational combinations of spanning words
S_mu S_nu* with r(mu) = r(nu).  Multiplication collapses words by the
prefix rules; the relation p_v = sum of S_e S_e* over edges leaving v
drives the level-m normal form, which makes equality decidable.  The
normal form serves equality only (is_equal, and through it classify and
the admissibility checks): the limit-group classes of afcore are read
from traces through B without expanding any word.

Equality through the normal form leans on the (standard) linear
independence of the words with min(|mu|, |nu|) equal to a common level;
the independent path-action oracle in the test-suite cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphMismatchError, SinkObstructionError
from .graphs import Graph, Path, enumerate_paths


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex rational a + b*i."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value), Fraction(0))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


class CKTerm:
    """The word S_mu S_nu*; requires r(mu) = r(nu).

    |nu| = 0 gives S_mu itself, and both lengths 0 give the vertex
    projection p_v.
    """

    __slots__ = ("mu", "nu", "_hash")

    def __init__(self, mu: Path, nu: Path):
        if mu.range != nu.range:
            raise ValueError("word needs r(mu) = r(nu)")
        self.mu = mu
        self.nu = nu
        self._hash = hash((mu, nu))

    @classmethod
    def unsafe(cls, mu: Path, nu: Path) -> "CKTerm":
        """Trusted constructor: the caller guarantees r(mu) = r(nu)."""
        self = object.__new__(cls)
        self.mu = mu
        self.nu = nu
        self._hash = hash((mu, nu))
        return self

    def __eq__(self, other):
        if not isinstance(other, CKTerm):
            return NotImplemented
        return self.mu == other.mu and self.nu == other.nu

    def __hash__(self):
        return self._hash

    @property
    def degree(self) -> int:
        return len(self.mu) - len(self.nu)

    @property
    def min_length(self) -> int:
        return min(len(self.mu), len(self.nu))

    def adjoint(self) -> "CKTerm":
        return CKTerm.unsafe(self.nu, self.mu)

    def sort_key(self):
        return (self.mu.sort_key(), self.nu.sort_key())

    def __str__(self):
        mu, nu = self.mu, self.nu
        if not mu.edges and not nu.edges:
            return f"p({mu.graph.vertices[mu.start]})"
        parts = []
        if mu.edges:
            parts.append(f"S_{mu}")
        if nu.edges:
            parts.append(f"S_{nu}*")
        return "".join(parts)


def _mul_terms(a: CKTerm, b: CKTerm):
    """(S_mu S_nu*)(S_al S_be*) collapsed by the prefix rules, or None."""
    nu, al = a.nu, b.mu
    if nu.is_prefix_of(al):
        rest = al.edges[len(nu.edges):]
        mu_ext = Path.unsafe(a.mu.graph, a.mu.start, a.mu.edges + rest, al.range)
        return CKTerm.unsafe(mu_ext, b.nu)
    if al.is_prefix_of(nu):
        rest = nu.edges[len(al.edges):]
        nu_ext = Path.unsafe(b.nu.graph, b.nu.start, b.nu.edges + rest, nu.range)
        return CKTerm.unsafe(a.mu, nu_ext)
    return None


class CKElement:
    """Finite linear combination of spanning words over a fixed graph.

    Treated as immutable: construction prunes zero coefficients and no
    method mutates `terms` afterwards.
    """

    __slots__ = ("graph", "terms")

    def __init__(self, graph: Graph, terms=None):
        self.graph = graph
        clean = {}
        if terms:
            for term, coeff in terms.items():
                coeff = GaussianRational.of(coeff)
                if not coeff.is_zero():
                    clean[term] = coeff
        self.terms = clean

    # constructors

    @staticmethod
    def zero(graph: Graph) -> "CKElement":
        return CKElement(graph)

    @staticmethod
    def vertex_projection(graph: Graph, vertex) -> "CKElement":
        if isinstance(vertex, str):
            vertex = graph.vertex_index[vertex]
        p = Path(graph, vertex, ())
        return CKElement(graph, {CKTerm(p, p): GR_ONE})

    @staticmethod
    def edge_isometry(graph: Graph, edge) -> "CKElement":
        if isinstance(edge, str):
            edge = graph.edge_index[edge]
        mu = Path(graph, graph.edge_source[edge], (edge,))
        nu = Path(graph, mu.range, ())
        return CKElement(graph, {CKTerm(mu, nu): GR_ONE})

    @staticmethod
    def path_isometry(graph: Graph, path: Path) -> "CKElement":
        nu = Path(graph, path.range, ())
        return CKElement(graph, {CKTerm(path, nu): GR_ONE})

    @staticmethod
    def path_projection(graph: Graph, path: Path) -> "CKElement":
        """p_mu = S_mu S_mu*."""
        return CKElement(graph, {CKTerm(path, path): GR_ONE})

    @staticmethod
    def word(graph: Graph, mu: Path, nu: Path, coeff=1) -> "CKElement":
        return CKElement(graph, {CKTerm(mu, nu): GaussianRational.of(coeff)})

    @staticmethod
    def unit(graph: Graph) -> "CKElement":
        """The identity, sum of all vertex projections."""
        terms = {}
        for v in range(graph.n_vertices):
            p = Path(graph, v, ())
            terms[CKTerm(p, p)] = GR_ONE
        return CKElement(graph, terms)

    # algebra structure

    def _require_same_graph(self, other: "CKElement"):
        if self.graph is not other.graph:
            raise GraphMismatchError("elements live over different graphs")

    def __add__(self, other: "CKElement") -> "CKElement":
        self._require_same_graph(other)
        acc = dict(self.terms)
        for term, coeff in other.terms.items():
            acc[term] = acc.get(term, GR_ZERO) + coeff
        return CKElement(self.graph, acc)

    def __sub__(self, other: "CKElement") -> "CKElement":
        self._require_same_graph(other)
        acc = dict(self.terms)
        for term, coeff in other.terms.items():
            acc[term] = acc.get(term, GR_ZERO) - coeff
        return CKElement(self.graph, acc)

    def __neg__(self) -> "CKElement":
        return CKElement(self.graph, {t: -c for t, c in self.terms.items()})

    def scale(self, coeff) -> "CKElement":
        coeff = GaussianRational.of(coeff)
        return CKElement(self.graph, {t: c * coeff for t, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, CKElement):
            return self.scale(other)
        self._require_same_graph(other)
        acc = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = _mul_terms(t1, t2)
                if t is not None:
                    acc[t] = acc.get(t, GR_ZERO) + c1 * c2
        return CKElement(self.graph, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def adjoint(self) -> "CKElement":
        return CKElement(self.graph,
                         {t.adjoint(): c.conj() for t, c in self.terms.items()})

    def is_raw_zero(self) -> bool:
        """No stored terms (sufficient but not necessary for equality to 0)."""
        return not self.terms

    def degrees(self) -> set:
        return {t.degree for t in self.terms}

    def gauge_component(self, k: int) -> "CKElement":
        return CKElement(self.graph,
                         {t: c for t, c in self.terms.items() if t.degree == k})

    def expectation(self) -> "CKElement":
        """Degree-0 part; the conditional expectation onto the core."""
        return self.gauge_component(0)

    def grade_commutator(self) -> "CKElement":
        """[D, a] for the degree operator D: multiplies each word by its degree."""
        return CKElement(self.graph,
                         {t: c * GaussianRational.of(t.degree)
                          for t, c in self.terms.items()})

    def min_level(self) -> int:
        """Largest min(|mu|, |nu|) over the stored terms (0 when empty)."""
        return max((t.min_length for t in self.terms), default=0)

    def normal_form(self, m: int) -> "CKElement":
        """Rewrite so every word has min(|mu|, |nu|) = m.

        Each word is expanded by all common tails lam of length
        m - min(|mu|, |nu|): S_mu S_nu* = sum over lam of
        S_(mu lam) S_(nu lam)*.  Value preserving; raises
        SinkObstructionError when a tail hits a vertex with no
        outgoing edges.
        """
        g = self.graph
        acc = {}
        for term, coeff in self.terms.items():
            depth = m - term.min_length
            if depth < 0:
                raise ValueError("normal form level below a term's min length")
            frontier = [(term.mu.edges, term.nu.edges, term.mu.range)]
            for _ in range(depth):
                new = []
                for mu_e, nu_e, at in frontier:
                    out = g.out_edges[at]
                    if not out:
                        raise SinkObstructionError(g.vertices[at])
                    for e in out:
                        new.append((mu_e + (e,), nu_e + (e,), g.edge_range[e]))
                frontier = new
            mu_start, nu_start = term.mu.start, term.nu.start
            for mu_e, nu_e, at in frontier:
                t = CKTerm.unsafe(Path.unsafe(g, mu_start, mu_e, at),
                                  Path.unsafe(g, nu_start, nu_e, at))
                prev = acc.get(t)
                acc[t] = coeff if prev is None else prev + coeff
        return CKElement(g, acc)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda tc: tc[0].sort_key())

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"{c}*{t}" for t, c in self.sorted_terms()]
        return "<" + " + ".join(bits) + ">"


# spec-level operation names

def multiply(a: CKElement, b: CKElement) -> CKElement:
    return a * b


def adjoint(a: CKElement) -> CKElement:
    return a.adjoint()


def linear_combine(pairs) -> CKElement:
    """Exact linear combination of (coefficient, element) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (coefficient, element) pair")
    graph = pairs[0][1].graph
    acc = {}
    for coeff, elem in pairs:
        if elem.graph is not graph:
            raise GraphMismatchError("elements live over different graphs")
        coeff = GaussianRational.of(coeff)
        for term, c in elem.terms.items():
            acc[term] = acc.get(term, GR_ZERO) + coeff * c
    return CKElement(graph, acc)


def gauge_component(a: CKElement, k: int) -> CKElement:
    return a.gauge_component(k)


def expectation(a: CKElement) -> CKElement:
    return a.expectation()


def grade_commutator(a: CKElement) -> CKElement:
    return a.grade_commutator()


def normal_form(a: CKElement, m: int) -> CKElement:
    return a.normal_form(m)


def is_equal(a: CKElement, b: CKElement) -> bool:
    """Decide a = b by expanding a - b at the common level."""
    if a.graph is not b.graph:
        raise GraphMismatchError("elements live over different graphs")
    diff = a - b
    if not diff.terms:
        return True
    return not diff.normal_form(diff.min_level()).terms


def is_zero(a: CKElement) -> bool:
    return is_equal(a, CKElement.zero(a.graph))


@dataclass(frozen=True)
class ElementClassification:
    is_projection: bool
    is_partial_isometry: bool
    in_F: bool
    degrees: frozenset
    homogeneous_degree: object  # int or None


def classify(a: CKElement) -> ElementClassification:
    """Projection / partial isometry / core membership / gauge degrees."""
    degrees = frozenset(a.degrees())
    in_f = degrees <= {0}
    adj = a.adjoint()
    is_proj = is_equal(a, adj) and is_equal(a * a, a)
    is_pisom = is_equal(a * adj * a, a)
    homo = next(iter(degrees)) if len(degrees) == 1 else None
    return ElementClassification(is_proj, is_pisom, in_f, degrees, homo)


# independent equality oracle

def path_action(a: CKElement, n=None) -> dict:
    """Left action of `a` on the length-n paths, as formal path sums.

    For n at least the longest |nu| in `a`, each S_mu S_nu* maps a path
    rho to the path mu followed by rho minus its nu prefix (or kills it),
    so the result is a combination of plain paths.  Returns
    {rho: {image path: coefficient}} with zero images dropped.
    """
    if n is None:
        n = max((len(t.nu) for t in a.terms), default=0)
    out = {}
    for rho in enumerate_paths(a.graph, n):
        acc = {}
        for term, coeff in a.terms.items():
            if term.nu.is_prefix_of(rho):
                img = Path(a.graph, term.mu.start,
                           term.mu.edges + rho.edges[len(term.nu.edges):])
                acc[img] = acc.get(img, GR_ZERO) + coeff
        acc = {p: c for p, c in acc.items() if not c.is_zero()}
        if acc:
            out[rho] = acc
    return out


def oracle_is_zero(a: CKElement) -> bool:
    """Equality-with-zero test that bypasses the normal form.

    Sound on graphs without sinks: if the action on all paths of length
    max |nu| vanishes, then a annihilates the identity written as the sum
    of all length-n path projections, so a = 0.
    """
    return not path_action(a)
