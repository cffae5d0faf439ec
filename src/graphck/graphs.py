"""Finite directed graphs: parsing, validation, paths, vertex matrices.

Vertices and edges keep their declaration order, which fixes the row and
column order of every matrix and vector downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import GraphSyntaxError, HypothesisError
from .intmat import IntMatrix

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _declare(index: dict, name: str, kind: str) -> None:
    """Give name the next position in index; GraphSyntaxError on a bad or
    repeated identifier."""
    if not _IDENT.match(name):
        raise GraphSyntaxError(f"bad {kind} identifier {name!r}")
    if name in index:
        raise GraphSyntaxError(f"duplicate {kind} {name!r}")
    index[name] = len(index)


def _declared_vertex(vertex_index: dict, name: str) -> int:
    if name not in vertex_index:
        raise GraphSyntaxError(f"undeclared vertex {name!r}")
    return vertex_index[name]


class Graph:
    """Immutable finite directed graph with named vertices and edges."""

    def __init__(self, vertices, edges):
        """vertices: iterable of ids; edges: iterable of (id, source, range)."""
        self.vertices = tuple(vertices)
        self.vertex_index = {}
        for name in self.vertices:
            _declare(self.vertex_index, name, "vertex")

        self.edge_names = []
        self.edge_source = []
        self.edge_range = []
        self.edge_index = {}
        for name, src, rng in edges:
            _declare(self.edge_index, name, "edge")
            self.edge_names.append(name)
            self.edge_source.append(_declared_vertex(self.vertex_index, src))
            self.edge_range.append(_declared_vertex(self.vertex_index, rng))
        self.edge_names = tuple(self.edge_names)
        self.edge_source = tuple(self.edge_source)
        self.edge_range = tuple(self.edge_range)

        self.out_edges = tuple(
            tuple(e for e in range(len(self.edge_names)) if self.edge_source[e] == v)
            for v in range(len(self.vertices)))
        self.in_edges = tuple(
            tuple(e for e in range(len(self.edge_names)) if self.edge_range[e] == v)
            for v in range(len(self.vertices)))
        self._vertex_matrix = None
        self._transfer_matrix = None
        self._presentation_matrix = None
        self._props = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_names)

    def vertex(self, name: str) -> int:
        return self.vertex_index[name]

    def edge(self, name: str) -> int:
        return self.edge_index[name]

    def vertex_path(self, name: str) -> "Path":
        return Path(self, self.vertex_index[name], ())

    def path(self, *edge_names: str) -> "Path":
        """Path from a sequence of edge names (must be composable)."""
        edges = tuple(self.edge_index[n] for n in edge_names)
        if not edges:
            raise ValueError("need at least one edge; use vertex_path for length 0")
        return Path(self, self.edge_source[edges[0]], edges)

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edge_names)} edges)"


class Path:
    """Finite path: a composable edge sequence, or a single vertex (length 0).

    Immutable and hashable; equality ignores the ambient graph object.
    """

    __slots__ = ("graph", "start", "edges", "_range", "_hash")

    def __init__(self, graph: Graph, start: int, edges: tuple):
        edges = tuple(edges)
        if not 0 <= start < graph.n_vertices:
            raise ValueError("start vertex out of range")
        at = start
        for e in edges:
            if graph.edge_source[e] != at:
                raise ValueError("edges are not composable")
            at = graph.edge_range[e]
        self.graph = graph
        self.start = start
        self.edges = edges
        self._range = at
        self._hash = hash((start, edges))

    @classmethod
    def unsafe(cls, graph: Graph, start: int, edges: tuple, range_: int) -> "Path":
        """Trusted constructor: the caller guarantees composability."""
        self = object.__new__(cls)
        self.graph = graph
        self.start = start
        self.edges = edges
        self._range = range_
        self._hash = hash((start, edges))
        return self

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.start == other.start and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.edges)

    @property
    def source(self) -> int:
        return self.start

    @property
    def range(self) -> int:
        return self._range

    def concat(self, other: "Path") -> "Path":
        if other.start != self.range:
            raise ValueError("paths are not composable")
        return Path(self.graph, self.start, self.edges + other.edges)

    def extend(self, edge: int) -> "Path":
        return Path(self.graph, self.start, self.edges + (edge,))

    def shift(self, k: int) -> "Path":
        """Drop the first k edges."""
        if not 0 <= k <= len(self.edges):
            raise ValueError("shift out of range")
        if k == 0:
            return self
        start = self.graph.edge_range[self.edges[k - 1]]
        return Path(self.graph, start, self.edges[k:])

    def prefix(self, k: int) -> "Path":
        """Keep the first k edges."""
        if not 0 <= k <= len(self.edges):
            raise ValueError("prefix out of range")
        return Path(self.graph, self.start, self.edges[:k])

    def is_prefix_of(self, other: "Path") -> bool:
        return (self.start == other.start
                and len(self.edges) <= len(other.edges)
                and other.edges[:len(self.edges)] == self.edges)

    def sort_key(self):
        return (len(self.edges), self.start, self.edges)

    def __str__(self):
        g = self.graph
        if not self.edges:
            return f"({g.vertices[self.start]})"
        return "".join(g.edge_names[e] for e in self.edges)

    def __repr__(self):
        return f"Path({self})"


@dataclass(frozen=True)
class GraphProperties:
    no_sources: bool
    no_sinks: bool
    weakly_connected: bool


def parse_graph(text: str) -> Graph:
    """Parse the one-declaration-per-line graph format.

    Lines are `vertex <id>`, `edge <id> <source> <range>`, or comments
    starting with `#`; blank lines are ignored.
    """
    vertex_index, edge_index = {}, {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "vertex" and len(parts) == 2:
                _declare(vertex_index, parts[1], "vertex")
            elif parts[0] == "edge" and len(parts) == 4:
                # the file is read in order, so an edge may only name
                # vertices declared on earlier lines
                _declare(edge_index, parts[1], "edge")
                _declared_vertex(vertex_index, parts[2])
                _declared_vertex(vertex_index, parts[3])
                edges.append(parts[1:])
            else:
                raise GraphSyntaxError(f"unrecognised declaration {line!r}")
        except GraphSyntaxError as err:
            raise GraphSyntaxError(str(err), line=lineno) from None
    return Graph(list(vertex_index), edges)


def validate_graph(g: Graph) -> GraphProperties:
    """Compute the source/sink/connectivity flags."""
    if g._props is not None:
        return g._props
    no_sources = all(g.in_edges[v] for v in range(g.n_vertices))
    no_sinks = all(g.out_edges[v] for v in range(g.n_vertices))
    # weak connectivity: union-find over undirected edges
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in range(g.n_edges):
        a, b = find(g.edge_source[e]), find(g.edge_range[e])
        if a != b:
            parent[a] = b
    components = {find(v) for v in range(g.n_vertices)}
    weakly_connected = len(components) <= 1
    g._props = GraphProperties(no_sources, no_sinks, weakly_connected)
    return g._props


def require_regular(g: Graph) -> GraphProperties:
    """The flags of g; HypothesisError naming the first sink, else the first
    source, since K-theory, limit classes and the pairing need neither."""
    props = validate_graph(g)
    for ok, kind, edges in ((props.no_sinks, "sink", g.out_edges),
                            (props.no_sources, "source", g.in_edges)):
        if not ok:
            v = next(v for v in range(g.n_vertices) if not edges[v])
            raise HypothesisError(f"graph has a {kind} at vertex {g.vertices[v]!r}; "
                                  "this needs a graph with no sinks and no sources")
    return props


def enumerate_paths(g: Graph, n: int, end_at=None) -> list:
    """All paths of length exactly n, lexicographic in the edge sequence.

    `end_at` (a vertex name or index) keeps only paths with that range.
    """
    if n < 0:
        raise ValueError("path length must be nonnegative")
    if isinstance(end_at, str):
        end_at = g.vertex_index[end_at]
    if n == 0:
        paths = [Path(g, v, ()) for v in range(g.n_vertices)]
    else:
        frontier = [(g.edge_source[e], (e,)) for e in range(g.n_edges)]
        for _ in range(n - 1):
            frontier = [(start, edges + (e,))
                        for start, edges in frontier
                        for e in g.out_edges[g.edge_range[edges[-1]]]]
            frontier.sort(key=lambda se: se[1])
        paths = [Path(g, start, edges) for start, edges in frontier]
    if end_at is not None:
        paths = [p for p in paths if p.range == end_at]
    return paths


def vertex_matrix(g: Graph) -> IntMatrix:
    """A with A[v][w] = number of edges from v to w, in declaration order."""
    if g._vertex_matrix is None:
        rows = [[0] * g.n_vertices for _ in range(g.n_vertices)]
        for e in range(g.n_edges):
            rows[g.edge_source[e]][g.edge_range[e]] += 1
        g._vertex_matrix = IntMatrix.from_rows(rows)
    return g._vertex_matrix


def transfer_matrix(g: Graph) -> IntMatrix:
    """Transpose of the vertex matrix; the connecting map of the AF tower."""
    if g._transfer_matrix is None:
        g._transfer_matrix = vertex_matrix(g).transpose()
    return g._transfer_matrix


def presentation_matrix(g: Graph) -> IntMatrix:
    """1 - B acting on integer column vectors indexed by the vertices.

    One object per graph, so every K-theory query on the graph shares its
    Smith normal form.
    """
    if g._presentation_matrix is None:
        g._presentation_matrix = IntMatrix.identity(g.n_vertices) - transfer_matrix(g)
    return g._presentation_matrix
