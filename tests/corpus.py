"""Shared test graphs, random element generators, and brute-force oracles.

The oracles here deliberately avoid the library's own machinery wherever
they certify it: coset counting goes through fundamental-domain point
enumeration, path counts through dictionary walks, and element equality
through the path-action picture.
"""

from fractions import Fraction

from graphck.algebra import GR_ZERO, CKElement, GaussianRational
from graphck.graphs import Graph, Path, parse_graph

O2_TEXT = "vertex v\nedge a v v\nedge b v v"
O3_TEXT = "vertex v\nedge a v v\nedge b v v\nedge c v v"
LOOP_TEXT = "vertex v\nedge e v v"
TWO_VERTEX_TEXT = "vertex v1\nvertex v2\nedge a v1 v1\nedge b v2 v2\nedge c v1 v2"
CYCLE3_TEXT = ("vertex x\nvertex y\nvertex z\n"
               "edge c1 x y\nedge c2 y z\nedge c3 z x\nedge d1 x z\nedge d2 y x")
SINK_TEXT = "vertex v\nvertex w\nedge e v w"
DISCONNECTED_TEXT = ("vertex v1\nvertex v2\n"
                     "edge a1 v1 v1\nedge b1 v1 v1\nedge a2 v2 v2\nedge b2 v2 v2")
# regular with det B = 0: ker B has rank 1 and ker B^3 rank 2
SINGULAR_B_TEXT = ("vertex u\nvertex v\nvertex w\n"
                   "edge a u u\nedge b w w\nedge c u w\nedge d u v\nedge e w v\nedge f v u")


def cuntz(n: int) -> Graph:
    """Single vertex with n loops."""
    names = "abcdefgh"
    edges = "\n".join(f"edge {names[i]} v v" for i in range(n))
    return parse_graph(f"vertex v\n{edges}")


def o2():
    return parse_graph(O2_TEXT)


def o3():
    return parse_graph(O3_TEXT)


def single_loop():
    return parse_graph(LOOP_TEXT)


def two_vertex():
    return parse_graph(TWO_VERTEX_TEXT)


def cycle3_chords():
    return parse_graph(CYCLE3_TEXT)


def disconnected_pair():
    return parse_graph(DISCONNECTED_TEXT)


def singular_b():
    return parse_graph(SINGULAR_B_TEXT)


def regular_corpus():
    """The no-source/no-sink graphs the acceptance suite runs over."""
    return [("o2", o2()), ("o3", o3()), ("single_loop", single_loop()),
            ("two_vertex", two_vertex()), ("cycle3_chords", cycle3_chords())]


# random generators (seeded rng passed in; all draws exact)

def random_forward_path(g: Graph, rng, max_len: int) -> Path:
    length = rng.randrange(max_len + 1)
    start = rng.randrange(g.n_vertices)
    edges = []
    at = start
    for _ in range(length):
        out = g.out_edges[at]
        if not out:
            break
        e = out[rng.randrange(len(out))]
        edges.append(e)
        at = g.edge_range[e]
    return Path(g, start, tuple(edges))


def random_backward_path(g: Graph, rng, end: int, max_len: int) -> Path:
    length = rng.randrange(max_len + 1)
    edges = []
    at = end
    for _ in range(length):
        incoming = g.in_edges[at]
        if not incoming:
            break
        e = incoming[rng.randrange(len(incoming))]
        edges.append(e)
        at = g.edge_source[e]
    edges.reverse()
    return Path(g, at, tuple(edges))


def random_coeff(rng, complex_parts=True) -> GaussianRational:
    def rat():
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
    im = rat() if complex_parts and rng.random() < 0.4 else Fraction(0)
    return GaussianRational(rat(), im)


def random_element(g: Graph, rng, max_terms=3, max_len=3) -> CKElement:
    """Random element with word sides of length at most max_len."""
    acc = CKElement.zero(g)
    for _ in range(rng.randrange(max_terms + 1)):
        mu = random_forward_path(g, rng, max_len)
        nu = random_backward_path(g, rng, mu.range, max_len)
        acc = acc + CKElement.word(g, mu, nu, random_coeff(rng))
    return acc


# brute-force oracles

def count_paths_bruteforce(g: Graph, n: int, end=None) -> int:
    """Count length-n paths by a dictionary walk (no matrix arithmetic)."""
    counts = {v: 1 for v in range(g.n_vertices)}  # by current endpoint
    for _ in range(n):
        nxt = {v: 0 for v in range(g.n_vertices)}
        for v, c in counts.items():
            for e in g.out_edges[v]:
                nxt[g.edge_range[e]] += c
        counts = nxt
    if end is None:
        return sum(counts.values())
    return counts[end]


def block_trace_by_expansion(q: CKElement, m: int) -> tuple:
    """Per-vertex trace of q at level m by word expansion: write q in
    words of length m (normal_form) and sum the diagonal coefficients per
    range vertex.  Gaussian-rational entries; the reference for the trace
    rule of afcore, which expands no word."""
    sums = [GR_ZERO] * q.graph.n_vertices
    for term, coeff in q.normal_form(m).terms.items():
        if term.mu == term.nu:
            sums[term.mu.range] += coeff
    return tuple(sums)


def fundamental_domain_order(matrix_rows) -> int:
    """Number of integer points of M[0,1)^k: the index of im(M) in Z^k.

    Independent of the Smith machinery: inverts M over the rationals and
    scans the bounding box of the parallelepiped.
    """
    k = len(matrix_rows)
    cols = [[Fraction(matrix_rows[i][j]) for i in range(k)] for j in range(k)]
    # invert via Gauss-Jordan over fractions
    aug = [[Fraction(matrix_rows[i][j]) for j in range(k)] + [Fraction(int(i == j)) for j in range(k)]
           for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            return 0  # singular: infinite quotient
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    minv = [row[k:] for row in aug]
    # bounding box of the parallelepiped spanned by the columns of M
    lows, highs = [], []
    for i in range(k):
        lo = sum(min(0, cols[j][i]) for j in range(k))
        hi = sum(max(0, cols[j][i]) for j in range(k))
        lows.append(int(lo) - 1)
        highs.append(int(hi) + 1)
    count = 0
    point = lows[:]

    def in_domain(z):
        for i in range(k):
            c = sum(minv[i][j] * z[j] for j in range(k))
            if c < 0 or c >= 1:
                return False
        return True

    # odometer scan over the box
    while True:
        if in_domain(point):
            count += 1
        idx = 0
        while idx < k:
            point[idx] += 1
            if point[idx] <= highs[idx]:
                break
            point[idx] = lows[idx]
            idx += 1
        if idx == k:
            break
    return count
