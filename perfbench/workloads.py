"""Workload inputs, generated from the seed, and the checks on each output.

Every command carries a check that recomputes the expected answer without
the code path the command exercises: K-group orders and ranks by
Fraction elimination on 1 - B, pairing and evaluation classes from closed
forms in the benchmark's own integer B, element equality through the
path-action oracle (`graphck.algebra.oracle_is_zero`), which never calls
`normal_form`, and element classification through the benchmark's own
action of words on paths.  graphck is imported inside the checks only, so
the runner can re-import the package during set-up.

Workloads repeat a fixed cycle of command shapes; the seed draws the
graphs and elements that fill each shape.  The cycle proportions put the
median and the 90th percentile inside a dense group of similar commands,
so those percentiles do not jump between groups from one seed to the next.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property

# The five no-source, no-sink graphs of the test corpus.
CORPUS = (
    ("o2", "vertex v\nedge a v v\nedge b v v"),
    ("o3", "vertex v\nedge a v v\nedge b v v\nedge c v v"),
    ("single_loop", "vertex v\nedge e v v"),
    ("two_vertex", "vertex v1\nvertex v2\nedge a v1 v1\nedge b v2 v2\nedge c v1 v2"),
    ("cycle3_chords", "vertex x\nvertex y\nvertex z\n"
                      "edge c1 x y\nedge c2 y z\nedge c3 z x\nedge d1 x z\nedge d2 y x"),
)


class Command:
    """One CLI invocation on the graph file of `graph`; `check(payload)`
    returns None or a rejection reason."""

    __slots__ = ("argv", "check", "graph")

    def __init__(self, argv, check, graph):
        self.argv = argv
        self.check = check
        self.graph = graph


class Workload:
    def __init__(self, name, budget_s, generate):
        self.name = name
        self.budget_s = budget_s
        self.generate = generate  # (seed, workdir) -> list of Command


class GraphSpec:
    """A graph as the benchmark knows it, independent of graphck.Graph."""

    def __init__(self, label, vertices, edges):
        self.label = label
        self.vertices = list(vertices)
        self.edges = list(edges)  # (name, source index, range index)
        n = len(self.vertices)
        self.out = [[] for _ in range(n)]
        self.inc = [[] for _ in range(n)]
        for k, (_, s, t) in enumerate(self.edges):
            self.out[s].append(k)
            self.inc[t].append(k)
        self.path = None
        self._written = False
        self._graph = None

    @cached_property
    def B(self):
        """B[i][j] = number of edges j -> i: the transpose of the vertex matrix."""
        n = len(self.vertices)
        B = [[0] * n for _ in range(n)]
        for _, s, t in self.edges:
            B[t][s] += 1
        return B

    @classmethod
    def from_text(cls, label, text):
        vertices, edges = [], []
        for line in text.splitlines():
            parts = line.split()
            if parts[0] == "vertex":
                vertices.append(parts[1])
            else:
                edges.append((parts[1], vertices.index(parts[2]), vertices.index(parts[3])))
        return cls(label, vertices, edges)

    def text(self):
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {name} {self.vertices[s]} {self.vertices[t]}"
                  for name, s, t in self.edges]
        return "\n".join(lines) + "\n"

    def place(self, workdir):
        """Fix the file path; the file is written by `write`, before the
        first command that reads it."""
        self.path = str(workdir / f"{self.label}.graph")
        return self.path

    def write(self):
        if not self._written:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(self.text())
            self._written = True

    def graph(self):
        """The same graph as a graphck.Graph, for the path-action oracle."""
        if self._graph is None:
            from graphck.graphs import Graph
            self._graph = Graph(self.vertices, [(name, self.vertices[s], self.vertices[t])
                                                for name, s, t in self.edges])
        return self._graph

    def edge_range(self, e):
        return self.edges[e][2]


def sparse_graph(label, n, graph_seed):
    """Vertex i has an edge to i+1 mod n plus two edges to random targets."""
    rng = random.Random(graph_seed)
    edges = []
    for i in range(n):
        for target in ((i + 1) % n, rng.randrange(n), rng.randrange(n)):
            edges.append((f"e{len(edges)}", i, target))
    return GraphSpec(label, [f"v{i}" for i in range(n)], edges)


def fixed_order(items):
    """The items in one pseudo-random order that does not depend on the seed,
    so a run that stops inside a round still gets a mix of its shapes."""
    items = list(items)
    random.Random(0).shuffle(items)
    return items


# -- integer and rational helpers (no graphck) ------------------------------

def apply(B, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in B]


def apply_power(B, k, vec):
    vec = list(vec)
    for _ in range(k):
        vec = apply(B, vec)
    return vec


def unit(n, i):
    return [1 if j == i else 0 for j in range(n)]


def limit_equal(B, x, y):
    """(vec, level) classes are equal in colim(Z^n, B): the aligned
    difference dies under B^n."""
    (u, a), (w, b) = x, y
    m = max(a, b)
    diff = [p - q for p, q in zip(apply_power(B, m - a, u), apply_power(B, m - b, w))]
    return not any(apply_power(B, len(B), diff))


def det_and_nullity(M):
    """Determinant and nullity of a square integer matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in M]
    n = len(m)
    det = Fraction(1)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if m[r][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return int(det), n - rank


def read_class(spec, obj):
    """A rendered limit class {"level", "vector"} as (vector list, level)."""
    return [obj["vector"][v] for v in spec.vertices], obj["level"]


# -- paths and elements --------------------------------------------------------

def forward_path(spec, rng, start, length):
    edges, at = [], start
    for _ in range(length):
        e = rng.choice(spec.out[at])
        edges.append(e)
        at = spec.edge_range(e)
    return tuple(edges), at


def backward_path(spec, rng, end, length):
    """(start vertex, edges) of a random path of the given length ending at `end`."""
    edges, at = [], end
    for _ in range(length):
        e = rng.choice(spec.inc[at])
        edges.append(e)
        at = spec.edges[e][1]
    return at, tuple(reversed(edges))


def s_word(spec, edges):
    return "*".join(f"S({spec.edges[e][0]})" for e in edges)


def word_text(spec, term):
    """S_mu S_nu* in the expression grammar; term = (mu_start, mu, nu_start, nu)."""
    mu_start, mu, _, nu = term
    text = s_word(spec, mu) if mu else f"p({spec.vertices[mu_start]})"
    return f"{text}*adj({s_word(spec, nu)})" if nu else text


def coeff_text(re, im):
    """Unsigned magnitude of a Gaussian rational, plus the sign to join with."""
    negative = re < 0 or (re == 0 and im < 0)
    if negative:
        re, im = -re, -im
    if not im:
        mag = str(re)
    elif not re:
        mag = f"{im}i"
    else:
        mag = f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"
    return ("-" if negative else "+"), mag


def element_text(spec, terms):
    """terms: {(mu_start, mu, nu_start, nu): (re, im)} with nonzero coefficients."""
    pieces = []
    for term, (re, im) in terms.items():
        sign, mag = coeff_text(re, im)
        pieces.append((sign, f"{mag} {word_text(spec, term)}"))
    sign, text = pieces[0]
    out = ("-" if sign == "-" else "") + text
    return out + "".join(f" {s} {t}" for s, t in pieces[1:])


def element(spec, terms):
    """The element as a graphck CKElement, built word by word without the parser."""
    from graphck.algebra import CKElement, GaussianRational
    from graphck.graphs import Path
    g = spec.graph()
    acc = CKElement.zero(g)
    for (mu_start, mu, nu_start, nu), (re, im) in terms.items():
        acc = acc + CKElement.word(g, Path(g, mu_start, mu), Path(g, nu_start, nu),
                                   GaussianRational(re, im))
    return acc


def random_coeff(rng):
    re = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4))
    im = Fraction(rng.choice((-2, -1, 1, 2)), rng.randrange(1, 4)) if rng.random() < 0.3 else Fraction(0)
    return re, im


def random_word(spec, rng, max_len):
    mu_start = rng.randrange(len(spec.vertices))
    mu, r = forward_path(spec, rng, mu_start, rng.randrange(max_len + 1))
    nu_start, nu = backward_path(spec, rng, r, rng.randrange(max_len + 1))
    return (mu_start, mu, nu_start, nu)


def add_term(terms, term, coeff):
    re, im = terms.get(term, (0, 0))
    re, im = re + coeff[0], im + coeff[1]
    if re or im:
        terms[term] = (re, im)
    else:
        terms.pop(term, None)


def relation_zero(spec, rng, max_terms, max_len):
    """A sum of Cuntz-Krieger relations c (S_mu S_nu* - sum_e S_(mu e) S_(nu e)*): zero."""
    terms = {}
    while True:
        mu_start, mu, nu_start, nu = random_word(spec, rng, max_len - 1)
        r = spec.edge_range(mu[-1]) if mu else mu_start
        if len(terms) + 1 + len(spec.out[r]) > max_terms:
            return terms
        c = random_coeff(rng)
        add_term(terms, (mu_start, mu, nu_start, nu), c)
        for e in spec.out[r]:
            add_term(terms, (mu_start, mu + (e,), nu_start, nu + (e,)), (-c[0], -c[1]))


def random_terms(spec, rng, count, max_len):
    terms = {}
    while len(terms) < count:
        add_term(terms, random_word(spec, rng, max_len), random_coeff(rng))
    return terms


def shuffled(terms, rng):
    items = list(terms.items())
    rng.shuffle(items)
    return dict(items)


# -- checks ------------------------------------------------------------------------

def check_k_groups(spec, k0, k1):
    det, nullity = det_and_nullity([[int(i == j) - spec.B[i][j] for j in range(len(spec.B))]
                                    for i in range(len(spec.B))])
    if k1["free_rank"] != nullity or k1["torsion"]:
        return f"K1 {k1['pretty']} but nullity of 1-B is {nullity}"
    if k0["free_rank"] != nullity:
        return f"K0 {k0['pretty']} has free rank {k0['free_rank']}, nullity is {nullity}"
    order = 1
    for d in k0["torsion"]:
        order *= d
    if nullity == 0 and order != abs(det):
        return f"K0 {k0['pretty']} has order {order} but det(1-B) = {det}"
    return None


def check_graph_ktheory(spec, payload):
    kt = payload["ktheory"]
    return check_k_groups(spec, kt["K0"], kt["K1"])


def check_cone_ktheory(spec, payload):
    report = payload["report"]
    if report["K1_mapping_cone"]["free_rank"] or report["K1_mapping_cone"]["torsion"]:
        return "odd mapping-cone group is not 0"
    if report["index_isomorphism"]["transfer_matrix"] != [[str(x) for x in row] for row in spec.B]:
        return "transfer matrix differs from B"
    return check_k_groups(spec, report["graph_K0"], report["graph_K1"])


def index_class(spec, mu_range, length):
    """Pairing of S_mu: (sum_{j<|mu|} B^j e_r(mu), level |mu|)."""
    n = len(spec.vertices)
    acc, vec = [0] * n, unit(n, mu_range)
    for _ in range(length):
        acc = [a + b for a, b in zip(acc, vec)]
        vec = apply(spec.B, vec)
    return acc, length


def ev_class(spec, mu_range, length):
    """Evaluation of S_mu: (B^|mu| e_r(mu) - e_r(mu), level |mu|)."""
    e = unit(len(spec.vertices), mu_range)
    return [a - b for a, b in zip(apply_power(spec.B, length, e), e)], length


def check_pair(spec, r, length, payload):
    if payload["agree"] is not True:
        return "routes disagree"
    expected = index_class(spec, r, length)
    for route, cls in payload["routes"].items():
        if not limit_equal(spec.B, read_class(spec, cls), expected):
            return f"{route} route differs from the closed-form index class"
    return None


def check_cone_ev(spec, r, length, payload):
    n = len(spec.vertices)
    if not limit_equal(spec.B, read_class(spec, payload["ev"]), ev_class(spec, r, length)):
        return "evaluation class differs from the closed form"
    if not limit_equal(spec.B, read_class(spec, payload["source_class"]), (unit(n, r), 0)):
        return "source class differs from [e_r, 0]"
    if not limit_equal(spec.B, read_class(spec, payload["range_class"]), (unit(n, r), length)):
        return "range class differs from [e_r, |mu|]"
    return None


def check_cone_equal(spec, left, right, payload):
    expected = []
    for side, (r, length) in (("left", left), ("right", right)):
        inv = payload[f"{side}_invariants"]
        idx = index_class(spec, r, length)
        if not limit_equal(spec.B, read_class(spec, inv["index"]), idx):
            return f"{side} index class differs from the closed form"
        if not limit_equal(spec.B, read_class(spec, inv["ev"]), ev_class(spec, r, length)):
            return f"{side} evaluation class differs from the closed form"
        expected.append(idx)
    verdict = "equal" if limit_equal(spec.B, *expected) else "unequal"
    if payload["verdict"] != verdict:
        return f"verdict {payload['verdict']}, closed forms say {verdict}"
    return None


def check_class_af(spec, r, length, payload):
    if not limit_equal(spec.B, read_class(spec, payload["class"]),
                       (unit(len(spec.vertices), r), length)):
        return "class of S_mu S_mu* differs from [e_r, |mu|]"
    if payload["group"]["transfer_matrix"] != [[str(x) for x in row] for row in spec.B]:
        return "transfer matrix differs from B"
    return None


def check_crosscheck(horizon, payload):
    if payload["horizon"] != horizon:
        return "wrong horizon echoed"
    for section, key in (("pairing_routes", "all_agree"), ("six_term", "composite_zero"),
                         ("six_term", "j_star_surjective")):
        if payload[section][key] is not True:
            return f"{section}.{key} is not true"
    return None


def check_elem_check(spec, terms, payload):
    from graphck.algebra import oracle_is_zero
    expected = oracle_is_zero(element(spec, terms))
    if payload["is_zero"] is not expected:
        return f"is_zero {payload['is_zero']}, path action says {expected}"
    return None


def paths_of_length(spec, n):
    """Every path with n edges, as (start vertex, edges), one at a time."""
    stack = [(v, ()) for v in range(len(spec.vertices))]
    while stack:
        start, edges = stack.pop()
        if len(edges) == n:
            yield start, edges
        else:
            stack.extend((start, edges + (e,))
                         for e in spec.out[spec.edge_range(edges[-1]) if edges else start])


def act(terms, vector):
    """The terms applied to a formal sum {path: coeff} of paths at least as
    long as every nu: S_mu S_nu* takes nu + rest to mu + rest."""
    out = {}
    for (start, edges), (x, y) in vector.items():
        for (mu_start, mu, nu_start, nu), (re, im) in terms.items():
            if start == nu_start and edges[:len(nu)] == nu:
                add_term(out, (mu_start, mu + edges[len(nu):]), (re * x - im * y, re * y + im * x))
    return out


def adjoint_terms(terms):
    return {(nu_start, nu, mu_start, mu): (re, -im)
            for (mu_start, mu, nu_start, nu), (re, im) in terms.items()}


def check_elem_eval(spec, terms, payload):
    """Projection and partial isometry decided on the paths of a length at
    which a, a* and a again each meet paths no shorter than their nu: then a
    product acts as the composed maps, and an element that kills every path
    of that length is 0 (the graph has no sinks)."""
    got = payload["classification"]
    degrees = sorted({len(mu) - len(nu) for _, mu, _, nu in terms})
    adj = adjoint_terms(terms)
    longest_nu = max(len(nu) for _, _, _, nu in terms)
    longest_mu = max(len(mu) for _, mu, _, _ in terms)
    is_projection = is_partial_isometry = True
    for path in paths_of_length(spec, 2 * longest_nu + longest_mu):
        rho = {path: (1, 0)}
        img = act(terms, rho)
        is_projection = is_projection and act(adj, rho) == img and act(terms, img) == img
        is_partial_isometry = is_partial_isometry and act(terms, act(adj, img)) == img
        if not (is_projection or is_partial_isometry):
            break
    expected = {
        "degrees": degrees,
        "in_core": set(degrees) <= {0},
        "homogeneous_degree": degrees[0] if len(degrees) == 1 else None,
        "is_projection": is_projection,
        "is_partial_isometry": is_partial_isometry,
    }
    for key, value in expected.items():
        if got[key] != value:
            return f"{key} {got[key]}, expected {value}"
    return None


# -- ktheory_sparse ----------------------------------------------------------------

# Sizes in one cycle.  The median falls inside the n=16 group and the 90th
# percentile inside the n=20 group.
KTHEORY_CYCLE = fixed_order([8] * 8 + [12] * 8 + [16] * 32 + [20] * 16 + [24] * 2 + [32])
KTHEORY_CYCLES = 10

# The graphs of size n that ktheory_sparse draws from: graph seeds 0 to
# KTHEORY_POOL[n] - 1, each used at most once in a run, less the seeds in
# KTHEORY_BLOWUPS[n].  On those, the Smith normal form of 1 - B blows up:
# graph-ktheory or cone-ktheory runs for longer than screen.py's cap, most
# of them for minutes.  They would fail every run that drew them, by a
# count that varies with the run's length, so the gated workloads leave
# them out and the snf_blowup workload runs them.  screen.py finds them.
KTHEORY_POOL = {8: 96, 12: 96, 16: 384, 20: 192, 24: 48, 32: 48}
KTHEORY_BLOWUPS = {8: (), 12: (), 16: (), 20: (84,), 24: (16, 24, 31, 39),
                   32: (0, 3, 8, 9, 10, 12, 13, 16, 17, 19, 28, 29, 30, 31, 32, 35, 39,
                        40, 41, 44, 46, 47)}


def pool(count, blowups):
    return [s for s in range(count) if s not in blowups]


def ktheory_sparse(seed, workdir):
    rng = random.Random(seed)
    sizes = KTHEORY_CYCLE * KTHEORY_CYCLES
    draws = {n: iter(rng.sample(pool(KTHEORY_POOL[n], KTHEORY_BLOWUPS[n]), sizes.count(n)))
             for n in KTHEORY_POOL}
    commands = []
    for i, n in enumerate(sizes):
        spec = sparse_graph(f"k{i}_n{n}", n, next(draws[n]))
        path = spec.place(workdir)
        if i % 2 == 0:
            commands.append(Command(["graph-ktheory", path],
                                    lambda p, s=spec: check_graph_ktheory(s, p), spec))
        else:
            commands.append(Command(["cone-ktheory", path],
                                    lambda p, s=spec: check_cone_ktheory(s, p), spec))
    return commands


# -- pairing_deep ------------------------------------------------------------------

# |mu| = 7 appears twice on the sparse graphs: its s16 pair and s8
# cone-equal times are nearly equal and, doubled, they hold the 90th
# percentile.  Two cheap commands (cone-ev, class-af) per expensive one put
# the median inside their dense group.
PAIRING_LENGTHS = (("c3", (5, 6, 7)), ("c5", (5, 6, 7)),
                   ("s8", (5, 6, 7, 7, 8)), ("s16", (5, 6, 7, 7, 8)))
PAIRING_KINDS = ("pair", "cone-equal", "cone-ev", "class-af", "cone-ev", "class-af")
PAIRING_ROUNDS = 8
PAIRING_SPARSE_GRAPHS = 8  # of each size


def cuntz_graph(label, k):
    return GraphSpec(label, ["v"], [("abcde"[i], 0, 0) for i in range(k)])


def pairing_command(spec, rng, kind, length):
    """`kind` on a fresh path word S_mu with |mu| = length."""
    mu, r = forward_path(spec, rng, rng.randrange(len(spec.vertices)), length)
    s_mu = s_word(spec, mu)
    if kind == "pair":
        return Command([kind, spec.path, "--", s_mu],
                       lambda p: check_pair(spec, r, length, p), spec)
    if kind == "cone-ev":
        return Command([kind, spec.path, "--", s_mu],
                       lambda p: check_cone_ev(spec, r, length, p), spec)
    if kind == "class-af":
        return Command([kind, spec.path, "--", f"{s_mu}*adj({s_mu})"],
                       lambda p: check_class_af(spec, r, length, p), spec)
    if rng.random() < 0.5:  # same range as mu: equal index classes
        r_nu = r
        _, nu = backward_path(spec, rng, r, length)
    else:
        nu, r_nu = forward_path(spec, rng, rng.randrange(len(spec.vertices)), length)
    return Command([kind, spec.path, "--", s_mu, s_word(spec, nu)],
                   lambda p: check_cone_equal(spec, (r, length), (r_nu, length), p), spec)


def pairing_deep(seed, workdir):
    rng = random.Random(seed)
    graphs = {"c3": [cuntz_graph("c3", 3)], "c5": [cuntz_graph("c5", 5)]}
    for n in (8, 16):
        graphs[f"s{n}"] = [sparse_graph(f"s{n}_{j}", n, rng.randrange(2 ** 32))
                           for j in range(PAIRING_SPARSE_GRAPHS)]
    for specs in graphs.values():
        for spec in specs:
            spec.place(workdir)
    # successive commands on one key take its graphs in turn, so a run
    # meets them all however early it stops
    turns = {key: itertools.cycle(specs) for key, specs in graphs.items()}
    shapes = fixed_order([(key, length, kind) for key, lengths in PAIRING_LENGTHS
                          for length in lengths for kind in PAIRING_KINDS])
    return [pairing_command(next(turns[key]), rng, kind, length)
            for _ in range(PAIRING_ROUNDS) for key, length, kind in shapes]


# -- crosscheck_corpus ------------------------------------------------------------

# Each round: the ten corpus crosschecks, one crosscheck at horizon 2 on a
# 4-vertex sparse graph, and 26 elem commands after each crosscheck, one in
# seven an elem-eval.  Crosschecks are under 4% of commands, so the median
# and the 90th percentile both fall inside the elem-check group; at 7% the
# 90th percentile sat where the elem-check times end and the much longer
# crosscheck times begin, and moved by 15% from one run to the next.
# Sparse crosschecks on 5 or more vertices, or at horizon 3, run for many
# seconds up to minutes; the snf_blowup workload runs them.
SPARSE_CROSSCHECK = (4, 2)  # vertices, horizon
CROSSCHECK_POOL = 64        # graph seeds 0..63, as for KTHEORY_POOL
CROSSCHECK_BLOWUPS = ()
ELEM_PER_CROSSCHECK = 26
CROSSCHECK_ROUNDS = 9


def elem_check_command(spec, rng, kind):
    if kind == 0:  # zero
        terms = relation_zero(spec, rng, rng.randrange(8, 25), 6)
    elif kind == 1:  # zero plus one word
        terms = relation_zero(spec, rng, rng.randrange(8, 24), 6)
        add_term(terms, random_word(spec, rng, 6), random_coeff(rng))
    else:
        terms = random_terms(spec, rng, rng.randrange(1, 25), 6)
    if not terms:
        terms = random_terms(spec, rng, 1, 6)
    terms = shuffled(terms, rng)
    return Command(["elem-check", spec.path, "--", element_text(spec, terms)],
                   lambda p, s=spec, t=terms: check_elem_check(s, t, p), spec)


def elem_eval_command(spec, rng, kind):
    if kind == 0:  # one word: a partial isometry
        terms = {random_word(spec, rng, 3): (Fraction(1), Fraction(0))}
    elif kind == 1:  # distinct path projections of one length: a projection
        length = rng.randrange(1, 3)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            start = rng.randrange(len(spec.vertices))
            mu, _ = forward_path(spec, rng, start, length)
            terms[(start, mu, start, mu)] = (Fraction(1), Fraction(0))
    else:
        terms = random_terms(spec, rng, rng.randrange(1, 5), 2)
    return Command(["elem-eval", spec.path, "--", element_text(spec, terms)],
                   lambda p, s=spec, t=terms: check_elem_eval(s, t, p), spec)


def crosscheck_command(spec, horizon):
    return Command(["crosscheck", spec.path, "--horizon", str(horizon)],
                   lambda p: check_crosscheck(horizon, p), spec)


def crosscheck_corpus(seed, workdir):
    rng = random.Random(seed)
    corpus = [GraphSpec.from_text(label, text) for label, text in CORPUS]
    for spec in corpus:
        spec.place(workdir)
    n, horizon = SPARSE_CROSSCHECK
    graph_seeds = rng.sample(pool(CROSSCHECK_POOL, CROSSCHECK_BLOWUPS), CROSSCHECK_ROUNDS)
    commands = []
    for rnd, graph_seed in enumerate(graph_seeds):
        sparse = sparse_graph(f"x{rnd}_n{n}", n, graph_seed)
        sparse.place(workdir)
        heavy = fixed_order([(spec, h) for spec in corpus for h in (3, 4)] + [(sparse, horizon)])
        for j, (spec, h) in enumerate(heavy):
            commands.append(crosscheck_command(spec, h))
            for k in range(ELEM_PER_CROSSCHECK):
                index = j * ELEM_PER_CROSSCHECK + k
                target = corpus[(rnd + index) % len(corpus)]
                if index % 7 == 6:
                    commands.append(elem_eval_command(target, rng, index % 3))
                else:
                    commands.append(elem_check_command(target, rng, index % 3))
    return commands


# -- snf_blowup (not in BENCHMARK.json) --------------------------------------------

# Sparse crosschecks left out of crosscheck_corpus: (vertices, horizon).
BLOWUP_CROSSCHECKS = ((4, 3), (5, 2), (6, 2))


def snf_blowup(seed, workdir):
    """The known blow-ups, each once: the screened-out K-theory graphs and
    sparse crosschecks past 4 vertices and horizon 2, on graph seeds drawn
    from `seed`.  Most commands run over the budget and count as failed."""
    rng = random.Random(seed)
    commands = []
    for n, graph_seeds in KTHEORY_BLOWUPS.items():
        for graph_seed in graph_seeds:
            spec = sparse_graph(f"b{graph_seed}_n{n}", n, graph_seed)
            spec.place(workdir)
            commands.append(Command(["graph-ktheory", spec.path],
                                    lambda p, s=spec: check_graph_ktheory(s, p), spec))
    for n, horizon in BLOWUP_CROSSCHECKS:
        for j in range(4):
            spec = sparse_graph(f"y{n}_{horizon}_{j}", n, rng.randrange(2 ** 32))
            spec.place(workdir)
            commands.append(crosscheck_command(spec, horizon))
    return commands


# Budgets are seconds at the reference machine speed (see run.py).  On the
# gated workloads the budget only guards against a hang: their slowest
# command takes under 2 s.
WORKLOADS = {w.name: w for w in (
    Workload("ktheory_sparse", 20.0, ktheory_sparse),
    Workload("pairing_deep", 20.0, pairing_deep),
    Workload("crosscheck_corpus", 20.0, crosscheck_corpus),
    Workload("snf_blowup", 2.0, snf_blowup),
)}
