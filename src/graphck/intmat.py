"""Exact integer linear algebra.

Everything here works over arbitrary-precision Python ints; no floats
anywhere.  The central tool is the Smith normal form with unimodular
transforms tracked, from which cokernel presentations, ranks and coset
coordinates are read off.  Membership in the stabilized kernel of a
square B (the union of the kernels of its powers) needs no factorisation:
it is decided by applying B as many times as its size.

A matrix is factored at most once: the first query on an IntMatrix
computes its Smith normal form and keeps it on that object, and every
later query on the same object (cokernel, rank, coset, or
smith_normal_form itself) reuses it.  The invariant checks (det U and
det V are units, U*M*V = D, the diagonal forms a divisibility chain) run
once per factorisation.  Nothing is cached by matrix contents or at
module level, so a factorisation lives exactly as long as its matrix.

Pivoting is deterministic (smallest absolute nonzero entry, ties broken
row-major) so that all downstream reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add

from .errors import InternalInvariantError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix."""

    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    @cached_property
    def snf(self) -> "SNFResult":
        """Smith normal form, factored on first use and kept on this matrix."""
        return _smith_normal_form(self)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product accumulates a * (row k of other) over the
        nonzero entries a = self[i, k]; the transforms are mostly zeros."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, orow in zip(row, other.entries):
                if a:
                    acc = list(map(add, acc, map(a.__mul__, orow)))
            out.append(acc)
        return IntMatrix(tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    def apply_power(self, k: int, vec) -> tuple:
        v = tuple(vec)
        for _ in range(k):
            v = self.apply(v)
        return v

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_diagonal(self) -> bool:
        return all(self.entries[i][j] == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def det(self):
        """Exact determinant (Bareiss fraction-free elimination)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            # whole-row updates: left of column k both rows are already zero;
            # a row with a zero in column k is only rescaled, or kept as is
            # when the pivot equals the previous one
            pivot_row = m[k]
            pivot = pivot_row[k]
            for i in range(k + 1, n):
                row = m[i]
                f = row[k]
                if f:
                    m[i] = [(a * pivot - f * b) // prev for a, b in zip(row, pivot_row)]
                elif pivot != prev:
                    m[i] = [a * pivot // prev for a in row]
            prev = pivot
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    Invariant factors satisfy d_1 | d_2 | ... with every d_i >= 2.
    """

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("divisibility chain violated")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank > 0:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form U*M*V = D with U, V unimodular and D diagonal."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def __post_init__(self):
        diag = self.D.diagonal()
        if not self.D.is_diagonal():
            raise InternalInvariantError("SNF result not diagonal")
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                raise InternalInvariantError("zero before nonzero on SNF diagonal")
            if a != 0 and b % a != 0:
                raise InternalInvariantError("SNF divisibility chain violated")
        if abs(self.U.det()) != 1 or abs(self.V.det()) != 1:
            raise InternalInvariantError("SNF transform not unimodular")

    @property
    def rank(self) -> int:
        return sum(1 for d in self.D.diagonal() if d != 0)


def _min_abs_pivot(m, t, rows, cols):
    """Position of the smallest absolute nonzero entry of m[t:, t:], row-major ties."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(m[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(M: IntMatrix) -> SNFResult:
    """U, D, V with U*M*V = D, U and V unimodular, D diagonal with
    nonnegative entries in a divisibility chain d_1 | d_2 | ....

    Factored on the first call for M and shared by every later query on
    the same matrix object.
    """
    return M.snf


def _smith_normal_form(M: IntMatrix) -> SNFResult:
    """Diagonalize M by unimodular row and column operations; deterministic
    for a given input, and checked once here and in SNFResult."""
    rows, cols = M.rows, M.cols
    m = [list(r) for r in M.entries]
    u = [list(r) for r in IntMatrix.identity(rows).entries]
    v = [list(r) for r in IntMatrix.identity(cols).entries]

    def swap_rows(a, b):
        m[a], m[b] = m[b], m[a]
        u[a], u[b] = u[b], u[a]

    def swap_cols(a, b):
        for r in m:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]

    def add_row(src, dst, q):
        # row dst -= q * row src
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for r in m:
            r[dst] -= q * r[src]
        for r in v:
            r[dst] -= q * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = _min_abs_pivot(m, t, rows, cols)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(piv[0], t)
        if piv[1] != t:
            swap_cols(piv[1], t)
        while True:
            # clear column t below the pivot, improving the pivot on remainders
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, q)
                    if m[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, q)
                    if m[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if not dirty and all(m[i][t] == 0 for i in range(t + 1, rows)) \
                    and all(m[t][j] == 0 for j in range(t + 1, cols)):
                break
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    # repair the divisibility chain: replace each diagonal pair (a, b) with
    # (gcd, a*b/gcd) by an explicit unimodular 2x2 move; one forward sweep
    # suffices because earlier entries already divide everything later
    for i in range(limit):
        for j in range(i + 1, limit):
            a, b = m[i][i], m[j][j]
            if b % (a if a else 1) == 0 and a != 0:
                continue
            if a == 0 and b == 0:
                continue
            g, x, y = _xgcd(a, b)
            lcm = a // g * b
            # left factor [[x, y], [-b/g, a/g]], right factor
            # [[1, -y*b/g], [1, x*a/g]]; both have determinant 1
            ui, uj = u[i], u[j]
            u[i] = [x * p + y * q for p, q in zip(ui, uj)]
            u[j] = [(-(b // g)) * p + (a // g) * q for p, q in zip(ui, uj)]
            coef_ij = -(y * b // g)
            coef_jj = x * a // g
            for row in v:
                ci, cj = row[i], row[j]
                row[i] = ci + cj
                row[j] = ci * coef_ij + cj * coef_jj
            m[i][i], m[j][j] = g, lcm

    U, D, V = IntMatrix.from_rows(u), IntMatrix.from_rows(m), IntMatrix.from_rows(v)
    if U * M * V != D:
        raise InternalInvariantError("SNF factorisation check failed")
    return SNFResult(U, D, V)


def abelian_group_from_cokernel(M: IntMatrix) -> AbelianGroup:
    """Cokernel of x -> M x on integer column vectors, as Z^r + sum Z/d_i."""
    snf = smith_normal_form(M)
    diag = snf.D.diagonal()
    torsion = tuple(d for d in diag if d > 1)
    free_rank = M.rows - sum(1 for d in diag if d != 0)
    return AbelianGroup(free_rank, torsion)


def _xgcd(a: int, b: int):
    """g, x, y with x*a + y*b = g = gcd(a, b) > 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def in_stabilized_kernel(B: IntMatrix, vec) -> bool:
    """Whether vec dies under some power of B (decided by B^size)."""
    if B.rows != B.cols:
        raise ValueError("stabilized kernel needs a square matrix")
    return not any(B.apply_power(B.rows, vec))


def coset_canonical_form(M: IntMatrix, vec):
    """Canonical coordinates of vec + im(M) inside Z^rows / im(M).

    Returns (coords, moduli): component i is reduced modulo moduli[i],
    where modulus 0 marks a free coordinate.
    """
    snf = smith_normal_form(M)
    y = snf.U.apply(vec)
    diag = snf.D.diagonal()
    moduli = tuple((diag[i] if i < len(diag) else 0) for i in range(M.rows))
    coords = tuple((y[i] % moduli[i]) if moduli[i] else y[i] for i in range(M.rows))
    return coords, moduli
