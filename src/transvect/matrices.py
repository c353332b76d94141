"""Exact dense matrices over the supported rings.

Includes the standard alternating form psi_n, a division-free
determinant, and the Pfaffian by perfect-matching expansion (sizes
bounded so the exponential expansions stay cheap).
"""

from __future__ import annotations

import json

from .rings import RingElement, RingError, parse_ring


class SquareMatrix:
    """Immutable square matrix with entries in one ring."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring, rows):
        rows = tuple(tuple(ring.element(e) for e in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise RingError("matrix is not square")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("SquareMatrix is immutable")

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, ring, rows):
        """Wrap square rows of elements of ``ring``, without coercion."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "ring", ring)
        object.__setattr__(mat, "n", len(rows))
        object.__setattr__(mat, "rows", tuple(tuple(r) for r in rows))
        return mat

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix) and self.ring is other.ring
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __sub__(self, other):
        self._check(other)
        return SquareMatrix(self.ring, [
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, RingElement) or not isinstance(other, SquareMatrix):
            s = self.ring.element(other)
            return SquareMatrix(self.ring, [[a * s for a in r] for r in self.rows])
        self._check(other)
        cols = list(zip(*other.rows))
        return SquareMatrix(self.ring, [
            [dot(row, col, self.ring) for col in cols] for row in self.rows])

    def _check(self, other):
        if not isinstance(other, SquareMatrix) or other.ring is not self.ring or other.n != self.n:
            raise RingError("matrix shape/ring mismatch")

    def transpose(self):
        return SquareMatrix(self.ring, list(zip(*self.rows)))

    def is_identity(self):
        return self == SquareMatrix.identity(self.ring, self.n)

    def row(self, i):
        return self.rows[i]

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(repr(e) for e in row) + "]" for row in self.rows)
        return "SquareMatrix(%s,\n%s)" % (self.ring, body)


def dot(row, col, ring):
    """The sum of row[k] * col[k] in ring."""
    acc = ring.zero()
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


def row_times(q, mat):
    """The row vector q * mat, with q coerced into mat.ring."""
    q = [mat.ring.element(x) for x in q]
    if len(q) != mat.n:
        raise RingError("row length %d does not match matrix size %d"
                        % (len(q), mat.n))
    return [dot(q, col, mat.ring) for col in zip(*mat.rows)]


def determinant(mat):
    """Division-free determinant by memoized Laplace expansion."""
    if mat.n > 8:
        raise RingError("determinant restricted to sizes <= 8")
    return _minor(mat, (1 << mat.n) - 1, 0, {})


def _minor(mat, cols_mask, depth, memo):
    """The determinant of rows depth.. of ``mat`` on the columns of
    ``cols_mask``, memoised in ``memo`` by (mask, depth).  A module
    function, not a closure that names itself, so a call leaves no
    reference cycle holding the memo."""
    if cols_mask == 0:
        return mat.ring.one()
    got = memo.get((cols_mask, depth))
    if got is not None:
        return got
    acc = mat.ring.zero()
    sign = 1
    for j in range(mat.n):
        if not cols_mask & (1 << j):
            continue
        entry = mat[depth, j]
        if not entry.is_zero():
            term = entry * _minor(mat, cols_mask & ~(1 << j), depth + 1, memo)
            acc = acc + (term if sign > 0 else -term)
        sign = -sign
    memo[(cols_mask, depth)] = acc
    return acc


def is_alternating(mat):
    z = mat.ring.zero()
    for i in range(mat.n):
        if mat[i, i] != z:
            return False
        for j in range(i):
            if mat[i, j] != -mat[j, i]:
                return False
    return True


def pfaffian(mat):
    """Pfaffian of an alternating matrix via matching expansion."""
    if mat.n > 12:
        raise RingError("pfaffian restricted to sizes <= 12")
    if not is_alternating(mat):
        raise RingError("pfaffian requires an alternating matrix")
    if mat.n % 2 == 1:
        return mat.ring.zero()
    return _pfaffian_of_mask(mat, (1 << mat.n) - 1, {0: mat.ring.one()})


def _pfaffian_of_mask(mat, mask, memo):
    """The Pfaffian of ``mat`` on the indices of ``mask``, memoised in
    ``memo``; a module function for the same reason as ``_minor``."""
    got = memo.get(mask)
    if got is not None:
        return got
    i = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << i)
    acc = mat.ring.zero()
    sign = 1
    j = rest
    while j:
        k = (j & -j).bit_length() - 1
        entry = mat[i, k]
        if not entry.is_zero():
            term = entry * _pfaffian_of_mask(mat, rest & ~(1 << k), memo)
            acc = acc + (term if sign > 0 else -term)
        sign = -sign
        j &= j - 1
    memo[mask] = acc
    return acc


def sigma(i):
    """The pairing involution on 1-based indices: 2k-1 <-> 2k."""
    return i + 1 if i % 2 == 1 else i - 1


def standard_form(ring, n):
    """psi_n: sum of e(2i-1,2i) - e(2i,2i-1), size 2n."""
    one, zero = ring.one(), ring.zero()
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        rows[2 * k][2 * k + 1], rows[2 * k + 1][2 * k] = one, -one
    return SquareMatrix.from_rows(ring, rows)


def is_symplectic(mat, form):
    """Whether mat^t * form * mat == form (exact)."""
    return mat.transpose() * form * mat == form


# -- JSON interchange -------------------------------------------------


def matrix_to_json(mat):
    return json.dumps({
        "ring": mat.ring.descriptor(),
        "n": mat.n,
        "rows": [[mat.ring.to_json(e) for e in row] for row in mat.rows],
    })


def matrix_from_json(text):
    data = json.loads(text)
    ring = parse_ring(data["ring"])
    rows = [[ring.from_json(e) for e in row] for row in data["rows"]]
    mat = SquareMatrix(ring, rows)
    if mat.n != data["n"]:
        raise RingError("size field does not match row data")
    return mat
