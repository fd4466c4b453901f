"""Exact linear algebra over the ring of integers modulo d.

Matrices and vectors carry their modulus explicitly and store entries as
canonical representatives in [0, d).  Everything is computed with Python
integers; there is no floating point anywhere.  The public constructors reduce
their input; ZdMatrix._reduced and Submodule._of_reduced trust it, and only engine
rows canonical by construction (module vectors, functionals, kernels) go there.

The Smith reduction works on integer representatives, reducing mod d after
every elementary operation (reducing mod d is the same as adding rows of
d times the identity, so the augmentation by d*I is implicit).  The pivot is
the entry x with the least (gcd(x, d), x), scaled by a unit to gcd(x, d)
before it eliminates: at a prime power d that divides every entry, so each
pivot takes one round; otherwise a remainder below it lowers the least gcd,
so the reduction still ends.  Each column operation walks only the rows it
can change, and the replays of the recorded operations keep their rows
sparse, so both cost what they touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

Vector = tuple[int, ...]


def vec_reduce(v: Sequence[int], d: int) -> Vector:
    return tuple(x % d for x in v)


def vec_add(u: Sequence[int], v: Sequence[int], d: int) -> Vector:
    return tuple((x + y) % d for x, y in zip(u, v))


def vec_scale(c: int, v: Sequence[int], d: int) -> Vector:
    return tuple((c * x) % d for x in v)


def vector_order(v: Sequence[int], d: int) -> int:
    """Additive order of v in (Z/dZ)^m."""
    g = d
    for x in v:
        g = math.gcd(g, x)
        if g == 1:
            break
    return d // g


def unit_lifting_gcd(a: int, d: int) -> int:
    """A unit u mod d with u*a == gcd(a, d) mod d.

    Requires 0 < a < d.  Existence is the standard fact that every
    residue is a unit multiple of its gcd with the modulus.
    """
    g = math.gcd(a, d)
    m = d // g
    a0 = (a // g) % m
    u = pow(a0, -1, m) if m > 1 else 1
    while math.gcd(u, d) != 1:
        u += m
    return u % d


@dataclass(frozen=True)
class ZdMatrix:
    """Matrix over Z/dZ with entries stored canonically in [0, d).

    The shape is stored explicitly so zero-row and zero-column matrices
    keep their dimensions.
    """

    modulus: int
    entries: tuple[tuple[int, ...], ...]
    shape: tuple[int, int] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        d = self.modulus
        rows = tuple(tuple(x % d for x in row) for row in self.entries)
        shape = self.shape
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
            raise ValueError("entries do not match shape")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "shape", shape)

    @classmethod
    def _reduced(cls, d: int, rows: tuple[Vector, ...], cols: int) -> "ZdMatrix":
        """The matrix of canonical rows of length cols, unchecked: never for outside input."""
        mat = object.__new__(cls)
        mat.__dict__.update(modulus=d, entries=rows, shape=(len(rows), cols))
        return mat

    @classmethod
    def from_rows(cls, d: int, rows: Iterable[Sequence[int]], cols: int | None = None) -> "ZdMatrix":
        rows = tuple(tuple(r) for r in rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(d, rows, (len(rows), cols))

    @classmethod
    def identity(cls, d: int, n: int) -> "ZdMatrix":
        return cls(d, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), (n, n))

    @classmethod
    def zeros(cls, d: int, r: int, c: int) -> "ZdMatrix":
        return cls(d, tuple((0,) * c for _ in range(r)), (r, c))

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "ZdMatrix":
        return ZdMatrix(
            self.modulus,
            tuple(zip(*self.entries)) if self.entries else ((),) * 0,
            (self.cols, self.rows),
        ) if self.rows else ZdMatrix.zeros(self.modulus, self.cols, 0)

    def __matmul__(self, other: "ZdMatrix") -> "ZdMatrix":
        if self.modulus != other.modulus or self.cols != other.rows:
            raise ValueError("incompatible matrices")
        d = self.modulus
        out = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)) % d
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return ZdMatrix(d, out, (self.rows, other.cols))

    def mul_vector(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("bad vector length")
        d = self.modulus
        return tuple(sum(a * b for a, b in zip(row, v)) % d for row in self.entries)

    def det(self) -> int:
        """Determinant computed exactly (Bareiss on the integer lift), mod d."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1 % self.modulus
        m = [list(r) for r in self.entries]
        sign, prev = 1, 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return (sign * m[n - 1][n - 1]) % self.modulus


# smith_normal_form records its elementary operations, in the order applied,
# as row operations on an identity matrix: (SWAP, i, j, 0) swaps rows i and j,
# (ADD, i, j, q) adds q * row_j to row_i and (SCALE, i, i, w) multiplies row_i by
# the unit w.  A column operation col_j += q * col_k is kept as its transpose,
# the row operation (ADD, j, k, q).
_SWAP, _ADD, _SCALE = 0, 1, 2


def _apply_row_ops_to_vector(
    d: int, vec: list[int], ops: Iterable[tuple[int, int, int, int]]
) -> None:
    """The row operations applied in order to the column vector vec, in place."""
    for kind, i, j, q in ops:
        if kind == _SWAP:
            vec[i], vec[j] = vec[j], vec[i]
        elif kind == _ADD:
            vec[i] = (vec[i] + q * vec[j]) % d
        else:
            vec[i] = (q * vec[i]) % d


def _transposes(ops: Iterable[tuple[int, int, int, int]]):
    """For each operation, the operation whose matrix is its transpose."""
    for kind, i, j, q in ops:
        yield (kind, j, i, q) if kind == _ADD else (kind, i, j, q)


def _inverses(d: int, ops: Iterable[tuple[int, int, int, int]]):
    """For each operation, the operation whose matrix is its inverse."""
    for kind, i, j, q in ops:
        if kind == _SWAP:
            yield kind, i, j, q
        elif kind == _ADD:
            yield kind, i, j, -q
        else:
            yield kind, i, i, pow(q, -1, d)


def _replay_columns(d: int, size: int, picked: Sequence[tuple[int, int]], ops) -> list[Vector]:
    """The columns scale * e_i, (i, scale) in picked, with the row operations applied in order.

    Each row of the block is kept as {block column: nonzero value}: an ADD costs
    the support of its source row, a SWAP exchanges two references and a SCALE
    (by a unit) maps one support.  The dense columns are built once, at the end."""
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    for t, (i, scale) in enumerate(picked):
        if scale % d:
            rows[i][t] = scale % d
    for kind, i, j, q in ops:
        if kind == _SWAP:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == _ADD:
            dst = rows[i]
            for t, y in rows[j].items():
                x = (dst.get(t, 0) + q * y) % d
                if x:
                    dst[t] = x
                else:
                    dst.pop(t, None)
        elif rows[i]:
            rows[i] = {t: (q * x) % d for t, x in rows[i].items()}
    columns = [[0] * size for _ in picked]
    for i, row in enumerate(rows):
        for t, x in row.items():
            columns[t][i] = x
    return [tuple(col) for col in columns]


@dataclass(frozen=True)
class SmithForm:
    """Result of Smith reduction of an r x c matrix a: u @ a @ v is diagonal.

    diag holds one entry per diagonal position of the reduced matrix, each a
    positive divisor of d; the value d itself encodes a zero entry.  The
    divisor chain diag[0] | diag[1] | ... | d holds, and u, v are invertible
    over Z/dZ.

    The form is its recorded operations: u is row_ops applied in order to the
    identity, v^T is col_ops applied in order, and neither is ever built.
    solve replays the operations on its vectors; v_columns (columns of v, which
    kernel picks) and v_inv_rows (rows of v^-1) replay them on a block as wide
    as they pick, whose rows are sparse, so an addition costs the support of
    its source row.  smith_normal_form records a column operation after
    walking only the rows where the pivot column is nonzero.
    """

    modulus: int
    shape: tuple[int, int]
    diag: tuple[int, ...]
    row_ops: tuple[tuple[int, int, int, int], ...]
    col_ops: tuple[tuple[int, int, int, int], ...]

    def solve(self, b: Sequence[int]) -> Optional[Vector]:
        """Some x with a @ x == b mod d, or None if there is no solution.

        Replays the recorded operations on the vectors: u @ b applies row_ops
        in order, v @ y applies the transposed col_ops in reverse.
        """
        d = self.modulus
        r, c = self.shape
        cvec = list(vec_reduce(b, d))
        if len(cvec) != r:
            raise ValueError("bad vector length")
        _apply_row_ops_to_vector(d, cvec, self.row_ops)
        y = [0] * c
        for i in range(r):
            if i < len(self.diag):
                si = self.diag[i]
                if cvec[i] % si:
                    return None
                y[i] = cvec[i] // si
            elif cvec[i]:
                return None
        _apply_row_ops_to_vector(d, y, self._v_ops)
        return tuple(y)

    @cached_property
    def _v_ops(self) -> tuple[tuple[int, int, int, int], ...]:
        """The transposed col_ops in reverse: replayed in order, they apply v."""
        return tuple(_transposes(reversed(self.col_ops)))

    def transpose(self) -> "SmithForm":
        """The Smith form of a's transpose, unreduced: col_ops already build v^T as row operations."""
        return SmithForm(self.modulus, self.shape[::-1], self.diag, self.col_ops, self.row_ops)

    def v_columns(self, picked: Sequence[tuple[int, int]]) -> list[Vector]:
        """scale * (column i of v) for (i, scale) in picked: the transposed col_ops replayed in reverse."""
        return _replay_columns(self.modulus, self.shape[1], picked, self._v_ops)

    def kernel(self) -> list[Vector]:
        """Generators of {x : a @ x == 0 mod d}: column i of v times d / diag[i] (d past diag)."""
        d, c = self.modulus, self.shape[1]
        diag = self.diag + (d,) * (c - len(self.diag))
        return self.v_columns([(i, d // s) for i, s in enumerate(diag) if s != 1])

    def v_inv_rows(self, indices: Iterable[int]) -> list[Vector]:
        """Rows i of v^-1, for i in indices: v^-T @ e_i replays the inverse col_ops in reverse."""
        d = self.modulus
        picked = [(i, 1) for i in indices]
        return _replay_columns(d, self.shape[1], picked, _inverses(d, reversed(self.col_ops)))


def _pivot(m: Sequence[Sequence[int]], k: int, r: int, c: int, d: int):
    """(i, j) of the entry x of m[k:r][k:c] with the least (gcd(x, d), x), ties to lowest (i, j).

    The pivot rule of every reduction here; None when the submatrix is zero.
    Once the best entry is a unit, larger values are passed over with no gcd.
    """
    best, bg, bx = None, 0, 0
    for i in range(k, r):
        mi = m[i]
        for j in range(k, c):
            x = mi[j]
            if not x or (bg == 1 and x >= bx):
                continue
            if x == 1:
                return i, j
            g = math.gcd(x, d)
            if best is None or g < bg or (g == bg and x < bx):
                best, bg, bx = (i, j), g, x
    return best


def smith_normal_form(mat: ZdMatrix) -> SmithForm:
    """Smith form over Z/dZ with invertible row/column transforms.

    Pivot choice: _pivot, the least (gcd(x, d), x), ties to lowest (row, col).
    Right after the swaps a unit row scaling makes the pivot g = gcd(x, d), so
    the diagonal consists of divisors of d.  At a prime power d, g divides
    every entry and each pivot takes one row and one column pass; otherwise a
    dirty round, or the bad row added to the pivot row, leaves a remainder
    below g in the next pass, so the least gcd falls and the loop ends.
    """
    d = mat.modulus
    r, c = mat.rows, mat.cols
    m = [list(row) for row in mat.entries]
    row_ops: list[tuple[int, int, int, int]] = []
    col_ops: list[tuple[int, int, int, int]] = []

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        row_ops.append((_SWAP, i, j, 0))

    def row_addmul(i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        m[i] = [(x + q * y) % d for x, y in zip(m[i], m[j])]
        row_ops.append((_ADD, i, j, q))

    def row_scale(i, w):
        m[i] = [(w * x) % d for x in m[i]]
        row_ops.append((_SCALE, i, i, w))

    # Rows above the pivot k are zero from column k on, so a column operation
    # on columns >= k changes only rows >= k, and col_j += q * col_k only the
    # rows where col_k is nonzero.
    def col_swap(i, j):
        # i is the pivot index
        for row in m[i:]:
            row[i], row[j] = row[j], row[i]
        col_ops.append((_SWAP, i, j, 0))

    def col_addmul(j, k, q, rows):
        # col_j += q * col_k, over the rows where col_k is nonzero
        if q == 0:
            return
        for row in rows:
            row[j] = (row[j] + q * row[k]) % d
        col_ops.append((_ADD, j, k, q))

    for k in range(min(r, c)):
        while True:
            pos = _pivot(m, k, r, c, d)
            if pos is None:
                break
            i0, j0 = pos
            if i0 != k:
                row_swap(k, i0)
            if j0 != k:
                col_swap(k, j0)
            p = m[k][k]
            g = math.gcd(p, d)
            if g != p:
                row_scale(k, unit_lifting_gcd(p, d))
                p = g
            dirty = False
            for i in range(k + 1, r):
                if m[i][k]:
                    row_addmul(i, k, (-(m[i][k] // p)) % d)
                    if m[i][k]:
                        dirty = True
            touched = [mi for mi in m[k:] if mi[k]]
            for j in range(k + 1, c):
                if m[k][j]:
                    col_addmul(j, k, (-(m[k][j] // p)) % d, touched)
                    if m[k][j]:
                        dirty = True
            if dirty:
                continue
            if p == 1:  # a unit divides every entry
                break
            bad = next((i for i in range(k + 1, r) if any(x % p for x in m[i][k + 1:])), None)
            if bad is None:
                break
            row_addmul(k, bad, 1)

    diag = tuple(m[i][i] if m[i][i] else d for i in range(min(r, c)))
    return SmithForm(d, (r, c), diag, tuple(row_ops), tuple(col_ops))


class Submodule:
    """Finitely generated submodule of (Z/dZ)^m, with cached Smith data.

    Instances are immutable by convention; the generators, canonical and
    nonzero, are the only rows stored, and all derived data is computed once
    from them.  Each instance caches one Smith form, of the matrix whose rows
    are the generators, on first use.  Invariant factors and the quasi-basis
    read it; membership solves with its cached transpose, so a run of
    contains/coefficients_for queries reduces no further matrix.
    """

    def __init__(self, modulus: int, ambient_rank: int, generators: Iterable[Sequence[int]]):
        self.modulus = modulus
        self.ambient_rank = ambient_rank
        rows = ZdMatrix.from_rows(modulus, generators, ambient_rank).entries
        self.generators: tuple[Vector, ...] = tuple(g for g in rows if any(g))

    @classmethod
    def _of_reduced(cls, d: int, m: int, rows: Iterable[Vector]) -> "Submodule":
        """The span of canonical rows of length m, taken as they are: never for outside input."""
        sub = cls.__new__(cls)
        sub.modulus, sub.ambient_rank = d, m
        sub.generators = tuple(g for g in rows if any(g))
        return sub

    @classmethod
    def zero(cls, d: int, m: int) -> "Submodule":
        return cls(d, m, ())

    @classmethod
    def full(cls, d: int, m: int) -> "Submodule":
        zero = (0,) * m
        return cls._of_reduced(d, m, [zero[:i] + (1 % d,) + zero[i + 1:] for i in range(m)])

    @cached_property
    def smith(self) -> SmithForm:
        return smith_normal_form(ZdMatrix._reduced(self.modulus, self.generators, self.ambient_rank))

    @cached_property
    def transposed_smith(self) -> SmithForm:
        """The Smith form of the generators as columns, which membership solves with."""
        return self.smith.transpose()

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Unique chain 1 < d_1 | ... | d_t | d with the module = direct sum of Z_{d_r}."""
        d = self.modulus
        facs = sorted(d // s for s in self.smith.diag if s != d)
        return tuple(f for f in facs if f > 1)

    @property
    def cardinality(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_free(self) -> bool:
        return all(f == self.modulus for f in self.invariant_factors)

    @property
    def is_zero(self) -> bool:
        return not self.invariant_factors

    def quasi_basis(self) -> list[tuple[Vector, int]]:
        """(element, order) pairs spanning the module with diagonal relations.

        Ordered by increasing order; the last element has maximal order.
        """
        d = self.modulus
        s = self.smith
        picked = [i for i, si in enumerate(s.diag) if si != d]
        rows = s.v_inv_rows(picked)
        return [(vec_scale(s.diag[i], row, d), d // s.diag[i]) for i, row in zip(picked, rows)][::-1]

    def coefficients_for(self, v: Sequence[int]) -> Optional[Vector]:
        """lam with lam . generators == v, or None if v is not in the module."""
        if not self.generators:
            return () if not any(vec_reduce(v, self.modulus)) else None
        return self.transposed_smith.solve(v)

    def contains(self, v: Sequence[int]) -> bool:
        return self.coefficients_for(v) is not None

    def contains_module(self, other: "Submodule") -> bool:
        return all(self.contains(g) for g in other.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Submodule):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.ambient_rank == other.ambient_rank
            and self.contains_module(other)
            and other.contains_module(self)
        )

    __hash__ = None

    def intersection(self, other: "Submodule") -> "Submodule":
        """ann(ann(A) + ann(B)), where ann(X) = X.smith.kernel() and ann(ann(X)) = X over Z/dZ."""
        if (self.modulus, self.ambient_rank) != (other.modulus, other.ambient_rank):
            raise ValueError("modules live in different ambients")
        d, m = self.modulus, self.ambient_rank
        annihilators = Submodule._of_reduced(d, m, self.smith.kernel() + other.smith.kernel())
        return Submodule._of_reduced(d, m, annihilators.smith.kernel())

    def enumerate_elements(self) -> Iterator[Vector]:
        """All elements, via quasi-basis coefficients (no duplicates).

        The coefficients run in itertools.product order, last digit fastest,
        and each step adds one quasi-basis vector per digit that changes, as
        an odometer turns.  A digit that wraps from its order back to 0 adds
        its vector once more, which is right because order * vector == 0.
        """
        d = self.modulus
        wheel = self.quasi_basis()[::-1]  # least significant digit first
        coeffs = [0] * len(wheel)
        x = (0,) * self.ambient_rank
        while True:
            yield x
            for i, (vec, order) in enumerate(wheel):
                x = vec_add(x, vec, d)
                coeffs[i] += 1
                if coeffs[i] < order:
                    break
                coeffs[i] = 0
            else:
                return

    def __repr__(self) -> str:
        return f"Submodule(d={self.modulus}, m={self.ambient_rank}, gens={list(self.generators)})"

