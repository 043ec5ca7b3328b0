"""Exact integer linear algebra with the Hermite normal form.

Everything here runs on Python's arbitrary-precision integers; no
fractions and no floating point are ever involved, so results are
bit-exact and deterministic.

Conventions:

* The kernel takes the format its callers hold: ``solve`` takes a matrix
  as a sequence of integer row tuples, and ``hermite_normal_form`` takes
  and returns a list of column tuples.  Neither builds an ``IntMatrix``.
* ``IntMatrix`` is the checked stored matrix (a lattice basis, a quotient
  projection, a certificate's map): its constructor checks every entry and
  the shape.  ``det`` stays a method, as ``perfbench/tracer.py`` wraps
  ``IntMatrix.det``.
* One fraction-free (Bareiss) forward elimination, ``_echelon``, backs
  ``IntMatrix.det`` and ``solve``.  ``solve(rows, cols)`` returns
  ``(numerators, d)`` with ``d > 0`` and ``rows * numerators[k] = d * cols[k]``;
  rational solutions are ``numerators / d`` and callers that need them
  integral test ``num % d == 0``.
* ``hermite_normal_form(columns)`` returns the columns of the form
  ``h = m * u`` alone; the unimodular ``u`` is the lower block of the form
  of ``m`` stacked over the identity (Cohen, *A Course in Computational
  Algebraic Number Theory*, §2.4).  The form is column-style: pivots walk
  down the rows, pivot entries are positive, entries to the left of a pivot
  in its row are reduced into ``[0, pivot)``, and zero columns are pushed
  to the right.  For a nonsingular square input ``h`` is lower triangular.
* ``clearing(a, b)`` is the one xgcd step of this form and of the class
  group's Smith elimination.
"""

from __future__ import annotations

from functools import cache


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: ``(g, x, y)`` with ``g = a*x + b*y`` and ``g >= 0``."""
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


def clearing(a: int, b: int) -> tuple[int, int, int, int]:
    """``(x, y, c, d)`` with ``x*d - y*c = 1`` and ``c*a + d*b = 0``, for ``a != 0``.

    The lines ``(x*s + y*t, c*s + d*t)`` replace a pivot line ``s`` and a
    line ``t`` whose entries are ``a`` and ``b``: the new pivot entry is
    ``gcd(a, b)`` up to sign, and the other entry is 0.
    """
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, x, y = xgcd(a, b)
    return x, y, -(b // g), a // g


class IntMatrix:
    """Immutable integer matrix stored row-major as tuples, checked on construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = tuple(tuple(row) for row in data)
        if not all(type(x) is int for row in rows for x in row):
            raise TypeError("matrix entries must be integers")
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows have unequal lengths")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]))
        object.__setattr__(self, "data", rows)

    def __setattr__(self, key, value=None):  # a lattice basis keys hashed records
        raise AttributeError(f"cannot assign to or delete field {key!r}")

    __delattr__ = __setattr__

    @classmethod
    @cache  # immutable, so one per dimension serves every caller
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"IntMatrix[{body}]"

    def mul_vec(self, v) -> tuple[int, ...]:
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        a = [list(row) for row in self.data]
        pivots, sign = _echelon(a, self.cols)
        return sign * a[-1][-1] if len(pivots) == self.rows else 0


def _echelon(a: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of the rows ``a``, in place.

    Pivots are taken in the first ``ncols`` columns; a column with no
    nonzero entry at or below the current row is skipped, and columns past
    ``ncols`` (right-hand sides) are carried along.  Every entry stays an
    integer minor of the input, so each division is exact, and the last
    pivot is the determinant of the pivot rows and columns as swapped.
    Returns the pivot columns and the sign of the row permutation.
    """
    nrows, width = len(a), len(a[0])
    pivots: list[int] = []
    sign = prev = 1
    for j in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if a[i][j]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        top = a[r]
        piv = top[j]
        for row in a[r + 1:]:
            f = row[j]
            row[j] = 0
            for c in range(j + 1, width):
                row[c] = (piv * row[c] - f * top[c]) // prev
        prev = piv
        pivots.append(j)
        if r + 1 == nrows:
            break
    return pivots, sign


def solve(rows, rhs_columns) -> tuple[list[tuple[int, ...]], int] | None:
    """Unique rational solutions of ``m * x = b``, one per column ``b``.

    ``m`` is given by its ``rows``, a sequence of integer row tuples of one
    length.  Returns ``(numerator_columns, d)`` with ``d > 0`` and
    ``m * numerator_columns[k] = d * rhs_columns[k]``, or None when some
    column makes the system inconsistent.  ``d`` is the absolute
    determinant of the rows used as pivots (``|det m|`` for square ``m``),
    so it need not be the least common denominator.  Requires the columns
    of ``m`` to be linearly independent (raises ValueError otherwise).
    """
    rhs = [tuple(b) for b in rhs_columns]
    if any(len(b) != len(rows) for b in rhs):
        raise ValueError("dimension mismatch")
    n = len(rows[0])
    a = [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]
    if len(_echelon(a, n)[0]) < n:
        raise ValueError("columns are linearly dependent")
    if any(any(row[n:]) for row in a[n:]):
        return None
    d = abs(a[n - 1][n - 1])
    # back substitution stays exact: d * x is integral by Cramer's rule
    out = []
    for c in range(n, n + len(rhs)):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            acc = d * row[c] - sum(row[j] * x[j] for j in range(i + 1, n))
            x[i] = acc // row[i]
        out.append(tuple(x))
    return out, d


def hermite_normal_form(columns) -> list[tuple[int, ...]]:
    """Columns of the column-style Hermite normal form of the matrix with these columns."""
    nrows, ncols = len(columns[0]), len(columns)
    h = [list(c) for c in columns]          # column-major working copy
    pc = 0
    for i in range(nrows):
        if pc >= ncols:
            break
        j0 = next((j for j in range(pc, ncols) if h[j][i] != 0), None)
        if j0 is None:
            continue
        if j0 != pc:
            h[pc], h[j0] = h[j0], h[pc]
        for j in range(pc + 1, ncols):
            if h[j][i] == 0:
                continue
            hp, hj = h[pc], h[j]
            x, y, c, d = clearing(hp[i], hj[i])
            if (x, y) != (1, 0):
                h[pc] = [x * s + y * t for s, t in zip(hp, hj)]
            h[j] = [c * s + d * t for s, t in zip(hp, hj)]
        if h[pc][i] < 0:
            h[pc] = [-x for x in h[pc]]
        top = h[pc]
        piv = top[i]
        for j in range(pc):
            f = h[j][i] // piv
            if f:
                h[j] = [a - f * b for a, b in zip(h[j], top)]
        pc += 1
    return [tuple(c) for c in h]
