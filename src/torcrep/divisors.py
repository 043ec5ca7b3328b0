"""The divisor class group of a toric fan.

``Cl(X)`` is the cokernel of the pairing map from the dual lattice ``M``
into the free group on the rays (Cox-Little-Schenck, Thm 4.1.3).  One Smith
elimination ``s = p * a * q`` of the pairing matrix ``a`` gives it all: the
group from the diagonal of ``s``, the class of the ray ``i`` from column
``i`` of ``p``, and the class of ``K_X = -sum D_i`` from ``p * (-1, ..., -1)``.
Only ``p`` is kept, as sparse rows, and each class coordinate is read off
one of them; class coordinates are basis-dependent.
"""

from __future__ import annotations

from .errors import InvariantError
from .fans import Fan
from .intlinalg import IntMatrix, clearing, hermite_normal_form, solve
from .lattice import Record, ScaledLattice


def dual_basis(lattice: ScaledLattice) -> list[tuple[int, ...]]:
    """The columns of a Hermite basis of the dual lattice inside ``Z^n``.

    The dual consists of the integer vectors pairing integrally with every
    lattice point; it has index ``#G`` in ``Z^n``, and the rows of ``r * B^-1``
    span it, ``B`` the lattice basis and ``r`` its denominator.
    """
    r = lattice.denom
    # basis * num = d * I: num holds the columns of d * basis^-1, zip(*num) its rows
    num, d = solve(lattice.basis.data, IntMatrix.identity(lattice.dim).data)
    if any(r * v % d for col in num for v in col):
        raise InvariantError("lattice does not contain Z^n")
    return hermite_normal_form([tuple(r * v // d for v in row) for row in zip(*num)])


def _smith_rows(s: list[list[int]]) -> tuple[list[int], list[dict[int, int]]]:
    """Smith diagonal of ``s`` and the rows of its left transform ``p``.

    Eliminates ``s`` in place: the pivot is the least ``|entry|``, first in
    row-major order; ``clearing`` row and column combinations clear its
    column and row; a row whose entries the pivot does not divide is added
    to the pivot row; a negative pivot row is flipped.  The right transform
    is not kept.  Row ``k`` of ``p`` is a ``{column: value}`` dict.
    """
    nrows, ncols = len(s), len(s[0])
    p = [{i: 1} for i in range(nrows)]

    def combine_rows(i, j, a, b, c, d):
        # rows (i, j) <- (a*ri + b*rj, c*ri + d*rj); requires ad - bc = ±1
        ri, rj, pi, pj = s[i], s[j], p[i], p[j]
        s[i] = [a * x + b * y for x, y in zip(ri, rj)]
        s[j] = [c * x + d * y for x, y in zip(ri, rj)]
        keys = pi.keys() | pj.keys()
        if (a, b) != (1, 0):
            p[i] = {k: w for k in keys if (w := a * pi.get(k, 0) + b * pj.get(k, 0))}
        if (c, d) != (0, 1):
            p[j] = {k: w for k in keys if (w := c * pi.get(k, 0) + d * pj.get(k, 0))}

    def combine_cols(i, j, a, b, c, d):
        for row in s:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    diag = []
    for t in range(min(nrows, ncols)):
        pivot = min(((abs(s[i][j]), i, j) for i in range(t, nrows)
                     for j in range(t, ncols) if s[i][j]), default=None)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            p[t], p[pi] = p[pi], p[t]
        if pj != t:
            combine_cols(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, nrows):
                if s[i][t]:
                    combine_rows(t, i, *clearing(s[t][t], s[i][t]))
            for j in range(t + 1, ncols):
                if s[t][j]:
                    combine_cols(t, j, *clearing(s[t][t], s[t][j]))
            if any(s[i][t] for i in range(t + 1, nrows)):
                continue
            a = s[t][t]
            bad = next((i for i in range(t + 1, nrows)
                        if any(s[i][j] % a for j in range(t + 1, ncols))), None)
            if bad is None:
                break
            combine_rows(t, bad, 1, 1, 0, 1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            p[t] = {k: -w for k, w in p[t].items()}
        diag.append(s[t][t])
    return diag, p


class ClassGroup(Record):
    """``Cl(X)`` with the class of each ray and of the canonical divisor.

    A class lists torsion coordinates (mod the matching invariant factor)
    followed by free coordinates; ``ray_classes`` follows ``Fan.rays``.
    """

    rank: int
    torsion: tuple[int, ...]
    ray_classes: tuple[tuple[int, ...], ...]
    canonical_class: tuple[int, ...]


def class_group(fan: Fan) -> ClassGroup:
    """Class group of the fan via the Smith form of the pairing matrix."""
    mb = dual_basis(fan.lattice)
    rows = []
    for ray in fan.rays:
        row = []
        for col in mb:
            v = sum(a * b for a, b in zip(col, ray.coords))
            m, rem = divmod(v, ray.denom)
            if rem:
                raise InvariantError(f"ray {ray} pairs non-integrally with the dual lattice")
            row.append(m)
        rows.append(row)
    diag, p = _smith_rows(rows)
    diag += [0] * (len(rows) - len(diag))  # coordinates past the diagonal are free
    torsion = [k for k, d in enumerate(diag) if d > 1]
    coords = torsion + [k for k, d in enumerate(diag) if d == 0]
    ray_classes = [[0] * len(coords) for _ in rows]
    canonical_class = []
    for c, k in enumerate(coords):
        d = diag[k]
        for i, v in p[k].items():
            ray_classes[i][c] = v % d if d else v
        total = -sum(p[k].values())
        canonical_class.append(total % d if d else total)
    return ClassGroup(
        rank=len(coords) - len(torsion),
        torsion=tuple(diag[k] for k in torsion),
        ray_classes=tuple(map(tuple, ray_classes)),
        canonical_class=tuple(canonical_class),
    )


def class_group_to_json(cg: ClassGroup) -> dict:
    return {
        "rank": cg.rank,
        "torsion": list(cg.torsion),
        "ray_classes": [list(c) for c in cg.ray_classes],
        "canonical_class": list(cg.canonical_class),
    }
