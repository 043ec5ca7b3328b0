"""The divisor class group of a toric fan.

``Cl(X)`` is the cokernel of the pairing map from the dual lattice ``M``
into the free group on the rays (Cox-Little-Schenck, Thm 4.1.3).  One Smith
normal form ``s = p * a * q`` of the pairing matrix ``a`` gives it all: the
group from the diagonal of ``s``, the class of the ray ``i`` from column
``i`` of ``p``, and the class of ``K_X = -sum D_i`` from ``p * (-1, ..., -1)``.
Class coordinates are basis-dependent: they are read off ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .fans import Fan
from .intlinalg import IntMatrix, hermite_normal_form, smith_normal_form, solve
from .lattice import LatticePoint, ScaledLattice


def dual_basis(lattice: ScaledLattice) -> IntMatrix:
    """Columns form a Hermite basis of the dual lattice inside ``Z^n``.

    The dual consists of the integer vectors pairing integrally with every
    lattice point; it has index ``#G`` in ``Z^n``.
    """
    r = lattice.denom
    # basis * num = d * I, so the columns of r * basis^-1 are r * num / d
    num, d = solve(lattice.basis, IntMatrix.identity(lattice.dim).columns())
    if any(r * v % d for col in num for v in col):
        raise InvariantError("lattice does not contain Z^n")
    h, _ = hermite_normal_form(IntMatrix([[r * v // d for v in col] for col in num]))
    return h


@dataclass(frozen=True)
class ClassGroup:
    """``Cl(X)`` with the class of each ray and of the canonical divisor.

    A class lists torsion coordinates (mod the matching invariant factor)
    followed by free coordinates; ``ray_classes`` follows ``rays``.
    """

    rays: tuple[LatticePoint, ...]
    rank: int
    torsion: tuple[int, ...]
    ray_classes: tuple[tuple[int, ...], ...]
    canonical_class: tuple[int, ...]


def class_group(fan: Fan) -> ClassGroup:
    """Class group of the fan via the Smith form of the pairing matrix."""
    mb = dual_basis(fan.lattice).transpose()
    rays = fan.rays
    rows = []
    for ray in rays:
        row = []
        for v in mb.mul_vec(ray.coords):
            m, rem = divmod(v, ray.denom)
            if rem:
                raise InvariantError(f"ray {ray} pairs non-integrally with the dual lattice")
            row.append(m)
        rows.append(row)
    s, p, _ = smith_normal_form(IntMatrix(rows))
    diag = [s[i][i] for i in range(min(s.rows, s.cols))]
    diag += [0] * (len(rays) - len(diag))  # coordinates past the diagonal are free

    def reduce(y) -> tuple[int, ...]:
        return (tuple(v % d for v, d in zip(y, diag) if d > 1)
                + tuple(v for v, d in zip(y, diag) if d == 0))

    return ClassGroup(
        rays=rays,
        rank=diag.count(0),
        torsion=tuple(d for d in diag if d > 1),
        ray_classes=tuple(reduce(col) for col in p.columns()),
        canonical_class=reduce([-sum(row) for row in p.data]),
    )


def class_group_to_json(cg: ClassGroup) -> dict:
    return {
        "rank": cg.rank,
        "torsion": list(cg.torsion),
        "ray_classes": [list(c) for c in cg.ray_classes],
        "canonical_class": list(cg.canonical_class),
    }
