"""Torus-invariant divisors and the divisor class group.

The class group is the cokernel of the pairing map from the dual lattice
into the free group on the rays, computed in Smith normal form.  Class
coordinates are basis-dependent: they are read off the Smith form's left
transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvariantError
from .fans import Fan
from .intlinalg import IntMatrix, hermite_normal_form, smith_normal_form, solve
from .lattice import LatticePoint, ScaledLattice


@dataclass(frozen=True)
class TDivisor:
    """Integer combination of the prime divisors attached to rays."""

    coeffs: tuple[tuple[LatticePoint, int], ...]

    @classmethod
    def from_dict(cls, d) -> "TDivisor":
        items = tuple(sorted(d.items(), key=lambda kv: kv[0].coords))
        return cls(items)


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


def pairing(m, u: LatticePoint) -> Fraction:
    """Exact pairing of a dual vector with a scaled lattice point."""
    return Fraction(sum(a * b for a, b in zip(m, u.coords)), u.denom)


def canonical_divisor(fan: Fan) -> TDivisor:
    """Coefficient -1 on every ray."""
    return TDivisor.from_dict({ray: -1 for ray in fan.rays})


@dataclass(frozen=True)
class ClassGroup:
    """Cokernel of the dual pairing matrix in Smith normal form coordinates.

    A class vector lists torsion coordinates (mod the matching invariant
    factor) followed by free coordinates.
    """

    rays: tuple[LatticePoint, ...]
    rank: int
    torsion: tuple[int, ...]
    _p: IntMatrix
    _diag: tuple[int, ...]

    @cached_property
    def class_of(self) -> dict[LatticePoint, tuple[int, ...]]:
        return {
            ray: self._reduce(self._p.column(i))
            for i, ray in enumerate(self.rays)
        }

    def _reduce(self, y) -> tuple[int, ...]:
        tors = []
        free = []
        for i, v in enumerate(y):
            if i < len(self._diag):
                d = self._diag[i]
                if d == 1:
                    continue
                tors.append(v % d)
            else:
                free.append(v)
        return tuple(tors) + tuple(free)

    def class_vector(self, div: TDivisor) -> tuple[int, ...]:
        y = [0] * len(self.rays)
        index = {ray: i for i, ray in enumerate(self.rays)}
        for ray, c in div.coeffs:
            y[index[ray]] = c
        return self._reduce(self._p.mul_vec(y))

    @property
    def order(self) -> int | None:
        """Group order, or None when the rank is positive."""
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out


def class_group(fan: Fan) -> ClassGroup:
    """Class group of the fan via the Smith form of the pairing matrix."""
    lat = fan.lattice
    mb = dual_basis(lat)
    rays = fan.rays
    a = IntMatrix(
        [
            [int(pairing(mb.column(j), ray)) for j in range(mb.cols)]
            for ray in rays
        ]
    )
    s, p, _ = smith_normal_form(a)
    diag = tuple(s[i][i] for i in range(min(s.rows, s.cols)))
    nonzero = [d for d in diag if d]
    rank = len(rays) - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return ClassGroup(rays, rank, torsion, p, diag)


def class_group_to_json(cg: ClassGroup, canonical: TDivisor | None = None) -> dict:
    data = {
        "rank": cg.rank,
        "torsion": list(cg.torsion),
        "ray_classes": [list(cg.class_of[ray]) for ray in cg.rays],
    }
    if canonical is not None:
        data["canonical_class"] = list(cg.class_vector(canonical))
    return data
