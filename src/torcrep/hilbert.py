"""Minimal generators of the monoid of lattice points in the orthant cone.

Candidates are restricted to the group elements plus the unit vectors,
which provably contain the Hilbert basis; irreducibility of a candidate
is decided by an exhaustive decomposition search over the lattice points
of the box below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import NotInCone
from .groups import GroupData
from .lattice import LatticePoint


def box_lattice_points(group: GroupData, v: LatticePoint) -> list[LatticePoint]:
    """Lattice points ``u`` with ``0 <= u <= v`` componentwise, sorted lex.

    Every point of the lattice is a group element plus an integer vector,
    so the box is enumerated residue class by residue class.
    """
    r = group.r
    out = []
    for e in group.elements:
        ranges = []
        for ec, vc in zip(e.coords, v.coords):
            top = (vc - ec) // r
            if top < 0:
                ranges = None
                break
            ranges.append(range(0, top + 1))
        if ranges is None:
            continue
        for shift in product(*ranges):
            out.append(
                LatticePoint(
                    tuple(ec + r * z for ec, z in zip(e.coords, shift)), r
                )
            )
    out.sort(key=lambda p: p.coords)
    return out


def is_irreducible(group: GroupData, v: LatticePoint):
    """Decide irreducibility; on failure also return the smallest witness.

    Returns ``(True, None)`` or ``(False, (u, v - u))`` with ``u`` the
    lexicographically smallest nonzero decomposition part.
    """
    if v.is_zero() or any(c < 0 for c in v.coords):
        raise NotInCone(f"{v} is not a nonzero point of the orthant")
    if not group.lattice.contains(v):
        raise NotInCone(f"{v} is not a lattice point")
    for u in box_lattice_points(group, v):
        if u.is_zero() or u == v:
            continue
        w = LatticePoint(
            tuple(a - b for a, b in zip(v.coords, u.coords)), group.r
        )
        return False, (u, w)
    return True, None


@dataclass(frozen=True)
class HilbertBasis:
    """The unique minimal generating set of the orthant monoid."""

    elements: tuple[LatticePoint, ...]

    @cached_property
    def element_set(self) -> frozenset[LatticePoint]:
        return frozenset(self.elements)

    @cached_property
    def ages(self) -> dict[LatticePoint, Fraction]:
        return {p: p.age for p in self.elements}

    def __len__(self) -> int:
        return len(self.elements)


def hilbert_basis(group: GroupData) -> HilbertBasis:
    """Irreducible elements among the group elements and unit vectors."""
    candidates = {g for g in group.elements if not g.is_zero()}
    candidates.update(group.units())
    keep = []
    for v in sorted(candidates, key=lambda p: p.coords):
        ok, _ = is_irreducible(group, v)
        if ok:
            keep.append(v)
    return HilbertBasis(tuple(keep))
