"""Minimal generators of the monoid of lattice points in the orthant cone.

The Hilbert basis is computed from its definition as the set of
irreducible elements of the monoid: they are exactly the minimal elements,
in the componentwise order, of the nonzero group elements together with
the unit vectors (see :func:`hilbert_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupData
from .lattice import LatticePoint


@dataclass(frozen=True)
class HilbertBasis:
    """The unique minimal generating set of the orthant monoid."""

    elements: tuple[LatticePoint, ...]

    def __len__(self) -> int:
        return len(self.elements)


def hilbert_basis(group: GroupData) -> HilbertBasis:
    """Minimal nonzero group elements and unit vectors ``r*e_i``, sorted lex.

    Every irreducible point ``v`` of the monoid is a candidate: if some
    coordinate of ``v`` is at least ``r`` then ``v - r*e_i`` lies in the
    monoid, so ``v = r*e_i``; otherwise all coordinates lie in ``[0, r)``
    and ``v`` is its own fractional part, a group element.

    A candidate ``v`` is reducible exactly when a lattice point ``u`` with
    ``0 <= u <= v`` and ``u != 0, v`` exists.  Every coordinate of such a
    ``u`` is below ``r`` (the only coordinate of a candidate that reaches
    ``r`` is that of ``v = r*e_i``, and ``u`` equal to ``r`` there would be
    ``v``), so ``u`` is its own fractional part: a nonzero group element
    ``g != v`` with ``g <= v``.  The basis is therefore the set of minimal
    candidates.  A candidate above another lies above a minimal one, which
    comes first in lex order, so scanning in lex order and comparing with
    the minimal candidates kept so far decides each candidate exactly.
    """
    candidates = [g for g in group.elements if not g.is_zero()]
    candidates.extend(group.units())
    minimal = []
    for v in sorted(candidates, key=lambda p: p.coords):
        if not any(
            all(a <= b for a, b in zip(h.coords, v.coords)) for h in minimal
        ):
            minimal.append(v)
    return HilbertBasis(tuple(minimal))
