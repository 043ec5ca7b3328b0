"""Minimal generators of the monoid of lattice points in the orthant cone.

The basis is the minimal candidates (:func:`hilbert_basis`); each
candidate meets all minimal ones kept so far in one big-integer
subtraction (Lamport, *Multiple byte processing with full-word
instructions*, CACM 1975).  Points with coordinates in ``[0, r]`` are
packed into ``n`` fields of ``w = r.bit_length() + 1`` bits, whose top
bits ``2^(w-1) > r`` are guards; the kept ``h^0, h^1, ...`` fill slots of
``n*w`` bits.  The candidate ``v`` with its guards set is below
``2^(n*w)``, so times ``ones`` (1 at each slot start) it repeats
``v_i + 2^(w-1)`` in field ``i`` of every slot without carries.  Less the
kept elements, field ``i`` of slot ``k`` holds ``v_i + 2^(w-1) - h^k_i``,
in ``(0, 2^w)`` as ``0 <= h^k_i, v_i <= r < 2^(w-1)``: no field borrows,
and its guard is set exactly when ``v_i >= h^k_i``.  ANDing the guards of
fields ``1 .. n-1`` onto field 0 (``n - 1`` shifts inside the slot) sets
the guard of field 0 of slot ``k`` exactly when ``h^k <= v``; ``v`` is
minimal when every slot has a failing field.

In ``n <= 3`` the basis is the juniors and the units, read off the ages:

- age is additive, integral on ``N`` (``G`` lies in SL) and at least 1
  on the orthant's nonzero points, so a point of age 1 is irreducible;
- a candidate other than a unit has coordinates below ``r``, so its age
  is at most ``n - 1 <= 2``;
- a point of age 2 is a sum of two of age 1, as lattice polygons and
  segments are normal (Bruns-Gubeladze, *Polytopes, Rings, and
  K-Theory*, 2009).
"""

from __future__ import annotations

from operator import lshift

from .groups import GroupData
from .lattice import LatticePoint


def hilbert_basis(group: GroupData) -> tuple[LatticePoint, ...]:
    """Minimal nonzero group elements and unit vectors ``r*e_i``, sorted lex.

    An irreducible ``v`` with a coordinate ``>= r`` is ``r*e_i``, since
    ``v - r*e_i`` lies in the monoid; otherwise ``v`` is its own fractional
    part, a group element.  A candidate ``v`` is reducible exactly when a
    lattice point ``u != 0, v`` with ``0 <= u <= v`` exists; every
    coordinate of ``u`` is below ``r`` (only ``r*e_i`` reaches ``r``, and
    ``u`` would be it), so ``u`` is a group element: the basis is the minimal
    candidates.  In ``n <= 3`` they are the juniors and the units (module
    docstring).  Otherwise a candidate above another lies above a minimal
    one, earlier in lex order, so one lex scan against the kept minimal
    ones suffices.
    """
    n, w = group.n, group.r.bit_length() + 1
    if n <= 3:
        return tuple(sorted(group.juniors + group.lattice.units(), key=lambda p: p.coords))
    candidates = [g for g in group.elements if not g.is_zero()]
    candidates.extend(group.lattice.units())
    candidates.sort(key=lambda p: p.coords)
    minimal = []
    first = 1 << (w - 1)
    shifts = [i * w for i in range(n)]
    guard = sum(first << s for s in shifts)
    kept = ones = guards = firsts = 0
    for v in candidates:
        packed = sum(map(lshift, v.coords, shifts))
        passed = ((packed | guard) * ones - kept) & guards
        below = passed
        for i in range(1, n):
            below &= passed >> (i * w)
        if below & firsts:
            continue
        shift = len(minimal) * n * w
        kept |= packed << shift
        ones |= 1 << shift
        guards, firsts = guard * ones, first * ones
        minimal.append(v)
    return tuple(minimal)
