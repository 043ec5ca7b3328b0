"""Minimal generators of the monoid of lattice points in the orthant cone.

The basis is built one age layer at a time (:func:`hilbert_basis`), the
degree-ordered reduction of Bruns-Ichim (*Normaliz: algorithms for affine
monoids and rational cones*, J. Algebra 324, 2010).  The layers are the
group's one age split, ``GroupData.ages``, which the element names read too:

- every nonzero orthant point of ``N`` has an integer age of at least 1,
  because ``G`` lies in SL;
- if ``v = u + u'`` with ``u`` and ``u'`` nonzero, then some basis element
  ``b <= u`` has ``age b <= age u < age v``;
- conversely, if ``b <= v`` with ``b != v``, then ``v - b`` is a nonzero
  monoid point, so ``v`` is reducible.

So every point of age 1 (a junior or a unit) is in the basis, and a
candidate of higher age is in it exactly when no basis element of lower
age lies below it.  A unit ``r*e_i`` has a coordinate equal to ``r`` and
every candidate's coordinates are below ``r``, so no unit lies below a
candidate: the units join at the end and take part in no comparison.

A layer meets one lower basis element ``b`` in one pass of big-integer
arithmetic (Lamport, *Multiple byte processing with full-word
instructions*, CACM 1975).  Coordinates in ``[0, r)`` are packed into
``n`` fields of ``w = r.bit_length() + 1`` bits, whose top bits
``2^(w-1) > r`` are guards.  The layer's candidates ``v^0, v^1, ...``,
each with its guards set, fill slots of whole bytes: the ``n`` fields and
at least one spare bit above them, whose top bit is ``top``.  Less ``b``
times ``ones`` (1 at each slot start), field ``i`` of slot ``k`` holds
``v^k_i + 2^(w-1) - b_i``, in ``(0, 2^w)`` as ``0 <= b_i, v^k_i < r <
2^(w-1)``: no field borrows, and its guard is set exactly when
``v^k_i >= b_i``.  The guards kept, subtracted from all guards plus
``top - 1``, leave in slot ``k`` a value in ``[top - 1, 2*top)``, again
without borrows, whose bit ``top`` is set exactly when some guard is
clear, that is when ``b`` is not below ``v^k``.  ANDed over the passes,
bit ``top`` of slot ``k`` stays set exactly while no basis element below
``v^k`` has been met.  The passes stop as soon as no slot keeps its bit,
and the candidates whose slots keep it join the basis.

In ``n <= 3`` no layer above the juniors is tested:

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
    candidates.  They are found one layer of ``group.ages`` at a time (module
    docstring): all the juniors, then in each higher layer, by increasing
    age, those above no basis element of lower age, tested by one packed pass
    over the whole layer per lower basis element until no candidate of the
    layer is left.  In ``n <= 3`` the layers stop at the juniors.
    """
    n, w = group.n, group.r.bit_length() + 1
    basis = list(group.ages[1])
    if n > 3:
        shifts = [i * w for i in range(n)]
        guard = sum(1 << (s + w - 1) for s in shifts)
        size = n * w // 8 + 1  # bytes per slot: n fields and a spare top bit
        top = 1 << (8 * size - 1)
        below = [sum(map(lshift, b.coords, shifts)) for b in basis]
        for layer in group.ages[2:]:
            slots = b"".join([sum(map(lshift, v.coords, shifts), guard).to_bytes(size, "little")
                              for v in layer])
            packed = int.from_bytes(slots, "little")
            ones = int.from_bytes(b"\1".ljust(size, b"\0") * len(layer), "little")
            guards, fill, alive = guard * ones, (guard + top - 1) * ones, top * ones
            for b in below:
                if not alive:
                    break
                alive &= fill - ((packed - b * ones) & guards)
            flags = alive.to_bytes(len(slots), "little")[size - 1::size]
            kept = [v for v, f in zip(layer, flags) if f]
            basis += kept
            below += [sum(map(lshift, v.coords, shifts)) for v in kept]
    basis += group.lattice.units()
    return tuple(sorted(basis, key=lambda p: p.coords))
