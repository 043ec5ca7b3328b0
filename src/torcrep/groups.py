"""Finite abelian diagonal subgroups of SL(n, C) as sets of fractional vectors.

A group element ``diag(eps^a1, ..., eps^an)`` of order dividing ``r`` is
stored as the scaled fractional expression ``(a1, ..., an)`` with
denominator ``r``.  The whole group is the closure of its generators
under componentwise addition mod r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .errors import DimensionMismatch, ExplosionGuard, InvariantError, NotInSL
from .lattice import LatticePoint, ScaledLattice, build_lattice, unit_point

DEFAULT_MAX_ELEMENTS = 10**6


@dataclass(frozen=True)
class GroupData:
    """The set ``Ghat`` of fractional expressions, closed under addition mod r."""

    n: int
    r: int
    elements: tuple[LatticePoint, ...]
    generators: tuple[LatticePoint, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def lattice(self) -> ScaledLattice:
        lat = build_lattice(self.generators, self.n, self.r)
        if lat.index_over_std != self.order:
            raise InvariantError("lattice index must equal #G")
        return lat

    @cached_property
    def juniors(self) -> tuple[LatticePoint, ...]:
        return tuple(g for g in self.elements if g.age == 1)

    def units(self) -> tuple[LatticePoint, ...]:
        return tuple(unit_point(i, self.n, self.r) for i in range(self.n))


def _normalize_generators(generators, n):
    """Rescale to the lcm of the element orders and reduce mod r."""
    r0 = lcm(*(g.denom for g in generators))
    scaled = []
    for g in generators:
        if g.dim != n:
            raise DimensionMismatch(
                f"generator {g} has dimension {g.dim}, expected {n}"
            )
        coords = tuple(c * (r0 // g.denom) % r0 for c in g.coords)
        if sum(coords) % r0:
            raise NotInSL(f"generator {g}: coordinate sum is not 0 mod {g.denom}")
        scaled.append(coords)
    d = r0
    for coords in scaled:
        for c in coords:
            d = gcd(d, c)
    r = r0 // d
    return [LatticePoint(tuple(c // d for c in coords), r) for coords in scaled], r


def close_group(generators, n: int | None = None, *,
                max_elements: int = DEFAULT_MAX_ELEMENTS) -> GroupData:
    """Smallest set containing the generators and 0, closed under + mod r."""
    generators = list(generators)
    if not generators:
        if n is None:
            raise DimensionMismatch("dimension required for the trivial group")
        zero = LatticePoint((0,) * n, 1)
        return GroupData(n, 1, (zero,), ())
    if n is None:
        n = generators[0].dim
    gens, r = _normalize_generators(generators, n)
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    gen_coords = [g.coords for g in gens]
    while frontier:
        nxt = []
        for base in frontier:
            for g in gen_coords:
                cand = tuple((a + b) % r for a, b in zip(base, g))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
                    if len(seen) > max_elements:
                        raise ExplosionGuard(
                            f"group closure exceeded {max_elements} elements"
                        )
        frontier = nxt
    elements = tuple(LatticePoint(c, r) for c in sorted(seen))
    return GroupData(n, r, elements, tuple(gens))


def compact_juniors(group: GroupData) -> tuple[LatticePoint, ...]:
    """Juniors whose fractional expressions have all coordinates positive."""
    return tuple(g for g in group.juniors if all(c > 0 for c in g.coords))


@dataclass(frozen=True)
class ObstructionReport:
    """Crepant-existence obstructions; either flag excludes a crepant resolution."""

    not_generated_by_juniors: bool
    hilbert_basis_contains_seniors: bool

    @property
    def crepant_excluded(self) -> bool:
        return self.not_generated_by_juniors or self.hilbert_basis_contains_seniors


def crepant_obstructions(group: GroupData, hlb) -> ObstructionReport:
    """Check the two senior-element obstructions against the Hilbert basis."""
    # [Z^n + sum Z*h : Z^n] over the juniors h is the order of their subgroup.
    # Each junior outside the lattice so far at least doubles the index, so
    # at most log2 #G of them enter and the Hermite forms stay small.
    gens = []
    lattice = build_lattice(gens, group.n, group.r)
    for h in group.juniors:
        if not lattice.contains(h):
            gens.append(h)
            lattice = build_lattice(gens, group.n, group.r)
    generated = lattice.index_over_std == group.order
    seniors_in_basis = any(p.age > 1 for p in hlb.elements)
    return ObstructionReport(
        not_generated_by_juniors=not generated,
        hilbert_basis_contains_seniors=seniors_in_basis,
    )


def element_names(group: GroupData) -> dict[LatticePoint, str]:
    """Stable names g1, g2, ... for nonzero elements, by age then lex.

    Juniors always occupy the initial prefix since they sort first by age.
    """
    nonzero = [g for g in group.elements if not g.is_zero()]
    nonzero.sort(key=lambda g: (g.age, g.coords))
    return {g: f"g{i + 1}" for i, g in enumerate(nonzero)}
