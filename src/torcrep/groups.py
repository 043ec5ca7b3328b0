"""Finite abelian diagonal subgroups of SL(n, C) as sets of fractional vectors.

A group element ``diag(eps^a1, ..., eps^an)`` of order dividing ``r`` is
stored as the scaled fractional expression ``(a1, ..., an)`` with
denominator ``r``.  The whole group is the closure of its generators
under componentwise addition mod r, built coset by coset and sorted lex.
It is split by age once (``GroupData.ages``), each layer in lex order:
elements are named ``g1, g2, ...`` layer by layer, so by age, then lex.
"""

from __future__ import annotations

import gc
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add, mod

from .errors import InputError, InvariantError
from .lattice import LatticePoint, Record, ScaledLattice, build_lattice, generator_fault

MAX_ELEMENTS = 10**6  # closure limit, read at each call


class GroupData(Record):
    """The set ``Ghat`` of fractional expressions, closed under addition mod r."""

    n: int
    r: int
    elements: tuple[LatticePoint, ...]
    generators: tuple[LatticePoint, ...]
    lattice: ScaledLattice

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def ages(self) -> tuple[tuple[LatticePoint, ...], ...]:
        """The elements of age 0, 1, ..., n, each layer in lex order; layer 0 is the zero."""
        layers = [[] for _ in range(self.n + 1)]  # ages 0 .. n - 1, and layer 1 when n = 1
        for g in self.elements:
            layers[g.age].append(g)
        return tuple(map(tuple, layers))

    @property
    def juniors(self) -> tuple[LatticePoint, ...]:
        return self.ages[1]


def _normalize_generators(generators, n):
    """Check each generator, then rescale all to the lcm of the element orders."""
    for g in generators:
        if fault := generator_fault(g.coords, g.denom, n):
            raise InputError(f"generator {g}: {fault}")
    r0 = lcm(*(g.denom for g in generators))
    scaled = [tuple(c * (r0 // g.denom) for c in g.coords) for g in generators]
    d = gcd(r0, *chain.from_iterable(scaled))
    r = r0 // d
    return [LatticePoint(tuple(c // d for c in coords), r) for coords in scaled], r


def closure(gens, r: int):
    """Nonzero elements of the subgroup of ``(Z/r)^k`` generated by ``gens``.

    Coset by coset: with ``H`` the subgroup of the generators so far, the
    next generator ``g`` adds the cosets ``H + k*g`` for ``k = 1, 2, ...``
    up to the first ``k*g`` in ``H``.  These cosets are disjoint, so each
    element is built once and yielded as it is built, and a caller may
    stop at the first one it rejects.
    """
    gens = [tuple(c % r for c in g) for g in gens]
    rs = (r,) * len(gens[0])
    subgroup = [(0,) * len(gens[0])]
    seen = set(subgroup)
    for g in gens:
        shift, cosets = g, []
        while shift not in seen:
            if len(subgroup) == 1:  # H = {0}: the coset is k*g itself
                cosets.append(shift)
                yield shift
            else:
                coset = [tuple(map(mod, map(add, h, shift), rs)) for h in subgroup]
                cosets += coset
                yield from coset
            shift = tuple(map(mod, map(add, shift, g), rs))
        subgroup += cosets
        seen.update(cosets)


def close_group(generators, n: int | None = None) -> GroupData:
    """Smallest set containing the generators and 0, closed under + mod r; a dimension
    ``n`` that is not a positive int, or a generator that breaks a rule of
    ``generator_fault``, is an InputError, and no generator is reduced mod r."""
    generators = list(generators)
    if n is not None and (type(n) is not int or n < 1):
        raise InputError(f"dimension must be a positive integer, got {n!r}")
    if not generators:
        if n is None:
            raise InputError("dimension required for the trivial group")
        zero = LatticePoint((0,) * n, 1)
        return GroupData(n, 1, (zero,), (), build_lattice([], n, 1))
    if n is None:
        n = generators[0].dim
    gens, r = _normalize_generators(generators, n)
    # the group order is the lattice index, known before any enumeration
    lattice = build_lattice(gens, n, r)
    order = lattice.index_over_std
    if order > MAX_ELEMENTS:
        raise InputError(
            f"group of order {order} exceeds the closure limit of "
            f"{MAX_ELEMENTS} elements"
        )
    # the tuples and points hold no reference cycles, so the cyclic collector,
    # which would scan them at each threshold as they are allocated, is paused
    collecting = gc.isenabled()
    gc.disable()
    try:
        coords = sorted([(0,) * n, *closure([g.coords for g in gens], r)])
        # the closure of the generators is N / Z^n, whose size is the lattice index
        if len(coords) != order:
            raise InvariantError("lattice index must equal #G")
        elements = tuple([LatticePoint(c, r) for c in coords])
    finally:
        if collecting:
            gc.enable()
    return GroupData(n, r, elements, tuple(gens), lattice)


def compact_juniors(group: GroupData) -> tuple[LatticePoint, ...]:
    """Juniors whose fractional expressions have all coordinates positive."""
    return tuple(g for g in group.juniors if all(c > 0 for c in g.coords))


class ObstructionReport(Record):
    """Crepant-existence obstructions; either flag excludes a crepant resolution."""

    not_generated_by_juniors: bool
    hilbert_basis_contains_seniors: bool


def crepant_obstructions(group: GroupData, hlb) -> ObstructionReport:
    """Check the two senior-element obstructions against the Hilbert basis."""
    # [Z^n + sum Z*h : Z^n] over the juniors h is the order of their subgroup.
    # Each junior outside the lattice so far at least doubles the index, so
    # at most log2 #G of them enter and the Hermite forms stay small.
    gens = []
    lattice = build_lattice(gens, group.n, group.r)
    for h in group.juniors:
        if lattice.index_over_std == group.order:
            break  # the juniors so far generate G
        if not lattice.contains(h):
            gens.append(h)
            lattice = build_lattice(gens, group.n, group.r)
    generated = lattice.index_over_std == group.order
    seniors_in_basis = any(p.age > 1 for p in hlb)
    return ObstructionReport(
        not_generated_by_juniors=not generated,
        hilbert_basis_contains_seniors=seniors_in_basis,
    )


def element_names(group: GroupData) -> dict[LatticePoint, str]:
    """Stable names g1, g2, ... for nonzero elements, by age then lex.

    They read the age layers above 0 in turn, so the juniors come first.
    """
    nonzero = chain.from_iterable(group.ages[1:])
    return {g: f"g{i}" for i, g in enumerate(nonzero, 1)}
