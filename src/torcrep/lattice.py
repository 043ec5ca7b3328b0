"""Scaled lattices for abelian quotient singularities.

The lattice ``N = Z^n + sum Z*ghat`` generated by the fractional
expressions of a group sits inside ``(1/r) Z^n``.  All points are stored
multiplied by the common denominator ``r``, so every coordinate in this
package is an exact integer: a :class:`LatticePoint` with ``coords=(1,2,3)``
and ``denom=6`` is the rational vector ``(1/6)(1,2,3)``.  Its age, the
coordinate sum over the denominator, is an integer on ``N`` as the group
lies in ``SL(n)``.

A :class:`ScaledLattice` keeps a column-Hermite basis of ``r*N`` inside
``Z^n``.  One forward substitution against that basis gives a point's
basis coordinates, or ``None`` off the lattice; membership reads it, a
ray is a point where they have gcd 1 (``ScaledLattice.ray_coords``), and
the quotient ``N / Z*v`` by a ray ``v`` is the integer matrix that projects
them onto ``Z^(n-1)``.  A fan solves each ray once, in ``Fan.ray_coords``.

The package's records are immutable and compare by their fields.  Points
and cones key every dict and set, so they are written by hand with their
hash kept; the others derive from :class:`Record`.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import InputError, InvariantError, TorcrepError
from .intlinalg import IntMatrix, hermite_normal_form


class Record:
    """Immutable record whose fields are its class annotations, in order.

    Built by position or keyword; ``==`` and ``hash`` read every field;
    ``cached_property`` writes ``__dict__`` directly.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # valid when the keywords name fields past the positional ones and all are given
        if (len(args) + len(kwargs) != len(fields)
                or not set(kwargs) <= set(fields[len(args):])):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        self.__dict__.update(zip(fields, args), **kwargs)

    def __setattr__(self, key, value=None):
        raise AttributeError(f"cannot assign to or delete field {key!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"


class LatticePoint:
    """Point of ``(1/denom) Z^n`` stored as scaled integer coordinates."""

    # _hash: the record hash, kept; _age: the age, or None off N; neither is a field
    __slots__ = ("coords", "denom", "_hash", "_age")

    def __init__(self, coords, denom: int):
        coords = tuple(coords)
        if not _INT.issuperset(map(type, coords)):
            raise TypeError(f"coordinates must be integers, got {coords!r}")
        if type(denom) is not int:
            raise TypeError(f"denominator must be an integer, got {denom!r}")
        if denom < 1:
            raise ValueError("denominator must be positive")
        age, rest = divmod(sum(coords), denom)
        _set_coords(self, coords)
        _set_denom(self, denom)
        _set_hash(self, hash((coords, denom)))
        _set_age(self, None if rest else age)

    __setattr__ = __delattr__ = Record.__setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords and self.denom == other.denom

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LatticePoint(coords={self.coords!r}, denom={self.denom!r})"

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def age(self) -> int:
        """Coordinate sum divided by the denominator, an integer for a point of ``N``."""
        # a point of N has an integral age; the API can make a point off N, and reach this
        if self._age is None:
            raise InvariantError(f"{self} has non-integral age")
        return self._age

    def __str__(self) -> str:
        body = ",".join(map(str, self.coords))
        if self.denom == 1:
            return f"({body})"
        return f"(1/{self.denom})({body})"


_INT = frozenset({int})
# the slots' own setters: __setattr__ refuses, and object.__setattr__ looks each name up
_set_coords, _set_denom, _set_hash, _set_age = (
    LatticePoint.__dict__[s].__set__ for s in LatticePoint.__slots__)


def unit_point(i: int, n: int, denom: int) -> LatticePoint:
    """The standard basis vector ``e_i`` scaled into denominator ``denom``."""
    return LatticePoint(tuple(denom if j == i else 0 for j in range(n)), denom)


class ScaledLattice(Record):
    """Lattice ``N`` with ``Z^n <= N <= (1/denom) Z^n``.

    ``basis`` is an n-by-n column Hermite form whose columns span
    ``denom * N`` inside ``Z^n``.
    """

    dim: int
    denom: int
    basis: IntMatrix

    @cached_property
    def det(self) -> int:
        return abs(self.basis.det())

    @cached_property
    def index_over_std(self) -> int:
        """Index ``[N : Z^n]``; equals the group order."""
        return self.denom**self.dim // self.det

    def units(self) -> tuple[LatticePoint, ...]:
        return tuple(unit_point(i, self.dim, self.denom) for i in range(self.dim))

    def coords_or_none(self, p: LatticePoint) -> tuple[int, ...] | None:
        """Basis coordinates of ``p``, or None when ``p`` is off the lattice."""
        # forward substitution against the lower-triangular Hermite basis
        if p.denom != self.denom:
            raise TorcrepError(
                f"point denom {p.denom} differs from lattice denom {self.denom}"
            )
        b = self.basis.data
        x = []
        for i in range(self.dim):
            acc = p.coords[i] - sum(b[i][j] * x[j] for j in range(i))
            if acc % b[i][i]:
                return None
            x.append(acc // b[i][i])
        return tuple(x)

    def contains(self, p: LatticePoint) -> bool:
        return self.coords_or_none(p) is not None

    def ray_coords(self, p: LatticePoint) -> tuple[int, ...]:
        """Basis coordinates of a ray: a primitive point of the lattice, InputError otherwise."""
        x = self.coords_or_none(p)
        if x is None:
            raise InputError(f"ray {p} is not a lattice point")
        if gcd(*x) != 1:
            raise InputError(f"ray {p} is not primitive")
        return x


def generator_fault(coords, r: int, n: int | None) -> str | None:
    """The first rule of a generator ``r:(a1,...,an)`` of a group in ``SL(n)`` that
    ``coords`` breaks, or None: each ``ai`` in ``[0, r)``, ``sum ai = 0 mod r``
    (determinant one), and ``n`` coordinates unless ``n`` is None."""
    if any(a < 0 or a >= r for a in coords):
        return f"coordinates must lie in [0, {r})"
    if sum(coords) % r:
        return f"coordinate sum {sum(coords)} is not 0 mod {r}"
    if n is not None and len(coords) != n:
        return f"dimension {len(coords)} differs from {n}"
    return None


def build_lattice(gens, n: int, denom: int) -> ScaledLattice:
    """Hermite basis of ``Z^n + sum Z*g`` for scaled generators ``gens``.

    Each generator has denominator ``denom`` and keeps the rules of
    :func:`generator_fault`; none is reduced mod ``denom``.
    """
    if type(denom) is not int or denom < 1:
        raise InputError(f"denominator must be a positive integer, got {denom!r}")
    cols = [tuple(denom if j == i else 0 for j in range(n)) for i in range(n)]
    for g in gens:
        if g.denom != denom:
            raise TorcrepError("generators must share one denominator")
        if fault := generator_fault(g.coords, denom, n):
            raise InputError(f"generator {g}: {fault}")
        cols.append(g.coords)
    h = hermite_normal_form(cols)
    # the columns span a lattice of rank n, and a Hermite form puts its zero columns last
    if any(any(c) for c in h[n:]):
        raise InvariantError("Hermite form left extra columns")
    basis = IntMatrix(zip(*h[:n]))
    # the columns r*e_i alone span a full-rank lattice, so the n nonzero columns do too
    if basis.det() == 0:
        raise InvariantError("lattice basis is singular")
    return ScaledLattice(n, denom, basis)


def quotient_by_ray(v: LatticePoint, w: tuple[int, ...]) -> IntMatrix:
    """Projection of basis coordinates onto ``N / Z*v = Z^(n-1)``, ``v`` primitive.

    ``w`` is ``v`` in basis coordinates; the kernel is exactly the line through it.
    """
    if gcd(*w) != 1:
        raise TorcrepError(f"{v} is not primitive")
    # the Hermite form of w over the identity is [w u; u] with u unimodular;
    # w u = e_1 as w is primitive, so the lower blocks of the other columns
    # are the Hermite basis of the annihilator of w, which maps N onto Z^(n-1)
    units = IntMatrix.identity(len(w)).data
    h = hermite_normal_form([(w_j, *e_j) for w_j, e_j in zip(w, units)])
    # w u = e_1 as w is primitive, so every other column has a zero first entry
    if any(col[0] for col in h[1:]):
        raise InvariantError(f"quotient by {v} does not have {v} in its kernel")
    return IntMatrix([col[1:] for col in h[1:]])
