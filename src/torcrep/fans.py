"""Simplicial rational cones and fans over a scaled lattice.

Cones are given by their primitive ray generators; a fan stores only its
maximal cones and derives faces on demand.  All membership and volume
computations are exact.  Each full-dimensional cone caches its facet
normals, which answer membership, the cone's index and its volume.  The
fans torcrep reads refine the orthant, and ``validate_fan`` checks one rule
for them: the support volume is the orthant's and the facets pair up.

A star subdivision gives each new cone its normals by a fraction-free
pivot (Bareiss 1968).  Let ``A`` be the parent's rays, ``d = |det A|``,
``H = d * A^-1`` with rows ``h_j``, and ``b = H * mu``; the child ``A'``
puts ``mu`` for ray ``i``, with ``b_i > 0``.  As ``mu = A b / d``,
``d' = |det A'| = b_i > 0``, which proves the child's rays independent.
Its rows are ``h_i`` for ``mu`` and ``(b_i * h_j - b_j * h_i) / d`` for a
kept ray ``j``: each meets its own ray in ``b_i`` and the others in 0, so
they are ``d' * A'^-1``, the adjugate of ``A'`` up to sign, whose entries
are cofactors; so each division by ``d`` is exact.

The JSON interchange schema for fans is::

    {"lattice": {"n": ..., "r": ..., "basis": [[row], ...]},
     "rays": [[scaled ints], ...],          # sorted lexicographically
     "maximal_cones": [[ray indices], ...]} # each sorted, list sorted

which is bit-exact across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from .errors import (
    InvalidFan,
    InvariantError,
    NotInLattice,
    NotInSupport,
    NotPrimitive,
)
from .groups import closure
from .intlinalg import IntMatrix, hermite_normal_form, rank, smith_normal_form, solve
from .lattice import LatticePoint, ScaledLattice


@dataclass(frozen=True)
class Cone:
    """Simplicial cone spanned by pairwise-distinct, independent rays."""

    rays: tuple[LatticePoint, ...]

    @property
    def dim(self) -> int:
        return len(self.rays)

    @cached_property
    def ray_set(self) -> frozenset[LatticePoint]:
        return frozenset(self.rays)

    @cached_property
    def facet_normals(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, d)``: rows of ``d * A^-1``, ``d = |det A|``, ``A`` the rays.

        ``A`` must be square; row ``i`` is the inner normal of the facet
        opposite ray ``i``.  Star subdivisions keep or pivot them (below).
        """
        mat = IntMatrix.from_columns([r.coords for r in self.rays])
        cols, d = solve(mat, IntMatrix.identity(self.dim).columns())
        return tuple(zip(*cols)), d

    def __str__(self) -> str:
        return "Cone(" + ", ".join(str(r) for r in self.rays) + ")"


def make_cone(points) -> Cone:
    """Canonical cone from ray generators; checks simpliciality."""
    rays = tuple(sorted(set(points), key=lambda p: p.coords))
    if rays:
        mat = IntMatrix.from_columns([r.coords for r in rays])
        if rank(mat) != len(rays):
            raise ValueError("rays are linearly dependent; cone is not simplicial")
    return Cone(rays)


def contains_point(cone: Cone, p: LatticePoint) -> bool:
    """Exact membership test."""
    if not cone.rays:
        return p.is_zero()
    bary = barycentric(cone, p)
    return bary is not None and all(x >= 0 for x in bary[0])


def barycentric(cone: Cone, p: LatticePoint) -> tuple[tuple[int, ...], int] | None:
    """Coefficients of ``p`` over the cone's rays as ``(numerators, d)``.

    ``p = sum(numerators[i] / d * rays[i])`` with ``d > 0``, so signs of
    the coefficients are signs of the numerators; None if ``p`` is not in
    the span of the rays.  Solving ``(s*A) x = t*p`` (``A`` the rays,
    ``s = pd/g``, ``t = rd/g``) gives ``d = s^n * |det A|`` and numerators
    ``s^(n-1) * t`` times the facet normals dotted with ``p``.
    """
    rd, pd = cone.rays[0].denom, p.denom
    g = gcd(rd, pd)
    s, t = pd // g, rd // g
    if cone.dim == p.dim == cone.rays[0].dim:
        rows, d = cone.facet_normals
        scale = s ** (cone.dim - 1) * t
        nums = tuple(scale * sum(x * y for x, y in zip(h, p.coords)) for h in rows)
        return nums, s ** cone.dim * d
    mat = IntMatrix.from_columns([tuple(s * c for c in r.coords) for r in cone.rays])
    sol = solve(mat, [tuple(t * c for c in p.coords)])
    return None if sol is None else (sol[0][0], sol[1])


def ray_matrix(cone: Cone, lattice: ScaledLattice) -> IntMatrix:
    """Ray generators in lattice-basis coordinates, as columns."""
    return IntMatrix.from_columns([lattice.basis_coords(r) for r in cone.rays])


def cone_index(cone: Cone, lattice: ScaledLattice) -> int:
    """Index ``[N ∩ span(c) : Z<rays>]``; 1 exactly for smooth cones.

    For a full-dimensional cone the rays are ``A = B X`` (``B`` the lattice
    basis, ``X`` the basis coordinates), so the index ``|det X|`` is
    ``|det A| / |det B|``, read off the cached facet normals.
    """
    if cone.dim == lattice.dim:
        return cone.facet_normals[1] // lattice.det
    s, _, _ = smith_normal_form(ray_matrix(cone, lattice))
    prod = 1
    for i in range(min(s.rows, s.cols)):
        if s[i][i]:
            prod *= s[i][i]
    return prod


def is_smooth_cone(cone: Cone, lattice: ScaledLattice) -> bool:
    return cone_index(cone, lattice) == 1


def _saturation_coords(cone: Cone, lattice: ScaledLattice) -> IntMatrix:
    """Ray coordinates in a basis of ``N ∩ span(c)`` (a d-by-d matrix)."""
    mat = ray_matrix(cone, lattice)
    d = cone.dim
    if d == lattice.dim:
        return mat
    _, p, _ = smith_normal_form(mat)
    top = (p * mat).data[:d]
    return IntMatrix(top)


def is_terminal(cone: Cone, lattice: ScaledLattice) -> bool:
    """Reid-Tai: every nonzero element of the cone's local group has age > 1.

    With ``x`` the rays in a basis of ``N ∩ span(c)`` and ``(cols, d)`` from
    ``solve(x, I)``, the local group ``N ∩ span(c) / Z<rays>`` is the
    ``closure`` of the columns ``cols`` under addition mod ``d``: an
    element is ``d`` times the fractional parts of a point's barycentric
    coordinates, and its age is its coordinate sum over ``d``.  A lattice point of
    ``Conv(0, rays)`` other than a vertex has barycentric coordinates in
    ``[0, 1)`` (a coordinate 1 forces a vertex) summing to at most 1, so it
    is a nonzero element of age <= 1; conversely such an element is the
    point ``sum(lambda_i * ray_i)`` of ``Conv(0, rays)``, which is not a
    vertex.  A smooth cone has ``d = 1`` and the group ``{0}``, so a
    full-dimensional one, read off its cached normals, is terminal at once.
    """
    if cone.dim == lattice.dim and is_smooth_cone(cone, lattice):
        return True
    x = _saturation_coords(cone, lattice)
    cols, d = solve(x, IntMatrix.identity(cone.dim).columns())
    return all(sum(g) > d for g in closure(cols, d))


@dataclass(frozen=True)
class Fan:
    """Fan given by its maximal cones over a shared lattice."""

    lattice: ScaledLattice
    maximal_cones: tuple[Cone, ...]

    @cached_property
    def rays(self) -> tuple[LatticePoint, ...]:
        return tuple(sorted(self.cones_through, key=lambda p: p.coords))

    @cached_property
    def ray_set(self) -> frozenset[LatticePoint]:
        return frozenset(self.rays)

    @cached_property
    def cones_through(self) -> dict[LatticePoint, tuple[Cone, ...]]:
        """Each ray's maximal cones, in fan order."""
        index: dict[LatticePoint, list[Cone]] = {}
        for c in self.maximal_cones:
            for r in c.rays:
                index.setdefault(r, []).append(c)
        return {r: tuple(cs) for r, cs in index.items()}

    def two_cones(self) -> tuple[Cone, ...]:
        seen = set()
        for c in self.maximal_cones:
            for pair in combinations(c.rays, 2):
                seen.add(Cone(tuple(sorted(pair, key=lambda p: p.coords))))
        return tuple(sorted(seen, key=lambda c: tuple(r.coords for r in c.rays)))

    @cached_property
    def is_smooth(self) -> bool:
        return all(is_smooth_cone(c, self.lattice) for c in self.maximal_cones)


def make_fan(lattice: ScaledLattice, cones) -> Fan:
    ordered = tuple(
        sorted(set(cones), key=lambda c: tuple(r.coords for r in c.rays))
    )
    return Fan(lattice, ordered)


def sigma_fan(lattice: ScaledLattice) -> Fan:
    """The fan of the quotient singularity: the positive orthant cone."""
    return make_fan(lattice, [make_cone(lattice.units())])


def validate_fan(fan: Fan) -> None:
    """Check that the cones form a fan whose support is the orthant.

    In order: the rays are primitive lattice points, every cone is
    full-dimensional, every ray lies in the closed orthant, the support
    volume equals the group order ``[N : Z^n]`` (the orthant's), and the
    facets pair up: a facet inside a coordinate hyperplane belongs to one
    cone, every other facet to exactly two, on opposite sides of it.
    Raises InvalidFan, naming the ray, cone or facet, on the first failure.

    These conditions hold for a fan with the orthant as support, and they
    imply one (the pseudo-manifold characterisation, De Loera-Rambau-Santos,
    *Triangulations*, §4.5).  The cones lie in the orthant.  Let
    ``m(y)`` count the cones whose interior holds ``y``.  Crossing a
    hyperplane at a general point ``w`` inside the orthant, a cone with
    ``w`` inside counts on both sides, and a cone with ``w`` on a facet
    counts on one side and its partner across that facet on the other; so
    ``m`` is constant off a set of codimension 2, which does not disconnect
    the interior.  Summing volumes, ``m`` times the orthant's volume is the
    support volume, so ``m = 1``: the cones cover the orthant with disjoint
    interiors.  Let ``x`` lie in cones ``C`` and ``D``.  A general path
    near ``x`` from inside ``C`` to inside ``D`` crosses only facets
    through ``x``, each from a cone to its partner (``m = 1``), and two
    cones sharing a facet through ``x`` have the same smallest face holding
    ``x``.  So that face is common to ``C`` and ``D``, and ``C ∩ D`` is the
    cone on their common rays.
    """
    lat = fan.lattice
    n = lat.dim
    for p in fan.rays:
        if not lat.contains(p):
            raise InvalidFan(f"ray {p} is not a lattice point")
        if not lat.is_primitive(p):
            raise InvalidFan(f"ray {p} is not primitive")
    for c in fan.maximal_cones:
        if c.dim != n:
            raise InvalidFan(
                f"cone {c} has dimension {c.dim}; a fan with the orthant as "
                f"support has full-dimensional cones (dimension {n})"
            )
    for p in fan.rays:
        if any(x < 0 for x in p.coords):
            raise InvalidFan(f"ray {p} lies outside the orthant")
    volume = support_volume(fan)
    if volume != lat.index_over_std:
        raise InvalidFan(
            f"the cones have support volume {volume}, not the orthant's "
            f"{lat.index_over_std}"
        )
    # facet rays -> (cone, inner normal of the facet, ray opposite it)
    owners: dict[tuple[LatticePoint, ...], list] = {}
    for c in fan.maximal_cones:
        for i, h in enumerate(c.facet_normals[0]):
            owners.setdefault(c.rays[:i] + c.rays[i + 1:], []).append((c, h, c.rays[i]))
    for rays, cones in owners.items():
        facet = Cone(rays)
        boundary = any(all(r.coords[k] == 0 for r in rays) for k in range(n))
        want = 1 if boundary else 2
        if len(cones) != want:
            names = ", ".join(str(c) for c, _, _ in cones)
            raise InvalidFan(
                f"facet {facet} lies in {len(cones)} cone(s), not {want}: {names}"
            )
        if not boundary:
            (a, h, _), (b, _, far) = cones
            if sum(x * y for x, y in zip(h, far.coords)) > 0:
                raise InvalidFan(
                    f"cones {a} and {b} lie on the same side of their facet {facet}"
                )


def _pivot(cone: Cone, i: int, mu: LatticePoint, b) -> Cone:
    """The cone with ``mu`` for ray ``i``, ``b = H * mu``, its normals seeded."""
    rows, d = cone.facet_normals
    hi, bi = rows[i], b[i]
    rows = [hi if j == i else tuple((bi * x - bj * y) // d for x, y in zip(h, hi))
            for j, (h, bj) in enumerate(zip(rows, b))]
    rays = cone.rays[:i] + (mu,) + cone.rays[i + 1:]
    order = sorted(range(len(rays)), key=lambda k: rays[k].coords)
    child = Cone(tuple(rays[k] for k in order))
    child.__dict__["facet_normals"] = tuple(rows[k] for k in order), bi
    return child


def star_subdivision(fan: Fan, mu: LatticePoint) -> Fan:
    """Star subdivision at a primitive point of the support.

    Cones avoiding ``mu`` survive; a cone containing it is replaced by the
    joins of ``mu`` with its facets not containing ``mu``.  A
    full-dimensional one comes from its parent by a pivot, with no solve.
    """
    lat = fan.lattice
    if not lat.contains(mu):
        raise NotInLattice(f"{mu} is not a lattice point")
    if not lat.is_primitive(mu):
        raise NotPrimitive(f"{mu} is not primitive")
    hit = False
    new_cones = []
    for cone in fan.maximal_cones:
        bary = barycentric(cone, mu)
        if bary is None or any(v < 0 for v in bary[0]):
            new_cones.append(cone)
            continue
        hit = True
        # the numerators are H * mu when the rays share mu's denominator
        pivot = cone.dim == lat.dim and cone.rays[0].denom == mu.denom
        new_cones += [_pivot(cone, i, mu, bary[0]) if pivot else
                      make_cone(cone.rays[:i] + (mu,) + cone.rays[i + 1:])
                      for i, v in enumerate(bary[0]) if v > 0]
    if not hit:
        raise NotInSupport(f"{mu} is outside the support of the fan")
    result = make_fan(lat, new_cones)
    if set(result.rays) != set(fan.rays) | {mu}:
        raise InvariantError(f"subdividing at {mu} changed rays other than {mu}")
    return result


def support_volume(fan: Fan) -> Fraction:
    """Exact volume of the support in the slab ``age <= 1``.

    For a simplicial cone with rays of positive age the slab is the
    simplex on ``u_i / age(u_i)``, so the measure is additive across any
    subdivision of the support and invariant under refinement; the
    orthant's is ``[N : Z^n]``.  Requires full-dimensional cones whose rays
    have positive age (``validate_fan`` checks both first).
    """
    total = Fraction(0)
    for c in fan.maximal_cones:
        denom = 1
        for r in c.rays:
            denom *= r.age
        total += cone_index(c, fan.lattice) / denom
    return total


# ---------------------------------------------------------------------------
# JSON interchange


def fan_to_json(fan: Fan) -> dict:
    rays = [list(r.coords) for r in fan.rays]
    index = {r: i for i, r in enumerate(fan.rays)}
    cones = sorted(sorted(index[r] for r in c.rays) for c in fan.maximal_cones)
    return {
        "lattice": {
            "n": fan.lattice.dim,
            "r": fan.lattice.denom,
            "basis": [list(row) for row in fan.lattice.basis.data],
        },
        "rays": rays,
        "maximal_cones": cones,
    }


def _json_int(x) -> int:
    # int() would silently truncate 6.9 to 6, and bool is a subclass of int
    if type(x) is not int:
        raise InvalidFan(f"malformed fan data: expected an integer, got {x!r}")
    return x


def fan_from_json(data: dict) -> Fan:
    """Parse the interchange schema; ``validate_fan`` checks the result."""
    try:
        n, r = _json_int(data["lattice"]["n"]), _json_int(data["lattice"]["r"])
        basis = IntMatrix([map(_json_int, row) for row in data["lattice"]["basis"]])
        if (basis.rows, basis.cols) != (n, n) or basis.det() == 0:
            raise ValueError("lattice basis must be a nonsingular n-by-n matrix")
        # membership solves against a lower-triangular Hermite basis
        if hermite_normal_form(basis)[0] != basis:
            raise ValueError("lattice basis must be in column Hermite form")
        lat = ScaledLattice(n, r, basis)
        rays = [LatticePoint(tuple(map(_json_int, c)), r) for c in data["rays"]]
        if any(p.dim != n for p in rays):
            raise ValueError(f"every ray must have {n} coordinates")
        cones = []
        for idxs in data["maximal_cones"]:
            if not idxs:
                raise ValueError("a maximal cone has no rays")
            if any(not 0 <= _json_int(i) < len(rays) for i in idxs):
                raise ValueError(f"ray index out of range in {idxs}")
            if len(set(idxs)) != len(idxs):
                raise ValueError(f"cone {idxs} lists a ray index twice")
            cones.append(make_cone([rays[i] for i in idxs]))
        for kind, items in (("ray", rays), ("cone", cones)):
            if len(set(items)) < len(items):
                seen = set()  # set.add returns None: true only for a repeat
                twice = next(x for x in items if x in seen or seen.add(x))
                raise ValueError(f"{kind} {twice} is listed twice")
        unused = set(rays).difference(*(c.rays for c in cones))
        if unused:
            raise ValueError(f"ray {min(unused, key=lambda p: p.coords)} lies in no cone")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidFan(f"malformed fan data: {exc}") from exc
    return make_fan(lat, cones)


def fans_equal(a: Fan, b: Fan) -> bool:
    """Exact fan equality via the canonical serialization."""
    return fan_to_json(a) == fan_to_json(b)

