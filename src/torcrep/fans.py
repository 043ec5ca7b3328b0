"""Simplicial rational cones and fans over a scaled lattice.

Cones are given by their primitive ray generators; a fan stores only its
maximal cones and derives faces on demand.  All membership and volume
computations are exact.

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

    def ray_set(self) -> frozenset[LatticePoint]:
        return frozenset(self.rays)

    @cached_property
    def facet_normals(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, d)``: rows of ``d * A^-1``, ``d = |det A|``, ``A`` the rays.

        ``A`` must be square; row ``i`` is the inner normal of the facet
        opposite ray ``i``.  Cones that a star subdivision keeps bring them.
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


def contains_point(cone: Cone, p: LatticePoint, strict: bool = False) -> bool:
    """Exact membership test; ``strict`` tests the relative interior."""
    if not cone.rays:
        return p.is_zero() and not strict
    bary = barycentric(cone, p)
    if bary is None:
        return False
    if strict:
        return all(x > 0 for x in bary[0])
    return all(x >= 0 for x in bary[0])


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
    """Index ``[N ∩ span(c) : Z<rays>]``; 1 exactly for smooth cones."""
    mat = ray_matrix(cone, lattice)
    if cone.dim == lattice.dim:
        return abs(mat.det())
    s, _, _ = smith_normal_form(mat)
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
    vertex.  A smooth cone has ``d = 1`` and the group ``{0}``.
    """
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
        seen = set()
        for c in self.maximal_cones:
            seen.update(c.rays)
        return tuple(sorted(seen, key=lambda p: p.coords))

    @cached_property
    def ray_set(self) -> frozenset[LatticePoint]:
        return frozenset(self.rays)

    def two_cones(self) -> tuple[Cone, ...]:
        seen = set()
        for c in self.maximal_cones:
            for pair in combinations(c.rays, 2):
                seen.add(Cone(tuple(sorted(pair, key=lambda p: p.coords))))
        return tuple(sorted(seen, key=lambda c: tuple(r.coords for r in c.rays)))

    @cached_property
    def is_smooth(self) -> bool:
        return all(is_smooth_cone(c, self.lattice) for c in self.maximal_cones)


def make_fan(lattice: ScaledLattice, cones, validate: bool = False) -> Fan:
    ordered = tuple(
        sorted(set(cones), key=lambda c: tuple(r.coords for r in c.rays))
    )
    fan = Fan(lattice, ordered)
    if validate:
        validate_fan(fan)
    return fan


def sigma_fan(lattice: ScaledLattice) -> Fan:
    """The fan of the quotient singularity: the positive orthant cone."""
    return make_fan(lattice, [make_cone(lattice.units())])


def validate_fan(fan: Fan) -> None:
    """Structural checks: primitive rays, simpliciality, pairwise face property.

    Raises InvalidFan on the first violation.  A pair of cones passes the
    pairwise check at once when a facet normal of one separates them
    (``_separates``); every other pair has the extreme rays of its
    intersection computed exactly, and they must lie in the cone on the
    common rays.
    """
    lat = fan.lattice
    for p in fan.rays:
        if not lat.contains(p):
            raise InvalidFan(f"ray {p} is not a lattice point")
        if not lat.is_primitive(p):
            raise InvalidFan(f"ray {p} is not primitive")
    for c in fan.maximal_cones:
        mat = IntMatrix.from_columns([r.coords for r in c.rays])
        if rank(mat) != c.dim:
            raise InvalidFan(f"cone {c} is not simplicial")
    for a, b in combinations(fan.maximal_cones, 2):
        common = a.ray_set() & b.ray_set()
        if any(
            _separates(h, far, common)
            for near, far in ((a, b), (b, a)) if near.dim == lat.dim
            for h in near.facet_normals[0]
        ):
            continue
        tau = make_cone(common) if common else Cone(())
        for x in _intersection_generators(a, b):
            pt = LatticePoint(x, a.rays[0].denom)
            if not contains_point(tau, pt):
                raise InvalidFan(
                    f"cones {a} and {b} do not intersect in a common face"
                )


def _separates(
    h: tuple[int, ...], cone: Cone, common: frozenset[LatticePoint]
) -> bool:
    """``h <= 0`` on the rays of ``cone``, with equality only at ``common``.

    With ``h`` a facet normal of a cone ``c`` and ``common`` the rays
    ``cone`` shares with ``c``, this puts ``c ∩ cone`` inside ``{h = 0}``,
    where ``cone`` meets it in the face on ``common``; so ``c ∩ cone`` is
    exactly the cone on the common rays (Cox-Little-Schenck, Lemma 1.2.13).
    """
    for r in cone.rays:
        v = sum(x * y for x, y in zip(h, r.coords))
        if v > 0 or (v == 0 and r not in common):
            return False
    return True


def _intersection_generators(a: Cone, b: Cone):
    """Generators of ``a ∩ b``: extreme rays of the exact double system."""
    ra = [r.coords for r in a.rays]
    rb = [r.coords for r in b.rays]
    k = len(ra) + len(rb)
    cols = [tuple(v) for v in ra] + [tuple(-x for x in v) for v in rb]
    n = len(cols[0])
    out = []
    seen = set()
    for size in range(1, n + 2):
        for sub in combinations(range(k), size):
            mat = IntMatrix.from_columns([cols[j] for j in sub])
            h, u = hermite_normal_form(mat)
            zero_cols = [
                j for j in range(h.cols)
                if all(h[i][j] == 0 for i in range(h.rows))
            ]
            if len(zero_cols) != 1:
                continue
            gen = u.column(zero_cols[0])
            if all(v <= 0 for v in gen):
                gen = tuple(-v for v in gen)
            if any(v < 0 for v in gen):
                continue
            full = [0] * k
            for idx, j in enumerate(sub):
                full[j] = gen[idx]
            x = tuple(
                sum(full[j] * ra[j][i] for j in range(len(ra))) for i in range(n)
            )
            if any(x) and x not in seen:
                seen.add(x)
                out.append(x)
    return out


def star_subdivision(fan: Fan, mu: LatticePoint) -> Fan:
    """Star subdivision at a primitive point of the support.

    Cones avoiding ``mu`` survive; a cone containing it is replaced by the
    joins of ``mu`` with its facets not containing ``mu``.
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
        for i, v in enumerate(bary[0]):
            if v > 0:
                rays = [r for j, r in enumerate(cone.rays) if j != i]
                rays.append(mu)
                new_cones.append(make_cone(rays))
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
    subdivision of the support and invariant under refinement.  Raises
    InvalidFan, naming the cone, for a cone of lower dimension or a ray of
    non-positive age.
    """
    total = Fraction(0)
    n = fan.lattice.dim
    for c in fan.maximal_cones:
        if c.dim != n:
            raise InvalidFan(
                f"cone {c} has dimension {c.dim}; support volume requires "
                f"full-dimensional cones (dimension {n})"
            )
        det = abs(ray_matrix(c, fan.lattice).det())
        denom = Fraction(1)
        for r in c.rays:
            a = r.age
            if a <= 0:
                raise InvalidFan(
                    f"ray {r} of cone {c} has age {a}; support volume "
                    f"requires rays of positive age"
                )
            denom *= a
        total += Fraction(det) / denom
    return total


def refines(fine: Fan, coarse: Fan) -> bool:
    """Support equality plus containment of every maximal cone."""
    if fine.lattice != coarse.lattice:
        return False
    for c in fine.maximal_cones:
        if not any(
            all(contains_point(big, r) for r in c.rays)
            for big in coarse.maximal_cones
        ):
            return False
    return support_volume(fine) == support_volume(coarse)


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


def fan_from_json(data: dict, validate: bool = True) -> Fan:
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
            cones.append(make_cone([rays[i] for i in idxs]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidFan(f"malformed fan data: {exc}") from exc
    fan = make_fan(lat, cones)
    if validate:
        validate_fan(fan)
    return fan


def fans_equal(a: Fan, b: Fan) -> bool:
    """Exact fan equality via the canonical serialization."""
    return fan_to_json(a) == fan_to_json(b)

