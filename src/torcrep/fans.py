"""Simplicial rational cones and fans over a scaled lattice.

A cone is given by its primitive ray generators and keeps its hash, as
cones key the builder's maps; a fan is a ``Record`` of its lattice and its
maximal cones.  The fans torcrep builds and reads refine the orthant, so
every cone it asks a question of is full-dimensional and simplicial: one
H-description, its cached facet normals, answers membership, barycentric
coordinates, the cone's index and its terminality, all exactly.
``validate_fan`` checks one rule for such fans: the facets of ``Fan.facets``
pair up, and one point inside one cone lies in no other; the solve for a
cone's facet normals proves its rays independent.  A cone torcrep builds
is independent by construction: the orthant, a star subdivision's child
(below), a star cone.

A star subdivision moves each tracked point by a fraction-free pivot
(Bareiss 1968).  Let ``A`` be the parent's rays, ``d = |det A|``,
``H = d * A^-1`` and ``b = H * mu``; the child ``A'`` puts ``mu`` for ray
``i``, with ``b_i > 0``.  As ``mu = A b / d``, ``d' = |det A'| = b_i``,
which proves the child's rays independent.  A point ``q`` with numerators
``bq = H * q`` has ``bq_i`` and ``(b_i * bq_j - b_j * bq_i) / d`` in the
child, its ``d' * A'^-1 * q``; that matrix is the adjugate of ``A'`` up to
sign, so each division is exact.  ``_FanBuilder`` keeps these numerators
for each tracked point in each live cone that contains it (a conflict
list), so a subdivision at ``mu`` replaces exactly the cones of ``mu``'s
list and moves only their points, each into the children where its
numerators are ``>= 0``: the ``i`` with ``b_i > 0`` that minimise
``bq_i / b_i`` (the simplex ratio test).  For ``(b_i * bq_j - b_j * bq_i) / d``
is ``>= 0`` outright if ``b_j <= 0``, as ``b_i > 0`` and ``bq >= 0``, and if
``b_j > 0`` exactly when ``bq_i / b_i <= bq_j / b_j``.  So one exact scan of
the positive ``b_j``, cross-multiplied, places a point, and a tie (a point
on a facet two children share) lands it in each.

The JSON interchange schema for fans is::

    {"lattice": {"n": ..., "r": ..., "basis": [[row], ...]},
     "rays": [[scaled ints], ...],          # sorted lexicographically
     "maximal_cones": [[ray indices], ...]} # each sorted, list sorted

which is bit-exact across runs.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import InputError, InvariantError, TorcrepError
from .groups import closure
from .intlinalg import IntMatrix, solve
from .lattice import LatticePoint, Record, ScaledLattice


class Cone:
    """Simplicial cone on distinct rays, proved independent by ``validate_fan`` or built so."""

    # _hash: the record hash, kept; __dict__: the cached properties
    __slots__ = ("rays", "_hash", "__dict__", "__weakref__")

    def __init__(self, rays: tuple[LatticePoint, ...]):
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "_hash", hash((rays,)))

    __setattr__ = __delattr__ = Record.__setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rays == other.rays

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Cone(rays={self.rays!r})"

    @property
    def dim(self) -> int:
        return len(self.rays)

    @cached_property
    def facet_normals(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, d)``: rows of ``d * A^-1``, ``d = |det A|``, ``A`` the rays.

        Row ``i`` (from ``A^T x = d e_i``) is the inner normal of the facet
        opposite ray ``i``.  Raises ValueError for a cone not full-dimensional.
        """
        if not self.rays or self.dim != self.rays[0].dim:
            raise ValueError(f"cone {self} is not full-dimensional")
        rows, d = solve([r.coords for r in self.rays], IntMatrix.identity(self.dim).data)
        return tuple(rows), d

    @cached_property
    def det(self) -> int:
        """``|det A|`` of the rays; a star subdivision seeds it."""
        return self.facet_normals[1]

    def __str__(self) -> str:
        return "Cone(" + ", ".join(str(r) for r in self.rays) + ")"


def make_cone(points) -> Cone:
    """Canonical cone: the rays sorted, each once; ``validate_fan`` tests independence."""
    return Cone(tuple(sorted(set(points), key=lambda p: p.coords)))


def _pivot(bq, i: int, b, d: int, order) -> tuple[int, ...]:
    """Numerators ``H' * q`` in the child's ray ``order`` from ``bq = H * q`` (see above)."""
    qi, bi = bq[i], b[i]
    return tuple([qi if k == i else (bi * bq[k] - b[k] * qi) // d for k in order])


def barycentric(cone: Cone, p: LatticePoint) -> tuple[tuple[int, ...], int]:
    """Coefficients of ``p`` over the cone's rays as ``(numerators, d)``.

    ``p = sum(numerators[i] / d * rays[i])`` with ``d > 0``, so signs of
    the coefficients are signs of the numerators: the numerators are the
    facet normals ``H`` dotted with ``p``.  ``p`` must share the rays'
    denominator (TorcrepError otherwise).
    """
    if p.denom != cone.rays[0].denom:
        raise TorcrepError(
            f"point denom {p.denom} differs from the denom {cone.rays[0].denom} of {cone}"
        )
    rows, d = cone.facet_normals
    return tuple(sum(x * y for x, y in zip(h, p.coords)) for h in rows), d


def cone_index(cone: Cone, lattice: ScaledLattice) -> int:
    """Index ``[N : Z<rays>]``; 1 exactly for smooth cones.

    The rays are ``A = B X`` (``B`` the lattice basis, ``X`` the basis
    coordinates), so the index ``|det X|`` is ``|det A| / |det B|``, with
    ``|det A|`` the cone's cached ``det``.
    """
    return cone.det // lattice.det


def is_smooth_cone(cone: Cone, lattice: ScaledLattice) -> bool:
    return cone_index(cone, lattice) == 1


def is_terminal(cone: Cone, lattice: ScaledLattice) -> bool:
    """Reid-Tai: every nonzero element of the cone's local group has age > 1.

    Let ``X = B^-1 A`` be the rays in basis coordinates and ``d_X = |det X|``
    the cone's index.  The local group ``N / Z<rays>`` is the ``closure``
    of the columns of ``d_X * X^-1`` under addition mod ``d_X``: an element
    is ``d_X`` times the fractional parts of a point's barycentric
    coordinates, and its age is its coordinate sum over ``d_X``.  With
    ``H = d * A^-1`` the cached normals (``d = |det A| = d_X * |det B|``),
    ``d_X * X^-1 = (d / |det B|) * A^-1 * B = H * B / |det B|``.  The
    division is exact: ``d_X * X^-1`` is the adjugate of the integer matrix
    ``X`` up to sign.  Column ``j`` is ``H * b_j / |det B|``, ``d_X`` times
    the barycentric coordinates of basis vector ``b_j``.

    A lattice point of ``Conv(0, rays)`` other than a vertex has barycentric
    coordinates in ``[0, 1)`` (a coordinate 1 forces a vertex) summing to at
    most 1, so it is a nonzero element of age <= 1; conversely such an
    element is the point ``sum(lambda_i * ray_i)`` of ``Conv(0, rays)``,
    which is not a vertex.  A smooth cone has ``d_X = 1`` and the group
    ``{0}``, so it is terminal at once.
    """
    index = cone_index(cone, lattice)
    if index == 1:
        return True
    rows, det = cone.facet_normals[0], lattice.det
    gens = [tuple(sum(x * y for x, y in zip(h, b)) // det for h in rows)
            for b in zip(*lattice.basis.data)]
    return all(sum(g) > index for g in closure(gens, index))


class Fan(Record):
    """Fan given by its maximal cones over a shared lattice."""

    lattice: ScaledLattice
    maximal_cones: tuple[Cone, ...]

    @cached_property
    def rays(self) -> tuple[LatticePoint, ...]:
        return tuple(sorted(self.cones_through, key=lambda p: p.coords))

    @cached_property
    def ray_coords(self) -> dict[LatticePoint, tuple[int, ...] | None]:
        """Each ray's basis coordinates, or None off the lattice, solved once per fan."""
        return {p: self.lattice.coords_or_none(p) for p in self.rays}

    @cached_property
    def cones_through(self) -> dict[LatticePoint, tuple[Cone, ...]]:
        """Each ray's maximal cones, in fan order."""
        index: dict[LatticePoint, list[Cone]] = {}
        for c in self.maximal_cones:
            for r in c.rays:
                index.setdefault(r, []).append(c)
        return {r: tuple(cs) for r, cs in index.items()}

    @cached_property
    def facets(self) -> dict[tuple[LatticePoint, ...], list]:
        """Each facet's rays -> ``(cone, inner normal, opposite ray)`` per cone on it,
        in fan order; ``validate_fan`` first checks that every cone has normals."""
        table: dict[tuple[LatticePoint, ...], list] = {}
        for c in self.maximal_cones:
            for i, h in enumerate(c.facet_normals[0]):
                table.setdefault(c.rays[:i] + c.rays[i + 1:], []).append((c, h, c.rays[i]))
        return table

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
    full-dimensional and simplicial, every ray lies in the closed orthant, the
    facets pair up (a facet inside a coordinate hyperplane belongs to one cone,
    every other facet to exactly two, on opposite sides of it), and the fan has
    cones, with the sum ``y`` of the first one's rays in no other.  Raises
    InputError, naming the ray, cone, facet or point, on the first failure.

    These conditions hold for a fan with the orthant as support, and they
    imply one (the pseudo-manifold characterisation, De Loera-Rambau-Santos,
    *Triangulations*, §4.5).  The cones lie in the orthant.  Let ``m(z)``
    count the cones whose interior holds ``z``.  Crossing a hyperplane at a
    general point ``w`` inside the orthant, a cone with ``w`` inside counts
    on both sides, and a cone with ``w`` on a facet counts on one side and
    its partner across that facet on the other; so ``m`` is constant off a
    set of codimension 2, which does not disconnect the interior.  ``y``
    lies inside the first cone, so another closed cone holding ``y`` meets
    its interior in an open set, where ``m >= 2``.  Conversely, if ``m >= 2``,
    points arbitrarily close to ``y`` lie inside other cones; there are
    finitely many, so one of them holds ``y``.  So the last step passes
    exactly when ``m = 1``: the cones cover the orthant with disjoint
    interiors.  Let ``x`` lie in cones ``C`` and ``D``.  A general path
    near ``x`` from inside ``C`` to inside ``D`` crosses only facets
    through ``x``, each from a cone to its partner (``m = 1``), and two
    cones sharing a facet through ``x`` have the same smallest face holding
    ``x``.  So that face is common to ``C`` and ``D``, and ``C ∩ D`` is the
    cone on their common rays.
    """
    lat = fan.lattice
    n = lat.dim
    for p, x in fan.ray_coords.items():
        if x is None:
            raise InputError(f"ray {p} is not a lattice point")
        if gcd(*x) != 1:
            raise InputError(f"ray {p} is not primitive")
    for c in fan.maximal_cones:
        if c.dim != n:
            raise InputError(
                f"cone {c} has dimension {c.dim}; a fan with the orthant as "
                f"support has full-dimensional cones (dimension {n})"
            )
        try:
            c.facet_normals  # the solve the facet pairing reads
        except ValueError as exc:
            raise InputError(f"cone {c}: rays are linearly dependent; "
                             "cone is not simplicial") from exc
    for p in fan.rays:
        if any(x < 0 for x in p.coords):
            raise InputError(f"ray {p} lies outside the orthant")
    for rays, cones in fan.facets.items():
        boundary = any(all(r.coords[k] == 0 for r in rays) for k in range(n))
        want = 1 if boundary else 2
        if len(cones) != want:
            names = ", ".join(str(c) for c, _, _ in cones)
            raise InputError(
                f"facet {Cone(rays)} lies in {len(cones)} cone(s), not {want}: {names}"
            )
        if not boundary:
            (a, h, _), (b, _, far) = cones
            if sum(x * y for x, y in zip(h, far.coords)) > 0:
                raise InputError(
                    f"cones {a} and {b} lie on the same side of their facet {Cone(rays)}"
                )
    if not fan.maximal_cones:
        raise InputError("the fan has no cones")
    first = fan.maximal_cones[0]
    y = LatticePoint(tuple(map(sum, zip(*(r.coords for r in first.rays)))), lat.denom)
    for c in fan.maximal_cones[1:]:
        if min(barycentric(c, y)[0]) >= 0:
            raise InputError(f"cones {first} and {c} overlap at {y}")


class _FanBuilder:
    """Live maximal cones under star subdivisions, with conflict lists.

    ``inside[cone]`` maps the tracked points in a cone to their numerators
    there, ``where[point]`` lists the cones that hold it, ``ray_counts``
    counts the cones through each ray.  ``inside``'s inner maps never
    change, so ``copy`` copies only the outer maps.  Each point is checked
    once; a ray is not tracked, as subdividing at it changes nothing.
    """

    def __init__(self, fan: Fan, points=()):
        self.lattice = lat = fan.lattice
        self.inside: dict[Cone, dict[LatticePoint, tuple[int, ...]]] = {
            c: {} for c in fan.maximal_cones}
        self.where: dict[LatticePoint, list[Cone]] = {}
        self.ray_counts = {r: len(cs) for r, cs in fan.cones_through.items()}
        for p in points:
            if p in self.where:
                continue
            x = lat.coords_or_none(p)
            if x is None:
                raise TorcrepError(f"{p} is not a lattice point")
            if gcd(*x) != 1:
                raise TorcrepError(f"{p} is not primitive")
            if p in self.ray_counts:
                continue
            for cone, held in self.inside.items():
                b, _ = barycentric(cone, p)
                if min(b) >= 0:
                    held[p] = b
                    self.where.setdefault(p, []).append(cone)
            if p not in self.where:
                raise TorcrepError(f"{p} is outside the support of the fan")

    def copy(self) -> _FanBuilder:
        twin = _FanBuilder.__new__(_FanBuilder)
        twin.lattice, twin.inside, twin.where = self.lattice, dict(self.inside), dict(self.where)
        twin.ray_counts = dict(self.ray_counts)
        return twin

    def landings(self, mu: LatticePoint) -> list:
        """``(cone, b = H * mu, children)`` per cone holding ``mu``; ``children``
        maps each ray ``i`` with ``b_i > 0``, in order, to the points other than
        ``mu`` that land in that child (above), in held order.  Changes nothing."""
        out = []
        for cone in self.where.get(mu, ()):  # none for a ray
            held = self.inside[cone]
            b = held[mu]
            first, *rest = pos = [j for j, bj in enumerate(b) if bj > 0]
            children: dict[int, list[LatticePoint]] = {i: [] for i in pos}
            for q, bq in held.items():
                if q == mu:
                    continue
                best, y, x = [first], bq[first], b[first]  # the least bq_j / b_j so far
                for j in rest:
                    s = bq[j] * x - y * b[j]
                    if s < 0:
                        best, y, x = [j], bq[j], b[j]
                    elif not s:
                        best.append(j)
                for i in best:
                    children[i].append(q)
            out.append((cone, b, children))
        return out

    def subdivide(self, mu: LatticePoint, moves=None) -> None:
        """Star-subdivide at a tracked point or a ray in place, by ``moves = landings(mu)``."""
        inside, counts = self.inside, self.ray_counts
        gained: dict[LatticePoint, list[Cone]] = {}
        for cone, b, children in self.landings(mu) if moves is None else moves:
            held, d, rays = inside.pop(cone), cone.det, cone.rays
            for r in rays:
                counts[r] -= 1
            for i, qs in children.items():
                new = rays[:i] + (mu,) + rays[i + 1:]
                order = sorted(range(len(new)), key=lambda k: new[k].coords)
                child = Cone(tuple(new[k] for k in order))
                child.__dict__["det"] = b[i]
                inside[child] = {q: _pivot(held[q], i, b, d, order) for q in qs}
                for q in qs:
                    gained.setdefault(q, []).append(child)
                for r in child.rays:
                    counts[r] = counts.get(r, 0) + 1
        gone = set(self.where.pop(mu, ()))  # the cones of the landings
        for q, cones in gained.items():
            self.where[q] = [c for c in self.where[q] if c not in gone] + cones
        if not counts.get(mu) or any(not counts[r] for cone in gone for r in cone.rays):
            raise InvariantError(f"subdividing at {mu} changed rays other than {mu}")

    def fan(self) -> Fan:
        return make_fan(self.lattice, self.inside)


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
        raise InputError(f"malformed fan data: expected an integer, got {x!r}")
    return x


def fan_from_json(data: dict, lattice: ScaledLattice) -> Fan:
    """Parse the interchange schema onto ``lattice``; ``validate_fan`` checks the result.

    The file's ``n``, ``r`` and basis must equal ``lattice``'s, integer for
    integer; they are compared before any ray is read.
    """
    try:
        given, n, r = data["lattice"], lattice.dim, lattice.denom
        if (_json_int(given["n"]) != n or _json_int(given["r"]) != r
                or len(given["basis"]) != n
                or any(tuple(map(_json_int, row)) != want
                       for row, want in zip(given["basis"], lattice.basis.data))):
            raise InputError("fan lattice does not match the group lattice")
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
        raise InputError(f"malformed fan data: {exc}") from exc
    return make_fan(lattice, cones)
