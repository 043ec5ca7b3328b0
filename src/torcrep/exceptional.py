"""Exceptional divisors: star fans, embedding certificates, surfaces.

For a junior ray ``g`` the star fan lives in the quotient lattice
``N / Z*g = Z^(n-1)`` and describes the exceptional divisor ``E``: one
projection matrix sends each ray's basis coordinates there.  Weighting each
star ray ``ubar`` by the (integer) age of its lift ``u`` gives the ray
``(ubar, age u)`` of the total space of the age-weighted line bundle on
``E`` (its canonical bundle in the crepant case), whose cones are the apex
``(0, 1)`` joined to the weighted rays of each star cone.  One lattice map,
read off one maximal cone through ``g``, sends each weighted ray to its
lift and the apex to ``g``.  It serves every cone, as the map read off any
other cone agrees with it on that cone's basis; checking it on every ray
and cone certifies that the open set of the cones through ``g`` is that
whole total space, so ``E`` is normally embedded.  The fan solves each ray
for its basis coordinates once (``Fan.ray_coords``); the projection, the
map and its checks read them.  A star cone is independent as its fan cone
is, and a total-space cone's image is ``g`` with its star rays' lifts.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd

from .errors import (
    CertificateFailure,
    InvariantError,
    LiftAmbiguous,
    NotComplete,
    NotInLattice,
    NotSmooth,
    NotSurface,
    RayAbsent,
)
from .fans import Cone, Fan, make_cone, make_fan
from .groups import GroupData
from .intlinalg import IntMatrix, solve
from .lattice import LatticePoint, Record, ScaledLattice, quotient_by_ray


class StarFan(Record):
    """Fan of the exceptional divisor in the quotient lattice ``Z^(n-1)``.

    ``lifts`` maps each quotient ray generator back to the unique fan ray
    it came from; ``complete`` records whether the junior point is interior
    to the orthant.
    """

    fan: Fan
    lifts: tuple[tuple[LatticePoint, LatticePoint], ...]
    complete: bool


class SurfaceType(Record):
    """Classification of a smooth complete toric surface."""

    kind: str  # "P2", "hirzebruch" or "chain"
    parameter: int | None
    self_intersections: tuple[int, ...]

    def __str__(self) -> str:
        if self.kind == "P2":
            return "P2"
        if self.kind == "hirzebruch":
            return f"F{self.parameter}"
        return "blowup chain " + str(list(self.self_intersections))


class EmbeddingCertificate(Record):
    """The anchor map ``iso`` of a junior ray and its total-space cones.

    ``cone_bijection`` pairs each total-space cone with its image, so it
    holds one pair per maximal cone through the junior.
    """

    junior: LatticePoint
    star: StarFan
    iso: IntMatrix
    cone_bijection: tuple[tuple[Cone, Cone], ...]


def _solved(fan: Fan, p: LatticePoint) -> tuple[int, ...]:
    """Basis coordinates of the ray ``p``, read off the fan's one solve of each ray."""
    x = fan.ray_coords[p]
    if x is None:
        raise NotInLattice(f"{p} is not in the lattice")
    return x


def star_fan(fan: Fan, g_hat: LatticePoint) -> StarFan:
    """Project the cones through a ray into the quotient lattice, each ray once."""
    if g_hat not in fan.cones_through:
        raise RayAbsent(f"{g_hat} is not a ray of the fan")
    m = fan.lattice.dim - 1
    proj = quotient_by_ray(g_hat, _solved(fan, g_hat))
    lifts: dict[LatticePoint, LatticePoint] = {}
    images: dict[LatticePoint, LatticePoint] = {}  # ray -> star ray
    cones = []
    for c in fan.cones_through[g_hat]:
        imgs = []
        for u in c.rays:
            if u == g_hat:
                continue
            ubar = images.get(u)
            if ubar is None:
                ubar = images[u] = LatticePoint(proj.mul_vec(_solved(fan, u)), 1)
                prev = lifts.setdefault(ubar, u)
                if prev != u:
                    raise LiftAmbiguous(
                        f"rays {prev} and {u} project to the same star ray {ubar}"
                    )
            imgs.append(ubar)
        # independent, as c is: sum a_u ubar = 0 puts sum a_u u in Q*g, so every a_u = 0
        cones.append(Cone(tuple(sorted(imgs, key=lambda p: p.coords))))
    star = make_fan(ScaledLattice(m, 1, IntMatrix.identity(m)), cones)
    for ubar in star.rays:
        if gcd(*ubar.coords) != 1:
            raise NotSmooth(f"star ray {ubar} is not primitive; fan is singular along the ray")
    complete = all(c > 0 for c in g_hat.coords)
    return StarFan(star, tuple(sorted(lifts.items(), key=lambda kv: kv[0].coords)), complete)


def certify_normal_embedding(fan: Fan, g_hat: LatticePoint) -> EmbeddingCertificate:
    """Verify the tubular-neighborhood isomorphism for one junior ray, in one pass.

    Each star ray ``ubar`` is weighted once, as ``(ubar, age u)`` with ``u``
    its lift, and the apex ``(0, 1)`` stands for the ray ``g`` itself.  The
    anchor map is read off the first maximal cone through ``g``: it sends
    that cone's weighted rays and apex to its rays.  It must be unimodular,
    send every weighted star ray to its lift and the apex to ``g``, and
    carry the total-space cones (the apex joined to the weighted rays of a
    star cone) bijectively onto the maximal cones through ``g``.  One map
    serves every cone: the map read off any other one agrees with it on
    that cone's basis, which the lift and apex checks cover.  Raises
    CertificateFailure at the first violation.

    At a ray ``g`` of age 1 of a valid smooth fan no check fails.  The
    anchor's rays ``v_i`` and ``g`` are a basis of ``N``; age is linear, so
    the map sends ``(ubar, age u)`` for ``u = sum a_i v_i + a_g g`` to
    ``u + a_g (age g - 1) g = u``.  Two rays through ``g`` never share a
    star ray, or one would lie in the cone on the other and ``g``: the lifts
    are unique and the cone bijection is the identity.  So on valid input
    the checks guard the code that builds the star fan.
    """
    if not fan.is_smooth:
        raise NotSmooth("embedding certificates require a smooth fan")
    star = star_fan(fan, g_hat)
    apex = LatticePoint((0,) * star.fan.lattice.dim + (1,), 1)
    weighted = {ubar: LatticePoint(ubar.coords + (u.age,), 1) for ubar, u in star.lifts}
    preimage = {u: weighted[ubar] for ubar, u in star.lifts}
    preimage[g_hat] = apex
    anchors = fan.cones_through[g_hat]
    anchor = anchors[0]
    # iso * d = t for d, t with the anchor rays' preimages and coordinates
    # as columns: the rows of iso solve d^T against the rows of t
    coords = fan.ray_coords
    t = zip(*(coords[u] for u in anchor.rays))
    try:
        rows, det = solve([preimage[u].coords for u in anchor.rays], t)
    except ValueError:  # singular
        det = 0
    iso = IntMatrix(rows) if det == 1 else None
    if iso is None or abs(iso.det()) != 1:
        raise CertificateFailure(f"anchor {anchor}: induced map is not unimodular")
    for ubar, u in star.lifts:
        if iso.mul_vec(weighted[ubar].coords) != coords[u]:
            raise CertificateFailure(f"anchor {anchor}: ray {ubar} maps off its lift {u}")
    if iso.mul_vec(apex.coords) != coords[g_hat]:
        raise CertificateFailure(f"anchor {anchor}: apex does not map to the ray")
    fresh = {frozenset(c.rays): c for c in anchors}
    bijection = []
    # the star cones are in make_fan order and so are these: weighted rays
    # sort as their star rays do, and inserting the apex, which every cone
    # holds, into sorted ray lists of one length keeps their order
    lift = dict(star.lifts)
    for c in star.fan.maximal_cones:
        rays = [apex] + [weighted[ubar] for ubar in c.rays]
        tc = Cone(tuple(sorted(rays, key=lambda p: p.coords)))
        # iso sends the apex to g and each weighted ray to its lift (checked above)
        pts = [g_hat] + [lift[ubar] for ubar in c.rays]
        img = fresh.pop(frozenset(pts), None)
        if img is None:
            raise CertificateFailure(
                f"cone {tc} maps to {make_cone(pts)}, not a fresh maximal cone")
        bijection.append((tc, img))
    if fresh:
        raise CertificateFailure("cone map is not onto the open subfan")
    return EmbeddingCertificate(
        junior=g_hat,
        star=star,
        iso=iso,
        cone_bijection=tuple(bijection),
    )


def coverage_check(fan: Fan, group: GroupData) -> bool | None:
    """Every maximal cone must contain a junior ray; None when no juniors."""
    if not group.juniors:
        return None
    covered = {c for g in group.juniors for c in fan.cones_through.get(g, ())}
    return len(covered) == len(fan.maximal_cones)


def _angle_class(v) -> int:
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _ccw_cmp(u, v) -> int:
    hu, hv = _angle_class(u), _angle_class(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def classify_surface(star: StarFan) -> SurfaceType:
    """Name the surface of a complete smooth 2-dimensional star fan.

    Rays are ordered counterclockwise; the self-intersection of each prime
    divisor comes from ``u_prev + u_next = -a * u``.
    """
    if star.fan.lattice.dim != 2:
        raise NotSurface("surface classification needs a 2-dimensional fan")
    if not star.complete:
        raise NotComplete("star fan is not complete")
    rays = sorted((r.coords for r in star.fan.rays), key=cmp_to_key(_ccw_cmp))
    k = len(rays)
    cone_sets = {frozenset(r.coords for r in c.rays) for c in star.fan.maximal_cones}
    if len(cone_sets) != k:
        raise NotComplete("maximal cones do not form a single cycle")
    for i in range(k):
        u, v = rays[i], rays[(i + 1) % k]
        if frozenset((u, v)) not in cone_sets:
            raise NotComplete("adjacent rays do not span a maximal cone")
        if abs(u[0] * v[1] - u[1] * v[0]) != 1:
            raise NotSmooth("adjacent ray pair is not a lattice basis")
    selfints = []
    for i in range(k):
        p, u, q = rays[(i - 1) % k], rays[i], rays[(i + 1) % k]
        # adjacent bases force p + q = -a * u with a an integer: the sum is
        # parallel to u, and a is read off its dot product with u
        s0, s1 = p[0] + q[0], p[1] + q[1]
        dot, norm = s0 * u[0] + s1 * u[1], u[0] * u[0] + u[1] * u[1]
        if u[0] * s1 - u[1] * s0 or dot % norm:
            raise InvariantError(f"neighbours of {u} do not sum to a multiple of it")
        selfints.append(-(dot // norm))
    vec = tuple(selfints)
    if k == 3:
        return SurfaceType("P2", None, vec)
    if k == 4:
        for rot in range(4):
            w = vec[rot:] + vec[:rot]
            if w[0] == 0 and w[2] == 0 and w[1] == -w[3] and w[1] >= 0:
                return SurfaceType("hirzebruch", w[1], vec)
    canon = min(
        min(vec[i:] + vec[:i] for i in range(k)),
        min(vec[::-1][i:] + vec[::-1][:i] for i in range(k)),
    )
    return SurfaceType("chain", None, canon)


def certificate_to_json(cert: EmbeddingCertificate,
                        surface: SurfaceType | None = None) -> dict:
    data = {
        "junior": list(cert.junior.coords),
        "iso_matrix": [list(row) for row in cert.iso.data],
        "anchor_cones_checked": len(cert.cone_bijection),
        "cone_pairs": [
            [
                [list(r.coords) for r in tc.rays],
                [list(r.coords) for r in img.rays],
            ]
            for tc, img in cert.cone_bijection
        ],
        "verified": True,
        "surface_type": None,
    }
    if surface is not None:
        data["surface_type"] = {
            "kind": surface.kind,
            "parameter": surface.parameter,
            "self_intersections": list(surface.self_intersections),
        }
    return data
