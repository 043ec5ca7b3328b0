"""Reference implementations and helpers that only the tests use.

``basis_coords`` is a point's basis coordinates, raising off the lattice;
it left ``ScaledLattice`` once each fan solved its rays once
(``Fan.ray_coords``).  ``from_basis_coords`` inverts it; it left the
lattice once certificates read each cone's image off the checked lifts.
``is_primitive`` and ``project`` are the lattice's primitivity test and the
quotient's projection of a point before callers read both off one forward
substitution (a second substitution each, and the zero vector rejected as
not in the lattice).
The linear-algebra oracles are the solvers torcrep used before its single
fraction-free kernel: Fraction Gauss-Jordan, a Bareiss determinant loop,
an unnormalised fraction-free rank loop (the one rank test left once
``make_cone`` stopped testing independence) and cofactor expansion; and
``smith_normal_form``, the dense three-matrix Smith form ``s = p * m * q``
that ``class_group`` used before its private elimination kept only the
rows of ``p``, sparse, and no ``q``; ``hermite_with_transform``, the
Hermite form when it kept its transform ``u``, with
``quotient_projection_two_forms``, the quotient's projection from two such
forms before one form of ``w`` over the identity gave it; and
``inverse_unimodular``, the inverse that the embedding certificate took
before one ``solve``; and ``matmul``, the matrix product that left
``IntMatrix`` when only the tests multiplied matrices;
``facet_normals_by_columns``, ``Cone.facet_normals`` before it solved with
the rays as rows.  The fan
oracles are the general pairwise fan check (the extreme rays of every
intersection of two cones, computed exactly) with ``refines`` (containment
plus support volume), which ``validate_fan`` replaced by facet pairing over
the orthant; ``validate_fan_by_volume``, that check when it pinned the
covering multiplicity by the ``support_volume`` of the cones rather than by
one point inside one cone; ``validate_fan_by_owners``, that check before it
read the fan's facet table (it built its own and dropped it), and
``two_cones``, the SVG's edges before they were read off that table;
``support_volume_fraction``, the support volume summed as one
``Fraction`` per cone; ``is_terminal`` before the age rule (the bounding-box walk
over ``Conv(0, rays)``); ``certify_normal_embedding`` before it checked
one map per junior (a map per anchor cone) and before its single pass
(the open subfan ``xi_g``, the ``age_weighted_divisor`` and the general
line-bundle ``total_space_fan``); ``barycentric`` and
``contains_point`` before every cone was full-dimensional and answered
from its cached facet normals (one ``solve`` per call, for faces and for
points of another denominator too), with ``contains_point`` itself once
no package code asked it; and ``star_subdivision`` before each new cone
took its facet normals from its parent by a pivot (``make_cone`` per
child, its normals solved when first read) and before the incremental
builder (``star_subdivision_by_pivot``: a scan of every cone, a pivot per
child, a re-sorted fan and a ray check over the whole fan each step, with
``fold_by_pivot`` the fold over it); ``subdivide_by_filter`` is the
builder's step before its landings (each held point tested against each
child by its numerators, not placed by one minimum-ratio test).
``star_subdivision`` itself,
one step of the package's builder, and ``fans_equal`` now live here, as
only the tests call them; ``freudenthal_fan`` builds crepant fans in
n = 4 without ``resolve``, and ``mckay_vectors`` gives both sides of the
McKay correspondence on a fan.  ``closure_bfs`` is the group closure before it went coset
by coset (breadth-first, each element built once per generator), and
``closure_by_zip`` the coset-by-coset closure before it added and reduced
with ``map``.  ``element_names_by_key`` names the elements by one
``(age, coords)`` key sort, before the two stable sorts and before the
names read the group's age split; ``element_table_by_fstring`` is
``analyze``'s element table before one format template per group (a
formatted line per element, through ``LatticePoint.__str__`` and
``age``).  ``is_zero`` left ``LatticePoint`` once no package code asked
it, and ``lattice_point_by_setattr`` is the ``LatticePoint`` constructor
before its one type test and its slot setters.  The
Hilbert basis oracles are the
lex scan before its packed comparison (a Python test of each candidate
against each kept minimal element, which is also the oracle of the n = 3
dominance sweep), ``hilbert_basis_packed_scan``, that lex scan with each
candidate packed against all kept elements in one big-integer subtraction
(the n >= 4 basis before it went one age layer at a time), and a walk
that decides irreducibility by enumerating the lattice points of the box
below a candidate.  The search
oracles are ``search_resolution`` before the depth-first search (it folds
every permutation of the targets from the orthant) and the depth-first
search before it kept a builder per frame (``search_resolution_by_fans``:
a whole fan per frame, and a dead-cone scan of every singular cone for
every pending target).  The class-group
oracle is ``class_group_to_json`` before ``ClassGroup`` became a record
(a ``TDivisor`` canonical divisor, ``Fraction`` pairings and a Smith-form
class vector); ``class_vector`` reads a divisor's class off the ray
classes.  The differential tests compare the package against them.  The
checks at the end (``age_affinity_check``, ``euler_check``,
``principal_divisor``, and ``is_principal``, a Hermite solve by
``solve_integer`` that checks the Smith-form class vectors) and their
errors are identities the tests assert; the CLI does not use them.
"""

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import comb, factorial, gcd, prod
from operator import lshift

from torcrep.divisors import ClassGroup, dual_basis
from torcrep.errors import (
    CertificateFailure,
    InputError,
    InvariantError,
    ResolutionNotFound,
    TorcrepError,
)
from torcrep.exceptional import (
    EmbeddingCertificate,
    StarFan,
    star_fan,
)
from torcrep.fans import (
    Cone,
    Fan,
    _FanBuilder,
    barycentric,
    cone_index,
    fan_to_json,
    is_smooth_cone,
    make_cone,
    make_fan,
    sigma_fan,
)
from torcrep.groups import GroupData
from torcrep.hilbert import hilbert_basis
from torcrep.intlinalg import IntMatrix, solve, xgcd
from torcrep.lattice import LatticePoint, ScaledLattice
from torcrep.resolve import (
    BUDGET_ENV,
    ResolutionResult,
    _policy_order,
    certify_fan,
    search_budget,
)

# ---------------------------------------------------------------------------
# Lattice oracles


def is_zero(p: LatticePoint) -> bool:
    return not any(p.coords)


def lattice_point_by_setattr(coords, denom) -> LatticePoint:
    """``LatticePoint(coords, denom)`` with a set of the coordinate types and
    four ``object.__setattr__`` calls, as the constructor was."""
    self = object.__new__(LatticePoint)
    coords = tuple(coords)
    if not set(map(type, coords)) <= {int}:
        raise TypeError(f"coordinates must be integers, got {coords!r}")
    if type(denom) is not int:
        raise TypeError(f"denominator must be an integer, got {denom!r}")
    if denom < 1:
        raise ValueError("denominator must be positive")
    age, rest = divmod(sum(coords), denom)
    init = object.__setattr__
    init(self, "coords", coords)
    init(self, "denom", denom)
    init(self, "_hash", hash((coords, denom)))
    init(self, "_age", None if rest else age)
    return self


def basis_coords(lat: ScaledLattice, p: LatticePoint) -> tuple[int, ...]:
    x = lat.coords_or_none(p)
    if x is None:
        raise TorcrepError(f"{p} is not in the lattice")
    return x


def from_basis_coords(lat: ScaledLattice, x) -> LatticePoint:
    """The lattice point with basis coordinates ``x``, inverse of ``basis_coords``."""
    return LatticePoint(lat.basis.mul_vec(x), lat.denom)


def is_primitive(lat: ScaledLattice, p: LatticePoint) -> bool:
    if is_zero(p):
        raise TorcrepError("the zero vector has no primitivity")
    return gcd(*basis_coords(lat, p)) == 1


def project(lat: ScaledLattice, proj: IntMatrix, p: LatticePoint) -> LatticePoint:
    """The image of ``p`` in ``N / Z*v`` under ``proj = quotient_by_ray(v, w)``."""
    x = basis_coords(lat, p)
    return LatticePoint(proj.mul_vec(x), 1)


def quotient_projection_two_forms(lat: ScaledLattice, v: LatticePoint) -> IntMatrix:
    """``quotient_by_ray(v, basis_coords(lat, v))`` from two Hermite forms.

    The transform ``u`` of the form of ``w = coords(v)`` has ``w u = e_1``,
    so its other columns span the annihilator of ``w``; a second form puts
    them in canonical order.
    """
    _, u = hermite_with_transform(IntMatrix([basis_coords(lat, v)]))
    h, _ = hermite_with_transform(IntMatrix([row[1:] for row in u.data]))
    return IntMatrix(zip(*h.data))


# ---------------------------------------------------------------------------
# Linear-algebra oracles


def matmul(*ms: IntMatrix) -> IntMatrix:
    """The product ``ms[0] * ms[1] * ...``, left to right."""
    out = ms[0]
    for m in ms[1:]:
        if out.cols != m.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = list(zip(*m.data))
        out = IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in out.data]
        )
    return out


def hermite_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form ``(h, u)`` with ``h = m * u``."""
    nrows, ncols = m.rows, m.cols
    h = [list(c) for c in zip(*m.data)]          # column-major working copies
    u = [[int(i == j) for i in range(ncols)] for j in range(ncols)]

    def negate(j):
        h[j] = [-x for x in h[j]]
        u[j] = [-x for x in u[j]]

    def addmul(dst, src, f):
        h[dst] = [a + f * b for a, b in zip(h[dst], h[src])]
        u[dst] = [a + f * b for a, b in zip(u[dst], u[src])]

    pc = 0
    for i in range(nrows):
        if pc >= ncols:
            break
        j0 = next((j for j in range(pc, ncols) if h[j][i] != 0), None)
        if j0 is None:
            continue
        if j0 != pc:
            h[pc], h[j0] = h[j0], h[pc]
            u[pc], u[j0] = u[j0], u[pc]
        for j in range(pc + 1, ncols):
            if h[j][i] == 0:
                continue
            a, b = h[pc][i], h[j][i]
            if b % a == 0:
                addmul(j, pc, -(b // a))
            else:
                g, x, y = xgcd(a, b)
                hp, hj = h[pc], h[j]
                up, uj = u[pc], u[j]
                h[pc] = [x * s + y * t for s, t in zip(hp, hj)]
                h[j] = [-(b // g) * s + (a // g) * t for s, t in zip(hp, hj)]
                u[pc] = [x * s + y * t for s, t in zip(up, uj)]
                u[j] = [-(b // g) * s + (a // g) * t for s, t in zip(up, uj)]
        if h[pc][i] < 0:
            negate(pc)
        piv = h[pc][i]
        for j in range(pc):
            f = h[j][i] // piv
            if f:
                addmul(j, pc, -f)
        pc += 1
    return IntMatrix(zip(*h)), IntMatrix(zip(*u))


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse; the matrix must be unimodular."""
    if m.rows == m.cols:
        try:
            cols, d = solve(m.data, IntMatrix.identity(m.rows).data)
        except ValueError:  # singular
            d = 0
        if d == 1:
            return IntMatrix(zip(*cols))
    raise ValueError("matrix is not unimodular")


def solve_rational(m: IntMatrix, b) -> tuple[Fraction, ...] | None:
    """Unique rational solution of ``m*x = b`` by Fraction Gauss-Jordan.

    None when the system is inconsistent; ValueError when the columns of
    ``m`` are linearly dependent.
    """
    b = [Fraction(int(x)) for x in b]
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    a = [[Fraction(x) for x in row] for row in m.data]
    r = 0
    for j in range(m.cols):
        i = next((i for i in range(r, m.rows) if a[i][j] != 0), None)
        if i is None:
            raise ValueError("columns are linearly dependent")
        a[r], a[i] = a[i], a[r]
        b[r], b[i] = b[i], b[r]
        inv = 1 / a[r][j]
        a[r] = [x * inv for x in a[r]]
        b[r] = b[r] * inv
        for k in range(m.rows):
            if k != r and a[k][j] != 0:
                f = a[k][j]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
                b[k] = b[k] - f * b[r]
        r += 1
    if any(b[i] != 0 for i in range(r, m.rows)):
        return None
    return tuple(b[i] for i in range(m.cols))


def det_loop(m: IntMatrix) -> int:
    """Determinant by a Bareiss loop over the trailing submatrix."""
    n = m.rows
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_integer(m: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution of ``m*x = b``, or None when there is none."""
    b = tuple(int(x) for x in b)
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    h, u = hermite_with_transform(m)
    res = list(b)
    y = [0] * h.cols
    for j in range(h.cols):
        i = next((i for i in range(h.rows) if h.data[i][j] != 0), None)
        if i is None:
            continue
        if res[i] % h.data[i][j] != 0:
            return None
        f = res[i] // h.data[i][j]
        if f:
            for k in range(h.rows):
                res[k] -= f * h.data[k][j]
        y[j] = f
    if any(res):
        return None
    return u.mul_vec(y)


def rank_loop(m: IntMatrix) -> int:
    """Rank over Q by cross-multiplying elimination without division."""
    a = [list(row) for row in m.data]
    r = 0
    for j in range(m.cols):
        i = next((i for i in range(r, m.rows) if a[i][j] != 0), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        for k in range(r + 1, m.rows):
            if a[k][j] != 0:
                piv, val = a[r][j], a[k][j]
                a[k] = [piv * x - val * y for x, y in zip(a[k], a[r])]
        r += 1
        if r == m.rows:
            break
    return r


def inverse_by_fractions(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix from one Fraction solve per column."""
    if m.rows != m.cols or abs(det_loop(m)) != 1:
        raise ValueError("matrix is not unimodular")
    n = m.rows
    cols = [solve_rational(m, [int(i == j) for i in range(n)]) for j in range(n)]
    return IntMatrix(zip(*[[int(x) for x in c] for c in cols]))


def cofactor(m: IntMatrix, i: int, j: int) -> int:
    minor = [
        [m.data[a][b] for b in range(m.cols) if b != j]
        for a in range(m.rows)
        if a != i
    ]
    if not minor:
        return 1
    s = -1 if (i + j) % 2 else 1
    return s * det_loop(IntMatrix(minor))


def adjugate(m: IntMatrix) -> list[list[int]]:
    """Rows of the adjugate, so that ``m * adj = det(m) * I``."""
    return [[cofactor(m, j, i) for j in range(m.rows)] for i in range(m.rows)]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form ``(s, p, q)`` with ``s = p * m * q``."""
    nrows, ncols = m.rows, m.cols
    s = [list(row) for row in m.data]
    p = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    q = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def combine_rows(i, j, a, b, c, d):
        # rows (i, j) <- (a*ri + b*rj, c*ri + d*rj); requires ad - bc = ±1
        for mat in (s, p):
            ri, rj = mat[i], mat[j]
            mat[i] = [a * x + b * y for x, y in zip(ri, rj)]
            mat[j] = [c * x + d * y for x, y in zip(ri, rj)]

    def combine_cols(i, j, a, b, c, d):
        for mat in (s, q):
            for row in mat:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    t = 0
    bound = min(nrows, ncols)
    while t < bound:
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = s[i][j]
                if v and (pivot is None or abs(v) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            combine_rows(t, pi, 0, 1, 1, 0)
        if pj != t:
            combine_cols(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, nrows):
                a, b = s[t][t], s[i][t]
                if b == 0:
                    continue
                if b % a == 0:
                    combine_rows(t, i, 1, 0, -(b // a), 1)
                else:
                    g, x, y = xgcd(a, b)
                    combine_rows(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, ncols):
                a, b = s[t][t], s[t][j]
                if b == 0:
                    continue
                if b % a == 0:
                    combine_cols(t, j, 1, 0, -(b // a), 1)
                else:
                    g, x, y = xgcd(a, b)
                    combine_cols(t, j, x, y, -(b // g), a // g)
            col_clear = all(s[i][t] == 0 for i in range(t + 1, nrows))
            row_clear = all(s[t][j] == 0 for j in range(t + 1, ncols))
            if not (col_clear and row_clear):
                continue
            a = s[t][t]
            bad = next(
                (
                    i
                    for i in range(t + 1, nrows)
                    if any(s[i][j] % a for j in range(t + 1, ncols))
                ),
                None,
            )
            if bad is None:
                break
            combine_rows(t, bad, 1, 1, 0, 1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            p[t] = [-x for x in p[t]]
        t += 1
    return IntMatrix(s), IntMatrix(p), IntMatrix(q)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form."""
    s, _, _ = smith_normal_form(m)
    diag = [s.data[i][i] for i in range(min(s.rows, s.cols))]
    return tuple(d for d in diag if d != 0)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel ``{x : m*x = 0}``."""
    h, u = hermite_with_transform(m)
    return [uc for hc, uc in zip(zip(*h.data), zip(*u.data)) if not any(hc)]


# ---------------------------------------------------------------------------
# Cones, fans and groups


def faces(cone: Cone) -> tuple[Cone, ...]:
    """All faces of a simplicial cone: one per subset of rays."""
    out = []
    for k in range(cone.dim + 1):
        for sub in combinations(cone.rays, k):
            out.append(Cone(sub))
    return tuple(out)


def facet_normals_by_columns(cone: Cone) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``Cone.facet_normals`` as it solved ``A x = d e_i`` with the rays as columns.

    The columns of ``d * A^-1`` come out, and ``zip`` turns them into its rows.
    """
    if not cone.rays or cone.dim != cone.rays[0].dim:
        raise ValueError(f"cone {cone} is not full-dimensional")
    cols, d = solve(list(zip(*[r.coords for r in cone.rays])), IntMatrix.identity(cone.dim).data)
    return tuple(zip(*cols)), d


def barycentric_by_solve(cone: Cone, p: LatticePoint):
    """``barycentric`` by one ``solve`` of the cleared system, for any cone."""
    rd, pd = cone.rays[0].denom, p.denom
    g = gcd(rd, pd)
    # clear denominators: (rays/rd) lam = p/pd  <=>  (pd*rays) lam = rd*p
    rows = list(zip(*[tuple(pd // g * c for c in r.coords) for r in cone.rays]))
    sol = solve(rows, [tuple(rd // g * c for c in p.coords)])
    return None if sol is None else (sol[0][0], sol[1])


def contains_point_by_solve(cone: Cone, p: LatticePoint) -> bool:
    """``contains_point`` for any cone, faces and the empty cone included."""
    if not cone.rays:
        return is_zero(p)
    bary = barycentric_by_solve(cone, p)
    return bary is not None and all(x >= 0 for x in bary[0])


def contains_point(cone: Cone, p: LatticePoint) -> bool:
    """Exact membership test, from the cone's facet normals."""
    return all(x >= 0 for x in barycentric(cone, p)[0])


def star_subdivision(fan: Fan, mu: LatticePoint) -> Fan:
    """Star subdivision at a primitive point of the support: one builder step.

    Cones avoiding ``mu`` survive; a cone containing it is replaced by the
    joins of ``mu`` with its facets not containing ``mu``.
    """
    state = _FanBuilder(fan, (mu,))
    state.subdivide(mu)
    return state.fan()


def subdivide_by_filter(state: _FanBuilder, mu: LatticePoint) -> None:
    """``_FanBuilder.subdivide`` before its landings: each held point is
    tested against each child, all its child numerators ``>= 0``."""
    hits = state.where.pop(mu, ())  # none for a ray
    inside, counts = state.inside, state.ray_counts
    gained: dict[LatticePoint, list[Cone]] = {}
    for cone in hits:
        held = inside.pop(cone)
        b, d, rays = held[mu], cone.det, cone.rays
        for r in rays:
            counts[r] -= 1
        for i, bi in enumerate(b):
            if bi <= 0:
                continue
            new = rays[:i] + (mu,) + rays[i + 1:]
            order = sorted(range(len(new)), key=lambda k: new[k].coords)
            child = Cone(tuple(new[k] for k in order))
            child.__dict__["det"] = bi
            own = {}
            for q, bq in held.items():
                if q == mu:
                    continue
                out = [bq[i] if j == i else (bi * y - bj * bq[i]) // d
                       for j, (bj, y) in enumerate(zip(b, bq))]
                if min(out) >= 0:
                    own[q] = tuple(out[k] for k in order)
            inside[child] = own
            for q in own:
                gained.setdefault(q, []).append(child)
            for r in child.rays:
                counts[r] = counts.get(r, 0) + 1
    gone = set(hits)
    for q, cones in gained.items():
        state.where[q] = [c for c in state.where[q] if c not in gone] + cones
    if not counts.get(mu) or any(not counts[r] for cone in hits for r in cone.rays):
        raise InvariantError(f"subdividing at {mu} changed rays other than {mu}")


def fans_equal(a: Fan, b: Fan) -> bool:
    """Exact fan equality via the canonical serialization."""
    return fan_to_json(a) == fan_to_json(b)


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


def star_subdivision_by_pivot(fan: Fan, mu: LatticePoint) -> Fan:
    """``star_subdivision`` as a scan of every cone and a pivot per child."""
    lat = fan.lattice
    if not lat.contains(mu):
        raise InputError(f"ray {mu} is not a lattice point")
    if not is_primitive(lat, mu):
        raise InputError(f"ray {mu} is not primitive")
    hit = False
    new_cones = []
    for cone in fan.maximal_cones:
        b, _ = barycentric(cone, mu)  # H * mu
        if any(v < 0 for v in b):
            new_cones.append(cone)
            continue
        hit = True
        new_cones += [_pivot(cone, i, mu, b) for i, v in enumerate(b) if v > 0]
    if not hit:
        raise TorcrepError(f"{mu} is outside the support of the fan")
    result = make_fan(lat, new_cones)
    if set(result.rays) != set(fan.rays) | {mu}:
        raise InvariantError(f"subdividing at {mu} changed rays other than {mu}")
    return result


def fold_by_pivot(group: GroupData, seq) -> Fan:
    """``resolve``'s fold as one whole-fan ``star_subdivision_by_pivot`` per point."""
    fan = sigma_fan(group.lattice)
    for mu in seq:
        fan = star_subdivision_by_pivot(fan, mu)
    return fan


def star_subdivision_by_make_cone(fan: Fan, mu: LatticePoint) -> Fan:
    """``star_subdivision`` with one ``make_cone`` per new cone."""
    lat = fan.lattice
    if not lat.contains(mu):
        raise InputError(f"ray {mu} is not a lattice point")
    if not is_primitive(lat, mu):
        raise InputError(f"ray {mu} is not primitive")
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
        raise TorcrepError(f"{mu} is outside the support of the fan")
    result = make_fan(lat, new_cones)
    if set(result.rays) != set(fan.rays) | {mu}:
        raise InvariantError(f"subdividing at {mu} changed rays other than {mu}")
    return result


def intersection_generators(a: Cone, b: Cone):
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
            mat = IntMatrix(zip(*[cols[j] for j in sub]))
            h, u = hermite_with_transform(mat)
            zero_cols = [
                j for j in range(h.cols)
                if all(h.data[i][j] == 0 for i in range(h.rows))
            ]
            if len(zero_cols) != 1:
                continue
            gen = tuple(row[zero_cols[0]] for row in u.data)
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


def validate_fan_all_pairs(fan: Fan) -> None:
    """Primitive rays, simplicial cones, and every pair meeting in a common face.

    This is the general fan check, for any support: the extreme rays of
    each pairwise intersection must lie in the cone on the common rays.
    """
    lat = fan.lattice
    for p in fan.rays:
        if not lat.contains(p):
            raise InputError(f"ray {p} is not a lattice point")
        if not is_primitive(lat, p):
            raise InputError(f"ray {p} is not primitive")
    for c in fan.maximal_cones:
        mat = IntMatrix(zip(*[r.coords for r in c.rays]))
        if rank_loop(mat) != c.dim:
            raise InputError(f"cone {c} is not simplicial")
    for a, b in combinations(fan.maximal_cones, 2):
        common = set(a.rays) & set(b.rays)
        tau = make_cone(common) if common else Cone(())
        for x in intersection_generators(a, b):
            pt = LatticePoint(x, a.rays[0].denom)
            if not contains_point_by_solve(tau, pt):
                raise InputError(
                    f"cones {a} and {b} do not intersect in a common face"
                )


def validate_fan_by_volume(fan: Fan) -> None:
    """Check that the cones form a fan whose support is the orthant.

    In order: the rays are primitive lattice points, every cone is
    full-dimensional, every ray lies in the closed orthant, the support
    volume equals the group order ``[N : Z^n]`` (the orthant's), and the
    facets pair up: a facet inside a coordinate hyperplane belongs to one
    cone, every other facet to exactly two, on opposite sides of it.
    Raises InputError, naming the ray, cone or facet, on the first failure.

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
        x = lat.coords_or_none(p)
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
    for p in fan.rays:
        if any(x < 0 for x in p.coords):
            raise InputError(f"ray {p} lies outside the orthant")
    volume = support_volume(fan)
    if volume != lat.index_over_std:
        raise InputError(
            f"the cones have support volume {volume}, not the orthant's "
            f"{lat.index_over_std}"
        )
    # facet rays -> (cone, inner normal of the facet, ray opposite it)
    owners: dict[tuple[LatticePoint, ...], list] = {}
    for c in fan.maximal_cones:
        for i, h in enumerate(c.facet_normals[0]):
            owners.setdefault(c.rays[:i] + c.rays[i + 1:], []).append((c, h, c.rays[i]))
    for rays, cones in owners.items():
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


def validate_fan_by_owners(fan: Fan) -> None:
    """``validate_fan`` when it built its own facet table, ``owners``.

    The checks, their order and their messages are ``validate_fan``'s; see
    its docstring for why they characterise fans with the orthant as support.
    """
    lat = fan.lattice
    n = lat.dim
    for p in fan.rays:
        x = lat.coords_or_none(p)
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
    # facet rays -> (cone, inner normal of the facet, ray opposite it)
    owners: dict[tuple[LatticePoint, ...], list] = {}
    for c in fan.maximal_cones:
        for i, h in enumerate(c.facet_normals[0]):
            owners.setdefault(c.rays[:i] + c.rays[i + 1:], []).append((c, h, c.rays[i]))
    for rays, cones in owners.items():
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


def two_cones(fan: Fan) -> tuple[Cone, ...]:
    """Every 2-face of the fan's cones, sorted, as ``Fan.two_cones`` gave the SVG's edges."""
    seen = set()
    for c in fan.maximal_cones:
        for pair in combinations(c.rays, 2):
            seen.add(Cone(tuple(sorted(pair, key=lambda p: p.coords))))
    return tuple(sorted(seen, key=lambda c: tuple(r.coords for r in c.rays)))


def support_volume(fan: Fan) -> Fraction:
    """Exact volume of the support in the slab ``age <= 1``.

    For a simplicial cone with rays of positive age the slab is the
    simplex on ``u_i / age(u_i)``, so the measure is additive across any
    subdivision of the support and invariant under refinement; the
    orthant's is ``[N : Z^n]``.  Requires full-dimensional cones whose rays
    have positive age (``validate_fan`` checks both first).
    """
    # cone_index / prod(age u) = cone_index * denom^n / prod(sum u)
    lat, indices = fan.lattice, {}
    for c in fan.maximal_cones:
        sums = prod(sum(r.coords) for r in c.rays)
        indices[sums] = indices.get(sums, 0) + cone_index(c, lat)
    scale = lat.denom**lat.dim
    return sum((Fraction(i * scale, sums) for sums, i in indices.items()), Fraction(0))


def refines(fine: Fan, coarse: Fan) -> bool:
    """Same lattice, every cone inside a coarse cone, equal support volume.

    A cone of lower dimension, with dependent rays or with a ray of
    non-positive age has no support volume; it refines nothing.
    """
    if fine.lattice != coarse.lattice:
        return False
    for c in fine.maximal_cones:
        if not any(
            all(contains_point_by_solve(big, r) for r in c.rays)
            for big in coarse.maximal_cones
        ):
            return False
    n = fine.lattice.dim
    if any(c.dim != n or any(r.age <= 0 for r in c.rays)
           or rank_loop(IntMatrix(zip(*[r.coords for r in c.rays]))) < n
           for c in fine.maximal_cones):
        return False
    return support_volume(fine) == support_volume(coarse)


def support_volume_fraction(fan: Fan) -> Fraction:
    """``support_volume`` before it grouped cones by their product of ray sums.

    One ``Fraction`` per cone: ``cone_index`` over the product of the rays'
    ages.
    """
    total = Fraction(0)
    for c in fan.maximal_cones:
        denom = 1
        for r in c.rays:
            denom *= Fraction(r.age)
        total += cone_index(c, fan.lattice) / denom
    return total


def _saturation_coords(cone: Cone, lattice: ScaledLattice) -> IntMatrix:
    """Ray coordinates in a basis of ``N ∩ span(c)`` (a d-by-d matrix)."""
    mat = IntMatrix(zip(*[basis_coords(lattice, r) for r in cone.rays]))
    if cone.dim == lattice.dim:
        return mat
    _, p, _ = smith_normal_form(mat)
    return IntMatrix(matmul(p, mat).data[:cone.dim])


def psi_lattice_points(cone: Cone, lattice: ScaledLattice):
    """Lattice points of ``Conv(0, rays)`` with barycentric coordinates.

    Yields ``(point, numerators, d)`` with ``point`` in the saturated span
    lattice and barycentric coordinates ``numerators / d`` (``d > 0``),
    found by an exact bounding-box walk.
    """
    x = _saturation_coords(cone, lattice)
    dim = cone.dim
    cols, d = solve(x.data, IntMatrix.identity(dim).data)
    inv = list(zip(*cols))  # rows of d * x^-1
    vertices = [(0,) * dim] + list(zip(*x.data))
    lo = [min(v[i] for v in vertices) for i in range(dim)]
    hi = [max(v[i] for v in vertices) for i in range(dim)]

    def walk(prefix, i):
        if i == dim:
            pt = tuple(prefix)
            lam = [sum(a * c for a, c in zip(row, pt)) for row in inv]
            if any(v < 0 for v in lam) or sum(lam) > d:
                return
            yield pt, tuple(lam), d
            return
        for c in range(lo[i], hi[i] + 1):
            yield from walk(prefix + [c], i + 1)

    yield from walk([], 0)


def is_terminal_box_walk(cone: Cone, lattice: ScaledLattice) -> bool:
    """``is_terminal`` by the bounding-box walk alone, smooth cones included."""
    for _, lam, d in psi_lattice_points(cone, lattice):
        nonzero = [v for v in lam if v]
        if nonzero and nonzero != [d]:
            return False
    return True


def is_canonical(cone: Cone, lattice: ScaledLattice) -> bool:
    """True when all nonzero points of ``Conv(0, rays)`` lie on the far facet."""
    for _, lam, d in psi_lattice_points(cone, lattice):
        if any(lam) and sum(lam) != d:
            return False
    return True


def closure_bfs(gens, r: int):
    """``closure`` before it built the group coset by coset.

    Breadth-first from 0, adding every generator to every element of the
    frontier; each element is yielded once, when first reached.
    """
    gens = [tuple(c % r for c in g) for g in gens]
    zero = (0,) * len(gens[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for base in frontier:
            for g in gens:
                cand = tuple((a + b) % r for a, b in zip(base, g))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
                    yield cand
        frontier = nxt


def closure_by_zip(gens, r: int):
    """``closure`` before it added and reduced each coset with ``map``."""
    gens = [tuple(c % r for c in g) for g in gens]
    subgroup = [(0,) * len(gens[0])]
    seen = set(subgroup)
    for g in gens:
        shift, cosets = g, []
        while shift not in seen:
            if len(subgroup) == 1:  # H = {0}: the coset is k*g itself
                cosets.append(shift)
                yield shift
            else:
                coset = [tuple([(a + b) % r for a, b in zip(h, shift)]) for h in subgroup]
                cosets += coset
                yield from coset
            shift = tuple([(a + b) % r for a, b in zip(shift, g)])
        subgroup += cosets
        seen.update(cosets)


def element_names_by_key(group: GroupData) -> dict[LatticePoint, str]:
    """``element_names`` before it sorted twice: one ``(age, coords)`` key sort."""
    nonzero = [g for g in group.elements if not is_zero(g)]
    nonzero.sort(key=lambda g: (g.age, g.coords))
    return {g: f"g{i + 1}" for i, g in enumerate(nonzero)}


def element_table_by_fstring(group: GroupData, names) -> str:
    """``analyze``'s element table, one f-string per element."""
    return "".join(f"  {names[g]:<5} {g}  age {g.age}\n" if g in names else "  id    0\n"
                   for g in group.elements)


class NotInCone(TorcrepError):
    """Point lies outside the cone."""


def box_lattice_points(group: GroupData, v: LatticePoint) -> list[LatticePoint]:
    """Lattice points ``u`` with ``0 <= u <= v`` componentwise, sorted lex.

    Every point of the lattice is a group element plus an integer vector,
    so the box is enumerated residue class by residue class.
    """
    r = group.r
    out = []
    for e in group.elements:
        ranges = []
        for ec, vc in zip(e.coords, v.coords):
            top = (vc - ec) // r
            if top < 0:
                ranges = None
                break
            ranges.append(range(0, top + 1))
        if ranges is None:
            continue
        for shift in product(*ranges):
            out.append(
                LatticePoint(
                    tuple(ec + r * z for ec, z in zip(e.coords, shift)), r
                )
            )
    out.sort(key=lambda p: p.coords)
    return out


def is_irreducible(group: GroupData, v: LatticePoint):
    """Decide irreducibility; on failure also return the smallest witness.

    Returns ``(True, None)`` or ``(False, (u, v - u))`` with ``u`` the
    lexicographically smallest nonzero decomposition part.
    """
    if is_zero(v) or any(c < 0 for c in v.coords):
        raise NotInCone(f"{v} is not a nonzero point of the orthant")
    if not group.lattice.contains(v):
        raise NotInCone(f"{v} is not a lattice point")
    for u in box_lattice_points(group, v):
        if is_zero(u) or u == v:
            continue
        w = LatticePoint(
            tuple(a - b for a, b in zip(v.coords, u.coords)), group.r
        )
        return False, (u, w)
    return True, None


def hilbert_basis_box_walk(group: GroupData) -> tuple[LatticePoint, ...]:
    """``hilbert_basis`` by ``is_irreducible`` over every candidate."""
    candidates = {g for g in group.elements if not is_zero(g)}
    candidates.update(group.lattice.units())
    return tuple(
        v for v in sorted(candidates, key=lambda p: p.coords)
        if is_irreducible(group, v)[0]
    )


def hilbert_basis_pairwise(group: GroupData) -> tuple[LatticePoint, ...]:
    """``hilbert_basis`` by comparing each candidate with each kept element."""
    candidates = [g for g in group.elements if not is_zero(g)]
    candidates.extend(group.lattice.units())
    minimal = []
    for v in sorted(candidates, key=lambda p: p.coords):
        if not any(
            all(a <= b for a, b in zip(h.coords, v.coords)) for h in minimal
        ):
            minimal.append(v)
    return tuple(minimal)


def hilbert_basis_packed_scan(group: GroupData) -> tuple[LatticePoint, ...]:
    """``hilbert_basis`` by one lex scan, each candidate packed against all kept ones.

    Points with coordinates in ``[0, r]`` are packed into ``n`` fields of
    ``w = r.bit_length() + 1`` bits, whose top bits ``2^(w-1) > r`` are
    guards; the kept ``h^0, h^1, ...`` fill slots of ``n*w`` bits.  The
    candidate ``v`` with its guards set is below ``2^(n*w)``, so times
    ``ones`` (1 at each slot start) it repeats ``v_i + 2^(w-1)`` in field
    ``i`` of every slot without carries.  Less the kept elements, field ``i``
    of slot ``k`` holds ``v_i + 2^(w-1) - h^k_i``, in ``(0, 2^w)``: no field
    borrows, and its guard is set exactly when ``v_i >= h^k_i``.  ANDing the
    guards of fields ``1 .. n-1`` onto field 0 sets the guard of field 0 of
    slot ``k`` exactly when ``h^k <= v``; ``v`` is minimal when every slot
    has a failing field.  A candidate above another lies above a minimal
    one, earlier in lex order, so one lex scan suffices.
    """
    n, w = group.n, group.r.bit_length() + 1
    candidates = [g for g in group.elements if not is_zero(g)]
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


def hilbert_candidate_rays_check(fan: Fan, hlb) -> bool:
    """True when the fan's rays are exactly the basis and all cones are smooth."""
    if set(fan.rays) != set(hlb):
        return False
    return all(is_smooth_cone(c, fan.lattice) for c in fan.maximal_cones)


@dataclass(frozen=True)
class JuniorSimplex:
    """Lattice points of ``Conv(e_1, ..., e_n)``: vertices plus age-1 elements."""

    vertices: tuple[LatticePoint, ...]
    interior_points: tuple[LatticePoint, ...]

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        return self.vertices + self.interior_points


def junior_simplex(group: GroupData) -> JuniorSimplex:
    return JuniorSimplex(group.lattice.units(), group.juniors)


def freudenthal_spec(r: int) -> str:
    """The group text of ``(Z/r)^3 ⊂ SL(4)``, diagonal, of order ``r^3``."""
    return f"{r}:(1,{r - 1},0,0);{r}:(0,1,{r - 1},0);{r}:(0,0,1,{r - 1})"


def freudenthal_fan(group: GroupData) -> Fan:
    """A crepant resolution of ``freudenthal_spec(r)``, not built by ``resolve``.

    The group's junior simplex is ``{x >= 0, sum(x) = r}``.  The map
    ``y1 = x1+x2+x3``, ``y2 = x2+x3``, ``y3 = x3`` sends it onto
    ``{r >= y1 >= y2 >= y3 >= 0}``.  The Freudenthal (Kuhn) triangulation
    cuts each unit cube with corner ``v`` into the 6 simplices
    ``t_s1 >= t_s2 >= t_s3`` (``t = y - v``), and those inside the region
    give its ``r^3`` unimodular cones.
    """
    r, cones = group.r, []
    for corner in product(range(r), repeat=3):
        for order in permutations(range(3)):
            y, path = list(corner), [corner]
            for k in order:
                y[k] += 1
                path.append(tuple(y))
            if all(r >= y1 >= y2 >= y3 >= 0 for y1, y2, y3 in path):
                cones.append(make_cone(LatticePoint((y1 - y2, y2 - y3, y3, r - y1), r)
                                       for y1, y2, y3 in path))
    return make_fan(group.lattice, cones)


def gl2_normal_form(fan: Fan) -> str:
    """Canonical serialization of a 2-dimensional fan modulo GL(2, Z).

    Every ordered unimodular ray pair inside a maximal cone is used as an
    anchor basis; the lexicographically smallest transformed serialization
    is a complete invariant of the GL(2, Z) orbit.
    """
    if fan.lattice.dim != 2:
        raise ValueError("normal form only defined for 2-dimensional fans")
    anchors = []
    for c in fan.maximal_cones:
        if c.dim != 2:
            continue
        u, v = (r.coords for r in c.rays)
        if abs(u[0] * v[1] - u[1] * v[0]) == 1:
            anchors.append((u, v))
            anchors.append((v, u))
    if not anchors:
        raise ValueError("fan has no unimodular anchor pair")
    forms = []
    denom = fan.lattice.denom
    for u, v in anchors:
        t = inverse_unimodular(IntMatrix([[u[0], v[0]], [u[1], v[1]]]))
        mapped = {
            r: LatticePoint(t.mul_vec(r.coords), denom) for r in fan.rays
        }
        rays = sorted((mapped[r].coords for r in fan.rays))
        index = {c: i for i, c in enumerate(rays)}
        cones = sorted(
            sorted(index[mapped[r].coords] for r in c.rays)
            for c in fan.maximal_cones
        )
        forms.append(
            json.dumps({"rays": [list(r) for r in rays], "cones": cones},
                       sort_keys=True, separators=(",", ":"))
        )
    return min(forms)


def gl2_equivalent(a: Fan, b: Fan) -> bool:
    return gl2_normal_form(a) == gl2_normal_form(b)


# ---------------------------------------------------------------------------
# Divisors and the class group


@dataclass(frozen=True)
class TDivisor:
    """Integer combination of the prime divisors attached to rays."""

    coeffs: tuple[tuple[LatticePoint, int], ...]

    @classmethod
    def from_dict(cls, d) -> "TDivisor":
        items = tuple(sorted(d.items(), key=lambda kv: kv[0].coords))
        return cls(items)


def pairing(m, u: LatticePoint) -> Fraction:
    """Exact pairing of a dual vector with a scaled lattice point."""
    return Fraction(sum(a * b for a, b in zip(m, u.coords)), u.denom)


def canonical_divisor(fan: Fan) -> TDivisor:
    """Coefficient -1 on every ray."""
    return TDivisor.from_dict({ray: -1 for ray in fan.rays})


def class_vector(fan: Fan, cg: ClassGroup, div: TDivisor) -> tuple[int, ...]:
    """Class of a divisor as its combination of the ray classes of the fan."""
    index = {ray: i for i, ray in enumerate(fan.rays)}
    total = [0] * (len(cg.torsion) + cg.rank)
    for ray, c in div.coeffs:
        for k, v in cg.ray_classes[index[ray]]:
            total[k] += c * v
    t = len(cg.torsion)
    return tuple(v % d for v, d in zip(total, cg.torsion)) + tuple(total[t:])


def class_group_json_reference(fan: Fan) -> dict:
    """``class_group_to_json`` as computed before ``ClassGroup`` was a record.

    The pairing matrix truncates ``Fraction`` entries by ``int``; each ray
    class reduces a column of the Smith left transform ``p``, and the
    canonical class reduces ``p`` times the coefficient vector of
    ``canonical_divisor``.
    """
    mb = dual_basis(fan.lattice)
    rays = fan.rays
    a = IntMatrix([[int(pairing(col, ray)) for col in mb] for ray in rays])
    s, p, _ = smith_normal_form(a)
    diag = tuple(s.data[i][i] for i in range(min(s.rows, s.cols)))
    nonzero = [d for d in diag if d]

    def reduce(y):
        tors = []
        free = []
        for i, v in enumerate(y):
            if i < len(diag):
                d = diag[i]
                if d == 1:
                    continue
                tors.append(v % d)
            else:
                free.append(v)
        return tuple(tors) + tuple(free)

    index = {ray: i for i, ray in enumerate(rays)}
    y = [0] * len(rays)
    for ray, c in canonical_divisor(fan).coeffs:
        y[index[ray]] = c
    return {
        "rank": len(rays) - len(nonzero),
        "torsion": [d for d in nonzero if d > 1],
        "ray_classes": [list(reduce(col)) for col in zip(*p.data)],
        "canonical_class": list(reduce(p.mul_vec(y))),
    }


def xi_g(fan: Fan, g_hat: LatticePoint) -> Fan:
    """Subfan of all faces of the maximal cones containing the given ray.

    Corresponds to an open toric subvariety; only the maximal cones are
    stored, faces are implicit.
    """
    if g_hat not in fan.cones_through:
        raise TorcrepError(f"{g_hat} is not a ray of the fan")
    return make_fan(fan.lattice, fan.cones_through[g_hat])


@dataclass(frozen=True)
class LineBundleFan:
    """Total-space fan of a line bundle over a star fan."""

    base: StarFan
    divisor: TDivisor
    fan: Fan


def age_weighted_divisor(star: StarFan) -> TDivisor:
    """Star-fan divisor with coefficient minus the age of each ray's lift."""
    return TDivisor.from_dict({ubar: -u.age for ubar, u in star.lifts})


def total_space_fan(star: StarFan, div: TDivisor) -> LineBundleFan:
    """Fan of the line bundle: cones ``Cone((0,1), (u, -a_u))`` and faces."""
    n1 = star.fan.lattice.dim
    total_lat = ScaledLattice(n1 + 1, 1, IntMatrix.identity(n1 + 1))
    apex = LatticePoint((0,) * n1 + (1,), 1)
    coefficient = dict(div.coeffs)
    cones = []
    for c in star.fan.maximal_cones:
        rays = [apex]
        for u in c.rays:
            rays.append(LatticePoint(u.coords + (-coefficient.get(u, 0),), 1))
        cones.append(make_cone(rays))
    fan = make_fan(total_lat, cones)
    if len(fan.rays) != len(star.fan.rays) + 1:
        raise InvariantError("total-space rays do not match the star rays plus apex")
    return LineBundleFan(star, div, fan)


def _iso_matrix(fan: Fan, star: StarFan, g_hat: LatticePoint, anchor: Cone) -> IntMatrix:
    """Lattice map sending ``(0,1)`` to the junior and ``(ubar, age u)`` to u.

    Domain coordinates are quotient-times-Z; the image is expressed in
    basis coordinates of the ambient lattice.
    """
    lat = fan.lattice
    proj = quotient_projection_two_forms(lat, g_hat)
    dom_cols = []
    img_cols = []
    for u in anchor.rays:
        if u == g_hat:
            continue
        dom_cols.append(project(lat, proj, u).coords + (u.age,))
        img_cols.append(basis_coords(lat, u))
    dom_cols.append((0,) * star.fan.lattice.dim + (1,))
    img_cols.append(basis_coords(lat, g_hat))
    d = IntMatrix(zip(*dom_cols))
    t = IntMatrix(zip(*img_cols))
    return matmul(t, inverse_unimodular(d))


def certify_normal_embedding_per_anchor(
    fan: Fan, g_hat: LatticePoint
) -> EmbeddingCertificate:
    """``certify_normal_embedding`` with the map rebuilt on every anchor cone.

    The pipeline is the one before the single pass: the open subfan
    ``xi_g``, the ``TDivisor`` of the ages, the total-space fan built by
    ``make_cone``/``make_fan``, and a second projection of each anchor's
    rays for its map.
    """
    lat = fan.lattice
    if not fan.is_smooth:
        raise TorcrepError("embedding certificates require a smooth fan")
    star = star_fan(fan, g_hat)
    div = age_weighted_divisor(star)
    total = total_space_fan(star, div)
    sub = xi_g(fan, g_hat)
    anchors = sub.maximal_cones
    anchor_set = set(anchors)

    first_iso = None
    first_bijection = None
    for anchor in anchors:
        iso = _iso_matrix(fan, star, g_hat, anchor)
        if abs(iso.det()) != 1:
            raise CertificateFailure(
                f"anchor {anchor}: induced map is not unimodular"
            )
        for ubar, u in star.lifts:
            got = iso.mul_vec(ubar.coords + (u.age,))
            if got != basis_coords(lat, u):
                raise CertificateFailure(f"anchor {anchor}: ray {ubar} maps off its lift {u}")
        apex = (0,) * star.fan.lattice.dim + (1,)
        if iso.mul_vec(apex) != basis_coords(lat, g_hat):
            raise CertificateFailure(f"anchor {anchor}: apex does not map to the ray")
        bijection = []
        seen = set()
        for tc in total.fan.maximal_cones:
            img_rays = []
            for ray in tc.rays:
                x = iso.mul_vec(ray.coords)
                img_rays.append(from_basis_coords(lat, x))
            img = make_cone(img_rays)
            if img not in anchor_set or img in seen:
                raise CertificateFailure(f"cone {tc} maps to {img}, not a fresh maximal cone")
            seen.add(img)
            bijection.append((tc, img))
        if len(seen) != len(anchors):
            raise CertificateFailure("cone map is not onto the open subfan")
        if first_iso is None:
            first_iso = iso
            first_bijection = tuple(bijection)
    return EmbeddingCertificate(
        junior=g_hat,
        star=star,
        iso=first_iso,
        cone_bijection=first_bijection,
    )


# ---------------------------------------------------------------------------
# Resolution search


def search_resolution_permutations(group: GroupData, mode: str) -> ResolutionResult:
    """Try permutations of the target set in a deterministic policy order.

    ``mode`` is ``"juniors"`` (targets: the juniors) or ``"hilbert"``
    (targets: the non-axis Hilbert basis elements); the first permutation
    whose fan is smooth wins.  Only the accepted fan is certified.
    ``TORCREP_BUDGET`` bounds the permutations tried; not-found is
    exhausted when every permutation was tried.
    """
    budget = search_budget()
    if mode == "juniors":
        targets = _policy_order(group.juniors)
    elif mode == "hilbert":
        axes = set(group.lattice.units())
        targets = _policy_order([p for p in hilbert_basis(group) if p not in axes])
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    tried = 0
    for perm in islice(permutations(targets), budget):
        tried += 1
        fan = fold_by_pivot(group, perm)
        # every target is folded in, so the rays (and with juniors, crepancy)
        # hold by construction; only smoothness can fail
        if fan.is_smooth:
            return certify_fan(fan, perm)
    raise ResolutionNotFound(
        f"no {mode} resolution within {tried} permutations",
        exhausted=tried == factorial(len(targets)),
    )


def _has_dead_cone_by_scan(fan: Fan, pending) -> bool:
    """A singular maximal cone that contains none of the pending targets."""
    return any(not is_smooth_cone(c, fan.lattice)
               and not any(contains_point(c, t) for t in pending)
               for c in fan.maximal_cones)


def search_resolution_by_fans(group: GroupData, mode: str) -> ResolutionResult:
    """``search_resolution`` with a whole fan per DFS frame.

    Each child is a ``star_subdivision_by_pivot`` of its parent's fan, a
    fan is seen when its sorted cone tuple is, and the dead-cone test
    scans every singular cone for every pending target.
    """
    budget = search_budget()
    if mode == "juniors":
        targets = _policy_order(group.juniors)
    elif mode == "hilbert":
        axes = set(group.lattice.units())
        targets = _policy_order([p for p in hilbert_basis(group) if p not in axes])
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    seen = set()
    expanded = 0
    frames = []  # (fan, its sequence, iterator over its pending targets)
    fan, seq = sigma_fan(group.lattice), ()
    while True:
        if fan.maximal_cones not in seen:
            seen.add(fan.maximal_cones)
            pending = [t for t in targets if t not in fan.cones_through]
            if not _has_dead_cone_by_scan(fan, pending):
                if not pending:
                    return certify_fan(fan, seq)
                if expanded == budget:
                    raise ResolutionNotFound(
                        f"budget hit: the {mode} search stopped after expanding {budget} "
                        f"fans ({BUDGET_ENV}); a resolution may still exist", exhausted=False)
                expanded += 1
                frames.append((fan, seq, iter(pending)))
        while frames:
            parent, prefix, children = frames[-1]
            mu = next(children, None)
            if mu is not None:
                fan, seq = star_subdivision_by_pivot(parent, mu), prefix + (mu,)
                break
            frames.pop()
        else:
            raise ResolutionNotFound(
                f"exhausted: no star-subdivision sequence over the {mode} targets "
                f"({len(targets)} points) gives a smooth fan; fans expanded: {expanded}; "
                f"fans that are not star subdivisions are not covered", exhausted=True)


# ---------------------------------------------------------------------------
# Identities the tests assert


class NotInDualLattice(TorcrepError):
    """Vector pairs non-integrally with a ray generator."""


class PreconditionNotCrepant(TorcrepError):
    """Operation requires a smooth crepant resolution result."""


def age_affinity_check(cone: Cone, b: LatticePoint) -> bool:
    """Ages are affine along exact expansions over a cone basis."""
    nums, d = barycentric(cone, b)
    # sum (nums_i / d) * age(ray_i) == age(b), cleared of all denominators
    lhs = b.denom * sum(x * sum(r.coords) for x, r in zip(nums, cone.rays))
    return lhs == d * cone.rays[0].denom * sum(b.coords)


def euler_check(result: ResolutionResult, group: GroupData) -> bool:
    """Euler number versus group order, valid on smooth crepant results."""
    if not (result.crepant and result.smooth):
        raise PreconditionNotCrepant(
            "Euler comparison needs a smooth crepant resolution"
        )
    return result.euler == group.order


def principal_divisor(fan: Fan, m) -> TDivisor:
    """Divisor of the character for ``m``; requires integral pairings."""
    m = tuple(int(x) for x in m)
    out = {}
    for ray in fan.rays:
        v = pairing(m, ray)
        if v.denominator != 1:
            raise NotInDualLattice(
                f"{m} pairs non-integrally with ray {ray}"
            )
        out[ray] = int(v)
    return TDivisor.from_dict(out)


def is_principal(fan: Fan, div: TDivisor) -> bool:
    """Exact membership of the divisor in the image of the dual lattice.

    Solves the pairing matrix by its Hermite form, so it checks
    ``class_vector``, which reads the Smith form.
    """
    mb = dual_basis(fan.lattice)
    a = IntMatrix([[int(pairing(col, ray)) for col in mb] for ray in fan.rays])
    coefficient = dict(div.coeffs)
    return solve_integer(a, [coefficient.get(ray, 0) for ray in fan.rays]) is not None


def mckay_vectors(group: GroupData, fan: Fan) -> tuple[list[int], list[int]]:
    """The reversed h-vector of the fan's faces inside the open orthant, and
    the count of group elements by age.

    McKay correspondence (Batyrev-Dais, Ito-Reid): ``h = h*`` for a
    unimodular triangulation, so the two are equal for a crepant resolution.
    """
    n = group.n
    faces = {frozenset(f) for c in fan.maximal_cones
             for k in range(1, n + 1) for f in combinations(c.rays, k)}
    f = [0] * (n + 1)  # f[i]: faces with i rays whose relative interior is open
    for face in faces:
        if all(any(r.coords[j] for r in face) for j in range(n)):
            f[len(face)] += 1
    h = [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
         for k in range(n + 1)]
    ages = Counter(sum(g.coords) // group.r for g in group.elements)
    return h[::-1], [ages[a] for a in range(n + 1)]
