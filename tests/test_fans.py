import gc
import json
import weakref
from itertools import combinations
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, assume, example, find, given, settings

from conftest import partial_folds, random_cyclic_group, smooth_fans, validated_fans
from oracles import (
    barycentric_by_solve,
    contains_point,
    faces,
    facet_normals_by_columns,
    fans_equal,
    gl2_equivalent,
    gl2_normal_form,
    is_canonical,
    is_hermite_basis_by_recomputation,
    is_primitive,
    is_terminal_box_walk,
    rank_loop,
    refines,
    star_subdivision,
    star_subdivision_by_make_cone,
    support_volume,
    support_volume_fraction,
    validate_fan_all_pairs,
    validate_fan_by_volume,
)
from torcrep.errors import DenomMismatch, InvalidFan, NotInSupport, NotPrimitive
from torcrep.fans import (
    Cone,
    _FanBuilder,
    barycentric,
    cone_index,
    fan_from_json,
    fan_to_json,
    is_smooth_cone,
    is_terminal,
    make_cone,
    make_fan,
    sigma_fan,
    validate_fan,
)
from torcrep.groups import close_group
from torcrep.intlinalg import IntMatrix, hermite_normal_form
from torcrep.lattice import LatticePoint, ScaledLattice, unit_point


def _cyclic_lattice(r, weights):
    """Lattice ``Z^3 + Z * (1/r) weights``, in or out of SL(3)."""
    cols = [(r, 0, 0), (0, r, 0), (0, 0, r), weights]
    h = hermite_normal_form(cols)
    return ScaledLattice(3, r, IntMatrix(zip(*h[:3])))


def std_lattice(n):
    return ScaledLattice(n, 1, IntMatrix.identity(n))


def test_faces_counts(z6):
    lat = z6.lattice
    ray = make_cone([unit_point(0, 3, 6)])
    assert len(faces(ray)) == 2
    sigma = make_cone(lat.units())
    assert len(faces(sigma)) == 8
    g1 = LatticePoint((1, 2, 3), 6)
    c = make_cone([g1, unit_point(1, 3, 6), unit_point(2, 3, 6)])
    assert make_cone([g1]) in faces(c)


def test_contains_point(z6):
    lat = z6.lattice
    sigma = make_cone(lat.units())
    for r in sigma.rays:
        assert contains_point(sigma, r)
    g1 = LatticePoint((1, 2, 3), 6)
    assert contains_point(sigma, g1)
    assert all(x > 0 for x in barycentric(sigma, g1)[0])  # in the interior
    assert not contains_point(sigma, LatticePoint((-1, 1, 6), 6))


@st.composite
def cones_and_points(draw):
    """A full-dimensional cone and a point over one shared denominator."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-9, 9)] * n)
    rays = draw(st.lists(vec, min_size=n, max_size=n, unique=True))
    assume(IntMatrix(zip(*rays)).det() != 0)
    r = draw(st.integers(1, 12))
    return Cone(tuple(LatticePoint(v, r) for v in rays)), LatticePoint(draw(vec), r)


@settings(max_examples=200, deadline=None)
@given(cones_and_points())
def test_barycentric_matches_solve_oracle(case):
    cone, p = case
    assert barycentric(cone, p) == barycentric_by_solve(cone, p)


def test_cone_index(z6, z7, trivial3):
    assert cone_index(make_cone(trivial3.lattice.units()), trivial3.lattice) == 1
    sigma6 = make_cone(z6.lattice.units())
    assert cone_index(sigma6, z6.lattice) == 6
    g1 = LatticePoint((1, 1, 2, 3), 7)
    units7 = z7.lattice.units()
    c = make_cone([g1, units7[0], units7[1], units7[2]])
    assert cone_index(c, z7.lattice) > 1


def test_cone_questions_need_full_dimension_and_one_denominator(z6):
    lat = z6.lattice
    face = make_cone([unit_point(0, 3, 6), unit_point(1, 3, 6)])
    for ask in (lambda: cone_index(face, lat), lambda: is_terminal(face, lat),
                lambda: contains_point(face, unit_point(0, 3, 6))):
        with pytest.raises(ValueError, match=r"cone Cone\(\(1/6\)\(0,6,0\), "
                           r"\(1/6\)\(6,0,0\)\) is not full-dimensional"):
            ask()
    sigma = make_cone(lat.units())
    with pytest.raises(DenomMismatch):
        barycentric(sigma, LatticePoint((1, 2, 2), 5))


def test_terminal_canonical(z6, z7):
    sigma6 = make_cone(z6.lattice.units())
    assert is_canonical(sigma6, z6.lattice)
    assert not is_terminal(sigma6, z6.lattice)
    # smooth cones are terminal
    g1 = LatticePoint((1, 2, 3), 6)
    c = make_cone([g1, unit_point(1, 3, 6), unit_point(2, 3, 6)])
    assert is_smooth_cone(c, z6.lattice)
    assert is_terminal(c, z6.lattice)
    # after the first subdivision of the order-7 cone every cone is terminal
    fan7 = star_subdivision(
        sigma_fan(z7.lattice), LatticePoint((1, 1, 2, 3), 7)
    )
    for cone in fan7.maximal_cones:
        assert is_terminal(cone, z7.lattice)


def test_canonical_for_every_group_cone(rng):
    for _ in range(10):
        group = random_cyclic_group(rng, rng.choice([2, 3]), rmax=8)
        sigma = make_cone(group.lattice.units())
        assert is_canonical(sigma, group.lattice)


def test_star_subdivision_order6(z6):
    fan = sigma_fan(z6.lattice)
    g1 = LatticePoint((1, 2, 3), 6)
    fan1 = star_subdivision(fan, g1)
    e1, e2, e3 = fan.rays
    expected = {
        frozenset({g1, e2, e3}),
        frozenset({g1, e1, e3}),
        frozenset({g1, e1, e2}),
    }
    assert {frozenset(c.rays) for c in fan1.maximal_cones} == expected
    assert set(fan1.rays) == set(fan.rays) | {g1}
    assert refines(fan1, fan)
    validate_fan(fan1)


def test_star_subdivision_order7(z7):
    fan = star_subdivision(sigma_fan(z7.lattice), LatticePoint((1, 1, 2, 3), 7))
    assert len(fan.maximal_cones) == 4
    validate_fan(fan)


def test_star_subdivision_at_existing_ray(z6):
    fan = sigma_fan(z6.lattice)
    again = star_subdivision(fan, unit_point(0, 3, 6))
    assert fans_equal(fan, again)


def test_star_subdivision_errors(z6):
    fan = sigma_fan(z6.lattice)
    with pytest.raises(NotPrimitive):
        star_subdivision(fan, LatticePoint((2, 4, 6), 6))
    with pytest.raises(NotInSupport):
        outside = LatticePoint((-6, 6, 6), 6)
        star_subdivision(fan, outside)


def test_fold_keeps_no_replaced_cone_alive(z6):
    # a cone the fold replaces, the orthant included, is not held by its children
    state = _FanBuilder(sigma_fan(z6.lattice), z6.juniors)
    made = [weakref.ref(c) for c in state.inside]
    for mu in z6.juniors:
        state.subdivide(mu)
        made += [weakref.ref(c) for c in state.inside]
    gc.collect()
    final = {id(c) for c in state.inside}
    alive = {id(c) for ref in made if (c := ref()) is not None}
    assert alive == final and len(final) == 6


@st.composite
def subdivision_sequences(draw):
    """A group lattice in n = 2-5 and points of it to subdivide at in turn.

    The group has one or two generators; the points are its primitive
    elements and the axes, so a step may subdivide at an existing ray.
    """
    n = draw(st.integers(2, 5))
    r = draw(st.integers(2, {2: 40, 3: 12, 4: 7, 5: 5}[n]))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        coords = draw(st.lists(st.integers(0, r - 1), min_size=n - 1, max_size=n - 1))
        gens.append(LatticePoint((*coords, -sum(coords) % r), r))
    group = close_group(gens, n)
    lat = group.lattice
    points = [p for p in group.elements + group.lattice.units()
              if not p.is_zero() and is_primitive(lat, p)]
    return lat, draw(st.lists(st.sampled_from(points), max_size=8))


def _primitive_points(generator):
    group = close_group([generator])
    lat = group.lattice
    return lat, [p for p in group.elements if not p.is_zero() and is_primitive(lat, p)]


_R = 1024
_CHAIN = _cyclic_lattice(_R, (1, _R - 1, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(subdivision_sequences())
@example((_CHAIN, [unit_point(0, 3, _R)]))  # at an existing ray
@example(_primitive_points(LatticePoint((1, 1, 2, 3), 7)))
# a chain of non-smooth cones, index up to 1019, normals up to 2**20
@example((_CHAIN, [LatticePoint(tuple((k * c) % _R for c in (1, _R - 1, 3)), _R)
                   for k in (1, 5, 9, 341, 3)]))
@example(_primitive_points(LatticePoint((1, 1, 1, 1, 1), 5)))
def test_star_subdivision_matches_make_cone_oracle(case):
    lat, seq = case
    fan = oracle = sigma_fan(lat)
    for mu in seq:
        fan = star_subdivision(fan, mu)
        oracle = star_subdivision_by_make_cone(oracle, mu)
        assert fans_equal(fan, oracle)
        # every new cone brings its |det A|; its normals are solved when read
        for c in fan.maximal_cones:
            assert c.det == Cone(c.rays).facet_normals[1]


def test_random_subdivision_conservation(rng):
    # 200 random star-subdivision steps: volume and ray bookkeeping
    steps = 0
    while steps < 200:
        n = rng.choice([2, 3, 3, 4])
        group = random_cyclic_group(rng, n, rmax=8)
        fan = sigma_fan(group.lattice)
        vol = support_volume(fan)
        candidates = [p for p in group.elements if not p.is_zero()]
        rng.shuffle(candidates)
        for mu in candidates:
            if not is_primitive(group.lattice, mu):
                continue
            before_rays = set(fan.rays)
            fan = star_subdivision(fan, mu)
            assert support_volume(fan) == vol
            assert set(fan.rays) == before_rays | {mu}
            steps += 1
    assert steps >= 200


def test_refines(z6, z6_result):
    fan = sigma_fan(z6.lattice)
    assert refines(fan, fan)
    assert refines(z6_result.fan, fan)
    assert not refines(fan, z6_result.fan)
    assert support_volume(z6_result.fan) == support_volume(fan) == 6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(smooth_fans().map(lambda case: case[1]), partial_folds()))
def test_support_volume_matches_fraction_sum(fan):
    assert support_volume(fan) == support_volume_fraction(fan)


def test_support_volume_groups_unequal_age_products(z7_hilbert_result):
    fan = z7_hilbert_result.fan
    lat = fan.lattice
    # the age-2 ray puts a product of ray sums other than r^n in the sum
    products = {prod(sum(r.coords) for r in c.rays) for c in fan.maximal_cones}
    assert products - {lat.denom**lat.dim}
    assert support_volume(fan) == support_volume_fraction(fan) == 7


def test_fan_json_round_trip(z6_result):
    data = fan_to_json(z6_result.fan)
    again = fan_from_json(data)
    assert fans_equal(z6_result.fan, again)
    assert json.dumps(fan_to_json(again)) == json.dumps(fan_to_json(z6_result.fan))


def test_fan_json_rejects_garbage(z6_result):
    with pytest.raises(InvalidFan):
        fan_from_json({"lattice": {"n": 2, "r": 1, "basis": [[1, 0], [0, 1]]},
                       "rays": [[1, 0]], "maximal_cones": [[0, 5]]})
    # rays [0,0,6], [0,6,0], [1,2,3], ...; the first cone is [0, 1, 2]
    for edit, message in [
        (lambda d: d["maximal_cones"].append([2, 1, 0]),
         "cone Cone((1/6)(0,0,6), (1/6)(0,6,0), (1/6)(1,2,3)) is listed twice"),
        (lambda d: d["maximal_cones"][0].insert(0, 1), "cone [1, 0, 1, 2] lists a ray index twice"),
        (lambda d: d["rays"].append([0, 6, 0]), "ray (1/6)(0,6,0) is listed twice"),
        (lambda d: d["rays"].append([1, 1, 4]), "ray (1/6)(1,1,4) lies in no cone"),
    ]:
        data = fan_to_json(z6_result.fan)
        edit(data)
        with pytest.raises(InvalidFan) as exc:
            fan_from_json(data)
        assert str(exc.value) == "malformed fan data: " + message


@st.composite
def square_matrices(draw):
    """Small square matrices: dense, lower triangular, or in Hermite form."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-2, 5), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(["dense", "lower", "hermite"]))
    if kind != "dense":
        rows = [row[:i + 1] + [0] * (n - 1 - i) for i, row in enumerate(rows)]
    if kind == "hermite":
        for i, row in enumerate(rows):
            row[i] = abs(row[i]) + 1
            row[:i] = [x % row[i] for x in row[:i]]
    return IntMatrix(rows)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(square_matrices())
@example(IntMatrix([[2, 0], [1, 3]]))  # accepted
@example(IntMatrix([[2, 0], [3, 3]]))  # entry left of the diagonal not reduced
@example(IntMatrix([[2, 0], [1, 0]]))  # singular, triangular
@example(IntMatrix([[1, 2], [0, 1]]))  # nonsingular, upper triangular
def test_fan_json_basis_check_matches_recomputation(m):
    data = {"lattice": {"n": m.rows, "r": 1, "basis": [list(row) for row in m.data]},
            "rays": [], "maximal_cones": []}
    try:
        fan_from_json(data)
        accepted = True
    except InvalidFan as exc:
        assert str(exc) == "malformed fan data: lattice basis must be in column Hermite form"
        accepted = False
    assert accepted == is_hermite_basis_by_recomputation(m)


def test_validate_fan_rejects_overlap():
    lat = std_lattice(2)
    c1 = make_cone([LatticePoint((1, 0), 1), LatticePoint((0, 1), 1)])
    c2 = make_cone([LatticePoint((2, 1), 1), LatticePoint((1, 2), 1)])
    fan = make_fan(lat, [c1, c2])
    with pytest.raises(InvalidFan):
        validate_fan(fan)


def test_validate_fan_rejects_imprimitive_ray():
    lat = std_lattice(2)
    c = make_cone([LatticePoint((2, 0), 1), LatticePoint((0, 1), 1)])
    with pytest.raises(InvalidFan):
        validate_fan(make_fan(lat, [c]))


@st.composite
def perturbed_fans(draw):
    """Fans of the orthant in n = 2, 3, 4, some perturbed into invalid ones.

    The valid fans are star-subdivision prefixes of a cyclic group's
    orthant.  A perturbation drops a cone, adds a cone on existing rays,
    swaps one ray of a cone, or subdivides only one of the cones through a
    point on a shared face.  That leaves a neighbour meeting the new cones
    beyond a common face, in a refinement of the orthant with its volume.
    An added or swapped cone may have dependent rays.
    """
    n = draw(st.sampled_from([2, 3, 4]))
    r = draw(st.integers(2, 5 if n == 4 else 8))
    coords = draw(st.lists(st.integers(1, r - 1), min_size=n - 1, max_size=n - 1))
    coords.append(-sum(coords) % r)
    group = close_group([LatticePoint(tuple(coords), r)], n)
    points = [p for p in group.elements
              if not p.is_zero() and is_primitive(group.lattice, p)]
    fan = sigma_fan(group.lattice)
    order = draw(st.permutations(points))
    steps = min(len(order), 4 if n < 4 else 2)  # the oracle is slow in n = 4
    for mu in order[:draw(st.integers(min(steps, 1), steps))]:
        fan = star_subdivision(fan, mu)
    cones = list(fan.maximal_cones)
    kind = draw(st.sampled_from(["add", "swap", "partial", "partial", "drop", "none"]))
    through = {p: [c for c in cones if contains_point(c, p)]
               for p in points if p not in fan.cones_through}
    shared = [p for p, cs in through.items() if len(cs) > 1]
    if kind == "partial" and shared:
        mu = draw(st.sampled_from(shared))
        one = draw(st.sampled_from(through[mu]))
        cones.remove(one)
        cones += star_subdivision(make_fan(fan.lattice, [one]), mu).maximal_cones
    elif kind == "add":
        k = draw(st.sampled_from([n, n, n - 1]))
        cones.append(make_cone(draw(st.lists(
            st.sampled_from(fan.rays), min_size=k, max_size=k, unique=True))))
    elif kind == "swap":
        i = draw(st.integers(0, len(cones) - 1))
        rays = list(cones[i].rays)
        others = [p for p in list(fan.rays) + points if p not in rays]
        if others:
            rays[draw(st.integers(0, len(rays) - 1))] = draw(st.sampled_from(others))
            cones[i] = make_cone(rays)
    elif kind == "drop" and len(cones) > 1:
        del cones[draw(st.integers(0, len(cones) - 1))]
    return make_fan(fan.lattice, cones)


def _dependent_cones(fan):
    """The full-dimensional cones of the fan whose rays are dependent."""
    n = fan.lattice.dim
    return [c for c in fan.maximal_cones if c.dim == n
            and rank_loop(IntMatrix(zip(*[r.coords for r in c.rays]))) < n]


def _rejection(check, fan):
    try:
        check(fan)
    except InvalidFan as exc:
        return str(exc)
    return None


def _fan_and_refinement(fan):
    """The oracle: the pairwise fan check and refinement of the orthant."""
    return _rejection(validate_fan_all_pairs, fan) is None and refines(
        fan, sigma_fan(fan.lattice))


@settings(max_examples=100, deadline=None)
@given(perturbed_fans())
def test_validate_fan_matches_all_pairs_oracle(fan):
    assert (_rejection(validate_fan, fan) is None) == _fan_and_refinement(fan)


def _two_folds(n):
    """Two folds of the orthant of ``Z^n`` that share no facet, overlaid.

    The first folds at ``e_i + e_j``, the second at ``e_i + 2 e_j``, for
    every ``i < j``.  The facets pair up, but every point is covered twice.
    """
    lat, cones = std_lattice(n), []
    for a in (1, 2):
        fan = sigma_fan(lat)
        for i, j in combinations(range(n), 2):
            coords = tuple(1 if k == i else a if k == j else 0 for k in range(n))
            fan = star_subdivision(fan, LatticePoint(coords, 1))
        cones += fan.maximal_cones
    return make_fan(lat, cones)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(perturbed_fans())
@example(make_fan(std_lattice(3), []))
@example(_two_folds(3))
@example(_two_folds(4))
def test_validate_fan_matches_volume_oracle(fan):
    new = _rejection(validate_fan, fan)
    dependent = _dependent_cones(fan)
    if dependent:
        if new != (f"cone {dependent[0]}: rays are linearly dependent; "
                   "cone is not simplicial"):
            # only a ray or dimension step comes before the independence test,
            # and the oracle, which cannot sum a dependent cone's volume, must stop there
            assert new is not None
            assert any(s in new for s in ("not a lattice point", "not primitive",
                                          "has dimension"))
            assert new == _rejection(validate_fan_by_volume, fan)
        return
    # an input the volume step rejected may now fail at the facet pairing
    # or at the point step, with that step's message
    old = _rejection(validate_fan_by_volume, fan)
    assert (new is None) == (old is None)
    if old is not None and not old.startswith("the cones have support volume"):
        assert new == old


def test_perturbed_fans_include_valid_and_invalid():
    # validate_fan stands in for the slower oracle it is tested against above
    quick = settings(deadline=None, database=None, phases=[Phase.generate],
                     derandomize=True)
    for valid in (True, False):
        find(perturbed_fans(),
             lambda f: (_rejection(validate_fan, f) is None) == valid,
             settings=quick)
    find(perturbed_fans(), _dependent_cones, settings=quick)
    # the case facet pairing exists for: a refinement of the orthant with
    # its volume whose cones still meet beyond a common face
    t_junction = find(perturbed_fans(),
                      lambda f: refines(f, sigma_fan(f.lattice))
                      and _rejection(validate_fan_all_pairs, f) is not None,
                      settings=quick)
    assert "not 2" in _rejection(validate_fan, t_junction)


def _normals_outcome(normals, cone):
    try:
        return normals(cone)
    except ValueError as exc:
        return type(exc), str(exc)


_E = [LatticePoint(c, 1) for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(validated_fans().map(lambda case: case[1]), perturbed_fans()))
@example(make_fan(std_lattice(3), [make_cone([_E[0], _E[1], _E[3]])]))  # dependent rays
@example(make_fan(std_lattice(3), [make_cone(_E[:2])]))  # not full-dimensional
def test_facet_normals_match_column_solve(fan):
    # solving with the rays as rows gives the rows of d * A^-1 that the
    # column solve gave, or the same error; a fresh cone has no normals cached
    for cone in fan.maximal_cones:
        assert _normals_outcome(lambda c: c.facet_normals, Cone(cone.rays)) == \
            _normals_outcome(facet_normals_by_columns, cone)


def test_validate_fan_rejects_orthant_t_junction():
    # subdividing only one of the two cones through the facet cone(g, e1)
    # at its point g + e1 leaves that facet in one cone: a T-junction
    e1, e2, e3, g, m = (LatticePoint(c, 1) for c in [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 1, 1)])
    fan = make_fan(std_lattice(3), [make_cone(t) for t in [
        (g, e2, e3), (g, e1, e3), (m, e1, e2), (g, m, e2)]])
    assert refines(fan, sigma_fan(fan.lattice))
    with pytest.raises(InvalidFan, match="do not intersect in a common face"):
        validate_fan_all_pairs(fan)
    with pytest.raises(InvalidFan) as exc:
        validate_fan(fan)
    assert str(exc.value) == (
        "facet Cone((1,0,0), (1,1,1)) lies in 1 cone(s), not 2: "
        "Cone((0,0,1), (1,0,0), (1,1,1))")


def _std_fan(cones):
    return make_fan(std_lattice(len(cones[0][0])), [
        make_cone([LatticePoint(c, 1) for c in rays]) for rays in cones])


@pytest.mark.parametrize("fan, message", [
    (_std_fan([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]]), "ray (-1,0) lies outside the orthant"),
    (_std_fan([[(1, 0), (0, 1)], [(2, 1), (1, 2)]]),
     "facet Cone((2,1)) lies in 1 cone(s), not 2: Cone((1,2), (2,1))"),
    # two cones share the product 3 of their rays' coordinate sums
    (_std_fan([[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (1, 1, 1)],
               [(1, 0, 0), (0, 0, 1), (1, 1, 1)]]),
     "facet Cone((0,1,0), (1,0,0)) lies in 2 cone(s), not 1: "
     "Cone((0,0,1), (0,1,0), (1,0,0)), Cone((0,1,0), (1,0,0), (1,1,1))"),
    (_std_fan([[(1, 0), (1, 2)], [(1, 2), (2, 1)]]),
     "cones Cone((1,0), (1,2)) and Cone((1,2), (2,1)) lie on the same side "
     "of their facet Cone((1,2))"),
    # volume 1/2 + 1/6 + 1/3, but two cones on the boundary facet cone(e2, e1+e2)
    (_std_fan([[(0, 0, 1), (0, 1, 0), (1, 1, 0)], [(0, 1, 0), (1, 1, 0), (1, 1, 1)],
               [(1, 0, 0), (0, 0, 1), (1, 1, 1)]]),
     "facet Cone((0,1,0), (1,1,0)) lies in 2 cone(s), not 1: "
     "Cone((0,0,1), (0,1,0), (1,1,0)), Cone((0,1,0), (1,1,0), (1,1,1))"),
    # the facets pair up, but every point of the orthant is covered twice
    (_two_folds(3),
     "cones Cone((0,0,1), (0,1,1), (1,1,0)) and Cone((0,0,1), (0,1,2), (1,2,0)) "
     "overlap at (1,2,2)"),
    (make_fan(std_lattice(3), []), "the fan has no cones"),
    # primitive lattice rays of 1/6(1,2,3) in the orthant, all in one plane
    (make_fan(close_group([LatticePoint((1, 2, 3), 6)]).lattice, [make_cone(
        [LatticePoint(c, 6) for c in [(6, 0, 0), (0, 6, 0), (2, 4, 0)]])]),
     "cone Cone((1/6)(0,6,0), (1/6)(2,4,0), (1/6)(6,0,0)): rays are linearly "
     "dependent; cone is not simplicial"),
], ids=["outside", "volume", "volume-grouped", "same-side", "boundary-facet-twice",
        "overlap", "no-cones", "dependent"])
def test_validate_fan_names_what_breaks(fan, message):
    with pytest.raises(InvalidFan) as exc:
        validate_fan(fan)
    assert str(exc.value) == message


def test_is_terminal_matches_box_walk(rng, z6):
    # pinned: 1/5(1,4,2), terminal but not smooth, and 1/6(1,2,3), neither
    for lat, terminal in [(_cyclic_lattice(5, (1, 4, 2)), True), (z6.lattice, False)]:
        sigma = make_cone(lat.units())
        assert not is_smooth_cone(sigma, lat)
        assert is_terminal(sigma, lat) is is_terminal_box_walk(sigma, lat) is terminal
    seen = {"smooth": 0, "terminal": 0, "not terminal": 0}
    for _ in range(25):
        group = random_cyclic_group(rng, rng.choice([2, 3, 4]), rmax=9)
        lat = group.lattice
        fan = sigma_fan(lat)
        points = [p for p in group.elements if not p.is_zero()]
        for mu in rng.sample(points, min(len(points), 2)):
            if is_primitive(lat, mu):
                fan = star_subdivision(fan, mu)
        for cone in fan.maximal_cones:
            terminal = is_terminal(cone, lat)
            assert terminal == is_terminal_box_walk(cone, lat)
            if is_smooth_cone(cone, lat):
                seen["smooth"] += 1
            else:
                seen["terminal" if terminal else "not terminal"] += 1
    assert all(seen.values()), seen


def test_is_terminal_on_large_cyclic_quotients():
    # terminal lemma: 1/r(1, -1, a) with gcd(a, r) = 1 is terminal; its
    # cone has index 4999, far too many lattice points for a box walk
    r = 4999
    for weights, terminal in [((1, r - 1, 2), True), ((1, r - 1, 0), False),
                              ((1, 2, r - 3), False)]:
        lat = _cyclic_lattice(r, weights)
        assert is_terminal(make_cone(lat.units()), lat) is terminal


def test_gl2_normal_form():
    lat = std_lattice(2)

    def fan_of(pairs):
        return make_fan(
            lat,
            [make_cone([LatticePoint(a, 1), LatticePoint(b, 1)]) for a, b in pairs],
        )

    p2 = fan_of([((1, 0), (0, 1)), ((0, 1), (-1, -1)), ((-1, -1), (1, 0))])
    # image of the same fan under a unimodular map
    twisted = fan_of([((1, 1), (0, 1)), ((0, 1), (-1, -2)), ((-1, -2), (1, 1))])
    assert gl2_equivalent(p2, twisted)
    f1 = fan_of([((1, 0), (0, 1)), ((0, 1), (-1, 3)), ((-1, 3), (0, -1)),
                 ((0, -1), (1, 0))])
    assert not gl2_equivalent(p2, f1)
    assert gl2_normal_form(p2) == gl2_normal_form(twisted)
