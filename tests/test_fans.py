import json

import pytest

from conftest import random_cyclic_group
from oracles import faces, gl2_equivalent, gl2_normal_form, is_canonical
from torcrep.errors import InvalidFan, NotInSupport, NotPrimitive
from torcrep.fans import (
    cone_index,
    contains_point,
    fan_from_json,
    fan_to_json,
    fans_equal,
    is_smooth_cone,
    is_terminal,
    make_cone,
    make_fan,
    refines,
    sigma_fan,
    star_subdivision,
    support_volume,
    validate_fan,
)
from torcrep.intlinalg import IntMatrix
from torcrep.lattice import LatticePoint, ScaledLattice, unit_point


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
    assert contains_point(sigma, g1, strict=True)
    edge = make_cone([unit_point(0, 3, 6), unit_point(1, 3, 6)])
    assert not contains_point(edge, LatticePoint((3, 0, 3), 6))


def test_cone_index(z6, z7, trivial3):
    assert cone_index(make_cone(trivial3.lattice.units()), trivial3.lattice) == 1
    sigma6 = make_cone(z6.lattice.units())
    assert cone_index(sigma6, z6.lattice) == 6
    g1 = LatticePoint((1, 1, 2, 3), 7)
    units7 = z7.lattice.units()
    c = make_cone([g1, units7[0], units7[1], units7[2]])
    assert cone_index(c, z7.lattice) > 1


def test_cone_index_lower_dimensional(z6):
    # the singular facets of the orthant contain junior points
    lat = z6.lattice
    tau1 = make_cone([unit_point(0, 3, 6), unit_point(1, 3, 6)])
    assert cone_index(tau1, lat) > 1
    tau3 = make_cone([unit_point(1, 3, 6), unit_point(2, 3, 6)])
    assert cone_index(tau3, lat) == 1


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
    assert {c.ray_set() for c in fan1.maximal_cones} == expected
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
            if not group.lattice.is_primitive(mu):
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


def test_fan_json_round_trip(z6_result):
    data = fan_to_json(z6_result.fan)
    again = fan_from_json(data)
    assert fans_equal(z6_result.fan, again)
    assert json.dumps(fan_to_json(again)) == json.dumps(fan_to_json(z6_result.fan))


def test_fan_json_rejects_garbage():
    with pytest.raises(InvalidFan):
        fan_from_json({"lattice": {"n": 2, "r": 1, "basis": [[1, 0], [0, 1]]},
                       "rays": [[1, 0]], "maximal_cones": [[0, 5]]})


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
