from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, find, given, settings

from conftest import (
    assert_each_raise_reached,
    partial_folds,
    raised_at,
    random_cyclic_group,
    small_groups,
    smooth_fans,
)
from oracles import (
    NotInDualLattice,
    TDivisor,
    canonical_divisor,
    class_group_json_reference,
    class_vector,
    is_principal,
    pairing,
    principal_divisor,
)
from torcrep import divisors
from torcrep.divisors import ClassRows, class_group, class_group_to_json, dual_basis
from torcrep.errors import InvariantError
from torcrep.fans import make_cone, make_fan, sigma_fan
from torcrep.groups import close_group
from torcrep.intlinalg import IntMatrix, solve
from torcrep.lattice import LatticePoint, unit_point
from torcrep.resolve import resolve


def reference_basis_transform():
    """Map to the coordinates of the order-5 worked example.

    Sends the lattice basis {(1/5)(1,2,2), (1/5)(3,1,1), e3} to the
    standard basis; under it e1 -> (-1,2,0) and e2 -> (3,-1,-1).
    """
    rows = list(zip(*[(1, 2, 2), (3, 1, 1), (0, 0, 5)]))
    units_scaled = [tuple(5 if k == i else 0 for k in range(3)) for i in range(3)]
    images, d = solve(rows, units_scaled)
    assert all(v % d == 0 for col in images for v in col)
    return IntMatrix(zip(*[[v // d for v in col] for col in images]))


def test_reference_coordinates_of_units():
    t = reference_basis_transform()
    assert t.mul_vec((1, 0, 0)) == (-1, 2, 0)
    assert t.mul_vec((0, 1, 0)) == (3, -1, -1)
    assert t.mul_vec((0, 0, 1)) == (0, 0, 1)


def test_principal_divisors_order5(z5, z5_result):
    fan = z5_result.fan
    t_transposed = IntMatrix(zip(*reference_basis_transform().data))
    rho = {
        1: LatticePoint((1, 2, 2), 5),
        2: LatticePoint((3, 1, 1), 5),
        3: unit_point(2, 3, 5),
        4: unit_point(0, 3, 5),
        5: unit_point(1, 3, 5),
    }
    # div(chi^(1,0,0)) = D1 - D4 + 3 D5 in the transformed coordinates
    m1 = t_transposed.mul_vec((1, 0, 0))
    d1 = principal_divisor(fan, m1)
    assert dict(d1.coeffs) == {rho[1]: 1, rho[2]: 0, rho[3]: 0, rho[4]: -1, rho[5]: 3}
    m2 = t_transposed.mul_vec((0, 1, 0))
    d2 = principal_divisor(fan, m2)
    assert dict(d2.coeffs) == {rho[1]: 0, rho[2]: 1, rho[3]: 0, rho[4]: 2, rho[5]: -1}
    m3 = t_transposed.mul_vec((0, 0, 1))
    d3 = principal_divisor(fan, m3)
    assert dict(d3.coeffs) == {rho[1]: 0, rho[2]: 0, rho[3]: 1, rho[4]: 0, rho[5]: -1}


def test_principal_divisor_zero(z5_result):
    d = principal_divisor(z5_result.fan, (0, 0, 0))
    assert all(v == 0 for _, v in d.coeffs)


def test_principal_divisor_rejects_non_dual(z6_result):
    with pytest.raises(NotInDualLattice):
        principal_divisor(z6_result.fan, (1, 0, 0))


def test_canonical_divisor_is_principal_on_sigma(z6):
    fan = sigma_fan(z6.lattice)
    k = canonical_divisor(fan)
    assert all(v == -1 for _, v in k.coeffs)
    # the all-ones vector is a group-invariant monomial exponent
    d = principal_divisor(fan, (1, 1, 1))
    assert dict(d.coeffs) == {ray: 1 for ray in fan.rays}
    assert is_principal(fan, k)


def test_class_group_order5(z5_result):
    cg = class_group(z5_result.fan)
    assert cg.rank == 2
    assert cg.torsion == ()
    rho1 = LatticePoint((1, 2, 2), 5)
    rho2 = LatticePoint((3, 1, 1), 5)
    rho3 = unit_point(2, 3, 5)
    rho4 = unit_point(0, 3, 5)
    rho5 = unit_point(1, 3, 5)
    rel1 = TDivisor.from_dict({rho1: 1, rho4: -1, rho5: 3})
    rel2 = TDivisor.from_dict({rho2: 1, rho4: 2, rho5: -1})
    rel3 = TDivisor.from_dict({rho3: 1, rho5: -1})
    for rel in (rel1, rel2, rel3):
        assert is_principal(z5_result.fan, rel)
        assert all(v == 0 for v in class_vector(z5_result.fan, cg, rel))
    not_rel = TDivisor.from_dict({rho1: 1})
    assert not is_principal(z5_result.fan, not_rel)


def test_class_group_sigma_torsion(z6):
    cg = class_group(sigma_fan(z6.lattice))
    assert cg.rank == 0
    assert cg.torsion == (6,)


def test_class_group_smooth_std(trivial3):
    cg = class_group(sigma_fan(trivial3.lattice))
    assert cg.rank == 0
    assert cg.torsion == ()
    assert cg.ray_classes == ((), (), ())
    assert cg.canonical_class == ()


def test_crepant_fan_has_trivial_canonical_class(z6_result, z5_result):
    for res in (z6_result, z5_result):
        cg = class_group(res.fan)
        k = canonical_divisor(res.fan)
        assert is_principal(res.fan, k)
        assert cg.canonical_class == class_vector(res.fan, cg, k)
        assert all(v == 0 for v in cg.canonical_class)
        assert cg.rank == len(res.fan.rays) - res.fan.lattice.dim
        assert cg.torsion == ()


def test_dual_basis_pairings(z6):
    mb = dual_basis(z6.lattice)  # its columns
    assert abs(IntMatrix(zip(*mb)).det()) == z6.order
    for m in mb:
        for g in z6.elements:
            assert pairing(m, g).denominator == 1


def test_class_group_order_random(rng):
    for _ in range(20):
        group = random_cyclic_group(rng, rng.choice([2, 3]), rmax=10)
        cg = class_group(sigma_fan(group.lattice))
        assert cg.rank == 0
        assert prod(cg.torsion) == group.order


_CLASS_GROUP_FANS = st.one_of(
    smooth_fans().map(lambda case: case[1]),  # blow-ups make K_X non-trivial
    small_groups().map(lambda group: sigma_fan(group.lattice)),  # torsion
    partial_folds(),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_CLASS_GROUP_FANS)
def test_class_group_matches_reference(fan):
    cg = class_group(fan)
    data = class_group_to_json(cg)  # its class rows read densely
    assert {**data, "ray_classes": list(map(list, data["ray_classes"]))} == (
        class_group_json_reference(fan))
    # the canonical class read off the rows of p is the sum of the ray classes
    assert cg.canonical_class == class_vector(fan, cg, canonical_divisor(fan))


def _assert_principal_classes_vanish(fan):
    cg = class_group(fan)
    mb = dual_basis(fan.lattice)
    for m in mb:
        d = principal_divisor(fan, m)
        assert is_principal(fan, d)
        assert all(v == 0 for v in class_vector(fan, cg, d))


def test_exactness_principal_maps_to_zero(z6_result, z7_hilbert_result):
    # z7's Hilbert-basis resolution has an age-2 ray, which no junior fold reaches
    for res in (z6_result, z7_hilbert_result):
        _assert_principal_classes_vanish(res.fan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_CLASS_GROUP_FANS)
def test_exactness_over_class_group_fans(fan):
    _assert_principal_classes_vanish(fan)


def test_class_group_fans_include_torsion_and_nontrivial_canonical_classes():
    quick = settings(deadline=None, database=None, phases=[Phase.generate],
                     derandomize=True)
    find(_CLASS_GROUP_FANS, lambda fan: class_group(fan).torsion, settings=quick)
    find(_CLASS_GROUP_FANS, lambda fan: any(class_group(fan).canonical_class),
         settings=quick)
    # a partial fold with torsion and free coordinates at once
    find(partial_folds(), lambda fan: class_group(fan).torsion and class_group(fan).rank,
         settings=quick)


def test_class_group_rejects_a_ray_off_the_lattice(z6):
    # (1/6)(1,0,0) is not in the lattice of 6:(1,2,3): the dual vector
    # (1,1,1) pairs with it to 1/6, which a truncating pairing would read as 0
    ray = LatticePoint((1, 0, 0), 6)
    fan = make_fan(z6.lattice, [make_cone([ray, unit_point(1, 3, 6), unit_point(2, 3, 6)])])
    with pytest.raises(InvariantError, match="pairs non-integrally"):
        class_group(fan)


def test_class_rows_read_as_the_tuple_of_dense_rows():
    rows = ClassRows(3, (((1, 5),), (), ((0, -1), (2, 7))))
    dense = ((0, 5, 0), (0, 0, 0), (-1, 0, 7))
    assert (tuple(rows), len(rows), rows[0], rows[-1]) == (dense, 3, dense[0], dense[-1])
    assert list(rows) == list(dense)  # and again: reading a row leaves the pairs as they were


def _z6_fan():
    z6 = close_group([LatticePoint((1, 2, 3), 6)])
    return resolve(z6, z6.juniors).fan


# one case per raise in divisors.py: the faults, the call, the exception and its message;
# both are InvariantErrors, so each fires on a seeded fault
DIVISORS_RAISES = {
    "lattice without Z^n": (
        {"solve": lambda solve: lambda a, b: (lambda num, d: (num, 2 * d))(*solve(a, b))},
        lambda: dual_basis(close_group([], 3).lattice), InvariantError,
        "lattice does not contain Z^n"),
    "ray off the dual pairing": (
        {"dual_basis": lambda dual_basis: lambda lattice: [(1, 0, 0), (0, 1, 0), (0, 0, 1)]},
        lambda: class_group(_z6_fan()), InvariantError,
        "ray (1/6)(1,2,3) pairs non-integrally with the dual lattice"),
}


def _raise(case):
    faults, call, exc_type, _ = DIVISORS_RAISES[case]
    return raised_at(divisors, faults, call, exc_type)


@pytest.mark.parametrize("case", DIVISORS_RAISES)
def test_divisors_raise_fires(case):
    assert _raise(case)[0] == DIVISORS_RAISES[case][3]


def test_every_divisors_raise_has_a_case():
    assert_each_raise_reached(divisors, [_raise(case)[1] for case in DIVISORS_RAISES])
