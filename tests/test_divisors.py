import pytest

from conftest import random_cyclic_group
from oracles import NotInDualLattice, is_principal, principal_divisor
from torcrep.divisors import (
    TDivisor,
    canonical_divisor,
    class_group,
    dual_basis,
    pairing,
)
from torcrep.fans import sigma_fan
from torcrep.intlinalg import IntMatrix, solve
from torcrep.lattice import LatticePoint, unit_point


def reference_basis_transform():
    """Map to the coordinates of the order-5 worked example.

    Sends the lattice basis {(1/5)(1,2,2), (1/5)(3,1,1), e3} to the
    standard basis; under it e1 -> (-1,2,0) and e2 -> (3,-1,-1).
    """
    cols = IntMatrix.from_columns([(1, 2, 2), (3, 1, 1), (0, 0, 5)])
    units_scaled = [tuple(5 if k == i else 0 for k in range(3)) for i in range(3)]
    images, d = solve(cols, units_scaled)
    assert all(v % d == 0 for col in images for v in col)
    return IntMatrix.from_columns([[v // d for v in col] for col in images])


def test_reference_coordinates_of_units():
    t = reference_basis_transform()
    assert t.mul_vec((1, 0, 0)) == (-1, 2, 0)
    assert t.mul_vec((0, 1, 0)) == (3, -1, -1)
    assert t.mul_vec((0, 0, 1)) == (0, 0, 1)


def test_principal_divisors_order5(z5, z5_result):
    fan = z5_result.fan
    t = reference_basis_transform()
    rho = {
        1: LatticePoint((1, 2, 2), 5),
        2: LatticePoint((3, 1, 1), 5),
        3: unit_point(2, 3, 5),
        4: unit_point(0, 3, 5),
        5: unit_point(1, 3, 5),
    }
    # div(chi^(1,0,0)) = D1 - D4 + 3 D5 in the transformed coordinates
    m1 = t.transpose().mul_vec((1, 0, 0))
    d1 = principal_divisor(fan, m1)
    assert dict(d1.coeffs) == {rho[1]: 1, rho[2]: 0, rho[3]: 0, rho[4]: -1, rho[5]: 3}
    m2 = t.transpose().mul_vec((0, 1, 0))
    d2 = principal_divisor(fan, m2)
    assert dict(d2.coeffs) == {rho[1]: 0, rho[2]: 1, rho[3]: 0, rho[4]: 2, rho[5]: -1}
    m3 = t.transpose().mul_vec((0, 0, 1))
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
        assert all(v == 0 for v in cg.class_vector(rel))
    not_rel = TDivisor.from_dict({rho1: 1})
    assert not is_principal(z5_result.fan, not_rel)


def test_class_group_sigma_torsion(z6):
    cg = class_group(sigma_fan(z6.lattice))
    assert cg.rank == 0
    assert cg.order == 6


def test_class_group_smooth_std(trivial3):
    cg = class_group(sigma_fan(trivial3.lattice))
    assert cg.rank == 0
    assert cg.torsion == ()
    assert cg.order == 1


def test_crepant_fan_has_trivial_canonical_class(z6_result, z5_result):
    for res in (z6_result, z5_result):
        cg = class_group(res.fan)
        k = canonical_divisor(res.fan)
        assert is_principal(res.fan, k)
        assert all(v == 0 for v in cg.class_vector(k))
        assert cg.rank == len(res.fan.rays) - res.fan.lattice.dim
        assert cg.torsion == ()


def test_exactness_principal_maps_to_zero(z6_result, z7_hilbert_result):
    for res in (z6_result, z7_hilbert_result):
        cg = class_group(res.fan)
        mb = dual_basis(res.fan.lattice)
        for j in range(mb.cols):
            d = principal_divisor(res.fan, mb.column(j))
            assert is_principal(res.fan, d)
            assert all(v == 0 for v in cg.class_vector(d))


def test_dual_basis_pairings(z6):
    mb = dual_basis(z6.lattice)
    assert abs(mb.det()) == z6.order
    for j in range(mb.cols):
        m = mb.column(j)
        for g in z6.elements:
            assert pairing(m, g).denominator == 1


def test_class_group_order_random(rng):
    for _ in range(20):
        group = random_cyclic_group(rng, rng.choice([2, 3]), rmax=10)
        cg = class_group(sigma_fan(group.lattice))
        assert cg.rank == 0
        assert cg.order == group.order
