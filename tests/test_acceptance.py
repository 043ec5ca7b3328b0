"""Acceptance suite: one test per shipping criterion, exact assertions only.

Each test prints a single pass line on success; a failed assertion fails
the corresponding criterion.
"""

from itertools import product
from math import prod

from conftest import random_cyclic_group
from oracles import (
    TDivisor,
    age_affinity_check,
    fans_equal,
    gl2_equivalent,
    is_primitive,
    is_principal,
    is_zero,
    star_subdivision,
    support_volume,
)
from torcrep.divisors import class_group
from torcrep.exceptional import (
    certify_normal_embedding,
    classify_surface,
    coverage_check,
    star_fan,
)
from torcrep.fans import (
    cone_index,
    is_terminal,
    make_cone,
    make_fan,
    sigma_fan,
)
from torcrep.groups import close_group, crepant_obstructions
from torcrep.hilbert import hilbert_basis
from torcrep.intlinalg import IntMatrix
from torcrep.lattice import LatticePoint, ScaledLattice, unit_point

def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_order6_crepant_resolution(z6, z6_result):
    assert z6_result.smooth
    assert z6_result.crepant
    assert z6_result.euler == 6 == z6.order
    assert all(v == 0 for v in z6_result.discrepancies)
    _report(1, "sequence (g1,g2,g3,g4) gives a smooth crepant fan with 6 cones")


def test_criterion_2_order6_star_fan(z6, z6_result):
    s = star_fan(z6_result.fan, LatticePoint((1, 2, 3), 6))
    assert len(s.fan.maximal_cones) == 6
    reference = {
        (-2, -3): [(-1, -1), (-1, -2)],
        (0, -1): [(-1, -2), (1, 0)],
        (-1, -1): [(0, 1), (-2, -3)],
        (-1, -2): [(-2, -3), (0, -1)],
        (1, 0): [(0, -1), (0, 1)],
        (0, 1): [(1, 0), (-1, -1)],
    }
    cones = set()
    for a, nbrs in reference.items():
        for b in nbrs:
            cones.add(frozenset((a, b)))
    lat = ScaledLattice(2, 1, IntMatrix.identity(2))
    ref = make_fan(
        lat,
        [make_cone([LatticePoint(a, 1) for a in pair]) for pair in cones],
    )
    assert gl2_equivalent(s.fan, ref)
    _report(2, "star fan has 6 cones, GL2(Z)-equivalent to the reference rays")


def test_criterion_3_order6_distinct_sequences(z6, z6_result, z6_result_alt):
    assert z6_result.crepant and z6_result_alt.crepant
    assert z6_result.euler == z6_result_alt.euler == 6
    assert not fans_equal(z6_result.fan, z6_result_alt.fan)
    _report(3, "both sequences are crepant with 6 cones but give distinct fans")


def test_criterion_4_order7_hilbert_resolution(z7, z7_hilbert_result):
    hlb = hilbert_basis(z7)
    expected = {
        (7, 0, 0, 0), (0, 7, 0, 0), (0, 0, 7, 0), (0, 0, 0, 7),
        (1, 1, 2, 3), (3, 3, 6, 2), (4, 4, 1, 5), (5, 5, 3, 1),
    }
    assert len(hlb) == 8
    assert {p.coords for p in hlb} == expected

    first = star_subdivision(sigma_fan(z7.lattice), LatticePoint((1, 1, 2, 3), 7))
    assert len(first.maximal_cones) == 4
    assert any(cone_index(c, z7.lattice) > 1 for c in first.maximal_cones)

    assert z7_hilbert_result.euler == 14
    assert z7_hilbert_result.smooth
    assert set(z7_hilbert_result.fan.rays) == set(hlb)
    _report(4, "Hilbert basis of size 8; 4-cone singular first step; "
               "14-cone Hilbert resolution")


def test_criterion_5_order5_class_group_and_surfaces(z5, z5_result):
    cg = class_group(z5_result.fan)
    assert cg.rank == 2
    assert cg.torsion == ()
    rho1 = LatticePoint((1, 2, 2), 5)
    rho2 = LatticePoint((3, 1, 1), 5)
    rho3 = unit_point(2, 3, 5)
    rho4 = unit_point(0, 3, 5)
    rho5 = unit_point(1, 3, 5)
    relations = [
        TDivisor.from_dict({rho1: 1, rho4: -1, rho5: 3}),
        TDivisor.from_dict({rho2: 1, rho4: 2, rho5: -1}),
        TDivisor.from_dict({rho3: 1, rho5: -1}),
    ]
    for rel in relations:
        assert is_principal(z5_result.fan, rel)
    t1 = classify_surface(star_fan(z5_result.fan, rho1))
    t2 = classify_surface(star_fan(z5_result.fan, rho2))
    assert t1.kind == "P2"
    assert t2.kind == "hirzebruch" and t2.parameter == 3
    _report(5, "class group Z^2, all three divisor relations hold, "
               "surfaces P2 and F3")


def test_criterion_6_embedding_certificates(z6, z5, z6_result, z6_result_alt,
                                            z5_result, z6_nonstar_fan):
    cases = [
        (z6, z6_result.fan),
        (z6, z6_result_alt.fan),
        (z5, z5_result.fan),
        (z6, z6_nonstar_fan),
    ]
    for group, fan in cases:
        for g in group.juniors:
            cert = certify_normal_embedding(fan, g)
            assert len(cert.cone_bijection) == len(fan.cones_through[g])
        assert coverage_check(fan, group) is True
    _report(6, "normal embedding verified for every junior over every anchor "
               "cone; coverage holds on all crepant fans")


def test_criterion_7_order7_age_weighted_certificate(z7, z7_hilbert_result):
    g = LatticePoint((1, 1, 2, 3), 7)
    cert = certify_normal_embedding(z7_hilbert_result.fan, g)
    assert len(cert.cone_bijection) == len(z7_hilbert_result.fan.cones_through[g])
    _report(7, "age-weighted divisor certificate verified on the Hilbert "
               "basis resolution")


def test_criterion_8_obstruction_reports(z2, z7):
    rep2 = crepant_obstructions(z2, hilbert_basis(z2))
    assert rep2.not_generated_by_juniors
    rep7 = crepant_obstructions(z7, hilbert_basis(z7))
    assert rep7.hilbert_basis_contains_seniors
    assert not rep7.not_generated_by_juniors
    _report(8, "obstruction flags match for the order-2 and order-7 groups")


def test_criterion_9a_subdivision_conservation(rng):
    steps = 0
    while steps < 200:
        group = random_cyclic_group(rng, rng.choice([2, 3, 3, 4]), rmax=8)
        fan = sigma_fan(group.lattice)
        vol = support_volume(fan)
        points = [p for p in group.elements if not is_zero(p)]
        rng.shuffle(points)
        for mu in points:
            if not is_primitive(group.lattice, mu):
                continue
            rays_before = set(fan.rays)
            fan = star_subdivision(fan, mu)
            assert support_volume(fan) == vol
            assert set(fan.rays) == rays_before | {mu}
            steps += 1
    _report("9a", f"volume and ray bookkeeping over {steps} subdivision steps")


def test_criterion_9b_hilbert_oracle_equivalence():
    checked = 0
    for r in range(1, 11):
        for a in range(r):
            b = (-1 - a) % r
            group = close_group([LatticePoint((1 % r, a, b), r)])
            pts = set()
            for g in group.elements:
                ranges = [range(0, (2 * group.r - c) // group.r + 1)
                          for c in g.coords]
                for shift in product(*ranges):
                    pts.add(tuple(c + group.r * z
                                  for c, z in zip(g.coords, shift)))
            nonzero = sorted(p for p in pts if any(p))
            irreducible = set()
            for v in nonzero:
                parts = [
                    u for u in nonzero
                    if u != v and all(x <= y for x, y in zip(u, v))
                    and tuple(y - x for x, y in zip(u, v)) in pts
                    and any(y - x for x, y in zip(u, v))
                ]
                if not parts:
                    irreducible.add(v)
            got = {p.coords for p in hilbert_basis(group)}
            assert got == irreducible, (r, a, b)
            checked += 1
    _report("9b", f"brute-force Hilbert filter matches on {checked} cyclic groups")


def test_criterion_9c_age_affinity_sweep(z6, z5, z7, z6_result, z6_result_alt,
                                         z5_result, z7_hilbert_result,
                                         z6_nonstar_fan):
    pairs = 0
    cases = [
        (z6, z6_result.fan), (z6, z6_result_alt.fan), (z6, z6_nonstar_fan),
        (z5, z5_result.fan), (z7, z7_hilbert_result.fan),
    ]
    for group, fan in cases:
        basis = hilbert_basis(group)
        for cone in fan.maximal_cones:
            for p in basis:
                assert age_affinity_check(cone, p)
                pairs += 1
    _report("9c", f"age affinity verified on {pairs} cone/basis-point pairs")


def test_criterion_9d_lattice_index(rng):
    for _ in range(50):
        group = random_cyclic_group(rng, rng.choice([2, 3, 4]), rmax=12)
        assert group.lattice.index_over_std == group.order
    _report("9d", "lattice index equals group order for 50 random groups")


def test_criterion_9e_smooth_iff_terminal(z6, z5):
    checked = 0
    for group in (z6, z5):
        fan = sigma_fan(group.lattice)
        fans = [fan]
        for mu in group.juniors:
            fan = star_subdivision(fan, mu)
            fans.append(fan)
        for f in fans:
            for c in f.maximal_cones:
                smooth = cone_index(c, group.lattice) == 1
                assert smooth == is_terminal(c, group.lattice)
                checked += 1
    _report("9e", f"smooth iff terminal on {checked} 3-dimensional cones")


def test_criterion_9f_class_group_order(rng):
    for _ in range(20):
        group = random_cyclic_group(rng, rng.choice([2, 3]), rmax=10)
        cg = class_group(sigma_fan(group.lattice))
        assert cg.rank == 0
        assert prod(cg.torsion) == group.order
    _report("9f", "class group of the orthant fan has order #G for 20 groups")
