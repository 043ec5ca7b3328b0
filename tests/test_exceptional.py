from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, example, find, given, settings

from conftest import (
    Z7_HILBERT_SEQUENCE,
    crepant3_resolutions,
    nonstar_order6_fan,
    smooth_fans,
    validated_fans,
)
from oracles import (
    TDivisor,
    age_affinity_check,
    age_weighted_divisor,
    canonical_divisor,
    certify_normal_embedding_per_anchor,
    fans_equal,
    gl2_equivalent,
    project,
    quotient_projection_two_forms,
    total_space_fan,
    validate_fan_all_pairs,
    xi_g,
)
from torcrep.divisors import class_group
from torcrep.errors import CertificateFailure, NotComplete, NotSmooth, NotSurface, RayAbsent
from torcrep.exceptional import (
    StarFan,
    certificate_to_json,
    certify_normal_embedding,
    classify_surface,
    coverage_check,
    star_fan,
)
from torcrep.fans import fan_from_json, fan_to_json, make_cone, make_fan, sigma_fan, validate_fan
from torcrep.groups import close_group, compact_juniors
from torcrep.hilbert import hilbert_basis
from torcrep.intlinalg import IntMatrix
from torcrep.lattice import LatticePoint, ScaledLattice, unit_point
from torcrep.resolve import resolve


def std_lattice(n):
    return ScaledLattice(n, 1, IntMatrix.identity(n))


def plain_star(fan, lifts=(), complete=True):
    """Star fan wrapper for synthetic bases in line-bundle tests."""
    return StarFan(fan, lifts, complete)


def test_xi_g_counts(z6, z6_result, z5_result, trivial3):
    g1 = LatticePoint((1, 2, 3), 6)
    assert len(xi_g(z6_result.fan, g1).maximal_cones) == 6
    assert len(xi_g(z5_result.fan, LatticePoint((1, 2, 2), 5)).maximal_cones) == 3
    assert len(xi_g(z5_result.fan, LatticePoint((3, 1, 1), 5)).maximal_cones) == 4
    triv = sigma_fan(trivial3.lattice)
    sub = xi_g(triv, unit_point(0, 3, 1))
    assert fans_equal(sub, triv)
    with pytest.raises(RayAbsent):
        xi_g(z6_result.fan, LatticePoint((5, 4, 3), 6))


def test_star_fan_order6_matches_reference_coordinates(z6, z6_result):
    s = star_fan(z6_result.fan, LatticePoint((1, 2, 3), 6))
    assert len(s.fan.maximal_cones) == 6
    assert s.complete
    reference_cones = [
        [(1, 0), (0, 1)],
        [(0, 1), (-1, -1)],
        [(-2, -3), (-1, -1)],
        [(-2, -3), (-1, -2)],
        [(0, -1), (-1, -2)],
        [(1, 0), (0, -1)],
    ]
    ref = make_fan(
        std_lattice(2),
        [make_cone([LatticePoint(a, 1), LatticePoint(b, 1)]) for a, b in reference_cones],
    )
    assert gl2_equivalent(s.fan, ref)


def test_star_fan_on_boundary_junior_not_complete(z6, z6_result):
    s = star_fan(z6_result.fan, LatticePoint((2, 4, 0), 6))
    assert not s.complete


def test_star_fan_order5_p2(z5, z5_result):
    s = star_fan(z5_result.fan, LatticePoint((1, 2, 2), 5))
    assert len(s.fan.rays) == 3
    coords = sorted(r.coords for r in s.fan.rays)
    total = tuple(sum(c[i] for c in coords) for i in range(2))
    assert total == (0, 0)  # the three rays of the projective plane sum to zero


def test_age_weighted_divisor_crepant_is_canonical(z6_result):
    s = star_fan(z6_result.fan, LatticePoint((1, 2, 3), 6))
    d = age_weighted_divisor(s)
    assert d == canonical_divisor(s.fan)


def test_age_weighted_divisor_order7_weights(z7_hilbert_result):
    s = star_fan(z7_hilbert_result.fan, LatticePoint((1, 1, 2, 3), 7))
    d = age_weighted_divisor(s)
    weights = sorted(v for _, v in d.coeffs)
    assert set(weights) == {-2, -1}
    lift_by_ray = dict(s.lifts)
    for ray, coeff in d.coeffs:
        assert coeff == -lift_by_ray[ray].age


def test_total_space_trivial_bundle_over_p1():
    p1 = make_fan(
        std_lattice(1),
        [make_cone([LatticePoint((1,), 1)]), make_cone([LatticePoint((-1,), 1)])],
    )
    star = plain_star(p1)
    tot = total_space_fan(star, TDivisor(()))
    cones = {frozenset(r.coords for r in c.rays) for c in tot.fan.maximal_cones}
    assert cones == {
        frozenset({(0, 1), (1, 0)}),
        frozenset({(0, 1), (-1, 0)}),
    }
    assert len(tot.fan.rays) == 3


def test_total_space_canonical_over_p2():
    p2 = make_fan(
        std_lattice(2),
        [
            make_cone([LatticePoint((1, 0), 1), LatticePoint((0, 1), 1)]),
            make_cone([LatticePoint((0, 1), 1), LatticePoint((-1, -1), 1)]),
            make_cone([LatticePoint((-1, -1), 1), LatticePoint((1, 0), 1)]),
        ],
    )
    k = TDivisor.from_dict({r: -1 for r in p2.rays})
    star = plain_star(p2)
    tot = total_space_fan(star, k)
    validate_fan_all_pairs(tot.fan)
    for c in tot.fan.maximal_cones:
        coords = sorted(r.coords for r in c.rays)
        assert (0, 0, 1) in coords
        for x in coords:
            if x != (0, 0, 1):
                assert x[2] == 1  # rays (u, 1) for the canonical weights


def test_total_space_order6_counts(z6_result):
    s = star_fan(z6_result.fan, LatticePoint((1, 2, 3), 6))
    tot = total_space_fan(s, age_weighted_divisor(s))
    assert len(tot.fan.maximal_cones) == 6
    assert len(tot.fan.rays) == len(s.fan.rays) + 1


def test_certificates_order6(z6, z6_result, z6_result_alt):
    for res in (z6_result, z6_result_alt):
        for g in z6.juniors:
            cert = certify_normal_embedding(res.fan, g)
            assert cert.iso.rows == cert.iso.cols and abs(cert.iso.det()) == 1
            expected_anchors = len(res.fan.cones_through[g])
            assert len(cert.cone_bijection) == expected_anchors


def test_certificates_order5(z5, z5_result):
    for g in z5.juniors:
        cert = certify_normal_embedding(z5_result.fan, g)
        assert len(cert.cone_bijection) == len(z5_result.fan.cones_through[g])


def test_certificate_order7_age_weighted(z7, z7_hilbert_result):
    cert = certify_normal_embedding(
        z7_hilbert_result.fan, LatticePoint((1, 1, 2, 3), 7)
    )
    assert len(cert.cone_bijection) == len(
        z7_hilbert_result.fan.cones_through[LatticePoint((1, 1, 2, 3), 7)]
    )


def _certificate_outcome(certify, fan, ray):
    """``(None, certificate JSON)``, or the exception's type and message."""
    try:
        return None, certificate_to_json(certify(fan, ray))
    except Exception as exc:
        return type(exc), str(exc)


_Z6 = close_group([LatticePoint((1, 2, 3), 6)])
_Z7 = close_group([LatticePoint((1, 1, 2, 3), 7)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(smooth_fans())
@example((_Z7, resolve(_Z7, Z7_HILBERT_SEQUENCE).fan))  # n = 4, weights 1 and 2
@example((_Z6, nonstar_order6_fan(_Z6.lattice)))  # no star-subdivision order
def test_certificate_matches_per_anchor_oracle(case):
    _, fan = case
    assert fan.is_smooth
    for ray in fan.rays:
        assert _certificate_outcome(certify_normal_embedding, fan, ray) == \
            _certificate_outcome(certify_normal_embedding_per_anchor, fan, ray)


_Z31 = close_group([LatticePoint((1, 30, 0), 31), LatticePoint((0, 1, 30), 31)])


@pytest.mark.parametrize("group", [_Z6, _Z31], ids=["z6", "961-cones"])
def test_certificate_substitutes_each_ray_once(group, monkeypatch):
    # validate_fan and every junior's certificate read the fan's one forward
    # substitution per ray, and share one identity matrix per dimension; the
    # fan is read back from JSON, so no cone has its facet normals yet.
    # The kernel takes rows and columns as they are, so validate_fan and
    # class_group build no IntMatrix, and a certificate builds two at most:
    # the quotient projection and the anchor map
    fan = fan_from_json(fan_to_json(resolve(group, group.juniors).fan))
    calls = []
    substitute = ScaledLattice.coords_or_none
    built = []
    construct = IntMatrix.__init__

    def counted(self, p):
        calls.append(p)
        return substitute(self, p)

    def counted_construct(self, data):
        built.append(self)
        construct(self, data)

    def matrices_built():
        # the cached identity, built once per dimension, is not counted
        return len(built) - IntMatrix.identity.cache_info().misses

    monkeypatch.setattr(ScaledLattice, "coords_or_none", counted)
    monkeypatch.setattr(IntMatrix, "__init__", counted_construct)
    IntMatrix.identity.cache_clear()
    validate_fan(fan)
    class_group(fan)
    assert matrices_built() == 0
    assert fan.is_smooth
    for g in group.juniors:
        start = matrices_built()
        certify_normal_embedding(fan, g)
        assert matrices_built() - start <= 2
    assert len(calls) == len(fan.rays) and set(calls) == set(fan.rays)
    assert IntMatrix.identity.cache_info().misses <= 2  # dimensions n and n - 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(validated_fans())
def test_star_rays_match_two_form_projection(case):
    # every ray's star rays and lifts are the images of the rays through it
    # under the projection that two Hermite forms gave
    _, fan = case
    lat = fan.lattice
    for g in fan.rays:
        proj = quotient_projection_two_forms(lat, g)
        through = {u for c in fan.cones_through[g] for u in c.rays} - {g}
        want = {project(lat, proj, u): u for u in through}
        assert len(want) == len(through)
        if all(gcd(*ubar.coords) == 1 for ubar in want):
            star = star_fan(fan, g)
            assert star.lifts == tuple(sorted(want.items(), key=lambda kv: kv[0].coords))
            assert set(star.fan.rays) == set(want)
        else:
            with pytest.raises(NotSmooth):
                star_fan(fan, g)


def test_smooth_fans_include_failing_certificates():
    def fails(case):
        _, fan = case
        return any(
            _certificate_outcome(certify_normal_embedding, fan, ray)[0]
            is CertificateFailure
            for ray in fan.rays
        )

    quick = settings(deadline=None, database=None, phases=[Phase.generate],
                     derandomize=True)
    find(smooth_fans(), fails, settings=quick)


def test_certificates_nonstar_fan(z6, z6_nonstar_fan):
    from torcrep.resolve import certify_fan

    summary = certify_fan(z6_nonstar_fan)
    assert summary.smooth and summary.crepant and summary.euler == 6
    for g in z6.juniors:
        cert = certify_normal_embedding(z6_nonstar_fan, g)
        assert len(cert.cone_bijection) == len(z6_nonstar_fan.cones_through[g])
    assert coverage_check(z6_nonstar_fan, z6) is True


def test_nonstar_fan_is_not_a_star_sequence(z6, z6_nonstar_fan):
    from itertools import permutations

    from torcrep.resolve import resolve

    for perm in permutations(z6.juniors):
        assert not fans_equal(resolve(z6, perm).fan, z6_nonstar_fan)


def test_coverage(z6, z6_result, z5, z5_result, trivial3):
    assert coverage_check(z6_result.fan, z6) is True
    assert coverage_check(z5_result.fan, z5) is True
    assert coverage_check(sigma_fan(trivial3.lattice), trivial3) is None
    assert coverage_check(sigma_fan(z6.lattice), z6) is False


def test_union_counts(z6, z6_result):
    # every maximal cone appears in at least one open piece
    pieces = [z6_result.fan.cones_through[g] for g in z6.juniors]
    covered = set()
    for piece in pieces:
        covered.update(piece)
    assert covered == set(z6_result.fan.maximal_cones)
    assert sum(len(p) for p in pieces) >= z6_result.euler


def test_classify_p2_direct():
    fan = make_fan(
        std_lattice(2),
        [
            make_cone([LatticePoint((1, 0), 1), LatticePoint((0, 1), 1)]),
            make_cone([LatticePoint((0, 1), 1), LatticePoint((-1, -1), 1)]),
            make_cone([LatticePoint((-1, -1), 1), LatticePoint((1, 0), 1)]),
        ],
    )
    star = plain_star(fan)
    t = classify_surface(star)
    assert t.kind == "P2"
    assert t.self_intersections == (1, 1, 1)


def test_classify_order5_surfaces(z5, z5_result):
    s1 = star_fan(z5_result.fan, LatticePoint((1, 2, 2), 5))
    assert classify_surface(s1).kind == "P2"
    s2 = star_fan(z5_result.fan, LatticePoint((3, 1, 1), 5))
    t2 = classify_surface(s2)
    assert t2.kind == "hirzebruch"
    assert t2.parameter == 3


def test_classify_order6_chain(z6_result):
    s = star_fan(z6_result.fan, LatticePoint((1, 2, 3), 6))
    t = classify_surface(s)
    assert len(s.fan.rays) == 6
    assert len(s.fan.maximal_cones) == 6  # Euler number of the surface
    assert sum(t.self_intersections) == 12 - 3 * 6


def test_classify_errors(z6_result, z7_hilbert_result):
    boundary = star_fan(z6_result.fan, LatticePoint((2, 4, 0), 6))
    with pytest.raises(NotComplete):
        classify_surface(boundary)
    s7 = star_fan(z7_hilbert_result.fan, LatticePoint((1, 1, 2, 3), 7))
    with pytest.raises(NotSurface):
        classify_surface(s7)


def test_noether_sum_on_all_complete_stars(z6, z5, z6_result, z5_result,
                                           z6_nonstar_fan):
    from torcrep.groups import compact_juniors

    cases = [(z6, z6_result.fan), (z5, z5_result.fan), (z6, z6_nonstar_fan)]
    for group, fan in cases:
        for g in compact_juniors(group):
            t = classify_surface(star_fan(fan, g))
            k = len(t.self_intersections)
            assert sum(t.self_intersections) == 12 - 3 * k


def test_age_affinity(z6, z6_result, z7, z7_hilbert_result):
    # every (maximal cone, Hilbert basis point) pair in the example fans
    for group, res in ((z6, z6_result), (z7, z7_hilbert_result)):
        basis = hilbert_basis(group)
        for cone in res.fan.maximal_cones:
            for p in basis:
                assert age_affinity_check(cone, p)
    # a ray of the cone expands trivially
    cone = z6_result.fan.maximal_cones[0]
    assert age_affinity_check(cone, cone.rays[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(crepant3_resolutions())
def test_compact_surfaces_satisfy_noether(case):
    # a smooth complete toric surface with k rays has K^2 = 12 - k, and
    # K^2 = sum(D^2) + 2k, so the self-intersections sum to 12 - 3k
    group, fan = case
    for g in compact_juniors(group):
        ints = classify_surface(star_fan(fan, g)).self_intersections
        assert sum(ints) == 12 - 3 * len(ints)
