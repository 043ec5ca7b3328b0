from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, example, find, given, settings

from conftest import small_groups
from oracles import (
    NotInCone,
    box_lattice_points,
    hilbert_basis_box_walk,
    hilbert_basis_packed_scan,
    hilbert_basis_pairwise,
    hilbert_candidate_rays_check,
    is_irreducible,
    junior_simplex,
    star_subdivision,
)
from torcrep.cli import MAX_DIM
from torcrep.fans import sigma_fan
from torcrep.groups import close_group
from torcrep.hilbert import hilbert_basis
from torcrep.lattice import LatticePoint


def test_trivial_group_basis(trivial3):
    hlb = hilbert_basis(trivial3)
    assert set(hlb) == set(trivial3.lattice.units())


def test_order7_basis(z7):
    hlb = hilbert_basis(z7)
    assert len(hlb) == 8
    expected = {
        (7, 0, 0, 0), (0, 7, 0, 0), (0, 0, 7, 0), (0, 0, 0, 7),
        (1, 1, 2, 3), (3, 3, 6, 2), (4, 4, 1, 5), (5, 5, 3, 1),
    }
    assert {p.coords for p in hlb} == expected
    assert sorted(p.age for p in hlb) == [1, 1, 1, 1, 1, 2, 2, 2]


def test_order6_basis_equals_junior_simplex(z6):
    hlb = hilbert_basis(z6)
    assert set(hlb) == set(junior_simplex(z6).points)
    assert len(hlb) == 7


def test_unit_vectors_always_irreducible(z6, z7):
    for group in (z6, z7):
        for u in group.lattice.units():
            ok, wit = is_irreducible(group, u)
            assert ok and wit is None


def test_witnesses(z6, z7):
    ok, wit = is_irreducible(z6, LatticePoint((5, 4, 3), 6))
    assert not ok
    u, w = wit
    assert tuple(a + b for a, b in zip(u.coords, w.coords)) == (5, 4, 3)
    assert u.coords == (1, 2, 3)  # lexicographically smallest part
    ok7, wit7 = is_irreducible(z7, LatticePoint((2, 2, 4, 6), 7))
    assert not ok7
    assert wit7[0].coords == (1, 1, 2, 3)
    assert wit7[1].coords == (1, 1, 2, 3)


def test_is_irreducible_validates_input(z6):
    with pytest.raises(NotInCone):
        is_irreducible(z6, LatticePoint((0, 0, 0), 6))
    with pytest.raises(NotInCone):
        is_irreducible(z6, LatticePoint((1, 1, 1), 6))


def test_age_one_elements_never_reducible(z6, z5, z7):
    for group in (z6, z5, z7):
        for g in group.juniors:
            ok, _ = is_irreducible(group, g)
            assert ok


def test_candidate_rays_check(z7, z7_hilbert_result, trivial3):
    hlb = hilbert_basis(z7)
    assert hilbert_candidate_rays_check(z7_hilbert_result.fan, hlb)
    partial = star_subdivision(sigma_fan(z7.lattice), LatticePoint((1, 1, 2, 3), 7))
    assert not hilbert_candidate_rays_check(partial, hlb)
    assert hilbert_candidate_rays_check(
        sigma_fan(trivial3.lattice), hilbert_basis(trivial3)
    )


def _all_points_in_cube(group, scale=2):
    """Independent enumeration of lattice points with coordinates <= scale."""
    r, n = group.r, group.n
    pts = set()
    for g in group.elements:
        ranges = [range(0, (scale * r - c) // r + 1) for c in g.coords]
        for shift in product(*ranges):
            pts.add(tuple(c + r * z for c, z in zip(g.coords, shift)))
    return pts


def test_oracle_equivalence_small_cyclic():
    # every cyclic group r <= 10 of the form (1, a, b): brute-force filter
    for r in range(1, 11):
        for a in range(r):
            b = (-1 - a) % r
            group = close_group([LatticePoint((1 % r, a, b), r)])
            pts = _all_points_in_cube(group)
            nonzero = sorted(p for p in pts if any(p))
            irreducible = set()
            ptset = set(pts)
            for v in nonzero:
                if any(
                    tuple(x - y for x, y in zip(v, u)) in ptset
                    and any(x - y for x, y in zip(v, u))
                    for u in nonzero
                    if u != v and all(x <= y for x, y in zip(u, v))
                ):
                    continue
                irreducible.add(v)
            got = {p.coords for p in hilbert_basis(group)}
            assert got == irreducible, (r, a, b)


def test_minimality_on_samples(z6, z7):
    # removing any basis element makes some small monoid point undecomposable
    for group in (z6, z7):
        hlb = hilbert_basis(group)
        elements = [p.coords for p in hlb]
        r = group.r

        def decomposes(target, pool):
            if not any(target):
                return True
            for e in pool:
                if all(x >= y for x, y in zip(target, e)):
                    if decomposes(tuple(x - y for x, y in zip(target, e)), pool):
                        return True
            return False

        samples = [
            p.coords
            for p in box_lattice_points(group, LatticePoint((2 * r,) * group.n, r))
            if sum(p.coords) <= 3 * r and any(p.coords)
        ]
        for s in samples:
            assert decomposes(s, elements)
        for removed in elements:
            pool = [e for e in elements if e != removed]
            assert not decomposes(removed, pool)


@settings(max_examples=100, deadline=None)
@given(small_groups())
def test_hilbert_basis_matches_box_walk_oracle(group):
    assert hilbert_basis(group) == hilbert_basis_box_walk(group)


def test_small_groups_include_non_cyclic():
    # the exponent r of a cyclic group equals its order
    quick = settings(deadline=None, database=None, phases=[Phase.generate])
    find(small_groups(), lambda g: g.order > g.r, settings=quick)


def _cyclic(coords, r):
    return close_group([LatticePoint(coords, r)], len(coords))


@st.composite
def larger_groups(draw):
    """Groups in n = 2..8 of order up to 1500 (600 in n = 2).

    In n = 2 every nonzero element is minimal, so the pairwise oracle is
    quadratic in the order there.
    """
    n = draw(st.integers(2, 8))
    gens, room = [], 600 if n == 2 else 1500
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, room))
        room //= m
        coords = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
        gens.append(LatticePoint((*coords, -sum(coords) % m), m))
    return close_group(gens, n)


def _group(*gens):
    return close_group([LatticePoint(c, r) for r, c in gens])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(larger_groups())
@example(close_group([], n=3))  # trivial: r = 1, every candidate a unit
@example(close_group([], n=1))  # n = 1: no juniors, the unit alone
# r = 2^k and 2^k - 1: a unit's coordinate r reaches the top bit below the
# guard, or fills every bit below it
@example(_cyclic((1, 1, 2, 4), 8))
@example(_cyclic((1, 2, 4), 7))
@example(_cyclic((1, 1, 1022), 1024))
@example(_cyclic((1, 2, 3, 1017), 1023))
@example(_cyclic((1, 3, 12), 16))
@example(_cyclic((1, 5, 25), 31))
@example(_group((15, (1, 14, 0)), (15, (0, 1, 14))))  # n = 3, two generators
@example(_group((8, (1, 7, 0)), (8, (0, 1, 7))))
@example(_group((7, (1, 6, 0)), (7, (0, 1, 6))))
@example(close_group([], n=MAX_DIM))  # the most fields in one slot
@example(_cyclic((1, 599), 600))  # n = 2: every nonzero element is minimal
# no juniors: (2,...,2) is reducible only by the age-2 element (1,...,1)
@example(_cyclic((1, 1, 1, 1, 1, 1), 3))
# (Z/12)^3: every higher layer is fully reducible, so its passes stop early
@example(_group((12, (1, 11, 0, 0)), (12, (0, 1, 11, 0)), (12, (0, 0, 1, 11))))
@example(_cyclic((1, 2, 3, 1003), 1009))  # a higher layer keeps non-juniors
def test_hilbert_basis_matches_pairwise_oracle(group):
    assert hilbert_basis(group) == hilbert_basis_pairwise(group)
    assert hilbert_basis(group) == hilbert_basis_packed_scan(group)


@st.composite
def groups3(draw):
    """Groups in n = 3 with one or two generators of order up to 60."""
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(1, 60))
        coords = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2))
        gens.append(LatticePoint((*coords, -sum(coords) % m), m))
    return close_group(gens, 3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(groups3())
def test_n3_basis_is_juniors_and_units(group):
    """Bruns-Gubeladze: every lattice polygon is normal.

    So each point of age 2 in the orthant is a sum of two of age 1, no
    senior is minimal, and in n = 3 the minimal candidates are exactly the
    juniors and the units.  The pairwise oracle compares coordinates and
    never reads an age.
    """
    want = tuple(sorted((*group.juniors, *group.lattice.units()), key=lambda p: p.coords))
    assert hilbert_basis_pairwise(group) == want
    assert hilbert_basis(group) == want
