import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import assert_each_raise_reached, raised_at, random_cyclic_group
from oracles import (
    basis_coords,
    from_basis_coords,
    hermite_with_transform,
    inverse_unimodular,
    is_primitive,
    is_zero,
    matmul,
    project,
    quotient_projection_two_forms,
)
from torcrep import lattice
from torcrep.errors import InputError, InvariantError, TorcrepError
from torcrep.groups import close_group
from torcrep.intlinalg import IntMatrix
from torcrep.lattice import (
    LatticePoint,
    ScaledLattice,
    build_lattice,
    quotient_by_ray,
    unit_point,
)


def test_build_trivial():
    lat = build_lattice([], 3, denom=1)
    assert lat.basis == IntMatrix.identity(3)
    assert lat.index_over_std == 1


def test_build_order6():
    lat = build_lattice([LatticePoint((1, 2, 3), 6)], 3, 6)
    assert lat.index_over_std == 6
    assert lat.det == 36


def test_build_order5_alternative_basis(z5):
    # {(1/5)(1,2,2), (1/5)(3,1,1), (0,0,1)} spans the same lattice
    lat = z5.lattice
    cols = [(1, 2, 2), (3, 1, 1), (0, 0, 5)]
    cand = IntMatrix(zip(*cols))
    assert abs(cand.det()) == lat.det
    for col in cols:
        assert lat.contains(LatticePoint(col, 5))


def test_build_rejects_bad_generator():
    message = r"^generator \(1/6\)\(1,2,2\): coordinate sum 5 is not 0 mod 6$"
    with pytest.raises(InputError, match=message):
        build_lattice([LatticePoint((1, 2, 2), 6)], 3, 6)


def test_contains(z6):
    lat = z6.lattice
    assert lat.contains(unit_point(0, 3, 6))
    assert lat.contains(LatticePoint((1, 2, 3), 6))
    assert not lat.contains(LatticePoint((1, 1, 1), 6))


def test_contains_order5(z5):
    assert z5.lattice.contains(LatticePoint((2, 4, 4), 5))


def test_denom_mismatch(z6):
    with pytest.raises(TorcrepError, match="point denom 5 differs from lattice denom 6"):
        z6.lattice.contains(LatticePoint((1, 2, 3), 5))


@pytest.mark.parametrize("coords", [(6.9, 0, 0), (True, 0, 0)])
def test_point_rejects_non_integer_coordinates(coords):
    with pytest.raises(TypeError):
        LatticePoint(coords, 6)


@pytest.mark.parametrize("denom", [6.0, True, 6.5, "6"])
def test_point_rejects_non_integer_denominator(denom):
    # 6.0 would print as (1/6.0)(1,2,3) and equal the integer point
    with pytest.raises(TypeError):
        LatticePoint((1, 2, 3), denom)


@pytest.mark.parametrize("denom", [-6, 0, 6.0])
def test_build_rejects_non_positive_denominator(denom):
    with pytest.raises(InputError, match="denominator must be a positive integer"):
        build_lattice([], 3, denom)


def test_primitivity(z6):
    lat = z6.lattice
    assert is_primitive(lat, unit_point(0, 3, 6))
    assert is_primitive(lat, LatticePoint((2, 4, 0), 6))
    assert not is_primitive(lat, LatticePoint((12, 0, 0), 6))
    with pytest.raises(TorcrepError, match="is not in the lattice"):
        is_primitive(lat, LatticePoint((1, 1, 1), 6))


def test_primitivity_against_division_oracle(rng):
    for _ in range(30):
        group = random_cyclic_group(rng, rng.choice([2, 3, 4]), rmax=10)
        lat = group.lattice
        for _ in range(10):
            coords = lat.basis.mul_vec(
                [rng.randrange(-4, 5) for _ in range(lat.dim)]
            )
            p = LatticePoint(coords, lat.denom)
            if is_zero(p):
                continue
            claim = is_primitive(lat, p)
            oracle = True
            for k in range(2, 25):
                if all(c % k == 0 for c in p.coords):
                    if lat.contains(LatticePoint(tuple(c // k for c in p.coords), lat.denom)):
                        oracle = False
                        break
            assert claim == oracle


def test_index_formula_random(rng):
    # [N : Z^n] = #G, cross-checked against residue enumeration
    for _ in range(50):
        group = random_cyclic_group(rng, rng.choice([2, 3, 4]), rmax=12)
        assert group.lattice.index_over_std == group.order
    for _ in range(10):
        group = random_cyclic_group(rng, 3, rmax=6)
        r = group.r
        seen = {(0,) * 3}
        frontier = [(0,) * 3]
        cols = list(zip(*group.lattice.basis.data))
        while frontier:
            nxt = []
            for base in frontier:
                for c in cols:
                    cand = tuple((a + b) % r for a, b in zip(base, c))
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
            frontier = nxt
        # the basis columns span r*N, so the residues mod r realize N / Z^n
        assert len(seen) == group.order


def _quotient(lat, v):
    return quotient_by_ray(v, basis_coords(lat, v))


def test_quotient_drop_coordinate():
    lat = build_lattice([], 3, denom=1)
    quo = _quotient(lat, unit_point(2, 3, 1))
    p = LatticePoint((4, 5, 7), 1)
    q = LatticePoint((4, 5, 0), 1)
    assert project(lat, quo, p) == project(lat, quo, q)
    assert is_zero(project(lat, quo, unit_point(2, 3, 1)))


def test_quotient_kernel_and_section(z6):
    g1 = LatticePoint((1, 2, 3), 6)
    lat = z6.lattice
    quo = _quotient(lat, g1)
    assert is_zero(project(lat, quo, g1))
    # the section from the same Hermite transform: w^T u = e_1^T, and the
    # rows of u^-1 after the first split the projection the columns give
    _, u = hermite_with_transform(IntMatrix([basis_coords(lat, g1)]))
    sect = IntMatrix(zip(*inverse_unimodular(u).data[1:]))
    hc, v = hermite_with_transform(IntMatrix([row[1:] for row in u.data]))
    assert quo == IntMatrix(zip(*hc.data))
    sect = matmul(sect, IntMatrix(zip(*inverse_unimodular(v).data)))
    assert matmul(quo, sect) == IntMatrix.identity(2)
    for coords in [(0, 6, 0), (0, 0, 6), (2, 4, 0)]:
        q = project(lat, quo, LatticePoint(coords, 6))
        lifted = from_basis_coords(lat, sect.mul_vec(q.coords))
        assert project(lat, quo, lifted) == q


@pytest.mark.parametrize("gens", [
    [(6, (1, 2, 3))],
    [(5, (1, 2, 2))],
    [(2, (1, 1, 0)), (2, (0, 1, 1))],
    [(12, (1, 11, 0)), (12, (0, 1, 11))],
    [(7, (1, 1, 2, 3))],
    [(2, (1, 1, 1, 1))],
    [(4, (1, 3, 0, 0)), (4, (0, 1, 3, 0)), (4, (0, 0, 1, 3))],
    [(2, (1, 1, 0, 0)), (2, (0, 0, 1, 1)), (3, (1, 2, 0, 0))],
    [(5, (1, 1, 1, 1, 1))],
    [(3, (1, 2, 0, 0, 0)), (3, (0, 1, 1, 1, 0))],
])
def test_quotient_projection_matches_two_form_oracle(gens):
    # one Hermite form of w over the identity gives the projection that a
    # transform and a second form gave, for every primitive element and unit
    group = close_group([LatticePoint(c, r) for r, c in gens])
    lat = group.lattice
    points = [g for g in group.elements
              if not is_zero(g) and is_primitive(lat, g)] + list(group.lattice.units())
    assert len(points) > group.n
    for v in points:
        assert _quotient(lat, v) == quotient_projection_two_forms(lat, v)


def test_quotient_reference_images(z6):
    g1 = LatticePoint((1, 2, 3), 6)
    quo = _quotient(z6.lattice, g1)
    images = {
        project(z6.lattice, quo, p).coords
        for p in [
            unit_point(0, 3, 6),
            unit_point(1, 3, 6),
            unit_point(2, 3, 6),
            LatticePoint((2, 4, 0), 6),
            LatticePoint((3, 0, 3), 6),
            LatticePoint((4, 2, 0), 6),
        ]
    }
    assert images == {(-2, -3), (1, 0), (0, 1), (0, -1), (-1, -1), (-1, -2)}


def test_quotient_requires_primitive(z6):
    with pytest.raises(TorcrepError, match=r"\(1/6\)\(2,4,6\) is not primitive"):
        _quotient(z6.lattice, LatticePoint((2, 4, 6), 6))
    with pytest.raises(TorcrepError, match="is not primitive"):  # gcd(0, 0, 0) is 0, not 1
        _quotient(z6.lattice, LatticePoint((0, 0, 0), 6))


def test_quotient_translation_invariance(z6, rng):
    g1 = LatticePoint((1, 2, 3), 6)
    quo = _quotient(z6.lattice, g1)
    lat = z6.lattice
    for _ in range(100):
        x = [rng.randrange(-5, 6) for _ in range(3)]
        p = from_basis_coords(lat, x)
        base = project(lat, quo, p)
        for k in range(-3, 4):
            shifted = LatticePoint(
                tuple(a + k * b for a, b in zip(p.coords, g1.coords)), 6
            )
            assert project(lat, quo, shifted) == base


@given(st.integers(1, 8), st.integers(0, 7), st.integers(0, 7))
def test_age_is_scaled_sum(r, a, b):
    c = (-(a % r) - (b % r)) % r
    p = LatticePoint((a % r, b % r, c), r)
    assert p.age * r == sum(p.coords)
    assert type(p.age) is int  # coordinate sum is 0 mod r by construction


def _hermite_edit(edit):
    """A fault in hermite_normal_form: its columns edited."""
    return lambda hermite: lambda cols: edit(hermite(cols))


_Z6_GEN = LatticePoint((1, 2, 3), 6)
# one case per raise in lattice.py: the faults, the call, the exception and its message;
# the InvariantError sites cannot fire on any input, so a fault in the Hermite form seeds each
LATTICE_RAISES = {
    "record arity": (
        {}, lambda: ScaledLattice(3, 6), TypeError,
        "ScaledLattice takes the fields ('dim', 'denom', 'basis'), got 2 positional and []"),
    "record assignment": (
        {}, lambda: setattr(_Z6_GEN, "denom", 5), AttributeError,
        "cannot assign to or delete field 'denom'"),
    "float coordinate": (
        {}, lambda: LatticePoint((1.0, 2, 3), 6), TypeError,
        "coordinates must be integers, got (1.0, 2, 3)"),
    "float denominator": (
        {}, lambda: LatticePoint((1, 2, 3), 6.0), TypeError,
        "denominator must be an integer, got 6.0"),
    "zero denominator": (
        {}, lambda: LatticePoint((1, 2, 3), 0), ValueError, "denominator must be positive"),
    "age off N": (  # the API makes a point off N; group text cannot
        {}, lambda: LatticePoint((1, 2, 2), 6).age, InvariantError,
        "(1/6)(1,2,2) has non-integral age"),
    "point of another denominator": (
        {}, lambda: build_lattice([], 3, 6).contains(LatticePoint((1, 2, 2), 5)), TorcrepError,
        "point denom 5 differs from lattice denom 6"),
    "lattice denominator zero": (
        {}, lambda: build_lattice([], 3, 0), InputError,
        "denominator must be a positive integer, got 0"),
    "generators of two denominators": (
        {}, lambda: build_lattice([_Z6_GEN, LatticePoint((2, 4, 6), 12)], 3, 6), TorcrepError,
        "generators must share one denominator"),
    "generator off its rules": (
        {}, lambda: build_lattice([LatticePoint((7, 5, 0), 6)], 3, 6), InputError,
        "generator (1/6)(7,5,0): coordinates must lie in [0, 6)"),
    "extra Hermite column": (
        {"hermite_normal_form": _hermite_edit(lambda h: [*h[:-1], (0, 0, 1)])},
        lambda: build_lattice([_Z6_GEN], 3, 6), InvariantError,
        "Hermite form left extra columns"),
    "singular basis": (
        {"hermite_normal_form": _hermite_edit(lambda h: [(0, 0, 0), *h[1:]])},
        lambda: build_lattice([_Z6_GEN], 3, 6), InvariantError, "lattice basis is singular"),
    "point off the lattice as a ray": (
        {}, lambda: build_lattice([_Z6_GEN], 3, 6).ray_coords(LatticePoint((1, 1, 4), 6)),
        InputError, "ray (1/6)(1,1,4) is not a lattice point"),
    "imprimitive point as a ray": (
        {}, lambda: build_lattice([_Z6_GEN], 3, 6).ray_coords(LatticePoint((2, 4, 6), 6)),
        InputError, "ray (1/6)(2,4,6) is not primitive"),
    "ray not primitive": (
        {}, lambda: quotient_by_ray(LatticePoint((2, 4, 6), 6), (2, 4, 6)), TorcrepError,
        "(1/6)(2,4,6) is not primitive"),
    "ray outside its kernel": (
        {"hermite_normal_form": _hermite_edit(lambda h: [h[0], (1, *h[1][1:]), *h[2:]])},
        lambda: quotient_by_ray(_Z6_GEN, (1, 0, 0)), InvariantError,
        "quotient by (1/6)(1,2,3) does not have (1/6)(1,2,3) in its kernel"),
}


def _raise(case):
    faults, call, exc_type, _ = LATTICE_RAISES[case]
    return raised_at(lattice, faults, call, exc_type)


@pytest.mark.parametrize("case", LATTICE_RAISES)
def test_lattice_raise_fires(case):
    assert _raise(case)[0] == LATTICE_RAISES[case][3]


def test_every_lattice_raise_has_a_case():
    assert_each_raise_reached(lattice, [_raise(case)[1] for case in LATTICE_RAISES])
