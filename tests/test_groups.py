import gc
from itertools import islice, product

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, example, find, given, settings

from conftest import assert_each_raise_reached, raised_at, random_cyclic_group, small_groups
from oracles import closure_bfs, closure_by_zip, element_names_by_key, is_zero, junior_simplex
from torcrep import groups
from torcrep.errors import InputError, InvariantError
from torcrep.groups import (
    close_group,
    closure,
    compact_juniors,
    crepant_obstructions,
    element_names,
)
from torcrep.hilbert import hilbert_basis
from torcrep.lattice import LatticePoint


def test_close_order6(z6):
    assert z6.order == 6
    coords = {g.coords for g in z6.elements}
    assert coords == {
        (0, 0, 0), (1, 2, 3), (2, 4, 0), (3, 0, 3), (4, 2, 0), (5, 4, 3),
    }


def test_close_order7(z7):
    coords = {g.coords for g in z7.elements}
    assert coords == {
        (0, 0, 0, 0), (1, 1, 2, 3), (2, 2, 4, 6), (3, 3, 6, 2),
        (4, 4, 1, 5), (5, 5, 3, 1), (6, 6, 5, 4),
    }


def test_close_empty(trivial3):
    assert trivial3.order == 1
    assert trivial3.r == 1


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
@pytest.mark.parametrize("gens", [[], [LatticePoint((1, 2, 3), 6)]], ids=["trivial", "z6"])
def test_close_rejects_a_dimension_that_is_not_a_positive_int(gens, n):
    # 0 and -1 used to end in an IndexError, 2.0 in a TypeError, and True built a group
    with pytest.raises(InputError, match=f"^dimension must be a positive integer, got {n!r}$"):
        close_group(gens, n)


def test_close_rejects_non_sl():
    message = r"^generator \(1/6\)\(1,2,2\): coordinate sum 5 is not 0 mod 6$"
    with pytest.raises(InputError, match=message):
        close_group([LatticePoint((1, 2, 2), 6)])


def test_close_normalizes_denominator():
    doubled = close_group([LatticePoint((2, 4, 6), 12)])
    assert doubled.r == 6
    assert doubled.order == 6


def test_explosion_guard(monkeypatch):
    # the order is the lattice index, so the guard fires before enumerating
    monkeypatch.setattr(groups, "MAX_ELEMENTS", 50)
    with pytest.raises(InputError, match="group of order 10000 exceeds"):
        close_group([LatticePoint((1, 99, 0), 100), LatticePoint((0, 1, 99), 100)])


def test_close_group_builds_the_lattice_once(monkeypatch):
    # the lattice that gives the order is the one the group keeps
    calls = []
    build = groups.build_lattice
    monkeypatch.setattr(groups, "build_lattice",
                        lambda *args: calls.append(args) or build(*args))
    group = close_group([LatticePoint((1, 2, 3), 6)])
    assert group.lattice.index_over_std == group.order == 6
    assert len(calls) == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_close_group_restores_the_collector_state(monkeypatch, enabled):
    # the collector is paused while the elements are built, and left as the
    # caller had it, also when the closure raises
    seen = []
    real = groups.closure

    def closure(*args):
        seen.append(gc.isenabled())
        yield from real(*args)

    monkeypatch.setattr(groups, "closure", closure)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert close_group([LatticePoint((1, 2, 3), 6)]).order == 6
        assert gc.isenabled() is enabled
        monkeypatch.setattr(groups.ScaledLattice, "index_over_std", 7)
        with pytest.raises(InvariantError, match="lattice index must equal"):
            close_group([LatticePoint((1, 2, 3), 6)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_ages(z6, z2):
    assert LatticePoint((0, 0, 0), 1).age == 0
    assert LatticePoint((1, 2, 3), 6).age == 1
    assert LatticePoint((1, 1, 1, 1), 2).age == 2
    for g in z6.elements:
        if not is_zero(g):
            assert 1 <= g.age <= 2
            assert type(g.age) is int


def test_junior_simplex(z6, z7, trivial3):
    js = junior_simplex(z6)
    assert len(js.interior_points) == 4
    assert len(junior_simplex(z7).interior_points) == 1
    assert junior_simplex(trivial3).interior_points == ()
    assert len(junior_simplex(trivial3).vertices) == 3


def test_junior_simplex_is_slice_of_lattice(z6, z5, z7):
    # independent enumeration of N-points with coords >= 0 summing to r
    for group in (z6, z5, z7):
        r, n = group.r, group.n
        found = set()
        for g in group.elements:
            # integer shifts keeping all coordinates within [0, r]
            options = []
            for c in g.coords:
                opts = [z for z in range(0, 2) if 0 <= c + r * z <= r]
                options.append(opts)
            for shift in product(*options):
                pt = tuple(c + r * z for c, z in zip(g.coords, shift))
                if sum(pt) == r:
                    found.add(pt)
        expected = {p.coords for p in junior_simplex(group).points}
        assert found == expected


def test_compact_juniors(z6, z5, trivial3):
    assert [g.coords for g in compact_juniors(z6)] == [(1, 2, 3)]
    assert {g.coords for g in compact_juniors(z5)} == {(1, 2, 2), (3, 1, 1)}
    assert compact_juniors(trivial3) == ()


def test_obstructions(z2, z7, z6):
    rep2 = crepant_obstructions(z2, hilbert_basis(z2))
    assert rep2.not_generated_by_juniors
    rep7 = crepant_obstructions(z7, hilbert_basis(z7))
    assert rep7.hilbert_basis_contains_seniors
    assert not rep7.not_generated_by_juniors
    rep6 = crepant_obstructions(z6, hilbert_basis(z6))
    assert not rep6.not_generated_by_juniors
    assert not rep6.hilbert_basis_contains_seniors
    assert all(rep.hilbert_basis_contains_seniors for rep in (rep2, rep7))


def _generated_by_juniors(group):
    return not crepant_obstructions(group, hilbert_basis(group)).not_generated_by_juniors


@settings(max_examples=100, deadline=None)
@given(small_groups())
def test_junior_generation_matches_closure(group):
    closure = close_group(group.juniors, group.n).order if group.juniors else 1
    assert _generated_by_juniors(group) == (closure == group.order)


@settings(max_examples=200, deadline=None)
@given(small_groups())
def test_a_group_its_juniors_do_not_generate_has_a_senior_in_its_basis(group):
    # an element outside the juniors' subgroup H is a sum of Hilbert basis
    # elements, and the units vanish mod Z^n, so some basis element is not
    # a junior: the senior flag alone decides whether analyze finds an obstruction
    report = crepant_obstructions(group, hilbert_basis(group))
    assert report.hilbert_basis_contains_seniors or not report.not_generated_by_juniors


def test_small_groups_include_both_junior_generation_outcomes():
    quick = settings(deadline=None, database=None, phases=[Phase.generate],
                     derandomize=True)
    for generated in (True, False):
        find(small_groups(), lambda g: _generated_by_juniors(g) == generated,
             settings=quick)


def test_group_axioms_random(rng):
    for _ in range(20):
        group = random_cyclic_group(rng, rng.choice([2, 3, 4]), rmax=12)
        coords = {g.coords for g in group.elements}
        r, n = group.r, group.n
        for a in coords:
            inv = tuple((-x) % r for x in a)
            assert inv in coords
            for b in coords:
                assert tuple((x + y) % r for x, y in zip(a, b)) in coords
        assert r**n % len(coords) == 0
        assert group.lattice.index_over_std == group.order


def test_element_names(z6):
    names = element_names(z6)
    by_name = {v: k.coords for k, v in names.items()}
    assert by_name["g1"] == (1, 2, 3)
    assert by_name["g4"] == (4, 2, 0)
    assert by_name["g5"] == (5, 4, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_groups())
def test_element_names_match_key_sort_oracle(group):
    names = element_names(group)
    assert list(names.items()) == list(element_names_by_key(group).items())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_groups())
@example(close_group([], n=3))
@example(close_group([], n=1))
def test_age_split_partitions_the_elements_in_coordinate_order(group):
    ages = group.ages
    assert len(ages) == group.n + 1
    assert len(ages[0]) == 1 and is_zero(ages[0][0])
    assert {g for layer in ages for g in layer} == set(group.elements)
    assert sum(map(len, ages)) == group.order
    for age, layer in enumerate(ages):
        assert all(g.age == age for g in layer)
        assert list(layer) == sorted(layer, key=lambda g: g.coords)
    assert group.juniors is ages[1]


def test_element_names_of_the_trivial_group(trivial3):
    assert element_names(trivial3) == element_names_by_key(trivial3) == {}


@st.composite
def generator_lists(draw):
    """Up to three generators in ``(Z/r)^k``, coordinates not yet reduced.

    Their sums need not vanish mod ``r``: ``is_terminal`` closes the local
    groups of cones from such lists.
    """
    k, r = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    coord = st.integers(-r, 2 * r)
    return draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=3)), r


@settings(max_examples=200, derandomize=True)
@given(generator_lists())
@example(([(0, 0, 0), (1, 2, 3)], 6))  # a zero generator first
@example(([(1, 2, 3), (6, -6, 12)], 6))  # a generator that is zero mod r
@example(([(1, 5, 0), (0, 1, 5), (1, 5, 0)], 6))  # a repeated generator
@example(([(3, 0), (0, 2), (2, 2)], 6))  # the last generator adds nothing
@example(([(1, 3, 7, 200)], 211))  # one cyclic generator
@example(([(0, 0)], 1))  # the trivial group
def test_closure_matches_breadth_first_oracle(case):
    gens, r = case
    got = list(closure(gens, r))
    assert len(got) == len(set(got))
    assert (0,) * len(gens[0]) not in got
    assert set(got) == set(closure_bfs(gens, r))
    assert got == list(closure_by_zip(gens, r))  # the same tuples in the same order


# one case per raise in groups.py: the faults, the call, the exception and its message
GROUPS_RAISES = {
    "generator off its rules": (
        {}, lambda: close_group([LatticePoint((-1, 1, 0), 6)]), InputError,
        "generator (1/6)(-1,1,0): coordinates must lie in [0, 6)"),
    "dimension not a positive int": (
        {}, lambda: close_group([], 0), InputError,
        "dimension must be a positive integer, got 0"),
    "trivial group without n": (
        {}, lambda: close_group([]), InputError, "dimension required for the trivial group"),
    "closure limit": (
        {}, lambda: close_group([LatticePoint((1, 1000, 0), 1001),
                                 LatticePoint((0, 1, 1000), 1001)]), InputError,
        "group of order 1002001 exceeds the closure limit of 1000000 elements"),
    # the closure is N / Z^n on any input, so only a closure that drops an element fires it
    "closure short of the index": (
        {"closure": lambda closure: lambda gens, r: islice(closure(gens, r), 1, None)},
        lambda: close_group([LatticePoint((1, 2, 3), 6)]), InvariantError,
        "lattice index must equal #G"),
}


def _raise(case):
    faults, call, exc_type, _ = GROUPS_RAISES[case]
    return raised_at(groups, faults, call, exc_type)


@pytest.mark.parametrize("case", GROUPS_RAISES)
def test_groups_raise_fires(case):
    assert _raise(case)[0] == GROUPS_RAISES[case][3]


def test_every_groups_raise_has_a_case():
    assert_each_raise_reached(groups, [_raise(case)[1] for case in GROUPS_RAISES])
