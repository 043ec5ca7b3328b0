from itertools import permutations

import pytest

from torcrep.errors import PreconditionNotCrepant, ResolutionNotFound
from torcrep.fans import fans_equal, is_terminal, refines, sigma_fan, support_volume
from torcrep.groups import close_group
from torcrep.hilbert import hilbert_basis
from torcrep.lattice import LatticePoint, unit_point
from torcrep.resolve import (
    _policy_order,
    discrepancies,
    euler_check,
    resolve,
    result_to_json,
    search_resolution,
)


def test_resolve_order6(z6, z6_result):
    assert z6_result.smooth
    assert z6_result.crepant
    assert z6_result.euler == 6
    assert all(v == 0 for v in z6_result.discrepancies.values())
    assert refines(z6_result.fan, sigma_fan(z6.lattice))


def test_resolve_order6_alternate(z6_result, z6_result_alt):
    assert z6_result_alt.smooth and z6_result_alt.crepant
    assert z6_result_alt.euler == 6
    assert not fans_equal(z6_result.fan, z6_result_alt.fan)


def test_resolve_order7_minimal_model(z7):
    res = resolve(z7, [LatticePoint((1, 1, 2, 3), 7)])
    assert not res.smooth
    assert res.euler == 4
    assert all(is_terminal(c, z7.lattice) for c in res.fan.maximal_cones)


def test_discrepancies(z6, z6_result, z7, z7_hilbert_result):
    d6 = discrepancies(z6_result.fan, z6)
    assert d6[LatticePoint((1, 2, 3), 6)] == 0
    assert d6[unit_point(0, 3, 6)] == 0
    d7 = discrepancies(z7_hilbert_result.fan, z7)
    assert d7[LatticePoint((3, 3, 6, 2), 7)] == 1
    assert d7[unit_point(0, 4, 7)] == 0
    assert not z7_hilbert_result.crepant
    assert z7_hilbert_result.smooth
    assert z7_hilbert_result.euler == 14


def test_euler_check(z6, z6_result, z5, z5_result, trivial3, z7, z7_hilbert_result):
    assert euler_check(z6_result, z6)
    assert euler_check(z5_result, z5)
    assert z5_result.euler == 5
    triv = resolve(trivial3, [])
    assert euler_check(triv, trivial3)
    with pytest.raises(PreconditionNotCrepant):
        euler_check(z7_hilbert_result, z7)  # not crepant


def test_search_juniors_order6(z6):
    res = search_resolution(z6, "juniors_only")
    assert res.smooth and res.crepant and res.euler == 6
    # policy order starts with the unique interior junior
    assert res.sequence[0].coords == (1, 2, 3)


def test_search_juniors_order7_not_found(z7):
    with pytest.raises(ResolutionNotFound):
        search_resolution(z7, "juniors_only")


def test_search_hilbert_order7(z7):
    res = search_resolution(z7, "hilbert_basis")
    assert res.smooth
    assert res.euler == 14
    assert set(res.fan.rays) == set(hilbert_basis(z7).elements)
    assert [p.coords for p in res.sequence] == [
        (1, 1, 2, 3), (3, 3, 6, 2), (4, 4, 1, 5), (5, 5, 3, 1),
    ]


def test_search_hilbert_certifies_first_smooth_permutation():
    # reference: certify every permutation in policy order, keep the first smooth one
    group = close_group([LatticePoint((1, 1, 3, 4), 9)])
    axes = set(group.units())
    targets = _policy_order([p for p in hilbert_basis(group).elements if p not in axes])
    first = next(res for res in (resolve(group, perm) for perm in permutations(targets))
                 if res.smooth)
    assert first.sequence != tuple(targets)  # the first permutation is singular
    found = search_resolution(group, "hilbert_basis")
    assert found.sequence == first.sequence
    assert result_to_json(found) == result_to_json(first)


def test_search_budget(z6):
    with pytest.raises(ValueError):
        search_resolution(z6, "juniors_only", budget=0)
    res = search_resolution(z6, "juniors_only", budget=1)
    assert res.crepant


def test_search_budget_env_override(z7, monkeypatch):
    from torcrep.resolve import search_budget

    monkeypatch.setenv("TORCREP_BUDGET", "17")
    assert search_budget() == 17
    with pytest.raises(ResolutionNotFound) as info:
        search_resolution(z7, "juniors_only")
    assert "1 permutations" in str(info.value)  # only one junior to permute


def test_volume_conserved(z6_result, z7_hilbert_result):
    assert support_volume(z6_result.fan) == 6
    assert support_volume(z7_hilbert_result.fan) == 7


def test_smooth_iff_terminal_in_dim3(z6, z5):
    # Gorenstein age-1 fans in dimension 3: smoothness equals terminality
    from torcrep.fans import cone_index

    for group in (z6, z5):
        fan = sigma_fan(group.lattice)
        seen_fans = [fan]
        for mu in group.juniors:
            from torcrep.fans import star_subdivision

            fan = star_subdivision(fan, mu)
            seen_fans.append(fan)
        for f in seen_fans:
            for c in f.maximal_cones:
                assert (cone_index(c, group.lattice) == 1) == is_terminal(
                    c, group.lattice
                )


def test_result_json(z6_result):
    data = result_to_json(z6_result)
    assert data["euler"] == 6
    assert data["smooth"] and data["crepant"]
    assert set(data["ray_discrepancies"]) == {"0"}
    assert len(data["cone_terminal"]) == 6
    assert all(data["cone_terminal"])
    assert len(data["sequence"]) == 4
