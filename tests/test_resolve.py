import importlib
import tracemalloc
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, assume, example, find, given, settings

from conftest import assert_each_raise_reached, crepant3_resolutions, raised_at, small_groups
from oracles import (
    PreconditionNotCrepant,
    euler_check,
    fans_equal,
    fold_by_pivot,
    freudenthal_fan,
    freudenthal_spec,
    mckay_vectors,
    refines,
    search_resolution_by_fans,
    search_resolution_permutations,
    star_subdivision,
    support_volume,
)
from torcrep.cli import main, parse_group
from torcrep.errors import InputError, InvariantError, ResolutionNotFound, TorcrepError
from torcrep.fans import is_terminal, sigma_fan
from torcrep.groups import close_group
from torcrep.hilbert import hilbert_basis
from torcrep.lattice import LatticePoint, unit_point
from torcrep.resolve import (
    _fold,
    _policy_order,
    certify_fan,
    discrepancies,
    resolve,
    result_to_json,
    search_resolution,
)

# the package re-exports the function ``resolve`` under the module's name
resolve_module = importlib.import_module("torcrep.resolve")


def test_resolve_order6(z6, z6_result):
    assert z6_result.smooth
    assert z6_result.crepant
    assert z6_result.euler == 6
    assert all(v == 0 for v in z6_result.discrepancies)
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


def test_discrepancies(z6_result, z7_hilbert_result):
    # one discrepancy per ray, in fan.rays order
    d6 = dict(zip(z6_result.fan.rays, discrepancies(z6_result.fan), strict=True))
    assert d6[LatticePoint((1, 2, 3), 6)] == 0
    assert d6[unit_point(0, 3, 6)] == 0
    d7 = dict(zip(z7_hilbert_result.fan.rays, discrepancies(z7_hilbert_result.fan),
                  strict=True))
    assert d7[LatticePoint((3, 3, 6, 2), 7)] == 1
    assert d7[unit_point(0, 4, 7)] == 0
    assert not z7_hilbert_result.crepant
    assert z7_hilbert_result.smooth
    assert z7_hilbert_result.euler == 14


def test_ages_and_discrepancies_are_ints(z5, z7, z6_nonstar_fan, z7_hilbert_result):
    # G lies in SL(n), so every point of N has an integer age
    for group in (z5, z7, parse_group("5:(1,1,3);5:(0,1,4)")):
        assert all(type(g.age) is int for g in group.elements)
    for fan in (z6_nonstar_fan, z7_hilbert_result.fan, resolve(z7, []).fan):
        disc = certify_fan(fan).discrepancies
        assert disc and all(type(k) is int for k in disc)
    with pytest.raises(InvariantError, match="non-integral age"):
        LatticePoint((1, 0), 2).age


def test_euler_check(z6, z6_result, z5, z5_result, trivial3, z7, z7_hilbert_result):
    assert euler_check(z6_result, z6)
    assert euler_check(z5_result, z5)
    assert z5_result.euler == 5
    triv = resolve(trivial3, [])
    assert euler_check(triv, trivial3)
    with pytest.raises(PreconditionNotCrepant):
        euler_check(z7_hilbert_result, z7)  # not crepant


def _fold_outcome(fold, group, seq):
    try:
        return fold(group, seq).maximal_cones
    except TorcrepError as exc:
        return type(exc), str(exc)


@st.composite
def fold_sequences(draw):
    """A group of ``small_groups()`` and its juniors, a few age-2 elements
    and a repeat, in random order; an age-2 element may be imprimitive."""
    group = draw(small_groups())
    seniors = [p for p in group.elements if sum(p.coords) == 2 * group.r]
    seq = list(group.juniors)
    if seniors:
        seq += draw(st.lists(st.sampled_from(seniors), max_size=3))
    if seq:
        seq.append(draw(st.sampled_from(seq)))
    return group, draw(st.permutations(seq))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(fold_sequences())
def test_fold_matches_whole_fan_oracle(case):
    group, seq = case
    assert _fold_outcome(_fold, group, seq) == _fold_outcome(fold_by_pivot, group, seq)


# each id names the kind of failure; the error column is a fragment of its message
@pytest.mark.parametrize("bad, error", [
    (LatticePoint((1, 2, 3), 7), "point denom 7 differs"),  # another denominator
    (LatticePoint((1, 1, 4), 6), "(1/6)(1,1,4) is not a lattice point"),
    (LatticePoint((2, 4, 6), 6), "(1/6)(2,4,6) is not primitive"),
    (LatticePoint((6, 0, 0), 6), None),                     # a unit vector: a ray
    (LatticePoint((1, 2, 3), 6), None),                     # repeats the first junior
    (LatticePoint((-6, 6, 6), 6), "(1/6)(-6,6,6) is outside the support of the fan"),
], ids=["bad0-DenomMismatch", "bad1-NotInLattice", "bad2-NotPrimitive", "bad3-None",
        "bad4-None", "bad5-NotInSupport"])
def test_fold_edge_cases_match_whole_fan_oracle(z6, bad, error):
    # the bad point comes after two subdivisions
    seq = [*z6.juniors[:2], bad, *z6.juniors[2:]]
    assert LatticePoint((1, 2, 3), 6) in z6.juniors[:2]
    got = _fold_outcome(_fold, z6, seq)
    assert got == _fold_outcome(fold_by_pivot, z6, seq)
    assert error in got[1] if error else len(got) == 6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(crepant3_resolutions())
def test_crepant_fan_h_vector_is_the_age_histogram(case):
    h_reversed, ages = mckay_vectors(*case)
    assert h_reversed == ages


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 8])
def test_freudenthal_fan_h_vector_is_the_age_histogram(r):
    group = parse_group(freudenthal_spec(r))
    h_reversed, ages = mckay_vectors(group, freudenthal_fan(group))
    assert h_reversed == ages
    if r == 8:
        assert ages == [1, 161, 315, 35, 0]


def test_search_juniors_order6(z6):
    res = search_resolution(z6, "juniors")
    assert res.smooth and res.crepant and res.euler == 6
    # policy order starts with the unique interior junior
    assert res.sequence[0].coords == (1, 2, 3)


def test_search_juniors_order7_not_found(z7):
    with pytest.raises(ResolutionNotFound):
        search_resolution(z7, "juniors")


def test_search_hilbert_order7(z7):
    res = search_resolution(z7, "hilbert")
    assert res.smooth
    assert res.euler == 14
    assert set(res.fan.rays) == set(hilbert_basis(z7))
    assert [p.coords for p in res.sequence] == [
        (1, 1, 2, 3), (3, 3, 6, 2), (4, 4, 1, 5), (5, 5, 3, 1),
    ]


def test_search_hilbert_certifies_first_smooth_permutation():
    # reference: certify every permutation in policy order, keep the first smooth one
    group = close_group([LatticePoint((1, 1, 3, 4), 9)])
    axes = set(group.lattice.units())
    targets = _policy_order([p for p in hilbert_basis(group) if p not in axes])
    first = next(res for res in (resolve(group, perm) for perm in permutations(targets))
                 if res.smooth)
    assert first.sequence != tuple(targets)  # the first permutation is singular
    found = search_resolution(group, "hilbert")
    assert found.sequence == first.sequence
    assert result_to_json(found) == result_to_json(first)


def test_search_budget(z6, monkeypatch):
    # the first path expands the orthant and three partial fans, and its
    # leaf is smooth
    monkeypatch.setenv("TORCREP_BUDGET", "4")
    res = search_resolution(z6, "juniors")
    assert res.crepant
    monkeypatch.setenv("TORCREP_BUDGET", "3")
    with pytest.raises(ResolutionNotFound) as info:
        search_resolution(z6, "juniors")
    assert not info.value.exhausted
    assert "stopped after expanding 3 fans" in str(info.value)


def test_search_budget_env_override(z6, z7, monkeypatch):
    from torcrep.resolve import search_budget

    monkeypatch.setenv("TORCREP_BUDGET", "17")
    assert search_budget() == 17
    with pytest.raises(ResolutionNotFound) as info:
        search_resolution(z7, "juniors")
    assert info.value.exhausted
    assert "fans expanded: 1" in str(info.value)  # only one junior to fold
    monkeypatch.setenv("TORCREP_BUDGET", "3")
    with pytest.raises(ResolutionNotFound) as info:
        search_resolution(z6, "juniors")
    assert not info.value.exhausted


def _search(text, mode, budget=None):
    """``search_resolution`` on the group text, with ``TORCREP_BUDGET`` set or unset."""
    def call():
        with pytest.MonkeyPatch.context() as mp:
            if budget is None:
                mp.delenv("TORCREP_BUDGET", raising=False)
            else:
                mp.setenv("TORCREP_BUDGET", budget)
            search_resolution(parse_group(text), mode)
    return call


# one case per raise in resolve.py, each reached by its input: the call, the
# exception and its message
RESOLVE_RAISES = {
    "budget not a positive integer": (
        _search("6:(1,2,3)", "juniors", "0"), InputError,
        "TORCREP_BUDGET must be a positive integer, got '0'"),
    "unknown search mode": (
        _search("6:(1,2,3)", "sideways"), ValueError, "unknown search mode 'sideways'"),
    "budget hit": (
        _search("6:(1,2,3)", "juniors", "3"), ResolutionNotFound,
        "budget hit: the juniors search stopped after expanding 3 fans (TORCREP_BUDGET); "
        "a resolution may still exist"),
    "exhausted": (
        _search("7:(1,1,2,3)", "juniors"), ResolutionNotFound,
        "exhausted: no star-subdivision sequence over the juniors targets (1 points) gives "
        "a smooth fan; fans expanded: 1; fans that are not star subdivisions are not covered"),
}


def _raise(case):
    call, exc_type, _ = RESOLVE_RAISES[case]
    return raised_at(resolve_module, {}, call, exc_type)


@pytest.mark.parametrize("case", RESOLVE_RAISES)
def test_resolve_raise_fires(case):
    assert _raise(case)[0] == RESOLVE_RAISES[case][2]


def test_every_resolve_raise_has_a_case():
    assert_each_raise_reached(resolve_module, [_raise(case)[1] for case in RESOLVE_RAISES])


def test_search_memory_grows_with_expanded_fans_only(monkeypatch):
    # the memo keeps only fans that passed the dead-cone test; a memo of
    # every fan met peaks near 25 MB here
    group = parse_group("8:(1,7,0,0);8:(0,1,7,0);8:(0,0,1,7)")
    monkeypatch.setenv("TORCREP_BUDGET", "300")
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionNotFound, match="budget hit"):
            search_resolution(group, "juniors")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("coords, m, mode, memo_hits, prunes", [
    ((1, 2, 4, 5), 6, "hilbert", 2, 36),
    ((1, 5, 5, 9), 10, "juniors", 0, 8),
    ((1, 2, 3, 4), 5, "hilbert", 0, 12),
])
def test_search_skips_on_the_oracle_examples(coords, m, mode, memo_hits, prunes):
    # the skips of the explicit examples above, as the search counted them
    # when it built every child before its dead-cone test
    assert _search_with_counts(_cyclic(coords, m), mode)[1:] == (memo_hits, prunes)


@pytest.mark.parametrize("text, mode, budget, exhausted", [
    ("7:(1,1,2,3)", "juniors", None, True),
    ("11:(1,2,3,5)", "hilbert", None, True),
    ("9:(1,1,3,4)", "hilbert", "1", False),
])
def test_not_found_kinds(text, mode, budget, exhausted, monkeypatch, capsys):
    if budget is None:
        monkeypatch.delenv("TORCREP_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TORCREP_BUDGET", budget)
    group = parse_group(text)
    with pytest.raises(ResolutionNotFound) as info:
        search_resolution(group, mode)
    assert info.value.exhausted is exhausted
    assert main(["resolve", text, "--search", mode]) == 3
    err = capsys.readouterr().err
    assert err.startswith("not found: exhausted:" if exhausted else "not found: budget hit:")


@st.composite
def search_cases(draw):
    """A group in n = 3 or 4, a search mode and at most 5 targets.

    n = 4 is drawn more often and cyclic, since most of its small groups
    need several sequences or have none; in n = 3 the first one usually
    succeeds.
    """
    n = draw(st.sampled_from([3, 4, 4]))
    gens = []
    for _ in range(draw(st.integers(1, 2 if n == 3 else 1))):
        m = draw(st.integers(2, 9 if n == 3 else 12))
        coords = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
        gens.append(LatticePoint((*coords, -sum(coords) % m), m))
    group = close_group(gens, n)
    mode = draw(st.sampled_from(["juniors", "hilbert"]))
    axes = set(group.lattice.units())
    targets = group.juniors if mode == "juniors" else [
        p for p in hilbert_basis(group) if p not in axes]
    assume(len(targets) <= 5)  # the oracle folds all k! permutations
    return group, mode


def _search_with_counts(group, mode):
    """Search outcome, memo hits on expanded fans and dead-cone prunes of non-leaf fans.

    Each child the search meets asks the builder's ``landings`` once; the
    children it builds are the ones it copies a parent for, so the others
    were pruned, each a non-leaf when its parent tracks a point besides the
    one folded (tracked = pending).  Only a fan that passes the dead-cone
    test is remembered, so a dead fan met again is pruned again and is not
    a hit; every built fan is memo-tested, and those whose cones the orthant
    or an earlier built fan already had are the hits.
    """
    builder = resolve_module._FanBuilder
    landings, copy = builder.landings, builder.copy
    met, built = [], []  # per child: non-leaf, built?; the built builders

    def counted_landings(state, mu):
        met.append([len(state.where) > 1, False])
        return landings(state, mu)

    def counted_copy(state):
        met[-1][1] = True
        built.append(copy(state))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "landings", counted_landings)
        mp.setattr(builder, "copy", counted_copy)
        outcome = _outcome(search_resolution, group, mode)
    fans = [frozenset(sigma_fan(group.lattice).maximal_cones)]
    fans += [frozenset(state.inside) for state in built]
    prunes = sum(nonleaf and not made for nonleaf, made in met)
    return outcome, len(fans) - len(set(fans)), prunes


def _outcome(search, group, mode):
    try:
        return result_to_json(search(group, mode))
    except ResolutionNotFound as exc:
        return {"exhausted": exc.exhausted}


def _whole_outcome(search, group, mode):
    try:
        return result_to_json(search(group, mode))
    except ResolutionNotFound as exc:
        return exc.exhausted, str(exc)


def _cyclic(coords, m):
    return close_group([LatticePoint(coords, m)], len(coords))


@settings(max_examples=60, deadline=None)
@given(search_cases())
@example((_cyclic((1, 2, 4, 5), 6), "hilbert"))  # found after memo hits
@example((_cyclic((1, 5, 5, 9), 10), "juniors"))  # exhausted after memo hits
@example((_cyclic((1, 2, 3, 4), 5), "hilbert"))  # exhausted by prunes alone
def test_search_matches_permutation_oracle(case):
    group, mode = case
    assert _search_with_counts(group, mode)[0] == \
        _outcome(search_resolution_permutations, group, mode)


@pytest.mark.parametrize("text, mode, budget, exhausted", [
    ("9:(1,1,3,4)", "hilbert", "1", False),
    ("10:(1,2,3,4)", "hilbert", "5", False),
    ("7:(1,1,2,3)", "juniors", "1", True),  # its one leaf is in budget
    ("11:(1,2,3,5)", "hilbert", None, True),
])
def test_search_not_found_matches_whole_fan_dfs(text, mode, budget, exhausted, monkeypatch):
    # budget stops and exhausted searches end as the DFS over whole fans did
    if budget is None:
        monkeypatch.delenv("TORCREP_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TORCREP_BUDGET", budget)
    group = parse_group(text)
    got = _whole_outcome(search_resolution, group, mode)
    assert got == _whole_outcome(search_resolution_by_fans, group, mode)
    assert got[0] is exhausted  # a found result is a dict, without the key 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(search_cases(), st.integers(1, 40))
def test_search_matches_whole_fan_dfs_at_each_budget(case, budget):
    # the result, or the exhausted flag and the whole message with its
    # "fans expanded: N", equal the DFS over whole fans at every budget
    group, mode = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TORCREP_BUDGET", str(budget))
        assert _whole_outcome(search_resolution, group, mode) == \
            _whole_outcome(search_resolution_by_fans, group, mode)


@pytest.mark.parametrize("kind", ["memo hit", "prune", "exhausted"])
def test_search_cases_include_skips_and_exhaustion(kind):
    def shows(case):
        outcome, memo_hits, prunes = _search_with_counts(*case)
        return {"memo hit": memo_hits > 0, "prune": prunes > 0,
                "exhausted": outcome == {"exhausted": True}}[kind]

    # about 4 % of the cases have a memo hit, so allow many draws
    quick = settings(deadline=None, database=None, phases=[Phase.generate],
                     max_examples=500)
    find(search_cases(), shows, settings=quick)


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


def test_the_ray_set_does_not_fix_a_star_fan(z6, z6_result, z6_result_alt):
    # folding g1, g3 and g3, g1 gives the same rays and different cones, so
    # a memo of star fans must be keyed by something that fixes the cone set
    g1, g3 = z6.juniors[0], z6.juniors[2]
    pairs = [(resolve(z6, [g1, g3]).fan, resolve(z6, [g3, g1]).fan),
             (z6_result.fan, z6_result_alt.fan)]
    for a, b in pairs:
        assert a.rays == b.rays
        assert set(a.maximal_cones) != set(b.maximal_cones)
