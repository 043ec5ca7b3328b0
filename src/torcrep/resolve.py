"""Star-subdivision sequences and their certificates.

A resolution attempt folds star subdivisions over a sequence of lattice
points starting from the orthant fan, then certifies the result: ray
discrepancies, smoothness, crepancy, per-cone terminality and the Euler
number (= number of maximal cones).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, permutations

from .errors import InputError, PreconditionNotCrepant, ResolutionNotFound
from .fans import (
    Cone,
    Fan,
    fan_to_json,
    is_terminal,
    sigma_fan,
    star_subdivision,
)
from .groups import GroupData
from .hilbert import hilbert_basis
from .lattice import LatticePoint

DEFAULT_BUDGET = 20000
BUDGET_ENV = "TORCREP_BUDGET"


def search_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise InputError(f"{BUDGET_ENV} must be a positive integer, got {raw!r}")
    return budget


@dataclass(frozen=True)
class ResolutionResult:
    fan: Fan
    sequence: tuple[LatticePoint, ...]
    discrepancies: dict[LatticePoint, Fraction] = field(compare=False)
    smooth: bool = False
    crepant: bool = False
    terminal_flags: dict[Cone, bool] = field(default_factory=dict, compare=False)
    euler: int = 0
    star_sequence: bool = True


def discrepancies(fan: Fan, group: GroupData) -> dict[LatticePoint, Fraction]:
    """Discrepancy ``age(u) - 1`` per exceptional ray; orthant rays get 0."""
    axes = set(group.units())
    out = {}
    for ray in fan.rays:
        out[ray] = Fraction(0) if ray in axes else ray.age - 1
    return out


def certify_fan(group: GroupData, fan: Fan, sequence=(),
                star_sequence: bool = True) -> ResolutionResult:
    """Populate all certificate fields for a fan refining the orthant."""
    lat = group.lattice
    disc = discrepancies(fan, group)
    axes = set(group.units())
    crepant = all(v == 0 for ray, v in disc.items() if ray not in axes)
    smooth = fan.is_smooth
    terminal_flags = {c: is_terminal(c, lat) for c in fan.maximal_cones}
    return ResolutionResult(
        fan=fan,
        sequence=tuple(sequence),
        discrepancies=disc,
        smooth=smooth,
        crepant=crepant,
        terminal_flags=terminal_flags,
        euler=len(fan.maximal_cones),
        star_sequence=star_sequence,
    )


def _fold(group: GroupData, seq) -> Fan:
    fan = sigma_fan(group.lattice)
    for mu in seq:
        fan = star_subdivision(fan, mu)
    return fan


def resolve(group: GroupData, sequence) -> ResolutionResult:
    """Fold star subdivisions over ``sequence`` starting from the orthant."""
    seq = tuple(sequence)
    return certify_fan(group, _fold(group, seq), seq)


def euler_check(result: ResolutionResult, group: GroupData) -> bool:
    """Euler number versus group order, valid on smooth crepant results."""
    if not (result.crepant and result.smooth):
        raise PreconditionNotCrepant(
            "Euler comparison needs a smooth crepant resolution"
        )
    return result.euler == group.order


def _policy_order(points) -> list[LatticePoint]:
    # interior points first, then by age, then lexicographically
    return sorted(
        points,
        key=lambda p: (0 if all(c > 0 for c in p.coords) else 1, p.age, p.coords),
    )


def search_resolution(group: GroupData, mode: str,
                      budget: int | None = None) -> ResolutionResult:
    """Try permutations of the target set in a deterministic policy order.

    ``mode`` is ``"juniors_only"`` (targets: the juniors) or
    ``"hilbert_basis"`` (targets: the non-axis Hilbert basis elements); the
    first permutation whose fan is smooth wins.  Only the accepted fan is
    certified.
    """
    if budget is None:
        budget = search_budget()
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if mode == "juniors_only":
        targets = _policy_order(group.juniors)
    elif mode == "hilbert_basis":
        axes = set(group.units())
        targets = _policy_order([p for p in hilbert_basis(group).elements
                                 if p not in axes])
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    tried = 0
    for perm in islice(permutations(targets), budget):
        tried += 1
        fan = _fold(group, perm)
        # every target is folded in, so the rays (and with juniors, crepancy)
        # hold by construction; only smoothness can fail
        if fan.is_smooth:
            return certify_fan(group, fan, perm)
    raise ResolutionNotFound(
        f"no {mode} resolution within {tried} permutations"
    )


def result_to_json(result: ResolutionResult) -> dict:
    fan_data = fan_to_json(result.fan)
    ray_order = [tuple(r) for r in fan_data["rays"]]
    disc = {tuple(k.coords): v for k, v in result.discrepancies.items()}
    cones_in_order = sorted(
        result.fan.maximal_cones,
        key=lambda c: tuple(r.coords for r in c.rays),
    )
    return {
        "fan": fan_data,
        "sequence": [list(p.coords) for p in result.sequence],
        "smooth": result.smooth,
        "crepant": result.crepant,
        "euler": result.euler,
        "ray_discrepancies": [str(disc[r]) for r in ray_order],
        "cone_terminal": [result.terminal_flags[c] for c in cones_in_order],
        "star_sequence": result.star_sequence,
    }
