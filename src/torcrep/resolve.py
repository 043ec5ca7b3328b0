"""Star-subdivision sequences and their certificates.

A resolution attempt folds star subdivisions over a sequence of lattice
points starting from the orthant fan, then certifies the result: ray
discrepancies (integers ``age - 1``), smoothness, crepancy, per-cone
terminality and the Euler number (= number of maximal cones), all read off
the fan and its lattice.  The search walks the star-subdivision sequences
over a target set depth first, expands each distinct fan once and remembers
only those, and returns the first smooth fan, proves that no sequence gives
one (exhausted), or stops at ``TORCREP_BUDGET`` expanded fans.

Both drive the builder of ``fans``: each point still to fold (each
pending target) has a conflict list, the live cones that contain it, so
a subdivision costs only the cones it replaces, and a singular live cone
whose list is empty is dead.
"""

from __future__ import annotations

import os
import re

from .errors import InputError, ResolutionNotFound
from .fans import (
    Fan,
    _FanBuilder,
    fan_to_json,
    is_terminal,
    sigma_fan,
)
from .groups import GroupData
from .hilbert import hilbert_basis
from .lattice import LatticePoint, Record

DEFAULT_BUDGET = 20000
BUDGET_ENV = "TORCREP_BUDGET"


def search_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw) if re.fullmatch("[0-9]+", raw) else 0
    except ValueError:  # the interpreter's int-string digit limit
        budget = 0
    if budget < 1:
        raise InputError(f"{BUDGET_ENV} must be a positive integer, got {raw!r}")
    return budget


class ResolutionResult(Record):
    """Certificates of a fan; ``discrepancies`` follow ``fan.rays`` and
    ``terminal_flags`` follow ``fan.maximal_cones``, as in the JSON."""

    fan: Fan
    sequence: tuple[LatticePoint, ...]
    discrepancies: tuple[int, ...]
    smooth: bool
    crepant: bool
    terminal_flags: tuple[bool, ...]
    euler: int


def discrepancies(fan: Fan) -> tuple[int, ...]:
    """Discrepancy ``age(u) - 1`` per ray, in ``fan.rays`` order; an orthant ray has 0."""
    return tuple([ray.age - 1 for ray in fan.rays])


def is_crepant(fan: Fan) -> bool:
    """Every exceptional ray has discrepancy 0."""
    return not any(discrepancies(fan))


def certify_fan(fan: Fan, sequence=()) -> ResolutionResult:
    """Populate all certificate fields for a fan refining the orthant of its lattice."""
    return ResolutionResult(
        fan=fan,
        sequence=tuple(sequence),
        discrepancies=discrepancies(fan),
        smooth=fan.is_smooth,
        crepant=is_crepant(fan),
        terminal_flags=tuple([is_terminal(c, fan.lattice) for c in fan.maximal_cones]),
        euler=len(fan.maximal_cones),
    )


def _fold(group: GroupData, seq) -> Fan:
    state = _FanBuilder(sigma_fan(group.lattice), seq)
    for mu in seq:
        state.subdivide(mu)
    return state.fan()


def resolve(group: GroupData, sequence) -> ResolutionResult:
    """Fold star subdivisions over ``sequence`` starting from the orthant."""
    seq = tuple(sequence)
    return certify_fan(_fold(group, seq), seq)


def _policy_order(points) -> list[LatticePoint]:
    # interior points first, then by age, then lexicographically
    return sorted(
        points,
        key=lambda p: (0 if all(c > 0 for c in p.coords) else 1, p.age, p.coords),
    )


def search_resolution(group: GroupData, mode: str) -> ResolutionResult:
    """Depth-first search over star-subdivision sequences of the targets.

    ``mode`` is ``"juniors"`` (targets: the juniors) or ``"hilbert"``
    (targets: the non-axis Hilbert basis elements), as ``--search`` names them.
    A fan's children are its star subdivisions at its pending targets (not
    yet rays), in policy order.  Two skips drop only subtrees without a
    smooth leaf.  *Seen fans:* a fan's rays fix its pending targets and so
    its subtree, which was ruled out when the fan was first expanded (a
    success returns, a budget stop ends the search).  Only expanded fans are
    kept; a dead fan met again is pruned again.  *Dead cones:* a star
    subdivision at ``mu`` replaces exactly the maximal cones that contain
    ``mu``, so a singular one containing no pending target is a cone of
    every leaf below.  Only a child's new cones can be dead (every other
    cone keeps exactly the targets it held, and the parent had no dead cone),
    so the builder's ``landings`` decide it before the child is built.
    Hence the first smooth leaf met is the fold of the first permutation of
    the targets (``itertools.permutations`` order) with a smooth fan, and it
    is certified as it stands.

    ``TORCREP_BUDGET`` bounds the fans expanded; ResolutionNotFound has
    ``exhausted`` False when the budget stopped it.
    """
    budget = search_budget()
    if mode == "juniors":
        targets = _policy_order(group.juniors)
    elif mode == "hilbert":
        axes = set(group.lattice.units())
        targets = _policy_order([p for p in hilbert_basis(group) if p not in axes])
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    det = group.lattice.det  # the |det| of a smooth cone's rays
    seen = set()  # fans without a dead cone, all expanded but the one in hand
    # (parent builder, its sequence, target to fold); the orthant has no target,
    # and it is dead when it is singular and holds none
    orthant = sigma_fan(group.lattice)
    stack = [(_FanBuilder(orthant, targets), (), None)] if targets or orthant.is_smooth else []
    while stack:
        state, seq, mu = stack.pop()
        if mu is not None:
            moves = state.landings(mu)
            if any(not qs and b[i] != det for _, b, kids in moves for i, qs in kids.items()):
                continue  # a new cone is singular and receives no target
            state, seq = state.copy(), seq + (mu,)
            state.subdivide(mu, moves)
        live = frozenset(state.inside)
        if live in seen:
            continue
        seen.add(live)
        pending = [t for t in targets if t in state.where]
        if not pending:
            return certify_fan(state.fan(), seq)
        if len(seen) > budget:
            raise ResolutionNotFound(
                f"budget hit: the {mode} search stopped after expanding {budget} "
                f"fans ({BUDGET_ENV}); a resolution may still exist", exhausted=False)
        stack.extend([(state, seq, t) for t in reversed(pending)])
    raise ResolutionNotFound(
        f"exhausted: no star-subdivision sequence over the {mode} targets "
        f"({len(targets)} points) gives a smooth fan; fans expanded: {len(seen)}; "
        f"fans that are not star subdivisions are not covered", exhausted=True)


def result_to_json(result: ResolutionResult) -> dict:
    return {
        "fan": fan_to_json(result.fan),
        "sequence": [list(p.coords) for p in result.sequence],
        "smooth": result.smooth,
        "crepant": result.crepant,
        "euler": result.euler,
        "ray_discrepancies": [str(d) for d in result.discrepancies],
        "cone_terminal": list(result.terminal_flags),
        "star_sequence": True,
    }
