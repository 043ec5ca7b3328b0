"""Command-line interface.

Commands::

    torcrep analyze  GROUP
    torcrep resolve  GROUP (--sequence g1,g2,... | --search juniors|hilbert) [--out FAN.json]
    torcrep verify   FAN.json GROUP [--out REPORT.json]
    torcrep export-graph FAN.json GROUP --svg OUT.svg

GROUP is an inline group description or a file (with --file): one
generator per line in the form ``r:(a1,...,an)``; blank lines and ``#``
comments are ignored, ``;`` also separates generators inline.  A
generator has at most ``MAX_DIM`` coordinates.

Exit codes: 0 ok, 1 certificate failure, 2 input error, 3 not found.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .divisors import class_group, class_group_to_json
from .errors import (
    CertificateFailure,
    DimensionMismatch,
    DimensionUnsupported,
    GroupSyntaxError,
    InputError,
    InvariantError,
    NotInSL,
    ResolutionNotFound,
    TorcrepError,
)
from .exceptional import (
    certificate_to_json,
    certify_normal_embedding,
    classify_surface,
    coverage_check,
)
from .fans import MAX_DIM, Fan, fan_from_json, validate_fan
from .groups import GroupData, close_group, compact_juniors, crepant_obstructions, element_names
from .hilbert import hilbert_basis
from .lattice import LatticePoint
from .resolve import is_crepant, resolve, result_to_json, search_resolution
from .svg import junior_graph_svg

_GEN_RE = re.compile(r"^\s*(\d+)\s*:\s*\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)\s*$", re.ASCII)


@dataclass(frozen=True)
class GroupSpec:
    """Parsed generator list: pairs of (order, coordinate tuple)."""

    n: int
    generators: tuple[tuple[int, tuple[int, ...]], ...]


def parse_group(text: str) -> GroupSpec:
    """Parse the group grammar; raises GroupSyntaxError with position."""
    gens = []
    n = None
    for lineno, raw in enumerate(text.replace(";", "\n").splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _GEN_RE.match(line)
        if not m:
            col = len(line) - len(line.lstrip()) + 1
            raise GroupSyntaxError(
                f"expected 'r:(a1,...,an)', got {line.strip()!r}",
                line=lineno, col=col,
            )
        try:
            r = int(m.group(1))
            coords = tuple(int(x) for x in m.group(2).split(","))
        except ValueError as exc:  # the interpreter's int-string digit limit
            raise GroupSyntaxError(
                f"number too long: more than {sys.get_int_max_str_digits()} digits",
                line=lineno, col=1) from exc
        if len(coords) > MAX_DIM:
            raise DimensionUnsupported(
                f"line {lineno}: dimension {len(coords)} exceeds the bound {MAX_DIM}"
            )
        if r < 1:
            raise GroupSyntaxError("order must be positive", line=lineno, col=1)
        if any(a < 0 or a >= r for a in coords):
            raise GroupSyntaxError(
                f"coordinates must lie in [0, {r})", line=lineno, col=1
            )
        if sum(coords) % r:
            raise NotInSL(
                f"line {lineno}: coordinate sum {sum(coords)} is not 0 mod {r}"
            )
        if n is None:
            n = len(coords)
        elif n != len(coords):
            raise DimensionMismatch(
                f"line {lineno}: dimension {len(coords)} differs from {n}"
            )
        gens.append((r, coords))
    if n is None:
        raise GroupSyntaxError("no generators found")
    return GroupSpec(n, tuple(gens))


def group_from_spec(spec: GroupSpec) -> GroupData:
    points = [LatticePoint(coords, r) for r, coords in spec.generators]
    return close_group(points, spec.n)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path}: {exc}") from exc


def _load_group(args) -> GroupData:
    text = _read_text(args.group) if args.file else args.group
    return group_from_spec(parse_group(text))


def _load_fan(path: str, group: GroupData) -> Fan:
    """Fan, bare or from a resolve output, validated as a fan of the group's orthant."""
    try:
        data = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise InputError(f"cannot parse {path}: {exc}") from exc
    if isinstance(data, dict) and "fan" in data:
        data = data["fan"]
    fan = fan_from_json(data)
    if fan.lattice != group.lattice:
        raise InputError("fan lattice does not match the group lattice")
    validate_fan(fan)
    return fan


def _json_text(v, pad: str) -> str:
    # the layout of json.dumps(v, sort_keys=True, indent=1), with each flat
    # integer list (most of a bundle) joined at once
    inner = pad + " "
    sep = ",\n" + inner
    if isinstance(v, dict) and v:
        body = sep.join(f"{json.dumps(k)}: {_json_text(v[k], inner)}" for k in sorted(v))
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(v, (list, tuple)) and v:
        if set(map(type, v)) == {int}:
            body = sep.join(map(str, v))
        else:
            body = sep.join(_json_text(x, inner) for x in v)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(v)


def write_json(path: str, data) -> None:
    """Write ``json.dumps(data, sort_keys=True, indent=1)`` and a newline; keys are strings."""
    Path(path).write_text(_json_text(data, "") + "\n")


def _sequence_points(names: dict[LatticePoint, str], spec: str) -> list[LatticePoint]:
    by_name = {v: k for k, v in names.items()}
    out = []
    for token in spec.split(","):
        token = token.strip()
        if token not in by_name:
            raise InputError(f"unknown element name {token!r}; see 'analyze'")
        out.append(by_name[token])
    return out


def cmd_analyze(args) -> int:
    group = _load_group(args)
    names = element_names(group)
    hlb = hilbert_basis(group)
    report = crepant_obstructions(group, hlb)
    juniors = group.juniors
    compact = compact_juniors(group)
    print(f"group order {group.order}, denominator r={group.r}, dimension n={group.n}")
    print("elements:")
    for g in group.elements:
        if g.is_zero():
            print("  id    0")
            continue
        age, rest = divmod(sum(g.coords), group.r)
        if rest:
            raise InvariantError(f"element {g} of G in SL(n) has non-integral age")
        print(f"  {names[g]:<5} {g}  age {age}")
    print(f"junior simplex: {len(juniors)} junior point(s)"
          f" [{', '.join(names[g] for g in juniors)}]")
    print(f"compact juniors: [{', '.join(names[g] for g in compact)}]")
    labels = names | {u: f"e{i + 1}" for i, u in enumerate(group.units())}
    hlb_names = [labels.get(p, "e") for p in hlb]
    print(f"Hilbert basis ({len(hlb)}): {', '.join(sorted(hlb_names))}")
    if report.not_generated_by_juniors:
        print("no crepant resolution: not generated by juniors")
    if report.hilbert_basis_contains_seniors:
        print("no crepant resolution: Hilbert basis contains senior elements")
    if not report.crepant_excluded:
        print("no crepant obstruction found")
    return 0


def cmd_resolve(args) -> int:
    group = _load_group(args)
    names = element_names(group)
    if args.sequence:
        seq = _sequence_points(names, args.sequence)
        result = resolve(group, seq)
    else:
        mode = {"juniors": "juniors_only", "hilbert": "hilbert_basis"}[args.search]
        result = search_resolution(group, mode)
    seq_names = ",".join(names[p] for p in result.sequence)
    print(f"sequence: {seq_names or '(empty)'}")
    print(f"maximal cones (Euler number): {result.euler}")
    print(f"smooth: {result.smooth}")
    print(f"crepant: {result.crepant}")
    nonzero = {k: v for k, v in result.discrepancies.items() if v != 0}
    if nonzero:
        for ray, v in sorted(nonzero.items(), key=lambda kv: kv[0].coords):
            print(f"discrepancy {ray}: {v}")
    else:
        print("all discrepancies 0")
    if args.out:
        write_json(args.out, result_to_json(result))
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    group = _load_group(args)
    fan = _load_fan(args.fan, group)
    smooth = fan.is_smooth
    crepant = is_crepant(fan, group)
    # the union-of-neighborhoods statement only applies to crepant resolutions
    coverage = coverage_check(fan, group) if smooth and crepant else None
    bundle = {
        "group": {
            "n": group.n,
            "r": group.r,
            "generators": [list(g.coords) for g in group.generators],
        },
        "smooth": smooth,
        "crepant": crepant,
        "coverage": coverage,
        "certificates": [],
    }
    cg = class_group(fan)
    bundle["class_group"] = class_group_to_json(cg)
    names = element_names(group)
    all_ok = smooth
    if not smooth:
        print("fan is not smooth; embedding certificates not applicable")
    junior_rays = [g for g in group.juniors if g in fan.ray_set]
    bundle["juniors_missing_from_rays"] = [
        list(g.coords) for g in group.juniors if g not in fan.ray_set
    ]
    failures = []
    for g in junior_rays if smooth else []:
        try:
            cert = certify_normal_embedding(fan, g)
        except CertificateFailure as exc:
            failures.append((g, str(exc)))
            all_ok = False
            continue
        surface = None
        if group.n == 3 and cert.star.complete:
            surface = classify_surface(cert.star)
        bundle["certificates"].append(certificate_to_json(cert, surface))
        extra = f", surface {surface}" if surface else ""
        print(f"junior {names[g]} {g}: verified over "
              f"{cert.anchor_cones_checked} anchor cone(s){extra}")
    if bundle["coverage"] is not None:
        print(f"coverage (every cone meets a junior ray): {bundle['coverage']}")
        all_ok = all_ok and bundle["coverage"]
    else:
        print("coverage: n/a (not a crepant resolution or no juniors)")
    print(f"class group: rank {cg.rank}, torsion {list(cg.torsion)}")
    for g, msg in failures:
        print(f"junior {names[g]} {g}: FAILED: {msg}")
    bundle["all_verified"] = all_ok and not failures
    if args.out:
        write_json(args.out, bundle)
    if not bundle["all_verified"]:
        print("verification FAILED")
        return 1
    print("all certificates verified")
    return 0


def cmd_export_graph(args) -> int:
    group = _load_group(args)
    fan = _load_fan(args.fan, group)
    svg = junior_graph_svg(fan, group)
    Path(args.svg).write_text(svg)
    print(f"wrote {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torcrep",
        description="toric crepant and Hilbert-basis resolutions of abelian "
                    "quotient singularities, with exceptional-divisor "
                    "tubular-neighborhood certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_arg(p):
        p.add_argument("group", help="inline group text, or a path with --file")
        p.add_argument("--file", action="store_true",
                       help="treat GROUP as a file path")

    p = sub.add_parser("analyze", help="group, ages, Hilbert basis, obstructions")
    add_group_arg(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("resolve", help="run a star-subdivision sequence or search")
    add_group_arg(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sequence", help="comma-separated element names, e.g. g1,g2")
    mode.add_argument("--search", choices=["juniors", "hilbert"],
                      help="search star-subdivision sequences, each fan once")
    p.add_argument("--out", help="write the resolution JSON here")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("verify", help="certify an existing fan for a group")
    p.add_argument("fan", help="fan JSON file (bare fan or resolve output)")
    add_group_arg(p)
    p.add_argument("--out", help="write the certificate bundle JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-graph", help="SVG of the junior-simplex triangulation")
    p.add_argument("fan", help="fan JSON file")
    add_group_arg(p)
    p.add_argument("--svg", required=True, help="output SVG path")
    p.set_defaults(func=cmd_export_graph)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResolutionNotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 3
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except TorcrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
