"""Command-line interface.

Commands::

    torcrep analyze  GROUP
    torcrep resolve  GROUP (--sequence g1,g2,... | --search juniors|hilbert) [--out FAN.json]
    torcrep verify   FAN.json GROUP [--out REPORT.json]
    torcrep export-graph FAN.json GROUP --svg OUT.svg

GROUP is an inline group description or a file (with --file): one
generator per line in the form ``r:(a1,...,an)``, where only a line feed
ends a line; blank lines and ``#`` comments are ignored, ``;`` also
separates generators inline.  A generator has at most ``MAX_DIM``
coordinates.  An error names the line and column of the text itself.

Exit codes: 0 ok, 1 certificate failure, 2 input error, 3 not found.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import string
import sys
from collections.abc import Sequence
from functools import cache
from itertools import chain, islice, repeat, starmap
from json.encoder import encode_basestring_ascii
from math import gcd, prod

from .divisors import class_group, class_group_to_json
from .errors import (
    CertificateFailure,
    InputError,
    InvariantError,
    ResolutionNotFound,
    TorcrepError,
)
from .exceptional import (
    certificate_to_json,
    certify_normal_embedding,
    classify_surface,
    coverage_check,
)
from .fans import Fan, fan_from_json, validate_fan
from .groups import GroupData, close_group, compact_juniors, crepant_obstructions, element_names
from .hilbert import hilbert_basis
from .lattice import LatticePoint, generator_fault
from .resolve import is_crepant, resolve, result_to_json, search_resolution
from .svg import junior_graph_svg

# the eliminations behind every command are cubic in the dimension, so a larger
# group would run for minutes before any check failed; a fan file must match it
MAX_DIM = 64

# element table lines per write: a write per line costs a call each, and one
# write of all would hold the whole table (51 MB at the closure limit)
TABLE_CHUNK_LINES = 4096

_GEN_RE = re.compile(r"^\s*(\d+)\s*:\s*\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)\s*$", re.ASCII)


def _pieces(text: str):
    """``(line, column of its first non-blank, piece)`` of each nonblank ``;``-separated
    piece of each line (ended by a line feed alone), after its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        col = 1
        for piece in raw.split("#", 1)[0].split(";"):
            got = piece.lstrip(string.whitespace)  # blank as the pattern's ASCII \s
            if got:
                yield lineno, col + len(piece) - len(got), piece
            col += len(piece) + 1


def parse_group(text: str) -> GroupData:
    """The group generated by the text; raises InputError with the position."""
    gens = []
    n = None
    for lineno, col, piece in _pieces(text):
        where = f"line {lineno}, col {col}"
        m = _GEN_RE.match(piece)
        if not m:
            # the pattern's \s is ASCII, so a Unicode space it refused stays in view
            got = piece.strip(string.whitespace)
            raise InputError(f"{where}: expected 'r:(a1,...,an)', got {got!r}")
        try:
            r = int(m.group(1))
            coords = tuple(int(x) for x in m.group(2).split(","))
        except ValueError as exc:  # the interpreter's int-string digit limit
            raise InputError(f"{where}: number too long: "
                             f"more than {sys.get_int_max_str_digits()} digits") from exc
        if len(coords) > MAX_DIM:
            raise InputError(f"{where}: dimension {len(coords)} exceeds the bound {MAX_DIM}")
        if r < 1:
            raise InputError(f"{where}: order must be positive")
        if fault := generator_fault(coords, r, n):
            raise InputError(f"{where}: {fault}")
        n = len(coords)
        gens.append(LatticePoint(coords, r))
    if n is None:
        raise InputError("no generators found")
    return close_group(gens, n)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_pieces(path: str, pieces) -> None:
    """Write each string in turn; a failure is an InputError, and what was written stays."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_group(args) -> GroupData:
    return parse_group(_read_text(args.group) if args.file else args.group)


def _load_fan(path: str, group: GroupData) -> Fan:
    """Fan, bare or from a resolve output, validated as a fan of the group's orthant."""
    try:
        data = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise InputError(f"cannot parse {path}: {exc}") from exc
    if isinstance(data, dict) and "fan" in data:
        data = data["fan"]
    fan = fan_from_json(data, group.lattice)
    validate_fan(fan)
    return fan


# the stdlib's C encoder writes each of these, and a container of them alone, in one call
_SCALARS = frozenset({int, float, str, bool, type(None)})
_INT, _ARRAYS = frozenset({int}), frozenset({list, tuple})


@cache
def _template(shape: tuple[int, ...], pad: str) -> str:
    """``str.format`` template of a rectangular int array of ``shape`` written at ``pad``."""
    if not shape:
        return "{}"
    inner = pad + " "
    item = _template(shape[1:], inner)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + pad + "]"


@cache
def _flat_encoder(pad: str):
    """``json.dumps`` of a scalar or a container of scalars, with the item separator of
    ``indent=1`` at ``pad``; without an indent, the stdlib's C encoder writes it in one call."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + pad + " ", ": ")).encode


def _int_array(v: list | tuple):
    """``(shape of an item, the ints in row-major order)`` when ``v`` is a nonempty
    rectangular array of ints (not bools), else None; an empty row leaves no ints."""
    shape, flat = [], v
    while (kinds := set(map(type, flat))) != _INT:
        lens = set(map(len, flat)) if kinds <= _ARRAYS else ()
        if len(lens) != 1:
            return None
        shape += lens
        flat = list(chain.from_iterable(flat))
    return tuple(shape), flat


def _text(v, pad: str) -> str | None:
    """The text of ``v`` written at ``pad`` when it is a scalar, an empty or flat dict or
    list, or a rectangular int array; None for any other container."""
    if type(v) in _SCALARS:
        return _flat_encoder(pad)(v)
    if isinstance(v, (dict, list, tuple)):
        if not v:
            return json.dumps(v)
        if _SCALARS.issuperset(map(type, v.values() if isinstance(v, dict) else v)):
            text = _flat_encoder(pad)(v)  # the brackets still need their own lines
            return f"{text[0]}\n{pad} {text[1:-1]}\n{pad}{text[-1]}"
        if isinstance(v, dict) or not (array := _int_array(v)):
            return None
        shape, flat = array
        inner = pad + " "
        items = zip(*[iter(flat)] * prod(shape))  # each item's ints, in turn
        body = (",\n" + inner).join(starmap(_template(shape, inner).format, items))
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(v, Sequence) and not isinstance(v, str):
        return None
    return json.dumps(v)


def _json_pieces(v, pad: str):
    """``json.dumps(v, sort_keys=True, indent=1)`` written at ``pad``, for a container that
    ``_text`` leaves to pieces: one per dict entry or array item that ``_text`` writes,
    the pieces of each other one in turn.  Any sequence but a string is an array."""
    inner = pad + " "
    if isinstance(v, dict):
        keys = sorted(v)
        entries, brackets = zip(map(encode_basestring_ascii, keys), map(v.__getitem__, keys)), "{}"
    else:
        entries, brackets = zip(repeat(""), v), "[]"
    lead = brackets[0] + "\n" + inner
    for key, x in entries:
        head = f"{lead}{key}: " if key else lead  # an encoded key is never empty
        text = _text(x, inner)
        if text is None:
            yield head
            yield from _json_pieces(x, inner)
        else:
            yield head + text
        lead = ",\n" + inner
    yield "\n" + pad + brackets[1] if lead.startswith(",") else brackets


def write_json(path: str, data) -> None:
    """Write ``json.dumps(data, sort_keys=True, indent=1)`` and a newline, piece by piece;
    keys are strings."""
    text = _text(data, "")
    _write_pieces(path, chain(_json_pieces(data, "") if text is None else [text], "\n"))


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
    units = {u: f"e{i + 1}" for i, u in enumerate(group.lattice.units())}
    try:
        hlb_names = [names[p] if p in names else units[p] for p in hlb]
    except KeyError as exc:
        raise InvariantError(f"Hilbert basis element {exc.args[0]} is neither "
                             "a group element nor a unit") from None
    print(f"group order {group.order}, denominator r={group.r}, dimension n={group.n}")
    print("elements:")
    # elements[0] is the zero (close_group sorts), so r > 1 for the rows after it
    row = f"  {{:<5}} (1/{group.r})({','.join(['{}'] * group.n)})  age {{}}\n".format
    lines = chain(["  id    0\n"], (row(names[g], *g.coords, g.age) for g in group.elements[1:]))
    while chunk := "".join(islice(lines, TABLE_CHUNK_LINES)):
        print(chunk, end="")  # not sys.stdout.write: a closed stdout is None
    print(f"junior simplex: {len(juniors)} junior point(s)"
          f" [{', '.join(names[g] for g in juniors)}]")
    print(f"compact juniors: [{', '.join(names[g] for g in compact)}]")
    print(f"Hilbert basis ({len(hlb)}): {', '.join(sorted(hlb_names))}")
    if report.not_generated_by_juniors:
        print("no crepant resolution: not generated by juniors")
    if report.hilbert_basis_contains_seniors:
        print("no crepant resolution: Hilbert basis contains senior elements")
    # juniors that generate a proper subgroup H leave a senior in the basis:
    # an element outside H is a sum of basis elements, and the units vanish
    # mod Z^n, so not all of them are juniors; the senior flag is the verdict
    if not report.hilbert_basis_contains_seniors:
        print("no crepant obstruction found")
    return 0


def cmd_resolve(args) -> int:
    group = _load_group(args)
    names = element_names(group)
    if args.sequence is not None:
        seq = _sequence_points(names, args.sequence)
        for p in seq:
            if gcd(*group.lattice.coords_or_none(p)) != 1:
                raise InputError(f"sequence element {names[p]} {p} is not primitive")
        result = resolve(group, seq)
    else:
        result = search_resolution(group, args.search)
    seq_names = ",".join(names[p] for p in result.sequence)
    print(f"sequence: {seq_names or '(empty)'}")
    print(f"maximal cones (Euler number): {result.euler}")
    print(f"smooth: {result.smooth}")
    print(f"crepant: {result.crepant}")
    nonzero = [(ray, v) for ray, v in zip(result.fan.rays, result.discrepancies) if v]
    for ray, v in nonzero:
        print(f"discrepancy {ray}: {v}")
    if not nonzero:
        print("all discrepancies 0")
    if args.out:
        write_json(args.out, result_to_json(result))
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    group = _load_group(args)
    fan = _load_fan(args.fan, group)
    smooth = fan.is_smooth
    crepant = is_crepant(fan)
    # the union-of-neighborhoods statement only applies to crepant resolutions
    coverage = coverage_check(fan, group) if smooth and crepant else None
    cg = class_group(fan)
    names = element_names(group)
    if not smooth:
        print("fan is not smooth; embedding certificates not applicable")
    certificates = []
    for g in [h for h in group.juniors if h in fan.cones_through] if smooth else []:
        try:  # the first failing check ends the command, and no report is written
            cert = certify_normal_embedding(fan, g)
            surface = classify_surface(cert.star) if group.n == 3 and cert.star.complete else None
        except CertificateFailure as exc:
            raise CertificateFailure(f"junior {names[g]} {g}: {exc}") from exc
        certificates.append(certificate_to_json(cert, surface))
        extra = f", surface {surface}" if surface else ""
        print(f"junior {names[g]} {g}: verified over "
              f"{len(cert.cone_bijection)} anchor cone(s){extra}")
    print("coverage: n/a (not a crepant resolution or no juniors)" if coverage is None
          else f"coverage (every cone meets a junior ray): {coverage}")
    print(f"class group: rank {cg.rank}, torsion {list(cg.torsion)}")
    all_verified = smooth and coverage is not False
    if args.out:
        write_json(args.out, {
            "group": {"n": group.n, "r": group.r,
                      "generators": [list(g.coords) for g in group.generators]},
            "smooth": smooth, "crepant": crepant, "coverage": coverage,
            "certificates": certificates,
            "class_group": class_group_to_json(cg),
            "juniors_missing_from_rays": [list(g.coords) for g in group.juniors
                                          if g not in fan.cones_through],
            "all_verified": all_verified,
        })
    if not all_verified:
        print("verification FAILED")
        return 1
    print("all certificates verified")
    return 0


def cmd_export_graph(args) -> int:
    group = _load_group(args)
    fan = _load_fan(args.fan, group)
    _write_pieces(args.svg, [junior_graph_svg(fan, group)])
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


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state, so one parser serves every main() call;
    # build_parser() itself still returns a fresh one its caller may change
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        finally:  # buffered output fails here, not at exit; print skips a closed stdout
            print(end="", flush=True)
    except ResolutionNotFound as exc:
        message, code = f"not found: {exc}", 3
    except CertificateFailure as exc:
        message, code = f"certificate failure: {exc}", 1
    except InputError as exc:
        message, code = f"input error: {exc}", 2
    except TorcrepError as exc:
        message, code = f"error: {exc}", 2
    except OSError as exc:  # a named file fails as an InputError, so this is stdout
        if sys.stdout is sys.__stdout__:  # so that the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message, code = f"error: cannot write to stdout: {exc.strerror or exc}", 2
    try:  # a message that cannot be printed keeps the exit code
        if sys.stderr is not None:  # None when fd 2 was closed at start; print would use stdout
            print(message, file=sys.stderr)
    except OSError:
        if sys.stderr is sys.__stderr__:  # as for stdout
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
