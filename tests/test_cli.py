import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import torcrep
from oracles import (
    class_group_json_reference,
    freudenthal_fan,
    freudenthal_spec,
    is_terminal_box_walk,
    star_subdivision,
)
from torcrep.cli import (
    MAX_DIM,
    build_parser,
    main,
    parse_group,
    write_json,
)
from torcrep.divisors import class_group, class_group_to_json
from torcrep.errors import InputError
from torcrep.fans import Cone, fan_from_json, fan_to_json, make_cone, make_fan, sigma_fan
from torcrep.groups import close_group, element_names
from torcrep.lattice import LatticePoint
from torcrep.resolve import result_to_json
from torcrep.svg import junior_graph_svg


def test_parse_single_generator():
    group = parse_group("6:(1,2,3)")
    assert group.n == 3
    assert [(g.denom, g.coords) for g in group.generators] == [(6, (1, 2, 3))]


def test_parse_comments_and_blank_lines():
    text = "# the order-7 example\n\n7:(1,1,2,3)\n"
    group = parse_group(text)
    assert group.n == 4
    assert [(g.denom, g.coords) for g in group.generators] == [(7, (1, 1, 2, 3))]


def test_parse_multiple_generators_semicolon():
    group = parse_group("2:(1,1,0,0);2:(0,0,1,1)")
    assert len(group.generators) == 2
    assert group.order == 4


def test_parse_rejects_non_sl():
    with pytest.raises(InputError, match="coordinate sum 5 is not 0 mod 6"):
        parse_group("6:(1,2,2)")


def test_parse_rejects_syntax():
    with pytest.raises(InputError, match=r"expected 'r:\(a1,...,an\)', got '6:1,2,3'") as info:
        parse_group("6:1,2,3")
    assert str(info.value).startswith("line 1, col 1: ")


def test_parse_rejects_out_of_range():
    with pytest.raises(InputError, match=r"coordinates must lie in \[0, 6\)"):
        parse_group("6:(1,2,9)")


def test_parse_rejects_mixed_dimension():
    with pytest.raises(InputError, match="line 2: dimension 3 differs from 2"):
        parse_group("2:(1,1)\n3:(1,1,1)")


def test_parse_rejects_empty():
    with pytest.raises(InputError, match="no generators found"):
        parse_group("# nothing\n")


@pytest.mark.parametrize("text, message", [
    ("6:(1,2,3);6:(1,2,3)\nbad", "line 2, col 1: expected 'r:(a1,...,an)', got 'bad'"),
    ("6:(1,2,3);  7:(1,x)", "line 1, col 13: expected 'r:(a1,...,an)', got '7:(1,x)'"),
    ("6:(1,2,3)\n# c\n  6:(1,2,3) ;6:(1,2,9)", "line 3, col 14: coordinates must lie in [0, 6)"),
], ids=["second-line", "second-piece", "third-piece"])
def test_group_error_names_the_line_and_column_of_the_text(text, message, tmp_path, capsys):
    # ";" splits a line into pieces; the line and column are the text's own
    with pytest.raises(InputError) as info:
        parse_group(text)
    assert str(info.value) == message
    path = tmp_path / "group.txt"
    path.write_text(text)
    assert main(["analyze", str(path), "--file"]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_semicolon_inside_a_comment_is_comment():
    group = parse_group("6:(1,2,3)  # note; see paper")
    assert [(g.denom, g.coords) for g in group.generators] == [(6, (1, 2, 3))]


def test_analyze_exit_codes(capsys):
    assert main(["analyze", "6:(1,2,3)"]) == 0
    out = capsys.readouterr().out
    assert "group order 6" in out
    assert "4 junior point(s)" in out
    assert "no crepant obstruction" in out


def test_analyze_obstructed(capsys):
    assert main(["analyze", "2:(1,1,1,1)"]) == 0
    out = capsys.readouterr().out
    assert "not generated by juniors" in out
    assert main(["analyze", "7:(1,1,2,3)"]) == 0
    out = capsys.readouterr().out
    assert "Hilbert basis contains senior elements" in out


def test_artifacts_match_benchmark_digests(tmp_path, capsys):
    """Replay every command of the benchmark's digest table and hash its artifact.

    A key is ``<command> <group> [resolve options]``; ``verify`` and
    ``export_graph`` run on the fan that ``resolve`` with those options writes.
    """
    digests = json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json")
        .read_text()
    )
    assert {k.split(" ")[0] for k in digests} == {"analyze", "resolve", "verify",
                                                  "export_graph"}
    fan, report, svg = tmp_path / "fan.json", tmp_path / "report.json", tmp_path / "fan.svg"
    for key, want in digests.items():
        kind, group, *options = key.split(" ")
        if kind == "analyze":
            assert main(["analyze", group]) == 0, key
            artifacts = {"stdout": capsys.readouterr().out.encode()}
        else:
            assert main(["resolve", group, *options, "--out", str(fan)]) == 0, key
            artifacts = {"fan": fan.read_bytes()}
        if kind == "verify":
            assert main(["verify", str(fan), group, "--out", str(report)]) == 0, key
            artifacts = {"report": report.read_bytes()}
        elif kind == "export_graph":
            assert main(["export-graph", str(fan), group, "--svg", str(svg)]) == 0, key
            artifacts = {"svg": svg.read_bytes()}
        capsys.readouterr()
        got = {role: hashlib.sha256(blob).hexdigest() for role, blob in artifacts.items()}
        assert got == want, key


def test_analyze_large_order(capsys):
    assert main(["analyze", "4096:(1,1,4094)"]) == 0
    assert "Hilbert basis (2051)" in capsys.readouterr().out


@pytest.mark.parametrize("group, digest", [
    ("4096:(1,1,4094)",
     "d520663aad8b95c61ef86f1c568e348148df71d7090eef3241e24722d2bc0f33"),
    ("30030:(1,2,30027)",
     "d6fdf01cb8c56600a8258ba0b9374cb10aa3464d3aa5db4c89008aebcf0d2817"),
    ("1:(0,0,0)",  # the table is the zero alone
     "f167b189500fe5d219ef773243c7eeef4f99457979415fe3a3555c5a388087c9"),
    ("3:(1,2)",
     "533863f6a8fd549ec510aff46e92d01ceda27a48880aa23132e4f40787ada2d4"),
    ("12:(1,11,0,0);12:(0,1,11,0);12:(0,0,1,11)",
     "d758f8e4210eb83f375c5476ec2b78a0591cc3fa4351859e45191c405cb50101"),
    ("6:(1,5,0,0,0);6:(0,1,5,0,0);6:(0,0,1,5,0);6:(0,0,0,1,5)",
     "31f622551f40b7905373758dc1fe3eea7037801876ed13ca2ab6dde306237300"),
    ("1009:(1,2,3,1003)",  # 676 basis elements, 504 of them of age 2
     "751af3070c7c128cbcff13c4bfa4c7f0285fd6be57d8975d89ae3c5d11bfdfaf"),
    ("20:(1,19,0,0);20:(0,1,19,0);20:(0,0,1,19)",  # 1771 basis elements
     "9f13a6f6617074bc78e7fc801536c8977a6f157fba917b841b4c29b94fde3bd0"),
])
def test_analyze_large_order_stdout_digest(capsys, group, digest):
    """``analyze`` stdout in n = 2 to 5, recorded from one ``print`` per
    table line and the ``(age, coords)`` name sort; the first two also from
    the breadth-first closure, the last two from the packed lex scan."""
    assert main(["analyze", group]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_bad_group_is_input_error(capsys):
    assert main(["analyze", "6:(1,2,2)"]) == 2


def test_group_number_beyond_the_digit_limit_is_input_error(capsys):
    # int() refuses longer strings (4300 digits by default)
    limit = sys.get_int_max_str_digits()
    assert main(["analyze", f"1:(0,0);{'6' * (limit + 1)}:(1,2,3)"]) == 2
    err = capsys.readouterr().err
    assert f"input error: line 1, col 9: number too long: more than {limit} digits" in err
    assert "Traceback" not in err


def test_group_text_with_non_ascii_digits_is_input_error(capsys):
    # "6:(1,2,3)" in Arabic-Indic digits, which int() would read
    assert main(["analyze", "٦:(١,٢,٣)"]) == 2
    assert "input error: line 1, col 1: expected 'r:(a1,...,an)'" in capsys.readouterr().err


def test_verify_fan_number_beyond_the_digit_limit_is_input_error(tmp_path, capsys):
    fan_path = tmp_path / "z6.json"
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
                 "--out", str(fan_path)]) == 0
    data = json.loads(fan_path.read_text())
    data["fan"]["rays"][0][0] = "huge"  # json.dumps cannot write such an int either
    huge = "6" * (sys.get_int_max_str_digits() + 1)
    fan_path.write_text(json.dumps(data).replace('"huge"', huge))
    capsys.readouterr()
    assert main(["verify", str(fan_path), "6:(1,2,3)"]) == 2
    err = capsys.readouterr().err
    assert f"input error: cannot parse {fan_path}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [1000, 100000])
@pytest.mark.parametrize("command", ["verify", "export-graph"])
def test_deeply_nested_fan_json_is_input_error(tmp_path, capsys, command, depth):
    # json.loads gives up past the recursion limit with a RecursionError
    fan_path = tmp_path / "deep.json"
    fan_path.write_text("[" * depth + "]" * depth)
    argv = [command, str(fan_path), "6:(1,2,3)"]
    if command == "export-graph":
        argv += ["--svg", str(tmp_path / "g.svg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"input error: cannot parse {fan_path}" in err
    assert "Traceback" not in err


def test_resolve_and_verify_round_trip(tmp_path, capsys):
    fan_path = tmp_path / "z6.json"
    code = main([
        "resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
        "--out", str(fan_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "maximal cones (Euler number): 6" in out
    assert "crepant: True" in out
    data = json.loads(fan_path.read_text())
    assert data["euler"] == 6

    report = tmp_path / "report.json"
    code = main(["verify", str(fan_path), "6:(1,2,3)", "--out", str(report)])
    assert code == 0
    bundle = json.loads(report.read_text())
    assert bundle["all_verified"]
    assert bundle["coverage"] is True
    assert len(bundle["certificates"]) == 4
    assert bundle["class_group"]["rank"] == 4

    # re-verifying the emitted fan yields the identical bundle
    report2 = tmp_path / "report2.json"
    assert main(["verify", str(fan_path), "6:(1,2,3)", "--out", str(report2)]) == 0
    assert report.read_text() == report2.read_text()


def test_resolve_alternate_sequence_distinct(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
                 "--out", str(a)]) == 0
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g4,g3,g1,g2",
                 "--out", str(b)]) == 0
    fan_a = json.loads(a.read_text())["fan"]
    fan_b = json.loads(b.read_text())["fan"]
    assert fan_a != fan_b
    assert fan_a["rays"] == fan_b["rays"]


def test_resolve_search_hilbert(tmp_path, capsys):
    out = tmp_path / "z7.json"
    assert main(["resolve", "7:(1,1,2,3)", "--search", "hilbert",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["euler"] == 14
    assert data["smooth"] and not data["crepant"]
    assert main(["verify", str(out), "7:(1,1,2,3)"]) == 0


def test_resolve_search_juniors_not_found(capsys):
    assert main(["resolve", "7:(1,1,2,3)", "--search", "juniors"]) == 3


def test_resolve_sequence_through_seniors(tmp_path, capsys):
    # the Hilbert sequence names two-age elements explicitly
    out = tmp_path / "z7seq.json"
    assert main(["resolve", "7:(1,1,2,3)", "--sequence", "g1,g3,g4,g5",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["euler"] == 14 and data["smooth"]


@pytest.mark.parametrize("seq", ["", " "], ids=["empty", "space"])
def test_blank_sequence_is_input_error(seq, capsys):
    # an empty --sequence names no element; it is not a request to search
    assert main(["resolve", "6:(1,2,3)", "--sequence", seq]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: unknown element name ''")
    assert "Traceback" not in err


@pytest.mark.parametrize("group, seq", [
    ("7:(1,1,2,3)", "g1"),
    ("11:(1,2,3,5)", "g1"),
    ("11:(1,2,3,5)", "g4"),  # two terminal and two non-terminal cones
])
def test_resolve_partial_fold_terminal_flags(group, seq, tmp_path, capsys):
    # the fold leaves singular cones, whose normals are solved when
    # is_terminal first reads them; the flags match the box walk
    out = tmp_path / "partial.json"
    assert main(["resolve", group, "--sequence", seq, "--out", str(out)]) == 0
    assert "smooth: False" in capsys.readouterr().out
    data = json.loads(out.read_text())
    fan = fan_from_json(data["fan"])
    assert data["cone_terminal"] == [
        is_terminal_box_walk(Cone(c.rays), fan.lattice) for c in fan.maximal_cones]


def _freudenthal_fan_file(r, tmp_path):
    spec = freudenthal_spec(r)
    path = tmp_path / f"freudenthal{r}.json"
    write_json(str(path), fan_to_json(freudenthal_fan(parse_group(spec))))
    return spec, path


@pytest.mark.parametrize("r", range(2, 7))
def test_verify_accepts_freudenthal_fan(r, tmp_path, capsys):
    # n = 4 crepant fans that no builder made: each cone's normals are solved
    spec, path = _freudenthal_fan_file(r, tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", str(path), spec, "--out", str(out)]) == 0
    bundle = json.loads(out.read_text())
    assert bundle["all_verified"] and bundle["coverage"]


def test_verify_cli_accepts_freudenthal_fan_at_512_cones(tmp_path):
    spec, path = _freudenthal_fan_file(8, tmp_path)
    assert len(json.loads(path.read_text())["maximal_cones"]) == 512
    out = tmp_path / "report.json"
    src = str(Path(torcrep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "torcrep.cli", "verify", str(path), spec, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("all certificates verified\n")
    bundle = json.loads(out.read_text())
    assert bundle["all_verified"] and bundle["coverage"]


SCALE_GROUP = "31:(1,30,0);31:(0,1,30)"


@pytest.fixture(scope="module")
def scale_verify(tmp_path_factory):
    """``resolve --sequence <all juniors>`` and ``verify --out`` on the
    961-cone fan of ``SCALE_GROUP``, folded once for the module."""
    out = tmp_path_factory.mktemp("scale")
    group = parse_group(SCALE_GROUP)
    names = element_names(group)
    seq = ",".join(names[g] for g in group.juniors)
    fan, report, stdout = out / "fan.json", out / "report.json", io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["resolve", SCALE_GROUP, "--sequence", seq, "--out", str(fan)]) == 0
    with contextlib.redirect_stdout(stdout):
        assert main(["verify", str(fan), SCALE_GROUP, "--out", str(report)]) == 0
    return fan, report.read_bytes(), stdout.getvalue()


def test_verify_bundle_and_stdout_digests_at_961_cones(scale_verify):
    # recorded before the class group dropped the dense Smith form
    _, bundle, stdout = scale_verify
    assert len(json.loads(bundle)["certificates"]) == 525
    assert hashlib.sha256(bundle).hexdigest() == (
        "61bb1572bd3df5f7a47af991723a50941dc6e42daef1887aa1822ffa41a71022")
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "5e64c3363ce5df98912b18740450cf211889b9e0525cc874441f6f0d65470786")


def test_class_group_matches_reference_at_961_cones(scale_verify):
    fan = fan_from_json(json.loads(scale_verify[0].read_text())["fan"])
    assert len(fan.maximal_cones) == 961
    assert class_group_to_json(class_group(fan)) == class_group_json_reference(fan)


def test_resolve_all_juniors_at_961_cones(scale_verify):
    # the n = 3 fold at scale: 525 star subdivisions, one per junior; the
    # resolve --out file is pinned as the verify --out bundle is above
    data = json.loads(scale_verify[0].read_text())
    assert data["smooth"] and data["crepant"] and data["euler"] == 961
    assert hashlib.sha256(scale_verify[0].read_bytes()).hexdigest() == (
        "01e0197d2db11fc397b433b1150eba78785b110b78dc9501d5a44e63fe432550")


# keys with quotes, backslashes, control and non-ASCII characters
_JSON_KEYS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028😀'),
                               st.characters()), max_size=6)
_JSON_INTS = st.one_of(st.integers(-300, 300), st.integers(2**64, 2**100),
                       st.integers(-2**100, -2**64))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_INTS, st.text(max_size=6),
    st.lists(_JSON_INTS),                                    # flat integer lists
    st.lists(st.one_of(st.integers(-3, 3), st.booleans())),  # ints mixed with bools
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_KEYS, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_VALUES)
@example({'a"\\\x01é😀': [[], {}, [1, True, None], -2**65, {"": [2**64, 0, -1]}]})
def test_write_json_is_the_stdlib_indent_1_layout(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(str(path), value)
        assert path.read_text() == json.dumps(value, sort_keys=True, indent=1) + "\n"


def test_resolve_unknown_name(capsys):
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g9"]) == 2


def test_verify_wrong_group(tmp_path, capsys):
    fan_path = tmp_path / "z6.json"
    main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
          "--out", str(fan_path)])
    assert main(["verify", str(fan_path), "5:(1,2,2)"]) == 2


def test_verify_empty_fan_is_input_error(tmp_path, capsys):
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    data = {"lattice": {"n": 3, "r": 1, "basis": identity},
            "rays": [], "maximal_cones": []}
    fan_path = tmp_path / "empty.json"
    fan_path.write_text(json.dumps(data))
    assert main(["verify", str(fan_path), "1:(0,0,0)"]) == 2
    assert "input error: the fan has no cones" in capsys.readouterr().err


def test_verify_non_smooth_fan_fails(tmp_path, capsys):
    # the singular 4-cone minimal model of the order-7 group
    z7 = close_group([LatticePoint((1, 1, 2, 3), 7)])
    fan = star_subdivision(sigma_fan(z7.lattice), LatticePoint((1, 1, 2, 3), 7))
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(fan_to_json(fan)))
    assert main(["verify", str(path), "7:(1,1,2,3)"]) == 1
    out = capsys.readouterr().out
    assert "not smooth" in out


def test_analyze_rejects_dimension_above_bound(capsys):
    text = f"1:({','.join(['0'] * (MAX_DIM + 1))})"
    start = time.perf_counter()
    assert main(["analyze", text]) == 2
    assert time.perf_counter() - start < 1
    assert f"dimension {MAX_DIM + 1} exceeds the bound {MAX_DIM}" in capsys.readouterr().err


def test_group_file_rejects_dimension_above_bound(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("# a long trivial generator\n1:(" + ",".join(["0"] * 4000) + ")\n")
    assert main(["analyze", str(path), "--file"]) == 2
    assert f"line 2: dimension 4000 exceeds the bound {MAX_DIM}" in capsys.readouterr().err


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("# order six\n6:(1,2,3)\n")
    assert main(["analyze", str(path), "--file"]) == 0


def test_export_graph(tmp_path, capsys):
    fan_path = tmp_path / "z6.json"
    main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
          "--out", str(fan_path)])
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    assert main(["export-graph", str(fan_path), "6:(1,2,3)",
                 "--svg", str(svg1)]) == 0
    assert main(["export-graph", str(fan_path), "6:(1,2,3)",
                 "--svg", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    body = svg1.read_text()
    assert body.startswith("<?xml")
    assert body.count("<line") == 12  # edge count of the 6-triangle graph


def test_export_graph_dimension_guard(tmp_path, capsys):
    fan_path = tmp_path / "z7.json"
    main(["resolve", "7:(1,1,2,3)", "--search", "hilbert", "--out", str(fan_path)])
    assert main(["export-graph", str(fan_path), "7:(1,1,2,3)",
                 "--svg", str(tmp_path / "x.svg")]) == 2


def test_export_graph_trivial_group(tmp_path):
    fan_path = tmp_path / "triv.json"
    from torcrep.fans import sigma_fan
    from torcrep.groups import close_group

    triv = close_group([], n=3)
    fan_path.write_text(json.dumps(fan_to_json(sigma_fan(triv.lattice))))
    svg_path = tmp_path / "triv.svg"
    assert main(["export-graph", str(fan_path), "1:(0,0,0)",
                 "--svg", str(svg_path)]) == 0
    assert svg_path.read_text().count("<line") == 3  # bare triangle


def test_svg_edge_count_order6(z6, z6_result):
    svg = junior_graph_svg(z6_result.fan, z6)
    # a 6-triangle planar triangulation of the simplex has 12 edges
    assert svg.count("<line") == 12
    assert svg.count("<circle") == 7


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "torcrep"


def test_main_reuses_its_parser_without_state(capsys):
    assert main(["analyze", "6:(1,2,3)"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:  # argparse: no --sequence or --search
        main(["resolve", "6:(1,2,3)"])
    assert info.value.code == 2
    assert main(["analyze", "6:(1,2,2)"]) == 2  # input error: not in SL
    capsys.readouterr()
    assert main(["analyze", "6:(1,2,3)"]) == 0
    assert capsys.readouterr().out == first


def test_changing_a_built_parser_does_not_change_main(capsys):
    assert main(["analyze", "6:(1,2,3)"]) == 0  # main's parser exists
    first = capsys.readouterr().out
    parser = build_parser()
    assert parser is not build_parser()
    parser.add_argument("--extra")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands.choices["analyze"].set_defaults(func=lambda args: 99)
    with pytest.raises(SystemExit) as info:
        main(["--extra", "1", "analyze", "6:(1,2,3)"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(["analyze", "6:(1,2,3)"]) == 0
    assert capsys.readouterr().out == first


def test_import_builds_no_parser_and_main_builds_one():
    # count the ArgumentParsers made in a fresh process: none at import, and
    # as many over several main() calls as one build_parser() makes
    script = """if True:
        import argparse, contextlib, io, json
        built = []
        init = argparse.ArgumentParser.__init__
        argparse.ArgumentParser.__init__ = lambda self, *a, **k: (
            built.append(self), init(self, *a, **k))[1]
        import torcrep.cli as cli
        counts = [len(built)]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["analyze", "6:(1,2,3)"], ["analyze", "5:(1,2,2)"]):
                assert cli.main(argv) == 0
                counts.append(len(built))
        cli.build_parser()
        counts.append(len(built))
        print(json.dumps(counts))
    """
    src = str(Path(torcrep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, first, second, fresh = json.loads(proc.stdout)
    assert at_import == 0
    assert first > 0 and second == first
    assert fresh - second == first


def test_analyze_writes_the_table_in_chunks(monkeypatch):
    class Recorder(io.StringIO):
        def write(self, s):
            writes.append(s)
            return super().write(s)

    outs = []
    for chunk in (4096, 2, 3):  # 9 table lines: one chunk, four and a part, three whole
        monkeypatch.setattr("torcrep.cli.TABLE_CHUNK_LINES", chunk)
        writes, out = [], Recorder()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", "3:(1,2,0);3:(0,1,2)"]) == 0
        outs.append(out.getvalue())
        assert max(w.count("\n") for w in writes) == min(chunk, 9)
    assert outs[0].count("\n  ") == 9 and outs[1] == outs[0] and outs[2] == outs[0]


def test_foreign_hilbert_basis_element_is_invariant_error(monkeypatch, capsys):
    foreign = LatticePoint((2, 2, 2), 6)  # not an element of 6:(1,2,3)
    monkeypatch.setattr("torcrep.cli.hilbert_basis", lambda group: (foreign,))
    assert main(["analyze", "6:(1,2,3)"]) == 2
    out, err = capsys.readouterr()
    assert err == (f"error: Hilbert basis element {foreign} is neither "
                   "a group element nor a unit\n")
    assert out == ""  # checked before the first line


@pytest.mark.parametrize("raw", ["abc", "0", " 5", "1_0", "\u0665", "+3", "9" * 5000],
                         ids=["abc", "0", "space", "underscore", "arabic-indic",
                              "plus", "5000-digits"])
def test_bad_budget_env_is_input_error(raw, monkeypatch, capsys):
    monkeypatch.setenv("TORCREP_BUDGET", raw)
    assert main(["resolve", "7:(1,1,2,3)", "--search", "juniors"]) == 2
    assert "TORCREP_BUDGET must be a positive integer" in capsys.readouterr().err


def _set_ray(fan, old, new):
    fan["rays"][fan["rays"].index(old)] = new


def _dense_basis(n):
    rng = random.Random(n)
    return [[rng.randint(1, 10**6) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("mutate", [
    lambda f: _set_ray(f, [6, 0, 0], [6.9, 0, 0]),  # int() would read [6, 0, 0]
    lambda f: _set_ray(f, [6, 0, 0], [6.0, 0, 0]),
    lambda f: _set_ray(f, [0, 6, 0], [0, 6, False]),
    lambda f: f["lattice"].update(n=3.0),
    lambda f: f["lattice"].update(r=True),
    lambda f: f["lattice"]["basis"][0].__setitem__(0, 1.0),
    lambda f: f["maximal_cones"][0].__setitem__(0, True),
    lambda f: f["maximal_cones"][0].__setitem__(0, 0.0),
    lambda f: f["lattice"].update(basis=[[0, 0, 0]] * 3),
    lambda f: f["maximal_cones"].append([]),
    lambda f: f["maximal_cones"].append({}),
    lambda f: _set_ray(f, [6, 0, 0], [6, 0]),
    lambda f: _set_ray(f, [6, 0, 0], [6, 0, 0, 0]),
    # the order-6 lattice again, but not in the lower-triangular Hermite form
    lambda f: f["lattice"].update(basis=[[1, -6, 0], [2, 0, 0], [3, 0, 6]]),
    # recomputing the Hermite form of a dense 40-by-40 basis would not end
    lambda f: f["lattice"].update(n=40, basis=_dense_basis(40)),
], ids=["float-ray", "integral-float-ray", "bool-ray", "float-n", "bool-r",
        "float-basis", "bool-index", "float-index", "singular-basis",
        "empty-cone", "empty-object-cone", "short-ray", "long-ray",
        "non-hermite-basis", "dense-basis"])
def test_verify_rejects_malformed_fan_numbers(tmp_path, capsys, mutate):
    fan_path = tmp_path / "z6.json"
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
                 "--out", str(fan_path)]) == 0
    data = json.loads(fan_path.read_text())
    mutate(data["fan"])
    fan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(fan_path), "6:(1,2,3)"]) == 2
    captured = capsys.readouterr()
    assert "input error: malformed fan data" in captured.err
    assert "all certificates verified" not in captured.out


def test_verify_rejects_a_fan_beyond_the_dimension_bound(tmp_path, capsys):
    # an identity-basis fan in n = MAX_DIM + 1 is refused before its cone is built
    n = MAX_DIM + 1
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    data = {"lattice": {"n": n, "r": 1, "basis": units},
            "rays": units, "maximal_cones": [list(range(n))]}
    fan_path = tmp_path / "big.json"
    fan_path.write_text(json.dumps(data))
    assert main(["verify", str(fan_path), "6:(1,2,3)"]) == 2
    err = capsys.readouterr().err
    assert f"malformed fan data: dimension {n} exceeds the bound {MAX_DIM}" in err


def _edge_fan_file(tmp_path):
    z6 = close_group([LatticePoint((1, 2, 3), 6)])
    data = fan_to_json(sigma_fan(z6.lattice))
    data["maximal_cones"] = [[0, 1]]  # a 2-dimensional cone inside the orthant
    data["rays"] = data["rays"][:2]  # a ray no cone uses is rejected first
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    return path


def test_verify_lower_dimensional_cone_is_input_error(tmp_path, capsys):
    assert main(["verify", str(_edge_fan_file(tmp_path)), "6:(1,2,3)"]) == 2
    err = capsys.readouterr().err
    assert "input error: cone Cone((1/6)(0,0,6), (1/6)(0,6,0)) has dimension 2" in err


def test_export_graph_checks_refinement(tmp_path, capsys):
    svg_path = tmp_path / "edge.svg"
    assert main(["export-graph", str(_edge_fan_file(tmp_path)), "6:(1,2,3)",
                 "--svg", str(svg_path)]) == 2
    err = capsys.readouterr().err
    assert "input error: cone Cone((1/6)(0,0,6), (1/6)(0,6,0)) has dimension 2" in err
    assert "Traceback" not in err
    assert not svg_path.exists()


@pytest.mark.parametrize("command", [["verify"], ["export-graph", "--svg", "out.svg"]],
                         ids=["verify", "export-graph"])
def test_dependent_cone_is_input_error(command, tmp_path, capsys, monkeypatch):
    # primitive lattice rays of 1/6(1,2,3) in the orthant, but all in one plane
    lat = parse_group("6:(1,2,3)").lattice
    cone = make_cone([LatticePoint(c, 6) for c in [(6, 0, 0), (0, 6, 0), (2, 4, 0)]])
    path = tmp_path / "dependent.json"
    write_json(str(path), fan_to_json(make_fan(lat, [cone])))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], str(path), "6:(1,2,3)", *command[1:]]) == 2
    assert capsys.readouterr().err == (
        "input error: cone Cone((1/6)(0,6,0), (1/6)(2,4,0), (1/6)(6,0,0)): rays are "
        "linearly dependent; cone is not simplicial\n")
    assert not (tmp_path / "out.svg").exists()


def test_export_graph_wrong_group(tmp_path, capsys):
    fan_path = tmp_path / "z6.json"
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
                 "--out", str(fan_path)]) == 0
    svg_path = tmp_path / "w.svg"
    assert main(["export-graph", str(fan_path), "5:(1,2,2)",
                 "--svg", str(svg_path)]) == 2
    assert "fan lattice does not match the group lattice" in capsys.readouterr().err
    assert not svg_path.exists()


# how each kind of bad input ends: the exit code and the whole of stderr
@pytest.mark.parametrize("argv, code, err", [
    (["analyze", "6:(1,2,2)"], 2, "input error: line 1: coordinate sum 5 is not 0 mod 6\n"),
    (["analyze", "6:1,2,3"], 2,
     "input error: line 1, col 1: expected 'r:(a1,...,an)', got '6:1,2,3'\n"),
    (["analyze", "6:(1,2,9)"], 2, "input error: line 1, col 1: coordinates must lie in [0, 6)\n"),
    (["analyze", "0:(0,0)"], 2, "input error: line 1, col 1: order must be positive\n"),
    (["analyze", "2:(1,1)\n3:(1,1,1)"], 2, "input error: line 2: dimension 3 differs from 2\n"),
    (["analyze", "# nothing"], 2, "input error: no generators found\n"),
    (["analyze", "1001:(1,1000,0)\n1001:(0,1,1000)"], 2,
     "error: group of order 1002001 exceeds the closure limit of 1000000 elements\n"),
    (["analyze", f"1:({','.join(['0'] * 65)})"], 2,
     "input error: line 1: dimension 65 exceeds the bound 64\n"),
    (["resolve", "8:(2,3,3)", "--sequence", "g6"], 2, "error: (1/8)(4,6,6) is not primitive\n"),
    (["resolve", "6:(1,2,3)", "--sequence", "g9"], 2,
     "input error: unknown element name 'g9'; see 'analyze'\n"),
    (["verify", "{dir}/unused.json", "6:(1,2,3)"], 2,
     "input error: malformed fan data: ray (1/6)(2,4,0) lies in no cone\n"),
    (["export-graph", "{dir}/n4.json", "2:(1,1,0,0)", "--svg", "{dir}/n4.svg"], 2,
     "input error: graph export is only defined for n = 3\n"),
], ids=["not-in-sl", "syntax", "out-of-range", "order-zero", "mixed-dimension", "empty",
        "closure-limit", "dimension-bound", "imprimitive-step", "unknown-name",
        "unused-ray", "export-graph-n4"])
def test_each_error_ends_with_its_exit_code_and_message(argv, code, err, tmp_path, capsys):
    data = fan_to_json(sigma_fan(close_group([LatticePoint((1, 2, 3), 6)]).lattice))
    data["rays"].append([2, 4, 0])  # a lattice ray that no cone uses
    (tmp_path / "unused.json").write_text(json.dumps(data))
    n4 = sigma_fan(close_group([LatticePoint((1, 1, 0, 0), 2)]).lattice)
    (tmp_path / "n4.json").write_text(json.dumps(fan_to_json(n4)))
    assert main([a.format(dir=tmp_path) for a in argv]) == code
    assert capsys.readouterr().err == err
    assert not (tmp_path / "n4.svg").exists()


@pytest.mark.parametrize("argv, body", [
    (["analyze", "{path}", "--file"], b"\xff\xfe6:(1,2,3)\n"),
    (["verify", "{path}", "6:(1,2,3)"], b"\xff\xfe{}\n"),
    (["verify", "{path}", "6:(1,2,3)"], b"5\n"),
], ids=["analyze-utf16-bom", "verify-utf16-bom", "verify-json-number"])
def test_undecodable_or_non_object_input_is_input_error(tmp_path, capsys, argv, body):
    path = tmp_path / "input"
    path.write_bytes(body)
    assert main([a.format(path=path) for a in argv]) == 2
    assert "input error" in capsys.readouterr().err


def test_verify_huge_ray_is_not_smooth(tmp_path, z6_result, capsys):
    # the cone through the ray has index about 3.9e20: too many lattice
    # points to walk, but its group has an element of age <= 1 at once
    data = result_to_json(z6_result)
    _set_ray(data["fan"], [4, 2, 0], [2**70, 2, 0])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "6:(1,2,3)"]) == 1
    assert "not smooth" in capsys.readouterr().out


def test_verify_huge_index_cone_is_fast(tmp_path, capsys):
    # the orthant subdivided at (1, r-1, r) has cones of index r-1 and r;
    # verify reports smoothness and crepancy without walking their groups
    r = 10**9
    triv = close_group([], n=3)
    fan = star_subdivision(sigma_fan(triv.lattice), LatticePoint((1, r - 1, r), 1))
    path = tmp_path / "huge_index.json"
    path.write_text(json.dumps(fan_to_json(fan)))
    start = time.perf_counter()
    assert main(["verify", str(path), "1:(0,0,0)"]) == 1
    assert time.perf_counter() - start < 1
    assert "not smooth" in capsys.readouterr().out


_JUNK = st.one_of(
    st.integers(-8, 8),
    st.sampled_from([2**70, -(2**70), 0.5, 6.0, True, None, "g1", [], {},
                     [0], [6, 0, 0], [[1, 0, 0]], {"n": 3}]),
).map(lambda v: json.loads(json.dumps(v)))  # a fresh copy: edits mutate it


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def _edited_resolution(draw, doc):
    """The JSON document with one to three random edits applied."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["set", "delete", "append"]))
        if not path:
            doc = draw(_JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "append" and isinstance(target, list):
            target.append(draw(_JUNK))
        else:
            parent[path[-1]] = draw(_JUNK)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_survives_edited_fan_json(z6_result, data):
    doc = data.draw(_edited_resolution(result_to_json(z6_result)))
    with tempfile.TemporaryDirectory() as tmp:
        fan = Path(tmp) / "fan.json"
        fan.write_text(json.dumps(doc))
        for argv in (["verify", str(fan), "6:(1,2,3)", "--out", f"{tmp}/v.json"],
                     ["export-graph", str(fan), "6:(1,2,3)", "--svg", f"{tmp}/g.svg"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in {0, 1, 2, 3}


_GROUP_TEXTS = ["6:(1,2,3)", "5:(1,2,2)", "7:(1,1,2,3)", "2:(1,1,0,0);2:(0,0,1,1)",
                "4:(1,3,0);2:(1,1,0)", "# c\n3:(1,2)\n\n", "1:(0,0,0)"]
_GROUP_CHARS = "0123456789:(),;# -\n\txa"


@st.composite
def _edited_group_text(draw):
    """A small group text, or random characters, with up to three edits."""
    if draw(st.booleans()):
        return draw(st.text(_GROUP_CHARS, max_size=12))
    text = draw(st.sampled_from(_GROUP_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        c = draw(st.sampled_from(_GROUP_CHARS))
        if kind == "insert":
            text = text[:i] + c + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_edited_group_text())
def test_cli_survives_edited_group_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.txt"
        path.write_text(text)
        # after "--" a text starting with "-" reaches parse_group, not argparse
        for argv in (["analyze", "--", text], ["analyze", str(path), "--file"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in {0, 1, 2, 3}
