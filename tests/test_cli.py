import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import torcrep
from conftest import (
    assert_each_raise_reached,
    crepant3_resolutions,
    nonstar_order6_fan,
    partial_folds,
    raised_at,
)
from oracles import (
    class_group_json_reference,
    element_names_by_key,
    element_table_by_fstring,
    freudenthal_fan,
    freudenthal_spec,
    is_terminal_box_walk,
    star_subdivision,
    two_cones,
)
from torcrep import cli
from torcrep import svg as svg_module
from torcrep.cli import (
    MAX_DIM,
    build_parser,
    main,
    parse_group,
    write_json,
)
from torcrep.divisors import ClassRows, class_group, class_group_to_json
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
    with pytest.raises(InputError, match="line 2, col 1: dimension 3 differs from 2"):
        parse_group("2:(1,1)\n3:(1,1,1)")


def test_parse_rejects_empty():
    with pytest.raises(InputError, match="no generators found"):
        parse_group("# nothing\n")


@pytest.mark.parametrize("text, message", [
    ("6:(1,2,3);6:(1,2,3)\nbad", "line 2, col 1: expected 'r:(a1,...,an)', got 'bad'"),
    ("6:(1,2,3);  7:(1,x)", "line 1, col 13: expected 'r:(a1,...,an)', got '7:(1,x)'"),
    ("6:(1,2,3)\n# c\n  6:(1,2,3) ;6:(1,2,9)", "line 3, col 14: coordinates must lie in [0, 6)"),
    ("6:(1,2,3);  6:(1,2,9)", "line 1, col 13: coordinates must lie in [0, 6)"),
    ("6:(1,2,3)\n \t6:(1,2,2)", "line 2, col 3: coordinate sum 5 is not 0 mod 6"),
    ("6:(1,2,3); 2:(1,1)", "line 1, col 12: dimension 2 differs from 3"),
    (f"6:(1,2,3);  1:({','.join(['0'] * 65)})",
     "line 1, col 13: dimension 65 exceeds the bound 64"),
], ids=["second-line", "second-piece", "third-piece", "range-after-blanks", "sum", "dimension",
        "dimension-bound"])
def test_group_error_names_the_line_and_column_of_the_text(text, message, tmp_path, capsys):
    # ";" splits a line into pieces; the line and column are the text's own
    with pytest.raises(InputError) as info:
        parse_group(text)
    assert str(info.value) == message
    path = tmp_path / "group.txt"
    path.write_text(text)
    assert main(["analyze", str(path), "--file"]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@st.composite
def one_generator(draw):
    """``r`` and ``n`` coordinates in ``[-r, 2r)``, so the range and sum rules may fail."""
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    return r, tuple(draw(st.lists(st.integers(-r, 2 * r - 1), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(one_generator())
@example((6, (7, 5, 0)))  # once read by the API as (1/6)(1,5,0)
@example((6, (-1, 1, 0)))  # once read by the API as (1/6)(5,1,0)
@example((6, (1, 2, 2)))
@example((6, (1, 2, 3)))
def test_group_text_and_the_api_keep_one_generator_rule(case):
    # the same generator is accepted by both into one group, or refused by
    # both with one fault behind each caller's own prefix
    r, coords = case
    point = LatticePoint(coords, r)
    try:
        group = parse_group(f"{r}:({','.join(map(str, coords))})")
    except InputError as exc:
        where, fault = str(exc).split(": ", 1)
        assert where == "line 1, col 1"
        with pytest.raises(InputError) as info:
            close_group([point], len(coords))
        assert str(info.value) == f"generator {point}: {fault}"
    else:
        assert close_group([point], len(coords)) == group


def test_group_text_and_the_api_name_one_dimension_fault():
    with pytest.raises(InputError, match=r"^line 2, col 1: dimension 2 differs from 3$"):
        parse_group("6:(1,2,3)\n2:(1,1)")
    with pytest.raises(InputError, match=r"^generator \(1/2\)\(1,1\): dimension 2 differs from 3$"):
        close_group([LatticePoint((1, 2, 3), 6), LatticePoint((1, 1), 2)], 3)


@pytest.mark.parametrize("text", [
    "6:(1,2,3)\fbad", "6:(1,2,3)\vbad", "6:(1,2,3)\rbad", "6:(1,2,3)\x1cbad",
    "6:(1,2,3)\x85bad", "6:(1,2,3)\u2028bad", "6:(1,2,3)\u2029bad", "6:(1,2,3)\u2028",
], ids=["form-feed", "vertical-tab", "carriage-return", "file-separator", "next-line",
        "line-separator", "paragraph-separator", "line-separator-at-end"])
def test_only_a_line_feed_ends_a_group_line(text, capsys):
    # str.splitlines would start a line at each break; the text has one line,
    # and the message shows the break the pattern refused
    message = f"line 1, col 1: expected 'r:(a1,...,an)', got {text!r}"
    with pytest.raises(InputError) as info:
        parse_group(text)
    assert str(info.value) == message
    assert main(["analyze", text]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("text, col, got", [
    ("6:(1,2,3);\xa0", 11, "\xa0"),
    ("6:(1,2,3)\xa0", 1, "6:(1,2,3)\xa0"),
], ids=["nbsp-piece", "nbsp-after-generator"])
def test_a_unicode_space_is_not_blank(text, col, got, capsys):
    # blank means ASCII whitespace, as the pattern's \s, so a no-break space
    # is refused alone as after a generator
    message = f"line 1, col {col}: expected 'r:(a1,...,an)', got {got!r}"
    with pytest.raises(InputError) as info:
        parse_group(text)
    assert str(info.value) == message
    assert main(["analyze", text]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_group_text_with_crlf_line_ends_parses(tmp_path, capsys):
    lf = "# two generators\n2:(1,1,0,0)\n\n2:(0,0,1,1) # the second\n"
    crlf = lf.replace("\n", "\r\n")
    assert parse_group(crlf) == parse_group(lf)
    with pytest.raises(InputError) as info:
        parse_group("6:(1,2,3)\r\n  bad\r\n")
    assert str(info.value) == "line 2, col 3: expected 'r:(a1,...,an)', got 'bad'"
    path = tmp_path / "group.txt"
    path.write_bytes(crlf.encode())
    assert main(["analyze", crlf]) == 0
    inline = capsys.readouterr().out
    assert main(["analyze", str(path), "--file"]) == 0
    assert capsys.readouterr().out == inline


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
    fan = fan_from_json(data["fan"], parse_group(group).lattice)
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


def _cli_env(unbuffered=""):
    """The environment of a child Python that imports this ``src``'s torcrep."""
    # PYTHONUNBUFFERED unset: stdout is a block-buffered file, as a user's is
    src = str(Path(torcrep.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), PYTHONUNBUFFERED=unbuffered)


def test_verify_cli_accepts_freudenthal_fan_at_512_cones(tmp_path):
    spec, path = _freudenthal_fan_file(8, tmp_path)
    assert len(json.loads(path.read_text())["maximal_cones"]) == 512
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "torcrep.cli", "verify", str(path), spec, "--out", str(out)],
        capture_output=True, text=True, env=_cli_env(), timeout=120)
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


def test_verify_out_memory_at_961_cones(scale_verify, tmp_path):
    # traced peak of the whole command: 4.9 MB with the class rows sparse until written,
    # 18.1 MB when the bundle was one string and the rows dense (Python 3.11)
    report = tmp_path / "report.json"
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", str(scale_verify[0]), SCALE_GROUP, "--out", str(report)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "61bb1572bd3df5f7a47af991723a50941dc6e42daef1887aa1822ffa41a71022")
    assert peak < 8_000_000


def test_class_group_matches_reference_at_961_cones(scale_verify):
    fan = fan_from_json(json.loads(scale_verify[0].read_text())["fan"],
                        parse_group(SCALE_GROUP).lattice)
    assert len(fan.maximal_cones) == 961
    data = class_group_to_json(class_group(fan))  # its class rows read densely
    assert {**data, "ray_classes": list(map(list, data["ray_classes"]))} == (
        class_group_json_reference(fan))


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


@st.composite
def _int_arrays(draw, spoil=False):
    """Rectangular int arrays 2 to 4 levels deep, each list or tuple drawn apart.

    Spoiled, one innermost row is made longer than another or empty, or one of its
    ints becomes a bool or +-2^64; the first axis has two items, so that there are
    two rows to differ in length."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    if spoil:
        dims[0] = 2

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(_JSON_INTS)

    array = row = build(dims)
    while isinstance(row[0], list):
        row = row[draw(st.integers(0, len(row) - 1))]
    kind = draw(st.sampled_from(["ragged", "empty row", "bool", "2^64"])) if spoil else None
    at = draw(st.integers(0, len(row) - 1))
    if kind == "ragged":
        row.append(draw(_JSON_INTS))
    elif kind == "empty row":
        row.clear()
    elif kind:
        row[at] = draw(st.booleans() if kind == "bool" else st.sampled_from([2**64, -2**64]))

    def shaped(x):
        return draw(st.sampled_from([list, tuple]))(map(shaped, x)) if isinstance(x, list) else x

    return shaped(array)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_INTS, st.text(max_size=6),
    st.lists(_JSON_INTS),                                    # flat integer lists
    st.lists(st.one_of(st.integers(-3, 3), st.booleans())),  # ints mixed with bools
    _int_arrays(), _int_arrays(spoil=True),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_KEYS, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_VALUES)
@example({'a"\\\x01é😀': [[], {}, [1, True, None], -2**65, {"": [2**64, 0, -1]}]})
@example([[[[1, -2]], ([3, 4],)], ([(5, 6)], [[7, 8]])])  # 4 levels, lists and tuples
@example({"ragged": [[1, 2], (3,)], "empty row": [[1], []], "bool": [(1, True), [2, 3]],
          "2^64": [[2**64], (-2**64,)], "tuple of rows": ((1, 2), (3, 4))})
def test_write_json_is_the_stdlib_indent_1_layout(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(str(path), value)
        assert path.read_text() == json.dumps(value, sort_keys=True, indent=1) + "\n"


def test_write_json_without_the_c_encoder_is_the_same_layout(tmp_path, monkeypatch):
    value = {"flat": [1, True, None, "é", 2.5], "scalar": -2**70, "rows": [[1, 2], (3, 4)],
             "flat dict": {"b": 1, "a": "x"}, "nested": [{"k": [[True]]}]}
    # JSONEncoder reads the module's c_make_encoder at each encode, so the
    # pure-Python encoder writes every flat container here
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    write_json(str(tmp_path / "out.json"), value)
    want = json.dumps(value, sort_keys=True, indent=1) + "\n"
    assert (tmp_path / "out.json").read_text() == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(partial_folds())
def test_lazy_class_rows_write_the_bytes_of_the_dense_rows(fan):
    # the dense rows come from the reference Smith form, not from the lazy ones
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "class_group.json"
        write_json(str(path), {"class_group": class_group_to_json(class_group(fan))})
        dense = {"class_group": class_group_json_reference(fan)}
        assert path.read_text() == json.dumps(dense, sort_keys=True, indent=1) + "\n"


def test_class_rows_without_rows_or_width_write_as_json_does(tmp_path):
    path = tmp_path / "rows.json"
    for rows, dense in [(ClassRows(0, ()), []), (ClassRows(0, ((), ())), [[], []]),
                        (ClassRows(3, (((1, 5),), ())), [[0, 5, 0], [0, 0, 0]])]:
        write_json(str(path), {"rows": rows, "in a list": [rows]})
        want = {"rows": dense, "in a list": [dense]}
        assert path.read_text() == json.dumps(want, sort_keys=True, indent=1) + "\n"


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


# verify's whole outcome on fans a user can reach: the exit code and the
# SHA-256 of stdout and of the --out report, recorded before verify stopped
# at its first failing certificate check.  A fan is the fold of the first k
# elements (the juniors), a search result, the non-star model or the orthant
VERIFY_PINS = [
    ("12:(1,2,9)", "fold 7", 0,
     "7f79c410fce76b3e66a14b2d1919d28b3476b33e84b87a35c048402f00cd20e2",
     "890e0133689f45310fd7cae297769c6e70ed136ea8a72a3bbdd362f6489b07bd"),
    ("24:(1,2,21)", "fold 13", 0,
     "87e96fef515a5da98e2d06b73af4132d13cdd13c8e8689035791f9450dc42b37",
     "95d0ea581adc630082415d510048020dfb019baf8dd9a7b7475f5a520318aed0"),
    ("48:(1,2,45)", "fold 25", 0,
     "ca6e845ccb90a9de1da7558218aaf87867450a258b2a26228e79a64b6b680e80",
     "7c22fea2116cee7fe4913f95068815f693743f363feb3f904291684c92f7d05c"),
    ("5:(1,4,0);5:(0,1,4)", "fold 18", 0,
     "d45c4d9768cd1c6c648446f006fb722c68a509729d825ec2a538106e4776be36",
     "da95c1d5a15fb4f8a0f51bf3d4bd427f6b8218390413c67fb77c1ef8f9c1e0e1"),
    ("7:(1,6,0);7:(0,1,6)", "fold 33", 0,
     "4a36326732c6b50c53eb695a2ab628d1adbd9a2c6294c632daec73e5eae3e2f9",
     "d186d3c63c1596db0ca1a365eaa571a98f9403161cc3c4b9bed4c47068509d32"),
    ("6:(1,2,3)", "nonstar", 0,
     "c6e78f42cb8c763c014e466df4cbc36ec3d64a495be1eec5be0e145829fd8ffb",
     "066477b87d71eec15e39c5b76bb8bbc4141c4807221fe06031cae690591736b1"),
    ("6:(1,2,3)", "orthant", 1,  # not smooth: "verification FAILED"
     "934ac7943be2f2d766f74c7d5767f5df36a8a27e79754358b72e474a28a3c8e9",
     "9f3243ddce4dcdcef6a8a7c85a192300f1ba02ff8a7a23450fe03dd06d75cea7"),
    ("7:(1,1,2,3)", "search hilbert", 0,
     "772aa9856d6e966895df2c87936f863f0289c27841313695ad23251638645a7d",
     "b2d83a60886e089503f07070376685e3b8be1c50fb368c1377698cdddf116446"),
    ("1:(0,0,0)", "orthant", 0,  # no juniors: coverage n/a
     "dd0da4ef9df7378dd11a1b77a183725b1af082917437ea8d13ccb0c4201242cc",
     "be0bceaf63d189c3570221a0a7a417c73462ed9309ce73ee5ce464ecbf9c141e"),
]


@pytest.mark.parametrize("group, fan_kind, code, stdout_sha, report_sha", VERIFY_PINS,
                         ids=[f"{p[0]} {p[1]}" for p in VERIFY_PINS])
def test_verify_outcome_is_pinned(group, fan_kind, code, stdout_sha, report_sha,
                                  tmp_path, capsys):
    fan, report = tmp_path / "fan.json", tmp_path / "report.json"
    kind, _, arg = fan_kind.partition(" ")
    if kind == "fold":
        seq = ",".join(f"g{i}" for i in range(1, int(arg) + 1))
        assert main(["resolve", group, "--sequence", seq, "--out", str(fan)]) == 0
    elif kind == "search":
        assert main(["resolve", group, "--search", arg, "--out", str(fan)]) == 0
    else:
        lattice = parse_group(group).lattice
        write_json(str(fan), fan_to_json(
            nonstar_order6_fan(lattice) if kind == "nonstar" else sigma_fan(lattice)))
    capsys.readouterr()
    assert main(["verify", str(fan), group, "--out", str(report)]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


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
    assert f"line 2, col 1: dimension 4000 exceeds the bound {MAX_DIM}" in capsys.readouterr().err


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("# order six\n6:(1,2,3)\n")
    assert main(["analyze", str(path), "--file"]) == 0


def _cli(command, *flags, **env):
    """``python *flags -m torcrep.cli *command`` in a child, ``env`` added to ``_cli_env()``."""
    return subprocess.run([sys.executable, *flags, "-m", "torcrep.cli", *command],
                          capture_output=True, env=_cli_env() | env, timeout=60)


def test_group_file_is_read_as_utf8_in_the_c_locale(tmp_path):
    # LC_ALL=C stops the locale coercion and PYTHONUTF8=0 the UTF-8 mode, so a
    # default open() would decode with ASCII and refuse the comment's accent
    path = tmp_path / "group.txt"
    path.write_bytes("6:(1,2,3)  # ordre r\u00e9duit\n".encode("utf-8"))
    from_file = _cli(["analyze", str(path), "--file"], LC_ALL="C", PYTHONUTF8="0")
    inline = _cli(["analyze", "6:(1,2,3)"])
    assert (from_file.returncode, from_file.stderr) == (0, b"")
    assert from_file.stdout == inline.stdout


def test_file_commands_name_their_encoding(tmp_path):
    # every file a command opens names its encoding, so no EncodingWarning is raised
    fan, report, svg = (str(tmp_path / name) for name in ("fan.json", "report.json", "z6.svg"))
    strict = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    for command in (["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4", "--out", fan],
                    ["verify", fan, "6:(1,2,3)", "--out", report],
                    ["export-graph", fan, "6:(1,2,3)", "--svg", svg]):
        done = _cli(command, *strict)
        assert (done.returncode, done.stderr) == (0, b""), command
    assert Path(svg).read_bytes().startswith(b"<?xml")


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


def test_every_svg_raise_has_a_case(z2):
    # svg.py's one raise: the junior simplex is drawn for n = 3 alone
    message, site = raised_at(svg_module, {}, lambda: junior_graph_svg(
        sigma_fan(z2.lattice), z2), InputError)
    assert message == "graph export is only defined for n = 3"
    assert_each_raise_reached(svg_module, [site])


_SVG_POINT = re.compile(r'<circle cx="([\d.]+)" cy="([\d.]+)"')
_SVG_LINE = re.compile(r'<line x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)"')


@settings(max_examples=60, deadline=None, derandomize=True)
@given(crepant3_resolutions())
def test_svg_edges_are_the_two_cones(case):
    # the SVG draws a circle per ray in fan order; read each line's ends back
    # to rays: the edges, in order, are the fan's 2-faces
    group, fan = case
    svg = junior_graph_svg(fan, group)
    ray_at = dict(zip(_SVG_POINT.findall(svg), fan.rays))
    assert len(ray_at) == len(fan.rays)
    edges = [(ray_at[(x1, y1)], ray_at[(x2, y2)]) for x1, y1, x2, y2 in _SVG_LINE.findall(svg)]
    assert edges == [c.rays for c in two_cones(fan)]


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
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
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


@st.composite
def group_texts(draw):
    """One or two generators ``r:(a1,...,an)`` in n = 2..6, orders 1 to a few dozen."""
    n = draw(st.integers(2, 6))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(1, {2: 30, 3: 12, 4: 6, 5: 4, 6: 3}[n]))
        coords = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
        gens.append(f"{m}:({','.join(map(str, [*coords, -sum(coords) % m]))})")
    return ";".join(gens)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(group_texts())
@example("1:(0,0,0)")  # the trivial group: the zero alone
@example("100003:(1,2,100000)")  # names up to g100002, past the 5-wide field
def test_element_table_matches_the_fstring_oracle(text):
    # one format template per group prints what one f-string per element did
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["analyze", text]) == 0
    table = out.getvalue().split("elements:\n", 1)[1].split("junior simplex:", 1)[0]
    group = parse_group(text)
    want = element_table_by_fstring(group, element_names_by_key(group))
    # as lists of lines, so that a failure names the first row that differs
    assert table.splitlines(keepends=True) == want.splitlines(keepends=True)


def test_stdout_closed_after_the_first_line_is_one_error_line():
    # about 1.3 MB of table, more than a pipe holds, so writes go on after the close
    argv = [sys.executable, "-m", "torcrep.cli", "analyze", "200:(1,199,0);200:(0,1,199)"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    assert proc.stdout.readline() == b"group order 40000, denominator r=200, dimension n=3\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    # no traceback, and no "Exception ignored" from the flush at exit
    assert err == b"error: cannot write to stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_device_is_one_error_line(unbuffered):
    # buffered, the output fits the buffer and fails at the flush that ends main;
    # unbuffered, it fails at the first print
    argv = [sys.executable, "-m", "torcrep.cli", "resolve", "7:(1,6,0);7:(0,1,6)",
            "--search", "juniors"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                              env=_cli_env(unbuffered), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write to stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_an_out_file_on_a_full_device_is_one_input_error(tmp_path, capsys):
    group = "11:(1,10,0);11:(0,1,10)"
    names = element_names(parse_group(group))
    seq = ",".join(names[g] for g in parse_group(group).juniors)
    fan, report = tmp_path / "fan.json", tmp_path / "report.json"
    assert main(["resolve", group, "--sequence", seq, "--out", str(fan)]) == 0
    assert main(["verify", str(fan), group, "--out", str(report)]) == 0
    # each file outgrows the write buffer, so the write fails mid-stream, not at the close
    assert min(fan.stat().st_size, report.stat().st_size) > io.DEFAULT_BUFFER_SIZE
    capsys.readouterr()
    for argv in (["resolve", group, "--sequence", seq], ["verify", str(fan), group]):
        assert main([*argv, "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == (
            f"input error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(os.name != "posix", reason="redirects fd 2 with a POSIX shell")
@pytest.mark.parametrize("stderr", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv, code", [
    (["analyze", "6:(1,2,2)"], 2),  # an input error
    (["resolve", "11:(1,2,3,5)", "--search", "hilbert"], 3),  # ends "not found"
])
def test_a_closed_stderr_keeps_the_exit_code(argv, code, stderr):
    # closed, sys.stderr is None; read-only, the print raises EBADF.  Either
    # way the message is lost, and the exit code still says how it ended
    cmd = ["sh", "-c", f'exec "$0" "$@" {stderr}', sys.executable, "-m", "torcrep.cli", *argv]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_a_path_that_cannot_be_read_or_written_is_an_input_error(tmp_path, capsys):
    fan = tmp_path / "z6.json"
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4", "--out", str(fan)]) == 0
    missing = tmp_path / "no" / "file"
    absent, folder = os.strerror(errno.ENOENT), os.strerror(errno.EISDIR)
    cases = [
        (["analyze", str(missing), "--file"], f"cannot read {missing}: {absent}"),
        (["analyze", str(tmp_path), "--file"], f"cannot read {tmp_path}: {folder}"),
        (["verify", str(missing), "6:(1,2,3)"], f"cannot read {missing}: {absent}"),
        (["resolve", "6:(1,2,3)", "--sequence", "g1", "--out", str(missing)],
         f"cannot write {missing}: {absent}"),
        (["verify", str(fan), "6:(1,2,3)", "--out", str(tmp_path)],
         f"cannot write {tmp_path}: {folder}"),
        (["export-graph", str(fan), "6:(1,2,3)", "--svg", str(missing)],
         f"cannot write {missing}: {absent}"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"input error: {message}\n"


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


_MALFORMED = "input error: malformed fan data: "
_MISMATCH = "input error: fan lattice does not match the group lattice\n"


@pytest.mark.parametrize("mutate, err", [
    (lambda f: _set_ray(f, [6, 0, 0], [6.9, 0, 0]), _MALFORMED),  # int() would read 6
    (lambda f: _set_ray(f, [6, 0, 0], [6.0, 0, 0]), _MALFORMED),
    (lambda f: _set_ray(f, [0, 6, 0], [0, 6, False]), _MALFORMED),
    (lambda f: f["lattice"].update(n=3.0), _MALFORMED),
    (lambda f: f["lattice"].update(r=True), _MALFORMED),
    (lambda f: f["lattice"]["basis"][0].__setitem__(0, 1.0), _MALFORMED),
    (lambda f: f["maximal_cones"][0].__setitem__(0, True), _MALFORMED),
    (lambda f: f["maximal_cones"][0].__setitem__(0, 0.0), _MALFORMED),
    (lambda f: f["lattice"].update(basis=[[0, 0, 0]] * 3), _MISMATCH),
    (lambda f: f["maximal_cones"].append([]), _MALFORMED),
    (lambda f: f["maximal_cones"].append({}), _MALFORMED),
    (lambda f: _set_ray(f, [6, 0, 0], [6, 0]), _MALFORMED),
    (lambda f: _set_ray(f, [6, 0, 0], [6, 0, 0, 0]), _MALFORMED),
    # the order-6 lattice again, but not in the lower-triangular Hermite form
    (lambda f: f["lattice"].update(basis=[[1, -6, 0], [2, 0, 0], [3, 0, 6]]), _MISMATCH),
    # a dense 40-by-40 basis is refused by its n before a row is read
    (lambda f: f["lattice"].update(n=40, basis=_dense_basis(40)), _MISMATCH),
], ids=["float-ray", "integral-float-ray", "bool-ray", "float-n", "bool-r",
        "float-basis", "bool-index", "float-index", "singular-basis",
        "empty-cone", "empty-object-cone", "short-ray", "long-ray",
        "non-hermite-basis", "dense-basis"])
def test_verify_rejects_malformed_fan_numbers(tmp_path, capsys, mutate, err):
    fan_path = tmp_path / "z6.json"
    assert main(["resolve", "6:(1,2,3)", "--sequence", "g1,g2,g3,g4",
                 "--out", str(fan_path)]) == 0
    data = json.loads(fan_path.read_text())
    mutate(data["fan"])
    fan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(fan_path), "6:(1,2,3)"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(err)
    assert "all certificates verified" not in captured.out


_FAN_SHAPE = ('input error: malformed fan data: expected {"lattice": {"n": int, "r": int, '
              '"basis": [[int, ...], ...]}, "rays": [[int, ...], ...], "maximal_cones": '
              '[[int, ...], ...]}\n')


@pytest.mark.parametrize("shape", [
    lambda f: [f],
    lambda f: {"fan": None},
    lambda f: {**f, "lattice": None},
    lambda f: {**f, "lattice": {**f["lattice"], "basis": 5}},
    lambda f: {**f, "lattice": {**f["lattice"], "basis": [5, *f["lattice"]["basis"][1:]]}},
    lambda f: {**f, "rays": 5},
    lambda f: {**f, "rays": [5, *f["rays"][1:]]},
    lambda f: {**f, "maximal_cones": 5},
    lambda f: {**f, "maximal_cones": [5, *f["maximal_cones"][1:]]},
    lambda f: {k: v for k, v in f.items() if k != "rays"},
], ids=["top-level-list", "null-fan", "null-lattice", "int-basis", "int-basis-row",
        "int-rays", "int-ray", "int-maximal-cones", "int-cone", "missing-rays"])
def test_verify_names_the_fan_schema_on_a_wrong_shape(tmp_path, capsys, z6_result, shape):
    # a missing key or a value of the wrong kind is named by the schema it breaks, not by
    # the interpreter's wording ("'int' object is not iterable", "'rays'", ...)
    fan_path = tmp_path / "shape.json"
    fan_path.write_text(json.dumps(shape(fan_to_json(z6_result.fan))))
    assert main(["verify", str(fan_path), "6:(1,2,3)"]) == 2
    assert capsys.readouterr().err == _FAN_SHAPE


def test_verify_rejects_a_fan_beyond_the_dimension_bound(tmp_path, capsys):
    # an identity-basis fan in n = MAX_DIM + 1 is refused by its n, before a
    # basis row or a ray is read
    n = MAX_DIM + 1
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    data = {"lattice": {"n": n, "r": 1, "basis": units},
            "rays": units, "maximal_cones": [list(range(n))]}
    fan_path = tmp_path / "big.json"
    fan_path.write_text(json.dumps(data))
    assert main(["verify", str(fan_path), "6:(1,2,3)"]) == 2
    assert capsys.readouterr().err == _MISMATCH


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
    (["analyze", "6:(1,2,2)"], 2, "input error: line 1, col 1: coordinate sum 5 is not 0 mod 6\n"),
    (["analyze", "6:1,2,3"], 2,
     "input error: line 1, col 1: expected 'r:(a1,...,an)', got '6:1,2,3'\n"),
    (["analyze", "6:(1,2,9)"], 2, "input error: line 1, col 1: coordinates must lie in [0, 6)\n"),
    (["analyze", "0:(0,0)"], 2, "input error: line 1, col 1: order must be positive\n"),
    (["analyze", "2:(1,1)\n3:(1,1,1)"], 2,
     "input error: line 2, col 1: dimension 3 differs from 2\n"),
    (["analyze", "# nothing"], 2, "input error: no generators found\n"),
    (["analyze", "1001:(1,1000,0)\n1001:(0,1,1000)"], 2,
     "input error: group of order 1002001 exceeds the closure limit of 1000000 elements\n"),
    (["analyze", f"1:({','.join(['0'] * 65)})"], 2,
     "input error: line 1, col 1: dimension 65 exceeds the bound 64\n"),
    (["resolve", "8:(2,3,3)", "--sequence", "g6"], 2,
     "input error: sequence element g6 (1/8)(4,6,6) is not primitive\n"),
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
