import json

import pytest

from finflow import families
from finflow.errors import CycleError, ParseError, SchemaError
from finflow.formats import (parse_poset_json, parse_poset_text, to_dot,
                             write_poset_json, write_poset_text)
from finflow.poset import Poset
from finflow.reduction import removal_sequence_for, retraction_from_sequence
from finflow.report import AnalysisReport, analyze
from finflow.semiflow import Semiflow

from helpers import is_isomorphic

EX31_TEXT = """\
E < D
F < D
D < B
D < C
B < A
C < A
"""


def test_parse_text_example():
    p = parse_poset_text(EX31_TEXT)
    # auto-registration order: first appearance
    assert p.labels == ("E", "D", "F", "B", "C", "A")
    covers = {(p.labels[a], p.labels[b]) for a, b in p.covers}
    assert covers == {("E", "D"), ("F", "D"), ("D", "B"), ("D", "C"),
                      ("B", "A"), ("C", "A")}
    q = families.example_3_1()
    assert is_isomorphic(p, q)
    assert p.leq(p.index_of("E"), p.index_of("A"))


def test_parse_text_with_declarations_and_comments():
    text = """
# a three-element chain
elements: lo mid hi
lo < mid
mid < hi  # top step
"""
    p = parse_poset_text(text)
    assert p.labels == ("lo", "mid", "hi")
    assert p.height == 2


def test_a_name_is_declared_once_before_or_after_its_first_use():
    p = parse_poset_text("a < b\nelements: a b c\n")
    assert p.labels == ("a", "b", "c") and len(p.covers) == 1
    for text, lineno in [("elements: a a\n", 1), ("elements: a\nelements: b a\n", 2),
                         ("a < b\nelements: a\nelements: a\n", 3)]:
        with pytest.raises(ParseError) as info:
            parse_poset_text(text)
        assert str(info.value) == f"line {lineno}: element 'a' declared twice"


def test_parse_text_empty_and_errors():
    assert parse_poset_text("").n == 0
    with pytest.raises(CycleError):
        parse_poset_text("a < a")
    with pytest.raises(CycleError):
        parse_poset_text("a < b\nb < a")
    with pytest.raises(ParseError) as err:
        parse_poset_text("a < b\nb <\n")
    assert err.value.lineno == 2
    with pytest.raises(ParseError):
        parse_poset_text("a < b < c")
    with pytest.raises(ParseError):
        parse_poset_text("elements: a a")
    with pytest.raises(ParseError):
        parse_poset_text("a b < c")


def test_text_round_trip():
    for p in (families.example_3_1(), families.antichain(3), families.chain(1),
              families.realization_family(2)):
        assert parse_poset_text(write_poset_text(p)) == p
    assert write_poset_text(families.antichain(0)) == ""


def test_json_round_trip_exact():
    p = families.example_3_1()
    text = write_poset_json(p)
    assert parse_poset_json(text) == p
    again = write_poset_json(parse_poset_json(text))
    assert again == text  # byte-stable

    singleton = parse_poset_json('{"elements": ["x"], "relations": []}')
    assert singleton.n == 1


def test_text_json_text_preserves_order():
    p = parse_poset_text(EX31_TEXT)
    q = parse_poset_json(write_poset_json(p))
    assert q == p
    assert parse_poset_text(write_poset_text(q)) == p


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        parse_poset_json("not json at all {")
    with pytest.raises(SchemaError):
        parse_poset_json('["a"]')
    with pytest.raises(SchemaError):
        parse_poset_json('{"elements": "abc", "relations": []}')
    with pytest.raises(SchemaError):
        parse_poset_json('{"elements": ["a"], "relations": [["a", "b"]]}')
    with pytest.raises(SchemaError):
        parse_poset_json('{"elements": ["a"], "relations": ["a<b"]}')
    with pytest.raises(SchemaError, match="^'relations' must be a list of "):
        parse_poset_json('{"elements": ["a"], "relations": {}}')
    with pytest.raises(CycleError):
        parse_poset_json('{"elements": ["a", "b"], "relations": [["a","b"],["b","a"]]}')


@pytest.mark.parametrize("label", ["", "a b", "x<y", "p#q", "elements:x"])
def test_labels_the_text_format_cannot_write_are_rejected(label):
    # each label as the lesser end of a relation: the text written for it
    # would read back as a different poset or fail to parse
    data = json.dumps({"elements": [label, "z"], "relations": [[label, "z"]]})
    with pytest.raises(SchemaError, match="element name"):
        parse_poset_json(data)
    with pytest.raises(ValueError, match="element name"):
        write_poset_text(Poset.from_relations([label, "z"], [(label, "z")]))


def test_names_with_a_lone_surrogate_are_rejected():
    # a JSON escape can name half of a surrogate pair, which no UTF-8 file
    # can hold; the complaint escapes it, so it can be printed
    data = '{"elements": ["a", "\\ud800"], "relations": [["a", "\\ud800"]]}'
    with pytest.raises(SchemaError) as info:
        parse_poset_json(data)
    assert str(info.value) == "element name '\\ud800' may not hold a lone surrogate"
    with pytest.raises(ValueError, match="lone surrogate"):
        write_poset_text(Poset.from_relations(["a", "\ud800"], [("a", "\ud800")]))
    # a whole pair is one character, and other non-ASCII names pass too
    p = parse_poset_json('{"elements": ["\\ud835\\udd3d", "\u00e9"], "relations": []}')
    assert p.labels == ("\U0001d53d", "\u00e9")
    assert parse_poset_text(write_poset_text(p)) == p


@pytest.mark.parametrize("name", ["a\x00b", "\x1b[31mred", "del\x7f", "c1\x9b", "\x80"])
def test_names_with_a_control_character_are_rejected(name):
    # a C0 or C1 control character would reach a terminal or a DOT file raw
    message = f"element name {name!r} may not hold a control character"
    with pytest.raises(ParseError) as info:
        parse_poset_text(f"{name} < c\n")
    assert str(info.value) == f"line 1: {message}"
    with pytest.raises(SchemaError) as info:
        parse_poset_json(json.dumps({"elements": [name, "c"], "relations": []}))
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        write_poset_text(Poset.from_relations([name, "c"], [(name, "c")]))
    assert str(info.value) == message


def test_names_with_a_bidirectional_control_are_rejected():
    # each of Unicode's twelve Bidi_Control characters reorders the rest of
    # a terminal line
    for c in "\u061c\u200e\u200f\u202a\u202b\u202c\u202d\u202e\u2066\u2067\u2068\u2069":
        name = f"a{c}b"
        message = f"element name {name!r} may not hold a bidirectional control character"
        assert c not in message
        with pytest.raises(ParseError) as info:
            parse_poset_text(f"{name} < c\n")
        assert str(info.value) == f"line 1: {message}"
        with pytest.raises(SchemaError) as info:
            parse_poset_json(json.dumps({"elements": [name, "c"], "relations": []}))
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            write_poset_text(Poset.from_relations([name, "c"], [(name, "c")]))
        assert str(info.value) == message


def test_whitespace_controls_keep_the_whitespace_complaint():
    for name in ["a\tb", "a\x1cb", "a\x1fb", "a\x85b", "\x0b"]:
        with pytest.raises(SchemaError, match="may not be empty, hold a space"):
            parse_poset_json(json.dumps({"elements": [name], "relations": []}))
    # unprintable names that hold no control character still pass
    p = parse_poset_json('{"elements": ["a\u200bb", "\u00ad"], "relations": []}')
    assert parse_poset_text(write_poset_text(p)) == p


def test_json_nested_past_the_recursion_limit_is_a_schema_error():
    # 5000 levels pass the default recursion limit at any stack depth
    with pytest.raises(SchemaError, match="^invalid JSON: maximum recursion depth"):
        parse_poset_json('{"elements": ' + "[" * 5000 + "]" * 5000 + "}")
    with pytest.raises(SchemaError, match="^invalid JSON: maximum recursion depth"):
        AnalysisReport.from_json("[" * 5000 + "]" * 5000)


def test_json_integer_past_the_digit_limit_is_a_schema_error():
    with pytest.raises(SchemaError, match="^invalid JSON: .*4300 digits"):
        parse_poset_json('{"elements": [' + "1" * 5000 + "]}")
    with pytest.raises(SchemaError, match="^invalid JSON: .*4300 digits"):
        AnalysisReport.from_json("1" * 5000)


def test_text_reader_applies_the_label_rule():
    with pytest.raises(ParseError, match="may not contain '<'"):
        parse_poset_text("elements: a b<c\n")
    with pytest.raises(ParseError, match="line 2: element name 'elements:x'"):
        parse_poset_text("a < b\ny < elements:x\n")


def test_to_dot_shapes():
    two = to_dot(families.chain(2))
    assert two.count("->") == 1 and '"c0" -> "c1"' in two
    theta = to_dot(families.antichain(3))
    assert "->" not in theta
    assert "rank=same" in theta


def test_to_dot_semiflow_annotation():
    p = families.example_3_1()
    sf = Semiflow.from_moves(p, {"A": "D", "B": "D", "C": "D"})
    out = to_dot(p, annotate=sf)
    for src in "ABC":
        assert f'"{src}" -> "D" [style=dashed, constraint=false];' in out
    assert out.count("dashed") == 3



def test_to_dot_draws_any_map():
    p = families.example_3_1()
    r = retraction_from_sequence(p, removal_sequence_for(p, p.index_of("A")))
    assert not isinstance(r, Semiflow) and r.moved_points()
    dashed = [line for line in to_dot(p, r).splitlines() if "dashed" in line]
    assert len(dashed) == len(r.as_moves()) > 0
    assert to_dot(p, Semiflow(p, r.values)) == to_dot(p, r)


def test_report_round_trip():
    rep = analyze(families.example_3_1())
    clone = AnalysisReport.from_json(rep.to_json())
    assert clone == rep
    data = rep.to_dict()
    assert data["schema"] == 1
    assert data["s_f"] == 7
    assert len(data["nontrivial_semiflows"]) == 6
    assert data["down_beat_points"] == ["B", "C"]
    assert all(c["satisfied"] for c in data["bounds_checked"])


def test_report_schema_guard():
    rep = analyze(families.chain(2))
    data = rep.to_dict()
    data["schema"] = 99
    with pytest.raises(SchemaError):
        AnalysisReport.from_dict(data)
    with pytest.raises(SchemaError):
        AnalysisReport.from_json("{}")
    with pytest.raises(SchemaError, match="^report must be an object$"):
        AnalysisReport.from_dict([])
    with pytest.raises(SchemaError, match="^report is missing fields: "):
        AnalysisReport.from_dict({"schema": 1})


def test_report_witnesses_are_valid():
    p = families.example_3_1()
    rep = analyze(p)
    points = {w["point"] for w in rep.potential_points}
    assert points == {"A", "B", "C"}
    for w in rep.potential_points:
        assert w["witness"][-1] == w["point"]
