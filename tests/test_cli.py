import json

import pytest

from finflow import cli, families, semiflow
from finflow.errors import FinflowError, InvalidSequenceError, NegativeTimeError
from finflow.formats import write_poset_json, write_poset_text
from finflow.semiflow import BoundCheck


def run(capsys, *argv):
    code = cli.run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def ex31_file(tmp_path):
    path = tmp_path / "ex31.txt"
    path.write_text(write_poset_text(families.example_3_1()))
    return str(path)


def test_validate_ok(capsys, ex31_file):
    code, out, err = run(capsys, "validate", ex31_file)
    assert code == 0
    assert "6 elements" in out and err == ""


def test_validate_cyclic_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a < b\nb < a\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("name, text", [
    ("header.txt", "elements: a b\na < b\n"),
    ("bare.txt", "a < b\n"),
    ("space.json", '{"elements": ["a", "b"], "relations": [["a", "b"]]}'),
])
def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, name, text):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert run(capsys, "validate", str(marked)) == run(capsys, "validate", str(plain)) == \
        (0, "ok: 2 elements, 1 cover relations, height 1\n", "")
    code, out, _ = run(capsys, "analyze", str(marked))
    assert code == 0 and "\ufeff" not in out
    assert out.startswith("elements (2): a b\ncovers: a<b\n")


def test_json_nested_past_the_recursion_limit_exits_one(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"elements": ' + "[" * 5000 + "]" * 5000 + "}")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON:") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [["validate"], ["analyze"], ["verify"], ["dot"],
                                  ["semiflows", "--list"]])
def test_lone_surrogate_name_exits_one(capsys, tmp_path, argv):
    path = tmp_path / "surrogate.json"
    path.write_text('{"elements": ["a", "\\ud800"], "relations": [["a", "\\ud800"]]}')
    assert run(capsys, *argv, str(path)) == \
        (1, "", "error: element name '\\ud800' may not hold a lone surrogate\n")


@pytest.mark.parametrize("argv", [["validate"], ["analyze"], ["dot"], ["semiflows", "--list"]])
@pytest.mark.parametrize("name, data", [
    ("nul.txt", b"a\x00b < c\n"),
    ("esc.json", b'{"elements": ["\\u001b[31m"], "relations": []}'),
])
def test_control_character_name_exits_one(capsys, tmp_path, argv, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" may not hold a control character\n")


@pytest.mark.parametrize("argv", [["validate"], ["analyze"], ["dot"]])
@pytest.mark.parametrize("name, data", [
    ("rlo.txt", "a\u202eb < c\n".encode()),
    ("rlo.json", b'{"elements": ["a\\u202eb"], "relations": []}'),
])
def test_bidirectional_control_name_exits_one(capsys, tmp_path, argv, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("element name 'a\\u202eb' may not hold a bidirectional control character\n")


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.txt")
    assert code == 1 and err


@pytest.mark.parametrize("exc", [InvalidSequenceError("bad sequence"),
                                 NegativeTimeError("bad time"), FinflowError("bad input")])
def test_library_errors_exit_one(capsys, monkeypatch, ex31_file, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_validate", fail)
    code, out, err = run(capsys, "validate", ex31_file)
    assert (code, out, err) == (1, "", f"error: {exc}\n")


def test_semiflows_count_output(capsys, ex31_file):
    code, out, _ = run(capsys, "semiflows", ex31_file, "--count")
    assert code == 0
    assert out == "7 (6 non-trivial)\n"


def test_semiflows_list_and_oracle(capsys, ex31_file):
    code, out, _ = run(capsys, "semiflows", ex31_file, "--list", "--oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0: id"
    assert len(lines) == 7
    assert any("A->D" in line for line in lines)


def test_semiflows_oracle_disagreement_exits_two(capsys, monkeypatch, ex31_file):
    real = semiflow.brute_force_oracle
    monkeypatch.setattr(semiflow, "brute_force_oracle", lambda p, max_n=None: real(p)[1:])
    assert run(capsys, "semiflows", ex31_file, "--oracle") == \
        (2, "", "error: enumerator and brute-force oracle disagree\n")


def test_semiflows_json_input(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(write_poset_json(families.realization_family(2)))
    code, out, _ = run(capsys, "semiflows", str(path))
    assert code == 0
    assert out == "4 (3 non-trivial)\n"


def test_verify_exit_zero(capsys, ex31_file):
    code, out, _ = run(capsys, "verify", ex31_file)
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_reports_failures(capsys, ex31_file, monkeypatch):
    def fake(p, max_n=None):
        return [BoundCheck("made_up", False, "broken on purpose")]
    monkeypatch.setattr(semiflow, "full_verification", fake)
    code, out, _ = run(capsys, "verify", ex31_file)
    assert code == 2
    assert "FAIL made_up" in out


def test_gen_and_analyze_round_trip(capsys, tmp_path):
    target = tmp_path / "xn.txt"
    code, _, _ = run(capsys, "gen", "x_n", "--n", "2", "-o", str(target))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(target))
    assert code == 0
    assert "semiflows: 4 (3 non-trivial)" in out
    assert "down beat points: x0" in out


def test_analyze_json_output(capsys, tmp_path, ex31_file):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", ex31_file, "--json", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["s_f"] == 7 and data["schema"] == 1


def test_analyze_unwritable_json_prints_nothing(capsys, tmp_path, ex31_file):
    bad = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "analyze", ex31_file, "--json", str(bad))
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_gen_defaults_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "pseudo_circle")
    assert code == 0
    assert "elements: a b c d" in out


def test_gen_bad_spec(capsys):
    code, _, err = run(capsys, "gen", "chain")
    assert code == 1 and "n >= 0" in err


def test_dot_with_semiflow_overlay(capsys, ex31_file):
    code, out, _ = run(capsys, "dot", ex31_file, "--semiflow", "6")
    assert code == 0
    assert out.count("dashed") == 3  # the A,B,C -> D map is canonical index 6

    code, _, err = run(capsys, "dot", ex31_file, "--semiflow", "99")
    assert code == 1 and "out of range" in err


def test_size_limit_exit_code(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text(write_poset_text(families.chain(16)))
    code, _, err = run(capsys, "semiflows", str(big))
    assert code == 3 and "limited" in err
    # the override flag lifts the guard and warns; a 16-chain has one
    # semiflow per fixed-point set containing the bottom: 2^15
    code, out, err = run(capsys, "semiflows", str(big), "--limit", "16")
    assert code == 0 and "warning" in err
    assert out == "32768 (32767 non-trivial)\n"


def test_semiflow_count_on_large_antichain(capsys, tmp_path):
    # 1100 elements assigned one after another: deeper than Python's
    # recursion limit, so the enumerator must not recurse per element
    code, text, _ = run(capsys, "gen", "antichain", "--n", "1100")
    assert code == 0
    wide = tmp_path / "wide.txt"
    wide.write_text(text)
    code, out, err = run(capsys, "semiflows", str(wide), "--count", "--limit", "1100")
    assert code == 0 and "warning" in err
    assert out == "1 (0 non-trivial)\n"


def test_random_suite(capsys, monkeypatch):
    code, out, _ = run(capsys, "random-suite", "--count", "12", "--max-n", "7", "--seed", "3")
    assert code == 0
    assert "12/12 posets verified" in out
    # each failed check of each poset is one line on stderr
    monkeypatch.setattr(semiflow, "full_verification",
                        lambda p, max_n=None: [BoundCheck("made_up", False, "broken")])
    code, out, err = run(capsys, "random-suite", "--count", "2", "--max-n", "3")
    assert (code, out) == (2, "0/2 posets verified\n")
    lines = err.splitlines()
    assert len(lines) == 2 and all(line.startswith("FAIL poset ") for line in lines)
    assert lines[0].startswith("FAIL poset 0 (") and lines[0].endswith(" made_up: broken")


def test_random_suite_warns_once_about_the_limit(capsys):
    code, out, err = run(capsys, "random-suite", "--count", "4", "--max-n", "5", "--limit", "9")
    assert code == 0 and out == "4/4 posets verified\n"
    assert err == ("warning: size guards set to 9; "
                   "expect exponential cost on large inputs\n")
    # the same wording when the limit lowers the guards below the input
    code, out, err = run(capsys, "random-suite", "--count", "1", "--max-n", "3", "--limit", "0")
    assert code == 3 and out == ""
    assert err == ("warning: size guards set to 0; "
                   "expect exponential cost on large inputs\n"
                   "error: semiflow enumeration limited to 0 elements (got 3)\n")


@pytest.mark.parametrize("argv, n", [(("semiflows", "c3.txt", "--count"), 3),
                                     (("random-suite", "--count", "1"), 8)])
def test_negative_limit_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, n):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c3.txt").write_text(write_poset_text(families.chain(3)))
    code, out, err = run(capsys, *argv, "--limit", "-1")
    assert code == 1 and out == ""
    assert err == "error: argument --limit: invalid non-negative int value: '-1'\n"
    # 0 is a valid limit, which refuses any non-empty input
    code, out, err = run(capsys, *argv, "--limit", "0")
    assert code == 3 and out == "" and err.endswith(f"limited to 0 elements (got {n})\n")


def test_random_suite_refuses_max_n_above_the_guard_first(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("corpus built before the size guard")

    monkeypatch.setattr(families, "random_corpus", build)
    code, out, err = run(capsys, "random-suite", "--count", "1", "--max-n", "100000")
    assert code == 3 and out == ""
    assert err == "error: semiflow enumeration limited to 14 elements (got 100000)\n"


@pytest.mark.parametrize("argv", [("--max-n", "0"), ("--max-n", "-3"), ("--count", "-2")])
def test_random_suite_rejects_bad_sizes(capsys, argv):
    code, out, err = run(capsys, "random-suite", *argv)
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and err
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: finflow ") and err == ""
