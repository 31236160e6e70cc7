"""A seeded contract fuzzer for the command line, run in process.

Each case writes a named space of at most 8 points as text or JSON,
mutates the bytes and runs every reading command on the file through
``run_cli``.  The contract: each call returns 0, 1 or 3 and raises
nothing; a clean exit writes nothing to stderr and an error exactly one
``error:`` line; a file that ``validate`` accepts is accepted by the other
commands too, up to the enumeration guard; a clean exit prints no control
character but the newline and no bidirectional control; and a case run
again prints the same bytes.
Output goes to strict UTF-8 streams, as on a terminal, so a name that
cannot be written fails here as it would there.

A second run mutates the command line instead, on unmutated files: an
option group dropped, repeated or swapped with another, an option's name
or value dropped alone, the file argument missing, an unknown subcommand,
or a ``--limit`` at or below the guards.  The same contract holds, less
the one warning line that ``--limit`` prints once the options parse.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from finflow import families
from finflow.cli import run_cli
from finflow.formats import write_poset_json, write_poset_text
from finflow.prng import Xorshift64Star
from finflow.semiflow import ENUMERATION_LIMIT, ORACLE_LIMIT

SEED = 2026
CASES = 60
ORACLE_NAMES = 6  # --oracle runs on files of at most this many names
# Unicode's Bidi_Control set, which reorders the rest of a terminal line
BIDI_CONTROLS = "\u061c\u200e\u200f\u202a\u202b\u202c\u202d\u202e\u2066\u2067\u2068\u2069"

SPACES = [families.chain(0), families.chain(1), families.chain(4), families.chain(6),
          families.antichain(3), families.pseudo_circle(), families.example_2_5(),
          families.cone(families.pseudo_circle()), families.example_3_1(),
          families.realization_family(1), families.realization_family(2)]


def _insert(piece):
    def mutate(rng, data, tokens):
        i = rng.next_int(len(data) + 1)
        return data[:i] + piece + data[i:]
    return mutate


def _truncate(rng, data, tokens):
    return data[:rng.next_int(len(data) + 1)]


def _flip(rng, data, tokens):
    if not data:
        return data
    i = rng.next_int(len(data))
    return data[:i] + bytes([data[i] ^ (1 + rng.next_int(255))]) + data[i + 1:]


def _duplicate_line(rng, data, tokens):
    lines = data.split(b"\n")
    i = rng.next_int(len(lines))
    return b"\n".join(lines[:i + 1] + lines[i:])


def _reorder_lines(rng, data, tokens):
    lines = data.split(b"\n")
    i, j = rng.next_int(len(lines)), rng.next_int(len(lines))
    lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _nest(rng, data, tokens):
    return b"[" * 5000 + data + b"]" * 5000


def _replace_name(piece):
    """Every occurrence of one name's token becomes ``piece``."""
    def mutate(rng, data, tokens):
        return data.replace(tokens[rng.next_int(len(tokens))], piece) if tokens else data
    return mutate


MUTATIONS = [_truncate, _flip, _duplicate_line, _reorder_lines, _nest,
             _replace_name(b'"\\ud800"'), _insert(b"\xff"), _insert(b"\xc3("),
             _insert(b"\xef\xbb\xbf"), _insert(b"\x00"), _replace_name(b"1" * 5000),
             _insert("\u202e".encode())]


def _case(rng):
    """``(file name, bytes)`` of one mutated space.

    A name's token is the name itself in text and the quoted name in JSON.
    """
    p = SPACES[rng.next_int(len(SPACES))]
    json_file = rng.next_int(2)
    data = (write_poset_json(p) if json_file else write_poset_text(p)).encode()
    tokens = [(f'"{name}"' if json_file else name).encode() for name in p.labels]
    if rng.next_int(4) == 0:
        data = b"\xef\xbb\xbf" + data
    for _ in range(1 + (rng.next_int(4) == 0)):  # a second mutation in one case of four
        data = MUTATIONS[rng.next_int(len(MUTATIONS))](rng, data, tokens)
    return ("case.json" if json_file else "case.txt"), data


def _strict_stream():
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)


def _call(argv):
    """``(exit code, stdout bytes, stderr bytes)`` of one in-process run."""
    out, err = _strict_stream(), _strict_stream()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
    except Exception as exc:  # the contract allows none
        code = f"raised {exc!r}"
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def _commands(path, rng):
    return [["validate", path], ["analyze", path], ["verify", path], ["semiflows", path],
            ["semiflows", "--list", path], ["dot", path],
            ["dot", path, "--semiflow", str(rng.next_int(5) - 1)]]


def _contract_breaches(argv, result, accepted):
    code, out, err = result
    breaches = []
    if code not in (0, 1, 3):
        breaches.append(f"exit {code}")
    elif code == 0 and err:
        breaches.append(f"exit 0 with stderr {err!r}")
    elif code and not (err.startswith(b"error:") and err.count(b"\n") == 1
                       and err.endswith(b"\n")):
        breaches.append(f"exit {code} with stderr {err!r}")
    controls = [c for c in out.decode() if c <= "\x1f" and c != "\n" or "\x7f" <= c <= "\x9f"
                or c in BIDI_CONTROLS]
    if code == 0 and controls:
        breaches.append(f"exit 0 with a control character in stdout {out!r}")
    # ``accepted`` is the point count when ``validate`` accepts the file
    if accepted is not None and "--semiflow" not in argv and not (
            code == 0 or code == 3 and argv[0] != "dot" and accepted > ENUMERATION_LIMIT):
        breaches.append(f"validate accepts {accepted} points, but exit {code}: {err!r}")
    return breaches


def test_cli_contract_on_mutated_files(tmp_path):
    rng = Xorshift64Star(SEED)
    failures = []
    for i in range(CASES):
        name, data = _case(rng)
        path = tmp_path / f"{i}-{name}"
        path.write_bytes(data)
        commands = _commands(str(path), rng)
        results = [_call(argv) for argv in commands]
        code, out, _ = results[0]
        accepted = int(out.split()[1]) if code == 0 else None
        if accepted is not None and accepted <= ORACLE_NAMES:
            commands.append(["semiflows", "--oracle", str(path)])
            results.append(_call(commands[-1]))
        for argv, result in zip(commands, results):
            breaches = _contract_breaches(argv, result, accepted)
            if _call(argv) != result:
                breaches.append("a second run printed other bytes")
            shown = " ".join(name if a == str(path) else a for a in argv)
            failures += [f"case {i} ({data[:40]!r}) {shown}: {b}" for b in breaches]
    assert not failures, "\n".join(failures)


ARGV_CASES = 100
LIMIT_WARNING = b"warning: size guards set to "
UNKNOWN_COMMANDS = ["verfy", "Analyze", "semiflow", "reduce", "", "-", "--list"]


def _argv_groups(path, out, rng):
    """One reading command on ``path`` with each option it takes, as groups of tokens."""
    return [
        [["validate"], [path]],
        [["analyze"], [path], ["--json", out]],
        [["verify"], [path]],
        [["semiflows"], [path], ["--list"], ["--oracle"]],
        [["semiflows"], [path], ["--count"]],
        [["dot"], [path], ["--semiflow", str(rng.next_int(5) - 1)]],
    ][rng.next_int(6)]


def _drop_group(rng, groups, path):
    if len(groups) > 1:
        del groups[1 + rng.next_int(len(groups) - 1)]


def _repeat_group(rng, groups, path):
    i = rng.next_int(len(groups))
    groups.insert(i, list(groups[i]))


def _swap_groups(rng, groups, path):
    i, j = rng.next_int(len(groups)), rng.next_int(len(groups))
    groups[i], groups[j] = groups[j], groups[i]


def _drop_token(rng, groups, path):
    """An option's name or its value alone."""
    pairs = [g for g in groups if len(g) == 2]
    if pairs:
        del pairs[rng.next_int(len(pairs))][rng.next_int(2)]


def _missing_file(rng, groups, path):
    groups[:] = [g for g in groups if g != [path]]


def _unknown_command(rng, groups, path):
    groups[0] = [UNKNOWN_COMMANDS[rng.next_int(len(UNKNOWN_COMMANDS))]]


def _limit(rng, groups, path):
    groups.insert(1 + rng.next_int(len(groups)), ["--limit", str(rng.next_int(ORACLE_LIMIT + 1))])


ARGV_MUTATIONS = [_drop_group, _repeat_group, _swap_groups, _drop_token, _missing_file,
                  _unknown_command, _limit]


def test_cli_contract_on_mutated_argv(tmp_path):
    rng = Xorshift64Star(SEED)
    failures = []
    for i in range(ARGV_CASES):
        p = SPACES[rng.next_int(len(SPACES))]
        json_file = rng.next_int(2)
        data = (write_poset_json(p) if json_file else write_poset_text(p)).encode()
        path = tmp_path / ("case.json" if json_file else "case.txt")
        out = tmp_path / "report.json"
        groups = _argv_groups(str(path), str(out), rng)
        for _ in range(1 + (rng.next_int(4) == 0)):  # a second mutation in one case of four
            ARGV_MUTATIONS[rng.next_int(len(ARGV_MUTATIONS))](rng, groups, str(path))
        argv = [token for group in groups for token in group]
        results = []
        for _ in range(2):  # each run starts from the same files, as a call may write over one
            path.write_bytes(data)
            out.unlink(missing_ok=True)
            results.append(_call(argv))
        code, stdout, err = results[0]
        if "--limit" in argv and err.startswith(LIMIT_WARNING):
            err = err.partition(b"\n")[2]
        breaches = _contract_breaches(argv, (code, stdout, err), None)
        if results[1] != results[0]:
            breaches.append("a second run printed other bytes")
        shown = " ".join(path.name if a == str(path) else a for a in argv)
        failures += [f"case {i} ({p.n} points) {shown!r}: {b}" for b in breaches]
    assert not failures, "\n".join(failures)
