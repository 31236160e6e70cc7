"""Command-line front end.

Exit codes: 0 success, 1 parse/validation problems, 2 verification
failure, 3 size guard exceeded.  Diagnostics go to stderr; results to
stdout are deterministic for fixed inputs.

Each command imports only the modules it runs: ``formats`` is loaded with
this module, ``families`` when the parser is built (for the generator
kinds), and ``semiflow`` and ``report`` inside the commands that use them,
so ``validate``, ``gen`` and a plain ``dot`` never load the reduction and
semiflow layers.
"""

import argparse
import sys

from . import formats
from .errors import FinflowError, SizeLimitError, check_size

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_SIZE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return formats.parse_poset_json(text)
    return formats.parse_poset_text(text)


def _non_negative_int(text):
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return int(text)


def _limit(args):
    if args.limit is not None:
        print(f"warning: size guards set to {args.limit}; "
              "expect exponential cost on large inputs", file=sys.stderr)
    return args.limit


def _format_moves(moves):
    """Moved points in the table's order, written ``a->b``; ``id`` when none moves."""
    return ", ".join(f"{a}->{b}" for a, b in moves.items()) or "id"


def _cmd_validate(args):
    p = _load(args.file)
    print(f"ok: {p.n} elements, {len(p.covers)} cover relations, height {p.height}")
    return EXIT_OK


def _cmd_analyze(args):
    from . import report

    p = _load(args.file)
    rep = report.analyze(p, max_n=_limit(args))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())
    print(f"elements ({len(rep.labels)}): " + " ".join(rep.labels))
    print("covers: " + " ".join(f"{a}<{b}" for a, b in rep.covers))
    print("heights: " + " ".join(f"{lab}={h}" for lab, h in zip(rep.labels, rep.heights)))
    print("down beat points: " + (" ".join(rep.down_beat_points) or "-"))
    print("up beat points: " + (" ".join(rep.up_beat_points) or "-"))
    print(f"minimal space: {'yes' if rep.is_minimal else 'no'}")
    print(f"core: {len(rep.core_labels)} element(s) ({' '.join(rep.core_labels) or '-'})"
          f"; removed {' '.join(rep.core_trace) or 'nothing'}")
    print("potential down beat points: "
          + (" ".join(w["point"] for w in rep.potential_points) or "-"))
    for w in rep.potential_points:
        print(f"  {w['point']}: via " + ", ".join(w["witness"]))
    print(f"semiflows: {rep.s_f} ({rep.s_f - 1} non-trivial)")
    for i, moves in enumerate(rep.nontrivial_semiflows, start=1):
        print(f"  {i}: {_format_moves(moves)}")
    good = sum(1 for c in rep.bounds_checked if c["satisfied"])
    print(f"checks: {good}/{len(rep.bounds_checked)} passed")
    return EXIT_OK


def _cmd_semiflows(args):
    from . import semiflow

    p = _load(args.file)
    flows = semiflow.enumerate_semiflows(p, max_n=_limit(args))
    if args.oracle:
        oracle = semiflow.brute_force_oracle(p, max_n=args.limit)
        if flows != oracle:
            print("error: enumerator and brute-force oracle disagree", file=sys.stderr)
            return EXIT_VERIFY
    if args.list:
        for i, sf in enumerate(flows):
            print(f"{i}: {_format_moves(sf.moves())}")
    else:
        print(f"{len(flows)} ({len(flows) - 1} non-trivial)")
    return EXIT_OK


def _cmd_verify(args):
    from . import semiflow

    p = _load(args.file)
    checks = semiflow.full_verification(p, max_n=_limit(args))
    failed = sum(1 for c in checks if not c.satisfied)
    for c in checks:
        print(f"{'PASS' if c.satisfied else 'FAIL'} {c.name}: {c.detail}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _cmd_gen(args):
    from . import families

    text = formats.write_poset_text(families.make(args.kind, args.n, args.seed, args.p))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_dot(args):
    p = _load(args.file)
    annotate = None
    if args.semiflow is not None:
        from . import semiflow

        flows = semiflow.enumerate_semiflows(p, max_n=_limit(args))
        if not 0 <= args.semiflow < len(flows):
            print(f"error: semiflow index out of range (0..{len(flows) - 1})", file=sys.stderr)
            return EXIT_INPUT
        annotate = flows[args.semiflow]
    sys.stdout.write(formats.to_dot(p, annotate))
    return EXIT_OK


def _cmd_random_suite(args):
    from . import families, semiflow

    limit = _limit(args)
    check_size("semiflow enumeration", args.max_n, semiflow.ENUMERATION_LIMIT, limit)
    corpus = families.random_corpus(args.count, args.max_n, args.seed)
    failures = 0
    for i, p in enumerate(corpus):
        bad = [c for c in semiflow.full_verification(p, max_n=limit) if not c.satisfied]
        if bad:
            failures += 1
            for c in bad:
                print(f"FAIL poset {i} ({p.n} elements) {c.name}: {c.detail}",
                      file=sys.stderr)
    print(f"{args.count - failures}/{args.count} posets verified")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _build_parser():
    from .families import KINDS

    parser = _Parser(
        prog="finflow",
        description="Analyze finite T0 spaces: beat points, cores, and semiflows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_limit=True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        if with_limit:
            cmd.add_argument("--limit", type=_non_negative_int, default=None, metavar="N",
                             help="set the size guards to N (prints a warning)")
        return cmd

    cmd = add("validate", _cmd_validate, "parse a poset file and report its shape",
              with_limit=False)
    cmd.add_argument("file")

    cmd = add("analyze", _cmd_analyze, "full report: beats, core, potential points, semiflows")
    cmd.add_argument("file")
    cmd.add_argument("--json", metavar="OUT", help="also write the report as JSON")

    cmd = add("semiflows", _cmd_semiflows, "count or list every semiflow")
    cmd.add_argument("file")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true", help="list the canonical maps")
    group.add_argument("--count", action="store_true", help="print the census (default)")
    cmd.add_argument("--oracle", action="store_true",
                     help="cross-check against the brute-force oracle")

    cmd = add("verify", _cmd_verify, "run the counting results and invariant suite")
    cmd.add_argument("file")

    cmd = add("gen", _cmd_gen, "generate a named space", with_limit=False)
    cmd.add_argument("kind", choices=KINDS)
    cmd.add_argument("--n", type=int, default=None)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--p", type=float, default=0.5, help="edge probability (random kind)")
    cmd.add_argument("-o", "--output", metavar="FILE")

    cmd = add("dot", _cmd_dot, "emit the Hasse diagram as DOT")
    cmd.add_argument("file")
    cmd.add_argument("--semiflow", type=int, default=None, metavar="INDEX",
                     help="overlay the semiflow with this canonical index")

    cmd = add("random-suite", _cmd_random_suite, "verify a corpus of random posets")
    cmd.add_argument("--count", type=int, default=50)
    cmd.add_argument("--max-n", type=int, default=8)
    cmd.add_argument("--seed", type=int, default=0)

    return parser


def run_cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # --help
        return exc.code or EXIT_OK
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (FinflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
