"""The three workloads: inputs, library pass, CLI pass, per-layer sweep.

Every workload builds its inputs from the run seed alone, writes them as
text files, and computes reference answers with ``reference`` before any
timing starts.  finflow sees only those files and the posets built from
the same labels and relations.  Outputs are collected during a timed pass
and checked against the references after it.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cached_property

import inputs
import reference
from measure import BenchError
from finflow import cli, families, formats, reduction, report, semiflow
from finflow.errors import SizeLimitError
from finflow.poset import Poset

# Structures of the fixed-shape random posets.  The run seed permutes their
# element and relation order instead of redrawing them, because their work
# varies two- to threefold between draws and would swamp the bounds.
STRUCTURE_SEED = 2025

# finflow's documented size guards: removal search at 16 elements, semiflow
# enumeration at 14, the brute-force oracle at 10.  A call must be refused
# exactly when its input is larger.
SEARCH_GUARD = 16
ENUMERATION_GUARD = 14
ORACLE_GUARD = 10

PARSE_REPEATS = 3


@dataclass
class Case:
    """One input with its file, poset and reference answers."""

    space: inputs.Space
    path: str
    text: str
    order: reference.Order
    covers: int
    height: int
    core: int
    down_beats: set
    up_beats: set
    semiflows: int | None
    movable: set | None

    @cached_property
    def poset(self):
        """Built on first use, which is the untimed warm-up pass."""
        return Poset.from_relations(self.space.labels, self.space.pairs)

    @property
    def name(self):
        return self.space.name

    @property
    def n(self):
        return self.space.n


@dataclass
class Call:
    """One CLI invocation with its expected exit code and output test."""

    args: tuple
    expected_exit: int
    check: object  # (stdout, stderr) -> bool


def make_case(space, work_dir):
    order = reference.Order(space)
    semiflows = movable = None
    # The reference count takes exponential time in general, so it runs where
    # finflow enumerates, plus on minimal spaces, where it is linear.
    if space.n <= ENUMERATION_GUARD or order.is_minimal(order.full):
        semiflows, movable_mask = order.fixed_point_sets()
        movable = order.labels_of(movable_mask)
        if space.closed_form is not None and semiflows != space.closed_form:
            raise BenchError(f"{space.name}: reference counter gives {semiflows}, "
                             f"closed form {space.closed_form}")
    text = inputs.to_text(space)
    path = os.path.join(work_dir, f"{space.name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Case(space, path, text, order, order.cover_count(), order.height(),
                order.core_size(), order.labels_of(order.down_beats(order.full)),
                order.labels_of(order.up_beats(order.full)), semiflows, movable)


# -- output checks ------------------------------------------------------------


def guarded(tally, case, limit, what, call):
    """``call()``, or None when its size guard refuses the input; either
    way the guard must have acted exactly when the input exceeds ``limit``."""
    try:
        result = call()
    except SizeLimitError:
        tally.check(case.n > limit, f"{case.name}: {what} refused at {case.n} elements")
        return None
    tally.check(case.n <= limit, f"{case.name}: {what} ran above its guard")
    return result


def core_ok(case, core_labels):
    """Same size as the reference core and free of beat points."""
    order = case.order
    return len(core_labels) == case.core and order.is_minimal(order.mask_of(core_labels))


def report_ok(case, rep):
    return (rep.s_f == case.semiflows
            and {w["point"] for w in rep.potential_points} == case.movable
            and core_ok(case, rep.core_labels)
            and all(c["satisfied"] for c in rep.bounds_checked))


def checks_ok(checks):
    return bool(checks) and all(c.satisfied for c in checks)


def count_line(count):
    return f"{count} ({count - 1} non-trivial)\n"


def refused(out, err):
    """A rejected input: nothing on stdout, one error message on stderr."""
    return out == "" and err.startswith("error:")


def verify_output_ok(out, _err):
    lines = out.splitlines()
    k = len(lines) - 1
    return k >= 1 and lines[-1] == f"{k}/{k} checks passed" and all(
        line.startswith("PASS ") for line in lines[:-1])


def validate_output(case):
    want = f"ok: {case.n} elements, {case.covers} cover relations, height {case.height}\n"
    return lambda out, _err: out == want


def dot_output(case):
    def ok(out, _err):
        lines = out.splitlines()
        nodes = sum(1 for ln in lines if ln.startswith('  "') and " -> " not in ln)
        edges = sum(1 for ln in lines if " -> " in ln)
        return lines[:2] == ["digraph poset {", "  rankdir=BT;"] and (nodes, edges) == (
            case.n, case.covers)
    return ok


def analyze_output(case):
    def ok(out, _err):
        lines = out.splitlines()
        checks = [ln.split()[1].split("/") for ln in lines if ln.startswith("checks: ")]
        return (f"semiflows: {count_line(case.semiflows).strip()}" in lines
                and any(ln.startswith(f"core: {case.core} element(s)") for ln in lines)
                and len(checks) == 1 and checks[0][0] == checks[0][1])
    return ok


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed, smoke, work_dir):
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.cases = [make_case(s, work_dir) for s in self.spaces()]
        self.probes = self._write_probes()

    def spaces(self):
        raise NotImplementedError

    def _write_probes(self):
        """A cyclic file (exit 1) and a 15-point chain, one element past the
        enumeration guard that ``semiflows`` and ``analyze`` apply (exit 3)."""
        cyclic = os.path.join(self.work_dir, "probe_cyclic.txt")
        with open(cyclic, "w", encoding="utf-8") as fh:
            fh.write(inputs.cyclic_text())
        big = os.path.join(self.work_dir, "probe_15.txt")
        with open(big, "w", encoding="utf-8") as fh:
            fh.write(inputs.to_text(inputs.chain(15)))
        return [
            Call(("validate", cyclic), 1, refused),
            Call(("semiflows", big, "--count"), 3, refused),
            Call(("analyze", big), 3, refused),
        ]

    def inputs_record(self):
        return [{"name": c.name, "n": c.n, "covers": c.covers, "semiflows": c.semiflows,
                 "core": c.core} for c in self.cases]

    # Library pass: one lib_case per input; check_pass compares the outputs
    # of a whole pass afterwards.
    def lib_pass(self, tr):
        return [self.lib_case(case, tr) for case in self.cases]

    def lib_case(self, case, tr):
        raise NotImplementedError

    def check_pass(self, outputs, tally):
        raise NotImplementedError

    def cli_calls(self):
        raise NotImplementedError

    def final_checks(self, tally):
        """Reference checks run once per run, outside every timed region."""

    # Per-layer sweep: each lower-level public function on every input, one
    # span each.  A function whose size guard refuses the input is timed
    # refusing it, which is what the CLI does on that input too.
    def sweep(self, tr, tally):
        for case in self.cases:
            tr.new_request()
            self._sweep_case(case, tr, tally)

    def _sweep_case(self, case, tr, tally):
        # On large inputs the text layer is about 1 % of parse_poset_text, so
        # parse and build alternate PARSE_REPEATS times and the fastest of
        # each is used; formats.parse_s is their difference.
        for _ in range(PARSE_REPEATS):
            with tr.span("formats.parse_poset_text"):
                p = formats.parse_poset_text(case.text)
            with tr.span("poset.from_relations"):
                Poset.from_relations(case.space.labels, case.space.pairs)
        with tr.span("reduction.beats"):
            down = reduction.down_beat_points(p)
            up = reduction.up_beat_points(p)
        tally.check(set(p.labels_of(down)) == case.down_beats
                    and set(p.labels_of(up)) == case.up_beats, f"{case.name}: beat points")
        with tr.span("reduction.core") as c:
            core, trace = reduction.core(p)
            c["removed"] = len(trace)
        tally.check(core_ok(case, core.labels), f"{case.name}: core")

        with tr.span("reduction.potential_down_beat_points") as c:
            pot = guarded(tally, case, SEARCH_GUARD, "potential search",
                          lambda: reduction.potential_down_beat_points(p))
            c["points"] = pot.bit_count() if pot is not None else 0
        points = [x for x in range(p.n) if pot is not None and (pot >> x) & 1]
        with tr.span("reduction.removal_sequence_for"):
            seqs = [reduction.removal_sequence_for(p, x) for x in points]
        if pot is not None:
            tally.check(set(p.labels_of(pot)) == case.movable
                        and all(s is not None and s.points[-1] == x
                                for s, x in zip(seqs, points)),
                        f"{case.name}: potential points and witnesses")

        with tr.span("semiflow.enumerate_semiflows") as c:
            flows = guarded(tally, case, ENUMERATION_GUARD, "enumeration",
                            lambda: semiflow.enumerate_semiflows(p))
            c["flows"] = len(flows) if flows is not None else 0
        if flows is not None:
            tally.check(len(flows) == case.semiflows, f"{case.name}: enumeration")
        with tr.span("semiflow.verify_counting_results"):
            counting = guarded(tally, case, ENUMERATION_GUARD, "counting",
                               lambda: semiflow.verify_counting_results(p, flows=flows))
        with tr.span("semiflow.full_verification"):
            verification = guarded(tally, case, ENUMERATION_GUARD, "verification",
                                   lambda: semiflow.full_verification(p))
        if flows is not None:
            tally.check(checks_ok(counting) and checks_ok(verification),
                        f"{case.name}: counting results and verification")
        with tr.span("semiflow.brute_force_oracle") as c:
            maps = guarded(tally, case, ORACLE_GUARD, "oracle",
                           lambda: semiflow.brute_force_oracle(p))
            if maps is not None:
                c["candidates"] = reference.oracle_candidates(case.order)
                c["maps"] = len(maps)
        if maps is not None:
            tally.check(len(maps) == case.semiflows, f"{case.name}: oracle")

        with tr.span("report.analyze"):
            rep = guarded(tally, case, ENUMERATION_GUARD, "analyze", lambda: report.analyze(p))
        with tr.span("report.json_roundtrip"):
            back = report.AnalysisReport.from_json(rep.to_json()) if rep is not None else None
        if rep is not None:
            tally.check(report_ok(case, rep) and back == rep, f"{case.name}: report round trip")

    def cli_overhead(self, tr, results, tally):
        """In-process ``run_cli`` on the argv of each subprocess in ``results``."""
        for call, child in results:
            with tr.span("cli.run_cli") as c:
                with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                    code = cli.run_cli(list(call.args))
                c["subprocess_s"] = child.wall_s
            tally.check(code == call.expected_exit
                        and call.check(out.getvalue(), err.getvalue()),
                        f"in-process {' '.join(call.args)}")


class Guard14(Workload):
    name = "guard14"

    def spaces(self):
        if self.smoke:
            plain = [inputs.chain(6), inputs.x_family(1),
                     inputs.disjoint_union("chains2x3", [inputs.chain(2)] * 3)]
            shapes = [(6, 0.3, 0)]
        else:
            # chain(8) and x_2 are within the oracle guard, so full_verification
            # and ``verify`` run the product oracle on them (8! and 1200
            # candidates) and the sweep times it.
            plain = [inputs.chain(14), inputs.x_family(4),
                     inputs.disjoint_union("chains2x7", [inputs.chain(2)] * 7),
                     inputs.disjoint_union("ex31_cone_chain3", [
                         inputs.example_3_1(), inputs.cone_over_pseudo_circle(),
                         inputs.chain(3)]),
                     inputs.chain(8), inputs.x_family(2)]
            shapes = [(14, p, k) for p in (0.15, 0.3, 0.5) for k in range(3)]
        shape_rng = inputs.rng_for(STRUCTURE_SEED, self.name)
        randoms = [inputs.random_dag(f"random{n}_p{p}_{k}", n, p, shape_rng)
                   for n, p, k in shapes]
        order_rng = inputs.rng_for(self.seed, self.name)
        return [inputs.shuffled(s, order_rng) for s in plain + randoms]

    def lib_case(self, case, tr):
        with tr.span("report.analyze"):
            rep = report.analyze(case.poset)
        with tr.span("semiflow.full_verification"):
            checks = semiflow.full_verification(case.poset)
        return case, rep, checks

    def check_pass(self, outputs, tally):
        for case, rep, checks in outputs:
            tally.check(report_ok(case, rep), f"{case.name}: analyze")
            tally.check(checks_ok(checks), f"{case.name}: full_verification")

    def cli_calls(self):
        calls = []
        for case in self.cases:
            calls.append(Call(("verify", case.path), 0, verify_output_ok))
            want = count_line(case.semiflows)
            calls.append(Call(("semiflows", case.path, "--count"), 0,
                              lambda out, _err, want=want: out == want))
        return calls + self.probes


class CoreLarge(Workload):
    name = "core_large"

    def spaces(self):
        if self.smoke:
            plain = [inputs.chain(20), inputs.sphere_model(10), inputs.sphere_model(7)]
            shapes = [(30, 0.1), (40, 0.05)]
        else:
            plain = [inputs.chain(100), inputs.sphere_model(200), inputs.sphere_model(7)]
            shapes = [(300, 0.02), (600, 0.005)]
        shape_rng = inputs.rng_for(STRUCTURE_SEED, self.name)
        randoms = [inputs.random_dag(f"random{n}_p{p}", n, p, shape_rng) for n, p in shapes]
        order_rng = inputs.rng_for(self.seed, self.name)
        return [inputs.shuffled(s, order_rng) for s in plain + randoms]

    def lib_case(self, case, tr):
        with tr.span("formats.parse_poset_text"):
            p = formats.parse_poset_text(case.text)
        with tr.span("reduction.down_beat_points"):
            down = reduction.down_beat_points(p)
        with tr.span("reduction.up_beat_points"):
            up = reduction.up_beat_points(p)
        with tr.span("reduction.core"):
            core, trace = reduction.core(p)
        return case, p, down, up, core, trace

    def check_pass(self, outputs, tally):
        for case, p, down, up, core, trace in outputs:
            tally.check((p.n, len(p.covers), p.height) == (case.n, case.covers, case.height),
                        f"{case.name}: parse")
            tally.check(set(p.labels_of(down)) == case.down_beats, f"{case.name}: down beats")
            tally.check(set(p.labels_of(up)) == case.up_beats, f"{case.name}: up beats")
            tally.check(core_ok(case, core.labels) and len(trace) == case.n - case.core,
                        f"{case.name}: core")

    def cli_calls(self):
        calls = []
        for case in self.cases:
            calls.append(Call(("validate", case.path), 0, validate_output(case)))
            calls.append(Call(("dot", case.path), 0, dot_output(case)))
            if case.n > ENUMERATION_GUARD:
                calls.append(Call(("analyze", case.path), 3, refused))
            else:
                calls.append(Call(("analyze", case.path), 0, analyze_output(case)))
        return calls + self.probes


class CorpusSmall(Workload):
    name = "corpus_small"

    # Posets are drawn (1..9 elements, uniform edge probability) until their
    # estimated cost reaches WORK: one unit per poset plus one per thousand
    # oracle candidates.  Posets above CANDIDATE_CAP are skipped, so no single
    # draw dominates and the pass costs about the same for every seed.
    MAX_N = 9
    CANDIDATE_CAP = 20_000
    WORK = 700
    CLI_FILES = 20
    SUITE_COUNT = 20
    SUITE_BAND = (40_000, 80_000)

    def spaces(self):
        work_goal = 12 if self.smoke else self.WORK
        rng = inputs.rng_for(self.seed, self.name)
        out, work = [], 0.0
        while work < work_goal:
            n = 1 + rng.randrange(self.MAX_N)
            space = inputs.random_dag(f"corpus{len(out)}", n, rng.random(), rng)
            candidates = reference.oracle_candidates(reference.Order(space))
            if candidates > self.CANDIDATE_CAP:
                continue
            out.append(space)
            work += 1 + candidates / 1000
        return out

    def suite_seed(self):
        """First ``random-suite`` seed after seed*1000 whose corpus has an
        oracle search space inside SUITE_BAND (its cost is heavy-tailed)."""
        count = 3 if self.smoke else self.SUITE_COUNT
        lo, hi = (0, math.inf) if self.smoke else self.SUITE_BAND
        for s in range(self.seed * 1000, self.seed * 1000 + 1000):
            total = sum(reference.oracle_candidates(reference.Order(inputs.Space(
                "suite", p.labels, tuple((p.labels[a], p.labels[b]) for a, b in p.covers))))
                for p in families.random_corpus(count, self.MAX_N, s))
            if lo <= total <= hi:
                return count, s
        raise BenchError("no random-suite seed inside the oracle band")

    def lib_case(self, case, tr):
        with tr.span("semiflow.full_verification"):
            return case, semiflow.full_verification(case.poset)

    def check_pass(self, outputs, tally):
        for case, checks in outputs:
            tally.check(checks_ok(checks), f"{case.name}: full_verification")

    def final_checks(self, tally):
        for case in self.cases:
            tally.check(len(semiflow.enumerate_semiflows(case.poset)) == case.semiflows,
                        f"{case.name}: semiflow count")

    def cli_calls(self):
        count, suite_seed = self.suite_seed()
        calls = [Call(("random-suite", "--count", str(count), "--max-n", str(self.MAX_N),
                       "--seed", str(suite_seed)), 0,
                      lambda out, _err: out == f"{count}/{count} posets verified\n")]
        for case in self.cases[:4 if self.smoke else self.CLI_FILES]:
            calls.append(Call(("validate", case.path), 0, validate_output(case)))
            want = count_line(case.semiflows)
            calls.append(Call(("semiflows", case.path, "--count", "--oracle"), 0,
                              lambda out, _err, want=want: out == want))
        return calls + self.probes


WORKLOADS = {w.name: w for w in (Guard14, CoreLarge, CorpusSmall)}
