#!/usr/bin/env python3
"""finflow benchmark: end-to-end and per-layer timings of three workloads.

Run from the repository root:

    python3 perfbench/run.py                          # all workloads, untraced
    python3 perfbench/run.py --workload guard14 --seed 3
    python3 perfbench/run.py --workload core_large --trace 1
    python3 perfbench/run.py --smoke                  # tiny sizes, a few seconds
    python3 perfbench/run.py --out new.json ...       # also write a result file
    python3 perfbench/run.py --compare base.json new.json

Each run measures for ``--seconds``, by default BENCHMARK.json's
``run_seconds``; ``--smoke`` measures for SMOKE_SECONDS instead.

finflow is imported from ``src/`` next to this directory and run as a
subprocess the way the ``finflow`` console script runs it.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the BENCHMARK.json end-to-end metrics untraced, its
per-layer metrics traced).  Exit codes: 0 all outputs correct, 1 some
output failed its reference check, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import measure
from measure import BenchError, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

IMPORT_ONLY = "import finflow.cli"
CLI_MAIN = "import sys; from finflow.cli import main; sys.exit(main())"
SMOKE_SECONDS = 0.2
CALLS_PER_SETUP_SPAWN = 6
MIN_PASSES = 2
P90_MIN_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s", "lib_pass_s": "s", "cli_pass_s": "s", "cli_call_p50_s": "s",
    "cli_call_p90_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction",
}


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "seed": seed,
        "FINFLOW_THREADS": os.environ.get("FINFLOW_THREADS"),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs one workload and gathers its samples, tally and spans."""

    def __init__(self, workload, work_dir):
        self.wl = workload
        self.work_dir = work_dir
        self.env = child_env()
        self.calls = workload.cli_calls()
        self.tally = Tally()

    def spawn(self, argv):
        return measure.run_child([sys.executable, *argv], self.env, str(ROOT), self.work_dir)

    def import_spawn(self):
        """Wall time of a fresh interpreter that imports finflow.cli and exits."""
        child = self.spawn(["-c", IMPORT_ONLY])
        if child.exit_code != 0:
            raise BenchError(f"importing finflow.cli failed:\n{child.stderr}")
        return child.wall_s

    def lib_pass(self, tracer):
        gc.collect()
        tracer.new_request()
        start = time.perf_counter()
        with tracer.span("bench.lib_pass"):
            outputs = self.wl.lib_pass(tracer)
        wall = time.perf_counter() - start
        self.wl.check_pass(outputs, self.tally)
        return wall

    def cli_call(self, call):
        child = self.spawn(["-c", CLI_MAIN, *call.args])
        self.tally.check(child.exit_code == call.expected_exit
                         and "Traceback" not in child.stderr
                         and call.check(child.stdout, child.stderr),
                         f"finflow {' '.join(call.args)}: exit {child.exit_code}")
        return call, child

    def cli_pass(self):
        gc.collect()
        return [self.cli_call(call) for call in self.calls]

    def measure(self, seconds):
        """Untraced library and CLI passes for ``seconds``, taken one step
        at a time: a step is one input of a library pass or one CLI call, and
        the next step is of whichever kind has used less time so far.  Both
        kinds are thus sampled across the whole window, and the window
        overruns by at most one step.  A pass's time is the sum of its steps.
        The window ends once ``seconds`` have passed and each kind has
        completed MIN_PASSES passes; a pass left unfinished then is dropped.
        One setup_s spawn follows every CALLS_PER_SETUP_SPAWN CLI calls."""
        null = measure.NullTracer()
        self.import_spawn()  # fills the bytecode cache, not counted
        self.lib_pass(null)  # warm-up, not timed
        setup, lib, cli_passes = [], [], []
        lib_steps, cli_steps = [], []  # the unfinished pass of each kind
        lib_time = cli_time = 0.0
        calls_made = 0
        deadline = time.perf_counter() + seconds
        while not (time.perf_counter() >= deadline
                   and len(lib) >= MIN_PASSES and len(cli_passes) >= MIN_PASSES):
            if lib_time <= cli_time:
                case = self.wl.cases[len(lib_steps)]
                gc.collect()
                start = time.perf_counter()
                output = self.wl.lib_case(case, null)
                wall = time.perf_counter() - start
                lib_steps.append((wall, output))
                lib_time += wall
                if len(lib_steps) == len(self.wl.cases):
                    self.wl.check_pass([out for _, out in lib_steps], self.tally)
                    lib.append(sum(w for w, _ in lib_steps))
                    lib_steps = []
            else:
                call, child = self.cli_call(self.calls[len(cli_steps)])
                cli_steps.append((call, child))
                cli_time += child.wall_s
                calls_made += 1
                if calls_made % CALLS_PER_SETUP_SPAWN == 0:
                    setup.append(self.import_spawn())
                if len(cli_steps) == len(self.calls):
                    cli_passes.append(cli_steps)
                    cli_steps = []
        self.wl.final_checks(self.tally)
        return e2e_metrics(setup, lib, cli_passes, self.tally)

    def measure_traced(self, seconds):
        """Pairs of untraced and traced library passes for half of
        ``seconds`` (no pair starts that would end after it, but one always
        runs); then one sweep of the lower-level functions and one CLI pass
        replayed in-process."""
        null, tracer, sweep = measure.NullTracer(), measure.Tracer(), measure.Tracer()
        self.lib_pass(null)  # warm-up, not timed
        plain, traced = [], []
        deadline = time.perf_counter() + seconds / 2
        while not plain or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
            plain.append(self.lib_pass(null))
            traced.append(self.lib_pass(tracer))
        self.wl.sweep(sweep, self.tally)
        self.wl.cli_overhead(sweep, self.cli_pass(), self.tally)
        self.wl.final_checks(self.tally)
        overhead = statistics.median(traced) / statistics.median(plain)
        return layer_metrics(sweep, overhead), tracer


def e2e_metrics(setup, lib, cli_passes, tally):
    """name -> {value, unit, samples, n}; samples are per pass (per spawn
    for setup_s) and feed the spread in compare mode."""
    calls = [c.wall_s for results in cli_passes for _, c in results]
    per_pass = [[c.wall_s for _, c in results] for results in cli_passes]
    rss = [max(c.max_rss_kb for _, c in results) / 1024 for results in cli_passes]
    out = {
        "setup_s": (statistics.median(setup), setup, len(setup)),
        "lib_pass_s": (statistics.median(lib), lib, len(lib)),
        "cli_pass_s": (statistics.median([sum(p) for p in per_pass]),
                       [sum(p) for p in per_pass], len(per_pass)),
        "cli_call_p50_s": (statistics.median(calls),
                           [statistics.median(p) for p in per_pass], len(calls)),
        "peak_rss_mb": (max(rss), rss, len(calls)),
        "error_rate": (tally.failed / tally.attempted, [], tally.attempted),
    }
    if measure.beyond(len(calls), 90) >= P90_MIN_BEYOND:
        out["cli_call_p90_s"] = (measure.percentile(calls, 90), [], len(calls))
    return {name: {"value": v, "unit": E2E_UNITS[name], "samples": s, "n": n}
            for name, (v, s, n) in out.items()}


def layer_metrics(tr, trace_overhead):
    """Per-layer metrics from the sweep's spans."""
    build = tr.fastest_per_request("poset.from_relations")
    core = tr.total("reduction.core")
    removed = tr.count("reduction.core", "removed")
    enum = tr.total("semiflow.enumerate_semiflows")
    flows = tr.count("semiflow.enumerate_semiflows", "flows")
    candidates = tr.count("semiflow.brute_force_oracle", "candidates")
    overheads = [s.counts["subprocess_s"] - s.duration for s in tr.spans
                 if s.name == "cli.run_cli"]
    values = {
        "formats.parse_s": (tr.fastest_per_request("formats.parse_poset_text") - build, "s"),
        "poset.build_s": (build, "s"),
        "reduction.beats_s": (tr.total("reduction.beats"), "s"),
        "reduction.core_s": (core, "s"),
        "reduction.core_removed": (removed, "count"),
        "reduction.core_s_per_removal": (core / max(removed, 1), "s"),
        "reduction.potential_s": (tr.total("reduction.potential_down_beat_points"), "s"),
        "reduction.potential_points": (
            tr.count("reduction.potential_down_beat_points", "points"), "count"),
        "reduction.witness_s": (tr.total("reduction.removal_sequence_for"), "s"),
        "semiflow.enumerate_s": (enum, "s"),
        "semiflow.flows": (flows, "count"),
        "semiflow.enumerate_us_per_flow": (enum * 1e6 / max(flows, 1), "us"),
        "semiflow.counting_s": (tr.total("semiflow.verify_counting_results"), "s"),
        "semiflow.verification_s": (tr.total("semiflow.full_verification"), "s"),
        "semiflow.oracle_s": (tr.total("semiflow.brute_force_oracle"), "s"),
        "semiflow.oracle_candidates": (candidates, "count"),
        "semiflow.oracle_yield": (
            tr.count("semiflow.brute_force_oracle", "maps") / candidates if candidates else 0.0,
            "ratio"),
        "report.analyze_s": (tr.total("report.analyze"), "s"),
        "report.json_roundtrip_s": (tr.total("report.json_roundtrip"), "s"),
        "cli.overhead_s": (statistics.median(overheads), "s"),
        "bench.trace_overhead": (trace_overhead, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_e2e(name, metrics, tally):
    print(f"== {name}: end-to-end (tracing off)")
    for metric in E2E_UNITS:
        if metric in metrics:
            m = metrics[metric]
            extra = f"  {tally.failed}/{tally.attempted} operations failed" \
                if metric == "error_rate" else ""
            print(f"  {metric:<16} {fmt(m['value']):>12} {m['unit']:<8} n={m['n']}{extra}")
        else:
            print(f"  {metric:<16} {'-':>12}          (needs {P90_MIN_BEYOND} calls beyond p90)")


def print_layers(name, metrics, tracer):
    print(f"== {name}: per layer (sweep, tracing on)")
    for metric, m in metrics.items():
        print(f"  {metric:<34} {fmt(m['value']):>12} {m['unit']}")
    print(f"== {name}: self time per span over the traced library passes")
    for span, secs in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {span:<34} {secs:>12.6f} s")


def run_one(cls, args, seconds, contract, work_root):
    work_dir = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=work_root)
    wl = cls(args.seed, args.smoke, work_dir)
    runner = Runner(wl, work_dir)
    if args.trace:
        metrics, tracer = runner.measure_traced(seconds)
        print_layers(cls.name, metrics, tracer)
        wanted = [m["name"] for m in contract["per_layer"]]
    else:
        metrics = runner.measure(seconds)
        print_e2e(cls.name, metrics, runner.tally)
        wanted = [m["name"] for m in contract["end_to_end"]]
    for failure in runner.tally.failures[:20]:
        print(f"  FAILED {failure}")
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise BenchError(f"{cls.name}: metrics not measured: {', '.join(missing)}")
    return {
        "why": next((w["why"] for w in contract["workloads"] if w["name"] == cls.name), None),
        "inputs": wl.inputs_record(),
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "failures": runner.tally.failures,
        "metrics": metrics,
        "reported": {m: {"value": metrics[m]["value"], "unit": metrics[m]["unit"]}
                     for m in wanted},
    }


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*names, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring window per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness tests")
    ap.add_argument("--out", metavar="FILE", help="also write the full result here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two result files and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.smoke and args.seconds is not None:
        ap.error("--smoke measures for a fixed window; drop --seconds")
    return args


def main(argv=None):
    names = ("guard14", "core_large", "corpus_small")
    args = parse_args(argv, names)
    try:
        contract = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {BENCHMARK.name}: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        import compare
        return compare.main(contract, *args.compare)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds or contract["run_seconds"]
    if not (SRC / "finflow" / "__init__.py").is_file():
        print(f"error: no finflow sources under {SRC}", file=sys.stderr)
        return 2
    threads = os.environ.get("FINFLOW_THREADS")
    if threads not in (None, "1"):
        print(f"error: FINFLOW_THREADS must be unset or 1, not {threads!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import finflow
    if Path(finflow.__file__).resolve().parent != SRC / "finflow":
        print(f"error: imported finflow from {finflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    chosen = names if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    work_root = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        results = {name: run_one(WORKLOADS[name], args, seconds, contract, work_root)
                   for name in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "trace": args.trace,
                       "workloads": results}, fh, indent=1)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        reported = next(iter(results.values()))["reported"]
    else:
        reported = {f"{w}.{m}": v for w, r in results.items() for m, v in r["reported"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
