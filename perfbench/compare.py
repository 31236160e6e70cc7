"""Compare two result files (written with ``--out``) workload by workload.

Each end-to-end metric of BENCHMARK.json is judged against its bound:

* unresolved: the run's spread (interquartile distance over the median of
  its per-pass samples) on either side is wider than the bound, and not
  every new sample beats every base sample;
* worse: the new value is worse than the base value by more than the
  bound;
* improved: the new value is better by more than the base's own spread;
* unchanged: otherwise.

The values are the reported metric values, so the verdict and the printed
ratio come from the same quantity; the per-pass samples only give the
spreads.
"""

from __future__ import annotations

import json

from measure import spread


def judge(b, n, base, new, better, bound):
    """Verdict on values ``b`` -> ``n`` with per-pass samples ``base``, ``new``."""
    worse_by = (n - b) / b if better == "lower" else (b - n) / b
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    noise = max(spread(base), spread(new))
    if noise > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base) or (all_better and noise > bound):
        return "improved"
    return "unchanged"


def compare(benchmark, base, new):
    """Lines of the comparison report; the last one counts the verdicts."""
    lines = []
    verdicts = {}
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        lines.append(f"== {workload}")
        b_metrics = base["workloads"][workload]["metrics"]
        n_metrics = new["workloads"][workload]["metrics"]
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            if name not in b_metrics or name not in n_metrics:
                continue
            b, n = b_metrics[name], n_metrics[name]
            verdict = judge(b["value"], n["value"], b["samples"], n["samples"],
                            spec["better"], spec["bound"])
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            lines.append(
                f"  {name:<16} {verdict:<10} new {n['value']:.6g} {n['unit']} = "
                f"{n['value'] / b['value']:.3f} x base {b['value']:.6g} {b['unit']} "
                f"(bound {spec['bound']:.0%}, spread base {spread(b['samples']):.1%} "
                f"new {spread(n['samples']):.1%}, {len(b['samples'])}/{len(n['samples'])} samples)")
    lines.append("verdicts: " + (", ".join(f"{k} {v}" for k, v in sorted(verdicts.items()))
                                 or "no common workload"))
    return lines, verdicts


def main(benchmark, base_path, new_path):
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    lines, verdicts = compare(benchmark, base, new)
    print("\n".join(lines))
    return 1 if verdicts.get("worse") else 0
