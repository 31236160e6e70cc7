"""Aggregated analysis results with lossless JSON round-tripping."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from . import reduction, semiflow
from .errors import SchemaError
from .poset import elements_of

SCHEMA_VERSION = 1


@dataclass
class AnalysisReport:
    """Everything the analyzer knows about one space, in JSON-able form.

    Semiflow maps are listed in canonical (lexicographic value table)
    order with identity entries omitted.
    """

    labels: list
    covers: list
    heights: list
    down_beat_points: list
    up_beat_points: list
    is_minimal: bool
    core_labels: list
    core_trace: list
    potential_points: list
    s_f: int
    nontrivial_semiflows: list
    bounds_checked: list
    schema: int = SCHEMA_VERSION

    def to_dict(self):
        """The fields by name; nested lists are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SchemaError("report must be an object")
        if data.get("schema") != SCHEMA_VERSION:
            raise SchemaError(f"unsupported report schema: {data.get('schema')!r}")
        names = {f.name for f in fields(cls)}
        missing = names - data.keys()
        if missing:
            raise SchemaError(f"report is missing fields: {sorted(missing)}")
        return cls(**{k: v for k, v in data.items() if k in names})

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None


def analyze(p, max_n=None):
    """Full report: beat structure, core, potential points, semiflow census."""
    flows = semiflow.enumerate_semiflows(p, max_n=max_n)
    down = reduction.down_beat_points(p)
    up = reduction.up_beat_points(p)
    pot = reduction.potential_down_beat_points(p, max_n=max_n)
    checks = semiflow._counting_checks(p, flows, down, pot)
    core_poset, trace = reduction.core(p)
    return AnalysisReport(
        labels=list(p.labels),
        covers=[[p.labels[a], p.labels[b]] for a, b in p.covers],
        heights=list(p.heights),
        down_beat_points=p.labels_of(down),
        up_beat_points=p.labels_of(up),
        is_minimal=(down | up) == 0,
        core_labels=list(core_poset.labels),
        core_trace=[p.labels[x] for x in trace],
        potential_points=[
            {"point": p.labels[x],
             "witness": [p.labels[i] for i in reduction._witness(p, pot, x).points]}
            for x in elements_of(pot)],
        s_f=len(flows),
        nontrivial_semiflows=[m for m in (sf.moves() for sf in flows) if m],
        bounds_checked=[{"name": c.name, "satisfied": c.satisfied, "detail": c.detail}
                        for c in checks],
    )
