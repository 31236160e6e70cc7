"""Aggregated analysis results with lossless JSON round-tripping."""

from collections import namedtuple

from . import formats, reduction, semiflow
from .errors import SchemaError
from .poset import elements_of

SCHEMA_VERSION = 1


_Fields = namedtuple(
    "AnalysisReport",
    "labels covers heights down_beat_points up_beat_points is_minimal core_labels"
    " core_trace potential_points s_f nontrivial_semiflows bounds_checked schema",
    defaults=(SCHEMA_VERSION,))


class AnalysisReport:
    """Everything the analyzer knows about one space, in JSON-able form.

    Fields are named once, in ``_Fields``, set by keyword or position, may
    be reassigned, and are compared one by one.  Semiflow maps are listed in
    canonical (lexicographic value table) order with identity entries omitted.
    """

    __slots__ = _Fields._fields

    def __init__(self, *args, **kwargs):
        for name, value in zip(self.__slots__, _Fields(*args, **kwargs)):
            setattr(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, AnalysisReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return f"AnalysisReport({', '.join(f'{k}={v!r}' for k, v in self.to_dict().items())})"

    def to_dict(self):
        """The fields by name; nested lists are shared, not copied."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SchemaError("report must be an object")
        if data.get("schema") != SCHEMA_VERSION:
            raise SchemaError(f"unsupported report schema: {data.get('schema')!r}")
        missing = set(cls.__slots__) - data.keys()
        if missing:
            raise SchemaError(f"report is missing fields: {sorted(missing)}")
        return cls(**{k: v for k, v in data.items() if k in cls.__slots__})

    def to_json(self):
        return formats._encode_json(self.to_dict())

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(formats._decode_json(text))


def analyze(p, max_n=None):
    """Full report: beat structure, core, potential points, semiflow census."""
    flows, down, pot, checks = semiflow._census(p, max_n)
    up = reduction.up_beat_points(p)
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
             "witness": [p.labels[i] for i in reduction._witness(p, pot, x)]}
            for x in elements_of(pot)],
        s_f=len(flows),
        nontrivial_semiflows=[m for m in (sf.moves() for sf in flows) if m],
        bounds_checked=[c._asdict() for c in checks],
    )
