"""Poset text/JSON formats and DOT export."""

from .errors import ParseError, SchemaError, UnknownLabelError
from .poset import Poset

# Unicode's Bidi_Control set: each one reorders the rest of a terminal line
_BIDI_CONTROLS = frozenset("\u061c\u200e\u200f\u202a\u202b\u202c\u202d\u202e"
                           "\u2066\u2067\u2068\u2069")


def _label_error(names):
    """The complaint about the first name the text format cannot write back or print, or None."""
    for name in names:
        if name.split() != [name] or "<" in name or "#" in name or name.startswith("elements:"):
            why = ("contain '<'" if "<" in name
                   else "be empty, hold a space or '#', or start 'elements:'")
            return f"element name {name!r} may not {why}"
        if not name.isprintable():
            if any(c <= "\x1f" or "\x7f" <= c <= "\x9f" for c in name):
                return f"element name {name!r} may not hold a control character"
            if name != name.encode(errors="replace").decode():
                return f"element name {name!r} may not hold a lone surrogate"
            if not _BIDI_CONTROLS.isdisjoint(name):
                return f"element name {name!r} may not hold a bidirectional control character"


def _decode_json(text):
    """The value of JSON ``text``; every failure to decode it is a SchemaError."""
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"invalid JSON: {exc}") from None


def _encode_json(data):
    """JSON text of ``data``: two-space indent and one final newline."""
    import json

    return json.dumps(data, indent=2) + "\n"


def parse_poset_text(text):
    """Parse the line-oriented poset format.

    Grammar: optional ``elements: a b c`` declaration lines, one strict
    relation ``a < b`` per line, ``#`` starts a comment, blank lines are
    ignored.  Undeclared names are auto-registered in order of first
    appearance; a name may be declared once, before or after its first use.
    CycleError propagates from closure.
    """
    labels = {}  # each name, in order of first appearance: whether a line declared it
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        declaring = line.startswith("elements:")
        if declaring:
            names = line[len("elements:"):].split()
        else:
            parts = line.split("<")
            if len(parts) != 2:
                raise ParseError(lineno, "expected exactly one '<' per relation line")
            names = parts[0].strip(), parts[1].strip()
            pairs.append(names)
        for name in names:
            if name not in labels:
                if msg := _label_error((name,)):
                    raise ParseError(lineno, msg)
                labels[name] = declaring
            elif declaring:
                if labels[name]:
                    raise ParseError(lineno, f"element {name!r} declared twice")
                labels[name] = True
    return Poset.from_relations(labels, pairs)


def write_poset_text(p):
    """Text form: an elements line plus one cover relation per line."""
    if msg := _label_error(p.labels):
        raise ValueError(msg)
    lines = []
    if p.n:
        lines.append("elements: " + " ".join(p.labels))
    for a, b in p.covers:
        lines.append(f"{p.labels[a]} < {p.labels[b]}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_poset_json(text):
    """Parse ``{"elements": [...], "relations": [[lesser, greater], ...]}``."""
    data = _decode_json(text)
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    elements = data.get("elements")
    relations = data.get("relations")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SchemaError("'elements' must be a list of names")
    if msg := _label_error(elements):
        raise SchemaError(msg)
    if not isinstance(relations, list):
        raise SchemaError("'relations' must be a list of [lesser, greater] pairs")
    pairs = []
    for item in relations:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(s, str) for s in item)):
            raise SchemaError(f"bad relation entry: {item!r}")
        pairs.append((item[0], item[1]))
    try:
        return Poset.from_relations(elements, pairs)
    except (UnknownLabelError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def write_poset_json(p):
    return _encode_json({
        "elements": list(p.labels),
        "relations": [[p.labels[a], p.labels[b]] for a, b in p.covers],
    })


def _q(label):
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(p, annotate=None):
    """Hasse diagram in DOT: cover edges oriented bottom-to-top, ranks by height.

    With ``annotate`` set to a map on ``p`` (a semiflow, or any
    ``MonotoneMap``), every moved point gets a dashed arrow to its image.
    """
    lines = ["digraph poset {", "  rankdir=BT;"]
    for x in range(p.n):
        lines.append(f"  {_q(p.labels[x])};")
    by_height = {}
    for x in range(p.n):
        by_height.setdefault(p.heights[x], []).append(x)
    for h in sorted(by_height):
        if len(by_height[h]) > 1:
            row = " ".join(f"{_q(p.labels[x])};" for x in by_height[h])
            lines.append(f"  {{ rank=same; {row} }}")
    for a, b in p.covers:
        lines.append(f"  {_q(p.labels[a])} -> {_q(p.labels[b])};")
    if annotate is not None:
        for a, b in annotate.as_moves().items():
            lines.append(f"  {_q(a)} -> {_q(b)} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
