"""Beat points, cores, and semiflow enumeration on finite T0 spaces.

A finite T0 space is the same thing as a finite poset; this package parses
and generates such spaces, detects beat points, computes cores, and
enumerates every semiflow (equivalently, every idempotent monotone map
below the identity) together with the counting bounds attached to them.

Importing the package loads none of its modules: each name in ``__all__``
is imported from its module on first use (PEP 562), so a command line call
compiles only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CycleError", "FinflowError", "InvalidSequenceError",
               "InvalidSpecError", "NegativeTimeError", "ParseError",
               "SchemaError", "SizeLimitError", "UnknownLabelError"),
    "families": ("antichain", "chain", "cone", "example_2_5", "example_3_1", "make",
                 "pseudo_circle", "random_corpus", "random_poset", "realization_family"),
    "formats": ("parse_poset_json", "parse_poset_text", "to_dot",
                "write_poset_json", "write_poset_text"),
    "maps": ("MonotoneMap", "is_monotone"),
    "poset": ("Poset", "elements_of", "mask_of"),
    "prng": ("Xorshift64Star",),
    "reduction": ("RemovalSequence", "beat_points", "core", "down_beat_points",
                  "is_minimal_space", "potential_down_beat_points",
                  "removal_sequence_for", "retraction_from_sequence",
                  "up_beat_points", "validate_removal_sequence"),
    "report": ("AnalysisReport", "analyze"),
    "semiflow": ("BoundCheck", "Semiflow", "brute_force_oracle", "enumerate_semiflows",
                 "full_verification", "verify_counting_results"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
