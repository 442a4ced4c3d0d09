"""Chain pattern avoidance for permutations.

A chain assigns a pattern set to each compositional power of a
permutation: pi satisfies (S1 : S2 : ...) when pi avoids everything in
S1, pi squared avoids everything in S2, and so on.  The package
enumerates chain avoiders exactly, evaluates the nine built-in
closed forms for their counts, and checks the structure of strongly
312-avoiding permutations that end in 1.

The public names are listed once, in _EXPORTS, under the module that
defines them.  A bare ``import chainperm`` loads none of those modules:
each loads the first time one of its names is read from the package
(PEP 562), and the value is then kept in the package namespace.  The
command line (chainperm.cli) imports all six at start-up.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chains": ("ChainSpec", "chain_avoids", "parse_chain", "strongly_avoids"),
    "enumeration": (
        "MAX_ENUMERATION_N", "CountRefinement", "count_chain", "generate_sn", "walk_chain_avoiders"
    ),
    "formulas": (
        "FormulaId", "ceiling_half_sum", "evaluate", "fibonacci", "formula_by_tag",
        "formula_table", "lucas",
    ),
    "patterns": ("Pattern", "avoids", "contains", "find_occurrence", "parse_pattern"),
    "perm": ("ParseError", "Permutation", "parse_permutation"),
    "structure": (
        "breakpoint_range", "build_unimodal", "classify_strong_312_ending_in_1",
        "count_strong_312_ending_in_1", "unimodal_forms",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
