"""Chain pattern avoidance for permutations.

A chain assigns a pattern set to each compositional power of a
permutation: pi satisfies (S1 : S2 : ...) when pi avoids everything in
S1, pi squared avoids everything in S2, and so on.  The package
enumerates chain avoiders exactly, evaluates the nine built-in
closed forms for their counts, and checks the structure of strongly
312-avoiding permutations that end in 1.
"""

from .chains import ChainSpec, chain_avoids, parse_chain, strongly_avoids
from .enumeration import (
    MAX_ENUMERATION_N,
    CountRefinement,
    count_chain,
    count_sequence,
    generate_sn,
    list_chain_avoiders,
)
from .formulas import (
    FormulaId,
    ceiling_half_sum,
    evaluate,
    fibonacci,
    formula_by_tag,
    formula_table,
    lucas,
)
from .patterns import Pattern, avoids, contains, find_occurrence, parse_pattern
from .perm import ParseError, Permutation, identity, parse_permutation, reverse_identity
from .structure import (
    breakpoint_range,
    build_unimodal,
    classify_strong_312_ending_in_1,
    count_strong_312_ending_in_1,
    unimodal_forms,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "CountRefinement",
    "FormulaId",
    "MAX_ENUMERATION_N",
    "ParseError",
    "Pattern",
    "Permutation",
    "avoids",
    "breakpoint_range",
    "build_unimodal",
    "ceiling_half_sum",
    "chain_avoids",
    "classify_strong_312_ending_in_1",
    "contains",
    "count_chain",
    "count_sequence",
    "count_strong_312_ending_in_1",
    "evaluate",
    "fibonacci",
    "find_occurrence",
    "formula_by_tag",
    "formula_table",
    "generate_sn",
    "identity",
    "list_chain_avoiders",
    "lucas",
    "parse_chain",
    "parse_pattern",
    "parse_permutation",
    "reverse_identity",
    "strongly_avoids",
    "unimodal_forms",
]
