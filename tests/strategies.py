"""Hypothesis strategies shared by the test modules.

Kept apart from helpers.py, which the benchmark imports for its oracle:
importing Hypothesis there would grow the benchmark's own process.
"""

from hypothesis import strategies as st

# A pattern of length 1 to 5, and the levels of a chain: 1 to 3 levels of 1
# to 3 such patterns each, as lists of value tuples.
pattern_words = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
)
chain_levels = st.lists(st.lists(pattern_words, min_size=1, max_size=3), min_size=1, max_size=3)
