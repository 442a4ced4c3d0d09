"""Pattern containment against an independent full-scan oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chainperm import (
    ParseError,
    Pattern,
    Permutation,
    avoids,
    contains,
    find_occurrence,
    parse_pattern,
    parse_permutation,
    strongly_avoids,
)
from chainperm.patterns import _length3_rule, _match_pinned, _prefix_bounds
from helpers import (
    PATTERNS_3,
    PATTERNS_4,
    all_words,
    first_occurrence_scan,
    scan_contains,
    scan_contains_through_max,
)

ALL_SMALL_PATTERNS = tuple(
    itertools.chain.from_iterable(
        itertools.permutations(range(1, k + 1)) for k in (1, 2, 3, 4)
    )
)


def test_pattern_rejects_empty():
    with pytest.raises(ValueError):
        Pattern(())
    with pytest.raises(ParseError):
        parse_pattern("")
    # Every search accepts any Permutation as the pattern, so each one
    # must reject the empty word itself.
    pi = parse_permutation("231")
    for search in (contains, avoids, find_occurrence, strongly_avoids):
        with pytest.raises(ValueError, match="length >= 1"):
            search(pi, Permutation(()))


def test_pattern_parse_reports_token():
    with pytest.raises(ParseError, match="'122'"):
        parse_pattern("122")


def test_pattern_is_a_permutation():
    tau = parse_pattern("2314")
    assert isinstance(tau, Permutation)
    assert tau == parse_permutation("2314")


def test_contains_examples():
    assert contains(parse_permutation("24153"), parse_pattern("132"))
    assert avoids(parse_permutation("1432"), parse_pattern("312"))
    assert contains(parse_permutation("3142"), parse_pattern("3142"))
    assert avoids(parse_permutation("123"), parse_pattern("21"))
    assert contains(parse_permutation("123"), parse_pattern("12"))


def test_empty_permutation_avoids_everything():
    empty = Permutation(())
    for word in ALL_SMALL_PATTERNS:
        assert avoids(empty, Pattern(word))


def test_pattern_longer_than_word_never_occurs():
    assert avoids(parse_permutation("21"), parse_pattern("213"))
    assert find_occurrence(parse_permutation("21"), parse_pattern("213")) is None


def test_single_value_pattern_occurs_everywhere():
    one = parse_pattern("1")
    for n in range(1, 5):
        for word in all_words(n):
            assert find_occurrence(Permutation(word), one) == (1,)


def test_find_occurrence_example():
    pi = parse_permutation("24153")
    tau = parse_pattern("132")
    assert find_occurrence(pi, tau) == (1, 2, 5)
    assert find_occurrence(pi, tau) == first_occurrence_scan(pi.values, tau.values)
    assert find_occurrence(parse_permutation("1432"), parse_pattern("312")) is None


def test_find_occurrence_is_lexicographically_first():
    for n in range(1, 7):
        for word in all_words(n):
            pi = Permutation(word)
            for pattern in ALL_SMALL_PATTERNS:
                assert find_occurrence(pi, Pattern(pattern)) == first_occurrence_scan(
                    word, pattern
                )


def test_pinned_search_agrees_with_scan_oracle():
    # The generating tree asks only for occurrences through the maximum.
    for m in range(1, 7):
        for word in all_words(m):
            pin = word.index(m)
            for pattern in ALL_SMALL_PATTERNS:
                k = len(pattern)
                if k > m:
                    continue
                found = _match_pinned(
                    word, _prefix_bounds(pattern), [0] * k, 0, 0, m, k, pattern.index(k), pin
                )
                assert found == scan_contains_through_max(word, pattern, pin), (word, pattern)


@pytest.mark.parametrize("pattern", PATTERNS_3, ids=lambda p: "".join(map(str, p)))
def test_insertion_rule_agrees_with_scan_oracle(pattern):
    # Deleting the maximum of an avoider leaves an avoider, so inserting a
    # maximum at the slots the oracle allows reaches every avoider of each
    # size: all 4,862 of size 9 after the words of size <= 8.
    rule = _length3_rule(pattern)
    words = [()]
    for m in range(9):
        children = []
        for word in words:
            free = [
                i
                for i in range(m + 1)
                if not scan_contains_through_max(word[:i] + (m + 1,) + word[i:], pattern, i)
            ]
            assert list(rule.free_slots(word)) == free, word
            children.extend(word[:i] + (m + 1,) + word[i:] for i in free)
        words = children
    assert len(words) == 4862


@pytest.mark.parametrize("pattern", PATTERNS_3, ids=lambda p: "".join(map(str, p)))
def test_length3_kernel_agrees_with_scan_oracle(pattern):
    rule = _length3_rule(pattern)
    for n in range(9):
        for word in all_words(n):
            assert rule.kernel(rule.view(word)) == scan_contains(word, pattern), word


def test_only_length3_patterns_have_a_rule():
    for pattern in ((1,), (2, 1), *PATTERNS_4, (1, 3, 2, 5, 4)):
        assert _length3_rule(pattern) is None


def test_engine_agrees_with_scan_oracle_exhaustively():
    for n in range(0, 7):
        for word in all_words(n):
            pi = Permutation(word)
            for pattern in ALL_SMALL_PATTERNS:
                assert contains(pi, Pattern(pattern)) == scan_contains(word, pattern)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=7, max_value=8).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ),
    st.sampled_from(ALL_SMALL_PATTERNS),
)
def test_engine_agrees_with_scan_oracle_sampled(word, pattern):
    word = tuple(word)
    assert contains(Permutation(word), Pattern(pattern)) == scan_contains(word, pattern)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ),
    st.sampled_from(ALL_SMALL_PATTERNS),
)
def test_witness_is_a_valid_occurrence(word, pattern):
    pi = Permutation(tuple(word))
    tau = Pattern(pattern)
    witness = find_occurrence(pi, tau)
    if witness is None:
        assert not scan_contains(pi.values, pattern)
        return
    assert len(witness) == len(pattern)
    assert all(1 <= i <= len(pi) for i in witness)
    assert all(a < b for a, b in zip(witness, witness[1:]))
    sub = tuple(pi.values[i - 1] for i in witness)
    for s in range(len(pattern)):
        for t in range(s):
            assert (sub[s] > sub[t]) == (pattern[s] > pattern[t])


def test_avoidance_respects_reverse_complement():
    for n in range(0, 8):
        for word in all_words(n):
            pi = Permutation(word)
            rc = pi.reverse_complement()
            for pattern in PATTERNS_3 + PATTERNS_4:
                tau = Pattern(pattern)
                tau_rc = Pattern(tau.reverse_complement().values)
                assert avoids(pi, tau) == avoids(rc, tau_rc)


def test_containment_is_transitive_through_patterns():
    small = tuple(
        itertools.chain.from_iterable(
            itertools.permutations(range(1, k + 1)) for k in (2, 3)
        )
    )
    for n in range(2, 7):
        for word in all_words(n):
            pi = Permutation(word)
            for outer in PATTERNS_3 + PATTERNS_4:
                if not contains(pi, Pattern(outer)):
                    continue
                for inner in small:
                    if scan_contains(outer, inner):
                        assert contains(pi, Pattern(inner))
