"""Pattern containment against an independent full-scan oracle."""

import itertools
import random

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
from chainperm import chains, patterns
from chainperm.chains import _chain_predicate
from chainperm.patterns import _KERNELS, _matcher
from helpers import (
    PATTERNS_3,
    PATTERNS_4,
    PATTERNS_UP_TO_5,
    all_words,
    compose_words,
    first_occurrence_scan,
    first_occurrence_through_max,
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


def one_based(indices):
    return None if indices is None else tuple(i + 1 for i in indices)


def test_find_occurrence_is_lexicographically_first():
    for n in range(0, 7):
        for word in all_words(n):
            pi = Permutation(word)
            for pattern in PATTERNS_UP_TO_5:
                assert find_occurrence(pi, Pattern(pattern)) == first_occurrence_scan(
                    word, pattern
                )


def test_pinned_search_agrees_with_scan_oracle():
    # The generating tree asks only for occurrences through the maximum.  The
    # pinned search returns the first of them, also for patterns longer than
    # the word.
    for m in range(1, 7):
        for word in all_words(m):
            pin = word.index(m)
            for pattern in PATTERNS_UP_TO_5:
                found = _matcher(pattern, pinned=True)(word, pin)
                expected = first_occurrence_through_max(word, pattern, pin)
                assert one_based(found) == expected, (word, pattern)


def with_entries_added(word, extra, rng):
    """word with extra new entries at random places and of random ranks, so
    that it still contains word."""
    values = [2 * v for v in word]
    for odd in rng.sample(range(1, 2 * len(word) + 2, 2), extra):
        values.insert(rng.randrange(len(values) + 1), odd)
    ranks = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(ranks[v] for v in values)


@pytest.mark.parametrize("k, top", [(21, 2), (21, 19), (25, 16), (25, 24)])
def test_patterns_longer_than_one_generated_function(k, top):
    # Python refuses more than 20 nested loops in one function, so these
    # searches run through a chain of generated functions.  Maxima in the
    # first and in a later function exercise both places a pin can sit.
    rng = random.Random(k * 100 + top)
    rest = rng.sample(range(1, k), k - 1)
    pattern = tuple(rest[:top] + [k] + rest[top:])
    tau = Pattern(pattern)
    words = [pattern, tuple(rng.sample(range(1, k + 3), k + 2))]
    words += [with_entries_added(pattern, extra, rng) for extra in (1, 1, 2, 2, 2)]
    outcomes = set()
    for word in words:
        pi = Permutation(word)
        expected = first_occurrence_scan(word, pattern)
        assert find_occurrence(pi, tau) == expected, word
        assert contains(pi, tau) == (expected is not None)
        outcomes.add(expected is None)
        pin = word.index(len(word))
        found = _matcher(pattern, pinned=True)(word, pin)
        assert one_based(found) == first_occurrence_through_max(word, pattern, pin), word
    assert outcomes == {True, False}


def test_matcher_is_built_only_from_permutations():
    # The search is compiled from source derived from the pattern, so
    # anything but a permutation of 1..k is refused before any is written.
    for bad in ((), (1, 1), (0, 1), (2, 3), (1, 3)):
        with pytest.raises(ValueError):
            _matcher(bad)


@pytest.mark.parametrize("pattern", PATTERNS_3, ids=lambda p: "".join(map(str, p)))
def test_insertion_rule_agrees_with_scan_oracle(pattern):
    # Deleting the maximum of an avoider leaves an avoider, so inserting a
    # maximum at the slots the oracle allows reaches every avoider of each
    # size: all 4,862 of size 9 after the words of size <= 8.
    rule = _KERNELS[pattern][1]
    words = [()]
    for m in range(9):
        children = []
        for word in words:
            free = [
                i
                for i in range(m + 1)
                if not scan_contains_through_max(word[:i] + (m + 1,) + word[i:], pattern, i)
            ]
            assert list(rule(word)) == free, word
            children.extend(word[:i] + (m + 1,) + word[i:] for i in free)
        words = children
    assert len(words) == 4862


class Unsliceable(tuple):
    """A word that refuses to be sliced, as a reversed or shifted copy
    would need."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise AssertionError(f"sliced {key}")
        return super().__getitem__(key)


def test_every_insertion_rule_reads_the_word_in_place():
    # The tree calls a rule on every node, so no rule copies the word.
    for pattern, (_, rule, _, _) in _KERNELS.items():
        for n in range(7):
            for word in all_words(n):
                assert list(rule(Unsliceable(word))) == list(rule(word)), (pattern, word)


@pytest.mark.parametrize("pattern", PATTERNS_3, ids=lambda p: "".join(map(str, p)))
def test_length3_kernel_agrees_with_scan_oracle(pattern):
    # Each kernel reads the power in place, so it runs here through the
    # predicate of the levels from depth + 1 on of a chain of depth + 1
    # levels, each the pattern.  Every power is again a word of the same
    # size, scanned once.
    predicates = [_chain_predicate(((pattern,),) * (depth + 1), depth) for depth in range(4)]
    for n in range(9):
        scanned = {word: scan_contains(word, pattern) for word in all_words(n)}
        for word in scanned:
            power = word
            for depth, avoids_power in enumerate(predicates):
                assert avoids_power(word) != scanned[power], (depth, word)
                power = compose_words(word, power)


@pytest.mark.parametrize("pattern", PATTERNS_3, ids=lambda p: "".join(map(str, p)))
def test_length3_kernel_agrees_with_matcher_past_one_machine_word(pattern):
    # Avoiders of sizes 65-80, grown by inserting the maximum at a random
    # free slot, hold values past bit 63 of the 312 kernel's bit set, which
    # 312, 213, 132 and 231 read plain, backward, complemented and both, far
    # beyond the exhaustive sizes.  Each grown word must avoid the pattern,
    # which checks the insertion rule at those sizes too.  Swapping one
    # adjacent pair of a copy may complete an occurrence, or may not.
    rng = random.Random("".join(map(str, pattern)))
    rule = _KERNELS[pattern][1]
    avoids_pattern = _chain_predicate(((pattern,),))
    word, outcomes = (), set()
    for size in range(1, 81):
        i = rng.choice(list(rule(word)))
        word = word[:i] + (size,) + word[i:]
        if size < 65:
            continue
        j = rng.randrange(size - 1)
        swapped = word[:j] + (word[j + 1], word[j]) + word[j + 2 :]
        for w in (word, swapped):
            found = contains(Permutation(w), Pattern(pattern))
            assert avoids_pattern(w) != found, w
            assert not found or w is swapped, w
            outcomes.add(found)
    assert outcomes == {False, True}


def test_chain_predicate_is_built_only_from_permutations(monkeypatch):
    # The predicate is compiled from source chosen by each pattern, so
    # anything but a permutation of 1..k is refused before any source, the
    # predicate's or a search's, is compiled.
    def refuse(*args):
        raise AssertionError("compiled")

    for module in (chains, patterns):
        monkeypatch.setattr(module, "compile", refuse, raising=False)
    for bad in ((), (1, 1, 2), (0, 1, 2), (2, 3, 4), (1, 3), (1, 1)):
        with pytest.raises(ValueError):
            _chain_predicate((((3, 1, 2), bad), (bad,)))


def test_only_length3_patterns_have_a_rule():
    # A word of length 3 that is not a permutation has no record either.
    for pattern in ((1,), (2, 1), (1, 1, 2), *PATTERNS_4, (1, 3, 2, 5, 4)):
        assert pattern not in _KERNELS


def test_engine_agrees_with_scan_oracle_exhaustively():
    for n in range(0, 7):
        for word in all_words(n):
            pi = Permutation(word)
            for pattern in ALL_SMALL_PATTERNS:
                assert contains(pi, Pattern(pattern)) == scan_contains(word, pattern)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=7, max_value=10).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ),
    st.sampled_from(PATTERNS_UP_TO_5),
)
def test_engine_agrees_with_scan_oracle_sampled(word, pattern):
    word = tuple(word)
    pi, tau = Permutation(word), Pattern(pattern)
    assert contains(pi, tau) == scan_contains(word, pattern)
    assert find_occurrence(pi, tau) == first_occurrence_scan(word, pattern)
    pin = word.index(len(word))
    found = _matcher(pattern, pinned=True)(word, pin)
    assert one_based(found) == first_occurrence_through_max(word, pattern, pin)


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
