"""Unimodal shape of strong 312 avoiders that end in 1."""

import pytest

from chainperm import (
    Permutation,
    breakpoint_range,
    build_unimodal,
    classify_strong_312_ending_in_1 as classify,
    count_strong_312_ending_in_1 as count_breakpoints,
    list_chain_avoiders,
    parse_chain,
    parse_pattern,
    parse_permutation,
    strongly_avoids,
    unimodal_forms,
)
from helpers import all_words, scan_contains


def test_breakpoint_range():
    assert list(breakpoint_range(1)) == [1]
    assert list(breakpoint_range(2)) == [1, 2]
    assert list(breakpoint_range(5)) == [3, 4, 5]
    assert list(breakpoint_range(6)) == [3, 4, 5, 6]
    with pytest.raises(ValueError):
        breakpoint_range(0)


def test_build_unimodal_examples():
    assert build_unimodal(7, 4).text() == "5674321"
    assert build_unimodal(5, 3).text() == "45321"
    assert build_unimodal(4, 2).text() == "3421"
    assert build_unimodal(5, 5).text() == "54321"
    assert build_unimodal(1, 1).text() == "1"


def test_build_unimodal_rejects_bad_breakpoints():
    with pytest.raises(ValueError, match="k >= n/2"):
        build_unimodal(5, 2)
    with pytest.raises(ValueError):
        build_unimodal(5, 6)
    with pytest.raises(ValueError):
        build_unimodal(0, 0)


def test_built_words_strongly_avoid_312_and_end_in_1():
    tau = parse_pattern("312")
    for n in range(1, 10):
        for k in breakpoint_range(n):
            pi = build_unimodal(n, k)
            assert pi.values[-1] == 1
            assert strongly_avoids(pi, tau)


def test_classify_examples():
    assert classify(parse_permutation("45321")) == 3
    assert classify(parse_permutation("5674321")) == 4
    assert classify(parse_permutation("4321")) == 4
    assert classify(parse_permutation("21")) == 2
    assert classify(parse_permutation("1")) == 1
    assert classify(parse_permutation("34521")) is None
    assert classify(parse_permutation("23451")) is None


def test_classify_requires_ending_in_1():
    with pytest.raises(ValueError, match="ending in 1"):
        classify(parse_permutation("123"))
    with pytest.raises(ValueError):
        classify(Permutation(()))


def test_classify_round_trip():
    for n in range(1, 13):
        for k in breakpoint_range(n):
            got = classify(build_unimodal(n, k))
            if k >= n - 1:
                assert got == n
            else:
                assert got == k
            assert build_unimodal(n, got) == build_unimodal(n, k)


def test_count_breakpoints_values():
    assert count_breakpoints(1) == 1
    assert count_breakpoints(2) == 2
    assert count_breakpoints(5) == 3
    assert count_breakpoints(8) == 5
    for n in range(1, 30):
        assert count_breakpoints(n) == len(breakpoint_range(n))
    with pytest.raises(ValueError):
        count_breakpoints(0)


def test_distinct_forms_are_one_fewer_than_breakpoints():
    assert [p.text() for p in unimodal_forms(5)] == ["45321", "54321"]
    assert len(unimodal_forms(1)) == 1
    for n in range(2, 13):
        forms = unimodal_forms(n)
        assert len(forms) == count_breakpoints(n) - 1
        assert [p.values for p in forms] == sorted(p.values for p in forms)
        assert len({p.values for p in forms}) == len(forms)


def test_forms_match_exhaustive_strong_avoiders():
    tau = parse_pattern("312")
    for n in range(1, 8):
        strong = {
            word
            for word in all_words(n)
            if word[-1] == 1 and strongly_avoids(Permutation(word), tau)
        }
        assert strong == {p.values for p in unimodal_forms(n)}
        for word in all_words(n):
            if word[-1] != 1:
                continue
            assert (classify(Permutation(word)) is not None) == (word in strong)


def test_words_ending_in_1_that_avoid_312_are_the_shifted_tree():
    # The candidates of the structure subcommand: a final 1 takes part in
    # no 312, so only the first n - 1 entries decide avoidance.
    for n in range(1, 9):
        scanned = {
            word for word in all_words(n) if word[-1] == 1 and not scan_contains(word, (3, 1, 2))
        }
        shifted = {
            tuple(v + 1 for v in tail.values) + (1,)
            for tail in list_chain_avoiders(n - 1, parse_chain("312"))
        }
        assert scanned == shifted
