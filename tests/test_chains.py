"""Chain parsing and the chain-avoidance predicate."""

import pytest
from hypothesis import example, given, settings, strategies as st

from chainperm import (
    ChainSpec,
    ParseError,
    Pattern,
    Permutation,
    avoids,
    chain_avoids,
    identity,
    parse_chain,
    parse_pattern,
    parse_permutation,
    strongly_avoids,
)
from chainperm.chains import _prepared_chain
from helpers import PATTERNS_3, all_words, scan_chain_avoids
from strategies import chain_levels


def test_parse_and_text_round_trip():
    for text in ("312", "312:312", "312,123:312", "21:21:21", "231,1432:231"):
        chain = parse_chain(text)
        assert chain.text() == text
        assert parse_chain(chain.text()) == chain
        assert str(chain) == text


def test_parse_ignores_whitespace():
    assert parse_chain(" 312 , 123 : 312 ").text() == "312,123:312"
    assert parse_chain("\t21:\n21").text() == "21:21"


def test_parse_errors_name_the_problem():
    with pytest.raises(ParseError, match="empty chain"):
        parse_chain("   ")
    with pytest.raises(ParseError, match="level 2"):
        parse_chain("312:")
    with pytest.raises(ParseError, match="level 1"):
        parse_chain(":312")
    with pytest.raises(ParseError, match="level 1"):
        parse_chain("312,:312")
    with pytest.raises(ParseError, match="'31'"):
        parse_chain("31,2:312")
    with pytest.raises(ParseError, match="'3a2'"):
        parse_chain("3a2:312")


def test_chainspec_validation():
    with pytest.raises(ValueError):
        ChainSpec(())
    with pytest.raises(ValueError):
        ChainSpec(((),))
    chain = ChainSpec(((parse_permutation("312"),),))
    assert isinstance(chain.levels[0][0], Pattern)


def test_levels_and_length():
    chain = parse_chain("312,123:312")
    assert len(chain) == 2
    assert chain.level_values() == (((3, 1, 2), (1, 2, 3)), ((3, 1, 2),))


def test_reverse_complement_of_chain():
    chain = parse_chain("231,1432:231")
    assert chain.reverse_complement().text() == "312,3214:312"
    assert chain.reverse_complement().reverse_complement() == chain


def test_chain_avoids_examples():
    assert chain_avoids(identity(4), parse_chain("231,312:231"))
    assert chain_avoids(parse_permutation("21543"), parse_chain("312,123:312"))
    assert not chain_avoids(parse_permutation("231"), parse_chain("312:312"))


def test_single_level_chain_is_plain_avoidance():
    for n in range(0, 6):
        for word in all_words(n):
            pi = Permutation(word)
            for pattern in PATTERNS_3:
                chain = ChainSpec(((Pattern(pattern),),))
                assert chain_avoids(pi, chain) == avoids(pi, Pattern(pattern))


def test_two_level_chain_is_strong_avoidance():
    tau = parse_pattern("312")
    chain = parse_chain("312:312")
    for n in range(0, 7):
        for word in all_words(n):
            pi = Permutation(word)
            assert chain_avoids(pi, chain) == strongly_avoids(pi, tau)


def test_strongly_avoids_examples():
    tau = parse_pattern("312")
    assert not strongly_avoids(parse_permutation("34521"), tau)
    assert strongly_avoids(parse_permutation("3421"), tau)
    assert strongly_avoids(identity(5), tau)
    assert strongly_avoids(parse_permutation("54321"), tau)


def test_chain_agrees_with_scan_oracle():
    chains = (
        "312,123:312",
        "312,2314:312",
        "231,1432:231",
        "21:21:21",
        # The checks run in another order than the levels: search, search,
        # rule; a rule between two searches; a rule and a search on one level.
        "13245:2143:312",
        "23415:3241:312",
        "1432:312:21",
        "312,1432:2143,231:12",
    )
    for text in chains:
        chain = parse_chain(text)
        levels = chain.level_values()
        for n in range(0, 7):
            for word in all_words(n):
                assert chain_avoids(Permutation(word), chain) == scan_chain_avoids(
                    word, levels
                ), (text, word)


@settings(max_examples=150, deadline=None)
@given(
    chain_levels,
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    ),
)
@example([[(1, 3, 2, 4, 5)], [(2, 1, 4, 3)], [(3, 1, 2)]], (1, 2, 3, 4, 8, 7, 5, 6))
@example([[(1, 3, 2, 4, 5)], [(2, 1, 4, 3)], [(3, 1, 2)]], (5, 1, 2, 4, 3, 8, 7, 6))
def test_chain_avoids_agrees_with_scan_oracle_on_random_chains(levels, word):
    chain = ChainSpec(tuple(tuple(Pattern(p) for p in level) for level in levels))
    assert chain_avoids(Permutation(word), chain) == scan_chain_avoids(word, levels)


def test_checks_run_cheapest_first():
    def order(text):
        prepared = _prepared_chain(parse_chain(text).level_values())
        assert prepared.deeper == tuple(c for c in prepared.checks if c[0])
        return [(depth, "".join(map(str, p))) for depth, (p, _, _) in prepared.checks]

    # Every length-3 rule, then the searches by length, then by depth.
    assert order("13245:2143:312") == [(2, "312"), (1, "2143"), (0, "13245")]
    assert order("1432:312:21") == [(1, "312"), (2, "21"), (0, "1432")]
    assert order("312,1432:2143,231:12") == [
        (0, "312"), (1, "231"), (2, "12"), (0, "1432"), (1, "2143")
    ]
    assert order("2143,1:321,12:1") == [
        (1, "321"), (0, "1"), (2, "1"), (1, "12"), (0, "2143")
    ]


def test_chain_respects_reverse_complement():
    for text in ("312,123:312", "312,2314:312", "231,1432:231", "312:312"):
        chain = parse_chain(text)
        mirrored = chain.reverse_complement()
        for n in range(0, 6):
            for word in all_words(n):
                pi = Permutation(word)
                assert chain_avoids(pi, chain) == chain_avoids(
                    pi.reverse_complement(), mirrored
                )


def test_adding_patterns_only_shrinks_the_avoider_set():
    base = parse_chain("312:312")
    wider = parse_chain("312,123:312")
    for n in range(0, 6):
        for word in all_words(n):
            pi = Permutation(word)
            if chain_avoids(pi, wider):
                assert chain_avoids(pi, base)


def test_three_level_chain():
    chain = parse_chain("21:21:21")
    for n in range(1, 5):
        survivors = [
            Permutation(word) for word in all_words(n)
            if chain_avoids(Permutation(word), chain)
        ]
        assert survivors == [identity(n)]


def test_levels_beyond_word_length_are_vacuous():
    chain = parse_chain("1432:1432")
    for n in range(0, 4):
        for word in all_words(n):
            assert chain_avoids(Permutation(word), chain)
