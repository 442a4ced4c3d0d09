"""Chain parsing and the chain-avoidance predicate."""

import copy
import itertools
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from chainperm import (
    ChainSpec,
    ParseError,
    Pattern,
    Permutation,
    avoids,
    chain_avoids,
    count_chain,
    parse_chain,
    parse_pattern,
    parse_permutation,
    strongly_avoids,
)
from chainperm import enumeration
from chainperm.chains import _chain_predicate, _checks
from helpers import PATTERNS_3, all_words, scan_chain_avoids
from strategies import chain_levels


def test_parse_and_text_round_trip():
    for text in ("312", "312:312", "312,123:312", "21:21:21", "231,1432:231"):
        chain = parse_chain(text)
        assert chain.text() == text
        assert parse_chain(chain.text()) == chain
        assert str(chain) == text


chain_patterns = st.integers(min_value=1, max_value=9).flatmap(
    lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(chain_patterns, min_size=1, max_size=3), min_size=1, max_size=3))
@example([[tuple(range(9, 0, -1))], [(3, 1, 2)]])
def test_every_chain_reads_back_from_its_text(levels):
    chain = ChainSpec(levels)
    assert parse_chain(chain.text()) == chain


def test_chain_patterns_longer_than_9_are_refused():
    with pytest.raises(ValueError, match="at most 9"):
        ChainSpec([[tuple(range(10, 0, -1))], [(3, 1, 2)]])
    with pytest.raises(ValueError, match="at most 9"):
        ChainSpec([[(3, 1, 2)], [(3, 1, 2), tuple(range(1, 11))]])
    assert ChainSpec([[tuple(range(9, 0, -1))], [(3, 1, 2)]]).text() == "987654321:312"


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
    with pytest.raises(ValueError, match="a pattern must have length >= 1"):
        ChainSpec((((),),))
    with pytest.raises(ValueError, match="is not a permutation of 1..2"):
        ChainSpec((((1, 3),),))
    chain = ChainSpec(((parse_permutation("312"),),))
    assert chain.levels == (((3, 1, 2),),)


def test_levels_and_length():
    chain = parse_chain("312,123:312")
    assert len(chain) == 2
    assert chain.levels == (((3, 1, 2), (1, 2, 3)), ((3, 1, 2),))


def test_reverse_complement_of_chain():
    chain = parse_chain("231,1432:231")
    assert chain.reverse_complement().text() == "312,3214:312"
    assert chain.reverse_complement().reverse_complement() == chain


@pytest.mark.parametrize("k", range(1, 6))
def test_chain_stores_the_value_words_of_its_patterns(k):
    # The first level lists every pattern of length k, in lexicographic order.
    levels = (tuple(all_words(k)), ((2, 3, 1),), ((1, 2), (2, 1)))
    chain = ChainSpec(levels)
    assert chain.levels == levels
    for other in (
        ChainSpec([map(Permutation, level) for level in levels]),
        ChainSpec([map(Pattern, level) for level in levels]),
        parse_chain(chain.text()),
        copy.copy(chain),
        copy.deepcopy(chain),
        pickle.loads(pickle.dumps(chain)),
        chain.reverse_complement().reverse_complement(),
    ):
        assert other == chain
        assert hash(other) == hash(chain)
        assert other.text() == chain.text()
    assert chain.reverse_complement().levels == tuple(
        tuple(Permutation(p).reverse_complement().values for p in level) for level in levels
    )
    # The first call compiles the chain's predicate; later calls find it.
    words = [Permutation(w) for w in itertools.islice(all_words(5), 100)]
    chain_avoids(words[0], chain)
    before = _chain_predicate.cache_info()
    for pi in words:
        assert chain_avoids(pi, chain) == scan_chain_avoids(pi.values, levels)
    after = _chain_predicate.cache_info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits + 100


def test_chain_compiles_once_per_start():
    # chain_avoids runs the predicate of the whole chain (start 0), and the
    # tree of count_chain the one of its deeper levels (start 1): each is
    # compiled once, and every later use finds it.
    chain = parse_chain("13245:2143:312")
    words = [Permutation(w) for w in all_words(5)]
    _chain_predicate.cache_clear()
    hits = []
    for _ in range(2):
        for pi in words:
            chain_avoids(pi, chain)
        enumeration._COUNTS.clear()
        count_chain(7, chain)
        info = _chain_predicate.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        hits.append(info.hits)
    assert hits[1] - hits[0] > len(words)


def test_chain_avoids_examples():
    assert chain_avoids(Permutation((1, 2, 3, 4)), parse_chain("231,312:231"))
    assert chain_avoids(parse_permutation("21543"), parse_chain("312,123:312"))
    assert not chain_avoids(parse_permutation("231"), parse_chain("312:312"))


def test_single_level_chain_is_plain_avoidance():
    for n in range(0, 6):
        for word in all_words(n):
            pi = Permutation(word)
            for pattern in PATTERNS_3:
                chain = ChainSpec(((pattern,),))
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
    assert strongly_avoids(Permutation((1, 2, 3, 4, 5)), tau)
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
        # Complemented kernels read forward (132) and backward (231): checks
        # in the order 132, 231, 213, then the 2143 search; and two readings
        # on each of depths 1 and 2.
        "132,2143:231:213",
        "1324:231,213:132,321",
    )
    for text in chains:
        chain = parse_chain(text)
        levels = chain.levels
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
    chain = ChainSpec(levels)
    assert chain_avoids(Permutation(word), chain) == scan_chain_avoids(word, levels)


def test_checks_run_cheapest_first():
    def order(text):
        levels = parse_chain(text).levels
        checks = _checks(levels)
        assert _checks(levels, 1) == tuple(c for c in checks if c[0])
        return [(depth, "".join(map(str, p))) for depth, p in checks]

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
        assert survivors == [Permutation(tuple(range(1, n + 1)))]


def test_levels_beyond_word_length_are_vacuous():
    chain = parse_chain("1432:1432")
    for n in range(0, 4):
        for word in all_words(n):
            assert chain_avoids(Permutation(word), chain)
