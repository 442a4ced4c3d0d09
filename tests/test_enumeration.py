"""Exhaustive counting: base cases, refinement, sharding, size bound."""

import multiprocessing
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from chainperm import (
    ChainSpec,
    CountRefinement,
    MAX_ENUMERATION_N,
    Pattern,
    avoids,
    chain_avoids,
    count_chain,
    evaluate,
    formula_table,
    generate_sn,
    identity,
    parse_chain,
)
from chainperm.chains import _chain_predicate
from chainperm.enumeration import walk_chain_avoiders
from chainperm import enumeration
from helpers import all_words, scan_chain_avoids, scan_contains, scan_count_chain
from strategies import chain_levels, pattern_words

TABLE_CHAINS = [c for f in formula_table() for c in (f.chain_231, f.chain_312)]


def brute_avoiders(words, chain):
    """The words of one size that satisfy the chain, in the given order."""
    return [p.values for p in words if chain_avoids(p, chain)]


def level1_walk(chain, n):
    """The chain avoiders of sizes 0 to n found on the level-1 tree, with
    every deeper level checked on every node: the tree a chain that does
    not prune at level 2 walks."""
    avoids_deeper = _chain_predicate(chain.levels, 1)
    level1 = ChainSpec(chain.levels[:1])
    return [w for w in walk_chain_avoiders(n, level1) if avoids_deeper(w)]


def splits_by_size(words, n):
    """For each size 1 to n, the total and the split by the position of 1."""
    by_size = [[w for w in words if len(w) == m] for m in range(1, n + 1)]
    return [(len(ws), split_by_position_of_one(ws, m)) for m, ws in enumerate(by_size, 1)]


def totals(chain, n_max):
    return [count_chain(n, chain).total for n in range(1, n_max + 1)]


def split_by_position_of_one(avoiders, n):
    by_pos = [0] * n
    for word in avoiders:
        by_pos[word.index(1)] += 1
    return tuple(by_pos)


def test_generate_sn_small():
    assert [p.text() for p in generate_sn(3)] == [
        "123", "132", "213", "231", "312", "321",
    ]
    assert [p.values for p in generate_sn(0)] == [()]
    assert next(generate_sn(1)).values == (1,)


def test_generate_sn_is_lexicographic_and_complete():
    words = [p.values for p in generate_sn(5)]
    assert len(words) == 120
    assert len(set(words)) == 120
    assert words == sorted(words)


def test_generate_sn_size_bound():
    with pytest.raises(ValueError, match="force"):
        generate_sn(MAX_ENUMERATION_N + 1)
    with pytest.raises(ValueError):
        generate_sn(-1)
    stream = generate_sn(MAX_ENUMERATION_N + 1, force=True)
    assert next(stream) == identity(MAX_ENUMERATION_N + 1)


def test_count_base_cases():
    assert count_chain(3, parse_chain("312,123:312")).total == 3
    assert totals(parse_chain("312,321:312"), 3) == [1, 2, 3]
    assert totals(parse_chain("312,231:312"), 4) == [1, 2, 4, 8]
    assert count_chain(2, parse_chain("312,2314:312")).total == 2
    assert count_chain(3, parse_chain("312,2314:312")).total == 4


def test_count_single_pattern_catalan():
    assert totals(parse_chain("312"), 5) == [1, 2, 5, 14, 42]


def test_refinement_example():
    ref = count_chain(3, parse_chain("312,2314:312"))
    assert ref.total == 4
    assert ref.by_position_of_one == (2, 1, 1)
    oracle_total, oracle_by_pos = scan_count_chain(3, (((3, 1, 2), (2, 3, 1, 4)), ((3, 1, 2),)))
    assert (ref.total, ref.by_position_of_one) == (oracle_total, oracle_by_pos)


def test_refinement_sums_to_total():
    for text in ("312:312", "312,123:312", "231,1432:231"):
        chain = parse_chain(text)
        for n in range(1, 7):
            ref = count_chain(n, chain)
            assert ref.n == n
            assert ref.chain == chain
            assert sum(ref.by_position_of_one) == ref.total
            assert len(ref.by_position_of_one) == n


def test_count_agrees_with_scan_oracle(root_walks, block_counts):
    for chain in TABLE_CHAINS:
        count_chain(8, chain)
    for n in range(1, 9):
        # Every table chain lists 312 or 231 first, and a word that contains
        # it fails the chain at level 1: each word is scanned for each head
        # pattern once, and only the survivors for the whole chain.
        survivors = {
            head: [w for w in all_words(n) if not scan_contains(w, head)]
            for head in {c.levels[0][0] for c in TABLE_CHAINS}
        }
        for chain in TABLE_CHAINS:
            candidates = survivors[chain.levels[0][0]]
            avoiders = [w for w in candidates if scan_chain_avoids(w, chain.levels)]
            ref = count_chain(n, chain)
            assert (ref.n, ref.chain) == (n, chain)
            assert (ref.total, ref.by_position_of_one) == (
                len(avoiders),
                split_by_position_of_one(avoiders, n),
            ), (chain, n)
    assert len(block_counts) == len(TABLE_CHAINS)
    assert root_walks == []


def test_tree_matches_brute_force_for_table_chains():
    walked = {chain: sorted(walk_chain_avoiders(8, chain)) for chain in TABLE_CHAINS}
    for n in range(1, 9):
        words = list(generate_sn(n))
        # A word that contains 231 (or 312) fails, at level 1, every chain
        # that lists that pattern first; only the rest need the full check.
        candidates = {
            tau: [p for p in words if avoids(p, Pattern(tau))]
            for tau in {c.levels[0][0] for c in TABLE_CHAINS}
        }
        for chain in TABLE_CHAINS:
            avoiders = brute_avoiders(candidates[chain.levels[0][0]], chain)
            ref = count_chain(n, chain)
            assert ref.total == len(avoiders), (chain, n)
            assert ref.by_position_of_one == split_by_position_of_one(avoiders, n), (chain, n)
            assert [w for w in walked[chain] if len(w) == n] == avoiders, (chain, n)


def test_table_chains_prune_and_match_the_level1_walk():
    for chain in TABLE_CHAINS:
        assert enumeration._strong_side(chain.levels) is (chain.levels[1][0] == (3, 1, 2))
        count_chain(12, chain)
        got = [(ref.total, ref.by_position_of_one) for ref in enumeration._COUNTS[chain]]
        assert got == splits_by_size(level1_walk(chain, 12), 12), chain


def test_block_counts_match_the_pruned_tree_to_14():
    for chain in TABLE_CHAINS:
        count_chain(14, chain)
        got = [(ref.total, ref.by_position_of_one) for ref in enumeration._COUNTS[chain]]
        assert got == splits_by_size(list(walk_chain_avoiders(14, chain)), 14), chain


def test_block_counts_hold_the_closed_forms_far_out():
    # At n = 60 no tree could be walked: T34 alone has 2^59 avoiders per
    # side.  The T31 claim 2n - 3 fails here too; the count is n + 1.
    n = 60
    for formula in formula_table():
        refs = [count_chain(n, chain, force=True) for chain in (formula.chain_231, formula.chain_312)]
        assert refs[0].total == refs[1].total, formula.tag
        if formula.tag == "T31":
            assert refs[0].total == n + 1
            assert evaluate(formula, n) == 2 * n - 3
        else:
            assert refs[0].total == evaluate(formula, n), formula.tag


def test_only_two_level_strong_chains_prune():
    def side(text):
        return enumeration._strong_side(parse_chain(text).levels)

    assert side("312:312") is True
    assert side("2143,312:312") is True
    assert side("312,231:231") is False
    for text in (
        "312:312:312", "231:231:231", "312", "312:123", "312:231", "231:312",
        "123:312", "312:312,123", "3124:312", "13245:2143:312",
    ):
        assert side(text) is None, text


def test_strong_avoiders_are_closed_under_deleting_the_extreme():
    # The claim the pruned trees rest on (see the enumeration docstring),
    # checked on the level-1 tree: deleting the maximum of a 312:312 avoider,
    # or the minimum of a 231:231 avoider, leaves an avoider.
    for text, extreme in (("312:312", max), ("231:231", min)):
        chain = parse_chain(text)
        oracle = set(level1_walk(chain, 11))
        assert len(oracle) == 1 + sum(totals(chain, 11))
        for word in oracle - {()}:
            e = extreme(word)
            assert tuple(v - (v > e) for v in word if v != e) in oracle, (text, word)
        assert set(walk_chain_avoiders(11, chain)) == oracle, text


@settings(max_examples=60, deadline=None)
@given(chain_levels, st.integers(min_value=1, max_value=7))
@example([[(1,)]], 3)
@example([[(1, 2)]], 4)
@example([[(1, 2)], [(1,)]], 2)
@example([[(2, 1)], [(1, 2)]], 5)
@example([[(4, 5, 1, 3, 2)], [(2, 1, 4, 3)], [(1, 2)]], 7)
@example([[(2, 3, 1), (1, 4, 3, 2)], [(2, 3, 1)]], 7)
@example([[(1, 3, 2, 4, 5)], [(2, 1, 4, 3)], [(3, 1, 2)]], 7)
def test_tree_matches_brute_force_on_random_chains(levels, n):
    enumeration._COUNTS.clear()
    chain = ChainSpec(levels)
    avoiders = brute_avoiders(generate_sn(n), chain)
    ref = count_chain(n, chain)
    assert (ref.total, ref.by_position_of_one) == (
        len(avoiders),
        split_by_position_of_one(avoiders, n),
    )
    assert sorted(w for w in walk_chain_avoiders(n, chain) if len(w) == n) == avoiders
    # The one walk to n also counted every smaller size.
    for m in range(1, n):
        ref = count_chain(m, chain)
        assert (ref.total, ref.by_position_of_one) == scan_count_chain(m, levels), m


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(3, 1, 2), (2, 3, 1)]),
    st.lists(pattern_words, max_size=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=9),
)
@example((3, 1, 2), [], 0, 9)
@example((2, 3, 1), [(1, 4, 3, 2)], 1, 9)
@example((2, 3, 1), [(2, 1, 4, 3), (3, 1, 2)], 2, 8)
@example((3, 1, 2), [(1, 2)], 0, 5)
@example((2, 3, 1), [(1,)], 1, 3)
@example((3, 1, 2), [(1, 3, 2, 4, 5)], 1, 9)
@example((2, 3, 1), [(1, 4, 2, 3, 5), (2, 1, 3)], 0, 9)
def test_pruned_walk_matches_level1_walk_on_random_chains(square, others, where, n):
    enumeration._COUNTS.clear()
    chain = ChainSpec([others[:where] + [square] + others[where:], [square]])
    assert enumeration._strong_side(chain.levels) is (square == (3, 1, 2))
    oracle = level1_walk(chain, n)
    walked = list(walk_chain_avoiders(n, chain))
    assert sorted(walked) == sorted(oracle)
    count_chain(n, chain)
    got = [(ref.total, ref.by_position_of_one) for ref in enumeration._COUNTS[chain]]
    assert got == splits_by_size(oracle, n)


def assert_moves_never_go_back(level1, up):
    """Every move of the chain's block automaton leads to a state at least
    as large in every coordinate, so its only cycles are self-loops."""
    cap, moves = enumeration._automaton(level1, up)
    assert cap == max(map(len, level1))
    assert next(iter(moves)) == (0,) * len(next(iter(moves)))
    for state, move in moves.items():
        for (a, b), after in move:
            assert 1 <= a <= max(b, 1) and b <= cap, (level1, a, b)
            assert after in moves, (level1, after)
            assert all(t <= u for t, u in zip(state, after)), (level1, state, after)


def test_table_automata_only_move_forward():
    for chain in TABLE_CHAINS:
        assert_moves_never_go_back(chain.levels[0], chain.levels[1][0] == (3, 1, 2))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(3, 1, 2), (2, 3, 1)]),
    st.lists(pattern_words, max_size=3),
    st.integers(min_value=0, max_value=3),
)
@example((3, 1, 2), [(1, 2), (2, 1, 4, 3), (1, 3, 2, 4, 5)], 1)
@example((2, 3, 1), [(1, 2, 3), (2, 1, 3), (3, 2, 1, 4)], 3)
def test_random_automata_only_move_forward(square, others, where):
    level1 = tuple(others[:where] + [square] + others[where:])
    assert_moves_never_go_back(level1, square == (3, 1, 2))


def test_counts_are_kept_per_chain(root_walks, block_counts):
    chain = parse_chain("312,3214:312")
    at_6 = count_chain(6, chain)
    assert count_chain(4, parse_chain("312,3214:312"), jobs=2).total == 8
    assert len(block_counts) == 1
    assert count_chain(8, chain).total == 71
    assert len(block_counts) == 2
    assert count_chain(6, chain) == at_6
    assert totals(chain, 8) == [1, 2, 4, 8, 14, 25, 42, 71]
    assert len(block_counts) == 2
    assert root_walks == []


def test_count_empty_size():
    ref = count_chain(0, parse_chain("312:312"))
    assert ref.total == 1
    assert ref.by_position_of_one == ()


def test_count_size_bound():
    chain = parse_chain("312:312")
    with pytest.raises(ValueError, match="force"):
        count_chain(MAX_ENUMERATION_N + 1, chain)
    with pytest.raises(ValueError):
        count_chain(-1, chain)


def spy_on_pools(monkeypatch):
    """Record the worker count of every pool opened, opening it for real."""
    opened = []
    real_pool = multiprocessing.Pool

    def pool(workers, *args, **kwargs):
        opened.append(workers)
        return real_pool(workers, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    return opened


def test_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(enumeration, "MIN_POOL_FRONTIER", 1)
    opened = spy_on_pools(monkeypatch)
    for text, n_max in (("312,3214", 9), ("231,1432", 9), ("13245:2143:312", 7)):
        chain = parse_chain(text)
        count_chain(n_max, chain, jobs=1)
        serial = [count_chain(n, chain) for n in range(1, n_max + 1)]
        for jobs in (2, 3, 8):
            # Without the kept counts, each jobs value walks and pools again.
            enumeration._COUNTS.clear()
            count_chain(n_max, chain, jobs=jobs)
            pooled = [count_chain(n, chain) for n in range(1, n_max + 1)]
            assert pooled == serial, (text, jobs)
    cpus = enumeration._pool_size(10**6, 10**6)
    assert all(2 <= workers <= cpus for workers in opened)
    if cpus > 1:
        assert len(opened) == 9


def test_pool_size_is_capped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert enumeration._pool_size(5000, 10**6) == 64
    assert enumeration._pool_size(5000, 10) == 10
    assert enumeration._pool_size(3, 10) == 3
    assert enumeration._pool_size(1, 10) == 1
    assert enumeration._pool_size(8, 0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert enumeration._pool_size(5000, 10**6) == 1


def test_qualifying_chains_open_no_pool(monkeypatch):
    # Chains that prune at level 2 are counted over sums of blocks, not
    # on a tree, so jobs does not apply to them even where every tree
    # would be sharded.
    monkeypatch.setattr(enumeration, "MIN_POOL_FRONTIER", 1)
    opened = spy_on_pools(monkeypatch)
    for chain in TABLE_CHAINS + [parse_chain("312:312"), parse_chain("2143,231:231")]:
        count_chain(12, chain, jobs=8)
    assert opened == []


def test_workers_never_exceed_shards():
    ref = count_chain(2, parse_chain("21:21"), jobs=16)
    assert ref.total == 1
    assert ref.by_position_of_one == (1, 0)


def test_walk_chain_avoiders_example():
    words = sorted(w for w in walk_chain_avoiders(3, parse_chain("312:312")) if len(w) == 3)
    assert words == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    ending_in_1 = [w for w in words if w[-1] == 1]
    assert ending_in_1 == [(3, 2, 1)]


def test_walked_avoiders_agree_with_counts():
    for text in ("312,123:312", "231,1432:231", "312:312:312"):
        chain = parse_chain(text)
        walked = list(walk_chain_avoiders(7, chain))
        assert len(set(walked)) == len(walked), text
        for n in range(1, 8):
            assert sum(len(w) == n for w in walked) == count_chain(n, chain).total, (text, n)


# Three-level chains and their reverse complements, whose trees do not
# prune, and a chain of one level.
WALKED_CHAINS = [
    chain
    for text in ("13245:2143:312", "23415:3241:312", "45312:3421:123", "312:312:312")
    for chain in (parse_chain(text), parse_chain(text).reverse_complement())
] + [parse_chain("2413")]


def test_walk_yields_exactly_the_chain_avoiders():
    words = [w for n in range(8) for w in all_words(n)]
    for chain in WALKED_CHAINS:
        levels = chain.levels
        walked = list(walk_chain_avoiders(7, chain))
        assert len(set(walked)) == len(walked), chain
        assert set(walked) == {w for w in words if scan_chain_avoids(w, levels)}, chain
        # A walk to n <= 3 grows leaves of size n from roots below the
        # sizes its shards count.
        for n in (1, 2, 3):
            enumeration._COUNTS.clear()
            ref = count_chain(n, chain)
            assert (ref.total, ref.by_position_of_one) == scan_count_chain(n, levels), (chain, n)


def test_shards_start_from_nodes_that_fail_the_deeper_levels(monkeypatch):
    # At n = 7 each shard starts from a level-1 node of size 3.  Some of
    # them fail the deeper levels of this chain (the cube of 123 is 123)
    # and still have descendants that are chain avoiders.
    chain = parse_chain("45312:3421:123")
    levels = chain.levels
    n, half = 7, 3
    roots = [w for w in walk_chain_avoiders(half, ChainSpec(chain.levels[:1])) if len(w) == half]
    grown = {
        tuple(v for v in w if v <= half)
        for m in range(half + 1, n + 1)
        for w in all_words(m)
        if scan_chain_avoids(w, levels)
    }
    assert [r for r in roots if r in grown and not scan_chain_avoids(r, levels)]
    expected = [scan_count_chain(m, levels) for m in range(1, n + 1)]
    count_chain(n, chain)
    assert [(r.total, r.by_position_of_one) for r in enumeration._COUNTS[chain]] == expected
    monkeypatch.setattr(enumeration, "MIN_POOL_FRONTIER", 1)
    opened = spy_on_pools(monkeypatch)
    enumeration._COUNTS.clear()
    count_chain(n, chain, jobs=2)
    assert [(r.total, r.by_position_of_one) for r in enumeration._COUNTS[chain]] == expected
    if enumeration._pool_size(2, len(roots)) > 1:
        assert opened == [2]


def test_walk_chain_avoiders_size_bound():
    with pytest.raises(ValueError, match="force"):
        walk_chain_avoiders(MAX_ENUMERATION_N + 1, parse_chain("312:312"))
    with pytest.raises(ValueError):
        walk_chain_avoiders(-1, parse_chain("312:312"))


def test_count_refinement_validation():
    chain = parse_chain("312:312")
    with pytest.raises(ValueError, match=">= 0"):
        CountRefinement(chain, (1, -1))
    # n and total follow from the split; the empty word is the one avoider
    # of size 0.
    ref = CountRefinement(chain, (2, 1, 2))
    assert (ref.n, ref.total) == (3, 5)
    assert CountRefinement(chain, ()).n == 0
    assert CountRefinement(chain, ()).total == 1
