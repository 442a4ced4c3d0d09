"""Exhaustive counting: base cases, refinement, sharding, size bound."""

import importlib.util
import itertools
import multiprocessing
import os
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chainperm import (
    ChainSpec,
    CountRefinement,
    MAX_ENUMERATION_N,
    Pattern,
    Permutation,
    avoids,
    chain_avoids,
    count_chain,
    evaluate,
    formula_by_tag,
    formula_table,
    generate_sn,
    parse_chain,
    strongly_avoids,
)
from chainperm.chains import _chain_predicate
from chainperm.enumeration import walk_chain_avoiders
from chainperm import enumeration
from helpers import (
    all_words,
    inverse_word,
    power_word,
    scan_chain_avoids,
    scan_contains,
    scan_count_chain,
)
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
    """The totals for sizes 1 to n_max, from one count to n_max."""
    count_chain(n_max, chain)
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
    assert next(stream) == Permutation(tuple(range(1, MAX_ENUMERATION_N + 2)))


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


def test_block_counts_match_the_level1_walk_for_every_short_sigma():
    # Every strong chain (square, sigma : square) with |sigma| <= 5, on both
    # sides: 306 chains counted over blocks against the tree that does not
    # prune, so the automaton's component reading meets far more patterns
    # than the table's.
    n = 8
    for square in ((3, 1, 2), (2, 3, 1)):
        for k in range(1, 6):
            for sigma in itertools.permutations(range(1, k + 1)):
                chain = ChainSpec(((square, sigma), (square,)))
                assert enumeration._strong_side(chain.levels) is (square == (3, 1, 2))
                count_chain(n, chain)
                got = [(ref.total, ref.by_position_of_one) for ref in enumeration._COUNTS[chain]]
                assert got == splits_by_size(level1_walk(chain, n), n), chain


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
    assert side("312:312,312") is True
    assert side("231:231,231") is False
    assert side("312,3214:312,312") is True
    for text in (
        "312:312:312", "231:231:231", "312", "312:123", "312:231", "231:312",
        "123:312", "312:312,123", "3124:312", "13245:2143:312",
    ):
        assert side(text) is None, text


def test_a_square_listed_twice_counts_over_blocks(root_walks, block_counts):
    # Listing the square's pattern twice names the same set of patterns, so
    # the chain prunes like the one without the duplicate: one count over
    # blocks, no tree, and the same counts and splits.
    n = 13
    for text, plain in (
        ("312:312,312", "312:312"),
        ("231:231,231", "231:231"),
        ("312,3214:312,312", "312,3214:312"),
    ):
        block_counts.clear()
        count_chain(n, parse_chain(text))
        assert len(block_counts) == 1, text
        count_chain(n, parse_chain(plain))
        got, want = (
            [(ref.total, ref.by_position_of_one) for ref in enumeration._COUNTS[parse_chain(t)]]
            for t in (text, plain)
        )
        assert got == want, text
    assert root_walks == []


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


def direct_sum_blocks(word):
    """The blocks of word's direct-sum decomposition, each shifted down to
    the values 1..s: a block ends where the first i entries are 1..i."""
    blocks, start, top = [], 0, 0
    for i, v in enumerate(word, 1):
        top = max(top, v)
        if top == i:
            blocks.append(tuple(u - start for u in word[start:i]))
            start = i
    return blocks


def test_strong_avoiders_are_exactly_the_sums_of_the_lemma_blocks():
    # The block lemma of enumeration.py, word by word, on the level-1 tree,
    # which assumes no step of its proof: every block of a strong 312
    # avoider is the point or U(s, k) = (k+1)...s k...1, of a strong 231
    # avoider the point or V(s, k) = s...(s-k+1) 1...(s-k), with
    # ceil(s/2) <= k <= s - 1, and the direct sums of those blocks are all
    # the strong avoiders.
    n = 11

    def u(s, k):
        return tuple(range(k + 1, s + 1)) + tuple(range(k, 0, -1))

    def v(s, k):
        return tuple(range(s, s - k, -1)) + tuple(range(1, s - k + 1))

    for side, block in (("312", u), ("231", v)):
        allowed = {(1,)} | {block(s, k) for s in range(2, n + 1) for k in range((s + 1) // 2, s)}
        walked = set(level1_walk(parse_chain(f"{side}:{side}"), n)) - {()}
        for word in walked:
            assert set(direct_sum_blocks(word)) <= allowed, (side, word)
        sums = [{()}]
        for m in range(1, n + 1):
            sums.append({
                head + tuple(x + m - len(b) for x in b)
                for b in allowed
                if len(b) <= m
                for head in sums[m - len(b)]
            })
        assert set().union(*sums[1:]) == walked, side


def test_power_lemma_on_the_blocks_and_the_strong_avoiders():
    # Every block U(s, k) = id_a - delta_b of a strong 312 avoider, with
    # a = s - k and b = k, has beta^2 = delta_a + id_(b-a) + delta_a,
    # beta^3 = delta_b - id_a and beta^4 = id, so every strong 312 or 231
    # avoider pi, a direct sum of such blocks or of their reverse
    # complements, has pi^4 = id.  The words are built here, and the
    # avoiders found on the level-1 tree, which assumes no step of the proof.
    for s in range(2, 40):
        for k in range((s + 1) // 2, s):
            a, b = s - k, k
            beta = tuple(range(b + 1, s + 1)) + tuple(range(b, 0, -1))
            assert power_word(beta, 2) == (
                tuple(range(a, 0, -1)) + tuple(range(a + 1, b + 1)) + tuple(range(s, b, -1))
            ), (s, k)
            assert power_word(beta, 3) == tuple(range(s, a, -1)) + tuple(range(1, a + 1)), (s, k)
            assert power_word(beta, 4) == tuple(range(1, s + 1)), (s, k)
    n = 11
    walked = [w for side in ("312", "231") for w in level1_walk(parse_chain(f"{side}:{side}"), n)]
    assert len(walked) == 2 + 2 * 3391  # the empty word and sizes 1 to 11, on each side
    for word in walked:
        assert power_word(word, 4) == tuple(range(1, len(word) + 1)), word


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


def test_automaton_keeps_exactly_the_patterns_strong_avoiders_contain():
    # The automaton drops a level-1 pattern with a component that fits in
    # no block, so its start state has one coordinate for sigma exactly
    # when some strong avoider contains sigma.  The avoiders of size <= 8
    # are filtered from all words, not walked, and every pattern of length
    # <= 5 fits in one of them when it fits in a sum of blocks at all.
    # 2431 and 3241 avoid 312 but are one component of no block form, so
    # they are dropped on the 312 side, and their reverse complements 4213
    # and 4132 on the 231 side.
    for square, dropped in (
        ((3, 1, 2), [(2, 4, 3, 1), (3, 2, 4, 1)]),
        ((2, 3, 1), [(4, 2, 1, 3), (4, 1, 3, 2)]),
    ):
        tau = Pattern(square)
        contained = set()
        for n in range(9):
            for word in itertools.permutations(range(1, n + 1)):
                if strongly_avoids(Permutation(word), tau):
                    for k in range(1, min(n, 5) + 1):
                        for sub in itertools.combinations(word, k):
                            ranks = sorted(sub)
                            contained.add(tuple(ranks.index(v) + 1 for v in sub))
        kept = set()
        for k in range(1, 6):
            for sigma in itertools.permutations(range(1, k + 1)):
                _, moves = enumeration._automaton((square, sigma), square == (3, 1, 2))
                if len(next(iter(moves))) == 1:
                    kept.add(sigma)
        assert kept == contained, square
        assert len(kept) == 48
        assert all(avoids(Permutation(sigma), tau) for sigma in dropped)
        assert not kept.intersection(dropped)


def inverse_chain(chain):
    """The chain with every pattern replaced by its inverse."""
    return ChainSpec(map(inverse_word, level) for level in chain.levels)


def test_inverse_chains_have_equal_counts(root_walks, block_counts):
    # pi satisfies a chain exactly when its inverse satisfies the inverse
    # chain: inverse commutes with powers, (pi^k)^-1 = (pi^-1)^k, and
    # transposing both diagrams maps each occurrence of tau in a word to
    # one of tau^-1 in the inverse word.  312^-1 = 231, so the inverse of
    # a table chain is a strong chain of the other side, counted over
    # blocks, and six of them lie outside the table.
    n = 60
    for chain in TABLE_CHAINS:
        inverse = inverse_chain(chain)
        for c in (chain, inverse):
            count_chain(n, c, force=True)
        got, want = ([ref.total for ref in enumeration._COUNTS[c]] for c in (inverse, chain))
        assert got == want, chain
    outside = {inverse_chain(c).text() for c in TABLE_CHAINS} - {c.text() for c in TABLE_CHAINS}
    assert len(block_counts) == len(TABLE_CHAINS) + len(outside)
    assert root_walks == []
    assert outside == {
        "312,1432:312", "231,3214:231", "312,1342:312",
        "231,3124:231", "312,1243:312", "231,2134:231",
    }
    t33, t35 = formula_by_tag("T33"), formula_by_tag("T35")
    assert {inverse_chain(t33.chain_231), inverse_chain(t33.chain_312)} == {
        t35.chain_231, t35.chain_312
    }


def test_random_inverse_chains_match_the_scan_oracle():
    # Seeded chains of 1 to 3 levels with patterns of length 2 to 4, few of
    # which prune, against the scan oracle on the inverse chain.
    rng = random.Random(1)
    n = 6
    for _ in range(40):
        chain = ChainSpec(
            [rng.sample(range(1, k + 1), k) for k in rng.choices((2, 3, 4), k=rng.randint(1, 2))]
            for _ in range(rng.randint(1, 3))
        )
        inverse = inverse_chain(chain)
        assert totals(chain, n) == totals(inverse, n), chain
        assert totals(inverse, n) == [scan_count_chain(m, inverse.levels)[0] for m in range(1, n + 1)], chain


def symmetry_orbit(chain):
    """The chain, its reverse complement, its inverse and the inverse's
    reverse complement: the four chains whose avoiders are the images of
    one chain's avoiders under the symmetries that commute with powers."""
    inverse = inverse_chain(chain)
    return (chain, chain.reverse_complement(), inverse, inverse.reverse_complement())


def load_deep_pool():
    """The deep chains that the benchmark's deep-chains workload draws from."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.DEEP_POOL


def test_deep_chains_have_equal_totals_across_their_symmetry_orbit(block_counts):
    # The tree path past the oracle's reach, with no oracle: the four chains
    # of an orbit walk four different trees, with other kernels and other
    # compiled searches, so equal totals at every size check them against
    # each other.  Totals only: the inverse's split by the position of 1 is
    # the original's split by its first entry, another statistic.
    for text in random.Random(1).sample(load_deep_pool(), 6):
        orbit = symmetry_orbit(parse_chain(text))
        assert len({tuple(totals(chain, 8)) for chain in orbit}) == 1, text
    assert block_counts == []


@settings(max_examples=25, deadline=None)
@given(chain_levels)
def test_random_chains_have_equal_totals_across_their_symmetry_orbit(levels):
    orbit = symmetry_orbit(ChainSpec(levels))
    assert len({tuple(totals(chain, 7)) for chain in orbit}) == 1


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
    # Without CPU affinity the count of CPUs caps the pool, and an unknown
    # count is taken as one.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert enumeration._pool_size(5000, 10**6) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
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


def test_sizes_must_be_integers():
    # Any size that is not an integer raises one TypeError before any
    # work, whether or not the chain's counts are kept, on both counting
    # paths; an integer of another type is read as the int it stands for.
    not_an_integer = "cannot be interpreted as an integer"
    for n in (2.0, 2.5):
        with pytest.raises(TypeError, match=not_an_integer):
            generate_sn(n)
    for chain in (parse_chain("312:312"), parse_chain("321:21")):
        for n in (2.0, 2.5):
            for call in (count_chain, walk_chain_avoiders):
                with pytest.raises(TypeError, match=not_an_integer):
                    call(n, chain)
        count_chain(3, chain)
        with pytest.raises(TypeError, match=not_an_integer):
            count_chain(2.0, chain)
        assert count_chain(True, chain) == count_chain(1, chain)
        assert list(walk_chain_avoiders(True, chain)) == [(), (1,)]


def test_count_chain_refuses_fewer_than_one_job():
    for jobs in (0, -1):
        for n in (0, 3):
            with pytest.raises(ValueError, match=r"^jobs must be >= 1$"):
                count_chain(n, parse_chain("321:21"), jobs=jobs)


def test_count_refinement_stores_integer_entries_as_ints():
    chain = parse_chain("312:312")
    ref = CountRefinement(chain, [2, True])
    assert ref.by_position_of_one == (2, 1)
    assert [type(entry) for entry in ref.by_position_of_one] == [int, int]
    for entries in ([1.5, True], [2.0]):
        with pytest.raises(TypeError):
            CountRefinement(chain, entries)


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
