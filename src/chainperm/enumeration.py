"""Enumeration of chain avoiders by a generating tree.

Deleting the largest entry of a word that avoids the level-1 patterns
leaves a word that still avoids them.  So every level-1 avoider of size
n grows from exactly one level-1 avoider of size n - 1 by inserting n
into one of its n slots: the avoiders form a generating tree (J. West,
Generating trees and the Catalan and Schroder numbers, Discrete Math.
146, 1995), walked here depth first.  A child is kept when no level-1
occurrence passes through the inserted maximum, the only kind it can
add.  For a pattern of length 3 one O(n) pass over the node gives the
slots where that holds, its active sites (see patterns.Length3Rule);
the compiled pinned search of patterns._matcher runs only for longer
patterns, and only on those slots.  One walk to n counts every size up
to n; count_chain keeps those counts per chain for the life of the
process, and walk_chain_avoiders streams the words of every size.

Deeper levels are in general not closed under deleting the maximum, so
for most chains they are checked on every node the walk reaches, and
the nodes at depth m are the level-1 avoiders of size m.  Those checks
run in order of cost, not of level (see chains._avoids_prepared): first
the length-3 rules, each one O(n) pass at whatever level it sits, then
the compiled searches, shortest pattern first.  For a chain such as
13245:2143:312 the rule on the cube rejects most nodes, and the search
for 2143 in the square runs only on the rest.  A power is built only
when a check first needs it.  The chains of the paper are the
exception.  A chain whose tree prunes at level 2 has
exactly two levels, and either its second level is exactly 312 and its
first contains 312, or the same with 231.  Every such avoider is a
strong 312 (or 231) avoider: it and its square avoid the pattern.
Deleting the maximum of a strong 312 avoider leaves a strong 312
avoider, and deleting the minimum of a strong 231 avoider leaves a
strong 231 avoider.  So the tree of the 312 side inserts the maximum,
the tree of the 231 side inserts the minimum (the other values shift up
by one), each child is checked at level 2 before it is pushed, and the
nodes at depth m are exactly the chain avoiders of size m.

Proof that a strong 312 avoider pi of size n stays strong when n is
deleted (U(s, k) is the word (k+1)(k+2)...s k(k-1)...1):

1. In Av(312) every entry before the 1 lies below every entry after it,
   or c, 1, b would be a 312.  So pi = rho_1 + ... + rho_r, a direct sum
   of blocks that each end in their own minimum.  The square of a direct
   sum is the direct sum of the squares, and 312 is sum-indecomposable,
   so pi is strong exactly when each block is strong; n lies in the
   last block.
2. Let rho be a strong block of size s >= 2 that ends in 1, and let
   a = rho(1).  Then rho = U(s, a - 1) = a (a+1) ... s (a-1) ... 1 with
   a - 1 >= s/2:
   - The values below a appear in decreasing order in rho, or a would
     start a 312.
   - rho^2 ends in rho(1) = a, so rho^2 puts all its values below a
     first (a larger one before a smaller one would start a 312 that a
     ends).  So rho maps the positions 1..a-1 onto the set D of
     positions that hold values below a.
   - s is in D, so the value s sits before position a.  a is in D, so
     position a holds a value below a.  Everything after s decreases,
     or s would start a 312.  So rho(a..s) = s-a+1, ..., 1.
   - rho^2(a..s-1) > a, since position s of rho^2 holds a and the
     positions before a hold the smaller values.  Those positions map
     under rho to 2..s-a+1, which forces rho(2..s-a+1) to be exactly
     the values above a.
   - rho^2(1) = rho(a) = s+1-a is larger than each
     rho^2(y) = s+1-rho(y) for y in 2..s-a+1.  Those must therefore
     decrease, so rho(2..s-a+1) increases.
   The values below a fill the rest in decreasing order, and since s
   sits at position s-a+1 < a, a - 1 >= s/2.
3. The square of U(s, k) with k >= s/2 is delta + id + delta, where
   delta is decreasing, and that avoids 312.  U(s, k) minus s is
   U(s-1, min(k, s-1)), which is still admissible.  So the last block
   of pi minus n is strong, and by step 1 so is pi minus n.

Reverse complement commutes with powers, maps 312 to 231 and turns
deleting the maximum into deleting the minimum, which gives the 231
side.  A chain of the paper avoids its level-1 patterns, which any
deletion keeps, and is strong, which the deletion of the extreme keeps.
The proof covers squares only: nothing is claimed for cubes and higher
powers, so three-level chains such as 312:312:312 stay on the level-1
tree, with every deeper level checked on every node.

Large trees are counted in a process pool.  The parent counts the sizes
up to the middle depth n // 2 while it grows the nodes there, and each
of those nodes is one shard, which counts the deeper sizes below it.
Shard results are merged by summation, so counts are identical for every
worker count.  Sizes are capped at MAX_ENUMERATION_N unless the caller
forces past it.
"""

import itertools
import os
import signal
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

from .chains import ChainSpec, Check, LevelValues, PreparedChain, _avoids_prepared, _prepared_chain
from .patterns import Matcher, _complement, _length3_rule, _matcher
from .perm import Permutation

MAX_ENUMERATION_N = 14


def _check_size(n: int, force: bool) -> None:
    if n < 0:
        raise ValueError("size must be >= 0")
    if n > MAX_ENUMERATION_N and not force:
        raise ValueError(
            f"n={n} is above the supported enumeration bound "
            f"{MAX_ENUMERATION_N}; pass force=True (CLI: --force) to run anyway"
        )


def generate_sn(n: int, *, force: bool = False) -> Iterator[Permutation]:
    """Stream the whole symmetric group in lexicographic order.

    >>> [str(p) for p in generate_sn(3)]
    ['123', '132', '213', '231', '312', '321']
    """
    _check_size(n, force)

    def gen() -> Iterator[Permutation]:
        for word in itertools.permutations(range(1, n + 1)):
            yield Permutation(word)

    return gen()


@dataclass(frozen=True)
class CountRefinement:
    """A chain-avoider count together with its split by the position of 1.

    by_position_of_one[i - 1] counts the avoiders whose value 1 sits at
    position i, so the entries add up to the total (the split is empty
    only for n = 0, where no position holds a 1).
    """

    n: int
    chain: ChainSpec
    total: int
    by_position_of_one: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_position_of_one", tuple(self.by_position_of_one))
        if len(self.by_position_of_one) != (self.n if self.n else 0):
            raise ValueError("refinement vector must have one entry per position")
        if any(c < 0 for c in self.by_position_of_one):
            raise ValueError("refinement entries must be >= 0")
        if self.n >= 1 and self.total != sum(self.by_position_of_one):
            raise ValueError("refinement entries must add up to the total")


def _pruned_square(prepared: PreparedChain) -> tuple[int, ...] | None:
    """312 or 231 when the chain's tree prunes at level 2 (see the module
    docstring): the chain has exactly two levels, the second is that
    pattern alone and the first contains it.  None for every other chain."""
    levels = prepared.levels
    if len(levels) != 2 or len(levels[1]) != 1:
        return None
    square = levels[1][0][0]
    if square in ((3, 1, 2), (2, 3, 1)) and any(p == square for p, _, _ in levels[0]):
        return square
    return None


def _grow(
    nodes: Iterable[tuple[int, ...]], lo: int, n: int, prepared: PreparedChain
) -> Iterator[tuple[int, ...]]:
    """The tree nodes of every size from lo to n in and below the given
    nodes, which must themselves be tree nodes of size at most n; each
    word comes before the words grown from it.  A child is built only at
    the slots that every length-3 rule leaves free.

    The nodes are the level-1 avoiders, grown by inserting the maximum,
    unless the tree prunes at level 2.  Then they are the chain avoiders,
    and the 231 side inserts the minimum: its level-1 patterns are decided
    on the complement of the word, where the minimum is the maximum."""
    square = _pruned_square(prepared)
    minimum = square == (2, 3, 1)
    level1 = [tuple(_complement(p)) if minimum else p for p, _, _ in prepared.levels[0]]
    rules = [rule.free_slots for rule in map(_length3_rule, level1) if rule is not None]
    rejects = [_matcher(p, pinned=True) for p in level1 if len(p) != 3]
    if minimum:
        rejects = [partial(_through_minimum, match) for match in rejects]
    if square is not None:
        rejects.append(partial(_square_contains, prepared.deeper))
    stack = list(nodes)
    while stack:
        word = stack.pop()
        size = len(word) + 1
        if size > lo:
            yield word
        if size > n:
            continue
        if minimum:
            seen = tuple(map(size.__sub__, word))
            word, new = tuple(map((1).__add__, word)), (1,)
        else:
            seen, new = word, (size,)
        free = range(size)
        for free_slots in rules:
            free = [i for i in free_slots(seen) if i in free]
        for i in free:
            child = word[:i] + new + word[i:]
            for reject in rejects:
                if reject(child, i):
                    break
            else:
                stack.append(child)


def _through_minimum(match: Matcher, word: tuple[int, ...], i: int) -> bool:
    """A pinned search of a complemented pattern, run on the complement of
    the word, where the minimum inserted at index i is the maximum."""
    return match(tuple(_complement(word)), i) is not None


def _square_contains(deeper: tuple[Check, ...], word: tuple[int, ...], i: int) -> bool:
    """True when the square of the word contains level 2 of the chain, the
    one level the deeper checks of a pruned chain hold.  It takes the slot
    i of the inserted entry, as the pinned searches do, and does not need
    it."""
    return not _avoids_prepared(word, deeper)


def _avoiders(
    words: Iterable[tuple[int, ...]], prepared: PreparedChain
) -> Iterable[tuple[int, ...]]:
    """The chain avoiders among the given nodes of the chain's tree, in
    their order: all of them when the tree prunes at level 2."""
    if _pruned_square(prepared) is not None:
        return words
    deeper = prepared.deeper
    return (word for word in words if _avoids_prepared(word, deeper))


def _split(lo: int, n: int, words: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """The given words of sizes lo to n, counted for each size by the
    position of 1."""
    splits = [[0] * size for size in range(lo, n + 1)]
    for word in words:
        splits[len(word) - lo][word.index(1)] += 1
    return splits


def _count_below(
    lo: int, n: int, level_values: LevelValues, nodes: Iterable[tuple[int, ...]]
) -> list[list[int]]:
    """One shard: the split of the chain avoiders of each size from lo to n
    below the given tree nodes.  A shard names its chain by its
    patterns, since the compiled searches of its prepared form do not
    pickle; a forked worker finds that form in the cache it inherits."""
    prepared = _prepared_chain(level_values)
    return _split(lo, n, _avoiders(_grow(nodes, lo, n, prepared), prepared))


# A pool runs only when the tree has at least this many nodes at its middle
# depth (n // 2), one shard each.  Starting a 2-worker fork pool costs about
# 10 ms, and shards are uneven, so two workers pay off only once the serial
# count takes well over 30 ms.  Measured on a 2-core x86-64 host (Python
# 3.11), serial against 2 workers, medians of 7 alternating runs: Av(312) at
# n = 9 has 14 middle nodes and takes 7 ms against 15 ms; at n = 10 it has 42
# and takes 24 ms against 26 to 30 ms; at n = 11, still 42, it takes 84 ms
# against 71 ms; S_8 (a level-1 pattern longer than 8 prunes nothing) has 24
# and takes 32 ms against 28 to 31 ms.  The middle depth cannot tell n = 10
# from n = 11, and the bound still sits between 14 and 24.  Every table chain
# keeps 312 or 231 at level 1, and a pruned tree holds only some of the
# level-1 avoiders, so pruned or not its tree has at most Catalan(4) = 14
# middle nodes for n <= 9 and counts there never open a pool.
MIN_POOL_FRONTIER = 20


def _pool_size(jobs: int, shards: int) -> int:
    """Workers for a pool: never more than asked for, than there are
    shards to run, or than the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, shards, cpus))


def _walk(n: int, level_values: LevelValues, jobs: int) -> list[list[int]]:
    """The split by the position of 1 for every size 1 to n, from one walk
    of the chain's tree.  The parent counts the sizes up to the middle
    depth n // 2 while it grows the nodes there; below each of those
    nodes, a shard counts the deeper sizes."""
    half = n // 2
    prepared = _prepared_chain(level_values)
    top = list(_grow([()], 1, half, prepared))
    frontier = [word for word in top if len(word) == half] if half else [()]
    splits = _split(1, half, _avoiders(top, prepared))
    workers = _pool_size(jobs, len(frontier)) if len(frontier) >= MIN_POOL_FRONTIER else 1
    if workers == 1:
        shards = [_count_below(half + 1, n, level_values, frontier)]
    else:
        # Imported only where a pool opens, so that the many runs that open
        # none do not pay for the import.
        import multiprocessing

        tasks = [(half + 1, n, level_values, (node,)) for node in frontier]
        # Workers start with SIGINT blocked and keep it blocked, so Ctrl-C
        # interrupts only this process, whose leaving the with block
        # terminates them.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pool = multiprocessing.Pool(workers)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with pool:
            shards = pool.starmap(_count_below, tasks)
    return splits + [[sum(col) for col in zip(*sizes)] for sizes in zip(*shards)]


# The counts of every chain walked in this process, for sizes 1 to the
# largest n it was walked to (see count_chain).
_COUNTS: dict[ChainSpec, tuple[CountRefinement, ...]] = {}


def count_chain(
    n: int, chain: ChainSpec, *, jobs: int = 1, force: bool = False
) -> CountRefinement:
    """Count the chain avoiders in S_n by walking the chain's generating tree.

    One walk to n counts every size from 1 to n, and those counts are kept
    per chain for the life of the process: a later call for a size up to
    n is a lookup, and one for a larger size walks again and replaces
    them.  jobs > 1 allows a process pool for large trees (see
    MIN_POOL_FRONTIER).  Results do not depend on the worker count.
    """
    _check_size(n, force)
    if n == 0:
        return CountRefinement(0, chain, 1, ())
    counts = _COUNTS.get(chain, ())
    if len(counts) < n:
        splits = _walk(n, chain.level_values(), jobs)
        counts = tuple(
            CountRefinement(size, chain, sum(split), tuple(split))
            for size, split in enumerate(splits, start=1)
        )
        _COUNTS[chain] = counts
    return counts[n - 1]


def walk_chain_avoiders(
    n: int, chain: ChainSpec, *, force: bool = False
) -> Iterator[tuple[int, ...]]:
    """Stream the chain avoiders of every size 0, ..., n as raw words, in
    the order one walk of the generating tree reaches them: sizes are
    interleaved, and each word comes after the word it grew from.

    >>> from .chains import parse_chain
    >>> sorted(walk_chain_avoiders(3, parse_chain("312:312")))
    [(), (1,), (1, 2), (1, 2, 3), (1, 3, 2), (2, 1), (2, 1, 3), (3, 2, 1)]
    """
    _check_size(n, force)
    prepared = _prepared_chain(chain.level_values())
    return _avoiders(_grow([()], 0, n, prepared), prepared)

