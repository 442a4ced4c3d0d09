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
the pinned search runs only for longer patterns, and only on those
slots.  Deeper levels are not closed under deleting the maximum, so they
are checked on every node the walk reaches.  The nodes at depth m are
exactly the level-1 avoiders of size m, so one walk to n counts every
size up to n; count_chain keeps those counts per chain for the life of
the process, and walk_chain_avoiders streams the words of every size.

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
from typing import Iterable, Iterator

from .chains import ChainSpec, PreparedLevels, _avoids_prepared, _prepared_chain, _scratch_for
from .patterns import _match_pinned
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


def _grow(
    nodes: Iterable[tuple[int, ...]], lo: int, n: int, prepared: PreparedLevels, scratch: list[int]
) -> Iterator[tuple[int, ...]]:
    """The level-1 avoiders of every size from lo to n in and below the
    given tree nodes, which must themselves avoid level 1 and have size at
    most n; each word comes before the words grown from it.  A child is
    built only at the slots that every length-3 rule leaves free."""
    rules = [rule.free_slots for *_, rule in prepared[0] if rule is not None]
    searched = [(k, top, bounds) for k, top, bounds, rule in prepared[0] if rule is None]
    stack = list(nodes)
    while stack:
        word = stack.pop()
        size = len(word) + 1
        if size > lo:
            yield word
        if size > n:
            continue
        free = range(size)
        for free_slots in rules:
            free = [i for i in free_slots(word) if i in free]
        live = [pat for pat in searched if pat[0] <= size]
        for i in free:
            child = word[:i] + (size,) + word[i:]
            for k, top, bounds in live:
                if _match_pinned(child, bounds, scratch, 0, 0, size, k, top, i):
                    break
            else:
                stack.append(child)


def _avoiders(
    lo: int, n: int, prepared: PreparedLevels, nodes: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The chain avoiders of every size from lo to n in and below the given
    level-1 tree nodes, in the order of _grow."""
    scratch = _scratch_for(prepared)
    for word in _grow(nodes, lo, n, prepared, scratch):
        if _avoids_prepared(word, prepared, scratch, 1):
            yield word


def _split(lo: int, n: int, words: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """The given words of sizes lo to n, counted for each size by the
    position of 1."""
    splits = [[0] * size for size in range(lo, n + 1)]
    for word in words:
        splits[len(word) - lo][word.index(1)] += 1
    return splits


def _count_below(
    lo: int, n: int, prepared: PreparedLevels, nodes: Iterable[tuple[int, ...]]
) -> list[list[int]]:
    """One shard: the split of the chain avoiders of each size from lo to n
    below the given level-1 tree nodes."""
    return _split(lo, n, _avoiders(lo, n, prepared, nodes))


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
# keeps 312 or 231 at level 1, so it has at most Catalan(4) = 14 middle nodes
# for n <= 9 and counts there never open a pool.
MIN_POOL_FRONTIER = 20


def _pool_size(jobs: int, shards: int) -> int:
    """Workers for a pool: never more than asked for, than there are
    shards to run, or than the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, shards, cpus))


def _walk(n: int, prepared: PreparedLevels, jobs: int) -> list[list[int]]:
    """The split by the position of 1 for every size 1 to n, from one walk
    of the level-1 tree.  The parent counts the sizes up to the middle
    depth n // 2 while it grows the nodes there; below each of those
    nodes, a shard counts the deeper sizes."""
    half = n // 2
    scratch = _scratch_for(prepared)
    top = list(_grow([()], 1, half, prepared, scratch))
    frontier = [word for word in top if len(word) == half] if half else [()]
    splits = _split(1, half, (w for w in top if _avoids_prepared(w, prepared, scratch, 1)))
    workers = _pool_size(jobs, len(frontier)) if len(frontier) >= MIN_POOL_FRONTIER else 1
    if workers == 1:
        shards = [_count_below(half + 1, n, prepared, frontier)]
    else:
        # Imported only where a pool opens, so that the many runs that open
        # none do not pay for the import.
        import multiprocessing

        tasks = [(half + 1, n, prepared, (node,)) for node in frontier]
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
    """Count the chain avoiders in S_n by walking the level-1 generating tree.

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
        splits = _walk(n, _prepared_chain(chain.level_values()), jobs)
        counts = tuple(
            CountRefinement(size, chain, sum(split), tuple(split))
            for size, split in enumerate(splits, start=1)
        )
        _COUNTS[chain] = counts
    return counts[n - 1]


def count_sequence(
    chain: ChainSpec, n_max: int, *, jobs: int = 1, force: bool = False
) -> list[int]:
    """Totals of count_chain for n = 1, ..., n_max, from one walk."""
    count_chain(n_max, chain, jobs=jobs, force=force)
    return [ref.total for ref in _COUNTS.get(chain, ())[:n_max]]


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
    return _avoiders(0, n, _prepared_chain(chain.level_values()), [()])


def list_chain_avoiders(
    n: int, chain: ChainSpec, *, force: bool = False
) -> Iterator[Permutation]:
    """Stream the chain avoiders of S_n in lexicographic order.

    The tree does not reach the words in that order, so all avoiders are
    found and sorted before the first is yielded.
    """
    _check_size(n, force)
    prepared = _prepared_chain(chain.level_values())

    def gen() -> Iterator[Permutation]:
        for word in sorted(_avoiders(n, n, prepared, [()])):
            yield Permutation(word)

    return gen()
