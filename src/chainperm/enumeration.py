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
are checked on the leaves alone.

Large trees are counted in a process pool, one shard per tree node at
the middle depth.  Shard results are merged by summation, so totals are
identical for every worker count.  Sizes are capped at MAX_ENUMERATION_N
unless the caller forces past it.
"""

import itertools
import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Iterable, Iterator

from .chains import ChainSpec, PreparedLevels, _avoids_prepared, _prepare_levels, _scratch_for
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
    nodes: Iterable[tuple[int, ...]], n: int, prepared: PreparedLevels, scratch: list[int]
) -> Iterator[tuple[int, ...]]:
    """The level-1 avoiders of size n below the given tree nodes, which
    must themselves avoid level 1 and have size at most n.  A child is
    built only at the slots that every length-3 rule leaves free."""
    rules = [rule.free_slots for *_, rule in prepared[0] if rule is not None]
    searched = [(k, top, bounds) for k, top, bounds, rule in prepared[0] if rule is None]
    stack = list(nodes)
    while stack:
        word = stack.pop()
        size = len(word) + 1
        if size > n:
            yield word
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


def _leaves(
    n: int, prepared: PreparedLevels, nodes: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The chain avoiders of size n below the given level-1 tree nodes."""
    scratch = _scratch_for(prepared)
    for word in _grow(nodes, n, prepared, scratch):
        if _avoids_prepared(word, prepared, scratch, 1):
            yield word


def _count_below(
    n: int, prepared: PreparedLevels, nodes: Iterable[tuple[int, ...]]
) -> tuple[int, list[int]]:
    total = 0
    by_pos = [0] * n
    for word in _leaves(n, prepared, nodes):
        total += 1
        by_pos[word.index(1)] += 1
    return total, by_pos


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


def count_chain(
    n: int, chain: ChainSpec, *, jobs: int = 1, force: bool = False
) -> CountRefinement:
    """Count the chain avoiders in S_n by walking the level-1 generating tree.

    jobs > 1 allows a process pool for large trees (see MIN_POOL_FRONTIER).
    Results do not depend on the worker count.
    """
    _check_size(n, force)
    if n == 0:
        return CountRefinement(0, chain, 1, ())
    prepared = _prepare_levels(chain.level_values())
    frontier = list(_grow([()], n // 2, prepared, _scratch_for(prepared)))
    workers = _pool_size(jobs, len(frontier)) if len(frontier) >= MIN_POOL_FRONTIER else 1
    if workers == 1:
        total, by_pos = _count_below(n, prepared, frontier)
    else:
        tasks = [(n, prepared, (node,)) for node in frontier]
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
        total = sum(t for t, _ in shards)
        by_pos = [sum(col) for col in zip(*(b for _, b in shards))]
    return CountRefinement(n, chain, total, tuple(by_pos))


def count_sequence(
    chain: ChainSpec, n_max: int, *, jobs: int = 1, force: bool = False
) -> list[int]:
    """Totals of count_chain for n = 1, ..., n_max."""
    _check_size(n_max, force)
    return [count_chain(n, chain, jobs=jobs, force=force).total for n in range(1, n_max + 1)]


def list_chain_avoiders(
    n: int, chain: ChainSpec, *, force: bool = False
) -> Iterator[Permutation]:
    """Stream the chain avoiders of S_n in lexicographic order.

    The tree does not reach the words in that order, so all avoiders are
    found and sorted before the first is yielded.
    """
    _check_size(n, force)
    prepared = _prepare_levels(chain.level_values())

    def gen() -> Iterator[Permutation]:
        for word in sorted(_leaves(n, prepared, [()])):
            yield Permutation(word)

    return gen()
