"""Enumeration of chain avoiders by a generating tree, and of the chains
of the paper by direct sums of blocks.

Deleting the largest entry of a word that avoids the level-1 patterns
leaves a word that still avoids them.  So every level-1 avoider of size
n grows from exactly one level-1 avoider of size n - 1 by inserting n
into one of its n slots: the avoiders form a generating tree (J. West,
Generating trees and the Catalan and Schroder numbers, Discrete Math.
146, 1995), walked here depth first.  A child is kept when no level-1
occurrence passes through the inserted maximum, the only kind it can
add.  For a pattern with a record in patterns._KERNELS, one of the six
of length 3, one O(n) pass over the node gives the slots where that
holds, its active sites (the record's rule); the compiled pinned search
of patterns._matcher runs only for the other patterns, and only on
those slots.  One walk to n counts every size up to n; count_chain
keeps those counts per chain for the life of the process, and
walk_chain_avoiders streams the words of every size.

Deeper levels, where the chain has any, are in general not closed under
deleting the maximum, so for most chains the nodes at depth m are the
level-1 avoiders of size m, and the deeper levels only decide which of
them the walk yields.  They are checked by one function compiled per
chain (see chains._chain_predicate), which runs in order of cost, not
of level: first each pattern with a kernel, in one O(n) pass that reads
its power of the node in place, then the compiled searches, shortest
pattern first, each on its power built once as a tuple.  A child of the
last size n is never grown, so it is decided in full when it is built,
cheapest check first: the deeper levels, then the pinned level-1
searches.  It is yielded or dropped, never pushed.  Most nodes of a tree
that does not prune are such leaves; for a chain such as 13245:2143:312
the pass over the cube rejects most of them, and neither the search for
2143 in the square nor the pinned search for 13245 runs on those.  A
smaller child is pushed on level 1 alone, since its descendants may pass
the deeper levels that it fails, and is yielded only if it passes them.
The chains of the paper are the exception.  A chain whose tree prunes at
level 2 has exactly two levels, and either its second level holds 312
alone, listed once or more, and its first contains 312, or the same with
231.  Every such avoider is a strong 312 (or 231) avoider: it and its
square avoid the pattern.  Deleting the maximum of a strong 312 avoider
leaves a strong 312 avoider.  So the tree of the 312 side decides every
child in full, its square first, before it is pushed, and its nodes at
depth m are exactly the chain avoiders of size m.  The tree of the 231
side is its mirror: reverse complement maps a 231-side chain to a
312-side chain whose avoiders are the reverse complements of its own
(see below), so walk_chain_avoiders walks the tree of that chain and
yields the reverse complement of each word, and the walk only ever
inserts the maximum.  count_chain counts these chains without any tree,
over direct sums of blocks (see the lemma below).

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

Below, id_a is the increasing word of size a, delta_b the decreasing
one, alpha + beta the direct sum (beta after and above alpha) and
alpha - beta the skew sum (beta after and below alpha).  An occurrence
of a sum-indecomposable pattern in alpha + beta lies inside alpha or
inside beta: entries in both would split the pattern as a direct sum.

Lemma (blocks).  A word is a strong 312 avoider exactly when it is a
direct sum of blocks, each the point 1 or U(s, k) = id_(s-k) - delta_k
with s/2 <= k <= s - 1.  A word is a strong 231 avoider exactly when it
is a direct sum of blocks, each the point 1 or V(s, k) = delta_k -
id_(s-k) with s/2 <= k <= s - 1.  So both sides have floor(s/2) blocks
of each size s >= 2.
- Steps 1 and 2 show that a strong 312 avoider is such a sum: its
  blocks end in their own minimum, and a strong one of size s >= 2 is
  U(s, a - 1) with s/2 <= a - 1 <= s - 1.
- Conversely, U(s, k) avoids 312: a 312 is an increasing pair after a
  larger entry, the increasing pairs of U(s, k) all lie in its first
  part id_(s-k), and nothing before an entry of id_(s-k) is larger.
  Its square avoids 312 by step 3.  So each block is strong, and by
  step 1 so is their direct sum.
- Reverse complement maps alpha + beta to rc(beta) + rc(alpha) and
  alpha - beta to rc(beta) - rc(alpha), fixes id and delta, commutes
  with powers and maps 312 to 231.  It maps U(s, k) to V(s, k), which
  gives the 231 form.  Read on its own: in Av(231) every entry before
  the maximum lies below every entry after it, or x, max, y would be a
  231, so the blocks of the 231 side each start with their own maximum.
- The first block of a direct sum holds the value 1.  On the 312 side
  the 1 ends it, at position s; on the 231 side it sits at position
  k + 1 of V(s, k), and at position 1 when the block is the point.

Counting (see _sum_of_blocks).  Write each block as (a, b): id_a -
delta_b on the 312 side and delta_b - id_a on the 231 side, with
a >= 1, so the point is (1, 0), delta_s is (1, s - 1), and the other
blocks of size s are (a, s - a) with 1 <= a <= s/2.  The chain's
avoiders of size n are the sums of blocks of size n that avoid every
other level-1 pattern sigma.  Split sigma = sigma_1 + ... + sigma_l into
its sum-indecomposable components: one ends wherever a prefix of
length j holds the values 1..j, at the cuts that patterns._free_at_cuts
gives as the free slots of 231.

- Containment.  An occurrence of sigma in pi = beta_1 + ... + beta_r
  puts each component inside one block, and the blocks of sigma_1, ...,
  sigma_l do not decrease, since each component lies left of the next.
  So pi contains sigma exactly when sigma splits into runs of
  consecutive components, placed in blocks in increasing order, each run
  contained in its block: conversely such a placement is an occurrence,
  since a later block lies after and above an earlier one.  A pattern
  with a component that fits in no block is contained in no such sum,
  and the program drops it; 312 (or 231) itself is one.
- Greedy state.  Let f(q) be the largest j such that sigma_1 + ... +
  sigma_j occurs in beta_1 + ... + beta_q.  Then f(q) = f(q-1) plus the
  length of the longest run from sigma_(f(q-1)+1) that occurs in beta_q.
  The greedy step finds an occurrence, so it gives at most f(q).  It
  gives at least f(q): an occurrence of the first f(q) components puts
  some run sigma_(j+1..f(q)) in beta_q and the first j in the earlier
  blocks, so j <= f(q-1), and the run from f(q-1) + 1 to f(q) is part of
  that run, so it occurs in beta_q too.  So the state f, one per
  pattern, is exact, and pi avoids sigma exactly when f(r) < l.
- Threshold rule.  A subsequence of block (a, b) takes a'' entries of
  its increasing part and b'' of its decreasing part, so it is (a'', b'')
  with a'' <= a and b'' <= b; when a'' = 0 < b'' it is also
  (1, b'' - 1), still within the bounds, since a >= 1.  With a' >= 1 the
  form (a', b') of a word is unique: the word has a' - 1 ascents and
  size a' + b'.  So a run of the form (a', b') with a' >= 1 occurs in
  block (a, b) exactly when a' <= a and b' <= b, and a run of no such
  form occurs in no block.  A run of two or more components is a direct
  sum, whose first entry lies below its last, while (a', b') with
  b' >= 1 is a skew sum, whose first entry lies above its last; so the
  run has the form only when b' = 0, that is when every component in it
  is the point.  From the state, the step therefore passes up to a
  points when the next component is the point, one component (a', b')
  when it fits in (a, b), and nothing otherwise.
- The 231 side.  Reverse complement keeps containment, maps the point to
  the point and the 231 block (a, b), delta_b - id_a, to the 312 block
  (a, b), id_a - delta_b.  So a component occurs in a 231 block (a, b)
  exactly when its reverse complement occurs in the 312 block (a, b),
  and the automaton reads each 231-side component through its reverse
  complement: both sides share one block shape and one rule for (a, b),
  and differ only in where the 1 of a first block sits.

Block classes (see _automaton).  The thresholds a' and b', and the
lengths of point runs, are at most the length K of the longest pattern,
so a step depends on a block (a, b) only through its class (min(a, K),
min(b, K)).  Every block but the point has a <= b, so the classes are
the point (1, 0) and the (a, b) with 1 <= a <= b <= K, and their blocks
by size are:
- (a, b) with b < K: the one block (a, b), of size a + b;
- (a, K) with a < K: the blocks (a, b') with b' >= K, one of every size
  s >= a + K;
- (K, K): the blocks (a', b') with K <= a' <= b', floor(s/2) - K + 1 of
  every size s >= 2K.
The automaton works out each step once per state and class, from the
start (every f = 0), and keeps for each state the classes that complete
no pattern, each as a move (a, b, d) to the state it leads to.  The
move carries its class's series, the class's blocks counted by size: d =
(a == K) + (b == K) is 0, 1 or 2 for the three kinds above, whose series
are x^(a+b), x^(a+b)/(1 - x) and x^(a+b)/((1 - x)(1 - x^2)).  It does
not depend on n.

Order.  A move never lowers a state in any coordinate, since each
pattern's greedy position f only moves forward.  So the only cycles of
the automaton are self-loops.

Size program (see _sum_of_blocks).  It runs bottom-up over sizes:
ways[m] holds, for each state, the sums of size m that complete no
pattern when read from it, the sum over its moves of the blocks of each
size s of the class times ways[m - s] at the state the move leads to.
The running sums runs[j] = ways[0] + ... + ways[j] and pairs[j] =
runs[j] + pairs[j - 2] are ways times 1/(1 - x) and 1/((1 - x)(1 -
x^2)), so a move (a, b, d) reads entry m - a - b of the one of ways,
runs and pairs that d names, and never the cap K.  The split of size m
adds, over each first block (a', b') of size s, ways[m - s] at the state
it leads to, at the position of its 1: s on the 312 side, b' + 1 on the
231 side.  The smallest block of a class, of size a + b, puts it at
a + b or b + 1, and for d = 0 it is the class's one block.  With d = 1
each larger block puts it one place further, on both sides.  With d = 2
the blocks of size s all put it at s on the 312 side; on the 231 side
the blocks with a given b' have sizes b' + K to b' + min(b', m - b'), so
they add one range of running sums, runs[m - b' - K] - runs[m - 2b' - 1],
the second term 0 when its index is negative.  Each size takes O(n)
steps per first move, O(n^2) in all on both sides, and the program
builds no word and compiles nothing.

The trees of the other chains, when large, are counted in a process
pool.  The parent grows the tree alone up to the middle depth n // 2 and
counts the chain avoiders among its nodes, and each node of that depth
is one shard, which counts the deeper sizes below it.  A shard starts
from a tree node, not from a chain avoider, since a node that fails the
deeper levels may still have descendants that pass them.  Shard results
are merged by summation, so counts are identical for every worker count.
Sizes are capped at MAX_ENUMERATION_N unless the caller forces past it.
"""

import itertools
import operator
import os
from typing import Iterable, Iterator

from .chains import ChainSpec, LevelValues, _chain_predicate
from .patterns import _KERNELS, _free_at_cuts, _matcher
from .perm import Frozen, Permutation, _reverse_complement

MAX_ENUMERATION_N = 14


def _check_size(n: int, force: bool) -> int:
    """The size n as an int, once it is checked; any value that is not an
    integer raises TypeError."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("size must be >= 0")
    if n > MAX_ENUMERATION_N and not force:
        raise ValueError(
            f"n={n} is above the supported enumeration bound "
            f"{MAX_ENUMERATION_N}; pass force=True (CLI: --force) to run anyway"
        )
    return n


def generate_sn(n: int, *, force: bool = False) -> Iterator[Permutation]:
    """Stream the whole symmetric group in lexicographic order.

    >>> [str(p) for p in generate_sn(3)]
    ['123', '132', '213', '231', '312', '321']
    """
    n = _check_size(n, force)
    return map(Permutation, itertools.permutations(range(1, n + 1)))


class CountRefinement(Frozen):
    """A chain-avoider count, held as its split by the position of 1.

    by_position_of_one[i - 1] counts the avoiders whose value 1 sits at
    position i.  The size n is the split's length and the total its sum;
    the split is empty only for n = 0, where no position holds a 1, and
    the empty word is then the one avoider, so the total is 1.  Each entry
    is stored as an int through operator.index, so an entry that is not an
    integer raises TypeError.
    """

    __slots__ = ("chain", "by_position_of_one")

    chain: ChainSpec
    by_position_of_one: tuple[int, ...]

    def __init__(self, chain: ChainSpec, by_position_of_one: Iterable[int]) -> None:
        by_position_of_one = tuple(map(operator.index, by_position_of_one))
        if min(by_position_of_one, default=0) < 0:
            raise ValueError("refinement entries must be >= 0")
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "by_position_of_one", by_position_of_one)

    @property
    def n(self) -> int:
        return len(self.by_position_of_one)

    @property
    def total(self) -> int:
        return sum(self.by_position_of_one) if self.by_position_of_one else 1


def _strong_side(levels: LevelValues) -> bool | None:
    """True on the 312 side and False on the 231 side when the chain's tree
    prunes at level 2 (see the module docstring): the chain has exactly two
    levels, the second is 312 (or 231) alone, listed once or more, and the
    first contains it.  None for every other chain."""
    square = levels[1][0] if len(levels) == 2 and len(set(levels[1])) == 1 else None
    if square in ((3, 1, 2), (2, 3, 1)) and square in levels[0]:
        return square == (3, 1, 2)
    return None


def _automaton(level1: tuple[tuple[int, ...], ...], up: bool) -> dict:
    """The greedy automaton of a chain whose tree prunes at level 2 (see
    Block classes in the module docstring), as its moves: for each state,
    every block class (a, b) read from it that completes no pattern, as
    (a, b, d, after), where d = (a == K) + (b == K) names the class's
    series and after is the state the move leads to.  The start, one 0 per
    pattern, is the first key.  A component has the form (a, b) when it
    is the block id_a - delta_b, the one block shape.  up is True on the
    312 side; on the 231 side each component is read through its reverse
    complement, which maps the block delta_b - id_a to id_a - delta_b
    (see The 231 side in the module docstring)."""
    # Each pattern as the forms (a, b) of its components, the parts between
    # its direct-sum cuts; a pattern with a component that fits in no block
    # is dropped.
    patterns = []
    for pattern in level1:
        forms = []
        for cut, end in itertools.pairwise(_free_at_cuts(pattern)):
            part = tuple(v - cut for v in pattern[cut:end])
            part = part if up else _reverse_complement(part)
            k, b = end - cut, part[0] - 1
            block = (*range(b + 1, k + 1), *range(b, 0, -1))
            forms.append((k - b, b) if part == block else None)
        if None not in forms:
            patterns.append(forms)
    cap = max(map(len, level1))
    classes = [(1, 0)] + [(a, b) for b in range(1, cap + 1) for a in range(1, b + 1)]
    moves: dict = {}
    todo = [(0,) * len(patterns)]
    while todo:
        state = todo.pop()
        if state in moves:
            continue
        moves[state] = []
        for a, b in classes:
            # Past up to a points when the next component is the point, else
            # past one component when it fits in (a, b).
            after = tuple(
                t + (len(list(itertools.takewhile((1, 0).__eq__, forms[t : t + a])))
                     or (forms[t][0] <= a and forms[t][1] <= b))
                for forms, t in zip(patterns, state)
            )
            if all(t < len(forms) for forms, t in zip(patterns, after)):
                moves[state].append((a, b, (a == cap) + (b == cap), after))
                todo.append(after)
    return moves


def _add_at(split: list[int], lo: int, values: Iterable[int]) -> None:
    """Add the values to split from index lo on."""
    values = list(values)
    split[lo : lo + len(values)] = map(operator.add, split[lo:], values)


def _sum_of_blocks(n: int, level1: tuple[tuple[int, ...], ...], up: bool) -> list[list[int]]:
    """The split by the position of 1 for every size 1 to n of a chain
    whose tree prunes at level 2, counted over the block classes of its
    automaton (see Size program in the module docstring)."""
    moves = _automaton(level1, up)
    start = next(iter(moves))
    # For each state, ways[j]: the sums of size j that complete no pattern
    # from it, and its running sums by steps of 1 and of 2: the series a
    # move with d = 0, 1 or 2 reads.
    series = {state: ([1], [1], [1]) for state in moves}
    halves = [i // 2 + 1 for i in range(n)]
    splits = []
    for m in range(1, n + 1):
        for state, move in moves.items():
            w = sum(series[after][d][m - a - b] for a, b, d, after in move if a + b <= m)
            ways, runs, pairs = series[state]
            ways.append(w)
            runs.append(runs[-1] + w)
            pairs.append(runs[-1] + (pairs[-2] if m > 1 else 0))
        # The smallest first block of the class holds the 1 at position
        # a + b on the 312 side, and at position b + 1 on the 231 side.
        split = [0] * m
        for a, b, d, after in moves[start]:
            ways, runs, _ = series[after]
            j = m - a - b
            if j < 0:
                continue
            lo = a + b - 1 if up else b
            if d == 0:
                split[lo] += ways[j]
            elif d == 1:
                _add_at(split, lo, ways[j::-1])
            elif up:
                _add_at(split, lo, map(operator.mul, ways[j::-1], halves))
            else:
                # The blocks (a', b') with K <= a' <= b', by b': a range of
                # the running sums for each b'.
                _add_at(split, lo, runs[j::-1])
                _add_at(split, lo, map(operator.neg, runs[j - 1 :: -2] if j else ()))
        splits.append(split)
    return splits


def _grow(
    nodes: Iterable[tuple[int, ...]], n: int, levels: LevelValues
) -> Iterator[tuple[int, ...]]:
    """The chain avoiders of every size up to n grown from the given
    nodes, which must be tree nodes of size at most n and are not yielded
    themselves.  A child is built only at the slots that every length-3
    rule leaves free.  Each yielded word comes before the words grown
    from it, but not always after the word it grew from, which may fail
    the deeper levels.

    The nodes are the level-1 avoiders, grown by inserting the maximum,
    unless the chain is a 312-side chain whose tree prunes at level 2 (see
    _strong_side).  Then they are the chain avoiders.  The tree of a
    231-side chain is the mirror of the 312 tree (see walk_chain_avoiders).

    A child that is not grown any further (one of size n), and every
    child of a pruned tree, is decided in full, cheapest check first: the
    deeper levels, then the pinned level-1 searches.  Any other child is
    pushed on level 1 alone and yielded only if it passes the deeper
    levels."""
    pruned = _strong_side(levels) is True
    rules = [_KERNELS[p][1] for p in levels[0] if p in _KERNELS]
    rejects = [_matcher(p, pinned=True) for p in levels[0] if p not in _KERNELS]
    deeper = _chain_predicate(levels, 1) if len(levels) > 1 else None
    stack = list(nodes)
    while stack:
        word = stack.pop()
        size = len(word) + 1
        if size > n:
            continue
        leaf = size == n
        # The deeper levels run before the pinned searches on a child
        # decided in full, and after them on one that is pushed.
        first = deeper if leaf or pruned else None
        last = deeper if first is None else None
        free = range(size)
        for free_slots in rules:
            free = [i for i in free_slots(word) if i in free]
        for i in free:
            child = word[:i] + (size,) + word[i:]
            if first is not None and not first(child):
                continue
            for reject in rejects:
                if reject(child, i):
                    break
            else:
                if not leaf:
                    stack.append(child)
                if last is None or last(child):
                    yield child


def _split(n: int, words: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """The given words of sizes 1 to n, counted for each size by the
    position of 1."""
    splits = [[0] * size for size in range(1, n + 1)]
    for word in words:
        splits[len(word) - 1][word.index(1)] += 1
    return splits


def _count_below(n: int, levels: LevelValues, nodes: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """One shard: the split of the chain avoiders of each size from 1 to n
    below the given tree nodes, which is 0 up to the nodes' own size.  A
    shard names its chain by its level values, which pickle, where its
    compiled predicates do not; a forked worker finds them in the cache it
    inherits."""
    return _split(n, _grow(nodes, n, levels))


# A pool runs only when the tree has at least this many nodes at its middle
# depth (n // 2), one shard each.  Starting a 2-worker fork pool costs about
# 10 ms, and shards are uneven, so two workers pay off only once the serial
# count takes well over 30 ms.  Measured on a 2-core x86-64 host (Python
# 3.11), serial against 2 workers, medians of 7 alternating runs: Av(312) at
# n = 9 has 14 middle nodes and takes 7 ms against 15 ms; at n = 10 it has 42
# and takes 24 ms against 26 to 30 ms; at n = 11, still 42, it takes 84 ms
# against 71 ms; S_8 (a level-1 pattern longer than 8 prunes nothing) has 24
# and takes 32 ms against 28 to 31 ms.  The middle depth cannot tell n = 10
# from n = 11, and the bound still sits between 14 and 24.  Only chains that
# do not prune at level 2 have a tree to shard: the others, the table chains
# among them, are counted over sums of blocks and never open a pool.
MIN_POOL_FRONTIER = 20


def _pool_size(jobs: int, shards: int) -> int:
    """Workers for a pool: never more than asked for, than there are
    shards to run, or than the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, shards, cpus))


def _walk(n: int, levels: LevelValues, jobs: int) -> list[list[int]]:
    """The split by the position of 1 for every size 1 to n, from one walk
    of the chain's level-1 tree (for a chain whose tree does not prune at
    level 2).  The parent grows the tree alone up to the middle
    depth n // 2, and its first shard counts the chain avoiders among
    those nodes; below each node of size n // 2, a shard counts the
    deeper sizes.  Each size's split is the sum over all shards.  The
    shards start from tree nodes, not from chain avoiders: a node that
    fails the deeper levels can still have descendants that pass them."""
    half = n // 2
    top = list(_grow([()], half, levels[:1]))
    frontier = [word for word in [()] + top if len(word) == half]
    shards = [_split(n, filter(_chain_predicate(levels, 1), top))]
    workers = _pool_size(jobs, len(frontier)) if len(frontier) >= MIN_POOL_FRONTIER else 1
    if workers == 1:
        shards.append(_count_below(n, levels, frontier))
    else:
        # Imported only where a pool opens, so that the many runs that open
        # none do not pay for the imports.
        import multiprocessing
        import signal

        tasks = [(n, levels, (node,)) for node in frontier]
        # Workers start with SIGINT blocked and keep it blocked, so Ctrl-C
        # interrupts only this process, whose leaving the with block
        # terminates them.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pool = multiprocessing.Pool(workers)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with pool:
            shards += pool.starmap(_count_below, tasks)
    return [[sum(col) for col in zip(*sizes)] for sizes in zip(*shards)]


# The counts of every chain walked in this process, for sizes 1 to the
# largest n it was walked to (see count_chain).
_COUNTS: dict[ChainSpec, tuple[CountRefinement, ...]] = {}


def count_chain(
    n: int, chain: ChainSpec, *, jobs: int = 1, force: bool = False
) -> CountRefinement:
    """Count the chain avoiders in S_n.

    A chain whose tree prunes at level 2, every chain of the formula table
    among them, is counted over direct sums of blocks (see _sum_of_blocks);
    every other chain by walking its generating tree.  One count to n
    counts every size from 1 to n, and those counts are kept per chain for
    the life of the process: a later call for a size up to n is a lookup,
    and one for a larger size counts again and replaces them.  jobs must
    be an integer of at least 1, and jobs > 1 allows a process pool for
    large trees (see MIN_POOL_FRONTIER); it does not apply to the chains
    counted over blocks, which never open a pool.  Results do not depend
    on the worker count.
    """
    n = _check_size(n, force)
    jobs = operator.index(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if n == 0:
        return CountRefinement(chain, ())
    counts = _COUNTS.get(chain, ())
    if len(counts) < n:
        up = _strong_side(chain.levels)
        if up is None:
            splits = _walk(n, chain.levels, jobs)
        else:
            splits = _sum_of_blocks(n, chain.levels[0], up)
        counts = tuple(CountRefinement(chain, split) for split in splits)
        _COUNTS[chain] = counts
    return counts[n - 1]


def walk_chain_avoiders(
    n: int, chain: ChainSpec, *, force: bool = False
) -> Iterator[tuple[int, ...]]:
    """Stream the chain avoiders of every size 0, ..., n as raw words, in
    the order one walk of the generating tree reaches them: sizes are
    interleaved, and each word comes before the words grown from it, but
    not always after the word it grew from, which may fail the deeper
    levels and then is not streamed.

    >>> from .chains import parse_chain
    >>> sorted(walk_chain_avoiders(3, parse_chain("312:312")))
    [(), (1,), (1, 2), (1, 2, 3), (1, 3, 2), (2, 1), (2, 1, 3), (3, 2, 1)]
    """
    n = _check_size(n, force)
    mirror = _strong_side(chain.levels) is False
    grown = _grow([()], n, (chain.reverse_complement() if mirror else chain).levels)
    if mirror:
        grown = map(_reverse_complement, grown)
    return itertools.chain([()], grown)

