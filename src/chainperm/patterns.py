"""Classical pattern containment.

A permutation pi contains the pattern tau when some subsequence of pi,
read left to right, has the same pairwise order as tau.  One search per
pattern, compiled by _matcher, picks an index for each pattern slot in
turn and prunes as soon as the new value breaks the order of the slots
picked so far.  Its loops are written out as source, one for loop per
slot and one comparison of locals per bound, and it returns the
lexicographically first witness, so contains, avoids and find_occurrence
all run it.  Its pinned form looks only at occurrences that put the
pattern's maximum at a given index: the ones that inserting a maximum in
the generating tree of enumeration.py can create.

Each of the six patterns of length 3 has one record in _KERNELS, which
alone decides which patterns get O(n) machinery.  Its insertion rule
gives the tree of enumeration.py the free slots for a new maximum in
O(n), and its kernel, which the chain predicate of chains.py writes into
its source and runs on each power in place, decides whether a word
contains the pattern in O(n) too, stopping at the first occurrence.
Up to reverse and complement the six fall into two classes, {312, 213,
132, 231} and {123, 321}, so two kernels are written out, each keeping
its state in ints: 312 by a bit set of the values that would complete
one, 123 by two running minima.  The other patterns' kernels read the
word from its last entry to its first, or each value v as n + 1 - v, or
both, so no reversed or complemented word is ever built.  The rules are
grouped by where the pattern's 3 sits, first, last or in the middle, and
each reads the word in place.  The compiled search stays the one generic
path for every other pattern.
"""

from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Iterable

from .perm import ParseError, Permutation, parse_permutation


class Pattern(Permutation):
    """A non-empty permutation used as a containment template."""

    __slots__ = ()

    def __init__(self, values: Iterable[int]) -> None:
        super().__init__(values)
        if not self.values:
            raise ValueError("a pattern must have length >= 1")


def parse_pattern(text: str) -> Pattern:
    """Parse pattern text, rejecting the empty pattern."""
    perm = parse_permutation(text)
    try:
        return Pattern(perm.values)
    except ValueError as exc:
        raise ParseError(f"invalid pattern {text!r}: {exc}") from None


# Python refuses more than 20 statically nested blocks in one function, so
# the loops of a longer pattern are split into functions of at most this
# many slots, each called from the innermost loop of the one before.
_SLOTS_PER_FUNCTION = 16

Matcher = Callable[..., tuple[int, ...] | None]


@lru_cache(maxsize=None)
def _matcher(pattern: tuple[int, ...], pinned: bool = False) -> Matcher:
    """The containment search for one pattern, written out as nested loops.

    The function returned takes a word, and when pinned also an index p,
    and returns the 0-based indices of the lexicographically first
    occurrence, or None.  Each pattern slot is one for loop over the
    indices left for it, and each prefix bound one comparison of local
    variables; the source is compiled once per pattern, the way
    collections.namedtuple writes its classes.  A pinned search looks only
    at occurrences that put the pattern's maximum at index p, where the
    word must hold its own maximum: the ones that inserting a maximum in
    the generating tree of enumeration.py can create.  That entry fits its
    slot whatever else is chosen, so the slots before it search left of p,
    the ones after it right of p, and no slot compares with it.

    The source holds only slot numbers and offsets computed from the
    pattern, which must be a permutation of 1..k with k >= 1.  The public
    searches accept any Permutation as the pattern, so the empty one is
    rejected here.
    """
    k = len(pattern)
    if not k:
        raise ValueError("a pattern must have length >= 1")
    if sorted(pattern) != list(range(1, k + 1)):
        raise ValueError(f"a pattern must be a permutation of 1..{k}: {pattern!r}")
    top = pattern.index(k) if pinned else None
    where = {v: t for t, v in enumerate(pattern)}

    def nearest(s: int, values: range) -> int | None:
        """The slot of the first of the values to sit before slot s, leaving
        out a pinned maximum, which fits every bound."""
        return next((where[v] for v in values if where[v] < s and where[v] != top), None)

    # For each slot, the earlier slots holding the tightest values below and
    # above its own.  A candidate fits exactly when it lies strictly between
    # the values chosen for those two, the full order-isomorphism test.
    bounds = [
        (nearest(s, range(v - 1, 0, -1)), nearest(s, range(v + 1, k + 1)))
        for s, v in enumerate(pattern)
    ]

    def params(a: int) -> str:
        """The arguments of the function for the slots from a on: the word,
        the pin, the size, the index of slot a - 1 and the values of the
        earlier slots that later slots compare with."""
        passed = sorted({t for pair in bounds[a:] for t in pair if t is not None and t < a})
        return ", ".join(["w", "p"][: 1 + pinned] + ["n", f"i{a - 1}"] + [f"v{t}" for t in passed])

    namespace: dict = {}
    for a in reversed(range(0, k, _SLOTS_PER_FUNCTION)):
        b = min(a + _SLOTS_PER_FUNCTION, k)
        if a:
            lines = [f"def _m{a}({params(a)}):"]
        else:
            lines = [f"def _m0({'w, p' if pinned else 'w'}):", "    n = len(w)"]
        pad = "    "
        for s in range(a, b):
            if s == top:
                lines.append(f"{pad}i{s} = p")
                continue
            start = f"i{s - 1} + 1" if s else "0"
            ref, gap = ("p", top - s - 1) if top is not None and s < top else ("n", k - s - 1)
            lines.append(f"{pad}for i{s} in range({start}, {ref} - {gap}):")
            lines.append(f"{pad}    v{s} = w[i{s}]")
            pad += "    "
            lo, hi = bounds[s]
            test = [f"v{lo}"] * (lo is not None) + [f"v{s}"] + [f"v{hi}"] * (hi is not None)
            if len(test) > 1:
                lines.append(f"{pad}if {' < '.join(test)}:")
                pad += "    "
        found = "".join(f"i{s}, " for s in range(a, b))
        if b == k:
            lines.append(f"{pad}return ({found})")
        else:
            lines.append(f"{pad}rest = _m{b}({params(b)})")
            lines.append(f"{pad}if rest is not None:")
            lines.append(f"{pad}    return ({found}) + rest")
        lines.append("    return None")
        name = f"<{'pinned ' * pinned}matcher {pattern}>"
        exec(compile("\n".join(lines), name, "exec"), namespace)
    return namespace["_m0"]


def _free_at_cuts(word: tuple[int, ...], skew: bool = False) -> list[int]:
    """The slots i at which the first i entries of word are 1, ..., i,
    which is when the running maximum reaches i: then each entry before the
    slot lies below each entry after it.  These are the word's direct-sum
    cuts, so they are both the free slots of 231 and the ends of a
    pattern's sum components in enumeration._automaton.  When skew, the
    slots at which the first i entries are the i largest, which is when the
    running minimum falls to len(word) + 1 - i: the skew-sum cuts, the
    free slots of 132."""
    if skew:
        n = len(word) + 1
        return [0] + [i for i, low in enumerate(accumulate(word, min), 1) if low == n - i]
    return [0] + [i for i, top in enumerate(accumulate(word, max), 1) if top == i]


def _free_after_run(word: tuple[int, ...], rising: bool = False) -> range:
    """The slots i at which word[i:] decreases, or increases when rising:
    those from the start of the word's last such run on."""
    i = len(word) - 1
    while i > 0 and (word[i - 1] < word[i]) == rising:
        i -= 1
    return range(max(i, 0), len(word) + 1)


def _free_before_run(word: tuple[int, ...], rising: bool = False) -> range:
    """The slots i at which word[:i] decreases, or increases when rising:
    those up to the end of the word's first such run."""
    i = 1
    while i < len(word) and (word[i - 1] < word[i]) == rising:
        i += 1
    return range(min(i, len(word)) + 1)


# The containment kernels of the patterns of length 3, as source for the
# chain predicate of chains.py: the lines that start the pass, and the lines
# run on each entry v of the word w, which return False at the first
# occurrence.  Each keeps its state in ints.
#
# 312: bit u of bad is set when u lies strictly between an entry v and the
# running maximum top before it, which are then the "1" and the "3" of a
# 312 that u would complete.  The largest entry before v gives the widest
# interval, so an entry completes a 312 exactly when its bit is set.
_INTERVAL_BITS = (
    ("top = bad = 0",),
    (
        "if top < v:",
        "    top = v",
        "elif bad >> v & 1:",
        "    return False",
        "else:",
        "    bad |= (1 << top) - (2 << v)",
    ),
)
# 123: two running minima, the least entry so far and the least one that
# has a smaller one before it.  An entry above the second completes a 123.
# Both start above every entry, so this kernel reads the length of the
# word.
_TWO_MINIMA = (
    ("least = second = len(w) + 1",),
    (
        "if second < v:",
        "    return False",
        "if least < v:",
        "    second = v",
        "else:",
        "    least = v",
    ),
)

# The record of each pattern of length 3: (kernel, rule, backward,
# complement), the kernel being (start lines, lines per entry v).  A word
# contains a pattern exactly when its reverse contains the reversed
# pattern, and its complement the complemented one, so 213, 132 and 231
# run the 312 kernel on the word read backward, complemented (each value
# v read as n + 1 - v), or both, and 321 the 123 kernel read backward,
# which spares the subtraction a complemented reading makes per entry.
# backward and complement say only how the kernel reads the word.  The
# rule, called on any word, gives the slots 0..len(word), in ascending
# order, at which inserting a new maximum completes no occurrence.  An
# inserted maximum can only play the pattern's 3, so the rule follows from
# the sides of the 3 that the other two entries sit on, and each rule reads
# the word in place.  With the 3 first (312, 321) the slot is free where
# the entries after it decrease, or increase for 321; with the 3 last (123,
# 213) where those before it decrease, or increase for 213; with the 3 in
# the middle (231, 132) where every entry before the slot lies below every
# entry after it, or above for 132.  A complemented maximum would be a
# minimum, so no rule can read the word complemented.
_KERNELS = {
    (3, 1, 2): (_INTERVAL_BITS, _free_after_run, False, False),
    (2, 1, 3): (_INTERVAL_BITS, partial(_free_before_run, rising=True), True, False),
    (1, 3, 2): (_INTERVAL_BITS, partial(_free_at_cuts, skew=True), False, True),
    (2, 3, 1): (_INTERVAL_BITS, _free_at_cuts, True, True),
    (1, 2, 3): (_TWO_MINIMA, _free_before_run, False, False),
    (3, 2, 1): (_TWO_MINIMA, partial(_free_after_run, rising=True), True, False),
}


def contains(pi: Permutation, tau: Permutation) -> bool:
    """True when tau occurs in pi as an order-isomorphic subsequence.

    >>> contains(Permutation((2, 4, 1, 5, 3)), Pattern((1, 3, 2)))
    True
    """
    return _matcher(tau.values)(pi.values) is not None


def avoids(pi: Permutation, tau: Permutation) -> bool:
    """True when pi has no occurrence of tau."""
    return _matcher(tau.values)(pi.values) is None


def find_occurrence(pi: Permutation, tau: Permutation) -> tuple[int, ...] | None:
    """The lexicographically smallest witness occurrence, or None.

    Returns 1-based positions i_1 < ... < i_k such that the subsequence
    of pi at those positions is order-isomorphic to tau.

    >>> find_occurrence(Permutation((2, 4, 1, 5, 3)), Pattern((1, 3, 2)))
    (1, 2, 5)
    """
    chosen = _matcher(tau.values)(pi.values)
    return None if chosen is None else tuple(i + 1 for i in chosen)
