"""Classical pattern containment.

A permutation pi contains the pattern tau when some subsequence of pi,
read left to right, has the same pairwise order as tau.  One
backtracking search, _match, picks an index for each pattern slot in
turn and prunes as soon as the new value breaks the order of the slots
picked so far.  It answers yes or no, and on yes its list of picked
indices is the lexicographically first witness, so contains, avoids and
find_occurrence all run it.  Its pinned variant, _match_pinned, looks
only at occurrences that put the pattern's maximum at a given index:
the ones that inserting a maximum in the generating tree of
enumeration.py can create.

Patterns of length 3 also have a Length3Rule, which decides both
questions in O(n) and which the chain predicate and the tree use in
place of the search: 231 by one stack pass, 123 by two running minima,
the other four through reversal or complement of the word, and the free
slots for a new maximum from the sides and the order of the two entries
beside the pattern's 3.  The backtracking search stays the one generic
path for every other length.
"""

import operator
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from .perm import ParseError, Permutation, parse_permutation


@dataclass(frozen=True, eq=False)
class Pattern(Permutation):
    """A non-empty permutation used as a containment template."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.values:
            raise ValueError("a pattern must have length >= 1")


def parse_pattern(text: str) -> Pattern:
    """Parse pattern text, rejecting the empty pattern."""
    perm = parse_permutation(text)
    try:
        return Pattern(perm.values)
    except ValueError as exc:
        raise ParseError(f"invalid pattern {text!r}: {exc}") from None


@lru_cache(maxsize=None)
def _prefix_bounds(pattern: tuple[int, ...]) -> tuple[tuple[int | None, int | None], ...]:
    """For each slot s, the earlier slots holding the tightest values
    below and above pattern[s].  A candidate value for slot s is valid
    exactly when it lies strictly between the values at the indices
    chosen for those two slots, which is the full order-isomorphism test
    in O(1)."""
    bounds = []
    for s, ps in enumerate(pattern):
        lo = hi = None
        lo_val = hi_val = None
        for t in range(s):
            pt = pattern[t]
            if pt < ps and (lo_val is None or pt > lo_val):
                lo, lo_val = t, pt
            if pt > ps and (hi_val is None or pt < hi_val):
                hi, hi_val = t, pt
        bounds.append((lo, hi))
    return tuple(bounds)


def _match(
    values: tuple[int, ...],
    bounds: tuple[tuple[int | None, int | None], ...],
    chosen: list[int],
    s: int,
    start: int,
    n: int,
    k: int,
) -> bool:
    """Fill slots s..k-1 of chosen with increasing indices from start on;
    on success chosen holds the lexicographically first such witness."""
    lo, hi = bounds[s]
    lo_v = values[chosen[lo]] if lo is not None else 0
    hi_v = values[chosen[hi]] if hi is not None else n + 1
    last = s == k - 1
    for i in range(start, n - k + s + 1):
        v = values[i]
        if lo_v < v < hi_v:
            chosen[s] = i
            if last or _match(values, bounds, chosen, s + 1, i + 1, n, k):
                return True
    return False


def _match_pinned(
    values: tuple[int, ...],
    bounds: tuple[tuple[int | None, int | None], ...],
    chosen: list[int],
    s: int,
    start: int,
    n: int,
    k: int,
    top: int,
    pin: int,
) -> bool:
    """_match restricted to occurrences that put pattern slot top, the
    slot of the pattern's maximum, at index pin, where the word holds its
    own maximum n.  That entry fits slot top whatever else is chosen, so
    the slots before top search left of pin, and _match fills the rest
    right of it."""
    if s == top:
        chosen[s] = pin
        return s == k - 1 or _match(values, bounds, chosen, s + 1, pin + 1, n, k)
    lo, hi = bounds[s]
    lo_v = values[chosen[lo]] if lo is not None else 0
    hi_v = values[chosen[hi]] if hi is not None else n + 1
    for i in range(start, pin - top + s + 1):
        v = values[i]
        if lo_v < v < hi_v:
            chosen[s] = i
            if _match_pinned(values, bounds, chosen, s + 1, i + 1, n, k, top, pin):
                return True
    return False


def _same(word: tuple[int, ...]) -> tuple[int, ...]:
    return word


def _complement(word: tuple[int, ...]) -> Iterable[int]:
    return map((len(word) + 1).__sub__, word)


def _reverse_complement(word: tuple[int, ...]) -> Iterable[int]:
    return map((len(word) + 1).__sub__, reversed(word))


def _contains_231(values: Iterable[int]) -> bool:
    """One pass through a stack, which sorts exactly the words that avoid
    231 (Knuth, TAOCP vol. 1, 2.2.1).  An entry popped by a larger later
    one is the "2" and its popper the "3", so any entry after them that
    lies below the last popped entry completes a 231."""
    stack = []
    floor = 0
    for v in values:
        if v < floor:
            return True
        while stack and stack[-1] < v:
            floor = stack.pop()
        stack.append(v)
    return False


def _contains_123(values: Iterable[int]) -> bool:
    """Two running minima: the least entry so far, and the least entry so
    far that has a smaller one before it.  An entry above the second
    completes a 123."""
    least = second = sys.maxsize
    for v in values:
        if v > second:
            return True
        if v > least:
            second = v
        else:
            least = v
    return False


def _free_before_run(ok: Callable[[int, int], bool], word: tuple[int, ...]) -> range:
    """The slots i at which each step a, b of word[:i] has ok(a, b): those
    up to the end of the word's first such run."""
    i = 1
    while i < len(word) and ok(word[i - 1], word[i]):
        i += 1
    return range(min(i, len(word)) + 1)


def _free_after_run(ok: Callable[[int, int], bool], word: tuple[int, ...]) -> range:
    """The slots i at which each step a, b of word[i:] has ok(a, b): those
    from the start of the word's last such run on."""
    i = len(word) - 1
    while i > 0 and ok(word[i - 1], word[i]):
        i -= 1
    return range(max(i, 0), len(word) + 1)


def _free_at_cuts(
    view: Callable[[tuple[int, ...]], Iterable[int]], word: tuple[int, ...]
) -> list[int]:
    """The slots i at which the first i entries of view(word) are 1, ..., i,
    which is when the running maximum of view(word) reaches i: then each
    entry before the slot lies below each entry after it.  view is _same,
    or _complement to ask for above instead."""
    return [0] + [i for i, top in enumerate(accumulate(view(word), max), 1) if top == i]


class Length3Rule(NamedTuple):
    """The O(n) decisions for one pattern of length 3.

    free_slots(word) gives the slots 0..len(word) of any word at which
    inserting a new maximum completes no occurrence.  The word contains
    the pattern exactly when kernel(view(word)) is true: view is one of
    the symmetries that map the pattern to 231 or 123.
    """

    free_slots: Callable[[tuple[int, ...]], Iterable[int]]
    view: Callable[[tuple[int, ...]], Iterable[int]]
    kernel: Callable[[Iterable[int]], bool]


# Each pattern of length 3 as the image of 231 or 123 under a symmetry.  A
# word contains view(base) exactly when view(word) contains base, since each
# view is its own inverse.  Later views are cheaper and win where two agree.
_KERNELS = {
    tuple(view(base)): (view, kernel)
    for kernel, base in ((_contains_231, (2, 3, 1)), (_contains_123, (1, 2, 3)))
    for view in (_reverse_complement, _complement, reversed, _same)
}


@lru_cache(maxsize=None)
def _length3_rule(pattern: tuple[int, ...]) -> Length3Rule | None:
    """The rule of a pattern of length 3, or None for any other length.

    An inserted maximum can only play the pattern's 3.  The rule follows
    from the sides of the 3 that the other two entries sit on, and from
    whether they rise or fall; the maximum is free where no two entries
    on those sides step that way.  Reversal and complement commute with
    containment, so two kernels decide all six patterns.
    """
    if len(pattern) != 3:
        return None
    top = pattern.index(3)
    first, second = (v for v in pattern if v != 3)
    rises = first < second
    if top == 1:
        free_slots = partial(_free_at_cuts, _complement if rises else _same)
    else:
        run = _free_after_run if top == 0 else _free_before_run
        free_slots = partial(run, operator.gt if rises else operator.lt)
    view, kernel = _KERNELS[pattern]
    return Length3Rule(free_slots, view, kernel)


def _first_occurrence(pi: Permutation, tau: Permutation) -> list[int] | None:
    """0-based indices of the first occurrence of tau in pi, or None.

    tau may be any Permutation, so the empty pattern is rejected here."""
    pattern = tau.values
    if not pattern:
        raise ValueError("a pattern must have length >= 1")
    k = len(pattern)
    n = len(pi.values)
    chosen = [0] * k
    if k <= n and _match(pi.values, _prefix_bounds(pattern), chosen, 0, 0, n, k):
        return chosen
    return None


def contains(pi: Permutation, tau: Permutation) -> bool:
    """True when tau occurs in pi as an order-isomorphic subsequence.

    >>> contains(Permutation((2, 4, 1, 5, 3)), Pattern((1, 3, 2)))
    True
    """
    return _first_occurrence(pi, tau) is not None


def avoids(pi: Permutation, tau: Permutation) -> bool:
    """True when pi has no occurrence of tau."""
    return _first_occurrence(pi, tau) is None


def find_occurrence(pi: Permutation, tau: Permutation) -> tuple[int, ...] | None:
    """The lexicographically smallest witness occurrence, or None.

    Returns 1-based positions i_1 < ... < i_k such that the subsequence
    of pi at those positions is order-isomorphic to tau.

    >>> find_occurrence(Permutation((2, 4, 1, 5, 3)), Pattern((1, 3, 2)))
    (1, 2, 5)
    """
    chosen = _first_occurrence(pi, tau)
    return None if chosen is None else tuple(i + 1 for i in chosen)
