"""Classical pattern containment.

A permutation pi contains the pattern tau when some subsequence of pi,
read left to right, has the same pairwise order as tau.  The search is
an exhaustive scan over index tuples, pruned by checking order
isomorphism of the partial subsequence after every choice.
"""

from dataclasses import dataclass
from functools import lru_cache

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
    exactly when it lies strictly between the values chosen at those
    two slots, which is the full order-isomorphism test in O(1)."""
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
    lo, hi = bounds[s]
    lo_v = chosen[lo] if lo is not None else 0
    hi_v = chosen[hi] if hi is not None else n + 1
    last = s == k - 1
    for i in range(start, n - k + s + 1):
        v = values[i]
        if lo_v < v < hi_v:
            if last:
                return True
            chosen[s] = v
            if _match(values, bounds, chosen, s + 1, i + 1, n, k):
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
    slots before top search left of pin and the rest search right of it."""
    if s == top:
        if s == k - 1:
            return True
        chosen[s] = n
        return _match_pinned(values, bounds, chosen, s + 1, pin + 1, n, k, top, pin)
    lo, hi = bounds[s]
    lo_v = chosen[lo] if lo is not None else 0
    hi_v = chosen[hi] if hi is not None else n + 1
    last = s == k - 1
    stop = pin - top + s + 1 if s < top else n - k + s + 1
    for i in range(start, stop):
        v = values[i]
        if lo_v < v < hi_v:
            if last:
                return True
            chosen[s] = v
            if _match_pinned(values, bounds, chosen, s + 1, i + 1, n, k, top, pin):
                return True
    return False


def _pattern_values(tau: Permutation) -> tuple[int, ...]:
    if not tau.values:
        raise ValueError("a pattern must have length >= 1")
    return tau.values


def _contains_values(values: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    k = len(pattern)
    n = len(values)
    if k > n:
        return False
    return _match(values, _prefix_bounds(pattern), [0] * k, 0, 0, n, k)


def contains(pi: Permutation, tau: Permutation) -> bool:
    """True when tau occurs in pi as an order-isomorphic subsequence.

    >>> contains(Permutation((2, 4, 1, 5, 3)), Pattern((1, 3, 2)))
    True
    """
    return _contains_values(pi.values, _pattern_values(tau))


def avoids(pi: Permutation, tau: Permutation) -> bool:
    """True when pi has no occurrence of tau."""
    return not _contains_values(pi.values, _pattern_values(tau))


def find_occurrence(pi: Permutation, tau: Permutation) -> tuple[int, ...] | None:
    """The lexicographically smallest witness occurrence, or None.

    Returns 1-based positions i_1 < ... < i_k such that the subsequence
    of pi at those positions is order-isomorphic to tau.
    """
    pattern = _pattern_values(tau)
    values = pi.values
    k = len(pattern)
    n = len(values)
    if k > n:
        return None
    bounds = _prefix_bounds(pattern)
    chosen_vals = [0] * k
    chosen_idx = [0] * k

    def extend(s: int, start: int) -> bool:
        lo, hi = bounds[s]
        lo_v = chosen_vals[lo] if lo is not None else 0
        hi_v = chosen_vals[hi] if hi is not None else n + 1
        for i in range(start, n - k + s + 1):
            v = values[i]
            if lo_v < v < hi_v:
                chosen_vals[s] = v
                chosen_idx[s] = i
                if s == k - 1 or extend(s + 1, i + 1):
                    return True
        return False

    if extend(0, 0):
        return tuple(i + 1 for i in chosen_idx)
    return None
