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
