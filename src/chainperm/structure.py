"""Strongly 312-avoiding permutations that end in 1.

These are exactly the words (k+1)(k+2)...n k(k-1)...1 whose breakpoint
k satisfies k >= n/2.  Note the map from breakpoints to words is not
injective at the top: k = n - 1 and k = n both give the decreasing word
n...21, so for n >= 2 the valid breakpoints outnumber the distinct
words by one.
"""

from operator import index

from .perm import Permutation


def breakpoint_range(n: int) -> range:
    """All valid breakpoints for size n, i.e. ceil(n/2) <= k <= n."""
    n = index(n)
    if n < 1:
        raise ValueError("size must be >= 1")
    return range((n + 1) // 2, n + 1)


def build_unimodal(n: int, k: int) -> Permutation:
    """The word (k+1)(k+2)...n followed by k(k-1)...1.

    >>> str(build_unimodal(7, 4))
    '5674321'
    """
    admissible, k = breakpoint_range(n), index(k)
    if k not in admissible:
        raise ValueError(
            f"breakpoint k={k} is outside the admissible range for n={n}: "
            f"k >= n/2 and k <= n, i.e. {admissible.start} <= k <= {n}"
        )
    return Permutation(tuple(range(k + 1, n + 1)) + tuple(range(k, 0, -1)))


def classify_strong_312_ending_in_1(pi: Permutation) -> int | None:
    """The breakpoint of pi if it has the strongly 312-avoiding shape.

    Requires pi to end in 1.  Returns None when pi is not of the form
    built by build_unimodal with an admissible breakpoint.  The word of
    k starts with k + 1, except that of k = n, which starts with n; so
    the first entry names the one candidate k, and only its word is
    built.  The decreasing word matches both k = n - 1 and k = n; the
    larger one is returned.
    """
    values = pi.values
    if not values or values[-1] != 1:
        raise ValueError("classification applies only to permutations ending in 1")
    n = len(values)
    k = n if values[0] == n else values[0] - 1
    return k if k in breakpoint_range(n) and build_unimodal(n, k).values == values else None


def count_strong_312_ending_in_1(n: int) -> int:
    """How many breakpoints are admissible at size n: n - ceil(n/2) + 1.

    This counts breakpoints, not words; the distinct words number one
    fewer for n >= 2 (see unimodal_forms).
    """
    return len(breakpoint_range(n))


def unimodal_forms(n: int) -> list[Permutation]:
    """The distinct admissible words at size n, in lexicographic order.

    k = n gives the word of k = n - 1, so one word is built for each k
    from ceil(n/2) to n - 1, or the word 1 at n = 1.  The word of k
    starts with k + 1, so they come in lexicographic order.
    """
    return [build_unimodal(n, k) for k in range(breakpoint_range(n).start, max(n, 2))]
