"""Independent oracles for the test suite.

Everything here deliberately avoids the library's search code: containment
is a full scan over index combinations, powers are rebuilt by naive
composition.  Tests compare library results against these.
"""

import itertools


def scan_contains(word, pattern):
    """Containment decided by checking every index combination."""
    k = len(pattern)
    for idxs in itertools.combinations(range(len(word)), k):
        if _order_isomorphic(tuple(word[i] for i in idxs), pattern):
            return True
    return False


def first_occurrence_scan(word, pattern):
    """The first matching index combination, 1-based, or None."""
    k = len(pattern)
    for idxs in itertools.combinations(range(len(word)), k):
        if _order_isomorphic(tuple(word[i] for i in idxs), pattern):
            return tuple(i + 1 for i in idxs)
    return None


def scan_contains_through_max(word, pattern, index):
    """Containment restricted to occurrences that put word[index] (0-based)
    at the slot of the pattern's maximum."""
    k = len(pattern)
    top = pattern.index(k)
    for idxs in itertools.combinations(range(len(word)), k):
        if idxs[top] == index and _order_isomorphic(tuple(word[i] for i in idxs), pattern):
            return True
    return False


def _order_isomorphic(sub, pattern):
    k = len(pattern)
    for s in range(k):
        for t in range(s):
            if (sub[s] > sub[t]) != (pattern[s] > pattern[t]):
                return False
    return True


def compose_words(outer, inner):
    return tuple(outer[j - 1] for j in inner)


def power_word(word, k):
    result = tuple(range(1, len(word) + 1))
    for _ in range(k):
        result = compose_words(word, result)
    return result


def scan_chain_avoids(word, levels):
    """Chain predicate built only on the scan oracle above."""
    for depth, level in enumerate(levels, start=1):
        cur = power_word(word, depth)
        for pattern in level:
            if scan_contains(cur, pattern):
                return False
    return True


def scan_count_chain(n, levels):
    """Chain-avoider total and position-of-1 split, oracle style."""
    total = 0
    by_pos = [0] * n
    for word in itertools.permutations(range(1, n + 1)):
        if scan_chain_avoids(word, levels):
            total += 1
            by_pos[word.index(1)] += 1
    return total, tuple(by_pos)


def scan_structure(n, classify):
    """The strong 312 avoiders among the words of size n that end in 1, and
    the words among them that ``classify`` (a word tuple to a breakpoint or
    None) accepts, found by scanning all (n - 1)! such words."""
    strong = set()
    classified = set()
    for tail in itertools.permutations(range(2, n + 1)):
        word = tail + (1,)
        if scan_chain_avoids(word, (((3, 1, 2),), ((3, 1, 2),))):
            strong.add(word)
        if classify(word) is not None:
            classified.add(word)
    return strong, classified


def all_words(n):
    return itertools.permutations(range(1, n + 1))


PATTERNS_3 = tuple(itertools.permutations((1, 2, 3)))
PATTERNS_4 = tuple(itertools.permutations((1, 2, 3, 4)))
