"""Chain avoidance: pattern constraints on successive powers.

A chain lists one pattern set per power.  A permutation pi satisfies
the chain (S1 : S2 : ... : Sm) when pi avoids every pattern in S1,
pi squared avoids every pattern in S2, and so on up to the m-th power.
Strong avoidance of a single pattern tau is the two-level chain
(tau : tau).

Text grammar: levels are separated by ":", patterns within a level by
",", whitespace is ignored.  Patterns inside chain text therefore use
the digit form only (length at most 9); the comma form of a single long
permutation would collide with the pattern separator.

Each chain is decided by one predicate, written out as source and
compiled on first use (see _chain_predicate): chain_avoids and
strongly_avoids run it on all the levels, and the generating tree of
enumeration.py on the levels from 2 on, before its pinned level-1
searches on every child it decides in full, and after them on the
nodes it still grows.
"""

from functools import lru_cache
from typing import Callable, Iterable

from .patterns import _KERNELS, Pattern, ParseError, _matcher, parse_pattern
from .perm import Frozen, Permutation, _reverse_complement, _word_text

LevelValues = tuple[tuple[tuple[int, ...], ...], ...]


class ChainSpec(Frozen):
    """An ordered, non-empty sequence of non-empty pattern levels, held as
    the value words of the patterns, grouped by level.  Each pattern has
    length at most 9, the most that chain text can write (see the module
    docstring), so that parse_chain reads back every chain's text.

    >>> parse_chain("312,123:312").levels
    (((3, 1, 2), (1, 2, 3)), ((3, 1, 2),))
    """

    __slots__ = ("levels",)

    levels: LevelValues

    def __init__(self, levels: Iterable[Iterable[Permutation | Iterable[int]]]) -> None:
        levels = tuple(
            tuple(Pattern(p.values if isinstance(p, Permutation) else p).values for p in level)
            for level in levels
        )
        if not levels:
            raise ValueError("a chain needs at least one level")
        if any(not level for level in levels):
            raise ValueError("every chain level needs at least one pattern")
        if any(len(p) > 9 for level in levels for p in level):
            raise ValueError("a chain pattern has length at most 9, so that chain text can hold it")
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Canonical chain text, e.g. '231,1432:231'."""
        return ":".join(",".join(map(_word_text, level)) for level in self.levels)

    def reverse_complement(self) -> "ChainSpec":
        """The chain with every pattern replaced by its reverse complement.

        Counts of chain avoiders are preserved under this map, because
        reverse complement commutes with taking powers.
        """
        return ChainSpec(map(_reverse_complement, level) for level in self.levels)


def parse_chain(text: str) -> ChainSpec:
    """Parse chain text such as '312,123:312'.

    >>> parse_chain("312, 123 : 312").text()
    '312,123:312'
    """
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty chain text")
    levels = []
    for lvl_number, lvl_text in enumerate(stripped.split(":"), start=1):
        if not lvl_text:
            raise ParseError(f"empty level {lvl_number} in chain {text!r}")
        patterns = []
        for token in lvl_text.split(","):
            if not token:
                raise ParseError(f"empty pattern in level {lvl_number} of chain {text!r}")
            patterns.append(parse_pattern(token))
        levels.append(tuple(patterns))
    return ChainSpec(tuple(levels))


# One pattern of the chain with the depth of the power it constrains: 0 for
# the word itself (level 1), 1 for its square, and so on.
Check = tuple[int, tuple[int, ...]]

Predicate = Callable[[tuple[int, ...]], bool]


def _cost(check: Check) -> tuple[bool, int, int]:
    """The order of the checks: every pattern with a kernel (see
    patterns._KERNELS) first, then the compiled searches by pattern length;
    the lower depth first among equals."""
    depth, pattern = check
    return pattern not in _KERNELS, len(pattern), depth


def _checks(levels: LevelValues, start: int = 0) -> tuple[Check, ...]:
    """Every pattern of the levels from start + 1 on with its depth, in the
    order the chain predicate runs them, cheapest first (see _cost)."""
    numbered = enumerate(levels[start:], start)
    return tuple(sorted(((depth, p) for depth, level in numbered for p in level), key=_cost))


@lru_cache(maxsize=None)
def _chain_predicate(levels: LevelValues, start: int = 0) -> Predicate:
    """The predicate of the levels from start + 1 on, written out as one
    function and compiled once per chain and start: start 0 decides the
    whole chain, start 1 the deeper levels of a word whose level 1 is
    already settled.

    The function returned takes a raw word and returns False at the first
    check whose power of the word contains its pattern, else True.  Any
    check that fails rejects the word, so their order, cheapest first (see
    _cost), changes only the cost.  A pattern with a record in
    patterns._KERNELS, one of the six of length 3, becomes one for loop
    over the word that reads the power in place, as x, p[x], p[p[x]] and so
    on with p the word shifted to 1-based indexing, and runs its kernel on
    each entry: one O(n) pass that builds nothing.  A backward kernel reads
    the power in place too, from the last position to the first, and a
    complemented kernel reads each value v of the power as n + 1 - v, with
    n the length of the word.  Any other pattern runs its compiled search
    (patterns._matcher) on its power, built as a tuple at most once per
    word and depth.

    The source holds only the fixed lines of the kernels, depths and check
    numbers; each search reaches it through the namespace.  So every
    pattern without a record goes to _matcher, which refuses it unless it
    is a permutation of 1..k with k >= 1, before the source is compiled.
    """
    checks = _checks(levels, start)
    lines = ["def avoids(w):"]
    if any(depth for depth, _ in checks):
        lines.append("    p = (0,) + w")
    namespace: dict = {}
    built = {0}
    for c, (depth, pattern) in enumerate(checks):
        entry = "p[" * depth + "x" + "]" * depth
        if pattern in _KERNELS:
            (begin, step), _, backward, complement = _KERNELS[pattern]
            word = "reversed(w)" if backward else "w"
            if complement:
                begin, entry = ("n1 = len(w) + 1",) + begin, f"n1 - {entry}"
            lines += ["    " + line for line in begin + (f"for x in {word}:", f"    v = {entry}")]
            lines += ["        " + line for line in step]
            continue
        if depth not in built:
            lines.append(f"    w{depth} = tuple([{entry} for x in w])")
            built.add(depth)
        namespace[f"m{c}"] = _matcher(pattern)
        lines.append(f"    if m{c}({f'w{depth}' if depth else 'w'}) is not None:")
        lines.append("        return False")
    lines.append("    return True")
    exec(compile("\n".join(lines), f"<chain predicate {checks}>", "exec"), namespace)
    return namespace["avoids"]


def chain_avoids(pi: Permutation, chain: ChainSpec) -> bool:
    """True when every power of pi avoids its level of the chain.

    >>> from .perm import parse_permutation
    >>> chain_avoids(parse_permutation("21543"), parse_chain("312,123:312"))
    True
    """
    return _chain_predicate(chain.levels)(pi.values)


def strongly_avoids(pi: Permutation, tau: Permutation) -> bool:
    """True when both pi and its square avoid tau.

    Equivalent to chain_avoids with the chain (tau : tau).
    """
    return _chain_predicate(((tau.values,), (tau.values,)))(pi.values)
