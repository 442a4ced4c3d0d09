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
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .patterns import Pattern, ParseError, Prepared, _prepare, parse_pattern
from .perm import Permutation

Level = tuple[Pattern, ...]
LevelValues = tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class ChainSpec:
    """An ordered, non-empty sequence of non-empty pattern levels."""

    levels: tuple[Level, ...]

    def __post_init__(self) -> None:
        levels = tuple(
            tuple(p if isinstance(p, Pattern) else Pattern(p.values) for p in level)
            for level in self.levels
        )
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("a chain needs at least one level")
        if any(not level for level in levels):
            raise ValueError("every chain level needs at least one pattern")

    def __len__(self) -> int:
        return len(self.levels)

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Canonical chain text, e.g. '231,1432:231'."""
        return ":".join(",".join(p.text() for p in level) for level in self.levels)

    def level_values(self) -> LevelValues:
        """The raw value words of every pattern, grouped by level."""
        return tuple(tuple(p.values for p in level) for level in self.levels)

    def reverse_complement(self) -> "ChainSpec":
        """The chain with every pattern replaced by its reverse complement.

        Counts of chain avoiders are preserved under this map, because
        reverse complement commutes with taking powers.
        """
        return ChainSpec(
            tuple(
                tuple(Pattern(p.reverse_complement().values) for p in level)
                for level in self.levels
            )
        )


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


PreparedLevels = tuple[tuple[Prepared, ...], ...]

# One pattern of the chain with the depth of the power it constrains: 0 for
# the word itself (level 1), 1 for its square, and so on.
Check = tuple[int, Prepared]


class PreparedChain(NamedTuple):
    """A chain resolved to its tests, once per chain (see _prepared_chain).

    levels holds the prepared patterns of each level in chain order, for
    the tree walk.  checks holds every pattern in the order the chain
    predicate runs them, cheapest first; deeper holds those of levels 2
    on, in the same order, for words whose level 1 is already settled.
    """

    levels: PreparedLevels
    checks: tuple[Check, ...]
    deeper: tuple[Check, ...]


def _cost(check: Check) -> tuple[bool, int, int]:
    """The order of the checks: every Length3Rule first, then the compiled
    searches by pattern length; the lower depth first among equals."""
    depth, (pattern, rule, _) = check
    return rule is None, len(pattern), depth


@lru_cache(maxsize=None)
def _prepared_chain(level_values: LevelValues) -> PreparedChain:
    """Resolve each pattern of a chain to its prepared form and order the
    checks, once per chain.  The patterns of strongly_avoids may come from
    any Permutation, so _matcher rejects the empty pattern here."""
    levels = tuple(tuple(map(_prepare, level)) for level in level_values)
    checks = tuple(
        sorted(((depth, p) for depth, level in enumerate(levels) for p in level), key=_cost)
    )
    return PreparedChain(levels, checks, tuple(c for c in checks if c[0]))


def _avoids_prepared(values: tuple[int, ...], checks: tuple[Check, ...]) -> bool:
    """Chain predicate on a raw word: False at the first check whose power
    of the word contains its pattern.

    Any check that fails rejects the word, so the order changes only the
    cost.  The checks run cheapest first: a Length3Rule is one O(n) pass,
    at whatever depth it sits, while the compiled search of a pattern of
    length k nests k loops over the word.  So a rule that rejects the word
    spares every search, and a short search spares the longer ones.  Each
    power is built, from the one below it, only when a check first needs
    it, which costs one O(n) pass like a rule.
    """
    powers = [values]
    for depth, (_, rule, match) in checks:
        while len(powers) <= depth:
            powers.append(tuple([values[v - 1] for v in powers[-1]]))
        word = powers[depth]
        if match(word) if rule is None else rule.kernel(rule.view(word)):
            return False
    return True


def chain_avoids(pi: Permutation, chain: ChainSpec) -> bool:
    """True when every power of pi avoids its level of the chain.

    >>> from .perm import parse_permutation
    >>> chain_avoids(parse_permutation("21543"), parse_chain("312,123:312"))
    True
    """
    return _avoids_prepared(pi.values, _prepared_chain(chain.level_values()).checks)


def strongly_avoids(pi: Permutation, tau: Permutation) -> bool:
    """True when both pi and its square avoid tau.

    Equivalent to chain_avoids with the chain (tau : tau).
    """
    return _avoids_prepared(pi.values, _prepared_chain(((tau.values,), (tau.values,))).checks)
