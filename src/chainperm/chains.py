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


@lru_cache(maxsize=None)
def _prepared_chain(level_values: LevelValues) -> PreparedLevels:
    """Resolve each pattern of a chain to its prepared form, once per chain.
    The patterns of strongly_avoids may come from any Permutation, so
    _matcher rejects the empty pattern here."""
    return tuple(tuple(map(_prepare, level)) for level in level_values)


def _avoids_prepared(values: tuple[int, ...], prepared: PreparedLevels, first: int = 0) -> bool:
    """Chain predicate on a raw word, checking the levels from index first
    on (the caller has settled the ones before); powers are built
    incrementally."""
    cur = values
    for depth, level in enumerate(prepared):
        if depth:
            cur = tuple([values[v - 1] for v in cur])
        if depth < first:
            continue
        for _, rule, match in level:
            if match(cur) if rule is None else rule.kernel(rule.view(cur)):
                return False
    return True


def chain_avoids(pi: Permutation, chain: ChainSpec) -> bool:
    """True when every power of pi avoids its level of the chain.

    >>> from .perm import parse_permutation
    >>> chain_avoids(parse_permutation("21543"), parse_chain("312,123:312"))
    True
    """
    return _avoids_prepared(pi.values, _prepared_chain(chain.level_values()))


def strongly_avoids(pi: Permutation, tau: Permutation) -> bool:
    """True when both pi and its square avoid tau.

    Equivalent to chain_avoids with the chain (tau : tau).
    """
    return _avoids_prepared(pi.values, _prepared_chain(((tau.values,), (tau.values,))))
