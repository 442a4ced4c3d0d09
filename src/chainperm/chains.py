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

from .patterns import (
    Length3Rule,
    Pattern,
    ParseError,
    _length3_rule,
    _match,
    _prefix_bounds,
    parse_pattern,
)
from .perm import Permutation

Level = tuple[Pattern, ...]


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

    def level_values(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
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


PreparedLevels = tuple[tuple[tuple[int, int, tuple, Length3Rule | None], ...], ...]


@lru_cache(maxsize=None)
def _prepared_chain(level_values: tuple[tuple[tuple[int, ...], ...], ...]) -> PreparedLevels:
    """Resolve each pattern of a chain to (length, slot of its maximum,
    prefix bounds, rule), once per chain.  The rule is the O(n) test of a
    pattern of length 3, and None for the other lengths, which the
    backtracking search decides.  The patterns of strongly_avoids may come
    from any Permutation, so the empty pattern is rejected here."""
    if not all(pat for level in level_values for pat in level):
        raise ValueError("a pattern must have length >= 1")
    return tuple(
        tuple(
            (len(pat), pat.index(len(pat)), _prefix_bounds(pat), _length3_rule(pat))
            for pat in level
        )
        for level in level_values
    )


def _avoids_prepared(
    values: tuple[int, ...], prepared: PreparedLevels, scratch: list[int], first: int = 0
) -> bool:
    """Chain predicate on a raw word, checking the levels from index first
    on (the caller has settled the ones before); powers are built
    incrementally."""
    n = len(values)
    cur = values
    for depth, level in enumerate(prepared):
        if depth:
            cur = tuple(values[v - 1] for v in cur)
        if depth < first:
            continue
        for k, _, bounds, rule in level:
            if k <= n and (
                rule.kernel(rule.view(cur))
                if rule is not None
                else _match(cur, bounds, scratch, 0, 0, n, k)
            ):
                return False
    return True


def _scratch_for(prepared: PreparedLevels) -> list[int]:
    longest = max((k for level in prepared for k, *_ in level), default=1)
    return [0] * longest


def chain_avoids(pi: Permutation, chain: ChainSpec) -> bool:
    """True when every power of pi avoids its level of the chain.

    >>> from .perm import parse_permutation
    >>> chain_avoids(parse_permutation("21543"), parse_chain("312,123:312"))
    True
    """
    prepared = _prepared_chain(chain.level_values())
    return _avoids_prepared(pi.values, prepared, _scratch_for(prepared))


def strongly_avoids(pi: Permutation, tau: Permutation) -> bool:
    """True when both pi and its square avoid tau.

    Equivalent to chain_avoids with the chain (tau : tau).
    """
    prepared = _prepared_chain(((tau.values,), (tau.values,)))
    return _avoids_prepared(pi.values, prepared, [0] * len(tau.values))
