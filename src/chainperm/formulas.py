"""Closed forms for the nine built-in chain-avoidance counts.

Each table row holds its chain on the 231 side, and the function that
computes its count is the row's one statement of its closed form in
code; README's formula table states it in prose.  The row's chain on the
312 side is the reverse complement, which has the same count.  evaluate
answers only for rows of the table.  All arithmetic is integer only; the
divisions in T42, T43 and T44 are exact and checked.
"""

from operator import index
from typing import Callable

from .chains import ChainSpec, parse_chain
from .perm import Frozen


def _ceil_half(n: int) -> int:
    return (n + 1) // 2


def _recurrence(n: int, second: int, name: str) -> int:
    """The n-th term of the sequence that starts 1, second and adds the two
    terms before each later one; name is the sequence's, for the error."""
    n = index(n)
    if n < 1:
        raise ValueError(f"{name} is defined for n >= 1")
    a, b = 1, second
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def fibonacci(n: int) -> int:
    """Fibonacci numbers indexed so that F(1) = 1 and F(2) = 2.

    >>> [fibonacci(n) for n in range(1, 7)]
    [1, 2, 3, 5, 8, 13]
    """
    return _recurrence(n, 2, "fibonacci")


def lucas(n: int) -> int:
    """Lucas numbers indexed so that L(1) = 1 and L(2) = 3.

    >>> [lucas(n) for n in range(1, 7)]
    [1, 3, 4, 7, 11, 18]
    """
    return _recurrence(n, 3, "lucas")


def ceiling_half_sum(n: int) -> int:
    """Sum of ceil(i / 2) for i = 1..n, in closed form.

    Equals k^2 + k when n = 2k and k^2 + 2k + 1 when n = 2k + 1.
    """
    k, odd = divmod(index(n), 2)
    if n < 1:
        raise ValueError("ceiling_half_sum is defined for n >= 1")
    if odd:
        return k * k + 2 * k + 1
    return k * k + k


def _exact_div(numerator: int, divisor: int) -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(f"{numerator} is not divisible by {divisor}")
    return quotient


def _t33(n: int) -> int:
    k, odd = divmod(n, 2)
    return k * k + k + 1 if odd else k * k + 1


def _t42(n: int) -> int:
    k, odd = divmod(n, 2)
    if odd:
        return _exact_div(14 * 4 ** (k - 1) - 2, 3)
    return _exact_div(7 * 4 ** (k - 1) - 1, 3)


def _t43(n: int) -> int:
    k, odd = divmod(n, 2)
    if odd:
        return _exact_div(4 * k**3 + 9 * k**2 + 5 * k, 6) + 1
    return _exact_div(4 * k**3 + 3 * k**2 - k, 6) + 1


class FormulaId(Frozen):
    """One row of the formula table.

    chain_231 is the row's chain on the 231 side; chain_312, its reverse
    complement, counts the same permutations.  valid_from is the smallest
    n the closed form covers, stored as an int through operator.index, so
    a valid_from that is not an integer raises TypeError.  The row holds
    no prose: its closed form is stated once in code, as the function
    evaluate runs for it, and once in prose, in README's formula table.
    """

    __slots__ = ("tag", "chain_231", "valid_from")

    tag: str
    chain_231: ChainSpec
    valid_from: int

    def __init__(self, tag: str, chain_231: ChainSpec, valid_from: int) -> None:
        valid_from = index(valid_from)
        if valid_from < 1:
            raise ValueError(f"{tag}: valid_from must be >= 1")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "chain_231", chain_231)
        object.__setattr__(self, "valid_from", valid_from)

    @property
    def chain_312(self) -> ChainSpec:
        return self.chain_231.reverse_complement()


# One row per tag: the level-1 pattern beside 231 on the 231 side, valid_from
# and the function that is the row's closed form; the twin rows T33/T35 and
# T43/T44 name one function each.
_ROWS = (
    ("T31", "123", 3, lambda n: 2 * n - 3),
    ("T32", "321", 1, fibonacci),
    ("T33", "132", 1, _t33),
    ("T34", "312", 1, lambda n: 2 ** (n - 1)),
    ("T35", "213", 1, _t33),
    ("T41", "1432", 1, lambda n: lucas(n + 1) - _ceil_half(n) - 1),
    ("T42", "1423", 2, _t42),
    ("T43", "1243", 1, _t43),
    ("T44", "2143", 1, _t43),
)

# Each tag's row of the table and the closed form it claims, in tag order.
_CLAIMS: dict[str, tuple[FormulaId, Callable[[int], int]]] = {
    tag: (FormulaId(tag, parse_chain(f"231,{side}:231"), valid_from), form)
    for tag, side, valid_from, form in _ROWS
}


def formula_table() -> list[FormulaId]:
    """All nine rows, in tag order."""
    return [row for row, _ in _CLAIMS.values()]


def formula_by_tag(tag: str) -> FormulaId:
    """Look one row up by tag, e.g. 'T41'."""
    try:
        return _CLAIMS[tag][0]
    except KeyError:
        known = ", ".join(sorted(_CLAIMS))
        raise ValueError(f"unknown formula tag {tag!r} (known: {known})") from None


def evaluate(formula: FormulaId, n: int) -> int:
    """The exact count the row predicts at size n.

    formula must be a row of the table, as formula_table and
    formula_by_tag give it; any other FormulaId is refused.

    >>> evaluate(formula_by_tag("T34"), 6)
    32
    """
    n = index(n)
    row, form = _CLAIMS.get(formula.tag, (None, None))
    if formula != row:
        raise ValueError(f"{formula.tag}: not a row of the formula table")
    if n < formula.valid_from:
        raise ValueError(
            f"{formula.tag} is stated for n >= {formula.valid_from}, got n={n}"
        )
    return form(n)
