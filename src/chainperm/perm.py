"""Permutations in one-line notation.

A permutation of size n is stored as the word (pi(1), ..., pi(n)), a
rearrangement of 1..n.  Positions and values are both 1-based in every
public interface.  The empty permutation (n = 0) is allowed and acts as
the neutral element of both sum constructions.

Text form: sizes up to 9 use a plain digit string ("24153"), larger
sizes use comma-separated values ("10,3,1,...").  The parser accepts
either form.
"""

from operator import attrgetter, index
from typing import Iterable


class ParseError(ValueError):
    """Raised when permutation, pattern, or chain text cannot be parsed."""


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in its own __slots__, in the order of its
    constructor's parameters, and its __init__ sets each one once through
    object.__setattr__.  The class that names the fields owns them: a
    subclass that adds none, as Pattern adds none to Permutation, keeps
    its owner's fields.  Equality holds between instances of the owner
    with equal fields, so a Pattern equals the Permutation with the same
    values, and hashing hashes the fields (a one-field record hashes that
    field).  The repr lists the fields by keyword; assigning or deleting
    any attribute raises AttributeError; and an object pickles and copies
    as a call of its class on its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):
            cls._owner = cls
            cls._key = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, self._owner):
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._owner.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self._owner.__slots__])


def _word_text(values: tuple[int, ...]) -> str:
    """The text form of a word (see the module docstring)."""
    return ("" if len(values) <= 9 else ",").join(map(str, values))


def _reverse_complement(values: tuple[int, ...]) -> tuple[int, ...]:
    """The word read right to left, with each value v replaced by n + 1 - v.

    >>> _reverse_complement((2, 3, 1))
    (3, 1, 2)
    """
    return tuple(map((len(values) + 1).__sub__, reversed(values)))


class Permutation(Frozen):
    """A bijection on {1, ..., n}, held as its one-line word.

    >>> Permutation((2, 4, 1, 5, 3))(2)
    4
    >>> str(Permutation((2, 4, 1, 5, 3)))
    '24153'
    """

    __slots__ = ("values",)

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]) -> None:
        given = tuple(values)
        n = len(given)
        try:
            values = tuple(map(index, given))
        except TypeError:
            values = ()  # a value that is not an integer matches no permutation
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError(f"{given!r} is not a permutation of 1..{n}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """Apply the permutation to a 1-based position."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"position {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.values!r})"

    def text(self) -> str:
        """Canonical text form: digit string up to size 9, else comma-separated."""
        return _word_text(self.values)

    def compose(self, inner: "Permutation") -> "Permutation":
        """The product self o inner, mapping i to self(inner(i)).

        >>> p = Permutation((2, 3, 1))
        >>> str(p.compose(p))
        '312'
        """
        if len(inner) != len(self):
            raise ValueError(
                f"cannot compose permutations of sizes {len(self)} and {len(inner)}"
            )
        return Permutation(tuple(self.values[j - 1] for j in inner.values))

    def power(self, k: int) -> "Permutation":
        """The k-th compositional power, with power 0 the identity."""
        k = index(k)
        if k < 0:
            raise ValueError("exponent must be >= 0")
        result = tuple(range(1, len(self.values) + 1))
        for _ in range(k):
            result = tuple(self.values[j - 1] for j in result)
        return Permutation(result)

    def reverse(self) -> "Permutation":
        """The word read right to left."""
        return Permutation(self.values[::-1])

    def complement(self) -> "Permutation":
        """Each value v replaced by n + 1 - v."""
        n = len(self.values)
        return Permutation(tuple(n + 1 - v for v in self.values))

    def reverse_complement(self) -> "Permutation":
        """Complement of the reverse.

        >>> str(Permutation((2, 3, 1)).reverse_complement())
        '312'
        """
        return Permutation(_reverse_complement(self.values))

    def direct_sum(self, other: "Permutation") -> "Permutation":
        """self on 1..l, then other shifted up by l.

        >>> str(Permutation((2, 1)).direct_sum(Permutation((1, 3, 2))))
        '21354'
        """
        shift = len(self.values)
        return Permutation(self.values + tuple(v + shift for v in other.values))

    def skew_sum(self, other: "Permutation") -> "Permutation":
        """self shifted up by the size of other, then other.

        >>> str(Permutation((2, 1)).skew_sum(Permutation((1, 3, 2))))
        '54132'
        """
        shift = len(other.values)
        return Permutation(tuple(v + shift for v in self.values) + other.values)


_DIGITS = set("123456789")


def parse_permutation(text: str) -> Permutation:
    """Parse either text form into a Permutation.

    >>> parse_permutation("24153").values
    (2, 4, 1, 5, 3)
    >>> parse_permutation("10,3,1,2,4,5,6,7,8,9")(1)
    10
    """
    s = text.strip()
    if not s:
        return Permutation(())
    if "," in s:
        parts = [p.strip() for p in s.split(",")]
        if any(not p for p in parts):
            raise ParseError(f"invalid permutation text {text!r}: empty entry")
        try:
            values = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(
                f"invalid permutation text {text!r}: entries must be integers"
            ) from None
    else:
        if not set(s) <= _DIGITS:
            raise ParseError(
                f"invalid permutation text {text!r}: digit form allows only 1-9"
            )
        values = tuple(int(ch) for ch in s)
    try:
        return Permutation(values)
    except ValueError as exc:
        raise ParseError(f"invalid permutation text {text!r}: {exc}") from None
