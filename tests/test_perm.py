"""Permutation construction, parsing, and group operations."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chainperm import (
    ChainSpec,
    ParseError,
    Pattern,
    Permutation,
    contains,
    parse_permutation,
)
from helpers import all_words, compose_words, power_word


def words(n):
    return st.permutations(list(range(1, n + 1)))


perms = st.integers(min_value=0, max_value=8).flatmap(words).map(
    lambda vals: Permutation(tuple(vals))
)


def test_constructor_rejects_non_bijections():
    for bad in ((1, 3), (2, 2), (0, 1), (1, 2, 4), (-1,)):
        with pytest.raises(ValueError):
            Permutation(bad)


class Two:
    """An integer type other than int: it converts to 2 through __index__."""

    def __index__(self):
        return 2


def test_constructor_stores_integer_values_as_ints():
    # Values that equal integers but are not integers were once kept as
    # given: (1.0, 2.0) read '1.02.0' yet hashed like (1, 2).
    for given in ((True, 2), (1, Two()), [True, Two()]):
        pi = Permutation(given)
        assert pi.values == (1, 2)
        assert [type(v) for v in pi.values] == [int, int]
        assert pi.text() == "12"
        assert pi == Permutation((1, 2)) and hash(pi) == hash(Permutation((1, 2)))


def test_constructor_rejects_values_that_are_not_integers():
    with pytest.raises(ValueError, match=r"^\(1\.0, 2\.0\) is not a permutation of 1\.\.2$"):
        Permutation((1.0, 2.0))
    with pytest.raises(ValueError, match="is not a permutation"):
        ChainSpec([[(2.0, 3, 1)]])
    with pytest.raises(ValueError, match="is not a permutation"):
        contains(Permutation((3, 1, 2)), Pattern((2.0, 1.0)))
    for bad in (("1", "2"), (1, None), (1.5,)):
        with pytest.raises(ValueError):
            Permutation(bad)


def test_constructor_accepts_any_value_order():
    assert Permutation((2, 4, 1, 3)).values == (2, 4, 1, 3)
    assert Permutation([3, 1, 2]).values == (3, 1, 2)
    assert len(Permutation(())) == 0


def test_apply_is_one_based():
    pi = Permutation((2, 4, 1, 3))
    assert [pi(i) for i in (1, 2, 3, 4)] == [2, 4, 1, 3]
    with pytest.raises(IndexError):
        pi(0)
    with pytest.raises(IndexError):
        pi(5)


def test_compose_example():
    pi = parse_permutation("231")
    assert pi.compose(pi).values == (3, 1, 2)
    for i in (1, 2, 3):
        assert pi.compose(pi)(i) == pi(pi(i))


def test_compose_length_mismatch_raises():
    with pytest.raises(ValueError):
        Permutation((1, 2, 3)).compose(Permutation((1, 2, 3, 4)))


def test_power_examples():
    assert parse_permutation("1432").power(2) == Permutation((1, 2, 3, 4))
    assert parse_permutation("15432").power(2) == Permutation((1, 2, 3, 4, 5))
    pi = parse_permutation("231")
    assert pi.power(2).values == (3, 1, 2)
    assert pi.power(3) == Permutation((1, 2, 3))


def test_power_zero_and_negative():
    pi = parse_permutation("2413")
    assert pi.power(0) == Permutation((1, 2, 3, 4))
    with pytest.raises(ValueError):
        pi.power(-1)


def test_power_matches_repeated_compose():
    for n in range(0, 6):
        for word in all_words(n):
            pi = Permutation(word)
            for k in range(0, 5):
                assert pi.power(k).values == power_word(word, k)


def test_reverse_complement_examples():
    assert parse_permutation("231").reverse_complement().values == (3, 1, 2)
    assert parse_permutation("1432").reverse_complement().values == (3, 2, 1, 4)
    assert parse_permutation("1423").reverse_complement().values == (2, 3, 1, 4)
    assert parse_permutation("2143").reverse_complement().values == (2, 1, 4, 3)
    assert parse_permutation("24153").reverse().values == (3, 5, 1, 4, 2)
    assert parse_permutation("24153").complement().values == (4, 2, 5, 1, 3)


def test_reverse_and_complement_are_involutions():
    for n in range(0, 8):
        for word in all_words(n):
            pi = Permutation(word)
            assert pi.reverse().reverse() == pi
            assert pi.complement().complement() == pi
            assert pi.reverse_complement().reverse_complement() == pi


def test_reverse_complement_is_the_composite():
    for n in range(0, 7):
        for word in all_words(n):
            pi = Permutation(word)
            assert pi.reverse_complement() == pi.reverse().complement()
            assert pi.reverse_complement() == pi.complement().reverse()


def test_reverse_complement_commutes_with_powers():
    for n in range(0, 7):
        for word in all_words(n):
            pi = Permutation(word)
            rc = pi.reverse_complement()
            for k in range(0, 5):
                assert pi.power(k).reverse_complement() == rc.power(k)


def test_sum_examples():
    left = parse_permutation("21")
    right = parse_permutation("132")
    assert left.direct_sum(right).values == (2, 1, 3, 5, 4)
    assert left.skew_sum(right).values == (5, 4, 1, 3, 2)


def test_sums_with_empty_block():
    pi = parse_permutation("312")
    empty = Permutation(())
    assert pi.direct_sum(empty) == pi
    assert empty.direct_sum(pi) == pi
    assert pi.skew_sum(empty) == pi
    assert empty.skew_sum(pi) == pi


def test_power_distributes_over_direct_sum():
    for size_a, size_b in ((2, 3), (3, 3), (4, 2)):
        for word_a in all_words(size_a):
            for word_b in all_words(size_b):
                a = Permutation(word_a)
                b = Permutation(word_b)
                for k in range(0, 4):
                    assert a.direct_sum(b).power(k) == a.power(k).direct_sum(b.power(k))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(words(n), words(n), words(n))))
def test_compose_is_associative(triple):
    a, b, c = (Permutation(tuple(w)) for w in triple)
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=60, deadline=None)
@given(perms, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_power_addition_law(pi, a, b):
    assert pi.power(a + b) == pi.power(a).compose(pi.power(b))


def test_text_uses_digits_up_to_nine():
    assert parse_permutation("24153").text() == "24153"
    assert Permutation(tuple(range(1, 10))).text() == "123456789"
    assert Permutation(()).text() == ""


def test_text_uses_commas_from_ten():
    pi = Permutation(tuple(range(1, 11))).reverse()
    assert pi.text() == "10,9,8,7,6,5,4,3,2,1"
    assert parse_permutation(pi.text()) == pi


def test_parse_round_trip_small():
    for n in range(0, 6):
        for word in all_words(n):
            pi = Permutation(word)
            assert parse_permutation(pi.text()) == pi


def test_parse_comma_form():
    pi = parse_permutation("10,3,9,1,2,4,5,6,7,8")
    assert pi(1) == 10
    assert parse_permutation(" 2 , 1 ").values == (2, 1)


def test_parse_errors():
    for bad in ("0", "102", "122", "1,2,two", "1,,2", "3,1,", "2,4", "0,1", "12a"):
        with pytest.raises(ParseError):
            parse_permutation(bad)


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)
    with pytest.raises(ParseError, match="'122'"):
        parse_permutation("122")


def test_equality_and_hash():
    a = Permutation((2, 1, 3))
    b = parse_permutation("213")
    assert a == b
    assert hash(a) == hash(b)
    assert a != Permutation((1, 2, 3))
    assert a != (2, 1, 3)
    assert len({a, b}) == 1


def test_str_and_repr_round_trip():
    pi = parse_permutation("24153")
    assert str(pi) == "24153"
    assert "24153" in repr(pi) or "2, 4, 1, 5, 3" in repr(pi)
