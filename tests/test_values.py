"""Value types: equality, hashing, immutability, repr and construction."""

import copy
import pickle

import pytest

from chainperm import (
    ChainSpec,
    CountRefinement,
    FormulaId,
    Pattern,
    Permutation,
    formula_by_tag,
    parse_chain,
)


def make_values():
    """Two separately built objects with equal fields, for each type."""
    return {
        "ChainSpec": lambda: parse_chain("312,1423:312"),
        "CountRefinement": lambda: CountRefinement(parse_chain("312:312"), (2, 1, 2)),
        "FormulaId": lambda: FormulaId("T34", parse_chain("231,312:231"), 1, "2^(n - 1)"),
    }


@pytest.mark.parametrize("name", sorted(make_values()))
def test_equal_fields_give_equal_objects_and_hashes(name):
    build = make_values()[name]
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


def test_unequal_fields_give_unequal_objects():
    chain = parse_chain("312:312")
    assert chain != parse_chain("231:231")
    assert CountRefinement(chain, (1, 1)) != CountRefinement(chain, (2, 0))
    assert CountRefinement(chain, (1,)) != CountRefinement(parse_chain("312"), (1,))
    t34 = formula_by_tag("T34")
    other = FormulaId(t34.tag, t34.chain_231, 2, t34.description)
    assert other != t34


def test_chain_spec_is_a_dictionary_key():
    counts = {parse_chain("312:312"): 1}
    assert counts[ChainSpec(((Pattern((3, 1, 2)),), (Permutation((3, 1, 2)),)))] == 1


def every_value():
    """One object of each type with one of its fields."""
    chain = parse_chain("312:312")
    return [
        (Permutation((2, 1)), "values"),
        (Pattern((2, 1)), "values"),
        (chain, "levels"),
        (CountRefinement(chain, (1,)), "total"),
        (formula_by_tag("T41"), "valid_from"),
    ]


@pytest.mark.parametrize(
    "value, field", every_value(), ids=lambda v: type(v).__name__ if not isinstance(v, str) else v
)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize(
    "value, field", every_value(), ids=lambda v: type(v).__name__ if not isinstance(v, str) else v
)
def test_values_copy_and_pickle_as_equal_objects(value, field):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value
        assert getattr(clone, field) == getattr(value, field)


def test_repr_names_the_fields():
    chain = parse_chain("312:312")
    assert repr(Permutation((2, 1))) == "Permutation((2, 1))"
    assert repr(Pattern((2, 1))) == "Pattern((2, 1))"
    assert repr(chain) == "ChainSpec(levels=(((3, 1, 2),), ((3, 1, 2),)))"
    assert repr(CountRefinement(chain, [1])) == (
        f"CountRefinement(chain={chain!r}, by_position_of_one=(1,))"
    )
    assert repr(formula_by_tag("T34")).startswith("FormulaId(tag='T34', chain_231=ChainSpec(")


def test_formula_id_keyword_construction():
    t41 = formula_by_tag("T41")
    row = FormulaId(
        description=t41.description,
        valid_from=t41.valid_from,
        chain_231=t41.chain_231,
        tag=t41.tag,
    )
    assert row == t41
    with pytest.raises(ValueError, match="T41: valid_from must be >= 1"):
        FormulaId(
            tag="T41",
            chain_231=t41.chain_231,
            valid_from=0,
            description="",
        )


def test_constructors_convert_and_validate():
    assert Permutation(iter([2, 1])).values == (2, 1)
    assert CountRefinement(parse_chain("312"), [1, 1]).by_position_of_one == (1, 1)
    assert parse_chain("312:312") == ChainSpec([[Permutation((3, 1, 2))], [Pattern((3, 1, 2))]])
    assert ChainSpec([[Permutation((3, 1, 2))]]).levels == (((3, 1, 2),),)
    with pytest.raises(ValueError, match="is not a permutation of 1..2"):
        Permutation((1, 3))
    with pytest.raises(ValueError, match="a pattern must have length >= 1"):
        Pattern(())
    with pytest.raises(ValueError, match="a chain needs at least one level"):
        ChainSpec(())
    with pytest.raises(ValueError, match="every chain level needs at least one pattern"):
        ChainSpec(((Pattern((1,)),), ()))
