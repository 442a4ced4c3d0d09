"""Closed forms: sequence helpers, the nine-row table, evaluation."""

from pathlib import Path

import pytest

from chainperm import (
    ceiling_half_sum,
    count_chain,
    evaluate,
    fibonacci,
    formula_by_tag,
    formula_table,
    lucas,
    parse_chain,
)
from chainperm.formulas import FormulaId

ALL_TAGS = ("T31", "T32", "T33", "T34", "T35", "T41", "T42", "T43", "T44")


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(1, 9)] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert fibonacci(6) == 13
    with pytest.raises(ValueError, match=r"^fibonacci is defined for n >= 1$"):
        fibonacci(0)


def test_lucas_values():
    assert [lucas(n) for n in range(1, 9)] == [1, 3, 4, 7, 11, 18, 29, 47]
    assert lucas(2) == 3
    assert lucas(5) == 11
    with pytest.raises(ValueError, match=r"^lucas is defined for n >= 1$"):
        lucas(0)


def test_fibonacci_and_lucas_recurrences():
    for n in range(3, 80):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


def test_ceiling_half_sum_examples():
    assert ceiling_half_sum(1) == 1
    assert ceiling_half_sum(4) == 6
    assert ceiling_half_sum(7) == 16
    with pytest.raises(ValueError):
        ceiling_half_sum(0)


def test_ceiling_half_sum_matches_direct_sum():
    for n in range(1, 101):
        assert ceiling_half_sum(n) == sum((i + 1) // 2 for i in range(1, n + 1))


def test_table_shape():
    table = formula_table()
    assert [row.tag for row in table] == list(ALL_TAGS)
    for row in table:
        assert row.chain_312 == row.chain_231.reverse_complement()
        assert row.valid_from >= 1
        assert row.description
    assert formula_table() is not table


def test_table_chains():
    t41 = formula_by_tag("T41")
    assert t41.chain_231.text() == "231,1432:231"
    assert t41.chain_312.text() == "312,3214:312"
    assert t41.valid_from == 1
    t42 = formula_by_tag("T42")
    assert t42.chain_312.text() == "312,2314:312"
    assert t42.valid_from == 2
    t31 = formula_by_tag("T31")
    assert t31.chain_312.text() == "312,123:312"
    assert t31.valid_from == 3
    t33 = formula_by_tag("T33")
    assert t33.chain_231.text() == "231,132:231"
    assert t33.chain_312.text() == "312,213:312"


def test_readme_formula_table_matches_the_package():
    # The rows of the table under "## The formula table" in README.md:
    # tag, both chains and valid_from, as the package stores them.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## The formula table", 1)[1].split("\n#", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| T")
    ]
    assert [(tag, left, right, int(valid_from)) for tag, left, right, _, valid_from in rows] == [
        (row.tag, row.chain_231.text(), row.chain_312.text(), row.valid_from)
        for row in formula_table()
    ]


def test_unknown_tag():
    with pytest.raises(ValueError, match="T99"):
        formula_by_tag("T99")


def test_evaluate_stored_values():
    assert evaluate(formula_by_tag("T31"), 3) == 3
    assert evaluate(formula_by_tag("T31"), 4) == 5
    assert evaluate(formula_by_tag("T31"), 5) == 7
    assert [evaluate(formula_by_tag("T32"), n) for n in range(1, 7)] == [1, 2, 3, 5, 8, 13]
    assert [evaluate(formula_by_tag("T33"), n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 10, 13]
    assert evaluate(formula_by_tag("T34"), 4) == 8
    assert evaluate(formula_by_tag("T34"), 6) == 32
    assert [evaluate(formula_by_tag("T41"), n) for n in range(1, 10)] == [
        1, 2, 4, 8, 14, 25, 42, 71, 117,
    ]
    assert [evaluate(formula_by_tag("T42"), n) for n in range(2, 9)] == [
        2, 4, 9, 18, 37, 74, 149,
    ]
    assert [evaluate(formula_by_tag("T43"), n) for n in range(1, 9)] == [
        1, 2, 4, 8, 14, 23, 35, 51,
    ]


def test_evaluate_t41_beats_the_old_tabulated_value():
    assert evaluate(formula_by_tag("T41"), 6) == 25
    assert count_chain(6, formula_by_tag("T41").chain_312).total == 25


def test_evaluate_below_valid_from():
    with pytest.raises(ValueError, match=r"^T31 is stated for n >= 3, got n=2$"):
        evaluate(formula_by_tag("T31"), 2)
    with pytest.raises(ValueError, match=r"^T42 is stated for n >= 2, got n=1$"):
        evaluate(formula_by_tag("T42"), 1)


def test_evaluate_answers_only_for_table_rows():
    t41 = formula_by_tag("T41")
    rebuilt = FormulaId(
        tag="T41",
        chain_231=parse_chain("231,1432:231"),
        valid_from=1,
        description=t41.description,
    )
    assert rebuilt is not t41
    assert evaluate(rebuilt, 8) == 71
    unknown = FormulaId("X", parse_chain("231:231"), 1, "")
    with pytest.raises(ValueError, match=r"^X: not a row of the formula table$"):
        evaluate(unknown, 5)
    # A table tag on chains of no row claims nothing.
    t34 = formula_by_tag("T34")
    other = FormulaId("T34", parse_chain("231,4321:231"), 1, t34.description)
    with pytest.raises(ValueError, match=r"^T34: not a row of the formula table$"):
        evaluate(other, 5)


def test_twin_tags_share_values():
    for a, b in (("T33", "T35"), ("T43", "T44")):
        assert formula_by_tag(a).description == formula_by_tag(b).description
        for n in range(1, 61):
            assert evaluate(formula_by_tag(a), n) == evaluate(formula_by_tag(b), n)


def test_results_are_exact_integers():
    for tag in ALL_TAGS:
        formula = formula_by_tag(tag)
        for n in range(formula.valid_from, 61):
            value = evaluate(formula, n)
            assert isinstance(value, int)
            assert value >= 1


def test_t41_recurrence():
    t41 = formula_by_tag("T41")
    for n in range(3, 61):
        assert evaluate(t41, n) == (
            evaluate(t41, n - 1) + evaluate(t41, n - 2) + n - (n + 1) // 2
        )


def test_t34_partial_sum_identity():
    t34 = formula_by_tag("T34")
    for n in range(2, 31):
        assert evaluate(t34, n) == sum(evaluate(t34, i) for i in range(1, n)) + 1


def test_t42_alternating_growth():
    t42 = formula_by_tag("T42")
    for n in range(2, 41):
        if n % 2 == 0:
            assert evaluate(t42, n + 1) == 2 * evaluate(t42, n)
        assert evaluate(t42, n + 2) == 4 * evaluate(t42, n) + (2 if n % 2 else 1)
