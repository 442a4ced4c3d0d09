"""Run the usage examples embedded in the library docstrings and the README."""

import doctest
from pathlib import Path

import pytest

from chainperm import chains, enumeration, formulas, patterns, perm, structure


@pytest.mark.parametrize(
    "module", (perm, patterns, chains, enumeration, formulas, structure)
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_quick_tour():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
