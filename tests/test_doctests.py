"""Run the usage examples embedded in the library docstrings and the README,
and read the library's source: its prose names attributes that exist, and
its code holds no assert statement."""

import ast
import doctest
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import chainperm
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


def prose(source: str):
    """The docstrings and comments of a module's source, each with the
    line it starts on."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def test_docstrings_and_comments_name_existing_attributes():
    # A reference such as chains._chain_predicate in prose must name an
    # attribute of that submodule, so that a rename cannot leave it stale.
    # File names such as enumeration.py are not references; code is not
    # read at all, so locals that share a submodule's name do not count.
    # README.md is read whole, as one piece of prose.
    names = [m.name for m in pkgutil.iter_modules(chainperm.__path__) if m.name[0] != "_"]
    reference = re.compile(rf"\b({'|'.join(names)})\.([A-Za-z_][A-Za-z0-9_]*)")
    readme = Path(__file__).resolve().parent.parent / "README.md"
    sources = [(readme, [(1, readme.read_text())])] + [
        (path, prose(path.read_text()))
        for path in sorted(Path(chainperm.__file__).parent.glob("*.py"))
    ]
    stale = []
    for path, texts in sources:
        for line, text in texts:
            for found in reference.finditer(text):
                module, attribute = found.groups()
                if attribute != "py" and not hasattr(
                    importlib.import_module(f"chainperm.{module}"), attribute
                ):
                    at = line + text.count("\n", 0, found.start())
                    stale.append(f"{path.name}:{at}: {found.group()}")
    assert not stale


def test_library_holds_no_assert_statement():
    # python -O strips assert statements, so no check that the library
    # relies on may be one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(chainperm.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_no_module_imports_a_name_it_does_not_use():
    # Every module, __init__.py included, must load each name it imports,
    # so that a leftover import cannot stay. __init__.py exports its names
    # from a table, not by importing them.
    unused = []
    for path in sorted(Path(chainperm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused
