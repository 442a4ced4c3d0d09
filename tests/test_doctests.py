"""Run the usage examples embedded in the library docstrings and the README,
and read the library's source: its prose names attributes that exist, its
code holds no assert statement and parses as the oldest Python it supports,
and each name it defines has a reader outside the tests."""

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

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(Path(chainperm.__file__).parent.glob("*.py"))


@pytest.mark.parametrize(
    "module", (perm, patterns, chains, enumeration, formulas, structure)
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_quick_tour():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
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
    readme = ROOT / "README.md"
    sources = [(readme, [(1, readme.read_text())])] + [
        (path, prose(path.read_text())) for path in LIBRARY
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
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_no_module_imports_a_name_it_does_not_use():
    # Every module, __init__.py included, must load each name it imports,
    # so that a leftover import cannot stay. __init__.py exports its names
    # from a table, not by importing them.
    unused = []
    for path in LIBRARY:
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


def top_level_statements():
    """Each top-level statement of every module of the library, with the
    names it binds (by def, class or assignment) and the names it loads."""
    for path in LIBRARY:
        for statement in ast.parse(path.read_text()).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {statement.name}
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                bound = {
                    node.id
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                }
            else:
                bound = set()
            loaded = {
                node.id
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            yield path.name, bound, loaded


def test_every_name_has_a_reader_outside_the_tests():
    # A public name must be loaded by library code outside its own
    # definition, named in backticks in README.md, or imported by the
    # acceptance tests, whose criteria are the package's stated contract.
    # A private top-level name must be loaded by library code outside its
    # own definition.  Code that nothing else reads cannot stay.
    statements = list(top_level_statements())

    def read_elsewhere(name):
        return any(name in loaded and name not in bound for _, bound, loaded in statements)

    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", (ROOT / "README.md").read_text()))
    contract = {
        alias.name
        for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "chainperm"
        for alias in node.names
    }
    unread = [
        name
        for name in chainperm.__all__
        if not (read_elsewhere(name) or name in documented or name in contract)
    ]
    unread += [
        f"{module}: {name}"
        for module, bound, _ in statements
        for name in sorted(bound)
        if name[0] == "_" and not name.startswith("__") and not read_elsewhere(name)
    ]
    assert not unread


def test_every_record_field_has_a_reader():
    # Each field a library class names in its own __slots__ must be read as
    # an attribute by library code outside that class's __init__, or be
    # named in backticks in README.md.  An attribute of an imported module,
    # such as itertools.chain, is not a read of a field.
    fields, reads = [], set()
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        in_init = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if isinstance(statement, ast.Assign) and any(
                        isinstance(target, ast.Name) and target.id == "__slots__"
                        for target in statement.targets
                    ):
                        fields += [(node.name, name) for name in ast.literal_eval(statement.value)]
                    if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
                        in_init.update(dict.fromkeys(ast.walk(statement), node.name))
        reads |= {
            (node.attr, in_init.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)
        }
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", (ROOT / "README.md").read_text()))
    unread = [
        f"{owner}.{name}"
        for owner, name in fields
        if name not in documented
        and not any(attribute == name and where != owner for attribute, where in reads)
    ]
    assert not unread


def test_library_parses_as_the_oldest_supported_python():
    # Syntax only: a standard-library name added after that version would
    # still pass.
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())[1])
    for path in LIBRARY:
        ast.parse(path.read_text(), filename=path.name, feature_version=(3, minor))


def test_oracle_imports_nothing_from_the_library():
    # tests/helpers.py is the independent oracle, so it may not share code
    # with what it checks.
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.partition(".")[0] == "chainperm"] == []
