import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dagplace"


def test_no_assert_statements():
    """Self-checks must raise explicitly: ``python -O`` strips ``assert``."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_lists_exactly_the_imported_names():
    """``__all__`` is the set of names ``__init__.py`` imports, and each
    resolves, so ``from dagplace import *`` cannot name a removed function."""
    import dagplace

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(dagplace.__all__) == len(set(dagplace.__all__))
    assert set(dagplace.__all__) == imported
    assert all(hasattr(dagplace, name) for name in dagplace.__all__)
