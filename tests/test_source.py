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


def test_every_import_is_used():
    """Each name a module other than ``__init__.py`` imports is read in that
    module, so a removed caller leaves no stale import behind."""
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in read
        ]
    assert unused == []


def test_every_error_class_is_a_family_or_is_caught():
    """``errors.py`` defines ``DagplaceError``, its direct subclasses (the
    families a caller tells apart by exit code) and only those deeper classes
    that an ``except`` clause in the package names: a subclass that no code
    catches changes no behaviour, only the name in a traceback."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    bases = {
        node.name: [ast.unparse(b) for b in node.bases]
        for node in tree.body if isinstance(node, ast.ClassDef)
    }
    caught = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {ast.unparse(t).rpartition(".")[2] for t in named}
    assert "DagplaceError" in bases and len(bases) > 3
    stray = [
        name for name, base in bases.items()
        if name != "DagplaceError" and base != ["DagplaceError"] and name not in caught
    ]
    assert stray == []
