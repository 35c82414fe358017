import ast
import pathlib

import rulemix


def test_every_public_name_resolves():
    assert len(set(rulemix.__all__)) == len(rulemix.__all__)
    assert rulemix.__all__ == sorted(rulemix.__all__)
    missing = [name for name in rulemix.__all__ if not hasattr(rulemix, name)]
    assert missing == []


# imports kept although the module never uses them: perfbench's tracer
# patches composition.match_mask as a module attribute
KEPT_IMPORTS = {("composition", "match_mask")}


def unused_imports(path: pathlib.Path) -> list[str]:
    """The names a module imports and never reads; __init__'s names count
    as read when __all__ lists them, and __future__ imports are not names."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        read |= set(rulemix.__all__)
    unused = [name for name in imported if name not in read and (path.stem, name) not in KEPT_IMPORTS]
    return [f"{path.stem}.{name} (line {imported[name]})" for name in unused]


def test_no_module_imports_a_name_it_never_uses():
    package = pathlib.Path(rulemix.__file__).parent
    assert [entry for path in sorted(package.glob("*.py")) for entry in unused_imports(path)] == []


def asserts(path: pathlib.Path) -> list[str]:
    """The assert statements of a module, which python -O strips."""
    return [f"{path.stem} (line {node.lineno})" for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]


def test_no_module_checks_with_assert():
    """A check in the package, such as that the best fitness never falls,
    must hold under python -O too, so it cannot be an assert."""
    package = pathlib.Path(rulemix.__file__).parent
    assert [entry for path in sorted(package.glob("*.py")) for entry in asserts(path)] == []
