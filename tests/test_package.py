"""Source-level checks on the package itself."""

import ast
import pathlib

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "quiver_fmo"


def test_no_runtime_asserts():
    # `python -O` strips assert statements, so runtime checks must raise
    found = []
    paths = sorted(PACKAGE_DIR.glob("**/*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def _imports(path):
    """(imports below module level, unused module-level imported names) of
    one module; __init__.py re-exports its imports, so only the first
    applies to it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = (ast.Import, ast.ImportFrom)
    nested = ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
              if isinstance(node, imports) and node not in tree.body]
    if path.name == "__init__.py":
        return nested, []
    bound = {}
    for node in tree.body:
        if isinstance(node, imports) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s:%d %s" % (path.name, line, name)
              for name, line in sorted(bound.items()) if name not in used]
    return nested, unused


def test_imports_are_module_level_and_used():
    # no linter runs on the package, so this stands in for one: a
    # function-local import hides a module's dependencies, and an unused
    # import outlives the code that needed it
    nested, unused = [], []
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        found = _imports(path)
        nested += found[0]
        unused += found[1]
    assert not nested, nested
    assert not unused, unused
