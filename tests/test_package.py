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
