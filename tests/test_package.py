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


# the polynomial gcd kernel: a test oracle that no library route may call
GCD_KERNEL = {"poly_gcd", "try_div", "exact_div", "primitive", "_prem", "_content_in"}
GCD_SECTION = "# test oracle: the polynomial gcd kernel"
# whole-element substitution: only the substitution oracles may call it
SUBSTITUTION = {"subs_u", "chevalley_u_image"}
SUBSTITUTION_CALLERS = {"chevalley", "phi", "subs_u"}


def _calls(tree):
    """(enclosing function name or None, called name, line) for every call
    of a plain or attribute name."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                out.append((function, name, child.lineno))
            visit(child, function)

    visit(tree, None)
    return out


def _gcd_section(text):
    """The line range of the gcd-oracle section of multipoly.py: from its
    header comment to the next section rule."""
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines, 1) if line.startswith(GCD_SECTION))
    end = next(k for k, line in enumerate(lines, 1) if k > start and line.startswith("# ---"))
    return range(start, end)


def test_oracle_routes_stay_out_of_the_library():
    text = (PACKAGE_DIR / "multipoly.py").read_text()
    section = _gcd_section(text)
    defined = {node.name: node.lineno for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef)}
    assert all(defined[name] in section for name in GCD_KERNEL), defined
    found = []
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        for function, name, line in _calls(ast.parse(path.read_text(), filename=str(path))):
            where = "%s:%d %s calls %s" % (path.name, line, function, name)
            if name in GCD_KERNEL and not (path.name == "multipoly.py" and line in section):
                found.append(where)
            if name in SUBSTITUTION and function not in SUBSTITUTION_CALLERS:
                found.append(where)
    assert not found, found


def test_only_multipoly_calls_the_ratfunc_constructor():
    # RatFunc(num, dfac) trusts its arguments to be canonical; every other
    # module builds through make, from_poly or ratfunc_sum, which establish
    # the invariant
    found = []
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        if path.name == "multipoly.py":
            continue
        for function, name, line in _calls(ast.parse(path.read_text(), filename=str(path))):
            if name == "RatFunc":
                found.append("%s:%d %s" % (path.name, line, function))
    assert not found, found


def test_one_function_builds_each_fmo_value():
    # every M^sign_m(f) is read through fmo's cache, except the adding-defect
    # right-hand side, whose dressing lives over a larger v than its context
    callers = set()
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        for function, name, line in _calls(ast.parse(path.read_text(), filename=str(path))):
            if name == "fmo_value":
                callers.add(function)
    assert callers == {"_fmo_cached", "verify_adding_defect_theorem"}, callers
