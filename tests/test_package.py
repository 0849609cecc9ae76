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
# the general normalization, a test oracle: the functions that may call it
ORACLE_CALLERS = {
    "RatFunc.make": {"chevalley_u_image", "phi_u_image", "__truediv__", "__pow__",
                     "permute_vars"},
    "factor_denominator": {"make"},
}


def _calls(tree):
    """(enclosing function name or None, called name, line, callee text) for
    every call of a plain or attribute name."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                out.append((function, name, child.lineno, ast.unparse(func)))
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
        for function, name, line, callee in _calls(ast.parse(path.read_text(),
                                                             filename=str(path))):
            where = "%s:%d %s calls %s" % (path.name, line, function, name)
            if name in GCD_KERNEL and not (path.name == "multipoly.py" and line in section):
                found.append(where)
            if name in SUBSTITUTION and function not in SUBSTITUTION_CALLERS:
                found.append(where)
            if callee in ORACLE_CALLERS and function not in ORACLE_CALLERS[callee]:
                found.append(where)
    assert not found, found


# the Hilbert series oracles, which enumerate dominant coweights one by one:
# each maps to the only functions that may call it, the oracles themselves
HILBERT_ORACLE_CALLERS = {
    "_decreasing_tuples": {"_decreasing_tuples", "dominant_shell"},
    "dominant_shell": set(),
    "two_delta_general": set(),
    "stabilizer_poincare": set(),
    "geometric": {"stabilizer_poincare"},
}


def test_no_library_route_calls_a_hilbert_oracle():
    found = []
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        for function, name, line, _ in _calls(ast.parse(path.read_text(), filename=str(path))):
            if name in HILBERT_ORACLE_CALLERS and function not in HILBERT_ORACLE_CALLERS[name]:
                found.append("%s:%d %s calls %s" % (path.name, line, function, name))
    assert not found, found


def test_only_multipoly_calls_the_ratfunc_constructor():
    # RatFunc(num, dfac) trusts its arguments to be canonical; every other
    # module builds through make, from_poly or ratfunc_sum, which establish
    # the invariant
    found = []
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        if path.name == "multipoly.py":
            continue
        for function, name, line, _ in _calls(ast.parse(path.read_text(), filename=str(path))):
            if name == "RatFunc":
                found.append("%s:%d %s" % (path.name, line, function))
    assert not found, found


def test_one_function_builds_each_fmo_value():
    # every M^sign_m(f) is read through fmo's cache, except the adding-defect
    # right-hand side, whose dressing lives over a larger v than its context
    callers = set()
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        for function, name, _, _ in _calls(ast.parse(path.read_text(), filename=str(path))):
            if name == "fmo_value":
                callers.add(function)
    assert callers == {"_fmo_cached", "verify_adding_defect_theorem"}, callers


# multipoly's internal formats: factor tags, variable kinds, the raw
# constructor, the term and factor dicts, and the packed-monomial helpers
# (the variable index, the field width and masks, encode and decode)
FORMAT_TAGS = {"var", "diff"}
PACKING_HELPERS = {"_VARS", "_NAMES", "_POSITION", "_position", "_unit", "_sorted_positions",
                   "_FIELD_BITS", "_FIELD_MASK", "_FIELD_CODE", "_HALF", "_BIAS",
                   "_RANGE_BIAS", "_U_SIGNS", "_NBYTES", "_encode", "_pairs", "_fields",
                   "_exponent", "_order_key", "_moves"}
VARIABLE_KINDS = {"U_KIND", "W_KIND", "Z_KIND"}
FORMAT_DICTS = {"terms", "dfac"}
ITERATING_CALLS = {"all", "any", "dict", "enumerate", "frozenset", "iter", "list", "map",
                   "max", "min", "next", "reversed", "set", "sorted", "sum", "tuple", "zip"}


def _format_reads(tree):
    """(line, what) for each place that builds or takes apart a monomial
    tuple or a factor key: a tag or kind constant, a raw MPoly call, an
    iteration over, a membership test in or a subscript or method of a
    .terms or .dfac dict (its len is allowed), and any use of a packing
    helper."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in FORMAT_TAGS:
            found.append((node.lineno, "tag %r" % node.value))
        elif isinstance(node, ast.Name) and node.id in VARIABLE_KINDS | PACKING_HELPERS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in PACKING_HELPERS:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in VARIABLE_KINDS | PACKING_HELPERS]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MPoly":
            found.append((node.lineno, "MPoly(...)"))
        elif isinstance(node, ast.Attribute) and node.attr in FORMAT_DICTS:
            parent = parents[node]
            iterated = (
                isinstance(parent, (ast.For, ast.comprehension)) and parent.iter is node
                or isinstance(parent, (ast.Subscript, ast.Attribute, ast.Starred))
                or isinstance(parent, ast.Compare) and node in parent.comparators
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
                or isinstance(parent, ast.Call) and node in parent.args
                and getattr(parent.func, "id", None) in ITERATING_CALLS)
            if iterated:
                found.append((node.lineno, "reads ." + node.attr))
    return found


def test_only_multipoly_reads_the_term_representation():
    # no linter runs on the package, so this stands in for one: multipoly
    # owns the packed monomials and the factor keys, and every other module
    # works with variables, MPoly and RatFunc values and multipoly calls
    tree = ast.parse((PACKAGE_DIR / "multipoly.py").read_text())
    defined = {target.id for node in tree.body if isinstance(node, ast.Assign)
               for target in ast.walk(node) if isinstance(target, ast.Name)}
    defined |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert PACKING_HELPERS <= defined, PACKING_HELPERS - defined
    found = []
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        if path.name == "multipoly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, what) for line, what in _format_reads(tree)]
    assert not found, found
