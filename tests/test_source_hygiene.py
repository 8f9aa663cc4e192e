"""Static checks on the package source, parsed with ast (the repo has no linter).

* No module but the package __init__ (which re-exports) imports a name it
  never uses.
* The add-and-drop-zero accumulation (w = field.add(...); if field.is_zero(w):
  pop, else set) is written out only in tensors.keyed_add_into and
  linalg.vec_add_into; everything else calls one of them.
* A raw sum into a dict (d[k] = d.get(k, 0) + ..., or through a bound get)
  holds unreduced scalars and kept zeros, so every function that makes one
  also calls FieldSpec.settle, which finishes it.  complexes._composites_vanish
  is exempt: it only tests its sums for zero.
* No module but linalg.py reaches into the elimination internals
  (_echelon, _reduce_against, a solver's .registry); the rest use the public
  ExactMatrix / SpanSolver methods.
* No method of ExactMatrix or SpanSolver but __init__ assigns to self.x or
  to self.x[...]: a matrix or a solver is never changed after it is built.
* No module but fields.py imports fractions or gmpy2 or names Fraction, mpq
  or _ratio: every scalar is made through FieldSpec, which keeps integral
  rationals as ints.
* Reduction modulo the field's p (x % p, x %= p, pow(x, y, p), with p the
  name p or any attribute .p) is written only in fields.py, linalg.py and
  complexes._composites_vanish, so the F_p representation (symmetric
  residues) lives in one place.
* The displayed-formula evaluator (reduced_complexes._Literal, with the
  module functions it calls) names no resolution, duality or twisted-basis
  code, and not the bimodule's sandwich table, so the formula check shares no
  code with the blocks it checks.
* The column-rule loop (for j, c in vec.items(): vec_add_into(out,
  column(j), c, field), into a fresh dict) is written only in
  linalg.apply_columns; every other linear map applied from its columns
  calls it.  The bilinear products (AlgebraData.mult_elems,
  crossed._act_elem) scale by a product of two entries and are not this
  loop.
* The outer multiplications are called in two places only: in
  resolution.py by FreeBimoduleSpace.outer_mult (left_mult, right_mult)
  and CrossedResolution.degree_outer_mult (outer_mult, block by block), and
  in comparison.py by check_bimodule_extension, the certificate for
  left_mult / right_mult.  Every generator table (d, sigma, b', phi, psi,
  omega) is extended by resolution.extend_by_outer_mult, which receives the
  outer multiplication as an argument.  So no second hand-written extension
  escapes the certificate.
* In resolution.py only blocks and augmentation build an ExactMatrix: the
  row maps and sigma pieces stay column rules, and their full-basis matrices
  (mu_s, mu_tilde) live in tests/conftest.py and tests/homotopy_reference.py.
* The full-basis insertion matrices live only in tests/insertion_reference.py:
  no src/ module names insertion_matrix, and the reference imports nothing
  from hopfcross.twisting or hopfcross.resolution, so it checks the on-demand
  columns without sharing their code.
* The other test references stay off the code they check:
  tests/coefficient_reference.py imports nothing from
  hopfcross.reduced_complexes, tests/comparison_reference.py (with
  check_bar_contraction) nothing from hopfcross.comparison,
  tests/bar_reference.py nothing from hopfcross.bar,
  tests/lift_reference.py nothing from hopfcross.complexes,
  tests/placement_reference.py nothing from hopfcross.reduced_complexes,
  tests/sweedler_reference.py nothing from hopfcross.hopf, and
  tests/extension_reference.py and tests/homotopy_reference.py nothing from
  hopfcross.resolution.
* Every top-level function and non-dunder method in src/ is reached: it is in
  __all__, or named by module-level code of src/, by a demo, or by the body
  of another reached function.  A function may be named as a name or as an
  attribute; a method only as an attribute (x.method), so that a parameter or
  a local of the same name does not hide an unreached method.  The closure is
  taken from those roots, so code that only unreached code names is
  unreached too.  Test-only helpers belong in tests/.  The exemptions are
  compared for equality, so CrossedResolution.blocks, which only perfbench
  reads, fails the check once a src/ reader of .blocks comes back.
* Every CrossedResolution column rule (a method named *_column) builds its
  flat column in place: none calls keyed_add_into or a flatten (keyed terms
  converted to flat indices afterwards), and no src/ module defines a
  flatten.
* The double-complex case (f valued in k.1, no insertion term above l = 1)
  is decided in twisting.py alone: no other src/ module reads
  CocycleData.scalar_valued; the readers ask TwistingCalculus.inserts once
  per block, and the resolution-check certificate reports its answer.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfcross"
TESTS = Path(__file__).resolve().parent
INSERTION_REFERENCE = TESTS / "insertion_reference.py"
MODULES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ACCUMULATORS = {"keyed_add_into", "vec_add_into"}
LINALG_INTERNALS = {"_echelon", "_reduce_against", "registry"}
IMMUTABLE_CLASSES = {"ExactMatrix", "SpanSolver"}
RATIONAL_MODULES = {"fractions", "gmpy2"}
RATIONAL_NAMES = {"Fraction", "mpq", "_ratio"}
# module -> the functions allowed to reduce modulo p (None: all of them)
MOD_P_ALLOWED = {"fields.py": None, "linalg.py": None, "complexes.py": {"_composites_vanish"}}
LITERAL_FORBIDDEN = {
    "dual_transpose", "dual_bimodule", "reduced_block_from_resolution", "generator_columns",
    "CrossedResolution", "TwistedBasis", "generator_table", "_placed_table", "sandwich",
}
RAW_SUM_EXEMPT = {"_composites_vanish"}  # it only tests its sums for zero
OUTER_MULTS = {"left_mult", "right_mult", "outer_mult", "degree_outer_mult"}
# module -> the functions and methods allowed to call an outer multiplication
OUTER_MULT_CALLERS = {
    "comparison.py": {"check_bimodule_extension"},
    "resolution.py": {"outer_mult", "degree_outer_mult"},
}
# module -> the functions and methods allowed to build an ExactMatrix
MATRIX_BUILDERS = {"resolution.py": {"blocks", "augmentation"}}
REFERENCE_FORBIDDEN_MODULES = {"hopfcross.twisting", "hopfcross.resolution"}
OTHER_REFERENCES = {
    "coefficient_reference.py": {"hopfcross.reduced_complexes"},
    "comparison_reference.py": {"hopfcross.comparison", "hopfcross.resolution"},
    "bar_reference.py": {"hopfcross.bar"},
    "lift_reference.py": {"hopfcross.complexes"},
    "placement_reference.py": {"hopfcross.reduced_complexes"},
    "sweedler_reference.py": {"hopfcross.hopf"},
    "extension_reference.py": {"hopfcross.resolution"},
    "homotopy_reference.py": {"hopfcross.resolution"},
}
# the column rules of CrossedResolution, and the calls none of them makes
COLUMN_RULES = {"_mu_column", "_partial_column", "_sigma0_x_column", "_sigma_minus1_column",
                "_d0_column", "_d1_generator_column", "_dl_generator_column"}
KEYED_CONVERSIONS = {"keyed_add_into", "flatten"}
# read only in twisting.py; every other module asks TwistingCalculus.inserts
TWISTING_ONLY = {"scalar_valued"}
REACHABILITY_EXEMPT = {
    # nothing in src/ calls it, but perfbench/spans.py wraps it by name for the
    # reduced.blocks layer, and perfbench/ changes only in a benchmark change
    "reduced_complexes.reduced_cochain_block_from_resolution",
    # nothing in src/ calls it, but perfbench/spans.py wraps it by name for the
    # reduced.compare layer, and perfbench/ changes only in a benchmark change
    "reduced_complexes.ReducedComplexes.reduced_cochain_block",
    # every reader in src/ applies d from the generator columns; only
    # perfbench/spans.py reads the extended blocks, to count their columns,
    # and perfbench/ changes only in a benchmark change
    "resolution.CrossedResolution.blocks",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _inline_accumulations(tree: ast.Module) -> list[str]:
    """Functions that test is_zero on a name assigned from a .add(...) call."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name in ACCUMULATORS:
            continue
        sums = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "add"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "is_zero"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and (node.args[0].id in sums or node.args[0].id == "w")
            ):
                found.append(f"{fn.name} (line {node.lineno})")
    return found


def _is_raw_sum(node: ast.AST) -> bool:
    """d[k] = <...>get(k, 0) + ...: a dict entry summed with no reduction."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Add)):
        return False
    call = node.value.left
    if not isinstance(call, ast.Call) or len(call.args) != 2:
        return False
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    default = call.args[1]
    return name == "get" and isinstance(default, ast.Constant) and default.value == 0


def _own_nodes(fn: ast.AST) -> list[ast.AST]:
    """The nodes of fn's body, without the bodies of functions defined in it."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    out, todo = [], [node for node in fn.body if not isinstance(node, scopes)]
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, scopes))
    return out


def _unsettled_raw_sums(tree: ast.Module) -> list[str]:
    """Functions that make a raw sum but never call settle themselves."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name in RAW_SUM_EXEMPT:
            continue
        nodes = _own_nodes(fn)
        settles = any(
            isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
            and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "settle"
            for node in nodes
        )
        if not settles:
            found.extend(f"{fn.name} (line {node.lineno})" for node in nodes if _is_raw_sum(node))
    return found


def _linalg_internals(tree: ast.Module) -> list[str]:
    return sorted(
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LINALG_INTERNALS
    )


def _self_assignments(tree: ast.Module) -> list[str]:
    """Assignments to self.x or self.x[...] in the methods of IMMUTABLE_CLASSES
    other than __init__."""
    def on_self(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(on_self(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return on_self(target.value)
        while isinstance(target, ast.Subscript):
            target = target.value
        return (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self")

    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name in IMMUTABLE_CLASSES):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                if any(on_self(t) for t in targets):
                    found.append(f"{cls.name}.{fn.name} (line {node.lineno})")
    return found


def _rational_constructors(tree: ast.Module) -> list[str]:
    """Imports of a rational backend, and every use of its type names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] in RATIONAL_MODULES]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            names = [a.name for a in node.names
                     if module in RATIONAL_MODULES or a.name in RATIONAL_NAMES]
        elif isinstance(node, ast.Name):
            names = [node.id] if node.id in RATIONAL_NAMES else []
        elif isinstance(node, ast.Attribute):
            names = [node.attr] if node.attr in RATIONAL_NAMES else []
        else:
            continue
        found.extend(f"{name} (line {node.lineno})" for name in names)
    return sorted(found)


def _is_mod_p(node: ast.AST) -> bool:
    """x % p, x %= p or pow(x, y, p), with p the name p or an attribute .p."""
    def is_p(n):
        return (isinstance(n, ast.Name) and n.id == "p") or (
            isinstance(n, ast.Attribute) and n.attr == "p")

    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return is_p(node.right)
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
        return is_p(node.value)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3 and is_p(node.args[2]))


def _mod_p_owners(tree: ast.Module) -> set[str]:
    """The innermost functions (or "<module>") that reduce modulo p."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if _is_mod_p(child):
                found.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _literal_forbidden_names(tree: ast.Module, cls: str = "_Literal") -> list[str]:
    """Forbidden names in class cls and in the module functions it reaches."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    assert len(todo) == 1, cls
    seen, found = set(), []
    while todo:
        for node in ast.walk(todo.pop()):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in LITERAL_FORBIDDEN:
                found.append(f"{name} (line {node.lineno})")
            elif name in functions and name not in seen:
                seen.add(name)
                todo.append(functions[name])
    return sorted(found)


def _fresh_dicts(fn: ast.AST) -> set[str]:
    """Names that fn binds to a new empty dict ({}, dict(), or a, b = {}, {})."""
    def fresh(v):
        return (isinstance(v, ast.Dict) and not v.keys) or (
            isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "dict"
            and not v.args)

    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.Assign):
            pairs = []
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs.extend(zip(target.elts, node.value.elts))
                else:
                    pairs.append((target, node.value))
        else:
            continue
        names.update(t.id for t, v in pairs if isinstance(t, ast.Name) and fresh(v))
    return names


def _column_rule_loops(tree: ast.Module) -> list[str]:
    """Functions with a loop for j, c in <vec>.items() that calls
    vec_add_into(out, col, c, ...) on a fresh dict out, with col an
    expression in j or a name the loop binds to one."""
    def mentions(expr, name):
        return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(expr))

    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fresh = _fresh_dicts(fn)
        for loop in ast.walk(fn):
            if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                    and getattr(loop.iter.func, "attr", None) == "items"
                    and isinstance(loop.target, ast.Tuple) and len(loop.target.elts) == 2
                    and all(isinstance(e, ast.Name) for e in loop.target.elts)):
                continue
            j, c = (e.id for e in loop.target.elts)
            columns = {t.id for node in ast.walk(loop) if isinstance(node, ast.Assign)
                       and mentions(node.value, j) for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(loop):
                if not (isinstance(node, ast.Call) and len(node.args) >= 3
                        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "vec_add_into"):
                    continue
                out, col, scale = node.args[:3]
                if (isinstance(out, ast.Name) and out.id in fresh
                        and isinstance(scale, ast.Name) and scale.id == c
                        and (mentions(col, j) or (isinstance(col, ast.Name) and col.id in columns))):
                    found.append(f"{fn.name} (line {node.lineno})")
    return found


def _column_rules(tree: ast.Module) -> dict:
    """CrossedResolution's methods named *_column -> the keyed conversions
    (keyed_add_into, flatten) each calls, as a name or an attribute."""
    return {
        fn.name: sorted({getattr(node.func, "id", getattr(node.func, "attr", None))
                         for node in ast.walk(fn) if isinstance(node, ast.Call)} & KEYED_CONVERSIONS)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "CrossedResolution"
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_column")
    }


def _flatten_definitions(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "flatten"]


def _outer_mult_callers(tree: ast.Module) -> set[str]:
    """Functions and methods that call an outer multiplication as x.name(...)."""
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in OUTER_MULTS
    }


def _matrix_builders(tree: ast.Module) -> set[str]:
    """Functions and methods that call ExactMatrix(...) or one of its
    constructors (ExactMatrix.zeros(...), ...)."""
    def names_matrix(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name == "ExactMatrix"

    def builds(func):
        return names_matrix(func) or (isinstance(func, ast.Attribute) and names_matrix(func.value))

    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and builds(node.func)
    }


def _imported_modules(tree: ast.Module, modules: set) -> list[str]:
    """Imports of any of the given modules, by any import form."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend(f"{name} (line {node.lineno})" for name in names if name in modules)
    return sorted(found)


def _mentions(tree: ast.Module, name: str) -> list[str]:
    """Every definition, use, attribute or import of name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            hit = node.id
        elif isinstance(node, ast.Attribute):
            hit = node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hit = node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = name if any(alias.name == name for alias in node.names) else None
        else:
            continue
        if hit == name:
            found.append(f"{name} (line {node.lineno})")
    return found


def _reads(tree: ast.Module, names: set) -> list[str]:
    """Every read of one of names, as an attribute or a bare name; definitions
    and assignments are not reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load):
            hit = node.attr if isinstance(node, ast.Attribute) else node.id
            if hit in names:
                found.append(f"{hit} (line {node.lineno})")
    return found


def _named(node: ast.AST) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names used inside node."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return names, attrs


def _unreached(modules: dict, roots: list) -> set[str]:
    """module.function and module.Class.method labels that nothing reached names.

    modules maps a module name to its tree.  Top-level functions and
    non-dunder methods are the candidates; every other statement of a module
    (dunder methods included), the roots and the names in __all__ are
    reached from the start.  A function is reached when a reached body names
    it, as a name or as an attribute (module.function); a method only when a
    reached body names it as an attribute (x.method), so a local variable or
    an imported function of the same name does not reach it.  A reached
    candidate's own body is reached in turn.
    """
    candidates, names, attrs = [], set(), set()

    def mark(node):
        found_names, found_attrs = _named(node)
        names.update(found_names)
        attrs.update(found_attrs)

    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                candidates.append((f"{module}.{node.name}", node, False))
                continue
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
            if not isinstance(node, ast.ClassDef):
                mark(node)
                continue
            for part in node.bases + node.decorator_list:
                mark(part)
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    candidates.append((f"{module}.{node.name}.{sub.name}", sub, True))
                else:
                    mark(sub)
    for root in roots:
        mark(root)
    while True:
        reached = [item for item in candidates
                   if item[1].name in attrs or (not item[2] and item[1].name in names)]
        if not reached:
            return {label for label, _, _ in candidates}
        for item in reached:
            candidates.remove(item)
            mark(item[1])


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "tensors.py", "linalg.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_add_and_drop_zero_only_in_the_accumulators(path):
    assert _inline_accumulations(_tree(path)) == []


def test_accumulators_are_detected():
    # the check sees the idiom inside the two helpers it exempts
    for module, name in (("tensors.py", "keyed_add_into"), ("linalg.py", "vec_add_into")):
        tree = _tree(PACKAGE / module)
        (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        fn.name = "renamed"
        assert _inline_accumulations(ast.Module(body=[fn], type_ignores=[])), name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raw_sums_end_in_settle(path):
    assert _unsettled_raw_sums(_tree(path)) == []


def test_unsettled_raw_sums_are_detected():
    for source in (
        "def f(col, k, c):\n    col[k] = col.get(k, 0) + c\n    return col",
        "def f(col, k, c):\n    get = col.get\n    col[k] = get(k, 0) + c * c\n    return col",
        # the settle of a nested function does not settle its parent's sums
        "def f(cols, k, c):\n    for col in cols:\n        col[k] = col.get(k, 0) + c\n"
        "    def g(field, d):\n        return field.settle(d)\n    return cols",
        # nor does the parent's settle finish a nested function's sums
        "def f(col, c, field):\n    def add(k):\n        col[k] = col.get(k, 0) + c\n"
        "    add(1)\n    return field.settle(col)",
    ):
        assert _unsettled_raw_sums(ast.parse(source)), source
    for source in (
        "def f(col, k, c, field):\n    col[k] = col.get(k, 0) + c\n    return field.settle(col)",
        "def f(dst, src, field):\n    for k, v in src.items():\n"
        "        t = dst.get(k, 0) + v\n        if t:\n            dst[k] = t",
        "def _composites_vanish(col, k, c):\n    col[k] = col.get(k, 0) + c\n    return not any(col.values())",
    ):
        assert _unsettled_raw_sums(ast.parse(source)) == [], source
    # the exempt function does make a raw sum
    tree = _tree(PACKAGE / "complexes.py")
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_composites_vanish"]
    fn.name = "renamed"
    assert _unsettled_raw_sums(ast.Module(body=[fn], type_ignores=[]))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_linalg_internals_stay_in_linalg(path):
    assert _linalg_internals(_tree(path)) == []


def test_linalg_internals_are_detected():
    assert _linalg_internals(_tree(PACKAGE / "linalg.py"))


def test_matrices_and_solvers_are_not_mutated():
    assert _self_assignments(_tree(PACKAGE / "linalg.py")) == []


def test_mutating_methods_are_detected():
    # SpanSolver.insert as it was: it grew the registry of a built solver
    insert = (
        "class SpanSolver:\n"
        "    def __init__(self, matrix):\n        self.registry = {}\n"
        "    def insert(self, vec):\n"
        "        v, _ = self.reduction.start(vec)\n"
        "        low = self.reduction.reduce(self.registry, v, None)\n"
        "        if low is None:\n            return False\n"
        "        self.registry[low] = self.reduction.register(v, None, low)\n"
        "        self.track_combos = False\n        return True\n"
    )
    assert _self_assignments(ast.parse(insert)) == [
        "SpanSolver.insert (line 9)", "SpanSolver.insert (line 10)"]
    for source in (
        "class ExactMatrix:\n    def scale(self, c):\n        self.cols[0][1] = c",
        "class ExactMatrix:\n    def grow(self):\n        self.ncols += 1",
        "class ExactMatrix:\n    def swap(self):\n        self.nrows, self.ncols = self.ncols, self.nrows",
    ):
        assert _self_assignments(ast.parse(source)), source
    for source in (
        # __init__ builds, a local is not self, and another class is not checked
        "class ExactMatrix:\n    def __init__(self, cols):\n        self.cols = cols",
        "class SpanSolver:\n    def coordinates(self, vec):\n        v = dict(vec)\n        v[0] = 1",
        "class FilteredComplex:\n    def page(self):\n        self._pages = {}",
    ):
        assert _self_assignments(ast.parse(source)) == [], source


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_rationals_are_made_only_in_fields(path):
    assert _rational_constructors(_tree(path)) == []


def test_rational_constructors_are_detected():
    assert _rational_constructors(_tree(PACKAGE / "fields.py"))
    for source in (
        "from fractions import Fraction",
        "import fractions",
        "import gmpy2",
        "from gmpy2 import mpz",
        "from .fields import _ratio",
        "x = fields._ratio(1)",
        "x = gmpy2.mpq(1, 2)",
        "def f(Fraction):\n    return Fraction(1, 2)",
    ):
        assert _rational_constructors(ast.parse(source)), source
    assert _rational_constructors(ast.parse("from .fields import FieldSpec\nx = q.denominator")) == []


@pytest.mark.parametrize("path", [p for p in MODULES if MOD_P_ALLOWED.get(p.name, ()) is not None],
                         ids=lambda p: p.name)
def test_reduction_mod_p_only_in_the_scalar_modules(path):
    assert _mod_p_owners(_tree(path)) == set(MOD_P_ALLOWED.get(path.name, ()))


def test_reduction_mod_p_is_detected():
    assert _mod_p_owners(_tree(PACKAGE / "fields.py"))
    assert _mod_p_owners(_tree(PACKAGE / "linalg.py"))
    for source in (
        "def f(t, field):\n    return t % field.p",
        "def f(t, p):\n    t %= p\n    return t",
        "def f(a, self):\n    return pow(a, self.p - 2, self.p)",
        "x = [v % p for v in vals]",
        # a nested helper is its own owner
        "def g(vals, p):\n    def f(v):\n        return v % p\n    return f",
    ):
        assert _mod_p_owners(ast.parse(source)), source
    assert _mod_p_owners(ast.parse("def g(vals, p):\n    def f(v):\n        return v % p")) == {"f"}
    for source in ("def f(n, d):\n    return n % d", "x = t % 2", "y = pow(a, b)", "z = a % q.dim"):
        assert _mod_p_owners(ast.parse(source)) == set(), source


def test_displayed_formulas_call_no_checked_code():
    assert _literal_forbidden_names(_tree(PACKAGE / "reduced_complexes.py")) == []


def test_checked_code_in_the_formulas_is_detected():
    for source in (
        "class _Literal:\n    def f(self, m):\n        return dual_bimodule(m)",
        "class _Literal:\n    def f(self):\n        return self.res.generator_columns",
        "class _Literal:\n    def f(self, cp):\n        return CrossedResolution(cp, 2)",
        "class _Literal:\n    def f(self, mod, res):\n        return mod.TwistedBasis(res).generator_table(1, 1, 1)",
        "class _Literal:\n    def f(self, rc):\n        return rc.twisted.generator_table(1, 0, 1)",
        "class _Literal:\n    def f(self, mod, m, table):\n        return mod._placed_table(m, table, 1, 1)",
        "class _Literal:\n    def f(self):\n        return self.m.sandwich(0, 1)",
        # reached through a module helper
        "def helper(mat, d):\n    return dual_transpose(mat, d)\n"
        "class _Literal:\n    def f(self, mat):\n        return helper(mat, 1)",
    ):
        assert _literal_forbidden_names(ast.parse(source)), source
    assert _literal_forbidden_names(ast.parse(
        "def dual_helper(m):\n    return dual_bimodule(m)\n"
        "class _Literal:\n    def f(self, m):\n        return m"
    )) == []


def test_comparison_extends_in_one_loop():
    # only the certificate multiplies by hand: b', phi, psi and omega extend in
    # resolution.extend_by_outer_mult
    module = "comparison.py"
    assert _outer_mult_callers(_tree(PACKAGE / module)) == OUTER_MULT_CALLERS[module]


def test_resolution_extends_in_known_places():
    module = "resolution.py"
    assert _outer_mult_callers(_tree(PACKAGE / module)) == OUTER_MULT_CALLERS[module]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in OUTER_MULT_CALLERS],
                         ids=lambda p: p.name)
def test_no_other_module_calls_an_outer_multiplication(path):
    assert _outer_mult_callers(_tree(path)) == set()


def test_second_extension_is_detected():
    for source, caller in (
        ("class ComparisonMaps:\n"
         "    def phi_apply(self, space, img, e_left, e_right):\n"
         "        return space.right_mult(space.left_mult(img, e_left), e_right)", "phi_apply"),
        ("class CrossedResolution:\n"
         "    def _block_apply(self, tgt, img, e_left, e_right):\n"
         "        return tgt.outer_mult(img, e_left, e_right)", "_block_apply"),
        ("def psi_apply(cmp, n, img, e_left, e_right):\n"
         "    return cmp.res.degree_outer_mult(n, img, e_left, e_right)", "psi_apply"),
    ):
        assert _outer_mult_callers(ast.parse(source)) == {caller}, source
    # passing an outer multiplication to the extension loop is not a call
    assert _outer_mult_callers(ast.parse(
        "def bprime(bar, n, vec):\n"
        "    return extend_by_outer_mult(bar.split, bar.gen, bar.spaces[n].outer_mult, vec, bar.field)"
    )) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_column_rule_loop_only_in_apply_columns(path):
    expected = ["apply_columns"] if path.name == "linalg.py" else []
    assert [hit.split(" ")[0] for hit in _column_rule_loops(_tree(path))] == expected


def test_column_rule_loop_is_detected():
    tree = _tree(PACKAGE / "linalg.py")
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "apply_columns"]
    fn.name = "renamed"
    assert _column_rule_loops(ast.Module(body=[fn], type_ignores=[]))
    for source in (
        # BimoduleData.left_act and right_act before apply_columns
        "def left_act(self, e_idx, mvec):\n    out: dict = {}\n    for mi, c in mvec.items():\n"
        "        vec_add_into(out, self.left[e_idx][mi], c, self.field)\n    return out",
        "def right_act(self, mvec, e_idx):\n    out = {}\n    for mi, c in mvec.items():\n"
        "        vec_add_into(out, self.right[mi][e_idx], c, self.field)\n    return out",
        # a column named first, and two sums started in one assignment
        "def apply(vec, rule, field):\n    out = dict()\n    for j, v in vec.items():\n"
        "        col = rule(j)\n        if col:\n            vec_add_into(out, col, v, field)\n    return out",
        "def f(e, lefts, rights, a, b, field):\n    ba_g, g_ab = {}, {}\n"
        "    for k, c in e.mult[b][a].items():\n        vec_add_into(ba_g, lefts[k], c, field)\n"
        "    return ba_g",
    ):
        assert _column_rule_loops(ast.parse(source)), source
    for source in (
        # bilinear: the scale is a product of two entries
        "def mult_elems(self, u, v, field):\n    out = {}\n    for i, a in u.items():\n"
        "        for j, b in v.items():\n"
        "            vec_add_into(out, self.mult[i][j], field.mul(a, b), field)\n    return out",
        # into a sum the caller passed in, not a fresh one
        "def add_all(total, vec, rule, field):\n    for j, c in vec.items():\n"
        "        vec_add_into(total, rule(j), c, field)",
    ):
        assert _column_rule_loops(ast.parse(source)) == [], source
    # the generator-table extension reads its image through split(flat), not a column of flat
    tree = _tree(PACKAGE / "resolution.py")
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "extend_by_outer_mult"]
    assert _column_rule_loops(ast.Module(body=[fn], type_ignores=[])) == []


def test_column_rules_build_flat_columns_in_place():
    assert _column_rules(_tree(PACKAGE / "resolution.py")) == {name: [] for name in COLUMN_RULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_defines_flatten(path):
    assert _flatten_definitions(_tree(path)) == []


def test_keyed_column_rule_is_detected():
    # the column rules before they built flat columns in place
    source = (
        "class CrossedResolution:\n"
        "    def _mu_column(self, s, key):\n        out = {}\n"
        "        keyed_add_into(out, key, 1, self.field)\n        return self.row_spaces[s].flatten(out)\n"
        "    def _d0_column(self, key, r, s):\n        return flatten({key: 1}, self.legs, self.field)\n"
        "    def _sigma0_x_column(self, r, s, flat):\n        return {flat: 1}\n"
        "    def flatten(self, keyed):\n        return keyed\n"
    )
    tree = ast.parse(source)
    assert _column_rules(tree) == {"_mu_column": ["flatten", "keyed_add_into"],
                                   "_d0_column": ["flatten"], "_sigma0_x_column": []}
    assert _flatten_definitions(tree) == [10]
    assert _flatten_definitions(ast.parse("def flatten(elem, legs, field):\n    return elem")) == [1]
    # a class of another name is not the resolution
    assert _column_rules(ast.parse(source.replace("CrossedResolution", "BarCalculus"))) == {}


@pytest.mark.parametrize("module", sorted(MATRIX_BUILDERS))
def test_matrices_are_built_in_known_places(module):
    assert _matrix_builders(_tree(PACKAGE / module)) == MATRIX_BUILDERS[module]


def test_row_map_matrix_is_detected():
    for source in (
        "class CrossedResolution:\n"
        "    def mu(self, s):\n        return ExactMatrix(self.field, 1, 1, [{}])",
        "def _make_matrix(field, n, cols):\n    return ExactMatrix(field, n, len(cols), cols)",
        "def mu_tilde(res):\n    return linalg.ExactMatrix.from_columns(res.field, 1, [])",
        "class R:\n    def mu_tilde(self):\n        return ExactMatrix.zeros(self.field, 1, 1)",
    ):
        assert _matrix_builders(ast.parse(source)), source
    assert _matrix_builders(ast.parse(
        "def apply(m, v):\n    return m.apply(v)\nx = ExactMatrix(f, 0, 0, [])"
    )) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_full_basis_insertion_matrix_is_test_only(path):
    assert _mentions(_tree(path), "insertion_matrix") == []


def test_insertion_reference_is_independent():
    assert _imported_modules(_tree(INSERTION_REFERENCE), REFERENCE_FORBIDDEN_MODULES) == []


def test_insertion_guards_are_detected():
    assert _mentions(_tree(INSERTION_REFERENCE), "insertion_matrix")
    for source in (
        "def insertion_matrix(l, r):\n    pass",
        "x = calc.insertion_matrix(2, 1)",
        "from .reference import insertion_matrix",
    ):
        assert _mentions(ast.parse(source), "insertion_matrix"), source
    assert _mentions(ast.parse("x = calc.insertion_column(2, 1, (1, 1), ())"), "insertion_matrix") == []
    for source in (
        "from hopfcross.twisting import TwistingCalculus",
        "import hopfcross.resolution",
        "import hopfcross.twisting as tw",
        "from hopfcross import twisting",
        "from hopfcross import linalg, resolution",
    ):
        assert _imported_modules(ast.parse(source), REFERENCE_FORBIDDEN_MODULES), source
    assert _imported_modules(ast.parse(
        "from hopfcross.linalg import ExactMatrix\nimport hopfcross.tensors"
    ), REFERENCE_FORBIDDEN_MODULES) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "twisting.py"], ids=lambda p: p.name)
def test_double_complex_case_is_decided_in_twisting(path):
    assert _reads(_tree(path), TWISTING_ONLY) == []


def test_twisting_only_reads_are_detected():
    assert _reads(_tree(PACKAGE / "twisting.py"), TWISTING_ONLY)
    for source in (
        "x = cp.cocycle.scalar_valued",
        "if self.cp.cocycle.scalar_valued and l >= 2:\n    pass",
        "scalar = any(c.scalar_valued for c in cocycles)",
        "from .crossed import scalar_valued\nx = scalar_valued",
    ):
        assert _reads(ast.parse(source), TWISTING_ONLY), source
    for source in (
        "self.scalar_valued = all(cell.keys() <= {0} for row in f for cell in row)",
        "if calc.inserts(l):\n    col = calc.insertion_column(2, 1, (1, 1), ())",
        "def scalar_valued(self):\n    pass",
    ):
        assert _reads(ast.parse(source), TWISTING_ONLY) == [], source


@pytest.mark.parametrize("name", sorted(OTHER_REFERENCES))
def test_reference_is_independent(name):
    assert _imported_modules(_tree(TESTS / name), OTHER_REFERENCES[name]) == []


def test_reference_imports_are_detected():
    for source, module in (
        ("from hopfcross.reduced_complexes import _mid_key", "coefficient_reference.py"),
        ("from hopfcross import reduced_complexes", "coefficient_reference.py"),
        ("import hopfcross.comparison", "comparison_reference.py"),
        ("def f(bar):\n    from hopfcross.comparison import BarCalculus", "comparison_reference.py"),
        ("from hopfcross.bar import hochschild_chain_complex", "bar_reference.py"),
        ("from hopfcross.complexes import HomologyLift", "lift_reference.py"),
        ("from hopfcross.reduced_complexes import TwistedBasis", "placement_reference.py"),
        ("from hopfcross.hopf import sweedler_legs", "sweedler_reference.py"),
        ("import hopfcross.hopf as hopf", "sweedler_reference.py"),
        ("from hopfcross.resolution import FreeBimoduleSpace", "extension_reference.py"),
        ("from hopfcross.resolution import CrossedResolution", "homotopy_reference.py"),
    ):
        assert _imported_modules(ast.parse(source), OTHER_REFERENCES[module]), source


def test_every_function_is_reached():
    unreached = _unreached({p.stem: _tree(p) for p in MODULES}, [_tree(p) for p in DEMOS])
    # equality, not inclusion: an exemption that is no longer needed fails too
    assert unreached == REACHABILITY_EXEMPT


def test_unreached_code_is_detected():
    source = (
        "__all__ = ['exported']\n"
        "LIMIT = from_module_level()\n"
        "def exported():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def from_module_level():\n    return 2\n"
        "def from_demo():\n    return 3\n"
        "def only_from_dead():\n    return 4\n"
        "def dead():\n    return only_from_dead()\n"
        "def ping():\n    return pong()\n"
        "def pong():\n    return ping()\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class K:\n"
        "    def __init__(self):\n        self.x = self.used()\n"
        "    def used(self):\n        return 5\n"
        "    def unused(self):\n        return self.unused()\n"
        # a bare name that collides with a method does not reach it
        "    def scale(self):\n        return 6\n"
        "    def sub(self):\n        return 7\n"
        "def uses_collisions(scale, parser):\n"
        "    sub = parser.add_subparsers()\n    return scale, sub\n"
        "LATER = uses_collisions(1, None)\n"
    )
    demo = ast.parse("import mod\nmod.from_demo()")
    assert _unreached({"mod": ast.parse(source)}, [demo]) == {
        "mod.only_from_dead", "mod.dead", "mod.ping", "mod.pong", "mod.recursive", "mod.K.unused",
        "mod.K.scale", "mod.K.sub",
    }
