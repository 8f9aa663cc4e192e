"""Static guards on the source, parsed with ast (the repo has no linter).

Every guard is one row of RULES: a name, the files in scope, a query over a
parsed SourceIndex that returns a set of sites (a function's qualified name,
or a name the file uses), the sites each file is allowed, the reason (`why`),
and bad and clean example sources.  Each file is parsed once per session.
Two tests run every row:

* test_rule[name-file]: the query on a file in scope equals the file's allowed
  sites.  A site outside the allowance breaks the guard.  Equality also makes
  every allowance needed: an allowed site the query no longer finds is stale
  and fails, and removing any one allowed site fails the live file.
* test_rule_examples[name]: every bad example is flagged, no clean one is.
"""

import ast
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfcross"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
REFERENCES = sorted(TESTS.glob("*_reference.py")) + [TESTS / "filtered_bar.py"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
LINALG_INTERNALS = {"_echelon", "_reduce_against", "registry"}
IMMUTABLE_CLASSES = {"ExactMatrix", "SpanSolver"}
RATIONAL_MODULES = {"fractions", "gmpy2"}
RATIONAL_NAMES = {"Fraction", "mpq", "_ratio"}
LITERAL_FORBIDDEN = {
    "transpose", "dual_bimodule", "reduced_block_from_resolution", "generator_columns",
    "CrossedResolution", "TwistedBasis", "generator_table", "_placed_table", "sandwich",
}
OUTER_MULTS = {"left_mult", "right_mult", "outer_mult", "degree_outer_mult"}
KEYED_CONVERSIONS = {"keyed_add_into", "flatten"}
PAGE_CODE = {"pivot_pairs", "page_cell_dim", "spectral_page", "infinity_page",
             "_pairs", "_pivot_pairs", "_ends", "_pair_ends", "_level_order"}
# homology_dims reduces by ExactMatrix.pivot_pairs too, but by no other page name
PAGE_REDUCTION = PAGE_CODE - {"pivot_pairs"}
# the page code outside FilteredComplex
PAGE_FUNCTIONS = {"spectral_page", "stable_page_number", "infinity_page"}
# the names that tell chains from cochains
ORIENTATION = {"direction", "HOMOLOGY", "COHOMOLOGY", "outgoing", "incoming", "transpose"}
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


def _name(node):
    """The name a Name or an Attribute ends in; None for any other node."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _on_self(target):
    """An assignment target self.x or self.x[...], alone or unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_on_self(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _on_self(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and _name(target.value) == "self"


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []


def _is_p(node):
    return (isinstance(node, ast.Name) and node.id == "p") or (
        isinstance(node, ast.Attribute) and node.attr == "p")


def _is_mod_p(node):
    """x % p, x %= p or pow(x, y, p), with p the name p or an attribute .p."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
        return _is_p(node.right if isinstance(node, ast.BinOp) else node.value)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3 and _is_p(node.args[2]))


def _calls(nodes):
    """The names called, as f(...) or as x.f(...)."""
    return {_name(n.func) for n in nodes if isinstance(n, ast.Call)}


def _is_raw_sum(node):
    """d[k] = <...>get(k, 0) + ...: a dict entry summed with no reduction."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Add)):
        return False
    call = node.value.left
    return (isinstance(call, ast.Call) and len(call.args) == 2 and _name(call.func) == "get"
            and isinstance(call.args[1], ast.Constant) and call.args[1].value == 0)


class Function:
    """A def or a lambda and its own nodes: its body, decorators and argument
    defaults without the nodes of the defs and lambdas in it.  Its owner is
    its own qualified name, or for a lambda the def it is written in."""

    def __init__(self, qualname, node, owner, method=False):
        self.qualname, self.node, self.owner, self.method = qualname, node, owner, method
        self.own = []

    @cached_property
    def nodes(self):
        """Every node of the def, nested defs and lambdas included."""
        return list(ast.walk(self.node))


class SourceIndex:
    """One parsed file: its functions and methods by qualified name (lambdas
    included), the module-level code as the pseudo-function "<module>", and
    the module's imports, definitions and used names."""

    def __init__(self, tree):
        self.tree, self.functions = tree, []
        self.module = Function("<module>", tree, "<module>")
        self._scan(tree.body, "", self.module)
        self.names, self.attrs, self.loads, self.defs = set(), set(), set(), set()
        self.aliases, self.bound, self.imported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                (self.names if isinstance(node, ast.Name) else self.attrs).add(_name(node))
                if isinstance(node.ctx, ast.Load):
                    self.loads.add(_name(node))
            elif isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                self.defs.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases.add(alias.name)
                    self.imported.add(alias.name)
                    self.bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                self.imported.add(base)
                for alias in node.names:
                    self.aliases.add(alias.name)
                    self.imported.add(f"{base}.{alias.name}")
                    if base != "__future__":
                        self.bound.add(alias.asname or alias.name)

    def _scan(self, nodes, prefix, fn, in_class=False):
        for node in nodes:
            if isinstance(node, FUNCTIONS):
                inner = Function(prefix + node.name, node, prefix + node.name, in_class)
                self.functions.append(inner)
                self._scan(ast.iter_child_nodes(node), inner.qualname + ".", inner)
            elif isinstance(node, ast.Lambda):
                inner = Function(f"{fn.owner}.<lambda>", node, fn.owner)
                self.functions.append(inner)
                self._scan(ast.iter_child_nodes(node), prefix, inner)
            else:
                fn.own.append(node)
                is_class = isinstance(node, ast.ClassDef)
                self._scan(ast.iter_child_nodes(node), prefix + node.name + "." if is_class else prefix,
                           fn, is_class)


@cache
def _parsed(path):
    return SourceIndex(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def source_index(source):
    """The index of a file (parsed once per session) or of a source string."""
    return _parsed(source) if isinstance(source, Path) else SourceIndex(ast.parse(source))


def functions_where(fact):
    """A query: the owners of the functions for which fact holds."""
    return lambda idx: {fn.owner for fn in idx.functions if fact(fn)}


def defs_where(fact):
    """A query: the defs, lambdas aside, for which fact holds.  A fact read
    from fn.nodes sees the defs inside, so every def around a site is one."""
    return lambda idx: {fn.qualname for fn in idx.functions if isinstance(fn.node, FUNCTIONS) and fact(fn)}


def imports_of(modules):
    """A query: the imports of any of modules, by any import form."""
    return lambda idx: idx.imported & modules


def mentions_of(names):
    """A query: every definition, use, attribute or import of one of names."""
    return lambda idx: (idx.names | idx.attrs | idx.defs | idx.aliases) & names


def _adds_and_drops(fn):
    """A test is_zero(w) of w, or of a name assigned from a .add(...) call."""
    sums = {t.id for n in fn.nodes if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
            and isinstance(n.value.func, ast.Attribute) and n.value.func.attr == "add"
            for t in n.targets if isinstance(t, ast.Name)}
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "is_zero" and len(n.args) == 1 and isinstance(n.args[0], ast.Name)
               and n.args[0].id in sums | {"w"} for n in fn.nodes)


def _column_rule_loop(fn):
    """A loop for j, c in <vec>.items() that calls vec_add_into(out, col, c,
    ...) on a fresh dict out ({}, dict(), or a, b = {}, {}), with col an
    expression in j or a name the loop binds to one."""
    def mentions(expr, name):
        return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(expr))

    def fresh(v):
        return (isinstance(v, ast.Dict) and not v.keys) or (
            isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "dict" and not v.args)

    pairs = [(n.target, n.value) for n in fn.nodes if isinstance(n, ast.AnnAssign) and n.value]
    for n in fn.nodes:
        for t in n.targets if isinstance(n, ast.Assign) else ():
            both = isinstance(t, ast.Tuple) and isinstance(n.value, ast.Tuple)
            pairs.extend(zip(t.elts, n.value.elts) if both else [(t, n.value)])
    out = {t.id for t, v in pairs if isinstance(t, ast.Name) and fresh(v)}
    for loop in fn.nodes:
        if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                and isinstance(loop.iter.func, ast.Attribute) and loop.iter.func.attr == "items"
                and isinstance(loop.target, ast.Tuple) and len(loop.target.elts) == 2
                and all(isinstance(e, ast.Name) for e in loop.target.elts)):
            continue
        j, c = (e.id for e in loop.target.elts)
        columns = {t.id for n in ast.walk(loop) if isinstance(n, ast.Assign) and mentions(n.value, j)
                   for t in n.targets if isinstance(t, ast.Name)}
        for n in ast.walk(loop):
            if isinstance(n, ast.Call) and len(n.args) >= 3 and _name(n.func) == "vec_add_into":
                dst, col, scale = n.args[:3]
                if (isinstance(dst, ast.Name) and dst.id in out and isinstance(scale, ast.Name)
                        and scale.id == c and (mentions(col, j) or (isinstance(col, ast.Name) and col.id in columns))):
                    return True
    return False


def _memos(fn):
    """The names x read as x = d.get(...), tested against None, with a store
    into d (d[...] = ...), d the same name or attribute chain."""
    lookups = {(t.id, ast.dump(n.value.func.value)) for n in fn.own
               if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
               and isinstance(n.value.func, ast.Attribute) and n.value.func.attr == "get"
               for t in n.targets if isinstance(t, ast.Name)}
    tested = {n.left.id for n in fn.own
              if isinstance(n, ast.Compare) and isinstance(n.left, ast.Name)
              and isinstance(n.ops[0], (ast.Is, ast.IsNot))
              and isinstance(n.comparators[0], ast.Constant) and n.comparators[0].value is None}
    stored = {ast.dump(t.value) for n in fn.own for t in _targets(n) if isinstance(t, ast.Subscript)}
    return {x for x, d in lookups if x in tested and d in stored}


OWNED_STATE_CALLS = {"convolution_inverse", "check_square_zero"}
OWNED_STATE_PARAMS = {"with_inverse", "sigma"}


def _handles_owned_state(fn):
    """fn calls convolution_inverse or check_square_zero, or takes a
    with_inverse or sigma parameter."""
    args = fn.node.args
    params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    return bool(_calls(fn.own) & OWNED_STATE_CALLS or params & OWNED_STATE_PARAMS)


def _reads_both_reductions(fn):
    """fn is or names homology_dims, and is page code (a FilteredComplex
    method, or one of PAGE_REDUCTION) or names one of PAGE_REDUCTION."""
    names = {_name(n) for n in fn.nodes} | {fn.node.name}
    page = fn.qualname.startswith("FilteredComplex.") or names & PAGE_REDUCTION
    return bool(page) and "homology_dims" in names


@cache
def _matrix_methods():
    """The non-dunder methods of linalg.ExactMatrix."""
    cls = next(n for n in source_index(PACKAGE / "linalg.py").tree.body
               if isinstance(n, ast.ClassDef) and n.name == "ExactMatrix")
    return {n.name for n in cls.body if isinstance(n, FUNCTIONS) and not n.name.startswith("__")}


def _page_code_reduces(fn):
    """fn is page code (a FilteredComplex method or one of PAGE_FUNCTIONS) and
    calls an ExactMatrix method or a rank query (a name with "rank" in it), or
    names ExactMatrix or pivot_pairs."""
    if not (fn.qualname.startswith("FilteredComplex.") or fn.qualname.split(".")[0] in PAGE_FUNCTIONS):
        return False
    calls = _calls(fn.nodes) - {None}
    names = {_name(n) for n in fn.nodes}
    return bool(calls & _matrix_methods() or any("rank" in c for c in calls)
                or names & {"ExactMatrix", "pivot_pairs"})


def _reads_orientation(fn):
    """fn is page code (a FilteredComplex method or one of PAGE_FUNCTIONS)
    and names one of ORIENTATION."""
    page = fn.qualname.startswith("FilteredComplex.") or fn.qualname.split(".")[0] in PAGE_FUNCTIONS
    return page and bool({_name(n) for n in fn.nodes} & ORIENTATION)


def _builds_matrix(fn):
    """A call ExactMatrix(...) or ExactMatrix.f(...), ExactMatrix a name or an attribute."""
    return any(isinstance(n, ast.Call) and (_name(n.func) == "ExactMatrix" or (
        isinstance(n.func, ast.Attribute) and _name(n.func.value) == "ExactMatrix")) for n in fn.nodes)


def _column_rules(idx):
    """CrossedResolution's methods named *_column, each with the keyed
    conversions (keyed_add_into, flatten) it or a def inside it calls."""
    return {fn.qualname + "".join(f" -> {c}" for c in sorted(_calls(fn.nodes) & KEYED_CONVERSIONS))
            for fn in idx.functions if fn.method and fn.qualname.split(".")[-2] == "CrossedResolution"
            and fn.node.name.endswith("_column")}


def _literal_forbidden(idx, cls="_Literal"):
    """Forbidden names in class cls and in the module functions it reaches."""
    functions = {n.name: n for n in idx.tree.body if isinstance(n, ast.FunctionDef)}
    todo = [n for n in idx.tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    assert len(todo) == 1, cls
    seen, found = set(), set()
    while todo:
        for node in ast.walk(todo.pop()):
            name = _name(node)
            if name in LITERAL_FORBIDDEN:
                found.add(name)
            elif name in functions and name not in seen:
                seen.add(name)
                todo.append(functions[name])
    return found


def _package(subject):
    """The modules and the reachability roots: src/ and the demos for the
    package directory, or one module "mod" and one demo for a source pair."""
    if isinstance(subject, Path):
        return ({p.stem: source_index(p).tree for p in MODULES}, [source_index(p).tree for p in DEMOS])
    source, demo = subject
    return {"mod": ast.parse(source)}, [ast.parse(demo)]


def _unreached(package):
    """module.function and module.Class.method labels that nothing reached names.

    Top-level functions and non-dunder methods are the candidates; every other
    statement of a module (dunder methods included), the roots and the names
    in __all__ are reached from the start.  A function is reached when a
    reached body names it, as a name or as an attribute (module.function); a
    method only when a reached body names it as an attribute (x.method), so a
    local variable or an imported function of the same name does not reach
    it.  A reached candidate's own body is reached in turn.
    """
    modules, roots = package
    candidates, names, attrs = [], set(), set()

    def mark(node):
        for n in ast.walk(node):
            if isinstance(n, (ast.Name, ast.Attribute)):
                (names if isinstance(n, ast.Name) else attrs).add(_name(n))

    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                candidates.append((f"{module}.{node.name}", node, False))
                continue
            if isinstance(node, ast.Assign) and any(_name(t) == "__all__" for t in node.targets):
                names.update(ast.literal_eval(node.value))
            if not isinstance(node, ast.ClassDef):
                mark(node)
                continue
            for part in node.bases + node.decorator_list:
                mark(part)
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
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


def _guarded(subject):
    """The files in scope of a reference row: of the live table for the tests
    directory, or the given set of file names."""
    if subject == TESTS:
        return {p.name for rule in RULES if rule.name.startswith("reference-") for p in rule.scope}
    return subject


class Ex(NamedTuple):
    """An example: the sites it must flag (None: any), and the file it stands
    for, whose allowance applies to it."""
    source: object
    sites: set = None
    file: str = None


class Rule(NamedTuple):
    """One guard: query maps read(x), for a file in scope or an example, to
    its sites; allowed maps a file name to the sites it may have."""
    name: str
    why: str
    scope: tuple
    query: Callable
    allowed: dict = {}
    bad: tuple = ()
    clean: tuple = ()
    read: Callable = source_index


# the column rules before they built flat columns in place
KEYED_RULES = (
    "class CrossedResolution:\n"
    "    def _mu_column(self, s, key):\n        out = {}\n"
    "        keyed_add_into(out, key, 1, self.field)\n        return self.row_spaces[s].flatten(out)\n"
    "    def _d0_column(self, key, r, s):\n        return flatten({key: 1}, self.legs, self.field)\n"
    "    def _sigma0_x_column(self, r, s, flat):\n        return {flat: 1}\n"
    "    def flatten(self, keyed):\n        return keyed\n"
)


def _module(*names):
    return tuple(PACKAGE / name for name in names)


def _reference(name, modules, bad, clean=(), file=None):
    """A row: a test reference imports none of the modules it checks."""
    file = file or f"{name}_reference.py"
    return Rule(f"reference-{name}", f"tests/{file} imports nothing from {', '.join(sorted(modules))}, so it "
                "checks that code without sharing it.", (TESTS / file,), imports_of(modules), bad=bad, clean=clean)


RULES = [
    Rule("unused-imports", "No module but the package __init__ (which re-exports) imports a name it "
         "never uses.", tuple(p for p in MODULES if p.name != "__init__.py"), lambda idx: idx.bound - idx.names,
         bad=("import os", "from .fields import FieldSpec, residue\nx = FieldSpec"),
         clean=("from __future__ import annotations", "import os.path\nx = os.sep")),
    Rule("add-and-drop", "The add-and-drop-zero accumulation (w = field.add(...); if field.is_zero(w): "
         "pop, else set) is written out only in tensors.keyed_add_into; everything else calls an "
         "accumulator (linalg.vec_add_into has one plain loop per field).",
         tuple(MODULES), defs_where(_adds_and_drops), {"tensors.py": {"keyed_add_into"}},
         bad=("def f(d, k, c, field):\n    w = field.add(d.get(k, 0), c)\n"
              "    if field.is_zero(w):\n        d.pop(k)\n    else:\n        d[k] = w",
              "def f(d, k, c, field):\n    t = field.add(d[k], c)\n    return field.is_zero(t)",
              # the sum in a def, its test in a def inside it
              Ex("def f(d, k, c, field):\n    t = field.add(d[k], c)\n"
                 "    def drop():\n        return field.is_zero(t)\n    return drop", {"f"})),
         clean=("def f(d, k, c, field):\n    vec_add_into(d, {k: c}, 1, field)",
                "def f(x, field):\n    return field.is_zero(field.mul(x, x))")),
    Rule("raw-sums-settle", "A raw sum into a dict (d[k] = d.get(k, 0) + ..., or through a bound get) "
         "holds unreduced scalars and kept zeros, so every function that makes one also calls "
         "FieldSpec.settle, which finishes it.  No function is excused: complexes._composites_vanish "
         "sums into a list.",
         tuple(MODULES), functions_where(lambda fn: any(map(_is_raw_sum, fn.own)) and "settle" not in _calls(fn.own)),
         bad=("def f(col, k, c):\n    col[k] = col.get(k, 0) + c\n    return col",
              "def f(col, k, c):\n    get = col.get\n    col[k] = get(k, 0) + c * c\n    return col",
              # the settle of a nested function does not settle its parent's sums
              Ex("def f(cols, k, c):\n    for col in cols:\n        col[k] = col.get(k, 0) + c\n"
                 "    def g(field, d):\n        return field.settle(d)\n    return cols", {"f"}),
              # nor does the parent's settle finish a nested function's sums
              Ex("def f(col, c, field):\n    def add(k):\n        col[k] = col.get(k, 0) + c\n"
                 "    add(1)\n    return field.settle(col)", {"f.add"}),
              # the d o d check has no allowance
              Ex("def _composites_vanish(col, k, c):\n    col[k] = col.get(k, 0) + c\n"
                 "    return not any(col.values())", {"_composites_vanish"}, file="complexes.py")),
         clean=("def f(col, k, c, field):\n    col[k] = col.get(k, 0) + c\n    return field.settle(col)",
                "def f(dst, src, field):\n    for k, v in src.items():\n"
                "        t = dst.get(k, 0) + v\n        if t:\n            dst[k] = t",
                "def f(acc, i, v, w):\n    acc[i] += v * w\n    return not any(acc)")),
    Rule("linalg-internals", "No module but linalg.py reaches into the elimination internals (_echelon, "
         "_reduce_against, a solver's .registry); the rest use the public ExactMatrix / SpanSolver "
         "methods.", tuple(MODULES), lambda idx: idx.attrs & LINALG_INTERNALS,
         {"linalg.py": {"_echelon", "registry"}},
         bad=("pairs = m._echelon(True)", "low = solver.registry.get(3)"),
         clean=("pairs = m.pivot_pairs()\nx = solver.solve(v)",)),
    Rule("immutable-matrices", "No method of ExactMatrix or SpanSolver but __init__ assigns to self.x "
         "or to self.x[...]: a matrix or a solver is never changed after it is built.",
         _module("linalg.py"),
         defs_where(lambda fn: fn.method and fn.qualname.split(".")[-2] in IMMUTABLE_CLASSES
                    and fn.node.name != "__init__" and any(_on_self(t) for n in fn.nodes for t in _targets(n))),
         # SpanSolver.insert as it was: it grew the registry of a built solver
         bad=(Ex("class SpanSolver:\n"
                 "    def __init__(self, matrix):\n        self.registry = {}\n"
                 "    def insert(self, vec):\n"
                 "        v, _ = self.reduction.start(vec)\n"
                 "        low = self.reduction.reduce(self.registry, v, None)\n"
                 "        if low is None:\n            return False\n"
                 "        self.registry[low] = self.reduction.register(v, None, low)\n"
                 "        self.track_combos = False\n        return True\n", {"SpanSolver.insert"}),
              "class ExactMatrix:\n    def scale(self, c):\n        self.cols[0][1] = c",
              "class ExactMatrix:\n    def grow(self):\n        self.ncols += 1",
              "class ExactMatrix:\n    def swap(self):\n        self.nrows, self.ncols = self.ncols, self.nrows"),
         # __init__ builds, a local is not self, and another class is not checked
         clean=("class ExactMatrix:\n    def __init__(self, cols):\n        self.cols = cols",
                "class SpanSolver:\n    def coordinates(self, vec):\n        v = dict(vec)\n        v[0] = 1",
                "class FilteredComplex:\n    def page(self):\n        self._pages = {}")),
    Rule("rationals-in-fields", "No module but fields.py imports fractions or gmpy2 or names Fraction, "
         "mpq or _ratio: every scalar is made through FieldSpec, which keeps integral rationals as ints.",
         tuple(MODULES),
         lambda idx: {m for m in idx.imported if m.split(".")[0] in RATIONAL_MODULES}
         | ((idx.names | idx.attrs | idx.aliases) & RATIONAL_NAMES),
         {"fields.py": {"fractions", "fractions.Fraction", "gmpy2", "gmpy2.mpq", "Fraction", "mpq", "_ratio"}},
         bad=("from fractions import Fraction", "import fractions", "import gmpy2", "from gmpy2 import mpz",
              "from .fields import _ratio", "x = fields._ratio(1)", "x = gmpy2.mpq(1, 2)",
              "def f(Fraction):\n    return Fraction(1, 2)"),
         clean=("from .fields import FieldSpec\nx = q.denominator",)),
    Rule("mod-p-in-scalar-modules", "Reduction modulo the field's p (x % p, x %= p, pow(x, y, p), with p "
         "the name p or any attribute .p) is written only in fields.py, linalg.py and "
         "complexes._composites_vanish, so the F_p representation (symmetric residues) lives in one "
         "place.  A site is the innermost def, or <module>.", tuple(MODULES),
         lambda idx: {fn.owner for fn in [idx.module, *idx.functions] if any(map(_is_mod_p, fn.own))},
         {"fields.py": {"residue", "FieldSpec.is_zero", "FieldSpec.inv", "FieldSpec.fmt"},
          "linalg.py": {"_PrimeReduction.register", "_axpy_mod", "_scale_mod_into"},
          "complexes.py": {"_composites_vanish"}},
         bad=("def f(t, field):\n    return t % field.p", "def f(t, p):\n    t %= p\n    return t",
              "def f(a, self):\n    return pow(a, self.p - 2, self.p)", "x = [v % p for v in vals]",
              # a nested helper is its own owner
              "def g(vals, p):\n    def f(v):\n        return v % p\n    return f",
              Ex("def g(vals, p):\n    def f(v):\n        return v % p", {"g.f"}),
              # an argument default is its def's, a lambda's is the lambda's owner's
              Ex("def f(x, r=pow(a, b, p)):\n    return x * r", {"f"}),
              Ex("f = lambda x, r=pow(a, b, p): x * r", {"<module>"})),
         clean=("def f(n, d):\n    return n % d", "x = t % 2", "y = pow(a, b)", "z = a % q.dim")),
    Rule("formulas-call-no-checked-code", "The displayed-formula evaluator (reduced_complexes._Literal, "
         "with the module functions it calls) names no resolution, duality or twisted-basis code, and "
         "not the bimodule's sandwich table, so the formula check shares no code with the blocks it "
         "checks.", _module("reduced_complexes.py"), _literal_forbidden,
         bad=("class _Literal:\n    def f(self, m):\n        return dual_bimodule(m)",
              "class _Literal:\n    def f(self):\n        return self.res.generator_columns",
              "class _Literal:\n    def f(self, cp):\n        return CrossedResolution(cp, 2)",
              "class _Literal:\n    def f(self, mod, res):\n        return mod.TwistedBasis(res).generator_table(1, 1, 1)",
              "class _Literal:\n    def f(self, rc):\n        return rc.twisted.generator_table(1, 0, 1)",
              "class _Literal:\n    def f(self, mod, m, table):\n        return mod._placed_table(m, table, 1, 1)",
              "class _Literal:\n    def f(self):\n        return self.m.sandwich(0, 1)",
              # reached through a module helper
              "def helper(mat):\n    return mat.transpose()\n"
              "class _Literal:\n    def f(self, mat):\n        return helper(mat)"),
         clean=("def dual_helper(m):\n    return dual_bimodule(m)\n"
                "class _Literal:\n    def f(self, m):\n        return m",)),
    Rule("outer-mult-callers", "The outer multiplications are called in resolution.py by "
         "FreeBimoduleSpace.outer_mult (left_mult, right_mult) and CrossedResolution.degree_outer_mult "
         "(outer_mult, block by block), and in comparison.py by check_bimodule_extension, the "
         "certificate for left_mult / right_mult.  Every generator table (d, sigma, b', phi, psi, omega) "
         "is extended by resolution.extend_by_outer_mult, which receives the outer multiplication as an "
         "argument, so no second hand-written extension escapes the certificate.", tuple(MODULES),
         defs_where(lambda fn: any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                                   and n.func.attr in OUTER_MULTS for n in fn.nodes)),
         {"comparison.py": {"check_bimodule_extension"},
          "resolution.py": {"FreeBimoduleSpace.outer_mult", "CrossedResolution.degree_outer_mult"}},
         bad=(Ex("class ComparisonMaps:\n"
                 "    def phi_apply(self, space, img, e_left, e_right):\n"
                 "        return space.right_mult(space.left_mult(img, e_left), e_right)",
                 {"ComparisonMaps.phi_apply"}),
              Ex("class CrossedResolution:\n"
                 "    def _block_apply(self, tgt, img, e_left, e_right):\n"
                 "        return tgt.outer_mult(img, e_left, e_right)", {"CrossedResolution._block_apply"}),
              Ex("def psi_apply(cmp, n, img, e_left, e_right):\n"
                 "    return cmp.res.degree_outer_mult(n, img, e_left, e_right)", {"psi_apply"})),
         # passing an outer multiplication to the extension loop is not a call
         clean=("def bprime(bar, n, vec):\n"
                "    return extend_by_outer_mult(bar.split, bar.gen, bar.spaces[n].outer_mult, vec, bar.field)",)),
    Rule("column-rule-loop", "The column-rule loop (for j, c in vec.items(): vec_add_into(out, "
         "column(j), c, field), into a fresh dict) is written only in linalg.apply_columns; every other "
         "linear map applied from its columns calls it.  The bilinear products (AlgebraData.mult_elems, "
         "crossed._act_elem) scale by a product of two entries and are not this loop.", tuple(MODULES),
         defs_where(_column_rule_loop), {"linalg.py": {"apply_columns"}},
         # BimoduleData.left_act and right_act before apply_columns
         bad=("def left_act(self, e_idx, mvec):\n    out: dict = {}\n    for mi, c in mvec.items():\n"
              "        vec_add_into(out, self.left[e_idx][mi], c, self.field)\n    return out",
              "def right_act(self, mvec, e_idx):\n    out = {}\n    for mi, c in mvec.items():\n"
              "        vec_add_into(out, self.right[mi][e_idx], c, self.field)\n    return out",
              # a column named first, and two sums started in one assignment
              "def apply(vec, rule, field):\n    out = dict()\n    for j, v in vec.items():\n"
              "        col = rule(j)\n        if col:\n            vec_add_into(out, col, v, field)\n    return out",
              "def f(e, lefts, rights, a, b, field):\n    ba_g, g_ab = {}, {}\n"
              "    for k, c in e.mult[b][a].items():\n        vec_add_into(ba_g, lefts[k], c, field)\n"
              "    return ba_g",
              # the fresh dict in a def, the loop in a def inside it
              Ex("def apply(vec, rule, field):\n    out = {}\n    def go():\n        for j, c in vec.items():\n"
                 "            vec_add_into(out, rule(j), c, field)\n    go()\n    return out", {"apply"})),
         # bilinear: the scale is a product of two entries; and into a sum the caller passed in
         clean=("def mult_elems(self, u, v, field):\n    out = {}\n    for i, a in u.items():\n"
                "        for j, b in v.items():\n"
                "            vec_add_into(out, self.mult[i][j], field.mul(a, b), field)\n    return out",
                "def add_all(total, vec, rule, field):\n    for j, c in vec.items():\n"
                "        vec_add_into(total, rule(j), c, field)")),
    Rule("column-rules-in-place", "Every CrossedResolution column rule (a method named *_column) builds "
         "its flat column in place: none calls keyed_add_into or a flatten (keyed terms converted to "
         "flat indices afterwards).  The allowance is the roster of the rules, clean.",
         _module("resolution.py"), _column_rules,
         {"resolution.py": {f"CrossedResolution.{name}" for name in (
             "_mu_column", "_partial_column", "_sigma0_x_column", "_sigma_minus1_column",
             "_d0_column", "_d1_generator_column", "_dl_generator_column")}},
         bad=(Ex(KEYED_RULES, {"CrossedResolution._mu_column -> flatten -> keyed_add_into",
                               "CrossedResolution._d0_column -> flatten"}, "resolution.py"),
              # a conversion in a def inside the rule is the rule's
              Ex("class CrossedResolution:\n    def _mu_column(self, s, flat):\n        def keyed(k):\n"
                 "            return flatten({k: 1}, self.legs, self.field)\n        return keyed(flat)",
                 {"CrossedResolution._mu_column -> flatten"}, "resolution.py")),
         # a class of another name is not the resolution
         clean=(Ex(KEYED_RULES.replace("CrossedResolution", "BarCalculus"), file="resolution.py"),)),
    Rule("no-flatten", "No src/ module defines a flatten: the column rules convert no keyed terms.",
         tuple(MODULES), defs_where(lambda fn: fn.node.name == "flatten"),
         bad=(Ex(KEYED_RULES, {"CrossedResolution.flatten"}),
              Ex("def flatten(elem, legs, field):\n    return elem", {"flatten"})),
         clean=("x = space.flatten(keyed)",)),
    Rule("matrix-builders", "In resolution.py only blocks and augmentation build an ExactMatrix (call "
         "it or one of its constructors): the row maps and sigma pieces stay column rules, and their "
         "full-basis matrices (mu_s, mu_tilde) live in tests/conftest.py and tests/homotopy_reference.py.",
         _module("resolution.py"),
         defs_where(_builds_matrix),
         {"resolution.py": {"CrossedResolution.blocks", "CrossedResolution.augmentation"}},
         bad=("class CrossedResolution:\n"
              "    def mu(self, s):\n        return ExactMatrix(self.field, 1, 1, [{}])",
              "def _make_matrix(field, n, cols):\n    return ExactMatrix(field, n, len(cols), cols)",
              "def mu_tilde(res):\n    return linalg.ExactMatrix.from_columns(res.field, 1, [])",
              "class R:\n    def mu_tilde(self):\n        return ExactMatrix.zeros(self.field, 1, 1)",
              # in an argument default
              Ex("class R:\n    def blocks(self, m=ExactMatrix.zeros(f, 1, 1)):\n        return m", {"R.blocks"})),
         clean=("def apply(m, v):\n    return m.apply(v)\nx = ExactMatrix(f, 0, 0, [])",)),
    Rule("insertion-matrix-test-only", "The full-basis insertion matrices live only in "
         "tests/insertion_reference.py: no src/ module names insertion_matrix.",
         (*MODULES, TESTS / "insertion_reference.py"), mentions_of({"insertion_matrix"}),
         {"insertion_reference.py": {"insertion_matrix"}},
         bad=("def insertion_matrix(l, r):\n    pass", "x = calc.insertion_matrix(2, 1)",
              "from .reference import insertion_matrix"),
         clean=("x = calc.insertion_column(2, 1, (1, 1), ())",)),
    Rule("double-complex-in-twisting", "The double-complex case (f valued in k.1, no insertion term "
         "above l = 1) is decided in twisting.py alone: no other src/ module reads "
         "CocycleData.scalar_valued; the readers ask TwistingCalculus.inserts once per block, and the "
         "resolution-check certificate reports its answer.  Definitions and assignments are not reads.",
         tuple(MODULES), lambda idx: idx.loads & {"scalar_valued"}, {"twisting.py": {"scalar_valued"}},
         bad=("x = cp.cocycle.scalar_valued", "if self.cp.cocycle.scalar_valued and l >= 2:\n    pass",
              "scalar = any(c.scalar_valued for c in cocycles)",
              "from .crossed import scalar_valued\nx = scalar_valued"),
         clean=("self.scalar_valued = all(cell.keys() <= {0} for row in f for cell in row)",
                "if calc.inserts(l):\n    col = calc.insertion_column(2, 1, (1, 1), ())",
                "def scalar_valued(self):\n    pass")),
    Rule("no-hand-written-memos", "Every lookup table is a per-instance functools.cache, set by one line "
         "in __init__ (self.f = cache(self._build_f)).  No function writes a memo by hand: x = "
         "d.get(key), a test of x against None, and a store into d.  The elimination registry "
         "(registry.get(low) in linalg.py) never stores on a miss and is not one.", tuple(MODULES),
         functions_where(_memos),
         # the images memo of _Literal.block as it was, in a loop
         bad=(Ex("class _Literal:\n    def block(self, terms, m):\n        images = self.images\n"
                 "        for x, y in terms:\n            xy = (tuple(x.items()), tuple(y.items()))\n"
                 "            per_m = images.get(xy)\n            if per_m is None:\n"
                 "                per_m = images[xy] = [m.left_elem(y, e) for e in m.basis]\n",
                 {"_Literal.block"}),
              # HopfData.comult_power as it was
              "class HopfData:\n    def comult_power(self, i, n):\n        key = (i, n)\n"
              "        hit = self._powers.get(key)\n        if hit is None:\n"
              "            hit = self._powers[key] = expand_leg({(i,): 1}, 0, self.comult_row, n)\n"
              "        return hit",
              # BarCalculus._bprime_generator as it was: an early return, the store at the end
              "class BarCalculus:\n    def _bprime_generator(self, n, mid):\n"
              "        hit = self.bprime_table.get((n, mid))\n        if hit is not None:\n"
              "            return hit\n        out = {0: 1}\n        self.bprime_table[(n, mid)] = out\n"
              "        return out",
              # the local memo of _recursive_generator_columns, in a nested function
              Ex("def columns(self):\n    partial_memo = {}\n    def partial_column(s, j):\n"
                 "        hit = partial_memo.get((s, j))\n        if hit is None:\n"
                 "            hit = partial_memo[(s, j)] = self._partial_column(s, j)\n        return hit\n"
                 "    return partial_column", {"columns.partial_column"}),
              # a store on its own line after the test
              "class FilteredComplex:\n    def _rank(self, n):\n        pairs = self._pairs.get(n)\n"
              "        if pairs is None:\n            pairs = self.find(n)\n"
              "            self._pairs[n] = pairs\n        return len(pairs)"),
         clean=(
             # the elimination registry: a miss returns, nothing is stored
             "def reduce(self, registry, vec):\n    while vec:\n        low = max(vec)\n"
             "        hit = registry.get(low)\n        if hit is None:\n            return low\n"
             "        vec.pop(low)",
             # a store into another dict than the one read
             "def f(seen, out, key):\n    hit = seen.get(key)\n    if hit is None:\n"
             "        out[key] = 1\n    return out",
             # a default lookup, never tested against None
             "def f(d, k):\n    x = d.get(k, 0)\n    d[k] = x + 1",
             "class TwistingCalculus:\n    def __init__(self):\n"
             "        self.insertion_column = cache(self._insertion_column)")),
    Rule("no-cached-methods", "No method is decorated with functools.cache or lru_cache: that cache is "
         "keyed by self, shared by every instance, and keeps each instance alive.  Module-level "
         "functions (cli.make_parser) may be.", tuple(MODULES),
         defs_where(lambda fn: fn.method and {_name(d.func if isinstance(d, ast.Call) else d)
                                              for d in fn.node.decorator_list} & {"cache", "lru_cache"}),
         bad=("class A:\n    @cache\n    def f(self, n):\n        return n",
              "class A:\n    @functools.cache\n    def f(self, n):\n        return n",
              "class A:\n    @lru_cache(maxsize=None)\n    def f(self, n):\n        return n",
              "class A:\n    @staticmethod\n    @functools.lru_cache()\n    def f(n):\n        return n"),
         # a module-level function, a per-instance cache and a cached_property
         clean=("@cache\ndef make_parser():\n    return 1",
                "class A:\n    def __init__(self):\n        self.f = cache(self._f)",
                "class A:\n    @cached_property\n    def table(self):\n        return {}")),
    Rule("derived-state-owners", "Each object builds its own derived state: CrossedProductData.conv_inverse "
         "alone calls convolution_inverse (on first read), ChainComplex.__init__ alone calls "
         "check_square_zero, and no def takes a with_inverse or sigma parameter, so no caller primes, "
         "passes or flags that state (CrossedResolution keeps its contracting_homotopy).", tuple(MODULES),
         functions_where(_handles_owned_state),
         {"crossed.py": {"CrossedProductData.conv_inverse"}, "complexes.py": {"ChainComplex.__init__"}},
         # ProblemFile.crossed_product, ReducedComplexes._filtered and the homotopy certificate as they were
         bad=(Ex("class ProblemFile:\n    def crossed_product(self, check=True, with_inverse=True):\n"
                 "        cp = build_crossed_product(self.algebra, check=check)\n        if with_inverse:\n"
                 "            convolution_inverse(cp)\n        return cp", {"ProblemFile.crossed_product"},
                 file="problems.py"),
              Ex("class ReducedComplexes:\n    def _filtered(self, dims, maps, levels):\n"
                 "        cx = ChainComplex(self.field, dims, maps)\n        cx.check_square_zero()\n"
                 "        return FilteredComplex(cx, levels)", {"ReducedComplexes._filtered"},
                 file="reduced_complexes.py"),
              Ex("def assert_contracting_homotopy(res, sigma=None):\n    if sigma is None:\n"
                 "        sigma = res.contracting_homotopy()\n    return sigma",
                 {"assert_contracting_homotopy"}, file="resolution.py"),
              Ex("class CrossedResolution:\n    def homotopy_apply(self, sigma, n, vec):\n        return vec",
                 {"CrossedResolution.homotopy_apply"}, file="resolution.py"),
              # the owner's module does not excuse another function of it
              Ex("def build_crossed_product(a):\n    cp = CrossedProductData(a)\n"
                 "    cp.finv = convolution_inverse(cp)\n    return cp", {"build_crossed_product"},
                 file="crossed.py")),
         clean=(Ex("class CrossedProductData:\n    @cached_property\n    def conv_inverse(self):\n"
                   "        return convolution_inverse(self)", file="crossed.py"),
                Ex("class ChainComplex:\n    def __init__(self, maps):\n        self.maps = maps\n"
                   "        self.check_square_zero()", file="complexes.py"),
                "def cmd_verify(pf):\n    return pf.crossed_product().conv_inverse is not None",
                "class ComparisonMaps:\n    def build(self, res, n, img):\n"
                "        return res.homotopy_apply(n, img)")),
    Rule("two-reductions", "The E-infinity check compares two separate reductions: in complexes.py "
         "homology_dims names no page code but ExactMatrix.pivot_pairs (no _pairs, _pivot_pairs, _level_order, "
         "_ends, _pair_ends, page_cell_dim, spectral_page or infinity_page), and the page code (the FilteredComplex methods, page_cell_dim, spectral_page, infinity_page) "
         "does not call homology_dims.  check_convergence is the one def that reads both.",
         (PACKAGE / "complexes.py",), defs_where(_reads_both_reductions),
         {"complexes.py": {"check_convergence"}},
         bad=(Ex("def homology_dims(c, fc):\n    return [len(fc._pairs(n)) for n in range(c.cap)]",
                 {"homology_dims"}),
              Ex("class FilteredComplex:\n    def verify(self):\n        return homology_dims(self.complex)",
                 {"FilteredComplex.verify"}),
              Ex("def spectral_page(fc, r):\n    return homology_dims(fc.complex)", {"spectral_page"}),
              # a helper on both sides, and the allowance names check_convergence alone
              Ex("def check_convergence(fc):\n    return homology_dims(fc.complex), infinity_page(fc)\n"
                 "def _total(fc):\n    return len(fc._pair_ends(1)[0]) + sum(homology_dims(fc.complex))",
                 {"_total"}, file="complexes.py")),
         clean=(Ex("def check_convergence(fc, total=None):\n    if total is None:\n"
                   "        total = homology_dims(fc.complex)\n    return infinity_page(fc), total",
                   file="complexes.py"),
                "def homology_dims(c):\n    up = c.maps[1].transpose()\n    return len(up.pivot_pairs())",
                "class FilteredComplex:\n    def page_cell_dim(self, r, p, q):\n"
                "        return self._counts[p + q][p] - sum(1 for x in self._ends(p + q)[p] if x < r)")),
    Rule("page-count-reads-pairs", "Page cells are counted from pair lengths: in complexes.py no page code "
         "(the FilteredComplex methods, spectral_page, stable_page_number, infinity_page) calls an ExactMatrix "
         "method or a rank query (a name with rank in it), or names ExactMatrix or pivot_pairs, but "
         "FilteredComplex._pivot_pairs, the one reduction of each map.  page_cell_dim and the pair-end pass "
         "(_pair_ends) read the pairs through _pairs and _ends.",
         (PACKAGE / "complexes.py",), defs_where(_page_code_reduces),
         {"complexes.py": {"FilteredComplex._pivot_pairs"}},
         # page_cell_dim as it was: four rank queries per cell, from two closures
         bad=(Ex("class FilteredComplex:\n    def page_cell_dim(self, r, p, q):\n        n = p + q\n"
                 "        def cycles(p, r):\n            b = self._size(n, p)\n"
                 "            return b - self._rank(n, self._size(n - 1, p - r), b)\n"
                 "        def boundaries(s, t):\n            b = self._size(n + 1, s)\n"
                 "            return self._rank(n + 1, 0, b) - self._rank(n + 1, self._size(n, t), b)\n"
                 "        return cycles(p, r) - cycles(p - 1, r - 1) - boundaries(p + r - 1, p)",
                 {"FilteredComplex.page_cell_dim", "FilteredComplex.page_cell_dim.cycles",
                  "FilteredComplex.page_cell_dim.boundaries"}),
              Ex("class FilteredComplex:\n    def _pair_ends(self, n):\n"
                 "        return self.complex.outgoing(n).pivot_pairs()", {"FilteredComplex._pair_ends"}),
              Ex("class FilteredComplex:\n    def page_cell_dim(self, r, p, q):\n"
                 "        return self.complex.outgoing(p + q).rank()", {"FilteredComplex.page_cell_dim"}),
              Ex("def spectral_page(fc, r):\n    m = ExactMatrix(fc.complex.field, 0, 0, [])\n"
                 "    return m.kernel_basis()", {"spectral_page"}),
              # the allowance names _pivot_pairs alone
              Ex("class FilteredComplex:\n    def verify(self):\n        return self.complex.outgoing(1).transpose()",
                 {"FilteredComplex.verify"}, file="complexes.py")),
         clean=(Ex("class FilteredComplex:\n    def _pivot_pairs(self, n):\n"
                   "        return ExactMatrix(self.complex.field, 0, 0, []).pivot_pairs()", file="complexes.py"),
                "class FilteredComplex:\n    def page_cell_dim(self, r, p, q):\n"
                "        return self._counts[p + q][p] - sum(1 for x in self._ends(p + q)[p] if x < r)",
                "class FilteredComplex:\n    def _pair_ends(self, n):\n"
                "        return [down * (a - b) for a, b in self._pairs(n)]",
                # the independent side of the E-infinity check reduces on its own
                "def homology_dims(c):\n    return len(c.maps[1].pivot_pairs()), c.maps[1].rank()")),
    Rule("single-orientation", "ChainComplex alone decides a complex's orientation (ChainComplex.up, "
         "U_n : C_{n-1} -> C_n, a chain map transposed): in complexes.py no page code (the FilteredComplex "
         "methods, spectral_page, stable_page_number, infinity_page) reads direction, HOMOLOGY, COHOMOLOGY, "
         "outgoing, incoming or transpose, so chains and cochains share one page path.  spectral_page passes "
         "c.direction on as the page's label.",
         (PACKAGE / "complexes.py",), defs_where(_reads_orientation), {"complexes.py": {"spectral_page"}},
         # _pivot_pairs, __init__ and verify as they were, with a chain-only branch
         bad=(Ex("class FilteredComplex:\n    def _pivot_pairs(self, n):\n"
                 "        og = self.complex.outgoing(n)\n        below = self._pairs(n - 1)\n"
                 "        if self._down == -1:\n            return self._cleared(og, below)\n"
                 "        m, k = og.nrows, og.ncols\n        anti = [{} for _ in range(m)]\n"
                 "        for c, j in enumerate(self._level_order(n)):\n"
                 "            for i, v in og.cols[j].items():\n"
                 "                anti[m - 1 - i][k - 1 - c] = v\n        return anti",
                 {"FilteredComplex._pivot_pairs"}),
              Ex("class FilteredComplex:\n    def __init__(self, complex, levels):\n"
                 "        self._down = 1 if complex.direction == HOMOLOGY else -1",
                 {"FilteredComplex.__init__"}),
              Ex("class FilteredComplex:\n    def verify(self):\n        c = self.complex\n"
                 "        for n in range(c.cap + 1):\n            og = c.outgoing(n)\n"
                 "            if og is not None:\n                yield og.cols",
                 {"FilteredComplex.verify"}),
              Ex("class FilteredComplex:\n    def _pivot_pairs(self, n):\n"
                 "        return self.complex.maps[n].transpose().pivot_pairs()", {"FilteredComplex._pivot_pairs"}),
              # the allowance names spectral_page alone
              Ex("def infinity_page(fc):\n    return fc.complex.direction == COHOMOLOGY", {"infinity_page"},
                 file="complexes.py")),
         clean=("class FilteredComplex:\n    def _pivot_pairs(self, n):\n        up = self.complex.up(n)\n"
                "        return [] if up is None else up.pivot_pairs()",
                Ex("def spectral_page(fc, r):\n    c = fc.complex\n    return SpectralPage(r, {}, c.cap - 1, c.direction)",
                   file="complexes.py"),
                "class ChainComplex:\n    def up(self, n):\n"
                "        return self.maps[n] if self.direction == COHOMOLOGY else self.maps[n].transpose()",
                "def homology_dims(c):\n    return c.maps[1].transpose().rank()")),
    Rule("every-function-reached", "Every top-level function and non-dunder method in src/ is reached: "
         "it is in __all__, or named by module-level code of src/, by a demo, or by the body of another "
         "reached function (see _unreached).  Test-only helpers belong in tests/.  The exemptions are "
         "compared for equality, so an exempt function fails the row once a src/ reader comes back.",
         (PACKAGE,), _unreached, {"hopfcross": REACHABILITY_EXEMPT}, read=_package,
         bad=(Ex(("__all__ = ['exported']\n"
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
                  "LATER = uses_collisions(1, None)\n", "import mod\nmod.from_demo()"),
                 {"mod.only_from_dead", "mod.dead", "mod.ping", "mod.pong", "mod.recursive", "mod.K.unused",
                  "mod.K.scale", "mod.K.sub"}),),
         clean=(("def f():\n    return 1", "import mod\nmod.f()"),)),
    _reference("insertion", {"hopfcross.twisting", "hopfcross.resolution"},
               ("from hopfcross.twisting import TwistingCalculus", "import hopfcross.resolution",
                "import hopfcross.twisting as tw", "from hopfcross import twisting",
                "from hopfcross import linalg, resolution"),
               ("from hopfcross.linalg import ExactMatrix\nimport hopfcross.tensors",)),
    _reference("coefficient", {"hopfcross.reduced_complexes"},
               ("from hopfcross.reduced_complexes import _mid_key", "from hopfcross import reduced_complexes")),
    _reference("comparison", {"hopfcross.comparison", "hopfcross.resolution"},
               ("import hopfcross.comparison",
                "def f(bar):\n    from hopfcross.comparison import BarCalculus")),
    _reference("bar", {"hopfcross.bar"}, ("from hopfcross.bar import hochschild_chain_complex",)),
    _reference("lift", {"hopfcross.complexes"}, ("from hopfcross.complexes import HomologyLift",)),
    _reference("placement", {"hopfcross.reduced_complexes"},
               ("from hopfcross.reduced_complexes import TwistedBasis",)),
    _reference("sweedler", {"hopfcross.hopf"},
               ("from hopfcross.hopf import sweedler_legs", "import hopfcross.hopf as hopf")),
    _reference("extension", {"hopfcross.resolution"},
               ("from hopfcross.resolution import FreeBimoduleSpace",)),
    _reference("homotopy", {"hopfcross.resolution"},
               ("from hopfcross.resolution import CrossedResolution",)),
    _reference("inverse", {"hopfcross.crossed"}, ("from hopfcross.crossed import _convolution_product",)),
    _reference("elimination", {"hopfcross.linalg"},
               ("from hopfcross.linalg import ExactMatrix", "from hopfcross import linalg"),
               ("from hopfcross.fields import FieldSpec",)),
    _reference("filtered-bar", {"hopfcross.reduced_complexes", "hopfcross.resolution",
                                   "hopfcross.twisting"},
               ("from hopfcross.reduced_complexes import ReducedComplexes", "import hopfcross.twisting",
                "from hopfcross import resolution"),
               ("from hopfcross.bar import hochschild_chain_complex",), file="filtered_bar.py"),
    Rule("reference-spectral", "The brute-force spectral pages check the pivot-pair counting of "
         "FilteredComplex, so they name none of the page code; ExactMatrix elimination, "
         "outgoing/incoming and HOMOLOGY are shared.", (TESTS / "spectral_reference.py",),
         mentions_of(PAGE_CODE),
         bad=("from hopfcross.complexes import spectral_page", "pairs = fc._pivot_pairs(n)",
              "x = m.pivot_pairs()", "def page_cell_dim(fc, n, p, r):\n    return fc._ends(n)[p]"),
         clean=("from hopfcross.complexes import HOMOLOGY\nfrom hopfcross.linalg import ExactMatrix\n"
                "og = c.outgoing(n)\nr = ExactMatrix.from_columns(f, 1, []).rank()",)),
    _reference("page-pairs", {"hopfcross.complexes"},
               ("from hopfcross.complexes import FilteredComplex", "import hopfcross.complexes as cx",
                "from hopfcross import complexes"),
               ("from hopfcross.linalg import ExactMatrix",), file="page_pairs_reference.py"),
    Rule("references-guarded", "Every tests/*_reference.py file, and filtered_bar.py, is in scope of a "
         "reference row, so no reference is added unguarded.", (TESTS,),
         lambda guarded: {p.name for p in REFERENCES} - guarded, read=_guarded,
         # the table before the elimination, spectral, filtered-bar and page-pairs rows
         bad=(Ex(frozenset({"insertion_reference.py", "coefficient_reference.py", "comparison_reference.py",
                            "bar_reference.py", "lift_reference.py", "placement_reference.py",
                            "sweedler_reference.py", "extension_reference.py", "homotopy_reference.py",
                            "inverse_reference.py"}),
                 {"elimination_reference.py", "spectral_reference.py", "filtered_bar.py",
                  "page_pairs_reference.py"}),),
         clean=(frozenset(p.name for p in REFERENCES),)),
]


def _examples(rule, which):
    return [ex if isinstance(ex, Ex) else Ex(ex) for ex in getattr(rule, which)]


def _flagged(rule, ex):
    return rule.query(rule.read(ex.source)) - rule.allowed.get(ex.file, set())


LIVE = [(rule, path) for rule in RULES for path in rule.scope]


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "tensors.py", "linalg.py"}
    assert all(path.exists() for _, path in LIVE) and len({rule.name for rule in RULES}) == len(RULES)


@pytest.mark.parametrize("rule, path", LIVE, ids=[f"{rule.name}-{path.name}" for rule, path in LIVE])
def test_rule(rule, path):
    assert rule.query(rule.read(path)) == rule.allowed.get(path.name, set()), rule.why


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule_examples(rule):
    assert rule.bad, rule.name
    for ex in _examples(rule, "bad"):
        found = _flagged(rule, ex)
        assert found if ex.sites is None else found == ex.sites, ex.source
    for ex in _examples(rule, "clean"):
        assert not _flagged(rule, ex), ex.source
