"""Structure-constant problem files and the built-in example gallery.

A problem file is a single JSON document; tensors are nested arrays indexed
by basis positions, scalars are integers, "p/q" strings over the rationals,
or plain integers 0..p-1 over a prime field (FieldSpec.scalar refuses a
float or a boolean).  Dimensions are cross-checked before any mathematics runs.
"""

from __future__ import annotations

import json

from .algebras import AlgebraData, group_algebra, truncated_polynomial_algebra
from .crossed import (
    AxiomViolation,
    BimoduleData,
    CocycleData,
    CrossedProductData,
    WeakActionData,
    build_crossed_product,
    regular_bimodule,
    trivial_action,
    trivial_cocycle,
)
from .fields import FieldSpec
from .hopf import HopfData, group_hopf, sweedler_hopf, trivial_hopf


class ParseError(Exception):
    def __init__(self, message, where=""):
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))
        self.where = where


class DimensionMismatch(ParseError):
    pass


class UnknownBuiltin(Exception):
    pass


class ProblemFile:
    """Verified-parse container for one crossed-product problem."""

    def __init__(self, field, algebra, hopf, action, cocycle,
                 bimodule=None, tor_modules=None, options=None, name="problem"):
        self.field = field
        self.algebra = algebra
        self.hopf = hopf
        self.action = action
        self.cocycle = cocycle
        self.bimodule = bimodule
        self.tor_modules = tor_modules
        self.options = dict(options or {})
        self.name = name

    @property
    def cap(self) -> int:
        return int(self.options.get("cap", 4))

    @property
    def oracle(self) -> bool:
        return self.options.get("oracle", False)

    def crossed_product(self, check=True) -> CrossedProductData:
        return build_crossed_product(self.algebra, self.hopf, self.action,
                                     self.cocycle, check=check)

    def bimodule_or_regular(self, cp) -> BimoduleData:
        """The file's bimodule, verified over cp.e (AxiomViolation if it
        fails), or the regular bimodule E."""
        if self.bimodule is None:
            return regular_bimodule(cp.e)
        report = self.bimodule.verify(cp.e)
        if not report.passed:
            raise AxiomViolation(report)
        return self.bimodule


# parsing ----------------------------------------------------------------------

def _scalar(field, v, where):
    try:
        return field.scalar(v)
    except Exception as exc:
        raise ParseError(f"bad scalar {v!r}: {exc}", where) from None


def _vector(field, raw, length, where):
    if not isinstance(raw, list) or len(raw) != length:
        raise DimensionMismatch(f"expected a coefficient vector of length {length}", where)
    return {i: s for i, v in enumerate(raw) if (s := _scalar(field, v, where))}


def _tensor2(field, raw, d1, d2, vec_len, where):
    if not isinstance(raw, list) or len(raw) != d1:
        raise DimensionMismatch(f"tensor {where} must have {d1} rows", where)
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != d2:
            raise DimensionMismatch(f"tensor {where} row {i} must have {d2} cells", where)
        out.append([_vector(field, cell, vec_len, f"{where}[{i}][{j}]")
                    for j, cell in enumerate(row)])
    return out


def _object(raw, where) -> dict:
    if not isinstance(raw, dict):
        raise ParseError(f"{where} section must be an object", where)
    return raw


def _guarded(where, parse, *args):
    """parse(*args), with a node of the wrong JSON type or value (an int for
    a list, "x" for a dim, dim 0) reported as a ParseError at where."""
    try:
        return parse(*args)
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", where) from None
    except (TypeError, ValueError, LookupError, AttributeError, ArithmeticError) as exc:
        raise ParseError(f"bad value: {exc}", where) from None


def _integer(value, where) -> int:
    """value if it is a JSON integer (not a bool), else ParseError at where."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where.rpartition('.')[2]} must be an integer, got {value!r}", where)
    return value


def _parse_algebra(field, raw, where="algebra") -> AlgebraData:
    raw = _object(raw, where)
    dim = _integer(raw["dim"], f"{where}.dim")
    labels = raw["basis_labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError(f"basis_labels must be a list of strings, got {labels!r}",
                         f"{where}.basis_labels")
    if len(labels) != dim:
        raise DimensionMismatch("basis_labels length != dim", where)
    mult = _tensor2(field, raw["mult"], dim, dim, dim, f"{where}.mult")
    return AlgebraData(field, dim, labels, mult)


def _parse_hopf(field, raw, where="hopf") -> HopfData:
    alg = _parse_algebra(field, raw, where)
    dim = alg.dim
    comult = [{(j, k): s for j, row in enumerate(rows) for k, s in row.items()}
              for rows in _tensor2(field, raw.get("comult"), dim, dim, dim, f"{where}.comult")]
    for key in ("counit", "antipode"):
        if not isinstance(raw.get(key), list) or len(raw[key]) != dim:
            raise DimensionMismatch(f"{key} needs one entry per basis element", f"{where}.{key}")
    counit = [_scalar(field, v, f"{where}.counit") for v in raw["counit"]]
    antipode = [_vector(field, v, dim, f"{where}.antipode[{i}]")
                for i, v in enumerate(raw["antipode"])]
    return HopfData(alg, comult, counit, antipode)


def _parse_bimodule(field, raw, ne) -> BimoduleData:
    dim = _integer(_object(raw, "bimodule")["dim"], "bimodule.dim")
    left = _tensor2(field, raw.get("left"), ne, dim, dim, "bimodule.left")
    right = _tensor2(field, raw.get("right"), dim, ne, dim, "bimodule.right")
    return BimoduleData(field, dim, ne, left, right)


def _parse_tor_modules(field, raw, ne) -> tuple:
    raw = _object(raw, "tor_modules")
    dim_r = _integer(raw["dim_right"], "tor_modules.dim_right")
    dim_l = _integer(raw["dim_left"], "tor_modules.dim_left")
    right = _tensor2(field, raw.get("right"), dim_r, ne, dim_r, "tor_modules.right")
    left = _tensor2(field, raw.get("left"), ne, dim_l, dim_l, "tor_modules.left")
    return (dim_r, right), (dim_l, left)


def parse_problem_dict(doc: dict, name="problem") -> ProblemFile:
    """The problem in doc; any malformed node raises ParseError."""
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")
    if "field" not in doc:
        raise ParseError("missing field spec", "field")
    field = _guarded("field", FieldSpec.parse, doc["field"])
    algebra = _guarded("algebra", _parse_algebra, field, doc.get("algebra"), "algebra")
    hopf = _guarded("hopf", _parse_hopf, field, doc.get("hopf"), "hopf")
    na, nh = algebra.dim, hopf.dim
    action = WeakActionData(
        field, nh, na, _tensor2(field, doc.get("action"), nh, na, na, "action")
    )
    cocycle = CocycleData(
        field, nh, na, _tensor2(field, doc.get("cocycle"), nh, nh, na, "cocycle")
    )
    bimodule = tor_modules = None
    if doc.get("bimodule") is not None:
        bimodule = _guarded("bimodule", _parse_bimodule, field, doc["bimodule"], na * nh)
    if doc.get("tor_modules") is not None:
        tor_modules = _guarded("tor_modules", _parse_tor_modules, field, doc["tor_modules"], na * nh)
    options = doc.get("options") or {}
    if not isinstance(options, dict):
        raise ParseError("options must be an object", "options")
    _integer(options.get("cap", 4), "options.cap")
    oracle = options.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ParseError(f"oracle must be true or false, got {oracle!r}", "options.oracle")
    return ProblemFile(field, algebra, hopf, action, cocycle, bimodule,
                       tor_modules, options, name=name)


def parse_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read problem file: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}")
    return parse_problem_dict(doc, name=path)


# serialization ------------------------------------------------------------------

def _vec_out(field, vec, length):
    return [field.fmt(vec.get(i, field.zero)) for i in range(length)]


def emit_problem(pf: ProblemFile) -> dict:
    field = pf.field
    na, nh = pf.algebra.dim, pf.hopf.dim
    doc = {
        "field": field.spec_string(),
        "algebra": {
            "dim": na,
            "basis_labels": list(pf.algebra.basis_labels),
            "mult": [[_vec_out(field, cell, na) for cell in row] for row in pf.algebra.mult],
        },
        "hopf": {
            "dim": nh,
            "basis_labels": list(pf.hopf.algebra.basis_labels),
            "mult": [[_vec_out(field, cell, nh) for cell in row] for row in pf.hopf.algebra.mult],
            "comult": [
                [
                    [field.fmt(row.get((j, k), field.zero)) for k in range(nh)]
                    for j in range(nh)
                ]
                for row in pf.hopf.comult
            ],
            "counit": [field.fmt(v) for v in pf.hopf.counit],
            "antipode": [_vec_out(field, row, nh) for row in pf.hopf.antipode],
        },
        "action": [[_vec_out(field, cell, na) for cell in row] for row in pf.action.act],
        "cocycle": [[_vec_out(field, cell, na) for cell in row] for row in pf.cocycle.f],
        "options": dict(pf.options),
    }
    if pf.bimodule is not None:
        m = pf.bimodule
        doc["bimodule"] = {
            "dim": m.dim,
            "left": [[_vec_out(field, cell, m.dim) for cell in row] for row in m.left],
            "right": [[_vec_out(field, cell, m.dim) for cell in row] for row in m.right],
        }
    if pf.tor_modules is not None:
        (dim_r, right), (dim_l, left) = pf.tor_modules
        doc["tor_modules"] = {
            "dim_right": dim_r,
            "right": [[_vec_out(field, cell, dim_r) for cell in row] for row in right],
            "dim_left": dim_l,
            "left": [[_vec_out(field, cell, dim_l) for cell in row] for row in left],
        }
    return doc


# the gallery ----------------------------------------------------------------------

def cyclic_group_algebra(field, n):
    labels = ["1"] + [f"t{i}" if i > 1 else "t" for i in range(1, n)]
    return group_algebra(field, list(range(n)), lambda a, b: (a + b) % n, labels=labels)


def cyclic_group_hopf(field, n):
    return group_hopf(cyclic_group_algebra(field, n), lambda i: (-i) % n)


def _builtin_trivial(field):
    a = group_algebra(field, [0], lambda x, y: 0, labels=["1"])
    h = trivial_hopf(field)
    return a, h, trivial_action(field, h, a), trivial_cocycle(field, h, a)


def _builtin_z2_trivial(field):
    a = group_algebra(field, [0], lambda x, y: 0, labels=["1"])
    h = cyclic_group_hopf(field, 2)
    return a, h, trivial_action(field, h, a), trivial_cocycle(field, h, a)


def _builtin_z4(field):
    a = cyclic_group_algebra(field, 2)
    h = cyclic_group_hopf(field, 2)
    one = field.one
    cocycle = CocycleData(field, 2, 2, [[{0: one}, {0: one}], [{0: one}, {1: one}]])
    return a, h, trivial_action(field, h, a), cocycle


def _builtin_s3(field):
    a = cyclic_group_algebra(field, 3)
    h = cyclic_group_hopf(field, 2)
    one = field.one
    act = [
        [{0: one}, {1: one}, {2: one}],
        [{0: one}, {2: one}, {1: one}],
    ]
    action = WeakActionData(field, 2, 3, act)
    return a, h, action, trivial_cocycle(field, h, a)


def _builtin_klein(field):
    a = cyclic_group_algebra(field, 2)
    h = cyclic_group_hopf(field, 2)
    return a, h, trivial_action(field, h, a), trivial_cocycle(field, h, a)


def _builtin_sweedler(field):
    a = truncated_polynomial_algebra(field, 2)
    h = sweedler_hopf(field)
    one = field.one
    act = [
        [{0: one}, {1: one}],
        [{0: one}, {1: field.neg(one)}],
        [{}, {}],
        [{}, {}],
    ]
    action = WeakActionData(field, 4, 2, act)
    return a, h, action, trivial_cocycle(field, h, a)


_GALLERY = {
    "trivial": (_builtin_trivial, "q"),
    "z2_trivial": (_builtin_z2_trivial, "fp:2"),
    "z4_as_cocycle_extension": (_builtin_z4, "q"),
    "s3_as_action_extension": (_builtin_s3, "q"),
    "klein_four": (_builtin_klein, "q"),
    "sweedler_smash": (_builtin_sweedler, "q"),
}

BUILTIN_NAMES = tuple(_GALLERY)


def _trivial_tor_modules(field, dim_e):
    one = field.one
    right = (1, [[{0: one} for _ in range(dim_e)]])
    left = (1, [[{0: one}] for _ in range(dim_e)])
    return right, left


def builtin(name: str, field: FieldSpec | None = None) -> ProblemFile:
    """A gallery problem; field overrides the default.

    Nothing is verified here: the CLI's verify reports and
    build_crossed_product(check=True) check the axioms before any use.
    """
    try:
        builder, default_field = _GALLERY[name]
    except KeyError:
        raise UnknownBuiltin(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    f = field if field is not None else FieldSpec.parse(default_field)
    a, h, action, cocycle = builder(f)
    tor_modules = None
    if name in ("z2_trivial", "z4_as_cocycle_extension", "klein_four", "s3_as_action_extension"):
        # group-algebra cases carry augmentation modules for the Tor wrapper
        tor_modules = _trivial_tor_modules(f, a.dim * h.dim)
    return ProblemFile(f, a, h, action, cocycle, tor_modules=tor_modules,
                       options={"cap": 4}, name=name)
