"""Finite-dimensional algebras by structure constants, with axiom verification.

Convention used by the whole package: basis index 0 is the unit element.
The normalized space B/k then has the canonical basis e_1, ..., e_{dim-1}
(classes of the non-unit basis vectors), which keeps every normalized complex
bit-reproducible.
"""

from __future__ import annotations

from .fields import FieldSpec
from .linalg import vec_add_into


class Failure:
    def __init__(self, check: str, witness: tuple, detail: str = ""):
        self.check = check
        self.witness = witness
        self.detail = detail

    def __repr__(self):
        return f"Failure({self.check!r}, {self.witness!r}, {self.detail!r})"

    def as_dict(self):
        return {"check": self.check, "witness": list(self.witness), "detail": self.detail}


class Report:
    """Outcome of an axiom verification: empty failure list means pass."""

    def __init__(self, title: str, failures: list | None = None, checks_run: int = 0):
        self.title = title
        self.failures = [] if failures is None else failures
        self.checks_run = checks_run

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, check: str, witness: tuple, detail: str = "") -> None:
        self.checks_run += 1
        if not ok:
            self.failures.append(Failure(check, witness, detail))

    def merge(self, other: "Report") -> None:
        self.checks_run += other.checks_run
        self.failures.extend(other.failures)

    def as_dict(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "checks_run": self.checks_run,
            "failures": [f.as_dict() for f in self.failures],
        }

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.title}: {status} [{self.checks_run} checks]"


class AlgebraData:
    """Unital associative algebra on an explicit basis.

    mult[i][j] is the sparse coefficient vector of e_i * e_j.  The unit must
    sit at basis index 0; verify_algebra checks that it really is a two-sided
    unit and that the table is associative.
    """

    def __init__(self, field: FieldSpec, dim: int, basis_labels: list[str], mult):
        if dim < 1:
            raise ValueError("algebra must contain the unit")
        if len(basis_labels) != dim:
            raise ValueError("basis label count != dim")
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise ValueError("mult tensor must be dim x dim")
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.mult = [[field.sparse(cell) for cell in row] for row in mult]
        self.unit_index = 0

    # element helpers ------------------------------------------------------
    def mult_elems(self, u: dict, v: dict) -> dict:
        field = self.field
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                vec_add_into(out, self.mult[i][j], field.mul(a, b), field)
        return out

    def label_of(self, vec: dict) -> str:
        if not vec:
            return "0"
        parts = []
        for i in sorted(vec):
            parts.append(f"({vec[i]})*{self.basis_labels[i]}")
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgebraData(dim={self.dim}, field={self.field.spec_string()})"


def verify_algebra(a: AlgebraData) -> Report:
    """Check associativity on all basis triples and both unit laws."""
    report = Report("algebra axioms")
    field = a.field
    for i in range(a.dim):
        lhs = a.mult[0][i]
        rhs = a.mult[i][0]
        ei = {i: field.one}
        report.record(lhs == ei, "left-unit", (i,), f"1*e_{i} != e_{i}")
        report.record(rhs == ei, "right-unit", (i,), f"e_{i}*1 != e_{i}")
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.mult[i][j]
            for k in range(a.dim):
                left = a.mult_elems(ij, {k: field.one})
                right = a.mult_elems({i: field.one}, a.mult[j][k])
                report.record(
                    left == right,
                    "associativity",
                    (i, j, k),
                    f"(e_{i}e_{j})e_{k} != e_{i}(e_{j}e_{k})",
                )
    return report


def group_algebra(field: FieldSpec, elements, compose, labels=None) -> AlgebraData:
    """Group algebra k[G] from a list of elements and a composition law.

    elements[0] must be the identity.  compose(g, h) returns the product
    element; equality is whatever the element objects define.
    """
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    if len(index) != n:
        raise ValueError("duplicate group elements")
    for g in elements:
        if compose(elements[0], g) != g or compose(g, elements[0]) != g:
            raise ValueError("elements[0] is not the identity")
    mult = [
        [{index[compose(g, h)]: field.one} for h in elements]
        for g in elements
    ]
    if labels is None:
        labels = [str(g) for g in elements]
    return AlgebraData(field, n, labels, mult)


def truncated_polynomial_algebra(field: FieldSpec, degree: int, varname: str = "y") -> AlgebraData:
    """k[y]/(y^degree) with basis 1, y, ..., y^(degree-1)."""
    mult = []
    for i in range(degree):
        row = []
        for j in range(degree):
            row.append({i + j: field.one} if i + j < degree else {})
        mult.append(row)
    labels = ["1"] + [f"{varname}^{i}" if i > 1 else varname for i in range(1, degree)]
    return AlgebraData(field, degree, labels, mult)
