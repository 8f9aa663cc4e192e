"""Hopf algebras by structure constants: comultiplication, counit, antipode.

Comultiplication rows are keyed dicts over index pairs, which plugs straight
into the tensor leg machinery.  Each iterated comultiplication of a basis
element is expanded once per HopfData (comult_power); sweedler_legs and the
insertion coefficients read that one table.  verify_hopf checks every axiom on
every basis element; nothing downstream runs on unverified data.
"""

from __future__ import annotations

from functools import cache

from .algebras import AlgebraData, Report, verify_algebra
from .fields import FieldSpec
from .linalg import apply_columns
from .tensors import expand_leg, keyed_add_into


class HopfData:
    def __init__(self, algebra: AlgebraData, comult, counit, antipode):
        """comult[i]: dict[(j,k)] -> scalar; counit[i]: scalar; antipode[i]: dict."""
        field = algebra.field
        dim = algebra.dim
        if len(comult) != dim or len(counit) != dim or len(antipode) != dim:
            raise ValueError("comult/counit/antipode must have one row per basis element")
        self.algebra = algebra
        self.field = field
        self.dim = dim
        self.comult = [field.sparse(row) for row in comult]
        self.counit = [field.scalar(v) for v in counit]
        self.antipode = [field.sparse(row) for row in antipode]
        self.comult_power = cache(self.comult_power)

    def comult_row(self, i: int) -> dict:
        return self.comult[i]

    def comult_power(self, i: int, n: int) -> dict:
        """Delta^(n)(e_i) keyed over n-tuples (left iteration), expanded once
        per (i, n); the returned dict is shared, read only."""
        return expand_leg({(i,): self.field.one}, 0, self.comult_row, n, self.field)

    def __repr__(self):
        return f"HopfData(dim={self.dim}, field={self.field.spec_string()})"


def sweedler_expand(h: HopfData, n: int, v: dict) -> dict:
    """Iterated comultiplication of v into H^(x)n, computed by left iteration.

    v is a sparse dict over the H basis; the result is keyed over n-tuples.
    Coassociativity makes the iteration order irrelevant (asserted in tests).
    """
    if n < 1:
        raise ValueError("sweedler_expand needs n >= 1")
    return apply_columns(v, lambda i: h.comult_power(i, n), h.field)


def sweedler_legs(h: HopfData, hs: tuple, count: int) -> dict:
    """Each leg of the basis tuple hs comultiplied into `count` legs.

    Keys concatenate the components leg by leg: (h_1^(1), ..., h_1^(count),
    h_2^(1), ...).  count >= 1; an empty hs gives {(): 1}.  The product of the
    legs' comult_power tables: distinct components give distinct keys, and a
    product of nonzero scalars is nonzero, so no entry is summed or dropped.
    The result is a new dict.
    """
    mul = h.field.mul
    out = {(): h.field.one}
    for i in hs:
        power = h.comult_power(i, count)
        out = {key + comps: mul(c, cc) for key, c in out.items() for comps, cc in power.items()}
    return out


def _tensor_mult(h: HopfData, left: dict, right: dict) -> dict:
    """Componentwise product of two keyed 2-tensors over H (x) H."""
    field = h.field
    out: dict = {}
    for (a1, a2), ca in left.items():
        for (b1, b2), cb in right.items():
            coef = field.mul(ca, cb)
            for u, cu in h.algebra.mult[a1][b1].items():
                for w, cw in h.algebra.mult[a2][b2].items():
                    keyed_add_into(out, (u, w), field.mul(coef, field.mul(cu, cw)), field)
    return out


def verify_hopf(h: HopfData) -> Report:
    """Full Hopf axiom check: coassociativity, counit, bialgebra maps, antipode."""
    report = Report("hopf axioms")
    field = h.field
    alg = h.algebra

    alg_report = verify_algebra(alg)
    alg_report.title = "hopf axioms"
    report.merge(alg_report)

    dim = h.dim
    for i in range(dim):
        base = {(i,): field.one}
        left = expand_leg(dict(h.comult[i]), 0, h.comult_row, 2, field)
        right = expand_leg(dict(h.comult[i]), 1, h.comult_row, 2, field)
        report.record(left == right, "coassociativity", (i,))

        eps_id: dict = {}
        id_eps: dict = {}
        for (u, w), c in h.comult[i].items():
            keyed_add_into(eps_id, (w,), field.mul(c, h.counit[u]), field)
            keyed_add_into(id_eps, (u,), field.mul(c, h.counit[w]), field)
        report.record(eps_id == base, "counit-left", (i,))
        report.record(id_eps == base, "counit-right", (i,))

    # comult and counit are algebra maps; unit is group-like
    report.record(
        h.comult[0] == {(0, 0): field.one}, "comult-unit", (0,), "comult(1) != 1(x)1"
    )
    report.record(h.counit[0] == field.one, "counit-unit", (0,))
    for i in range(dim):
        for j in range(dim):
            prod: dict = {}
            for k, c in alg.mult[i][j].items():
                for key, v in h.comult[k].items():
                    keyed_add_into(prod, key, field.mul(c, v), field)
            report.record(
                prod == _tensor_mult(h, h.comult[i], h.comult[j]),
                "comult-multiplicative",
                (i, j),
            )
            lhs = field.zero
            for k, c in alg.mult[i][j].items():
                lhs = field.add(lhs, field.mul(c, h.counit[k]))
            report.record(
                lhs == field.mul(h.counit[i], h.counit[j]),
                "counit-multiplicative",
                (i, j),
            )

    # antipode axiom: m(S(x)id)comult = unit*counit = m(id(x)S)comult
    for i in range(dim):
        target = {0: h.counit[i]} if not field.is_zero(h.counit[i]) else {}
        left_out: dict = {}
        right_out: dict = {}
        for (u, w), c in h.comult[i].items():
            for su, cs in h.antipode[u].items():
                for k, cm in alg.mult[su][w].items():
                    keyed_add_into(left_out, k, field.mul(c, field.mul(cs, cm)), field)
            for sw, cs in h.antipode[w].items():
                for k, cm in alg.mult[u][sw].items():
                    keyed_add_into(right_out, k, field.mul(c, field.mul(cs, cm)), field)
        report.record(left_out == target, "antipode-left", (i,))
        report.record(right_out == target, "antipode-right", (i,))
    return report


def group_hopf(algebra: AlgebraData, inverse_index) -> HopfData:
    """Group-algebra Hopf structure: comult(g) = g(x)g, counit 1, antipode g^-1.

    inverse_index(i) gives the basis index of the inverse element.
    """
    field = algebra.field
    comult = [{(i, i): field.one} for i in range(algebra.dim)]
    counit = [field.one] * algebra.dim
    antipode = [{inverse_index(i): field.one} for i in range(algebra.dim)]
    return HopfData(algebra, comult, counit, antipode)


def trivial_hopf(field: FieldSpec) -> HopfData:
    """The one-dimensional Hopf algebra k."""
    alg = AlgebraData(field, 1, ["1"], [[{0: field.one}]])
    return HopfData(alg, [{(0, 0): field.one}], [field.one], [{0: field.one}])


def sweedler_hopf(field: FieldSpec) -> HopfData:
    """The 4-dimensional Hopf algebra with basis 1, g, x, gx.

    Relations g^2 = 1, x^2 = 0, xg = -gx; comult(g) = g(x)g,
    comult(x) = x(x)1 + g(x)x; S(g) = g, S(x) = -gx.  Needs char != 2 to be
    interesting, but the data is valid over any field.
    """
    one = field.one
    neg1 = field.neg(one)
    I, G, X, GX = 0, 1, 2, 3
    # multiplication table rows e_i * e_j
    table = {
        (I, I): {I: one}, (I, G): {G: one}, (I, X): {X: one}, (I, GX): {GX: one},
        (G, I): {G: one}, (G, G): {I: one}, (G, X): {GX: one}, (G, GX): {X: one},
        (X, I): {X: one}, (X, G): {GX: neg1}, (X, X): {}, (X, GX): {},
        (GX, I): {GX: one}, (GX, G): {X: neg1}, (GX, X): {}, (GX, GX): {},
    }
    mult = [[table[(i, j)] for j in range(4)] for i in range(4)]
    alg = AlgebraData(field, 4, ["1", "g", "x", "gx"], mult)
    comult = [
        {(I, I): one},
        {(G, G): one},
        {(X, I): one, (G, X): one},
        {(GX, G): one, (I, GX): one},
    ]
    counit = [one, one, field.zero, field.zero]
    antipode = [{I: one}, {G: one}, {GX: neg1}, {X: one}]
    return HopfData(alg, comult, counit, antipode)
