"""Weak actions, cocycles, crossed products E = A #_f H, convolution inverses.

build_crossed_product (with check=True, the default) verifies every piece
before it is used: A as an algebra, H as a Hopf algebra, then the crossed
axioms, which are exactly the conditions making the twisted multiplication
associative with unit 1#1; it re-verifies the assembled table as well.
The E basis is a_i # h_j at flat index i*dim(H) + j, which keeps the unit at
index 0.
"""

from __future__ import annotations

from functools import cache, cached_property, partial

from .algebras import AlgebraData, Report, verify_algebra
from .fields import FieldSpec
from .hopf import HopfData, sweedler_expand, verify_hopf
from .linalg import ExactMatrix, apply_columns, vec_add_into
from .tensors import TensorSpace, keyed_add_into


class AxiomViolation(Exception):
    def __init__(self, report: Report):
        super().__init__(report.summary())
        self.report = report


class NotInvertibleError(Exception):
    """The cocycle has no convolution inverse (a normal outcome for sections 1-2 uses)."""


class WeakActionData:
    """act[h][a] is the sparse A-vector a^h for basis elements."""

    def __init__(self, field: FieldSpec, dim_h: int, dim_a: int, act):
        if len(act) != dim_h or any(len(row) != dim_a for row in act):
            raise ValueError("action tensor must be dim_h x dim_a")
        self.field = field
        self.dim_h = dim_h
        self.dim_a = dim_a
        self.act = [[field.sparse(cell) for cell in row] for row in act]


class CocycleData:
    """f[h][l] is the sparse A-vector f(h, l) for basis elements.

    scalar_valued: every value lies in k.1 (A's unit has index 0), the case
    in which the insertion terms above l = 1 vanish (twisting.py)."""

    def __init__(self, field: FieldSpec, dim_h: int, dim_a: int, f):
        if len(f) != dim_h or any(len(row) != dim_h for row in f):
            raise ValueError("cocycle tensor must be dim_h x dim_h")
        self.field = field
        self.dim_h = dim_h
        self.dim_a = dim_a
        self.f = [[field.sparse(cell) for cell in row] for row in f]
        self.scalar_valued = all(cell.keys() <= {0} for row in self.f for cell in row)


def trivial_action(field: FieldSpec, h: HopfData, a: AlgebraData) -> WeakActionData:
    act = [
        [{j: h.counit[i]} if not field.is_zero(h.counit[i]) else {} for j in range(a.dim)]
        for i in range(h.dim)
    ]
    return WeakActionData(field, h.dim, a.dim, act)


def trivial_cocycle(field: FieldSpec, h: HopfData, a: AlgebraData) -> CocycleData:
    f = []
    for i in range(h.dim):
        row = []
        for j in range(h.dim):
            c = field.mul(h.counit[i], h.counit[j])
            row.append({0: c} if not field.is_zero(c) else {})
        f.append(row)
    return CocycleData(field, h.dim, a.dim, f)


def _act_elem(action: WeakActionData, a_field: FieldSpec, hvec: dict, avec: dict) -> dict:
    """Bilinear extension of the action to sparse elements: (h, a) -> a^h."""
    out: dict = {}
    for hi, hc in hvec.items():
        for ai, ac in avec.items():
            vec_add_into(out, action.act[hi][ai], a_field.mul(hc, ac), a_field)
    return out


def verify_crossed_axioms(
    a: AlgebraData, h: HopfData, action: WeakActionData, cocycle: CocycleData
) -> Report:
    """Weak-action axioms, normality, cocycle and twisted-module conditions.

    Multilinearity makes basis tuples sufficient; every failure carries the
    witnessing tuple of basis indices.
    """
    field = a.field
    report = Report("crossed-product axioms")
    mul = field.mul

    # weak action 1): (ab)^h = a^(h1) b^(h2)
    for hi in range(h.dim):
        dh = h.comult[hi]
        for ai in range(a.dim):
            for bi in range(a.dim):
                lhs = _act_elem(action, field, {hi: field.one}, a.mult[ai][bi])
                rhs: dict = {}
                for (h1, h2), c in dh.items():
                    part = a.mult_elems(action.act[h1][ai], action.act[h2][bi])
                    vec_add_into(rhs, part, c, field)
                report.record(lhs == rhs, "weak-action-multiplicative", (hi, ai, bi))

    # weak action 2): 1^h = counit(h) 1
    for hi in range(h.dim):
        expect = {0: h.counit[hi]} if not field.is_zero(h.counit[hi]) else {}
        report.record(action.act[hi][0] == expect, "weak-action-unit", (hi,))

    # weak action 3): a^1 = a
    for ai in range(a.dim):
        report.record(action.act[0][ai] == {ai: field.one}, "weak-action-normal", (ai,))

    # i) normality of f
    for hi in range(h.dim):
        expect = {0: h.counit[hi]} if not field.is_zero(h.counit[hi]) else {}
        report.record(cocycle.f[hi][0] == expect, "cocycle-normality-right", (hi,))
        report.record(cocycle.f[0][hi] == expect, "cocycle-normality-left", (hi,))

    # ii) cocycle condition on all basis triples
    for hi in range(h.dim):
        dh = h.comult[hi]
        for li in range(h.dim):
            dl = h.comult[li]
            for mi in range(h.dim):
                dm = h.comult[mi]
                lhs: dict = {}
                for (l1, l2), cl in dl.items():
                    for (m1, m2), cm in dm.items():
                        for (h1, h2), ch in dh.items():
                            coef = mul(cl, mul(cm, ch))
                            acted = _act_elem(
                                action, field, {h1: field.one}, cocycle.f[l1][m1]
                            )
                            second = apply_columns(h.algebra.mult[l2][m2], cocycle.f[h2], field)
                            vec_add_into(lhs, a.mult_elems(acted, second), coef, field)
                rhs: dict = {}
                for (h1, h2), ch in dh.items():
                    for (l1, l2), cl in dl.items():
                        coef = mul(ch, cl)
                        second = apply_columns(h.algebra.mult[h2][l2],
                                               lambda k: cocycle.f[k][mi], field)
                        vec_add_into(rhs, a.mult_elems(cocycle.f[h1][l1], second), coef, field)
                report.record(lhs == rhs, "cocycle-condition", (hi, li, mi))

    # iii) twisted module condition
    for hi in range(h.dim):
        dh = h.comult[hi]
        for li in range(h.dim):
            dl = h.comult[li]
            for ai in range(a.dim):
                lhs: dict = {}
                for (h1, h2), ch in dh.items():
                    for (l1, l2), cl in dl.items():
                        coef = mul(ch, cl)
                        inner = action.act[l1][ai]
                        outer = _act_elem(action, field, {h1: field.one}, inner)
                        vec_add_into(lhs, a.mult_elems(outer, cocycle.f[h2][l2]), coef, field)
                rhs: dict = {}
                for (h1, h2), ch in dh.items():
                    for (l1, l2), cl in dl.items():
                        coef = mul(ch, cl)
                        acted = apply_columns(h.algebra.mult[h2][l2],
                                              lambda k: action.act[k][ai], field)
                        vec_add_into(rhs, a.mult_elems(cocycle.f[h1][l1], acted), coef, field)
                report.record(lhs == rhs, "twisted-module-condition", (hi, li, ai))
    return report


class CrossedProductData:
    """The assembled crossed product with its ingredients.

    conv_inverse, the convolution inverse of the cocycle or None when it has
    none, is solved on first read; parts of the package that need it raise
    NotInvertibleError when it is None.
    """

    def __init__(self, a, h, action, cocycle, e):
        self.a = a
        self.h = h
        self.action = action
        self.cocycle = cocycle
        self.e = e
        self.field = a.field
        self._e_space = TensorSpace((a.dim, h.dim))

    # E-index helpers ------------------------------------------------------
    def e_index(self, a_idx: int, h_idx: int) -> int:
        return self._e_space.index((a_idx, h_idx))

    def e_unrank(self, e_idx: int) -> tuple[int, int]:
        return self._e_space.unrank(e_idx)

    def include_a(self, a_idx: int) -> int:
        return self.e_index(a_idx, 0)

    def include_h(self, h_idx: int) -> int:
        return self.e_index(0, h_idx)

    @cached_property
    def conv_inverse(self):
        """convolution_inverse(self), kept; a failed certificate keeps nothing."""
        return convolution_inverse(self)

    def require_inverse(self):
        if self.conv_inverse is None:
            raise NotInvertibleError("cocycle has no convolution inverse")
        return self.conv_inverse


def _crossed_mult_table(a, h, action, cocycle):
    """E multiplication on basis pairs per the twisted product formula."""
    field = a.field
    e_space = TensorSpace((a.dim, h.dim))
    dim_e = a.dim * h.dim
    table = [[None] * dim_e for _ in range(dim_e)]
    # precompute triple comultiplications
    triple = [sweedler_expand(h, 3, {i: field.one}) for i in range(h.dim)]
    for ia in range(a.dim):
        for ih in range(h.dim):
            for ja in range(a.dim):
                for jh in range(h.dim):
                    out: dict = {}
                    for (h1, h2, h3), ch in triple[ih].items():
                        for (l1, l2), cl in h.comult[jh].items():
                            coef = field.mul(ch, cl)
                            acted = action.act[h1][ja]
                            part = a.mult_elems({ia: field.one}, acted)
                            part = a.mult_elems(part, cocycle.f[h2][l1])
                            for k3, c3 in h.algebra.mult[h3][l2].items():
                                c = field.mul(coef, c3)
                                for pa, cp in part.items():
                                    keyed_add_into(out, e_space.index((pa, k3)), field.mul(c, cp), field)
                    table[e_space.index((ia, ih))][e_space.index((ja, jh))] = out
    return table


def build_crossed_product(
    a: AlgebraData,
    h: HopfData,
    action: WeakActionData,
    cocycle: CocycleData,
    check: bool = True,
) -> CrossedProductData:
    """Assemble E = A #_f H; raises AxiomViolation with the first failed
    report: A's algebra axioms, H's Hopf axioms, the crossed axioms, E's table."""
    if check:
        for report in (verify_algebra(a), verify_hopf(h)):
            if not report.passed:
                raise AxiomViolation(report)
        report = verify_crossed_axioms(a, h, action, cocycle)
        if not report.passed:
            raise AxiomViolation(report)
    table = _crossed_mult_table(a, h, action, cocycle)
    labels = [
        f"{la}#{lh}" for la in a.basis_labels for lh in h.algebra.basis_labels
    ]
    e = AlgebraData(a.field, a.dim * h.dim, labels, table)
    if check:
        e_report = verify_algebra(e)
        if not e_report.passed:
            raise AxiomViolation(e_report)
    return CrossedProductData(a, h, action, cocycle, e)


# convolution algebra ------------------------------------------------------

def _convolution_product(cp: CrossedProductData, u, v):
    """(u * v)(h, l) = u(h1, l1) v(h2, l2) for tensors H x H -> A."""
    a, h = cp.a, cp.h
    field = cp.field
    out = [[{} for _ in range(h.dim)] for _ in range(h.dim)]
    for hi in range(h.dim):
        for li in range(h.dim):
            cell: dict = {}
            for (h1, h2), ch in h.comult[hi].items():
                for (l1, l2), cl in h.comult[li].items():
                    vec_add_into(
                        cell,
                        a.mult_elems(u[h1][l1], v[h2][l2]),
                        field.mul(ch, cl),
                        field,
                    )
            out[hi][li] = cell
    return out


def convolution_inverse(cp: CrossedProductData):
    """Two-sided convolution inverse of the cocycle, or None.

    One exact solve of f * u = e in Hom(H (x) H, A), on the matrix of
    u -> f * u written in one pass over the coproduct pairs: column
    (h2, l2, a) gets c_h c_l f(h1, l1) e_a at rows (h, l, .).  A right inverse
    in this finite-dimensional algebra is two-sided, and both f * u = e and
    u * f = e are certified by _convolution_product, which shares no code
    with the solve; AssertionError names a side that fails and stores
    nothing.  The result, None included, is stored on cp and returned.
    """
    a, h, f = cp.a, cp.h, cp.cocycle.f
    field = cp.field
    n = h.dim * h.dim * a.dim
    space = TensorSpace((h.dim, h.dim, a.dim))
    unit = trivial_cocycle(field, h, a).f
    rhs = {space.index((hi, li, ai)): c
           for hi in range(h.dim) for li in range(h.dim) for ai, c in unit[hi][li].items()}
    cols: list[dict] = [{} for _ in range(n)]
    for hi in range(h.dim):
        for (h1, h2), ch in h.comult[hi].items():
            for li in range(h.dim):
                for (l1, l2), cl in h.comult[li].items():
                    for ai in range(a.dim):
                        col = cols[space.index((h2, l2, ai))]
                        for bi, v in a.mult_elems(f[h1][l1], {ai: field.one}).items():
                            k = space.index((hi, li, bi))
                            col[k] = col.get(k, 0) + ch * cl * v
    x = ExactMatrix(field, n, n, [field.settle(col) for col in cols]).solve(rhs)
    finv = None
    if x is not None:
        finv = [[{} for _ in range(h.dim)] for _ in range(h.dim)]
        for idx, c in enumerate(x):
            if not field.is_zero(c):
                hi, li, ai = space.unrank(idx)
                finv[hi][li][ai] = c
        for side, u, v in (("f * u", f, finv), ("u * f", finv, f)):
            if _convolution_product(cp, u, v) != unit:
                raise AssertionError(f"{side} != e for the solved convolution inverse u")
    cp.conv_inverse = finv
    return finv


def unit_section_inverse_map(cp: CrossedProductData):
    """The linear map h -> (1#h)^{-1} as a list of E-vectors per H-basis index.

    Formula: (1#h)^{-1} = f^{-1}(S(h^(2)), h^(3)) # S(h^(1)).
    """
    finv = cp.require_inverse()
    h = cp.h
    field = cp.field
    out = []
    for hi in range(h.dim):
        vec: dict = {}
        triple = sweedler_expand(h, 3, {hi: field.one})
        for (h1, h2, h3), c in triple.items():
            for s2, c2 in h.antipode[h2].items():
                for ai, ca in finv[s2][h3].items():
                    coef = field.mul(c, field.mul(c2, ca))
                    for s1, c1 in h.antipode[h1].items():
                        keyed_add_into(vec, cp.e_index(ai, s1), field.mul(coef, c1), field)
        out.append(vec)
    return out


# bimodules ----------------------------------------------------------------

class BimoduleData:
    """An E-bimodule on an explicit basis.

    left[e][m] and right[m][e] are sparse M-vectors; verify() checks unitality,
    both associativities, and that the actions commute, on all basis tuples.
    sandwich(x, y) tabulates x . e_mi . y over the basis of M, per pair of E
    basis indices, filled on first use.
    """

    def __init__(self, field: FieldSpec, dim: int, dim_e: int, left, right):
        if len(left) != dim_e or any(len(row) != dim for row in left):
            raise ValueError("left action tensor must be dim_e x dim")
        if len(right) != dim or any(len(row) != dim_e for row in right):
            raise ValueError("right action tensor must be dim x dim_e")
        self.field = field
        self.dim = dim
        self.dim_e = dim_e
        self.left = [[field.sparse(cell) for cell in row] for row in left]
        self.right = [[field.sparse(cell) for cell in row] for row in right]
        self.sandwich = cache(self.sandwich)

    def sandwich(self, x: int, y: int) -> list[dict]:
        """[x . e_mi . y for every basis index mi of M], for E basis indices x
        and y; built once per pair, shared, read only."""
        one = self.field.one
        return [self.left_act(x, self.right_act({mi: one}, y)) for mi in range(self.dim)]

    def left_act(self, e_idx: int, mvec: dict) -> dict:
        return apply_columns(mvec, self.left[e_idx], self.field)

    def right_act(self, mvec: dict, e_idx: int) -> dict:
        return apply_columns(mvec, lambda mi: self.right[mi][e_idx], self.field)

    def left_elem(self, evec: dict, mvec: dict) -> dict:
        return apply_columns(evec, lambda ei: self.left_act(ei, mvec), self.field)

    def right_elem(self, mvec: dict, evec: dict) -> dict:
        return apply_columns(evec, partial(self.right_act, mvec), self.field)

    def verify(self, e: AlgebraData) -> Report:
        report = Report("bimodule axioms")
        field = self.field
        for mi in range(self.dim):
            mvec = {mi: field.one}
            report.record(self.left[0][mi] == mvec, "left-unital", (mi,))
            report.record(self.right[mi][0] == mvec, "right-unital", (mi,))
        for ei in range(e.dim):
            for ej in range(e.dim):
                prod = e.mult[ei][ej]
                for mi in range(self.dim):
                    mvec = {mi: field.one}
                    lhs = self.left_act(ei, self.left_act(ej, mvec))
                    rhs = self.left_elem(prod, mvec)
                    report.record(lhs == rhs, "left-associative", (ei, ej, mi))
                    lhs = self.right_act(self.right_act(mvec, ei), ej)
                    rhs = self.right_elem(mvec, prod)
                    report.record(lhs == rhs, "right-associative", (mi, ei, ej))
        for ei in range(e.dim):
            for ej in range(e.dim):
                for mi in range(self.dim):
                    mvec = {mi: field.one}
                    lhs = self.right_act(self.left_act(ei, mvec), ej)
                    rhs = self.left_act(ei, self.right_act(mvec, ej))
                    report.record(lhs == rhs, "actions-commute", (ei, mi, ej))
        return report


def regular_bimodule(e: AlgebraData) -> BimoduleData:
    """M = E with both actions given by multiplication."""
    left = [[e.mult[i][j] for j in range(e.dim)] for i in range(e.dim)]
    right = [[e.mult[i][j] for j in range(e.dim)] for i in range(e.dim)]
    return BimoduleData(e.field, e.dim, e.dim, left, right)


def dual_bimodule(m: BimoduleData) -> BimoduleData:
    """M^v = Hom_k(M, k) on the dual basis, with (a . phi . b)(x) = phi(b . x . a).

    Coefficients M^v turn chains into cochains: Hom_{E^e}(X, M) is the dual of
    M^v (x)_{E^e} X for finite-dimensional M.
    """
    left = [[{} for _ in range(m.dim)] for _ in range(m.dim_e)]
    right = [[{} for _ in range(m.dim_e)] for _ in range(m.dim)]
    for e in range(m.dim_e):
        for j in range(m.dim):
            for i, c in m.right[j][e].items():
                left[e][i][j] = c
            for i, c in m.left[e][j].items():
                right[i][e][j] = c
    return BimoduleData(m.field, m.dim, m.dim_e, left, right)


def restrict_bimodule_to_a(cp: CrossedProductData, m: BimoduleData) -> BimoduleData:
    """The same underlying space as an A-bimodule through a -> a#1."""
    a = cp.a
    left = [[m.left[cp.include_a(i)][mi] for mi in range(m.dim)] for i in range(a.dim)]
    right = [[m.right[mi][cp.include_a(i)] for i in range(a.dim)] for mi in range(m.dim)]
    return BimoduleData(m.field, m.dim, a.dim, left, right)


def tensor_bimodule(e: AlgebraData, left_module, right_module) -> BimoduleData:
    """N (x) M as an E-bimodule: a(n (x) m)b = an (x) mb.

    left_module: (dim_n, act) with act[e][n] -> N-vector (a left E-module);
    right_module: (dim_m, act) with act[m][e] -> M-vector (a right E-module).
    """
    field = e.field
    dim_n, left_act = left_module
    dim_m, right_act = right_module
    space = TensorSpace((dim_n, dim_m))
    left = []
    for ei in range(e.dim):
        row = []
        for ni in range(dim_n):
            for mi in range(dim_m):
                row.append(
                    {space.index((nj, mi)): c for nj, c in left_act[ei][ni].items()}
                )
        left.append(row)
    right = []
    for ni in range(dim_n):
        for mi in range(dim_m):
            row = []
            for ei in range(e.dim):
                row.append(
                    {space.index((ni, mj)): c for mj, c in right_act[mi][ei].items()}
                )
            right.append(row)
    return BimoduleData(field, dim_n * dim_m, e.dim, left, right)
