"""Cocycle-insertion coefficients.

The maps F^(l)_r : H^l (x) A^r -> A^(r+l-1) insert l-1 cocycle values into an
A-string while distributing iterated actions through Sweedler legs.  They are
evaluated column by column, by the recursive definition, only at the basis
tuples that the resolution and small-complex boundaries reach (and those
their recursion reaches).  A column of F^(l-1) is looked up before the rest of
a recursive term is formed, so a term whose recursive column vanishes costs
one lookup.

Every table is a functools.cache on the calculus, one per crossed product:
the calculus only depends on the action, the cocycle, and the
comultiplication.  Each iterated comultiplication Delta^(n)(h) is read from
the Hopf algebra's one table (HopfData.comult_power), and each column is
built once.

The paper's double-complex case K = k.1 is decided here, once per block:
inserts(l) is false for l >= 2 when f takes its values in k.1
(CocycleData.scalar_valued, read nowhere else).  Every term of F^(l)_r with
l >= 2 carries the acted cocycle value iter_act(h.., f(..)) as one A-leg.
When f is k.1-valued, h -> 1 = eps(h) 1 (the weak-action-unit axiom that
verify_crossed_axioms checks) keeps that leg in k.1, and every reader drops a
tensor with a unit leg (mid_rank is None).  So d^l is zero on generators above
l = 1 and the small complex has only d^0 and d^1.  The readers test
inserts(l) before they read any column of a block: the closed resolution
gives such a block zero columns, and the small complexes neither derive,
display nor compare it (reduced_complexes.py).  insertion_column stays the
full F^(l)_r whatever f is.

What certifies the vanishing: the recursive resolution reads no insertion
column and never asks inserts.  On resolution-check runs, closed = recursive
and the double_complex section (the recursive l >= 2 generator columns, all
zero when f is k.1-valued) check the decision.  For homology, cohomology,
spectral, e2-check, oracle-compare and tor, tests/test_closed_form_inputs.py
checks it on the gallery and on k[y]/(y^2) (x) (-1, -1): the recursive
columns vanish, and the complexes assembled with every l from them equal the
ones assembled here.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import product

from .crossed import CrossedProductData
from .linalg import apply_columns, vec_add_into
from .tensors import TensorSpace


def _flat_tensor(vecs, coef, dim: int, field) -> dict:
    """coef * v_1 (x) ... (x) v_k, flat over the k-th tensor power of a dim-dimensional space.

    coef must be nonzero; over a field a product of nonzeros is nonzero.
    """
    out = {0: coef}
    mul = field.mul
    for vec in vecs:
        out = {f * dim + i: mul(c, ci) for f, c in out.items() for i, ci in vec.items()}
    return out


class TwistingCalculus:
    """Per-crossed-product cache of iterated actions and insertion columns."""

    def __init__(self, cp: CrossedProductData):
        self.cp = cp
        self.field = cp.field
        self._scalar = cp.cocycle.scalar_valued
        self.iter_act = cache(self.iter_act)
        self._comult_groups = cache(self._comult_groups)
        self.target_space = cache(self.target_space)
        self.insertion_column = cache(self._insertion_column)

    # iterated weak action ------------------------------------------------
    def iter_act(self, hs: tuple, a_idx: int) -> dict:
        """a^(h_1, ..., h_k) applied right to left: h_k acts first, h_1 last."""
        if not hs:
            return {a_idx: self.field.one}
        return apply_columns(self.iter_act(hs[1:], a_idx), self.cp.action.act[hs[0]], self.field)

    def iter_act_vec(self, hs: tuple, avec: dict) -> dict:
        """avec^(h_1, ..., h_k); avec itself, read only, when hs is empty or avec is 0."""
        if not (hs and avec):
            return avec
        return apply_columns(avec, partial(self.iter_act, hs), self.field)

    def h_product(self, hs: tuple) -> dict:
        """Product h_1 ... h_k in H as a sparse vector."""
        field, mult = self.field, self.cp.h.algebra.mult
        out = {0: field.one} if not hs else {hs[0]: field.one}
        for h in hs[1:]:
            out = apply_columns(out, lambda u: mult[u][h], field)
        return out

    def _comult_groups(self, h_idx: int, n: int) -> list:
        """Delta^(n)(h) grouped by the last component:
        [(h^(n), [(h^(1) .. h^(n), coefficient), ...]), ...]; grouped once, read only."""
        groups: dict = {}
        for comps, c in self.cp.h.comult_power(h_idx, n).items():
            groups.setdefault(comps[-1], []).append((comps, c))
        return list(groups.items())

    # insertion coefficients ----------------------------------------------
    def inserts(self, l: int) -> bool:
        """Whether d^l reads insertion terms: l < 2, or f not valued in k.1.
        When false every term has a unit A-leg (see the module docstring), so
        a reader skips the whole block."""
        return l < 2 or not self._scalar

    def target_space(self, l: int, r: int) -> TensorSpace:
        """A^(r+l-1), the flat layout of a column of F^(l)_r; built once per (l, r)."""
        return TensorSpace((self.cp.a.dim,) * (r + l - 1))

    def _insertion_column(self, l: int, r: int, h_tuple: tuple, a_tuple: tuple) -> dict:
        """The column of F^(l)_r at h_tuple (x) a_tuple, flat over A^(r+l-1).

        Read through insertion_column, which builds it on first use; the
        returned dict is shared, read only.
        """
        field = self.field
        cp = self.cp
        na = cp.a.dim
        if l == 1:
            # the vector action a_1^(h^(1)) (x) ... (x) a_r^(h^(r)); r = 0 is the counit
            if r == 0:
                c = cp.h.counit[h_tuple[0]]
                return {} if field.is_zero(c) else {0: c}
            out: dict = {}
            for _, terms in self._comult_groups(h_tuple[0], r):
                for comps, coef in terms:
                    legs = [cp.action.act[comps[k]][a_tuple[k]] for k in range(r)]
                    vec_add_into(out, _flat_tensor(legs, coef, na, field), field.one, field)
            return out

        out = {}
        lm1 = l - 1
        mult = cp.h.algebra.mult
        for j in range(1, l):  # 1-based position of the merged pair
            for i in range(r + 1):
                sign = field.sign(i * lm1 + j)
                rest = a_tuple[i:]
                stride = na ** (r - i + l - 2)  # size of A^(r-i+l-2), the recursive target
                # legs 1..j+1 split into i+2 components, the others into i+1
                leg_groups = [
                    self._comult_groups(h_tuple[t], i + 2 if t <= j else i + 1) for t in range(l)
                ]
                for groups in product(*leg_groups):
                    # the recursive argument reads only the last component of each leg
                    lasts = tuple(last for last, _ in groups)
                    # F^(l-1) on the last components, legs j and j + 1 multiplied in H
                    rec = apply_columns(
                        mult[lasts[j - 1]][lasts[j]],
                        lambda hm: self.insertion_column(
                            lm1, r - i, lasts[: j - 1] + (hm,) + lasts[j + 1 :], rest),
                        field)
                    if not rec:
                        continue
                    for choice in product(*(terms for _, terms in groups)):
                        comps = [cs for cs, _ in choice]
                        # cocycle value f(c_j[i], c_{j+1}[i]) acted by legs 1..j-1
                        fv = cp.cocycle.f[comps[j - 1][i]][comps[j][i]]
                        fv = self.iter_act_vec(tuple(comps[t][i] for t in range(j - 1)), fv)
                        if not fv:
                            continue
                        coef = sign
                        for _, c in choice:
                            coef = field.mul(coef, c)
                        # acted prefix a_1..a_i, then the cocycle value, then the recursive tail
                        prefix = [
                            self.iter_act(tuple(comps[t][k] for t in range(l)), a_tuple[k])
                            for k in range(i)
                        ]
                        for pflat, c in _flat_tensor(prefix + [fv], coef, na, field).items():
                            base = pflat * stride
                            for rid, cr in rec.items():
                                k = base + rid
                                out[k] = out.get(k, 0) + c * cr
        return field.settle(out)
