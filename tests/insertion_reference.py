"""The full-basis insertion matrices F^(l)_r, as a test reference.

ReferenceInsertion builds every column of F^(l)_r : H^l (x) A^r -> A^(r+l-1)
on full (unnormalized) bases, by the recursive definition, expanding the
Sweedler legs of each term with `expand_leg` and placing entries with
`TensorSpace.index`.  hopfcross.twisting evaluates the same coefficients one
column at a time, on demand; this module shares no code with it.

Also here: the test-only image property of F (check_insertion_image, with
f_image_span) and the signed shuffle product.
"""

from itertools import combinations, combinations_with_replacement, product

from hopfcross.hopf import sweedler_legs
from hopfcross.linalg import ExactMatrix, SpanSolver, vec_add_into
from hopfcross.tensors import TensorSpace, expand_leg, keyed_add_into, tensor_vectors


class ReferenceInsertion:
    """Full-basis F^(l)_r matrices of one crossed product, memoized per (l, r)."""

    def __init__(self, cp):
        self.cp = cp
        self.field = cp.field
        self._act_cache: dict = {}
        self._insertion_cache: dict = {}

    def iter_act(self, hs: tuple, a_idx: int) -> dict:
        """a^(h_1, ..., h_k) applied right to left: h_k acts first, h_1 last."""
        if not hs:
            return {a_idx: self.field.one}
        key = (hs, a_idx)
        hit = self._act_cache.get(key)
        if hit is None:
            hit = {}
            for a, c in self.iter_act(hs[1:], a_idx).items():
                vec_add_into(hit, self.cp.action.act[hs[0]][a], c, self.field)
            self._act_cache[key] = hit
        return hit

    def iter_act_vec(self, hs: tuple, avec: dict) -> dict:
        out: dict = {}
        for a, c in avec.items():
            vec_add_into(out, self.iter_act(hs, a), c, self.field)
        return out

    def insertion_matrix(self, l: int, r: int) -> ExactMatrix:
        """F^(l)_r as a matrix from H^l (x) A^r to A^(r+l-1), full bases."""
        if l < 1 or r < 0:
            raise ValueError("need l >= 1 and r >= 0")
        key = (l, r)
        hit = self._insertion_cache.get(key)
        if hit is not None:
            return hit
        cp = self.cp
        na, nh = cp.a.dim, cp.h.dim
        src = TensorSpace((nh,) * l + (na,) * r)
        tgt = TensorSpace((na,) * (r + l - 1))
        cols = [self._insertion_column(l, r, key_multi[:l], key_multi[l:], tgt) for key_multi in src]
        mat = ExactMatrix(self.field, tgt.size, src.size, cols)
        self._insertion_cache[key] = mat
        return mat

    def _insertion_column(self, l, r, h_tuple, a_tuple, tgt) -> dict:
        field = self.field
        cp = self.cp
        if l == 1:
            # the vector action a_1^(h^(1)) (x) ... (x) a_r^(h^(r)); r = 0 is the counit
            if r == 0:
                c = cp.h.counit[h_tuple[0]]
                return {} if field.is_zero(c) else {0: c}
            out: dict = {}
            for comps, coef in sweedler_legs(cp.h, h_tuple, r).items():
                legs = [cp.action.act[comps[k]][a_tuple[k]] for k in range(r)]
                for key, c in tensor_vectors(legs, coef, field).items():
                    keyed_add_into(out, tgt.index(key), c, field)
            return out

        out = {}
        lm1 = l - 1
        rec_tgt = None
        for j in range(1, l):  # 1-based position of the merged pair
            for i in range(r + 1):
                sign_exp = i * lm1 + j
                sign = field.one if sign_exp % 2 == 0 else field.neg(field.one)
                counts = [i + 2 if t <= j + 1 else i + 1 for t in range(1, l + 1)]
                elem = {tuple(h_tuple): field.one}
                for t in range(l - 1, -1, -1):
                    elem = expand_leg(elem, t, cp.h.comult_row, counts[t], field)
                offsets = [0] * l
                for t in range(1, l):
                    offsets[t] = offsets[t - 1] + counts[t - 1]
                for comps, ecoef in elem.items():
                    coef = field.mul(sign, ecoef)

                    def comp(t, k):  # component k of original leg t (0-based)
                        return comps[offsets[t] + k]

                    # acted prefix a_1..a_i
                    prefix = [
                        self.iter_act(tuple(comp(t, k) for t in range(l)), a_tuple[k])
                        for k in range(i)
                    ]
                    # cocycle value f(c_j[i], c_{j+1}[i]) acted by legs 1..j-1
                    fv = cp.cocycle.f[comp(j - 1, i)][comp(j, i)]
                    fv = self.iter_act_vec(tuple(comp(t, i) for t in range(j - 1)), fv)
                    if not fv:
                        continue
                    # recursive argument legs
                    head = tuple(comp(t, i + 1) for t in range(j - 1))
                    merged = cp.h.algebra.mult[comp(j - 1, i + 1)][comp(j, i + 1)]
                    tail = tuple(comp(t, i) for t in range(j + 1, l))
                    rec_r = r - i
                    rec_mat = self.insertion_matrix(l - 1, rec_r)
                    rec_src = TensorSpace((cp.h.dim,) * (l - 1) + (cp.a.dim,) * rec_r)
                    rec_out: dict = {}
                    for hm, cm in merged.items():
                        idx = rec_src.index(head + (hm,) + tail + tuple(a_tuple[i:]))
                        vec_add_into(rec_out, rec_mat.cols[idx], cm, field)
                    if not rec_out:
                        continue
                    if rec_tgt is None or rec_tgt.dims != (cp.a.dim,) * (rec_r + l - 2):
                        rec_tgt = TensorSpace((cp.a.dim,) * (rec_r + l - 2))
                    # prefix legs, then the cocycle value, then the recursive tail
                    for key, c in tensor_vectors(prefix + [fv], coef, field).items():
                        for rid, cr in rec_out.items():
                            flat = tgt.index(key + rec_tgt.unrank(rid))
                            keyed_add_into(out, flat, field.mul(c, cr), field)
        return out


def on_demand_matrix(calc, l: int, r: int) -> ExactMatrix:
    """F^(l)_r on full bases, assembled from the on-demand columns of a
    hopfcross.twisting.TwistingCalculus."""
    cp = calc.cp
    src = TensorSpace((cp.h.dim,) * l + (cp.a.dim,) * r)
    cols = [dict(calc.insertion_column(l, r, key[:l], key[l:])) for key in src]
    return ExactMatrix(cp.field, cp.a.dim ** (r + l - 1), src.size, cols)


def f_image_span(cp) -> ExactMatrix:
    """Span of all cocycle values inside A."""
    cols = [dict(cell) for row in cp.cocycle.f for cell in row]
    return ExactMatrix.from_columns(cp.field, cp.a.dim, cols).column_space_basis()


def check_insertion_image(calc, l: int, r: int) -> bool:
    """Every F^(l)_r value of calc lies in the span of elementary tensors with
    l-1 coordinates in the image of the cocycle."""
    if l < 2:
        return True
    cp, field = calc.cp, calc.cp.field
    na = cp.a.dim
    nlegs = r + l - 1
    fspan = f_image_span(cp)
    full = ExactMatrix.identity(field, na)
    tgt = TensorSpace((na,) * nlegs)
    cols = []
    for positions in combinations(range(nlegs), l - 1):
        leg_cols = [(fspan if p in positions else full).cols for p in range(nlegs)]
        for vecs in product(*leg_cols):
            elem = tensor_vectors(vecs, field.one, field)
            cols.append({tgt.index(key): c for key, c in elem.items()})
    span = ExactMatrix.from_columns(field, tgt.size, cols)
    solver = SpanSolver(span.column_space_basis())
    return all(solver.coordinates(col) is not None for col in on_demand_matrix(calc, l, r).cols)


def signed_shuffle(first: tuple, second: tuple) -> dict:
    """Signed shuffle: insert the legs of `first` into the string `second`.

    Returns {interleaved tuple: +1/-1}; placing first[k] after second[i_k]
    contributes (-1)^(i_1 + ... + i_r) with 0 <= i_1 <= ... <= i_r <= len(second).
    """
    r, l = len(first), len(second)
    out: dict = {}
    for positions in combinations_with_replacement(range(l + 1), r):
        sign = -1 if sum(positions) % 2 else 1
        word = []
        prev = 0
        for k, ik in enumerate(positions):
            word.extend(second[prev:ik])
            word.append(first[k])
            prev = ik
        word.extend(second[prev:])
        key = tuple(word)
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}
