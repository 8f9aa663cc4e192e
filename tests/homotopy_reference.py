"""The contracting homotopy of the small resolution as full-basis matrices.

The resolution's contracting_homotopy is a table on left generators, built
by one vector recursion.  This reference forms the same sigma on every column
as ExactMatrix products: sigma^l = -sigma^0_x (sum over i < l of
d^{l-i} sigma^i), separately from blocks and from row targets, assembled per
degree with the route through mu'_n and sigma^{-1}.  A row target
E (x) Hbar^s (x) H is the sub-bimodule E (x) Hbar^s (x) (1 # H) of block
(0, s), the indices whose right slot h < dim H; every map on row targets is a
matrix on all of block (0, s) that vanishes off them, so sigma^0 on rows is
the projection onto them.  The reference has its own column rules for
sigma^0_x, sigma^{-1} and mu_tilde, reads the resolution only through its
spaces, blocks and the mu and partial column rules, and imports nothing
from hopfcross.resolution.
"""

from __future__ import annotations

from hopfcross.linalg import ExactMatrix
from hopfcross.tensors import keyed_add_into
from conftest import make_matrix, mat_add, mat_neg, mu_matrix


def _on_row_targets(res, column):
    """A column rule on a block (0, s) restricted to its row targets: {} off them."""
    nh = res.cp.h.dim
    return lambda j: column(j) if j % res.cp.e.dim < nh else {}


def row_projection(res, s: int) -> ExactMatrix:
    """The projection of block (0, s) onto its row targets."""
    dim = res.block_spaces[(0, s)].dim
    return make_matrix(res.field, dim, dim, _on_row_targets(res, lambda j: {j: res.field.one}))


def partial(res) -> dict:
    """partial_s : row targets of block (0, s) -> those of block (0, s - 1),
    for 1 <= s <= cap."""
    return {
        s: make_matrix(res.field, res.block_spaces[(0, s - 1)].dim, res.block_spaces[(0, s)].dim,
                       _on_row_targets(res, lambda j, s=s: res._partial_column(s, j)))
        for s in range(1, res.cap + 1)
    }


def mu_tilde(res) -> ExactMatrix:
    """mu_tilde : row targets of block (0, 0) -> E, a # h_0 (x) 1 # h_1 to
    -a f(h_0^(1), h_1^(1)) # h_0^(2) h_1^(2)."""
    cp, field = res.cp, res.field
    x00 = res.block_spaces[(0, 0)]

    def column(j):
        e_left, _, h1 = x00.split(j)
        a, h0 = cp.e_unrank(e_left)
        out: dict = {}
        for (c00, c01), c0 in cp.h.comult[h0].items():
            for (c10, c11), c1 in cp.h.comult[h1].items():
                fv = cp.a.mult_elems({a: field.one}, cp.cocycle.f[c00][c10])
                for a2, c2 in fv.items():
                    for hm, cm in cp.h.algebra.mult[c01][c11].items():
                        coef = field.mul(field.mul(c0, c1), field.mul(c2, cm))
                        keyed_add_into(out, cp.e_index(a2, hm), field.neg(coef), field)
        return out

    return make_matrix(field, cp.e.dim, x00.dim, _on_row_targets(res, column))


def sigma0_x(res) -> dict:
    """sigma^0 on blocks, (r, s) -> (r + 1, s): the A part of e_right becomes a
    new last Abar leg with sign -(-1)^r, and e_right becomes 1 # h."""
    field, nh = res.field, res.cp.h.dim
    out = {}
    for (r, s), src in res.block_spaces.items():
        tgt = res.block_spaces.get((r + 1, s))
        if tgt is None:
            continue
        sign = field.one if r % 2 else field.neg(field.one)
        cols = []
        for flat in range(src.dim):
            e_left, mid, e_right = src.split(flat)
            a, h = divmod(e_right, nh)
            if a == 0:
                cols.append({})
                continue
            new_mid = tgt.mid_rank(src.mid_key(mid) + (a,))
            cols.append({tgt.combine(e_left, new_mid, h): sign})
        out[(r, s)] = ExactMatrix(field, tgt.dim, src.dim, cols)
    return out


def sigma_minus1(res) -> dict:
    """sigma^{-1}: E into the row targets of block (0, 0) (key -1), then the
    row targets of each block (0, s) into those of block (0, s + 1): the right
    slot 1 # h becomes a new last Hbar leg, and a unit h dies."""
    field = res.field
    out = {-1: make_matrix(field, res.block_spaces[(0, 0)].dim, res.cp.e.dim,
                           lambda e: {res.block_spaces[(0, 0)].combine(e, 0, 0): field.neg(field.one)})}
    for s in range(res.cap):
        src, tgt = res.block_spaces[(0, s)], res.block_spaces[(0, s + 1)]
        sign = field.one if s % 2 == 0 else field.neg(field.one)

        def column(j, src=src, tgt=tgt, sign=sign):
            e_left, mid, h = src.split(j)
            if not h:
                return {}
            return {tgt.combine(e_left, tgt.mid_rank(src.mid_key(mid) + (h,)), 0): sign}

        out[s] = make_matrix(field, tgt.dim, src.dim, _on_row_targets(res, column))
    return out


def mu_prime(res, n: int) -> ExactMatrix:
    """Degree n into the row targets of block (0, n): mu_n on the (0, n)
    block, zero elsewhere."""
    cols: list[dict] = []
    for r, s, off, space in res.degree_blocks(n):
        if r == 0:
            cols.extend(dict(c) for c in mu_matrix(res, s).cols)
        else:
            cols.extend({} for _ in range(space.dim))
    return ExactMatrix(res.field, res.block_spaces[(0, n)].dim, res.dims[n], cols)


def sigma_l(res) -> dict:
    """All sigma^l maps: keyed by (l, 'x', r, s) on blocks and (l, 'y', s) on row targets."""
    sx = sigma0_x(res)
    sig: dict = {(0, "x", r, s): m for (r, s), m in sx.items()}
    sig.update({(0, "y", s): row_projection(res, s) for s in range(res.cap + 1)})
    for l in range(1, res.cap + 1):
        # source is a row target (the r = -1 case)
        for s in range(l, res.cap + 1):
            terms = [sx[(l - 1, s - l)] @ (res.blocks[(l - i, i, s - i)] @ sig[(i, "y", s)])
                     for i in range(l)]
            acc = terms[0]
            for term in terms[1:]:
                acc = mat_add(acc, term)
            sig[(l, "y", s)] = mat_neg(acc)
        # source is a block
        for (r, s) in res.block_spaces:
            if l > s or (r + l + 1, s - l) not in res.block_spaces:
                continue
            terms = [sx[(r + l, s - l)] @ (res.blocks[(l - i, r + i + 1, s - i)] @ sig[(i, "x", r, s)])
                     for i in range(l)]
            acc = terms[0]
            for term in terms[1:]:
                acc = mat_add(acc, term)
            sig[(l, "x", r, s)] = mat_neg(acc)
    return sig


def contracting_homotopy(res) -> dict:
    """The assembled degree +1 contraction as matrices: sigma[0] from E, and
    sigma[n + 1] from degree n for n < cap."""
    field = res.field
    sig = sigma_l(res)
    sm1 = sigma_minus1(res)
    out = {0: sig[(0, "y", 0)] @ sm1[-1]}
    for n in range(res.cap):
        tgt_offset = {(r, s): off for r, s, off, _ in res.degree_blocks(n + 1)}
        cols: list[dict] = [{} for _ in range(res.dims[n])]

        def place(mat, tgt_rs, src_off):
            # blocks may land on the same target entries, so entries add
            toff = tgt_offset[tgt_rs]
            for j, col in enumerate(mat.cols):
                for i, v in col.items():
                    keyed_add_into(cols[src_off + j], i + toff, v, field)

        # -(sum over l) sigma^l_{l, n-l+1} o sigma^{-1}_{n+1} o mu'_n
        route = sm1[n] @ mu_prime(res, n)
        for l in range(n + 2):
            place(mat_neg(sig[(l, "y", n + 1)] @ route), (l, n + 1 - l), 0)
        # + sigma^l on each block
        for r, s, off, space in res.degree_blocks(n):
            for l in range(s + 1):
                place(sig[(l, "x", r, s)], (r + l + 1, s - l), off)
        out[n + 1] = ExactMatrix(field, res.dims[n + 1], res.dims[n], cols)
    return out
