"""The normalized bar-complex builders indexed through TensorSpace, as a test
reference.

Every face of every basis tensor is written out as a multi-index and looked up
with `TensorSpace.index`; the package builders in hopfcross.bar compute the
same indices by flat arithmetic, once per argument tensor.  The chain
reference lays M (x) Ebar^n out (value, t); the package lays chains out like
cochains, (t, value), and the tests relabel the reference
(conftest.argument_major) before comparing.

`h_module_homology_complex_reference` is the standard complex Hbar^s (x) N of
the homology of a Hopf algebra with left-module coefficients, written out face
by face with the counit in the first face.  The package computes the same
homology as the Hochschild chains of H with coefficients in N_eps; the two
complexes, both laid out (t, n), agree map for map.
"""

from hopfcross.complexes import COHOMOLOGY, HOMOLOGY, ChainComplex
from hopfcross.linalg import ExactMatrix
from hopfcross.tensors import TensorSpace, keyed_add_into


def chain_complex_reference(e, m, cap: int) -> ChainComplex:
    """(M (x) Ebar^*, b), degrees 0..cap, one `TensorSpace.index` per term."""
    field = e.field
    dim_ebar = e.dim - 1
    dims = [m.dim * dim_ebar**n for n in range(cap + 1)]
    maps: list = [None]
    for n in range(1, cap + 1):
        src = TensorSpace((m.dim,) + (dim_ebar,) * n)
        tgt = TensorSpace((m.dim,) + (dim_ebar,) * (n - 1))
        cols: list[dict] = []
        for key in src:
            mi = key[0]
            legs = [x + 1 for x in key[1:]]
            col: dict = {}

            def put(midx, tail, coef):
                keyed_add_into(col, tgt.index((midx,) + tuple(t - 1 for t in tail)), coef, field)

            for mj, c in m.right[mi][legs[0]].items():
                put(mj, legs[1:], c)
            sign = field.one
            for i in range(1, n):
                sign = field.neg(sign)
                for k, c in e.mult[legs[i - 1]][legs[i]].items():
                    if k == 0:
                        continue
                    put(mi, legs[: i - 1] + [k] + legs[i + 1 :], field.mul(sign, c))
            sign = field.neg(sign)
            for mj, c in m.left[legs[-1]][mi].items():
                put(mj, legs[:-1], field.mul(sign, c))
            cols.append(col)
        maps.append(ExactMatrix(field, dims[n - 1], dims[n], cols))
    return ChainComplex(field, dims, maps, HOMOLOGY)


def cochain_complex_reference(e, m, cap: int) -> ChainComplex:
    """(Hom(Ebar^*, M), b*), flat index t * dim(M) + value, faces by `TensorSpace.index`."""
    field = e.field
    dim_ebar = e.dim - 1
    dims = [dim_ebar**n * m.dim for n in range(cap + 1)]
    maps: list = [None]
    for n in range(1, cap + 1):
        arg_space = TensorSpace((dim_ebar,) * n)
        prev_args = TensorSpace((dim_ebar,) * (n - 1))
        cols: list[dict] = [{} for _ in range(dims[n - 1])]

        def add(col_idx, row_idx, coef):
            keyed_add_into(cols[col_idx], row_idx, coef, field)

        for t in arg_space:
            legs = [x + 1 for x in t]
            row_base = arg_space.index(t) * m.dim
            cidx = prev_args.index(t[1:]) * m.dim
            for mi in range(m.dim):
                for mj, c in m.left[legs[0]][mi].items():
                    add(cidx + mi, row_base + mj, c)
            sign = field.one
            for i in range(1, n):
                sign = field.neg(sign)
                for k, c in e.mult[legs[i - 1]][legs[i]].items():
                    if k == 0:
                        continue
                    merged = t[: i - 1] + (k - 1,) + t[i + 1 :]
                    cidx = prev_args.index(merged) * m.dim
                    for mi in range(m.dim):
                        add(cidx + mi, row_base + mi, field.mul(sign, c))
            sign = field.neg(sign)
            cidx = prev_args.index(t[:-1]) * m.dim
            for mi in range(m.dim):
                for mj, c in m.right[mi][legs[-1]].items():
                    add(cidx + mi, row_base + mj, field.mul(sign, c))
        maps.append(ExactMatrix(field, dims[n], dims[n - 1], cols))
    return ChainComplex(field, dims, maps, COHOMOLOGY)


def h_module_homology_complex_reference(h, module, cap: int) -> ChainComplex:
    """Hbar^s (x) N, degrees 0..cap, basis tensors laid out (t, n).

    module = (dim_n, rho) with rho[h_index] an ExactMatrix acting on N for
    every full H-basis index (rho[0] the identity).
    """
    field = h.field
    dim_n, rho = module
    dim_hbar = h.dim - 1
    dims = [dim_hbar**s * dim_n for s in range(cap + 1)]
    maps: list = [None]
    for s in range(1, cap + 1):
        src = TensorSpace((dim_hbar,) * s + (dim_n,))
        tgt = TensorSpace((dim_hbar,) * (s - 1) + (dim_n,))
        cols: list[dict] = []
        for key in src:
            legs = [x + 1 for x in key[:-1]]
            ni = key[-1]
            col: dict = {}

            def put(tail, nvec, coef):
                for nj, c in nvec.items():
                    idx = tgt.index(tuple(t - 1 for t in tail) + (nj,))
                    keyed_add_into(col, idx, field.mul(coef, c), field)

            put(legs[1:], {ni: field.one}, h.counit[legs[0]])
            sign = field.one
            for i in range(1, s):
                sign = field.neg(sign)
                for k, c in h.algebra.mult[legs[i - 1]][legs[i]].items():
                    if k == 0:
                        continue
                    put(legs[: i - 1] + [k] + legs[i + 1 :], {ni: field.one}, field.mul(sign, c))
            sign = field.neg(sign)
            put(legs[:-1], rho[legs[-1]].cols[ni], sign)
            cols.append(col)
        maps.append(ExactMatrix(field, dims[s - 1], dims[s], cols))
    return ChainComplex(field, dims, maps, HOMOLOGY)
