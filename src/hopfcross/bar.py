"""Brute-force bar-complex oracles.

These complexes are the independent reference route for everything else in
the package: normalized Hochschild chains M (x) Ebar^n and cochains
Hom(Ebar^n, M) for any algebra, and the canonical complexes computing the
(co)homology of a Hopf algebra with module coefficients.  Nothing here touches the reduced
complexes or the resolution.
"""

from __future__ import annotations

from .algebras import AlgebraData
from .complexes import COHOMOLOGY, HOMOLOGY, ChainComplex
from .crossed import BimoduleData
from .linalg import ExactMatrix
from .tensors import TensorSpace, keyed_add_into


def _faces(e: AlgebraData, n: int):
    """Per argument tensor t of Ebar^n, in flat order: (legs, tail, merges, head, sign).

    legs are the section reps of t in E; tail and head are the flat indices of
    t[1:] and t[:-1] in Ebar^(n-1); merges lists (flat index, signed coef)
    of the middle faces, and sign is the sign (-1)^n of the last face.
    """
    field = e.field
    dim = e.dim - 1
    for flat, t in enumerate(TensorSpace((dim,) * n)):
        legs = [x + 1 for x in t]
        merges = []
        sign = field.one
        for i in range(1, n):
            sign = field.neg(sign)
            low = dim ** (n - i - 1)  # stride of leg i in t, and of the merged leg
            prefix = flat // (low * dim * dim)
            for k, c in e.mult[legs[i - 1]][legs[i]].items():
                if k:  # the class of the unit dies in Ebar
                    merges.append(((prefix * dim + k - 1) * low + flat % low, field.mul(sign, c)))
        yield legs, flat % dim ** (n - 1), merges, flat // dim, field.neg(sign)


def hochschild_chain_complex(
    e: AlgebraData, m: BimoduleData, cap: int
) -> ChainComplex:
    """(M (x) Ebar^*, b): the normalized Hochschild chain complex, degrees 0..cap.

    Basis of M (x) Ebar^n: pairs (value basis index, argument tensor t), flat
    index value * dim(Ebar^n) + t.
    """
    field = e.field
    settle = field.settle
    dim_ebar = e.dim - 1
    dims = [m.dim * dim_ebar**n for n in range(cap + 1)]
    maps: list = [None]
    for n in range(1, cap + 1):
        size, prev = dim_ebar**n, dim_ebar ** (n - 1)
        cols: list = [None] * dims[n]
        for t, (legs, tail, merges, head, sign) in enumerate(_faces(e, n)):
            for mi in range(m.dim):
                col: dict = {}
                get = col.get
                for mj, c in m.right[mi][legs[0]].items():
                    k = mj * prev + tail
                    col[k] = get(k, 0) + c
                for idx, c in merges:
                    k = mi * prev + idx
                    col[k] = get(k, 0) + c
                for mj, c in m.left[legs[-1]][mi].items():
                    k = mj * prev + head
                    col[k] = get(k, 0) + sign * c
                cols[mi * size + t] = settle(col)
        maps.append(ExactMatrix(field, dims[n - 1], dims[n], cols))
    return ChainComplex(field, dims, maps, HOMOLOGY)


def hochschild_cochain_complex(
    e: AlgebraData, m: BimoduleData, cap: int
) -> ChainComplex:
    """(Hom(Ebar^*, M), b*): the normalized Hochschild cochain complex.

    Basis of Hom(Ebar^n, M): pairs (argument tensor t, value basis index),
    flat index t * dim(M) + value.
    """
    field = e.field
    dim_ebar = e.dim - 1
    dims = [dim_ebar**n * m.dim for n in range(cap + 1)]
    maps: list = [None]
    for n in range(1, cap + 1):
        cols: list[dict] = [{} for _ in range(dims[n - 1])]
        for t, (legs, tail, merges, head, sign) in enumerate(_faces(e, n)):
            row_base = t * m.dim
            # term 0: x1 . phi(x2..xn)
            for mi in range(m.dim):
                col = cols[tail * m.dim + mi]
                for mj, c in m.left[legs[0]][mi].items():
                    k = row_base + mj
                    col[k] = col.get(k, 0) + c
            # middle merges
            for idx, c in merges:
                for mi in range(m.dim):
                    col = cols[idx * m.dim + mi]
                    k = row_base + mi
                    col[k] = col.get(k, 0) + c
            # last term: phi(x1..x_{n-1}) . xn
            for mi in range(m.dim):
                col = cols[head * m.dim + mi]
                for mj, c in m.right[mi][legs[-1]].items():
                    k = row_base + mj
                    col[k] = col.get(k, 0) + sign * c
        maps.append(ExactMatrix(field, dims[n], dims[n - 1], [field.settle(col) for col in cols]))
    return ChainComplex(field, dims, maps, COHOMOLOGY)


# Hopf-algebra (co)homology with module coefficients -------------------------

def h_module_homology_complex(h, module, cap: int) -> ChainComplex:
    """Complex Hbar^s (x) N computing the homology of H with left-module coefficients.

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
            put(legs[:-1], rho[legs[-1]].column(ni), sign)
            cols.append(col)
        maps.append(ExactMatrix(field, dims[s - 1], dims[s], cols))
    return ChainComplex(field, dims, maps, HOMOLOGY)


def trivial_left_module(h) -> tuple[int, list]:
    """k with h acting by the counit."""
    field = h.field
    rho = []
    for i in range(h.dim):
        c = h.counit[i]
        rho.append(ExactMatrix.from_entries(field, 1, 1, {(0, 0): c}))
    return 1, rho
