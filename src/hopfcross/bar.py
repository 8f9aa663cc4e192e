"""Brute-force bar-complex oracles.

These complexes are the independent reference route for everything else in
the package: normalized Hochschild chains M (x) Ebar^n and cochains
Hom(Ebar^n, M) for any algebra.  Nothing here touches the reduced complexes
or the resolution.

The same chains compute the homology of a Hopf algebra H with coefficients
in a left H-module N: the standard complex Hbar^s (x) N of H_*(H, N) is the
normalized Hochschild chain complex of H with coefficients in N_eps, the
bimodule N with the counit as its right action (Cartan-Eilenberg 1956), and
N_eps is crossed.tensor_bimodule(H, N, k_eps) with k_eps the counit module.
"""

from __future__ import annotations

from .algebras import AlgebraData
from .complexes import COHOMOLOGY, HOMOLOGY, ChainComplex
from .crossed import BimoduleData
from .linalg import ExactMatrix
from .tensors import TensorSpace


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

    Basis of M (x) Ebar^n: pairs (argument tensor t, value basis index), flat
    index t * dim(M) + value, the layout of the cochains.
    """
    field = e.field
    settle = field.settle
    dims = [(e.dim - 1) ** n * m.dim for n in range(cap + 1)]
    maps: list = [None]
    for n in range(1, cap + 1):
        cols: list = []
        for legs, tail, merges, head, sign in _faces(e, n):
            for mi in range(m.dim):
                col: dict = {}
                get = col.get
                for mj, c in m.right[mi][legs[0]].items():
                    k = tail * m.dim + mj
                    col[k] = get(k, 0) + c
                for idx, c in merges:
                    k = idx * m.dim + mi
                    col[k] = get(k, 0) + c
                for mj, c in m.left[legs[-1]][mi].items():
                    k = head * m.dim + mj
                    col[k] = get(k, 0) + sign * c
                cols.append(settle(col))
        maps.append(ExactMatrix(field, dims[n - 1], dims[n], cols))
    return ChainComplex(field, dims, maps, HOMOLOGY)


def hochschild_cochain_complex(
    e: AlgebraData, m: BimoduleData, cap: int
) -> ChainComplex:
    """(Hom(Ebar^*, M), b*): the normalized Hochschild cochain complex.

    Basis of Hom(Ebar^n, M): pairs (argument tensor t, value basis index),
    flat index t * dim(M) + value, the layout of the chains.  Each map is
    the transpose of the chain map with coefficients M^v
    (crossed.dual_bimodule), built here without the dual.
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
