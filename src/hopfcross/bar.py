"""Brute-force bar-complex oracles.

These complexes are the independent reference route for everything else in
the package: normalized Hochschild chains M (x) Ebar^n and cochains
Hom(Ebar^n, M) for any algebra.  Nothing here touches the reduced complexes
or the resolution.

Both builders read one table per degree n, made from E's product by index
arithmetic on flat tensor indices: for each tensor t' of Ebar^(n-1), every
tensor t of Ebar^n with a middle face x_i x_(i+1) that reaches t', with its
signed coefficient (_face_table).  The cochain builder makes each column
(t', m_i) of b* on its own: term 0 at the rows (x, t'), the middle faces of
t' from the table, and the last term at the rows (t', x).  The chain builder
reads the same table inverted, per t.  Every column is a raw sum finished
once by FieldSpec.settle.

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


def _face_table(e: AlgebraData, n: int) -> list[list]:
    """Per tensor t' of Ebar^(n-1), in flat order: (t, signed coef) for every
    middle face of a tensor t of Ebar^n that reaches t'.

    Face i (1 <= i < n) merges legs i - 1 and i of t with sign (-1)^i; the
    merged leg is leg i - 1 of t', and the class of the unit dies in Ebar.
    """
    field = e.field
    dim = e.dim - 1
    # split[k]: (a * dim + b, c) for each pair of Ebar legs whose product has c at leg k
    split: list[list] = [[] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for k, c in e.mult[a + 1][b + 1].items():
                if k:
                    split[k - 1].append((a * dim + b, c))
    table: list[list] = [[] for _ in range(dim ** (n - 1))]
    for i in range(1, n):
        sign = field.sign(i)
        low = dim ** (n - 1 - i)  # stride of leg i - 1 of t', and of leg i of t
        signed = [[(ab * low, field.mul(sign, c)) for ab, c in pairs] for pairs in split]
        for tp, faces in enumerate(table):
            prefix, rest = divmod(tp, low * dim)
            k, suffix = divmod(rest, low)
            base = prefix * dim * dim * low + suffix
            faces.extend((base + ab, c) for ab, c in signed[k])
    return table


def hochschild_chain_complex(
    e: AlgebraData, m: BimoduleData, cap: int
) -> ChainComplex:
    """(M (x) Ebar^*, b): the normalized Hochschild chain complex, degrees 0..cap.

    Basis of M (x) Ebar^n: pairs (argument tensor t, value basis index), flat
    index t * dim(M) + value, the layout of the cochains.
    """
    field = e.field
    settle = field.settle
    dim, md = e.dim - 1, m.dim
    dims = [dim**n * md for n in range(cap + 1)]
    maps: list = [None]
    for n in range(1, cap + 1):
        sign = field.sign(n)
        low = dim ** (n - 1)
        merges: list[list] = [[] for _ in range(dim**n)]
        for tp, faces in enumerate(_face_table(e, n)):
            for t, c in faces:
                merges[t].append((tp * md, c))
        cols: list = []
        for t, faces in enumerate(merges):
            x1, tail = divmod(t, low)  # t = (x_1, tail) = (head, x_n), legs off the unit
            head, xn = divmod(t, dim)
            for mi in range(md):
                # m_i . x_1 at (x_2..x_n, m_j); the middle faces; (-1)^n x_n . m_i at (x_1..x_(n-1), m_j)
                col = {tail * md + mj: c for mj, c in m.right[mi][x1 + 1].items()}
                get = col.get
                for k, c in faces:
                    k += mi
                    col[k] = get(k, 0) + c
                for mj, c in m.left[xn + 1][mi].items():
                    k = head * md + mj
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
    (crossed.dual_bimodule), built here column by column without the dual:
    column (t', m_i) is b* of the cochain that sends t' to m_i.
    """
    field = e.field
    settle = field.settle
    dim, md = e.dim - 1, m.dim
    dims = [dim**n * md for n in range(cap + 1)]
    maps: list = [None]
    for n in range(1, cap + 1):
        sign = field.sign(n)
        step = dims[n - 1]  # the row stride of leg 0
        # per m_i, rows less their t' part: x . m_i at (x, t'), and (-1)^n m_i . x at (t', x)
        first = [[(x * step + mj, c) for x in range(dim) for mj, c in m.left[x + 1][mi].items()]
                 for mi in range(md)]
        last = [[(x * md + mj, sign * c) for x in range(dim) for mj, c in m.right[mi][x + 1].items()]
                for mi in range(md)]
        cols: list = []
        for tp, faces in enumerate(_face_table(e, n)):
            base, head = tp * md, tp * dim * md
            faces = [(t * md, c) for t, c in faces]
            for mi in range(md):
                col = {base + k: c for k, c in first[mi]}
                get = col.get
                for k, c in faces:
                    k += mi
                    col[k] = get(k, 0) + c
                for k, c in last[mi]:
                    k += head
                    col[k] = get(k, 0) + c
                cols.append(settle(col))
        maps.append(ExactMatrix(field, dims[n], dims[n - 1], cols))
    return ChainComplex(field, dims, maps, COHOMOLOGY)
