"""Brute-force bar-complex oracles.

These complexes are the independent reference route for everything else in
the package: normalized Hochschild chains M (x) Ebar^n and cochains
Hom(Ebar^n, M) for any algebra.  Nothing here touches the reduced complexes
or the resolution.

The cochain builder reads one table per degree n, made from E's product by
index arithmetic on flat tensor indices: for each tensor t' of Ebar^(n-1),
every tensor t of Ebar^n with a middle face x_i x_(i+1) that reaches t', with
its signed coefficient (_face_table).  It makes each column (t', m_i) of b* on
its own: term 0 at the rows (x, t'), the middle faces of t' from the table,
and the last term at the rows (t', x).  Every column is a raw sum finished
once by FieldSpec.settle.  The chains with coefficients M are the transposed
cochains with coefficients M^v (crossed.dual_bimodule): both are laid out
argument first, so b on M (x) Ebar^n is, entry for entry, the transpose of
b* on Hom(Ebar^n, M^v).

Every run-time comparison against these complexes sends exactly one side
through dual_bimodule, so a wrong dual shows up as a mismatch and cannot
cancel out:

* homology oracle: the reduced chains on M against the bar cochains of M^v;
* cohomology oracle: the reduced cochains, built through M^v, against the bar
  cochains of M;
* e2-check, chain side: the untwisted chains on M against the H-action on the
  bar chains of M_A, which go through (M_A)^v;
* e2-check, cochain side: the untwisted cochains, built through M^v, against
  the bar cochains of M_A.

The same chains compute the homology of a Hopf algebra H with coefficients
in a left H-module N: the standard complex Hbar^s (x) N of H_*(H, N) is the
normalized Hochschild chain complex of H with coefficients in N_eps, the
bimodule N with the counit as its right action (Cartan-Eilenberg 1956), and
N_eps is crossed.tensor_bimodule(H, N, k_eps) with k_eps the counit module.
"""

from __future__ import annotations

from .algebras import AlgebraData
from .complexes import COHOMOLOGY, HOMOLOGY, ChainComplex
from .crossed import BimoduleData, dual_bimodule
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


def hochschild_cochain_complex(
    e: AlgebraData, m: BimoduleData, cap: int
) -> ChainComplex:
    """(Hom(Ebar^*, M), b*): the normalized Hochschild cochain complex.

    Basis of Hom(Ebar^n, M): pairs (argument tensor t, value basis index),
    flat index t * dim(M) + value, the layout of the chains.
    """
    return ChainComplex(e.field, *_cochain_maps(e, m, cap), COHOMOLOGY)


def hochschild_chain_complex(
    e: AlgebraData, m: BimoduleData, cap: int
) -> ChainComplex:
    """(M (x) Ebar^*, b): the normalized Hochschild chain complex, degrees
    0..cap, as the transposed cochain complex with coefficients M^v; its basis
    of M (x) Ebar^n is laid out (t, value) like the cochains."""
    dims, maps = _cochain_maps(e, dual_bimodule(m), cap)
    return ChainComplex(e.field, dims, [None] + [d.transpose() for d in maps[1:]], HOMOLOGY)


def _cochain_maps(e: AlgebraData, m: BimoduleData, cap: int) -> tuple:
    """(dims, maps) of hochschild_cochain_complex, built column by column
    without the dual: column (t', m_i) is b* of the cochain that sends t' to
    m_i."""
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
    return dims, maps
