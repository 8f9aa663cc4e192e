"""The twisted coefficient bimodules of the first-page identification, as a
test reference.

E^1 of the filtered reduced chain complex in column s is H_*(A, M (x) Hbar^s)
for the A-bimodule M (x) Hbar^s below, and dually E^1 of the cochain complex
is H^*(A, Hom(Hbar^s, M)).  Both bimodules are built here from the action,
the comultiplication and M alone; nothing is imported from
hopfcross.reduced_complexes, so the comparison with its pages is independent.
"""

from hopfcross.crossed import BimoduleData, CrossedProductData
from hopfcross.hopf import sweedler_legs
from hopfcross.tensors import TensorSpace, keyed_add_into
from hopfcross.twisting import TwistingCalculus


def _mid_key(space: TensorSpace, mid: int) -> tuple:
    """Full-basis H indices (unit at 0) of the normalized tensor at flat index mid."""
    return tuple(i + 1 for i in space.unrank(mid))


def _mid_rank(space: TensorSpace, key: tuple) -> int | None:
    """Flat index of a full-basis key in the normalized space; None when a leg is the unit."""
    if any(i == 0 for i in key):
        return None
    return space.index(tuple(i - 1 for i in key))


def reduced_coefficient_bimodule(cp: CrossedProductData, m: BimoduleData, s: int) -> BimoduleData:
    """M (x) Hbar^s as an A-bimodule: a1 (m (x) h) a2 = a1 m a2^(h^(1)) (x) h^(2)."""
    field = cp.field
    nhbar = cp.h.dim - 1
    mid = TensorSpace((nhbar,) * s)
    calc = TwistingCalculus(cp)
    dim = m.dim * mid.size
    left = []
    for ai in range(cp.a.dim):
        row = []
        for mi in range(m.dim):
            for t in range(mid.size):
                mv = m.left_act(cp.include_a(ai), {mi: field.one})
                row.append({mj * mid.size + t: c for mj, c in mv.items()})
        left.append(row)
    right = [[None] * cp.a.dim for _ in range(dim)]
    for t in range(mid.size):
        elem = sweedler_legs(cp.h, _mid_key(mid, t), 2)
        for ai in range(cp.a.dim):
            images: dict = {}
            for comps, c in elem.items():
                firsts = tuple(comps[2 * p] for p in range(s))
                seconds = tuple(comps[2 * p + 1] for p in range(s))
                t2 = _mid_rank(mid, seconds)
                if t2 is None:
                    continue
                acted = calc.iter_act(firsts, ai)
                for aj, ca in acted.items():
                    keyed_add_into(images, (aj, t2), field.mul(c, ca), field)
            for mi in range(m.dim):
                cell: dict = {}
                for (aj, t2), c in images.items():
                    mv = m.right_act({mi: field.one}, cp.include_a(aj))
                    for mj, cm in mv.items():
                        keyed_add_into(cell, mj * mid.size + t2, field.mul(c, cm), field)
                right[mi * mid.size + t][ai] = cell
    return BimoduleData(field, dim, cp.a.dim, left, right)


def reduced_coefficient_hom_bimodule(cp: CrossedProductData, m: BimoduleData, s: int) -> BimoduleData:
    """Hom(Hbar^s, M) as an A-bimodule: (a1 phi a2)(h) = a1^(h^(1)) phi(h^(2)) a2.

    Basis: phi_{t, mi}; flat index t * dim(M) + mi.
    """
    field = cp.field
    nhbar = cp.h.dim - 1
    mid = TensorSpace((nhbar,) * s)
    calc = TwistingCalculus(cp)
    dim = mid.size * m.dim
    right = []
    for t in range(mid.size):
        for mi in range(m.dim):
            row = []
            for ai in range(cp.a.dim):
                mv = m.right_act({mi: field.one}, cp.include_a(ai))
                row.append({t * m.dim + mj: c for mj, c in mv.items()})
            right.append(row)
    left = [[{} for _ in range(dim)] for _ in range(cp.a.dim)]
    for t in range(mid.size):
        for comps, c in sweedler_legs(cp.h, _mid_key(mid, t), 2).items():
            firsts = tuple(comps[2 * p] for p in range(s))
            seconds = tuple(comps[2 * p + 1] for p in range(s))
            t2 = _mid_rank(mid, seconds)
            if t2 is None:
                continue
            for ai in range(cp.a.dim):
                acted = calc.iter_act(firsts, ai)
                for mi in range(m.dim):
                    # value of (a1 . phi_{t2, mi}) at argument t
                    cell = left[ai][t2 * m.dim + mi]
                    for aj, ca in acted.items():
                        mv = m.left_act(cp.include_a(aj), {mi: field.one})
                        for mj, cm in mv.items():
                            keyed_add_into(cell, t * m.dim + mj, field.mul(c, field.mul(ca, cm)), field)
    return BimoduleData(field, dim, cp.a.dim, left, right)
