"""The derived-side block builders with per-term bimodule actions, as a test
reference.

reduced_block_reference is the body of reduced_block_from_resolution before
each term read e_R . e_mi . e_L from the bimodule's sandwich table.  The two
untwisting maps were the package's route to the untwisted blocks (the reduced
block conjugated by them) until those blocks were placed from d^l on twisted
generators; here they conjugate the derived reduced blocks for the tests.
Every term acts on every basis vector of M through left_act / right_act /
right_elem and adds each entry with keyed_add_into.  Nothing is imported from
hopfcross.reduced_complexes; the block layouts are rebuilt here from
TensorSpace.
"""

from hopfcross.crossed import unit_section_inverse_map
from hopfcross.hopf import sweedler_legs
from hopfcross.linalg import ExactMatrix
from hopfcross.tensors import TensorSpace, keyed_add_into


def _reduced_mid_space(cp, r, s):
    """Hbar^s (x) Abar^r, row-major."""
    return TensorSpace((cp.h.dim - 1,) * s + (cp.a.dim - 1,) * r)


def _untwisted_mid_space(cp, r, s):
    """Abar^r (x) Hbar^s, row-major."""
    return TensorSpace((cp.a.dim - 1,) * r + (cp.h.dim - 1,) * s)


def _mid_key(space, mid):
    return tuple(i + 1 for i in space.unrank(mid))


def _mid_rank(space, key):
    if any(i == 0 for i in key):
        return None
    return space.index(tuple(i - 1 for i in key))


def reduced_block_reference(res, m, l, r, s) -> ExactMatrix:
    """M (x)_{E^e} d^l_{rs}: m (x) v -> sum e_right . m . e_left (x) v', one action per term and m."""
    cp = res.cp
    field = res.field
    src_mid = _reduced_mid_space(cp, r, s)
    tgt_mid = _reduced_mid_space(cp, r + l - 1, s - l)
    tgt = res.block_spaces[(r + l - 1, s - l)]
    gens = [
        [(*tgt.split(flat), c) for flat, c in col.items()]
        for col in res.generator_columns[(l, r, s)]
    ]
    cols: list[dict] = []
    for mi in range(m.dim):
        base = {mi: field.one}
        for mid in range(src_mid.size):
            col: dict = {}
            for e_left, mid_t, e_right, c in gens[mid]:
                mvec = m.left_act(e_right, m.right_act(base, e_left))
                for mj, cm in mvec.items():
                    keyed_add_into(col, mj * tgt_mid.size + mid_t, field.mul(c, cm), field)
            cols.append(col)
    return ExactMatrix(field, m.dim * tgt_mid.size, m.dim * src_mid.size, cols)


def untwist_block_reference(cp, m, r, s) -> ExactMatrix:
    """m (x) h (x) a -> m (1#h_1^(1)) ... (1#h_s^(1)) (x) a (x) h^(2)."""
    field = cp.field
    src_mid = _reduced_mid_space(cp, r, s)
    tgt_mid = _untwisted_mid_space(cp, r, s)
    cols: list[dict] = [{} for _ in range(m.dim * src_mid.size)]
    for mid in range(src_mid.size):
        key = _mid_key(src_mid, mid)
        hs, avs = key[:s], key[s:]
        terms = []
        for comps, c in sweedler_legs(cp.h, hs, 2).items():
            mid_t = _mid_rank(tgt_mid, tuple(avs) + comps[1::2])
            if mid_t is not None:
                terms.append((comps[0::2], mid_t, c))
        for mi in range(m.dim):
            col = cols[mi * src_mid.size + mid]
            for firsts, mid_t, c in terms:
                mvec = {mi: field.one}
                for h in firsts:
                    mvec = m.right_act(mvec, cp.include_h(h))
                for mj, cm in mvec.items():
                    keyed_add_into(col, mj * tgt_mid.size + mid_t, field.mul(c, cm), field)
    return ExactMatrix(field, m.dim * tgt_mid.size, m.dim * src_mid.size, cols)


def untwist_inverse_block_reference(cp, m, r, s) -> ExactMatrix:
    """m (x) a (x) h -> m (1#h_s^(1))^{-1} ... (1#h_1^(1))^{-1} (x) h^(2) (x) a."""
    field = cp.field
    uinv = unit_section_inverse_map(cp)
    src_mid = _untwisted_mid_space(cp, r, s)
    tgt_mid = _reduced_mid_space(cp, r, s)
    cols: list[dict] = [{} for _ in range(m.dim * src_mid.size)]
    for mid in range(src_mid.size):
        key = _mid_key(src_mid, mid)
        avs, hs = key[:r], key[r:]
        terms = []
        for comps, c in sweedler_legs(cp.h, hs, 2).items():
            mid_t = _mid_rank(tgt_mid, comps[1::2] + tuple(avs))
            if mid_t is not None:
                terms.append((comps[0::2], mid_t, c))
        for mi in range(m.dim):
            col = cols[mi * src_mid.size + mid]
            for firsts, mid_t, c in terms:
                mvec = {mi: field.one}
                for h in reversed(firsts):
                    mvec = m.right_elem(mvec, uinv[h])
                for mj, cm in mvec.items():
                    keyed_add_into(col, mj * tgt_mid.size + mid_t, field.mul(c, cm), field)
    return ExactMatrix(field, m.dim * tgt_mid.size, m.dim * src_mid.size, cols)
