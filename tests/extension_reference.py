"""The E^e-extension of a block's generator columns, one basis vector at a
time, as a test reference for CrossedResolution.boundary and .blocks.

The source basis vector flat = (e_left, mid, e_right) maps to
e_left . gen_cols[mid] . e_right: split, then left_mult, then right_mult, in
flat order, with no image shared between columns.  Nothing is imported from
hopfcross.resolution; the resolution and its spaces come in as arguments.
"""

from hopfcross.linalg import ExactMatrix


def extend_bimodule_reference(res, l: int, r: int, s: int, gen_cols: list) -> ExactMatrix:
    """Full matrix of block (l, r, s) of res from its generator columns."""
    src = res.block_spaces[(r, s)]
    tgt = res.block_spaces[(r + l - 1, s - l)]
    cols = []
    for flat in range(src.dim):
        e_left, mid, e_right = src.split(flat)
        cols.append(tgt.right_mult(tgt.left_mult(gen_cols[mid], e_left), e_right))
    return ExactMatrix(res.field, tgt.dim, src.dim, cols)
