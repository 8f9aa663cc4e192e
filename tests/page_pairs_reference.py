"""The level-order pivot pairs of each map of a filtered complex, as a test reference.

This is the plain reduction that the spectral pages once read: the map leaving
degree n with its columns and rows both stably sorted by level (ascending for
chains, descending for cochains), reduced left to right, every column, with no
clearing and no anti-transpose.  The pairing lemma makes its (low, j) pairs the
lower-left block ranks the page formula needs.  It imports nothing from
hopfcross.complexes and works out the level order from the level lists itself.
"""

from hopfcross.linalg import ExactMatrix


def level_order(levels, homology):
    """Coordinates stably sorted so that every filtration level is a prefix."""
    return sorted(range(len(levels)), key=levels.__getitem__, reverse=not homology)


def reference_pairs(c, levels, n):
    """(low, j) pivot pairs of the map of complex c leaving degree n, in level order."""
    homology = c.direction == "homology"
    og = c.outgoing(n) if 0 <= n <= c.cap else None
    if og is None:
        return []
    target = n - 1 if homology else n + 1
    row_of = {i: k for k, i in enumerate(level_order(levels[target], homology))}
    cols = [{row_of[i]: v for i, v in og.cols[j].items()} for j in level_order(levels[n], homology)]
    return ExactMatrix(og.field, og.nrows, og.ncols, cols).pivot_pairs()
