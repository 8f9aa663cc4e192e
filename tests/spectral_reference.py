"""Brute-force spectral pages from the subquotient description, as a test reference.

E_r^p = Z(p, r) / (Z(p - 1, r - 1) + d F_{p+r-1} cap F_p) with
Z(p, r) = {x in F_p : dx in F_{p-r}} (shifts flipped for cochains).  Every
space is an explicit basis built by kernels and column spaces of submatrices
of d, and each cell ranks its stacked denominator.  It shares nothing with the
pivot-pair counting of `FilteredComplex` but `ExactMatrix` elimination and the
level lists, which it reads into index sets itself.
"""

from hopfcross.complexes import HOMOLOGY
from hopfcross.linalg import ExactMatrix


def select_columns(m, indices):
    """The submatrix of m on the given columns, in that order."""
    cols = [dict(m.cols[j]) for j in indices]
    return ExactMatrix(m.field, m.nrows, len(cols), cols)


def select_rows(m, indices):
    """The submatrix of m on the given rows, renumbered in that order."""
    idx = list(indices)
    remap = {i: k for k, i in enumerate(idx)}
    cols = []
    for c in m.cols:
        cols.append({remap[i]: v for i, v in c.items() if i in remap})
    return ExactMatrix(m.field, len(idx), m.ncols, cols)


def level_indices(fc, n, p):
    """F_p at degree n: the coordinates at level <= p (chains), >= p (cochains)."""
    if fc.complex.direction == HOMOLOGY:
        return [j for j, lv in enumerate(fc.levels[n]) if lv <= p]
    return [j for j, lv in enumerate(fc.levels[n]) if lv >= p]


def _outside(fc, n, p):
    inside = set(level_indices(fc, n, p))
    return [i for i in range(fc.complex.dims[n]) if i not in inside]


def z_space(fc, p, n, r):
    """Basis of {x in F_p(n) : d(x) in F_{p -/+ r}}."""
    c = fc.complex
    src = level_indices(fc, n, p)
    og = c.outgoing(n)
    if og is None or not src:
        return [{j: c.field.one} for j in src]
    homology = c.direction == HOMOLOGY
    tgt_degree = n - 1 if homology else n + 1
    rows = _outside(fc, tgt_degree, p - r if homology else p + r)
    combos = select_rows(select_columns(og, src), rows).kernel_basis()
    return [{src[i]: v for i, v in col.items()} for col in combos.cols]


def boundary_image(fc, p_source, p_target, n):
    """Basis of d(F_{p_source}(n +/- 1)) intersected with F_{p_target}(n)."""
    c = fc.complex
    inc = c.incoming(n)
    if inc is None:
        return []
    src_degree = n + 1 if c.direction == HOMOLOGY else n - 1
    src = level_indices(fc, src_degree, p_source)
    if not src:
        return []
    image = select_columns(inc, src).column_space_basis()
    rows = _outside(fc, n, p_target)
    if not rows:
        return [dict(col) for col in image.cols]
    combos = select_rows(image, rows).kernel_basis()
    basis = [v for v in (image.apply(col) for col in combos.cols) if v]
    return ExactMatrix.from_columns(c.field, c.dims[n], basis).column_space_basis().cols


def reference_cell(fc, r, p, q):
    n = p + q
    c = fc.complex
    if n < 0 or n > c.cap or p < 0:
        return 0
    step = 1 if c.direction == HOMOLOGY else -1
    if r == 0:
        return len(level_indices(fc, n, p)) - len(level_indices(fc, n, p - step))
    z = z_space(fc, p, n, r)
    if not z:
        return 0
    denom = z_space(fc, p - step, n, r - 1) + boundary_image(fc, p + step * (r - 1), p, n)
    if not denom:
        return len(z)
    return len(z) - ExactMatrix.from_columns(c.field, c.dims[n], denom).rank()


def reference_page(fc, r, window=None):
    """{(p, q): dim} over total degrees <= window, zero cells left out."""
    if window is None:
        window = fc.complex.cap - 1
    table = {}
    for n in range(window + 1):
        for p in range(max(fc.levels[n], default=0) + 1):
            d = reference_cell(fc, r, p, n - p)
            if d:
                table[(p, n - p)] = d
    return table
