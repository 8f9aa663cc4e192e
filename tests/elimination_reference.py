"""The field-generic elimination, as a test reference.

Every scalar operation goes through the FieldSpec methods (inv, neg, add,
mul, is_zero), one call per entry, with no integer kernel.  It is the same
persistence column reduction as `ExactMatrix._echelon` (columns left to
right, pivot at the largest nonzero row), so pivot pairs, ranks, kernel
vectors and coordinates must agree with it exactly; column-space vectors
agree up to a nonzero scalar each.  It shares nothing with the package's
elimination but `FieldSpec` and the column dicts of `ExactMatrix`.
"""


def add_into(dst, src, scale, field):
    """dst += scale * src, dropping zeros."""
    if field.is_zero(scale):
        return
    for i, v in src.items():
        total = field.add(dst.get(i, field.zero), field.mul(scale, v))
        if field.is_zero(total):
            dst.pop(i, None)
        else:
            dst[i] = total


def reduce_against(field, registry, vec, combo):
    """Reduce vec in place; the pivot row left over, or None when it reaches zero."""
    while vec:
        p = max(vec)
        hit = registry.get(p)
        if hit is None:
            return p
        pvec, pcombo = hit
        coef = field.neg(field.mul(vec[p], field.inv(pvec[p])))
        add_into(vec, pvec, coef, field)
        if combo is not None:
            add_into(combo, pcombo, coef, field)
    return None


def echelon(matrix, track_combos=True):
    """(registry, kernel combos, pivot pairs) of the left-to-right reduction."""
    field = matrix.field
    registry, kernel, pairs = {}, [], []
    for j, col in enumerate(matrix.cols):
        vec = dict(col)
        combo = {j: field.one} if track_combos else None
        p = reduce_against(field, registry, vec, combo)
        if p is None:
            if track_combos:
                kernel.append(combo)
        else:
            registry[p] = (vec, combo)
            pairs.append((p, j))
    return registry, kernel, pairs


def pivot_pairs(matrix):
    return echelon(matrix, track_combos=False)[2]


def kernel_basis(matrix):
    return echelon(matrix)[1]


def column_space_basis(matrix):
    registry, _, pairs = echelon(matrix, track_combos=False)
    return [registry[p][0] for p, _ in pairs]


class SolverReference:
    """The SpanSolver queries on the reference registry of one matrix."""

    def __init__(self, matrix):
        self.field = matrix.field
        self.ncols = matrix.ncols
        self.registry = echelon(matrix)[0]

    def insert(self, vec):
        v = dict(vec)
        p = reduce_against(self.field, self.registry, v, None)
        if p is None:
            return False
        self.registry[p] = (v, None)
        return True

    def coordinates(self, vec):
        """x with matrix @ x = vec, supported on the pivot columns; None if vec is outside."""
        field = self.field
        v, x = dict(vec), {}
        while v:
            p = max(v)
            hit = self.registry.get(p)
            if hit is None:
                return None
            pvec, pcombo = hit
            coef = field.mul(v[p], field.inv(pvec[p]))
            add_into(v, pvec, field.neg(coef), field)
            add_into(x, pcombo, coef, field)
        return [x.get(j, field.zero) for j in range(self.ncols)]
