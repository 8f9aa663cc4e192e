"""Reference for crossed.convolution_inverse: two solves compared.

The convolution inverse of a cocycle f in Hom(H (x) H, A) is found as it
was before the single-solve rewrite: the matrices of u -> f * u and of
u -> u * f are built column by column, each column a full convolution
product with a unit tensor, and f * u = e and u * f = e are solved
separately; the two one-sided inverses must agree.  The convolution
product and the unit are written here, so nothing is imported from
hopfcross.crossed.
"""

from hopfcross.linalg import ExactMatrix


def _add_into(out: dict, vec: dict, coef, field) -> None:
    """out += coef * vec, dropping zeros."""
    for i, c in vec.items():
        v = field.add(out.get(i, field.zero), field.mul(coef, c))
        if field.is_zero(v):
            out.pop(i, None)
        else:
            out[i] = v


def convolution_product(cp, u, v) -> list:
    """(u * v)(h, l) = u(h1, l1) v(h2, l2), products taken in A's table."""
    a, h, field = cp.a, cp.h, cp.field
    out = [[{} for _ in range(h.dim)] for _ in range(h.dim)]
    for hi in range(h.dim):
        for li in range(h.dim):
            for (h1, h2), ch in h.comult[hi].items():
                for (l1, l2), cl in h.comult[li].items():
                    coef = field.mul(ch, cl)
                    for i, ci in u[h1][l1].items():
                        for j, cj in v[h2][l2].items():
                            _add_into(out[hi][li], a.mult[i][j], field.mul(coef, field.mul(ci, cj)), field)
    return out


def convolution_unit(cp) -> list:
    """e(h, l) = counit(h) counit(l) 1."""
    h, field = cp.h, cp.field
    return [[field.sparse({0: field.mul(h.counit[hi], h.counit[li])}) for li in range(h.dim)]
            for hi in range(h.dim)]


def convolution_inverse(cp):
    """The two-sided convolution inverse of cp.cocycle.f, or None; the left and
    right inverses are solved independently and must agree."""
    a, h, field = cp.a, cp.h, cp.field
    n = h.dim * h.dim * a.dim

    def flat(hi, li, ai):
        return (hi * h.dim + li) * a.dim + ai

    def unflat(idx):
        rest, ai = divmod(idx, a.dim)
        hi, li = divmod(rest, h.dim)
        return hi, li, ai

    rhs = {flat(hi, li, ai): c for hi, row in enumerate(convolution_unit(cp))
           for li, cell in enumerate(row) for ai, c in cell.items()}

    def op_matrix(left: bool) -> ExactMatrix:
        cols = []
        for col in range(n):
            hu, lu, au = unflat(col)
            u = [[{} for _ in range(h.dim)] for _ in range(h.dim)]
            u[hu][lu] = {au: field.one}
            prod = (convolution_product(cp, cp.cocycle.f, u) if left
                    else convolution_product(cp, u, cp.cocycle.f))
            cols.append({flat(hi, li, ai): c for hi, row in enumerate(prod)
                         for li, cell in enumerate(row) for ai, c in cell.items()})
        return ExactMatrix(field, n, n, cols)

    right_inv = op_matrix(left=True).solve(rhs)   # f * u = e
    left_inv = op_matrix(left=False).solve(rhs)   # u * f = e
    if right_inv is None or left_inv is None:
        assert right_inv is None and left_inv is None, "only one one-sided inverse exists"
        return None
    assert right_inv == left_inv, "one-sided convolution inverses disagree"
    finv = [[{} for _ in range(h.dim)] for _ in range(h.dim)]
    for idx, c in enumerate(right_inv):
        if not field.is_zero(c):
            hi, li, ai = unflat(idx)
            finv[hi][li][ai] = c
    return finv
