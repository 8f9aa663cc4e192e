import pytest

from hopfcross.fields import FieldSpec
from hopfcross.crossed import regular_bimodule
from hopfcross.linalg import ExactMatrix, vec_add_into
from hopfcross.problems import (
    BUILTIN_NAMES,
    builtin,
    cyclic_group_algebra,
    cyclic_group_hopf,
)
from placement_reference import untwist_block_reference, untwist_inverse_block_reference

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def from_rows(field, rows: list[list]) -> ExactMatrix:
    """The matrix with these dense rows, each entry coerced by field.scalar."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    cols: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            s = field.scalar(v)
            if not field.is_zero(s):
                cols[j][i] = s
    return ExactMatrix(field, nrows, ncols, cols)


def to_rows(m: ExactMatrix) -> list[list]:
    """The dense rows of m."""
    zero = m.field.zero
    rows = [[zero] * m.ncols for _ in range(m.nrows)]
    for j, col in enumerate(m.cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def mat_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a + b, entrywise."""
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols), "shape mismatch in add"
    cols = [dict(x) for x in a.cols]
    for col, y in zip(cols, b.cols):
        vec_add_into(col, y, a.field.one, a.field)
    return ExactMatrix(a.field, a.nrows, a.ncols, cols)


def mat_scale(m: ExactMatrix, c) -> ExactMatrix:
    """c * m, entrywise."""
    field = m.field
    if field.is_zero(c):
        return ExactMatrix.zeros(field, m.nrows, m.ncols)
    return ExactMatrix(field, m.nrows, m.ncols,
                       [{i: field.mul(c, v) for i, v in col.items()} for col in m.cols])


def mat_neg(m: ExactMatrix) -> ExactMatrix:
    """-m."""
    return mat_scale(m, m.field.neg(m.field.one))


def make_matrix(field, nrows: int, ncols: int, column) -> ExactMatrix:
    """The matrix whose column j is the flat target dict column(j)."""
    return ExactMatrix(field, nrows, ncols, [column(j) for j in range(ncols)])


def mu_matrix(res, s: int) -> ExactMatrix:
    """mu_s : block (0, s) -> its row targets, from the column rule _mu_column
    on every basis index."""
    dim = res.block_spaces[(0, s)].dim
    return make_matrix(res.field, dim, dim, lambda j: res._mu_column(s, j))


def mu_matrices(res) -> dict:
    """mu_s for 0 <= s <= cap."""
    return {s: mu_matrix(res, s) for s in range(res.cap + 1)}


def homotopy_matrices(res) -> dict:
    """The contracting homotopy's left-generator table extended over the full
    basis: sigma[n] as a matrix from degree n - 1 (from E when n = 0)."""
    one = res.field.one
    out = {}
    for n in res.contracting_homotopy():
        ncols = res.cp.e.dim if n == 0 else res.dims[n - 1]
        cols = [res.homotopy_apply(n, {j: one}) for j in range(ncols)]
        out[n] = ExactMatrix(res.field, res.dims[n], ncols, cols)
    return out


def boundary_matrices(res) -> list:
    """The resolution's boundary as matrices: d[n] from degree n to degree
    n - 1, column j = res.boundary(n, {j: 1}) (d[0] is None)."""
    one = res.field.one
    return [None] + [
        ExactMatrix(res.field, res.dims[n - 1], res.dims[n],
                    [res.boundary(n, {j: one}) for j in range(res.dims[n])])
        for n in range(1, res.cap + 1)
    ]


def argument_major(mat: ExactMatrix, dim_m: int) -> ExactMatrix:
    """mat with rows and columns relabelled, not transposed: the coordinate
    (m, t) at m * size + t of the test references moves to (t, m) at
    t * dim_m + m, the package's layout, on both sides of one block."""
    def perm(total):
        size = total // dim_m
        return [t * dim_m + mi for mi in range(dim_m) for t in range(size)]

    rows, cols = perm(mat.nrows), perm(mat.ncols)
    out: list = [None] * mat.ncols
    for j, col in enumerate(mat.cols):
        out[cols[j]] = {rows[i]: v for i, v in col.items()}
    return ExactMatrix(mat.field, mat.nrows, mat.ncols, out)


def block_diag(field, mats) -> ExactMatrix:
    """The block-diagonal matrix with the given blocks, in order."""
    rows = sum(m.nrows for m in mats)
    cols_total = sum(m.ncols for m in mats)
    cols: list[dict] = []
    roff = 0
    for m in mats:
        for j in range(m.ncols):
            cols.append({i + roff: v for i, v in m.cols[j].items()})
        roff += m.nrows
    return ExactMatrix(field, rows, cols_total, cols)


def untwist_degree_matrices(rc):
    """Blockwise untwisting map and its displayed inverse per degree, as matrices on
    the assembled spaces (block order s ascending on both sides), from the
    per-term references of tests/placement_reference.py, relabelled to the
    package's layout."""
    def placed(reference, r, s):
        return argument_major(reference(rc.cp, rc.m, r, s), rc.m.dim)

    out = []
    for n in range(rc.cap + 1):
        blocks = [(n - s, s) for s in range(n + 1)]
        mats = [placed(untwist_block_reference, r, s) for r, s in blocks]
        invs = [placed(untwist_inverse_block_reference, r, s) for r, s in blocks]
        out.append((block_diag(rc.field, mats), block_diag(rc.field, invs)))
    return out


def z_n_algebra(field, n):
    return cyclic_group_algebra(field, n)


def z_n_hopf(field, n):
    return cyclic_group_hopf(field, n)


def _make_builder(name):
    def build(field):
        return builtin(name, field=field).crossed_product()

    return build


BUILTIN_BUILDERS = {name: _make_builder(name) for name in BUILTIN_NAMES}

build_trivial = BUILTIN_BUILDERS["trivial"]
build_z2_trivial = BUILTIN_BUILDERS["z2_trivial"]
build_z4_cocycle = BUILTIN_BUILDERS["z4_as_cocycle_extension"]
build_s3_action = BUILTIN_BUILDERS["s3_as_action_extension"]
build_klein_four = BUILTIN_BUILDERS["klein_four"]
build_sweedler_smash = BUILTIN_BUILDERS["sweedler_smash"]


@pytest.fixture(scope="session")
def crossed_products():
    """All built-ins over their default fields; each solves its convolution
    inverse on the first read of conv_inverse."""
    out = {}
    for name in BUILTIN_NAMES:
        pf = builtin(name)
        out[name] = pf.crossed_product()
    return out


@pytest.fixture(scope="session")
def sweedler_cp(crossed_products):
    return crossed_products["sweedler_smash"]


@pytest.fixture(scope="session")
def regular_bimodules(crossed_products):
    return {name: regular_bimodule(cp.e) for name, cp in crossed_products.items()}
