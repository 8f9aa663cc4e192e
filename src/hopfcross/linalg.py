"""Sparse exact matrices over Q or F_p: rank, kernel, pivot pairs, solve, composition.

Storage is one dict per column (row index -> nonzero scalar).  Sparsity is an
internal optimization only; every operation is dense-equivalent and exact.
Matrices are immutable after construction and safe to share across threads;
none of the public methods mutate self.

Elimination is the persistence column reduction: columns left to right, each
reduced against the registry of earlier pivot columns, with the pivot of a
column at its largest nonzero row index (its "low").  The computation is
deterministic: same input, same pivots, same bases.  The (low, column) pairs
of one reduction give the rank of every lower-left block of the matrix
(pivot_pairs); rank, bases and solves read the same reduction.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .fields import FieldSpec


def vec_add_into(dst: dict, src: dict, scale, field: FieldSpec) -> None:
    """dst += scale * src, dropping zeros. The one mutating helper (dst is local)."""
    if field.is_zero(scale):
        return
    add = field.add
    mul = field.mul
    for i, v in src.items():
        w = add(dst.get(i, field.zero), mul(scale, v))
        if field.is_zero(w):
            dst.pop(i, None)
        else:
            dst[i] = w


def vec_scale(vec: dict, scale, field: FieldSpec) -> dict:
    if field.is_zero(scale):
        return {}
    mul = field.mul
    return {i: mul(scale, v) for i, v in vec.items()}


class ExactMatrix:
    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, cols: list[dict]):
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    # construction -------------------------------------------------------
    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "ExactMatrix":
        return cls(field, nrows, ncols, [{} for _ in range(ncols)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        one = field.one
        return cls(field, n, n, [{j: one} for j in range(n)])

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: list[list]) -> "ExactMatrix":
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
        return cls(field, nrows, ncols, cols)

    @classmethod
    def from_columns(
        cls, field: FieldSpec, nrows: int, columns: Iterable[dict]
    ) -> "ExactMatrix":
        cols = [dict(c) for c in columns]
        return cls(field, nrows, len(cols), cols)

    @classmethod
    def from_entries(
        cls, field: FieldSpec, nrows: int, ncols: int, entries: dict
    ) -> "ExactMatrix":
        cols: list[dict] = [{} for _ in range(ncols)]
        for (i, j), v in entries.items():
            if not field.is_zero(v):
                cols[j][i] = v
        return cls(field, nrows, ncols, cols)

    # inspection ---------------------------------------------------------
    def entry(self, i: int, j: int):
        return self.cols[j].get(i, self.field.zero)

    def column(self, j: int) -> dict:
        return dict(self.cols[j])

    def iter_entries(self) -> Iterator[tuple[int, int, object]]:
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                yield i, j, v

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def to_rows(self) -> list[list]:
        zero = self.field.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, j, v in self.iter_entries():
            rows[i][j] = v
        return rows

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for a, b in zip(self.cols, other.cols))

    __hash__ = None

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field.spec_string()}, nnz={self.nnz()})"

    # algebra ------------------------------------------------------------
    def apply(self, vec: dict) -> dict:
        """Matrix times sparse column vector (dict row->scalar)."""
        field = self.field
        out: dict = {}
        for j, v in vec.items():
            col = self.cols[j]
            if col:
                vec_add_into(out, col, v, field)
        return out

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        cols = [self.apply(c) for c in other.cols]
        return ExactMatrix(self.field, self.nrows, other.ncols, cols)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        field = self.field
        cols = []
        for a, b in zip(self.cols, other.cols):
            c = dict(a)
            vec_add_into(c, b, field.one, field)
            cols.append(c)
        return ExactMatrix(field, self.nrows, self.ncols, cols)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        neg = self.field.neg
        return ExactMatrix(
            self.field,
            self.nrows,
            self.ncols,
            [{i: neg(v) for i, v in c.items()} for c in self.cols],
        )

    def scale(self, scalar) -> "ExactMatrix":
        return ExactMatrix(
            self.field,
            self.nrows,
            self.ncols,
            [vec_scale(c, scalar, self.field) for c in self.cols],
        )

    def transpose(self) -> "ExactMatrix":
        cols: list[dict] = [{} for _ in range(self.nrows)]
        for i, j, v in self.iter_entries():
            cols[i][j] = v
        return ExactMatrix(self.field, self.ncols, self.nrows, cols)

    def select_columns(self, indices: Iterable[int]) -> "ExactMatrix":
        cols = [dict(self.cols[j]) for j in indices]
        return ExactMatrix(self.field, self.nrows, len(cols), cols)

    def select_rows(self, indices: Iterable[int]) -> "ExactMatrix":
        idx = list(indices)
        remap = {i: k for k, i in enumerate(idx)}
        cols = []
        for c in self.cols:
            cols.append({remap[i]: v for i, v in c.items() if i in remap})
        return ExactMatrix(self.field, len(idx), self.ncols, cols)

    @classmethod
    def hstack(cls, mats: list["ExactMatrix"]) -> "ExactMatrix":
        if not mats:
            raise ValueError("hstack of nothing")
        nrows = mats[0].nrows
        field = mats[0].field
        cols: list[dict] = []
        for m in mats:
            if m.nrows != nrows:
                raise ValueError("row count mismatch in hstack")
            cols.extend(dict(c) for c in m.cols)
        return cls(field, nrows, len(cols), cols)

    @classmethod
    def vstack(cls, mats: list["ExactMatrix"]) -> "ExactMatrix":
        if not mats:
            raise ValueError("vstack of nothing")
        ncols = mats[0].ncols
        field = mats[0].field
        cols: list[dict] = [{} for _ in range(ncols)]
        offset = 0
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("column count mismatch in vstack")
            for i, j, v in m.iter_entries():
                cols[j][i + offset] = v
            offset += m.nrows
        return cls(field, offset, ncols, cols)

    # elimination --------------------------------------------------------
    def _reduce_against(self, registry: dict, vec: dict, combo: dict | None):
        """Reduce vec against pivot registry in place; returns when no pivot applies."""
        field = self.field
        while vec:
            p = max(vec)
            hit = registry.get(p)
            if hit is None:
                return p
            pvec, pcombo = hit
            coef = field.neg(field.div(vec[p], pvec[p]))
            vec_add_into(vec, pvec, coef, field)
            if combo is not None and pcombo is not None:
                vec_add_into(combo, pcombo, coef, field)
        return None

    def _echelon(self, track_combos: bool):
        """Left-to-right column reduction.

        Returns (registry, kernel_combos, pairs) where registry maps pivot
        row -> (reduced column, combo), kernel_combos lists, in column order,
        the coefficient vectors of columns that reduced to zero, and pairs
        lists (pivot row, column) for the columns that did not.
        """
        field = self.field
        registry: dict = {}
        kernel: list[dict] = []
        pairs: list[tuple[int, int]] = []
        for j, col in enumerate(self.cols):
            vec = dict(col)
            combo = {j: field.one} if track_combos else None
            p = self._reduce_against(registry, vec, combo)
            if p is None:
                if track_combos:
                    kernel.append(combo)
            else:
                registry[p] = (vec, combo)
                pairs.append((p, j))
        return registry, kernel, pairs

    def pivot_pairs(self) -> list[tuple[int, int]]:
        """(low, j) for every column j that stays nonzero, low its pivot row.

        Pairing lemma (Cohen-Steiner, Edelsbrunner, Morozov 2006): the rank of
        the lower-left block self[rows >= a, cols < b] is the number of pairs
        with low >= a and j < b.
        """
        return self._echelon(track_combos=False)[2]

    def rank(self) -> int:
        return len(self.pivot_pairs())

    def kernel_basis(self) -> "ExactMatrix":
        """Columns span ker(self); column count = ncols - rank."""
        _, kernel, _ = self._echelon(track_combos=True)
        return ExactMatrix.from_columns(self.field, self.ncols, kernel)

    def column_space_basis(self) -> "ExactMatrix":
        """Columns form a basis of the column space (echelon, deterministic)."""
        registry, _, pairs = self._echelon(track_combos=False)
        return ExactMatrix.from_columns(
            self.field, self.nrows, [registry[p][0] for p, _ in pairs]
        )

    def solve(self, rhs) -> list | None:
        """Solve self @ x = rhs exactly; None when rhs is outside the column space.

        rhs may be a dense list or a sparse dict; the result is a dense list.
        """
        field = self.field
        if isinstance(rhs, dict):
            vec = {i: v for i, v in rhs.items() if not field.is_zero(v)}
        else:
            if len(rhs) != self.nrows:
                raise ValueError("rhs length mismatch")
            scalars = map(field.scalar, rhs)
            vec = {i: v for i, v in enumerate(scalars) if not field.is_zero(v)}
        return SpanSolver(self, track_combos=True).coordinates(vec)


class SpanSolver:
    """Reusable membership/coordinate solver for a fixed matrix.

    Builds the elimination registry once; subsequent queries only reduce the
    query vector.  Used for repeated membership tests against one span.
    """

    def __init__(self, matrix: ExactMatrix, track_combos: bool = False):
        self.matrix = matrix
        self.field = matrix.field
        self.registry, _, _ = matrix._echelon(track_combos=track_combos)

    @property
    def rank(self) -> int:
        return len(self.registry)

    def contains(self, vec: dict) -> bool:
        v = dict(vec)
        return self.matrix._reduce_against(self.registry, v, None) is None

    def insert(self, vec: dict) -> bool:
        """Register vec when it is independent of the span so far; True if it was.

        Later queries reduce modulo it too.  It carries no coordinates.
        """
        v = dict(vec)
        p = self.matrix._reduce_against(self.registry, v, None)
        if p is None:
            return False
        self.registry[p] = (v, None)
        return True

    def coordinates(self, vec: dict) -> list | None:
        field = self.field
        v = dict(vec)
        x: dict = {}
        while v:
            p = max(v)
            hit = self.registry.get(p)
            if hit is None:
                return None
            pvec, pcombo = hit
            if pcombo is None:
                raise ValueError("SpanSolver built without combo tracking")
            coef = field.div(v[p], pvec[p])
            vec_add_into(v, pvec, field.neg(coef), field)
            vec_add_into(x, pcombo, coef, field)
        return [x.get(j, field.zero) for j in range(self.matrix.ncols)]

