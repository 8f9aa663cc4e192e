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

The reduction runs on plain ints, by one reduction kernel per field, chosen
once per matrix (_PrimeReduction, _RationalReduction):

* F_p: entries are the symmetric residues of fields.py, in
  [h + 1 - p, h] with h = p // 2.  Each registered pivot column is scaled
  so its pivot is 1 (a pivot of -1 is its own inverse), and an update
  reduces a sum inline only when it leaves that range.
* Q: fraction-free primitive column reduction (Bareiss 1968).  Each column is
  scaled to an integer vector; a step forms a*v - b*pivot with a, b the pivot
  entries over their gcd, then divides by the content gcd.

Both only rescale the vectors of the field-generic reduction, so the pivot
rule and the pivot pairs are unchanged, a kernel vector (normalised to 1 at
its own column) is the same vector entry for entry, and solve coordinates
are the same values.  Only the column_space_basis columns may differ from the
generic reduction's, each by a nonzero scalar.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable

from .fields import FieldSpec


def vec_add_into(dst: dict, src: dict, scale, field: FieldSpec) -> None:
    """dst += scale * src, dropping zeros. The one mutating helper (dst is local).

    One loop per field: symmetric residues over F_p; over Q plain arithmetic,
    where only a sum that is not an int (from a rational entry or scale) is
    coerced back to a canonical scalar.
    """
    if field.is_zero(scale):
        return
    if field.kind == "Fp":
        _axpy_mod(dst, src, scale, field.p)
        return
    get = dst.get
    for i, v in src.items():
        t = get(i, 0) + scale * v
        if t.__class__ is not int:
            t = field.scalar(t)
        if t:
            dst[i] = t
        else:
            dst.pop(i, None)


def apply_columns(vec: dict, column, field: FieldSpec) -> dict:
    """sum c * column(j) over the entries (j, c) of vec, skipping empty columns:
    a linear map applied from its column rule.  column is a function of j, or
    a list of columns read as column[j], so a table costs no call per entry."""
    table = column.__class__ is list
    out: dict = {}
    for j, c in vec.items():
        col = column[j] if table else column(j)
        if col:
            vec_add_into(out, col, c, field)
    return out


def _axpy(dst: dict, src: dict, c: int) -> None:
    """dst += c * src over the integers, dropping zeros."""
    get = dst.get
    for i, v in src.items():
        t = get(i, 0) + c * v
        if t:
            dst[i] = t
        else:
            dst.pop(i, None)


def _axpy_mod(dst: dict, src: dict, c: int, p: int) -> None:
    """dst += c * src mod p, dropping zeros; a sum is reduced only when it
    leaves the symmetric range [h + 1 - p, h], h = p // 2."""
    hi = p >> 1
    lo = hi + 1 - p
    get = dst.get
    for i, v in src.items():
        t = get(i, 0) + c * v
        if not lo <= t <= hi:
            t %= p
            if t > hi:
                t -= p
        if t:
            dst[i] = t
        else:
            dst.pop(i, None)


def _scale_into(vec: dict, a: int) -> None:
    for i, v in vec.items():
        vec[i] = v * a


def _scale_mod_into(vec: dict, a: int, p: int) -> None:
    hi = p >> 1
    lo = hi + 1 - p
    for i, v in vec.items():
        t = v * a
        if not lo <= t <= hi:
            t %= p
            if t > hi:
                t -= p
        vec[i] = t


def _divide_by_content(vec: dict, combo: dict | None, sign: int = 1) -> None:
    """Divide vec (nonempty) and its combo, if tracked, by sign * their gcd."""
    g = gcd(*vec.values(), *combo.values()) if combo is not None else gcd(*vec.values())
    g *= sign
    if g != 1:
        for part in (vec, combo) if combo is not None else (vec,):
            for i, v in part.items():
                part[i] = v // g


class _PrimeReduction:
    """Reduction over F_p on symmetric residues; registered pivots are 1."""

    __slots__ = ("p",)

    def __init__(self, field: FieldSpec):
        self.p = field.p

    def start(self, vec: dict) -> tuple[dict, int]:
        """A working copy of a field vector, and its integer scale (always 1)."""
        return dict(vec), 1

    def reduce(self, registry: dict, vec: dict, combo: dict | None):
        """Reduce vec (and its combo) in place; the low left over, or None at zero."""
        p = self.p
        while vec:
            low = max(vec)
            hit = registry.get(low)
            if hit is None:
                return low
            pvec, pcombo = hit
            c = -vec[low]
            _axpy_mod(vec, pvec, c, p)
            if combo is not None:
                _axpy_mod(combo, pcombo, c, p)
        return None

    def register(self, vec: dict, combo: dict | None, low: int):
        p = self.p
        inv = vec[low]
        if inv != 1 and inv != -1:  # a pivot of -1 is its own inverse
            inv = pow(inv, -1, p)
        if inv != 1:
            _scale_mod_into(vec, inv, p)
            if combo is not None:
                _scale_mod_into(combo, inv, p)
        return vec, combo

    def unit_at(self, combo: dict, j: int) -> dict:
        """combo scaled so its entry at j is 1.

        It already is: only registered (pivot) combos are ever rescaled.
        """
        return combo


class _RationalReduction:
    """Fraction-free reduction over Q on integer vectors.

    A working vector is an integer multiple of the field vector it stands
    for; registered pivot columns are divided by their content and have a
    positive pivot.  With combos, the content is taken over the vector and
    its combo together, so that vec = M @ combo stays exact in integers.
    """

    __slots__ = ("field",)

    def __init__(self, field: FieldSpec):
        self.field = field

    def start(self, vec: dict) -> tuple[dict, int]:
        """(d * vec, d) for the least d > 0 that makes every entry an int."""
        if all(v.__class__ is int for v in vec.values()):
            return dict(vec), 1
        d = lcm(*[v.denominator for v in vec.values()])
        return {i: int(v * d) for i, v in vec.items()}, d

    def reduce(self, registry: dict, vec: dict, combo: dict | None):
        """Reduce vec (and its combo) in place; the low left over, or None at zero."""
        while vec:
            low = max(vec)
            hit = registry.get(low)
            if hit is None:
                return low
            pvec, pcombo = hit
            a = pvec[low]
            b = vec[low]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if a != 1:
                _scale_into(vec, a)
                if combo is not None:
                    _scale_into(combo, a)
            _axpy(vec, pvec, -b)
            if combo is not None:
                _axpy(combo, pcombo, -b)
            if a != 1 and vec:
                _divide_by_content(vec, combo)
        return None

    def register(self, vec: dict, combo: dict | None, low: int):
        _divide_by_content(vec, combo, -1 if vec[low] < 0 else 1)
        return vec, combo

    def unit_at(self, combo: dict, j: int) -> dict:
        """combo scaled so its entry at j is 1, as field scalars."""
        cj = combo[j]
        if cj == 1:
            return combo
        inv = self.field.inv(cj)
        mul = self.field.mul
        return {i: v // cj if v % cj == 0 else mul(v, inv) for i, v in combo.items()}


_QUERY = -1  # combo key of a query vector; matrix columns are 0..ncols-1


def _reduction(field: FieldSpec):
    return _PrimeReduction(field) if field.kind == "Fp" else _RationalReduction(field)


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
    def from_columns(
        cls, field: FieldSpec, nrows: int, columns: Iterable[dict]
    ) -> "ExactMatrix":
        cols = [dict(c) for c in columns]
        return cls(field, nrows, len(cols), cols)

    # inspection ---------------------------------------------------------
    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

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
        return apply_columns(vec, self.cols, self.field)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        cols = [apply_columns(c, self.cols, self.field) for c in other.cols]
        return ExactMatrix(self.field, self.nrows, other.ncols, cols)

    def transpose(self) -> "ExactMatrix":
        cols: list[dict] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                cols[i][j] = v
        return ExactMatrix(self.field, self.ncols, self.nrows, cols)

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

    # elimination --------------------------------------------------------
    def _echelon(self, track_combos: bool):
        """Left-to-right column reduction, by the integer reduction of self.field.

        Returns (registry, kernel_combos, pairs) where registry maps pivot
        row -> (reduced integer column, combo), kernel_combos lists, in column
        order, the coefficient vectors of columns that reduced to zero, and
        pairs lists (pivot row, column) for the columns that did not.
        """
        reduction = _reduction(self.field)
        registry: dict = {}
        kernel_combos: list[dict] = []
        pairs: list[tuple[int, int]] = []
        for j, col in enumerate(self.cols):
            vec, d = reduction.start(col)
            combo = {j: d} if track_combos else None
            low = reduction.reduce(registry, vec, combo)
            if low is None:
                if track_combos:
                    kernel_combos.append(reduction.unit_at(combo, j))
            else:
                registry[low] = reduction.register(vec, combo, low)
                pairs.append((low, j))
        return registry, kernel_combos, pairs

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
        return SpanSolver(self).coordinates(vec)


class SpanSolver:
    """Reusable coordinate solver for a fixed matrix.

    Builds the elimination registry, with combos, once; subsequent queries
    only reduce the query vector.  Used for repeated solves against one span.
    pairs are the (pivot row, column) pairs of that one reduction, in column
    order (ExactMatrix.pivot_pairs): the pivot columns are a basis of the span.
    """

    def __init__(self, matrix: ExactMatrix):
        self.matrix = matrix
        self.reduction = _reduction(matrix.field)
        self.registry, _, self.pairs = matrix._echelon(track_combos=True)

    def coordinates(self, vec: dict) -> list | None:
        """x with matrix @ x = vec, supported on the pivot columns; None outside the span.

        vec is reduced as one more column, its combo keyed by _QUERY: when it
        reaches zero, the combo normalised to 1 at _QUERY is (1, -x).
        """
        v, d = self.reduction.start(vec)
        combo = {_QUERY: d}
        if self.reduction.reduce(self.registry, v, combo) is not None:
            return None
        x = self.reduction.unit_at(combo, _QUERY)
        neg = self.matrix.field.neg
        return [neg(x[j]) if j in x else 0 for j in range(self.matrix.ncols)]
