"""Chain/cochain complexes, filtered complexes, spectral-sequence pages.

Complexes are truncated at a degree cap; homology at the cap degree is never
reported because the incoming boundary there is unknown.

Every filtration in this package is spanned by basis vectors, so it is stored
as one level per coordinate.  Page dimensions need no subspace bases.  With
Z(p, r) the chains in F_p whose boundary lies r levels lower,

    dim E_r^p = dim Z(p, r) - dim Z(p-1, r-1)
                - dim(d F_{p+r-1} cap F_p) + dim(d F_{p+r-1} cap F_{p-1})

(shifts flipped for cochains), and every term is |F_s| or a rank of a block
d[rows outside F_t, cols in F_s].  Each degree's coordinates are stably sorted
by level first (ascending for chains, descending for cochains), so every
level is a prefix and each such block is a lower-left block of the sorted
map.  By the pairing lemma its rank is a count of the pivot pairs of that
map's level-order reduction (ExactMatrix.pivot_pairs); there are no
homotopy-theoretic shortcuts.  The pairs are found by one upward reduction
per map, cleared by the map below: of the map itself for cochains, of its
anti-transpose for chains (FilteredComplex._pivot_pairs; the pairing duality
of de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
(co)homology", 2011).

Total (co)homology (homology_dims) reduces each map once more, independently
of the pages and in another order: upward, as C_{n-1} -> C_n on unsorted
coordinates in increasing degree, with its own clearing.  Both sides clear as
Chen and Kerber do ("Persistent homology computation with a twist", 2011),
as in Ripser (Bauer 2021), and share no pairs or cleared sets.
"""

from __future__ import annotations

from functools import cache

from .algebras import Report
from .linalg import ExactMatrix, SpanSolver


class BoundaryNotSquareZero(Exception):
    def __init__(self, degree: int, detail: str = ""):
        super().__init__(f"d o d != 0 entering degree {degree} {detail}")
        self.degree = degree


HOMOLOGY = "homology"
COHOMOLOGY = "cohomology"


def _composites_vanish(first_cols: list, then_cols: list, nrows: int, p) -> bool:
    """then . col == 0 for every col of first_cols (over F_p when p, else over Q).

    Each composite column is summed into one list of nrows zeros, kept across
    columns.  Only the rows a column touched are tested; a column that passes
    leaves them 0 again (over F_p they are reset from multiples of p).
    """
    acc = [0] * nrows
    for col in first_cols:
        touched: list = []
        for j, v in col.items():
            image = then_cols[j]
            touched.extend(image)
            for i, w in image.items():
                acc[i] += v * w
        # most integer sums are exactly 0: test that at C speed before any % p
        if any(map(acc.__getitem__, touched)):
            if p is None:
                return False
            for i in touched:
                if acc[i] % p:
                    return False
                acc[i] = 0
    return True


class ChainComplex:
    """Graded dimensions with exact boundary matrices, truncated at a cap.

    direction == "homology":   maps[n] : C_n -> C_{n-1}   (n = 1..cap)
    direction == "cohomology": maps[n] : C_{n-1} -> C_n   (n = 1..cap)
    maps[0] is always None.  Construction checks d o d = 0 (check_square_zero),
    so every complex that exists has passed it.
    """

    def __init__(self, field, dims: list[int], maps: list, direction: str = HOMOLOGY):
        if direction not in (HOMOLOGY, COHOMOLOGY):
            raise ValueError(f"bad direction {direction!r}")
        if len(maps) != len(dims):
            raise ValueError("need one map slot per degree (maps[0] unused)")
        self.field = field
        self.dims = list(dims)
        self.maps = list(maps)
        self.direction = direction
        self.cap = len(dims) - 1
        for n in range(1, self.cap + 1):
            m = maps[n]
            lo, hi = dims[n - 1], dims[n]
            expect = (lo, hi) if direction == HOMOLOGY else (hi, lo)
            if (m.nrows, m.ncols) != expect:
                raise ValueError(f"map {n} has shape {(m.nrows, m.ncols)}, expected {expect}")
        self.check_square_zero()

    def check_square_zero(self) -> None:
        """d o d = 0, one column at a time: no product matrix is built, and the
        first nonzero image raises.  Each image is summed raw into one list
        of then.nrows entries per pair of maps (ints, and rationals where an
        entry is one); over F_p a touched sum that is not 0 is tested mod p."""
        p = self.field.p if self.field.kind == "Fp" else None
        for n in range(1, self.cap):
            first, then = self.maps[n + 1], self.maps[n]
            if self.direction == COHOMOLOGY:
                first, then = then, first
            if not _composites_vanish(first.cols, then.cols, then.nrows, p):
                raise BoundaryNotSquareZero(n + 1)

    def outgoing(self, n: int) -> ExactMatrix | None:
        """The differential leaving degree n (None when it is the zero edge map)."""
        if self.direction == HOMOLOGY:
            return self.maps[n] if n >= 1 else None
        return self.maps[n + 1] if n + 1 <= self.cap else None

    def incoming(self, n: int) -> ExactMatrix | None:
        """The differential arriving at degree n."""
        if self.direction == HOMOLOGY:
            return self.maps[n + 1] if n + 1 <= self.cap else None
        return self.maps[n] if n >= 1 else None


def homology_dims(c: ChainComplex) -> list[int]:
    """dim H_n for n = 0..cap-1 (the cap degree is untrusted and not reported).

    maps[n] joins degrees n - 1 and n in either direction, so
    dim H_n = dims[n] - rank maps[n] - rank maps[n + 1].  Each map is reduced
    once, upward as U_n : C_{n-1} -> C_n (the transpose of a homology map),
    in increasing n, leaving out the columns that the previous reduction
    clears.  Clearing lemma: let (i, j) be a pivot pair of U_n.  The reduced
    column R_j = U_n V_j has its low at i, and U_{n+1} R_j = 0 since
    d o d = 0, so column i of U_{n+1} is a combination of earlier columns;
    by induction on i, the kept columns up to i span what all columns up to
    i span, and the rank is unchanged; c passed the d o d = 0 check when it
    was made.  The top map's pivots clear nothing, so it is ranked with
    ExactMatrix.rank.
    """
    ranks = [0] * (c.cap + 2)
    cleared: set = set()
    for n in range(1, c.cap + 1):
        up = c.maps[n].transpose() if c.direction == HOMOLOGY else c.maps[n]
        # the kept columns share their dicts; the reduction copies each one
        kept = [col for i, col in enumerate(up.cols) if i not in cleared]
        up = ExactMatrix(c.field, up.nrows, len(kept), kept)
        if n == c.cap:
            ranks[n] = up.rank()
        else:
            pairs = up.pivot_pairs()
            ranks[n] = len(pairs)
            cleared = {low for low, _ in pairs}
    return [c.dims[n] - ranks[n] - ranks[n + 1] for n in range(c.cap)]


class HomologyLift:
    """Representatives of a basis of H_n, and the solver that lifts maps to H_n.

    One reduction of [boundary basis | cycle basis] does both.  Deterministic:
    the representatives are the cycle-basis columns among its pivot columns
    (SpanSolver.pairs).  A column is a pivot exactly when it is outside the
    span of the columns before it, so they are independent modulo boundaries
    and span the cycles with them.
    """

    def __init__(self, c: ChainComplex, n: int):
        self.complex = c
        self.n = n
        field, dim = c.field, c.dims[n]
        og, inc = c.outgoing(n), c.incoming(n)
        cycles = og.kernel_basis() if og is not None else ExactMatrix.identity(field, dim)
        bounds = inc.column_space_basis() if inc is not None else ExactMatrix.zeros(field, dim, 0)
        nb = bounds.ncols
        self._solver = SpanSolver(ExactMatrix.hstack([bounds, cycles]))
        self._kept = [j for _, j in self._solver.pairs if j >= nb]
        self.reps = ExactMatrix.from_columns(field, dim, [cycles.cols[j - nb] for j in self._kept])
        self.rank = self.reps.ncols

    def induced(self, chain_map: ExactMatrix) -> ExactMatrix:
        """Matrix induced on H_n by a chain map given at degree n.

        Lifts through the chosen representatives: solve image =
        boundaries*y + reps*x on the pivot columns, where the solution is
        unique, and keep x.  The solve is consistent exactly because the
        input is a chain map and the representatives are cycles.
        """
        field = self.complex.field
        cols = []
        for j in range(self.rank):
            image = chain_map.apply(self.reps.cols[j])
            coords = self._solver.coordinates(image)
            if coords is None:
                raise ValueError(
                    f"map does not preserve cycles mod boundaries at degree {self.n}"
                )
            cols.append(
                {i: coords[k] for i, k in enumerate(self._kept) if not field.is_zero(coords[k])}
            )
        return ExactMatrix(field, self.rank, self.rank, cols)


class FilteredComplex:
    """A complex plus a filtration spanned by basis vectors.

    levels[n][j] >= 0 is the level of coordinate j in degree n.  For homology
    F_p = {level <= p} increases with p, for cohomology F^p = {level >= p}
    decreases; either way the levels are nested and reach the full space.
    """

    def __init__(self, complex: ChainComplex, levels: list):
        if len(levels) != complex.cap + 1:
            raise ValueError("need a level list per degree")
        self.complex = complex
        self.levels = levels
        # counts[n][p]: the number of degree-n coordinates at level p
        self._counts = []
        for n, per_degree in enumerate(self.levels):
            if len(per_degree) != complex.dims[n]:
                raise ValueError(f"need one level per coordinate at degree {n}")
            if any(lv < 0 for lv in per_degree):
                raise ValueError(f"negative filtration level at degree {n}")
            counts = [0] * (max(per_degree, default=0) + 1)
            for lv in per_degree:
                counts[lv] += 1
            self._counts.append(counts)
        # d lowers the filtration index (homology) or raises it (cohomology)
        self._down = 1 if complex.direction == HOMOLOGY else -1
        self._pairs = cache(self._pivot_pairs)

    def top_level(self, n: int) -> int:
        """The largest level present at degree n; pages are constant past it."""
        return len(self._counts[n]) - 1

    def verify(self) -> Report:
        """Exact check that every differential respects the filtration: each
        entry of d leaves a coordinate for one at no higher level (homology),
        no lower level (cohomology)."""
        report = Report("filtration compatibility")
        c = self.complex
        for n in range(c.cap + 1):
            og = c.outgoing(n)
            if og is None:
                continue
            src, tgt = self.levels[n], self.levels[n - self._down]
            for j, col in enumerate(og.cols):
                for i in col:
                    ok = self._down * (src[j] - tgt[i]) >= 0
                    report.record(ok, "boundary-preserves-filtration", (n, j, i))
        return report

    # page arithmetic --------------------------------------------------------
    def _size(self, n: int, p: int) -> int:
        """|F_p| at degree n (0 outside the degree range)."""
        if not 0 <= n <= self.complex.cap:
            return 0
        counts = self._counts[n]
        if self._down == 1:
            return sum(counts[:max(p + 1, 0)])
        return sum(counts[max(p, 0):])

    def _level_order(self, n: int) -> list[int]:
        """Degree-n coordinates stably sorted so that every level is a prefix."""
        levels = self.levels[n]
        return sorted(range(len(levels)), key=levels.__getitem__, reverse=self._down == -1)

    def _pivot_pairs(self, n: int) -> list:
        """The pivot pairs (low, j) of the map D leaving degree n, in level
        order and increasing j: those of the left-to-right reduction of D.
        Read through _pairs, which finds them once per n and keeps them (the
        reduced columns are not kept).

        One upward reduction per map, cleared by the map below B (_pairs(n - 1),
        in level order too).  Clearing lemma, in level order: let (i, j) be a
        pivot pair of B, with D B = 0.  The reduced column R_j, a combination
        of B's columns up to j, has its low at i, and D R_j = 0, so column i of
        D is a combination of its earlier columns: it would reduce to zero and
        leave no pair, and the pairs are the same without it.  Every
        ChainComplex passed d o d = 0 when it was made, so the lemma applies.

        Cochains: D itself is reduced, without its columns at the lows of B.
        Chains: D (m x k) is reduced as its anti-transpose A (k x m, with
        A[k-1-c, m-1-r] = D[r, c]: the transpose with both level orders
        reversed).  rank D[rows >= a, cols < b] = rank A[rows >= k - b,
        cols < m - a] for all a, b, and the pairs are fixed by these ranks, so
        a pair (i', j') of A is the pair (m-1-j', k-1-i') of D.  Here B D = 0,
        so A times the anti-transpose of B is 0, and B's pair (i, j) is a pair
        of that anti-transpose with low m-1-j: it clears A's column m-1-j.
        """
        og = self.complex.outgoing(n) if 0 <= n <= self.complex.cap else None
        if og is None:
            return []
        below = self._pairs(n - 1)
        at = {i: k for k, i in enumerate(self._level_order(n - self._down))}
        src = self._level_order(n)
        if self._down == -1:
            cleared = {low for low, _ in below}
            kept = [c for c in range(len(src)) if c not in cleared]
            cols = [{at[i]: v for i, v in og.cols[src[c]].items()} for c in kept]
            pairs = ExactMatrix(og.field, og.nrows, len(kept), cols).pivot_pairs()
            return [(low, kept[j]) for low, j in pairs]
        m, k = og.nrows, og.ncols
        anti = [{} for _ in range(m)]
        for c, j in enumerate(src):
            for i, v in og.cols[j].items():
                anti[m - 1 - at[i]][k - 1 - c] = v
        cleared = {m - 1 - j for _, j in below}
        kept = [c for c in range(m) if c not in cleared]
        pairs = ExactMatrix(og.field, k, len(kept), [anti[c] for c in kept]).pivot_pairs()
        # A's lows are distinct; descending, they are D's columns ascending
        return [(m - 1 - kept[j], k - 1 - low) for low, j in sorted(pairs, reverse=True)]

    def _rank(self, n: int, a: int, b: int) -> int:
        """rank of the map leaving degree n on [rows >= a, cols < b], in level order.

        By the pairing lemma, the number of pivot pairs in that lower-left
        block.
        """
        return sum(1 for low, j in self._pairs(n) if low >= a and j < b)

    def page_cell_dim(self, r: int, p: int, q: int) -> int:
        """dim of the page-r cell at filtration index p, complementary index q."""
        n = p + q
        if n < 0 or n > self.complex.cap or p < 0:
            return 0
        down, size = self._down, self._size
        if r == 0:
            return size(n, p) - size(n, p - down)

        def cycles(p, r):  # dim Z(p, r) = dim {x in F_p : dx in F_{p - down r}}
            b = size(n, p)
            return b - self._rank(n, size(n - down, p - down * r), b)

        def boundaries(s, t):  # dim (d F_s(n + down) cap F_t(n))
            b = size(n + down, s)
            return self._rank(n + down, 0, b) - self._rank(n + down, size(n, t), b)

        s = p + down * (r - 1)
        return cycles(p, r) - cycles(p - down, r - 1) - boundaries(s, p) + boundaries(s, p - down)


class SpectralPage:
    """One page of a spectral sequence as a table of exact dimensions.

    table maps (filtration index, complementary index) to the cell dimension;
    cells outside the trusted window (total degree <= window = cap - 1) are
    absent.
    """

    def __init__(self, r: int, table: dict, window: int, direction: str):
        self.r = r
        self.table = dict(table)
        self.window = window
        self.direction = direction

    def cell(self, p: int, q: int) -> int:
        return self.table.get((p, q), 0)

    def antidiagonal_sum(self, n: int) -> int:
        return sum(v for (p, q), v in self.table.items() if p + q == n)

    def as_dict(self):
        return {
            "page": self.r,
            "window": self.window,
            "direction": self.direction,
            "cells": {f"{p},{q}": v for (p, q), v in sorted(self.table.items())},
        }

    def __eq__(self, other):
        if not isinstance(other, SpectralPage):
            return NotImplemented
        keys = set(self.table) | set(other.table)
        return self.r == other.r and all(self.cell(*k) == other.cell(*k) for k in keys)

    __hash__ = None

    def __repr__(self):
        return f"SpectralPage(r={self.r}, window={self.window}, cells={len(self.table)})"


def spectral_page(fc: FilteredComplex, r: int) -> SpectralPage:
    """Page r of the filtered complex over the trusted total degrees <= cap - 1."""
    c = fc.complex
    window = c.cap - 1
    table = {}
    for n in range(window + 1):
        for p in range(fc.top_level(n) + 1):
            # q = n - p may be negative for filtrations not aligned with degree
            d = fc.page_cell_dim(r, p, n - p)
            if d:
                table[(p, n - p)] = d
    return SpectralPage(r, table, window, c.direction)


def stable_page_number(fc: FilteredComplex) -> int:
    """A page number r with E^r = E^infinity.

    With a bounded filtration every differential on page r is zero once r
    exceeds the largest filtration level (its source or target falls outside
    the filtration range), so the pages are constant from max_level + 1 on.
    """
    c = fc.complex
    max_level = max(fc.top_level(n) for n in range(c.cap + 1))
    return max_level + 1


def infinity_page(fc: FilteredComplex) -> SpectralPage:
    r = stable_page_number(fc)
    page = spectral_page(fc, r)
    nxt = spectral_page(fc, r + 1)
    if page.table != nxt.table:
        raise AssertionError("page did not stabilize at the structural bound")
    return page


def check_convergence(fc: FilteredComplex, total_homology: list[int] | None = None) -> Report:
    """E^infinity antidiagonal sums against the homology of the total complex."""
    report = Report("spectral convergence")
    if total_homology is None:
        total_homology = homology_dims(fc.complex)
    einf = infinity_page(fc)
    for n in range(einf.window + 1):
        got = einf.antidiagonal_sum(n)
        want = total_homology[n]
        report.record(
            got == want,
            "antidiagonal-sum",
            (n,),
            f"sum over page cells = {got}, homology dim = {want}",
        )
    return report
