"""Chain/cochain complexes, filtered complexes, spectral-sequence pages.

Complexes are truncated at a degree cap; homology at the cap degree is never
reported because the incoming boundary there is unknown.

Every filtration in this package is spanned by basis vectors, so it is stored
as one level per coordinate, and its pages are read off a barcode.  The pages
read each map upward, as U_n : C_{n-1} -> C_n (ChainComplex.up): maps[n] for
cochains, its transpose for chains.  Chains are filtered by F_p = {level <= p}
and cochains by F^p = {level >= p}, so either way every entry of U_n raises a
level or keeps it, and a chain complex's pages are those of its transposed
cochain complex with the same levels (the pairing duality of de Silva, Morozov
and Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).  Each
degree's coordinates are stably sorted by descending level, so every level is
a prefix, and the level-order reduction of U_n pairs coordinates
(ExactMatrix.pivot_pairs; the pairing of Edelsbrunner and Harer,
"Computational Topology", 2010).  A pair joining a row at level a to a column
at level b has length L = a - b >= 0; d^L kills its two ends together, so

    dim E_r^{p, n-p} = #(degree-n coordinates at level p)
                       - #(pairs with an end at degree n, level p, L < r)

(Basu and Parida, "Spectral sequences, exact couples and persistent homology
of filtrations", Expo. Math. 35, 2017).  There are no homotopy-theoretic
shortcuts.  The pairs are found by one upward reduction per map, cleared by
the map below (FilteredComplex._pivot_pairs).

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

    def up(self, n: int) -> ExactMatrix | None:
        """U_n : C_{n-1} -> C_n, maps[n] for cochains and its transpose for
        chains (None outside 1..cap); not cached."""
        if not 1 <= n <= self.cap:
            return None
        return self.maps[n] if self.direction == COHOMOLOGY else self.maps[n].transpose()

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
    once, upward as U_n : C_{n-1} -> C_n (ChainComplex.up), in increasing
    n, leaving out the columns that the previous reduction clears.  Clearing
    lemma: let (i, j) be a pivot pair of U_n.  The reduced column
    R_j = U_n V_j has its low at i, and U_{n+1} R_j = 0 since d o d = 0, so
    column i of U_{n+1} is a combination of earlier columns; by induction on
    i, the kept columns up to i span what all columns up to i span, and the
    rank is unchanged; c passed the d o d = 0 check when it was made.  The
    top map's pivots clear nothing, so it is ranked with ExactMatrix.rank.
    """
    ranks = [0] * (c.cap + 2)
    cleared: set = set()
    for n in range(1, c.cap + 1):
        up = c.up(n)
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
        self._solver = SpanSolver(ExactMatrix(field, dim, nb + cycles.ncols, bounds.cols + cycles.cols))
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
        self._pairs = cache(self._pivot_pairs)
        self._ends = cache(self._pair_ends)

    def top_level(self, n: int) -> int:
        """The largest level present at degree n; pages are constant past it."""
        return len(self._counts[n]) - 1

    def verify(self) -> Report:
        """Exact check that every differential respects the filtration: each
        entry of U_n leaves a column for a row at no lower level.  A witness
        (n, j, i) is column j and row i of U_n."""
        report = Report("filtration compatibility")
        c = self.complex
        for n in range(1, c.cap + 1):
            rows, cols = self.levels[n], self.levels[n - 1]
            for j, col in enumerate(c.up(n).cols):
                for i in col:
                    report.record(rows[i] >= cols[j], "boundary-preserves-filtration", (n, j, i))
        return report

    # page arithmetic --------------------------------------------------------
    def _level_order(self, n: int) -> list[int]:
        """Degree-n coordinates stably sorted by descending level, so that
        every level is a prefix."""
        levels = self.levels[n]
        return sorted(range(len(levels)), key=levels.__getitem__, reverse=True)

    def _pivot_pairs(self, n: int) -> list:
        """The pivot pairs (low, j) of U_n, in level order and increasing j:
        those of its left-to-right reduction.  Read through _pairs, which
        finds them once per n and keeps them (the reduced columns are not
        kept).

        One upward reduction per map, without U_n's columns at the lows of
        U_{n-1} (_pairs(n - 1), in level order too).  Clearing lemma, in level
        order: let (i, j) be a pivot pair of U_{n-1}, with U_n U_{n-1} = 0.
        The reduced column R_j, a combination of U_{n-1}'s columns up to j,
        has its low at i, and U_n R_j = 0, so column i of U_n is a combination
        of its earlier columns: it would reduce to zero and leave no pair, and
        the pairs are the same without it.  Every ChainComplex passed
        d o d = 0 when it was made, so the lemma applies.
        """
        up = self.complex.up(n)
        if up is None:
            return []
        cleared = {low for low, _ in self._pairs(n - 1)}
        at = {i: k for k, i in enumerate(self._level_order(n))}
        src = self._level_order(n - 1)
        kept = [c for c in range(len(src)) if c not in cleared]
        cols = [{at[i]: v for i, v in up.cols[src[c]].items()} for c in kept]
        pairs = ExactMatrix(up.field, up.nrows, len(kept), cols).pivot_pairs()
        return [(low, kept[j]) for low, j in pairs]

    def _pair_ends(self, n: int) -> list:
        """ends[p]: the lengths of the pivot pairs with an end at degree n, level p.
        Read through _ends, which builds it once per n.

        A pair (i, j) of U_m joins row i of degree m, at level a, to column j
        of degree m - 1, at level b; both are level-order positions, so a and
        b are read off the sorted level lists.  Its length is a - b >= 0.
        Degree n holds the rows of U_n and the columns of U_{n+1}.
        """
        ends = [[] for _ in self._counts[n]]
        for m in (n, n + 1):
            pairs = self._pairs(m)
            if not pairs:
                continue
            rows, cols = (sorted(self.levels[k], reverse=True) for k in (m, m - 1))
            for i, j in pairs:
                a, b = rows[i], cols[j]
                ends[a if m == n else b].append(a - b)
        return ends

    def page_cell_dim(self, r: int, p: int, q: int) -> int:
        """dim of the page-r cell at filtration index p, complementary index q:
        the degree-n coordinates at level p less the pair ends there of length < r."""
        n = p + q
        if not (0 <= n <= self.complex.cap and 0 <= p <= self.top_level(n)):
            return 0
        return self._counts[n][p] - sum(1 for length in self._ends(n)[p] if length < r)


def cells_json(table: dict) -> dict:
    """A page table {(p, q): dim} as JSON: keys "p,q" in (p, q) order."""
    return {f"{p},{q}": v for (p, q), v in sorted(table.items())}


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
            "cells": cells_json(self.table),
        }

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
