"""Spectral pages from pivot pairs against the brute-force subquotient reference."""

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfcross.complexes import (
    COHOMOLOGY,
    HOMOLOGY,
    ChainComplex,
    FilteredComplex,
    check_convergence,
    infinity_page,
    spectral_page,
    stable_page_number,
)
from hopfcross.crossed import regular_bimodule
from hopfcross.fields import FieldSpec
from hopfcross.linalg import ExactMatrix, vec_add_into
from hopfcross.problems import BUILTIN_NAMES
from hopfcross.reduced_complexes import ReducedComplexes
from filtered_bar import hochschild_chain_filtered, hochschild_cochain_filtered
from spectral_reference import reference_page, select_columns

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def _killed_column(draw, field, next_map, allowed):
    """A random vector on the `allowed` coordinates that next_map sends to 0."""
    if next_map is None:
        basis = [{i: field.one} for i in allowed]
    else:
        kernel = select_columns(next_map, allowed).kernel_basis()
        basis = [{allowed[i]: v for i, v in k.items()} for k in kernel.cols]
    col: dict = {}
    for b in basis:
        vec_add_into(col, b, field.scalar(draw(st.integers(-2, 2))), field)
    return col


@st.composite
def filtered_complexes(draw):
    """d o d = 0 and d(F_p) in F_p, with each coordinate at a random level."""
    field = draw(st.sampled_from([Q, F5]))
    homology = draw(st.booleans())
    cap = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(0, 4), min_size=cap + 1, max_size=cap + 1))
    level_of = []
    for d in dims:
        top = draw(st.integers(0, 3))
        level_of.append(draw(st.lists(st.integers(0, top), min_size=d, max_size=d)))
    maps = [None] * (cap + 1)
    # build each map after the one leaving its target degree, so d o d = 0 holds
    order = range(1, cap + 1) if homology else range(cap, 0, -1)
    for n in order:
        src, tgt = (n, n - 1) if homology else (n - 1, n)
        nxt = None
        if homology and tgt >= 1:
            nxt = maps[tgt]
        elif not homology and tgt < cap:
            nxt = maps[tgt + 1]
        cols = []
        for j in range(dims[src]):
            lv = level_of[src][j]
            allowed = [i for i, t in enumerate(level_of[tgt]) if (t <= lv if homology else t >= lv)]
            cols.append(_killed_column(draw, field, nxt, allowed))
        maps[n] = ExactMatrix(field, dims[tgt], dims[src], cols)
    cx = ChainComplex(field, dims, maps, HOMOLOGY if homology else COHOMOLOGY)
    return FilteredComplex(cx, level_of)


def _assert_pages_match(fc, pages):
    for r in pages:
        assert spectral_page(fc, r).table == reference_page(fc, r), r


@settings(max_examples=150, deadline=None)
@given(fc=filtered_complexes())
def test_pages_match_reference_on_random_filtered_complexes(fc):
    fc.complex.check_square_zero()
    assert fc.verify().passed
    _assert_pages_match(fc, range(stable_page_number(fc) + 2))
    assert check_convergence(fc).passed


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pages_match_reference_on_builtins(name, crossed_products):
    cap = 3
    cp = crossed_products[name]
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, cap)
    for fc in (rc.reduced_chain_complex(), rc.reduced_cochain_complex(),
               rc.untwisted_chain_complex(), rc.untwisted_cochain_complex()):
        _assert_pages_match(fc, range(stable_page_number(fc) + 2))
    # the bar levels are scattered coordinate sets
    for fc in (hochschild_chain_filtered(cp, m, cap), hochschild_cochain_filtered(cp, m, cap)):
        _assert_pages_match(fc, range(1, 4))


def test_page_sweep_reduces_each_map_once(monkeypatch, crossed_products):
    cp = crossed_products["klein_four"]
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, 4)
    fcs = [rc.reduced_chain_complex(), rc.untwisted_cochain_complex(),
           hochschild_chain_filtered(cp, m, 3)]
    # maps[n] is reduced with the map's rows (cochains) or columns (chains) as
    # rows, and its other side less the columns that maps[n - 1] clears
    expected = []
    for fc in fcs:
        c = fc.complex
        ranks = [0] + [d.rank() for d in c.maps[1:]]
        expected.append(Counter(
            (d.nrows, d.ncols - ranks[n - 1]) if c.direction == COHOMOLOGY
            else (d.ncols, d.nrows - ranks[n - 1])
            for n, d in enumerate(c.maps) if n))
    shapes = []
    echelon = ExactMatrix._echelon

    def counted(self, track_combos):
        shapes.append((self.nrows, self.ncols))
        return echelon(self, track_combos)

    def refused(self):
        raise AssertionError("page code built a subspace basis")

    monkeypatch.setattr(ExactMatrix, "_echelon", counted)
    monkeypatch.setattr(ExactMatrix, "kernel_basis", refused)
    monkeypatch.setattr(ExactMatrix, "column_space_basis", refused)
    for fc, allowed in zip(fcs, expected):
        shapes.clear()
        for r in range(stable_page_number(fc) + 2):
            spectral_page(fc, r)
        infinity_page(fc)
        # each map at most once, cleared, as itself or as its anti-transpose
        assert Counter(shapes) <= allowed


@pytest.mark.parametrize("name", ["trivial", "z2_trivial"])
def test_stable_page_reads_the_largest_level_present(name, crossed_products):
    # empty top blocks put the largest level present below the full range:
    # every H-leg block of `trivial` is empty, and so is level n + 1 of the
    # bar cochain oracle in degree n; the infinity page is still the page
    # past the full range
    cap = 4
    cp = crossed_products[name]
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, cap)
    fcs = [rc.reduced_chain_complex(), rc.reduced_cochain_complex(),
           rc.untwisted_chain_complex(), rc.untwisted_cochain_complex(),
           hochschild_chain_filtered(cp, m, cap), hochschild_cochain_filtered(cp, m, cap)]
    # one past the full level range: levels 0..n in degree n (0..n+1 for the bar cochains)
    past_full = [cap + 1] * 5 + [cap + 2]
    assert any(stable_page_number(fc) < r for fc, r in zip(fcs, past_full))
    for fc, r in zip(fcs, past_full):
        einf = infinity_page(fc)
        assert einf.table == spectral_page(fc, r).table == reference_page(fc, r)
        assert check_convergence(fc).passed


def test_spectral_reference_reads_the_level_lists_itself():
    tree = ast.parse(Path(__file__).with_name("spectral_reference.py").read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == {("hopfcross.complexes", "HOMOLOGY"), ("hopfcross.linalg", "ExactMatrix")}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "fc"}
    assert read == {"complex", "levels"}
