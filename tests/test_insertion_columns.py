"""The on-demand insertion columns of hopfcross.twisting against the full-basis
reference matrices (tests/insertion_reference.py), and the work they save."""

from collections import Counter

import pytest

import hopfcross.hopf as hopf
import hopfcross.twisting as twisting
from hopfcross.cli import main
from hopfcross.fields import FieldSpec
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import _reduced_mid_space
from hopfcross.tensors import TensorSpace, mid_key
from insertion_reference import ReferenceInsertion

Q = FieldSpec.rationals()

CASES = [(name, 4, "q") for name in BUILTIN_NAMES] + [(name, 4, "fp:5") for name in BUILTIN_NAMES] + [
    ("s3_as_action_extension", 5, "q"), ("klein_four", 5, "q"), ("z4_as_cocycle_extension", 5, "q"),
    ("sweedler_smash", 5, "q"),
]


def _reach_all_columns(cp, cap):
    """Call TwistingCalculus.insertion_column on every tuple its readers pass for
    l >= 2 (the closed d^l and both displayed formulas), so the full columns are
    built even where the readers skip them because f takes values in k.1."""
    calc = twisting.TwistingCalculus(cp)
    for n in range(cap + 1):
        for s in range(2, n + 1):
            r = n - s
            mids = _reduced_mid_space(cp, r, s)
            for mid in range(mids.size):
                key = mid_key(mids.dims, mid)
                hs, avs = key[:s], key[s:]
                for l in range(2, s + 1):
                    for count, start in ((2, 0), (3, 1)):
                        for comps in hopf.sweedler_legs(cp.h, hs[s - l :], count):
                            calc.insertion_column(l, r, comps[start::count], avs)
    return calc


@pytest.mark.parametrize("name,cap,field", CASES, ids=[f"{n}-cap{c}-{f}" for n, c, f in CASES])
def test_every_reached_column_matches_the_reference(name, cap, field, monkeypatch):
    cp = builtin(name, field=FieldSpec.parse(field)).crossed_product()
    built = {}
    column = twisting.TwistingCalculus._insertion_column

    def recorded(self, l, r, h_tuple, a_tuple):
        built[(h_tuple, a_tuple)] = col = column(self, l, r, h_tuple, a_tuple)
        return col

    monkeypatch.setattr(twisting.TwistingCalculus, "_insertion_column", recorded)
    calc = _reach_all_columns(cp, cap)
    # every column is built once, the recursive ones included
    assert calc.insertion_column.cache_info().currsize == len(built)
    ref = ReferenceInsertion(cp)
    nh, na = cp.h.dim, cp.a.dim
    levels = Counter(len(h_tuple) for h_tuple, _ in built)
    # with H = k there is no normalized H leg, so no d^l with l >= 2
    assert (levels[1] and levels[2]) or cp.h.dim == 1, levels
    for (h_tuple, a_tuple), col in built.items():
        l, r = len(h_tuple), len(a_tuple)
        flat = TensorSpace((nh,) * l + (na,) * r).index(h_tuple + a_tuple)
        assert col == ref.insertion_matrix(l, r).cols[flat], (h_tuple, a_tuple)


def test_columns_are_built_on_demand(monkeypatch, tmp_path):
    """homology at cap 4 builds fewer F columns than the full bases of the
    F^(l)_r it touches, and expands each Delta^(n)(h) once (in the Hopf
    algebra's comult_power table, which the calculus reads)."""
    built = []
    expansions = Counter()
    column = twisting.TwistingCalculus._insertion_column
    expand = hopf.expand_leg

    def counting_column(self, l, r, h_tuple, a_tuple, *rest):
        built.append((l, r))
        return column(self, l, r, h_tuple, a_tuple, *rest)

    def counting_expand(elem, pos, comult, count, field):
        if all(len(key) == 1 for key in elem):  # a comult_power, not a verify_hopf check
            expansions[(count, tuple(elem.items()))] += 1
        return expand(elem, pos, comult, count, field)

    cp = builtin("z4_as_cocycle_extension", field=Q).crossed_product()
    monkeypatch.setattr(twisting.TwistingCalculus, "_insertion_column", counting_column)
    monkeypatch.setattr(hopf, "expand_leg", counting_expand)
    out = tmp_path / "doc.json"
    assert main(["homology", "z4_as_cocycle_extension", "--cap", "4", "--output", str(out)]) == 0
    full = sum(cp.h.dim ** l * cp.a.dim ** r for l, r in set(built))
    assert any(l >= 2 for l, _ in built)
    assert 0 < len(built) < full, (len(built), full)
    assert expansions and set(expansions.values()) == {1}, expansions


@pytest.mark.parametrize("name,built", [("sweedler_smash", 0), ("z4_as_cocycle_extension", 19)])
def test_scalar_cocycle_builds_no_column(name, built, monkeypatch, tmp_path):
    """homology at cap 4 builds no insertion column when f takes values in k.1
    (sweedler_smash: 444 without the shortcut), and the same ones otherwise."""
    calls = []
    column = twisting.TwistingCalculus._insertion_column

    def counting_column(self, *args):
        calls.append(args)
        return column(self, *args)

    monkeypatch.setattr(twisting.TwistingCalculus, "_insertion_column", counting_column)
    out = tmp_path / "doc.json"
    assert main(["homology", name, "--cap", "4", "--output", str(out)]) == 0
    assert len(calls) == built
