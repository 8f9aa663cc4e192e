"""The comparison certificates on bimodule generators: b' as a generator table,
the bimodule-extension certificate, and the full-basis reference sweeps."""

import json

import pytest

from comparison_reference import (
    bprime_reference,
    comparison_identities_reference,
    filtration_reference,
)
from conftest import BUILTIN_BUILDERS, Q
from hopfcross import cli
from hopfcross.comparison import (
    BarCalculus,
    build_comparison,
    check_bar_square_zero,
    check_bimodule_extension,
    check_comparison_identities,
    check_filtration_preservation,
)
from hopfcross.problems import BUILTIN_NAMES
from hopfcross.resolution import FreeBimoduleSpace, build_resolution_closed
from hopfcross.tensors import keyed_add_into


def _comparison(name, upto):
    cp = BUILTIN_BUILDERS[name](Q)
    res = build_resolution_closed(cp, upto + 1)
    return build_comparison(res, BarCalculus(cp, upto + 2), upto)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_bprime_table_equals_the_explicit_faces(name):
    bar = BarCalculus(BUILTIN_BUILDERS[name](Q), 3)
    for n in range(1, 4):
        for idx in range(bar.spaces[n].dim):
            gen = {idx: Q.one}
            assert bar.bprime(n, gen) == bprime_reference(bar, n, gen), (n, idx)


@pytest.mark.parametrize("name", ["klein_four", "z4_as_cocycle_extension", "s3_as_action_extension"])
def test_generator_certificate_agrees_with_the_full_sweep(name):
    cmp_maps = _comparison(name, 3)
    assert check_bimodule_extension(cmp_maps).passed
    for generators, full in (
        (check_comparison_identities, comparison_identities_reference),
        (check_filtration_preservation, filtration_reference),
    ):
        gen_report, full_report = generators(cmp_maps), full(cmp_maps)
        assert gen_report.passed and full_report.passed, name
        assert gen_report.checks_run < full_report.checks_run
    # a broken psi generator image fails both sweeps alike
    cmp_maps.psi[1][0] = {}
    assert not check_comparison_identities(cmp_maps).passed
    assert not comparison_identities_reference(cmp_maps).passed


def test_right_mult_on_the_wrong_side_fails_the_extension_certificate(monkeypatch, tmp_path):
    def wrong_side(self, vec, e_idx):
        field, mult = self.cp.field, self.cp.e.mult
        out: dict = {}
        for flat, c in vec.items():
            e_left, mid, e_right = self.split(flat)
            for e2, c2 in mult[e_idx][e_right].items():
                keyed_add_into(out, self.combine(e_left, mid, e2), field.mul(c, c2), field)
        return out

    monkeypatch.setattr(FreeBimoduleSpace, "right_mult", wrong_side)
    path = tmp_path / "doc.json"
    code = cli.main(["resolution-check", "s3_as_action_extension", "--max-degree", "1",
                     "--output", str(path)])
    section = json.loads(path.read_text())["sections"]["bimodule_extension"]
    assert code == 1
    assert not section["passed"]
    assert "right-action" in {f["check"] for f in section["failures"]}


def test_corrupted_bprime_generator_is_caught():
    cmp_maps = _comparison("klein_four", 2)
    bar = cmp_maps.bar
    assert check_bar_square_zero(bar, 3).passed
    # the shared table entry the checks read: already built, so a cache hit
    hits = bar._bprime_generator.cache_info().hits
    image = bar._bprime_generator(2, 0)
    assert bar._bprime_generator.cache_info().hits == hits + 1
    for k, v in list(image.items()):
        image[k] = Q.neg(v)
    assert not check_comparison_identities(cmp_maps).passed
    assert not check_bar_square_zero(bar, 3).passed
