import pytest

from hopfcross.fields import FieldSpec
from hopfcross.algebras import Report, group_algebra
from hopfcross.bar import hochschild_chain_complex
from hopfcross.complexes import homology_dims
from hopfcross.crossed import (
    build_crossed_product,
    dual_bimodule,
    convolution_inverse,
    regular_bimodule,
    restrict_bimodule_to_a,
    tensor_bimodule,
    trivial_action,
    trivial_cocycle,
)
from hopfcross.homology import regular_left_module
from hopfcross.hopf import trivial_hopf
from hopfcross.linalg import ExactMatrix
from hopfcross.problems import builtin
from hopfcross.reduced_complexes import (
    FormulaMismatch,
    ReducedComplexes,
    HActionOnHomology,
    dual_transpose,
)
from hopfcross.resolution import build_resolution_recursive
from hopfcross.twisting import TwistingCalculus
from closed_form_inputs import dual_numbers_tensor_quaternions
from lift_reference import homology_representatives, induced_reference
from placement_reference import untwist_block_reference, untwist_inverse_block_reference
from conftest import (
    BUILTIN_BUILDERS, mat_add, mat_neg, mat_scale, untwist_degree_matrices, z_n_algebra,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def check_chain_maps(act) -> Report:
    """Each conjugation matrix commutes with the boundary of the complex of A."""
    report = Report("conjugation chain maps")
    c = act.complex
    for n in range(1, act.cap):
        for h_idx in range(act.cp.h.dim):
            if act.cochain:
                lhs = act.chain_mats[n][h_idx] @ c.maps[n]
                rhs = c.maps[n] @ act.chain_mats[n - 1][h_idx]
            else:
                lhs = c.maps[n] @ act.chain_mats[n][h_idx]
                rhs = act.chain_mats[n - 1][h_idx] @ c.maps[n]
            report.record(lhs == rhs, "conjugation-chain-map", (n, h_idx))
    return report


def check_module_law(act) -> Report:
    """induced(h) induced(l) = induced(hl) on homology (right action for
    the cochain variant), plus identity at h = 1."""
    report = Report("H-module law on homology")
    field = act.field
    halg = act.cp.h.algebra
    for r in range(act.cap):
        k = act.lifts[r].rank
        ident = ExactMatrix.identity(field, k)
        report.record(act.induced[r][0] == ident, "unit-acts-trivially", (r,))
        for hi in range(act.cp.h.dim):
            for li in range(act.cp.h.dim):
                prod_mat = ExactMatrix.zeros(field, k, k)
                for kk, c in halg.mult[hi][li].items():
                    prod_mat = mat_add(prod_mat, mat_scale(act.induced[r][kk], c))
                if act.cochain:
                    got = act.induced[r][li] @ act.induced[r][hi]
                else:
                    got = act.induced[r][hi] @ act.induced[r][li]
                report.record(got == prod_mat, "module-law", (r, hi, li))
    return report


@pytest.fixture(scope="module")
def cps():
    out = {}
    for name in BUILTIN_BUILDERS:
        field = F2 if name == "z2_trivial" else Q
        cp = BUILTIN_BUILDERS[name](field)
        convolution_inverse(cp)
        out[name] = cp
    return out


def test_iterated_action_element_level(cps):
    cp = cps["sweedler_smash"]
    y = {1: Q.one}
    assert TwistingCalculus(cp).iter_act_vec((), y) == y
    assert TwistingCalculus(cp).iter_act_vec((0, 0), y) == y
    # trivial action consumes through counits
    cp2 = cps["z4_as_cocycle_extension"]
    a = {1: Q.one}
    assert TwistingCalculus(cp2).iter_act_vec((1, 1), a) == a


def test_trivial_hopf_reduces_to_hochschild_complex():
    # H = k: the reduced chain complex is the normalized Hochschild complex of A
    field = Q
    a = z_n_algebra(field, 3)
    h = trivial_hopf(field)
    cp = build_crossed_product(a, h, trivial_action(field, h, a), trivial_cocycle(field, h, a))
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, 3)
    reduced = rc.reduced_chain_complex()
    oracle = hochschild_chain_complex(cp.e, m, 3)
    assert reduced.complex.dims == oracle.dims
    for n in range(1, 4):
        assert reduced.complex.maps[n] == oracle.maps[n], n


def test_untwisting_is_iso_and_chain_map(cps):
    for name, cp in cps.items():
        m = regular_bimodule(cp.e)
        rc = ReducedComplexes(cp, m, 3)
        untwists = untwist_degree_matrices(rc)
        reduced = rc.reduced_chain_complex()
        over = rc.untwisted_chain_complex()
        for n in range(4):
            th, thinv = untwists[n]
            dim = reduced.complex.dims[n]
            assert th @ thinv == ExactMatrix.identity(cp.field, dim), (name, n)
            assert thinv @ th == ExactMatrix.identity(cp.field, dim), (name, n)
        for n in range(1, 4):
            th_t, _ = untwists[n - 1]
            th_s, _ = untwists[n]
            assert th_t @ reduced.complex.maps[n] == over.complex.maps[n] @ th_s, (name, n)


def test_untwisted_tables_built_once_and_shared(cps, monkeypatch):
    # one twisted-generator table per (l, r, s), read by the chains on M and
    # by the cochain mirror on M^v
    import hopfcross.reduced_complexes as rcmod

    original = rcmod.TwistedBasis.generator_table
    calls = []

    def counted(self, l, r, s):
        calls.append((l, r, s))
        return original(self, l, r, s)

    monkeypatch.setattr(rcmod.TwistedBasis, "generator_table", counted)
    for name in ("klein_four", "z4_as_cocycle_extension"):
        cp = cps[name]
        rc = ReducedComplexes(cp, regular_bimodule(cp.e), 4)
        rc.untwisted_chain_complex()
        chain_calls = list(calls)
        rc.untwisted_cochain_complex()
        assert chain_calls and calls == chain_calls, name
        assert len(calls) == len(set(calls)), name
        # the blocks the assembly skips (TwistingCalculus.inserts) get no table
        assert {l for l, _, _ in calls} == ({0, 1, 2, 3, 4} if name.startswith("z4") else {0, 1}), name
        calls.clear()


def test_untwisting_cochain_is_iso(cps):
    for name in ("z4_as_cocycle_extension", "sweedler_smash"):
        cp = cps[name]
        m = regular_bimodule(cp.e)
        for (r, s) in [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)]:
            t = dual_transpose(untwist_block_reference(cp, dual_bimodule(m), r, s), m.dim)
            tinv = dual_transpose(untwist_inverse_block_reference(cp, dual_bimodule(m), r, s), m.dim)
            assert t @ tinv == ExactMatrix.identity(cp.field, t.nrows), (name, r, s)
            assert tinv @ t == ExactMatrix.identity(cp.field, t.nrows), (name, r, s)


def _scalar_valued(cocycle) -> bool:
    """True when every cocycle value lies in k*1_A."""
    return all(set(cell) <= {0} for row in cocycle.f for cell in row)


def test_scalar_cocycle_vanishing_and_negative_control(cps):
    # k.1-valued cocycles: every block with l >= 2 vanishes.  The blocks are
    # derived from the recursive resolution, which reads no insertion column,
    # so the closed construction's decision to build no such block is not
    # what is checked; each is also compared with its displayed formula.
    scalar = [(name, cps[name]) for name in
              ("z2_trivial", "s3_as_action_extension", "klein_four", "sweedler_smash")]
    scalar.append(("dual_quaternions", dual_numbers_tensor_quaternions(Q)))
    for name, cp in scalar:
        assert _scalar_valued(cp.cocycle), name
        m = regular_bimodule(cp.e)
        rc = ReducedComplexes(cp, m, 4, res=build_resolution_recursive(cp, 4))
        for s in range(5):
            for r in range(5 - s):
                for l in range(2, s + 1):
                    assert rc.reduced_block(l, r, s).is_zero(), (name, l, r, s)
    # the cyclic-four cocycle takes the value n outside k*1, and its l = 2
    # block is genuinely nonzero
    cp = cps["z4_as_cocycle_extension"]
    assert not _scalar_valued(cp.cocycle)
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, 4, res=build_resolution_recursive(cp, 4))
    assert not rc.reduced_block(2, 0, 2).is_zero()


def test_untwisted_is_double_complex_for_scalar_cocycle(cps):
    # with scalar f the untwisted complex is the total complex of a double
    # complex: all blocks with l >= 2 vanish there too (derived, as above,
    # from the recursive resolution)
    cp = cps["sweedler_smash"]
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, 4, res=build_resolution_recursive(cp, 4))
    for s in range(5):
        for r in range(5 - s):
            for l in range(2, s + 1):
                assert rc.untwisted_block(l, r, s).is_zero(), (l, r, s)
                reduced = rc.reduced_block(l, r, s)
                left = untwist_block_reference(cp, m, r + l - 1, s - l)
                right = untwist_inverse_block_reference(cp, m, r, s)
                assert (left @ reduced @ right).is_zero(), (l, r, s)


def test_h_action_identity_and_law(cps):
    for name in ("z4_as_cocycle_extension", "s3_as_action_extension", "sweedler_smash"):
        cp = cps[name]
        m = regular_bimodule(cp.e)
        act = HActionOnHomology(cp, m, 3)
        assert check_chain_maps(act).passed, name
        assert check_module_law(act).passed, name


def test_h_action_grouplike_symmetric_degree0(cps):
    # group algebra, trivial action and cocycle, M = E symmetric in degree 0:
    # conjugation by central units is the identity
    cp = cps["klein_four"]
    m = regular_bimodule(cp.e)
    act = HActionOnHomology(cp, m, 2)
    k = act.lifts[0].rank
    for h_idx in range(cp.h.dim):
        assert act.induced[0][h_idx] == ExactMatrix.identity(Q, k), h_idx


def test_h_action_cochain_law(cps):
    for name in ("z4_as_cocycle_extension", "sweedler_smash"):
        cp = cps[name]
        m = regular_bimodule(cp.e)
        act = HActionOnHomology(cp, m, 3, cochain=True)
        assert check_chain_maps(act).passed, name
        assert check_module_law(act).passed, name


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", BUILTIN_BUILDERS)
def test_h_action_matches_span_growth_reference(name, field):
    # the pivot-pair representatives are the columns span growth keeps, and
    # both lifts induce the same matrices, chain and cochain
    cp = builtin(name, field=field).crossed_product()
    for cochain in (False, True):
        act = HActionOnHomology(cp, regular_bimodule(cp.e), 4, cochain=cochain)
        for r in range(4):
            reps, _ = homology_representatives(act.complex, r)
            assert act.lifts[r].reps.cols == reps, (cochain, r)
            for h_idx, mat in enumerate(act.chain_mats[r]):
                assert act.induced[r][h_idx] == induced_reference(act.complex, r, mat), (cochain, r, h_idx)


def test_homology_well_defined_on_classes(cps):
    # adding multiples of the unit to inputs of quotient-level maps is
    # invisible: representatives are sections, and the boundary of a section
    # never depends on the choice because the unit legs die; spot-check by
    # comparing the reduced boundary against the oracle homology it computes
    cp = cps["sweedler_smash"]
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, 4)
    reduced = rc.reduced_chain_complex()
    assert homology_dims(reduced.complex) == homology_dims(
        hochschild_chain_complex(cp.e, m, 4)
    )


def test_filtrations_verify(cps):
    for name in ("z4_as_cocycle_extension", "sweedler_smash"):
        cp = cps[name]
        m = regular_bimodule(cp.e)
        rc = ReducedComplexes(cp, m, 3)
        assert rc.reduced_chain_complex().verify().passed, name
        assert rc.reduced_cochain_complex().verify().passed, name
        assert rc.untwisted_chain_complex().verify().passed, name
        assert rc.untwisted_cochain_complex().verify().passed, name


def test_untwisted_requires_inverse(cps):
    from hopfcross.crossed import NotInvertibleError

    cp = cps["klein_four"]
    saved = cp.conv_inverse
    try:
        cp.conv_inverse = None
        m = regular_bimodule(cp.e)
        rc = ReducedComplexes(cp, m, 2)
        with pytest.raises(NotInvertibleError):
            rc.untwisted_chain_complex()
    finally:
        cp.conv_inverse = saved


def test_resolution_cap_guard(cps):
    from hopfcross.resolution import build_resolution_closed

    cp = cps["klein_four"]
    small = build_resolution_closed(cp, 2)
    m = regular_bimodule(cp.e)
    with pytest.raises(ValueError):
        ReducedComplexes(cp, m, 4, res=small)


FAMILIES = [(False, False, "chain"), (False, True, "cochain"),
            (True, False, "untwisted-chain"), (True, True, "untwisted-cochain")]


@pytest.mark.parametrize("untwisted, cochain, which", FAMILIES, ids=[f[2] for f in FAMILIES])
def test_formula_mismatch_surfaces(cps, untwisted, cochain, which):
    # a corrupted closed-formula evaluation must be reported, never resolved,
    # in each of the four families
    cp = cps["sweedler_smash"]
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, 2)
    orig = rc.literal.block

    def corrupted(*args):
        mat = orig(*args)
        return mat_neg(mat) if args == (untwisted, 0, 1, 0, cochain) else mat

    assert not orig(untwisted, 0, 1, 0, cochain).is_zero()  # the corruption is visible
    rc.literal.block = corrupted
    block = rc.untwisted_block if untwisted else rc.reduced_block
    with pytest.raises(FormulaMismatch) as err:
        block(0, 1, 0, cochain=cochain)
    assert (err.value.which, err.value.block) == (which, (0, 1, 0))


def _side_cases():
    """s3 with M = E and with M = E (x) k, whose two sides act differently."""
    pf = builtin("s3_as_action_extension")
    cp = pf.crossed_product()
    right, _ = pf.tor_modules
    return [("E", cp, regular_bimodule(cp.e)),
            ("E (x) k", cp, tensor_bimodule(cp.e, regular_left_module(cp), right))]


def _swap_sides(terms, which=lambda index, l: True):
    """terms with x and y exchanged in the terms picked by which(index, l)."""
    def swapped(key, l, r, s):
        for index, (x, out_key, y, c) in enumerate(terms(key, l, r, s)):
            yield (y, out_key, x, c) if which(index, l) else (x, out_key, y, c)
    return swapped


@pytest.mark.parametrize("name, cp, m", _side_cases(), ids=["E", "E (x) k"])
def test_swapped_term_sides_surface(name, cp, m, monkeypatch):
    # x and y exchanged in the first l = 1 term (1#h on the right of m):
    # the chain and the cochain placement both see it
    for block in ("reduced_block", "reduced_cochain_block"):
        rc = ReducedComplexes(cp, m, 2)
        monkeypatch.setattr(rc.literal, "reduced_terms",
                            _swap_sides(rc.literal.reduced_terms, lambda index, l: l == 1 and index == 0))
        with pytest.raises(FormulaMismatch) as err:
            getattr(rc, block)(1, 0, 1)
        assert err.value.block == (1, 0, 1), (name, block)


@pytest.mark.parametrize("name, cp, m", _side_cases(), ids=["E", "E (x) k"])
def test_swapped_cochain_placement_surfaces(name, cp, m, monkeypatch):
    # the cochain placement puts y.phi(v').x instead of x.phi(v').y: only the
    # cochain check fails
    rc = ReducedComplexes(cp, m, 2)
    block, terms = rc.literal.block, rc.literal.reduced_terms

    def mutated(untwisted, l, r, s, cochain):
        rc.literal.reduced_terms = _swap_sides(terms) if cochain else terms
        return block(untwisted, l, r, s, cochain)

    monkeypatch.setattr(rc.literal, "block", mutated)
    rc.reduced_block(1, 0, 1)
    with pytest.raises(FormulaMismatch) as err:
        rc.reduced_cochain_block(1, 0, 1)
    assert (err.value.which, err.value.block) == ("cochain", (1, 0, 1)), name
