"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Shared builds (resolutions, reduced complexes, comparison maps) are cached per
built-in in a module-scoped fixture.
"""

import time

import pytest

from hopfcross.algebras import AlgebraData, verify_algebra
from hopfcross.bar import (
    hochschild_chain_complex,
    hochschild_cochain_complex,
)
from hopfcross.comparison import (
    BarCalculus,
    build_comparison,
    check_bar_square_zero,
    check_comparison_identities,
    check_filtration_preservation,
)
from hopfcross.complexes import homology_dims, spectral_page
from hopfcross.crossed import (
    CocycleData,
    WeakActionData,
    regular_bimodule,
    verify_crossed_axioms,
)
from hopfcross.fields import FieldSpec
from hopfcross.homology import e2_identification, tor_spectral_report
from hopfcross.hopf import HopfData, verify_hopf
from hopfcross.linalg import ExactMatrix, vec_add_into
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import ReducedComplexes
from hopfcross.resolution import build_resolution_closed, build_resolution_recursive
from conftest import (
    boundary_matrices,
    homotopy_matrices,
    mat_add,
    mat_neg,
    mu_matrices,
    untwist_degree_matrices,
)
import homotopy_reference
from filtered_bar import hochschild_chain_filtered, hochschild_cochain_filtered
from insertion_reference import signed_shuffle

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)

GROUP_BUILTINS = ("z2_trivial", "z4_as_cocycle_extension", "klein_four",
                  "s3_as_action_extension")


def announce(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}" + (f": {detail}" if detail else ""))


class Shared:
    def __init__(self):
        self._pf = {}
        self._cp = {}
        self._m = {}
        self._res = {}
        self._rc = {}
        self._cmp = {}

    def pf(self, name):
        if name not in self._pf:
            self._pf[name] = builtin(name)
        return self._pf[name]

    def cp(self, name):
        if name not in self._cp:
            self._cp[name] = self.pf(name).crossed_product()
        return self._cp[name]

    def m(self, name):
        if name not in self._m:
            self._m[name] = regular_bimodule(self.cp(name).e)
        return self._m[name]

    def res(self, name):
        if name not in self._res:
            self._res[name] = build_resolution_closed(self.cp(name), 4)
        return self._res[name]

    def rc(self, name):
        if name not in self._rc:
            self._rc[name] = ReducedComplexes(self.cp(name), self.m(name), 4,
                                              res=self.res(name))
        return self._rc[name]

    def comparison(self, name):
        if name not in self._cmp:
            bar = BarCalculus(self.cp(name), 5)
            self._cmp[name] = build_comparison(self.res(name), bar, 3)
        return self._cmp[name]


@pytest.fixture(scope="module")
def shared():
    return Shared()


def test_criterion_01_axiom_certification(shared):
    t0 = time.time()
    for name in BUILTIN_NAMES:
        pf = shared.pf(name)
        assert verify_algebra(pf.algebra).passed, name
        assert verify_hopf(pf.hopf).passed, name
        assert verify_crossed_axioms(pf.algebra, pf.hopf, pf.action, pf.cocycle).passed, name
        assert verify_algebra(shared.cp(name).e).passed, name

    # single-entry corruptions fail with the correct witness
    pf = shared.pf("s3_as_action_extension")
    cp = shared.cp("s3_as_action_extension")
    e = cp.e
    mult = [[dict(c) for c in row] for row in e.mult]
    mult[1][1] = {2: Q.one}  # a transposition squared replaced by another element
    report = verify_algebra(AlgebraData(Q, e.dim, e.basis_labels, mult))
    assert any(f.check == "associativity" and f.witness == (1, 1, 1) for f in report.failures)

    h = shared.pf("sweedler_smash").hopf
    antipode = [dict(r) for r in h.antipode]
    antipode[2] = {3: Q.one}
    report = verify_hopf(HopfData(h.algebra, h.comult, h.counit, antipode))
    assert any(f.check.startswith("antipode") and f.witness == (2,) for f in report.failures)

    comult = [dict(r) for r in h.comult]
    comult[2] = {(2, 0): Q.one}  # drop the g (x) x term
    report = verify_hopf(HopfData(h.algebra, comult, h.counit, h.antipode))
    assert any(f.witness == (2,) for f in report.failures)

    pf4 = shared.pf("z4_as_cocycle_extension")
    f_bad = [[dict(c) for c in row] for row in pf4.cocycle.f]
    f_bad[1][0] = {1: Q.one}
    report = verify_crossed_axioms(
        pf4.algebra, pf4.hopf, pf4.action, CocycleData(Q, 2, 2, f_bad)
    )
    assert any(f.check == "cocycle-normality-right" and f.witness == (1,) for f in report.failures)

    pfs = shared.pf("s3_as_action_extension")
    act_bad = [[dict(c) for c in row] for row in pfs.action.act]
    act_bad[1][1] = {1: Q.one}  # g no longer inverts the 3-cycle
    report = verify_crossed_axioms(
        pfs.algebra, pfs.hopf, WeakActionData(Q, 2, 3, act_bad), pfs.cocycle
    )
    assert not report.passed

    elapsed = time.time() - t0
    ok = elapsed < 5.0
    announce(1, ok, f"six built-ins certified, corruption witnesses exact ({elapsed:.2f}s)")
    assert ok, f"criterion 1 runtime bound exceeded: {elapsed:.2f}s"


def test_criterion_02_square_zero_suite(shared):
    worst = 0.0
    for name in BUILTIN_NAMES:
        t0 = time.time()
        cp, m = shared.cp(name), shared.m(name)
        rc = shared.rc(name)
        rc.reduced_chain_complex().complex.check_square_zero()
        rc.reduced_cochain_complex().complex.check_square_zero()
        rc.untwisted_chain_complex().complex.check_square_zero()
        rc.untwisted_cochain_complex().complex.check_square_zero()
        d = boundary_matrices(shared.res(name))
        for n in range(1, 4):
            assert (d[n] @ d[n + 1]).is_zero(), (name, n)
        hochschild_chain_complex(cp.e, m, 4).check_square_zero()
        hochschild_cochain_complex(cp.e, m, 4).check_square_zero()
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed < 60.0, f"{name}: {elapsed:.1f}s"
    announce(2, True, f"d o d = 0 on all six complexes per built-in (worst {worst:.1f}s)")


def test_criterion_03_oracle_equivalence(shared):
    for name in BUILTIN_NAMES:
        cp, m = shared.cp(name), shared.m(name)
        rc = shared.rc(name)
        reduced = homology_dims(rc.reduced_chain_complex().complex)
        bar = homology_dims(hochschild_chain_complex(cp.e, m, 4))
        assert reduced == bar, (name, reduced, bar)
        hatc = homology_dims(rc.reduced_cochain_complex().complex)
        barc = homology_dims(hochschild_cochain_complex(cp.e, m, 4))
        assert hatc == barc, (name, hatc, barc)
    announce(3, True, "reduced and bar-route dims equal in degrees 0..3, chain and cochain")


def test_criterion_04_resolution_identities(shared):
    for name in BUILTIN_NAMES:
        res = shared.res(name)
        field = res.field
        d = boundary_matrices(res)
        assert (res.augmentation @ d[1]).is_zero(), name
        # the left-generator table extended over the full basis: every column
        sigma = homotopy_matrices(res)
        assert res.augmentation @ sigma[0] == ExactMatrix.identity(field, res.cp.e.dim)
        lhs = mat_add(d[1] @ sigma[1], sigma[0] @ res.augmentation)
        assert lhs == ExactMatrix.identity(field, res.dims[0]), name
        for n in range(1, 4):
            lhs = mat_add(d[n + 1] @ sigma[n + 1], sigma[n] @ d[n])
            assert lhs == ExactMatrix.identity(field, res.dims[n]), (name, n)
        report = check_comparison_identities(shared.comparison(name))
        assert report.passed, (name, report.failures[:3])
    announce(4, True, "aug d1 = 0, d sigma + sigma d = id, psi phi = id, homotopy exact (deg <= 3)")


def test_criterion_05_closed_equals_recursive(shared):
    for name in BUILTIN_NAMES:
        cp = shared.cp(name)
        closed = shared.res(name)
        rec = build_resolution_recursive(cp, 4)
        assert set(closed.blocks) == set(rec.blocks), name
        for key in closed.blocks:
            assert closed.blocks[key] == rec.blocks[key], (name, key)
        # the d0 o d^l sum identities on generators
        field = closed.field
        for (l, r, s), block in closed.blocks.items():
            if l < 1 or r + l - 1 < 1:
                continue
            d0 = closed.blocks.get((0, r + l - 1, s - l))
            if d0 is None:
                continue
            space = closed.block_spaces[(r, s)]
            for mid in space.generators():
                gen = {space.combine(0, mid, 0): field.one}
                lhs = d0.apply(block.apply(gen))
                rhs: dict = {}
                lo = 1 if r == 0 else 0
                for j in range(lo, l):
                    if j == 0:
                        step = closed.blocks[(0, r, s)].apply(gen)
                        step = closed.blocks[(l, r - 1, s)].apply(step)
                    else:
                        step = closed.blocks[(j, r, s)].apply(gen)
                        step = closed.blocks[(l - j, r + j - 1, s - j)].apply(step)
                    vec_add_into(rhs, step, field.one, field)
                rhs = {k: field.neg(v) for k, v in rhs.items()}
                assert lhs == rhs, (name, l, r, s, mid)
        partial, mu = homotopy_reference.partial(closed), mu_matrices(closed)
        for s in range(1, 5):
            lhs = mu[s - 1] @ closed.blocks[(1, 0, s)]
            rhs = mat_neg(partial[s] @ mu[s])
            assert lhs == rhs, (name, s)
    announce(5, True, "closed and recursive blocks equal for r+s <= 4; sum identities hold")


def test_criterion_06_untwisting_isomorphism(shared):
    for name in BUILTIN_NAMES:
        cp, m = shared.cp(name), shared.m(name)
        cp.require_inverse()
        rc = shared.rc(name)
        untwists = untwist_degree_matrices(rc)
        reduced = rc.reduced_chain_complex()
        over = rc.untwisted_chain_complex()
        for n in range(5):
            th, thinv = untwists[n]
            ident = ExactMatrix.identity(cp.field, reduced.complex.dims[n])
            assert th @ thinv == ident, (name, n)
            assert thinv @ th == ident, (name, n)
        for n in range(1, 5):
            th_t, _ = untwists[n - 1]
            th_s, _ = untwists[n]
            assert th_t @ reduced.complex.maps[n] == over.complex.maps[n] @ th_s, (name, n)
    announce(6, True, "untwist d = d untwist and untwist o inverse = id, degrees <= 4, all built-ins")


def test_criterion_07_scalar_cocycle_vanishing(shared):
    # As specified, the insertion blocks with l >= 2 must vanish on the three
    # named built-ins.  The vanishing needs a cocycle with values in k*1; the
    # cyclic-four extension's cocycle takes the basis value n outside k*1 and
    # its (l, r, s) = (2, 0, 2) block is provably nonzero (it sends m (x) g (x) g
    # to -m (x) nbar), so this criterion fails there; see the decisions ledger.
    failures = []
    for name in ("z2_trivial", "z4_as_cocycle_extension", "s3_as_action_extension"):
        rc = shared.rc(name)
        for s in range(5):
            for r in range(5 - s):
                for l in range(2, s + 1):
                    if not rc.reduced_block(l, r, s).is_zero():
                        failures.append((name, l, r, s))
    ok = not failures
    announce(7, ok, "vanishing of l >= 2 blocks" if ok else
             f"nonzero l >= 2 blocks found: {failures} "
             "(the cyclic-four cocycle is not scalar-valued)")
    assert ok, (
        "criterion as stated fails on z4_as_cocycle_extension: its cocycle has "
        f"f(g,g) = n outside k*1, giving nonzero blocks {failures}"
    )


def test_criterion_08_spectral_identifications(shared):
    for name in BUILTIN_NAMES:
        cp, m = shared.cp(name), shared.m(name)
        rep = e2_identification(cp, m, cap=4, res=shared.res(name))
        assert rep["chain"]["e1_match"], (name, rep["chain"])
        assert rep["chain"]["e2_match"], (name, rep["chain"])
        assert rep["chain"]["convergence"]["passed"], name
        assert rep["cochain"]["e1_match"], (name, rep["cochain"])
        assert rep["cochain"]["e2_match"], (name, rep["cochain"])
        assert rep["cochain"]["convergence"]["passed"], name
    announce(8, True, "E1, E2 and infinity pages identified on window r+s <= 3, both variants")


def test_criterion_09_desk_numbers():
    t0 = time.time()
    # the oracle numbers come first
    pf2 = builtin("z2_trivial")  # F_2 by default
    cp2 = pf2.crossed_product()
    m2 = regular_bimodule(cp2.e)
    bar2 = homology_dims(hochschild_chain_complex(cp2.e, m2, 4))
    assert bar2 == [2, 2, 2, 2]
    pfq = builtin("z2_trivial", field=Q)
    cpq = pfq.crossed_product()
    mq = regular_bimodule(cpq.e)
    barq = homology_dims(hochschild_chain_complex(cpq.e, mq, 4))
    assert barq == [2, 0, 0, 0]
    # matched by the reduced complexes
    rc2 = ReducedComplexes(cp2, m2, 4)
    assert homology_dims(rc2.reduced_chain_complex().complex) == bar2
    rcq = ReducedComplexes(cpq, mq, 4)
    assert homology_dims(rcq.reduced_chain_complex().complex) == barq
    # Tor with trivial modules
    right, left = pf2.tor_modules
    rep = tor_spectral_report(cp2, right, left, cap=4)
    assert rep["tor_dims"] == [1, 1, 1, 1] and rep["oracle_match"]
    right, left = pfq.tor_modules
    rep = tor_spectral_report(cpq, right, left, cap=4)
    assert rep["tor_dims"] == [1, 0, 0, 0] and rep["oracle_match"]
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    announce(9, ok, f"(2,2,2,2), (2,0,0,0), Tor (1,1,1,1) and (1,0,0,0) ({elapsed:.2f}s)")
    assert ok, f"criterion 9 runtime bound exceeded: {elapsed:.2f}s"


def test_criterion_10_filtrations_and_serre_comparison(shared):
    for name in BUILTIN_NAMES:
        report = check_filtration_preservation(shared.comparison(name))
        assert report.passed, (name, report.failures[:3])
    for name in BUILTIN_NAMES:
        cp, m = shared.cp(name), shared.m(name)
        rc = shared.rc(name)
        reduced = rc.reduced_chain_complex()
        bar_fc = hochschild_chain_filtered(cp, m, 4)
        assert bar_fc.verify().passed, name
        for r in (1, 2):
            assert spectral_page(reduced, r).table == spectral_page(bar_fc, r).table, (name, r)
        hatc = rc.reduced_cochain_complex()
        bar_fcc = hochschild_cochain_filtered(cp, m, 4)
        for r in (1, 2):
            assert spectral_page(hatc, r).table == spectral_page(bar_fcc, r).table, (name, r)
    announce(10, True, "phi/psi/omega preserve filtrations; bar-side page tables equal reduced-side")


def _group_insertion_values(cp, gs):
    """Insertion coefficients for group-like tensors, by the direct recursion:
    no Sweedler expansion, one product per merge.  Returns a keyed dict over
    (l-1)-tuples of A basis indices."""
    field = cp.field
    l = len(gs)
    if l == 1:
        return {(): field.one}

    def act_elem(g_list, avec):
        out = dict(avec)
        for g in reversed(g_list):
            nxt = {}
            for ai, c in out.items():
                vec_add_into(nxt, cp.action.act[g][ai], c, field)
            out = nxt
        return out

    out: dict = {}
    if l == 2:
        fv = cp.cocycle.f[gs[0]][gs[1]]
        return {(ai,): field.neg(c) for ai, c in fv.items()}
    for j in range(1, l):
        sign = field.neg(field.one) if j % 2 else field.one
        fv = act_elem(gs[: j - 1], cp.cocycle.f[gs[j - 1]][gs[j]])
        prod = cp.h.algebra.mult[gs[j - 1]][gs[j]]
        (gm, cm), = prod.items()
        rec = _group_insertion_values(cp, gs[: j - 1] + (gm,) + gs[j + 1 :])
        for ai, ca in fv.items():
            for key, cr in rec.items():
                k2 = (ai,) + key
                coef = field.mul(field.mul(sign, cm), field.mul(ca, cr))
                w = field.add(out.get(k2, field.zero), coef)
                if field.is_zero(w):
                    out.pop(k2, None)
                else:
                    out[k2] = w
    return out


def test_criterion_11_shuffle_cross_check(shared):
    checked = 0
    for name in GROUP_BUILTINS:
        cp = shared.cp(name)
        res = shared.res(name)
        field = cp.field
        for (l, r, s), block in res.blocks.items():
            if l < 2 or r + s > 3:
                continue
            src = res.block_spaces[(r, s)]
            tgt = res.block_spaces[(r + l - 1, s - l)]
            sign = field.one if (l * (r + s)) % 2 == 0 else field.neg(field.one)
            for mid in src.generators():
                key = src.mid_key(mid)
                hs, avs = key[:s], key[s:]
                gs = tuple(hs[s - l :])
                fvals = _group_insertion_values(cp, gs)
                prod_idx = 0
                for g in gs:
                    ((prod_idx, _),) = cp.h.algebra.mult[prod_idx][g].items()
                expected: dict = {}
                for f_tuple, cf in fvals.items():
                    for word, sgn in signed_shuffle(f_tuple, tuple(avs)).items():
                        # a unit Abar leg is zero in the normalized target
                        mid_t = tgt.mid_rank(tuple(hs[: s - l]) + word)
                        if mid_t is None:
                            continue
                        out_key = tgt.combine(0, mid_t, prod_idx)
                        coef = field.mul(sign, field.mul(cf, field.scalar(sgn)))
                        w = field.add(expected.get(out_key, field.zero), coef)
                        if field.is_zero(w):
                            expected.pop(out_key, None)
                        else:
                            expected[out_key] = w
                got = block.cols[src.combine(0, mid, 0)]
                assert got == expected, (name, l, r, s, mid)
                checked += 1
    announce(11, True, f"shuffle expression matches {checked} insertion-block generator columns")
