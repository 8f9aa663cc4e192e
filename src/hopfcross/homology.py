"""Top-level computations: Hochschild (co)homology of a crossed product,
spectral-sequence reports, the second-page identification, and the Tor
convenience wrapper.

Every report annotates the trusted degree range: with a degree cap, homology
at the cap degree has an unknown incoming boundary and is never reported.
"""

from __future__ import annotations

from .bar import hochschild_cochain_complex
from .complexes import cells_json, check_convergence, homology_dims, spectral_page
from .crossed import (
    AxiomViolation,
    BimoduleData,
    CrossedProductData,
    dual_bimodule,
    regular_bimodule,
    tensor_bimodule,
)
from .reduced_complexes import HActionOnHomology, ReducedComplexes


def _bar_dims(e, m, cap, cochain: bool) -> list[int]:
    """dim H^n(E, M), or dim H_n(E, M) = dim H^n(E, M^v), from the normalized
    bar cochains: for finite-dimensional M over a field the bar chains of M
    are the dual of the bar cochains of M^v, so both give the same dims."""
    return homology_dims(hochschild_cochain_complex(e, m if cochain else dual_bimodule(m), cap))


def _hochschild(rc: ReducedComplexes, oracle, cochain: bool) -> dict:
    """dim H_n(E, M) or dim H^n(E, M) for n < cap through the reduced
    complex; oracle=True recomputes through the normalized bar complex.

    The oracle stays independent of the reduced side: in each comparison
    exactly one side goes through dual_bimodule, so a wrong dual shows up as
    a mismatch and cannot cancel out.  For homology the reduced chains take
    M as it is and the oracle takes the bar cochains of M^v; for cohomology
    the reduced cochains are the transposed M^v chains and the oracle
    takes the bar cochains of M itself."""
    # every ChainComplex checks d o d = 0 when it is made
    reduced = rc.reduced_cochain_complex() if cochain else rc.reduced_chain_complex()
    dims = homology_dims(reduced.complex)
    report = {
        "dims": dims,
        "cap": rc.cap,
        "trusted_degrees": list(range(rc.cap)),
        "trust_note": f"degrees 0..{rc.cap - 1} are exact; degree {rc.cap} is kernel-only and not reported",
    }
    if oracle:
        report["oracle_dims"] = _bar_dims(rc.cp.e, rc.m, rc.cap, cochain)
        report["oracle_match"] = report["oracle_dims"] == dims
    return report


def hochschild_homology(cp: CrossedProductData, m: BimoduleData | None = None,
                        cap: int = 4, oracle: bool = False, res=None) -> dict:
    """dim H_n(E, M) for n < cap through the reduced complex; oracle=True
    recomputes through the normalized bar complex and compares."""
    rc = ReducedComplexes(cp, m if m is not None else regular_bimodule(cp.e), cap, res=res)
    return _hochschild(rc, oracle, cochain=False)


def hochschild_cohomology(cp: CrossedProductData, m: BimoduleData | None = None,
                          cap: int = 4, oracle: bool = False, res=None) -> dict:
    """dim H^n(E, M) for n < cap through the reduced cochain complex."""
    rc = ReducedComplexes(cp, m if m is not None else regular_bimodule(cp.e), cap, res=res)
    return _hochschild(rc, oracle, cochain=True)


def e2_identification(cp: CrossedProductData, m: BimoduleData | None = None,
                      cap: int = 4, res=None) -> dict:
    """First and second pages of the filtered untwisted complexes against the
    independently computed H(A, M) data.

    Chain side: E^1_{s,r} should be dim H_r(A,M) * dim(Hbar)^s and E^2_{s,r}
    the homology of H with coefficients in H_r(A,M); dually for cochains.
    The infinity page must sum to the total (co)homology.
    """
    if m is None:
        m = regular_bimodule(cp.e)
    cp.require_inverse()
    return _e2_identification(ReducedComplexes(cp, m, cap, res=res))


def _e2_identification(rc: ReducedComplexes) -> dict:
    """e2_identification on the untwisted complexes of rc, whose chains and
    cochains share its twisted-generator tables."""
    cp, m, cap = rc.cp, rc.m, rc.cap
    window = cap - 1
    nhbar = cp.h.dim - 1
    hk = cp.h.algebra
    # k_eps, k with H acting by the counit: H_*(H, N) is the Hochschild homology
    # of N (x) k_eps, H^*(H, N) the Hochschild cohomology of k_eps (x) N (bar.py)
    k_right = (1, [[{0: c} for c in cp.h.counit]])
    k_left = (1, [[{0: c}] for c in cp.h.counit])
    out = {"window": window}

    def matches(page, expected) -> bool:
        return all(page.cell(s, r) == expected.get((s, r), 0)
                   for s in range(window + 1) for r in range(window + 1 - s))

    for cochain in (False, True):
        fc = rc.untwisted_cochain_complex() if cochain else rc.untwisted_chain_complex()
        act = HActionOnHomology(cp, m, cap, cochain=cochain)
        base_dims = act.homology_dims()
        page1 = spectral_page(fc, 1)
        page2 = spectral_page(fc, 2)
        e1_expected = {}
        e2_expected = {}
        for r in range(window + 1):
            h_cap = window - r + 1
            dim_n, rho = act.as_h_module(r)
            if cochain:  # N is a right module, laid out act[n][h] = rho(h) on n
                coeffs = tensor_bimodule(hk, k_left, (dim_n, list(zip(*(mat.cols for mat in rho)))))
            else:
                coeffs = tensor_bimodule(hk, (dim_n, [mat.cols for mat in rho]), k_right)
            h_dims = _bar_dims(hk, coeffs, h_cap, cochain)
            for s in range(window - r + 1):
                e1 = base_dims[r] * nhbar**s
                if e1:
                    e1_expected[(s, r)] = e1
                if h_dims[s]:
                    e2_expected[(s, r)] = h_dims[s]
        e1_ok, e2_ok = matches(page1, e1_expected), matches(page2, e2_expected)
        total = homology_dims(fc.complex)
        conv = check_convergence(fc, total)
        out["cochain" if cochain else "chain"] = {
            "e1": cells_json(page1.table),
            "e1_expected": cells_json(e1_expected),
            "e1_match": e1_ok,
            "e2": cells_json(page2.table),
            "e2_expected": cells_json(e2_expected),
            "e2_match": e2_ok,
            "total_dims": total,
            "convergence": conv.as_dict(),
            "pass": e1_ok and e2_ok and conv.passed,
        }
    out["pass"] = out["chain"]["pass"] and out["cochain"]["pass"]
    return out


def tor_spectral_report(cp: CrossedProductData, right_module, left_module,
                        cap: int = 4, res=None) -> dict:
    """Tor_*^E(M, N) through H_*(E, N (x) M) with a(n (x) m)b = an (x) mb.

    right_module = (dim, act[m][e] -> M vector), left_module = (dim,
    act[e][n] -> N vector).  Requires field coefficients, which this package
    assumes throughout.
    """
    bimod = tensor_bimodule(cp.e, left_module, right_module)
    report = bimod.verify(cp.e)
    if not report.passed:
        report.title = "tor modules: " + report.title
        raise AxiomViolation(report)
    rc = ReducedComplexes(cp, bimod, cap, res=res)
    out = _hochschild(rc, True, False)
    out["tor_dims"] = out["dims"]
    if cp.conv_inverse is not None:
        out["e2"] = _e2_identification(rc)
    return out


def regular_left_module(cp: CrossedProductData):
    """E over itself, as (dim, act) with act[i][j] = e_i e_j; the table reads
    both as a left action act[e][n] and as a right action act[m][e]."""
    return cp.e.dim, cp.e.mult


regular_right_module = regular_left_module
