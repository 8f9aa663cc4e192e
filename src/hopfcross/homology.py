"""Top-level computations: Hochschild (co)homology of a crossed product,
spectral-sequence reports, the second-page identification, and the Tor
convenience wrapper.

Every report annotates the trusted degree range: with a degree cap, homology
at the cap degree has an unknown incoming boundary and is never reported.
"""

from __future__ import annotations

from .bar import hochschild_chain_complex, hochschild_cochain_complex
from .complexes import check_convergence, homology_dims, spectral_page
from .crossed import (
    AxiomViolation,
    BimoduleData,
    CrossedProductData,
    dual_bimodule,
    regular_bimodule,
    tensor_bimodule,
)
from .reduced_complexes import HActionOnHomology, ReducedComplexes


def _dims_report(dims, cap, oracle_dims=None):
    report = {
        "dims": dims,
        "cap": cap,
        "trusted_degrees": list(range(cap)),
        "trust_note": f"degrees 0..{cap - 1} are exact; degree {cap} is kernel-only and not reported",
    }
    if oracle_dims is not None:
        report["oracle_dims"] = oracle_dims
        report["oracle_match"] = oracle_dims == dims
    return report


def _bar_oracle_dims(e, m, cap, cochain: bool) -> list[int]:
    """dim H^n(E, M), or dim H_n(E, M) = dim H^n(E, M^v), from the normalized
    bar cochains: for finite-dimensional M over a field the bar chains of M
    are the dual of the bar cochains of M^v, so both give the same dims."""
    return homology_dims(hochschild_cochain_complex(e, m if cochain else dual_bimodule(m), cap))


def _hochschild(cp, m, cap, oracle, res, cochain: bool) -> dict:
    """dim H_n(E, M) or dim H^n(E, M) for n < cap through the reduced
    complex; oracle=True recomputes through the normalized bar complex.

    The oracle stays independent of the reduced side: in each comparison
    exactly one side goes through dual_bimodule, so a wrong dual shows up as
    a mismatch and cannot cancel out.  For homology the reduced chains take
    M as it is and the oracle takes the bar cochains of M^v; for cohomology
    the reduced cochains are the dual-transposed M^v chains and the oracle
    takes the bar cochains of M itself."""
    if m is None:
        m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, cap, res=res)
    # the reduced complexes are checked for d o d = 0 when they are assembled
    reduced = rc.reduced_cochain_complex() if cochain else rc.reduced_chain_complex()
    dims = homology_dims(reduced.complex)
    oracle_dims = None
    if oracle:
        oracle_dims = _bar_oracle_dims(cp.e, m, cap, cochain)
    return _dims_report(dims, cap, oracle_dims)


def hochschild_homology(cp: CrossedProductData, m: BimoduleData | None = None,
                        cap: int = 4, oracle: bool = False, res=None) -> dict:
    """dim H_n(E, M) for n < cap through the reduced complex; oracle=True
    recomputes through the normalized bar complex and compares."""
    return _hochschild(cp, m, cap, oracle, res, cochain=False)


def hochschild_cohomology(cp: CrossedProductData, m: BimoduleData | None = None,
                          cap: int = 4, oracle: bool = False, res=None) -> dict:
    """dim H^n(E, M) for n < cap through the reduced cochain complex."""
    return _hochschild(cp, m, cap, oracle, res, cochain=True)


def _table_to_json(table):
    return {f"{p},{q}": v for (p, q), v in sorted(table.items())}


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
    # k with H acting by the counit: N (x) k_eps is N_eps, whose Hochschild
    # chains are the standard complex Hbar^s (x) N of H_*(H, N)
    k_eps = (1, [[{0: c} for c in cp.h.counit]])
    out = {"window": window}

    def matches(page, expected) -> bool:
        return all(page.cell(s, r) == expected.get((s, r), 0)
                   for s in range(window + 1) for r in range(window + 1 - s))

    for cochain in (False, True):
        fc = rc.untwisted_cochain_complex() if cochain else rc.untwisted_chain_complex()
        act = HActionOnHomology(cp, m, cap, cochain=cochain)
        base_dims = act.homology_dims()
        page1 = spectral_page(fc, 1, window)
        page2 = spectral_page(fc, 2, window)
        e1_expected = {}
        e2_expected = {}
        for r in range(window + 1):
            h_cap = window - r + 1
            dim_n, rho = act.as_h_module(r)
            if cochain:
                # H-cohomology with right-module coefficients has the dims of the
                # homology of the transposed (left) module: its maps are the transposes
                rho = [mat.transpose() for mat in rho]
            n_eps = tensor_bimodule(hk, (dim_n, [mat.cols for mat in rho]), k_eps)
            h_dims = homology_dims(hochschild_chain_complex(hk, n_eps, h_cap))
            for s in range(window - r + 1):
                e1 = base_dims[r] * nhbar**s
                if e1:
                    e1_expected[(s, r)] = e1
                if h_dims[s]:
                    e2_expected[(s, r)] = h_dims[s]
        e1_ok, e2_ok = matches(page1, e1_expected), matches(page2, e2_expected)
        total = homology_dims(fc.complex)
        conv = check_convergence(fc, total, window)
        out["cochain" if cochain else "chain"] = {
            "e1": _table_to_json(page1.table),
            "e1_expected": _table_to_json(e1_expected),
            "e1_match": e1_ok,
            "e2": _table_to_json(page2.table),
            "e2_expected": _table_to_json(e2_expected),
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
    dims = homology_dims(rc.reduced_chain_complex().complex)
    oracle_dims = _bar_oracle_dims(cp.e, bimod, cap, cochain=False)
    out = _dims_report(dims, cap, oracle_dims)
    out["tor_dims"] = dims
    if cp.conv_inverse is not None:
        out["e2"] = _e2_identification(rc)
    return out


def regular_left_module(cp: CrossedProductData):
    """E over itself, as (dim, act) with act[i][j] = e_i e_j; the table reads
    both as a left action act[e][n] and as a right action act[m][e]."""
    e = cp.e
    return e.dim, [[e.mult[i][j] for j in range(e.dim)] for i in range(e.dim)]


regular_right_module = regular_left_module
