"""Reference for the comparison certificates: the explicit bar boundary and the
full-basis sweeps.

`bprime_reference` evaluates the three face kinds of b' on every basis vector,
outer slots included, with no generator table. The two sweeps check the
comparison identities and filtration preservation on every basis vector of
the small and bar spaces through degree cmp.upto, with b' taken from
`bprime_reference`; they need no bimodule-extension argument, which makes
them an independent check of the generator certificate in
hopfcross.comparison.

`check_bar_contraction` sweeps the contraction xi of the bar resolution,
with the multiplication mu : B_0 -> E written here; nothing in this module
imports hopfcross.comparison.
"""

from hopfcross.algebras import Report
from hopfcross.linalg import vec_add_into
from hopfcross.tensors import keyed_add_into
from conftest import boundary_matrices


def bprime_reference(bar, n: int, vec: dict) -> dict:
    """b'_n on a sparse vector of B_n, every face written out on every basis vector."""
    mult = bar.cp.e.mult
    field = bar.field
    src, tgt = bar.spaces[n], bar.spaces[n - 1]
    out: dict = {}
    for flat, c in vec.items():
        e_left, mid, e_right = src.split(flat)
        legs = src.mid_key(mid)
        for e2, c2 in mult[e_left][legs[0]].items():
            keyed_add_into(out, tgt.combine(e2, tgt.mid_rank(legs[1:]), e_right),
                           field.mul(c, c2), field)
        sign = field.one
        for i in range(1, n):
            sign = field.neg(sign)
            for k, c2 in mult[legs[i - 1]][legs[i]].items():
                if k:
                    nm = tgt.mid_rank(legs[: i - 1] + (k,) + legs[i + 1 :])
                    keyed_add_into(out, tgt.combine(e_left, nm, e_right),
                                   field.mul(field.mul(c, sign), c2), field)
        sign = field.neg(sign)
        for e2, c2 in mult[legs[-1]][e_right].items():
            keyed_add_into(out, tgt.combine(e_left, tgt.mid_rank(legs[:-1]), e2),
                           field.mul(field.mul(c, sign), c2), field)
    return out


def _small_basis(cmp, n: int):
    return range(cmp.res.degree_dim(n))


def _bar_basis(cmp, n: int):
    return range(cmp.bar.spaces[n].dim)


def comparison_identities_reference(cmp) -> Report:
    """The identities of check_comparison_identities on every basis vector."""
    report = Report("comparison identities")
    res, bar, field = cmp.res, cmp.bar, cmp.field
    upto = cmp.upto
    d = boundary_matrices(res)
    for n in range(1, upto + 1):
        for idx in _small_basis(cmp, n):
            gen = {idx: field.one}
            lhs = bprime_reference(bar, n, cmp.phi_apply(n, gen))
            rhs = cmp.phi_apply(n - 1, d[n].apply(gen))
            report.record(lhs == rhs, "phi-chain-map", (n, idx))
        for idx in _bar_basis(cmp, n):
            gen = {idx: field.one}
            lhs = cmp.psi_apply(n - 1, bprime_reference(bar, n, gen))
            rhs = d[n].apply(cmp.psi_apply(n, gen))
            report.record(lhs == rhs, "psi-chain-map", (n, idx))
    for n in range(upto + 1):
        for idx in _small_basis(cmp, n):
            gen = {idx: field.one}
            report.record(cmp.psi_apply(n, cmp.phi_apply(n, gen)) == gen,
                          "psi-phi-identity", (n, idx))
    for n in range(1, upto + 1):
        for idx in _bar_basis(cmp, n):
            gen = {idx: field.one}
            lhs = bprime_reference(bar, n + 1, cmp.omega_apply(n + 1, gen))
            vec_add_into(lhs, cmp.omega_apply(n, bprime_reference(bar, n, gen)), field.one, field)
            rhs = cmp.phi_apply(n, cmp.psi_apply(n, gen))
            vec_add_into(rhs, gen, field.neg(field.one), field)
            report.record(lhs == rhs, "homotopy-identity", (n, idx))
    return report


def filtration_reference(cmp) -> Report:
    """phi, psi and omega preserve the filtration levels of every basis vector."""
    report = Report("filtration preservation")
    bar, field = cmp.bar, cmp.field
    for n in range(cmp.upto + 1):
        for idx in _small_basis(cmp, n):
            level = cmp.degree_level(n, idx)
            img = cmp.phi_apply(n, {idx: field.one})
            report.record(all(bar.level(n, j) <= level for j in img),
                          "phi-preserves-filtration", (n, idx, level))
        for idx in _bar_basis(cmp, n):
            level = bar.level(n, idx)
            img = cmp.psi_apply(n, {idx: field.one})
            report.record(all(cmp.degree_level(n, j) <= level for j in img),
                          "psi-preserves-filtration", (n, idx, level))
            if n >= 1:
                img = cmp.omega_apply(n + 1, {idx: field.one})
                report.record(all(bar.level(n + 1, j) <= level for j in img),
                              "omega-preserves-filtration", (n, idx, level))
    return report


def bar_multiplication(bar, vec: dict) -> dict:
    """mu : B_0 = E (x) E -> E."""
    cp = bar.cp
    field = bar.field
    out: dict = {}
    for flat, c in vec.items():
        e_left, _, e_right = bar.spaces[0].split(flat)
        vec_add_into(out, cp.e.mult[e_left][e_right], c, field)
    return out


def check_bar_contraction(bar, top: int) -> Report:
    """mu xi_0 = id and b'_{n+1} xi_{n+1} + xi_n b'_n = id on B_n.

    xi appends a unit on the right, so it is only left E-linear and is not
    determined by its values on generators: this check sweeps every basis
    vector of B_0 .. B_top.
    """
    report = Report("bar contraction")
    field = bar.field
    ne = bar.cp.e.dim
    for e in range(ne):
        vec = {e: field.one}
        lifted = {bar.spaces[0].combine(e, 0, 0): field.one}
        report.record(bar_multiplication(bar, lifted) == vec, "mu-xi0", (e,))
    for n in range(top + 1):
        space = bar.spaces[n]
        for idx in range(space.dim):
            gen = {idx: field.one}
            lhs = bar.bprime(n + 1, bar.xi(n + 1, gen))
            if n:
                back = bar.xi(n, bar.bprime(n, gen))
            else:  # xi_0 mu: the product, back in B_0 as x (x) 1
                product = bar_multiplication(bar, gen)
                back = {space.combine(x, 0, 0): c for x, c in product.items()}
            vec_add_into(lhs, back, field.one, field)
            report.record(lhs == gen, "bar-contraction", (n, idx))
    return report
