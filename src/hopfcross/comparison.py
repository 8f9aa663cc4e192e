"""Normalized bar resolution of E and the comparison maps to the small
resolution.

Bar spaces grow as dim(E)^2 (dim(E)-1)^n, so the bar boundary b' (faces
evaluated once per generator), the comparison maps phi (small -> bar), psi
(bar -> small) and the homotopy omega are generator tables extended by the
outer multiplications, x = e_left . g . e_right -> e_left . image(g) . e_right,
in resolution.extend_by_outer_mult, the loop that extends the small boundary
d.  The identity and filtration checks therefore run on bimodule generators
only.  check_bimodule_extension certifies that left_mult and right_mult are
an E-bimodule action on every space involved, and verify_algebra certified E
associative when the crossed product was built.  Every map is an extension
of its table, so these checks plus the generator identities determine the
identities on every basis vector.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import product

from .algebras import Report
from .crossed import CrossedProductData
from .linalg import apply_columns, vec_add_into
from .resolution import CrossedResolution, FreeBimoduleSpace, extend_by_outer_mult
from .tensors import keyed_add_into


class BarCalculus:
    """Matrix-free normalized bar resolution with its contraction and filtration."""

    def __init__(self, cp: CrossedProductData, cap: int):
        self.cp = cp
        self.cap = cap
        self.field = cp.field
        self.spaces = [FreeBimoduleSpace(cp, (cp.e.dim,) * n) for n in range(cap + 1)]
        self._bprime_generator = cache(self._bprime_generator)

    def bprime(self, n: int, vec: dict) -> dict:
        """b'_n applied to a sparse vector of B_n, landing in B_{n-1}."""
        return extend_by_outer_mult(self.spaces[n].split, partial(self._bprime_generator, n),
                                    self.spaces[n - 1].outer_mult, vec, self.field)

    def _bprime_generator(self, n: int, mid: int) -> dict:
        """b'_n(1 (x) e_1..e_n (x) 1), its three face kinds; built once per
        (n, mid), shared, read only."""
        field = self.field
        mult = self.cp.e.mult
        tgt = self.spaces[n - 1]
        legs = self.spaces[n].mid_key(mid)
        # e_1 merges into the left unit, e_n into the right: no other face does
        out = {tgt.combine(legs[0], tgt.mid_rank(legs[1:]), 0): field.one}
        sign = field.one
        for i in range(1, n):
            sign = field.neg(sign)
            for k, c in mult[legs[i - 1]][legs[i]].items():
                if k:
                    nm = tgt.mid_rank(legs[: i - 1] + (k,) + legs[i + 1 :])
                    keyed_add_into(out, tgt.combine(0, nm, 0), field.mul(sign, c), field)
        out[tgt.combine(0, tgt.mid_rank(legs[:-1]), legs[-1])] = field.neg(sign)
        return out

    def xi(self, n: int, vec: dict) -> dict:
        """xi_n : B_{n-1} -> B_n, x -> (-1)^n x (x) 1."""
        field = self.field
        src = self.spaces[n - 1]
        tgt = self.spaces[n]
        sign = field.sign(n)
        out: dict = {}
        for flat, c in vec.items():
            e_left, mid, e_right = src.split(flat)
            if e_right == 0:
                continue  # the class of the unit dies in the new Ebar leg
            nm = tgt.mid_rank(src.mid_key(mid) + (e_right,))
            keyed_add_into(out, tgt.combine(e_left, nm, 0), field.mul(c, sign), field)
        return out

    def level(self, n: int, flat: int) -> int:
        """Filtration level: legs outside A#1."""
        _, mid, _ = self.spaces[n].split(flat)
        legs = self.spaces[n].mid_key(mid)
        count = 0
        for x in legs:
            _, h = self.cp.e_unrank(x)
            if h != 0:
                count += 1
        return count


class ComparisonMaps:
    """phi: X -> bar, psi: bar -> X, omega: homotopy from phi psi to id.

    phi and psi are built through degree `upto`; omega through upto + 1.
    Generator tables map bimodule generators to flat image vectors, each
    applied by extend_by_outer_mult: phi and omega land in a bar space
    (FreeBimoduleSpace.outer_mult), psi in a degree of the small resolution
    (CrossedResolution.degree_outer_mult).  psi reads the resolution's
    contracting homotopy through res.homotopy_apply.
    """

    def __init__(self, res: CrossedResolution, bar: BarCalculus, upto: int):
        if upto > res.cap - 1:
            raise ValueError("comparison maps need d at degree upto + 1")
        self.res = res
        self.bar = bar
        self.upto = upto
        self.field = res.field
        self._build()

    def degree_level(self, n: int, flat: int) -> int:
        _, s, _, _, _ = self.res.degree_split(n, flat)
        return s

    # construction ----------------------------------------------------------
    def _build(self):
        res, bar, field = self.res, self.bar, self.field
        # degree 0 is E (x) E on both sides, and phi_0, psi_0 are the identity
        self.phi: list[dict] = [{(0, 0, 0): {0: field.one}}]
        self.psi: list[dict] = [{0: {0: field.one}}]
        for n in range(1, self.upto + 1):
            table: dict = {}
            for r, s, off, space in res.degree_blocks(n):
                for mid in space.generators():
                    gen = {off + space.combine(0, mid, 0): field.one}
                    table[(r, s, mid)] = bar.xi(n, self.phi_apply(n - 1, res.boundary(n, gen)))
            self.phi.append(table)
            table = {}
            bspace = bar.spaces[n]
            for mid in range(bspace.mid_size):
                gen = {bspace.combine(0, mid, 0): field.one}
                img = self.psi_apply(n - 1, bar.bprime(n, gen))
                table[mid] = res.homotopy_apply(n, img)
            self.psi.append(table)
        # omega_n : B_{n-1} -> B_n for n = 1 .. upto + 1
        self.omega: list[dict] = [{}, {mid: {} for mid in range(bar.spaces[0].mid_size)}]
        for n in range(2, self.upto + 2):
            table = {}
            bspace = bar.spaces[n - 1]
            for mid in range(bspace.mid_size):
                gen = {bspace.combine(0, mid, 0): field.one}
                vec = self.phi_apply(n - 1, self.psi_apply(n - 1, gen))
                vec_add_into(vec, gen, field.neg(field.one), field)
                vec_add_into(vec, self.omega_apply(n - 1, bar.bprime(n - 1, gen)),
                             field.neg(field.one), field)
                table[mid] = bar.xi(n, vec)
            self.omega.append(table)

    # extension applies -------------------------------------------------------
    def _small_split(self, n: int, flat: int):
        r, s, _, space, local = self.res.degree_split(n, flat)
        e_left, mid, e_right = space.split(local)
        return e_left, (r, s, mid), e_right

    def phi_apply(self, n: int, xvec: dict) -> dict:
        return extend_by_outer_mult(partial(self._small_split, n), self.phi[n].__getitem__,
                                    self.bar.spaces[n].outer_mult, xvec, self.field)

    def psi_apply(self, n: int, bvec: dict) -> dict:
        return extend_by_outer_mult(self.bar.spaces[n].split, self.psi[n].__getitem__,
                                    partial(self.res.degree_outer_mult, n), bvec, self.field)

    def omega_apply(self, n: int, bvec: dict) -> dict:
        """omega_n applied to a vector of B_{n-1}."""
        return extend_by_outer_mult(self.bar.spaces[n - 1].split, self.omega[n].__getitem__,
                                    self.bar.spaces[n].outer_mult, bvec, self.field)


def build_comparison(res: CrossedResolution, bar: BarCalculus, upto: int) -> ComparisonMaps:
    return ComparisonMaps(res, bar, upto)


def _bar_generators(cmp: ComparisonMaps, n: int) -> list:
    return [cmp.bar.spaces[n].combine(0, mid, 0) for mid in cmp.bar.spaces[n].generators()]


def check_bimodule_extension(cmp: ComparisonMaps) -> Report:
    """left_mult and right_mult are an E-bimodule action on every space the
    comparison uses (small blocks of degree <= upto + 1, bar spaces <= upto + 2):
    on one generator g of each and every pair (a, b) of basis indices of E,
    b.(a.g) = (ba).g, (g.a).b = g.(ab) and (a.g).b = a.(g.b).  Both act on
    the outer slots only, by the same code for every middle index.
    """
    report = Report("bimodule extension")
    field, e = cmp.field, cmp.res.cp.e
    spaces = [(("small", r, s), sp) for (r, s), sp in cmp.res.block_spaces.items()
              if r + s <= cmp.upto + 1]
    spaces += [(("bar", n), sp) for n, sp in enumerate(cmp.bar.spaces[: cmp.upto + 3])]
    for name, space in spaces:
        for mid in space.generators()[:1]:
            g = {space.combine(0, mid, 0): field.one}
            lefts = [space.left_mult(g, a) for a in range(e.dim)]
            rights = [space.right_mult(g, a) for a in range(e.dim)]
            for a, b in product(range(e.dim), repeat=2):
                ag, ga = lefts[a], rights[a]
                ba_g = apply_columns(e.mult[b][a], lefts, field)
                g_ab = apply_columns(e.mult[a][b], rights, field)
                witness = (name, a, b)
                report.record(space.left_mult(ag, b) == ba_g, "left-action", witness)
                report.record(space.right_mult(ga, b) == g_ab, "right-action", witness)
                report.record(space.right_mult(ag, b) == space.left_mult(rights[b], a),
                              "actions-commute", witness)
    return report


def check_comparison_identities(cmp: ComparisonMaps) -> Report:
    """Chain-map laws, psi phi = id, and the homotopy b'omega + omega b' = phi psi - id,
    on the bimodule generators of degree <= cmp.upto.

    Both sides of every identity are bimodule maps, so agreement on
    generators is agreement everywhere once check_bimodule_extension passes.
    """
    report = Report("comparison identities")
    res, bar, field = cmp.res, cmp.bar, cmp.field

    for n in range(1, cmp.upto + 1):
        for idx in cmp.res.generator_indices(n):
            gen = {idx: field.one}
            lhs = bar.bprime(n, cmp.phi_apply(n, gen))
            rhs = cmp.phi_apply(n - 1, res.boundary(n, gen))
            report.record(lhs == rhs, "phi-chain-map", (n, idx))
        for idx in _bar_generators(cmp, n):
            gen = {idx: field.one}
            lhs = cmp.psi_apply(n - 1, bar.bprime(n, gen))
            rhs = res.boundary(n, cmp.psi_apply(n, gen))
            report.record(lhs == rhs, "psi-chain-map", (n, idx))

    for n in range(cmp.upto + 1):
        for idx in cmp.res.generator_indices(n):
            gen = {idx: field.one}
            back = cmp.psi_apply(n, cmp.phi_apply(n, gen))
            report.record(back == gen, "psi-phi-identity", (n, idx))

    for n in range(1, cmp.upto + 1):
        for idx in _bar_generators(cmp, n):
            gen = {idx: field.one}
            lhs = bar.bprime(n + 1, cmp.omega_apply(n + 1, gen))
            vec_add_into(lhs, cmp.omega_apply(n, bar.bprime(n, gen)), field.one, field)
            rhs = cmp.phi_apply(n, cmp.psi_apply(n, gen))
            vec_add_into(rhs, gen, field.neg(field.one), field)
            report.record(lhs == rhs, "homotopy-identity", (n, idx))
    return report


def check_filtration_preservation(cmp: ComparisonMaps) -> Report:
    """phi, psi, omega map every filtration level into itself, through degree cmp.upto.

    Filtration levels are spans of basis vectors and sub-bimodules, so
    membership is exact support inspection; generator checks suffice because
    the levels are stable under the outer multiplications.
    """
    report = Report("filtration preservation")
    bar, field = cmp.bar, cmp.field

    for n in range(cmp.upto + 1):
        for idx in cmp.res.generator_indices(n):
            level = cmp.degree_level(n, idx)
            img = cmp.phi_apply(n, {idx: field.one})
            ok = all(bar.level(n, j) <= level for j in img)
            report.record(ok, "phi-preserves-filtration", (n, idx, level))
        for idx in _bar_generators(cmp, n):
            level = bar.level(n, idx)
            img = cmp.psi_apply(n, {idx: field.one})
            ok = all(cmp.degree_level(n, j) <= level for j in img)
            report.record(ok, "psi-preserves-filtration", (n, idx, level))
            if n >= 1:
                img = cmp.omega_apply(n + 1, {idx: field.one})
                ok = all(bar.level(n + 1, j) <= level for j in img)
                report.record(ok, "omega-preserves-filtration", (n, idx, level))
    return report


def check_bar_square_zero(bar: BarCalculus, top: int) -> Report:
    report = Report("bar square zero")
    field = bar.field
    for n in range(2, top + 1):
        space = bar.spaces[n]
        for mid in range(space.mid_size):
            gen = {space.combine(0, mid, 0): field.one}
            out = bar.bprime(n - 1, bar.bprime(n, gen))
            report.record(not out, "bprime-square-zero", (n, mid))
    return report
