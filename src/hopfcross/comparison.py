"""Normalized bar resolution of E and the comparison maps to the small
resolution.

Bar spaces grow as dim(E)^2 (dim(E)-1)^n, so the boundary and contraction act
matrix-free, and the comparison maps phi (small -> bar), psi (bar -> small)
and the homotopy omega are stored as generator tables extended by the
bimodule action.  Identity checks run either on module generators (always
rigorous: every map involved is a module map built by extension) or on the
full basis when the dimensions allow.
"""

from __future__ import annotations

from .algebras import Report
from .crossed import CrossedProductData
from .linalg import vec_add_into
from .resolution import CrossedResolution, FreeBimoduleSpace
from .tensors import keyed_add_into


class BarCalculus:
    """Matrix-free normalized bar resolution with its contraction and filtration."""

    def __init__(self, cp: CrossedProductData, cap: int):
        self.cp = cp
        self.cap = cap
        self.field = cp.field
        self.spaces = [FreeBimoduleSpace(cp, (cp.e.dim,) * n) for n in range(cap + 1)]

    def bprime(self, n: int, vec: dict) -> dict:
        """b'_n applied to a sparse vector of B_n, landing in B_{n-1}."""
        cp = self.cp
        field = self.field
        src = self.spaces[n]
        tgt = self.spaces[n - 1]
        out: dict = {}
        for flat, c in vec.items():
            e_left, mid, e_right = src.split(flat)
            legs = src.mid_key(mid)
            # merge into the left slot
            for e2, c2 in cp.e.mult[e_left][legs[0]].items():
                nm = tgt.mid_rank(legs[1:])
                if nm is not None:
                    keyed_add_into(out, tgt.combine(e2, nm, e_right), field.mul(c, c2), field)
            sign = field.one
            for i in range(1, n):
                sign = field.neg(sign)
                for k, c2 in cp.e.mult[legs[i - 1]][legs[i]].items():
                    if k == 0:
                        continue
                    nm = tgt.mid_rank(legs[: i - 1] + (k,) + legs[i + 1 :])
                    if nm is not None:
                        keyed_add_into(out, tgt.combine(e_left, nm, e_right),
                                       field.mul(field.mul(c, sign), c2), field)
            sign = field.neg(sign)
            for e2, c2 in cp.e.mult[legs[-1]][e_right].items():
                nm = tgt.mid_rank(legs[:-1])
                if nm is not None:
                    keyed_add_into(out, tgt.combine(e_left, nm, e2),
                                   field.mul(field.mul(c, sign), c2), field)
        return out

    def xi(self, n: int, vec: dict) -> dict:
        """xi_n : B_{n-1} -> B_n, x -> (-1)^n x (x) 1."""
        field = self.field
        src = self.spaces[n - 1]
        tgt = self.spaces[n]
        sign = field.one if n % 2 == 0 else field.neg(field.one)
        out: dict = {}
        for flat, c in vec.items():
            e_left, mid, e_right = src.split(flat)
            if e_right == 0:
                continue  # the class of the unit dies in the new Ebar leg
            nm = tgt.mid_rank(src.mid_key(mid) + (e_right,))
            if nm is None:
                continue
            keyed_add_into(out, tgt.combine(e_left, nm, 0), field.mul(c, sign), field)
        return out

    def multiplication(self, vec: dict) -> dict:
        """B_0 = E (x) E -> E."""
        cp = self.cp
        field = self.field
        out: dict = {}
        for flat, c in vec.items():
            e_left, _, e_right = self.spaces[0].split(flat)
            vec_add_into(out, cp.e.mult[e_left][e_right], c, field)
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
    Generator tables map bimodule generators to flat image vectors; apply
    methods extend by multiplication on the outer slots.
    """

    def __init__(self, res: CrossedResolution, bar: BarCalculus, upto: int):
        if upto > res.cap - 1:
            raise ValueError("comparison maps need d at degree upto + 1")
        self.res = res
        self.bar = bar
        self.upto = upto
        self.field = res.field
        self.sigma = res.contracting_homotopy()
        self._build()

    # degree-space helpers -------------------------------------------------
    def _degree_split(self, n: int, flat: int):
        for r, s, off, space in self.res.degree_blocks(n):
            if flat < off + space.dim:
                return r, s, off, space, flat - off
        raise IndexError(flat)

    def degree_outer_mult(self, n: int, vec: dict, e_left: int, e_right: int) -> dict:
        """e_left . vec . e_right on the degree-n space, block by block."""
        parts: dict = {}
        for flat, c in vec.items():
            _, _, off, space, local = self._degree_split(n, flat)
            parts.setdefault(off, (space, {}))[1][local] = c
        out: dict = {}
        for off, (space, part) in parts.items():
            img = space.right_mult(space.left_mult(part, e_left), e_right)
            out.update((idx + off, v) for idx, v in img.items())
        return out

    def degree_level(self, n: int, flat: int) -> int:
        _, s, _, _, _ = self._degree_split(n, flat)
        return s

    # construction ----------------------------------------------------------
    def _build(self):
        res, bar, field = self.res, self.bar, self.field
        self.phi: list[dict] = [{}]
        self.psi: list[dict] = [{}]
        for r, s, off, space in res.degree_blocks(0):
            for mid in space.generators():
                self.phi[0][(r, s, mid)] = {bar.spaces[0].combine(0, 0, 0): field.one}
        self.psi[0][0] = {0: field.one}
        for n in range(1, self.upto + 1):
            table: dict = {}
            for r, s, off, space in res.degree_blocks(n):
                for mid in space.generators():
                    gen = {off + space.combine(0, mid, 0): field.one}
                    img = self.phi_apply(n - 1, res.d[n].apply(gen))
                    table[(r, s, mid)] = bar.xi(n, img)
            self.phi.append(table)
            table = {}
            bspace = bar.spaces[n]
            for mid in range(bspace.mid_size):
                gen = {bspace.combine(0, mid, 0): field.one}
                img = self.psi_apply(n - 1, bar.bprime(n, gen))
                table[mid] = self.sigma[n].apply(img)
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
                prev = self.omega_apply(n - 1, bar.bprime(n - 1, gen)) if n >= 3 else {}
                vec_add_into(vec, prev, field.neg(field.one), field)
                table[mid] = bar.xi(n, vec)
            self.omega.append(table)

    # extension applies -------------------------------------------------------
    def phi_apply(self, n: int, xvec: dict) -> dict:
        field = self.field
        bar = self.bar
        out: dict = {}
        for flat, c in xvec.items():
            r, s, off, space, local = self._degree_split(n, flat)
            e_left, mid, e_right = space.split(local)
            img = self.phi[n][(r, s, mid)]
            img = bar.spaces[n].left_mult(img, e_left)
            img = bar.spaces[n].right_mult(img, e_right)
            vec_add_into(out, img, c, field)
        return out

    def psi_apply(self, n: int, bvec: dict) -> dict:
        field = self.field
        out: dict = {}
        for flat, c in bvec.items():
            e_left, mid, e_right = self.bar.spaces[n].split(flat)
            img = self.degree_outer_mult(n, self.psi[n][mid], e_left, e_right)
            vec_add_into(out, img, c, field)
        return out

    def omega_apply(self, n: int, bvec: dict) -> dict:
        """omega_n applied to a vector of B_{n-1}."""
        field = self.field
        out: dict = {}
        for flat, c in bvec.items():
            e_left, mid, e_right = self.bar.spaces[n - 1].split(flat)
            img = self.omega[n][mid]
            if not img:
                continue
            img = self.bar.spaces[n].left_mult(img, e_left)
            img = self.bar.spaces[n].right_mult(img, e_right)
            vec_add_into(out, img, c, field)
        return out


def build_comparison(res: CrossedResolution, bar: BarCalculus, upto: int) -> ComparisonMaps:
    return ComparisonMaps(res, bar, upto)


def _small_enumerate(cmp: ComparisonMaps, n: int, full: bool):
    res = cmp.res
    for r, s, off, space in res.degree_blocks(n):
        if full:
            for local in range(space.dim):
                yield off + local
        else:
            for mid in space.generators():
                yield off + space.combine(0, mid, 0)


def _bar_enumerate(cmp: ComparisonMaps, n: int, full: bool):
    bspace = cmp.bar.spaces[n]
    if full:
        yield from range(bspace.dim)
    else:
        for mid in range(bspace.mid_size):
            yield bspace.combine(0, mid, 0)


def check_comparison_identities(cmp: ComparisonMaps, upto: int | None = None,
                                full: bool | None = None) -> Report:
    """Chain-map laws, psi phi = id, and the homotopy b'omega + omega b' = phi psi - id.

    With full=False the identities are evaluated on bimodule generators, which
    determines them: every map in sight is a bimodule map and the extensions
    are by construction multiplicative.  full=None picks full basis for
    dim E <= 6.
    """
    report = Report("comparison identities")
    res, bar, field = cmp.res, cmp.bar, cmp.field
    if upto is None:
        upto = cmp.upto
    if full is None:
        full = res.cp.e.dim <= 6

    for n in range(1, upto + 1):
        for idx in _small_enumerate(cmp, n, full):
            gen = {idx: field.one}
            lhs = bar.bprime(n, cmp.phi_apply(n, gen))
            rhs = cmp.phi_apply(n - 1, res.d[n].apply(gen))
            report.record(lhs == rhs, "phi-chain-map", (n, idx))
        for idx in _bar_enumerate(cmp, n, full):
            gen = {idx: field.one}
            lhs = cmp.psi_apply(n - 1, bar.bprime(n, gen))
            rhs = res.d[n].apply(cmp.psi_apply(n, gen))
            report.record(lhs == rhs, "psi-chain-map", (n, idx))

    for n in range(upto + 1):
        for idx in _small_enumerate(cmp, n, full):
            gen = {idx: field.one}
            back = cmp.psi_apply(n, cmp.phi_apply(n, gen))
            report.record(back == gen, "psi-phi-identity", (n, idx))

    for n in range(1, upto + 1):
        for idx in _bar_enumerate(cmp, n, full):
            gen = {idx: field.one}
            lhs = bar.bprime(n + 1, cmp.omega_apply(n + 1, gen))
            vec_add_into(lhs, cmp.omega_apply(n, bar.bprime(n, gen)), field.one, field)
            rhs = cmp.phi_apply(n, cmp.psi_apply(n, gen))
            vec_add_into(rhs, gen, field.neg(field.one), field)
            report.record(lhs == rhs, "homotopy-identity", (n, idx))
    return report


def check_filtration_preservation(cmp: ComparisonMaps, upto: int | None = None,
                                  full: bool | None = None) -> Report:
    """phi, psi, omega map every filtration level into itself.

    Filtration levels are spans of basis vectors and sub-bimodules, so
    membership is exact support inspection; generator checks suffice because
    the levels are stable under the outer multiplications.
    """
    report = Report("filtration preservation")
    res, bar, field = cmp.res, cmp.bar, cmp.field
    if upto is None:
        upto = cmp.upto
    if full is None:
        full = res.cp.e.dim <= 6

    for n in range(upto + 1):
        for idx in _small_enumerate(cmp, n, full):
            level = cmp.degree_level(n, idx)
            img = cmp.phi_apply(n, {idx: field.one})
            ok = all(bar.level(n, j) <= level for j in img)
            report.record(ok, "phi-preserves-filtration", (n, idx, level))
        for idx in _bar_enumerate(cmp, n, full):
            level = bar.level(n, idx)
            img = cmp.psi_apply(n, {idx: field.one})
            ok = all(cmp.degree_level(n, j) <= level for j in img)
            report.record(ok, "psi-preserves-filtration", (n, idx, level))
            if n >= 1:
                img = cmp.omega_apply(n + 1, {idx: field.one})
                ok = all(bar.level(n + 1, j) <= level for j in img)
                report.record(ok, "omega-preserves-filtration", (n, idx, level))
    return report


def check_bar_contraction(bar: BarCalculus, upto: int, full: bool = True) -> Report:
    """mu xi_0 = id and b'_{n+1} xi_{n+1} + xi_n b'_n = id on B_n."""
    report = Report("bar contraction")
    field = bar.field
    ne = bar.cp.e.dim
    for e in range(ne):
        vec = {e: field.one}
        lifted = {bar.spaces[0].combine(e, 0, 0): field.one}
        report.record(bar.multiplication(lifted) == vec, "mu-xi0", (e,))
    for n in range(upto + 1):
        space = bar.spaces[n]
        idxs = range(space.dim) if full else [
            space.combine(0, m, 0) for m in range(space.mid_size)
        ]
        for idx in idxs:
            gen = {idx: field.one}
            if n == 0:
                e_left, _, e_right = space.split(idx)
                prod = bar.cp.e.mult[e_left][e_right]
                lifted: dict = {}
                for e2, c2 in prod.items():
                    lifted[bar.spaces[0].combine(e2, 0, 0)] = c2
                lhs = bar.bprime(1, bar.xi(1, gen))
                vec_add_into(lhs, lifted, field.one, field)
            else:
                lhs = bar.bprime(n + 1, bar.xi(n + 1, gen))
                vec_add_into(lhs, bar.xi(n, bar.bprime(n, gen)), field.one, field)
            report.record(lhs == gen, "bar-contraction", (n, idx))
    return report


def check_bar_square_zero(bar: BarCalculus, upto: int) -> Report:
    report = Report("bar square zero")
    field = bar.field
    for n in range(2, upto + 1):
        space = bar.spaces[n]
        for mid in range(space.mid_size):
            gen = {space.combine(0, mid, 0): field.one}
            out = bar.bprime(n - 1, bar.bprime(n, gen))
            report.record(not out, "bprime-square-zero", (n, mid))
    return report


class IdentityFailure(Exception):
    def __init__(self, check, degree, witness):
        super().__init__(f"{check} fails at degree {degree}, basis column {witness}")
        self.check = check
        self.degree = degree
        self.witness = witness


def assert_comparison_identities(cmp: ComparisonMaps, upto: int | None = None,
                                 full: bool | None = None) -> None:
    """Raise IdentityFailure carrying the first failing degree and witness."""
    report = check_comparison_identities(cmp, upto=upto, full=full)
    if not report.passed:
        first = report.failures[0]
        raise IdentityFailure(first.check, first.witness[0], first.witness[1])
