"""The small bimodule resolution of a crossed product and its contracting
homotopy.

Blocks E (x) Hbar^s (x) Abar^r (x) E are realized as plain vector spaces on
explicit tensor bases.  The boundary d is stored only as its images on the
free generators 1 (x) h (x) a (x) 1, and applied to a vector from them by
extend_by_outer_mult, so d is an E^e-extension by construction, not a typed
constraint.  That loop extends every generator table of the package (d and
sigma here, b', phi, psi and omega in comparison.py) through
FreeBimoduleSpace.outer_mult, or degree_outer_mult block by block.  The
generator images exist in two independent constructions: closed formulas
driven by the insertion coefficients, and the recursion through the row
contractions; they must agree, which assert_constructions_agree certifies.
When the cocycle takes values in k.1, d^l is zero on generators above l = 1
(every insertion term has a unit A-leg, see twisting.py): the closed
construction asks TwistingCalculus.inserts once per block and gives such a
block zero columns without building one.  The recursion never asks it and
reads no insertion column, so closed = recursive certifies that decision on
every resolution-check run, and double_complex_report states it in the
document: the recursive l >= 2 columns, and how many are nonzero.

The contracting homotopy is a table on left generators 1 (x) v (x) e, filled
by the recursion's own vector step and extended by left multiplication;
assert_contracting_homotopy checks its identities on left generators.  The
row maps and sigma pieces are column rules on flat block indices, applied by
linalg.apply_columns: each contracting row E (x) Hbar^s (x) H is the
sub-bimodule E (x) Hbar^s (x) (1 # H) of block (0, s).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache, cached_property, partial
from math import prod

from .crossed import CrossedProductData
from .hopf import sweedler_legs
from .linalg import ExactMatrix, apply_columns, vec_add_into
from .tensors import mid_key, mid_rank, tensor_vectors
from .twisting import TwistingCalculus


class RecursionMismatch(Exception):
    def __init__(self, block):
        super().__init__(f"closed and recursive constructions disagree on block {block}")
        self.block = block


class HomotopyIdentityFailure(Exception):
    def __init__(self, degree):
        super().__init__(f"d sigma + sigma d != id at degree {degree}")
        self.degree = degree


# space descriptors ----------------------------------------------------------

class FreeBimoduleSpace:
    """The free E-bimodule E (x) V_1bar (x) ... (x) V_kbar (x) E on the flat
    basis (e_left, mid, e_right); mid ranks the normalized middle legs
    row-major, with radices (dim V_i - 1).

    mid_dims lists the full dimension of each middle leg: the block
    E (x) Hbar^s (x) Abar^r (x) E of the small resolution takes
    (dim H,)*s + (dim A,)*r, the bar module E (x) Ebar^n (x) E takes (dim E,)*n.
    """

    def __init__(self, cp: CrossedProductData, mid_dims: tuple):
        self.cp = cp
        self.radices = tuple(d - 1 for d in mid_dims)
        self.mid_size = prod(self.radices)
        self.ne = cp.e.dim
        self.dim = self.ne * self.mid_size * self.ne

    def split(self, flat: int):
        rest = self.mid_size * self.ne
        e_left, rem = divmod(flat, rest)
        mid, e_right = divmod(rem, self.ne)
        return e_left, mid, e_right

    def combine(self, e_left: int, mid: int, e_right: int) -> int:
        return (e_left * self.mid_size + mid) * self.ne + e_right

    def mid_key(self, mid: int) -> tuple:
        """Full-index section of a generator: all middle legs shifted off the unit."""
        return mid_key(self.radices, mid)

    def mid_rank(self, legs: tuple) -> int | None:
        """legs are full indices; returns None when a leg is the unit."""
        return mid_rank(self.radices, legs)

    def generators(self):
        return range(self.mid_size)

    def outer_mult(self, vec: dict, e_left: int, e_right: int) -> dict:
        """e_left . vec . e_right; the unit index 0 is skipped, so vec itself
        comes back when both are 0."""
        if e_left:
            vec = self.left_mult(vec, e_left)
        return self.right_mult(vec, e_right) if e_right else vec

    def left_mult(self, vec: dict, e_idx: int) -> dict:
        row = self.cp.e.mult[e_idx]
        rest = self.mid_size * self.ne  # flat = e_left * rest + (mid, e_right)
        out: dict = {}
        get = out.get
        for flat, c in vec.items():
            e_left, tail = divmod(flat, rest)
            for e2, c2 in row[e_left].items():
                k = e2 * rest + tail
                out[k] = get(k, 0) + c * c2
        return self.cp.field.settle(out)

    def right_mult(self, vec: dict, e_idx: int) -> dict:
        mult = self.cp.e.mult
        ne = self.ne  # flat = (e_left, mid) * ne + e_right
        out: dict = {}
        get = out.get
        for flat, c in vec.items():
            e_right = flat % ne
            head = flat - e_right
            for e2, c2 in mult[e_right][e_idx].items():
                k = head + e2
                out[k] = get(k, 0) + c * c2
        return self.cp.field.settle(out)


def extend_by_outer_mult(split, image, outer, vec: dict, field) -> dict:
    """The E^e-linear map with generator table `image` on vec: a source basis
    vector with split(flat) = (e_left, key, e_right) maps to
    outer(image(key), e_left, e_right), that is e_left . image(key) . e_right.
    d, sigma, b', phi, psi and omega are all extended here."""
    out: dict = {}
    for flat, c in vec.items():
        e_left, key, e_right = split(flat)
        img = image(key)
        if img:
            if e_left or e_right:
                img = outer(img, e_left, e_right)
            vec_add_into(out, img, c, field)
    return out


# the resolution --------------------------------------------------------------

class CrossedResolution:
    """Boundary and contracting homotopy of the resolution of E by degreewise
    sums of the (r, s) blocks.

    method is "closed" (insertion-coefficient formulas) or "recursive"
    (the contraction-driven recursion); both yield identical generator
    columns.

    Construction builds generator_columns[(l, r, s)]: per free generator
    1 (x) h (x) a (x) 1 of block (r, s), its image under d^l as a flat column
    over block (r + l - 1, s - l).  That is all the reduced complexes read.
    Every other reader applies d to a vector, by boundary (or _block_apply
    for one d^l), from those columns; no boundary matrix is assembled.  The
    row maps and sigma pieces are column rules only, applied by the
    recursion and by contracting_homotopy (a table built on first call); each
    sums its flat column in place over combine(e_left, mid_rank(legs),
    e_right) and settles it once.  A row target is a block (0, s) index whose
    right slot 1 # h has E-index h, so sigma^0 on rows is the identity.  The
    augmentation, minus the product of E, is built on first read; the test
    identity mu_tilde mu_0 = augmentation ties it to the row maps, so the
    certificates check X against the standard augmentation.
    """

    def __init__(self, cp: CrossedProductData, cap: int, method: str = "closed"):
        if method not in ("closed", "recursive"):
            raise ValueError(f"unknown method {method!r}")
        self.cp = cp
        self.cap = cap
        self.method = method
        self.field = cp.field
        self.calc = TwistingCalculus(cp)
        self.block_spaces: dict = {}
        na, nh = cp.a.dim, cp.h.dim
        for n in range(cap + 1):
            for s in range(n + 1):
                self.block_spaces[(n - s, s)] = FreeBimoduleSpace(cp, (nh,) * s + (na,) * (n - s))
        # per degree: its blocks in filtration order with offsets, and their
        # ends; block_offsets[(r, s)] is the offset of (r, s) in degree r + s
        self._degree_blocks: list = []
        self._degree_ends: list = []
        self.block_offsets: dict = {}
        for n in range(cap + 1):
            blocks, offset = [], 0
            for s in range(n + 1):
                space = self.block_spaces[(n - s, s)]
                blocks.append((n - s, s, offset, space))
                self.block_offsets[(n - s, s)] = offset
                offset += space.dim
            self._degree_blocks.append(blocks)
            self._degree_ends.append([off + space.dim for _, _, off, space in blocks])
        self.dims = [self.degree_dim(n) for n in range(cap + 1)]
        # each leg of hs comultiplied into `count` legs, keyed by the
        # concatenated components: _sweedler(hs, count), shared, read only
        self._sweedler = cache(partial(sweedler_legs, cp.h))
        self.contracting_homotopy = cache(self.contracting_homotopy)
        if method == "closed":
            self.generator_columns = self._closed_generator_columns()
        else:
            self.generator_columns = self._recursive_generator_columns()

    # elementary maps: one column rule each, read by the recursion and the
    # contracting homotopy ------------------------------------------------------
    def _mu_column(self, s, flat) -> dict:
        """mu_s on basis vector flat = a0 # h_0 (x) h (x) aR # hR of block (0, s):
        a0 aR^(h_0..h_s firsts) # h_0^(2) (x) h^(2) (x) 1 # hR, a row target."""
        cp = self.cp
        nh = cp.h.dim
        space = self.block_spaces[(0, s)]
        e_left, mid, e_right = space.split(flat)
        a0, h0 = divmod(e_left, nh)
        aR, hR = divmod(e_right, nh)
        out: dict = {}
        get = out.get
        for comps, c in self._sweedler((h0,) + space.mid_key(mid), 2).items():
            seconds = comps[1::2]
            m = space.mid_rank(seconds[1:])
            if m is None:
                continue
            acted = self.calc.iter_act(comps[0::2], aR)
            for a2, c2 in cp.a.mult_elems({a0: self.field.one}, acted).items():
                k = space.combine(a2 * nh + seconds[0], m, hR)
                out[k] = get(k, 0) + c * c2
        return self.field.settle(out)

    def _partial_column(self, s, flat) -> dict:
        """partial_s on the row target flat = a # h_0 (x) h (x) 1 # h_{s+1} of
        block (0, s), landing on row targets of block (0, s - 1)."""
        cp = self.cp
        field = self.field
        nh = cp.h.dim
        src, tgt = self.block_spaces[(0, s)], self.block_spaces[(0, s - 1)]
        e_left, mid, h_last = src.split(flat)
        a, h0 = divmod(e_left, nh)
        hs = (h0,) + src.mid_key(mid) + (h_last,)  # h_0 .. h_{s+1}
        out: dict = {}
        get = out.get
        for i in range(s + 1):
            sign = field.sign(i + 1)
            for comps, c in self._sweedler(hs[: i + 2], 2).items():
                firsts = comps[0::2]
                seconds = comps[1::2]
                fv = self.calc.iter_act_vec(firsts[:i], cp.cocycle.f[firsts[i]][firsts[i + 1]])
                left = cp.a.mult_elems({a: field.one}, fv)
                if not left:
                    continue
                merged = cp.h.algebra.mult[seconds[i]][seconds[i + 1]]
                for a2, c2 in left.items():
                    for hm, cm in merged.items():
                        nhs = seconds[:i] + (hm,) + hs[i + 2 :]  # h_0 .. h_s of the target
                        m = tgt.mid_rank(nhs[1:-1])
                        if m is not None:
                            k = tgt.combine(a2 * nh + nhs[0], m, nhs[-1])
                            out[k] = get(k, 0) + c * sign * c2 * cm
        return field.settle(out)

    def _sigma0_x_column(self, r, s, flat) -> dict:
        """sigma^0 on basis vector flat of block (r, s): the A part of e_right
        becomes a new last Abar leg and e_right becomes (1, h); a unit A part dies."""
        field = self.field
        e_left, mid, e_right = self.block_spaces[(r, s)].split(flat)
        a, h = divmod(e_right, self.cp.h.dim)
        if not a:
            return {}
        sign = field.sign(r + 1)
        tgt = self.block_spaces[(r + 1, s)]
        return {tgt.combine(e_left, mid * (self.cp.a.dim - 1) + a - 1, h): sign}

    def _sigma_minus1_column(self, s, flat) -> dict:
        """sigma^{-1} on the row target flat of block (0, s), or on basis
        vector flat of E when s = -1, with sign (-1)^s: the right slot 1 # h
        becomes a new last Hbar leg (h_0 when the source is E) and the new
        right slot is 1; a unit h dies.  The image is a row target of block
        (0, s + 1)."""
        ne = self.cp.e.dim
        sign = self.field.sign(s)
        if s < 0:
            return {flat * ne: sign}
        head, h = divmod(flat, ne)
        return {(head * (self.cp.h.dim - 1) + h - 1) * ne: sign} if h else {}

    @cached_property
    def augmentation(self) -> ExactMatrix:
        """X_0 = E (x) E -> E, minus the product of E: column
        e_left * dim E + e_right of block (0, 0) is -(e_left e_right)."""
        field, e = self.field, self.cp.e
        cols = [{k: field.neg(v) for k, v in e.mult[x][y].items()}
                for x in range(e.dim) for y in range(e.dim)]
        return ExactMatrix(field, e.dim, e.dim * e.dim, cols)

    # d on generators (generator layer) -----------------------------------------
    def _d0_column(self, r, s, flat) -> dict:
        """d^0 on basis vector flat of block (r, s): a_1 absorbed into the left
        slot through the iterated action, the middle merges, and a_r absorbed
        into the right slot."""
        cp = self.cp
        field = self.field
        nh = cp.h.dim
        src, tgt = self.block_spaces[(r, s)], self.block_spaces[(r - 1, s)]
        e_left, mid, e_right = src.split(flat)
        a0, h0 = divmod(e_left, nh)
        aR, hR = divmod(e_right, nh)
        legs = src.mid_key(mid)
        avs = legs[s:]
        out: dict = {}
        get = out.get
        # absorb a_1 into the left slot through the iterated action
        for comps, c in self._sweedler((h0,) + legs[:s], 2).items():
            seconds = comps[1::2]
            m = tgt.mid_rank(seconds[1:] + avs[1:])
            if m is None:
                continue
            acted = self.calc.iter_act(comps[0::2], avs[0])
            for a2, c2 in cp.a.mult_elems({a0: field.one}, acted).items():
                k = tgt.combine(a2 * nh + seconds[0], m, e_right)
                out[k] = get(k, 0) + c * c2
        # middle merges
        sign = field.one
        for i in range(1, r):
            sign = field.neg(sign)
            for am, cm in cp.a.mult[avs[i - 1]][avs[i]].items():
                m = tgt.mid_rank(legs[: s + i - 1] + (am,) + avs[i + 1 :])
                if m is not None:
                    k = tgt.combine(e_left, m, e_right)
                    out[k] = get(k, 0) + sign * cm
        # absorb a_r into the right slot
        sign = field.neg(sign)
        m = tgt.mid_rank(legs[:-1])
        for am, cm in cp.a.mult[avs[-1]][aR].items():
            k = tgt.combine(e_left, m, am * nh + hR)
            out[k] = get(k, 0) + sign * cm
        return field.settle(out)

    def _d0_generator_columns(self, r, s) -> list:
        xs = self.block_spaces[(r, s)]
        return [self._d0_column(r, s, xs.combine(0, m, 0)) for m in xs.generators()]

    def _d1_generator_column(self, mid_key, r, s):
        """Closed-form d^1 on a generator (left and right slots = 1)."""
        cp = self.cp
        field = self.field
        nh = cp.h.dim
        tgt = self.block_spaces[(r, s - 1)]
        hs = (0,) + tuple(mid_key[:s])  # h_0 = 1 on generators
        avs = tuple(mid_key[s:])
        out: dict = {}
        get = out.get
        for i in range(s):
            sign = field.sign(i + r)
            for comps, c in self._sweedler(hs[: i + 2], 2).items():
                firsts = comps[0::2]
                seconds = comps[1::2]
                fv = self.calc.iter_act_vec(firsts[:i], cp.cocycle.f[firsts[i]][firsts[i + 1]])
                if not fv:
                    continue
                merged = cp.h.algebra.mult[seconds[i]][seconds[i + 1]]
                for a2, c2 in fv.items():
                    for hm, cm in merged.items():
                        nhs = seconds[:i] + (hm,) + hs[i + 2 :]  # h_0 .. h_{s-1} of the target
                        m = tgt.mid_rank(nhs[1:] + avs)
                        if m is not None:
                            k = tgt.combine(a2 * nh + nhs[0], m, 0)
                            out[k] = get(k, 0) + c * sign * c2 * cm
        # last term: vector action of h_s and its residual into the right slot
        sign = field.sign(r + s)
        for comps, c in self._sweedler((hs[s],), r + 1).items():
            legs = [cp.action.act[comps[k]][avs[k]] for k in range(r)]
            for alegs, coef in tensor_vectors(legs, field.mul(c, sign), field).items():
                m = tgt.mid_rank(hs[1:s] + alegs)
                if m is not None:
                    k = tgt.combine(0, m, comps[r])
                    out[k] = get(k, 0) + coef
        return field.settle(out)

    def _dl_generator_column(self, mid_key, l, r, s):
        """Closed-form d^l (l >= 2) on a generator."""
        field = self.field
        calc = self.calc
        tgt = self.block_spaces[(r + l - 1, s - l)]
        hs = tuple(mid_key[:s])
        avs = tuple(mid_key[s:])
        sign = field.sign(l * (r + s))
        f_tgt = calc.target_space(l, r)
        out: dict = {}
        get = out.get
        for comps, c in self._sweedler(hs[s - l :], 2).items():
            firsts = comps[0::2]
            seconds = comps[1::2]
            fvec = calc.insertion_column(l, r, firsts, avs)
            if not fvec:
                continue
            hprod = calc.h_product(seconds)
            for fid, cf in fvec.items():
                m = tgt.mid_rank(hs[: s - l] + f_tgt.unrank(fid))
                if m is None:
                    continue
                for hm, cm in hprod.items():
                    k = tgt.combine(0, m, hm)
                    out[k] = get(k, 0) + c * sign * cf * cm
        return field.settle(out)

    def _closed_generator_columns(self) -> dict:
        """d^l by the closed formulas; when TwistingCalculus.inserts(l) is
        false (l >= 2, f valued in k.1) the block gets zero columns, none built."""
        cols: dict = {}
        for (r, s), xs in self.block_spaces.items():
            if r >= 1:
                cols[(0, r, s)] = self._d0_generator_columns(r, s)
            for l in range(1, s + 1):
                if not self.calc.inserts(l):
                    cols[(l, r, s)] = [{} for _ in xs.generators()]
                elif l == 1:
                    cols[(l, r, s)] = [self._d1_generator_column(xs.mid_key(m), r, s)
                                       for m in xs.generators()]
                else:
                    cols[(l, r, s)] = [self._dl_generator_column(xs.mid_key(m), l, r, s)
                                       for m in xs.generators()]
        return cols

    def _recursive_generator_columns(self) -> dict:
        """The recursion: l ascending, then r ascending, from d^0 and the row maps.

        d^l on a generator is _contract_step of its lower images d^j, each
        lower d^j acting E^e-linearly from the generator table built so far;
        mu, partial and sigma^0_x act through their column rules, so no full
        block or row-map matrix is built.  d^1 on a generator of block (0, s)
        is -partial_s mu_s of it, already in block (0, s - 1)."""
        field = self.field
        gens: dict = {}
        for (r, s) in self.block_spaces:
            if r >= 1:
                gens[(0, r, s)] = self._d0_generator_columns(r, s)
        partial_column = cache(self._partial_column)
        for l in range(1, self.cap + 1):
            for r, s in sorted((p for p in self.block_spaces if l <= p[1]), key=lambda p: p[0]):
                xs = self.block_spaces[(r, s)]
                cols = []
                for m in xs.generators():
                    if r == 0 and l == 1:
                        vec = self._mu_column(s, xs.combine(0, m, 0))
                        vec = apply_columns(vec, partial(partial_column, s), field)
                        cols.append({k: field.neg(v) for k, v in vec.items()})
                    else:
                        lower = [(j, gens[(j, r, s)][m]) for j in range(1 if r == 0 else 0, l)]
                        cols.append(self._contract_step(gens, lower, l, r - 1, s))
                gens[(l, r, s)] = cols
        return gens

    def _contract_step(self, gens: dict, lower, l, r, s) -> dict:
        """-sigma^0_x (sum of d^{l-j} v_j) over the pairs (j, v_j) of lower,
        each v_j in block (r + j, s - j) and each d^{l-j} applied E^e-linearly
        from the generator table gens; the result lies in block (r + l, s - l).

        With v_j = d^j of a generator of block (r + 1, s) it is d^l of that
        generator (the recursion); with v_j = sigma^j of a vector it is
        sigma^l of that vector (the contracting homotopy)."""
        field = self.field
        total: dict = {}
        for j, vec in lower:
            vec_add_into(total, self._block_apply(gens, l - j, r + j, s - j, vec), field.one, field)
        total = apply_columns(total, partial(self._sigma0_x_column, r + l - 1, s - l), field)
        return {k: field.neg(v) for k, v in total.items()}

    def _block_apply(self, gens: dict, l, r, s, vec: dict) -> dict:
        """d^l on a vector of block (r, s), landing in block (r + l - 1, s - l):
        the basis vector eL . g . eR goes to eL . gens[(l, r, s)][g] . eR.  d is
        E^e-linear by construction, since it is applied only here."""
        return extend_by_outer_mult(self.block_spaces[(r, s)].split, gens[(l, r, s)].__getitem__,
                                    self.block_spaces[(r + l - 1, s - l)].outer_mult, vec, self.field)

    def boundary(self, n: int, vec: dict) -> dict:
        """d_n on a vector of degree n >= 1: each d^l applied to its source
        block's part.  Parts from two source blocks can land in one target
        block, so they are summed."""
        field = self.field
        parts: dict = {}
        for flat, c in vec.items():
            r, s, _, _, local = self.degree_split(n, flat)
            parts.setdefault((r, s), {})[local] = c
        out: dict = {}
        for (r, s), part in parts.items():
            for l in range(0 if r else 1, s + 1):
                img = self._block_apply(self.generator_columns, l, r, s, part)
                off = self.block_offsets[(r + l - 1, s - l)]
                vec_add_into(out, {i + off: v for i, v in img.items()}, field.one, field)
        return out

    @cached_property
    def blocks(self) -> dict:
        """(l, r, s) -> matrix of d^l on block (r, s), l >= 0 (l = 0 needs
        r >= 1), every column applied from the generator columns.  Nothing in
        the package reads it: perfbench/spans.py counts its columns."""
        one = self.field.one
        out = {}
        for l, r, s in self.generator_columns:
            src, tgt = self.block_spaces[(r, s)], self.block_spaces[(r + l - 1, s - l)]
            cols = [self._block_apply(self.generator_columns, l, r, s, {j: one})
                    for j in range(src.dim)]
            out[(l, r, s)] = ExactMatrix(self.field, tgt.dim, src.dim, cols)
        return out

    # assembly ----------------------------------------------------------------
    def degree_blocks(self, n: int) -> list:
        """Blocks (r, s, offset, space) of degree n in filtration order (s
        ascending); the list is shared, not copied."""
        return self._degree_blocks[n]

    def degree_split(self, n: int, flat: int):
        """(r, s, offset, space, local index) of the degree-n basis vector flat:
        the first block that ends after flat, so empty blocks are skipped."""
        i = bisect_right(self._degree_ends[n], flat)
        if i == len(self._degree_ends[n]):
            raise IndexError(flat)
        r, s, off, space = self._degree_blocks[n][i]
        return r, s, off, space, flat - off

    def degree_outer_mult(self, n: int, vec: dict, e_left: int, e_right: int) -> dict:
        """e_left . vec . e_right on the degree-n space, block by block."""
        parts: dict = {}
        for flat, c in vec.items():
            _, _, off, space, local = self.degree_split(n, flat)
            parts.setdefault(off, (space, {}))[1][local] = c
        out: dict = {}
        for off, (space, part) in parts.items():
            out.update((idx + off, v) for idx, v in space.outer_mult(part, e_left, e_right).items())
        return out

    def degree_dim(self, n: int) -> int:
        return self._degree_ends[n][-1]

    def generator_indices(self, n: int) -> list:
        """Degree-n indices of the free generators 1 (x) h (x) a (x) 1."""
        return [off + space.combine(0, mid, 0)
                for _, _, off, space in self.degree_blocks(n) for mid in space.generators()]

    # contracting homotopy ----------------------------------------------------
    def contracting_homotopy(self) -> dict:
        """sigma as a table on left generators: sigma[n + 1] maps the degree-n
        index g of each left generator 1 (x) v (x) e to sigma(g) in degree
        n + 1 (n < cap), and sigma[0] = {0: sigma(1)} holds the image of the
        unit of E.  homotopy_apply extends the table by left multiplication.
        Built on first call and kept: __init__ wraps it in functools.cache.

        On a vector x of block (r, s), sigma(x) is the sum of the sigma^l of
        sigma^0_x(x), minus (when r = 0) the sum of the sigma^l of
        sigma^{-1} mu_s(x), a row target of block (0, s + 1), where
        sigma^l = -sigma^0_x sum_{i<l} d^{l-i} sigma^i is the recursion's
        _contract_step."""
        field, gens, ne = self.field, self.generator_columns, self.cp.e.dim
        one = field.one
        sigma: dict = {0: {0: self._sigma_minus1_column(-1, 0)}}
        for n in range(self.cap):
            table: dict = {}

            def add_legs(out, vec, r, s, coef):
                # out += coef * (sum over l of sigma^l), from sigma^0 = vec in
                # block (r, s); sigma^l lies in block (r + l, s - l)
                legs = [vec]
                for l in range(1, s + 1):
                    legs.append(self._contract_step(gens, enumerate(legs), l, r, s))
                for l, leg in enumerate(legs):
                    off = self.block_offsets[(r + l, s - l)]
                    vec_add_into(out, {i + off: v for i, v in leg.items()}, coef, field)

            for r, s, off, space in self.degree_blocks(n):
                for local in range(space.mid_size * ne):  # the left generators
                    out: dict = {}
                    add_legs(out, self._sigma0_x_column(r, s, local), r + 1, s, one)
                    if r == 0:
                        row = self._mu_column(s, local)
                        row = apply_columns(row, partial(self._sigma_minus1_column, s), field)
                        add_legs(out, row, 0, s + 1, field.neg(one))
                    table[off + local] = out
            sigma[n + 1] = table
        return sigma

    def homotopy_apply(self, n: int, vec: dict) -> dict:
        """sigma_n, the table of contracting_homotopy, on a vector of degree
        n - 1 (of E when n = 0): e_left . g goes to e_left . sigma[n][g] for
        each left generator g (for n = 0, g is the unit of E)."""
        split = partial(self._left_split, n - 1) if n else lambda e_left: (e_left, 0, 0)
        return extend_by_outer_mult(split, self.contracting_homotopy()[n].__getitem__,
                                    partial(self.degree_outer_mult, n), vec, self.field)

    def _left_split(self, n: int, flat: int):
        """(e_left, degree-n index of the left generator g, 0) for the
        degree-n basis vector flat = e_left . g."""
        _, _, off, space, local = self.degree_split(n, flat)
        e_left, tail = divmod(local, space.mid_size * space.ne)
        return e_left, off + tail, 0


def build_resolution_closed(cp: CrossedProductData, cap: int) -> CrossedResolution:
    return CrossedResolution(cp, cap, method="closed")


def build_resolution_recursive(cp: CrossedProductData, cap: int) -> CrossedResolution:
    return CrossedResolution(cp, cap, method="recursive")


def assert_constructions_agree(closed: CrossedResolution, recursive: CrossedResolution) -> None:
    """Raise RecursionMismatch on the first differing boundary block.

    Both methods' blocks are the same E^e-extension of their generator
    columns, so comparing generator columns compares blocks."""
    gens, rec = closed.generator_columns, recursive.generator_columns
    if set(gens) != set(rec):
        raise RecursionMismatch(sorted(set(gens) ^ set(rec))[0])
    for key in sorted(gens):
        if gens[key] != rec[key]:
            raise RecursionMismatch(key)


def double_complex_report(recursive: CrossedResolution) -> dict:
    """The double-complex certificate of a recursive resolution: whether f
    is k.1-valued (the twisting calculus inserts nothing above l = 1), the
    number of l >= 2 generator columns and how many are nonzero.  It fails
    only when f is k.1-valued and some column is nonzero, that is when the
    closed construction's zero blocks would be wrong."""
    if recursive.method != "recursive":
        raise ValueError("the double-complex certificate reads the recursive resolution")
    above = [col for (l, _, _), cols in recursive.generator_columns.items() if l >= 2
             for col in cols]
    scalar = not recursive.calc.inserts(2)
    nonzero = sum(1 for col in above if col)
    return {"scalar_valued": scalar, "columns_above_l1": len(above),
            "nonzero_columns": nonzero, "passed": not (scalar and nonzero)}


def boundaries_vanish(res: CrossedResolution) -> tuple[bool, bool]:
    """(d_n d_{n+1} = 0 for 1 <= n < cap, augmentation d_1 = 0), checked on the
    generator columns of d_{n+1} and d_1: both composites are E^e-linear."""
    one = res.field.one

    def vanishes(first, n):
        return all(not first(res.boundary(n, {j: one})) for j in res.generator_indices(n))
    square = all(vanishes(partial(res.boundary, n), n + 1) for n in range(1, res.cap))
    return square, vanishes(res.augmentation.apply, 1)


def assert_contracting_homotopy(res: CrossedResolution) -> None:
    """Check aug sigma_0 = id on E and d sigma + sigma d = id through degree
    cap - 1, on left generators only, for the table res.contracting_homotopy().

    That proves both identities on every basis vector.  sigma is the left
    extension of its table by construction (homotopy_apply), d is the
    E^e-extension of its generator columns by construction (boundary applies
    it only through _block_apply) and the augmentation is minus the product
    of E by construction (read from E's multiplication table), so both sides
    of each identity are left E-module maps once
    left_mult is a left action on every block of degree <= cap.
    comparison.check_bimodule_extension certifies that when upto = cap - 1,
    as in resolution-check.

    Raises HomotopyIdentityFailure with the first failing degree (-1 stands
    for the augmentation identity on E).
    """
    sigma, field = res.contracting_homotopy(), res.field
    if res.augmentation.apply(sigma[0][0]) != {0: field.one}:
        raise HomotopyIdentityFailure(-1)
    for n in range(res.cap):
        for g, img in sigma[n + 1].items():
            lhs = res.boundary(n + 1, img)
            down = res.augmentation.cols[g] if n == 0 else res.boundary(n, {g: field.one})
            vec_add_into(lhs, res.homotopy_apply(n, down), field.one, field)
            if lhs != {g: field.one}:
                raise HomotopyIdentityFailure(n)
