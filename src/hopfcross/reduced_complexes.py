"""The small normalized complexes computing Hochschild (co)homology of a
crossed product, their untwisted variants, and the H-action on the homology
of A.

Boundaries are derived from the resolution (coefficients tensored in), which
is the provably correct construction; the displayed closed formulas are
evaluated independently and compared block by block.  Any disagreement raises
FormulaMismatch, never a silent fallback.  All four complexes (reduced or
untwisted, chains or cochains) come from one construction chosen by a family
flag.  The derived block places the family's generator table on M, or on M^v
for the cochain mirror, reading each term's action from the bimodule's
sandwich table (BimoduleData.sandwich), which the displayed formulas never
use: the generator columns of d^l for a reduced block, d^l on twisted
generators (TwistedBasis) for an untwisted one.  The check is one displayed
entry, _Literal.block: each family's formula is written once, as the terms
c (x (x) v' (x) y) of d^l on a generator v with x, y in E, and placed on M
both ways: m (x) v -> c y.m.x (x) v' for chains and
phi -> (v -> c x.phi(v').y) for cochains.

The double complex: when f is k.1-valued, d^l vanishes on generators above
l = 1 (twisting.py), and TwistingCalculus.inserts(l) says so once per block.
The assembled complexes then stack d^0 and d^1 only: no l >= 2 block is
derived, displayed or compared, on the reduced or the untwisted side, since
both sides of that comparison would be zero by the same decision.  A direct
call of ReducedComplexes.reduced_block or untwisted_block still derives and
compares any block.  What certifies the vanishing is outside these
complexes: closed = recursive and the double_complex section on
resolution-check runs; for homology, cohomology, spectral, e2-check,
oracle-compare and tor, tests/test_closed_form_inputs.py, which assembles the
reduced chains and cochains and the untwisted chains with every l from the
recursive resolution and compares (oracle-compare also checks the dims
against the bar complex).

Cohomology by duality: for finite-dimensional M, Hom_{E^e}(X, M) is the dual
of M^v (x)_{E^e} X, where M^v is the dual bimodule (crossed.dual_bimodule).
Chains and cochains share one layout, so every cochain matrix here is the
transpose (ExactMatrix.transpose) of a chain matrix with M^v coefficients.
The displayed cochain formulas are placed on M directly, without the dual,
so they stay the independent check.  Both orientations are filtered by the
number s of H legs, one level per coordinate, the same level list: chains
by F_p = {s <= p}, cochains by F^p = {s >= p}, the annihilator of F_{p-1}.

Tables that both sides of the displayed-vs-derived check read, each cached
once per instance of its owner:
  HopfData.comult_power   input: H's comultiplication rows, expanded (the
                          rows pass verify_hopf).
  the Sweedler legs       input: comult_power leg by leg (hopf.sweedler_legs);
                          the resolution, TwistedBasis and _Literal each
                          cache their own.
  TwistingCalculus.iter_act
                          input: the action rows applied leg by leg (the
                          rows pass verify_crossed_axioms).
  TwistingCalculus.h_product
                          input: H's multiplication rows; not cached.
  unit_section_inverse_map
                          input: the paper's formula on the cocycle's
                          convolution inverse, read by the untwisted family
                          only and built once per side (TwistedBasis,
                          _Literal.uinv); the tests check it against 1#h.
  TwistingCalculus.insertion_column
                          part of what is checked, and the known shared
                          table: the closed d^l and the displayed d^l read
                          the same cache (self.calc is res.calc), so a wrong
                          column cannot show here; closed = recursive and
                          tests/insertion_reference.py check it.

Space layouts (flat, row-major), argument first on both sides:
  chain blocks     M (x) Hbar^s (x) Abar^r   ->  (h_1..h_s, a_1..a_r, m)
  untwisted chain  M (x) Abar^r (x) Hbar^s   ->  (a_1..a_r, h_1..h_s, m)
  cochain blocks   Hom(args, M)              ->  arg_index * dim(M) + m
  twisted X block  E (x) t(a, h) (x) E       ->  (e_left, a.., h.., e_right)
Degree spaces stack the blocks with r + s = n in increasing s.
"""

from __future__ import annotations

from functools import cache, cached_property, partial

from .complexes import COHOMOLOGY, HOMOLOGY, ChainComplex, FilteredComplex, HomologyLift
from .crossed import (
    BimoduleData,
    CrossedProductData,
    dual_bimodule,
    restrict_bimodule_to_a,
    unit_section_inverse_map,
)
from .bar import hochschild_chain_complex, hochschild_cochain_complex
from .hopf import sweedler_expand, sweedler_legs
from .linalg import ExactMatrix, apply_columns
from .resolution import CrossedResolution, extend_by_outer_mult
from .tensors import TensorSpace, mid_key, mid_rank, tensor_vectors
from .twisting import TwistingCalculus


class FormulaMismatch(Exception):
    def __init__(self, which: str, l: int, r: int, s: int):
        super().__init__(
            f"displayed formula for {which} block (l={l}, r={r}, s={s}) "
            f"disagrees with the resolution-derived boundary"
        )
        self.which = which
        self.block = (l, r, s)


# block spaces ---------------------------------------------------------------

def _reduced_mid_space(cp, r, s):
    return TensorSpace((cp.h.dim - 1,) * s + (cp.a.dim - 1,) * r)


def _untwisted_mid_space(cp, r, s):
    return TensorSpace((cp.a.dim - 1,) * r + (cp.h.dim - 1,) * s)


# resolution-derived boundaries ----------------------------------------------

def _placed_table(m: BimoduleData, tgt, table) -> ExactMatrix:
    """M (x)_{E^e} of a generator table: m (x) v -> sum c e_right . m . e_left (x) v'
    over the terms of each generator v, flat over the block space tgt, laid
    out (v, m) at v * dim(M) + m.

    Each term reads e_right . e_mi . e_left for every mi at once from the
    bimodule's sandwich table."""
    field, sandwich, dim = m.field, m.sandwich, m.dim
    cols: list[dict] = [{} for _ in range(len(table) * dim)]
    for mid, terms in enumerate(table):
        for flat, c in terms.items():
            e_left, mid_t, e_right = tgt.split(flat)
            for mi, img in enumerate(sandwich(e_right, e_left)):
                col = cols[mid * dim + mi]
                for mj, cm in img.items():
                    k = mid_t * dim + mj
                    col[k] = col.get(k, 0) + c * cm
    return ExactMatrix(field, tgt.mid_size * dim, len(table) * dim, [field.settle(col) for col in cols])


def reduced_block_from_resolution(res: CrossedResolution, m: BimoduleData, l, r, s) -> ExactMatrix:
    """M (x)_{E^e} d^l_{rs}: sends m (x) v to sum e_right . m . e_left (x) v',
    placed from the generator columns."""
    return _placed_table(m, res.block_spaces[(r + l - 1, s - l)], res.generator_columns[(l, r, s)])


def reduced_cochain_block_from_resolution(res, m: BimoduleData, l, r, s) -> ExactMatrix:
    """Hom_{E^e}(d^l_{rs}, M): phi -> (v -> sum e_left . phi(v') . e_right)."""
    return reduced_block_from_resolution(res, dual_bimodule(m), l, r, s).transpose()


class TwistedBasis:
    """d^l on the twisted generators t(a, h) = sum x(h^(1)) . g(h^(2), a) of X,
    where g(h, a) = 1 (x) h (x) a (x) 1 and x(h) = (1#h_s)^{-1} ... (1#h_1)^{-1}
    (leg-by-leg Sweedler components); back, g(h, a) = sum y(h^(1)) . t(a, h^(2))
    with y(h) = (1#h_1) ... (1#h_s).  In M (x)_{E^e} X, m (x) t(a, h) is the
    untwisted coordinate m (x) a (x) h, so an untwisted block is a table on
    twisted generators placed on M (on M^v for the cochain mirror).  E products
    come from E's multiplication rows and the Sweedler legs from a memo of its
    own: the displayed formulas (_Literal) share neither."""

    def __init__(self, res: CrossedResolution):
        self.res, self.cp, self.field = res, res.cp, res.field
        self._uinv = unit_section_inverse_map(res.cp)
        self._sweedler = cache(self._sweedler)
        self._product = cache(self._product)
        self._change = cache(self._change)
        self.generator_table = cache(self.generator_table)

    def _sweedler(self, hs: tuple) -> dict:
        """sweedler_legs(H, hs, 2), for this basis only; shared, read only."""
        return sweedler_legs(self.cp.h, hs, 2)

    def _product(self, inverse: bool, hs: tuple) -> dict:
        """x(hs) when inverse, else y(hs), one leg at a time; shared, read only."""
        cp, field = self.cp, self.field
        if not hs:
            return {cp.e.unit_index: field.one}
        rest = self._product(inverse, hs[:-1])
        left, right = ((self._uinv[hs[-1]], rest) if inverse
                       else (rest, {cp.include_h(hs[-1]): field.one}))
        return apply_columns(left, lambda i: apply_columns(right, cp.e.mult[i], field), field)

    def _change(self, to_twisted: bool, r: int, s: int) -> list:
        """Each generator of block (r, s) in the other basis, flat over the block:
        g(h, a) -> sum y(h^(1)) (x) t(a, h^(2)) (x) 1 when to_twisted (g ranked H
        legs first), else t(a, h) -> sum x(h^(1)) (x) g(h^(2), a) (x) 1."""
        space = self.res.block_spaces[(r, s)]
        h_first = space.radices
        a_first = h_first[s:] + h_first[:s]
        table = []
        for mid in space.generators():
            legs = mid_key(h_first if to_twisted else a_first, mid)
            hs, avs = (legs[:s], legs[s:]) if to_twisted else (legs[r:], legs[:r])
            out: dict = {}
            for comps, c in self._sweedler(hs).items():
                seconds = comps[1::2]
                mid_t = (mid_rank(a_first, avs + seconds) if to_twisted
                         else mid_rank(h_first, seconds + avs))
                if mid_t is not None:
                    for e, ce in self._product(not to_twisted, comps[0::2]).items():
                        k = space.combine(e, mid_t, 0)
                        out[k] = out.get(k, 0) + c * ce
            table.append(self.field.settle(out))
        return table

    def generator_table(self, l, r, s) -> list:
        """Per twisted generator t of block (r, s), in the untwisted order:
        d^l(t) in the twisted basis of block (r + l - 1, s - l), flat over that
        block.  d^l and the rebasing are E^e-extensions.  Built once per
        (l, r, s), for the chains on M and the cochain mirror on M^v."""
        res, field = self.res, self.field
        src, tgt = res.block_spaces[(r, s)], res.block_spaces[(r + l - 1, s - l)]
        d, rebase = res.generator_columns[(l, r, s)], self._change(True, r + l - 1, s - l)
        cols = []
        for t in self._change(False, r, s):
            image = extend_by_outer_mult(src.split, d.__getitem__, tgt.outer_mult, t, field)
            cols.append(extend_by_outer_mult(tgt.split, rebase.__getitem__, tgt.outer_mult, image, field))
        return cols


# displayed formulas -----------------------------------------------------------

class _Literal:
    """Evaluator for the displayed boundary formulas of the small complexes.

    Every displayed term of d^l on a generator v is c (x (x) v' (x) y) with x
    and y in E.  reduced_terms and untwisted_terms yield these terms once, as
    (x, key of v', y, c) with x, y sparse E-vectors; block puts a family's
    terms on M, m (x) v -> c y.m.x (x) v' for chains and
    phi -> (v -> c x.phi(v').y) for cochains.  Both act on M directly; no
    resolution or dual code is used.
    """

    def __init__(self, cp: CrossedProductData, m: BimoduleData, calc: TwistingCalculus):
        self.cp = cp
        self.m = m
        self.calc = calc
        self.field = cp.field
        self.one = {cp.e.unit_index: cp.field.one}
        # shared by the blocks of one assembled complex, cleared by
        # ReducedComplexes._filtered
        self.images = cache(self.images)
        # sweedler_legs(H, hs, count) for this evaluator only; shared, read only
        self.sweedler = cache(partial(sweedler_legs, cp.h))

    @cached_property
    def uinv(self) -> list:
        """The section inverses (1#h)^{-1}, per H basis index; built on first use."""
        return unit_section_inverse_map(self.cp)

    def include_a(self, avec: dict) -> dict:
        return {self.cp.include_a(ai): c for ai, c in avec.items()}

    def include_h(self, h_idx: int) -> dict:
        return {self.cp.include_h(h_idx): self.field.one}

    def block(self, untwisted: bool, l, r, s, cochain: bool) -> ExactMatrix:
        """The displayed block of d^l on M, reduced or untwisted, laid out
        (arg, m) at arg * dim(M) + m on both sides.

        The images y.e_mi.x (chains) or x.e_mi.y (cochains) of the basis of M
        are computed once per distinct (x, y), by self.images."""
        field, dim = self.field, self.m.dim
        terms, mid_space = ((self.untwisted_terms, _untwisted_mid_space) if untwisted
                            else (self.reduced_terms, _reduced_mid_space))
        src = mid_space(self.cp, r, s)
        tgt = mid_space(self.cp, r + l - 1, s - l)
        row_space, col_space = (src, tgt) if cochain else (tgt, src)
        cols: list[dict] = [{} for _ in range(col_space.size * dim)]
        for mid in range(src.size):
            for x, key, y, c in terms(mid_key(src.dims, mid), l, r, s):
                mid_t = mid_rank(tgt.dims, key)
                if mid_t is None:
                    continue
                per_m = self.images(cochain, tuple(x.items()), tuple(y.items()))
                # chains: e_mi at v goes to c y.e_mi.x at v';
                # cochains: e_mi at v' goes to c x.e_mi.y at v
                col_at, row_at = (mid_t, mid) if cochain else (mid, mid_t)
                for mi, img in enumerate(per_m):
                    col = cols[col_at * dim + mi]
                    get = col.get
                    for mj, cm in img.items():
                        k = row_at * dim + mj
                        col[k] = get(k, 0) + c * cm
        return ExactMatrix(field, row_space.size * dim, col_space.size * dim,
                           [field.settle(col) for col in cols])

    def images(self, cochain: bool, x_items: tuple, y_items: tuple) -> list:
        """[x.e_mi.y (cochains) or y.e_mi.x (chains) for every basis index mi
        of M], for the E-vectors x and y given by their items."""
        m, one, x, y = self.m, self.field.one, dict(x_items), dict(y_items)
        if cochain:
            return [m.right_elem(m.left_elem(x, {mi: one}), y) for mi in range(m.dim)]
        return [m.left_elem(y, m.right_elem({mi: one}, x)) for mi in range(m.dim)]

    def reduced_terms(self, key: tuple, l, r, s):
        """Terms of d^l on h_1 .. h_s (x) a_1 .. a_r in the reduced complex."""
        cp, field, calc, one = self.cp, self.field, self.calc, self.one
        hs, avs = key[:s], key[s:]
        if l == 0:
            for comps, c in self.sweedler(hs, 2).items():
                acted = calc.iter_act(comps[0::2], avs[0])
                yield self.include_a(acted), comps[1::2] + avs[1:], one, c
            for merged, c in _inner_faces(cp, avs):
                yield one, hs + merged, one, c
            sign = field.sign(r)
            yield one, hs + avs[:-1], self.include_a({avs[-1]: field.one}), sign
        elif l == 1:
            sign = field.sign(r)
            yield self.include_h(hs[0]), hs[1:] + avs, one, sign
            sign = field.sign(r + s)
            for comps, c in self.sweedler(hs[-1:], r + 1).items():
                legs = [cp.action.act[comps[k]][avs[k]] for k in range(r)]
                y = self.include_h(comps[r])
                for alegs, coef in tensor_vectors(legs, field.mul(c, sign), field).items():
                    yield one, hs[:-1] + alegs, y, coef
            for i in range(1, s):
                tsign = field.sign(r + i)
                for comps, c in self.sweedler(hs[: i + 1], 2).items():
                    firsts, seconds = comps[0::2], comps[1::2]
                    fv = calc.iter_act_vec(firsts[: i - 1], cp.cocycle.f[firsts[i - 1]][firsts[i]])
                    if not fv:
                        continue
                    x = self.include_a(fv)
                    for hm, cm in cp.h.algebra.mult[seconds[i - 1]][seconds[i]].items():
                        out_key = seconds[: i - 1] + (hm,) + hs[i + 1 :] + avs
                        yield x, out_key, one, field.mul(field.mul(c, tsign), cm)
        elif calc.inserts(l):
            sign = field.sign(l * (r + s))
            f_tgt = calc.target_space(l, r)
            for comps, c in self.sweedler(hs[s - l :], 2).items():
                fvec = calc.insertion_column(l, r, comps[0::2], avs)
                if not fvec:
                    continue
                for hm, cm in calc.h_product(comps[1::2]).items():
                    y = self.include_h(hm)
                    for fid, cf in fvec.items():
                        yield (one, hs[: s - l] + f_tgt.unrank(fid), y,
                               field.mul(field.mul(c, sign), field.mul(cm, cf)))

    def untwisted_terms(self, key: tuple, l, r, s):
        """Terms of d^l on a_1 .. a_r (x) h_1 .. h_s in the untwisted complex."""
        cp, field, calc, one = self.cp, self.field, self.calc, self.one
        avs, hs = key[:r], key[r:]
        if l == 0:
            yield self.include_a({avs[0]: field.one}), avs[1:] + hs, one, field.one
            for merged, c in _inner_faces(cp, avs):
                yield one, merged + hs, one, c
            sign = field.sign(r)
            yield one, avs[:-1] + hs, self.include_a({avs[-1]: field.one}), sign
        elif l == 1:
            sign = field.sign(r)
            eps = cp.h.counit[hs[0]]
            if not field.is_zero(eps):
                yield one, avs + hs[1:], one, field.mul(sign, eps)
            sign = field.sign(r + s)
            for comps, c in self.sweedler(hs[-1:], r + 2).items():
                x, y = self.uinv[comps[0]], self.include_h(comps[r + 1])
                legs = [cp.action.act[comps[1 + k]][avs[k]] for k in range(r)]
                for alegs, coef in tensor_vectors(legs, field.mul(c, sign), field).items():
                    yield x, alegs + hs[:-1], y, coef
            for i in range(1, s):
                tsign = field.sign(r + i)
                for hm, cm in cp.h.algebra.mult[hs[i - 1]][hs[i]].items():
                    yield one, avs + hs[: i - 1] + (hm,) + hs[i + 1 :], one, field.mul(tsign, cm)
        elif calc.inserts(l):
            sign = field.sign(l * (r + s))
            f_tgt = calc.target_space(l, r)
            for comps, c in self.sweedler(hs[s - l :], 3).items():
                firsts = comps[0::3]
                fvec = calc.insertion_column(l, r, comps[1::3], avs)
                if not fvec:
                    continue
                # the inverse of the ordered product (1#h_{s-l+1}^(1)) ... (1#h_s^(1)):
                # the section inverses multiplied in reverse order
                x = self.uinv[firsts[-1]]
                for t in range(l - 2, -1, -1):
                    x = cp.e.mult_elems(x, self.uinv[firsts[t]])
                for hm, cm in calc.h_product(comps[2::3]).items():
                    y = self.include_h(hm)
                    for fid, cf in fvec.items():
                        yield (x, f_tgt.unrank(fid) + hs[: s - l], y,
                               field.mul(field.mul(c, sign), field.mul(cm, cf)))


def _inner_faces(cp: CrossedProductData, avs: tuple):
    """The inner Hochschild faces of a_1 .. a_r: (a_1 .. a_i a_{i+1} .. a_r, (-1)^i c)."""
    field = cp.field
    sign = field.one
    for i in range(1, len(avs)):
        sign = field.neg(sign)
        for am, cm in cp.a.mult[avs[i - 1]][avs[i]].items():
            yield avs[: i - 1] + (am,) + avs[i + 1 :], field.mul(sign, cm)


# complex assembly --------------------------------------------------------------

def _assemble_chain(field, cp, m, cap, block_fn, inserts):
    """Stack blocks (r+s = n, s ascending) into degree matrices and filtration
    levels (each coordinate's number of H legs).  block_fn is called only for
    the l with inserts(l) (TwistingCalculus.inserts): the other d^l are zero.
    """
    sizes = [[(cp.h.dim - 1) ** s * (cp.a.dim - 1) ** (n - s) for s in range(n + 1)]
             for n in range(cap + 1)]
    dims = []
    offsets = []  # offsets[n][s]: first index of block (n - s, s)
    for per_degree in sizes:
        offs = [0]
        for size in per_degree:
            offs.append(offs[-1] + m.dim * size)
        dims.append(offs.pop())
        offsets.append(offs)

    maps: list = [None]
    for n in range(1, cap + 1):
        cols: list[dict] = []
        for s in range(n + 1):
            r = n - s
            block_mats = {}
            for l in range(0 if r else 1, s + 1):
                if inserts(l):
                    block_mats[l] = block_fn(l, r, s)
            for local in range(m.dim * sizes[n][s]):
                col: dict = {}
                for l, mat in block_mats.items():
                    # each l lands in its own target block (r + l - 1, s - l)
                    toff = offsets[n - 1][s - l]
                    col.update((i + toff, v) for i, v in mat.cols[local].items())
                cols.append(col)
        maps.append(ExactMatrix(field, dims[n - 1], dims[n], cols))

    # each coordinate's level: the number s of H legs in its block
    levels = [[s for s, size in enumerate(per_degree) for _ in range(m.dim * size)]
              for per_degree in sizes]
    return dims, maps, levels


class ReducedComplexes:
    """Builder for all four small complexes attached to (cp, M).

    The resolution route is authoritative; every block it assembles is
    checked against the displayed formula and FormulaMismatch is raised on
    disagreement.  A block d^l with TwistingCalculus.inserts(l) false (l >= 2,
    f valued in k.1) is zero and not assembled (see the module docstring).
    The cochain complexes are the transposes of the chain complexes with
    coefficients M^v; their blocks are checked against the
    displayed formulas placed as cochains on M, the same terms that check
    the chain blocks.  One twisted-generator table per (l, r, s) serves the
    untwisted blocks on M and on M^v.  reduced_block and untwisted_block are
    the two families of the one construction, _block.
    """

    def __init__(self, cp: CrossedProductData, m: BimoduleData, cap: int,
                 res: CrossedResolution | None = None):
        self.cp = cp
        self.m = m
        self.cap = cap
        self.field = cp.field
        if res is not None and (res.cp is not cp or res.cap < cap):
            raise ValueError("supplied resolution does not cover this product and cap")
        self.res = res if res is not None else CrossedResolution(cp, cap)
        self.calc = self.res.calc
        self.literal = _Literal(cp, m, self.calc)

    @cached_property
    def dual(self) -> BimoduleData:
        """M^v, the coefficients of the chain mirrors of the cochain complexes."""
        return dual_bimodule(self.m)

    @cached_property
    def twisted(self) -> TwistedBasis:
        """The twisted generators of the resolution; built on first use, needs the inverse."""
        return TwistedBasis(self.res)

    def _block(self, untwisted: bool, l, r, s, cochain: bool) -> ExactMatrix:
        """The family's generator table placed on M, or with cochain on M^v;
        FormulaMismatch unless the displayed formula on M gives it (transposed
        first for cochains)."""
        coeff = self.dual if cochain else self.m
        if untwisted:
            table = self.twisted.generator_table(l, r, s)
            derived = _placed_table(coeff, self.res.block_spaces[(r + l - 1, s - l)], table)
        else:
            derived = reduced_block_from_resolution(self.res, coeff, l, r, s)
        placed = derived.transpose() if cochain else derived
        if self.literal.block(untwisted, l, r, s, cochain) != placed:
            which = ("untwisted-" if untwisted else "") + ("cochain" if cochain else "chain")
            raise FormulaMismatch(which, l, r, s)
        return derived

    def reduced_block(self, l, r, s, cochain: bool = False) -> ExactMatrix:
        """The reduced chain block of d^l on M, or with cochain its chain
        mirror on M^v (transposed, the cochain block on M)."""
        return self._block(False, l, r, s, cochain)

    def reduced_cochain_block(self, l, r, s) -> ExactMatrix:
        return self.reduced_block(l, r, s, cochain=True).transpose()

    def untwisted_block(self, l, r, s, cochain: bool = False) -> ExactMatrix:
        """The untwisted chain block of d^l on M, or with cochain its chain
        mirror on M^v (transposed, the untwisted cochain block on M)."""
        return self._block(True, l, r, s, cochain)

    def _filtered(self, untwisted: bool, cochain: bool) -> FilteredComplex:
        """Assembled complex; for cochains, the transpose of the M^v chains."""
        if untwisted:
            self.cp.require_inverse()
        block_fn = partial(self.untwisted_block if untwisted else self.reduced_block, cochain=cochain)
        dims, maps, levels = _assemble_chain(
            self.field, self.cp, self.m, self.cap, block_fn, self.calc.inserts
        )
        self.literal.images.cache_clear()
        if cochain:
            maps = [None] + [d.transpose() for d in maps[1:]]
        cx = ChainComplex(self.field, dims, maps, COHOMOLOGY if cochain else HOMOLOGY)
        return FilteredComplex(cx, levels)

    def reduced_chain_complex(self) -> FilteredComplex:
        return self._filtered(False, False)

    def reduced_cochain_complex(self) -> FilteredComplex:
        return self._filtered(False, True)

    def untwisted_chain_complex(self) -> FilteredComplex:
        """The conjugate complex on M (x) Abar^r (x) Hbar^s; needs the inverse."""
        return self._filtered(True, False)

    def untwisted_cochain_complex(self) -> FilteredComplex:
        return self._filtered(True, True)


# the H-action on the homology of A --------------------------------------------

def conjugation_chain_matrix(cp: CrossedProductData, m: BimoduleData, r: int, h_idx: int,
                             uinv: list) -> ExactMatrix:
    """Conjugation action of h on M (x) Abar^r:
    m (x) a -> (1#h^(3)) m (1#h^(1))^{-1} (x) a^(h^(2)), laid out (a, m) like
    bar.hochschild_chain_complex, where uinv lists the section inverses
    (1#h)^{-1} (unit_section_inverse_map)."""
    field = cp.field
    mid = TensorSpace((cp.a.dim - 1,) * r)
    dim = m.dim * mid.size
    triple = list(sweedler_expand(cp.h, 3, {h_idx: field.one}).items())
    # the middle leg of each Sweedler term, expanded once for every m and a
    middles = [sweedler_legs(cp.h, (h2,), r) if r > 0 else {(): cp.h.counit[h2]}
               for (_, h2, _), _ in triple]
    keys = [mid_key(mid.dims, t) for t in range(mid.size)]
    cols: list = [None] * dim
    for mi in range(m.dim):
        # (1#h^(3)) e_mi (1#h^(1))^{-1}, once for every a
        mvecs = [m.left_elem({cp.include_h(h3): field.one}, m.right_elem({mi: field.one}, uinv[h1]))
                 for (h1, _, h3), _ in triple]
        for t, avs in enumerate(keys):
            col: dict = {}
            get = col.get
            for (_, c), mvec, expanded in zip(triple, mvecs, middles):
                if not mvec:
                    continue
                for comps, c2 in expanded.items():
                    if field.is_zero(c2):
                        continue
                    legs = [cp.action.act[comps[k]][avs[k]] for k in range(r)]
                    for alegs, coef in tensor_vectors(legs, field.mul(c, c2), field).items():
                        tt = mid_rank(mid.dims, alegs)
                        if tt is None:
                            continue
                        for mj, cm in mvec.items():
                            k = tt * m.dim + mj
                            col[k] = get(k, 0) + coef * cm
            cols[t * m.dim + mi] = field.settle(col)
    return ExactMatrix(field, dim, dim, cols)


class HActionOnHomology:
    """Induced matrices of the conjugation action on H_*(A, M) per H basis element.

    Cycle selection is deterministic (the kernel columns that stay pivots
    after the image span, complexes.HomologyLift), and the H-module law
    holds on homology.
    """

    def __init__(self, cp: CrossedProductData, m: BimoduleData, cap: int,
                 cochain: bool = False):
        self.cp = cp
        self.m = m
        self.cap = cap
        self.cochain = cochain
        self.field = cp.field
        m_a = restrict_bimodule_to_a(cp, m)
        if cochain:
            self.complex = hochschild_cochain_complex(cp.a, m_a, cap)
        else:
            self.complex = hochschild_chain_complex(cp.a, m_a, cap)
        self.lifts = [HomologyLift(self.complex, n) for n in range(cap)]
        # the right action (phi . h)(a) = (1#h^(1))^{-1} phi(a^(h^(2))) (1#h^(3))
        # on Hom(Abar^r, M) is the dual of the conjugation on M^v (x) Abar^r
        self.dual = dual_bimodule(m) if cochain else None
        uinv, coeff = unit_section_inverse_map(cp), self.dual if cochain else m
        self.chain_mats: list[list[ExactMatrix]] = []
        for r in range(cap):
            mats = [conjugation_chain_matrix(cp, coeff, r, h_idx, uinv) for h_idx in range(cp.h.dim)]
            self.chain_mats.append([mat.transpose() for mat in mats] if cochain else mats)
        self.induced: list[list[ExactMatrix]] = [
            [self.lifts[r].induced(mat) for mat in self.chain_mats[r]]
            for r in range(cap)
        ]

    def homology_dims(self) -> list[int]:
        return [lift.rank for lift in self.lifts]

    def as_h_module(self, r: int):
        """(dim, rho) consumable by the H-(co)homology complexes."""
        return self.lifts[r].rank, self.induced[r]
