"""Seeded problem files for the benchmark.

Each problem is a gallery example moved to another basis by a signed
permutation of the non-unit basis vectors of A and of H: the new basis vector
i is s_i * e_pi(i), with pi(0) = 0 and s_0 = 1.  Structure constants, action,
cocycle and Hopf structure are transported, so every entry stays in {0, +-1}
and the problem is isomorphic to the gallery one.  The unit stays at index 0,
so the normalized complements Abar and Hbar and the H-leg filtration are
preserved, and every dim and page cell is the same for every seed.  Seed 0 is
the identity, that is the gallery as shipped.
"""

from __future__ import annotations

import random

from hopfcross.algebras import AlgebraData
from hopfcross.crossed import CocycleData, WeakActionData
from hopfcross.fields import FieldSpec
from hopfcross.hopf import HopfData
from hopfcross.problems import ProblemFile, builtin


class SignedPermutation:
    """New basis vector i is sign[i] * old basis vector perm[i]."""

    def __init__(self, perm: list[int], sign: list[int]):
        self.perm = perm
        self.sign = sign
        self.inv = [0] * len(perm)
        for i, p in enumerate(perm):
            self.inv[p] = i

    @classmethod
    def draw(cls, rng: random.Random | None, dim: int) -> "SignedPermutation":
        if rng is None:
            return cls(list(range(dim)), [1] * dim)
        rest = list(range(1, dim))
        rng.shuffle(rest)
        return cls([0] + rest, [1] + [rng.choice((1, -1)) for _ in range(dim - 1)])


def _signed(field: FieldSpec, c, *signs):
    negative = sum(1 for s in signs if s < 0) % 2
    return field.neg(c) if negative else c


def _vec(field, vec: dict, p: SignedPermutation, *signs) -> dict:
    """Coordinates in the new basis of sign * vec, vec given in the old one."""
    return {p.inv[k]: _signed(field, c, p.sign[p.inv[k]], *signs) for k, c in vec.items()}


def _bilinear(field, table, left: SignedPermutation, right: SignedPermutation,
              out: SignedPermutation):
    return [
        [_vec(field, table[left.perm[i]][right.perm[j]], out, left.sign[i], right.sign[j])
         for j in range(len(right.perm))]
        for i in range(len(left.perm))
    ]


def transport(pf: ProblemFile, pa: SignedPermutation, ph: SignedPermutation) -> ProblemFile:
    """The same problem in the bases given by pa (for A) and ph (for H)."""
    field = pf.field
    a, h = pf.algebra, pf.hopf

    def labels(old, p):
        return [("-" if p.sign[i] < 0 else "") + old[p.perm[i]] for i in range(len(p.perm))]

    algebra = AlgebraData(field, a.dim, labels(a.basis_labels, pa),
                          _bilinear(field, a.mult, pa, pa, pa))
    h_alg = AlgebraData(field, h.dim, labels(h.algebra.basis_labels, ph),
                        _bilinear(field, h.algebra.mult, ph, ph, ph))
    comult = []
    for i in range(h.dim):
        row = {}
        for (j, k), c in h.comult[ph.perm[i]].items():
            nj, nk = ph.inv[j], ph.inv[k]
            row[(nj, nk)] = _signed(field, c, ph.sign[i], ph.sign[nj], ph.sign[nk])
        comult.append(row)
    counit = [_signed(field, h.counit[ph.perm[i]], ph.sign[i]) for i in range(h.dim)]
    antipode = [_vec(field, h.antipode[ph.perm[i]], ph, ph.sign[i]) for i in range(h.dim)]
    hopf = HopfData(h_alg, comult, counit, antipode)
    action = WeakActionData(field, h.dim, a.dim, _bilinear(field, pf.action.act, ph, pa, pa))
    cocycle = CocycleData(field, h.dim, a.dim, _bilinear(field, pf.cocycle.f, ph, ph, pa))
    # Tor modules are indexed by the basis of E and no workload runs `tor`,
    # so they are left out rather than transported.
    return ProblemFile(field, algebra, hopf, action, cocycle, options=pf.options,
                       name=pf.name)


def seeded_problem(name: str, field: str, seed: int) -> ProblemFile:
    """Gallery problem `name` over `field`, in the basis drawn from `seed`."""
    pf = builtin(name, field=FieldSpec.parse(field))
    rng = random.Random(f"{seed}:{name}:{field}") if seed else None
    pa = SignedPermutation.draw(rng, pf.algebra.dim)
    ph = SignedPermutation.draw(rng, pf.hopf.dim)
    return transport(pf, pa, ph)
