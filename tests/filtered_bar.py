"""The bar-complex oracles of hopfcross.bar, filtered by legs outside A#1.

For a crossed product E = A #_f H, a basis tensor of Ebar^n has some number
of legs whose H-index is not the unit; that count is the coordinate's level.
The chain oracle is filtered increasingly by it (F^i: at most i such legs)
and the cochain oracle decreasingly (F_i: maps vanishing when fewer than i
legs lie outside A#1).
The spectral tests compare these filtered oracles with the reduced complexes.
"""

from hopfcross.bar import hochschild_chain_complex, hochschild_cochain_complex
from hopfcross.complexes import FilteredComplex
from hopfcross.crossed import BimoduleData, CrossedProductData
from hopfcross.tensors import TensorSpace


def _legs_outside_a(cp: CrossedProductData, ebar_tuple) -> int:
    count = 0
    for x in ebar_tuple:
        _, h_idx = cp.e_unrank(x + 1)
        if h_idx != 0:
            count += 1
    return count


def _levels(cp: CrossedProductData, m: BimoduleData, cap: int) -> list:
    """Each coordinate's level, per degree.  Chains and cochains are both laid
    out (argument, m), so each argument's level repeats dim M times."""
    dim_ebar = cp.e.dim - 1
    return [
        [_legs_outside_a(cp, t) for t in TensorSpace((dim_ebar,) * n) for _ in range(m.dim)]
        for n in range(cap + 1)
    ]


def hochschild_chain_filtered(
    cp: CrossedProductData, m: BimoduleData, cap: int
) -> FilteredComplex:
    """The chain oracle with F^i = span of tensors having at most i legs outside A#1."""
    return FilteredComplex(hochschild_chain_complex(cp.e, m, cap), _levels(cp, m, cap))


def hochschild_cochain_filtered(
    cp: CrossedProductData, m: BimoduleData, cap: int
) -> FilteredComplex:
    """The cochain oracle with the decreasing filtration F_i = maps vanishing
    whenever fewer than i legs lie outside A#1."""
    return FilteredComplex(hochschild_cochain_complex(cp.e, m, cap), _levels(cp, m, cap))
