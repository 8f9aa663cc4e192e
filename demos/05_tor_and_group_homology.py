"""Tor through the bimodule trick, and Hopf-algebra homology with module
coefficients.

Tor over E of one-sided modules is the Hochschild homology of E with
coefficients in their tensor product, so the whole engine applies; for group
algebras with trivial modules this recovers group homology.  The same trick
gives the homology of a Hopf algebra H with coefficients in a left module N:
it is the Hochschild homology of H with coefficients in N (x) k_eps, the
bimodule N with the counit as its right action.
"""

from hopfcross import FieldSpec
from hopfcross.bar import hochschild_chain_complex
from hopfcross.complexes import homology_dims
from hopfcross.crossed import tensor_bimodule
from hopfcross.homology import tor_spectral_report
from hopfcross.problems import builtin, cyclic_group_hopf

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)

print("== Tor over the group algebra of Z/2 with trivial modules ==")
for field, label in ((F2, "F_2"), (Q, "Q")):
    pf = builtin("z2_trivial", field=field)
    cp = pf.crossed_product()
    right, left = pf.tor_modules
    rep = tor_spectral_report(cp, right, left, cap=4)
    print(f"  over {label}: Tor_* = {rep['tor_dims']}  "
          f"(oracle agrees: {rep['oracle_match']}, pages identified: {rep['e2']['pass']})")
print("  these are the homology groups of the group Z/2, as they must be.")

print()
print("== homology of a Hopf algebra with trivial coefficients, directly ==")
for field, label in ((F2, "F_2"), (Q, "Q")):
    h = cyclic_group_hopf(field, 2)
    # k with h acting by the counit, as a left module N (act[h][n]) and as k_eps (act[n][h])
    trivial = (1, [[{0: c}] for c in h.counit])
    k_eps = (1, [[{0: c} for c in h.counit]])
    cx = hochschild_chain_complex(h.algebra, tensor_bimodule(h.algebra, trivial, k_eps), 4)
    print(f"  H_*(k[Z/2], k) over {label}: {homology_dims(cx)}")

print()
print("== a free module has no higher Tor ==")
from hopfcross.homology import regular_left_module, regular_right_module

cp = builtin("klein_four").crossed_product()
rep = tor_spectral_report(cp, regular_right_module(cp), regular_left_module(cp), cap=3)
print(f"  Tor_*(E, E) over the Klein-four algebra: {rep['tor_dims']}")
