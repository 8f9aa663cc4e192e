"""Certificates for the small resolution and its comparison with the bar
resolution.

Nothing here computes homology: exactness is certified by an explicit
contracting homotopy, and the two resolutions are compared by explicit chain
maps whose composites are the identity (one way) and homotopic to it (the
other).  Every identity is exact, and checked on (left) bimodule generators.
"""

import time

from hopfcross.comparison import (
    BarCalculus,
    build_comparison,
    check_bimodule_extension,
    check_comparison_identities,
    check_filtration_preservation,
)
from hopfcross.problems import builtin
from hopfcross.resolution import (
    HomotopyIdentityFailure,
    RecursionMismatch,
    assert_constructions_agree,
    assert_contracting_homotopy,
    boundaries_vanish,
    build_resolution_closed,
    build_resolution_recursive,
)

cp = builtin("sweedler_smash").crossed_product()
t0 = time.time()
res = build_resolution_closed(cp, 4)
print(f"small resolution of the Sweedler smash product, degrees 0..4 "
      f"({time.time() - t0:.1f}s)")
print(f"  degree dimensions: {res.dims}")
bar = BarCalculus(cp, 5)
bar_dims = [sp.dim for sp in bar.spaces]
print(f"  bar resolution:    {bar_dims}")

print()
print("square-zero and augmentation:")
# both composites are E^e-linear, so they are checked on generators
assert boundaries_vanish(res) == (True, True)
print("  d o d = 0 and aug o d_1 = 0, exactly")

# sigma is a table on left generators 1 (x) v (x) e, extended by left
# multiplication, so the identities are checked on left generators
try:
    assert_contracting_homotopy(res)
    ok = True
except HomotopyIdentityFailure:
    ok = False
sigma = res.contracting_homotopy()  # the table the check read, built once
print(f"  contracting homotopy identities on {sum(map(len, sigma.values()))} left generators: "
      f"{'exact' if ok else 'FAILED'}")

print()
print("the two block constructions agree:")
t0 = time.time()
rec = build_resolution_recursive(cp, 4)
try:
    assert_constructions_agree(res, rec)
    same = True
except RecursionMismatch:
    same = False
print(f"  closed == recursive on the generator columns of {len(rec.generator_columns)} "
      f"blocks ({time.time() - t0:.1f}s): {same}")

print()
print("comparison with the bar resolution (degrees <= 3):")
cmp_maps = build_comparison(res, bar, 3)
rep = check_bimodule_extension(cmp_maps)
print(f"  {rep.summary()}")
rep = check_comparison_identities(cmp_maps)
print(f"  {rep.summary()}")
rep = check_filtration_preservation(cmp_maps)
print(f"  {rep.summary()}")
print("so the small resolution is a filtration-respecting deformation retract")
print("of the bar resolution, certified without computing any homology.")
