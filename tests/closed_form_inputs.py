"""Inputs outside the gallery whose Hochschild (co)homology is known in closed form.

gauged_action_groupoid builds k^{Z3} #_f kZ3: Z3 acts on the functions on Z3
by translation, (g . phi)(x) = phi(x + g), and the cocycle is the gauge
f(g, h) = u(g) (g . u(h)) u(g + h)^{-1} of a map u : Z3 -> (k^{Z3})^x with
u(0) = 1.  The action is free and transitive, so E = M_3(k) whatever the
gauge, and HH_*(E) = HH^*(E, E) = [1, 0, 0, ...].  Its cocycle is not valued
in k.1, so the reduced blocks d^l with l >= 2 do not vanish, and its sections
1#h are not central, so the order of their inverses is seen.

dual_numbers_tensor_quaternions builds k[y]/(y^2) (x) (-1, -1)_k: the Klein
four-group acts trivially on the dual numbers, and its cocycle is a sign,
valued in k.1.  The quaternion algebra (-1, -1)_k is central simple when
char k != 2, so HH_*(E) = HH^*(E, E) = HH(k[y]/(y^2)) = [2, 1, 1, ...], and
every generator column of d^l with l >= 2 vanishes although its target
blocks are not empty (they would be for A = k).

Only the data classes and builders of the package are used.
"""

from hopfcross.algebras import AlgebraData, group_algebra, truncated_polynomial_algebra
from hopfcross.crossed import (
    CocycleData,
    WeakActionData,
    build_crossed_product,
    convolution_inverse,
    trivial_action,
)
from hopfcross.hopf import group_hopf

# u(1) and u(2) as values at the points 0, 1, 2; u(0) = 1
GAUGE = {1: (2, -1, 4), 2: (1, 2, -2)}


def _function_algebra(field) -> AlgebraData:
    """k^{Z3} on the basis 1, e_1, e_2 (e_x the indicator of the point x)."""
    one = field.one
    mult = [[{j: one} for j in range(3)]]
    mult += [[{i: one}] + [{i: one} if i == j else {} for j in (1, 2)] for i in (1, 2)]
    return AlgebraData(field, 3, ["1", "e1", "e2"], mult)


def _coordinates(field, values) -> dict:
    """The function with these values at 0, 1, 2 on the basis 1, e_1, e_2."""
    v0 = field.scalar(values[0])
    minus = field.neg(v0)
    return field.sparse({0: v0, 1: field.add(values[1], minus), 2: field.add(values[2], minus)})


def gauged_action_groupoid(field, gauge=GAUGE):
    """k^{Z3} #_f kZ3 with its convolution inverse; ValueError when a gauge
    value is not a unit of k (the cocycle would not be invertible)."""
    u = {0: (field.one,) * 3}
    for g, values in gauge.items():
        u[g] = tuple(field.scalar(v) for v in values)
        if any(field.is_zero(v) for v in u[g]):
            raise ValueError(f"gauge value u({g}) = {values} is not a unit")
    a = _function_algebra(field)
    h = group_hopf(group_algebra(field, [0, 1, 2], lambda x, y: (x + y) % 3), lambda g: (-g) % 3)
    indicator = [(1, 1, 1), (0, 1, 0), (0, 0, 1)]  # the values of each basis vector of A
    act = [[_coordinates(field, [vals[(x + g) % 3] for x in range(3)]) for vals in indicator]
           for g in range(3)]
    mul = field.mul
    f = [[_coordinates(field, [mul(mul(u[g][x], u[k][(x + g) % 3]), field.inv(u[(g + k) % 3][x]))
                               for x in range(3)])
          for k in range(3)] for g in range(3)]
    cp = build_crossed_product(a, h, WeakActionData(field, 3, 3, act), CocycleData(field, 3, 3, f))
    convolution_inverse(cp)
    return cp


def dual_numbers_tensor_quaternions(field):
    """k[y]/(y^2) #_f k[Z2 x Z2] with its convolution inverse: the group acts
    trivially and f(g, h) = (-1)^(g0 h0 + g1 h1 + g0 h1) . 1, where g0 and g1
    are the two bits of the index g."""
    a = truncated_polynomial_algebra(field, 2)
    h = group_hopf(group_algebra(field, [0, 1, 2, 3], lambda x, y: x ^ y), lambda g: g)
    f = [[{0: field.sign((g & 1) * (k & 1) + (g >> 1) * (k >> 1) + (g & 1) * (k >> 1))}
          for k in range(4)] for g in range(4)]
    cp = build_crossed_product(a, h, trivial_action(field, h, a), CocycleData(field, 4, 2, f))
    convolution_inverse(cp)
    return cp
