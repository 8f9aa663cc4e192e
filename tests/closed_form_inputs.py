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

gauge_twisted_sweedler_smash twists sweedler_smash by a convolution-invertible
u : H4 -> k[y]/(y^2) with u(1) = 1 (Doi, Comm. Algebra 17, 1989):
h .' a = u(h1) (h2 . a) u^{-1}(h3) and
f'(h, l) = u(h1) (h2 . u(l1)) f(h3, l2) u^{-1}(h4 l3).  The twisted crossed
product is isomorphic to the base, so its dims are sweedler_smash's.  Its
cocycle is not valued in k.1 and H4's coproduct has several terms, so the
l >= 2 blocks do not vanish and several Sweedler choices reach every reader.

nilpotent_cocycle_quartic builds k[y]/(y^2) #_f kZ2 with the trivial action
and f(g, g) = y, every other value 1.  Then t = 1#g has t^2 = y, so
E = k[t]/(t^4), and HH_*(E) = HH^*(E, E) = [4, 3, 3, ...], or [4, 4, 4, ...]
when char k = 2 divides 4.  f(g, g) is nilpotent, so f has no convolution
inverse: the untwisted complexes and the E^2 identification do not apply,
and the reduced complexes carry the answer.  f is outside k.1, so the
l >= 2 blocks are built too.

Only the data classes and builders of the package are used.
"""

from hopfcross.algebras import AlgebraData, group_algebra, truncated_polynomial_algebra
from hopfcross.crossed import (
    CocycleData,
    WeakActionData,
    build_crossed_product,
    trivial_action,
)
from hopfcross.hopf import group_hopf
from hopfcross.problems import builtin

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
    return build_crossed_product(a, h, WeakActionData(field, 3, 3, act), CocycleData(field, 3, 3, f))


def dual_numbers_tensor_quaternions(field):
    """k[y]/(y^2) #_f k[Z2 x Z2] with its convolution inverse: the group acts
    trivially and f(g, h) = (-1)^(g0 h0 + g1 h1 + g0 h1) . 1, where g0 and g1
    are the two bits of the index g."""
    a = truncated_polynomial_algebra(field, 2)
    h = group_hopf(group_algebra(field, [0, 1, 2, 3], lambda x, y: x ^ y), lambda g: g)
    f = [[{0: field.sign((g & 1) * (k & 1) + (g >> 1) * (k >> 1) + (g & 1) * (k >> 1))}
          for k in range(4)] for g in range(4)]
    return build_crossed_product(a, h, trivial_action(field, h, a), CocycleData(field, 4, 2, f))


# u on the basis 1, g, x, gx of H4, as coordinates on the basis 1, y of k[y]/(y^2)
SWEEDLER_GAUGE = {0: (1, 0), 1: (2, 1), 2: (1, 3), 3: (-1, 2)}


def _add_into(out: dict, vec: dict, coef, field) -> None:
    """out += coef * vec, dropping zeros."""
    for i, c in vec.items():
        v = field.add(out.get(i, field.zero), field.mul(coef, c))
        if field.is_zero(v):
            out.pop(i, None)
        else:
            out[i] = v


def _comult_legs(hopf, i: int, n: int) -> dict:
    """Delta^(n)(e_i) as {(i_1, .., i_n): coefficient}, from the comultiplication rows."""
    field = hopf.field
    if n == 1:
        return {(i,): field.one}
    out: dict = {}
    for (first, rest), c in hopf.comult[i].items():
        for tail, ct in _comult_legs(hopf, rest, n - 1).items():
            _add_into(out, {(first,) + tail: ct}, c, field)
    return out


def _dual_number_inverse(field, vec: dict) -> dict:
    """(a + b y)^{-1} = a^{-1} - b a^{-2} y in k[y]/(y^2); ValueError when a = 0."""
    a, b = vec.get(0, field.zero), vec.get(1, field.zero)
    if field.is_zero(a):
        raise ValueError(f"gauge value {vec} is not a unit")
    inv = field.inv(a)
    return field.sparse({0: inv, 1: field.neg(field.mul(b, field.mul(inv, inv)))})


def gauge_twist(field, algebra, hopf, action, cocycle, u, uinv):
    """The crossed product of the twisted action and cocycle, with its
    convolution inverse.  u and uinv list an A-vector per basis element of H;
    ValueError unless u(1) = 1 and uinv is a two-sided convolution inverse."""
    one = field.one
    mult = algebra.mult_elems
    if u[0] != {0: one}:
        raise ValueError(f"u(1) = {u[0]} is not 1")
    for i in range(hopf.dim):
        unit = field.sparse({0: hopf.counit[i]})
        for left, right in ((u, uinv), (uinv, u)):
            conv: dict = {}
            for (i1, i2), c in hopf.comult[i].items():
                _add_into(conv, mult(left[i1], right[i2]), c, field)
            if conv != unit:
                raise ValueError(f"the gauge inverse is not two-sided at basis element {i}")

    def act(h: int, avec: dict) -> dict:
        out: dict = {}
        for ai, c in avec.items():
            _add_into(out, action.act[h][ai], c, field)
        return out

    def uinv_of(hvec: dict) -> dict:
        out: dict = {}
        for hi, c in hvec.items():
            _add_into(out, uinv[hi], c, field)
        return out

    act2 = [[{} for _ in range(algebra.dim)] for _ in range(hopf.dim)]
    for h in range(hopf.dim):
        for (h1, h2, h3), c in _comult_legs(hopf, h, 3).items():
            for ai in range(algebra.dim):
                term = mult(mult(u[h1], act(h2, {ai: one})), uinv[h3])
                _add_into(act2[h][ai], term, c, field)
    f2 = [[{} for _ in range(hopf.dim)] for _ in range(hopf.dim)]
    for h in range(hopf.dim):
        for (h1, h2, h3, h4), ch in _comult_legs(hopf, h, 4).items():
            for l in range(hopf.dim):
                for (l1, l2, l3), cl in _comult_legs(hopf, l, 3).items():
                    left = mult(mult(u[h1], act(h2, u[l1])), cocycle.f[h3][l2])
                    term = mult(left, uinv_of(hopf.algebra.mult[h4][l3]))
                    _add_into(f2[h][l], term, field.mul(ch, cl), field)
    return build_crossed_product(algebra, hopf, WeakActionData(field, hopf.dim, algebra.dim, act2),
                                 CocycleData(field, hopf.dim, algebra.dim, f2))


def gauge_twisted_sweedler_smash(field, gauge=SWEEDLER_GAUGE):
    """sweedler_smash twisted by u(h) = gauge[h] (coordinates on 1, y), with
    u^{-1}(g) = u(g)^{-1}, u^{-1}(x) = -u(g)^{-1} u(x) and
    u^{-1}(gx) = -u(gx) u(g)^{-1}; ValueError when u(g) is not a unit."""
    base = builtin("sweedler_smash", field=field)
    mult = base.algebra.mult_elems
    u = [field.sparse({0: field.scalar(c0), 1: field.scalar(c1)}) for c0, c1 in
         (gauge[i] for i in range(4))]
    ug_inv = _dual_number_inverse(field, u[1])
    minus = {0: field.neg(field.one)}
    uinv = [{0: field.one}, ug_inv, mult(minus, mult(ug_inv, u[2])), mult(minus, mult(u[3], ug_inv))]
    return gauge_twist(field, base.algebra, base.hopf, base.action, base.cocycle, u, uinv)


def nilpotent_cocycle_quartic(field):
    """k[y]/(y^2) #_f kZ2 = k[t]/(t^4), t = 1#g: the trivial action and
    f(g, g) = y, every other value 1.  Its conv_inverse reads None."""
    a = truncated_polynomial_algebra(field, 2)
    h = group_hopf(group_algebra(field, [0, 1], lambda x, y: x ^ y), lambda g: g)
    one = {0: field.one}
    f = [[one, one], [one, {1: field.one}]]
    return build_crossed_product(a, h, trivial_action(field, h, a), CocycleData(field, 2, 2, f))
