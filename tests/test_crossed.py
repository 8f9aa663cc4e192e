import itertools

import pytest

import inverse_reference
from hopfcross import crossed
from hopfcross.fields import FieldSpec
from hopfcross.algebras import group_algebra, verify_algebra
from hopfcross.crossed import (
    AxiomViolation,
    CocycleData,
    WeakActionData,
    build_crossed_product,
    convolution_inverse,
    regular_bimodule,
    tensor_bimodule,
    trivial_action,
    trivial_cocycle,
    unit_section_inverse_map,
    verify_crossed_axioms,
)
from hopfcross.hopf import sweedler_hopf
from hopfcross.linalg import ExactMatrix, vec_add_into
from closed_form_inputs import (
    dual_numbers_tensor_quaternions,
    gauge_twisted_sweedler_smash,
    gauged_action_groupoid,
    nilpotent_cocycle_quartic,
)
from conftest import (
    BUILTIN_BUILDERS,
    build_s3_action,
    build_sweedler_smash,
    build_z4_cocycle,
    z_n_algebra,
    z_n_hopf,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def monomial_isomorphic_to_group_algebra(e, elements, compose, generators):
    """Brute-force search for an algebra isomorphism k[G] -> E sending each
    generator to a signed basis element (test utility, dim <= 6 only).

    Returns True when some assignment of generators extends to a
    unit-preserving bijection of the group onto signed basis elements that
    matches the multiplication table.
    """
    field = e.field
    assert e.dim <= 6 and len(elements) == e.dim
    signs = [field.one, field.neg(field.one)]
    candidates = [(i, s) for i in range(e.dim) for s in signs]

    def mult(u, v):
        (i, si), (j, sj) = u, v
        prod = e.mult[i][j]
        if len(prod) != 1:
            return None
        k, c = next(iter(prod.items()))
        coef = field.mul(field.mul(si, sj), c)
        if coef == field.one:
            return (k, field.one)
        if coef == field.neg(field.one):
            return (k, field.neg(field.one))
        return None

    # generate words of the group in the generators, with their element values
    for assignment in itertools.product(candidates, repeat=len(generators)):
        images = {elements[0]: (0, field.one)}
        for g, img in zip(generators, assignment):
            images[g] = img
        frontier = list(images)
        ok = True
        while frontier and ok:
            nxt = []
            for a in list(images):
                for g in generators:
                    b = compose(a, g)
                    prod = mult(images[a], images[g])
                    if prod is None:
                        ok = False
                        break
                    if b in images:
                        if images[b] != prod:
                            ok = False
                            break
                    else:
                        images[b] = prod
                        nxt.append(b)
                if not ok:
                    break
            frontier = nxt
        if not ok or len(images) != len(elements):
            continue
        if len({i for i, _ in images.values()}) != e.dim:
            continue
        # full table check
        good = True
        for a in elements:
            for b in elements:
                prod = mult(images[a], images[b])
                if prod is None or prod != images[compose(a, b)]:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def test_trivial_data_passes():
    a = z_n_algebra(Q, 2)
    h = z_n_hopf(Q, 2)
    report = verify_crossed_axioms(a, h, trivial_action(Q, h, a), trivial_cocycle(Q, h, a))
    assert report.passed


def test_swap_action_passes():
    # k[Z/2] acting on k[Z/2] by the order-2 automorphism n -> -n, which swaps
    # the two idempotent group-likes (1 +/- n)/2
    a = z_n_algebra(Q, 2)
    h = z_n_hopf(Q, 2)
    one = Q.one
    act = [
        [{0: one}, {1: one}],
        [{0: one}, {1: Q.neg(one)}],
    ]
    action = WeakActionData(Q, 2, 2, act)
    report = verify_crossed_axioms(a, h, action, trivial_cocycle(Q, h, a))
    assert report.passed
    cp = build_crossed_product(a, h, action, trivial_cocycle(Q, h, a))
    assert verify_algebra(cp.e).passed


def test_z4_cocycle_extension_is_z4():
    cp = build_z4_cocycle(Q)
    assert verify_algebra(cp.e).passed
    found = monomial_isomorphic_to_group_algebra(
        cp.e, [0, 1, 2, 3], lambda x, y: (x + y) % 4, generators=[1]
    )
    assert found


def test_s3_action_extension_is_s3():
    cp = build_s3_action(Q)
    perms = sorted(itertools.permutations(range(3)),
                   key=lambda p: (p != (0, 1, 2), sum(1 for i in range(3) if p[i] != i), p))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    found = monomial_isomorphic_to_group_algebra(
        cp.e, perms, compose, generators=[perms[1], perms[3 if perms[3][0] != 0 else 4]]
    )
    assert found


def test_klein_four_not_z4():
    cp = BUILTIN_BUILDERS["klein_four"](Q)
    assert not monomial_isomorphic_to_group_algebra(
        cp.e, [0, 1, 2, 3], lambda x, y: (x + y) % 4, generators=[1]
    )


def test_degenerate_crossed_products():
    # A = k: E isomorphic to H as an algebra
    cp = BUILTIN_BUILDERS["z2_trivial"](Q)
    h = cp.h.algebra
    assert cp.e.dim == h.dim
    assert all(cp.e.mult[i][j] == h.mult[i][j] for i in range(2) for j in range(2))
    # H = k: E isomorphic to A
    cp = BUILTIN_BUILDERS["trivial"](Q)
    assert cp.e.dim == 1


def test_sweedler_smash_passes():
    cp = build_sweedler_smash(Q)
    assert verify_algebra(cp.e).passed
    assert cp.e.dim == 8


def test_sweedler_variant_action_rejected():
    # x.y = 1 violates the weak-action multiplicativity on (x, y, y)
    from hopfcross.algebras import truncated_polynomial_algebra

    a = truncated_polynomial_algebra(Q, 2)
    h = sweedler_hopf(Q)
    one = Q.one
    act = [
        [{0: one}, {1: one}],
        [{0: one}, {1: Q.neg(one)}],
        [{}, {0: one}],
        [{}, {}],
    ]
    action = WeakActionData(Q, 4, 2, act)
    report = verify_crossed_axioms(a, h, action, trivial_cocycle(Q, h, a))
    assert not report.passed
    with pytest.raises(AxiomViolation):
        build_crossed_product(a, h, action, trivial_cocycle(Q, h, a))


def test_corrupted_cocycle_reports_witness():
    a = z_n_algebra(Q, 2)
    h = z_n_hopf(Q, 2)
    f = [[{0: Q.one}, {0: Q.one}], [{0: Q.one, 1: Q.one}, {1: Q.one}]]
    cocycle = CocycleData(Q, 2, 2, f)
    report = verify_crossed_axioms(a, h, trivial_action(Q, h, a), cocycle)
    assert not report.passed
    assert any(f_.check == "cocycle-normality-right" and f_.witness == (1,) for f_ in report.failures)


def test_convolution_inverse_trivial_is_self():
    cp = BUILTIN_BUILDERS["klein_four"](Q)
    finv = convolution_inverse(cp)
    assert finv == cp.cocycle.f


def test_convolution_inverse_grouplike_pointwise():
    cp = build_z4_cocycle(Q)
    finv = convolution_inverse(cp)
    # group-likes make convolution pointwise: each value is the A-inverse
    for hi in range(2):
        for li in range(2):
            prod = cp.a.mult_elems(cp.cocycle.f[hi][li], finv[hi][li])
            assert prod == {0: Q.one}


def test_convolution_inverse_two_sided_verification():
    for name, builder in BUILTIN_BUILDERS.items():
        cp = builder(Q)
        finv = convolution_inverse(cp)
        assert finv is not None, name
        from hopfcross.crossed import _convolution_product

        unit = trivial_cocycle(Q, cp.h, cp.a).f
        assert _convolution_product(cp, cp.cocycle.f, finv) == unit, name
        assert _convolution_product(cp, finv, cp.cocycle.f) == unit, name


# the single solve against the two-solve reference --------------------------------

INVERSE_FIELDS = [Q, FieldSpec.prime(3), FieldSpec.prime(5)]
INVERSE_INPUTS = {
    **BUILTIN_BUILDERS,
    "gauged_action_groupoid": gauged_action_groupoid,
    "dual_numbers_tensor_quaternions": dual_numbers_tensor_quaternions,
    "gauge_twisted_sweedler_smash": gauge_twisted_sweedler_smash,
    "nilpotent_cocycle_quartic": nilpotent_cocycle_quartic,
}


@pytest.mark.parametrize("field", INVERSE_FIELDS, ids=["q", "fp3", "fp5"])
@pytest.mark.parametrize("name", INVERSE_INPUTS)
def test_convolution_inverse_matches_two_solve_reference(name, field):
    cp = INVERSE_INPUTS[name](field)
    finv = convolution_inverse(cp)
    assert finv == inverse_reference.convolution_inverse(cp)
    assert cp.conv_inverse is finv
    assert (finv is None) == (name == "nilpotent_cocycle_quartic")


def _counted(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("name", ["sweedler_smash", "s3_as_action_extension",
                                  "gauge_twisted_sweedler_smash", "nilpotent_cocycle_quartic"])
def test_convolution_inverse_solves_once_and_certifies_both_sides(name, monkeypatch):
    cp = INVERSE_INPUTS[name](Q)
    calls = []
    _counted(monkeypatch, ExactMatrix, "solve", calls)
    _counted(monkeypatch, crossed, "_convolution_product", calls)
    finv = convolution_inverse(cp)
    if finv is None:  # no inverse: nothing to certify
        assert calls == ["solve"]
    else:
        assert calls == ["solve", "_convolution_product", "_convolution_product"]


def test_perturbed_solution_fails_the_certificate(monkeypatch):
    # a solve that returns a wrong solution is caught by the convolution
    # products, on the first read of conv_inverse and on an explicit call;
    # neither keeps anything
    names = ("sweedler_smash", "gauged_action_groupoid")
    fresh = {name: INVERSE_INPUTS[name](Q) for name in names}
    solved = {name: INVERSE_INPUTS[name](Q) for name in names}
    kept = {name: cp.conv_inverse for name, cp in solved.items()}
    original = ExactMatrix.solve

    def perturbed(self, rhs):
        x = original(self, rhs)
        return [Q.add(x[0], Q.one)] + x[1:]

    monkeypatch.setattr(ExactMatrix, "solve", perturbed)
    for name in names:
        with pytest.raises(AssertionError, match=r"f \* u != e"):
            fresh[name].conv_inverse
        assert "conv_inverse" not in vars(fresh[name]), name
        with pytest.raises(AssertionError, match=r"f \* u != e"):
            convolution_inverse(solved[name])
        assert solved[name].conv_inverse is kept[name], name
    monkeypatch.undo()
    for name in names:  # the next read solves again
        assert fresh[name].conv_inverse == kept[name], name


def test_left_inverse_side_is_certified(monkeypatch):
    # a product that is only wrong for u * f names that side
    original = crossed._convolution_product
    cp = INVERSE_INPUTS["sweedler_smash"](Q)

    def wrong_on_the_left(cp_, u, v):
        out = original(cp_, u, v)
        return out if u is cp_.cocycle.f else [[{0: Q.one}] * len(row) for row in out]

    monkeypatch.setattr(crossed, "_convolution_product", wrong_on_the_left)
    with pytest.raises(AssertionError, match=r"u \* f != e"):
        convolution_inverse(cp)


def test_unit_section_inverse():
    cp = build_sweedler_smash(Q)
    convolution_inverse(cp)
    inverse = unit_section_inverse_map(cp)
    # h = 1 -> 1#1
    assert inverse[0] == {0: Q.one}
    # convolution identity of h -> (1#h)^{-1} against h -> 1#h on every basis element
    h = cp.h
    for hi in range(h.dim):
        out = {}
        for (h1, h2), c in h.comult[hi].items():
            left = inverse[h1]
            right = {cp.include_h(h2): Q.one}
            vec_add_into(out, cp.e.mult_elems(left, right), c, Q)
        expect = {0: h.counit[hi]} if h.counit[hi] != 0 else {}
        assert out == expect, hi
        out = {}
        for (h1, h2), c in h.comult[hi].items():
            left = {cp.include_h(h1): Q.one}
            right = inverse[h2]
            vec_add_into(out, cp.e.mult_elems(left, right), c, Q)
        assert out == expect, hi


def test_grouplike_unit_section_inverse_is_inverse_grouplike():
    cp = BUILTIN_BUILDERS["klein_four"](Q)
    convolution_inverse(cp)
    # trivial cocycle: (1#g)^{-1} = 1#g^{-1} = 1#g
    assert unit_section_inverse_map(cp)[1] == {cp.include_h(1): Q.one}


def test_regular_bimodule_axioms():
    cp = build_sweedler_smash(Q)
    m = regular_bimodule(cp.e)
    assert m.verify(cp.e).passed


def test_tensor_bimodule_axioms():
    cp = BUILTIN_BUILDERS["z2_trivial"](F2)
    e = cp.e
    # trivial right module and trivial left module via the augmentation of k[Z/2]
    one = F2.one
    right_act = [[{0: one}, {0: one}]]
    left_act = [[{0: one}], [{0: one}]]
    m = tensor_bimodule(e, (1, left_act), (1, right_act))
    assert m.dim == 1
    assert m.verify(e).passed
