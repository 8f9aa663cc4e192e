from hopfcross.fields import FieldSpec
from hopfcross.linalg import ExactMatrix, vec_add_into
from hopfcross.tensors import TensorSpace, expand_leg
from hopfcross.twisting import TwistingCalculus
from insertion_reference import check_insertion_image, on_demand_matrix, signed_shuffle
from conftest import BUILTIN_BUILDERS, build_sweedler_smash, build_z4_cocycle

Q = FieldSpec.rationals()


def test_iterated_action_base_cases(sweedler_cp):
    calc = TwistingCalculus(sweedler_cp)
    # empty list of actors
    assert calc.iter_act((), 1) == {1: Q.one}
    # acting by the unit twice
    assert calc.iter_act((0, 0), 1) == {1: Q.one}
    # g then g is the identity on y
    assert calc.iter_act((1, 1), 1) == {1: Q.one}
    # single g negates y
    assert calc.iter_act((1,), 1) == {1: Q.neg(Q.one)}
    # x kills y
    assert calc.iter_act((2,), 1) == {}


def test_trivial_action_iterates_to_counits():
    cp = BUILTIN_BUILDERS["z4_as_cocycle_extension"](Q)
    calc = TwistingCalculus(cp)
    # trivial action: a^(h_list) = prod of counits * a
    assert calc.iter_act((1, 1, 1), 1) == {1: Q.one}


def test_f21_is_vector_action(sweedler_cp):
    calc = TwistingCalculus(sweedler_cp)
    cp = sweedler_cp
    mat = on_demand_matrix(calc, 1, 1)
    src = TensorSpace((4, 2))
    for h in range(4):
        for a in range(2):
            assert mat.cols[src.index((h, a))] == cp.action.act[h][a]


def test_f10_is_counit(sweedler_cp):
    calc = TwistingCalculus(sweedler_cp)
    mat = on_demand_matrix(calc, 1, 0)
    for h in range(4):
        col = mat.cols[h]
        expect = {} if Q.is_zero(sweedler_cp.h.counit[h]) else {0: sweedler_cp.h.counit[h]}
        assert col == expect


def test_f02_is_minus_cocycle():
    for name in ("z4_as_cocycle_extension", "sweedler_smash"):
        cp = BUILTIN_BUILDERS[name](Q)
        calc = TwistingCalculus(cp)
        mat = on_demand_matrix(calc, 2, 0)
        nh = cp.h.dim
        src = TensorSpace((nh, nh))
        for h in range(nh):
            for l in range(nh):
                got = mat.cols[src.index((h, l))]
                expect = {k: Q.neg(v) for k, v in cp.cocycle.f[h][l].items()}
                assert got == expect, (name, h, l)


def _f03_displayed(cp):
    """The two-term closed expression for F^(3)_0."""
    field = cp.field
    calc = TwistingCalculus(cp)
    nh, na = cp.h.dim, cp.a.dim
    src = TensorSpace((nh,) * 3)
    tgt = TensorSpace((na, na))
    cols = []
    for (h1, h2, h3) in src:
        col: dict = {}
        # + f(h1^(1), h2^(1)) (x) f(h1^(2) h2^(2), h3)
        elem = expand_leg({(h1, h2): field.one}, 1, cp.h.comult_row, 2, field)
        elem = expand_leg(elem, 0, cp.h.comult_row, 2, field)
        for (a1, a2, b1, b2), c in elem.items():
            first = cp.cocycle.f[a1][b1]
            for hm, cm in cp.h.algebra.mult[a2][b2].items():
                second = cp.cocycle.f[hm][h3]
                for fa, ca in first.items():
                    for fb, cb in second.items():
                        idx = tgt.index((fa, fb))
                        w = field.add(col.get(idx, field.zero),
                                      field.mul(field.mul(c, cm), field.mul(ca, cb)))
                        if field.is_zero(w):
                            col.pop(idx, None)
                        else:
                            col[idx] = w
        # - f(h2^(1), h3^(1))^(h1^(1)) (x) f(h1^(2), h2^(2) h3^(2))
        elem = expand_leg({(h1, h2, h3): field.one}, 2, cp.h.comult_row, 2, field)
        elem = expand_leg(elem, 1, cp.h.comult_row, 2, field)
        elem = expand_leg(elem, 0, cp.h.comult_row, 2, field)
        for (a1, a2, b1, b2, c1, c2), c in elem.items():
            first = calc.iter_act_vec((a1,), cp.cocycle.f[b1][c1])
            for hm, cm in cp.h.algebra.mult[b2][c2].items():
                second = cp.cocycle.f[a2][hm]
                for fa, ca in first.items():
                    for fb, cb in second.items():
                        idx = tgt.index((fa, fb))
                        w = field.add(col.get(idx, field.zero),
                                      field.neg(field.mul(field.mul(c, cm), field.mul(ca, cb))))
                        if field.is_zero(w):
                            col.pop(idx, None)
                        else:
                            col[idx] = w
        cols.append(col)
    return ExactMatrix(field, tgt.size, src.size, cols)


def test_f03_matches_displayed_formula():
    for name in ("z4_as_cocycle_extension", "sweedler_smash", "s3_as_action_extension"):
        cp = BUILTIN_BUILDERS[name](Q)
        calc = TwistingCalculus(cp)
        assert on_demand_matrix(calc, 3, 0) == _f03_displayed(cp), name


def test_insertion_image_property(sweedler_cp):
    calc = TwistingCalculus(sweedler_cp)
    for l in (2, 3):
        for r in (0, 1, 2):
            assert check_insertion_image(calc, l, r), (l, r)


def test_scalar_cocycle_insertions_have_scalar_leg():
    # trivial cocycle: every F^(l) value carries a k*1 leg, so its class dies
    cp = BUILTIN_BUILDERS["s3_as_action_extension"](Q)
    calc = TwistingCalculus(cp)
    na = cp.a.dim
    mat = on_demand_matrix(calc, 2, 1)
    tgt = TensorSpace((na, na))
    for col in mat.cols:
        for idx in col:
            legs = tgt.unrank(idx)
            assert 0 in legs  # some leg is the unit


def test_signed_shuffle_basics():
    assert signed_shuffle((10,), (20,)) == {(10, 20): 1, (20, 10): -1}
    assert signed_shuffle((), (1, 2)) == {(1, 2): 1}
    assert signed_shuffle((1, 2), ()) == {(1, 2): 1}
    out = signed_shuffle((1, 2), (3,))
    assert out == {(1, 2, 3): 1, (1, 3, 2): -1, (3, 1, 2): 1}


def test_signed_shuffle_cancellation():
    # shuffling a letter into itself produces cancelling terms
    assert signed_shuffle((5,), (5,)) == {}
