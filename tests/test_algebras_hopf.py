import itertools

from hopfcross.fields import FieldSpec
from hopfcross.algebras import (
    AlgebraData,
    group_algebra,
    truncated_polynomial_algebra,
    verify_algebra,
)
from hopfcross.hopf import (
    HopfData,
    group_hopf,
    sweedler_expand,
    sweedler_hopf,
    sweedler_legs,
    verify_hopf,
)
from hopfcross.tensors import expand_leg


Q = FieldSpec.rationals()


def s3_group_algebra(field):
    """k[S3] from permutation composition (basis: id, transpositions, 3-cycles)."""
    perms = [p for p in itertools.permutations(range(3))]
    perms.sort(key=lambda p: (p != (0, 1, 2), sum(1 for i in range(3) if p[i] != i), p))
    assert perms[0] == (0, 1, 2)

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return group_algebra(field, perms, compose)


def test_group_algebra_z2_passes():
    a = group_algebra(Q, [0, 1], lambda x, y: (x + y) % 2, labels=["1", "g"])
    assert verify_algebra(a).passed


def test_s3_from_permutations_passes():
    assert verify_algebra(s3_group_algebra(Q)).passed


def test_corrupted_table_fails_at_111():
    a = s3_group_algebra(Q)
    # basis index 1 is a transposition; replacing its square by a different
    # element breaks associativity already at the triple (1, 1, 1)
    mult = [[dict(cell) for cell in row] for row in a.mult]
    mult[1][1] = {2: Q.one}
    bad = AlgebraData(Q, a.dim, a.basis_labels, mult)
    report = verify_algebra(bad)
    assert not report.passed
    witnesses = {f.witness for f in report.failures if f.check == "associativity"}
    assert (1, 1, 1) in witnesses


def test_group_hopf_passes():
    h = group_hopf(
        group_algebra(Q, [0, 1, 2], lambda x, y: (x + y) % 3), lambda i: (-i) % 3
    )
    assert verify_hopf(h).passed


def test_sweedler_hopf_passes():
    assert verify_hopf(sweedler_hopf(Q)).passed


def test_sweedler_bad_antipode_fails_at_x():
    h = sweedler_hopf(Q)
    antipode = [dict(r) for r in h.antipode]
    antipode[2] = {3: Q.one}  # S(x) = +gx instead of -gx
    bad = HopfData(h.algebra, h.comult, h.counit, antipode)
    report = verify_hopf(bad)
    assert not report.passed
    bad_checks = {(f.check, f.witness) for f in report.failures}
    assert ("antipode-left", (2,)) in bad_checks or ("antipode-right", (2,)) in bad_checks
    # nothing else breaks: only the antipode axiom can see S
    assert all(f.check.startswith("antipode") for f in report.failures)


def test_sweedler_expand_identity_and_grouplike():
    h = sweedler_hopf(Q)
    v = {2: Q.one}
    assert sweedler_expand(h, 1, v) == {(2,): Q.one}
    g = {1: Q.one}
    assert sweedler_expand(h, 3, g) == {(1, 1, 1): Q.one}


def test_sweedler_expand_x():
    h = sweedler_hopf(Q)
    out = sweedler_expand(h, 2, {2: Q.one})
    assert out == {(2, 0): Q.one, (1, 2): Q.one}


def test_sweedler_expand_order_independent():
    h = sweedler_hopf(Q)
    for i in range(h.dim):
        base = dict(h.comult[i])
        left = expand_leg(base, 0, h.comult_row, 2, h.field)
        right = expand_leg(base, 1, h.comult_row, 2, h.field)
        assert left == right


def test_counit_identities():
    h = sweedler_hopf(Q)
    for i in range(h.dim):
        eps_id = {}
        id_eps = {}
        for (u, w), c in h.comult[i].items():
            eps_id[w] = eps_id.get(w, Q.zero) + c * h.counit[u]
            id_eps[u] = id_eps.get(u, Q.zero) + c * h.counit[w]
        assert {k: v for k, v in eps_id.items() if v != 0} == {i: Q.one}
        assert {k: v for k, v in id_eps.items() if v != 0} == {i: Q.one}


def test_sweedler_legs_is_leg_by_leg_sweedler_expand():
    # each leg of hs expanded on its own, then tensored in order
    from hopfcross.problems import builtin

    for name in ("sweedler_smash", "s3_as_action_extension"):
        h = builtin(name).hopf
        for size in range(4):
            for hs in itertools.product(range(h.dim), repeat=size):
                for count in (1, 2, 3):
                    per_leg = [sweedler_expand(h, count, {i: Q.one}).items() for i in hs]
                    expected = {}
                    for terms in itertools.product(*per_leg):
                        coef = Q.one
                        for _, c in terms:
                            coef *= c
                        expected[sum((k for k, _ in terms), ())] = coef
                    assert sweedler_legs(h, hs, count) == expected, (name, hs, count)
