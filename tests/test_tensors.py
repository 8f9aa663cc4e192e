from itertools import product

import pytest

from hopfcross.fields import FieldSpec
from hopfcross.tensors import (
    TensorSpace,
    expand_leg,
    tensor_vectors,
)

Q = FieldSpec.rationals()


def test_tensor_space_2x3():
    space = TensorSpace((2, 3))
    assert space.size == 6
    assert space.index((1, 2)) == 5
    assert space.index((1, 0)) == 3
    assert space.unrank(3) == (1, 0)
    assert list(space)[0] == (0, 0)


def test_tensor_space_empty():
    space = TensorSpace(())
    assert space.size == 1
    assert space.index(()) == 0
    assert space.unrank(0) == ()


def test_tensor_space_2x2x2():
    space = TensorSpace((2, 2, 2))
    assert space.size == 8
    assert space.index((1, 0, 1)) == 5


@pytest.mark.parametrize("dims", [(), (1,), (2, 3), (3, 1, 2), (2, 0)])
def test_tensor_space_iterates_in_flat_order(dims):
    space = TensorSpace(dims)
    assert list(space) == [space.unrank(i) for i in range(space.size)]


def test_tensor_space_bounds():
    space = TensorSpace((2, 3))
    with pytest.raises(IndexError):
        space.index((2, 0))
    with pytest.raises(IndexError):
        space.unrank(6)


def test_expand_leg_grouplike():
    one = Q.one
    elem = {(1,): one}
    out = expand_leg(elem, 0, lambda i: {(i, i): one}, 3, Q)
    assert out == {(1, 1, 1): one}


def test_tensor_vectors_matches_itertools_product():
    F5 = FieldSpec.prime(5)
    vecs = [{0: 2, 3: -1}, {1: 1}, {0: 3, 2: 6, 4: -7}]
    for field, coef in ((Q, Q.scalar(-3)), (F5, F5.scalar(2))):
        vecs_f = [{i: field.scalar(v) for i, v in vec.items()} for vec in vecs]
        for k in range(len(vecs_f) + 1):
            expected = {}
            for terms in product(*(vec.items() for vec in vecs_f[:k])):
                c = coef
                for _, ci in terms:
                    c = field.mul(c, ci)
                expected[tuple(i for i, _ in terms)] = c
            assert tensor_vectors(vecs_f[:k], coef, field) == expected, (field, k)
    assert tensor_vectors([{0: Q.one}, {}], Q.one, Q) == {}
