"""Tensor-space indexing and the sparse keyed-tensor helpers.

Two representations of tensors are used:

* flat: dict[int, scalar] over a TensorSpace with lexicographic indexing, or
  over a free bimodule's (e_left, mid, e_right) basis, which every column
  and generator table of the package writes;
* keyed: dict[tuple[int, ...], scalar], one slot per tensor leg, which remain
  only where comultiplication expands legs (expand_leg, the Sweedler legs of
  hopf.py, tensor_vectors).

Keyed elements always carry full-basis indices.  A reader places a keyed
term into a flat basis through mid_rank, which returns None for a unit in a
normalized leg (the class map B -> B/k sends it to zero).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

from .fields import FieldSpec


class TensorSpace:
    """Lexicographic index <-> multi-index bijection for mixed tensor products."""

    __slots__ = ("dims", "size", "_strides")

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        size = 1
        strides = []
        for d in reversed(self.dims):
            strides.append(size)
            size *= d
        strides.reverse()
        self.size = size
        self._strides = tuple(strides)

    def index(self, multi) -> int:
        if len(multi) != len(self.dims):
            raise ValueError("multi-index arity mismatch")
        flat = 0
        for k, (i, d) in enumerate(zip(multi, self.dims)):
            if not 0 <= i < d:
                raise IndexError(f"index {i} out of range for leg {k} (dim {d})")
            flat += i * self._strides[k]
        return flat

    def unrank(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.size:
            raise IndexError("flat index out of range")
        out = []
        for s, d in zip(self._strides, self.dims):
            q, flat = divmod(flat, s)
            out.append(q)
        return tuple(out)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return product(*map(range, self.dims))

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"TensorSpace{self.dims}"


def mid_key(radices, mid: int) -> tuple:
    """The full-index key of index mid of the unit-free legs with these radices
    (row-major): every leg shifted off the unit."""
    key = []
    for base in reversed(radices):
        mid, i = divmod(mid, base)
        key.append(i + 1)
    key.reverse()
    return tuple(key)


def mid_rank(radices, key: tuple) -> int | None:
    """The index of a full-index key (legs in range), None when a leg is the unit."""
    out = 0
    for i, base in zip(key, radices):
        if i == 0:
            return None
        out = out * base + i - 1
    return out


# keyed-element helpers ----------------------------------------------------

def keyed_add_into(dst: dict, key, coef, field: FieldSpec) -> None:
    """dst[key] += coef, dropping the key when the sum is zero (any hashable key)."""
    w = field.add(dst.get(key, field.zero), coef)
    if field.is_zero(w):
        dst.pop(key, None)
    else:
        dst[key] = w


def tensor_vectors(vecs, coef, field: FieldSpec) -> dict:
    """coef * v_1 (x) ... (x) v_k as a keyed element over index tuples.

    coef must be nonzero; over a field a product of nonzeros is nonzero, so
    no entry needs a zero check.
    """
    out = {(): coef}
    for vec in vecs:
        out = {key + (i,): field.mul(c, ci) for key, c in out.items() for i, ci in vec.items()}
    return out


def expand_leg(
    elem: dict, pos: int, comult: Callable[[int], dict], count: int, field: FieldSpec
) -> dict:
    """Iterated comultiplication of one leg into `count` legs (left iteration).

    comult(i) returns a keyed dict over index pairs.  count >= 1; count == 1
    leaves the element unchanged.
    """
    if count < 1:
        raise ValueError("expand_leg needs count >= 1")
    out = elem
    for step in range(count - 1):
        nxt: dict = {}
        for key, coef in out.items():
            for (u, v), c in comult(key[pos]).items():
                nk = key[:pos] + (u, v) + key[pos + 1 :]
                keyed_add_into(nxt, nk, field.mul(coef, c), field)
        out = nxt
    return out
