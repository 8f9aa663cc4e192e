"""Exact scalar arithmetic: rationals (arbitrary precision) and prime fields.

All other modules treat scalars as opaque values managed through a FieldSpec;
no other module builds a rational.  Over Q an integral value is always a
Python int, and only a non-integral value is a rational object: a gmpy2.mpq
when gmpy2 is installed (it is optional), else a fractions.Fraction.  Both
backends therefore give the same scalars for integral values and the same
documents.  Prime-field scalars are plain ints in 0..p-1.

Elimination (linalg.py) does not call these methods per entry: it runs one
kernel per field on plain ints (inline `% p` over F_p, fraction-free integer
columns over Q) and divides through FieldSpec only to hand back a kernel
vector or a solution.  Block builders sum products of scalars raw into a
column dict and finish it once with FieldSpec.settle.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _ratio
except ImportError:  # pragma: no cover
    from fractions import Fraction as _ratio


def _canonical(r):
    """A rational in canonical form: an int when integral, else r itself."""
    if r.__class__ is int:
        return r
    return int(r.numerator) if r.denominator == 1 else r


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """The ground field: rationals or F_p. Immutable, hashable."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise ValueError("rationals take no modulus")
        elif kind == "Fp":
            if p is None or not _is_prime(p):
                raise ValueError(f"PrimeField needs a prime modulus, got {p!r}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("Q")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("Fp", p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse 'q' or 'fp:P' (case-insensitive)."""
        t = text.strip().lower()
        if t in ("q", "rationals"):
            return cls.rationals()
        if t.startswith("fp:") and t[3:].isdigit():
            return cls.prime(int(t[3:]))
        raise ValueError(f"cannot parse field spec {text!r} (expected 'q' or 'fp:P')")

    def spec_string(self) -> str:
        return "q" if self.kind == "Q" else f"fp:{self.p}"

    # scalar constructors ------------------------------------------------
    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def scalar(self, value):
        """Coerce an int, rational, or 'p/q' string into a field scalar."""
        if self.kind == "Q":
            return _canonical(_ratio(value))
        if isinstance(value, str):
            value = int(value)
        if not isinstance(value, int):
            raise TypeError(f"prime-field scalar must be an integer, got {value!r}")
        return value % self.p

    # arithmetic ---------------------------------------------------------
    def add(self, a, b):
        return _canonical(a + b) if self.kind == "Q" else (a + b) % self.p

    def mul(self, a, b):
        return _canonical(a * b) if self.kind == "Q" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p

    def inv(self, a):
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("division by zero")
            return _canonical(1 / _ratio(a))
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0 if self.kind == "Q" else a % self.p == 0

    def settle(self, acc: dict) -> dict:
        """A raw sum finished: canonical scalars over Q, `% p` over F_p, zeros dropped.

        acc holds plain sums of products of field scalars, keyed by anything;
        the result keeps its key order.  Over Q, acc itself is returned when
        every value is already a nonzero int.
        """
        if self.kind == "Q":
            for v in acc.values():
                if not v or v.__class__ is not int:
                    return {k: _canonical(v) for k, v in acc.items() if v}
            return acc
        p = self.p
        return {k: t for k, v in acc.items() if (t := v % p)}

    # serialization ------------------------------------------------------
    def fmt(self, a) -> str | int:
        """Bit-exact serialization: 'p/q' strings over Q, ints 0..p-1 over F_p."""
        if self.kind == "Q":
            return str(a)
        return int(a % self.p)

    # identity -----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "FieldSpec.rationals()" if self.kind == "Q" else f"FieldSpec.prime({self.p})"
