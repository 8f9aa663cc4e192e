"""Exact scalar arithmetic: rationals (arbitrary precision) and prime fields.

All other modules treat scalars as opaque values managed through a FieldSpec;
no other module builds a rational.  Over Q an integral value is always a
Python int, and only a non-integral value is a rational object: a gmpy2.mpq
when gmpy2 is installed (it is optional), else a fractions.Fraction.  Both
backends therefore give the same scalars for integral values and the same
documents.  A prime-field scalar is a plain int, the symmetric residue in
[-((p - 1) // 2), p // 2] ({0, 1} when p = 2), so that -1 is -1 and the
small values of the structure constants stay small ints in every product;
fmt still writes the residue in 0..p-1.  Reduction modulo p is written only
here, in the elimination kernel of linalg.py and in the d o d check of
complexes.py.

Elimination (linalg.py) does not call these methods per entry: it runs one
kernel per field on plain ints (symmetric residues over F_p, reduced only
when a sum leaves their range; fraction-free integer columns over Q) and
divides through FieldSpec only to hand back a kernel vector or a solution.
Block builders sum products of scalars raw into a column dict and finish it
once with FieldSpec.settle.

A modulus is tested for primality by deterministic Miller-Rabin on the prime
bases 2..41, which is exact below MAX_MODULUS (Sorenson and Webster 2015); a
larger modulus is refused.
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


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _PRIME_BASES
MAX_MODULUS = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact for n < MAX_MODULUS: Miller-Rabin on each base of _PRIME_BASES."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def residue(t: int, p: int) -> int:
    """The canonical F_p scalar of the int t: t mod p in [-((p - 1) // 2), p // 2]."""
    t %= p
    return t - p if t > p >> 1 else t


class FieldSpec:
    """The ground field: rationals or F_p. Immutable, hashable."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise ValueError("rationals take no modulus")
        elif kind == "Fp":
            if p is not None and p >= MAX_MODULUS:
                raise ValueError(f"a prime modulus must be below {MAX_MODULUS}, got {p}")
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
        """Coerce an int, rational, or 'p/q' string into a field scalar.

        A float or a bool is refused (TypeError), not read as its binary
        value or as 0/1; every structure constant passes through here."""
        if isinstance(value, (bool, float)):
            raise TypeError(f"a scalar is an integer, a rational or a string, got {value!r}")
        if self.kind == "Q":
            return _canonical(_ratio(value))
        if isinstance(value, str):
            value = int(value)
        if not isinstance(value, int):
            raise TypeError(f"prime-field scalar must be an integer, got {value!r}")
        return residue(value, self.p)

    # arithmetic ---------------------------------------------------------
    def add(self, a, b):
        return _canonical(a + b) if self.kind == "Q" else residue(a + b, self.p)

    def mul(self, a, b):
        return _canonical(a * b) if self.kind == "Q" else residue(a * b, self.p)

    def neg(self, a):
        return -a if self.kind == "Q" else residue(-a, self.p)

    def sign(self, k: int):
        """(-1)^k."""
        return self.neg(self.one) if k % 2 else self.one

    def inv(self, a):
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("division by zero")
            return _canonical(1 / _ratio(a))
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero")
        return residue(pow(a, -1, self.p), self.p)

    def is_zero(self, a) -> bool:
        return a == 0 if self.kind == "Q" else a % self.p == 0

    def settle(self, acc: dict) -> dict:
        """A raw sum finished: canonical scalars, zeros dropped.

        acc holds plain sums of products of field scalars, keyed by anything;
        the result keeps its key order.  acc itself is returned when every
        value is already a nonzero canonical scalar: an int over Q, a
        symmetric residue over F_p.
        """
        if self.kind == "Q":
            for v in acc.values():
                if not v or v.__class__ is not int:
                    return {k: _canonical(v) for k, v in acc.items() if v}
            return acc
        p = self.p
        hi = p >> 1
        lo = hi + 1 - p
        for v in acc.values():
            if not v or not lo <= v <= hi:
                return {k: t for k, v in acc.items() if (t := v if lo <= v <= hi else residue(v, p))}
        return acc

    def sparse(self, cell: dict) -> dict:
        """cell's values coerced by scalar, each once, zeros dropped: a
        structure-constant cell as stored."""
        return {k: s for k, v in cell.items() if (s := self.scalar(v))}

    # serialization ------------------------------------------------------
    def fmt(self, a) -> str | int:
        """Bit-exact serialization: 'p/q' strings over Q, ints 0..p-1 over F_p
        (not the symmetric residue that is held)."""
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
