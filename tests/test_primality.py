"""The primality test behind FieldSpec: deterministic Miller-Rabin, bounded.

Trial division is the reference below 10^4.  Above it, two strong
pseudoprimes must be refused (3215031751 passes bases 2, 3, 5 and 7;
3825123056546413051 passes every prime base up to 23), a 61-bit Mersenne
prime must be accepted at once, and a modulus at or above the bound up to
which the bases 2..41 decide primality must be an input error.
"""

import json
import time

import pytest

from hopfcross.cli import main
from hopfcross.fields import MAX_MODULUS, FieldSpec, _is_prime
from hopfcross.problems import builtin, emit_problem


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_agrees_with_trial_division_below_ten_thousand():
    assert [n for n in range(10**4) if _is_prime(n)] == [n for n in range(10**4) if trial_division(n)]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_refused(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="prime modulus"):
        FieldSpec.prime(n)


def test_the_bound_is_refused_by_size():
    # MAX_MODULUS is composite but passes every base, hence the bound
    assert MAX_MODULUS == 1287836182261 * 2575672364521 and _is_prime(MAX_MODULUS)
    with pytest.raises(ValueError, match="below"):
        FieldSpec.prime(MAX_MODULUS)
    assert FieldSpec.prime(2**61 - 1).p == 2**61 - 1


def test_large_prime_is_accepted_quickly():
    start = time.perf_counter()
    field = FieldSpec.parse("fp:2305843009213693951")
    assert time.perf_counter() - start < 0.1
    assert field.p == 2**61 - 1
    assert field.mul(field.scalar(-1), field.scalar(-1)) == 1


@pytest.mark.parametrize("p", [MAX_MODULUS, 2**89 - 1])
def test_modulus_above_the_bound_exits_2(p, tmp_path, capsys):
    assert main(["verify", "z2_trivial", "--field", f"fp:{p}"]) == 2
    assert "below" in capsys.readouterr().err
    doc = emit_problem(builtin("z2_trivial", field=FieldSpec.prime(5)))
    doc["field"] = f"fp:{p}"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "below" in capsys.readouterr().err
