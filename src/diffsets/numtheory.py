"""Exact primality and factorization by trial division.

The package asks only for primes and factorizations of group orders, field
sizes and their divisors, and of family parameters once the family has
checked its group order; each of these is at most MAX_GROUP_ORDER = 2^20.
Trial division is exact and takes at most 2^20 steps on any n up to 2^40,
the bound here, which leaves that ceiling room to grow.  Any other n is a
ParameterError.
"""

from __future__ import annotations

from typing import Dict

from .errors import ParameterError

# trial division up to sqrt(2^40) = 2^20 candidates at most
_TRIAL_LIMIT = 1 << 40


def factorint(n: int) -> Dict[int, int]:
    """{prime: exponent} of 1 <= n <= 2^40, primes ascending."""
    n = int(n)
    if not 1 <= n <= _TRIAL_LIMIT:
        what = f"n = {n}" if n.bit_length() <= 64 else "an n above 2^64"
        raise ParameterError(f"{what} is outside 1 .. 2^40, the range of exact "
                             f"factorization")
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def isprime(n: int) -> bool:
    n = int(n)
    return n >= 2 and factorint(n) == {n: 1}
