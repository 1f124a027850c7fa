"""Exact primality and factorization for the sizes the library meets.

The package needs only `isprime` and `factorint`, on group orders and field
sizes of at most 2^20 and on user-supplied parameters.  Both are exact here
without sympy, whose import costs about half a second; only inputs beyond
the bounds below import it, inside the call, so huge parameters behave as
they always did.
"""

from __future__ import annotations

from typing import Dict

# Miller-Rabin on every prime base up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# trial division up to sqrt(2^40) = 2^20 candidates at most
_TRIAL_LIMIT = 1 << 40


def isprime(n: int) -> bool:
    n = int(n)
    if n >= _MR_LIMIT:
        import sympy
        return bool(sympy.isprime(n))
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> Dict[int, int]:
    """{prime: exponent} of n >= 1, primes ascending."""
    n = int(n)
    if n > _TRIAL_LIMIT:
        import sympy
        return {int(p): int(e) for p, e in sorted(sympy.factorint(n).items())}
    out: Dict[int, int] = {}
    p = 2
    done = isprime(n)
    while not done and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
            done = isprime(n)
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out
