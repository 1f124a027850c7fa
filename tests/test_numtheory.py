"""The exact primality and factorization helpers, against sympy."""

import os
import subprocess
import sys

import pytest
import sympy

from diffsets.numtheory import factorint, isprime

# strong pseudoprimes to the bases 2, 3, 5 and 7, to every prime base up to
# 31 and to every prime base up to 37; the first 18 Carmichael numbers and
# two larger ones
PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              9746347772161, 1436697831295441]


def test_matches_sympy_below_1e5():
    for n in range(100000):
        assert isprime(n) == sympy.isprime(n), n
    for n in range(1, 100000):
        assert factorint(n) == sympy.factorint(n), n


@pytest.mark.parametrize("n", PSEUDOPRIMES + CARMICHAEL)
def test_composites_that_fool_weak_tests(n):
    assert not isprime(n) and not sympy.isprime(n)
    assert factorint(n) == sympy.factorint(n)


@pytest.mark.parametrize("n", [2 ** 40 - 87, 2 ** 40, 1048571 * 1048573,
                               2 ** 61 - 1, 2 ** 89 - 1, 10 ** 30 + 57])
def test_near_and_beyond_the_bounds(n):
    assert isprime(n) == sympy.isprime(n)
    if n < 10 ** 20:
        assert factorint(n) == sympy.factorint(n)


def test_cli_import_leaves_sympy_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diffsets.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
