"""The exact primality and factorization helpers, against sympy up to 2^40,
and their ParameterError above it."""

import os
import subprocess
import sys

import pytest
import sympy

from diffsets import ParameterError
from diffsets.numtheory import factorint, isprime

LIMIT = 2 ** 40

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


def _check(n):
    """sympy's answer at or below 2^40, a ParameterError from both helpers
    above it."""
    if n <= LIMIT:
        assert isprime(n) == sympy.isprime(n)
        assert factorint(n) == sympy.factorint(n)
    else:
        for helper in (isprime, factorint):
            with pytest.raises(ParameterError, match="outside 1 .. 2\\^40"):
                helper(n)


@pytest.mark.parametrize("n", PSEUDOPRIMES + CARMICHAEL)
def test_composites_that_fool_weak_tests(n):
    assert not sympy.isprime(n)
    _check(n)


@pytest.mark.parametrize("n", [2 ** 40 - 87, 2 ** 40, 1048571 * 1048573,
                               2 ** 61 - 1, 2 ** 89 - 1, 10 ** 30 + 57])
def test_near_and_beyond_the_bounds(n):
    _check(n)


def test_below_the_range():
    assert not any(isprime(n) for n in (1, 0, -7))
    for n in (0, -7):
        with pytest.raises(ParameterError, match=f"n = {n} is outside"):
            factorint(n)


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_sympy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diffsets.cli; print('sympy' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


NO_SYMPY_SCRIPT = """
import os, sys
sys.modules["sympy"] = None  # every import of sympy now raises ImportError
from diffsets import cli
os.chdir(sys.argv[1])
for family, flags in (("dillon", []), ("denniston-even", ["--m", "3", "--r", "1"])):
    for argv in (["construct", family, *flags, "--out", "d"],
                 ["transfer", "--design", "d.design.txt", "--out", "dx"],
                 ["verify", "--design", "dx.design.txt"]):
        assert cli.main(argv) == 0, argv
"""


def test_pipeline_runs_without_sympy(tmp_path):
    """The package declares numpy alone: construct, transfer and verify run
    with sympy unimportable."""
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "dx.design.txt").exists()
