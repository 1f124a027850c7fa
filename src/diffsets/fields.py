"""Finite fields GF(p^m) and Galois rings GR(4,t) on integer element codes.

An element with polynomial-basis coefficients (c_0, ..., c_{m-1}) is stored as
the integer code sum(c_i * p**i), so the q field elements are coded exactly by
0 .. q-1, with 0 the zero element and 1 the one element.  The same convention
holds for the rings with radix 4.  These codes are the element indices of the
additive group - C_p^m for GF(p^m), C_4^t for GR(4,t) - so each structure
keeps that AbelianGroup as `additive`: addition is its product, and its digits
are the coefficient vectors.  Field multiplication goes through exp/log tables
of the primitive element, built once per (p, m, modulus) triple and cached;
ring multiplication reduces the polynomial product on demand.

Moduli are always monic and are selected deterministically: the default is the
first primitive polynomial when coefficient vectors (c_0, ..., c_{m-1}) are
compared lexicographically low-degree-first.  The search skips candidates
with a root in GF(p) (every c_0 = 0 among them), which cannot be primitive,
and is cached per (p, m).  Primitivity of the chosen (or overridden) modulus
is certified by checking that x has multiplicative order exactly p^m - 1,
which also implies irreducibility.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import LiftFailure, NonPrimitiveModulus, ParameterError
from .groups import AbelianGroup, abelian_make
from .numtheory import factorint, isprime


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> List[int]:
    """Product of a and b reduced modulo a monic modulus, coefficients mod p."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c == 0:
            continue
        prod[d] = 0
        for j in range(m + 1):
            prod[d - m + j] = (prod[d - m + j] - c * modulus[j]) % p
    out = prod[:m] + [0] * max(0, m - len(prod))
    return out[:m] if m > 0 else []


def _poly_powmod(a: Sequence[int], e: int, modulus: Sequence[int], p: int) -> List[int]:
    m = len(modulus) - 1
    result = [1] + [0] * (m - 1)
    base = list(a[:m]) + [0] * (m - len(a))
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _is_one(a: Sequence[int]) -> bool:
    return len(a) >= 1 and a[0] == 1 and all(c == 0 for c in a[1:])


def _modulus_is_primitive(modulus: Sequence[int], p: int, m: int) -> bool:
    """True when x has multiplicative order exactly p^m - 1 modulo the modulus.

    Order exactly p^m - 1 forces the p^m - 1 powers of x to be distinct units,
    which together with 0 exhaust the ring; the quotient is then a field, so
    the modulus is irreducible, and x generates the multiplicative group.
    """
    q1 = p ** m - 1
    if q1 == 0:
        return False
    x = [0, 1] if m > 1 else [(-modulus[0]) % p]
    if not _is_one(_poly_powmod(x, q1, modulus, p)):
        return False
    for ell in factorint(q1):
        if _is_one(_poly_powmod(x, q1 // ell, modulus, p)):
            return False
    return True


def _has_root(poly: Sequence[int], p: int) -> bool:
    """Whether poly (low degree first) vanishes at some element of GF(p)."""
    a = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in reversed(poly):
        val = (val * a + c) % p
    return not val.all()


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> Tuple[int, ...]:
    """The first primitive candidate in lexicographic order.  A candidate
    with a root in GF(p) has a linear factor, so for m >= 2 it is reducible
    and skipped before the order test; for m = 1 only x (c_0 = 0) is."""
    for tail in itertools.product(range(p), repeat=m):
        cand = list(tail) + [1]
        if (m == 1 and tail[0] == 0) or (m >= 2 and _has_root(cand, p)):
            continue
        if _modulus_is_primitive(cand, p, m):
            return tuple(cand)
    raise NonPrimitiveModulus(f"no primitive degree-{m} polynomial found over GF({p})")


def _poly_str(digits: Sequence[int], var: str = "x") -> str:
    terms = []
    for i in range(len(digits) - 1, -1, -1):
        c = digits[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _elementary(p: int, m: int) -> AbelianGroup:
    """C_p^m, the additive group of GF(p^m) under every modulus."""
    return abelian_make((p,) * m)


class FiniteField:
    """GF(p^m): addition in the additive group, multiplication by exp/log tables."""

    def __init__(self, p: int, m: int, modulus: Tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = tuple(int(c) for c in modulus)
        self.additive = _elementary(p, m)
        self.digits = self.additive.digits

        # exp/log tables: exp[i] is the code of x^i
        exp = np.empty(self.q - 1, dtype=np.int64)
        cur = [0] * m
        cur[0] = 1
        for i in range(self.q - 1):
            exp[i] = sum(c * p ** k for k, c in enumerate(cur))
            cur = _poly_mulmod(cur, [0, 1] if m > 1 else [(-self.modulus[0]) % p], self.modulus, p)
        if len(set(exp.tolist())) != self.q - 1:
            raise NonPrimitiveModulus(
                f"modulus {_poly_str(self.modulus)} over GF({p}) is not primitive")
        self.exp = exp
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp] = np.arange(self.q - 1)
        self.log = log
        self._embeddings: Dict[int, np.ndarray] = {}

    # -- basic arithmetic on codes --------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.additive.mul(a, b)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % (self.q - 1)])

    def mul_many(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        prod = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.exp[(-self.log[a]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return int(self.exp[(self.log[a] * e) % (self.q - 1)])

    # -- field structure -------------------------------------------------

    def frob(self, a: int, k: int = 1) -> int:
        """k-fold Frobenius a -> a^(p^k)."""
        return self.pow(a, self.p ** k)

    def trace(self, a: int, sub_degree: int = 1) -> int:
        if self.m % sub_degree != 0:
            raise ParameterError(
                f"sub_degree {sub_degree} does not divide extension degree {self.m}")
        acc = 0
        for i in range(self.m // sub_degree):
            acc = self.add(acc, self.pow(a, self.p ** (sub_degree * i)))
        return acc

    def in_subfield(self, a: int, sub_degree: int) -> bool:
        return self.frob(a, sub_degree) == a

    def element_str(self, code: int, var: str = "x") -> str:
        return _poly_str(self.digits[code].tolist(), var)

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m}; {_poly_str(self.modulus)})"


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, m: int, modulus: Tuple[int, ...]) -> FiniteField:
    return FiniteField(p, m, modulus)


def field_make(p: int, m: int, modulus_override: Optional[Sequence[int]] = None) -> FiniteField:
    """Construct GF(p^m), selecting the default primitive modulus unless overridden."""
    if not isprime(p):
        raise ParameterError(f"p = {p} is not prime")
    if m < 1:
        raise ParameterError(f"extension degree must be positive, got {m}")
    _elementary(p, m)  # an oversized order fails here, before any modulus search
    if modulus_override is not None:
        mod = tuple(int(c) % p for c in modulus_override)
        if len(mod) != m + 1 or modulus_override[m] != 1:
            raise ParameterError(
                f"modulus override must be monic of degree {m}, got {list(modulus_override)}")
        if not _modulus_is_primitive(mod, p, m):
            raise NonPrimitiveModulus(
                f"override {_poly_str(mod)} over GF({p}) is reducible or not primitive")
        return _field_cached(p, m, mod)
    return _field_cached(p, m, _default_modulus(p, m))


def field_embed(small: FiniteField, big: FiniteField) -> np.ndarray:
    """Code-to-code embedding table of `small` into `big`.

    The image of the generator is the first power of big's primitive element
    that is a root of small's modulus; the table maps each small code to the
    corresponding big code.
    """
    key = id(small)
    if key in big._embeddings:
        return big._embeddings[key]
    if small.p != big.p or big.m % small.m != 0:
        raise ParameterError(f"{small!r} is not a subfield of {big!r}")
    if small.q == big.q:
        step = 1
    else:
        step = (big.q - 1) // (small.q - 1)
    root = None
    for j in range(1, small.q):
        if gcd(j, small.q - 1) != 1 and small.q > 2:
            continue
        y = int(big.exp[(j * step) % (big.q - 1)]) if small.q > 2 else 1
        acc = 0
        for i, c in enumerate(small.modulus):
            acc = big.add(acc, big.mul(c % big.p, big.pow(y, i)))
        if acc == 0:
            root = y
            break
        if small.q == 2:
            break
    if root is None:
        raise ParameterError(f"no root of {_poly_str(small.modulus)} found in {big!r}")
    table = np.zeros(small.q, dtype=np.int64)
    for code in range(small.q):
        acc = 0
        for i, c in enumerate(small.digits[code].tolist()):
            acc = big.add(acc, big.mul(c, big.pow(root, i)))
        table[code] = acc
    big._embeddings[key] = table
    return table


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """A maximal proper subspace, stored as a sorted member tuple.

    For ambient_dim 1 the members are field codes; for ambient_dim 2 they are
    (x, y) code pairs.
    """
    index: int
    members: tuple


def hyperplanes(field: FiniteField, ambient_dim: int = 1) -> List[Hyperplane]:
    """Deterministically ordered hyperplane list.

    ambient_dim 1: the GF(p)-hyperplanes of (GF(p^m), +).  The first is the
    kernel of the absolute trace; the rest are its multiplicative translates
    by successive powers of the primitive element.

    ambient_dim 2: the GF(q)-lines of GF(q)^2 in the order <(1,0)>, <(0,1)>,
    then <(1, g^j)> for j = 0 .. q-2 with g the primitive element.
    """
    q, p = field.q, field.p
    if ambient_dim == 1:
        count = (q - 1) // (p - 1)
        h0 = tuple(sorted(a for a in range(q) if field.trace(a) == 0))
        planes = [Hyperplane(0, h0)]
        for i in range(1, count):
            s = int(field.exp[i])
            planes.append(Hyperplane(i, tuple(sorted(field.mul(x, s) for x in h0))))
        if len({pl.members for pl in planes}) != count:
            raise ParameterError("hyperplane translates collided; modulus not primitive?")
        return planes
    if ambient_dim == 2:
        planes = [Hyperplane(0, tuple((x, 0) for x in range(q))),
                  Hyperplane(1, tuple((0, y) for y in range(q)))]
        for j in range(q - 1):
            s = int(field.exp[j]) if q > 2 else 1
            planes.append(Hyperplane(2 + j, tuple(sorted((c, field.mul(c, s)) for c in range(q)))))
        return planes
    raise ParameterError(f"ambient_dim must be 1 or 2, got {ambient_dim}")


# ---------------------------------------------------------------------------
# Galois rings GR(4, t)
# ---------------------------------------------------------------------------

def _z4_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int]) -> List[int]:
    return _poly_mulmod(a, b, modulus, 4)


def _graeffe_step(f: List[int]) -> List[int]:
    """One coefficient-doubling step: f(x) -> +-(e(x)^2 - x*o(x)^2) mod 4.

    e and o collect the even and odd coefficients of f.  The result is
    normalized to be monic.
    """
    deg = len(f) - 1
    e = f[0::2]
    o = f[1::2]
    ee = [0] * (2 * len(e) - 1)
    for i, ci in enumerate(e):
        for j, cj in enumerate(e):
            ee[i + j] = (ee[i + j] + ci * cj) % 4
    oo = [0] * (2 * len(o) - 1) if o else []
    for i, ci in enumerate(o):
        for j, cj in enumerate(o):
            oo[i + j] = (oo[i + j] + ci * cj) % 4
    out = [0] * (deg + 1)
    for i, c in enumerate(ee):
        out[i] = (out[i] + c) % 4
    for i, c in enumerate(oo):
        out[i + 1] = (out[i + 1] - c) % 4
    if out[deg] == 3:
        out = [(-c) % 4 for c in out]
    if out[deg] != 1:
        raise LiftFailure(f"lift step produced non-monic polynomial {out}")
    return out


def _hensel_lift(phi2: Sequence[int], t: int) -> Tuple[int, ...]:
    f = [c % 4 for c in phi2]
    for _ in range(t + 2):
        nxt = _graeffe_step(f)
        if nxt == f:
            return tuple(f)
        f = nxt
    raise LiftFailure(f"coefficient-doubling iteration did not stabilize for {list(phi2)}")


class GaloisRing:
    """GR(4,t) = Z4[x]/(phi) where phi lifts a primitive binary polynomial."""

    def __init__(self, t: int):
        if t < 2:
            raise ParameterError(f"ring degree must be at least 2, got {t}")
        self.t = t
        self.q = 4 ** t
        self.additive = abelian_make((4,) * t)
        self.digits = self.additive.digits
        if t == 3:
            self.phi2: Tuple[int, ...] = (1, 1, 0, 1)
        else:
            self.phi2 = _default_modulus(2, t)
        self.phi = _hensel_lift(self.phi2, t)
        if tuple(c % 2 for c in self.phi) != self.phi2:
            raise LiftFailure("lifted modulus does not reduce to the binary modulus")
        self._check_divides_cyclotomic()

        self.residue_field = field_make(2, t, modulus_override=self.phi2)

        # powers of h (the residue of x); h must have order 2^t - 1
        n1 = 2 ** t - 1
        hp = np.empty(n1, dtype=np.int64)
        cur = [1] + [0] * (t - 1)
        for i in range(n1):
            hp[i] = sum(c * 4 ** k for k, c in enumerate(cur))
            cur = _z4_mulmod(cur, [0, 1], self.phi)
        if not _is_one(cur) or len(set(hp.tolist())) != n1:
            raise LiftFailure("residue of x does not have the full Teichmueller order")
        self.hpow = hp

        # reduction mod 2: the residue field's encode takes every Z4 digit mod 2
        self.proj_table = self.residue_field.additive.encode(self.digits)
        # 2R is the image of the Teichmueller set under doubling: g^i -> 2 h^i
        iso = np.zeros(2 ** t, dtype=np.int64)
        iso[self.residue_field.exp] = self.additive.mul_many(hp, hp)
        self.iso_table = iso

    def _check_divides_cyclotomic(self) -> None:
        n1 = 2 ** self.t - 1
        rem = _poly_powmod([0, 1], n1, self.phi, 4)
        if not _is_one(rem):
            raise LiftFailure(
                f"lifted modulus {_poly_str(self.phi)} does not divide x^{n1} - 1 over Z4")

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.additive.mul(a, b)

    def mul(self, a: int, b: int) -> int:
        v = _z4_mulmod(self.digits[a].tolist(), self.digits[b].tolist(), self.phi)
        return sum(c * 4 ** k for k, c in enumerate(v))

    def pow(self, a: int, e: int) -> int:
        acc = 1
        base = a
        while e > 0:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def element_str(self, code: int, var: str = "h") -> str:
        return _poly_str(self.digits[code].tolist(), var)

    def __repr__(self) -> str:
        return f"GR(4,{self.t}; {_poly_str(self.phi)})"


@functools.lru_cache(maxsize=None)
def galois_ring_make(t: int) -> GaloisRing:
    """Construct GR(4,t); the degree-3 binary modulus is pinned to x^3+x+1."""
    return GaloisRing(t)
