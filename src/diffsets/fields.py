"""Finite fields GF(p^m) and Galois rings GR(4,t) on integer element codes.

An element with polynomial-basis coefficients (c_0, ..., c_{m-1}) is stored as
the integer code sum(c_i * p**i), so the q field elements are coded exactly by
0 .. q-1, with 0 the zero element and 1 the one element.  The same convention
holds for the rings with radix 4.  These codes are the element indices of the
additive group - C_p^m for GF(p^m), C_4^t for GR(4,t) - so each structure
keeps that AbelianGroup as `additive`: addition is its product, and a field's
`digits` tables its digits, the coefficient vectors.  Field multiplication goes
through exp/log tables of the primitive element, built once per (p, m, modulus)
triple and cached.  Each field operation has one body, on arrays of codes; a
scalar call is that body on one element.  A ring keeps only what the
Galois-ring Denniston family reads: its additive group, the Teichmueller
powers `hpow`, its residue field and the map `iso_table` of that field onto
the ideal 2R.

Every table is GF(p)-linear algebra on coefficient vectors.  Multiplication
by x modulo a monic x^m + c_{m-1} x^(m-1) + ... + c_0 is the companion
matrix C, whose row i is the vector of x^(i+1); for m = 1 it is the 1 x 1
matrix (-c_0), so "x" is that root.  The vector of x^e is row 0 of C^e.

* Exp tables double: the vectors of x^L .. x^(2L-1) are those of
  x^0 .. x^(L-1) times C^L, and C^(2L) = (C^L)^2, so GF(p^m) takes about
  log2(p^m) small matmuls.  The GR(4,t) powers `hpow` are built the same
  way mod 4.
* x has multiplicative order exactly n iff x^n = 1 and x^(n/l) != 1 for
  each prime l | n (Lidl and Niederreiter, Finite Fields, Thm 3.16).  One
  square-and-multiply over the bits of n, on stacked companion matrices,
  checks every exponent for a batch of moduli at once.  Order exactly
  p^m - 1 makes the p^m - 1 powers of x distinct units, which with 0
  exhaust the quotient ring; so the modulus is irreducible and primitive.
  GR(4,t) certifies its lifted modulus the same way, with n = 2^t - 1.

Moduli are always monic and are selected deterministically: the default is the
first primitive polynomial when coefficient vectors (c_0, ..., c_{m-1}) are
compared lexicographically low-degree-first.  The search walks that order in
chunks that start small and double up to a cap, and is cached per (p, m).
It visits only the constant terms a primitive modulus can have: c_0 is
(-1)^m N(x), and the norm N(x) = x^((p^m-1)/(p-1)) of a primitive x is a
primitive root mod p (Lidl and Niederreiter, Finite Fields, Thm 3.18); so
c_0 = 0 is never visited either (x is zero or a zero divisor).  In each chunk
a vectorized root test drops the candidates with a root in GF(p), which for
m >= 2 are reducible, and the batched certificate picks the first primitive
survivor.  An overridden modulus passes the same certificate.

Every matmul sums at most m + 1 products of residues below p (below 4 for
the rings), so its entries stay below (m + 1)(p - 1)^2 < 2^41 for every
p^m <= MAX_GROUP_ORDER: exact in int64, whose bound is m (p - 1)^2 < 2^63
(float64 BLAS would need < 2^53).

Hyperplanes come as one int64 array with a sorted row of point codes per
plane; a point (x, y) of GF(q)^2 has the code x + q y.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import LiftFailure, NonPrimitiveModulus, ParameterError
from .groups import AbelianGroup, abelian_make, check_power_order
from .numtheory import factorint, isprime

# The default-modulus search tests this many candidates first, then twice as
# many per chunk up to the cap: a small field pays for a few candidates only,
# and a chunk's stacked companion matrices stay below 2 MiB at m = 20.
_FIRST_CHUNK = 8
_CHUNK_CAP = 512


# ---------------------------------------------------------------------------
# linear algebra on coefficient vectors (low degree first)
# ---------------------------------------------------------------------------

def _companions(tails: np.ndarray, p: int) -> np.ndarray:
    """Stacked companion matrices of the monic moduli x^m + tail over Z/p:
    row i of each is the vector of x^(i+1), so v @ C is v times x."""
    n, m = tails.shape
    comp = np.zeros((n, m, m), dtype=np.int64)
    comp[:, np.arange(m - 1), np.arange(1, m)] = 1
    comp[:, -1] = -tails % p
    return comp


def _x_has_order(tails: np.ndarray, p: int, n: int) -> np.ndarray:
    """For each monic modulus x^m + tail over Z/p, whether x has
    multiplicative order exactly n: x^n = 1 and x^(n/l) != 1 for every prime
    l | n.  Each stack holds the vectors of x^e, one row per exponent e,
    above C^(2^k); step k multiplies by C^(2^k) the rows of the exponents
    with bit k set and the matrix rows, which squares the matrix."""
    exps = [n] + [n // ell for ell in factorint(n)]
    e, bits = len(exps), n.bit_length()
    acc = np.zeros((len(tails), e + tails.shape[1], tails.shape[1]), dtype=np.int64)
    acc[:, :e, 0] = 1
    acc[:, e:] = _companions(tails, p)
    take = np.ones((bits, acc.shape[1], 1), dtype=bool)
    take[:, :e, 0] = [[ex >> k & 1 for ex in exps] for k in range(bits)]
    for k in range(bits):
        acc = np.where(take[k], acc @ acc[:, e:] % p, acc)
    acc[:, :e, 0] -= 1  # a row is now zero iff its power of x is 1
    not_one = acc[:, :e].any(axis=2)
    return ~not_one[:, 0] & not_one[:, 1:].all(axis=1)


def _powers(tail: Sequence[int], p: int, count: int) -> np.ndarray:
    """Vectors of x^0 .. x^(count-1) modulo x^m + tail over Z/p, by doubling:
    rows L .. 2L-1 are rows 0 .. L-1 times C^L."""
    step = _companions(np.array([tail], dtype=np.int64), p)[0]
    out = np.zeros((count, len(tail)), dtype=np.int64)
    out[0, 0] = 1
    done = 1
    while done < count:
        k = min(done, count - done)
        out[done:done + k] = out[:k] @ step % p
        step = step @ step % p
        done += k
    return out


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> Tuple[int, ...]:
    """The first primitive candidate in lexicographic order, tails
    (c_0, ..., c_{m-1}) with c_0 the most significant digit (see module notes)."""
    q, block = p ** m, p ** (m - 1)
    weights = np.array([p ** j for j in range(m - 1, -1, -1)])
    # row j holds a^j for a in GF(p).  A root in GF(p) is a linear factor, so
    # for m >= 2 such candidates are dropped; at m = 1 every candidate has one.
    apow = np.array([[pow(a, j, p) for a in range(p)] for j in range(m + 1)]) if m > 1 else None
    size = _FIRST_CHUNK
    # the block of candidates with constant term c0 is c0 p^(m-1) .. (c0 + 1) p^(m-1) - 1
    for c0 in range(1, p):
        if any(pow((-1) ** m * c0, (p - 1) // ell, p) == 1 for ell in factorint(p - 1)):
            continue
        lo, hi = c0 * block, (c0 + 1) * block
        while lo < hi:
            tails = np.arange(lo, min(lo + size, hi))[:, None] // weights % p
            if apow is not None:
                tails = tails[((tails @ apow[:m] + apow[m]) % p).all(axis=1)]
            hit = np.flatnonzero(_x_has_order(tails, p, q - 1))
            if hit.size:
                return tuple(tails[hit[0]].tolist()) + (1,)
            lo, size = lo + size, min(2 * size, _CHUNK_CAP)
    raise NonPrimitiveModulus(f"no primitive degree-{m} polynomial found over GF({p})")


def _poly_str(digits: Sequence[int]) -> str:
    terms = []
    for i in range(len(digits) - 1, -1, -1):
        c = digits[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" + (f"^{i}" if i > 1 else ""))
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _elementary(p: int, m: int) -> AbelianGroup:
    """C_p^m, the additive group of GF(p^m) under every modulus."""
    return abelian_make((p,) * m)


class FiniteField:
    """GF(p^m): addition in the additive group, multiplication by exp/log
    tables.  The modulus must be primitive; field_make certifies it."""

    def __init__(self, p: int, m: int, modulus: Tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = tuple(int(c) for c in modulus)
        self.additive = _elementary(p, m)
        self.digits = self.additive.digits_of(np.arange(self.q))

        # exp/log tables: exp[i] is the code of x^i
        self.exp = self.additive.encode(_powers(self.modulus[:m], p, self.q - 1))
        log = np.full(self.q, -1, dtype=np.int64)
        log[self.exp] = np.arange(self.q - 1)
        self.log = log
        # traces[a] is the absolute trace a + a^p + ... + a^(p^(m-1)), the
        # trace of multiplication by a: it is GF(p)-linear, and tr(x^i) sums
        # the coefficients of x^k in x^(i+k), the diagonal of that map's matrix
        k = np.arange(m)
        basis_traces = self.digits[self.exp[np.add.outer(k, k)], k].sum(axis=1)
        self.traces = self.digits @ basis_traces % p

    # -- arithmetic on codes: each scalar call is the vector one on one element

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_many(a, b))

    def mul_many(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        prod = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def inv(self, a: int) -> int:
        return int(self.inv_many(a))

    def inv_many(self, a) -> np.ndarray:
        a = np.asarray(a)
        if (a == 0).any():
            raise ZeroDivisionError("inverse of zero")
        return self.exp[-self.log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        return int(self.pow_many(a, e))

    def pow_many(self, a, e: int) -> np.ndarray:
        """a^e with e reduced mod q - 1 first: 0^0 = 1, 0^e = 0 for e > 0,
        and a negative power of 0 raises ZeroDivisionError."""
        a = np.asarray(a)
        if e < 0 and (a == 0).any():
            raise ZeroDivisionError("negative power of zero")
        n = self.q - 1
        return np.where(a == 0, int(e == 0), self.exp[self.log[a] * (e % n) % n])

    # -- field structure -------------------------------------------------

    def frob(self, a: int, k: int = 1) -> int:
        """k-fold Frobenius a -> a^(p^k)."""
        return self.pow(a, self.p ** k)

    def trace(self, a: int) -> int:
        return int(self.traces[a])

    def in_subfield(self, a: int, sub_degree: int) -> bool:
        return self.frob(a, sub_degree) == a

    def element_str(self, code: int) -> str:
        return _poly_str(self.digits[code].tolist())

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m}; {_poly_str(self.modulus)})"


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, m: int, modulus: Tuple[int, ...]) -> FiniteField:
    return FiniteField(p, m, modulus)


def field_make(p: int, m: int, modulus_override: Optional[Sequence[int]] = None) -> FiniteField:
    """Construct GF(p^m), selecting the default primitive modulus unless
    overridden.  The order is checked before primality, as in the families,
    so isprime only ever sees p <= MAX_GROUP_ORDER."""
    if m < 1:
        raise ParameterError(f"extension degree must be positive, got {m}")
    if p >= 2:
        check_power_order(p, m)
    if p < 2 or not isprime(p):
        raise ParameterError(f"p = {p} is not prime")
    if modulus_override is not None:
        mod = tuple(int(c) % p for c in modulus_override)
        if len(mod) != m + 1 or modulus_override[m] != 1:
            raise ParameterError(
                f"modulus override must be monic of degree {m}, got {list(modulus_override)}")
        if not _x_has_order(np.array([mod[:m]]), p, p ** m - 1)[0]:
            raise NonPrimitiveModulus(
                f"override {_poly_str(mod)} over GF({p}) is reducible or not primitive")
        return _field_cached(p, m, mod)
    return _field_cached(p, m, _default_modulus(p, m))


def field_embed(small: FiniteField, big: FiniteField) -> np.ndarray:
    """Code-to-code embedding table of `small` into `big`.

    The image of the generator is the first power g^(j step) of big's
    primitive element g, over j coprime to small.q - 1 in increasing order
    with step = (big.q - 1) / (small.q - 1), that is a root of small's
    modulus.  Its powers y^i form the matrix B, and the table is
    encode(small.digits @ B mod p).
    """
    if small.p != big.p or big.m % small.m != 0:
        raise ParameterError(f"{small!r} is not a subfield of {big!r}")
    step = (big.q - 1) // (small.q - 1)
    js = np.array([j for j in range(1, small.q) if gcd(j, small.q - 1) == 1])
    # ypow[c, i] is the vector of y_c^i for the candidate root y_c = g^(js[c] step)
    ypow = big.digits[big.exp[np.outer(js * step, np.arange(small.m + 1)) % (big.q - 1)]]
    hit = np.flatnonzero(~(np.array(small.modulus) @ ypow % big.p).any(axis=1))
    if not hit.size:
        raise ParameterError(f"no root of {_poly_str(small.modulus)} found in {big!r}")
    return big.additive.encode(small.digits @ ypow[hit[0], :small.m])


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------

def hyperplanes(field: FiniteField, ambient_dim: int = 1) -> np.ndarray:
    """Deterministically ordered hyperplanes, one sorted int64 row of member
    codes per plane.

    ambient_dim 1: the GF(p)-hyperplanes of (GF(p^m), +), as field codes.
    The first is the kernel of the absolute trace; the rest are its
    multiplicative translates by successive powers of the primitive element.

    ambient_dim 2: the GF(q)-lines of GF(q)^2 in the order <(1,0)>, <(0,1)>,
    then <(1, g^j)> for j = 0 .. q-2 with g the primitive element; the point
    (x, y) has code x + q y.
    """
    q, p = field.q, field.p
    if ambient_dim == 1:
        h0 = np.flatnonzero(field.traces == 0)
        return np.sort(field.mul_many(h0, field.exp[:(q - 1) // (p - 1), None]), axis=1)
    if ambient_dim == 2:
        x = np.arange(q)
        slopes = x + q * field.mul_many(x, field.exp[:, None])
        return np.sort(np.concatenate([x[None], q * x[None], slopes]), axis=1)
    raise ParameterError(f"ambient_dim must be 1 or 2, got {ambient_dim}")


# ---------------------------------------------------------------------------
# Galois rings GR(4, t)
# ---------------------------------------------------------------------------

def _graeffe_step(f: List[int]) -> List[int]:
    """One coefficient-doubling step: f(x) -> +-(e(x)^2 - x*o(x)^2) mod 4.

    e and o collect the even and odd coefficients of f, so f_a f_b lands on
    degree (a + b)/2 for a, b of equal parity, negated when they are odd.
    The result is normalized to be monic.
    """
    deg = len(f) - 1
    out = [0] * (deg + 1)
    for a, fa in enumerate(f):
        for b in range(a % 2, deg + 1, 2):
            out[(a + b) // 2] += (-1) ** a * fa * f[b]
    out = [c % 4 for c in out]
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
        if t == 3:
            self.phi2: Tuple[int, ...] = (1, 1, 0, 1)
        else:
            self.phi2 = _default_modulus(2, t)
        self.phi = _hensel_lift(self.phi2, t)
        if tuple(c % 2 for c in self.phi) != self.phi2:
            raise LiftFailure("lifted modulus does not reduce to the binary modulus")
        # x of order exactly 2^t - 1 over Z4: phi divides x^(2^t-1) - 1 and the
        # powers of h (the residue of x) are distinct
        n1 = 2 ** t - 1
        if not _x_has_order(np.array([self.phi[:t]]), 4, n1)[0]:
            raise LiftFailure(f"x does not have order {n1} modulo the lifted modulus "
                              f"{_poly_str(self.phi)} over Z4")

        self.residue_field = field_make(2, t, modulus_override=self.phi2)
        self.hpow = self.additive.encode(_powers(self.phi[:t], 4, n1))
        # 2R is the image of the Teichmueller set under doubling: g^i -> 2 h^i
        iso = np.zeros(2 ** t, dtype=np.int64)
        iso[self.residue_field.exp] = self.additive.mul_many(self.hpow, self.hpow)
        self.iso_table = iso

    def __repr__(self) -> str:
        return f"GR(4,{self.t}; {_poly_str(self.phi)})"


@functools.lru_cache(maxsize=None)
def galois_ring_make(t: int) -> GaloisRing:
    """Construct GR(4,t); the degree-3 binary modulus is pinned to x^3+x+1."""
    return GaloisRing(t)
