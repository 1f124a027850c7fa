"""Field and ring layer: table arithmetic, Frobenius, trace, hyperplanes,
subfield embeddings, and GR(4,t) structure."""

import functools
import random

import numpy as np
import pytest

import oracle
from diffsets import fields
from diffsets import (
    FiniteField,
    NonPrimitiveModulus,
    ParameterError,
    field_embed,
    field_make,
    galois_ring_make,
    hyperplanes,
)


def naive_gf_mul(p, modulus, a, b):
    """Schoolbook polynomial product mod (modulus, p) on integer codes."""
    m = len(modulus) - 1
    da = [(a // p**i) % p for i in range(m)]
    db = [(b // p**i) % p for i in range(m)]
    prod = [0] * (2 * m)
    for i, ca in enumerate(da):
        for j, cb in enumerate(db):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    for d in range(2 * m - 1, m - 1, -1):
        c = prod[d]
        prod[d] = 0
        for j in range(m + 1):
            prod[d - m + j] = (prod[d - m + j] - c * modulus[j]) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_mul_matches_schoolbook(p, m):
    F = field_make(p, m)
    rng = random.Random(0xF1E1D)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.mul(a, b) == naive_gf_mul(p, F.modulus, a, b)


def test_exp_log_roundtrip():
    F = field_make(2, 3)
    for a in range(1, F.q):
        assert int(F.exp[F.log[a]]) == a
    assert int(F.exp[1]) == F.p  # exp[1] is x itself, whose code is p for m > 1
    # multiplicative order of the primitive element is q - 1
    seen = {int(F.exp[i]) for i in range(F.q - 1)}
    assert seen == set(range(1, F.q))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3)])
def test_frobenius_is_field_automorphism(p, m):
    F = field_make(p, m)
    rng = random.Random(0xF20B)
    for _ in range(200):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.frob(F.additive.mul(a, b), 1) == F.additive.mul(F.frob(a, 1), F.frob(b, 1))
        assert F.frob(F.mul(a, b), 1) == F.mul(F.frob(a, 1), F.frob(b, 1))
        assert F.frob(a, 1) == F.pow(a, p)
        assert F.frob(a, m) == a


ONE_BODY_FIELDS = ([(2, m) for m in range(1, 7)] + [(3, m) for m in range(1, 5)]
                   + [(5, 2), (7, 3)])


@pytest.mark.parametrize("p,m", ONE_BODY_FIELDS)
def test_scalar_operations_are_the_vector_ones_on_one_element(p, m):
    """mul, inv, pow, frob, trace and in_subfield on every element against
    their vector forms (mul_many, inv_many, pow_many, the traces table) and
    the one-element-at-a-time reference, whose trace is the Frobenius sum."""
    F = field_make(p, m)
    ref, q, x = oracle.Field(p, F.modulus), F.q, np.arange(F.q)
    g = int(F.exp[-1])  # 1 / x, or 1 in GF(2)
    assert F.mul_many(x[:, None], x).tolist() == [[ref.mul(a, b) for b in x] for a in x]
    assert F.inv_many(x[1:]).tolist() == [ref.inv(a) for a in range(1, q)]
    assert F.traces.tolist() == [ref.trace(a) for a in range(q)]
    exponents = [0, 1, 2, p, q - 2, q - 1, q, 3 * q + 1, 2 ** 70 + 1, -1, -q]
    powers = {e: F.pow_many(x[1:] if e < 0 else x, e).tolist() for e in exponents}
    frobs = [F.pow_many(x, p ** k) for k in range(m + 1)]
    for a in range(q):
        assert [F.mul(a, b) for b in (0, 1, g, a)] == [ref.mul(a, b) for b in (0, 1, g, a)]
        assert F.trace(a) == ref.trace(a)
        for e in exponents:
            if a or e >= 0:
                assert F.pow(a, e) == powers[e][a - (e < 0)] == ref.pow(a, e), (a, e)
        for k in range(m + 1):
            assert F.frob(a, k) == frobs[k][a] == ref.frob(a, k)
            assert F.in_subfield(a, k) == (frobs[k][a] == a) == ref.in_subfield(a, k)
        if a:
            assert F.inv(a) == ref.inv(a)
    # 0^0 = 1 and 0^e = 0 for every e > 0, q - 1 included; 0 has no inverse
    # and no negative power
    assert [F.pow(0, e) for e in (0, 1, q - 1, 2 ** 70)] == [1, 0, 0, 0]
    for call in (lambda: F.inv(0), lambda: F.inv_many(x), lambda: F.pow(0, -1),
                 lambda: F.pow_many(x, -q)):
        with pytest.raises(ZeroDivisionError):
            call()


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_trace_matches_power_sum_and_is_balanced(p, m):
    F = field_make(p, m)
    counts = {}
    for a in range(F.q):
        t = a
        for k in range(1, m):
            t = F.additive.mul(t, F.pow(a, p**k))
        assert F.trace(a) == t
        assert t < p  # trace lands in the prime field
        counts[t] = counts.get(t, 0) + 1
    assert counts == {c: F.q // p for c in range(p)}


def test_lex_smallest_primitive_modulus():
    # GF(8): x^3 + x^2 + 1 is the lex-first primitive cubic when coefficient
    # vectors are compared low degree first: (1,0,1) sorts before (1,1,0).
    assert field_make(2, 3).modulus == (1, 0, 1, 1)
    # GF(9): x^2 + 1 is irreducible but NOT primitive (x has order 4).
    with pytest.raises(NonPrimitiveModulus):
        field_make(3, 2, modulus_override=(1, 0, 1))


def _prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


DEFAULT_FIELDS = [(p, m) for p in range(2, 730) if _prime(p)
                  for m in range(1, 10) if p ** m <= 729]


# the fields above 729 each skip the blocks of one or more constant terms
@pytest.mark.parametrize("p,m", DEFAULT_FIELDS + [
    (2, 10), (2, 11), (2, 12), (3, 7), (7, 4),
    (5, 5), (11, 3), (13, 3), (17, 3), (31, 2), (101, 2), (127, 2)])
def test_default_modulus_matches_sequential_search(p, m):
    """The chunked search, its skip of the constant terms no primitive
    modulus has, its root filter and its batched certificate never change
    the choice."""
    assert fields._default_modulus(p, m) == oracle.default_modulus(p, m)


@pytest.mark.parametrize("p,m,modulus", [
    (3, 12, (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1)),
    (7, 7, (2, 0, 0, 0, 0, 0, 5, 1)),
    (1021, 2, (10, 1, 1)),
])
def test_default_modulus_of_slow_fields_is_pinned(p, m, modulus):
    """Fields whose search over every constant term takes 0.2 to 9 s, where
    the sequential oracle is slower still: their moduli as that search
    found them."""
    assert fields._default_modulus(p, m) == modulus


CHUNKED_FIELDS = [(2, 8), (2, 10), (3, 6), (5, 4), (7, 3), (7, 4), (11, 2), (13, 2), (727, 1)]


@functools.lru_cache(maxsize=None)
def _sequential_modulus(p, m):
    return oracle.default_modulus(p, m)


@pytest.mark.parametrize("first,cap", [(1, 1), (1, 2), (2, 3), (3, 7), (8, 16)])
def test_default_modulus_ignores_chunk_geometry(monkeypatch, first, cap):
    """With chunk boundaries at nearly every candidate, a candidate skipped
    or dropped at a boundary, or a later hit taken before an earlier one,
    changes some choice."""
    monkeypatch.setattr(fields, "_FIRST_CHUNK", first)
    monkeypatch.setattr(fields, "_CHUNK_CAP", cap)
    fields._default_modulus.cache_clear()
    try:
        for p, m in CHUNKED_FIELDS:
            assert fields._default_modulus(p, m) == _sequential_modulus(p, m), (p, m)
    finally:
        fields._default_modulus.cache_clear()


@pytest.mark.parametrize("p,m,override", [(p, m, None) for p, m in DEFAULT_FIELDS] + [
    (3, 3, (1, 2, 0, 1)),     # the Spence cubic x^3 + 2x + 1
    (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1, primitive but not the default
])
def test_exp_table_matches_repeated_multiplication(p, m, override):
    F = field_make(p, m, modulus_override=override)
    assert F.modulus == (override or oracle.default_modulus(p, m))
    assert F.exp.tolist() == oracle.field_powers(p, F.modulus, F.q - 1)
    assert F.log[F.exp].tolist() == list(range(F.q - 1)) and F.log[0] == -1


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_galois_ring_tables_match_repeated_multiplication(t):
    """The residue field (x^3 + x + 1 pinned at t = 3) and the Teichmueller
    powers hpow, taken mod 4, against one schoolbook product at a time."""
    ring = galois_ring_make(t)
    F = ring.residue_field
    assert F.modulus == ((1, 1, 0, 1) if t == 3 else oracle.default_modulus(2, t))
    assert F.exp.tolist() == oracle.field_powers(2, F.modulus, F.q - 1)
    assert ring.hpow.tolist() == oracle.field_powers(4, ring.phi, 2 ** t - 1)
    assert oracle.field_powers(4, ring.phi, 2 ** t)[-1] == 1


@pytest.mark.parametrize("override", [
    (1, 1, 1, 1, 1),  # x^4 + x^3 + x^2 + x + 1: irreducible, but x has order 5
    (1, 0, 1, 0, 1),  # x^4 + x^2 + 1 = (x^2 + x + 1)^2: reducible
    (0, 1, 0, 0, 1),  # x^4 + x: x is a zero divisor
])
def test_nonprimitive_override_is_rejected(override):
    with pytest.raises(NonPrimitiveModulus):
        field_make(2, 4, modulus_override=override)


@pytest.mark.parametrize("p,m,big_m", [(3, 3, 6), (2, 2, 4), (2, 3, 6)])
def test_field_embed_matches_scalar_definition(p, m, big_m):
    small, big = field_make(p, m), field_make(p, big_m)
    assert field_embed(small, big).tolist() == oracle.field_embedding(
        p, small.modulus, big.modulus)


@pytest.mark.parametrize("p,m,override", [
    (2, 3, None), (2, 4, None), (3, 2, None), (5, 2, None), (7, 3, None), (3, 6, None),
    (3, 3, (1, 2, 0, 1)),
])
def test_hyperplanes_dim1_translate_the_power_sum_trace_kernel(p, m, override):
    F = field_make(p, m, modulus_override=override)
    h0 = oracle.trace_kernel(p, F.modulus)
    planes = hyperplanes(F, 1)
    assert planes.dtype == np.int64 and len(planes) == (F.q - 1) // (p - 1)
    assert planes.tolist() == [
        sorted(F.mul(a, int(F.exp[i])) for a in h0) for i in range(len(planes))]


def test_modulus_override_spence_cubic():
    # theta^3 = theta + 2 over GF(3), i.e. x^3 + 2x + 1 with -2 = 1 constant.
    F = field_make(3, 3, modulus_override=(1, 2, 0, 1))
    assert F.pow(3, 3) == F.additive.mul(3, 2)  # x^3 = x + 2


def test_hyperplanes_dim1():
    F = field_make(2, 3)
    planes = hyperplanes(F, 1)
    assert len(planes) == (F.q - 1) // (F.p - 1) == 7
    for pl in planes:
        mem = set(pl.tolist())
        assert len(mem) == F.q // F.p and 0 in mem
        # additively closed
        assert all(F.additive.mul(a, b) in mem for a in mem for b in mem)
    assert len({tuple(pl.tolist()) for pl in planes}) == 7


def test_hyperplanes_dim2_form_a_spread():
    F = field_make(2, 2)
    planes = hyperplanes(F, 2)
    assert len(planes) == F.q + 1
    assert (np.diff(planes, axis=1) > 0).all()  # each row sorted
    # pairwise intersections are exactly the origin -> lines partition points;
    # the point (x, y) has code x + q y, so the origin is 0
    cover = set()
    for pl in planes:
        mem = set(pl.tolist())
        assert len(mem) == F.q
        assert not (cover & (mem - {0}))
        cover |= mem - {0}
    assert len(cover) == F.q * F.q - 1


def test_field_embed_is_a_ring_embedding():
    F1, F2 = field_make(2, 2), field_make(2, 4)
    emb = field_embed(F1, F2)
    assert int(emb[0]) == 0 and int(emb[1]) == 1
    for a in range(F1.q):
        assert F2.in_subfield(int(emb[a]), F1.m)
        for b in range(F1.q):
            assert int(emb[F1.additive.mul(a, b)]) == F2.additive.mul(int(emb[a]), int(emb[b]))
            assert int(emb[F1.mul(a, b)]) == F2.mul(int(emb[a]), int(emb[b]))


def test_galois_ring_t3_modulus_and_units():
    ring = galois_ring_make(3)
    assert repr(ring) == "GR(4,3; x^3+2x^2+x+3)"
    # the Teichmuller element h, the residue of x, has multiplicative order 2^t - 1
    powers = oracle.field_powers(4, ring.phi, 2**3)
    assert 1 not in powers[1:2**3 - 1] and powers[2**3 - 1] == 1
    assert powers[:2**3 - 1] == ring.hpow.tolist()


def test_galois_ring_ideal_and_projection():
    ring = galois_ring_make(2)
    F = ring.residue_field
    # iso_table identifies the ideal 2R with the residue field additively
    for a in range(F.q):
        for b in range(F.q):
            assert int(ring.iso_table[F.additive.mul(a, b)]) == ring.additive.mul(
                int(ring.iso_table[a]), int(ring.iso_table[b]))
    # 2R is the kernel of reduction mod 2: every Z4 digit of its elements is even
    assert all(d % 2 == 0 for c in ring.iso_table.tolist() for d in oracle.decode((4, 4), c))


@pytest.mark.parametrize("kind,p,m", [
    ("GF", 2, 3), ("GF", 3, 2), ("GF", 3, 3), ("GF", 7, 2), ("GR", 4, 2), ("GR", 4, 3),
    ("GF", 3, 6),  # 729 codes: two arithmetic blocks (243 and 3), so the radix matters
])
def test_addition_matches_digitwise_oracle(kind, p, m):
    """additive.mul, and additive.mul_many on arrays, against the code of the
    digit-wise sum (da + db) % p with the digits taken by integer division.
    additive.mul runs on every pair up to 4096 pairs, on an even sample of
    them above that."""
    ring = field_make(p, m) if kind == "GF" else galois_ring_make(m)
    q = p ** m
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    expect = sum((a // p**i % p + b // p**i % p) % p * p**i for i in range(m))
    assert ring.additive.mul_many(a, b).tolist() == expect.tolist()
    step = max(1, q * q // 4096)
    xs, ys, want = a.ravel()[::step], b.ravel()[::step], expect.ravel()[::step]
    assert [ring.additive.mul(int(x), int(y)) for x, y in zip(xs, ys)] == want.tolist()
    assert ring.additive.mul_many(xs, ys).tolist() == want.tolist()
    if kind == "GF":
        assert ring.digits.tolist() == [[x // p**i % p for i in range(m)] for x in range(q)]


def test_galois_ring_t5_structure():
    ring = galois_ring_make(5)
    F = ring.residue_field
    assert ring.q == 1024 and F.q == 32
    # h = x has order exactly 2^5 - 1 = 31, and hpow lists its powers
    powers = oracle.field_powers(4, ring.phi, 32)
    assert powers[:31] == ring.hpow.tolist()
    assert len(set(ring.hpow.tolist())) == 31 and powers[31] == 1
    # iso_table is an injective additive homomorphism from F into 2R, the
    # elements whose Z4 digits are all even
    u, v = np.meshgrid(np.arange(F.q), np.arange(F.q), indexing="ij")
    iso = ring.iso_table
    assert np.array_equal(iso[F.additive.mul_many(u, v)],
                          ring.additive.mul_many(iso[u], iso[v]))
    assert len(set(iso.tolist())) == F.q
    assert all(d % 2 == 0 for c in iso.tolist() for d in oracle.decode((4,) * 5, c))


def test_bad_parameters():
    for p in (4, 1, 0, -3):
        with pytest.raises(ParameterError, match=f"^p = {p} is not prime$"):
            field_make(p, 2)
    with pytest.raises(ParameterError, match="extension degree must be positive"):
        field_make(2, 0)
    with pytest.raises(ParameterError):
        hyperplanes(field_make(2, 2), 3)


def test_field_make_checks_the_order_before_primality(monkeypatch):
    """A prime far above the order ceiling is rejected on its order, as in the
    families, before isprime, which takes no n above 2^40, sees it."""
    def no_primality_test(n):
        raise AssertionError("isprime ran before the order check")
    monkeypatch.setattr(fields, "isprime", no_primality_test)
    with pytest.raises(ParameterError, match="exceeds the supported maximum"):
        field_make(2 ** 4423 - 1, 1)
