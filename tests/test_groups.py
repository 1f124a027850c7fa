"""Group layer: abelian tables, automorphism certification, extension
closures, subgroups, and fingerprints."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

import oracle
from diffsets import (
    AbelianGroup,
    ClosureOverflow,
    ExtensionGroup,
    NotASubgroupMember,
    NotBijective,
    NotHomomorphism,
    ParameterError,
    Subgroup,
    abelian_make,
    aut_from_images,
    element_orders,
    extension_closure,
    fingerprint,
    nonabelian_witness,
    normality_witness,
    subgroup_closure,
)
from diffsets import groups


@pytest.fixture(scope="module")
def d4():
    """Dihedral group of order 8 as an extension of C4 by inversion."""
    c4 = abelian_make((4,))
    inv = aut_from_images(c4, [3])
    return extension_closure(c4, [inv], [((), 1), ((0,), 0)])


@pytest.mark.parametrize("orders", [(4,), (2, 2, 2), (4, 2), (3, 9), (6, 2)])
def test_abelian_matches_oracle(orders):
    g = abelian_make(orders)
    rng = random.Random(0xAB1E)
    for _ in range(200):
        a, b = rng.randrange(g.size), rng.randrange(g.size)
        assert g.mul(a, b) == oracle.abelian_mul(orders, a, b)
        assert g.inv(a) == oracle.abelian_inv(orders, a)
    mul = lambda a, b: oracle.abelian_mul(orders, a, b)
    got = element_orders(g)
    for a in range(g.size):
        assert got[a] == (oracle.element_order(mul, a) if a else 1)


@pytest.mark.parametrize("orders, blocks", [
    ((2,) * 9, [256, 2]),          # a block boundary inside a run of C2s
    ((4, 2, 3), [24]),             # one block of three factors
    ((6, 2), [12]),
    ((7, 7, 7, 58), [49, 7, 58]),
    ((300,), [300]),               # a lone factor above the bound: no table
    ((3, 3, 364), [9, 364]),
])
def test_block_kernel_matches_oracle(orders, blocks):
    g = abelian_make(orders)
    assert g._blocks is None  # tables are built on the first product
    assert g.mul(0, 0) == 0
    kernel = g._kernel()
    assert [b.order for b in kernel] == blocks
    assert [b.table is None for b in kernel] == [m > groups.BLOCK_ORDER for m in blocks]

    rng = np.random.default_rng(5)
    a = rng.integers(0, g.size, 300)
    b = rng.integers(0, g.size, 300)
    mul = lambda x, y: oracle.abelian_mul(orders, int(x), int(y))
    inv = lambda x: oracle.abelian_inv(orders, int(x))
    assert g.mul_many(a, b).tolist() == [mul(x, y) for x, y in zip(a, b)]
    assert g.inv_many(a).tolist() == [inv(x) for x in a]
    assert [g.mul(int(x), int(y)) for x, y in zip(a[:20], b[:20])] == \
        [mul(x, y) for x, y in zip(a[:20], b[:20])]
    assert [g.inv(int(x)) for x in a[:20]] == [inv(x) for x in a[:20]]
    assert g.mul_many(a, int(b[0])).tolist() == [mul(x, b[0]) for x in a]
    left, right = a[:17], b[:23]
    assert g.mul_outer(left, right).tolist() == [[mul(x, y) for y in right] for x in left]
    assert g.quotient_outer(left, right).tolist() == \
        [[mul(x, inv(y)) for y in right] for x in left]


@pytest.mark.parametrize("orders, blocks", [
    ((2,) * 8, [256]),             # one full block
    ((4,) * 4, [256]),
    ((4, 2, 3), [24]),
    ((7, 7, 7, 58), [49, 7, 58]),
    ((3,) * 9, [243, 81]),         # the C3^5 block and the C3^4 block
    ((300,), [300]),               # a lone factor above the bound: no table
])
def test_block_tables_match_oracle_everywhere(orders, blocks):
    """Every entry of each block's coord, table and neg against digit-by-digit
    arithmetic (test_block_kernel_matches_oracle samples products)."""
    g = abelian_make(orders)
    kernel = g._kernel()
    assert [b.order for b in kernel] == blocks
    digits = [oracle.decode(orders, x) for x in range(g.size)]
    lo = 0
    for blk in kernel:
        hi = lo + len(blk.factors)
        assert blk.factors == orders[lo:hi]
        assert blk.radix == oracle.encode(orders, [0] * lo + [1])
        assert blk.coord.tolist() == [oracle.encode(blk.factors, d[lo:hi]) for d in digits]
        if blk.order > groups.BLOCK_ORDER:
            assert blk.table is None and blk.neg is None
        else:
            table, neg = oracle.block_tables(blk.factors)
            assert blk.table.tolist() == [blk.radix * c for c in table]
            assert blk.neg.tolist() == [blk.radix * c for c in neg]
        lo = hi
    assert lo == len(orders)


def test_abelian_digit_roundtrip():
    g = abelian_make((4, 2, 3))
    for idx in range(g.size):
        assert g.encode(g.digits_of(idx)) == idx
    # generators are the unit digit vectors
    assert g.digits_of(g.generators).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("orders, sample", [
    ((4, 2, 3), None),
    ((3,) * 5, None),
    ((7, 7, 7, 58), 500),          # the lone factor 58 is a block of its own
    ((3,) * 6 + (364,), 500),      # 364 is above BLOCK_ORDER
], ids=["4x2x3", "C3^5", "C7^3xC58", "C3^6xC364"])
def test_digits_on_demand_match_oracle(orders, sample):
    """digits_of, pow, element_name and each block's digit table against
    oracle.decode, on every element or on a sample."""
    g = abelian_make(orders)
    xs = list(range(g.size)) if sample is None else \
        [0, g.size - 1] + random.Random(7).sample(range(g.size), sample)
    want = [oracle.decode(orders, x) for x in xs]
    assert g.digits_of(xs).tolist() == want
    pairs = np.array(xs[:len(xs) // 2 * 2]).reshape(-1, 2)
    assert g.digits_of(pairs).tolist() == [want[i:i + 2] for i in range(0, pairs.size, 2)]
    for x, d in zip(xs[:50], want):
        assert g.element_name(x) == "(" + ",".join(map(str, d)) + ")"
        assert g.pow(x, 5) == oracle.encode(orders, [5 * v for v in d])
    assert g.pow_many(xs, -2).tolist() == [oracle.encode(orders, [-2 * v for v in d])
                                           for d in want]
    for blk in g._kernel():
        assert blk.digits.tolist() == [oracle.decode(blk.factors, c)
                                       for c in range(blk.order)]


def test_building_a_group_holds_no_element_table():
    """A group keeps no per-element table until it is multiplied: C2^18 holds
    under 1 MiB (an 2^18 x 18 int64 digit table would be 36 MiB)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = abelian_make((2,) * 18)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.size == 1 << 18 and held < 1 << 20


def test_pow_of_a_large_exponent_is_exact():
    """pow reduces the exponent per factor, so a digit times it never wraps
    in int64: here 2^18 - 1 times 2^62 + 5 would."""
    orders = (3, 1 << 18)
    g = abelian_make(orders)
    for e in (2 ** 62 + 5, -(2 ** 62) - 5):
        for x in (1, g.size - 1, 12345):
            d = oracle.decode(orders, x)
            want = oracle.encode(orders, [e * v for v in d])
            assert g.pow(x, e) == want
            assert g.pow_many([x], e).tolist() == [want]


def test_group_order_ceiling():
    from diffsets.groups import MAX_GROUP_ORDER
    assert abelian_make((3,) * 6 + (364,)).size == 265356  # Spence d = 2
    for orders in [(MAX_GROUP_ORDER + 1,), (4000000, 4000000)]:
        with pytest.raises(ParameterError, match="exceeds the supported maximum"):
            abelian_make(orders)


def test_group_order_check_forms_no_huge_integer():
    """More than MAX_FACTORS factors are too many before they are multiplied,
    a power above 2^64 is rejected before it is formed, and no message
    formats an order of thousands of digits (str() refuses above 4300)."""
    from diffsets.groups import MAX_FACTORS, MAX_GROUP_ORDER, check_power_order
    too_large = f"group order {2 * MAX_GROUP_ORDER} or more exceeds the supported maximum"
    for orders in [(2,) * (MAX_FACTORS + 1), (1009,) * 3027, (10 ** 4000, 10 ** 4000)]:
        with pytest.raises(ParameterError, match=too_large):
            abelian_make(orders)
    for base, exp in [(2, 65), (3, 10 ** 30), (10 ** 4000, 2)]:
        with pytest.raises(ParameterError, match=too_large):
            check_power_order(base, exp)
    e3 = next(e for e in itertools.count() if 3 ** e > MAX_GROUP_ORDER)
    for base, exp in [(2, 63), (2, MAX_FACTORS + 1), (3, e3)]:
        with pytest.raises(ParameterError, match=f"group order {base ** exp} exceeds"):
            check_power_order(base, exp)
    check_power_order(2, MAX_FACTORS)
    check_power_order(MAX_GROUP_ORDER, 1)


def test_aut_certification_accepts_and_rejects():
    g = abelian_make((4, 2))
    # negation is an automorphism
    neg = aut_from_images(g, [g.inv(x) for x in g.generators])
    ident = np.arange(g.size)
    assert np.array_equal(neg.perm[neg.perm], ident) and not np.array_equal(neg.perm, ident)
    # collapsing map is not bijective
    with pytest.raises(NotBijective):
        aut_from_images(g, [0, 0])
    # order-violating image is not a homomorphism (order 2 gen -> order 4 img)
    with pytest.raises((NotHomomorphism, NotBijective)):
        aut_from_images(g, [g.generators[0], g.generators[0]])
    # a generator listed twice must get the same image both times
    c4 = abelian_make((4,))
    twice = extension_closure(c4, [], [((), 1), ((), 1)])
    assert twice.generators[0] == twice.generators[1]
    with pytest.raises(NotHomomorphism):
        aut_from_images(twice, [twice.generators[0], twice.inv(twice.generators[0])])


def test_aut_exact_on_large_group():
    g = abelian_make((3,) * 9)  # order 19683
    doubling = aut_from_images(g, [g.mul(x, x) for x in g.generators])
    # doubling is an involution but not the identity: 2*2 = 4 = 1 mod 3
    ident = np.arange(g.size)
    assert np.array_equal(doubling.perm[doubling.perm], ident)
    assert not np.array_equal(doubling.perm, ident)
    # order 32768: fix every generator of C4^7 x C2 but send the C2 generator
    # to g_0 * g_last.  The map is bijective, but that image has order 4.
    h = abelian_make((4,) * 7 + (2,))
    images = list(h.generators)
    images[-1] = h.mul(h.generators[0], h.generators[-1])
    with pytest.raises(NotHomomorphism, match=r"breaks the relation 2\*\(0,0,0,0,0,0,0,1\)"
                                              r" = identity: 2\*\(1,0,0,0,0,0,0,1\) = "
                                              r"\(2,0,0,0,0,0,0,0\)$"):
        aut_from_images(h, images)


@pytest.mark.parametrize("orders, n_auts", [
    ((4, 2), 8), ((2, 2, 2), 168), ((3, 3), 48), ((6,), 2), ((2, 4), 8)])
def test_aut_certificate_matches_brute_force(orders, n_auts):
    """Every generator-image tuple: the relation certificate accepts exactly
    the bijective homomorphisms of the full Cayley table, with their
    permutation."""
    g = abelian_make(orders)
    accepted = 0
    for images in itertools.product(range(g.size), repeat=len(orders)):
        want = oracle.abelian_automorphism(orders, images)
        if want is None:
            with pytest.raises((NotBijective, NotHomomorphism)):
                aut_from_images(g, images)
        else:
            assert aut_from_images(g, images).perm.tolist() == want
            accepted += 1
    assert accepted == n_auts  # |Aut(G)|


def test_extension_closure_builds_dihedral(d4):
    assert d4.size == 8
    fp = fingerprint(d4)
    assert not fp.is_abelian
    assert fp.order_histogram == ((1, 1), (2, 5), (4, 2))
    assert fp.center_order == 2
    assert fp.derived_order == 2
    assert fp.exponent == 4
    # matches the naive recomputation on the group's own mul
    assert oracle.order_histogram(d4.size, d4.mul) == fp.order_histogram
    assert not oracle.is_abelian(d4.size, d4.mul)
    assert nonabelian_witness(d4) is not None


def test_extension_closure_cap_and_membership(d4):
    c4 = abelian_make((4,))
    inv = aut_from_images(c4, [3])
    with pytest.raises(ClosureOverflow):
        extension_closure(c4, [inv], [((), 1), ((0,), 0)], cap=4)
    c16 = abelian_make((16,))
    units = [aut_from_images(c16, [3]), aut_from_images(c16, [5])]
    with pytest.raises(ClosureOverflow, match="automorphism part exceeded the cap of 4"):
        extension_closure(c16, units, [((0,), 1)], cap=4)
    # a closure that is a proper subset of the pair space
    tiny = extension_closure(c4, [inv], [((0,), 0)])
    assert tiny.size == 2
    with pytest.raises(NotASubgroupMember):
        tiny.index_of_pair(0, 1)


def test_extension_closure_matches_reference_bfs(corpus, d4):
    """The layer-at-a-time closure enumerates every corpus closure, and every
    case of _closure_cases, exactly as a one-element-at-a-time BFS does."""
    closures = []
    for inst, rep in corpus.values():
        closures.append(rep.new_group)
        if isinstance(inst.design.group, ExtensionGroup):
            closures.append(inst.design.group)
    closures += [extension_closure(base, auts, gens, cap=base.size * 24)
                 for base, auts, gens in _closure_cases(corpus, d4)]
    for g in closures:
        base = g.base
        if isinstance(base, AbelianGroup):
            base_mul = lambda x, y, o=base.orders: oracle.abelian_mul(o, x, y)
        else:
            base_mul = base.mul
        # the automorphism part is closed and its table composes whole
        # permutations
        perms, _, mul = oracle.aut_closure(base.size, g.aut_perms.tolist())
        assert g.aut_perms.tolist() == perms
        assert g.aut_mul.tolist() == mul
        ref = oracle.closure_bfs(base_mul, perms, mul, g.gen_pairs, base.size)
        got = (g.aut_part, g.base_part, g.bfs_parent, g.bfs_genidx, g.pair_index)
        for want, have in zip(ref, got):
            assert have.tolist() == want


def _closure_cases(corpus, d4):
    """(base, automorphisms, generators) of every corpus transfer closure, and
    of automorphism lists that the closure must complete: not closed, with
    duplicates, with the identity, generating a nonabelian group, and over an
    extension base.  The generator lists mix translations (identity
    automorphism) and twisted generators: translations only, twisted only,
    the identity translation, a repeated translation, translations between
    twisted generators, translations that change both blocks of C3^6
    (243 x 3) or the lone C364 factor of C3^2 x C364, and translations over
    an extension base; the C3^6 lists with translations, the C3^2 x C364 list
    and the extension-base list close in layers wide enough for the
    translation kernel."""
    cases = [(inst.design.group, inst.aut_gens, inst.candidate_gens)
             for inst, rep in corpus.values() if rep.new_group is not None]
    c7 = abelian_make((7, 7))
    triple = aut_from_images(c7, [3, 21])             # x -> 3x, order 6
    swap = aut_from_images(c7, [7, 1])
    ident = aut_from_images(c7, list(c7.generators))
    gens = [((), 1), ((0,), 0)]
    cases += [(c7, [triple], gens),
              (c7, [swap, triple, swap, triple], [((0, 1), 8), ((3,), 0)]),
              (c7, [ident, swap, triple], [((), 1), ((1,), 0), ((2, 2), 0)]),
              (c7, [ident], gens),
              (c7, [], [((), 1)])]
    c3 = abelian_make((3, 3))
    shears = [aut_from_images(c3, [1, 4]), aut_from_images(c3, [4, 3])]  # SL(2, 3)
    cases.append((c3, shears, [((), 1), ((0,), 0), ((1, 0), 0)]))
    r, s = d4.generators                               # the rotation and the flip
    twist = aut_from_images(d4, [r, d4.mul(s, r)])   # s -> s r, order 4
    cases.append((d4, [twist, twist], [((), s), ((0,), 0), ((), r)]))
    cases += [(c7, [triple], [((0,), 1), ((0,), 7)]),           # twisted only
              (c7, [triple], [((), 0), ((), 1), ((0,), 0)]),    # identity translation
              (c7, [triple], [((), 1), ((0,), 0), ((), 1), ((), 7)])]  # repeated, split runs
    # wide enough for the translation kernel (layers of >= 1024 translation products)
    c36 = abelian_make((3,) * 6)
    neg36 = aut_from_images(c36, [c36.inv(g) for g in c36.generators])
    everywhere = sum(c36.generators)                  # (1,1,1,1,1,1), both blocks
    units = [((), g) for g in c36.generators]
    cases += [(c36, [neg36], [((), everywhere), ((0,), 1), ((), 0), *units, ((0,), 81), ((), 1)]),
              (c36, [neg36], [((), everywhere), *units]),          # translations only
              (c36, [neg36], [((0,), g) for g in c36.generators])]  # twisted only
    c35 = abelian_make((3,) * 5)
    neg35 = aut_from_images(c35, [c35.inv(g) for g in c35.generators])
    dih = extension_closure(c35, [neg35], [((), g) for g in c35.generators] + [((0,), 0)])
    t = dih.generators[0]                             # conjugation by t has order 3
    conj = aut_from_images(dih, [dih.mul(dih.mul(dih.inv(t), x), t) for x in dih.generators])
    moves = [((), x) for x in dih.generators]
    cases.append((dih, [conj], moves[:3] + [((0,), 0)] + moves[3:]))
    c364 = abelian_make((3, 3, 364))
    neg364 = aut_from_images(c364, [c364.inv(g) for g in c364.generators])
    cases.append((c364, [neg364], [((), 9), ((), 1 + 9 * 363), ((0,), 4), ((), 3 + 9 * 200),
                                   ((), 1), ((), 3)]))
    return cases


def test_extension_closure_matches_oracle_closure(corpus, d4):
    """The closure keyed on generator images builds the automorphism part,
    its composition and inverse tables, and the element enumeration exactly
    as whole-permutation composition and a one-at-a-time BFS do."""
    for base, auts, gens in _closure_cases(corpus, d4):
        g = extension_closure(base, auts, gens, cap=base.size * 24)
        perms, gen_idx, mul = oracle.aut_closure(base.size, [a.perm.tolist() for a in auts])
        assert g.aut_perms.tolist() == perms
        assert g.aut_mul.tolist() == mul
        assert g.aut_inv.tolist() == [row.index(0) for row in mul]
        pairs = []
        for word, b in gens:
            a = 0
            for w in word:
                a = mul[a][gen_idx[w]]
            pairs.append((a, b))
        assert g.gen_pairs == pairs
        if isinstance(base, AbelianGroup):
            base_mul = lambda x, y, o=base.orders: oracle.abelian_mul(o, x, y)
        else:
            base_mul = base.mul
        ref = oracle.closure_bfs(base_mul, perms, mul, pairs, base.size)
        got = (g.aut_part, g.base_part, g.bfs_parent, g.bfs_genidx, g.pair_index)
        for want, have in zip(ref, got):
            assert have.tolist() == want


def test_extension_pair_table_ceiling(monkeypatch):
    """The automorphism closure stops at the table ceiling before it grows
    further or allocates the pair index."""
    c16 = abelian_make((16,))
    units = [aut_from_images(c16, [3]), aut_from_images(c16, [5])]  # all 8 units
    assert extension_closure(c16, units, [((0,), 1)]).aut_perms.shape[0] == 8
    groups._check_pair_table(3, 265356)  # Spence d = 2's closure fits
    monkeypatch.setattr(groups, "MAX_PAIR_TABLE", 64)
    with pytest.raises(ParameterError,
                       match=r"5 automorphisms over a base of order 16 .* maximum of 64$"):
        extension_closure(c16, units, [((0,), 1)])


def test_extension_closure_empty_aut_list():
    c6 = abelian_make((6,))
    g = extension_closure(c6, [], [((), 1)])
    assert g.size == 6
    fp = fingerprint(g)
    assert fp.is_abelian and fp.exponent == 6


def test_subgroups_and_normality(d4):
    rot = subgroup_closure(d4, (d4.generators[0],))
    assert rot.order == 4
    assert normality_witness(d4, rot) is None  # index 2
    refl = subgroup_closure(d4, (d4.generators[1],))
    assert refl.order == 2
    wit = normality_witness(d4, refl)
    assert wit is not None
    g, s, c = wit
    assert d4.mul(d4.mul(d4.inv(g), s), g) == c
    assert not refl.mask[c]
    # the first witness in (generator, subgroup generator) order
    first = next((g, s, c) for g in d4.generators for s in refl.gens
                 for c in [d4.mul(d4.inv(g), d4.mul(s, g))] if not refl.mask[c])
    assert wit == first


@pytest.mark.parametrize("members, message", [
    ((0, 4, 0), "subgroup members must be distinct"),
    ((0, 8, -3), "member index 8 out of range"),
])
def test_subgroup_validation_messages(members, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        Subgroup(abelian_make((4, 2)), members, members[1:2])


def test_only_subgroup_closure_marks_a_span():
    """A hand-built Subgroup is a claim that verify_rds proves, so no caller
    can mark it spanned: not through the constructor, not afterwards."""
    g = abelian_make((4, 2))
    with pytest.raises(TypeError):
        Subgroup(g, (0, 2, 4), (2, 4), spanned=True)
    claim = Subgroup(g, (0, 2, 4), (2, 4))
    with pytest.raises(AttributeError):
        claim.spanned = True
    assert not claim.spanned and subgroup_closure(g, (2, 4)).spanned


def _small_closures(corpus):
    """Every corpus closure of order <= 1000, nested bases among them."""
    out = {name: rep.new_group for name, (_, rep) in corpus.items()
           if rep.new_group.size <= 1000}
    assert any(isinstance(g.base, ExtensionGroup) for g in out.values())
    return out


def test_element_orders_vectorized(d4, corpus):
    orders = element_orders(d4)
    assert [oracle.element_order(d4.mul, z) for z in range(d4.size)] == list(orders)
    # the automorphism norm over every small closure, among them orders with
    # several primes (351 = 3^3 * 13, 378 = 2 * 3^3 * 7) and the nested base
    # of mcfarland_even_d2_v3
    closures = _small_closures(corpus)
    assert "mcfarland_even_d2_v3" in closures
    for name, g in closures.items():
        want = [oracle.element_order(g.mul, z) for z in range(g.size)]
        assert element_orders(g).tolist() == want, name


def test_extension_quotient_outer_matches_scalar(d4, corpus):
    """Group.quotient_outer over extensions against the scalar mul and inv:
    D4, every small closure, and the nested base of mcfarland_even_d2_v3."""
    closures = _small_closures(corpus)
    groups = [d4, closures["mcfarland_even_d2_v3"].base] + list(closures.values())
    rng = np.random.default_rng(17)
    for g in groups:
        x = np.concatenate([[0], rng.integers(0, g.size, 31)])
        y = np.concatenate([[0], rng.integers(0, g.size, 31)])
        assert g.quotient_outer(x, y).tolist() == \
            [[g.mul(int(a), g.inv(int(b))) for b in y] for a in x], repr(g)


def test_center_and_derived_match_brute_force(d4, corpus):
    """fingerprint reads the center and derived subgroup from the generators;
    the oracle takes every element and every commutator from the full
    Cayley table."""
    # in C3^2 x| <two automorphisms> of order 216 the commutators of the
    # generators span a subgroup of order 36 whose normal closure has order
    # 72; in the corpus closures the two agree
    c = abelian_make((3, 3))
    auts = [aut_from_images(c, images) for images in ([1, 4], [3, 2])]
    c216 = extension_closure(c, auts, [((), 1), ((0,), 0), ((1,), 0)], cap=216)
    closures = {"d4": d4, "c216": c216, **_small_closures(corpus)}
    for name, g in closures.items():
        every = np.arange(g.size)
        table = g.mul_outer(every, every).tolist()
        fp = fingerprint(g)
        assert fp.center_order == oracle.center_order(table), name
        assert fp.derived_order == oracle.derived_order(table), name


@pytest.mark.parametrize("orders", [(2,) * 9, (3,) * 9, (7, 7, 7, 58), (300,), (3, 3, 364)],
                         ids=lambda o: "x".join(map(str, o)))
def test_character_transform_matches_fftn(orders):
    """Block matmuls and lone-factor FFTs give np.fft.fftn / ifftn over the
    reversed orders, batched or not."""
    g = abelian_make(orders)
    rng = np.random.default_rng(3)
    f = rng.random((2, g.size)) + 1j * rng.random((2, g.size))
    shape = (2,) + tuple(reversed(orders))
    axes = tuple(range(1, len(shape)))
    fwd = np.fft.fftn(f.reshape(shape), axes=axes).reshape(2, -1)
    inv = np.fft.ifftn(f.reshape(shape), axes=axes).reshape(2, -1)
    assert np.abs(g.character_transform(f) - fwd).max() < 1e-9 * g.size
    assert np.abs(g.character_transform(f, inverse=True) - inv).max() < 1e-9
    assert np.abs(g.character_transform(f[0]) - fwd[0]).max() < 1e-9 * g.size
    assert np.abs(g.character_transform(fwd[1], inverse=True) - f[1]).max() < 1e-9
