"""Design verification: DS/PDS/RDS counting, SRG cross-route, multipliers."""

import itertools

import numpy as np
import pytest

import oracle
from diffsets import verify
from diffsets import (
    AbelianGroup,
    DesignSet,
    ExtensionGroup,
    ForbiddenNotSubgroup,
    NotBijective,
    NotCoprime,
    NotHomomorphism,
    NotClosedUnderInverse,
    NotSRG,
    ParameterError,
    ParameterMismatch,
    Subgroup,
    abelian_make,
    aut_from_images,
    cayley_srg_check,
    denniston_even,
    difference_profile,
    extension_closure,
    multiplier_check,
    pcp_pds,
    rds_base,
    subgroup_closure,
    transfer_pds,
    verify_design,
    verify_ds,
    verify_pds,
    verify_rds,
)

FANO = (1, 2, 4)  # quadratic residues mod 7: a (7,3,1) planar difference set
PALEY13 = (1, 3, 4, 9, 10, 12)  # QRs mod 13: a (13,6,2,3) regular PDS
DIRECT_COUNTS = verify._direct_counts  # the direct count, not the spies below


def test_fano_ds():
    g = abelian_make((7,))
    d = DesignSet(g, FANO, "DS", (7, 3, 1))
    res = verify_ds(d)
    assert res.params == (7, 3, 1)
    assert res.reversible is False
    # oracle agreement on the raw counts
    mul = lambda a, b: oracle.abelian_mul((7,), a, b)
    inv = lambda a: oracle.abelian_inv((7,), a)
    assert oracle.ds_lambda(7, mul, inv, FANO) == 1


@pytest.mark.parametrize("members, message", [
    ((3, 1, 3), "design members must be distinct"),
    ((20, 20, -1), "design members must be distinct"),  # checked before the range
    ((5, 16, -1, 99), "member index 16 out of range"),  # first offender in input order
    ((2, 2 ** 70), "member index 1180591620717411303424 out of range"),
])
def test_design_set_validation_messages(members, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        DesignSet(abelian_make((4, 4)), members, "DS", (16, 3, 0))


def test_forbidden_subgroup_only_in_an_rds():
    g = abelian_make((4, 2))
    for kind, claimed in (("DS", (8, 1, 0)), ("PDS", (8, 1, 0, 0))):
        with pytest.raises(ParameterError, match=f"^a {kind} has no forbidden subgroup"):
            DesignSet(g, (1,), kind, claimed, forbidden=subgroup_closure(g, ()))


def test_member_sets_are_sorted_read_only_arrays():
    g = abelian_make((7,))
    given = np.array([4, 1, 2])
    d = DesignSet(g, given, "DS", (7, 3, 1))
    sub = subgroup_closure(abelian_make((4, 2)), (2,))
    assert d.members.dtype == sub.members.dtype == np.int64
    assert d.members.tolist() == [1, 2, 4] and sub.members.tolist() == [0, 2]
    assert d.mask.tolist() == [False, True, True, False, True, False, False]
    for arr in (d.members, d.mask, sub.members, sub.mask):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # the caller's array is copied, not frozen or sorted in place
    given[0] = 5
    assert given.tolist() == [5, 1, 2] and d.members.tolist() == [1, 2, 4]


def test_fano_complement():
    g = abelian_make((7,))
    comp = DesignSet(g, tuple(z for z in range(7) if z not in FANO), "DS", (7, 4, 2))
    assert verify_ds(comp).params == (7, 4, 2)


def test_fano_wrong_claim_rejected():
    g = abelian_make((7,))
    d = DesignSet(g, FANO, "DS", (7, 3, 2))
    with pytest.raises(ParameterMismatch):
        verify_ds(d)


def test_paley_pds_and_srg_agree():
    g = abelian_make((13,))
    d = DesignSet(g, PALEY13, "PDS", (13, 6, 2, 3))
    res = verify_pds(d, require_regular=True)
    assert res.params == (13, 6, 2, 3)
    assert res.regular is True  # reversibility is implied for a regular PDS
    srg = cayley_srg_check(d)
    assert (srg.n, srg.k, srg.lam, srg.mu) == (13, 6, 2, 3)
    mul = lambda a, b: oracle.abelian_mul((13,), a, b)
    inv = lambda a: oracle.abelian_inv((13,), a)
    assert oracle.pds_params(13, mul, inv, PALEY13) == (13, 6, 2, 3)
    assert oracle.srg_params(13, mul, inv, PALEY13) == (13, 6, 2, 3)


def test_non_reversible_pds_rejected():
    g = abelian_make((7,))
    d = DesignSet(g, FANO, "PDS", (7, 3, 1, 1))
    with pytest.raises(NotClosedUnderInverse):
        verify_pds(d, require_regular=True)


def test_not_srg_detected():
    g = abelian_make((8,))
    d = DesignSet(g, (1, 7, 2, 6), "PDS", (8, 4, 0, 0))
    with pytest.raises(ParameterMismatch):
        verify_pds(d, require_regular=True)
    with pytest.raises(NotSRG, match=r"^adjacent common-neighbor counts vary: \[1, 2\]"):
        cayley_srg_check(d)
    mul = lambda a, b: oracle.abelian_mul((8,), a, b)
    inv = lambda a: oracle.abelian_inv((8,), a)
    assert oracle.srg_params(8, mul, inv, d.members) is None
    # the 8-cycle: adjacent counts are all 0, non-adjacent ones are {0, 1}
    cycle = DesignSet(g, (1, 7), "PDS", (8, 2, 0, 0))
    with pytest.raises(NotSRG, match=r"^non-adjacent common-neighbor counts vary: \[0, 1\]"):
        cayley_srg_check(cycle)
    assert oracle.srg_params(8, mul, inv, cycle.members) is None


def test_difference_profile_matches_oracle():
    """A 6-subset of C4 x C2^2, the empty design and the whole group."""
    orders = (4, 2, 2)
    g = abelian_make(orders)
    mul = lambda a, b: oracle.abelian_mul(orders, a, b)
    inv = lambda a: oracle.abelian_inv(orders, a)
    for members in ((1, 3, 4, 8, 14, 15), (), tuple(range(g.size))):
        d = DesignSet(g, members, "DS", (16, len(members), 2))
        prof = difference_profile(d)
        counts = oracle.difference_counts(mul, inv, members)
        want = [counts.get(z, 0) for z in range(g.size)]
        want[0] -= len(members)  # the pairs d1 = d2
        assert prof.tolist() == want, members


def _corpus_member_sets(corpus, seed):
    """(name, group, members) for every corpus design, base and lifted.  A
    lifted design is invariant under the automorphisms, so each lifted group
    also gets a seeded random subset, whose slices differ."""
    rng = np.random.default_rng(seed)
    for name, (inst, rep) in corpus.items():
        lifted = rep.new_group
        scattered = rng.choice(lifted.size, size=min(lifted.size // 3, 500), replace=False)
        for g, members in ((inst.design.group, inst.design.members),
                           (lifted, rep.new_design.members),
                           (lifted, np.sort(scattered))):
            yield name, g, np.array(members, dtype=np.int64)


def _check_character_route(corpus, monkeypatch, product, seed):
    direct_calls = _spy_direct(monkeypatch)
    nested = 0
    for name, g, members in _corpus_member_sets(corpus, seed):
        fast = verify._counts(g, members, product)
        assert direct_calls == [], name
        assert np.array_equal(fast, DIRECT_COUNTS(g, members, product)), name
        nested += isinstance(g, ExtensionGroup) and isinstance(g.base, ExtensionGroup)
    assert nested


def test_character_counts_match_direct(corpus, monkeypatch):
    """Verify's character route (per-target slice sums over a tower of
    extensions) passes the guard and equals the direct quotient count array
    for array on every corpus design, base and lifted, nested lifts
    included, and on a random subset of every lifted group."""
    _check_character_route(corpus, monkeypatch, False, 7)


def test_srg_convolution_matches_direct(corpus, monkeypatch):
    """The same for the SRG check's product counts: convolutions with the
    slice map on the left factor, summed per target tau(a b)."""
    _check_character_route(corpus, monkeypatch, True, 8)


def _agl_2_3():
    """C3^2 x| GL(2,3), order 432: every automorphism part fixes 0."""
    c = abelian_make((3, 3))
    auts = [aut_from_images(c, images) for images in ([1, 4], [3, 2], [2, 3])]
    return extension_closure(c, auts, [((), 1), ((), 3), ((0,), 0), ((1,), 0), ((2,), 0)],
                             cap=9 * 48)


def _d8_tower():
    """D8 = C2^2 x| <swap>, extended by the first automorphism (in generator
    image order) that moves its kernel 1 x C2^2: a nested tower whose top
    is not a homomorphism, order 16."""
    c = abelian_make((2, 2))
    d8 = extension_closure(c, [aut_from_images(c, [2, 1])], [((), 1), ((), 2), ((0,), 0)])
    kernel = set(np.flatnonzero(d8.aut_part == 0).tolist())
    for images in itertools.product(range(d8.size), repeat=len(d8.generators)):
        try:
            psi = aut_from_images(d8, images)
        except (NotBijective, NotHomomorphism):
            continue
        if not set(psi.perm[list(kernel)].tolist()) <= kernel:
            return extension_closure(d8, [psi], [((), x) for x in d8.generators] + [((0,), 0)])


def test_character_counts_over_d8_tower(monkeypatch):
    """Quotient and product counts on random subsets of the D8 tower, the
    empty set and the whole group among them, pass the guard and equal the
    direct count and the oracle's pair-by-pair count (products as quotients
    with the identity for the inverse)."""
    g = _d8_tower()
    assert g.size == 16 and isinstance(g.base, ExtensionGroup)
    direct_calls = _spy_direct(monkeypatch)
    rng = np.random.default_rng(11)
    for size in (1, 3, 6, 9, 16, 0):
        members = np.sort(rng.choice(g.size, size=size, replace=False))
        for product, inv in ((False, g.inv), (True, lambda a: a)):
            fast = verify._counts(g, members, product)
            assert direct_calls == []
            assert np.array_equal(fast, DIRECT_COUNTS(g, members, product))
            want = oracle.difference_counts(g.mul, inv, members.tolist())
            assert fast.tolist() == [want.get(z, 0) for z in range(g.size)]


def _spy_transform(monkeypatch):
    """Record (inverse, rows) for every AbelianGroup.character_transform call."""
    calls = []
    real = AbelianGroup.character_transform

    def spy(self, f, inverse=False):
        calls.append((inverse, np.asarray(f).reshape(-1, self.size).shape[0]))
        return real(self, f, inverse)

    monkeypatch.setattr(AbelianGroup, "character_transform", spy)
    return calls


def _check_agl_pullback(g, monkeypatch):
    """Check the quotient and product recounts of the pullback of the
    nonzero vectors against the direct count; return the transform calls of
    the product recount."""
    calls = _spy_transform(monkeypatch)
    direct_calls = _spy_direct(monkeypatch)
    members = np.flatnonzero(g.base_part != 0)
    for product in (False, True):
        calls.clear()
        fast = verify._counts(g, members, product)
        assert direct_calls == []
        assert np.array_equal(fast, DIRECT_COUNTS(g, members, product))
    return calls


def test_character_counts_over_nonabelian_automorphism_part(monkeypatch):
    """Over C3^2 x| GL(2,3) the automorphism parts do not commute, so a
    slice sum that landed on a2 a1 instead of a1 a2 (or a2^-1 a1 instead of
    a1 a2^-1) would show.  The closure is not regular: all 48 parts share
    the fibre C3^2 and take ranks 0 .. 47.  The pullback of the nonzero
    vectors is fixed by every part, so each rank's 48 columns share one
    left row, and the 48 ranks' merged right rows are equal: 2 forward rows
    and 48 inverse rows."""
    g = _agl_2_3()
    assert g.size == 432 and not np.array_equal(g.aut_mul, g.aut_mul.T)
    direct_calls = _spy_direct(monkeypatch)
    rng = np.random.default_rng(5)
    for size in (20, 100, 300):
        members = np.sort(rng.choice(g.size, size=size, replace=False))
        for product in (False, True):
            fast = verify._counts(g, members, product)
            assert direct_calls == []
            assert np.array_equal(fast, DIRECT_COUNTS(g, members, product))
    assert _check_agl_pullback(g, monkeypatch) == [(False, 2), (True, 48)]


def test_slice_counts_split_ranks_over_blocks(monkeypatch):
    """A small _BLOCK_ENTRIES spreads the 48 ranks of the pullback over
    inverse transforms of at most 5 rows, each block with its own left row
    and one distinct right row."""
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 9 * 5)
    calls = _check_agl_pullback(_agl_2_3(), monkeypatch)
    assert calls == [(False, 2), (True, 5)] * 9 + [(False, 2), (True, 3)]


def test_lifted_recounts_take_one_forward_row_and_one_inverse(corpus, monkeypatch):
    """Every transfer output is fixed by its automorphism parts over a
    regular closure: one target rank, and one left row equal to its merged
    right row, so the quotient and product recounts each hand the transform
    1 forward row and 1 inverse row, however many slices the design
    occupies.  The nested lift of mcfarland-even variant 3 lies over a base
    that is not regular: its 4 tops form 2 classes of 2, so it takes 2 ranks,
    and 4 forward rows."""
    calls = _spy_transform(monkeypatch)
    direct_calls = _spy_direct(monkeypatch)
    slices = []
    for name, (_, rep) in corpus.items():
        g = rep.new_group
        members = np.array(rep.new_design.members, dtype=np.int64)
        slices.append(np.unique(g.aut_part[members]).size)
        rows = (4, 2) if isinstance(g.base, ExtensionGroup) else (1, 1)
        for product in (False, True):
            calls.clear()
            verify._counts(g, members, product)
            assert direct_calls == [], name
            assert calls == [(False, rows[0]), (True, rows[1])], (name, product)
    assert max(slices) == 7


def _spoil_inverse_transform(monkeypatch, shift):
    """Shift every inverse character transform by `shift`, past the guard."""
    real = AbelianGroup.character_transform

    def shifted(self, f, inverse=False):
        return real(self, f, inverse) + (shift if inverse else 0.0)

    monkeypatch.setattr(AbelianGroup, "character_transform", shifted)


def _spy_direct(monkeypatch):
    calls = []
    real_direct = verify._direct_counts

    def spy(group, members, product=False):
        calls.append((group, product))
        return real_direct(group, members, product)

    monkeypatch.setattr(verify, "_direct_counts", spy)
    return calls


def _guard_design(corpus, name, which):
    inst, rep = corpus[name]
    return inst.design if which == "base" else rep.new_design


# One shift past each clause of the guard: 0.4 leaves a residual of 0.4,
# 1.0 only makes the counts sum past k^2, and -1.0 makes zero counts
# negative (and the sum short).
GUARD_CASES = [pytest.param(which, shift, id=which + label)
               for shift, label in ((0.4, ""), (1.0, "-sum"), (-1.0, "-negative"))
               for which in ("base", "lifted", "nested")]


@pytest.mark.parametrize("which, shift", GUARD_CASES)
def test_fft_guard_falls_back_to_direct(corpus, monkeypatch, which, shift):
    design = _guard_design(corpus, "mcfarland_even_d2_v3" if which == "nested" else "dillon",
                           which)
    expected = difference_profile(design)
    _spoil_inverse_transform(monkeypatch, shift)
    direct_calls = _spy_direct(monkeypatch)
    assert np.array_equal(difference_profile(design), expected)
    assert direct_calls == [(design.group, False)]


@pytest.mark.parametrize("which, shift", GUARD_CASES)
def test_srg_guard_falls_back_to_direct(corpus, monkeypatch, which, shift):
    if which == "nested":
        # the nested lift is not inverse-closed; the elements outside its
        # top-0 subgroup are, and form a complete multipartite graph
        g = corpus["mcfarland_even_d2_v3"][1].new_group
        top0 = (g.aut_part == 0) & (g.base.aut_part[g.base_part] == 0)
        design = DesignSet(g, np.flatnonzero(~top0), "PDS", (96, 72, 48, 72))
    else:
        design = _guard_design(corpus, "denniston_gr4_t3_k3", which)
    expected = cayley_srg_check(design)
    _spoil_inverse_transform(monkeypatch, shift)
    direct_calls = _spy_direct(monkeypatch)
    assert cayley_srg_check(design) == expected
    assert direct_calls == [(design.group, True)]


def test_srg_rows_take_no_direct_count(corpus, monkeypatch):
    """The lifted SRG rows that a size rule k^2 > 16 S n_b once sent to the
    direct count go through the transform: denniston-gr4 t=3 k=3 at
    k^2 / (S n_b) = 196^2 / (7 * 512), about 10.7, and denniston-even m=4 r=1
    at 270^2 / (2 * 4096), about 8.9."""
    direct_calls = _spy_direct(monkeypatch)
    designs = [corpus["denniston_gr4_t3_k3"][1].new_design,
               transfer_pds(denniston_even(4, 1)).new_design]
    for design in designs:
        assert cayley_srg_check(design).k == design.size
    assert direct_calls == []


def test_multiplier_check():
    g = abelian_make((7,))
    d = DesignSet(g, FANO, "DS", (7, 3, 1))
    assert multiplier_check(d, 2)  # doubling fixes the QR set mod 7
    assert not multiplier_check(d, 3)
    with pytest.raises(NotCoprime):
        multiplier_check(d, 7)


def test_rds_base_verifies():
    d = rds_base(1)
    res = verify_rds(d)
    assert res.params == (16, 4, 16, 4)
    assert d.forbidden.order == 4
    mul = d.group.mul
    inv = d.group.inv
    assert oracle.rds_ok(d.group.size, mul, inv, d.members,
                         d.forbidden.members, 4)


def test_rds_quotient_in_forbidden_rejected():
    d = rds_base(1)
    # swap one member for an element whose quotients land inside U
    bad_members = list(d.members)
    bad_members[0] = list(d.forbidden.members)[1]
    bad = DesignSet(d.group, tuple(sorted(bad_members)), "RDS", d.claimed,
                    forbidden=d.forbidden)
    with pytest.raises(ParameterMismatch):
        verify_rds(bad)


@pytest.mark.parametrize("members, message", [
    ((1, 2), "does not contain the identity"),
    ((0, 1), "not closed under inversion"),          # -1 = 3 in C4
    ((0, 2, 4), "not closed under the group operation"),  # (2,0) + (0,1) missing
])
def test_forbidden_set_that_is_no_subgroup_rejected(members, message):
    g = abelian_make((4, 2))
    design = DesignSet(g, (0,), "RDS", (8 // len(members), len(members), 1, 0),
                       forbidden=Subgroup(g, members, members))
    with pytest.raises(ForbiddenNotSubgroup, match=message):
        verify_rds(design)


def test_forbidden_subgroup_of_another_group_rejected():
    g = abelian_make((4, 2))
    design = DesignSet(g, (0,), "RDS", (4, 2, 1, 0),
                       forbidden=subgroup_closure(abelian_make((4, 2)), (4,)))
    with pytest.raises(ForbiddenNotSubgroup, match="different group"):
        verify_rds(design)


def test_verify_design_dispatch():
    g = abelian_make((7,))
    assert verify_design(DesignSet(g, FANO, "DS", (7, 3, 1))).kind == "DS"
    assert verify_design(rds_base(1)).kind == "RDS"
    with pytest.raises(ParameterError):
        DesignSet(g, FANO, "XXX", (7, 3, 1))


def test_srg_matches_verify_on_large_group():
    d = pcp_pds(3, 4, 2)  # order 6561
    srg = cayley_srg_check(d)
    assert (srg.n, srg.k, srg.lam, srg.mu) == verify_pds(d).params


def test_member_out_of_range_rejected():
    g = abelian_make((7,))
    with pytest.raises(ParameterError):
        DesignSet(g, (1, 2, 99), "DS", (7, 3, 1))
    with pytest.raises(ParameterError):
        DesignSet(g, (1, 1, 2), "DS", (7, 3, 1))
