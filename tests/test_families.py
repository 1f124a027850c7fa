"""Family constructors: frozen parameters, witnesses, and error paths."""

import contextlib
import io
from math import gcd

import numpy as np
import pytest

import oracle

from diffsets import (
    FiniteField,
    IndexNotTwo,
    NotBijective,
    NoValidAlpha,
    NotReversible,
    ParameterError,
    ReindexObstruction,
    RPlusOneNotTwiceOddPrime,
    TooManyLines,
    abelian_make,
    aut_from_images,
    corollary_chain,
    denniston_even,
    denniston_gr4,
    denniston_odd,
    dihedral_converse,
    dillon_fixture,
    dillon_forward,
    element_orders,
    field_make,
    fingerprint,
    invariant_hyperplane,
    mcfarland_base,
    mcfarland_even_witnesses,
    mcfarland_odd,
    mcfarland_odd_sylow,
    nonabelian_witness,
    normality_witness,
    pcp_pds,
    rds_base,
    rds_transfer,
    spence_sylow3,
    subgroup_closure,
    verify_design,
    verify_ds,
    verify_pds,
    verify_rds,
)
from diffsets import cli, families, verify


# ---------------------------------------------------------------------------
# partial congruence partition PDS and the p-group transfer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n,s,params", [
    (2, 2, 2, (16, 6, 2, 2)),
    (2, 2, 3, (16, 9, 4, 6)),
    (3, 2, 2, (81, 16, 7, 2)),
])
def test_pcp_parameters(p, n, s, params):
    d = pcp_pds(p, n, s)
    assert verify_design(d).params == params
    assert repr(d.group) == f"C{p**n} x C{p**n}"


def test_pcp_line_count_limits():
    with pytest.raises(TooManyLines):
        pcp_pds(2, 2, 4)  # only p + 1 = 3 pairwise-disjoint lines exist
    with pytest.raises(ParameterError):
        pcp_pds(2, 2, 1)


@pytest.mark.parametrize("key,order,hist", [
    ("pgroup_2_2_s2", 16, ((1, 1), (2, 11), (4, 4))),
    ("pgroup_3_2_s2", 81, None),
])
def test_pgroup_transfer_structure(corpus, key, order, hist):
    inst, rep = corpus[key]
    assert rep.all_pass
    assert rep.verified.params == verify_design(inst.design).params
    fp = fingerprint(rep.new_group)
    assert fp.order == order and not fp.is_abelian
    if hist is not None:
        assert fp.order_histogram == hist


def test_pgroup_3_2_exponent(corpus):
    _, rep = corpus["pgroup_3_2_s2"]
    assert fingerprint(rep.new_group).exponent == 9


# ---------------------------------------------------------------------------
# the (16,6,2) chain
# ---------------------------------------------------------------------------

def test_dillon_fixture_is_reversible():
    design, x_sub = dillon_fixture()
    assert design.members.tolist() == [0, 1, 3, 4, 8, 14]
    res = verify_ds(design)
    assert res.params == (16, 6, 2) and res.reversible is True
    assert x_sub.order == 8


def test_dihedral_converse_output(corpus):
    inst, rep = corpus["dillon"]
    res = verify_design(rep.new_design)
    assert res.params == (16, 6, 2) and res.reversible is True
    fp = fingerprint(rep.new_group)
    assert not fp.is_abelian
    # generalized dihedral: every element outside the abelian half inverts it
    assert fp.order_histogram[0] == (1, 1)


def test_dihedral_converse_rejects_bad_inputs():
    design, x_sub = dillon_fixture()
    small = subgroup_closure(design.group, (design.group.generators[1],))
    with pytest.raises(IndexNotTwo):
        dihedral_converse(design, small)
    g = abelian_make((7,))
    from diffsets import DesignSet
    fano = DesignSet(g, (1, 2, 4), "DS", (7, 3, 1))
    with pytest.raises((NotReversible, IndexNotTwo)):
        dihedral_converse(fano, subgroup_closure(g, (1,)))


@pytest.mark.parametrize("orders", [(8, 2), (4, 4), (4, 2, 2), (16,), (2, 2, 2, 2)])
def test_dillon_forward_matches_the_scalar_search(corpus, orders):
    """The substitution picks the embedding the scalar search in
    tests/oracle.py picks: the same final members and log on the targets
    holding an index-2 copy of H = C4 x C2, and IndexNotTwo on C16 and C2^4,
    which hold none."""
    design, x_sub = dillon_fixture()
    target = abelian_make(orders)
    dihedral = corpus["dillon"][1].new_design
    want = oracle.dillon_forward(dihedral.group, dihedral.members.tolist(), target)
    assert (want is None) == (orders in ((16,), (2, 2, 2, 2)))
    if want is None:
        with pytest.raises(IndexNotTwo, match="no index-2 copy"):
            corollary_chain(design, x_sub, target)
    else:
        final = corollary_chain(design, x_sub, target).final_design
        assert (final.members.tolist(), final.log) == (want[0], [want[1]])


def test_corollary_chain_round_trip():
    design, x_sub = dillon_fixture()
    chain = corollary_chain(design, x_sub, abelian_make((8, 2)))
    final = chain.final_design
    assert final.members.tolist() == [0, 1, 2, 6, 8, 13]
    res = verify_ds(final)
    assert res.params == (16, 6, 2) and res.reversible is False
    assert repr(final.group) == "C8 x C2"
    # forward then converse reproduces a dihedral design with the original
    # difference parameters
    assert verify_design(chain.dihedral_design).params == (16, 6, 2)


# ---------------------------------------------------------------------------
# Spence
# ---------------------------------------------------------------------------

def test_spence_base_design(corpus):
    inst, _ = corpus["spence_d1"]
    assert verify_design(inst.design).params == (351, 126, 45)
    assert repr(inst.design.group) == "C3 x C3 x C3 x C13"


def test_spence_output_witnesses(corpus):
    _, rep = corpus["spence_d1"]
    p3 = spence_sylow3(rep)
    assert p3.order == 27
    assert normality_witness(rep.new_group, p3) is not None
    sub_mul = rep.new_group.mul
    mem = list(p3.members)
    assert any(sub_mul(a, b) != sub_mul(b, a) for a in mem for b in mem)
    assert max(int(o) for o in element_orders(rep.new_group)[mem]) == 9
    # the (phi, a3) candidate generator has order 9
    assert element_orders(rep.new_group)[rep.new_group.generators[-1]] == 9


# ---------------------------------------------------------------------------
# Denniston families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key,params", [
    ("denniston_even_m2_r1", (64, 18, 2, 6)),
    ("denniston_even_m3_r1", (512, 70, 6, 10)),
])
def test_denniston_even(corpus, key, params):
    inst, rep = corpus[key]
    assert verify_design(inst.design).params == params
    assert rep.verified.params == params
    assert not fingerprint(rep.new_group).is_abelian


def test_denniston_even_m3_r2():
    inst = denniston_even(3, 2)
    assert verify_design(inst.design).params == (512, 196, 60, 84)


@pytest.mark.parametrize("m,r", [(2, 1), (3, 2), (4, 1), (4, 3)])
def test_denniston_even_members_pointwise(m, r):
    """The array evaluation of Q(a, b) = a^2 + alpha a b + b^2 keeps the
    member list of a scalar evaluation point by point."""
    inst = denniston_even(m, r)
    F, q = field_make(2, m), 2 ** m
    # the canonical alpha: the first primitive power with tr(1/alpha) = 1
    alpha = next(int(F.exp[e]) for e in range(1, q - 1)
                 if gcd(e, q - 1) == 1 and F.trace(F.inv(int(F.exp[e]))) == 1)
    assert inst.design.log[0].startswith(f"alpha = {F.element_str(alpha)},")
    members = set()
    for a in range(q):
        for b in range(q):
            qval = F.add(F.add(F.mul(a, a), F.mul(F.mul(alpha, a), b)), F.mul(b, b))
            if qval < 2 ** r:
                members.update(c + q * F.mul(c, a) + q * q * F.mul(c, b) for c in range(1, q))
    assert inst.design.members.tolist() == sorted(members)


def test_denniston_even_degenerate_form_counted(monkeypatch):
    """With the trace test forced, alpha = x is taken over GF(8), where
    tr(1/x) = 0: Q is isotropic, zero on two lines of q - 1 nonzero points."""
    monkeypatch.setattr(FiniteField, "trace", lambda self, a, sub_degree=1: 1)
    with pytest.raises(NoValidAlpha, match="^Q vanishes at 14 nonzero points"):
        denniston_even(3, 1)


def test_denniston_even_histogram(corpus):
    _, rep = corpus["denniston_even_m3_r1"]
    assert fingerprint(rep.new_group).order_histogram == (
        (1, 1), (2, 287), (4, 224))


@pytest.mark.parametrize("key,params", [
    ("denniston_gr4_t2_k1", (64, 18, 2, 6)),
    ("denniston_gr4_t2_k2", (64, 18, 2, 6)),
    ("denniston_gr4_t3_k1", (512, 196, 60, 84)),
    ("denniston_gr4_t3_k3", (512, 196, 60, 84)),
])
def test_denniston_gr4(corpus, key, params):
    inst, rep = corpus[key]
    assert verify_design(inst.design).params == params
    assert rep.verified.params == params
    assert not fingerprint(rep.new_group).is_abelian


def test_denniston_gr4_t3_ring_log(corpus):
    inst, _ = corpus["denniston_gr4_t3_k3"]
    assert inst.design.log[0] == "ring GR(4,3; x^3+2x^2+x+3), w = g^0"


def test_denniston_gr4_psi_images(corpus):
    # frozen generator-image tables for the two nontrivial maps at t = 3
    inst, _ = corpus["denniston_gr4_t3_k3"]
    images = [aut.images for aut in inst.aut_gens]
    assert (9, 36, 26, 96, 138, 296) in images
    assert (33, 14, 56, 104, 170, 290) in images


def test_denniston_odd(corpus):
    inst, rep = corpus["denniston_odd_p3_t1"]
    assert verify_design(inst.design).params == (19683, 1482, 81, 114)
    assert rep.verified.params == (19683, 1482, 81, 114)
    fp = fingerprint(rep.new_group)
    assert not fp.is_abelian
    assert fp.exponent == 9
    assert fp.order_histogram == ((1, 1), (3, 6560), (9, 13122))


# ---------------------------------------------------------------------------
# McFarland families
# ---------------------------------------------------------------------------

def test_mcfarland_base_small():
    d = mcfarland_base(2, 1)
    assert verify_design(d).params == (16, 6, 2)
    assert d.members.tolist() == [4, 5, 8, 10, 12, 15]


def test_mcfarland_base_q3_s2():
    d = mcfarland_base(3, 2)
    assert verify_design(d).params == (378, 117, 36)


@pytest.mark.parametrize("key", [
    "mcfarland_even_d2_v1", "mcfarland_even_d2_v2", "mcfarland_even_d2_v3"])
def test_mcfarland_even_variants(corpus, key):
    inst, rep = corpus[key]
    assert rep.verified.params == (96, 20, 4)
    assert not fingerprint(rep.new_group).is_abelian


def test_mcfarland_even_v3_witnesses(corpus):
    _, rep = corpus["mcfarland_even_d2_v3"]
    q_sub, e_sub = mcfarland_even_witnesses(rep)
    assert q_sub.order == 32 and e_sub.order == 16
    assert normality_witness(rep.new_group, q_sub) is not None
    assert normality_witness(rep.new_group, e_sub) is not None


def test_mcfarland_odd(corpus):
    inst, rep = corpus["mcfarland_odd_q3_s2"]
    assert rep.verified.params == (378, 117, 36)
    syl = mcfarland_odd_sylow(rep)
    assert syl.order == 27
    assert normality_witness(rep.new_group, syl) is not None
    mem = list(syl.members)
    mul = rep.new_group.mul
    assert any(mul(a, b) != mul(b, a) for a in mem for b in mem)


def test_huge_prime_parameter_fails_on_order_before_primality(monkeypatch):
    """A prime parameter far above the order ceiling is rejected by the order
    check, which reads exponents, before any primality test: isprime takes
    no n above 2^40, and a number like 2^4423 - 1 is far beyond that."""
    def no_primality_test(n):
        raise AssertionError("isprime ran before the order check")
    monkeypatch.setattr(families, "isprime", no_primality_test)
    p = 2 ** 4423 - 1
    for build in (lambda: pcp_pds(p, 1, 2), lambda: denniston_odd(p, 1),
                  lambda: mcfarland_odd(p, 2)):
        with pytest.raises(ParameterError, match="exceeds the supported maximum"):
            build()


def test_mcfarland_odd_parameter_gate():
    with pytest.raises(RPlusOneNotTwiceOddPrime) as err:
        mcfarland_odd(3, 1)
    assert str(err.value) == "r+1 = 5 is not twice an odd prime"
    with pytest.raises(ParameterError):
        mcfarland_odd(4, 2)  # q must be an odd prime


# ---------------------------------------------------------------------------
# relative difference sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,params", [
    (1, (16, 4, 16, 4)),
    (2, (256, 16, 256, 16)),
])
def test_rds_base(d, params):
    design = rds_base(d)
    assert verify_rds(design).params == params
    assert design.forbidden.order == params[1]


@pytest.mark.parametrize("key", ["rds_d1_v1", "rds_d1_v2"])
def test_rds_transfer_variants(corpus, key):
    inst, rep = corpus[key]
    assert rep.verified.params == (16, 4, 16, 4)
    assert rep.new_forbidden.order == 4
    assert not fingerprint(rep.new_group).is_abelian
    assert nonabelian_witness(rep.new_group) is not None


def test_rds_variant2_forbidden_orders(corpus):
    _, rep = corpus["rds_d1_v2"]
    orders = sorted(int(o) for o in
                    element_orders(rep.new_group)[list(rep.new_forbidden.members)])
    assert orders == [1, 2, 4, 4]  # cyclic of order 4: an order-4 element exists


def test_rds_transfer_d2_obstruction():
    with pytest.raises(ReindexObstruction) as err:
        rds_transfer(2, 1)
    msg = str(err.value)
    assert "fixes 5 of the 17 hyperplanes" in msg
    assert "3 self-paired slots" in msg


# ---------------------------------------------------------------------------
# GF(p) spans: invariant hyperplanes and the variant-2 complement
# ---------------------------------------------------------------------------

def _check_hyperplane(group, phi, u, basis):
    """The basis spans a phi-invariant hyperplane that misses u."""
    x = subgroup_closure(group, basis)
    assert x.order * group.orders[0] == group.size
    assert x.mask[phi.perm[x.members]].all() and not x.mask[u]


@pytest.mark.parametrize("build, args", [
    pytest.param(denniston_even, (m, r), id=f"denniston-even-m{m}-r{r}")
    for m in range(2, 7) for r in range(1, m)
] + [pytest.param(denniston_odd, (3, 1), id="denniston-odd-p3-t1")])
def test_invariant_hyperplane_matches_the_reference(build, args):
    """The one-step reduced echelon spans give the hyperplane, and so the
    candidates, that the row-by-row reference span gives."""
    inst = build(*args)
    group, phi = inst.design.group, inst.aut_gens[0]
    u, basis = invariant_hyperplane(group, phi)
    images = phi.perm[list(group.generators)].tolist()
    assert (u, basis) == oracle.invariant_hyperplane(group.orders[0], images)
    assert inst.candidate_gens == [((), x) for x in basis] + [((0,), u)]
    _check_hyperplane(group, phi, u, basis)


@pytest.mark.parametrize("p, dim", [(2, 5), (3, 4), (5, 3)])
def test_invariant_hyperplane_of_random_automorphisms(p, dim):
    """Random automorphisms of C_p^dim against the reference; where phi - 1
    is surjective there is no hyperplane, and both say so."""
    group = abelian_make((p,) * dim)
    rng = np.random.default_rng(dim)
    checked = 0
    for _ in range(200):
        images = [int(group.encode(row)) for row in rng.integers(0, p, size=(dim, dim))]
        try:
            phi = aut_from_images(group, images)
        except NotBijective:
            continue
        want = oracle.invariant_hyperplane(p, images)
        if want is None:
            with pytest.raises(ParameterError, match="surjective"):
                invariant_hyperplane(group, phi)
            continue
        u, basis = invariant_hyperplane(group, phi)
        assert (u, basis) == want
        _check_hyperplane(group, phi, u, basis)
        checked += 1
    assert checked >= 20


def test_rds_variant2_complement_matches_the_reference(corpus):
    """rds_transfer(1, 2)'s B: the reference span of the GF(2) x GF(2) block,
    completed avoiding (beta, 0), one candidate per row."""
    inst, _ = corpus["rds_d1_v2"]
    F, qq = field_make(2, 2), 4
    (word, beta_code), one = inst.candidate_gens[:2]
    beta = beta_code // qq
    assert (word, one) == ((0,), ((), 1)) and not F.in_subfield(beta, 1)
    span = oracle.SpanGF(4, 2)
    for a in range(1, qq):
        if F.in_subfield(a, 1):
            span.add(F.digits[a].tolist() + [0, 0])
            span.add([0, 0] + F.digits[a].tolist())
    span.complete_avoiding(F.digits[beta].tolist() + [0, 0])
    assert inst.candidate_gens[2:] == [
        ((), qq * (oracle.encode([2, 2], row[:2]) + qq * oracle.encode([2, 2], row[2:])))
        for row in span.rows]


# ---------------------------------------------------------------------------
# the proof boundary: constructors build, commands recount
# ---------------------------------------------------------------------------

# small parameters, defaults included, for every family the CLI offers
SMALL = {
    "pcp": {"p": 3, "n": 1, "s": 2},
    "pgroup": {"p": 2, "n": 2, "s": 2},
    "dillon": {},
    "dillon-forward": {},
    "spence": {"d": 1},
    "denniston-even": {"m": 2, "r": 1},
    "denniston-gr4": {"t": 2, "k": 1},
    "denniston-odd": {"p": 3, "t": 1},
    "mcfarland": {"q": 2, "s": 1},
    "mcfarland-even": {"d": 2, "variant": 3},
    "mcfarland-odd": {"q": 3, "s": 2},
    "rds": {"d": 1},
    "rds-transfer": {"d": 1, "variant": 1},
}
# more points of the families whose parameters change the construction's shape
MORE = [
    ("pcp", {"p": 2, "n": 2, "s": 3}),
    ("pgroup", {"p": 3, "n": 2, "s": 3}),
    ("denniston-even", {"m": 3, "r": 2}),
    ("denniston-gr4", {"t": 3, "k": 3}),
    ("mcfarland", {"q": 4, "s": 1}),
    ("mcfarland", {"q": 3, "s": 2}),
    ("mcfarland-even", {"d": 2, "variant": 1}),
    ("mcfarland-even", {"d": 2, "variant": 2}),
    ("rds-transfer", {"d": 1, "variant": 2}),
]


def test_small_parameters_cover_every_family():
    assert sorted(SMALL) == sorted(cli.FAMILIES)


@pytest.mark.parametrize("family, params", sorted(SMALL.items()) + MORE)
def test_every_builder_meets_its_claim(family, params):
    """No constructor recounts its design, so each design is recounted here:
    it meets its claimed parameters, and every PDS is regular."""
    built = cli.FAMILIES[family][2](params)
    design = getattr(built, "design", built)
    assert verify_design(design).params == design.claimed
    if design.kind == "PDS":
        assert verify_pds(design, require_regular=True).regular


@pytest.mark.parametrize("family", sorted(SMALL))
def test_each_command_recounts_each_design_once(family, tmp_path, monkeypatch):
    """Every recount goes through difference_profile; in one command no
    design is counted twice.  construct recounts what it built (dillon-forward
    also the dihedral lift it substitutes from), a transfer the lift alone,
    and verify the design it reads."""
    real, seen = verify.difference_profile, []
    monkeypatch.setattr(verify, "difference_profile",
                        lambda design: seen.append(design) or real(design))
    flags = [x for key, val in SMALL[family].items() for x in (f"--{key}", str(val))]

    def recounts(*argv):
        seen.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        assert len({id(d) for d in seen}) == len(seen), argv
        return code, len(seen)

    inner = int(family == "dillon-forward")  # the lift built on the way
    base, lifted = tmp_path / "b", tmp_path / "x"
    assert recounts("construct", family, *flags, "--out", str(base)) == (0, inner + 1)
    assert recounts("verify", "--design", f"{base}.design.txt") == (0, 1)
    if "[transfer]" in (tmp_path / "b.design.txt").read_text():
        assert recounts("transfer", "--family", family, *flags, "--out", str(lifted)) == (0, 1)
        assert recounts("transfer", "--design", f"{base}.design.txt",
                        "--out", str(lifted)) == (0, 1)
        assert recounts("verify", "--design", f"{lifted}.design.txt") == (0, 1)
    else:  # a plain design has nothing to transfer: exit 2 after the build
        assert recounts("transfer", "--family", family, *flags,
                        "--out", str(lifted)) == (2, inner)
        assert recounts("transfer", "--design", f"{base}.design.txt",
                        "--out", str(lifted)) == (2, 0)
