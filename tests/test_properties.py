"""Property suites: randomized automorphism rejection, parameter
preservation over the whole corpus, and cross-route SRG agreement."""

import random

import pytest

import oracle
from diffsets import (
    DesignSet,
    NotBijective,
    NotHomomorphism,
    NotSRG,
    abelian_make,
    aut_from_images,
    cayley_srg_check,
    fingerprint,
    spence,
    verify_design,
    verify_pds,
)
from diffsets.serialize import design_text

PERTURB_GROUPS = [
    (16,), (4, 4), (2, 2, 2, 2), (8, 2), (3, 3, 3), (5, 5), (12, 2),
    (4, 2, 2), (9, 3), (7, 7), (255,), (2,) * 8,
]


def _breaks_homomorphism(orders, images):
    """True iff no homomorphism sends generator i to images[i]: for abelian
    groups that happens exactly when some image order misses n_i | n_i*img."""
    for n, img in zip(orders, images):
        acc = img
        for _ in range(n - 1):
            acc = oracle.abelian_mul(orders, acc, img)
        if acc != 0:  # img^n != identity
            return True
    return False


def test_perturbed_maps_all_rejected():
    rng = random.Random(0xC0FFEE)
    groups = [abelian_make(o) for o in PERTURB_GROUPS]
    assert all(g.size <= 256 for g in groups)
    tested = 0
    while tested < 1000:
        g = groups[rng.randrange(len(groups))]
        orders = g.orders
        images = [int(x) for x in g.generators]  # identity map, always valid
        images[rng.randrange(len(images))] = rng.randrange(g.size)
        if not _breaks_homomorphism(orders, images):
            continue  # perturbation landed on a homomorphism; not a trial
        with pytest.raises((NotHomomorphism, NotBijective)):
            aut_from_images(g, images)
        tested += 1
    assert tested == 1000


def test_parameter_preservation_everywhere(corpus):
    for name, (inst, rep) in corpus.items():
        base = verify_design(inst.design)
        assert rep.verified.params == base.params, name
        assert rep.new_group.size == inst.design.group.size, name
        assert rep.all_pass, name


def test_transfer_outputs_nonabelian(corpus):
    for name, (_, rep) in corpus.items():
        assert not fingerprint(rep.new_group).is_abelian, name


def test_srg_cross_route_agreement(corpus):
    checked = 0
    for name, (inst, rep) in corpus.items():
        if inst.design.kind != "PDS":
            continue
        for design in (inst.design, rep.new_design):
            params = verify_pds(design).params
            srg = cayley_srg_check(design)
            assert (srg.n, srg.k, srg.lam, srg.mu) == params, name
            checked += 1
    assert checked >= 10


def _inverse_pairs(group, elements):
    return sorted({tuple(sorted({x, group.inv(x)})) for x in elements})


def test_srg_matches_naive_on_small(corpus):
    inst, rep = corpus["denniston_gr4_t2_k1"]
    for design in (inst.design, rep.new_design):
        mul, inv = design.group.mul, design.group.inv
        srg = cayley_srg_check(design)
        assert oracle.srg_params(64, mul, inv, design.members) \
            == verify_pds(design).params == (srg.n, srg.k, srg.lam, srg.mu)

    # swap one inverse pair of the lifted (nonabelian) design for another
    # inverse pair of the same size, the first such swap that the oracle
    # says breaks strong regularity
    lifted = rep.new_design
    group = lifted.group
    inside = _inverse_pairs(group, lifted.members)
    outside = _inverse_pairs(group, set(range(1, 64)) - set(lifted.members))
    candidates = (sorted(set(lifted.members) - set(old) | set(new))
                  for old in inside for new in outside if len(old) == len(new))
    members = next(m for m in candidates
                   if oracle.srg_params(64, group.mul, group.inv, m) is None)
    mutated = DesignSet(group, members, "PDS", lifted.claimed)
    with pytest.raises(NotSRG):
        cayley_srg_check(mutated)


def test_construction_is_deterministic():
    a, b = spence(1), spence(1)
    assert design_text(a.design, a) == design_text(b.design, b)
