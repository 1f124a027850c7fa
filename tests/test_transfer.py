"""Transfer engine: condition checks, design lifting, failure reporting."""

import re

import numpy as np
import pytest

import oracle
from diffsets import (
    ConditionsFailed,
    DesignNotFixed,
    DesignSet,
    Subgroup,
    abelian_make,
    aut_from_images,
    check_conditions,
    extension_closure,
    fingerprint,
    make_instance,
    normality_witness,
    pcp_pds,
    rds_transfer,
    spence,
    subgroup_closure,
    transfer_pds,
    transfer_rds,
    verify_design,
)

FANO = (1, 2, 4)


def test_design_must_be_fixed_eagerly():
    g = abelian_make((7,))
    d = DesignSet(g, FANO, "DS", (7, 3, 1))
    tripling = aut_from_images(g, [3])  # 3 * {1,2,4} = {3,6,5} != D
    with pytest.raises(DesignNotFixed):
        make_instance(d, [tripling], [((), 1)])


def test_design_not_fixed_names_its_three_least_gains():
    """The message names the automorphism and the three least elements its
    image gains; a moved forbidden subgroup is named on its own."""
    g = abelian_make((31,))
    d = DesignSet(g, (1, 5, 11, 24, 25, 27), "DS", (31, 6, 1))  # 3 * D gains 2, 3, 10, 13, 15
    with pytest.raises(DesignNotFixed, match=re.escape(
            "automorphism 1 does not fix the design; image gains (2), (3), (10)")):
        make_instance(d, [aut_from_images(g, [1]), aut_from_images(g, [3])], [((), 1)])
    v4 = abelian_make((2, 2))
    swap = aut_from_images(v4, [2, 1])  # fixes {0, 3}, moves <e_0> = {0, 1} to {0, 2}
    rds = DesignSet(v4, (0, 3), "RDS", (2, 2, 2, 1), forbidden=subgroup_closure(v4, [1]))
    with pytest.raises(DesignNotFixed, match=re.escape(
            "automorphism 0 does not fix the forbidden subgroup")):
        make_instance(rds, [swap], [((), 1)])


def test_identity_transfer_preserves_everything():
    d = pcp_pds(2, 2, 2)
    inst = make_instance(d, [], [((), g) for g in d.group.generators])
    rep = transfer_pds(inst)
    assert rep.all_pass
    assert rep.verified.params == (16, 6, 2, 2)
    fp = fingerprint(rep.new_group)
    assert fp.is_abelian and fp.order == 16
    # the rebuilt design has the same difference profile as the original
    mul, inv = rep.new_group.mul, rep.new_group.inv
    assert oracle.pds_params(16, mul, inv, rep.new_design.members) \
        == (16, 6, 2, 2)


def test_condition_i_failure_reported():
    g = abelian_make((7,))
    d = DesignSet(g, FANO, "DS", (7, 3, 1))
    doubling = aut_from_images(g, [2])  # fixes D, order 3
    # closure of {(doubling, 0)} union G has order 21 != 7: condition (i) fails
    inst = make_instance(d, [doubling], [((), 1), ((0,), 0)])
    report = check_conditions(inst)
    assert report.cond_i is False
    with pytest.raises(ConditionsFailed) as err:
        transfer_pds(inst)
    assert "condition (i)" in str(err.value)


def test_closure_above_the_base_order_is_not_built():
    """(i) needs only to know that the closure exceeds |G|, so the closure is
    capped at |G|: C2^6 with the swap of its first two coordinates and every
    translation would close to 128 elements, and stops past 64."""
    g = abelian_make((2,) * 6)
    design = DesignSet(g, (0,), "DS", (64, 1, 0))
    swap = aut_from_images(g, [2, 1] + list(g.generators[2:]))
    inst = make_instance(design, [swap], [((0,), 0)] + [((), x) for x in range(64)])
    report = check_conditions(inst)
    assert (report.cond_i, report.new_group) == (False, None)
    assert report.witnesses["i"] == "closure exceeded the cap of 64 elements"
    with pytest.raises(ConditionsFailed, match=r"condition \(i\): fail \[closure exceeded"):
        transfer_pds(inst)


def test_closure_too_small_is_condition_i_failure():
    g = abelian_make((7,))
    d = DesignSet(g, FANO, "DS", (7, 3, 1))
    inst = make_instance(d, [], [])
    report = check_conditions(inst)
    assert report.cond_i is False


def test_translation_slice_is_the_kernel_of_the_projection(corpus):
    """Condition (ii) on the closure side holds by construction: every
    closure multiplies automorphism parts by aut_mul, so (a, b) -> a is a
    homomorphism and its kernel 1xX is normal.  All pairs up to order 1000;
    above that x * g over every x and generator g, which gives all pairs by
    induction on the length of y as a word in the generators (all pairs at
    order 19683 take about 17 s)."""
    for name, (_, rep) in corpus.items():
        g = rep.new_group
        x = np.arange(g.size)
        y = x if g.size <= 1000 else np.array(g.generators)
        assert np.array_equal(g.aut_part[g.mul_outer(x, y)],
                              g.aut_mul[g.aut_part[:, None], g.aut_part[y][None, :]]), name
        kernel = tuple(np.flatnonzero(g.aut_part == 0).tolist())
        assert normality_witness(g, Subgroup(g, kernel, kernel)) is None, name
        assert sorted(g.base_part[list(kernel)].tolist()) == list(rep.x_subgroup.members)


def test_condition_ii_failure_over_a_nonabelian_base():
    """Over S3 = C3 x| C2 the closure of (1, s) and (x -> r x r^-1, r) has
    order 6 and translation slice X = <s>, which is not normal in S3."""
    c3 = abelian_make((3,))
    s3 = extension_closure(c3, [aut_from_images(c3, [2])], [((), 1), ((0,), 0)])
    r, s = s3.generators
    conj = aut_from_images(s3, [s3.mul(s3.mul(r, z), s3.inv(r)) for z in s3.generators])
    d = DesignSet(s3, (0,), "DS", (6, 1, 0))
    rep = check_conditions(make_instance(d, [conj], [((), s), ((0,), r)]))
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (True, False, True)
    assert rep.x_subgroup.members.tolist() == [0, s]
    g, x, c = normality_witness(s3, rep.x_subgroup)
    assert rep.witnesses["ii"] == (
        f"X is not normal in the base group: {s3.element_name(g)}^-1 * "
        f"{s3.element_name(x)} * {s3.element_name(g)} = {s3.element_name(c)}")
    with pytest.raises(ConditionsFailed, match=r"condition \(ii\): fail"):
        transfer_pds(make_instance(d, [conj], [((), s), ((0,), r)]))


def _coset_orbit_reference(inst, rep):
    """(cond_iii, witness text) from the right-coset orbit BFS of the
    reference, acting by the closure's generator pairs."""
    group, closure = inst.design.group, rep.new_group
    acting = [(closure.aut_perms[a].tolist(), b) for a, b in closure.gen_pairs]
    reached, total, rep_left = oracle.coset_orbit(
        group.size, group.mul, rep.x_subgroup.members.tolist(), acting)
    if rep_left is None:
        return True, None
    return False, (f"coset action reaches {reached} of {total} cosets; "
                   f"coset of {group.element_name(rep_left)} is unreached")


def _untwisted(inst):
    """The instance with every twisted candidate's base element set to the
    identity: the closure keeps order |G| and a normal X, but its base parts
    no longer cover G."""
    gens = [(word, 0 if word else base) for word, base in inst.candidate_gens]
    return make_instance(inst.design, inst.aut_gens, gens)


def test_condition_iii_matches_the_coset_orbit(corpus, v4_swap):
    """Condition (iii), read off the base parts, agrees with an orbit BFS
    over right-coset representatives, witness text included: on every corpus
    instance (all transitive), on each with its twists untwisted, and on the
    C2 x C2 swap."""
    cases = [(name, inst) for name, (inst, _) in corpus.items()]
    cases += [(name + " untwisted", _untwisted(inst)) for name, (inst, _) in corpus.items()]
    cases.append(("v4 swap", v4_swap))
    failing = 0
    for name, inst in cases:
        rep = check_conditions(inst)
        assert rep.cond_i and rep.cond_ii, name
        want = _coset_orbit_reference(inst, rep)
        assert (rep.cond_iii, rep.witnesses.get("iii")) == want, name
        failing += not rep.cond_iii
    assert failing == len(corpus) + 1


def test_condition_iii_failure(v4_swap):
    rep = check_conditions(v4_swap)
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (True, True, False)
    with pytest.raises(ConditionsFailed, match=re.escape(
            "condition (iii): fail [coset action reaches 1 of 2 cosets; "
            "coset of (1,0) is unreached]")):
        transfer_pds(v4_swap)


def test_spence_transfer_full_report(corpus):
    inst, rep = corpus["spence_d1"]
    assert rep.all_pass
    assert rep.cond_ii is True and rep.cond_iii is True
    assert rep.verified.params == (351, 126, 45)
    assert rep.new_group.size == 351
    assert not fingerprint(rep.new_group).is_abelian
    # independent recount of the lifted design through the new group's mul
    mul, inv = rep.new_group.mul, rep.new_group.inv
    assert oracle.ds_lambda(351, mul, inv, rep.new_design.members) == 45


def test_lifted_members_project_onto_base(corpus):
    inst, rep = corpus["spence_d1"]
    G = rep.new_group
    base_members = set(inst.design.members)
    lifted = set(rep.new_design.members)
    for z in range(G.size):
        assert (z in lifted) == (int(G.base_part[z]) in base_members)


def test_rds_transfer_lifts_forbidden(corpus):
    inst, rep = corpus["rds_d1_v1"]
    assert rep.verified.params == (16, 4, 16, 4)
    assert rep.new_forbidden is not None and rep.new_forbidden.order == 4
    mul, inv = rep.new_group.mul, rep.new_group.inv
    assert oracle.rds_ok(rep.new_group.size, mul, inv,
                         rep.new_design.members,
                         rep.new_forbidden.members, 4)


@pytest.mark.parametrize("key", ["rds_d1_v1", "rds_d1_v2"])
def test_closure_automorphisms_fix_the_forbidden_subgroup(corpus, key):
    """make_instance checks that each generator automorphism fixes U, so every
    automorphism of the closure does: the base part of a product of U's
    pullbacks lies in U, and that pullback is a subgroup of order |U|."""
    inst, rep = corpus[key]
    forbidden = inst.design.forbidden
    assert forbidden.mask[rep.new_group.aut_perms[:, forbidden.members]].all()
    lifted = rep.new_forbidden
    assert lifted.order == forbidden.order
    assert forbidden.mask[rep.new_group.base_part[lifted.members]].all()


def test_rds_kind_dispatch(corpus):
    inst, _ = corpus["rds_d1_v1"]
    with pytest.raises(Exception):
        transfer_pds(inst)  # wrong kind for the PDS/DS entry point
    inst2, _ = corpus["spence_d1"]
    with pytest.raises(Exception):
        transfer_rds(inst2)


def test_condition_lines_format(corpus):
    _, rep = corpus["spence_d1"]
    lines = rep.condition_lines()
    assert len(lines) == 3
    assert all(line.startswith("condition (") for line in lines)
    assert all("pass" in line for line in lines)


def test_projection_is_a_bijection_when_i_and_iii_hold(corpus):
    """Every corpus instance, both RDS transfers among them, passes (i) and
    (iii); there the base-part projection permutes range(|G|), so the lifted
    design and the lifted forbidden set have their sources' sizes."""
    for name, (inst, rep) in corpus.items():
        assert rep.cond_i and rep.cond_iii, name
        group = inst.design.group
        assert np.array_equal(np.sort(rep.new_group.base_part), np.arange(group.size)), name
        assert rep.new_design.size == inst.design.size, name
        if inst.design.kind == "RDS":
            assert rep.new_forbidden.order == inst.design.forbidden.order, name
    assert sum(inst.design.kind == "RDS" for inst, _ in corpus.values()) == 2


def test_schreier_generators_span_x(corpus):
    """X's generators, the base parts of the Schreier generators, span X on
    every corpus instance and over S3, where (ii) still fails."""
    c3 = abelian_make((3,))
    s3 = extension_closure(c3, [aut_from_images(c3, [2])], [((), 1), ((0,), 0)])
    r, s = s3.generators
    conj = aut_from_images(s3, [s3.mul(s3.mul(r, z), s3.inv(r)) for z in s3.generators])
    s3_inst = make_instance(DesignSet(s3, (0,), "DS", (6, 1, 0)), [conj], [((), s), ((0,), r)])
    cases = [(name, inst, rep) for name, (inst, rep) in corpus.items()]
    cases.append(("S3", s3_inst, check_conditions(s3_inst)))
    for name, inst, rep in cases:
        x_sub = rep.x_subgroup
        assert isinstance(x_sub.gens, tuple), name
        span = subgroup_closure(inst.design.group, x_sub.gens)
        assert np.array_equal(span.members, x_sub.members), name
    assert (cases[-1][2].cond_i, cases[-1][2].cond_ii, cases[-1][2].cond_iii) == (True, False, True)
