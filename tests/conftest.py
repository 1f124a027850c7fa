import pytest

from diffsets import (
    DesignSet,
    abelian_make,
    aut_from_images,
    denniston_even,
    denniston_gr4,
    denniston_odd,
    dihedral_converse,
    dillon_fixture,
    make_instance,
    mcfarland_even,
    mcfarland_odd,
    pgroup_multiplier_transfer,
    rds_transfer,
    spence,
    transfer_pds,
    transfer_rds,
)


def _dillon():
    design, x_sub = dillon_fixture()
    return dihedral_converse(design, x_sub)


CORPUS_BUILDERS = {
    "pgroup_2_2_s2": lambda: pgroup_multiplier_transfer(2, 2, s=2),
    "pgroup_2_2_s3": lambda: pgroup_multiplier_transfer(2, 2, s=3),
    "pgroup_3_2_s2": lambda: pgroup_multiplier_transfer(3, 2, s=2),
    "dillon": _dillon,
    "spence_d1": lambda: spence(1),
    "denniston_even_m2_r1": lambda: denniston_even(2, 1),
    "denniston_even_m3_r1": lambda: denniston_even(3, 1),
    "denniston_gr4_t2_k1": lambda: denniston_gr4(2, 1),
    "denniston_gr4_t2_k2": lambda: denniston_gr4(2, 2),
    "denniston_gr4_t3_k1": lambda: denniston_gr4(3, 1),
    "denniston_gr4_t3_k3": lambda: denniston_gr4(3, 3),
    "denniston_odd_p3_t1": lambda: denniston_odd(3, 1),
    "mcfarland_even_d2_v1": lambda: mcfarland_even(2, 1),
    "mcfarland_even_d2_v2": lambda: mcfarland_even(2, 2),
    "mcfarland_even_d2_v3": lambda: mcfarland_even(2, 3),
    "mcfarland_odd_q3_s2": lambda: mcfarland_odd(3, 2),
    "rds_d1_v1": lambda: rds_transfer(1, 1),
    "rds_d1_v2": lambda: rds_transfer(1, 2),
}


@pytest.fixture(scope="session")
def corpus():
    """name -> (instance, report) for every transferable corpus instance,
    built once per session."""
    out = {}
    for name, build in CORPUS_BUILDERS.items():
        inst = build()
        if inst.design.kind == "RDS":
            rep = transfer_rds(inst)
        else:
            rep = transfer_pds(inst)
        out[name] = (inst, rep)
    return out


@pytest.fixture
def v4_swap():
    """DS(4,1,0) in C2 x C2 with the coordinate swap and candidates
    (swap, 0), (1, (1,1)): the closure has order 4 and X = {0, (1,1)} is
    normal, but every base part lies in X, so condition (iii) fails."""
    v4 = abelian_make((2, 2))
    design = DesignSet(v4, (0,), "DS", (4, 1, 0))
    return make_instance(design, [aut_from_images(v4, [2, 1])], [((0,), 0), ((), 3)])
