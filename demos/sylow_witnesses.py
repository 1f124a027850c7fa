"""Difference sets whose ambient groups are provably far from abelian.

The Spence and McFarland constructions land in groups where we can point
at concrete structure: a nonabelian Sylow 3-subgroup that is not normal,
or a pair of order-32 and order-16 subgroups with explicit conjugation
witnesses showing non-normality.  Every witness below is a triple
(g, s, g^-1 s g) with the conjugate landing outside the subgroup.
"""

from diffsets import (
    element_orders,
    fingerprint,
    mcfarland_even,
    mcfarland_even_witnesses,
    mcfarland_odd,
    mcfarland_odd_sylow,
    normality_witness,
    spence,
    spence_sylow3,
    transfer_pds,
)


def show_subgroup(group, sub, label: str) -> None:
    wit = normality_witness(group, sub)
    mem = sub.members.tolist()
    pair = next(((a, b) for a in mem for b in mem
                 if group.mul(a, b) != group.mul(b, a)), None)
    print(f"  {label}: order {sub.order}")
    if wit is not None:
        g, s, c = wit
        print(f"    not normal: {group.element_name(g)}^-1 "
              f"* {group.element_name(s)} * {group.element_name(g)} "
              f"= {group.element_name(c)}, outside the subgroup")
    if pair is not None:
        a, b = pair
        print(f"    nonabelian: {group.element_name(a)} and "
              f"{group.element_name(b)} do not commute")


def main() -> int:
    print("Spence family, d = 1:")
    rep = transfer_pds(spence(1))
    fp = fingerprint(rep.new_group)
    print(f"  DS{rep.verified.params} in a group of order {fp.order}, "
          f"abelian = {fp.is_abelian}")
    show_subgroup(rep.new_group, spence_sylow3(rep), "Sylow 3-subgroup")
    phi_a3 = rep.new_group.generators[-1]
    print(f"  twisted generator {rep.new_group.element_name(phi_a3)} "
          f"has order {element_orders(rep.new_group)[phi_a3]}")

    print()
    print("McFarland even family, d = 2, all three transfer variants:")
    for variant in (1, 2, 3):
        repv = transfer_pds(mcfarland_even(2, variant))
        fpv = fingerprint(repv.new_group)
        print(f"  variant {variant}: DS{repv.verified.params}, "
              f"order histogram {fpv.order_histogram}")
    q_sub, e_sub = mcfarland_even_witnesses(repv)
    show_subgroup(repv.new_group, q_sub, "lifted quaternion-side subgroup")
    show_subgroup(repv.new_group, e_sub, "lifted translation-side subgroup")

    print()
    print("McFarland odd family, q = 3, s = 2:")
    rep_odd = transfer_pds(mcfarland_odd(3, 2))
    print(f"  DS{rep_odd.verified.params} in a group of order "
          f"{rep_odd.new_group.size}")
    show_subgroup(rep_odd.new_group, mcfarland_odd_sylow(rep_odd),
                  "Sylow 3-subgroup")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
