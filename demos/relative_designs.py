"""Relative difference sets: the forbidden subgroup travels too.

In a (16,4,16,4) relative difference set the quotients avoid a
designated order-4 subgroup U entirely and hit everything else exactly
four times.  The transfer machinery lifts both the design and U.  Variant 2
pairs the spread differently and its d = 2 case is genuinely obstructed:
the library refuses it with a proof-shaped message instead of emitting a
wrong design.
"""

from diffsets import (
    ReindexObstruction,
    element_orders,
    fingerprint,
    rds_base,
    rds_transfer,
    transfer_rds,
    verify_rds,
)


def main() -> int:
    base = rds_base(1)
    res = verify_rds(base)
    print(f"base: RDS{res.params} in {base.group!r}, forbidden subgroup "
          f"of order {base.forbidden.order}")

    for variant in (1, 2):
        rep = transfer_rds(rds_transfer(1, variant))
        fp = fingerprint(rep.new_group)
        orders = sorted(element_orders(rep.new_group)[rep.new_forbidden.members].tolist())
        print(f"variant {variant}: RDS{rep.verified.params} in a "
              f"{'nonabelian' if not fp.is_abelian else 'abelian'} group "
              f"of order {fp.order}")
        print(f"    lifted forbidden subgroup element orders: {orders}")

    print()
    print("variant 2 at d = 2:")
    try:
        rds_transfer(2, 2)
    except ReindexObstruction as err:
        print(f"    refused: {err}")
        print("    (the required spread re-indexing exists only at d = 1;")
        print("     a collineation cannot fix exactly 3 of the 17 lines)")
        return 0
    print("    unexpectedly succeeded")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
