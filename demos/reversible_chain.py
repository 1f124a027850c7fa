"""Walk a reversible difference set across three groups.

Start from the classical reversible (16,6,2) difference set in
C4 x C2 x C2, re-coordinatize it into the generalized dihedral group of
C4 x C2 (nonabelian), then push it forward into C8 x C2 where it is no
longer reversible.  Parameters survive every hop.
"""

from diffsets import (
    abelian_make,
    corollary_chain,
    dillon_fixture,
    fingerprint,
    verify_design,
)


def describe(label: str, design) -> None:
    res = verify_design(design)
    fp = fingerprint(design.group)
    flavor = "abelian" if fp.is_abelian else "nonabelian"
    print(f"{label}: {res.kind}{res.params} in {design.group!r} "
          f"({flavor}, exponent {fp.exponent})")
    print(f"    members = {tuple(design.members.tolist())}")
    print(f"    reversible (closed under inversion): {res.reversible}")


def main() -> int:
    design, x_sub = dillon_fixture()
    describe("start ", design)
    print(f"    index-2 subgroup X of order {x_sub.order} "
          f"(members {tuple(x_sub.members.tolist())})")

    chain = corollary_chain(design, x_sub, abelian_make((8, 2)))

    print()
    print("transfer into the generalized dihedral group of X:")
    for line in chain.report.condition_lines():
        print(f"    {line}")
    describe("middle", chain.dihedral_design)

    print()
    print("push forward into an abelian group containing X with index 2:")
    describe("end   ", chain.final_design)
    print()
    print("same parameters three times; reversibility held through the")
    print("dihedral hop and was destroyed by the final one, as it must be:")
    print("an element of order 8 cannot pair with its inverse symmetrically.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
