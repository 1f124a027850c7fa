"""Two roads to the same strongly regular graph.

Denniston arcs give a (64,18,2,6) partial difference set in C2^6; the
Galois-ring construction gives one with the same parameters in C4^2 x C2.
Both transfer into nonabelian groups of order 64, and all four Cayley
graphs are (64,18,2,6) strongly regular — checked by an independent
identity-row common-neighbour count, not by the difference-count verifier.
"""

from diffsets import (
    cayley_srg_check,
    denniston_even,
    denniston_gr4,
    fingerprint,
    transfer_pds,
    verify_pds,
)
from diffsets.serialize import dot_text


def srg_line(label: str, design) -> None:
    params = verify_pds(design).params
    srg = cayley_srg_check(design)
    agree = "agree" if (srg.n, srg.k, srg.lam, srg.mu) == params else "DISAGREE"
    fp = fingerprint(design.group)
    flavor = "abelian" if fp.is_abelian else "nonabelian"
    print(f"  {label:28s} PDS{params} in {design.group!r} ({flavor})")
    print(f"  {'':28s} srg recount ({srg.n},{srg.k},{srg.lam},{srg.mu}) "
          f"-> {agree}")


def main() -> int:
    print("elementary-abelian route (arcs in a projective plane):")
    inst = denniston_even(2, 1)
    srg_line("base", inst.design)
    rep = transfer_pds(inst)
    srg_line("transferred", rep.new_design)

    print()
    print("Galois-ring route (Teichmuller-shifted hyperplane k-sets):")
    inst4 = denniston_gr4(2, 1)
    print(f"  construction log: {inst4.design.log[0]}")
    srg_line("base", inst4.design)
    rep4 = transfer_pds(inst4)
    srg_line("transferred", rep4.new_design)

    out = "denniston_64.dot"
    with open(out, "w") as fh:
        fh.write(dot_text(rep4.new_design))
    print()
    print(f"wrote the nonabelian Cayley graph to {out} "
          f"(render with: neato -Tpng {out} -o graph.png)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
