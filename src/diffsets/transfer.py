"""Lifting designs along group extensions.

Given a design D in a group G, a set of design-preserving automorphisms, and
candidate generators written as (automorphism word, base element) pairs, we
close them up inside Aut(G) x G and test three conditions:

  (i)   the closure has the same order as G,
  (ii)  the slice X of pure translations is normal in both G and the closure,
  (iii) the closure acts transitively on the right cosets of X in G, where
        (phi, g) sends the coset X*h to X*(h^phi * g).

X is normal in the closure as the kernel of (a, b) -> a; in G it is tested on
its Schreier generators, the base parts of t_a s t_(as)^-1 over the closure's
generators s, t_a the first element of automorphism part a.  With B the base
parts, (phi, b) sends X to X*b and B*X lies in B; so under (ii) (iii) holds
iff B = G, which under (i) makes the base-part projection a bijection.

When all three hold, the pullback of D along it is a design in the closure of
D's size with the same parameters - and we recount to prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ClosureOverflow,
    ConditionsFailed,
    DesignNotFixed,
    ParameterError,
    ParameterMismatch,
)
from .groups import (
    ExtensionGroup,
    GroupAutomorphism,
    Subgroup,
    extension_closure,
    normality_witness,
    sorted_unique,
)
from .verify import DesignSet, VerifyResult, forbidden_subgroup, verify_design

GenWord = Tuple[Tuple[int, ...], int]


@dataclass
class TransferInstance:
    """Everything needed to attempt one lift: the source design, the
    automorphisms (already certified), and the candidate generators."""

    design: DesignSet
    aut_gens: List[GroupAutomorphism]
    candidate_gens: List[GenWord]
    log: List[str] = field(default_factory=list)


def make_instance(design: DesignSet,
                  aut_gens: Sequence[GroupAutomorphism],
                  candidate_gens: Sequence[GenWord],
                  log: Optional[List[str]] = None) -> TransferInstance:
    """Bundle an instance, eagerly rejecting automorphisms that move the
    design (or, for a relative design, its forbidden subgroup), and
    candidate words or base elements out of range (ParameterError)."""
    group = design.group
    # a permutation fixes a set iff it maps every member into it
    for i, aut in enumerate(aut_gens):
        if aut.group is not group:
            raise DesignNotFixed(f"automorphism {i} acts on a different group")
        image = aut.perm[design.members]
        if not design.mask[image].all():
            moved = np.sort(image[~design.mask[image]])[:3].tolist()
            raise DesignNotFixed(
                f"automorphism {i} does not fix the design; image gains "
                + ", ".join(group.element_name(z) for z in moved))
        forbidden = design.forbidden
        if forbidden is not None and not forbidden.mask[aut.perm[forbidden.members]].all():
            raise DesignNotFixed(f"automorphism {i} does not fix the forbidden subgroup")
    for word, base in candidate_gens:
        for a in word:
            if not 0 <= a < len(aut_gens):
                raise ParameterError(f"candidate word refers to automorphism {a}, "
                                     f"but only {len(aut_gens)} were given")
        if not 0 <= base < group.size:
            raise ParameterError(f"candidate base element {base} out of range")
    return TransferInstance(design, list(aut_gens), list(candidate_gens),
                            list(log or ()))


@dataclass
class TransferReport:
    instance: TransferInstance
    new_group: Optional[ExtensionGroup]
    x_subgroup: Optional[Subgroup]
    cond_i: Optional[bool]
    cond_ii: Optional[bool]
    cond_iii: Optional[bool]
    witnesses: dict
    new_design: Optional[DesignSet] = None
    new_forbidden: Optional[Subgroup] = None
    verified: Optional[VerifyResult] = None

    @property
    def all_pass(self) -> bool:
        return bool(self.cond_i and self.cond_ii and self.cond_iii)

    def condition_lines(self) -> List[str]:
        lines = []
        for name, val in (("i", self.cond_i), ("ii", self.cond_ii), ("iii", self.cond_iii)):
            status = "pass" if val else ("fail" if val is not None else "skipped")
            line = f"condition ({name}): {status}"
            if name in self.witnesses:
                line += f" [{self.witnesses[name]}]"
            lines.append(line)
        return lines


def check_conditions(inst: TransferInstance) -> TransferReport:
    group = inst.design.group
    witnesses: dict = {}
    try:
        # (i) needs only to know that the closure exceeds |G|
        closure = extension_closure(group, inst.aut_gens, inst.candidate_gens, cap=group.size)
    except ClosureOverflow as exc:
        witnesses["i"] = str(exc)
        return TransferReport(inst, None, None, False, None, None, witnesses)

    cond_i = closure.size == group.size
    if not cond_i:
        witnesses["i"] = f"closure has order {closure.size}, base group {group.size}"
        return TransferReport(inst, closure, None, False, None, None, witnesses)

    # X: base parts of the pure-translation slice, generated by those of t_a s t_(as)^-1
    x_members = np.sort(closure.base_part[closure.aut_part == 0])
    auts, first = np.unique(closure.aut_part, return_index=True)
    ts = closure.mul_outer(first, closure.generators).ravel()
    t_as = first[np.searchsorted(auts, closure.aut_part[ts])]
    schreier = closure.base_part[closure.mul_many(ts, closure.inv_many(t_as))]
    x_sub = Subgroup(group, x_members, tuple(sorted_unique(schreier).tolist()))

    # (ii) in the closure holds: 1xX is the kernel of the projection (a, b) -> a
    wit = normality_witness(group, x_sub)
    cond_ii = wit is None
    if wit is not None:
        g, s, c = wit
        witnesses["ii"] = (f"X is not normal in the base group: "
                           f"{group.element_name(g)}^-1 * {group.element_name(s)} * "
                           f"{group.element_name(g)} = {group.element_name(c)}")

    # (iii): B = G; the least element outside B is an unreached coset's rep
    reached = np.zeros(group.size, dtype=bool)
    reached[closure.base_part] = True
    cond_iii = bool(reached.all())
    if not cond_iii:
        witnesses["iii"] = (f"coset action reaches {np.count_nonzero(reached) // x_sub.order} "
                            f"of {group.size // x_sub.order} cosets; coset of "
                            f"{group.element_name(int(np.argmin(reached)))} is unreached")

    return TransferReport(inst, closure, x_sub, cond_i, cond_ii, cond_iii, witnesses)


def transfer_design(inst: TransferInstance) -> TransferReport:
    """Run the conditions and, if they pass, lift and re-verify the design."""
    report = check_conditions(inst)
    if not report.all_pass:
        raise ConditionsFailed("; ".join(report.condition_lines()))
    closure = report.new_group
    assert closure is not None
    # the base-part projection is a bijection, so each pullback has its image's
    # size; every closure automorphism fixes U, as make_instance checked its
    # generators, so the base part of a product of U's pullbacks lies in U:
    # that pullback is a subgroup of order |U|, and its span only names generators
    design = inst.design
    forbidden = None
    if design.kind == "RDS":
        assert design.forbidden is not None
        forbidden = forbidden_subgroup(closure,
                                       np.flatnonzero(design.forbidden.mask[closure.base_part]))
    report.new_design = DesignSet(closure, np.flatnonzero(design.mask[closure.base_part]),
                                  design.kind, design.claimed, forbidden=forbidden,
                                  log=list(design.log))
    report.new_forbidden = forbidden
    report.verified = verify_design(report.new_design)  # the claimed parameters, or it raises
    return report


def transfer_pds(inst: TransferInstance) -> TransferReport:
    if inst.design.kind not in ("DS", "PDS"):
        raise ParameterMismatch(f"expected a DS or PDS instance, got {inst.design.kind}")
    return transfer_design(inst)


def transfer_rds(inst: TransferInstance) -> TransferReport:
    if inst.design.kind != "RDS":
        raise ParameterMismatch(f"expected an RDS instance, got {inst.design.kind}")
    return transfer_design(inst)
