"""Difference-set verification by exact quotient counting.

The central object is the difference profile: for a k-subset D of a finite
group, count for every group element z the ordered pairs (d1, d2) of distinct
members with d1 * d2^(-1) = z.  A design claim is then a statement that this
profile is constant on the relevant slices of the group, and verification
never trusts a construction - it always recounts.

The count is a character sum (Pott, Finite Geometry and Character Theory,
LNM 1601): over an abelian group it is the autocorrelation of the member
indicator, computed with an FFT and rounded under an exactness guard.
Extensions over an abelian base are counted slice by slice the same way;
anything else, and any count the guard rejects, is counted directly from
the k^2 quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ForbiddenNotSubgroup,
    NotClosedUnderInverse,
    NotCoprime,
    NotSRG,
    ParameterError,
    ParameterMismatch,
)
from .groups import AbelianGroup, ExtensionGroup, Group, Subgroup

KINDS = ("DS", "PDS", "RDS")
_BLOCK_ENTRIES = 1 << 21


@dataclass
class DesignSet:
    """A candidate design: member indices in a group plus the claimed
    parameter tuple ((v,k,lambda) for DS, (v,k,lambda,mu) for PDS,
    (m,u,k,lambda) for RDS with forbidden subgroup U)."""

    group: Group
    members: Tuple[int, ...]
    kind: str
    claimed: Tuple[int, ...]
    forbidden: Optional[Subgroup] = None
    log: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"design kind must be one of {KINDS}, got {self.kind!r}")
        members = tuple(int(x) for x in self.members)
        if len(set(members)) != len(members):
            raise ParameterError("design members must be distinct")
        for x in members:
            if not 0 <= x < self.group.size:
                raise ParameterError(f"member index {x} out of range")
        self.members = tuple(sorted(members))
        want = 4 if self.kind in ("PDS", "RDS") else 3
        self.claimed = tuple(int(x) for x in self.claimed)
        if len(self.claimed) != want:
            raise ParameterError(
                f"{self.kind} parameter tuple needs {want} entries, got {self.claimed}")
        if self.kind == "RDS" and self.forbidden is None:
            raise ParameterError("an RDS needs its forbidden subgroup")

    @property
    def size(self) -> int:
        return len(self.members)

    def member_mask(self) -> np.ndarray:
        mask = np.zeros(self.group.size, dtype=bool)
        mask[list(self.members)] = True
        return mask

    def is_inverse_closed(self) -> bool:
        arr = np.array(self.members, dtype=np.int64)
        return set(self.group.inv_many(arr).tolist()) == set(self.members)


def difference_profile(design: DesignSet) -> np.ndarray:
    """Count quotients d1 * d2^(-1) over ordered pairs of distinct members;
    the counts sum to k^2 - k."""
    group = design.group
    members = np.array(design.members, dtype=np.int64)
    counts = _character_counts(group, members)
    if counts is None:
        counts = _direct_counts(group, members)
    counts[group.identity] -= len(members)
    return counts


def _direct_counts(group: Group, members: np.ndarray) -> np.ndarray:
    """Quotient counts over all k^2 ordered member pairs, from blocks of
    group.quotient_outer."""
    k = len(members)
    counts = np.zeros(group.size, dtype=np.int64)
    if k:
        block = max(1, _BLOCK_ENTRIES // k)
        for lo in range(0, k, block):
            q = group.quotient_outer(members[lo:lo + block], members)
            counts += np.bincount(q.ravel(), minlength=group.size)
    return counts


def _character_counts(group: Group, members: np.ndarray) -> Optional[np.ndarray]:
    """Quotient counts over all k^2 ordered member pairs as FFT
    autocorrelations, or None when the group has no abelian base or the
    exactness guard fails.

    Exactness: a forward and inverse FFT of length v lose O(log2 v) units
    of 2^-53 relative to the input norm, and every correlation entry is
    bounded by ||f||_2^2 <= k for 0/1 indicators f, so each entry is off by
    at most c * k * log2(v) * 2^-53, about 5e-9 * c for k, v <= 2^21 (the
    group and pair-table ceilings) - far below 1/2 for the small constant c
    of a radix FFT.  Rounding therefore recovers the integer count; the
    guard re-checks that on the data: every residual under 0.25, no
    negative count, and the counts summing to k^2.
    """
    if isinstance(group, AbelianGroup):
        shape = tuple(reversed(group.orders))
        ind = np.zeros(group.size)
        ind[members] = 1.0
        spec = np.fft.rfftn(ind.reshape(shape))
        raw = np.fft.irfftn(spec * spec.conj(), s=shape, axes=range(len(shape)))
        counts = _rounded(raw.ravel())
    elif isinstance(group, ExtensionGroup) and isinstance(group.base, AbelianGroup):
        counts = _slice_counts(group, members)
    else:
        return None
    if counts is None or int(counts.sum()) != len(members) ** 2:
        return None
    return counts


def _rounded(raw: np.ndarray) -> Optional[np.ndarray]:
    """raw rounded to integers, or None if a residual reaches 0.25 or a
    rounded count is negative."""
    counts = np.rint(raw)
    if np.abs(raw - counts).max() >= 0.25 or counts.min() < 0:
        return None
    return counts.astype(np.int64)


def _slice_counts(group: ExtensionGroup, members: np.ndarray) -> Optional[np.ndarray]:
    """Counts for an extension over an abelian base, one correlation per
    pair of automorphism slices; None if a correlation fails to round.

    With S_a = {b : (a, b) in D},
    (a1, b1)(a2, b2)^-1 = (a1 a2^-1, (b1 - b2)^(a2^-1)), so the base-group
    correlation corr(S_a1, S_a2)[w] = #{b1 - b2 = w} is the count at the
    pair (a1 a2^-1, w^(a2^-1)), the convention of quotient_outer.
    """
    base = group.base
    nb = base.size
    shape = tuple(reversed(base.orders))
    axes = tuple(range(1, len(shape) + 1))
    slices, row = np.unique(group.aut_part[members], return_inverse=True)
    ind = np.zeros((slices.size, nb))
    ind[row, group.base_part[members]] = 1.0
    spec = np.fft.rfftn(ind.reshape((slices.size,) + shape), axes=axes)
    acc = np.zeros((group.aut_perms.shape[0], nb), dtype=np.int64)
    block = max(1, _BLOCK_ENTRIES // nb)
    for j, a2 in enumerate(slices.tolist()):
        ai2 = int(group.aut_inv[a2])
        perm = group.aut_perms[ai2]
        for lo in range(0, slices.size, block):
            part = spec[lo:lo + block]
            raw = np.fft.irfftn(part * spec[j].conj(), s=shape, axes=axes)
            cnt = _rounded(raw.reshape(part.shape[0], nb))
            if cnt is None:
                return None
            # a1 -> a1 a2^-1 and w -> w^(a2^-1) are bijections, so the
            # targets of one block are distinct
            target = group.aut_mul[slices[lo:lo + block], ai2]
            acc[target[:, None], perm[None, :]] += cnt
    # mass on a pair outside the closure would show as a short sum
    return acc[group.aut_part, group.base_part]


@dataclass(frozen=True)
class VerifyResult:
    kind: str
    params: Tuple[int, ...]
    reversible: Optional[bool] = None  # DS: closed under inversion
    regular: Optional[bool] = None     # PDS: inverse-closed and identity-free


def _offenders(group: Group, counts: np.ndarray, where: np.ndarray,
               expected: int, limit: int = 3) -> str:
    bad = np.nonzero(where & (counts != expected))[0]
    shown = ", ".join(
        f"{group.element_name(int(z))}: {int(counts[z])} (expected {expected})"
        for z in bad[:limit])
    return f"{bad.size} offender(s); first {min(limit, bad.size)}: {shown}"


def verify_ds(design: DesignSet) -> VerifyResult:
    """Check a (v,k,lambda) difference-set claim; every nonidentity element
    must occur exactly lambda times among distinct-pair quotients."""
    v, k, lam = design.claimed
    group = design.group
    if group.size != v:
        raise ParameterMismatch(f"group order {group.size} != claimed v = {v}")
    if design.size != k:
        raise ParameterMismatch(f"design size {design.size} != claimed k = {k}")
    counts = difference_profile(design)
    nonident = np.ones(group.size, dtype=bool)
    nonident[group.identity] = False
    if np.any(counts[nonident] != lam):
        raise ParameterMismatch(
            "quotient counts are not uniformly lambda: "
            + _offenders(group, counts, nonident, lam))
    return VerifyResult("DS", (v, k, lam), reversible=design.is_inverse_closed())


def verify_pds(design: DesignSet, require_regular: bool = False) -> VerifyResult:
    """Check a (v,k,lambda,mu) claim: lambda on the design, mu outside it,
    with the identity exempt on both sides."""
    v, k, lam, mu = design.claimed
    group = design.group
    if group.size != v:
        raise ParameterMismatch(f"group order {group.size} != claimed v = {v}")
    if design.size != k:
        raise ParameterMismatch(f"design size {design.size} != claimed k = {k}")
    mask = design.member_mask()
    regular = (not mask[group.identity]) and design.is_inverse_closed()
    if require_regular and not regular:
        if mask[group.identity]:
            raise NotClosedUnderInverse("regularity requested but the design contains the identity")
        raise NotClosedUnderInverse("regularity requested but the design is not inverse-closed")
    counts = difference_profile(design)
    inside = mask.copy()
    inside[group.identity] = False
    outside = ~mask
    outside[group.identity] = False
    problems = []
    if np.any(counts[inside] != lam):
        problems.append("on-design counts: " + _offenders(group, counts, inside, lam))
    if np.any(counts[outside] != mu):
        problems.append("off-design counts: " + _offenders(group, counts, outside, mu))
    if problems:
        raise ParameterMismatch("; ".join(problems))
    return VerifyResult("PDS", (v, k, lam, mu), regular=regular)


def _check_subgroup(group: Group, sub: Subgroup) -> None:
    if sub.parent is not group:
        raise ForbiddenNotSubgroup("forbidden subgroup belongs to a different group")
    members = np.array(sub.members, dtype=np.int64)
    if not sub.mask[group.identity]:
        raise ForbiddenNotSubgroup("forbidden set does not contain the identity")
    if not sub.mask[group.inv_many(members)].all():
        raise ForbiddenNotSubgroup("forbidden set is not closed under inversion")
    prods = group.quotient_outer(members, members)
    if not sub.mask[prods].all():
        raise ForbiddenNotSubgroup("forbidden set is not closed under the group operation")


def verify_rds(design: DesignSet) -> VerifyResult:
    """Check an (m,u,k,lambda) relative claim: quotients avoid the forbidden
    subgroup entirely and hit everything else exactly lambda times."""
    m, u, k, lam = design.claimed
    group = design.group
    sub = design.forbidden
    assert sub is not None
    _check_subgroup(group, sub)
    if sub.order != u:
        raise ParameterMismatch(f"forbidden subgroup order {sub.order} != claimed u = {u}")
    if group.size != m * u:
        raise ParameterMismatch(f"group order {group.size} != claimed m*u = {m * u}")
    if design.size != k:
        raise ParameterMismatch(f"design size {design.size} != claimed k = {k}")
    counts = difference_profile(design)
    inside = sub.mask.copy()
    inside[group.identity] = False
    outside = ~sub.mask
    problems = []
    if np.any(counts[inside] != 0):
        problems.append("forbidden quotients occur: " + _offenders(group, counts, inside, 0))
    if np.any(counts[outside] != lam):
        problems.append("outside counts: " + _offenders(group, counts, outside, lam))
    if problems:
        raise ParameterMismatch("; ".join(problems))
    return VerifyResult("RDS", (m, u, k, lam))


def verify_design(design: DesignSet) -> VerifyResult:
    if design.kind == "DS":
        return verify_ds(design)
    if design.kind == "PDS":
        return verify_pds(design)
    return verify_rds(design)


def multiplier_check(design: DesignSet, m: int) -> bool:
    """Does raising every member to the m-th power fix the design setwise?"""
    group = design.group
    if not isinstance(group, AbelianGroup):
        raise ParameterError("multiplier checks are defined here only for abelian groups")
    if gcd(m, group.size) != 1:
        raise NotCoprime(f"multiplier {m} shares a factor with the group order {group.size}")
    powered = group.pow_many(np.array(design.members, dtype=np.int64), m)
    return set(powered.tolist()) == set(design.members)


# ---------------------------------------------------------------------------
# strongly regular graph cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SrgResult:
    n: int
    k: int
    lam: int
    mu: int
    degenerate_complete: bool


def cayley_srg_check(design: DesignSet) -> SrgResult:
    """Measure strong regularity of the quotient graph u ~ v iff u v^-1 in D.

    Right translations x -> x g preserve adjacency and act transitively on
    the vertices, so the identity's row decides strong regularity: the
    common neighbours of 1 and w number #{(a, b) in D x D : a b = w}.  That
    row is counted from products, not quotients, so this stays a code path
    independent of verify_pds.
    """
    group = design.group
    n = group.size
    mask = design.member_mask()
    if mask[group.identity]:
        raise NotClosedUnderInverse("graph check needs an identity-free connection set")
    if not design.is_inverse_closed():
        raise NotClosedUnderInverse("graph check needs an inverse-closed connection set")
    members = np.array(design.members, dtype=np.int64)
    k = len(members)

    common = np.zeros(n, dtype=np.int64)
    if k:
        block = max(1, _BLOCK_ENTRIES // k)
        for lo in range(0, k, block):
            prods = group.mul_outer(members[lo:lo + block], members)
            common += np.bincount(prods.ravel(), minlength=n)
    outside = ~mask
    outside[group.identity] = False
    lam_vals = np.unique(common[mask])
    mu_vals = np.unique(common[outside])
    if lam_vals.size > 1:
        raise NotSRG(f"adjacent common-neighbor counts vary: {lam_vals[:4].tolist()}")
    if mu_vals.size > 1:
        raise NotSRG(f"non-adjacent common-neighbor counts vary: {mu_vals[:4].tolist()}")
    lam = int(lam_vals[0]) if lam_vals.size else 0
    mu = int(mu_vals[0]) if mu_vals.size else 0
    return SrgResult(n, k, lam, mu, k == n - 1)
