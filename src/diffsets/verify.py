"""Difference-set verification by exact quotient counting.

The central object is the difference profile: for a k-subset D of a finite
group, count for every group element z the ordered pairs (d1, d2) of distinct
members with d1 * d2^(-1) = z.  A design claim is then a statement that this
profile is constant on the relevant slices of the group, and verification
never trusts a construction - it always recounts.

The count is a character sum (Pott, Finite Geometry and Character Theory,
LNM 1601; Ma, "A survey of partial difference sets", DCC 4, 1994): over an
abelian group it is the autocorrelation of the member indicator under the
block character transform of AbelianGroup, rounded under an exactness
guard (see _character_counts, which bounds the error by
c * k * sum(m_b) * 2^-53 over the blocks b).  Over an extension of an
abelian base each occupied automorphism slice is transformed once, an
automorphism phi acts on a spectrum by the dual map phi*, and the
dual-permuted products are summed per target automorphism part, so each
target takes one inverse transform.  The SRG cross-check counts products
with the same kernel - its own slice map on the left factor, its own
targets a1 a2 - when k^2 is large against the slices, and directly below
that.  Anything else, and any count the guard rejects, is counted directly
from the k^2 quotients or products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ForbiddenNotSubgroup,
    NotClosedUnderInverse,
    NotCoprime,
    NotSRG,
    ParameterError,
    ParameterMismatch,
)
from .groups import AbelianGroup, ExtensionGroup, Group, Subgroup, sorted_unique

KINDS = ("DS", "PDS", "RDS")
# Working set of the blocked loops: a direct count takes max(_BLOCK_ENTRIES, v)
# products at a time, so each block amortizes its O(v) bincount, and a slice
# sum max(1, _BLOCK_ENTRIES // n_b) targets per inverse transform.  2^14 int64
# entries (128 KiB) stay in L2 cache and below malloc's mmap threshold; at
# 2^21 the lifted denniston-even m=4 r=1 SRG row took 7.5 ms in a fresh
# process against 3.3 ms.
_BLOCK_ENTRIES = 1 << 14
# cayley_srg_check convolves when k^2 > _CONV_FACTOR * S * n_b (see there).
# Measured on 2 vCPUs, best of 5, convolution against direct count: below a
# ratio k^2 / (S n_b) of about 16 the direct count wins or ties
# (denniston-gr4 t=3 k=3 lifted, 10.7: 1.9 against 1.2 ms; mcfarland-odd
# q=3 s=2 and spence d=1 lifted, 12.1 and 15.1: ties), above it the
# convolution wins (denniston-even m=4 r=1 base, 17.8: 0.58 against 0.71 ms;
# denniston-odd p=3 t=1 lifted, 37: 7.6 against 88 ms).
_CONV_FACTOR = 16


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


def _direct_counts(group: Group, members: np.ndarray, product: bool = False) -> np.ndarray:
    """Quotient counts a * b^-1 (products a * b with product=True) over all
    k^2 ordered member pairs, from blocks of group.quotient_outer (mul_outer)."""
    k = len(members)
    outer = group.mul_outer if product else group.quotient_outer
    counts = np.zeros(group.size, dtype=np.int64)
    if k:
        block = max(1, max(_BLOCK_ENTRIES, group.size) // k)
        for lo in range(0, k, block):
            counts += np.bincount(outer(members[lo:lo + block], members).ravel(),
                                  minlength=group.size)
    return counts


def _character_counts(group: Group, members: np.ndarray,
                      product: bool = False) -> Optional[np.ndarray]:
    """The counts of _direct_counts as character sums, or None when the
    group has no abelian base or the exactness guard fails.

    Over an abelian group they are the inverse transform of F(S) conj(F(S))
    (quotients) or F(S)^2 (products), F the block character transform of the
    member indicator S.  Exactness: every count is at most k (Cauchy-Schwarz
    on 0/1 indicators), and a dense block matmul of length m loses O(m)
    units of 2^-53 relative to the norms it sums, an FFT O(log m), so each
    entry is off by at most c * k * sum(m_b) * 2^-53 over the blocks b.  With
    k <= v <= 2^20 (the group ceiling) there are at most five blocks, each
    a matmul of order <= BLOCK_ORDER or one FFT, so sum(m_b) <= 2^11 and the
    error stays below 1e-6 * c, far below 1/2 for the small constant c of a
    dense or radix sum; a slice sum adds products whose norms again total at
    most k.  Rounding
    therefore recovers the integer count; the guard re-checks that on the
    data: every residual under 0.25, no negative count, and the counts
    summing to k^2.
    """
    if isinstance(group, AbelianGroup):
        ind = np.zeros(group.size)
        ind[members] = 1.0
        spec = group.character_transform(ind)
        raw = group.character_transform(spec * (spec if product else spec.conj()),
                                        inverse=True)
        counts = _rounded(raw.real)
    elif isinstance(group, ExtensionGroup) and isinstance(group.base, AbelianGroup):
        counts = _slice_counts(group, members, product)
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


def _slice_counts(group: ExtensionGroup, members: np.ndarray,
                  product: bool = False) -> Optional[np.ndarray]:
    """Counts for an extension over an abelian base from the spectra of its
    slices S_a = {b : (a, b) in D}, one inverse transform per target
    automorphism part; None if a target fails to round.

    Quotients: (a1, b1)(a2, b2)^-1 = (a1 a2^-1, phi(b1 - b2)) with phi the
    automorphism a2^-1, so the count at (c, w) sums corr(phi S_a1, phi S_a2)[w]
    over a1 a2^-1 = c, whose spectrum is (F(S_a1) conj F(S_a2)) read at phi* k.
    Products: (a1, b1)(a2, b2) = (a1 a2, phi(b1) + b2) with phi = a2, so
    the count at (c, w) sums conv(phi S_a1, S_a2)[w] over a1 a2 = c, whose
    spectrum is F(S_a1)[phi* k] F(S_a2).
    """
    base = group.base
    nb = base.size
    slices, row = np.unique(group.aut_part[members], return_inverse=True)
    ind = np.zeros((slices.size, nb))
    ind[row, group.base_part[members]] = 1.0
    spec = base.character_transform(ind)
    right = spec if product else spec.conj()
    act = slices if product else group.aut_inv[slices]
    target = group.aut_mul[slices[:, None], act[None, :]]  # [slice of a1, slice of a2]
    # automorphism 0 of a closure is the identity, and so is its dual map
    duals = [None if a == 0 else group.aut_dual(a) for a in act.tolist()]
    out = np.zeros((group.aut_perms.shape[0], nb), dtype=np.int64)
    todo = sorted_unique(target)
    block = max(1, _BLOCK_ENTRIES // nb)
    for lo in range(0, todo.size, block):
        chunk = todo[lo:lo + block]
        acc = np.zeros((chunk.size, nb), dtype=complex)
        for r, c in enumerate(chunk.tolist()):
            # a1 is determined by c and a2, so each slice a2 occurs once
            for i1, i2 in zip(*np.nonzero(target == c)):
                psi = duals[i2]
                if product:
                    acc[r] += (spec[i1] if psi is None else spec[i1][psi]) * right[i2]
                else:
                    term = spec[i1] * right[i2]
                    acc[r] += term if psi is None else term[psi]
        cnt = _rounded(base.character_transform(acc, inverse=True).real)
        if cnt is None:
            return None
        out[chunk] = cnt
    # mass on a pair outside the closure would show as a short sum
    return out[group.aut_part, group.base_part]


@dataclass(frozen=True)
class VerifyResult:
    kind: str
    params: Tuple[int, ...]
    reversible: Optional[bool] = None  # DS: closed under inversion
    regular: Optional[bool] = None     # PDS: inverse-closed and identity-free


def _require(group: Group, counts: np.ndarray,
             regions: Sequence[Tuple[str, np.ndarray, int]]) -> None:
    """Raise ParameterMismatch naming each (label, mask, expected) region
    where a count differs from the expected one, with its first offenders."""
    problems = []
    for label, where, expected in regions:
        bad = np.nonzero(where & (counts != expected))[0]
        if bad.size:
            shown = ", ".join(
                f"{group.element_name(int(z))}: {int(counts[z])} (expected {expected})"
                for z in bad[:3])
            problems.append(f"{label}: {bad.size} offender(s); "
                            f"first {min(3, bad.size)}: {shown}")
    if problems:
        raise ParameterMismatch("; ".join(problems))


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
    _require(group, counts, [("quotient counts are not uniformly lambda", nonident, lam)])
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
    _require(group, counts, [("on-design counts", inside, lam),
                             ("off-design counts", outside, mu)])
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
    _require(group, counts, [("forbidden quotients occur", inside, 0),
                             ("outside counts", outside, lam)])
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
    row is counted from products, not quotients, with the slice map on the
    left factor, so this stays a code path independent of verify_pds.

    The row is a convolution of slice spectra (see _slice_counts) when
    k^2 > _CONV_FACTOR * S * n_b, S the occupied slices and n_b the base
    order (S = 1 and n_b = v over an abelian group), and otherwise, over a
    nested base or when the guard fails, a direct count of the k^2 products.
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

    common, spread = None, n
    if isinstance(group, ExtensionGroup):
        spread = sorted_unique(group.aut_part[members]).size * group.base.size
    if k * k > _CONV_FACTOR * spread:
        common = _character_counts(group, members, product=True)
    if common is None:
        common = _direct_counts(group, members, product=True)
    outside = ~mask
    outside[group.identity] = False
    lam_vals = sorted_unique(common[mask])
    mu_vals = sorted_unique(common[outside])
    if lam_vals.size > 1:
        raise NotSRG(f"adjacent common-neighbor counts vary: {lam_vals[:4].tolist()}")
    if mu_vals.size > 1:
        raise NotSRG(f"non-adjacent common-neighbor counts vary: {mu_vals[:4].tolist()}")
    lam = int(lam_vals[0]) if lam_vals.size else 0
    mu = int(mu_vals[0]) if mu_vals.size else 0
    return SrgResult(n, k, lam, mu, k == n - 1)
