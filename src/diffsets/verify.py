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
guard (see _character_counts).  Over an extension of an abelian base the
slices S_a = {b : (a, b) in D} are moved by the automorphism parts before
they are transformed, and rows are merged wherever the data allow (see
_slice_counts): targets with disjoint fibres share one inverse row,
columns with equal left factors share one product, and equal rows one
forward transform.  A design fixed by its automorphism parts over a regular
closure, as every transfer output is, takes one forward row and one inverse
row.  The SRG cross-check counts products with the same kernel - its own
slice map on the left factor, its own targets a1 a2 - when k^2 is large
against the slices, and directly below that.  Anything else, and any count
the guard rejects, is counted directly from the k^2 quotients or products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

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
# count max(1, _BLOCK_ENTRIES // n_b) target ranks per inverse transform.
# 2^14 int64 entries (128 KiB) stay in L2 cache and below malloc's mmap
# threshold; at 2^21 the lifted denniston-even m=4 r=1 SRG row took 7.5 ms in
# a fresh process against 3.3 ms.
_BLOCK_ENTRIES = 1 << 14
# cayley_srg_check convolves when k^2 > _CONV_FACTOR * S * n_b (see there).
# Measured on 2 vCPUs, best of 5, convolution against direct count, the
# merged-row kernel wins at every calibration ratio k^2 / (S n_b):
# denniston-gr4 t=3 k=3 lifted, 10.7: 0.45 against 0.75 ms; mcfarland-odd
# q=3 s=2 and spence d=1 lifted, 12.1 and 15.1: 0.16 against 0.27 and 0.29 ms;
# denniston-even m=4 r=1 base, 17.8: 0.49 against 0.55 ms; denniston-odd
# p=3 t=1 lifted, 37: 4.8 against 59 ms.  The rule keeps its earlier value.
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
    member indicator S.  Exactness: every transformed row is a multiset of
    total mass at most k (the indicator here, a merged row in _slice_counts,
    whose left rows are sets and whose right rows of one rank hold each
    member once), so |F| <= k.  A dense block matmul of length m loses O(m)
    units of 2^-53 relative to the norms it sums, an FFT O(log m), and by
    Parseval and Cauchy-Schwarz the products of one inverse row have norms
    totalling sum ||L||_2 ||R||_2 <= k^1.5, so each count is off by at most
    c * k^1.5 * sum(m_b) * 2^-53 over the blocks b.  With k <= v <= 2^20 (the
    group ceiling) there are at most five blocks, each a matmul of order
    <= BLOCK_ORDER or one FFT, so sum(m_b) <= 2^11 and the error stays below
    3e-4 * c, far below 1/2 for the small constant c of a dense or radix sum.
    Rounding therefore recovers the integer count; the guard re-checks that
    on the data: every residual under 0.25, no negative count, and the counts
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
    """Counts for an extension over an abelian base from merged rows of the
    slices S_a = {b : (a, b) in D}; None if a row fails to round.

    Quotients: (a1, b1)(a2, b2)^-1 = (a1 a2^-1, phi(b1 - b2)) with phi the
    automorphism a2^-1, so the count at (c, w) sums corr(phi S_a1, phi S_a2)[w]
    over the columns a2, a1 = c a2.  Products: (a1, b1)(a2, b2) =
    (a1 a2, phi(b1) + b2) with phi = a2 sums conv(phi S_a1, S_a2)[w], a1 = c a2^-1.

    Target c's counts lie on its fibre {w : (c, w) in G}, a kernel coset;
    two fibres agree iff the parts share a coset H c of the stabiliser
    H = {h : (h, 1) in G}.  c's rank is the position in H of the h with h c
    least in H c, so targets of one rank have disjoint fibres and share an
    inverse row.  Per rank, a column's left factors merge into the set
    L = phi(union of its S_a1), and columns with equal L add their right
    factors, as F(L) conj F(R1) + F(L) conj F(R2) = F(L) conj F(R1 + R2).
    """
    base, nb = group.base, group.base.size
    parts, b = group.aut_part[members], group.base_part[members]
    slices = sorted_unique(parts)
    s, col = slices.size, np.searchsorted(slices, parts)
    act = slices if product else group.aut_inv[slices]
    stab = np.flatnonzero(group.pair_index[::nb] >= 0)
    rank = group.aut_mul[stab].argmin(axis=0)
    # member j against column c: the rank of its target and phi_c(b_j)
    tr = rank[group.aut_mul[parts[:, None], act]]
    moved = group.aut_perms[act, b[:, None]]
    right = b if product else moved[np.arange(b.size), col]
    out = np.zeros((stab.size, nb), dtype=np.int64)
    per = max(1, _BLOCK_ENTRIES // nb)  # ranks per inverse transform
    for lo in (sorted_unique(tr // per) * per).tolist():
        inb, nr = (tr >= lo) & (tr < lo + per), min(per, stab.size - lo)
        left = np.zeros((nr * s, nb), dtype=bool)  # row (rank - lo) * s + column
        left[((tr - lo) * s + np.arange(s))[inb], moved[inb]] = True
        keys = np.flatnonzero(left.any(axis=1)).tolist()
        # equal L rows share an id; one merged row per (rank, L id) gathers
        # the right factors of its columns
        lefts: Dict[bytes, Tuple[int, int]] = {}
        merged: Dict[Tuple[int, int], int] = {}
        where = np.full((nr, s), -1)
        for key, packed in zip(keys, np.packbits(left[keys], axis=1)):
            lid = lefts.setdefault(packed.tobytes(), (len(lefts), key))[0]
            where[key // s, key % s] = merged.setdefault((key // s, lid), len(merged))
        row = where[:, col]
        gathered = np.bincount((row * nb + right)[row >= 0], minlength=len(merged) * nb)
        rows = np.concatenate([left[[key for _, key in lefts.values()]], gathered.reshape(-1, nb)])
        # one forward row per distinct row: a transfer output's L is its merged row
        distinct: Dict[bytes, Tuple[int, int]] = {}
        ids = [distinct.setdefault(r.tobytes(), (len(distinct), i))[0] for i, r in enumerate(rows)]
        spec = base.character_transform(rows[[i for _, i in distinct.values()]])[ids]
        rspec = spec[len(lefts):] if product else spec[len(lefts):].conj()
        ranks = np.array([r for r, _ in merged])
        present = sorted_unique(ranks)
        acc = (ranks == present[:, None]) @ (spec[[lid for _, lid in merged]] * rspec)
        cnt = _rounded(base.character_transform(acc, inverse=True).real)
        if cnt is None:
            return None
        out[lo + present] = cnt
    # mass on a pair outside the closure would show as a short sum
    return out[rank[group.aut_part], group.base_part]


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
