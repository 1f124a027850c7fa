"""Difference-set verification by exact quotient counting.

The central object is the difference profile: for a k-subset D of a finite
group, count for every group element z the ordered pairs (d1, d2) of distinct
members with d1 * d2^(-1) = z.  A design claim is then a statement that this
profile is constant on the relevant slices of the group, and verification
never trusts a construction - it always recounts.

The count is a character sum (Pott, Finite Geometry and Character Theory,
LNM 1601; Ma, "A survey of partial difference sets", DCC 4, 1994): over an
abelian group the autocorrelation of the member indicator under the block
character transform of AbelianGroup.  Any other group is a tower of
extensions over an abelian bottom group, and the members' bottoms are moved
by their automorphism parts before they are transformed, in merged rows (see
_slice_counts): a transfer output takes one forward row and one inverse row.
The SRG cross-check counts products with the same kernel.  One exactness
guard rounds the counts (see _counts), and a count it rejects is counted
directly, from the k^2 quotients or products.

A design's members, like a subgroup's, are one sorted, read-only int64 array
with a read-only mask over the group (groups.element_set), so every check
indexes them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
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
from .groups import (AbelianGroup, Group, Subgroup, element_set, greedy_span, group_levels,
                     sorted_unique, tower_has, tower_walk)

KINDS = ("DS", "PDS", "RDS")
# Working set of the blocked loops: a direct count takes max(_BLOCK_ENTRIES, v)
# products at a time, so each block amortizes its O(v) bincount, and a slice
# count max(1, _BLOCK_ENTRIES // n_b) target ranks per inverse transform.
# 2^14 int64 entries (128 KiB) stay in L2 cache and below malloc's mmap
# threshold; at 2^21 the lifted denniston-even m=4 r=1 SRG row took 7.5 ms in
# a fresh process against 3.3 ms.
_BLOCK_ENTRIES = 1 << 14


@dataclass(eq=False)
class DesignSet:
    """A candidate design: member indices in a group plus the claimed
    parameter tuple ((v,k,lambda) for DS, (v,k,lambda,mu) for PDS,
    (m,u,k,lambda) for RDS with forbidden subgroup U).  The members are kept
    as a sorted, read-only int64 array with a read-only mask over the group
    (groups.element_set)."""

    group: Group
    members: np.ndarray
    kind: str
    claimed: Tuple[int, ...]
    forbidden: Optional[Subgroup] = None
    log: List[str] = field(default_factory=list)
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"design kind must be one of {KINDS}, got {self.kind!r}")
        self.members, self.mask = element_set(self.group, self.members, "design")
        want = 4 if self.kind in ("PDS", "RDS") else 3
        self.claimed = tuple(int(x) for x in self.claimed)
        if len(self.claimed) != want:
            raise ParameterError(
                f"{self.kind} parameter tuple needs {want} entries, got {self.claimed}")
        if self.kind == "RDS" and self.forbidden is None:
            raise ParameterError("an RDS needs its forbidden subgroup")
        if self.kind != "RDS" and self.forbidden is not None:
            raise ParameterError(f"a {self.kind} has no forbidden subgroup; only an RDS takes one")

    @property
    def size(self) -> int:
        return self.members.size

    def is_inverse_closed(self) -> bool:
        # the members are distinct and inversion is a bijection
        return bool(self.mask[self.group.inv_many(self.members)].all())


def difference_profile(design: DesignSet) -> np.ndarray:
    """Count quotients d1 * d2^(-1) over ordered pairs of distinct members;
    the counts sum to k^2 - k."""
    group = design.group
    counts = _counts(group, design.members)
    counts[group.identity] -= design.size
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


def _counts(group: Group, members: np.ndarray, product: bool = False) -> np.ndarray:
    """The counts of _direct_counts as character sums, rounded under one
    exactness guard, or the direct counts where the guard rejects them.

    Over an abelian group they are the inverse transform of F(S) conj(F(S))
    (quotients) or F(S)^2 (products), F the block character transform of the
    member indicator S; over any other group see _slice_counts.  Exactness:
    every transformed row is a multiset of total mass at most k (the
    indicator here, a merged row in _slice_counts, whose left rows are sets
    and whose right rows of one rank hold each member once), so |F| <= k.  A
    dense block matmul of length m loses O(m) units of 2^-53 relative to the
    norms it sums, an FFT O(log m), and by Parseval and Cauchy-Schwarz the
    products of one inverse row have norms totalling sum ||L||_2 ||R||_2 <=
    k^1.5, so each count is off by at most c * k^1.5 * sum(m_b) * 2^-53 over
    the blocks b.  With k <= v <= 2^20 (the group ceiling) the blocks, each
    a matmul of order <= BLOCK_ORDER or one FFT, have orders multiplying to at
    most v, so sum(m_b) <= 2^11 and the error stays below 3e-4 * c, far below
    1/2 for the small constant c of a dense or radix sum.  Rounding therefore
    recovers the integer count; the guard re-checks that on the counts
    returned: every residual under 0.25, no negative count, and the counts
    summing to k^2.
    """
    if isinstance(group, AbelianGroup):
        ind = np.zeros(group.size)
        ind[members] = 1.0
        spec = group.character_transform(ind)
        raw = group.character_transform(spec * (spec if product else spec.conj()),
                                        inverse=True).real
    else:
        raw = _slice_counts(group, members, product)
    counts = np.rint(raw)
    # each clause is false on a NaN
    if (np.abs(raw - counts).max() < 0.25 and counts.min() >= 0
            and counts.sum() == len(members) ** 2):
        return counts.astype(np.int64)
    return _direct_counts(group, members, product)


def _slice_counts(group: Group, members: np.ndarray, product: bool = False) -> np.ndarray:
    """Unrounded counts over a tower of extensions of an abelian bottom group
    B from merged rows of the slices {beta(x) : x in D, tau(x) = t}.

    Each element x has a top tau(x), its automorphism parts, and a bottom
    beta(x) in B.  Level by level (see groups.tower_walk), beta(x y) =
    Lambda_c(x) + beta(y), and tau(x y) depends on y only through c = tau(y).
    So products x y sum conv(Lambda_c S, S_c) over the columns c, S_c the
    bottoms of the members y with tau(y) = c, and quotients x y^-1, with
    c = tau(y^-1) and beta(y^-1) = -Lambda_c(y), sum corr(Lambda_c S,
    Lambda_c S_c).

    Target t's counts lie on its fibre {beta(z) : tau(z) = t}, a coset of the
    top-0 fibre (z' = z k with tau(k) = 0 when tau(z) = tau(z')).  A target's
    rank is its position among the targets on its coset, so targets of one
    rank share an inverse row.  Per rank, a column's left factors merge into
    one set L, and columns with equal L add their right factors, as
    F(L) conj F(R1) + F(L) conj F(R2) = F(L) conj F(R1 + R2).
    """
    levels = group_levels(group)
    base, nb = levels[0], levels[0].size
    # the right factors w: the members, or for quotients their inverses
    cols, wb = tower_walk(levels, members if product else group.inv_many(members))
    slices = sorted_unique(cols)
    s, col = slices.size, np.searchsorted(slices, cols)
    # member j against column c: its target tau(x_j w) and Lambda_c(x_j)
    targets, moved = tower_walk(levels, members[:, None], slices)
    right = wb if product else moved[np.arange(members.size), col]
    # each target's bottom at one of its products x_j w, w in column c
    ncode = prod(g.aut_mul.shape[0] for g in levels[1:])
    at = np.full(ncode, -1)
    at[targets] = np.arange(targets.size).reshape(targets.shape)
    codes = np.flatnonzero(at >= 0)
    w = np.empty(s, dtype=np.int64)
    w[col] = wb
    rep = base.mul_many(moved.ravel()[at[codes]], w[at[codes] % s])
    pos = np.tril(tower_has(levels, codes, rep[:, None]), -1).sum(axis=1)
    rank = np.full(ncode, pos.max(initial=0) + 1)  # other tops read a zero row
    rank[codes] = pos
    tr, nr = rank[targets], int(rank.max()) + 1
    out = np.zeros((nr, nb))
    per = max(1, _BLOCK_ENTRIES // nb)  # ranks per inverse transform
    for lo in (sorted_unique(tr // per) * per).tolist():
        inb, n = (tr >= lo) & (tr < lo + per), min(per, nr - lo)
        left = np.zeros((n * s, nb), dtype=bool)  # row (rank - lo) * s + column
        left[((tr - lo) * s + np.arange(s))[inb], moved[inb]] = True
        keys = np.flatnonzero(left.any(axis=1)).tolist()
        # equal L rows share an id; one merged row per (rank, L id) gathers
        # the right factors of its columns
        lefts: Dict[bytes, Tuple[int, int]] = {}
        merged: Dict[Tuple[int, int], int] = {}
        where = np.full((n, s), -1)
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
        out[lo + present] = base.character_transform(acc, inverse=True).real
    # mass on a pair outside the group would show as a short sum
    tops, bots = tower_walk(levels, slice(None))
    return out[rank[tops], bots]


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


def _check_sizes(design: DesignSet, order: int, label: str, k: int) -> None:
    """The group has the claimed order, named `label`, and the design k members."""
    if design.group.size != order:
        raise ParameterMismatch(f"group order {design.group.size} != claimed {label} = {order}")
    if design.size != k:
        raise ParameterMismatch(f"design size {design.size} != claimed k = {k}")


def verify_ds(design: DesignSet) -> VerifyResult:
    """Check a (v,k,lambda) difference-set claim; every nonidentity element
    must occur exactly lambda times among distinct-pair quotients."""
    v, k, lam = design.claimed
    group = design.group
    _check_sizes(design, v, "v", k)
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
    _check_sizes(design, v, "v", k)
    mask = design.mask
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


def forbidden_subgroup(group: Group, members: np.ndarray) -> Subgroup:
    """The distinct `members` as a subgroup: their span (greedy_span), if it
    is no larger; else ForbiddenNotSubgroup names the first property they lack."""
    span = greedy_span(group, members)
    if span.order == members.size:
        return span
    if group.identity not in members:
        raise ForbiddenNotSubgroup("forbidden set does not contain the identity")
    # closed under inversion iff inversion permutes the set
    if not np.array_equal(np.sort(group.inv_many(members)), np.sort(members)):
        raise ForbiddenNotSubgroup("forbidden set is not closed under inversion")
    raise ForbiddenNotSubgroup("forbidden set is not closed under the group operation")


def verify_rds(design: DesignSet) -> VerifyResult:
    """Check an (m,u,k,lambda) relative claim: quotients avoid the forbidden
    subgroup entirely and hit everything else exactly lambda times."""
    m, u, k, lam = design.claimed
    group = design.group
    sub = design.forbidden
    assert sub is not None
    if sub.parent is not group:
        raise ForbiddenNotSubgroup("forbidden subgroup belongs to a different group")
    if not sub.spanned:
        forbidden_subgroup(group, sub.members)
    if sub.order != u:
        raise ParameterMismatch(f"forbidden subgroup order {sub.order} != claimed u = {u}")
    _check_sizes(design, m * u, "m*u", k)
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
    # x -> x^m is a bijection for m coprime to |G|, so it fixes D iff it maps D into D
    return bool(design.mask[group.pow_many(design.members, m)].all())


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

    The row is a convolution of slice spectra (see _slice_counts), counted
    directly only where the guard of _counts rejects it.
    """
    group = design.group
    n = group.size
    mask = design.mask
    if mask[group.identity]:
        raise NotClosedUnderInverse("graph check needs an identity-free connection set")
    if not design.is_inverse_closed():
        raise NotClosedUnderInverse("graph check needs an inverse-closed connection set")
    common = _counts(group, design.members, product=True)
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
    return SrgResult(n, design.size, lam, mu, design.size == n - 1)
