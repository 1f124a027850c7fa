"""Constructors for every supported design family.

Each function returns either a DesignSet with its claimed parameters or a
TransferInstance bundling that design with design-preserving automorphisms
and candidate generators, ready for the transfer engine.  No constructor
recounts its design: verify_design proves the claim, transfer_design proves
the lift's, and each CLI command recounts what it outputs once.

Everywhere a construction allows an arbitrary choice (a primitive element, an
orbit representative, a basis completion), the choice here is canonical -
smallest index first - and recorded in the construction log, so reruns are
byte-identical and the verifier confirms correctness regardless.

Each family checks its group's order before any power of its parameters,
factor tuple, field, ring, plane or member is formed, so a request above
groups.MAX_GROUP_ORDER fails at once with a ParameterError.  The check reads
exponents: `check_power_order(p, e)` rejects p^e when e * (bit length of
p - 1) exceeds 64, since p^e is at least 2 to that power, and otherwise forms
p^e, which is then below 2^128.  A family whose order has a cyclic tail as
well checks its prime-power part this way, and `abelian_make` checks the
whole order.

Members are assembled as int64 arrays, a block per plane or orbit, and
DesignSet sorts and checks them; a map on points acts on the hyperplanes
through _plane_image.  Field and ring operations, and the searches over field
elements, act on arrays of elements, never on one element in a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from math import gcd, prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DecompositionFailure,
    IndexNotTwo,
    NotReversible,
    NoValidAlpha,
    ParameterError,
    ReindexObstruction,
    RPlusOneNotTwiceOddPrime,
    TooManyLines,
)
from .fields import FiniteField, field_embed, field_make, galois_ring_make, hyperplanes
from .groups import (
    AbelianGroup,
    ExtensionGroup,
    GroupAutomorphism,
    Subgroup,
    abelian_make,
    aut_from_images,
    check_power_order,
    element_orders,
    extension_closure,
    greedy_span,
    sorted_unique,
    subgroup_closure,
)
from .numtheory import factorint, isprime
from .transfer import TransferInstance, TransferReport, make_instance, transfer_pds
# the verify_* names are unused here; perfbench/passes.py wraps them by name
from .verify import DesignSet, verify_ds, verify_pds, verify_rds  # noqa: F401


# ---------------------------------------------------------------------------
# small linear algebra over GF(p) on exponent vectors
# ---------------------------------------------------------------------------

# A span over GF(p) is a square matrix S whose row c is the span's reduced
# echelon row with pivot column c, or 0 where c is no pivot.  Each pivot column
# holds a 1 in its own row and 0 in every other, so a vector v reduces in one
# step to v - v @ S, which is 0 iff v lies in the span; S depends on the span
# alone, and the zero matrix is the zero span.

def _outside(span: np.ndarray, v: np.ndarray, p: int) -> bool:
    return bool(((v - v @ span) % p).any())


def _span_add(span: np.ndarray, vectors: np.ndarray, p: int) -> np.ndarray:
    """The span with the vectors added in turn: a vector's remainder, scaled
    to a leading 1, clears its pivot column from the other rows and becomes
    that column's row."""
    for v in vectors:
        v = (v - v @ span) % p
        nz = np.flatnonzero(v)
        if nz.size:
            v = v * pow(int(v[nz[0]]), -1, p) % p
            span = (span - np.outer(span[:, nz[0]], v)) % p
            span[nz[0]] = v
    return span


def _complete_avoiding(span: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """The rows, in pivot order, of a hyperplane through the span that misses
    u: each unit vector in turn is added if u stays outside.  Started from a
    span that misses u, this ends at a hyperplane that misses u."""
    for e in np.eye(u.size, dtype=np.int64):
        trial = _span_add(span, e[None], p)
        if _outside(trial, u, p):
            span = trial
    rows = span[np.flatnonzero(span.diagonal())]
    assert len(rows) == u.size - 1 and _outside(span, u, p)
    return rows


def invariant_hyperplane(group: AbelianGroup,
                         aut: GroupAutomorphism) -> Tuple[int, Tuple[int, ...]]:
    """For an elementary abelian group and an automorphism phi, return
    (u, basis of X) where X is a phi-invariant hyperplane avoiding u.

    X is grown greedily from Im(phi - 1) - any subspace containing that image
    is automatically invariant - and u is the first standard basis vector
    outside the image (a vector inside it would lie in every invariant
    hyperplane, making the avoidance impossible).
    """
    p = group.orders[0]
    if any(o != p for o in group.orders):
        raise ParameterError("invariant hyperplanes need an elementary abelian group")
    dim = len(group.orders)
    # the generators are the unit digit vectors
    unit = np.eye(dim, dtype=np.int64)
    span = _span_add(0 * unit, group.digits_of(aut.perm[list(group.generators)]) - unit, p)
    u_digits = next((e for e in unit if _outside(span, e, p)), None)
    if u_digits is None:
        raise ParameterError("phi - 1 is surjective; no invariant hyperplane avoids anything")
    basis = tuple(int(group.encode(row)) for row in _complete_avoiding(span, u_digits, p))
    return int(group.encode(u_digits)), basis


# ---------------------------------------------------------------------------
# the dihedral trick and its converse
# ---------------------------------------------------------------------------

def dillon_fixture() -> Tuple[DesignSet, Subgroup]:
    """The order-16 reversible (16,6,2) fixture {1, a, b, c, a^3, a^2bc} in
    C4 x C2 x C2, with X = <a, b> of index 2."""
    group = abelian_make((4, 2, 2))
    a, b, c = group.generators
    a2bc = group.mul(group.mul(group.pow(a, 2), b), c)
    design = DesignSet(group, (0, a, b, c, group.pow(a, 3), a2bc), "DS", (16, 6, 2),
                       log=["fixture {1, a, b, c, a^3, a^2*b*c} in C4 x C2 x C2"])
    return design, subgroup_closure(group, (a, b))


def dihedral_converse(design: DesignSet, x_sub: Subgroup) -> TransferInstance:
    """Move a reversible DS / regular PDS into the generalized dihedral
    extension of an index-2 subgroup, by pairing the inversion map with a
    representative of the nontrivial coset."""
    group = design.group
    if not isinstance(group, AbelianGroup):
        raise ParameterError("the dihedral converse starts from an abelian group")
    if x_sub.parent is not group:
        raise ParameterError("X must be a subgroup of the design's group")
    if group.size != 2 * x_sub.order:
        raise IndexNotTwo(f"[G:X] = {group.size // x_sub.order}, need 2")
    if not design.is_inverse_closed():
        raise NotReversible("the design is not closed under inversion")
    if design.kind == "PDS" and design.mask[group.identity]:
        raise NotReversible("a regular PDS must not contain the identity")
    inversion = aut_from_images(group, [group.inv(g) for g in group.generators])
    y = int(np.nonzero(~x_sub.mask)[0][0])
    cands: List[Tuple[Tuple[int, ...], int]] = [((), g) for g in x_sub.gens]
    cands.append(((0,), y))
    return make_instance(design, [inversion], cands,
                         log=[f"inversion paired with coset representative {group.element_name(y)}"])


def dillon_forward(dihedral_design: DesignSet, target: AbelianGroup) -> DesignSet:
    """Dillon's substitution: split the dihedral design as D1 u D2*g, embed
    the translation slice H into the abelian target (index 2), and replace g
    with a fixed element k outside the embedded copy of H."""
    group = dihedral_design.group
    if not isinstance(group, ExtensionGroup) or not isinstance(group.base, AbelianGroup):
        raise ParameterError("the dihedral design must live in an extension of an abelian group")
    aut_values = sorted(set(group.aut_part.tolist()))
    if len(aut_values) != 2:
        raise DecompositionFailure(
            f"the design's group has {len(aut_values)} automorphism slices, need exactly 2")
    base = group.base
    h_codes = sorted(int(b) for b in group.base_part[group.aut_part == 0])

    member_arr = dihedral_design.members
    member_aut = group.aut_part[member_arr]
    d1 = group.base_part[member_arr[member_aut == 0]]
    twisted = group.base_part[member_arr[member_aut != 0]]
    if len(set(member_aut.tolist()) - {0}) > 1:
        raise DecompositionFailure("design members span more than one twisted slice")
    if twisted.size == 0:
        raise DecompositionFailure("design has no members outside the translation slice")
    c_ref = int(twisted.min())
    d2 = base.mul_many(c_ref, base.inv_many(twisted))

    gens = list(greedy_span(base, h_codes).gens)
    orders = element_orders(base)[gens].tolist()
    # every exponent vector, in lexicographic order, and its product of powers
    exps = np.indices(orders).reshape(len(orders), prod(orders)).T
    sources = base.encode(exps @ base.digits_of(gens))
    if not np.array_equal(sorted_unique(sources), h_codes):
        raise DecompositionFailure("the translation slice is not the direct product "
                                   "of its greedy generators")

    if not isinstance(target, AbelianGroup):
        raise ParameterError("the substitution target must be abelian")
    if target.size != 2 * len(h_codes):
        raise IndexNotTwo(f"target order {target.size} != 2*|H| = {2 * len(h_codes)}")

    points = np.arange(target.size)
    candidates = [np.flatnonzero(target.pow_many(points, o) == target.identity) for o in orders]
    for images in _iproduct(*candidates):
        dests = target.encode(exps @ target.digits_of(images))
        if sorted_unique(dests).size == len(h_codes):
            break
    else:
        raise IndexNotTwo("the target contains no index-2 copy of the translation slice")
    emb = np.zeros(base.size, dtype=np.int64)
    emb[sources] = dests

    image = np.zeros(target.size, dtype=bool)
    image[emb[sources]] = True
    k_elt = int(np.argmin(image))
    members = np.concatenate([emb[d1], target.mul_many(emb[d2], k_elt)])
    return DesignSet(target, members, "DS", dihedral_design.claimed,
                     log=[f"D1 size {len(d1)}, D2 size {len(d2)}, reference twist base "
                          f"{base.element_name(c_ref)}, k = {target.element_name(k_elt)}"])


@dataclass
class ChainResult:
    instance: TransferInstance
    report: TransferReport
    dihedral_design: DesignSet
    final_design: DesignSet


def corollary_chain(design: DesignSet, x_sub: Subgroup, target: AbelianGroup) -> ChainResult:
    """Reversible DS in G  ->  dihedral extension of X  ->  any abelian group
    containing X with index 2, preserving parameters at every step."""
    inst = dihedral_converse(design, x_sub)
    report = transfer_pds(inst)
    assert report.new_design is not None
    final = dillon_forward(report.new_design, target)
    return ChainResult(inst, report, report.new_design, final)


# ---------------------------------------------------------------------------
# p-group PDSs from partial congruence partitions
# ---------------------------------------------------------------------------

def _first_primitive(F: FiniteField, ok) -> Optional[int]:
    """The first primitive element g^e, 1 <= e < q - 1 with gcd(e, q - 1) = 1,
    whose code passes ok, a test on an array of codes, or None."""
    e = np.arange(1, F.q - 1)
    codes = F.exp[e[np.gcd(e, F.q - 1) == 1]]
    hit = np.flatnonzero(ok(codes))
    return int(codes[hit[0]]) if hit.size else None


def _check_prime(p: int, exp: int, least: int, msg: str) -> None:
    """Check p >= least, then p^exp within the order ceiling, then p prime:
    the order check keeps isprime within its bound."""
    if p >= least:
        check_power_order(p, exp)
    if p < least or not isprime(p):
        raise ParameterError(msg)


def pcp_pds(p: int, n: int, s: int) -> DesignSet:
    """Union of s order-p^n cyclic subgroups of C_{p^n} x C_{p^n} with
    pairwise trivial intersections, minus the identity."""
    if n < 1:
        raise ParameterError("n must be positive")
    if s < 2:
        raise ParameterError("s must be at least 2; one line minus the identity "
                             "is only degenerately a PDS")
    _check_prime(p, 2 * n, 2, f"p = {p} is not prime")
    if s > p + 1:
        raise TooManyLines(f"at most {p + 1} lines of C_{p**n} x C_{p**n} intersect "
                           f"pairwise trivially; requested {s}")
    q = p ** n
    group = abelian_make((q, q))
    cs = np.arange(q, dtype=np.int64)
    lines = [cs.copy(), q * cs]
    for slope in range(1, p):
        lines.append(cs + q * ((cs * slope) % q))
    members = np.concatenate(lines[:s])
    members = members[members != group.identity]  # DesignSet rejects any other overlap
    claimed = (q * q, s * (q - 1), q + s * s - 3 * s, s * s - s)
    slopes = list(range(1, p))[:max(0, s - 2)]
    return DesignSet(group, members, "PDS", claimed,
                     log=[f"lines: <(1,0)>, <(0,1)>"
                          + ("".join(f", <(1,{j})>" for j in slopes))])


def pgroup_multiplier_transfer(p: int, n: int, s: int = 2) -> TransferInstance:
    """Pair the multiplier automorphism g -> g^(p^(n-1)+1) with the second
    coordinate, landing the PDS in a nonabelian p-group.

    The candidate generators include (1, y^p) explicitly: it generates the
    second factor of X = <x, y^p>, and at p = 2, n = 2 the square of
    (phi, y) degenerates to the identity, so the pair (1,x), (phi,y) alone
    closes up short of |G|.
    """
    if n < 2:
        raise ParameterError("n must be at least 2: at n = 1 the multiplier map "
                             "is the identity")
    design = pcp_pds(p, n, s)
    group = design.group
    t = p ** (n - 1) + 1
    phi = aut_from_images(group, [group.pow(g, t) for g in group.generators])
    x, y = group.generators
    cands = [((), x), ((), group.pow(y, p)), ((0,), y)]
    return make_instance(design, [phi], cands,
                         log=[f"multiplier {t} = p^(n-1)+1 fixes the design",
                              "generators (1,x), (1,y^p), (phi,y)"])


# ---------------------------------------------------------------------------
# Spence difference sets
# ---------------------------------------------------------------------------

def spence(d: int) -> TransferInstance:
    """(3^(3d-1)(3^3d+1)/2 ...) difference set in C_3^3d x C_r with the
    d-fold Frobenius twisted onto the first basis vector of nonzero trace."""
    if d < 1:
        raise ParameterError("d must be positive")
    m = 3 * d
    check_power_order(3, m)
    r = (3 ** m - 1) // 2
    group = abelian_make((3,) * m + (r,))
    override = (1, 2, 0, 1) if d == 1 else None
    F = field_make(3, m, modulus_override=override)
    planes = hyperplanes(F)
    wbase = 3 ** m
    outside_h0 = np.ones(wbase, dtype=bool)
    outside_h0[planes[0]] = False
    # plane j, j >= 1, carries w^j
    members = np.concatenate([np.flatnonzero(outside_h0),
                              (planes[1:] + wbase * np.arange(1, r)[:, None]).ravel()])
    v = (3 ** m) * r
    k = 3 ** (m - 1) * (3 ** m + 1) // 2
    lam = 3 ** (m - 1) * (3 ** (m - 1) + 1) // 2
    design = DesignSet(group, members, "DS", (v, k, lam),
                       log=[f"field {F!r}",
                            "members: (complement of H0, w^0) and (H0*g^j, w^j) for j >= 1"])

    basis = 3 ** np.arange(m)
    phi = aut_from_images(group, F.pow_many(basis, 3 ** d).tolist() + [wbase * (3 ** d % r)])

    # a subgroup of C3^m is a GF(3)-span, so these are the independent codes in turn
    basis_codes = list(greedy_span(F.additive, planes[0]).gens)
    # the trace is onto GF(3), so it vanishes on no basis
    a_star = int(basis[np.flatnonzero(F.traces[basis])[0]])
    cands = [((), h) for h in basis_codes] + [((), wbase), ((0,), a_star)]
    return make_instance(design, [phi], cands,
                         log=[f"H0 basis {basis_codes}, twist companion a* = "
                              f"{F.element_str(a_star)}"])


def spence_sylow3(report: TransferReport) -> Subgroup:
    """The proof's Sylow-3 subgroup <1 x H0, (phi, a*)> inside the output."""
    closure = report.new_group
    assert closure is not None
    gens = closure.generators
    m = len(report.instance.design.group.orders) - 1
    return subgroup_closure(closure, tuple(gens[:m - 1]) + (gens[m],))


# ---------------------------------------------------------------------------
# Denniston partial difference sets
# ---------------------------------------------------------------------------

def denniston_even(m: int, r: int) -> TransferInstance:
    """Denniston-parameter PDS from an anisotropic quadratic cone over
    GF(2^m), with the coordinate swap twisted onto the complement of an
    invariant hyperplane."""
    if m < 2 or not 1 <= r < m:
        raise ParameterError("need m >= 2 and 1 <= r < m")
    check_power_order(2, 3 * m)
    group = abelian_make((2,) * (3 * m))
    F = field_make(2, m)
    q = 2 ** m
    alpha = _first_primitive(F, lambda a: F.traces[F.inv_many(a)] == 1)
    if alpha is None:
        raise NoValidAlpha("no primitive element alpha satisfies tr(1/alpha) = 1")

    kbound = 2 ** r
    # Q(a, b) = a^2 + alpha a b + b^2 at every point, point a q + b
    add, mul = F.additive.mul_many, F.mul_many
    a, b = np.divmod(np.arange(q * q, dtype=np.int64), q)
    qval = add(add(mul(a, a), mul(mul(alpha, a), b)), mul(b, b))
    zero_count = int(np.count_nonzero(qval[1:] == 0))  # point 0 is (0, 0)
    c, pts = np.arange(1, q, dtype=np.int64), np.nonzero(qval < kbound)[0]
    members = (c + q * mul(c, a[pts, None]) + q * q * mul(c, b[pts, None])).ravel()
    if zero_count:
        raise NoValidAlpha(f"Q vanishes at {zero_count} nonzero points; the form is degenerate")
    k1 = 2 ** (m + r) - 2 ** m + 2 ** r
    claimed = (q ** 3, k1 * (q - 1), q - kbound + k1 * (kbound - 2), k1 * (kbound - 1))
    design = DesignSet(group, members, "PDS", claimed,
                       log=[f"alpha = {F.element_str(alpha)}, K = codes below 2^{r}"])

    # the swap of the second and third coordinates, m digits each
    phi = aut_from_images(group, [2 ** (j * m + i) for j in (0, 2, 1) for i in range(m)])
    u, basis = invariant_hyperplane(group, phi)
    cands = [((), x) for x in basis] + [((0,), u)]
    return make_instance(design, [phi], cands,
                         log=[f"swap twisted onto u = {group.element_name(u)}; "
                              f"X basis of size {len(basis)}"])


def denniston_gr4(t: int, k: int) -> TransferInstance:
    """Denniston-parameter PDS in C_4^t x C_2^t built over the Galois ring
    GR(4,t), with up to t commuting involutions psi_l twisted onto field
    translations."""
    if t < 2:
        raise ParameterError("t must be at least 2")
    if not 1 <= k <= t:
        raise ParameterError("need 1 <= k <= t")
    check_power_order(2, 3 * t)
    group = abelian_make((4,) * t + (2,) * t)
    ring = galois_ring_make(t)
    F = ring.residue_field
    n1 = 2 ** t - 1
    rsize = 4 ** t
    add, radd = F.additive.mul_many, ring.additive.mul_many

    # the trace is onto GF(2), so some power of g has trace 1
    w_i = int(np.flatnonzero(F.traces[F.exp] == 1)[0])
    w = F.exp[w_i]

    # block (i, j): the plane j's image in 2R translated by
    # h^i + h^(2i-j) + iso(g^i (1 + w) + g^j w), tagged by g^i
    i, j = np.divmod(np.arange(n1 * n1), n1)
    pi_a = add(F.mul_many(F.exp[i], add(1, w)), F.mul_many(F.exp[j], w))
    base_pt = radd(radd(ring.hpow[i], ring.hpow[(2 * i - j) % n1]), ring.iso_table[pi_a])
    ksets = ring.iso_table[hyperplanes(F)]
    members = radd(base_pt[:, None], ksets[j]) + rsize * F.exp[i][:, None]
    k1 = 2 ** (2 * t - 1) - 2 ** (t - 1)
    claimed = (2 ** (3 * t), k1 * (2 ** t - 1),
               2 ** (t - 1) + k1 * (2 ** (t - 1) - 2), k1 * (2 ** (t - 1) - 1))
    design = DesignSet(group, members.ravel(), "PDS", claimed,
                       log=[f"ring {ring!r}, w = g^{w_i}"])

    # psi_ell on the generators as Z4 digit vectors: 4^i -> e_i + 2 r_i and
    # rsize 2^j -> 2 f_j + rsize 2^j, psi_0 with r_i = e_i and f_j = 0
    hdig, unit = ring.additive.digits_of(ring.hpow), np.eye(t, dtype=np.int64)
    idx, tr_g = np.arange(t), F.traces[F.exp[1]]
    auts: List[GroupAutomorphism] = []
    for ell in range(k):
        r, f = unit, 0 * unit
        if ell:
            kk = idx[(idx != (ell - 1) % t) & (idx != (ell - 2) % t)]
            r = hdig[(idx + 2 ** (ell - 1)) % n1]
            f = tr_g * hdig[:t] + hdig[(idx[:, None] + 2 ** kk) % n1].sum(axis=1)
        images = np.concatenate([ring.additive.encode(unit + 2 * r),
                                 ring.additive.encode(2 * f) + rsize * 2 ** idx])
        auts.append(aut_from_images(group, images.tolist()))

    cands = [((), 4 ** i) for i in range(t)]
    cands += [((), rsize * 2 ** j) for j in range(k, t)]
    cands += [((ell,), rsize * 2 ** ell) for ell in range(k)]
    return make_instance(design, auts, cands,
                         log=[f"{k} involution(s) twisted onto field translations"])


def denniston_odd(p: int, t: int) -> TransferInstance:
    """Odd-order Denniston-parameter PDS in C_p^(3m), m = p*t, with the
    p^(2t)-power map twisted onto a vector outside an invariant hyperplane.

    The two primitive elements cannot be chosen independently: the coset
    pairing only produces a PDS when the GF(p^m) side is generated by the
    relative norm of the GF(p^2m) side, so omega is taken to be N(alpha) =
    alpha^(p^m + 1) pulled back through the canonical subfield embedding.
    """
    if t < 1:
        raise ParameterError("t must be positive")
    m = p * t
    _check_prime(p, 3 * m, 3, f"p = {p} must be an odd prime")
    q1 = p ** m
    q2 = p ** (2 * m)
    group = abelian_make((p,) * (3 * m))
    F1 = field_make(p, m)
    F2 = field_make(p, 2 * m)
    c = (q1 - 1) // (p - 1)

    omega = int(np.flatnonzero(field_embed(F1, F2) == F2.exp[(q1 + 1) % (q2 - 1)])[0])
    # block i pairs omega^(i + c j), j < p - 1, with g2^(i + c j), j < (q2 - 1) / c,
    # and 0; omega^n = (g1^n)^log(omega)
    i = np.arange(c)[:, None]
    a = F1.pow_many(F1.exp[i + c * np.arange(p - 1)], int(F1.log[omega]))
    b = np.pad(F2.exp[(i + c * np.arange((q2 - 1) // c)) % (q2 - 1)], ((0, 0), (0, 1)))
    members = a[:, :, None] + q1 * b[:, None, :]
    k1 = p ** (m + 1) - p ** m + p
    claimed = (p ** (3 * m), (q1 - 1) * ((p - 1) * (q1 + 1) + 1),
               q1 - p + k1 * (p - 2), k1 * (p - 1))
    design = DesignSet(group, members.ravel(), "PDS", claimed,
                       log=[f"fields {F1!r} and {F2!r}",
                            f"omega = pullback of the relative norm of alpha = "
                            f"{F1.element_str(omega)}"])

    images = [F1.pow_many(p ** np.arange(m), p ** (2 * t)),
              q1 * F2.pow_many(p ** np.arange(2 * m), p ** (2 * t))]
    phi = aut_from_images(group, np.concatenate(images).tolist())
    u, basis = invariant_hyperplane(group, phi)
    cands = [((), x) for x in basis] + [((0,), u)]
    return make_instance(design, [phi], cands,
                         log=[f"power map twisted onto u = {group.element_name(u)}"])


# ---------------------------------------------------------------------------
# McFarland difference sets
# ---------------------------------------------------------------------------

def _cycles(image: Sequence[int]) -> Tuple[List[int], List[List[int]]]:
    """The fixed points and the longer cycles of the permutation
    i -> image[i], each cycle from its least entry, in increasing order."""
    fixed: List[int] = []
    cycles: List[List[int]] = []
    seen = [False] * len(image)
    for i in range(len(image)):
        cyc, j = [], i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = image[j]
        if len(cyc) > 1:
            cycles.append(cyc)
        elif cyc:
            fixed.append(i)
    return fixed, cycles


def _plane_image(planes: np.ndarray, table: np.ndarray) -> List[int]:
    """The index of each plane's image under the point map code ->
    table[code].  Planes are rows of sorted point codes; each image row is
    sorted and looked up by its bytes."""
    index = {row.tobytes(): i for i, row in enumerate(planes)}
    return [index[row.tobytes()] for row in np.sort(table[planes], axis=1)]


def mcfarland_base(q: int, s: int) -> DesignSet:
    """One hyperplane of GF(q)^(s+1) per nonidentity element of the cyclic
    tail C_(r+1); the union of the tagged hyperplanes is a difference set."""
    if q < 2 or s < 1:
        raise ParameterError("need q >= 2 and s >= 1")
    check_power_order(q, s + 1)
    factors = factorint(q)
    if len(factors) != 1:
        raise ParameterError(f"q = {q} is not a prime power")
    p, e = next(iter(factors.items()))
    if s != 1 and e != 1:
        raise ParameterError("supported shapes: s = 1 with any prime power q, "
                             "or prime q with s >= 2")
    r = (q ** (s + 1) - 1) // (q - 1)
    e_size = q ** (s + 1)
    group = abelian_make((p,) * ((s + 1) * e) + (r + 1,))
    if s == 1:
        planes = hyperplanes(field_make(p, e), ambient_dim=2)
    else:
        planes = hyperplanes(field_make(p, s + 1))
    assert len(planes) == r
    # plane a - 1 carries tail element a
    members = (planes + e_size * np.arange(1, r + 1)[:, None]).ravel()
    claimed = (e_size * (r + 1), q ** s * r, q ** s * (q ** s - 1) // (q - 1))
    return DesignSet(group, members, "DS", claimed,
                     log=[f"{r} hyperplanes tagged by nonidentity elements of C{r + 1}"])


def _pair_tags(size: int, fixed_tag, pairs, pool, mate) -> list:
    """One tag per plane: `fixed_tag` on the fixed plane and, for each swap
    pair (i, j) in turn, the first tag left in `pool` on i and its mate on j
    (every other plane lies in a pair)."""
    tags, pool = [fixed_tag] * size, list(pool)
    for i, j in pairs:
        tags[i] = pool.pop(0)
        tags[j] = mate(tags[i])
        pool.remove(tags[j])
    return tags


def mcfarland_even(d: int, variant: int) -> TransferInstance:
    """McFarland design over E = GF(q)^2, q = 2^d, tail C_(q+2) (variants 1
    and 2) or dihedral of order q+2 (variant 3), with the coordinate swap
    paired against tail inversion / conjugation."""
    if d < 2:
        raise ParameterError("(q+2)/2 must be odd, which needs d >= 2")
    if variant not in (1, 2, 3):
        raise ParameterError("variant must be 1, 2, or 3")
    check_power_order(2, 2 * d)
    q = 2 ** d
    half = (q + 2) // 2
    # variant 3's group is the base of its dihedral-tail extension
    group = abelian_make((2,) * (2 * d) + (q + 2 if variant in (1, 2) else half,))
    planes = hyperplanes(field_make(2, d), ambient_dim=2)
    e_size = q * q
    # the coordinate swap x + q y -> y + q x fixes the diagonal alone and
    # pairs the other planes
    codes = np.arange(e_size)
    [fixed], pairs = _cycles(_plane_image(planes, codes // q + q * (codes % q)))
    e1, e2 = 1, q
    other_e = [2 ** i for i in range(1, d)] + [q * 2 ** i for i in range(1, d)]
    claimed = (q * q * (q + 2), q * (q + 1), q)

    if variant in (1, 2):
        assign = _pair_tags(len(planes), half, pairs,
                            [x for x in range(1, q + 2) if x != half], lambda x: -x % (q + 2))
        members = (planes + e_size * np.array(assign)[:, None]).ravel()
        design = DesignSet(group, members, "DS", claimed,
                           log=[f"fixed plane -> {half}; swap pairs matched to "
                                f"inverse pairs of C_{q + 2}"])
        images = [q * 2 ** i for i in range(d)] + [2 ** i for i in range(d)]
        images.append(e_size * (q + 1))
        phi = aut_from_images(group, images)
        y_g = e_size * 2
        u_g = e_size * half
        if variant == 1:
            cands = [((0,), u_g), ((), y_g)]
            cands += [((), 2 ** i) for i in range(d)]
            cands += [((), q * 2 ** i) for i in range(d)]
        else:
            cands = [((0,), e1), ((), y_g), ((), u_g), ((), e1 + e2)]
            cands += [((), g) for g in other_e]
        return make_instance(design, [phi], cands,
                             log=[f"variant {variant} generators"])

    # variant 3: dihedral tail, built as an extension over C_2^2d x C_(q+2)/2
    y0 = group.generators[2 * d]
    inv_images = list(group.generators[:2 * d]) + [group.pow(y0, half - 1)]
    inv3 = aut_from_images(group, inv_images)
    gprime = extension_closure(
        group, [inv3],
        [((), g) for g in group.generators[:2 * d]] + [((), y0), ((0,), 0)])
    assert gprime.size == q * q * (q + 2)

    def kp(a: int, j: int) -> int:
        return gprime.index_of_pair(a, e_size * j)

    u_el = kp(1, 0)
    kp_list = [(0, j) for j in range(1, half)] + [(1, j) for j in range(1, half)]
    tags = np.array(_pair_tags(len(planes), (1, 0), pairs, kp_list,
                               lambda t: (t[0], -t[1] % half)))
    # the element (a, ec + e_size jj) of gprime for a plane tagged (a, jj)
    members = gprime.pair_index[tags[:, :1] * group.size + planes + e_size * tags[:, 1:]]
    design = DesignSet(gprime, members.ravel(), "DS", claimed,
                       log=["dihedral tail; fixed plane tagged by the involution u"])

    images = []
    for i in range(d):
        images.append(gprime.index_of_pair(0, q * 2 ** i))
    for i in range(d):
        images.append(gprime.index_of_pair(0, 2 ** i))
    images.append(kp(0, half - 1))
    images.append(u_el)
    psi = aut_from_images(gprime, images)
    cands = [((0,), gprime.index_of_pair(0, e1)),
             ((), kp(0, 1)), ((), u_el),
             ((), gprime.index_of_pair(0, e1 + e2))]
    cands += [((), gprime.index_of_pair(0, g)) for g in other_e]
    return make_instance(design, [psi], cands,
                         log=["variant 3: swap times conjugation-by-u twisted onto e1"])


def mcfarland_even_witnesses(report: TransferReport) -> Tuple[Subgroup, Subgroup]:
    """Variant 3's Sylow-2 subgroup Q' = <u, (psi,e1,1), (1,e_i,1)> and the
    elementary abelian E' = <u, (1,e1+e2,1), (1,e_i,1)> of order q^2."""
    closure = report.new_group
    assert closure is not None
    gens = closure.generators
    q_sub = subgroup_closure(closure, (gens[2], gens[0]) + tuple(gens[4:]))
    e_sub = subgroup_closure(closure, (gens[2], gens[3]) + tuple(gens[4:]))
    return q_sub, e_sub


def mcfarland_odd(q: int, s: int) -> TransferInstance:
    """McFarland design over GF(q)^(s+1) with tail Z/2p, q odd, r+1 = 2p; the
    unipotent single-block map acts on columns and is paired with an order-q
    multiplication of the tail."""
    if s < 1:
        raise ParameterError("s must be positive")
    _check_prime(q, s + 1, 3, f"q = {q} must be an odd prime")
    r = (q ** (s + 1) - 1) // (q - 1)
    twop = r + 1
    pp = twop // 2
    if twop % 2 or not isprime(pp) or pp == 2:
        raise RPlusOneNotTwiceOddPrime(f"r+1 = {twop} is not twice an odd prime")
    if not 2 <= s < q:
        raise ParameterError(f"need 2 <= s < q so the column action has order q, got s = {s}")
    assert (pp - 1) % q == 0
    n = s + 1
    group = abelian_make((q,) * n + (twop,))
    espace = abelian_make((q,) * n)
    e_size = q ** n
    edigits = espace.digits_of(np.arange(e_size))

    # one normal per hyperplane: the vectors whose first nonzero digit is 1
    lead = edigits[np.arange(e_size), np.argmax(edigits != 0, axis=1)]
    normals = np.flatnonzero(lead == 1)
    assert len(normals) == r
    # row i: the codes orthogonal to normal i, ascending
    planes = np.nonzero((edigits @ edigits[normals].T % q == 0).T)[1].reshape(r, -1)

    # column action of the unipotent bidiagonal block: e_1 -> e_1,
    # e_j -> e_(j-1) + e_j
    m_images = [espace.generators[0]]
    for j in range(1, n):
        m_images.append(int(espace.generators[j - 1] + espace.generators[j]))
    m_aut = aut_from_images(espace, m_images)
    fixed, plane_orbits = _cycles(_plane_image(planes, m_aut.perm))
    assert len(fixed) == 1 and normals[fixed[0]] == q ** s, \
        "the column action should fix exactly the hyperplane with normal e_(s+1)"

    c = None
    for cand in range(2, twop):
        if gcd(cand, twop) == 1 and pow(cand, q, twop) == 1 and cand % twop != 1:
            c = cand
            break
    assert c is not None, "no residue of multiplicative order q mod 2p"
    k_fixed, k_orbits = _cycles([x * c % twop for x in range(twop)])
    assert k_fixed == [0, pp] and len(k_orbits) == len(plane_orbits)
    assert {len(o) for o in plane_orbits + k_orbits} == {q}

    assign = [0] * r
    assign[fixed[0]] = pp
    for porb, korb in zip(plane_orbits, k_orbits):
        for pi, ki in zip(porb, korb):
            assign[pi] = ki

    members = (planes + e_size * np.array(assign)[:, None]).ravel()
    claimed = (e_size * twop, q ** s * r, q ** s * (q ** s - 1) // (q - 1))
    design = DesignSet(group, members, "DS", claimed,
                       log=[f"sigma multiplier c = {c}; fixed hyperplane tagged by p = {pp}"])

    images = [int(m) for m in m_images] + [e_size * c]
    phi = aut_from_images(group, images)
    cands = [((), e_size)]
    cands += [((), q ** i) for i in range(s)]
    cands += [((0,), q ** s)]
    return make_instance(design, [phi], cands,
                         log=["generators (1,0,z), (1,e_i,0) for i <= s, (phi,e_(s+1),0)"])


def mcfarland_odd_sylow(report: TransferReport) -> Subgroup:
    """The proof's Sylow-q subgroup <(phi,e_(s+1),0), (1,e_i,0)>."""
    closure = report.new_group
    assert closure is not None
    return subgroup_closure(closure, tuple(closure.generators[1:]))


# ---------------------------------------------------------------------------
# relative difference sets in 2-groups
# ---------------------------------------------------------------------------

def _rds_group(d: int) -> Tuple[AbelianGroup, FiniteField, int]:
    check_power_order(2, 6 * d)
    q = 2 ** d
    group = abelian_make((q * q,) + (2,) * (4 * d))
    return group, field_make(2, 2 * d), q * q


def _spread_rds(group: AbelianGroup, planes: np.ndarray, ladder: Sequence[int],
                log: str) -> DesignSet:
    """The spread RDS in C_(q^2) x GF(q^2)^2: slot i, the i-th power of w
    for i = 1 .. q^2, carries hyperplane ladder[i]; the forbidden subgroup is
    the first coordinate axis."""
    qq = group.orders[0]
    slots = np.arange(1, qq + 1)
    members = (slots[:, None] % qq + qq * planes[np.asarray(ladder)[slots]]).ravel()
    forbidden = subgroup_closure(group, tuple(qq * 2 ** i for i in range(qq.bit_length() - 1)))
    return DesignSet(group, members, "RDS", (qq * qq, qq, qq * qq, qq),
                     forbidden=forbidden, log=[log])


def rds_base(d: int) -> DesignSet:
    """The spread RDS: pair the i-th power of w with the i-th hyperplane of
    GF(q^2)^2 in base order; any bijection onto the planes other than the
    forbidden one yields the same parameters."""
    if d < 1:
        raise ParameterError("d must be positive")
    group, F, qq = _rds_group(d)
    return _spread_rds(group, hyperplanes(F, ambient_dim=2), range(qq + 1),
                       "slot i carries hyperplane i of the base ordering")


def rds_transfer(d: int, variant: int) -> TransferInstance:
    """Re-index the spread so the coordinatewise q-power map sends slot i to
    slot q^2 - i, then twist w-inversion x Frobenius onto the Thm-specific
    generators.  The re-indexing needs exactly 3 fixed hyperplanes; the map
    fixes q + 1 of them, so only q = 2 admits a valid ladder."""
    if d < 1:
        raise ParameterError("d must be positive")
    if variant not in (1, 2):
        raise ParameterError("variant must be 1 or 2")
    group, F, qq = _rds_group(d)
    q = 2 ** d
    planes = hyperplanes(F, ambient_dim=2)
    frob = F.pow_many(np.arange(qq), q)  # x -> x^q, fixing the subfield GF(q)
    codes = np.arange(qq * qq)
    fixed, pairs = _cycles(_plane_image(planes, frob[codes % qq] + qq * frob[codes // qq]))
    if len(fixed) != 3:
        raise ReindexObstruction(
            f"the coordinatewise {q}-power map fixes {len(fixed)} of the {qq + 1} "
            f"hyperplanes, but the index ladder has exactly 3 self-paired slots "
            f"(0, {qq // 2}, {qq}); no re-indexing can satisfy the slot constraint "
            f"for q = {q} > 2")
    assert fixed == [0, 1, 2]
    ladder = [-1] * (qq + 1)
    ladder[0], ladder[qq // 2], ladder[qq] = 0, 1, 2
    slot = 1
    for i, j in pairs:
        while ladder[slot] != -1:
            slot += 1
        ladder[slot], ladder[qq - slot] = i, j
    design = _spread_rds(group, planes, ladder, f"ladder {ladder}")

    basis_images = frob[2 ** np.arange(2 * d)]
    phi = aut_from_images(group, [qq - 1] + (qq * basis_images).tolist()
                          + (qq * qq * basis_images).tolist())

    if variant == 1:
        cands = [((0,), 1), ((), 2)]
        cands += [((), qq * 2 ** i) for i in range(2 * d)]
        cands += [((), qq * qq * 2 ** i) for i in range(2 * d)]
        log = ["generators (phi,w,0,0), (1,w^2,0,0), and a basis of V"]
    else:
        beta = _first_primitive(F, lambda a: frob[a] != a)
        assert beta is not None
        # the GF(q) x GF(q) block: each coordinate's subfield (the nonzero
        # fixed points of frob), the other 0
        sub = F.digits[np.flatnonzero(frob == np.arange(qq))[1:]]
        block = np.block([[sub, 0 * sub], [0 * sub, sub]])
        rows = _complete_avoiding(_span_add(np.zeros((4 * d,) * 2, dtype=np.int64), block, 2),
                                  np.pad(F.digits[beta], (0, 2 * d)), 2)
        x, y = F.additive.encode(np.reshape(rows, (-1, 2, 2 * d))).T
        cands = [((0,), qq * beta), ((), 1)]
        cands += [((), int(b)) for b in qq * (x + qq * y)]
        log = [f"beta = {F.element_str(beta)}; B completed greedily from the "
               f"GF({q}) x GF({q}) block"]
    return make_instance(design, [phi], cands, log=log)
