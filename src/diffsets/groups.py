"""Finite groups with 0-based integer element indices.

Every group enumerates its elements as 0 .. size-1 with 0 the identity, and
all operations work on indices (vectorized variants take numpy arrays).  Two
concrete kinds are provided:

* AbelianGroup - a direct product of cyclic groups; the element with
  mixed-radix digits (d_0, d_1, ...) against the given orders has index
  sum(d_i * prod(orders[:i])).  This matches the integer coding of field and
  ring elements, so an additive field element code is directly an element
  index of the matching elementary abelian group.

  Arithmetic is by table lookup.  Consecutive cyclic factors are grouped
  greedily into blocks of order m <= BLOCK_ORDER (C3^9 into 243 and 81,
  C7^3 x C58 into 49, 7 and 58); each element has one coordinate per block,
  and each block an m x m Cayley table pre-multiplied by the block's radix,
  so a * b is the sum over blocks of table[coord(a) * m + coord(b)]: a few
  gathers from cache-sized arrays, with no modulo.  Inverses come from a
  digit-wise inverse table per block, and a quotient a * b^-1 multiplies by
  the looked-up inverses.  A lone factor above the bound (C364 in Spence
  d = 2) has no table and adds coordinates modulo its order.  The tables are
  built on the first product, each grown one factor at a time from the
  table of the factors before it, so a group never multiplied costs nothing.

* ExtensionGroup - a group of pairs (automorphism, base element) inside the
  semidirect product Aut(B) x B, multiplied by (f1, b1)(f2, b2) =
  (f1 f2, b1^f2 * b2), enumerated by a deterministic breadth-first closure
  from a generator list; in a wide layer a translation (1, e) multiplies in
  the base alone (mul_outer_by: rows of per-block tables T[c, j] = c + e_j
  over an abelian base).  The base may itself be any group, so extensions nest.

Automorphisms are certified at construction: the generator-image map is
extended to a full permutation, checked to be a bijection, and proved a
homomorphism exactly - over an abelian group, the sum of the C_(n_i) on the
e_i, by its presentation n_i img(e_i) = 1; over an extension by
perm(x g) = perm(x) img(g) for every element x and generator g (every
element is a positive word in the generators, so induction on word length
covers all products).  The closure keys automorphisms on generator images.

A subgroup's members are a sorted, read-only int64 array with a read-only
mask (element_set, which DesignSet shares).  Group.mul and Group.inv are the
vector products on scalars.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ClosureOverflow,
    EmptyOrders,
    NotASubgroupMember,
    NotBijective,
    NotHomomorphism,
    ParameterError,
)

# Largest group order accepted, checked (check_order) before anything is
# allocated: an abelian group's order, a family's, and each extension level's
# claimed size in a file, before it is certified or closed; a transfer caps
# its closure at the base order.  A group holds no per-element table until
# its first product; then an abelian one holds an order x blocks int64
# coordinate table and per block a Cayley table of at most BLOCK_ORDER^2
# int64s (512 KiB) and a digit table (C2^20: 24 MiB of coordinates, 1 MiB of
# tables).  The largest tables a legal file can make a command hold are, per
# extension level, three MAX_PAIR_TABLE tables (128 MiB each) and four int64
# arrays of one entry per element (32 MiB).  Spence d = 2 (265356) fits.
MAX_GROUP_ORDER = 1 << 20

# More cyclic factors than this always exceed MAX_GROUP_ORDER: each is >= 2.
MAX_FACTORS = MAX_GROUP_ORDER.bit_length() - 1

# Largest block of an abelian group's arithmetic tables (see module notes):
# its Cayley table has BLOCK_ORDER^2 int64 entries, 512 KiB, which stays in
# L2 cache; at 1024 the tables reach 8 MiB each and outgrow it.
BLOCK_ORDER = 256

# Largest run of factors the character transform takes in one matmul: a row
# of order n costs n times the sum of the run orders.  Measured on 2 vCPUs,
# one row, against runs up to BLOCK_ORDER: C2^9 53 against 122 us, C3^9 0.66
# against 1.15 ms, C2^18 18 against 27 ms.
_TRANSFORM_ORDER = 64

# Largest table an extension closure may allocate, in int64 entries: its
# pair index and automorphism permutations are (automorphisms x base order),
# its composition table (automorphisms x automorphisms).  The check runs as
# the automorphism part grows, so none of them passes 128 MiB.
MAX_PAIR_TABLE = 1 << 24


def sorted_unique(x) -> np.ndarray:
    """np.unique(x) by a sort and a neighbour test: a plain np.unique imports
    numpy.ma under numpy 2, about 15 ms on its first call in a process."""
    x = np.sort(np.asarray(x), axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


class Group:
    """Common index-based interface; concrete classes fill in the tables."""

    size: int
    identity: int = 0
    generators: Tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_many(a, b))

    def inv(self, a: int) -> int:
        return int(self.inv_many(a))

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inv_many(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quotient_outer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All pairwise a_i * b_j^(-1), shape (len(a), len(b))."""
        return self.mul_outer(a, self.inv_many(b))

    def mul_outer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.mul_many(np.asarray(a)[:, None], np.asarray(b)[None, :])

    def mul_outer_by(self, b: np.ndarray):
        return lambda a: self.mul_outer(a, b)

    def element_name(self, a: int) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class _Block:
    """A run of consecutive cyclic factors of an abelian group.

    `coord[x]` is the block's part of element x, 0 .. order-1, so that
    x = sum over blocks of coord[x] * radix, and `digits[c]` c's digits.
    `table[c1 * order + c2]` is radix times the coordinate of c1 + c2 and
    `neg[c]` radix times that of -c, grown one factor at a time (_build_blocks);
    a lone factor above BLOCK_ORDER has neither and adds modulo its order.
    """

    radix: int
    order: int
    factors: Tuple[int, ...]
    coord: np.ndarray
    digits: np.ndarray
    table: Optional[np.ndarray]
    neg: Optional[np.ndarray]


def factor_runs(orders: Tuple[int, ...], bound: int):
    """(lo, hi, product) for runs orders[lo:hi] of consecutive factors, taken
    greedily while the product stays <= bound; a factor above it runs alone."""
    lo = 0
    while lo < len(orders):
        hi, m = lo + 1, orders[lo]
        while hi < len(orders) and m * orders[hi] <= bound:
            m *= orders[hi]
            hi += 1
        yield lo, hi, m
        lo = hi


def _build_blocks(orders: Tuple[int, ...], radix: np.ndarray) -> List[_Block]:
    size = prod(orders)
    blocks = []
    for lo, hi, m in factor_runs(orders, BLOCK_ORDER):
        weight = int(radix[lo])
        # x // weight % m: each of 0 .. m-1 repeated weight times, tiled
        coord = np.broadcast_to(np.arange(m, dtype=np.int64)[:, None],
                                (size // (weight * m), m, weight)).reshape(-1)
        digits = np.arange(m, dtype=np.int64)[:, None] // (radix[lo:hi] // weight) % orders[lo:hi]
        table = neg = None
        if m <= BLOCK_ORDER:
            # grown one factor at a time: over the factors so far, of product
            # s, the next factor's digit d turns coordinate c into c + s d
            table, neg, step = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), weight
            for n in orders[lo:hi]:
                d, s = np.arange(n, dtype=np.int64), neg.size
                table = (((d[:, None] + d) % n * step)[:, None, :, None]
                         + table.reshape(s, s)[None, :, None, :]).ravel()
                neg = (((n - d) % n * step)[:, None] + neg).ravel()
                step *= n  # the radix times s
        blocks.append(_Block(weight, m, orders[lo:hi], coord, digits, table, neg))
    return blocks


@functools.lru_cache(maxsize=None)
def _character_matrix(factors: Tuple[int, ...], inverse: bool) -> np.ndarray:
    """M[k, c] = exp(-2 pi i sum_f k_f c_f / n_f) over the digits of block
    coordinates k and c (first factor fastest): the Kronecker product of one
    n x n matrix of exact n-th roots per factor.  The inverse is conj(M) / m.
    M is symmetric."""
    mat = np.ones((1, 1), dtype=complex)
    for n in factors:
        c = np.arange(n)
        roots = np.exp((2j if inverse else -2j) * np.pi * c / n) / (n if inverse else 1)
        fac = roots[c[:, None] * c[None, :] % n]
        m = mat.shape[0]
        mat = (fac[:, None, :, None] * mat[None, :, None, :]).reshape(n * m, n * m)
    return mat


def check_order(size: Optional[int]) -> None:
    """Raise ParameterError if a group order (None: one known to be too
    large) exceeds MAX_GROUP_ORDER.  The order is shown when it is short;
    otherwise the message gives a bound, so it never formats an integer of
    unbounded length."""
    if size is not None and size <= MAX_GROUP_ORDER:
        return
    shown = (str(size) if size is not None and size.bit_length() <= 64
             else f"{2 * MAX_GROUP_ORDER} or more")
    raise ParameterError(f"group order {shown} exceeds the supported maximum "
                         f"of {MAX_GROUP_ORDER}")


def check_power_order(base: int, exp: int) -> None:
    """Raise ParameterError if base^exp (base >= 2) exceeds MAX_GROUP_ORDER.
    The power is at least 2^bits for bits = exp * (bit length of base - 1),
    and it is formed only when bits <= 64 (it is then below 2^128), so a
    request such as 3^(3*10^8) fails at once instead of computing the power
    or a tuple of its factors."""
    check_order(base ** exp if exp * (base.bit_length() - 1) <= 64 else None)


class AbelianGroup(Group):
    def __init__(self, orders: Sequence[int]):
        orders = tuple(int(n) for n in orders)
        if len(orders) == 0:
            raise EmptyOrders("an abelian group needs at least one cyclic factor")
        if any(n < 2 for n in orders):
            raise ParameterError(f"cyclic factor orders must be at least 2, got {orders}")
        size = prod(orders) if len(orders) <= MAX_FACTORS else None
        check_order(size)
        self.orders = orders
        self.size = size
        self._orders_arr = np.array(orders, dtype=np.int64)
        self._radix = np.cumprod((1,) + orders[:-1], dtype=np.int64)
        self.generators = tuple(self._radix.tolist())
        self._blocks: Optional[List[_Block]] = None

    def encode(self, digs: np.ndarray) -> np.ndarray:
        return (digs % self._orders_arr) @ self._radix

    def digits_of(self, a) -> np.ndarray:
        """The mixed-radix digits of the indices a, shape a.shape + (factors,)."""
        return np.asarray(a, dtype=np.int64)[..., None] // self._radix % self._orders_arr

    def _kernel(self) -> List[_Block]:
        if self._blocks is None:
            self._blocks = _build_blocks(self.orders, self._radix)
        return self._blocks

    def mul_many(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        out = None
        for blk in self._kernel():
            ca, cb = blk.coord[a], blk.coord[b]
            if blk.table is not None:
                term = blk.table[ca * blk.order + cb]
            else:
                term = ca + cb
                term -= blk.order * (term >= blk.order)
                term *= blk.radix
            if out is None:
                out = term
            else:
                out += term
        return out

    def inv_many(self, a):
        a = np.asarray(a)
        out = None
        for blk in self._kernel():
            c = blk.coord[a]
            if blk.table is not None:
                term = blk.neg[c]
            else:
                term = (blk.order - c) % blk.order * blk.radix
            if out is None:
                out = term
            else:
                out += term
        return out

    def character_transform(self, f, inverse: bool = False) -> np.ndarray:
        """Character sums F[..., k] = sum_x f[..., x] chi_k(x) along the last
        axis, with chi_k(x) = exp(-2 pi i sum_i k_i x_i / m_i) and characters
        indexed like the elements, so this is np.fft.fftn over the reversed
        orders (ifftn with inverse=True).  Each run of factors of product m <=
        _TRANSFORM_ORDER is one matmul with its character matrix, a lone
        factor above BLOCK_ORDER one FFT along its axis; after each step the
        axis moves to the front, so the last step restores the order."""
        f = np.asarray(f)
        x = f.reshape(-1, self.size)
        rows = x.shape[0]
        for lo, hi, m in factor_runs(self.orders, _TRANSFORM_ORDER):
            x = x.reshape(-1, m)
            if m > BLOCK_ORDER:
                x = np.fft.ifft(x) if inverse else np.fft.fft(x)
            else:
                x = x @ _character_matrix(self.orders[lo:hi], inverse)
            x = x.reshape(rows, -1, m).transpose(0, 2, 1)
        return x.reshape(f.shape)

    def linear_perm(self, mat: np.ndarray) -> np.ndarray:
        """x -> encode(digits(x) @ mat) on every element: encode is additive, so
        this is the product over blocks of encode(block digits @ block rows)."""
        out, lo = None, 0
        for blk in self._kernel():
            part = self.encode(blk.digits @ mat[lo:lo + len(blk.factors)])
            out = part[blk.coord] if out is None else self.mul_many(out, part[blk.coord])
            lo += len(blk.factors)
        return out

    def mul_outer_by(self, b: np.ndarray):
        """a -> mul_outer(a, b) for a fixed b, by one row gather per block from
        T[c, j], the block's part of c + b_j (for a lone factor, a modular add)."""
        parts = [(blk.coord, blk.table.reshape(blk.order, -1)[:, blk.coord[b]]
                  if blk.table is not None else
                  (np.arange(blk.order)[:, None] + blk.coord[b]) % blk.order * blk.radix)
                 for blk in self._kernel()]
        return lambda a: functools.reduce(operator.iadd, (t.take(c[a], 0) for c, t in parts))

    def pow_many(self, a, e: int):
        # e reduced per factor first, so no digit * e leaves int64
        return self.encode(self.digits_of(a) * (e % self._orders_arr))

    def pow(self, a: int, e: int) -> int:
        return int(self.pow_many(a, e))

    def element_name(self, a: int) -> str:
        return "(" + ",".join(str(a // r % n) for r, n in zip(self.generators, self.orders)) + ")"

    def __repr__(self) -> str:
        return " x ".join(f"C{n}" for n in self.orders)


def abelian_make(orders: Sequence[int]) -> AbelianGroup:
    return AbelianGroup(orders)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

class GroupAutomorphism:
    """A certified automorphism, stored as generator images plus a full
    permutation of the element indices (x -> x^phi)."""

    def __init__(self, group: Group, images: Tuple[int, ...], perm: np.ndarray):
        self.group = group
        self.images = images
        self.perm = perm

    def __repr__(self) -> str:
        imgs = ",".join(self.group.element_name(i) for i in self.images)
        return f"Aut[{imgs}]"


def _extend_images_to_perm(group: Group, images: Sequence[int]) -> np.ndarray:
    if isinstance(group, AbelianGroup):
        return group.linear_perm(group.digits_of(images))
    if isinstance(group, ExtensionGroup):
        # perm(z) = perm(parent) * image(generator), one BFS layer at a time:
        # bfs_parent is nondecreasing, so the elements whose parents are all
        # before position lo run up to the first position whose parent is not
        imgs = np.asarray(images, dtype=np.int64)
        perm = np.zeros(group.size, dtype=np.int64)
        lo = 1
        while lo < group.size:
            hi = int(np.searchsorted(group.bfs_parent, lo))
            perm[lo:hi] = group.mul_many(perm[group.bfs_parent[lo:hi]],
                                         imgs[group.bfs_genidx[lo:hi]])
            lo = hi
        return perm
    raise ParameterError(f"cannot extend images over {type(group).__name__}")


def aut_from_images(group: Group, images: Sequence[int]) -> GroupAutomorphism:
    """Certify that the generator-image map extends to an automorphism: a
    bijection obeying an abelian group's relations n_i img_i = 1, or on an
    extension perm(x g) = perm(x) img(g) (see module notes).

    Raises NotBijective / NotHomomorphism with a witness otherwise.
    """
    images = tuple(int(i) for i in images)
    if len(images) != len(group.generators):
        raise ParameterError(
            f"need {len(group.generators)} generator images, got {len(images)}")
    for i in images:
        if not 0 <= i < group.size:
            raise ParameterError(f"image index {i} out of range")
    n = group.size
    perm = _extend_images_to_perm(group, images)

    counts = np.bincount(perm, minlength=n)
    if counts.max() > 1:
        dup = int(np.argmax(counts > 1))
        hits = np.nonzero(perm == dup)[0][:2]
        raise NotBijective(
            f"elements {group.element_name(int(hits[0]))} and "
            f"{group.element_name(int(hits[1]))} share the image {group.element_name(dup)}")

    if isinstance(group, AbelianGroup):
        # e_i -> img_i extends to a homomorphism, which is then perm, iff
        # every n_i img_i = perm((n_i - 1) e_i) * img_i is the identity
        powers = group.mul_many(perm[(group._orders_arr - 1) * group._radix], images)
        name = group.element_name
        for g, img, n_i, p in zip(group.generators, images, group.orders, powers.tolist()):
            if p:
                raise NotHomomorphism(
                    f"generator {name(g)} of order {n_i} goes to {name(img)}, which breaks "
                    f"the relation {n_i}*{name(g)} = identity: {n_i}*{name(img)} = {name(p)}")
        return GroupAutomorphism(group, images, perm)
    # perm(1) = 1 by construction; pinning perm(x g) = perm(x) img for every
    # x and generator g (at x = 1 this also fixes perm(g) = img) extends to
    # all products by induction on word length.
    all_idx = np.arange(n, dtype=np.int64)
    for g, img in zip(group.generators, images):
        bad = np.nonzero(perm[group.mul_many(all_idx, g)] != group.mul_many(perm, img))[0]
        if bad.size:
            x = int(bad[0])
            raise NotHomomorphism(
                f"images of {group.element_name(x)} and {group.element_name(g)} "
                f"do not multiply compatibly")
    return GroupAutomorphism(group, images, perm)


# ---------------------------------------------------------------------------
# semidirect extensions
# ---------------------------------------------------------------------------

class ExtensionGroup(Group):
    """Result of a breadth-first closure inside Aut(B) x B; see module notes."""

    def __init__(self, base: Group, aut_perms: np.ndarray, aut_mul: np.ndarray,
                 aut_inv: np.ndarray, aut_part: np.ndarray, base_part: np.ndarray,
                 pair_index: np.ndarray, bfs_parent: np.ndarray, bfs_genidx: np.ndarray,
                 gen_elements: Tuple[int, ...], gen_pairs: List[Tuple[int, int]]):
        self.base = base
        self.aut_perms = aut_perms
        self.aut_mul = aut_mul
        self.aut_inv = aut_inv
        self.aut_part = aut_part
        self.base_part = base_part
        self.pair_index = pair_index
        self.bfs_parent = bfs_parent
        self.bfs_genidx = bfs_genidx
        self.size = int(aut_part.shape[0])
        self.generators = gen_elements
        self.gen_pairs = gen_pairs
        self._nb = base.size

    def pair_of(self, z: int) -> Tuple[int, int]:
        return int(self.aut_part[z]), int(self.base_part[z])

    def index_of_pair(self, a: int, b: int) -> int:
        idx = int(self.pair_index[a * self._nb + b])
        if idx < 0:
            raise NotASubgroupMember(
                f"pair (aut {a}, {self.base.element_name(b)}) is not in the closure")
        return idx

    def mul_many(self, x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        a1, b1 = self.aut_part[x], self.base_part[x]
        a2, b2 = self.aut_part[y], self.base_part[y]
        a = self.aut_mul[a1, a2]
        b = self.base.mul_many(self.aut_perms[a2, b1], b2)
        return self.pair_index[a * self._nb + b]

    def inv_many(self, x):
        x = np.asarray(x)
        ai = self.aut_inv[self.aut_part[x]]
        bi = self.aut_perms[ai, self.base.inv_many(self.base_part[x])]
        return self.pair_index[ai * self._nb + bi]

    def element_name(self, z: int) -> str:
        a, b = self.pair_of(z)
        return f"(f{a};{self.base.element_name(b)})"

    def __repr__(self) -> str:
        return f"Extension[{self.aut_perms.shape[0]} auts over {self.base!r}, order {self.size}]"


def group_levels(group: Group) -> List[Group]:
    """The tower under `group`: its abelian bottom level first, `group` last."""
    levels = [group]
    while isinstance(levels[-1], ExtensionGroup):
        levels.append(levels[-1].base)
    return levels[::-1]


def tower_walk(levels: List[Group], x, top=None) -> Tuple[np.ndarray, np.ndarray]:
    """Walk elements x down the tower `levels` (group_levels): each has a top
    tau(x), its automorphism parts as one code, the group's own fastest, and
    a bottom beta(x) in the abelian bottom group B.  Returns (tau(x w),
    Lambda_top(x)) for any w of top code `top`, where beta(x w) =
    Lambda_top(x) + beta(w) - on one level (a, b)(c, b') = (a c, phi_c(b) + b')
    - or with top=None (tau(x), beta(x)); one gather per level."""
    tgt, radix = 0, 1
    for g in levels[:0:-1]:
        na = g.aut_mul.shape[0]
        if top is None:
            part, x = g.aut_part[x], g.base_part[x]
        else:
            a, top = top % na, top // na
            part, x = g.aut_mul[g.aut_part[x], a], g.aut_perms[a, g.base_part[x]]
        tgt, radix = part if radix == 1 else tgt + radix * part, radix * na
    return tgt, x


def tower_has(levels: List[Group], top: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether the group has an element of top code `top` and bottom b."""
    for i, g in enumerate(levels[1:], 1):
        a = top // prod(h.aut_mul.shape[0] for h in levels[i + 1:]) % g.aut_mul.shape[0]
        b = np.where(b < 0, -1, g.pair_index[a * g.base.size + b])
    return b >= 0


def _check_pair_table(na: int, nb: int) -> None:
    # the pair index and the permutations are na x nb, the composition table
    # na x na
    if na * max(na, nb) > MAX_PAIR_TABLE:
        raise ParameterError(
            f"an extension with {na} automorphisms over a base of order {nb} needs "
            f"tables of {na * max(na, nb)} entries, above the supported maximum of "
            f"{MAX_PAIR_TABLE}")


def close_automorphisms(base: Group, gen_perms: Sequence[np.ndarray], cap: int
                        ) -> Tuple[List[np.ndarray], Dict[bytes, int], List[int]]:
    """Close the base permutations gen_perms breadth-first from the identity,
    keyed on generator images (p_j after p_i costs r lookups, and a full
    permutation is composed only when new): (perms, key -> index, the index
    of each of gen_perms).  Raises ClosureOverflow past `cap` automorphisms."""
    gens_b = np.array(base.generators, dtype=np.int64)
    perms: List[np.ndarray] = [np.arange(base.size, dtype=np.int64)]
    keys: Dict[bytes, int] = {gens_b.tobytes(): 0}
    gen_idx: List[int] = []
    for p in gen_perms:
        k = p[gens_b].astype(np.int64).tobytes()
        if k not in keys:
            keys[k] = len(perms)
            perms.append(p.astype(np.int64, copy=False))
        gen_idx.append(keys[k])
    i = 0
    while i < len(perms):  # perms grows behind i
        img = perms[i][gens_b]
        for j in gen_idx:
            k = perms[j][img].tobytes()
            if k not in keys:
                keys[k] = len(perms)
                perms.append(perms[j][perms[i]])
                if len(perms) > cap:
                    raise ClosureOverflow(f"automorphism part exceeded the cap of {cap}")
                _check_pair_table(len(perms), base.size)
        i += 1
    return perms, keys, gen_idx


def extension_closure(base: Group, auts: Sequence[GroupAutomorphism],
                      gens: Sequence[Tuple[Sequence[int], int]],
                      cap: Optional[int] = None) -> ExtensionGroup:
    """Close a list of (automorphism word, base element) generators.

    Each generator's automorphism part is given as a word in the supplied
    automorphism list (an empty word is the identity).  In a layer of >= 1024
    translation products, a translation (1, e) takes (a, b) to (a, b e) by the
    base's mul_outer_by, with no aut_mul or aut_perms lookup.  Raises
    ClosureOverflow if the closure exceeds `cap` (default 2 * |base|) elements.
    """
    if cap is None:
        cap = 2 * base.size
    nb = base.size
    for a in auts:
        if a.group is not base:
            raise ParameterError("automorphism acts on a different group than the base")

    perms, keys, gen_aut_idx = close_automorphisms(base, [a.perm for a in auts], cap)
    na = len(perms)
    _check_pair_table(na, nb)
    aut_perms = np.stack(perms)
    # aut_mul[i, j] is p_j after p_i, whose generator images are p_j[img_i]
    aut_mul = np.array([[keys[k.tobytes()] for k in aut_perms[:, img]]
                        for img in aut_perms[:, list(base.generators)]], dtype=np.int64)
    aut_inv = np.argmin(aut_mul, axis=1).astype(np.int64)  # aut_mul[i,j]==0 exactly once

    gen_pairs: List[Tuple[int, int]] = []
    for word, b in gens:
        a = 0
        for w in word:
            if not 0 <= w < len(gen_aut_idx):
                raise ParameterError(f"automorphism word index {w} out of range")
            a = int(aut_mul[a, gen_aut_idx[w]])
        if not 0 <= b < nb:
            raise ParameterError(f"generator base element {b} out of range")
        gen_pairs.append((a, int(b)))

    # Breadth-first, one layer at a time: every (frontier position, generator)
    # product at once, the ones already enumerated dropped, and the rest kept
    # at their first occurrence in (parent position, generator index) order -
    # the order in which a one-element-at-a-time BFS would meet them.
    ng = len(gen_pairs)
    gen_a, gen_b = np.array(gen_pairs, dtype=np.int64).reshape(-1, 2).T
    nt = sum(a == 0 for a, _ in gen_pairs)
    translate = None  # built on the first wide layer, if any
    pair_index = np.full(na * nb, -1, dtype=np.int64)
    pair_index[0] = 0
    zero = np.zeros(1, dtype=np.int64)
    aut_part, base_part, parent, genidx = [zero], [zero], [zero], [zero]
    size = 1
    lo = 0
    front_a, front_b = zero, zero
    while front_a.size and ng:
        wide = front_a.size * nt >= 1024  # narrower: numpy call costs outweigh the kernel
        if wide and translate is None:
            shift, twist = np.flatnonzero(gen_a == 0), np.flatnonzero(gen_a)
            translate = base.mul_outer_by(gen_b[shift])
            shift, twist = (slice(c[0], c[-1] + 1) if len(c) and c[-1] - c[0] == len(c) - 1
                            else c for c in (shift, twist))  # a run of columns assigns faster
        cols = twist if wide else slice(None)
        part = (aut_mul[front_a[:, None], gen_a[cols]] * nb
                + base.mul_many(aut_perms[gen_a[cols], front_b[:, None]], gen_b[cols]))
        keys = np.empty((front_a.size, ng), dtype=np.int64) if wide else part
        if wide:
            keys[:, shift] = translate(front_b) + (front_a * nb)[:, None]
            keys[:, twist] = part
        keys = keys.ravel()
        fresh = np.flatnonzero(pair_index[keys] < 0)
        # first occurrences, sort-free: pair_index[key] = least position of key
        k, pos = keys[fresh], np.arange(fresh.size)
        pair_index[k] = fresh.size
        np.minimum.at(pair_index, k, pos)
        take = fresh[pair_index[k] == pos]
        if size + take.size > cap:
            raise ClosureOverflow(f"closure exceeded the cap of {cap} elements")
        new_keys = keys[take]
        pair_index[new_keys] = np.arange(size, size + take.size)
        front_a, front_b = new_keys // nb, new_keys % nb
        aut_part.append(front_a)
        base_part.append(front_b)
        parent.append(lo + take // ng)
        genidx.append(take % ng)
        lo, size = size, size + take.size

    gen_elements = tuple(int(pair_index[a * nb + b]) for a, b in gen_pairs)
    return ExtensionGroup(base, aut_perms, aut_mul, aut_inv,
                          np.concatenate(aut_part), np.concatenate(base_part),
                          pair_index, np.concatenate(parent), np.concatenate(genidx),
                          gen_elements, gen_pairs)


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def element_set(group: Group, elements, what: str) -> Tuple[np.ndarray, np.ndarray]:
    """A set of element indices as a sorted, read-only int64 array and its
    read-only membership mask over the group.  Raises ParameterError if an
    index repeats, else naming the first one in input order that is out of
    range.  Indices above int64 arrive as an object array and compare as
    Python ints."""
    given = np.asarray(elements).reshape(-1)
    members = np.sort(given)
    if (members[1:] == members[:-1]).any():
        raise ParameterError(f"{what} members must be distinct")
    outside = (given < 0) | (given >= group.size)
    if outside.any():
        raise ParameterError(f"member index {given[outside.argmax()]} out of range")
    members = members.astype(np.int64, copy=False)
    mask = np.zeros(group.size, dtype=bool)
    mask[members] = True
    members.flags.writeable = mask.flags.writeable = False
    return members, mask


class Subgroup:
    """Its members are a sorted, read-only int64 array with a read-only mask;
    `gens` generate it.  `spanned` is true only for a subgroup_closure result,
    whose members are the span of `gens` by construction; other members are a
    claim, which verify.forbidden_subgroup proves or refutes."""

    def __init__(self, parent: Group, members, gens: Sequence[int]):
        self.parent = parent
        self.members, self.mask = element_set(parent, members, "subgroup")
        self.gens = gens
        self._spanned = False  # set by subgroup_closure alone

    @property
    def spanned(self) -> bool:
        return self._spanned

    @property
    def order(self) -> int:
        return self.members.size

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent!r})"


def subgroup_closure(group: Group, gens: Sequence[int]) -> Subgroup:
    for g in gens:
        if not 0 <= int(g) < group.size:
            raise NotASubgroupMember(f"generator index {g} out of range")
    gens = tuple(int(g) for g in gens)
    gen_arr = np.array(gens, dtype=np.int64)
    seen = np.zeros(group.size, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size and gen_arr.size:
        prods = group.mul_outer(frontier, gen_arr).ravel()
        frontier = sorted_unique(prods[~seen[prods]])
        seen[frontier] = True
    span = Subgroup(group, np.flatnonzero(seen), gens)
    span._spanned = True
    return span


def greedy_span(group: Group, members: Sequence[int]) -> Subgroup:
    """The subgroup the members generate, from greedy generators: each member
    outside the span of those taken before is taken and the span re-closed, so
    at most log2 of its order are, and no product of two members is formed."""
    members = np.asarray(members, dtype=np.int64).reshape(-1)
    span = subgroup_closure(group, members[:0])
    outside = members[~span.mask[members]]
    while outside.size:
        span = subgroup_closure(group, span.gens + (int(outside[0]),))
        outside = outside[~span.mask[outside]]
    return span


def normality_witness(group: Group, sub: Subgroup) -> Optional[Tuple[int, int, int]]:
    """A triple (g, x, g^-1 x g) showing the subgroup is not normal, else None."""
    if sub.parent is not group:
        raise ParameterError("subgroup belongs to a different group")
    sgens = np.array(sub.gens, dtype=np.int64)
    for g in group.generators:
        conj = group.mul_many(group.inv(g), group.mul_many(sgens, g))
        bad = np.nonzero(~sub.mask[conj])[0]
        if bad.size:
            return (g, int(sgens[bad[0]]), int(conj[bad[0]]))
    return None


# ---------------------------------------------------------------------------
# structure fingerprint
# ---------------------------------------------------------------------------

def element_orders(group: Group) -> np.ndarray:
    """Every element's order, read from the group's structure.

    Abelian: the lcm over blocks of the block coordinate's order, tabled per
    block.  Extension: (a1, b1)(a2, b2) = (a1 a2, phi_a2(b1) b2) gives
    (a, b)^j = (a^j, N_j) with N_1 = b and N_(j+1) = phi_a(N_j) b, so
    ord(a, b) = ord(a) * ord_B(N_a(b)) with N_a(b) = N_ord(a), ord_B the
    base's own element orders: one base product per power j < max ord(a),
    over the elements whose automorphism part has order above j."""
    if isinstance(group, AbelianGroup):
        out = np.ones(group.size, dtype=np.int64)
        for blk in group._kernel():
            table = np.lcm.reduce(blk.factors // np.gcd(blk.digits, blk.factors), axis=1)
            out = np.lcm(out, table[blk.coord])
        return out
    base_ord = element_orders(group.base)
    out = np.empty(group.size, dtype=np.int64)
    # the live elements z = (a, b) with a^j = power and N_j = acc
    live, power, acc, j = np.arange(group.size), group.aut_part, group.base_part, 1
    while live.size:
        done = power == 0
        out[live[done]] = j * base_ord[acc[done]]
        live, power, acc = live[~done], power[~done], acc[~done]
        a = group.aut_part[live]
        acc = group.base.mul_many(group.aut_perms[a, acc], group.base_part[live])
        power, j = group.aut_mul[power, a], j + 1
    return out


def nonabelian_witness(group: Group) -> Optional[Tuple[int, int]]:
    """A pair of non-commuting generators, or None when all generators commute
    (which makes the whole group abelian)."""
    gens = group.generators
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if group.mul(g, h) != group.mul(h, g):
                return (g, h)
    return None


@dataclass(frozen=True)
class StructureReport:
    order: int
    is_abelian: bool
    exponent: int
    order_histogram: Tuple[Tuple[int, int], ...]
    center_order: int
    derived_order: int
    nonabelian_pair: Optional[Tuple[int, int]]


def fingerprint(group: Group) -> StructureReport:
    """Isomorphism-invariant summary used to compare construction outputs."""
    n = group.size
    orders = element_orders(group)
    vals, counts = np.unique(orders, return_counts=True)
    hist = tuple((int(v), int(c)) for v, c in zip(vals, counts))
    exponent = int(np.lcm.reduce(vals))

    # the center: candidates that commute with each generator in turn, those
    # with an automorphism part first (base translations barely shrink it)
    abelian = isinstance(group, AbelianGroup)
    central = np.arange(n, dtype=np.int64)
    for g in sorted(group.generators, key=lambda g: abelian or group.aut_part[g] == 0):
        central = central[group.mul_many(g, central) == group.mul_many(central, g)]
    # the derived subgroup: the normal closure of the generator commutators
    # [g_i, g_j] = g_i^-1 g_j^-1 g_i g_j, adding conjugates g^-1 s g of its
    # generators s until none falls outside
    gens = np.array(group.generators, dtype=np.int64)
    inv = group.inv_many(gens)
    coms = group.mul_many(group.mul_outer(inv, inv), group.mul_outer(gens, gens)).ravel()
    dgens = sorted_unique(coms[coms != group.identity])
    while True:
        derived = subgroup_closure(group, dgens)
        conj = group.mul_many(inv[:, None], group.mul_outer(dgens, gens).T)
        fresh = sorted_unique(conj[~derived.mask[conj]])
        if not fresh.size:
            break
        dgens = np.concatenate([dgens, fresh])

    witness = nonabelian_witness(group)
    return StructureReport(
        order=n,
        is_abelian=witness is None,
        exponent=exponent,
        order_histogram=hist,
        center_order=int(central.size),
        derived_order=derived.order,
        nonabelian_pair=witness,
    )
