"""Naive reference implementations used to cross-check the library.

Everything here is deliberately dumb: dict-counting nested loops and
digit-vector arithmetic written from scratch.  Nothing is imported from the
package under test, so agreement between these functions and the library is
meaningful evidence rather than a tautology.

Elements are 0-based integers.  For abelian groups the index convention is
mixed radix with the first coordinate varying fastest:
idx = d0 + orders[0] * (d1 + orders[1] * (d2 + ...)).
"""

from itertools import product
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def decode(orders: Sequence[int], idx: int) -> List[int]:
    digits = []
    for n in orders:
        digits.append(idx % n)
        idx //= n
    return digits


def encode(orders: Sequence[int], digits: Sequence[int]) -> int:
    idx = 0
    for n, d in zip(reversed(orders), reversed(list(digits))):
        idx = idx * n + (d % n)
    return idx


def abelian_mul(orders: Sequence[int], a: int, b: int) -> int:
    da, db = decode(orders, a), decode(orders, b)
    return encode(orders, [x + y for x, y in zip(da, db)])


def abelian_inv(orders: Sequence[int], a: int) -> int:
    return encode(orders, [-d for d in decode(orders, a)])


def block_tables(factors: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(table, neg) over the coordinates 0 .. m-1 of a run of cyclic factors
    of product m: table[c1 * m + c2] is the coordinate of the digit-by-digit
    sum of c1 and c2, neg[c] that of the digit-by-digit negation of c."""
    m = 1
    for n in factors:
        m *= n
    digits = [decode(factors, c) for c in range(m)]
    table = [encode(factors, [x + y for x, y in zip(d1, d2)])
             for d1 in digits for d2 in digits]
    neg = [encode(factors, [-x for x in d]) for d in digits]
    return table, neg


MulFn = Callable[[int, int], int]
InvFn = Callable[[int], int]


def difference_counts(mul: MulFn, inv: InvFn,
                      members: Sequence[int]) -> Dict[int, int]:
    """counts[g] = number of ordered pairs (d1, d2) with d1 * d2^-1 = g."""
    counts: Dict[int, int] = {}
    for d1 in members:
        for d2 in members:
            g = mul(d1, inv(d2))
            counts[g] = counts.get(g, 0) + 1
    return counts


def ds_lambda(size: int, mul: MulFn, inv: InvFn,
              members: Sequence[int], identity: int = 0) -> Optional[int]:
    """The common off-identity quotient count, or None if not constant."""
    counts = difference_counts(mul, inv, members)
    values = {counts.get(g, 0) for g in range(size) if g != identity}
    if len(values) != 1:
        return None
    return values.pop()


def pds_params(size: int, mul: MulFn, inv: InvFn, members: Sequence[int],
               identity: int = 0) -> Optional[Tuple[int, int, int, int]]:
    """(v, k, lambda, mu) if the member set is a PDS, else None."""
    counts = difference_counts(mul, inv, members)
    mem = set(members)
    on = {counts.get(g, 0) for g in range(size) if g != identity and g in mem}
    off = {counts.get(g, 0) for g in range(size)
           if g != identity and g not in mem}
    if len(on) > 1 or len(off) > 1:
        return None
    lam = on.pop() if on else 0
    mu = off.pop() if off else 0
    return size, len(members), lam, mu


def rds_ok(size: int, mul: MulFn, inv: InvFn, members: Sequence[int],
           forbidden: Sequence[int], lam: int, identity: int = 0) -> bool:
    """True iff quotients avoid the forbidden subgroup and hit everything
    else exactly lam times."""
    counts = difference_counts(mul, inv, members)
    fset = set(forbidden)
    for g in range(size):
        want = 0 if g in fset and g != identity else (
            len(members) if g == identity else lam)
        if counts.get(g, 0) != want:
            return False
    return True


def srg_params(size: int, mul: MulFn, inv: InvFn,
               members: Sequence[int]) -> Optional[Tuple[int, int, int, int]]:
    """(n, k, lambda, mu) of the Cayley graph u ~ v iff v * u^-1 is a member,
    or None if the graph is not strongly regular.  Cubic time; small n only."""
    mem = set(members)
    adj: List[set] = [set() for _ in range(size)]
    for u in range(size):
        ui = inv(u)
        for v in range(size):
            if v != u and mul(v, ui) in mem:
                adj[u].add(v)
    degs = {len(a) for a in adj}
    if len(degs) != 1:
        return None
    k = degs.pop()
    lam_set, mu_set = set(), set()
    for u in range(size):
        for v in range(u + 1, size):
            common = len(adj[u] & adj[v])
            (lam_set if v in adj[u] else mu_set).add(common)
    if len(lam_set) > 1 or len(mu_set) > 1:
        return None
    return (size, k, lam_set.pop() if lam_set else 0,
            mu_set.pop() if mu_set else 0)


def element_order(mul: MulFn, g: int, identity: int = 0) -> int:
    order, acc = 1, g
    while acc != identity:
        acc = mul(acc, g)
        order += 1
    return order


def order_histogram(size: int, mul: MulFn,
                    identity: int = 0) -> Tuple[Tuple[int, int], ...]:
    counts: Dict[int, int] = {}
    for g in range(size):
        o = element_order(mul, g, identity)
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def center_order(table: Sequence[Sequence[int]]) -> int:
    """Elements whose row and column of the Cayley table agree."""
    n = len(table)
    return sum(all(table[x][y] == table[y][x] for y in range(n)) for x in range(n))


def derived_order(table: Sequence[Sequence[int]], identity: int = 0) -> int:
    """Order of the subgroup generated by every commutator x^-1 y^-1 x y,
    closed under products of all its members until nothing new appears."""
    n = len(table)
    inv = [list(row).index(identity) for row in table]
    members = {table[table[inv[x]][inv[y]]][table[x][y]] for x in range(n) for y in range(n)}
    members.add(identity)
    while True:
        grown = members | {table[a][b] for a in members for b in members}
        if len(grown) == len(members):
            return len(members)
        members = grown


def is_abelian(size: int, mul: MulFn) -> bool:
    return all(mul(a, b) == mul(b, a)
               for a in range(size) for b in range(a + 1, size))


def abelian_automorphism(orders: Sequence[int],
                         images: Sequence[int]) -> Optional[List[int]]:
    """The permutation x -> img_0^d_0 img_1^d_1 ... (d the digits of x), if
    it is a bijective homomorphism, else None.  Any homomorphism with these
    generator images is this map; the homomorphism test runs over the whole
    Cayley table."""
    size = 1
    for n in orders:
        size *= n
    perm = []
    for x in range(size):
        acc = 0
        for d, img in zip(decode(orders, x), images):
            for _ in range(d):
                acc = abelian_mul(orders, acc, img)
        perm.append(acc)
    if len(set(perm)) != size:
        return None
    for x in range(size):
        for y in range(size):
            if perm[abelian_mul(orders, x, y)] != abelian_mul(orders, perm[x], perm[y]):
                return None
    return perm


def aut_closure(n: int, perms: Sequence[Sequence[int]]):
    """Close permutations of range(n) under composition, comparing whole
    permutations: the identity first, then each listed permutation not seen
    yet, then p_j after p_i for every listed j, taking i in order of
    discovery.

    Returns (closed, gen_idx, mul): gen_idx[w] is the position of listed
    permutation w, and mul[i][j] that of p_j after p_i, i.e. x -> p_j(p_i(x)).
    """
    closed = [list(range(n))]
    gen_idx = []
    for p in perms:
        p = list(p)
        if p not in closed:
            closed.append(p)
        gen_idx.append(closed.index(p))
    i = 0
    while i < len(closed):
        for j in gen_idx:
            comp = [closed[j][x] for x in closed[i]]
            if comp not in closed:
                closed.append(comp)
        i += 1
    mul = [[closed.index([q[x] for x in p]) for q in closed] for p in closed]
    return closed, gen_idx, mul


def closure_bfs(base_mul: MulFn, aut_perms: Sequence[Sequence[int]],
                aut_mul: Sequence[Sequence[int]],
                gen_pairs: Sequence[Tuple[int, int]], nb: int):
    """Breadth-first closure of (automorphism, base element) generators, one
    element at a time: (a1, b1)(a2, b2) = (a1 a2, b1^a2 * b2).

    Returns (aut_part, base_part, parent, genidx, pair_index) as lists, with
    pair_index[a * nb + b] the position of the pair or -1.
    """
    na = len(aut_perms)
    pair_index = [-1] * (na * nb)
    pair_index[0] = 0
    aut_part, base_part, parent, genidx = [0], [0], [0], [0]
    pos = 0
    while pos < len(aut_part):
        a1, b1 = aut_part[pos], base_part[pos]
        for gi, (a2, b2) in enumerate(gen_pairs):
            a = aut_mul[a1][a2]
            b = base_mul(aut_perms[a2][b1], b2)
            if pair_index[a * nb + b] < 0:
                pair_index[a * nb + b] = len(aut_part)
                aut_part.append(a)
                base_part.append(b)
                parent.append(pos)
                genidx.append(gi)
        pos += 1
    return aut_part, base_part, parent, genidx, pair_index


def right_cosets(size: int, mul: MulFn,
                 members: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(reps, cosid) of the right cosets H x, walking every element: each
    element not yet placed starts a coset, so the reps ascend."""
    cosid = [-1] * size
    reps: List[int] = []
    for x in range(size):
        if cosid[x] < 0:
            for h in members:
                cosid[mul(h, x)] = len(reps)
            reps.append(x)
    return reps, cosid


def coset_orbit(size: int, mul: MulFn, members: Sequence[int],
                acting: Sequence[Tuple[Sequence[int], int]]):
    """(reached, total, witness) for the orbit of H under H x -> H x^phi g,
    one coset at a time; witness is the smallest rep left out, or None."""
    reps, cosid = right_cosets(size, mul, members)
    seen = [False] * len(reps)
    seen[cosid[0]] = True
    queue = [cosid[0]]
    for c in queue:
        for perm, g in acting:
            d = cosid[mul(perm[reps[c]], g)]
            if not seen[d]:
                seen[d] = True
                queue.append(d)
    reached = sum(seen)
    witness = None if reached == len(reps) else reps[seen.index(False)]
    return reached, len(reps), witness


def _power(mul: MulFn, g: int, e: int, identity: int = 0) -> int:
    acc = identity
    for _ in range(e):
        acc = mul(acc, g)
    return acc


def _word(mul: MulFn, gens: Sequence[int], exps: Sequence[int]) -> int:
    acc = 0
    for g, e in zip(gens, exps):
        acc = mul(acc, _power(mul, g, e))
    return acc


def dillon_forward(group, members: Sequence[int], target):
    """Dillon's substitution by scalar search: (sorted members in the target,
    log line), or None when no choice of generator images embeds the
    translation slice H.  `group` is the dihedral design's extension group,
    read through its aut_part / base_part tables and its base's scalar mul
    and inv; `target` through its scalar mul and size.  H's generators are
    taken greedily, each least element of H outside the span of those before;
    each image runs over the target elements whose power by the generator's
    order is the identity, in lexicographic order."""
    base = group.base
    aut = [int(a) for a in group.aut_part]
    bp = [int(b) for b in group.base_part]
    h_codes = sorted(bp[z] for z in range(len(aut)) if aut[z] == 0)
    d1 = [bp[z] for z in members if aut[z] == 0]
    twisted = [bp[z] for z in members if aut[z] != 0]
    c_ref = min(twisted)
    d2 = [base.mul(c_ref, base.inv(t)) for t in twisted]
    gens: List[int] = []
    span = {0}
    for h in h_codes:
        if h not in span:
            gens.append(h)
            frontier = list(span)
            while frontier:
                frontier = [y for y in {base.mul(x, g) for x in frontier for g in gens}
                            if y not in span]
                span.update(frontier)
    orders = [element_order(base.mul, g) for g in gens]
    tuples = list(product(*[range(o) for o in orders]))
    sources = [_word(base.mul, gens, exps) for exps in tuples]
    candidates = [[t for t in range(target.size) if _power(target.mul, t, o) == 0]
                  for o in orders]
    for images in product(*candidates):
        dests = [_word(target.mul, images, exps) for exps in tuples]
        if len(set(dests)) == len(h_codes):
            break
    else:
        return None
    emb = dict(zip(sources, dests))
    image = set(dests)
    k = min(t for t in range(target.size) if t not in image)
    out = sorted([emb[x] for x in d1] + [target.mul(emb[x], k) for x in d2])
    return out, (f"D1 size {len(d1)}, D2 size {len(d2)}, reference twist base "
                 f"{base.element_name(c_ref)}, k = {target.element_name(k)}")


def _poly_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int],
                 p: int) -> List[int]:
    """a * b modulo a monic modulus, coefficients mod p, low degree first."""
    m = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for d in range(len(out) - 1, m - 1, -1):
        c = out[d]
        for j in range(m + 1):
            out[d - m + j] = (out[d - m + j] - c * modulus[j]) % p
    return (out + [0] * m)[:m]


def _prime_divisors(n: int) -> List[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def default_modulus(p: int, m: int) -> Tuple[int, ...]:
    """The first monic degree-m polynomial over GF(p), tails (c_0 .. c_{m-1})
    in lexicographic order with c_0 most significant, modulo which x (for
    m = 1 the residue -c_0) has multiplicative order exactly p^m - 1: every
    candidate is tried in turn, with no shortcut."""
    q1 = p ** m - 1

    def power(x: List[int], e: int, modulus: List[int]) -> List[int]:
        acc = [1] + [0] * (m - 1)
        while e:
            if e & 1:
                acc = _poly_mulmod(acc, x, modulus, p)
            x = _poly_mulmod(x, x, modulus, p)
            e >>= 1
        return acc

    one = [1] + [0] * (m - 1)
    tails = [[]]
    for _ in range(m):
        tails = [t + [c] for t in tails for c in range(p)]
    for tail in tails:
        modulus = tail + [1]
        x = [0, 1] if m > 1 else [(-tail[0]) % p]
        if power(x, q1, modulus) == one and all(
                power(x, q1 // ell, modulus) != one for ell in _prime_divisors(q1)):
            return tuple(modulus)
    raise ValueError(f"no primitive polynomial of degree {m} over GF({p})")


def _poly_code(p: int, coeffs: Sequence[int]) -> int:
    return sum(c * p ** i for i, c in enumerate(coeffs))


def _poly_of(p: int, m: int, code: int) -> List[int]:
    return [code // p ** i % p for i in range(m)]


def field_powers(p: int, modulus: Sequence[int], count: int) -> List[int]:
    """Codes of x^0 .. x^(count-1) modulo a monic modulus over Z/p (for
    m = 1 "x" is the residue -c_0), one schoolbook multiplication at a time.
    p need not be prime: p = 4 gives the powers in a Galois ring."""
    m = len(modulus) - 1
    x = [0, 1] if m > 1 else [(-modulus[0]) % p]
    cur = [1] + [0] * (m - 1)
    out = []
    for _ in range(count):
        out.append(_poly_code(p, cur))
        cur = _poly_mulmod(cur, x, modulus, p)
    return out


def field_embedding(p: int, small_mod: Sequence[int],
                    big_mod: Sequence[int]) -> List[int]:
    """The embedding of GF(p)[x]/(small_mod) into GF(p)[x]/(big_mod), both
    primitive, as a code table: the generator goes to the first y = x^(j s),
    s = (Q - 1) / (q - 1) and j = 1, 2, ... coprime to q - 1, at which
    small_mod vanishes; the element with digits d goes to sum d_i y^i."""
    m, big_m = len(small_mod) - 1, len(big_mod) - 1
    q, big_q = p ** m, p ** big_m
    step = (big_q - 1) // (q - 1)
    powers = field_powers(p, big_mod, big_q - 1)

    def at(y_code: int, coeffs: Sequence[int]) -> List[int]:
        y, acc, term = _poly_of(p, big_m, y_code), [0] * big_m, [1] + [0] * (big_m - 1)
        for c in coeffs:
            acc = [(a + c * t) % p for a, t in zip(acc, term)]
            term = _poly_mulmod(term, y, big_mod, p)
        return acc

    for j in range(1, q):
        if gcd(j, q - 1) == 1:
            y = powers[j * step % (big_q - 1)]
            if not any(at(y, small_mod)):
                return [_poly_code(p, at(y, _poly_of(p, m, c))) for c in range(q)]
    raise ValueError("no root of the small modulus")


def trace_kernel(p: int, modulus: Sequence[int]) -> List[int]:
    """Codes a with a + a^p + ... + a^(p^(m-1)) = 0, each power a^p taken
    by p - 1 schoolbook multiplications."""
    m = len(modulus) - 1
    kernel = []
    for code in range(p ** m):
        a = _poly_of(p, m, code)
        frob, total = a, list(a)
        for _ in range(m - 1):
            nxt = frob
            for _ in range(p - 1):
                nxt = _poly_mulmod(nxt, frob, modulus, p)
            frob = nxt
            total = [(s + f) % p for s, f in zip(total, frob)]
        if not any(total):
            kernel.append(code)
    return kernel


def split_sections(text: str, error: type) -> List[Tuple[str, List[str]]]:
    """The sections of a design file, read line by line: every line is
    stripped, blank lines and lines starting "#" are dropped, a line in
    brackets opens a section, and any other line before the first header is
    an error naming its 1-based line number."""
    sections: List[Tuple[str, List[str]]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1], []))
        elif not sections:
            raise error(f"line {ln}: content before any section header: {line!r}")
        else:
            sections[-1][1].append(line)
    return sections


def check_element_lines(elems: Sequence[str], want: str, size: int, error: type) -> None:
    """The [elements] lines of a file against the rebuilt text `want`, one
    line at a time: the count first, then the first line that differs."""
    if len(elems) != size:
        raise error(f"[elements] lists {len(elems)} elements, group has {size}")
    for idx, (got, line) in enumerate(zip(elems, want.split("\n"))):
        if got != line:
            raise error(f"element {idx} reads {got!r} but the rebuilt group "
                        f"enumerates {line!r}; the file is corrupted")


class SpanGF:
    """A row space over GF(p) kept in reduced echelon form and grown one row
    at a time: a vector is reduced row by row, and an added row clears its
    pivot column from the others before the rows are re-sorted by pivot."""

    def __init__(self, dim: int, p: int):
        self.dim, self.p = dim, p
        self.rows: List[List[int]] = []

    def reduce(self, vec: Sequence[int]) -> List[int]:
        v = [x % self.p for x in vec]
        for row in self.rows:
            c = v[next(i for i, x in enumerate(row) if x)]
            if c:
                v = [(x - c * y) % self.p for x, y in zip(v, row)]
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: Sequence[int]) -> bool:
        v = self.reduce(vec)
        if not any(v):
            return False
        piv = next(i for i, x in enumerate(v) if x)
        inv = pow(v[piv], -1, self.p)
        v = [x * inv % self.p for x in v]
        self.rows = [[(x - row[piv] * y) % self.p for x, y in zip(row, v)]
                     for row in self.rows] + [v]
        self.rows.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
        return True

    def complete_avoiding(self, u: Sequence[int]) -> None:
        """Add each unit vector in turn, kept only if u stays outside."""
        for j in range(self.dim):
            trial = SpanGF(self.dim, self.p)
            trial.rows = list(self.rows)
            if trial.add([int(i == j) for i in range(self.dim)]) and not trial.contains(u):
                self.rows = trial.rows
        assert len(self.rows) == self.dim - 1 and not self.contains(u)


def invariant_hyperplane(p: int, images: Sequence[int]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(u, basis) for the automorphism of C_p^dim sending unit vector j to
    images[j]: u is the first unit vector outside Im(phi - 1), and the basis
    that of the hyperplane SpanGF.complete_avoiding grows from that image.
    None when phi - 1 is surjective."""
    orders = [p] * len(images)
    span = SpanGF(len(images), p)
    for j, img in enumerate(images):
        digits = decode(orders, img)
        digits[j] -= 1
        span.add(digits)
    units = [[int(i == j) for i in range(len(images))] for j in range(len(images))]
    u = next((e for e in units if not span.contains(e)), None)
    if u is None:
        return None
    span.complete_avoiding(u)
    return encode(orders, u), tuple(encode(orders, row) for row in span.rows)
