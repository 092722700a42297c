"""Finite group core: Cayley tables, conjugacy data, subgroup lattices, automorphisms.

A group is one read-only (N, N) int64 numpy array `G.table` over element
indices 0..N-1, converted once from whatever input built it; identity,
inverses, element orders and conjugacy classes are derived from it here, and
every numpy consumer downstream (character tables, counting, enumeration)
reads it.  Named constructors tabulate the standard small families by
broadcasting over mixed-radix element codes; permutation generators and raw
tables are the other inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_ORDER = 10_000
MAX_SUBGROUP_ORDER = 200
MAX_AUT_ORDER = 128
MAX_AUT_CANDIDATES = 10**6  # tuples of generator images an automorphism search may test
CHUNK_ENTRIES = 1 << 14  # array entries per vectorized step of a scan: keeps temporaries small


@dataclass(frozen=True)
class ConjugacyData:
    """Class ids per element, class representatives, sizes, centralizer orders."""

    class_of: tuple
    reps: tuple
    sizes: tuple
    centralizers: tuple
    inverse_class: tuple

    def __len__(self):
        return len(self.reps)


class FiniteGroup:
    """A finite group given by its N×N multiplication table of element indices.

    `table` is the group's one representation: a read-only (N, N) int64 array
    with table[a, b] = a·b.  Identity, inverses, element orders and conjugacy
    classes are derived from it; `_t`, the same table as a flat list, serves
    the scalar `mul`/`closure`/`power` loops, where list indexing is faster.
    """

    def __init__(self, table, names=None, check=True, max_order=MAX_ORDER):
        try:
            t = np.asarray(table)
        except ValueError:  # ragged rows
            raise ValidationError("bad-spec", "multiplication table is not square") from None
        if t.ndim == 1 and math.isqrt(t.size) ** 2 == t.size:
            t = t.reshape(math.isqrt(t.size), -1)
        n = len(t) if t.ndim == 2 else 0
        if n == 0 or t.shape != (n, n):
            raise ValidationError("bad-spec", "multiplication table is not square")
        if n > max_order:
            raise ValidationError("bound-exceeded", f"group order {n} exceeds limit {max_order}")
        if t.dtype.kind not in "iu":
            raise ValidationError("bad-spec", f"multiplication table entries must be integers, got {t.dtype}")
        t = t.astype(np.int64)
        if t.min() < 0 or t.max() >= n:  # refused before any indexing: a negative entry would wrap
            raise ValidationError("bad-spec", f"multiplication table entries must lie in 0..{n - 1}")
        t.flags.writeable = False
        self.order = n
        self.table = t
        self._t = t.ravel().tolist()
        self.names = list(names) if names is not None else [str(i) for i in range(n)]
        if len(self.names) != n:
            raise ValidationError("bad-spec", "names length does not match order")
        ar = np.arange(n)
        # e·x = x = x·e for every x; an identity e has 0·e = 0, so only those columns are tried
        ids = [e for e in np.flatnonzero(t[0] == 0).tolist() if (t[e] == ar).all() and (t[:, e] == ar).all()]
        if not ids:
            raise ValidationError("bad-spec", "table has no identity element")
        self.identity = e = ids[0]
        hit = t == e
        inv = hit.argmax(axis=1)  # the least b with a·b = e, or 0 when there is none
        ok = hit[ar, inv] & (t[inv, ar] == e)
        if not ok.all():  # reported for the least failing a, as a scan in element order would
            a = int(ok.argmin())
            message = "one-sided inverse found" if hit[a, inv[a]] else f"element {a} has no inverse"
            raise ValidationError("bad-spec", message)
        self.inverse = inv.tolist()
        self._cache: dict = {}
        if check:
            self._check_associativity()

    # -- raw table access ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._t[a * self.order + b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g · x · g⁻¹."""
        return self.mul(self.mul(g, x), self.inverse[g])

    def commutator(self, x: int, y: int) -> int:
        """x · y · x⁻¹ · y⁻¹."""
        return self.mul(self.mul(x, y), self.mul(self.inverse[x], self.inverse[y]))

    def _check_associativity(self):
        t, n = self.table, self.order
        ar = np.arange(n)
        if (np.sort(t, axis=1) != ar).any() or (np.sort(t, axis=0) != ar[:, None]).any():
            raise ValidationError("bad-spec", "table is not a Latin square")
        # Light's test: the g with (a·g)·b = a·(g·b) for all a, b are closed under products,
        # so checking a generating set checks every element
        step = max(1, CHUNK_ENTRIES // n)
        for g in self.generating_set():
            for lo in range(0, n, step):
                bad = np.argwhere(t[t[lo : lo + step, g]] != t[lo : lo + step][:, t[g]])
                if bad.size:
                    a, b = int(bad[0][0]) + lo, int(bad[0][1])
                    raise ValidationError("bad-spec", f"associativity fails at ({a},{g},{b})")

    # -- element-level structure ------------------------------------------

    def element_orders(self) -> np.ndarray:
        """Read-only int64 array of the order of every element, by powering all of them at once.

        Every order divides |G|, so x^k = e is tested only at the divisors k of |G|,
        and the powering stops at the first k that sends every element to e.
        """
        if "orders" not in self._cache:
            t, n, e = self.table, self.order, self.identity
            x = ar = np.arange(n)  # x[a] = a^k
            hits, divisors = [], []
            for k in range(1, n + 1):
                if n % k == 0:
                    hits.append(x == e)
                    divisors.append(k)
                    if hits[-1].all():
                        break
                x = t[x, ar]
            orders = np.array(divisors)[np.argmax(hits, axis=0)]  # the first divisor that sends a to e
            orders.flags.writeable = False
            self._cache["orders"] = orders
        return self._cache["orders"]

    def element_order(self, a: int) -> int:
        return int(self.element_orders()[a])

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = int(np.lcm.reduce(self.element_orders()))
        return self._cache["exponent"]

    def power(self, a: int, k: int) -> int:
        """a^k by square-and-multiply; k may be negative (reduced mod order(a))."""
        k %= self.element_order(a)
        result, base = self.identity, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self) -> ConjugacyData:
        """Classes numbered by their least element, each found by one gather of its orbit g·x·g⁻¹."""
        if "conj" in self._cache:
            return self._cache["conj"]
        t, n = self.table, self.order
        inv = np.array(self.inverse)
        class_of = np.full(n, -1)
        reps = []
        for x in range(n):
            if class_of[x] < 0:  # x is the least element of its class: every smaller one has a class
                class_of[t[t[:, x], inv]] = len(reps)
                reps.append(x)
        sizes = np.bincount(class_of).tolist()
        class_of = class_of.tolist()
        data = ConjugacyData(
            class_of=tuple(class_of),
            reps=tuple(reps),
            sizes=tuple(sizes),
            centralizers=tuple(n // s for s in sizes),
            inverse_class=tuple(class_of[self.inverse[r]] for r in reps),
        )
        self._cache["conj"] = data
        return data

    def class_power(self, j: int, k: int) -> int:
        """Class id of rep_j^k (well defined: conjugation commutes with powers)."""
        conj = self.conjugacy_classes()
        return conj.class_of[self.power(conj.reps[j], k)]

    def structure_constants(self) -> np.ndarray:
        """a[i, j, m] = #{(x, y) ∈ K_i×K_j : xy = rep_m}, the class-algebra constants.

        One read-only (k, k, k) int64 array, counted by one bincount over the
        |G|·k pairs (x, rep_m): each x ∈ G pairs with the unique y = x⁻¹·rep_m.
        """
        if "structure" in self._cache:
            return self._cache["structure"]
        conj = self.conjugacy_classes()
        k = len(conj)
        cls = np.array(conj.class_of, dtype=np.int64)
        y = self.table[np.array(self.inverse)[:, None], conj.reps]
        a = np.bincount(((cls[:, None] * k + cls[y]) * k + np.arange(k)).ravel(), minlength=k**3).reshape(k, k, k)
        a.flags.writeable = False
        self._cache["structure"] = a
        return a

    # -- subgroups -----------------------------------------------------------

    def closure(self, gens) -> frozenset:
        """Subgroup generated by the given element indices."""
        t, n = self._t, self.order
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            row = frontier.pop() * n
            for g in gens:
                y = t[row + g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def all_subgroups(self) -> list[frozenset]:
        if "subgroups" in self._cache:
            return self._cache["subgroups"]
        if self.order > MAX_SUBGROUP_ORDER:
            raise ValidationError(
                "bound-exceeded", f"subgroup enumeration limited to order ≤ {MAX_SUBGROUP_ORDER}"
            )
        trivial = frozenset({self.identity})
        gens = {trivial: []}  # each subgroup found, with a generating set
        queue = [trivial]
        while queue:
            h = queue.pop()
            tried = set(h)
            for g in range(self.order):
                if g in tried:
                    continue
                tried.update(self.mul(x, g) for x in h)  # ⟨h, x·g⟩ = ⟨h, g⟩: one try per coset
                k = self.closure(gens[h] + [g])
                if k not in gens:
                    gens[k] = gens[h] + [g]
                    queue.append(k)
        subs = sorted(gens, key=lambda s: (len(s), sorted(s)))
        self._cache["subgroups"] = subs
        return subs

    def subgroup_lattice(self):
        """(subgroups, containment) with containment[i][j] = subgroups[i] ⊆ subgroups[j]."""
        subs = self.all_subgroups()
        contains = [[a <= b for b in subs] for a in subs]
        return subs, contains

    def sylow_p_subgroups(self, p: int) -> list[frozenset]:
        """All Sylow p-subgroups (conjugates of a greedily grown maximal p-subgroup)."""
        n = self.order
        target = 1
        while n % (target * p) == 0:
            target *= p
        if target == 1:
            return [frozenset({self.identity})]
        p_elements = [x for x, o in enumerate(self.element_orders().tolist()) if is_power_of(o, p)]
        h = frozenset({self.identity})
        grown = True
        while len(h) < target and grown:
            grown = False
            for y in p_elements:
                if y in h:
                    continue
                k = self.closure(list(h) + [y])
                if is_power_of(len(k), p) and len(k) > len(h):
                    h, grown = k, True
                    break
        if len(h) != target:
            raise ValidationError("bad-spec", "Sylow growth failed (non-associative table?)")
        sylows = {frozenset(self.conj(g, x) for x in h) for g in range(n)}
        return sorted(sylows, key=sorted)

    def subgroup_as_group(self, elements) -> tuple["FiniteGroup", list[int]]:
        """Relabel a subgroup as its own FiniteGroup; returns (group, ambient indices)."""
        elems = sorted(elements)
        members = np.array(elems)
        products = self.table[members[:, None], members]
        table = members.searchsorted(products)
        if (members.take(table, mode="clip") != products).any():
            raise ValidationError("bad-spec", "the elements are not closed under the group product")
        group = FiniteGroup(table, names=[self.names[g] for g in elems], check=False)
        orders = self.element_orders()[members]  # an element has the same order in every subgroup
        orders.flags.writeable = False
        group._cache["orders"] = orders
        return group, elems

    # -- generators and automorphisms -----------------------------------------

    def generating_set(self) -> list[int]:
        """A small generating set: grown greedily, then pruned of redundant picks (cached; a fresh list each call)."""
        if "gens" not in self._cache:
            gens: list[int] = []
            have = frozenset({self.identity})
            while len(have) < self.order:
                g = next(x for x in range(self.order) if x not in have)
                gens.append(g)
                have = self.closure(gens)
            for g in list(gens):
                rest = [h for h in gens if h != g]
                if rest and len(self.closure(rest)) == self.order:
                    gens = rest
            self._cache["gens"] = tuple(gens)
        return list(self._cache["gens"])

    def automorphism_count(self) -> int:
        if "aut" in self._cache:
            return self._cache["aut"]
        if self.order > MAX_AUT_ORDER:
            raise ValidationError("bound-exceeded", f"automorphism count limited to order ≤ {MAX_AUT_ORDER}")
        n = self.order
        gens = self.generating_set()
        if not gens:
            self._cache["aut"] = 1
            return 1
        orders = self.element_orders()
        candidates = [np.flatnonzero(orders == orders[g]).astype(np.int32) for g in gens]
        grid = tuple(len(c) for c in candidates)
        total, count = math.prod(grid), 0
        if total > MAX_AUT_CANDIDATES:
            raise ValidationError(
                "bound-exceeded",
                f"automorphism search over {total:,} candidate generator images exceeds the limit {MAX_AUT_CANDIDATES:,}",
            )
        # BFS word table by layers: each y = x·g_i reached by a tree edge (x, i)
        tree = {self.identity: None}
        layers, layer = [], [self.identity]
        while layer:
            steps = []
            for x in layer:
                for i, g in enumerate(gens):
                    y = self.mul(x, g)
                    if y not in tree:
                        tree[y] = (x, i)
                        steps.append((y, x, i))
            if steps:
                layers.append(np.array(steps).T)
            layer = [y for y, _, _ in steps]
        # φ(x·g_i) = φ(x)·φ(g_i) holds on tree edges by construction; the other edges are checked
        ey, ex, ei = np.array(
            [(self.mul(x, g), x, i) for x in range(n) for i, g in enumerate(gens) if tree[self.mul(x, g)] != (x, i)]
        ).T
        tn = (self.table.ravel() * n).astype(np.int32)  # tn[a·n + b] = (a·b)·n: elements are stored times n
        step = max(1, CHUNK_ENTRIES // max(n, len(ex)))
        for lo in range(0, total, step):
            picks = np.unravel_index(np.arange(lo, min(lo + step, total)), grid)
            images = np.stack([c[p] for c, p in zip(candidates, picks)])  # images[i] = φ(g_i), a column per candidate
            phi = np.empty((n, images.shape[1]), dtype=np.int32)  # phi[y] = φ(y)·n
            phi[self.identity] = self.identity * n
            for y, x, i in layers:
                phi[y] = tn.take(phi[x] + images[i])
            hom = (phi[ey] == tn.take(phi[ex] + images[ei])).all(axis=0)
            count += int(((phi[:, hom] == self.identity * n).sum(axis=0) == 1).sum())  # trivial kernel: bijective
        self._cache["aut"] = count
        return count

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# -- prime and prime-power helpers ------------------------------------------------


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TEST = 3_317_044_064_679_887_385_961_981  # the 13 bases above decide every n below this


def is_prime(n: int) -> bool:
    """Primality by Miller–Rabin on the first 13 prime bases, exact for n < `MAX_PRIME_TEST`.

    (J. Sorenson and J. Webster, Math. Comp. 86 (2017): no composite below the
    bound is a strong pseudoprime to all of them.)  A larger n with no factor
    among the bases is refused with `bound-exceeded`.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MAX_PRIME_TEST:
        raise ValidationError("bound-exceeded", f"primality is decided only below {MAX_PRIME_TEST}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_power_of(n: int, p: int) -> bool:
    """True when n = p^k for some k ≥ 0."""
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def factorize(n: int) -> dict[int, int]:
    """{p: e} with n = Π p^e, by trial division (n is a group order or exponent here)."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def unique_prime_factor(n: int) -> int | None:
    """The prime p with n = p^k for some k ≥ 1, or None (n = 1, or two prime factors)."""
    primes = list(factorize(n))
    return primes[0] if len(primes) == 1 else None


def group_prime(G: FiniteGroup) -> int:
    """The prime p with |G| = p^k; rejects mixed orders and the trivial group."""
    p = unique_prime_factor(G.order)
    if p is None:
        raise ValidationError("bad-spec", f"gauge group must be a nontrivial finite p-group, order {G.order} is not")
    return p


# -- named constructors ---------------------------------------------------------


def _tabulate(radices, product, name, keep=None) -> FiniteGroup:
    """The group on digit vectors x ∈ Π_i ℤ/radices[i], in lexicographic order, tabulated by broadcasting.

    `product(x, y)` maps the digit arrays of x (as a column) and y (as a row)
    to the digits of x·y, each reduced mod its radix here; `keep(*digits)`,
    when given, masks the vectors that are group elements (the rest must not
    appear in products of kept ones); `name(*digits)` names one element.
    """
    size = math.prod(radices)
    if size > MAX_ORDER:  # refused before anything is enumerated
        raise ValidationError("bound-exceeded", f"{size} element codes exceed the group order limit {MAX_ORDER}")
    digits = np.unravel_index(np.arange(size), radices)
    if keep is not None:
        digits = tuple(d[keep(*digits)] for d in digits)
    n = len(digits[0])
    codes = np.zeros((n, n), dtype=np.int64)
    for v, r in zip(product([d[:, None] for d in digits], [d[None, :] for d in digits]), radices):
        codes *= r  # Horner over the digits of x·y, one digit array alive at a time
        codes += v % r
    if keep is not None:  # number the kept codes 0..n−1
        index = np.zeros(size, dtype=np.int64)
        index[np.ravel_multi_index(digits, radices)] = np.arange(n)
        codes = index[codes]
    names = [name(*v) for v in zip(*(d.tolist() for d in digits))]
    return FiniteGroup(codes, names=names, check=False)


def cyclic(m: int) -> FiniteGroup:
    """Z/m."""
    if m < 1:
        raise ValidationError("bad-spec", "cyclic order must be ≥ 1")
    return _tabulate((m,), lambda x, y: (x[0] + y[0],), str)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G × H with pairs ordered (g-index, h-index)."""
    ng, nh = g.order, h.order
    table = g.table[:, None, :, None] * nh + h.table[None, :, None, :]  # [a1, a2, b1, b2] ↦ (a1·b1, a2·b2)
    names = [f"({g.names[a1]},{h.names[a2]})" for a1 in range(ng) for a2 in range(nh)]
    return FiniteGroup(table.reshape(ng * nh, ng * nh), names=names, check=False)


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z/p)^k with vectors ordered lexicographically."""
    if k < 1:
        raise ValidationError("bad-spec", "rank must be ≥ 1")
    if p**k > MAX_ORDER:
        raise ValidationError("bound-exceeded", f"order {p**k} exceeds limit")
    return _tabulate((p,) * k, lambda x, y: (a + b for a, b in zip(x, y)), lambda *v: f"({','.join(map(str, v))})")


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3×3 matrices over F_p (extraspecial p^{1+2}, exponent p for odd p)."""
    return _tabulate(
        (p, p, p), lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1]), lambda a, b, c: f"({a},{b},{c})"
    )


def extraspecial_exp_p2(p: int) -> FiniteGroup:
    """The extraspecial group of order p³ and exponent p²: ⟨a,b | a^{p²}, b^p, bab⁻¹ = a^{1+p}⟩."""
    # a^i·b^j·a^k·b^l = a^{i + k(1+p)^j}·b^{j+l}, and (1+p)^j ≡ 1 + jp mod p²
    return _tabulate(
        (p * p, p), lambda x, y: (x[0] + y[0] * (1 + p * x[1]), x[1] + y[1]), lambda i, j: f"a^{i}b^{j}"
    )


def gl2(p: int) -> FiniteGroup:
    """GL_2(F_p) as 2×2 invertible matrices."""
    return _tabulate(
        (p,) * 4,
        lambda x, y: (
            x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3], x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3]
        ),
        lambda a, b, c, d: f"[[{a},{b}],[{c},{d}]]",
        keep=lambda a, b, c, d: (a * d - b * c) % p != 0,
    )


def from_permutations(gens, degree: int, max_order: int = MAX_ORDER) -> FiniteGroup:
    """Closure of permutation generators (image arrays on 0..degree-1).

    The elements are numbered in the order a depth-first walk from the
    identity finds them, x·g mapping i to x[g[i]].  The walk records each
    element's product by every generator, and each element b other than the
    identity was found as a·g_i for an earlier a; so the table is filled one
    column at a time, x·b = (x·a)·g_i composing column a with the
    product-by-g_i array.
    """
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens]
    for g in gens:
        if sorted(g) != list(ident):
            raise ValidationError("bad-spec", f"not a permutation of 0..{degree - 1}: {g}")
    elems = {ident: 0}
    right = [[0] * len(gens)]  # right[x][i] = index of x·g_i
    found = [None]  # found[b] = (a, i) with b = a·g_i
    walk = [ident]
    while walk:
        x = walk.pop()
        a = elems[x]
        for i, g in enumerate(gens):
            y = tuple(x[j] for j in g)
            if y not in elems:
                if len(elems) >= max_order:
                    raise ValidationError("bound-exceeded", f"closure exceeds order limit {max_order}")
                elems[y] = len(right)
                right.append([0] * len(gens))
                found.append((a, i))
                walk.append(y)
            right[a][i] = elems[y]
    n = len(right)
    right = np.array(right).T
    cols = np.empty((n, n), dtype=np.int64)  # cols[b, x] = x·b
    cols[0] = np.arange(n)
    for b in range(1, n):
        a, i = found[b]
        cols[b] = right[i, cols[a]]
    return FiniteGroup(cols.T.copy(), check=False)


# -- module-level helpers -------------------------------------------------------------


def is_p_group(G, p: int) -> bool:
    """Accepts a FiniteGroup or a subgroup (set of element indices)."""
    size = G.order if isinstance(G, FiniteGroup) else len(G)
    return is_power_of(size, p)


_NAMED = {
    "cyclic": (cyclic, 1),
    "elementary_abelian": (elementary_abelian, 2),
    "heisenberg": (heisenberg, 1),
    "extraspecial_exp_p2": (extraspecial_exp_p2, 1),
    "gl2": (gl2, 1),
}


def group_from_spec(spec) -> FiniteGroup:
    """Build a group from a mini-language string, a spec dict, or a file reference.

    Strings: "named:heisenberg:3", "named:elementary_abelian:3:2", "file:path.json".
    Dicts: {"kind":"named","name":…,"p":…}, {"kind":"cayley","mul":[[…]]},
    {"kind":"perm","degree":d,"gens":[[…]]}, {"kind":"product","factors":[spec,spec]}.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        if spec.startswith("file:"):
            with open(spec[5:], "r", encoding="utf-8") as fh:
                return group_from_spec(json.load(fh))
        if spec.startswith("named:"):
            parts = spec.split(":")
            name = parts[1]
            if name not in _NAMED:
                raise ValidationError("bad-spec", f"unknown named group {name!r}")
            fn, arity = _NAMED[name]
            args = parts[2:]
            if len(args) != arity:
                raise ValidationError("bad-spec", f"named:{name} takes {arity} parameter(s)")
            try:
                return fn(*(int(a) for a in args))
            except ValueError:
                raise ValidationError("bad-spec", f"non-integer parameter in {spec!r}") from None
        raise ValidationError("bad-spec", f"unrecognized group spec {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "named":
            name = spec.get("name")
            if name not in _NAMED:
                raise ValidationError("bad-spec", f"unknown named group {name!r}")
            fn, arity = _NAMED[name]
            params = spec.get("params")
            if params is None:
                params = [spec[key] for key in ("p", "m", "k") if key in spec]
            if len(params) != arity:
                raise ValidationError("bad-spec", f"named {name} takes {arity} parameter(s)")
            return fn(*(int(a) for a in params))
        if kind == "cayley":
            return FiniteGroup(spec.get("mul") or spec.get("table"), names=spec.get("names"))
        if kind == "perm":
            return from_permutations(spec["gens"], int(spec["degree"]))
        if kind == "product":
            factors = [group_from_spec(s) for s in spec["factors"]]
            if len(factors) < 2:
                raise ValidationError("bad-spec", "product needs at least two factors")
            out = factors[0]
            for f in factors[1:]:
                out = direct_product(out, f)
            return out
        raise ValidationError("bad-spec", f"unknown group spec kind {kind!r}")
    raise ValidationError("bad-spec", f"unsupported group spec type {type(spec).__name__}")
