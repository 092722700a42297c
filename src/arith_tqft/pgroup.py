"""Finite group core: Cayley tables, conjugacy data, subgroup lattices, p-group structure.

A group is one read-only (N, N) int64 numpy array `G.table` over element
indices 0..N-1, converted once from whatever input built it; identity,
inverses, element orders and conjugacy classes are derived from it here, and
every numpy consumer downstream (character tables, counting, enumeration)
reads it.  Named constructors tabulate the standard small families by
broadcasting over mixed-radix element codes; permutation generators and
explicit tables are the other inputs.  The p-group helpers live here too:
abelian invariants, the 𝔽_p-coordinates of Γ/Φ(Γ) on a Burnside basis, and a
power-commutator presentation, from which |Aut Γ| is counted.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ComputationError, ValidationError, check_dense, check_int

MAX_ORDER = 10_000
MAX_SUBGROUP_ORDER = 200
MAX_AUT_CANDIDATES = 10**6  # Burnside-basis image tuples a non-abelian automorphism count may test
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
    the scalar `mul`/`closure`/`power` loops, where list indexing is faster,
    and is built only when one of them first runs.  `powers` and
    `class_powers` gather on `table` instead, and `generating_set` walks
    only its generators' columns, so none of them builds it.
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

    # -- table access ----------------------------------------------------

    @cached_property
    def _t(self) -> list:
        return self.table.ravel().tolist()

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
        if "abelian" not in self._cache:
            self._cache["abelian"] = bool((self.table == self.table.T).all())
        return self._cache["abelian"]

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

    def powers(self, k: int, xs=None) -> np.ndarray:
        """x^k for every x in `xs` (every element when None), by square-and-multiply gathers on the table.

        k is reduced mod exp G first, so it may be negative; about 2·log₂ exp G gathers of len(xs) entries.
        """
        t, k = self.table, k % self.exponent()
        base = np.arange(self.order) if xs is None else np.asarray(xs, dtype=np.int64)
        out = np.full(len(base), self.identity)
        while k:
            if k & 1:
                out = t[out, base]
            k >>= 1
            if k:
                base = t[base, base]
        return out

    def class_powers(self, k: int) -> np.ndarray:
        """The class id of rep_j^k for every class j (well defined: conjugation commutes with powers)."""
        conj = self.conjugacy_classes()
        class_of = conj.class_of
        return np.array([class_of[x] for x in self.powers(k, conj.reps).tolist()], dtype=np.int64)

    def structure_constants(self) -> np.ndarray:
        """a[i, j, m] = #{(x, y) ∈ K_i×K_j : xy = rep_m}, the class-algebra constants.

        One read-only (k, k, k) int64 array, counted by one bincount over the
        |G|·k pairs (x, rep_m): each x ∈ G pairs with the unique y = x⁻¹·rep_m.
        """
        if "structure" in self._cache:
            return self._cache["structure"]
        conj = self.conjugacy_classes()
        k = len(conj)
        check_dense("the class structure constants", k**3)
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
        members = np.sort(np.fromiter(elements, dtype=np.int64, count=len(elements)))
        index = np.full(self.order, -1)  # an ambient element's place among the members, −1 outside them
        index[members] = np.arange(len(members))
        table = index[self.table[members[:, None], members]]
        if (table < 0).any():
            raise ValidationError("bad-spec", "the elements are not closed under the group product")
        elems = members.tolist()
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
            have = {self.identity}
            while len(have) < self.order:
                g = next(x for x in range(self.order) if x not in have)
                gens.append(g)
                have = self._span(gens)
            for g in list(gens):
                rest = [h for h in gens if h != g]
                if rest and len(self._span(rest)) == self.order:
                    gens = rest
            self._cache["gens"] = tuple(gens)
        return list(self._cache["gens"])

    def _columns(self, gens) -> list[list[int]]:
        """The generators' columns of `table` as lists, x·g at entry x of g's: d·N entries, where `_t` holds N²."""
        return self.table[:, list(gens)].T.tolist()

    def _span(self, gens) -> set:
        """⟨gens⟩ as a set, walked over `_columns`, so a cold group builds no `_t`.

        `closure` keeps its walk over `_t`: subgroup enumeration and the
        oracle read `_t` anyway and call it once per join, where gathering
        the columns per call is slower (all subgroups of (ℤ/3)⁴ 22 → 30 ms).
        """
        columns = self._columns(gens)
        seen, walk = {self.identity}, [self.identity]
        while walk:
            x = walk.pop()
            for col in columns:
                y = col[x]
                if y not in seen:
                    seen.add(y)
                    walk.append(y)
        return seen

    def automorphism_count(self) -> int:
        """|Aut Γ| of a p-group, from its structure: a closed form when Γ is abelian, else a relator test.

        An abelian Γ takes the product formula of C. J. Hillar and D. L. Rhea
        (Amer. Math. Monthly 114, 2007) on its invariants.  A non-abelian Γ
        tests every tuple of Burnside-basis images that is independent mod
        Φ(Γ) on the relators of a power-commutator presentation; that count is
        refused past `MAX_AUT_CANDIDATES` before the presentation is built.
        """
        if "aut" not in self._cache:
            p = unique_prime_factor(self.order)
            if self.order == 1:
                self._cache["aut"] = 1
            elif p is None:
                raise ValidationError("bad-spec", f"automorphisms are counted for p-groups, order {self.order} is not")
            elif self.is_abelian():
                self._cache["aut"] = _abelian_automorphism_count(abelian_invariants(self, p), p)
            else:
                self._cache["aut"] = _pc_automorphism_count(self, p)
        return self._cache["aut"]

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


# -- p-group structure: invariants, Frattini coordinates, automorphism counts ------------


def abelian_invariants(G: FiniteGroup, p: int) -> list[int]:
    """The e_1 ≤ … ≤ e_k with the abelian p-group G ≅ ⊕_i ℤ/p^{e_i}, read off its element orders (cached).

    |G[p^j]| = p^{Σ_i min(e_i, j)}, so |G[p^j]| / |G[p^{j−1}]| = p^{#{i : e_i ≥ j}}.
    """
    if "invariants" not in G._cache:
        by_order = np.bincount(G.element_orders())  # by_order[o] = #{x : x has order o}, o a power of p
        at_least, size, q = [], 1, p  # at_least[j − 1] = #{i : e_i ≥ j}; size = |G[p^{j−1}]|
        while q < len(by_order):
            grown = size + int(by_order[q])
            at_least.append(round(math.log(grown // size, p)))
            size, q = grown, q * p
        at_least.append(0)
        G._cache["invariants"] = [j for j in range(1, len(at_least)) for _ in range(at_least[j - 1] - at_least[j])]
    return G._cache["invariants"]


def _abelian_automorphism_count(e: list[int], p: int) -> int:
    """|Aut(⊕_i ℤ/p^{e_i})| for e_1 ≤ … ≤ e_k, by Hillar and Rhea's Theorem 4.1:

        Π_j (p^{d_j} − p^{j−1}) · (p^{e_j})^{k−d_j} · (p^{e_j−1})^{k−c_j+1},

    with d_j = max{l : e_l = e_j} and c_j = min{l : e_l = e_j}, counting from 1.
    """
    k, out = len(e), 1
    for j, ej in enumerate(e, 1):
        dj, cj = bisect_right(e, ej), bisect_left(e, ej) + 1
        out *= (p**dj - p ** (j - 1)) * p ** (ej * (k - dj) + (ej - 1) * (k - cj + 1))
    return out


def _gaussian_binomial(d: int, m: int, p: int) -> int:
    """The number of m-dimensional subspaces of 𝔽_p^d."""
    num = den = 1
    for i in range(m):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _frattini_cosets(G: FiniteGroup, p: int) -> np.ndarray:
    """The cosets of Φ(Γ) = Γ^p[Γ,Γ] as the rows of a (p^d, |Φ|) array, row c at coordinates c = Σ_i c_i·p^i.

    An irredundant generating set b_1..b_d of a p-group is a Burnside basis:
    it maps onto a basis of Γ/Φ(Γ) ≅ 𝔽_p^d.  Every element is labelled by a
    walk of the Cayley graph from the identity over the columns b_i of
    `table` (d·N entries: `_t` is not built), the step by b_i adding the
    i-th unit vector, and the labelling is checked to be a homomorphism on
    every edge; Φ(Γ) is its kernel, row 0.
    """
    if "frattini" in G._cache:
        return G._cache["frattini"]
    gens = G.generating_set()
    weights = [p**i for i in range(len(gens))]  # the code of the i-th unit vector
    code = [-1] * G.order
    code[G.identity] = 0
    walk = [G.identity]
    steps = list(zip(G._columns(gens), weights))
    while walk:
        x = walk.pop()
        c = code[x]
        for col, w in steps:
            y = col[x]
            if code[y] < 0:
                code[y] = c + w if c // w % p < p - 1 else c - (p - 1) * w
                walk.append(y)
    code = np.array(code)
    digits = code[:, None] // weights % p
    for i, g in enumerate(gens):
        if ((digits[G.table[:, g]] - digits) % p != np.eye(1, len(gens), i)).any():
            raise ComputationError("invariant", f"generators {gens} do not label Γ/Φ(Γ) by 𝔽_{p}-coordinates")
    cosets = np.argsort(code, kind="stable").reshape(p ** len(gens), -1)
    cosets.flags.writeable = False
    G._cache["frattini"] = cosets
    return cosets


@lru_cache(maxsize=32)
def _ordered_bases(p: int, d: int) -> np.ndarray:
    """Every ordered basis of 𝔽_p^d, as a read-only (|GL_d(𝔽_p)|, d) int64 array of codes Σ_i v_i·p^i.

    Grown a vector at a time: each partial basis is extended by every code
    outside its span, and the span grows by the multiples of the new vector.
    """
    q, weights = p**d, p ** np.arange(d)
    digits = np.arange(q)[:, None] // weights % p
    add = (digits[:, None] + digits) % p @ weights  # add[u, v] = the code of u + v
    bases, spans = np.zeros((1, 0), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    for size in range(1, d + 1):
        outside = np.ones((len(bases), q), dtype=bool)
        np.put_along_axis(outside, spans, False, axis=1)
        b, v = np.nonzero(outside)
        bases, spans = np.column_stack([bases[b], v]), spans[b]
        if size < d:  # the span s + c·v, c ∈ 𝔽_p, of each grown basis
            multiples = (np.arange(p)[:, None, None] * digits[v] % p @ weights).T
            spans = add[spans[:, None, :], multiples[:, :, None]].reshape(len(v), -1)
    bases.flags.writeable = False
    return bases


def _pc_presentation(G: FiniteGroup, p: int, cosets: np.ndarray):
    """A power-commutator presentation of a p-group on its Burnside basis: (definitions, relators).

    The pc generators a_0..a_{m−1} start with the basis b_0..b_{d−1} =
    `generating_set()`; each later a_k is defined as [a_j, a_i] =
    a_j·a_i·a_j⁻¹·a_i⁻¹ with i < d and j > i, or as a_j^p, recorded as
    definitions[k − d] = (j, i) or (j, −1).  They walk down the lower
    exponent-p central series P_1 = Γ, P_{w+1} = [P_w, Γ]·P_w^p: the layer
    P_{w+1}/P_{w+2} is spanned by the commutators with the basis and the p-th
    powers of the generators of the layer above (Eick, Leedham-Green and
    O'Brien, Comm. Algebra 30, 2002), and takes those that are new modulo
    P_{w+2}.  A relator (u, v, word) says that a_u·a_v for u > v, or a_u^p
    for v = −1, equals the normal word Π_l a_l^c over the (l, c) in word.

    Every element is checked to have exactly one normal word, and each of
    these relations to have the form a_u·a_v = a_v·w or a_u^p = w, with w a
    word in the later generators.  So they present Γ, and a map of the a_k
    that keeps the definitions extends to an endomorphism exactly when it
    satisfies them.  The relations at the definitions themselves are not
    returned: given the definitions, each follows from relations whose first
    generator lies in a deeper layer, by collecting a_k·a_i·a_j (for
    a_k = [a_j, a_i]) with them, layer by layer from the bottom; and a_j^p
    is a_k itself.
    """
    t, n, inverse, e = G._t, G.order, G.inverse, G.identity

    def mul(x: int, y: int) -> int:
        return t[x * n + y]

    def comm(x: int, y: int) -> int:
        return t[t[x * n + y] * n + t[inverse[x] * n + inverse[y]]]

    def power(x: int, c: int) -> int:  # x^c by c products; c ≤ p here
        y = e
        for _ in range(c):
            y = t[y * n + x]
        return y

    basis = G.generating_set()
    d = len(basis)
    series = [set(cosets[0].tolist())]  # P_2 = Φ(Γ), P_3, …, {e}
    while len(series[-1]) > 1:
        above = series[-1]
        seeds = {comm(x, b) for x in above for b in basis} | {power(x, p) for x in above}
        below, walk = {e}, [e]
        while walk:  # the normal closure of the seeds: products with them, conjugates by the basis
            x = walk.pop()
            for y in [mul(x, s) for s in seeds] + [mul(mul(b, x), inverse[b]) for b in basis]:
                if y not in below:
                    below.add(y)
                    walk.append(y)
        if len(below) == len(above):
            raise ComputationError("invariant", f"the lower exponent-{p} central series stalls at order {len(below)}")
        series.append(below)
    gens, definitions, chosen = list(basis), [], list(range(d))
    for layer, below in zip(series, series[1:]):
        candidates = [(j, i) for j in chosen for i in range(min(j, d))] + [(j, -1) for j in chosen]
        span, chosen = set(below), []
        for j, i in candidates:
            if len(span) == len(layer):
                break
            x = comm(gens[j], gens[i]) if i >= 0 else power(gens[j], p)
            if x not in span:  # ⟨chosen, x⟩·P_{w+2} = ∪_c x^c·(⟨chosen⟩·P_{w+2})
                span = {mul(y, h) for y in [power(x, c) for c in range(p)] for h in span}
                chosen.append(len(gens))
                gens.append(x)
                definitions.append((j, i))
        if len(span) != len(layer):
            raise ComputationError("invariant", f"definitions span {len(span)} elements of a layer of {len(layer)}")
    m, defined = len(gens), set(definitions)
    elements = [e]
    for g in reversed(gens):  # the normal word with exponents (c_0, …, c_{m−1}) at code Σ_l c_l·p^{m−1−l}
        elements = [mul(y, x) for y in [power(g, c) for c in range(p)] for x in elements]
    code = {x: i for i, x in enumerate(elements)}
    if len(code) != G.order:
        raise ComputationError("invariant", f"the definitions from the basis {basis} give no pc presentation")
    places, relators = [p ** (m - 1 - l) for l in range(m)], []
    for u, x in enumerate(gens):
        for v in [*range(u), -1]:
            word = code[t[x * n + gens[v]] if v >= 0 else power(x, p)]
            if word // places[v if v >= 0 else u] != (v >= 0):  # the digits up to a_v read (0, …, 0, 1), or to a_u 0
                raise ComputationError("invariant", f"relator {(u, v)} of the basis {basis} is not in pc form")
            if (u, v) not in defined:
                relators.append((u, v, [(l, word // w % p) for l, w in enumerate(places) if word // w % p]))
    return definitions, relators


def _pc_automorphism_count(G: FiniteGroup, p: int) -> int:
    """|Aut Γ| of a non-abelian p-group: the tuples of Burnside-basis images that pass every pc relator.

    A tuple (φ(b_1), …, φ(b_d)) whose 𝔽_p-coordinates in Γ/Φ(Γ) form a basis
    generates Γ (Burnside's basis theorem), so an endomorphism it defines is
    an automorphism.  Those |GL_d(𝔽_p)|·|Φ|^d tuples are the candidates; the
    images of the later pc generators follow from their definitions, and a
    candidate counts when it satisfies the relators of `_pc_presentation`.
    Candidates are tested in blocks of at most `CHUNK_ENTRIES` relator values.
    """
    cosets = _frattini_cosets(G, p)
    d, phi = len(G.generating_set()), cosets.shape[1]
    total = math.prod(p**d - p**i for i in range(d)) * phi**d  # |GL_d(𝔽_p)|·|Φ|^d
    if total > MAX_AUT_CANDIDATES:
        raise ValidationError(
            "bound-exceeded",
            f"automorphism count over {total:,} candidate generator images exceeds "
            f"MAX_AUT_CANDIDATES = {MAX_AUT_CANDIDATES:,}",
        )
    definitions, relators = _pc_presentation(G, p, cosets)
    n, t, bases = G.order, G.table, _ordered_bases(p, d)
    tn = (t * n).ravel()  # tn[a·n + b] = (a·b)·n: a left factor is stored times n
    powers = np.empty((p + 1, n), dtype=np.int64)  # powers[c, x] = x^c
    powers[0], powers[1] = G.identity, np.arange(n)
    for c in range(2, p + 1):
        powers[c] = t[powers[c - 1], powers[1]]
    powers_n, inv = powers * n, np.array(G.inverse)
    m = d + len(definitions)
    grid = (len(bases),) + (phi,) * d
    step, count = max(1, CHUNK_ENTRIES // len(relators)), 0
    for lo in range(0, total, step):
        pick = np.unravel_index(np.arange(lo, min(lo + step, total)), grid)
        images = np.empty((m, len(pick[0])), dtype=np.int64)  # images[k] = φ(a_k), a column per candidate
        images[:d] = cosets[bases[pick[0]].T, pick[1:]]
        for k, (j, i) in enumerate(definitions, d):
            x, y = images[j], images[i]
            images[k] = powers[p, x] if i < 0 else t[t[x, y], t[inv[x], inv[y]]]
        scaled, ok = images * n, True
        for u, v, word in relators:  # φ(a_u)·φ(a_v) or φ(a_u)^p against Π φ(a_l)^c, all stored times n
            lhs = tn.take(scaled[u] + images[v]) if v >= 0 else powers_n[p].take(images[u])
            rhs = G.identity * n  # the empty word
            for z, (l, c) in enumerate(word):
                if z:
                    rhs = tn.take(rhs + (images[l] if c == 1 else powers[c].take(images[l])))
                else:  # the first factor needs no product
                    rhs = scaled[l] if c == 1 else powers_n[c].take(images[l])
            ok = ok & (lhs == rhs)
        count += int(np.count_nonzero(ok))
    return count


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
    try:
        gens = [tuple(check_int(x, "a permutation image") for x in g) for g in gens]
    except TypeError:
        raise ValidationError("bad-spec", f"permutation generators must be a list of image lists, got {gens!r}") from None
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
            path = spec[5:]
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
            except OSError as e:
                raise ValidationError("bad-spec", f"cannot read group file {path!r}: {e.strerror or e}") from None
            except ValueError as e:  # undecodable text or invalid JSON
                raise ValidationError("bad-spec", f"group file {path!r} is not valid JSON: {e}") from None
            return group_from_spec(obj)
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
            if not isinstance(name, str) or name not in _NAMED:
                raise ValidationError("bad-spec", f"unknown named group {name!r}")
            fn, arity = _NAMED[name]
            params = spec.get("params")
            if params is None:
                params = [spec[key] for key in ("p", "m", "k") if key in spec]
            if not isinstance(params, (list, tuple)) or len(params) != arity:
                raise ValidationError("bad-spec", f"named {name} takes {arity} parameter(s)")
            return fn(*(check_int(a, f"named {name} parameter") for a in params))
        if kind == "cayley":
            return FiniteGroup(spec.get("mul") or spec.get("table"), names=spec.get("names"))
        if kind == "perm":
            missing = [key for key in ("gens", "degree") if key not in spec]
            if missing:
                raise ValidationError("bad-spec", f"a perm spec needs {' and '.join(map(repr, missing))}")
            return from_permutations(spec["gens"], check_int(spec["degree"], "perm degree"))
        if kind == "product":
            factors = spec.get("factors")
            if not isinstance(factors, (list, tuple)) or len(factors) < 2:
                raise ValidationError("bad-spec", f"product needs a list of at least two factors, got {factors!r}")
            factors = [group_from_spec(s) for s in factors]
            out = factors[0]
            for f in factors[1:]:
                out = direct_product(out, f)
            return out
        raise ValidationError("bad-spec", f"unknown group spec kind {kind!r}")
    raise ValidationError("bad-spec", f"unsupported group spec type {type(spec).__name__}")
