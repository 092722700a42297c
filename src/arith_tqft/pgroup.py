"""Finite group core: Cayley tables, conjugacy data, subgroup lattices, automorphisms.

Groups are dense multiplication tables over element indices 0..N-1.  Everything
downstream (character tables, counting, enumeration) is table-driven, so this
stays self-contained: named constructors for the standard small families, plus
permutation-generator and raw-table input.
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
    """A finite group given by its N×N multiplication table of element indices."""

    def __init__(self, table, names=None, check=True, max_order=MAX_ORDER):
        if table and isinstance(table[0], (list, tuple)):
            n = len(table)
            flat = [int(x) for row in table for x in row]
        else:
            flat = [int(x) for x in table]
            n = int(round(len(flat) ** 0.5))
        if n == 0 or len(flat) != n * n:
            raise ValidationError("bad-spec", "multiplication table is not square")
        if n > max_order:
            raise ValidationError("bound-exceeded", f"group order {n} exceeds limit {max_order}")
        self.order = n
        self._t = flat
        self.names = list(names) if names is not None else [str(i) for i in range(n)]
        if len(self.names) != n:
            raise ValidationError("bad-spec", "names length does not match order")
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        if check:
            self._check_associativity()
        self._cache: dict = {}

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

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self._t[e * n + x] == x and self._t[x * n + e] == x for x in range(n)):
                return e
        raise ValidationError("bad-spec", "table has no identity element")

    def _build_inverses(self):
        n = self.order
        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if self._t[a * n + b] == self.identity:
                    if self._t[b * n + a] != self.identity:
                        raise ValidationError("bad-spec", "one-sided inverse found")
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise ValidationError("bad-spec", f"element {a} has no inverse")
        return inv

    def _check_associativity(self):
        n = self.order
        # rows and columns must be permutations
        full = set(range(n))
        for a in range(n):
            if set(self._t[a * n : (a + 1) * n]) != full or {self._t[b * n + a] for b in range(n)} != full:
                raise ValidationError("bad-spec", "table is not a Latin square")
        # Light's test: the g with (a·g)·b = a·(g·b) for all a, b are closed under products,
        # so checking a generating set checks every element
        t = np.array(self._t, dtype=np.int64).reshape(n, n)
        step = max(1, CHUNK_ENTRIES // n)
        for g in self.generating_set():
            for lo in range(0, n, step):
                bad = np.argwhere(t[t[lo : lo + step, g]] != t[lo : lo + step][:, t[g]])
                if bad.size:
                    a, b = int(bad[0][0]) + lo, int(bad[0][1])
                    raise ValidationError("bad-spec", f"associativity fails at ({a},{g},{b})")

    # -- element-level structure ------------------------------------------

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = math.lcm(*(self.element_order(a) for a in range(self.order)))
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
        return all(
            self.mul(a, b) == self.mul(b, a) for a in range(self.order) for b in range(a + 1, self.order)
        )

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self) -> ConjugacyData:
        if "conj" in self._cache:
            return self._cache["conj"]
        n = self.order
        class_of = [-1] * n
        reps, sizes = [], []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            cid = len(reps)
            orbit = {self.conj(g, x) for g in range(n)}
            for y in orbit:
                class_of[y] = cid
            reps.append(min(orbit))
            sizes.append(len(orbit))
        inverse_class = tuple(class_of[self.inverse[r]] for r in reps)
        data = ConjugacyData(
            class_of=tuple(class_of),
            reps=tuple(reps),
            sizes=tuple(sizes),
            centralizers=tuple(n // s for s in sizes),
            inverse_class=inverse_class,
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
        k, n = len(conj), self.order
        cls = np.array(conj.class_of, dtype=np.int64)
        y = np.array(self._t, dtype=np.int64)[np.array(self.inverse)[:, None] * n + np.array(conj.reps)]
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

    def is_p_group(self, p: int) -> bool:
        return is_power_of(self.order, p)

    def sylow_p_subgroups(self, p: int) -> list[frozenset]:
        """All Sylow p-subgroups (conjugates of a greedily grown maximal p-subgroup)."""
        n = self.order
        target = 1
        while n % (target * p) == 0:
            target *= p
        if target == 1:
            return [frozenset({self.identity})]
        p_elements = [x for x in range(n) if is_power_of(self.element_order(x), p) or x == self.identity]
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
        index = {g: i for i, g in enumerate(elems)}
        table = [[index[self.mul(a, b)] for b in elems] for a in elems]
        names = [self.names[g] for g in elems]
        return FiniteGroup(table, names=names, check=False), elems

    # -- generators and automorphisms -----------------------------------------

    def generating_set(self) -> list[int]:
        """A small generating set: grown greedily, then pruned of redundant picks."""
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
        return gens

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
        orders = [self.element_order(h) for h in range(n)]
        candidates = [np.array([h for h in range(n) if orders[h] == orders[g]], dtype=np.int32) for g in gens]
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
        tn = np.array(self._t, dtype=np.int32) * n  # tn[a·n + b] = (a·b)·n: elements are stored times n
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


def unique_prime_factor(n: int) -> int | None:
    """The prime p with n = p^k for some k ≥ 1, or None (n = 1, or two prime factors)."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    return p if n > 1 and is_power_of(n, p) else None


def group_prime(G: FiniteGroup) -> int:
    """The prime p with |G| = p^k; rejects mixed orders and the trivial group."""
    p = unique_prime_factor(G.order)
    if p is None:
        raise ValidationError("bad-spec", f"gauge group must be a nontrivial finite p-group, order {G.order} is not")
    return p


# -- named constructors ---------------------------------------------------------


def cyclic(m: int) -> FiniteGroup:
    """Z/m."""
    if m < 1:
        raise ValidationError("bad-spec", "cyclic order must be ≥ 1")
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return FiniteGroup(table, names=[str(i) for i in range(m)], check=False)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G × H with pairs ordered (g-index, h-index)."""
    ng, nh = g.order, h.order
    n = ng * nh
    table = [[0] * n for _ in range(n)]
    for a1 in range(ng):
        for a2 in range(nh):
            a = a1 * nh + a2
            for b1 in range(ng):
                for b2 in range(nh):
                    table[a][b1 * nh + b2] = g.mul(a1, b1) * nh + h.mul(a2, b2)
    names = [f"({g.names[a1]},{h.names[a2]})" for a1 in range(ng) for a2 in range(nh)]
    return FiniteGroup(table, names=names, check=False)


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z/p)^k with vectors ordered lexicographically."""
    if k < 1:
        raise ValidationError("bad-spec", "rank must be ≥ 1")
    n = p**k
    if n > MAX_ORDER:
        raise ValidationError("bound-exceeded", f"order {n} exceeds limit")

    def vec(i):
        return [(i // p**(k - 1 - j)) % p for j in range(k)]

    def idx(v):
        x = 0
        for c in v:
            x = x * p + c
        return x

    table = [[idx([(a + b) % p for a, b in zip(vec(i), vec(j))]) for j in range(n)] for i in range(n)]
    names = ["(" + ",".join(str(c) for c in vec(i)) + ")" for i in range(n)]
    return FiniteGroup(table, names=names, check=False)


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3×3 matrices over F_p (extraspecial p^{1+2}, exponent p for odd p)."""
    triples = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {t: i for i, t in enumerate(triples)}
    table = []
    for a, b, c in triples:
        row = []
        for x, y, z in triples:
            row.append(index[((a + x) % p, (b + y) % p, (c + z + a * y) % p)])
        table.append(row)
    names = [f"({a},{b},{c})" for a, b, c in triples]
    return FiniteGroup(table, names=names, check=False)


def extraspecial_exp_p2(p: int) -> FiniteGroup:
    """The extraspecial group of order p³ and exponent p²: ⟨a,b | a^{p²}, b^p, bab⁻¹ = a^{1+p}⟩."""
    pp = p * p
    pairs = [(i, j) for i in range(pp) for j in range(p)]
    index = {t: k for k, t in enumerate(pairs)}
    table = []
    for i, j in pairs:
        row = []
        for k, l in pairs:
            row.append(index[((i + k * pow(1 + p, j, pp)) % pp, (j + l) % p)])
        table.append(row)
    names = [f"a^{i}b^{j}" for i, j in pairs]
    return FiniteGroup(table, names=names, check=False)


def gl2(p: int) -> FiniteGroup:
    """GL_2(F_p) as 2×2 invertible matrices."""
    mats = [
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a * d - b * c) % p != 0
    ]
    if len(mats) > MAX_ORDER:
        raise ValidationError("bound-exceeded", f"order {len(mats)} exceeds limit")
    index = {m: i for i, m in enumerate(mats)}
    table = []
    for a, b, c, d in mats:
        row = []
        for e, f, g, h in mats:
            row.append(index[((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)])
        table.append(row)
    names = [f"[[{a},{b}],[{c},{d}]]" for a, b, c, d in mats]
    return FiniteGroup(table, names=names, check=False)


def from_permutations(gens, degree: int, max_order: int = MAX_ORDER) -> FiniteGroup:
    """Closure of permutation generators (image arrays on 0..degree-1)."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens]
    for g in gens:
        if sorted(g) != list(ident):
            raise ValidationError("bad-spec", f"not a permutation of 0..{degree - 1}: {g}")
    elems = {ident: 0}
    order_list = [ident]
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in elems:
                if len(elems) >= max_order:
                    raise ValidationError("bound-exceeded", f"closure exceeds order limit {max_order}")
                elems[y] = len(order_list)
                order_list.append(y)
                frontier.append(y)
    table = []
    for x in order_list:
        row = []
        for y in order_list:
            row.append(elems[tuple(x[y[i]] for i in range(degree))])
        table.append(row)
    return FiniteGroup(table, check=False)


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
