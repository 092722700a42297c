"""Character tables over 𝔽_ℓ by Dixon's method, and exact character sums from one prime.

For a finite group Γ and a prime ℓ ≡ 1 (mod exp Γ) with ℓ > 2|Γ|, every
character value lands in 𝔽_ℓ (the field contains the needed roots of unity),
so the full table can be computed by modular linear algebra:

  * class sums C_i multiply by C_i·C_j = Σ_m a_{ijm} C_m, so the matrices
    M_i[j][m] = a_{ijm} share the k central-character eigenvectors
    ω_j(χ) = |K_j|·χ(g_j)/χ(1);
  * a random linear combination M = Σ_i c_i M_i separates the eigenvalues
    (retry with a fresh seed on collision), each eigenspace is a line, and the
    eigenvector normalized to 1 on the identity class is the ω-vector;
  * degrees come from first orthogonality, rows from χ(g_j) = d·ω_j/|K_j|.

A character sum S_ρ = Σ_g χ_ρ(g^e)·χ_ρ(g) is a rational integer (the Galois
action g ↦ g^a permutes Γ and fixes it) with |S_ρ| ≤ |Γ|·χ_ρ(1)² ≤ |Γ|·|Γ:Z(Γ)|.
So one split prime above 2|Γ|·|Γ:Z(Γ)| recovers every S_ρ exactly by a
centered lift, one character at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import ComputationError, ValidationError
from .pgroup import FiniteGroup, is_prime, unique_prime_factor
from .units import p_power_minus_one

MAX_SEED_TRIES = 20


def split_primes(G: FiniteGroup, count: int = 2, above: int = 0) -> list[int]:
    """The `count` smallest primes ℓ ≡ 1 (mod exp G) with ℓ > 2|G| and ℓ > `above`."""
    e = G.exponent()
    floor = max(2 * G.order, above)
    out = []
    l = e + 1
    while len(out) < count:
        if l > floor and is_prime(l):
            out.append(l)
        l += e
    return out


# -- modular linear algebra helpers -----------------------------------------------


def _charpoly(M, l: int):
    """Coefficients (low degree first) of det(x·I − M) mod ℓ, via upper Hessenberg form, O(k³)."""
    k = len(M)
    H = [[x % l for x in row] for row in M]
    for j in range(k - 2):
        piv = next((i for i in range(j + 1, k) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:  # similarity: swap rows and columns piv, j+1
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(H[j + 1][j], -1, l)
        for i in range(j + 2, k):
            u = H[i][j] * inv % l
            if u:  # similarity: row_i −= u·row_{j+1}, then column_{j+1} += u·column_i
                H[i] = [(a - u * b) % l for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + u * row[i]) % l
    polys = [[1]]  # polys[c] = charpoly of the leading c×c block, by expansion along column c
    for c in range(k):
        p = [0] + polys[c]
        for t, x in enumerate(polys[c]):
            p[t] = (p[t] - H[c][c] * x) % l
        prod = 1
        for i in range(c - 1, -1, -1):
            prod = prod * H[i + 1][i] % l
            f = H[i][c] * prod % l
            if f:
                for t, x in enumerate(polys[i]):
                    p[t] = (p[t] - f * x) % l
        polys.append(p)
    return polys[k]


def _poly_roots(coeffs, l: int) -> list[int]:
    roots = []
    for x in range(l):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % l
        if acc == 0:
            roots.append(x)
    return roots


def _kernel_vector(mat, l: int):
    """One kernel vector of a square matrix mod ℓ, plus the nullity."""
    k = len(mat)
    m = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, k) if m[i][c] % l), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], l - 2, l)
        m[r] = [x * inv % l for x in m[r]]
        for i in range(k):
            if i != r and m[i][c] % l:
                f = m[i][c]
                m[i] = [(a - f * b) % l for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(k) if c not in pivots]
    if not free:
        return None, 0
    v = [0] * k
    v[free[0]] = 1
    for row_idx, c in enumerate(pivots):
        v[c] = (-sum(m[row_idx][cc] * v[cc] for cc in free)) % l
    return v, len(free)


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True)
class CharacterTableMod:
    """All irreducible characters of `group` with values in 𝔽_ℓ.

    Rows are indexed by character (sorted by degree, then row entries) and
    columns by conjugacy class in the group's class order.  `omega` is the
    smallest residue of multiplicative order exp(group), recorded so the
    root-of-unity encoding of the values is reproducible.
    """

    group: FiniteGroup
    l: int
    seed: int
    omega: int
    degrees: tuple
    rows: tuple
    sizes: tuple
    inverse_class: tuple
    identity_class: int

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "omega": self.omega,
            "degrees": list(self.degrees),
            "rows": [list(r) for r in self.rows],
            "seed": self.seed,
        }


def _least_primitive_residue(order: int, l: int) -> int:
    prime_factors = []
    n, d = order, 2
    while d * d <= n:
        if n % d == 0:
            prime_factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        prime_factors.append(n)
    for g in range(1, l):
        if pow(g, order, l) == 1 and all(pow(g, order // q, l) != 1 for q in prime_factors):
            return g
    raise ComputationError("eigenspace-separation", f"no residue of order {order} mod {l}")


def character_table_mod(G: FiniteGroup, l: int, seed: int = 0) -> CharacterTableMod:
    if not is_prime(l):
        raise ValidationError("bad-spec", f"modulus {l} is not prime")
    if l <= 2 * G.order:
        raise ValidationError("bad-spec", f"need ℓ > 2|G| = {2 * G.order}, got {l}")
    if (l - 1) % G.exponent() != 0:
        raise ValidationError(
            "bad-spec", f"ℓ = {l} is not ≡ 1 mod exp(G) = {G.exponent()}; character values would leave 𝔽_ℓ"
        )
    cache_key = ("chartab", l, seed)
    if cache_key in G._cache:
        return G._cache[cache_key]

    conj = G.conjugacy_classes()
    k = len(conj)
    a = np.array(G.structure_constants(), dtype=np.int64)
    cls_e = conj.class_of[G.identity]
    n = G.order
    inv_sizes = [pow(s, l - 2, l) for s in conj.sizes]

    last_failure = "no seed attempted"
    for s in range(seed, seed + MAX_SEED_TRIES):
        rng = random.Random(s)
        c = [rng.randrange(1, l) for _ in range(k)]
        M = (np.tensordot(c, a, axes=1) % l).tolist()  # M[j][m] = Σ_i c_i·a[i][j][m] mod ℓ
        roots = _poly_roots(_charpoly(M, l), l)
        if len(roots) != k:
            last_failure = f"seed {s}: {len(roots)} distinct eigenvalues, need {k}"
            continue
        rows, degrees = [], []
        ok = True
        for lam in roots:
            shifted = [[(M[r][cc] - (lam if r == cc else 0)) % l for cc in range(k)] for r in range(k)]
            v, nullity = _kernel_vector(shifted, l)
            if nullity != 1 or v[cls_e] == 0:
                ok = False
                last_failure = f"seed {s}: eigenvalue {lam} has nullity {nullity}"
                break
            norm = pow(v[cls_e], l - 2, l)
            omega_vec = [x * norm % l for x in v]
            ssum = sum(omega_vec[j] * omega_vec[conj.inverse_class[j]] * inv_sizes[j] for j in range(k)) % l
            d_sq = n * pow(ssum, l - 2, l) % l
            d = isqrt(d_sq)
            if d * d != d_sq or d == 0:
                ok = False
                last_failure = f"seed {s}: non-square degree residue {d_sq}"
                break
            degrees.append(d)
            rows.append(tuple(d * omega_vec[j] * inv_sizes[j] % l for j in range(k)))
        if not ok:
            continue
        if sum(d * d for d in degrees) != n:
            last_failure = f"seed {s}: Σd² = {sum(d * d for d in degrees)} ≠ {n}"
            continue
        order = sorted(range(k), key=lambda i: (degrees[i], rows[i]))
        table = CharacterTableMod(
            group=G,
            l=l,
            seed=s,
            omega=_least_primitive_residue(G.exponent(), l),
            degrees=tuple(degrees[i] for i in order),
            rows=tuple(rows[i] for i in order),
            sizes=conj.sizes,
            inverse_class=conj.inverse_class,
            identity_class=cls_e,
        )
        _validate_orthogonality(table)
        G._cache[cache_key] = table
        return table
    raise ComputationError("eigenspace-separation", f"character table mod {l} failed: {last_failure}")


def _validate_orthogonality(t: CharacterTableMod) -> None:
    l, k, n = t.l, len(t.rows), t.group.order
    for a_idx in range(k):
        for b_idx in range(k):
            s = sum(
                t.sizes[j] * t.rows[a_idx][j] * t.rows[b_idx][t.inverse_class[j]] for j in range(k)
            ) % l
            want = n % l if a_idx == b_idx else 0
            if s != want:
                raise ComputationError("eigenspace-separation", f"row orthogonality fails mod {l}")
    for i in range(k):
        for j in range(k):
            s = sum(t.rows[r][i] * t.rows[r][t.inverse_class[j]] for r in range(k)) % l
            want = (n // t.sizes[i]) % l if i == j else 0
            if s != want:
                raise ComputationError("eigenspace-separation", f"column orthogonality fails mod {l}")


# -- character sums and their exact values ---------------------------------------------


def char_sum(table: CharacterTableMod, r, p: int | None = None) -> tuple:
    """Per character ρ: Σ_g χ_ρ(g^{p^r−1})·χ_ρ(g) mod ℓ, in table row order.

    `p` may be omitted when |Γ| is a prime power (the prime is then forced).
    At r = INF the exponent is −1 and each sum is |Γ| (orthonormality).
    """
    G = table.group
    if p is None:
        p = unique_prime_factor(G.order)
        if p is None:
            raise ValidationError("bad-spec", "char_sum needs an explicit p for a mixed-order group")
    e = p_power_minus_one(p, r)
    k = len(table.rows)
    power_class = [G.class_power(j, e) for j in range(k)]
    return tuple(
        sum(table.sizes[j] * row[power_class[j]] * row[j] for j in range(k)) % table.l
        for row in table.rows
    )


def recover_integer(pairs, bound: int) -> int:
    """Centered Chinese-remainder lift of residue/modulus pairs, |result| ≤ bound.

    A single pair (r, ℓ) gives the centered lift of r mod ℓ, which is exact once ℓ > 2·bound.
    """
    modulus = 1
    x = 0
    for res, m in pairs:
        res %= m
        try:
            g = pow(modulus, -1, m)
        except ValueError:
            raise ValidationError("bad-spec", "recovery moduli must be pairwise coprime") from None
        x = x + modulus * ((res - x) * g % m)
        modulus *= m
    if modulus <= 2 * bound:
        raise ComputationError(
            "need-more-primes",
            f"CRT modulus {modulus} cannot separate values up to ±{bound}; supply more primes",
        )
    x %= modulus
    if x > modulus // 2:
        x -= modulus
    return x
