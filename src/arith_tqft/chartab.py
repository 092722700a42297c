"""Character tables over 𝔽_ℓ by Dixon–Schneider splitting, and exact character sums from one prime.

For a finite group Γ and a prime ℓ ≡ 1 (mod exp Γ) with ℓ > 2|Γ|, every
character value lands in 𝔽_ℓ (the field contains the needed roots of unity),
so the full table can be computed by modular linear algebra:

  * class sums C_i multiply by C_i·C_j = Σ_m a_{ijm} C_m, so the matrices
    M_i[j][m] = a_{ijm} share the k central-character eigenvectors
    ω_j(χ) = |K_j|·χ(g_j)/χ(1), and no two characters share all eigenvalues;
  * the identity-class indicator is Σ_χ (χ(1)²/|Γ|)·ω_χ, with no coefficient
    0 mod ℓ.  Each refinement step takes a vector v and a matrix M, reads the
    minimal polynomial of v off one RREF of its Krylov columns v, Mv, M²v, …,
    finds its roots (by evaluation over 𝔽_ℓ, or past ℓ > 2¹⁷ by
    Cantor–Zassenhaus splitting) and projects v onto each eigenspace it
    meets.  One seeded random combination Σ_i c_i M_i splits
    first, then the M_i of the non-identity classes refine what it left,
    until there are k vectors, each a multiple of one ω-vector.  No seed is
    ever retried;
  * degrees come from first orthogonality, rows from χ(g_j) = d·ω_j/|K_j|.

All arithmetic is numpy int64 mod ℓ; k·(ℓ−1)² < 2⁶³ keeps every dot product exact.

A character sum S_ρ = Σ_g χ_ρ(g^e)·χ_ρ(g) is a rational integer (the Galois
action g ↦ g^a permutes Γ and fixes it) with |S_ρ| ≤ |Γ|·χ_ρ(1)² ≤ |Γ|·|Γ:Z(Γ)|.
So one split prime above 2|Γ|·|Γ:Z(Γ)| recovers every S_ρ exactly by a
centered lift, one character at a time.  `dw.hom_count` no longer counts
this way, nor builds a table (it reads how many characters of each degree
the handle's Galois action fixes off the class algebra), so `char_sum` and
`recover_integer` are the tests' independent reference for its counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from .errors import ComputationError, ValidationError
from .pgroup import CHUNK_ENTRIES, FiniteGroup, factorize, is_prime, unique_prime_factor
from .units import p_power_minus_one


def split_primes(G: FiniteGroup, count: int = 2, above: int = 0) -> list[int]:
    """The `count` smallest primes ℓ ≡ 1 (mod exp G) with ℓ > 2|G| and ℓ > `above`."""
    e = G.exponent()
    floor = max(2 * G.order, above)
    out = []
    l = floor + 1 + (-floor) % e  # the first ℓ ≡ 1 (mod e) above the floor
    while len(out) < count:
        if is_prime(l):
            out.append(l)
        l += e
    return out


# -- Krylov splitting mod ℓ ------------------------------------------------------


def _min_poly(K, l: int) -> list[int]:
    """Monic minimal polynomial (low degree first) of v under M, from the Krylov columns K[:, t] = Mᵗ·v.

    A column-wise RREF mod ℓ stops at the first column that depends on the earlier ones.
    """
    A = K.copy()
    for j in range(A.shape[1]):  # rows 0..j−1 hold the unit pivots of columns 0..j−1
        nz = A[j:, j].nonzero()[0]
        if not nz.size:  # Mʲ·v = Σ_{i<j} A[i, j]·Mⁱ·v
            return (-A[:j, j] % l).tolist() + [1]
        if nz[0]:
            A[[j, j + nz[0]]] = A[[j + nz[0], j]]
        pivot_row = A[j] * pow(int(A[j, j]), -1, l) % l
        A -= A[:, j, None] * pivot_row
        A[j] = pivot_row
        A %= l
    raise ComputationError("eigenspace-separation", "Krylov sequence did not close within its bound")


_SCAN_LIMIT = 1 << 17  # largest ℓ whose roots are found by evaluating at every residue: past it splitting is faster


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a: list, f: list, l: int) -> tuple:
    """(quotient, remainder) of a by a monic f over 𝔽_ℓ; polynomials are coefficient lists, low degree first."""
    a, d = [x % l for x in a], len(f) - 1
    q = [0] * max(len(a) - d, 0)
    for i in range(len(a) - 1 - d, -1, -1):
        c = q[i] = a[i + d]
        if c:
            for j in range(d + 1):
                a[i + j] = (a[i + j] - c * f[j]) % l
    return q, _trim(a[:d])


def _poly_mulmod(a: list, b: list, f: list, l: int) -> list:
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_divmod(prod, f, l)[1]


def _poly_powmod(a: list, n: int, f: list, l: int) -> list:
    out = [1]
    while n:
        if n & 1:
            out = _poly_mulmod(out, a, f, l)
        a, n = _poly_mulmod(a, a, f, l), n >> 1
    return out


def _poly_gcd(a: list, b: list, l: int) -> list:
    """The monic gcd over 𝔽_ℓ."""
    a, b = _trim([x % l for x in a]), _trim([x % l for x in b])
    while b:
        inv = pow(b[-1], -1, l)
        b = [x * inv % l for x in b]
        a, b = b, _poly_divmod(a, b, l)[1]
    return a


def _split_roots(f: list, l: int, rng) -> list:
    """The roots of a monic f that is a product of distinct linear factors over 𝔽_ℓ, ℓ odd.

    By Cantor–Zassenhaus: gcd(f, (x + a)^((ℓ−1)/2) − 1) holds the roots r
    with r + a a nonzero square, so a random a splits f in two.
    """
    if len(f) == 2:
        return [-f[0] % l]
    while True:
        h = _poly_powmod([rng.randrange(l), 1], (l - 1) // 2, f, l) + [0]
        h[0] -= 1
        g = _poly_gcd(f, h, l)
        if 1 < len(g) < len(f):
            return _split_roots(g, l, rng) + _split_roots(_poly_divmod(f, g, l)[0], l, rng)


def _roots(poly: list[int], l: int) -> np.ndarray:
    """All roots in 𝔽_ℓ of a monic polynomial (low degree first), each once.

    Found by Horner over 𝔽_ℓ in chunks, or past `_SCAN_LIMIT` by splitting
    gcd(poly, x^ℓ − x), the product of its distinct linear factors.
    """
    if l > _SCAN_LIMIT:
        x_l = _poly_powmod([0, 1], l, poly, l) + [0, 0]
        x_l[1] -= 1
        linear = _poly_gcd(poly, x_l, l)
        return np.array(sorted(_split_roots(linear, l, random.Random(l)) if len(linear) > 1 else []), dtype=np.int64)
    found, count = [], 0
    for lo in range(0, l, CHUNK_ENTRIES):
        x = np.arange(lo, min(lo + CHUNK_ENTRIES, l), dtype=np.int64)
        acc = x + poly[-2]
        for c in poly[-3::-1]:
            acc = (acc * x + c) % l
        found.append(x[acc % l == 0])
        count += len(found[-1])
        if count == len(poly) - 1:
            break
    return np.concatenate(found)


def _refine(M, V, l: int):
    """Replace each column v of V by its projections q_λ(M)·v onto the eigenspaces of M it meets.

    q_λ = m_v(x)/(x − λ) for the minimal polynomial m_v of v; eigenvectors of M stay as they are.
    """
    k, p = V.shape
    MV = M @ V % l
    cols, rows = np.arange(p), V.argmax(axis=0)  # V[rows, cols] ≠ 0
    moved = ((MV * V[rows, cols] - V * MV[rows, cols]) % l).any(axis=0)
    if not moved.any():
        return V
    krylov = [V[:, moved], MV[:, moved]]
    for _ in range(k - p):  # the columns span k dimensions, so none meets more than k − p + 1 eigenspaces
        krylov.append(M @ krylov[-1] % l)
    K = np.stack(krylov)
    out = [V[:, ~moved]]
    for j in range(K.shape[2]):
        Kj = K[:, :, j].T
        poly = _min_poly(Kj, l)
        d = len(poly) - 1
        lam = _roots(poly, l)
        if len(lam) != d:
            raise ComputationError("eigenspace-separation", f"minimal polynomial has {len(lam)} of {d} roots in F_{l}")
        B = np.empty((d, d), dtype=np.int64)  # column i: coefficients of m_v(x)/(x − λ_i)
        B[d - 1] = 1
        for t in range(d - 1, 0, -1):
            B[t - 1] = (poly[t] + lam * B[t]) % l
        out.append(Kj[:, :d] @ B % l)
    return np.concatenate(out, axis=1)


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
    """The least residue of multiplicative order `order` mod ℓ.

    Those residues are the powers ω^i, gcd(i, order) = 1, of any one of them.
    """
    prime_factors = factorize(order)
    if (l - 1) % order == 0:
        for h in range(1, l):
            w = pow(h, (l - 1) // order, l)
            if all(pow(w, order // q, l) != 1 for q in prime_factors):
                return min(pow(w, i, l) for i in range(1, order + 1) if all(i % q for q in prime_factors))
    raise ComputationError("eigenspace-separation", f"no residue of order {order} mod {l}")


def character_table_mod(G: FiniteGroup, l: int, seed: int = 0) -> CharacterTableMod:
    """The character table of G mod ℓ.

    `seed` picks the random class-matrix combination that splits first; every seed gives the same table.
    """
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
        return replace(G._cache[cache_key], group=G)

    conj = G.conjugacy_classes()
    k, n = len(conj), G.order
    if k * (l - 1) ** 2 >= 2**63:
        raise ValidationError("bound-exceeded", f"k·(ℓ−1)² ≥ 2⁶³ for k = {k}, ℓ = {l}: int64 dot products would wrap")
    a = G.structure_constants()
    cls_e = conj.class_of[G.identity]

    # e = Σ_χ (χ(1)²/|Γ|)·ω_χ meets every eigenspace; split it by a seeded combination, then by each M_i
    rng = random.Random(seed)
    combo = np.array([rng.randrange(1, l) for _ in range(k)], dtype=np.int64) @ a.reshape(k, k * k) % l
    V = np.zeros((k, 1), dtype=np.int64)
    V[cls_e, 0] = 1
    for M in [combo.reshape(k, k)] + [a[i] for i in range(k) if i != cls_e]:  # M_e = I splits nothing
        if V.shape[1] == k:
            break
        V = _refine(M, V, l)
    if V.shape[1] != k:
        raise ComputationError("eigenspace-separation", f"class matrices mod {l} split {V.shape[1]} of {k} characters")

    W = V.T  # row χ: a multiple of ω_χ; scale it to 1 on the identity class
    if not W[:, cls_e].all():
        raise ComputationError("eigenspace-separation", f"a split vector vanishes on the identity class mod {l}")
    W = W * np.array([pow(int(x), -1, l) for x in W[:, cls_e]], dtype=np.int64)[:, None] % l
    inv_sizes = np.array([pow(s, -1, l) for s in conj.sizes], dtype=np.int64)
    ssum = (W * W[:, conj.inverse_class] % l * inv_sizes % l).sum(axis=1) % l  # |Γ|/χ(1)² mod ℓ
    degrees = []
    for s in ssum.tolist():
        d_sq = n * pow(s, -1, l) % l if s else 0
        d = isqrt(d_sq)
        if d * d != d_sq or d == 0:
            raise ComputationError("eigenspace-separation", f"non-square degree residue {d_sq} mod {l}")
        degrees.append(d)
    if sum(d * d for d in degrees) != n:
        raise ComputationError("eigenspace-separation", f"Σd² = {sum(d * d for d in degrees)} ≠ {n} mod {l}")
    R = np.array(degrees, dtype=np.int64)[:, None] * W % l * inv_sizes % l
    rows = R.tolist()
    order = sorted(range(k), key=lambda i: (degrees[i], rows[i]))
    _validate_orthogonality(R, conj, n, l)
    table = CharacterTableMod(
        group=G,
        l=l,
        seed=seed,
        omega=_least_primitive_residue(G.exponent(), l),
        degrees=tuple(degrees[i] for i in order),
        rows=tuple(tuple(rows[i]) for i in order),
        sizes=conj.sizes,
        inverse_class=conj.inverse_class,
        identity_class=cls_e,
    )
    G._cache[cache_key] = replace(table, group=None)  # no G ↔ table cycle: a dropped G is freed at once
    return table


def _validate_orthogonality(R, conj, n: int, l: int) -> None:
    """Both orthogonality relations of the rows R mod ℓ, as two matrix products (k·(ℓ−1)² < 2⁶³: no wrap)."""
    sizes = np.array(conj.sizes, dtype=np.int64)
    R_inv = R[:, conj.inverse_class]
    if ((R * sizes % l) @ R_inv.T % l != np.diag(np.full(len(R), n % l))).any():
        raise ComputationError("eigenspace-separation", f"row orthogonality fails mod {l}")
    if (R.T @ R_inv % l != np.diag(n // sizes % l)).any():
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
    power_class = G.class_powers(e).tolist()
    return tuple(
        sum(table.sizes[j] * row[power_class[j]] * row[j] for j in range(k)) % table.l
        for row in table.rows
    )


def recover_integer(res: int, l: int) -> int:
    """The centered lift of res mod ℓ: the integer in (−ℓ/2, ℓ/2] it stands for, exact once ℓ > 2·|value|."""
    res %= l
    return res - l if res > l // 2 else res
