"""Dijkgraaf–Witten theories of finite p-groups and the counting formulas they carry.

For a finite p-group Γ the class functions on Γ — the center of the group
algebra under convolution — form a 𝕌_p-extended Frobenius algebra: the counit
evaluates at the identity and divides by |Γ|, the unit is the indicator of the
identity class, and the unit group acts by the power maps g ↦ g^α (reduced
mod exponent Γ), which permute conjugacy classes.  In the class-indicator
basis every generator is an int64 array read from the group's one
structure-constant array (the counit scaled by |Γ|); `DWAlgebra` reduces these
mod a prime ℓ and plugs into the generic evaluator and axiom checker in
`frobenius`, and `dw_generator_map_exact` gives them over ℚ.  Over a split
prime the algebra is a product of one-dimensional summands, one per
irreducible character, which the unit group permutes: `Splitting` writes
every generator in that basis of character idempotents, where each is
monomial, with its data taken from the character table and the class power
map, and prechecks and evaluates diagrams there; `classification_data`
returns its data.

On top of the algebra sit the counting formulas.  One routine,
`_surface_hom_count`, counts the homomorphisms from a one-relator surface
group into Γ or into any subgroup H of it, off H's class algebra, as |H|
times the closed surface's value summed in ℤ, |H|·tr(Φ_c·L^{n−1}): Φ_c is
the class power map of the handle's exponent c and L the multiplication by
the commutator sum ζ = Σ_{x,y} [x, y].  At genus 1 that is the number of
classes the power map fixes; at higher genus the number of characters of
each degree that π_c fixes is solved for from the traces, mod a fixed
prime, with no character table; an abelian H is read off its element
orders (its character table is its dual group).  What a count reads is one
record per (group, level), cached on Γ.  `hom_count` is the routine on Γ;
`epi_count` inverts it by P. Hall's Möbius sum over the subgroups
containing the Frattini subgroup Φ(Γ), enumerated as the subspaces of
Γ/Φ(Γ) ≅ 𝔽_p^d, a sum that takes a closed form in d when Γ is abelian and
is 0 when d exceeds the spec's letters; each of its terms, Γ's own
included, is the same routine on that subgroup's elements;
`extension_count`, `yamagishi_count` and `general_gauge_count` are the
derived quantities.  Everything here has an independent brute-force twin in
`oracle`; the hom counts also have the integer character sums of
`chartab.char_sum`, which the tests compare them against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .chartab import character_table_mod
from .cobordism import Diagram, Token
from .errors import INT_EXACT, ComputationError, EngineError, ValidationError
from .frobenius import (
    _MOD_BLOCK,
    _SMALL,
    STRUCTURAL_AXIOMS,
    GenericMatrix,
    ModMatrix,
    TokenTerms,
    _assemble,
    _mod,
    ensure_prechecked,
    evaluate_diagram,
    residue_dtype,
)
from .pgroup import (
    CHUNK_ENTRIES,
    FiniteGroup,
    _frattini_cosets,
    _gaussian_binomial,
    abelian_invariants,
    factorize,
    group_from_spec,
    group_prime,
    is_power_of,
    is_prime,
    unique_prime_factor,
)
from .units import INF, PadicUnit, is_valid_level, level_to_json, p_power

_FLOAT32_EXACT = 2**24  # float32 holds every integer below this exactly
_FLOAT32_BLOCK = 2**16  # float32 entries multiplied and reduced mod ℓ at a time by `Splitting._mul`

# -- relator specs -------------------------------------------------------------------


@dataclass(frozen=True)
class RelatorSpec:
    """Source-group data for a counting problem.

    Surface form `RelatorSpec(n, r)`: 2n generators x₁,y₁,…,xₙ,yₙ subject to
    the single relator x₁^{p^r}·[x₁,y₁]⋯[xₙ,yₙ], where r is a level (positive
    integer or INF; p^INF = 0, so at the infinite level the power factor
    disappears and the relator is the plain product of commutators).  Free
    form `FREE(k)`: k generators, no relator.  n = 0 is the trivial group.
    """

    n: int | None = None
    r: object = None
    free_rank: int | None = None

    def __post_init__(self):
        if self.free_rank is not None:
            if self.n is not None or self.r is not None:
                raise ValidationError("bad-spec", "a free spec does not take (n, r)")
            if not isinstance(self.free_rank, int) or self.free_rank < 0:
                raise ValidationError("bad-spec", f"free rank must be ≥ 0, got {self.free_rank!r}")
            return
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValidationError("bad-spec", f"genus parameter n must be an integer ≥ 0, got {self.n!r}")
        if not is_valid_level(self.r):
            raise ValidationError("bad-level", f"{self.r!r} is not a level (positive integer or INF)")

    @property
    def is_free(self) -> bool:
        return self.free_rank is not None

    def letters(self) -> int:
        """Number of free generators an enumeration has to scan."""
        return self.free_rank if self.is_free else 2 * self.n

    def __str__(self):
        if self.is_free:
            return f"free({self.free_rank})"
        return f"surface(n={self.n}, r={level_to_json(self.r)})"


def FREE(rank: int) -> RelatorSpec:
    return RelatorSpec(free_rank=rank)


# -- exact structural matrices ---------------------------------------------------------


def _exponent_val(G: FiniteGroup, p: int) -> int:
    """e with exponent(Γ) = p^e."""
    return factorize(G.exponent()).get(p, 0)


def _twist_exponent(G: FiniteGroup, p: int, u: PadicUnit) -> int:
    if u.p != p:
        raise ValidationError("incompatible-units", f"{u} twists a {u.p}-adic theory, the group is a {p}-group")
    e = _exponent_val(G, p)
    if u.precision < e:
        raise ValidationError(
            "precision-exhausted",
            f"twist unit known mod {u.p}^{u.precision} but the group has exponent {u.p}^{e}",
        )
    return u.residue % G.exponent()


def _torus_exponent(G: FiniteGroup, p: int, r) -> int:
    """The canonical power-map exponent (1 − p^r) mod exp(Γ) of the level-r handle."""
    if not is_valid_level(r):
        raise ValidationError("bad-level", f"handle level must be a positive integer or INF, got {r!r}")
    return (1 - p_power(p, r)) % G.exponent()


def _generator_key(G: FiniteGroup, p: int, tok: Token) -> tuple:
    """What a generator's matrix depends on: its kind, and the power-map exponent of a tw or tor."""
    kind = tok.kind
    if kind == "tw":
        return ("tw", _twist_exponent(G, p, tok.unit))
    if kind == "tor":
        return ("tor", _torus_exponent(G, p, tok.level))
    if kind in ("m", "d", "cup", "cap", "id", "swap"):
        return (kind,)
    raise ValidationError("unknown-token", f"no gauge-theory image for token kind {tok.kind!r}")


def _generator(G: FiniteGroup, key: tuple) -> np.ndarray:
    """The int64 matrix of one generator in the class-indicator basis, cup scaled by |Γ|.

    Every entry is an integer except the counit's 1/|Γ| at the identity
    class, so `cup` is stored as |Γ|·ε.  Columns of a k²-legged token are
    indexed row-major, leftmost strand first, matching the strand order of
    the generic evaluator.  Built from one structure-constant array; cached,
    read-only, in the group.
    """
    cache_key = ("dw-exact",) + key
    if cache_key in G._cache:
        return G._cache[cache_key]
    conj = G.conjugacy_classes()
    k, kind = len(conj), key[0]
    if kind == "id":
        mat = np.eye(k, dtype=np.int64)
    elif kind == "swap":  # the basis tensor (c, d) goes to (d, c)
        mat = np.eye(k * k, dtype=np.int64).reshape(k, k, k, k).transpose(0, 1, 3, 2).reshape(k * k, -1)
    elif kind in ("cup", "cap"):  # the identity-class indicator, as a row or a column
        mat = np.eye(1, k, conj.class_of[G.identity], dtype=np.int64)
        mat = mat.T if kind == "cap" else mat
    elif kind == "m":  # m[c, (a, b)] = a_{abc}
        mat = G.structure_constants().transpose(2, 0, 1).reshape(k, k * k)
    elif kind == "d":  # d[(a, c), b] = |C(g_a)|·a_{a⁻¹, b, c}
        sc = G.structure_constants()[list(conj.inverse_class)]
        mat = (np.array(conj.centralizers)[:, None, None] * sc).transpose(0, 2, 1).reshape(k * k, k)
    else:  # tw is the class permutation K ↦ K^c, and tor = m∘(tw⊗id)∘d
        perm = G.class_powers(key[1])
        mat = np.eye(k, dtype=np.int64)[:, perm]
        if kind == "tor":
            m = _generator(G, ("m",)).reshape(k, k, k)
            mat = m[:, perm, :].reshape(k, k * k) @ _generator(G, ("d",))
    mat = np.ascontiguousarray(mat)
    mat.flags.writeable = False
    G._cache[cache_key] = mat
    return mat


def dw_generator_map_exact(G, token: Token) -> GenericMatrix:
    """Exact rational matrix of a generator token on the class functions of Γ (cup carries 1/|Γ|)."""
    G = group_from_spec(G)
    mat = _generator(G, _generator_key(G, group_prime(G), token)).tolist()
    if token.kind == "cup":
        mat = [[Fraction(x, G.order) if x else 0 for x in row] for row in mat]
    return GenericMatrix(mat)


def _class_matrix(G: FiniteGroup, l: int, key: tuple) -> np.ndarray:
    """The generator's int64 class-basis matrix over 𝔽_ℓ, unreduced: `_generator` with cup's |Γ| divided out."""
    mat = _generator(G, key)
    return mat * pow(G.order, -1, l) if key == ("cup",) else mat


# -- the algebra object ----------------------------------------------------------------


class DWAlgebra:
    """Class functions on a finite p-group Γ, with scalars in 𝔽_ℓ.

    Satisfies the same protocol as the universal algebra (`dim`, `max_dim`,
    `basis_names`, `token_matrix`, `token_terms`, `default_levels`, `p`,
    `precheck`), so `frobenius.check_axioms` and `frobenius.evaluate_diagram`
    drive it unchanged.  Over a split prime the algebra carries its
    `splitting` into the character idempotent basis (`Splitting`, built here
    from the character table and the class power map alone): it is
    prechecked on those forms and `evaluate_diagram` walks the whole diagram
    once over them, so no class-basis matrix of m, Δ, tw or tor is built.
    `splitting` is None when ℓ has no character table; such an algebra is
    prechecked and contracted in the class basis, where every token is the
    one monomial 1 and the state is float64 BLAS products, reduced mod ℓ only
    when exactness needs it.  The class-basis generators stay the reference
    either way: `check_axioms` (the `axioms` command) contracts them.  `swap`
    is a strand relabelling on both routes, so its k²×k² matrix is built only
    when `token_matrix` is asked for it.
    Basis: indicator functions of conjugacy classes, in the group's class order.
    """

    max_dim = 4096
    precheck = STRUCTURAL_AXIOMS

    def __init__(self, G, l: int):
        self.group = group_from_spec(G)
        self.p = group_prime(self.group)
        if not is_prime(l):
            raise ValidationError("bad-spec", f"scalar modulus {l} is not prime")
        if self.group.order % l == 0:
            raise ValidationError("bad-spec", f"modulus {l} divides the group order {self.group.order}")
        self.l = l
        conj = self.group.conjugacy_classes()
        self.dim = len(conj)
        self.basis_names = tuple(f"K({self.group.names[rep]})" for rep in conj.reps)
        self.name = f"dw(order-{self.group.order} group, ℓ={l})"
        self._matrices: dict = {}
        self._terms: dict = {}
        self.splitting = _splitting(self)

    def token_matrix(self, tok: Token) -> ModMatrix:
        return self._matrix(_generator_key(self.group, self.p, tok))

    def _matrix(self, key: tuple) -> ModMatrix:
        if key not in self._matrices:
            self._matrices[key] = ModMatrix(_class_matrix(self.group, self.l, key), self.l)
        return self._matrices[key]

    def token_terms(self, tok: Token) -> TokenTerms:
        key = _generator_key(self.group, self.p, tok)
        if key not in self._terms:
            self._terms[key] = TokenTerms.of(self.token_matrix(tok))
        return self._terms[key]

    def default_levels(self):
        e = _exponent_val(self.group, self.p)
        return tuple(range(1, e + 1)) + (INF,)


# -- the character idempotent basis ------------------------------------------------------


def _splitting(A: DWAlgebra):
    """A's `Splitting`, or None when ℓ gives Γ no character table to split by.

    That is decided by the table's own preconditions (ℓ ≡ 1 mod exp Γ,
    ℓ > 2|Γ|, k·(ℓ−1)² < 2⁶³) and by a typed refusal from it, such as its k³
    structure constants passing `MAX_DENSE_ENTRIES`.  The splitting reads
    only the table and the class power map, so a group whose table is built
    gets one, whatever k⁴ is.
    """
    G, l, k = A.group, A.l, A.dim
    if (l - 1) % G.exponent() or l <= 2 * G.order or k * (l - 1) ** 2 >= INT_EXACT:
        return None
    try:
        table = character_table_mod(G, l)
    except EngineError:
        return None
    return Splitting(A, table)


class Splitting:
    """A DW algebra over a split prime ℓ in its basis of character idempotents e_χ.

    Each irreducible character χ gives e_χ = Σ_j P[j, χ]·C_j over the class
    indicators C_j, with P[j, χ] = χ(1)·χ(g_j⁻¹)/|Γ|, and P⁻¹[χ, j] =
    |K_j|·χ(g_j)/χ(1) reads class coordinates back; characters are in table
    row order.  The algebra is the product of the lines 𝔽_ℓ·e_χ, so every
    generator is monomial here:

        m(e_χ⊗e_ψ) = δ_χψ·e_χ,   Δ(e_χ) = μ_χ·e_χ⊗e_χ,   ε(e_χ) = λ_χ,   1 = Σ_χ e_χ,
        tw(u)(e_χ) = e_{π_u(χ)},   tor(r)(e_χ) = τ_r(χ)·e_χ.

    The forms come from the character table and the class power map alone
    (Isaacs, *Character Theory of Finite Groups*, ch. 2 and 9): λ_χ =
    χ(1)²/|Γ|², μ_χ = |Γ|²/χ(1)², π_u(χ) the row of the Galois conjugate
    χ∘(g ↦ g^{1/u}), and τ_r(χ) = μ_χ·[π_c(χ) = χ] for the level-r handle's
    exponent c = (1 − p^r) mod exp Γ, since tor(r) is Δ, then tw(c) on one
    leg, then m.  m and the unit carry no data; λ and μ are built with the
    splitting, each π_u and τ_r at its first use.  They are the class-basis
    generators (`_generator`) conjugated by P, because P⁻¹·P = I is row
    orthogonality, which `character_table_mod` has validated; `read_off`
    computes them that way, as the reference, and no run-time path calls it.

    The precheck is on the forms.  With m = δ, the unit Σ_χ e_χ and Δ
    diagonal, F1, F3, F4, F5 and FS hold identically, and F2 is λ·μ ≡ 1
    (`precheck`).  Each π_u is checked as it is built: it must map the
    table's rows onto its rows (F9, F6), and λ and μ must be constant on its
    orbits (F7, F8).  A failure is an `axiom-failure` naming the law.
    `matrix` evaluates a diagram on the forms.

    It keeps the group, p and the algebra's name, which it reads, and not
    the algebra, which holds it: no reference cycle is left to collect.
    """

    def __init__(self, A: DWAlgebra, table):
        l, k, n = A.l, A.dim, A.group.order
        self.group, self.p, self.name, self.l, self.k = A.group, A.p, A.name, l, k
        self._dtype = residue_dtype(l)  # the dtype of the walk's results
        self._float = k * (l - 1) ** 2 + l < _FLOAT32_EXACT  # a k-term product of residues is reduced exactly in float32
        chi = np.array(table.rows, dtype=np.int64)
        degrees = np.array(table.degrees, dtype=np.int64)
        inv_degrees = np.array([pow(d, -1, l) for d in table.degrees], dtype=np.int64)
        self.P = chi[:, list(table.inverse_class)].T * degrees % l * pow(n, -1, l) % l
        self.P_inv = chi * np.array(table.sizes, dtype=np.int64) % l * inv_degrees[:, None] % l
        self._P_rows = np.ascontiguousarray(self.P.T)  # row χ: the class coordinates of e_χ
        self._ident, self._ones = np.arange(k), np.ones((k, 1), dtype=np.int64)
        self._chi, self._row = chi, {row.tobytes(): i for i, row in enumerate(chi)}
        self.lam = degrees * degrees % l * pow(n * n, -1, l) % l  # ε(e_χ) = χ(1)²/|Γ|²
        self.mu = inv_degrees * inv_degrees % l * (n * n % l) % l  # Δ(e_χ) = |Γ|²/χ(1)²·e_χ⊗e_χ
        self._forms: dict = {("m",): None, ("cap",): None, ("d",): self.mu, ("cup",): self.lam}  # generator key → form
        self._top = 2  # the most factors in [0, ℓ) a weight holds unreduced: (ℓ−1)^top < 2⁶³, and k·(ℓ−1)² < 2⁶³ here
        while (l - 1) ** (self._top + 1) < INT_EXACT:
            self._top += 1
        self._ops: dict = {}  # token → its form

    def _refuse(self, law: str, chi: int, why: str):
        raise ValidationError("axiom-failure", f"{law} fails on {self.name}: witness e_χ{chi} ({why})")

    def precheck(self):
        """F1–F5 and FS on the forms, in O(k): all but F2 hold identically, and F2 (Δ then ε on one leg) is λ·μ ≡ 1."""
        bad = np.flatnonzero(self.lam * self.mu % self.l != 1)
        if len(bad):
            self._refuse("F2", int(bad[0]), "λ_χ·μ_χ ≢ 1")

    def _mul(self, a, b, dtype=np.int64):
        """a·b mod ℓ as a `dtype` array, for int64 a, b with entries in [0, ℓ) over an inner dimension of k.

        In float32 BLAS while k·(ℓ−1)² + ℓ < 2²⁴ and the product is large
        enough to pay for the conversions; otherwise in int64.  A block of a's
        rows at a time is multiplied, reduced and written into the result:
        `_MOD_BLOCK` entries in int64, `_FLOAT32_BLOCK` in float32, where the
        product and its quotient go into two buffers allocated once per call
        and every step of the reduction runs in place.

        A float32 block R is reduced in float32 as R − ⌊R/ℓ⌋·ℓ, exactly.
        R + ℓ < 2²⁴, so every partial sum of R is an integer below 2²⁴, hence
        exact, and so are ℓ and q = ⌊R/ℓ⌋.  Rounding is monotone, so
        q ≤ fl(R/ℓ) ≤ q + 1.  It cannot be q + 1: R/ℓ ≤ q + 1 − 1/ℓ, and a
        value rounds up to q + 1 only from within half the float32 spacing
        below q + 1, at most (q + 1)·2⁻²⁴, which is below 1/ℓ because
        (q + 1)·ℓ ≤ R + ℓ < 2²⁴.  So ⌊fl(R/ℓ)⌋ = q, and q·ℓ ≤ R and R − q·ℓ
        are integers below 2²⁴, exact.
        """
        rows, cols, l = len(a), b.shape[1], self.l
        out = np.empty((rows, cols), dtype=dtype)
        if not self._float or rows * cols * self.k <= _SMALL:
            step = max(1, _MOD_BLOCK // cols)
            for i in range(0, rows, step):
                out[i : i + step] = _mod(a[i : i + step] @ b, l)
            return out
        a, b = a.astype(np.float32), b.astype(np.float32)
        step = min(rows, max(1, _FLOAT32_BLOCK // cols))
        R, Q = np.empty((2, step, cols), dtype=np.float32)
        for i in range(0, rows, step):
            x = a[i : i + step]
            r, q = R[: len(x)], Q[: len(x)]
            np.matmul(x, b, out=r)
            np.divide(r, l, out=q)
            np.floor(q, out=q)
            q *= l
            r -= q
            out[i : i + step] = r  # a plain cast: a ufunc writing a narrower dtype casts in slow buffered chunks
        return out

    def form(self, tok: Token):
        """The form of a token, built at its first use: None for m and cap, μ for Δ, λ for cup, π_u, τ_r."""
        key = _generator_key(self.group, self.p, tok)
        if key not in self._forms:
            if key[0] == "tw":
                self.power_map(key[1])
            else:  # tor(r): Δ, then tw(c) on one leg, then m
                self._forms[key] = self.mu * (self.power_map(key[1]) == self._ident)
        self._ops[tok] = form = self._forms[key]
        return form

    def power_map(self, u: int):
        """π_u, the permutation e_χ ↦ e_{π_u(χ)} of tw(u), for u a unit mod exp Γ: π_u(χ) is the row of χ∘(g ↦ g^{1/u}).

        Read off the class power map and checked at once: each conjugate must
        be a row of the table, or tw(u) would not be multiplicative (F9); no
        two rows may share one, or tw(u) would not fix the unit Σ_χ e_χ (F6);
        and λ and μ must be constant on the orbits, or tw(u) would not keep ε
        (F7) or commute with Δ (F8).
        """
        G = self.group
        e = G.exponent()
        key = ("tw", u % e)
        if key not in self._forms:
            v = pow(u, -1, e)
            image = self._chi[:, G.class_powers(v)]
            pi = np.array([self._row.get(row.tobytes(), -1) for row in image], dtype=np.int64)
            label = f"the power map g ↦ g^{key[1]}"
            if (pi < 0).any():
                self._refuse("F9", int(np.argmin(pi)), f"{label} takes it to no character")
            hits = np.bincount(pi, minlength=self.k)
            if (hits != 1).any():
                j = int(np.argmax(hits != 1))
                self._refuse("F6", j, f"{label} is no permutation: {hits[j]} characters go to it")
            for law, weights, name in (("F7", self.lam, "λ"), ("F8", self.mu, "μ")):
                moved = np.flatnonzero(weights[pi] != weights)
                if len(moved):
                    self._refuse(law, int(moved[0]), f"{name} is not constant on the orbits of {label}")
            self._forms[key] = pi
        return self._forms[key]

    def read_off(self, key: tuple):
        """The form of a generator read off its class-basis matrix conjugated by P: the reference the built forms equal.

        `key` is the generator's `_generator_key`.  m and cap are checked
        whole and give None, Δ gives μ, cup λ, a tw its permutation π with
        π[ψ] the image of ψ, and a tor its diagonal, which may hold zeros.  An
        entry off the form is an `axiom-failure` naming the generator.  m and
        Δ are conjugated one tensor axis at a time (k⁴ steps on k³ entries),
        so this is for small groups, and only the tests call it.
        """
        k, kind, ident = self.k, key[0], self._ident
        M = _class_matrix(self.group, self.l, key) % self.l
        if kind == "m":  # M[c, (a, b)] → X[χ, b, a]
            X = self._mul(self._mul(self.P_inv, M).reshape(k * k, k), self.P).reshape(k, k, k)
            X = self._mul(X.transpose(0, 2, 1).reshape(k * k, k), self.P).reshape(k, k, k)
            X[ident, ident, ident] -= 1
            form, bad = None, X.any()
        elif kind == "d":  # M[(a, c), b] → X[χ, b, c]
            X = self._mul(self.P_inv, self._mul(M, self.P).reshape(k, k * k)).reshape(k, k, k)
            X = self._mul(X.transpose(0, 2, 1).reshape(k * k, k), self.P_inv.T).reshape(k, k, k)
            form = X[ident, ident, ident].copy()
            X[ident, ident, ident] = 0
            bad = X.any()
        elif kind == "cup":
            form, bad = self._mul(M, self.P)[0], False
        elif kind == "cap":
            form, bad = None, (self._mul(self.P_inv, M) != 1).any()
        else:
            X = self._mul(self._mul(self.P_inv, M), self.P)
            if kind == "tw":  # X[π[ψ], ψ] = 1 for a permutation π, and nothing else
                form = X.argmax(axis=0)
                bad = not np.array_equal(X, np.eye(k, dtype=np.int64)[:, form]) or len(set(form.tolist())) < k
            else:  # a diagonal, read as one: some τ_r(χ) are 0
                form = X.diagonal().copy()
                X[ident, ident] = 0
                bad = X.any()
        if bad:
            raise ValidationError(
                "axiom-failure",
                f"the generator {key} leaves its monomial form in the character idempotent basis on {self.name}",
            )
        return form

    def _columns(self, M, maps):
        """One row per root character χ: ⊗ over `maps` of the rows M[σ(χ)], reduced mod ℓ after each factor."""
        ident = self._ident
        if not maps:
            return self._ones
        out = M if maps[0] is ident else M[maps[0]]
        for s in maps[1:]:
            out = _mod((out[:, :, None] * (M if s is ident else M[s])[:, None, :]).reshape(self.k, -1), self.l)
        return out

    def _factor(self, w, outs, ins):
        """U·diag(w)·Vᵀ for the maps σ of a piece's output legs and τ of its input legs.

        U's columns are ⊗_o P[:, σ_o(χ)] and V's ⊗_i P⁻¹[τ_i(χ), :]; diag(w)
        goes on the smaller of the two, and the product is one reduction mod ℓ,
        written in `residue_dtype(ℓ)`.
        """
        U, V = self._columns(self._P_rows, outs), self._columns(self.P_inv, ins)
        if w is not None:
            if U.shape[1] <= V.shape[1]:
                U = _mod(U * w[:, None], self.l)
            else:
                V = _mod(V * w[:, None], self.l)
        return self._mul(U.T, V, self._dtype)

    def matrix(self, D: Diagram) -> np.ndarray:
        """The class-basis matrix of D in [0, ℓ), in `residue_dtype(ℓ)`, from one walk over its tokens.

        Each strand carries a map σ (an int array) from the root character of
        its group to its own character, and each group of joined strands a
        weight vector w over its root characters (None while all ones) and
        the map τ of every input leg it holds; each input leg and each cap
        starts a group.  `m` within a group multiplies w by [σ₁ = σ₂]; across
        groups it re-expresses the second group's maps through σ₂⁻¹∘σ₁ and
        joins it to the first, multiplying the two weights.  Δ, cup and tor
        multiply w by their weights, tw composes σ with its permutation, and
        swap and id only relabel strands.

        No weight is gathered at σ; each is used as it is.  Every σ is a
        product of twist permutations π_u and their inverses, and every weight
        is constant on the orbits of each π_u: λ and μ by F7 and F8, checked as
        each π_u is built, and τ_r = μ·[π_c(χ) = χ] and each [σ₁ = σ₂] (σ₂⁻¹∘σ₁
        fixes χ) because they are fixed-point sets of such products, and the
        π_u commute (they are the action of the abelian group (ℤ/exp Γ)^× by
        power maps), so each π_u maps the fixed points of another to fixed
        points.  So σ steers only each leg's rows of P and P⁻¹ (`_columns`) and
        the indicator under m, and a handle on a closed surface is one numpy
        product.  A weight is an int64 product of factors in [0, ℓ), reduced
        mod ℓ only when one more could pass 2⁶³ ((ℓ−1)^t < 2⁶³ for t factors),
        and before a join under m and before `_factor`.
        The groups left are the connected pieces of D.  One with no legs is the
        scalar Σ_χ w(χ), summed in Python ints, so exact unreduced; each other
        is U·diag(w)·Vᵀ on its own legs (`_factor`), and several are tensored
        together by `frobenius._assemble`.
        """
        l, ident, ops, top = self.l, self._ident, self._ops, self._top
        n = D.in_arity
        group, sigma = list(range(n)), [ident] * n
        weight = dict.fromkeys(group)
        depth = dict.fromkeys(group, 0)  # group → the factors multiplied into its weight since it was last reduced
        legs = {i: {i: ident} for i in group}
        fresh = n
        for sl in D.slices:
            out_g, out_s, pos = [], [], 0
            for tok in sl:
                kind = tok.kind
                if kind == "id" or kind == "swap":
                    end = pos + (kind == "swap") + 1
                    out_g += group[pos:end][::-1]
                    out_s += sigma[pos:end][::-1]
                    pos = end
                    continue
                if kind == "cap":
                    weight[fresh], depth[fresh], legs[fresh] = None, 0, {}
                    out_g.append(fresh)
                    out_s.append(ident)
                    fresh += 1
                    continue
                form = ops.get(tok, ops)
                if form is ops:  # not read yet
                    form = self.form(tok)
                g, s = group[pos], sigma[pos]
                w, pos = weight[g], pos + 1
                if kind == "m":
                    h, t = group[pos], sigma[pos]
                    pos += 1
                    if h != g:  # the root of h becomes f(χ) = σ₂⁻¹(σ₁(χ)) for the root χ of g
                        f = s if t is ident else t.argsort()[s]
                        move = lambda x: f if x is ident else x[f]
                        for strands, maps in ((group, sigma), (out_g, out_s)):
                            for i, x in enumerate(strands):
                                if x == h:
                                    strands[i], maps[i] = g, move(maps[i])
                        legs[g].update((i, move(tau)) for i, tau in legs.pop(h).items())
                        v, d = weight.pop(h), depth.pop(h)
                        if v is not None:
                            if w is None:
                                weight[g], depth[g] = v, d
                            else:  # each side reduced first, so the product of two residues fits
                                weight[g], depth[g] = (w % l if depth[g] > 1 else w) * (v % l if d > 1 else v), 2
                    elif t is not s:
                        weight[g] = (s == t) * (1 if w is None else w)
                        depth[g] = depth[g] or 1
                    out_g.append(g)
                    out_s.append(s)
                    continue
                if kind == "tw":
                    out_g.append(g)
                    out_s.append(form if s is ident else form[s])
                    continue
                if w is None:
                    weight[g], depth[g] = form, 1
                elif depth[g] < top:
                    weight[g], depth[g] = w * form, depth[g] + 1
                else:
                    weight[g], depth[g] = w % l * form, 2
                if kind != "cup":
                    out_g += [g, g] if kind == "d" else [g]
                    out_s += [s, s] if kind == "d" else [s]
            group, sigma = out_g, out_s
        outs: dict = {}  # group → its output legs
        for j, g in enumerate(group):
            outs.setdefault(g, []).append(j)
        scalar, factors = 1, []  # the closed groups' product, and each open group's matrix and legs
        for g, w in weight.items():
            if g not in outs and not legs[g]:
                scalar = scalar * (self.k if w is None else sum(w.tolist())) % l
                continue
            if depth[g] > 1:
                w = w % l
            ins, o = sorted(legs[g]), outs.get(g, [])
            factors.append([w, [sigma[j] for j in o], [legs[g][i] for i in ins], tuple(ins), tuple(o)])
        if not factors:
            return np.array([[scalar]], dtype=self._dtype)
        if scalar != 1:  # the closed groups, folded into one open one
            w = factors[0][0]
            factors[0][0] = np.full(self.k, scalar) if w is None else w * scalar % l
        factors = [(self._factor(w, out_maps, in_maps), ins, o) for w, out_maps, in_maps, ins, o in factors]
        return factors[0][0] if len(factors) == 1 else _assemble(factors, self.k, l)


def evaluate_dw(D: Diagram, G, l: int) -> ModMatrix:
    """Evaluate a cobordism diagram in the gauge theory of Γ, mod ℓ.

    A closed diagram yields a 1×1 matrix; a component of invariant (n, r, 0, 0)
    contributes the factor hom_count(RelatorSpec(n, r), Γ)/|Γ| to the scalar.
    The algebra is built and prechecked per call and not cached on Γ, which
    it holds; what it reads that Γ does cache, its character table and
    class-basis generators, holds no reference back to Γ.  To evaluate many
    diagrams, build `DWAlgebra(G, l)` once and call `evaluate_diagram`.
    """
    return evaluate_diagram(D, DWAlgebra(G, l))


def _unit_generators(p: int, e: int) -> list:
    """Generators of (ℤ/e)^× for e = exp Γ a power of p: −1 and 5 when p = 2, else the least primitive root."""
    if p == 2:
        return [-1 % e, 5 % e]
    phi = e // p * (p - 1)
    return [next(g for g in range(2, e) if g % p and all(pow(g, phi // q, e) != 1 for q in factorize(phi)))]


def classification_data(G, l: int) -> dict | None:
    """The DW algebra of Γ over 𝔽_ℓ as the classification sees it: one line 𝔽_ℓ·e_χ per character χ.

    The forms the evaluator walks with (`Splitting`), built from the
    character table and the class power map and prechecked on themselves, in
    table row order: `lambda` holds λ_χ = ε(e_χ) = χ(1)²/|Γ|², `tor` the
    diagonal τ_r of tor(r) for each level r of `default_levels()`, and `tw`
    the permutation π_u of the characters (e_χ ↦ e_{π_u[χ]}) of the power map
    g ↦ g^u for each generator u of (ℤ/exp Γ)^×.  No class-basis matrix is
    built, so this answers wherever the table does.  None when Γ is no
    nontrivial p-group (it has no DW algebra here) or ℓ gives its algebra no
    splitting.
    """
    G = group_from_spec(G)
    if unique_prime_factor(G.order) is None:
        return None
    A = DWAlgebra(G, l)
    S = A.splitting
    if S is None:
        return None
    ensure_prechecked(A)
    e = A.group.exponent()
    return {
        "lambda": S.form(Token("cup")).tolist(),
        "tor": {str(level_to_json(r)): S.form(Token("tor", level=r)).tolist() for r in A.default_levels()},
        "tw": {str(u): S.power_map(u).tolist() for u in _unit_generators(A.p, e)},
    }


# -- counting on the class algebra ------------------------------------------------------


def _abelian_hom_count(spec: RelatorSpec, orders: np.ndarray, p: int) -> int:
    """#Hom(G_{n,r} → A), n ≥ 1, for an abelian p-group A given by its element orders: the dual-group value.

    Commutators vanish in A, so only x₁^{p^r} = 1 constrains: |A|^{2n−1}·|A[p^r]|,
    which is |A|^{2n} at r = INF.  No character table is built.
    """
    size = len(orders)
    if spec.r == INF:
        return size ** (2 * spec.n)
    torsion = int((orders <= p ** min(spec.r, size.bit_length())).sum())  # every order is ≤ |A| < p^bitlen
    return size ** (2 * spec.n - 1) * torsion


def _commutative(G: FiniteGroup, elements: np.ndarray) -> bool:
    """Whether the elements commute pairwise, compared a block of rows at a time."""
    t, step = G.table, max(1, CHUNK_ENTRIES // len(elements))
    return all(
        (t[elements[lo : lo + step, None], elements] == t[elements, elements[lo : lo + step, None]]).all()
        for lo in range(0, len(elements), step)
    )


# a prime with ℓ > MAX_ORDER ≥ k and MAX_ORDER·(ℓ−1)² < 2⁶³: every k-term product of residues mod ℓ is exact in int64
_COUNT_PRIME = 8_388_593


def _solve_mod(rows: list, l: int) -> list | None:
    """x with Σ_j rows[i][j]·x_j ≡ rows[i][−1] (mod ℓ) for every i, by Gauss–Jordan elimination; None when singular."""
    rows, size = [list(row) for row in rows], len(rows)
    for i in range(size):
        pivot = next((r for r in range(i, size) if rows[r][i] % l), None)
        if pivot is None:
            return None
        rows[i], rows[pivot] = rows[pivot], rows[i]
        inv = pow(rows[i][i], -1, l)
        rows[i] = [x * inv % l for x in rows[i]]
        for r in range(size):
            if r != i and rows[r][i]:
                f = rows[r][i]
                rows[r] = [(x - f * y) % l for x, y in zip(rows[r], rows[i])]
    return [row[-1] for row in rows]


def _degree_bound(G: FiniteGroup, p: int) -> int:
    """J, the largest j with p^{2j} ≤ |Γ:Z(Γ)|: every character degree of a p-group is some p^j with j ≤ J."""
    index, j = G.order // G.conjugacy_classes().sizes.count(1), 0
    while p ** (2 * j + 2) <= index:
        j += 1
    return j


def _fixed_degrees(G: FiniteGroup, p: int, c: int) -> list[int]:
    """[f_0, …, f_J]: f_j is the number of characters of degree p^j that π_c fixes, read off the class algebra.

    ζ = Σ_{x,y} [x, y] = Σ_K (|Γ|/|K|)·C_K·C_{K⁻¹} is central and acts on the
    idempotent e_χ by λ_χ = (|Γ|/χ(1))² (Frobenius 1896), and Φ_c: C_K ↦
    C_{K^c} permutes the e_χ by π_c (Isaacs, *Character Theory of Finite
    Groups*, 6.32).  So with L the multiplication by ζ in the class basis,
    tr(Φ_c·L^m) = Σ_j f_j·λ_j^m with λ_j = (|Γ|/p^j)², and the equations
    m = 0..J (J = `_degree_bound`) are a Vandermonde system
    in the f_j, solved mod ℓ = `_COUNT_PRIME`.  Since 0 ≤ f_j ≤ k < ℓ, each
    f_j is its own residue.  A singular system, an equation m = J + 1 that
    disagrees, or an f_j past k is a ComputationError("invariant").

    Everything is read off the structure constants a, which are refused past
    `MAX_DENSE_ENTRIES`: L[m, j] = Σ_i z_i·a[i, j, m] for ζ = Σ_i z_i·C_i,
    and tr(Φ_c·L^m) = Σ_j (L^m)[j, c(j)] is the class-j coordinate of
    ζ^m·C_{c(j)}, so it is B·w_m for the coordinates w_m = L^m·1 of ζ^m and
    B[i] = Σ_j a[i, c(j), j]: one k³ contraction, then a matrix-vector
    product per power.  No character table is built.
    """
    l, top = _COUNT_PRIME, _degree_bound(G, p)
    conj = G.conjugacy_classes()
    k, a, ident = len(conj), G.structure_constants(), np.arange(len(conj))
    z = np.array(conj.centralizers, dtype=np.int64) @ a[ident, list(conj.inverse_class)] % l
    L = np.einsum("i,ijm->mj", z, a) % l
    B = a[:, G.class_powers(c), ident].sum(axis=1)
    w, traces = np.eye(1, k, conj.class_of[G.identity], dtype=np.int64)[0], []
    for m in range(top + 2):
        if m:
            w = L @ w % l
        traces.append(int(B @ w) % l)
    lam = [pow(G.order // p**j, 2, l) for j in range(top + 1)]
    f = _solve_mod([[pow(x, m, l) for x in lam] + [traces[m]] for m in range(top + 1)], l)
    if f is None:
        raise ComputationError("invariant", f"the degree system of an order-{G.order} group is singular mod {l}")
    if sum(x * pow(y, top + 1, l) for x, y in zip(f, lam)) % l != traces[top + 1]:
        raise ComputationError("invariant", f"the traces of an order-{G.order} group need a degree above {p}^{top}")
    if max(f) > k:
        raise ComputationError("invariant", f"{max(f)} fixed characters of one degree, but the group has {k} classes")
    return f


def _surface_hom_count(spec: RelatorSpec, G: FiniteGroup, h: np.ndarray | None = None) -> int:
    """#Hom(spec → H) for H = Γ, or for the subgroup of Γ on the elements h (in any order).

    A free spec gives |H|^k, n = 0 or a trivial H gives 1, and an abelian H
    is its own character group: its count is read from its element orders.
    Otherwise the count is |H| times the DW value of the closed genus-n
    surface with level-r handles on H's class algebra: the cap weighs e_χ by
    χ(1)²/|H|² and each handle by (|H|/χ(1))²·[π_c(χ) = χ], c = 1 − p^r, so
    it is |H|·tr(Φ_c·L^{n−1}) = |H|·Σ_j f_j·(|H|/p^j)^{2n−2}, summed in ℤ,
    with f_j the characters of degree p^j that π_c fixes.

    The f_j come from one record per (H, c), cached on Γ; c is reduced mod
    exp Γ, which exp H divides, so it is H's handle exponent too.  While only
    genus 1 has been asked for, the record is the number of classes K with
    K^c = K, which is Σ_j f_j (Brauer's permutation lemma) and is read off the
    class power map with no structure constants; a higher genus replaces it
    by the `_fixed_degrees` counts.  A proper H is relabelled as its own group
    only when its record is missing, and dropped once it is read, so a Hall
    walk over thousands of subgroups keeps none of their tables, and another
    genus at the same level relabels no H.  No route here builds a character
    table or uses a prime in its answer.
    """
    size = G.order if h is None else len(h)
    if spec.is_free:
        return size**spec.free_rank
    if size == 1 or spec.n == 0:
        return 1
    p, whole = group_prime(G), size == G.order
    if G.is_abelian() if whole else _commutative(G, h):
        return _abelian_hom_count(spec, G.element_orders() if whole else G.element_orders()[h], p)
    c = _torus_exponent(G, p, spec.r)
    members = None if whole else np.sort(h)
    key = ("hom-record", None if whole else members.tobytes(), c)
    f = G._cache.get(key)
    if f is None or (spec.n > 1 and len(f) == 1):  # a non-abelian H has a degree p^j > 1, so f_0 alone is a genus-1 record
        H = G if whole else G.subgroup_as_group(members)[0]
        if spec.n == 1:
            classes = H.class_powers(c)
            f = [int((classes == np.arange(len(classes))).sum())]
        else:
            f = _fixed_degrees(H, p, c)
        G._cache[key] = f
    return size * sum(x * (size // p**j) ** (2 * spec.n - 2) for j, x in enumerate(f))


def hom_count(spec: RelatorSpec, G) -> int:
    """Number of continuous homomorphisms from the presented group into Γ."""
    if not isinstance(spec, RelatorSpec):
        raise ValidationError("bad-spec", f"expected a RelatorSpec, got {type(spec).__name__}")
    return _surface_hom_count(spec, group_from_spec(G))


# -- Möbius inversion over the Frattini quotient ---------------------------------------

MAX_FRATTINI_SUBSPACES = 100_000  # subgroups H ⊇ Φ(Γ) a Möbius sum may visit


@lru_cache(maxsize=32)
def _subspaces(p: int, d: int) -> tuple:
    """Every subspace U of 𝔽_p^d once, as (codimension, codes Σ_i v_i·p^i of its vectors), 𝔽_p^d first.

    Each U is generated from its reduced row echelon basis: pivots at chosen
    columns, the entries right of a pivot outside the pivot columns free.
    Cached per (p, d), each code array read-only.
    """
    weights, out = p ** np.arange(d), []
    for m in range(d, -1, -1):
        span = np.array(list(product(range(p), repeat=m)), dtype=np.int64).reshape(p**m, m)
        for pivots in combinations(range(d), m):
            free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, d) if j not in pivots]
            rows, cols = np.array(free, dtype=np.int64).reshape(-1, 2).T
            basis = np.zeros((m, d), dtype=np.int64)
            basis[range(m), pivots] = 1
            for values in product(range(p), repeat=len(free)):
                basis[rows, cols] = values
                codes = span @ basis % p @ weights
                codes.flags.writeable = False
                out.append((d - m, codes))
    return tuple(out)


def _frattini_subgroups(G: FiniteGroup):
    """(elements of H, μ(H)) for every subgroup H ⊇ Φ(Γ) of a p-group Γ, Γ first.

    By P. Hall (Q. J. Math. 7, 1936) these are the only H with μ(H) ≠ 0, and
    μ(H) = (−1)^k·p^{k(k−1)/2} for |Γ:H| = p^k: the Möbius function of the
    subspace lattice of Γ/Φ(Γ).  Their number is checked against
    `MAX_FRATTINI_SUBSPACES` before any is enumerated.
    """
    if G.order == 1:
        yield np.array([G.identity]), 1
        return
    p = group_prime(G)
    cosets = _frattini_cosets(G, p)
    d = factorize(len(cosets)).get(p, 0)
    total = sum(_gaussian_binomial(d, m, p) for m in range(d + 1))
    if total > MAX_FRATTINI_SUBSPACES:
        raise ValidationError(
            "bound-exceeded",
            f"Γ/Φ(Γ) ≅ 𝔽_{p}^{d} has {total:,} subspaces, above MAX_FRATTINI_SUBSPACES = {MAX_FRATTINI_SUBSPACES:,}",
        )
    for k, codes in _subspaces(p, d):
        yield cosets[codes].ravel(), (-1) ** k * p ** (k * (k - 1) // 2)


def hall_mobius(G) -> dict:
    """{H: μ(H)} over the subgroups H ⊇ Φ(Γ) of a p-group, μ(Γ) = 1: every H with μ(H) ≠ 0.

    Subgroups that do not contain Φ(Γ), such as the trivial subgroup of C₉,
    have μ = 0 and are not listed.
    """
    G = group_from_spec(G)
    return {frozenset(h.tolist()): mu for h, mu in _frattini_subgroups(G)}


def _abelian_epi_count(spec: RelatorSpec, G: FiniteGroup, p: int) -> int:
    """#Epi(spec → A) for an abelian p-group A, in closed form from its invariants.

    With k letters and q = p^r, #Hom(spec → H) = |H|^{k−1}·|H ∩ A[q]| (A[q] = A
    for a free spec and at r = ∞), so Hall's sum regroups over the x ∈ A[q]:
    an x ∈ Φ lies in every H ⊇ Φ, and an x ∉ Φ in [d−1, m−1]_p of the H with
    |H : Φ| = p^m.  Hence #Epi = |A[q] ∩ Φ|·S₀ + |A[q] ∖ Φ|·S₁ with
    S₀ = Σ_m μ_m·[d, m]_p·(|Φ|p^m)^{k−1}, S₁ = Σ_{m≥1} μ_m·[d−1, m−1]_p·(|Φ|p^m)^{k−1}
    and μ_m = (−1)^{d−m}·p^{C(d−m, 2)}.  For A ≅ ⊕ ℤ/p^{e_i}, Φ = pA ≅ ⊕ ℤ/p^{e_i−1}.
    """
    e, k = abelian_invariants(G, p), spec.letters()
    d = len(e)
    if k == 0:  # one homomorphism onto every H: Σ μ(H) vanishes unless Γ = Φ = 1
        return int(d == 0)
    phi = p ** (sum(e) - d)
    if spec.is_free or spec.r == INF:
        torsion, torsion_phi = G.order, phi
    else:
        torsion, torsion_phi = p ** sum(min(x, spec.r) for x in e), p ** sum(min(x - 1, spec.r) for x in e)
    weight = [(-1) ** (d - m) * p ** ((d - m) * (d - m - 1) // 2) * (phi * p**m) ** (k - 1) for m in range(d + 1)]
    s0 = sum(weight[m] * _gaussian_binomial(d, m, p) for m in range(d + 1))
    s1 = sum(weight[m] * _gaussian_binomial(d - 1, m - 1, p) for m in range(1, d + 1))
    return torsion_phi * s0 + (torsion - torsion_phi) * s1


def epi_count(spec: RelatorSpec, G) -> int:
    """Number of SURJECTIVE homomorphisms onto Γ: Σ_{H ⊇ Φ(Γ)} μ(H)·#Hom(spec → H).

    An abelian Γ takes the closed form of `_abelian_epi_count`, with no walk.
    Otherwise no epimorphism exists when Γ needs more generators than the
    spec has letters: d(Γ) = dim Γ/Φ(Γ), and an epimorphism maps the
    Frattini quotient (𝔽_p^{2n} for G_{n,r}, 𝔽_p^k for FREE(k)) onto
    Γ/Φ(Γ) ≅ 𝔽_p^d.  Then the walk runs, and `_surface_hom_count` counts
    every term, Γ's own included.
    """
    if not isinstance(spec, RelatorSpec):
        raise ValidationError("bad-spec", f"expected a RelatorSpec, got {type(spec).__name__}")
    G = group_from_spec(G)
    if G.order == 1:
        return 1
    p = group_prime(G)
    if G.is_abelian():
        return _abelian_epi_count(spec, G, p)
    if len(_frattini_cosets(G, p)) > p ** spec.letters():  # p^d cosets of Φ(Γ): d > letters
        return 0
    return sum(mu * _surface_hom_count(spec, G, h) for h, mu in _frattini_subgroups(G))


def extension_count(spec: RelatorSpec, G) -> Fraction:
    """Epimorphisms counted up to target automorphisms: epi_count/|Aut Γ|."""
    G = group_from_spec(G)
    return _extensions(G, epi_count(spec, G))


def _extensions(G: FiniteGroup, epis: int) -> Fraction:
    if epis < 0:
        raise ComputationError("invariant", f"negative epimorphism count {epis}")
    if epis == 0:  # no epimorphism, no extension: |Aut Γ| is not needed
        return Fraction(0)
    return Fraction(epis, G.automorphism_count())


def yamagishi_count(N: int, r, G) -> int:
    """Solution count for the degree-N norm tower: hom_count of the (N/2+1, r) surface spec."""
    if not isinstance(N, int) or isinstance(N, bool) or N <= 0:
        raise ValidationError("bad-spec", f"degree must be a positive integer, got {N!r}")
    if N % 2:
        raise ValidationError("odd-degree", f"degree {N} is odd; the count needs an even degree")
    return hom_count(RelatorSpec(N // 2 + 1, r), G)


def general_gauge_count(H, p: int, spec: RelatorSpec) -> tuple[int, Fraction]:
    """Pairs (count, count/|H|) where count sums epi_count(spec, P) over all p-subgroups P ≤ H.

    When the Sylow p-subgroups intersect pairwise trivially the sum collapses
    to s·(hom_count(spec, Sylow) − 1) + 1; both routes are computed and must
    agree before the value is returned.
    """
    H = group_from_spec(H)
    if not is_prime(p):
        raise ValidationError("bad-spec", f"{p} is not prime")
    total = 0
    for sub in H.all_subgroups():
        if is_power_of(len(sub), p):
            total += epi_count(spec, H.subgroup_as_group(sub)[0]) if len(sub) > 1 else 1
    sylows = H.sylow_p_subgroups(p)
    if all(
        len(a & b) == 1 for i, a in enumerate(sylows) for b in sylows[:i]
    ):
        inside = hom_count(spec, H.subgroup_as_group(sylows[0])[0]) if len(sylows[0]) > 1 else 1
        fast = len(sylows) * (inside - 1) + 1
        if fast != total:
            raise ComputationError(
                "invariant",
                f"Sylow shortcut {fast} disagrees with the subgroup sum {total} for |H|={H.order}",
            )
    return total, Fraction(total, H.order)


def counting_summary(spec: RelatorSpec, G) -> dict:
    """The batch-facing JSON bundle: hom count, epi count, extensions, primes used.

    `extensions` is ready for JSON: an int, or an "a/b" string when the count
    is not an integer.  When |Aut Γ| is refused at a limit, the counts already
    made are kept: `extensions` is None and `extensions_refused` holds the error
    code and message.  `primes_used` is [] for every count: none reads a
    character table or reduces its answer mod a prime.
    """
    G = group_from_spec(G)
    hom = _surface_hom_count(spec, G)
    epis = epi_count(spec, G)
    out = {"hom_count": hom, "epi_count": epis, "extensions": None, "primes_used": []}
    try:
        q = _extensions(G, epis)
        out["extensions"] = q.numerator if q.denominator == 1 else str(q)
    except ValidationError as e:
        if e.code != "bound-exceeded":
            raise
        out["extensions_refused"] = {"error": e.code, "message": e.message}
    return out
