"""The universal 𝕌_p-extended Frobenius algebra and generic diagram evaluation.

The universal algebra is free of rank 2 over the scalar ring ℤ[h, t] extended
by nilpotent level symbols [r] — one per finite orientability level r — subject
to

    2·[r] = 0,      [r]·[r'] = h·([r] + [r'] - [min(r, r')]),      [inf] = 0.

Mod 2 the second relation reads [r]·[r'] = h·[max(r, r')], so the scalars are
ℤ[h, t] graded by the max-semilattice of levels, with level 0 (where [0] = 1)
the free part over ℤ and every level r ≥ 1 over 𝔽₂.  A `UniversalScalar` is
one sorted map of terms ((r, i, j), c) for Σ c·h^i·t^j·[r], and the product of
two terms is one term.  The algebra itself has basis (1, x) with

    x² = t + h·x,        Δ(1) = 1⊗x + x⊗1 - h·1⊗1,      Δ(x) = t·1⊗1 + x⊗x,
    ε(1) = 0, ε(x) = 1,  φ_α(x) = [level(α)] + x.

Every identity that holds here holds in any specialization, which is what makes
this the universal target for symbolic evaluation of cobordism diagrams.

`evaluate_diagram` and `check_axioms` are generic: they drive any algebra
object exposing `dim`, `max_dim`, `basis_names`, `token_matrix`,
`token_terms`, `p`, `default_levels` and `precheck` (see dw.DWAlgebra for the
finite-group specialization); `ModMatrix` token matrices mark scalars in 𝔽_ℓ.
The axiom checks, and every evaluation in an algebra without a `splitting`,
go through one contraction, `_contract`, in which every generator acts on its
own strands of a single state, and an input strand joins the state only when
a token first reads it (a strand no token reads is the identity, put in once
at the end).  The state is integer arithmetic throughout: one array per
monomial h^i·t^j·[r] that occurs, and each token written once per algebra as
a few (monomial, int64 matrix) pairs (`TokenTerms`); a DW token is the one
monomial 1.  `swap` is the symmetric structure, the same in every algebra:
it exchanges two strand axes of the state, or only relabels strands outside
it, and needs no token matrix to evaluate.

A DW algebra over a split prime carries a `splitting` (dw.Splitting): the
algebra in its basis of character idempotents, a product of one-dimensional
summands, where every generator is monomial and its data comes from the
character table.  `ensure_prechecked` checks it on those forms, with no
contraction, and `evaluate_diagram` hands it the whole diagram, which it
evaluates in one walk over the tokens: a closed surface is a k-term sum and
an open piece one rank-k product, tensored with the other pieces by
`_assemble`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .cobordism import TORUS, Diagram, Token, identity_diagram
from .errors import INT_EXACT, ComputationError, ValidationError, check_dense
from .units import INF, PadicUnit, format_unit, level, one, sample_units

DEFAULT_MAX_LEVEL = 6
AXIOMS = ("F1", "F2", "F3", "F4", "F5", "FS", "F6", "F7", "F8", "F9", "F10", "F11", "F12")
STRUCTURAL_AXIOMS = AXIOMS[:6]  # need no units; every algebra checks them once before it evaluates
_UNIT_LAWS = frozenset(("F6", "F7", "F8", "F9", "F10", "F12"))  # the laws that quantify over sampled units
_LAW_LEGS = dict(zip(AXIOMS, (2, 2, 4, 4, 4, 3, 1, 1, 3, 3, 2, 1, 2)))  # inputs plus outputs of each law's sides

# -- scalars -------------------------------------------------------------------------


def _fmt_monomial(i, j):
    parts = []
    if i:
        parts.append("h" if i == 1 else f"h^{i}")
    if j:
        parts.append("t" if j == 1 else f"t^{j}")
    return "".join(parts)


def _fmt_poly(terms):
    """Σ c·h^i·t^j from ((i, j), c) pairs, highest total degree first."""
    if not terms:
        return "0"
    chunks = []
    for (i, j), c in sorted(terms, key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
        mono = _fmt_monomial(i, j)
        if not mono:
            text = str(abs(c))
        elif abs(c) == 1:
            text = mono
        else:
            text = f"{abs(c)}{mono}"
        chunks.append(("- " if c < 0 else "+ ") + text)
    first = chunks[0][2:] if chunks[0].startswith("+ ") else "-" + chunks[0][2:]
    return " ".join([first] + chunks[1:])


def _scalar(acc: dict) -> "UniversalScalar":
    """The scalar of a {(r, i, j): c} accumulator: level-r ≥ 1 coefficients taken mod 2, zeros dropped."""
    terms = ((key, c % 2 if key[0] else c) for key, c in acc.items())
    return UniversalScalar(tuple(sorted(term for term in terms if term[1])))


@dataclass(frozen=True)
class UniversalScalar:
    """Σ c·h^i·t^j·[r] as sorted terms ((r, i, j), c); level 0 is the free part over ℤ.

    A term of level r ≥ 1 has c = 1, its coefficients living in 𝔽₂.  An int
    operand of + or * is taken as c·[0]; anything else is a `bad-spec` error.
    """

    terms: tuple = ()

    @staticmethod
    def from_int(c: int) -> "UniversalScalar":
        return UniversalScalar((((0, 0, 0), c),) if c else ())

    @staticmethod
    def monomial(i: int, j: int, c: int = 1) -> "UniversalScalar":
        return UniversalScalar((((0, i, j), c),) if c else ())

    def __add__(self, other):
        other = as_scalar(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for key, c in other.terms:
            acc[key] = acc.get(key, 0) + c
        return _scalar(acc)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + as_scalar(other) * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __mul__(self, other):
        if isinstance(other, int):  # scaled term by term, so the terms stay sorted
            if not other:
                return UniversalScalar()
            odd = other % 2
            return UniversalScalar(tuple((key, c if key[0] else c * other) for key, c in self.terms if odd or not key[0]))
        other = as_scalar(other)
        if not (self.terms and other.terms):
            return UniversalScalar()
        acc = {}
        for (r1, i1, j1), c1 in self.terms:
            for (r2, i2, j2), c2 in other.terms:
                key = (max(r1, r2), i1 + i2 + 1, j1 + j2) if r1 and r2 else (r1 or r2, i1 + i2, j1 + j2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return _scalar(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValidationError("bad-spec", "scalar powers take a nonnegative integer")
        out = UniversalScalar.from_int(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniversalScalar.from_int(other)
        if not isinstance(other, UniversalScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and self.terms[0][0] == (0, 0, 0):
            return hash(self.terms[0][1])
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def _levels(self):
        """[((i, j), c), …] of the free part, then (r, [((i, j), c), …]) per bracket level."""
        free = [((i, j), c) for (r, i, j), c in self.terms if not r]
        levels = [
            (r, [((i, j), c) for (_, i, j), c in group])
            for r, group in groupby(self.terms[len(free):], key=lambda kv: kv[0][0])
        ]
        return free, levels

    def __str__(self):
        free, levels = self._levels()
        pieces = []
        if free or not levels:
            pieces.append(_fmt_poly(free))
        for r, poly in levels:
            if len(poly) == 1:
                pieces.append(f"{_fmt_monomial(*poly[0][0])}[{r}]")
            else:
                pieces.append(f"({_fmt_poly(poly)})[{r}]")
        return " + ".join(pieces)

    def to_json(self):
        free, levels = self._levels()
        return {
            "free": [[i, j, c] for (i, j), c in free],
            "brackets": [[r, [[i, j, c] for (i, j), c in poly]] for r, poly in levels],
        }


def as_scalar(v) -> UniversalScalar:
    if isinstance(v, UniversalScalar):
        return v
    if isinstance(v, int):
        return UniversalScalar.from_int(v)
    raise ValidationError("bad-spec", f"not a universal scalar: {v!r}")


H = UniversalScalar.monomial(1, 0)
T = UniversalScalar.monomial(0, 1)


def bracket(r, max_level: int = DEFAULT_MAX_LEVEL) -> UniversalScalar:
    """The level symbol [r]; [inf] = 0.  Finite levels live in the window 1..max_level."""
    if r == INF:
        return UniversalScalar()
    if not (isinstance(r, int) and 1 <= r <= max_level):
        raise ValidationError(
            "level-window", f"bracket level {r!r} outside the window 1..{max_level}, inf"
        )
    return UniversalScalar((((r, 0, 0), 1),))


# -- elements ------------------------------------------------------------------------


@dataclass(frozen=True)
class UniversalElem:
    """a + b·x in the rank-2 universal algebra."""

    a: UniversalScalar = UniversalScalar()
    b: UniversalScalar = UniversalScalar()

    def __post_init__(self):
        object.__setattr__(self, "a", as_scalar(self.a))
        object.__setattr__(self, "b", as_scalar(self.b))

    def __add__(self, other):
        return UniversalElem(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return UniversalElem(self.a - other.a, self.b - other.b)

    def scale(self, s):
        s = as_scalar(s)
        return UniversalElem(s * self.a, s * self.b)

    def __str__(self):
        return f"({self.a}) + ({self.b})x"

    def to_json(self):
        return {"a": self.a.to_json(), "b": self.b.to_json()}


ONE = UniversalElem(1, 0)
X = UniversalElem(0, 1)


def universal_mul(v: UniversalElem, w: UniversalElem) -> UniversalElem:
    """(a₁ + b₁x)(a₂ + b₂x) with x² = t + h·x."""
    return UniversalElem(
        v.a * w.a + T * (v.b * w.b),
        v.a * w.b + v.b * w.a + H * (v.b * w.b),
    )


def universal_delta(v: UniversalElem) -> list:
    """Δ(v) as a list of simple-tensor pairs: Δ(a + bx) = (a + bx)⊗x + ((tb - ha) + ax)⊗1."""
    return [
        (UniversalElem(v.a, v.b), X),
        (UniversalElem(T * v.b - H * v.a, v.a), ONE),
    ]


def universal_eps(v: UniversalElem) -> UniversalScalar:
    """ε(a + bx) = b."""
    return v.b


def universal_iota(s) -> UniversalElem:
    """ι(s) = s·1."""
    return UniversalElem(as_scalar(s), UniversalScalar())


def _phi_level(r, v: UniversalElem, max_level: int = DEFAULT_MAX_LEVEL) -> UniversalElem:
    return UniversalElem(v.a + bracket(r, max_level) * v.b, v.b)


def universal_phi(u: PadicUnit, v: UniversalElem) -> UniversalElem:
    """φ_u(a + bx) = (a + [level(u)]·b) + b·x — the action only sees the level."""
    if not isinstance(u, PadicUnit):
        raise ValidationError("not-a-unit", f"φ takes a PadicUnit, got {type(u).__name__}")
    return _phi_level(level(u), v)


# -- result matrices -----------------------------------------------------------------


@dataclass(frozen=True)
class GenericMatrix:
    """A dense matrix over any ring whose elements support +, *, and ==."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValidationError("bad-spec", "ragged matrix rows")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    @staticmethod
    def identity(n: int) -> "GenericMatrix":
        return GenericMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def residue_dtype(l: int) -> np.dtype:
    """The dtype of residues mod ℓ: the narrowest of uint8, uint16 and uint32 that holds ℓ − 1, else int64."""
    return np.dtype(np.uint8 if l <= 2**8 else np.uint16 if l <= 2**16 else np.uint32 if l <= 2**32 else np.int64)


class ModMatrix:
    """Dense matrix over 𝔽_ℓ; entries reduced into [0, ℓ), stored in `residue_dtype(ℓ)`.

    A read-only result container: the products behind it happen in `_contract`
    or in the idempotent walk.  A narrow array is no arithmetic operand
    (uint8 products wrap), so whatever computes with `a` upcasts it first.
    """

    __slots__ = ("a", "l", "_rows")

    def __init__(self, a, l: int):
        self.a = (np.asarray(a, dtype=np.int64) % l).astype(residue_dtype(l), copy=False)
        self.l = l
        self._rows = None
        if self.a.ndim != 2:
            raise ValidationError("bad-spec", f"matrix must be 2-dimensional, got shape {self.a.shape}")

    @classmethod
    def reduced(cls, a: np.ndarray, l: int) -> "ModMatrix":
        """Wrap a 2-dimensional integer array whose entries already lie in [0, ℓ); no pass when its dtype is ℓ's."""
        dtype = residue_dtype(l)
        M = cls.__new__(cls)
        M.a, M.l, M._rows = a if a.dtype == dtype else a.astype(dtype), l, None
        return M

    @property
    def shape(self):
        return tuple(self.a.shape)

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(tuple(row.tolist()) for row in self.a)  # one row's list alive at a time
        return self._rows

    def __eq__(self, other):
        return (
            isinstance(other, ModMatrix)
            and other.l == self.l
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.l, self.shape, self.rows))

    def __repr__(self):
        return f"ModMatrix({self.a.tolist()}, l={self.l})"


# -- the universal algebra as an evaluation target -----------------------------------


class UniversalAlgebra:
    """Matrix model of the universal algebra: basis (1, x), columns act on inputs."""

    name = "universal"
    dim = 2
    max_dim = 64
    basis_names = ("1", "x")
    precheck = STRUCTURAL_AXIOMS

    def __init__(self, max_level: int = DEFAULT_MAX_LEVEL, overrides=None):
        self.max_level = max_level
        self._overrides = dict(overrides or {})
        self._matrices = {}
        self._terms = {}
        self._kappa = {}
        self._precheck_ok = False

    p = 3  # canonical odd prime for default unit sampling; φ only sees levels

    def _columns(self, images, out_dim):
        def coords(v: UniversalElem):
            return (v.a, v.b)

        cols = [coords(v) for v in images]
        return GenericMatrix(tuple(tuple(col[i] for col in cols) for i in range(out_dim)))

    def kappa(self, r) -> UniversalElem:
        """The handle element κ_r = m∘(φ_α⊗id)∘Δ∘ι(1) for any α of level r (cached)."""
        if r not in self._kappa:
            total = UniversalElem()
            for u, w in universal_delta(ONE):
                total = total + universal_mul(_phi_level(r, u, self.max_level), w)
            self._kappa[r] = total
        return self._kappa[r]

    def token_matrix(self, tok: Token) -> GenericMatrix:
        if tok.kind in self._overrides:
            return self._overrides[tok.kind]
        if tok in self._matrices:
            return self._matrices[tok]
        basis = [ONE, X]
        if tok.kind == "m":
            mat = self._columns([universal_mul(u, w) for u in basis for w in basis], 2)
        elif tok.kind == "d":
            rows = []
            for v in basis:
                flat = [UniversalScalar()] * 4
                for u, w in universal_delta(v):
                    for i, ui in enumerate((u.a, u.b)):
                        for j, wj in enumerate((w.a, w.b)):
                            flat[2 * i + j] = flat[2 * i + j] + ui * wj
                rows.append(flat)
            mat = GenericMatrix(tuple(zip(*rows)))
        elif tok.kind == "cup":
            mat = GenericMatrix(((universal_eps(ONE), universal_eps(X)),))
        elif tok.kind == "cap":
            v = universal_iota(1)
            mat = GenericMatrix(((v.a,), (v.b,)))
        elif tok.kind == "id":
            mat = GenericMatrix.identity(2)
        elif tok.kind == "swap":
            mat = GenericMatrix(
                tuple(
                    tuple(int(2 * i + j == (2 * l + k)) for k in range(2) for l in range(2))
                    for i in range(2)
                    for j in range(2)
                )
            )
        elif tok.kind == "tw":
            mat = self._columns([universal_phi(tok.unit, v) for v in basis], 2)
        elif tok.kind == "tor":
            if tok.level != INF and not (isinstance(tok.level, int) and tok.level <= self.max_level):
                raise ValidationError(
                    "level-window",
                    f"handle level {tok.level!r} outside the window 1..{self.max_level}, inf",
                )
            k = self.kappa(tok.level)
            mat = self._columns([universal_mul(k, v) for v in basis], 2)
        else:
            raise ValidationError("bad-spec", f"unknown token kind {tok.kind!r}")
        self._matrices[tok] = mat
        return mat

    def token_terms(self, tok: Token) -> "TokenTerms":
        if tok not in self._terms:
            self._terms[tok] = TokenTerms.of(self.token_matrix(tok))
        return self._terms[tok]

    def default_levels(self):
        return (1, 2, INF)


# -- axioms --------------------------------------------------------------------------


def default_unit_samples(p: int, levels) -> list:
    """Three sampled p-adic units per finite level, and 1 for the infinite level."""
    finite = [r for r in levels if r != INF]
    prec = (max(finite) if finite else 1) + 2
    out = []
    for r in levels:
        out.extend(sample_units(p, prec, r, count=3) if r != INF else [one(p, prec)])
    return out


def _first_diff(m1, m2, names, width):
    """Label of a failing input column, scanning generic (high-degree) inputs first."""
    cols = np.flatnonzero((m1 != m2).any(axis=0))
    if not len(cols):
        return None
    return "⊗".join(names[i] for i in np.unravel_index(cols[-1], (len(names),) * width))


def applicable_axioms(p: int):
    """The laws `check_axioms` can test at prime p, and {law: reason} for the others.

    Units are sampled for odd p only, so at p = 2 the laws that read a unit
    are left out and named with the reason.
    """
    if p != 2:
        return AXIOMS, {}
    reason = "quantifies over principal units of ℤ_p, which are sampled for odd p only"
    return tuple(a for a in AXIOMS if a not in _UNIT_LAWS), {a: reason for a in AXIOMS if a in _UNIT_LAWS}


def check_axioms(A, levels=None, sample_units=None, axioms=None):
    """Verify the extended-Frobenius axioms on the algebra A.

    Returns {axiom_id: (ok, witness)} where a witness names the first input
    basis vector (and unit or level data, where relevant) that breaks the law.
    Structural axioms F1–F5/FS need no units; F6–F12 quantify over the sampled
    units, grouped by level, and over the handle operators at the given levels.
    Each law compares two diagrams, contracted like any other; a law whose
    matrix would pass `MAX_DENSE_ENTRIES` is refused before any law runs.
    """
    if levels is None:
        levels = A.default_levels()
    levels = tuple(levels)
    if INF not in levels:
        levels = levels + (INF,)
    wanted = AXIOMS if axioms is None else tuple(axioms)
    unknown = set(wanted) - set(AXIOMS)
    if unknown:
        raise ValidationError("bad-spec", f"unknown axioms {sorted(unknown)}; known: {', '.join(AXIOMS)}")
    if sample_units is None:  # only F6–F10 and F12 read units, and a 2-group's ring has none to sample
        sample_units = default_unit_samples(A.p, levels) if not _UNIT_LAWS.isdisjoint(wanted) else []
    by_level = {}
    for u in sample_units:
        by_level.setdefault(level(u), []).append(u)
    if wanted:  # the widest law's matrix is refused before any law runs
        widest = max(wanted, key=_LAW_LEGS.get)
        check_dense(f"the contracted matrix of {widest}", A.dim ** _LAW_LEGS[widest])

    m, d, cup, cap, swap, I = (Token(kind) for kind in ("m", "d", "cup", "cap", "swap", "id"))
    tw = lambda u: Token("tw", unit=u)
    D = lambda *slices: Diagram(slices)
    wire = identity_diagram(1)
    l = _modulus(A)

    def eq(lhs, rhs, extra=""):
        # _contract, not evaluate_diagram: no precheck recursion and no width guard
        w = _first_diff(_contract(lhs, A, l), _contract(rhs, A, l), A.basis_names, lhs.in_arity)
        return None if w is None else (w + extra if w else extra.lstrip(", "))

    def structural(name):
        if name == "F1":
            return eq(D((cap, I), (m,)), wire) or eq(D((I, cap), (m,)), wire)
        if name == "F2":
            return eq(D((d,), (cup, I)), wire) or eq(D((d,), (I, cup)), wire)
        if name == "F3":
            return eq(D((m, I), (m,)), D((I, m), (m,)))
        if name == "F4":
            return eq(D((d,), (d, I)), D((d,), (I, d)))
        if name == "F5":
            mid = D((m,), (d,))
            return eq(D((d, I), (I, m)), mid) or eq(D((I, d), (m, I)), mid)
        if name == "FS":
            return eq(D((swap,), (m,)), D((m,))) or eq(D((d,), (swap,)), D((d,)))
        return None

    report = {}
    for name in wanted:
        witness = None
        if name in STRUCTURAL_AXIOMS:
            witness = structural(name)
        elif name == "F6":
            for u in sample_units:
                witness = witness or eq(D((cap,), (tw(u),)), D((cap,)), f", α={format_unit(u)}")
        elif name == "F7":
            for u in sample_units:
                witness = witness or eq(D((tw(u),), (cup,)), D((cup,)), f", α={format_unit(u)}")
        elif name == "F8":
            for u in sample_units:
                witness = witness or eq(D((tw(u),), (d,)), D((d,), (tw(u), tw(u))), f", α={format_unit(u)}")
        elif name == "F9":
            for u in sample_units:
                witness = witness or eq(D((m,), (tw(u),)), D((tw(u), tw(u)), (m,)), f", α={format_unit(u)}")
        elif name == "F10":
            for r in levels:
                for u in by_level.get(r, []):
                    witness = witness or eq(
                        D((d,), (tw(u), I), (m,)), D((TORUS(r),)), f", α={format_unit(u)} at level {r}"
                    )
        elif name == "F11":
            for r in levels:
                for s in levels:
                    witness = witness or eq(
                        D((cap,), (TORUS(s),), (TORUS(r),)),
                        D((cap,), (TORUS(min(r, s)),), (TORUS(INF),)),
                        f", levels ({r}, {s})",
                    )
        elif name == "F12":
            for r in [x for x in levels if x != INF]:
                for s in [x for x in levels if x == INF or x >= r]:
                    for u in by_level.get(s, []):
                        witness = witness or eq(
                            D((TORUS(r),), (tw(u),)), D((TORUS(r),)), f", α={format_unit(u)} on level {r}"
                        )
        report[name] = (witness is None, witness)
    return report


def ensure_prechecked(A):
    """Check the algebra's `precheck` laws once; abort evaluation with `axiom-failure` naming the first that fails.

    An algebra with a `splitting` (dw.Splitting) is checked on its forms in
    the character idempotent basis, in O(k): there the laws hold identically
    but for F2, which is λ·μ ≡ 1, and each twist is checked as its
    permutation is built.  Every other algebra contracts the laws' two sides
    in its own basis (`check_axioms`).
    """
    if getattr(A, "_precheck_ok", False):
        return
    splitting = getattr(A, "splitting", None)
    if splitting is not None:
        splitting.precheck()
    else:
        report = check_axioms(A, axioms=A.precheck)
        for name in A.precheck:
            ok, witness = report[name]
            if not ok:
                raise ValidationError("axiom-failure", f"{name} fails on {A.name}: witness {witness}")
    A._precheck_ok = True


# -- evaluation ----------------------------------------------------------------------

_FLOAT_EXACT = 2**53  # float64 holds every integer below this exactly
_STATE_ENTRIES = 2**22  # input columns are contracted in blocks of at most this many entries
_MOD_BLOCK = 2**14  # entries reduced mod ℓ at a time
_SMALL = 2**12  # work below which one plain numpy call (a remainder, an int64 product) beats the blocked or BLAS form
_LEVEL = 1 << 42  # a monomial h^i·t^j·[r] is packed as r·2⁴² + i·2²¹ + j
_DEGREE = 1 << 21
_ZERO = UniversalScalar()


def _frozen(a):
    a.flags.writeable = False
    return a


_UNIT = _frozen(np.zeros(1, dtype=np.int64))  # the monomial codes of a state that starts at 1
_EMPTY = {dtype: _frozen(np.ones((1, 1, 1), dtype=dtype)) for dtype in (np.int64, np.float64, object)}  # the state 1


class TokenTerms(NamedTuple):
    """A token's matrix as Σ_μ T_μ·μ over monomials μ = h^i·t^j·[r], for `_contract`.

    `codes` are the packed μ in increasing order.  `mats` holds the int64
    matrix of the monomial 1 when `unit`, else the T_μ stacked as (n, 1, 1, b, a)
    for one batched product, then the same transposed; `grow` bounds the factor
    by which one application can raise a state entry, per orientation.  A
    state monomial ν goes to the one monomial μ·ν: level max(r_μ, r_ν), one
    more h when both levels are ≥ 1.  `col`, `level`, `low` and `bump` are the
    columns of codes that product reads.
    """

    codes: np.ndarray
    mats: tuple
    grow: tuple
    unit: bool  # the single monomial 1: states keep their monomials
    col: np.ndarray
    level: np.ndarray | None  # None when every μ has level 0
    low: np.ndarray
    bump: np.ndarray

    @staticmethod
    def of(M) -> "TokenTerms":
        """The terms of a `ModMatrix` (the one monomial 1) or of a matrix of universal scalars."""
        if isinstance(M, ModMatrix):  # upcast: the bounds below would promote a narrow sum to float64
            codes, stack = _UNIT, M.a.astype(np.int64)[None]
        else:
            parts = {}
            for row, entries in enumerate(M.rows):
                for col, v in enumerate(entries):
                    for (r, i, j), c in as_scalar(v).terms:
                        code = r * _LEVEL + i * _DEGREE + j
                        parts.setdefault(code, np.zeros(M.shape, dtype=np.int64))[row, col] = c
            codes = np.array(sorted(parts) or [0], dtype=np.int64)
            stack = np.stack([parts.get(code, np.zeros(M.shape, dtype=np.int64)) for code in codes.tolist()])
        # for one μ of level r, at most 1 + r state monomials ν give the same μ·ν
        mags, weight = np.abs(stack), 1 + codes // _LEVEL
        grow = tuple(int((mags.sum(axis=axis).max(axis=1, initial=0) * weight).sum()) for axis in (2, 1))
        col = codes[:, None]
        low = col % _LEVEL
        level = col - low if (codes >= _LEVEL).any() else None
        unit = bool(len(codes) == 1 and not codes[0])
        mats = (stack[0], stack[0].T) if unit else (stack[:, None, None], stack.transpose(0, 2, 1)[:, None, None])
        return TokenTerms(codes, mats, grow, unit, col, level, low, (col >= _LEVEL) * _DEGREE)


def _merge(terms: TokenTerms, codes, out):
    """Fold out[μ, ν] = T_μ·S_ν onto the monomials μ·ν: summed, level ≥ 1 taken mod 2, zeros dropped.

    A state that cancels to zero keeps one zero component, so no state is empty.
    """
    if terms.level is None:  # μ·ν adds the packed codes
        keys = codes + terms.col
    else:
        low = codes % _LEVEL
        keys = np.maximum(codes - low, terms.level)
        keys += low + terms.low
        keys += (codes >= _LEVEL) * terms.bump
    keys = keys.ravel()
    order = keys.argsort(kind="stable")
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = new.nonzero()[0]
    S = np.add.reduceat(out.reshape(len(keys), -1)[order], first, axis=0)
    codes = keys[first]
    free = codes.searchsorted(_LEVEL)
    if free < len(codes):
        S[free:] %= 2
    keep = S.any(axis=1)
    kept = np.count_nonzero(keep)
    if kept < len(codes):
        keep[0] |= not kept
        S, codes = S[keep], codes[keep]
    return S, codes


def _scalars(codes, S):
    """The matrix of `UniversalScalar`s of a state S[monomial, row, column] with sorted monomial codes."""
    keys = [(code // _LEVEL, code % _LEVEL // _DEGREE, code % _DEGREE) for code in codes.tolist()]
    flat = S.reshape(len(codes), -1)
    mono, entry = flat.nonzero()  # monomial-major, so each entry meets its terms in sorted order
    terms = {}
    for m, e, v in zip(mono.tolist(), entry.tolist(), flat[mono, entry].tolist()):
        terms.setdefault(e, []).append((keys[m], v))
    out = np.full(flat.shape[1], _ZERO, dtype=object)
    for e, entry_terms in terms.items():
        out[e] = UniversalScalar(tuple(entry_terms))
    return out.reshape(S.shape[1:])


def _modulus(A):
    """ℓ when A's token matrices are `ModMatrix` over 𝔽_ℓ, None for exact scalars; read once per algebra."""
    try:
        return A._modulus
    except AttributeError:
        A._modulus = getattr(A.token_matrix(Token("id")), "l", None)
        return A._modulus


def _mod(R, l):
    """A C-contiguous int64 array R mod ℓ, in place, as R − ⌊R/ℓ⌋·ℓ, `_MOD_BLOCK` entries at a time.

    numpy divides int64 by a scalar several times faster than it takes the
    remainder, and a quotient the size of one block costs no fresh memory.
    """
    if R.size <= _SMALL:
        R %= l
        return R
    flat = R.reshape(-1)
    for i in range(0, len(flat), _MOD_BLOCK):
        x = flat[i : i + _MOD_BLOCK]
        q = x // l
        q *= l
        x -= q
    return R


def _reduce(S, l):
    """S mod ℓ in C order, exactly: a float64 state holds integers below 2⁵³, so it reduces through int64."""
    if S.dtype == object:
        return S % l
    return _mod(S.astype(np.int64, order="C"), l)


def _passing(T, read, k):
    """T (…, b, k^a) with the inputs it takes from pass-through strands moved into its rows: (…, b·P, A_t).

    `read` holds the token's input strands, None for one the state already
    has.  Row (y, p) and column x of the result are T's entry at output y and
    at the input tensor whose pass-through strands read p and whose others x.
    """
    n, live = T.ndim - 1, read.count(None)
    if live:
        order = sorted(range(len(read)), key=lambda i: read[i] is None)
        T = T.reshape(T.shape[:-1] + (k,) * len(read)).transpose(*range(n), *(n + i for i in order))
    return T.reshape(*T.shape[: n - 1], -1, k**live)


def _expand(S, strands, cols, k):
    """The matrix on every strand of a final state S on its own strands and the inputs `cols` it read.

    `strands` are the output strands, each None (a row axis of S) or the input
    it carries unread; such a strand is the identity between that input and
    that output, scattered in once here.  Rows and columns are then put in
    strand order.
    """
    passed = [i for i in strands if i is not None]
    inputs = cols + passed
    if not passed and inputs == sorted(inputs):
        return S
    if passed:
        E = k ** len(passed)
        out = np.full((S.shape[0], E, S.shape[1], E), _ZERO if S.dtype == object else 0, dtype=S.dtype)
        e = np.arange(E)
        out[:, e, :, e] = S
        S = out
    rows = sorted(range(len(strands)), key=lambda q: strands[q] is not None)  # S's row axes: written, then passed
    carried = rows + [len(rows) + i for i in inputs]  # the strand or input each axis of S carries
    axes = sorted(range(len(carried)), key=carried.__getitem__)
    return S.reshape((k,) * len(axes)).transpose(axes).reshape(k ** len(rows), k ** len(inputs))


def _contract(D: Diagram, A, l):
    """The matrix of D in A as an array, each token acting on its own strands.

    The state is a stack of integer arrays, one per monomial h^i·t^j·[r] that
    occurs, each with one row per basis tensor of the strands some token has
    written and one column per basis tensor of the inputs some token has read.
    Every other strand still carries its input unread and is no axis of the
    state: the state starts as the 1×1 array 1, a `swap` or `id` on such
    strands only relabels them, and a strand never read is the identity,
    scattered into the output once at the end (`_expand`).  A token a → b at
    offset o, with terms Σ_μ T_μ·μ (`TokenTerms`), reading A_t written strands
    and P pass-through ones, is one batched product of every T_μ, its
    pass-through inputs moved into its rows (T[(b, p), a_t], `_passing`), with
    every S_ν reshaped to (k^o, A_t, …), landing on μ·ν (`_merge`); when the
    token is the one monomial 1 the monomials stay put.  The values p of the
    strands it read then become the state's newest column axis.  Tokens of one
    slice act on disjoint strands and commute, so the narrowing ones go first:
    no component is wider than the slice's wider boundary.  A diagram with
    fewer outputs than inputs runs top-down with transposed tokens, so the
    state starts at the narrower boundary, and is transposed back.  Columns
    are independent, so a block of them goes on alone once the stack would
    pass `_STATE_ENTRIES` entries: halved while it has more than one column,
    else split along the values of the strands its next token reads first.
    A result of more than `MAX_DENSE_ENTRIES` entries is refused before any
    work.

    Exact scalars (l is None) are int64 while an entry bound, grown by each
    token's `grow`, stays below 2⁶³; a bound that would pass it is first
    replaced by the state's real maximum, and the state turns exact object
    dtype only when that too is too close.  `UniversalScalar`s are built only
    for the nonzero output entries.  Over 𝔽_ℓ (l from `_modulus`) every token
    is the monomial 1 and the state is float64 for BLAS products, reduced mod
    ℓ only when its bound would reach 2⁵³, and once at the end unless the
    bound is already below ℓ.  Its entries are exact integers below 2⁵³, so
    they reduce through int64 (`_reduce`), and the result is int64 in [0, ℓ).
    When even reduced entries could overflow a k²-term dot product, the state
    is object dtype instead.  `swap` is no product: it exchanges two strand
    axes of the state, whatever the algebra.
    """
    k = A.dim
    check_dense("the contracted matrix", k ** (D.in_arity + D.out_arity))
    reverse = D.out_arity < D.in_arity
    if l is None:
        dtype, limit = np.int64, INT_EXACT
    else:
        dtype, limit = np.float64 if k * k * (l - 1) ** 2 < _FLOAT_EXACT else object, _FLOAT_EXACT
    # each current strand: None once a token has written it, else the input it carries unread
    strands = list(range(D.out_arity if reverse else D.in_arity))
    ops, cols, width = [], [], 0  # cols: the inputs read, oldest first; width: strands written
    for sl in reversed(D.slices) if reverse else D.slices:
        arities = [tok.arity[::-1] if reverse else tok.arity for tok in sl]
        for narrowing in (True, False):
            offset = 0  # strands left of tok, some already mapped a → b
            for tok, (a, b) in zip(sl, arities):
                if tok.kind == "swap":  # the symmetric structure: two strands trade places
                    if not narrowing:
                        pair = strands[offset : offset + 2]
                        strands[offset : offset + 2] = pair[::-1]
                        if pair == [None, None]:  # both are axes of the state
                            ops.append((None, None, None, 1, k ** strands[:offset].count(None), k, k**width, 1))
                elif tok.kind != "id" and (b < a) == narrowing:
                    terms = A.token_terms(tok)
                    T = terms.mats[reverse]
                    read = strands[offset : offset + a]
                    live = read.count(None)
                    if live < a:  # the first token to read some inputs: they become columns
                        cols += [i for i in read if i is not None]
                        T = _passing(T, read, k)
                    T = T if dtype is np.int64 else T.astype(dtype)
                    before = k ** strands[:offset].count(None)
                    strands[offset : offset + a] = [None] * b
                    width += b - live
                    span = len(terms.codes) * k**width  # output entries per state monomial and column
                    product = np.matmul if live else np.multiply  # a product over one term is an outer one
                    P = k ** (a - live)  # values of the strands it reads first
                    ops.append((None if terms.unit else terms, T, product, terms.grow[reverse], before, k**live, span, P))
                offset += b if b < a or not narrowing else a
    n = k ** len(cols)  # columns of the final state
    # a block: first column, width, next op, values of its read strands that op takes, codes, state, bound, limit
    empty = _EMPTY[dtype]
    todo, out = [(0, 1, 0, None, _UNIT, empty, 1, limit)], None
    while todo:
        j, c, first, window, codes, S, bound, limit = todo.pop()
        for q in range(first, len(ops)):
            terms, T, product, grow, before, a, span, P = ops[q]  # terms: None for the monomial 1, T: None for swap
            lo, hi = window if window and q == first else (0, P)
            m = len(codes)
            if m * span * (hi - lo) * c > _STATE_ENTRIES and c * (hi - lo) > 1:
                if c > 1:
                    h, S = c // 2, S.reshape(m, -1, c)
                    todo.append((j + h, c - h, q, None, codes, S[:, :, h:], bound, limit))
                    todo.append((j, h, q, None, codes, S[:, :, :h], bound, limit))
                else:
                    h = (lo + hi) // 2
                    todo.append((j, 1, q, (h, hi), codes, S, bound, limit))
                    todo.append((j, 1, q, (lo, h), codes, S, bound, limit))
                break
            if bound * grow >= limit:
                if l is not None:
                    S, bound = _reduce(S, l).astype(dtype, copy=False), l - 1
                else:  # the bound was loose, or int64 is too narrow from here on
                    bound = int(np.abs(S).max(initial=0))
                    if bound * grow >= limit:
                        S, limit = S.astype(object), math.inf
            bound *= grow
            if T is None:
                S = S.reshape(m * before, a, a, -1).swapaxes(1, 2)
                continue
            x = S.size // (m * before * a) if P > 1 else -1  # the strands after the token's, times the columns
            if hi - lo < P:
                T = T.reshape(*T.shape[:-2], -1, P, a)[..., lo:hi, :].reshape(*T.shape[:-2], -1, a)
            if S is empty:  # the first token acts on the empty state: its own terms are the state
                S, codes = T, codes if terms is None else terms.codes
            elif terms is None:
                S = product(T, S.reshape(m, before, a, x))
            else:
                S, codes = _merge(terms, codes, product(T, S.reshape(1, m, before, a, x)))
            if P > 1:  # the values read become the newest column axis
                S = S.reshape(len(codes), -1, hi - lo, x).swapaxes(2, 3) if x > 1 else S
                j, c = j * P + lo, c * (hi - lo)
        else:
            if l is None:
                S = _scalars(codes, S.reshape(len(codes), -1, c))
            else:  # entries are nonnegative, so a bound below ℓ means reduced already
                S = (_reduce(S, l) if bound >= l else S).reshape(-1, c)
            if c == n:
                out = S if l is None else S.astype(np.int64, order="C", copy=False)
            else:  # one of several blocks, written straight into the result
                if out is None:
                    out = np.empty((len(S), n), dtype=object if l is None else np.int64)
                out[:, j : j + c] = S
    out = _expand(out, strands, cols, k)
    return out.T if reverse else out


def _products(values, B, l):
    """(v·B) mod ℓ for each v of the sorted `values` in [0, ℓ), stacked in `residue_dtype(ℓ)`, the dtype of B.

    0·B and 1·B are reduced already and only copied.  Every other v·B is
    computed in int64, exact because only the walk assembles, and it runs
    where (ℓ−1)² < 2⁶³ (`dw._splitting`), then narrowed as it is reduced, so
    the gather from the table writes narrow bytes.
    """
    skip = int(values.searchsorted(2))
    out = np.empty((len(values), *B.shape), dtype=residue_dtype(l))
    for i in range(skip):
        out[i] = B if values[i] else 0
    if skip < len(values):  # narrow operands, upcast in the product
        np.remainder(np.multiply.outer(values[skip:], B, dtype=np.int64), l, out=out[skip:], casting="unsafe")
    return out


def _kron(P, T, l, rows=None):
    """Rows `rows` (all by default) of P ⊗ T mod ℓ: (v·T) mod ℓ once per distinct entry v of P, then one gather.

    Row (a, b) of the product is the rows b of the v·T for the entries v of row a of P.
    """
    values, index = np.unique(P, return_inverse=True)
    table = _products(values, T, l).reshape(-1, T.shape[1])  # row v·|T rows| + b is row b of v·T
    a, b = np.divmod(np.arange(P.shape[0] * T.shape[0]) if rows is None else rows, T.shape[0])
    return table.take(index.reshape(P.shape)[a] * T.shape[0] + b[:, None], axis=0).reshape(len(a), -1)


def _placement(legs, k):
    """Where each basis tensor, its legs in the diagram's order, sits in a product listing them as `legs`.

    None when `legs` is already in order.
    """
    if legs == sorted(legs):
        return None
    return np.arange(k ** len(legs)).reshape((k,) * len(legs)).transpose(np.argsort(legs)).ravel()


def _assemble(factors, k, l):
    """The `residue_dtype(ℓ)` matrix of a diagram from the (matrix, input legs, output legs) of its pieces.

    Every factor has legs.  The result is their Kronecker product with the
    legs put back in place.  The product is folded from the right and taken
    on the factors, never on the result (`_kron`).  When the pieces come in
    order of their inputs, the columns are in place unless a `swap` between
    pieces crosses the inputs; the rows are put in place by the last fold's
    gather, and the columns, when needed, by one more.
    """
    mats = [M for M, _, _ in factors]
    ins = [a for _, i, _ in factors for a in i]
    outs = [b for _, _, o in factors for b in o]
    rows = _placement(outs, k)
    T = mats.pop()
    while mats:
        T = _kron(mats.pop(), T, l, rows if not mats else None)
    cols = _placement(ins, k)
    return T if cols is None else T[:, cols]


def evaluate_diagram(D: Diagram, A):
    """The linear map of D in the algebra A, as a matrix on tensor powers of A.

    The leftmost strand is the most significant tensor index, and a closed
    diagram yields a 1×1 matrix.  Universal results are `GenericMatrix`es of
    `UniversalScalar`s (a shared zero where an entry vanishes), DW results
    `ModMatrix`es around the reduced array in `residue_dtype(ℓ)`: the walk
    writes that dtype itself, and a contraction's int64 result is narrowed
    once, by `ModMatrix.reduced`.

    An algebra with a `splitting` (a DW algebra over a split prime) evaluates
    the diagram in its character idempotent basis, in one walk over the
    tokens (dw.Splitting.matrix).  Otherwise every generator acts on its own
    strands of one state (`_contract`), never through a matrix of its whole
    slice.  Either way the dimension guard comes first: it refuses a diagram
    whose widest cut (`Diagram.widest`, read off the arities at parse time)
    would need more than `A.max_dim` basis tensors.
    """
    ensure_prechecked(A)
    width = D.widest
    if A.dim**width > A.max_dim:
        raise ComputationError(
            "dimension-guard",
            f"slice of width {width} needs dimension {A.dim}^{width} > {A.max_dim} on {A.name}",
        )
    l = _modulus(A)
    if l is None:
        return GenericMatrix(_contract(D, A, l).tolist())  # the same scalars, unpacked in C
    splitting = getattr(A, "splitting", None)
    M = _contract(D, A, l) if splitting is None else splitting.matrix(D)
    return ModMatrix.reduced(M, l)
