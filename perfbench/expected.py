"""Reference answers computed without the engine's character tables or Möbius code.

Every group the benchmark uses is described here by facts fixed by its
isomorphism type: order, prime, exponent, abelian invariants or irreducible
degrees, the subgroups that contain its Frattini subgroup, and |Aut|.  From
them the counts follow in closed form:

* abelian A: #Hom(G_{n,r} → A) = |A|^{2n−1}·|A[p^r]|, and |A|^{2n} at r = ∞;
* Mednykh: #Hom = |Γ|·Σ_ρ (|Γ|/dim ρ)^{2n−2} at r = ∞, and for every finite
  r ≥ log_p exp Γ, where the power factor x^{p^r} vanishes;
* Hall: #Epi = Σ_{H ⊇ Φ(Γ)} μ(H)·#Hom(→ H) with μ(H) = (−1)^k p^{k(k−1)/2}
  for |Γ:H| = p^k.

Where no closed form applies, a small enough brute-force scan from `oracle`
is the route; otherwise the cell is reported as unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GROUP_DIR = Path(__file__).resolve().parent / "groups"

# Largest predicted scan (loop steps) a reference check may spend.
ORACLE_CHECK_LOOPS = 200_000


@dataclass(frozen=True)
class GroupInfo:
    key: str
    spec: str
    order: int
    p: int
    exp_val: int  # e with exponent = p^e
    classes: int
    invariants: tuple | None = None  # abelian type (a_1, …) with A ≅ ⊕ C_{p^a_i}
    degrees: tuple = ()  # ((dim ρ, multiplicity), …) for non-abelian groups
    frattini: tuple = ()  # ((μ, how many, abelian invariants), …) for proper H ⊇ Φ(Γ)
    aut: int | None = None


def _gl_order(d: int, p: int) -> int:
    out = 1
    for i in range(d):
        out *= p**d - p**i
    return out


def _gauss_binomial(d: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _cyclic(p: int, a: int) -> GroupInfo:
    n = p**a
    return GroupInfo(
        f"C{n}", f"named:cyclic:{n}", n, p, a, n, invariants=(a,),
        frattini=((-1, 1, (a - 1,)),), aut=p ** (a - 1) * (p - 1),
    )


def _elementary(p: int, d: int) -> GroupInfo:
    n = p**d
    terms = tuple(
        ((-1) ** k * p ** (k * (k - 1) // 2), _gauss_binomial(d, k, p), (1,) * (d - k))
        for k in range(1, d + 1)
    )
    return GroupInfo(
        f"E{n}", f"named:elementary_abelian:{p}:{d}", n, p, 1, n, invariants=(1,) * d,
        frattini=terms, aut=_gl_order(d, p),
    )


def _heisenberg(p: int) -> GroupInfo:
    # maximal subgroups: p+1 copies of C_p²; Φ = Z ≅ C_p
    return GroupInfo(
        f"Heis{p}", f"named:heisenberg:{p}", p**3, p, 1, p * p + p - 1,
        degrees=((1, p * p), (p, p - 1)),
        frattini=((-1, p + 1, (1, 1)), (p, 1, (1,))), aut=p * p * _gl_order(2, p),
    )


def _xsp(p: int) -> GroupInfo:
    # maximal subgroups: p cyclic C_{p²} and one C_p²; Φ = Z ≅ C_p
    return GroupInfo(
        f"XSP{p}", f"named:extraspecial_exp_p2:{p}", p**3, p, 2, p * p + p - 1,
        degrees=((1, p * p), (p, p - 1)),
        frattini=((-1, p, (2,)), (-1, 1, (1, 1)), (p, 1, (1,))), aut=p**3 * (p - 1),
    )


GROUPS = {
    g.key: g
    for g in (
        _cyclic(3, 1),
        _cyclic(3, 2),
        _cyclic(3, 3),
        _cyclic(5, 2),
        _elementary(3, 2),
        _elementary(3, 3),
        _elementary(5, 2),
        _heisenberg(3),
        _heisenberg(5),
        _xsp(3),
        # D8: maximal subgroups C4 and two Klein four-groups; Φ = Z ≅ C2
        GroupInfo(
            "D8", f"file:{GROUP_DIR / 'd8.json'}", 8, 2, 2, 5, degrees=((1, 4), (2, 1)),
            frattini=((-1, 1, (2,)), (-1, 2, (1, 1)), (2, 1, (1,))), aut=8,
        ),
        # C3×C9: maximal subgroups three C9 and one C3²; Φ = 3A ≅ C3
        GroupInfo(
            "C3xC9", f"file:{GROUP_DIR / 'c3xc9.json'}", 27, 3, 2, 27, invariants=(1, 2),
            frattini=((-1, 3, (2,)), (-1, 1, (1, 1)), (3, 1, (1,))), aut=108,
        ),
        # GL2(3) is only scanned with a p-image restriction; see gl2_p_image_count
        GroupInfo("GL2_3", "named:gl2:3", 48, 3, 1, 8),
    )
}


def _level_ge(r, e: int) -> bool:
    return r == "inf" or r >= e


def abelian_hom(p: int, invariants: tuple, n: int, r) -> int:
    """#Hom(G_{n,r} → ⊕ C_{p^a}): x₁^{p^r} must vanish, the other 2n−1 letters are free."""
    if n == 0:
        return 1
    size = p ** sum(invariants)
    if r == "inf":
        return size ** (2 * n)
    return size ** (2 * n - 1) * p ** sum(min(a, r) for a in invariants)


def hom_closed_form(g: GroupInfo, n: int, r) -> int | None:
    """#Hom(G_{n,r} → Γ) in closed form, or None where none is known."""
    if g.invariants is not None:
        return abelian_hom(g.p, g.invariants, n, r)
    if g.degrees and _level_ge(r, g.exp_val):
        if n == 0:
            return 1
        return g.order * sum(mult * (g.order // d) ** (2 * n - 2) for d, mult in g.degrees)
    return None


def epi_closed_form(g: GroupInfo, n: int, r) -> int | None:
    """#Epi(G_{n,r} → Γ) by Hall's Möbius sum over the subgroups containing Φ(Γ)."""
    top = hom_closed_form(g, n, r)
    if top is None:
        return None
    return top + sum(mu * many * abelian_hom(g.p, inv, n, r) for mu, many, inv in g.frattini)


def gl2_p_image_count(n: int, r) -> int:
    """3-image solutions in GL₂(𝔽₃): its four Sylow C₃'s meet trivially, so s·(#Hom(→C₃) − 1) + 1."""
    return 4 * (abelian_hom(3, (1,), n, r) - 1) + 1


def scan_loops(g: GroupInfo, n: int) -> int:
    """The oracle's predicted loop count for a surface scan with the conjugation quotient."""
    return g.classes * g.order ** (2 * n - 1)


class Reference:
    """Memoized reference counts for one run; scans go through `oracle` on fresh groups."""

    def __init__(self):
        from arith_tqft.oracle import EnumerationTask, count_epis, count_solutions
        from arith_tqft.dw import RelatorSpec
        from arith_tqft.pgroup import group_from_spec
        from arith_tqft.units import INF

        self._task = lambda g, n, r: EnumerationTask(
            group_from_spec(g.spec), RelatorSpec(n, INF if r == "inf" else r)
        )
        self._count_solutions = count_solutions
        self._count_epis = count_epis
        self._memo: dict = {}
        self.routes: dict = {}

    def _note(self, route: str):
        self.routes[route] = self.routes.get(route, 0) + 1

    def _scan(self, kind: str, g: GroupInfo, n: int, r):
        key = (kind, g.key, n, r)
        if key not in self._memo:
            fn = self._count_solutions if kind == "hom" else self._count_epis
            self._memo[key] = fn(self._task(g, n, r))
        return self._memo[key]

    def hom(self, g: GroupInfo, n: int, r) -> int | None:
        if scan_loops(g, n) <= ORACLE_CHECK_LOOPS:
            self._note("oracle")
            return self._scan("hom", g, n, r)
        value = hom_closed_form(g, n, r)
        self._note("closed-form" if value is not None else "none")
        return value

    def epi(self, g: GroupInfo, n: int, r) -> int | None:
        # an epi scan pays a subgroup closure per hit, so it gets a tenth of the loops
        if scan_loops(g, n) * 10 <= ORACLE_CHECK_LOOPS:
            self._note("oracle")
            return self._scan("epi", g, n, r)
        value = epi_closed_form(g, n, r)
        self._note("closed-form" if value is not None else "none")
        return value

    def extensions(self, g: GroupInfo, epi: int | None) -> Fraction | None:
        return None if epi is None or g.aut is None else Fraction(epi, g.aut)
