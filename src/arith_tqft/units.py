"""Finite-precision arithmetic in the principal units 1 + p·Z_p, graded by level.

A unit is stored as a residue mod p^k with residue ≡ 1 (mod p).  The *level* of a
unit a is the largest r with a ≡ 1 (mod p^r); the identity has level INF.  Levels
are positive integers or INF, ordered so that INF exceeds every integer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ValidationError
from .pgroup import is_prime

INF = float("inf")


def is_valid_level(r) -> bool:
    """True for a positive integer or INF."""
    return r == INF or (isinstance(r, int) and not isinstance(r, bool) and r >= 1)


def level_to_json(r):
    """Serialize a level as an int or the string \"inf\"."""
    return "inf" if r == INF else int(r)


def level_from_json(value):
    """Parse a level from an int or the string \"inf\"."""
    if value == "inf":
        return INF
    if isinstance(value, int) and value >= 1:
        return value
    raise ValidationError("bad-level", f"not a level: {value!r}")


def p_power(p: int, r) -> int:
    """p^r with the limit convention p^INF = 0."""
    return 0 if r == INF else p**r


def p_power_minus_one(p: int, r) -> int:
    """p^r - 1 with the limit convention p^INF - 1 = -1 (an inverse exponent)."""
    return -1 if r == INF else p**r - 1


@dataclass(frozen=True)
class PadicUnit:
    """A unit of Z_p with residue ≡ 1 (mod p), held at finite precision p^precision."""

    p: int
    precision: int
    residue: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValidationError("not-a-unit", f"p must be an odd prime, got {self.p}")
        if not (isinstance(self.precision, int) and self.precision >= 1):
            raise ValidationError("not-a-unit", f"precision must be a positive integer, got {self.precision}")
        if not (0 <= self.residue < self.p**self.precision):
            raise ValidationError("not-a-unit", f"residue {self.residue} out of range for {self.p}^{self.precision}")
        if self.residue % self.p != 1:
            raise ValidationError("not-a-unit", f"residue {self.residue} is not ≡ 1 mod {self.p}")

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def __str__(self) -> str:
        return f"{self.residue} mod {self.p}^{self.precision}"


def unit(residue: int, p: int, precision: int) -> PadicUnit:
    """Build a unit, reducing the residue mod p^precision first."""
    return PadicUnit(p, precision, residue % p**precision)


def one(p: int, precision: int) -> PadicUnit:
    """The identity unit."""
    return PadicUnit(p, precision, 1)


def _check_compatible(a: PadicUnit, b: PadicUnit):
    if a.p != b.p or a.precision != b.precision:
        raise ValidationError(
            "incompatible-units",
            f"cannot combine {a} with {b}: mismatched p or precision",
        )


def unit_mul(a: PadicUnit, b: PadicUnit) -> PadicUnit:
    """Product mod p^precision."""
    _check_compatible(a, b)
    return PadicUnit(a.p, a.precision, (a.residue * b.residue) % a.modulus)


def unit_inv(a: PadicUnit) -> PadicUnit:
    """Inverse mod p^precision (exists: the residue is coprime to p)."""
    return PadicUnit(a.p, a.precision, pow(a.residue, -1, a.modulus))


def unit_pow(a: PadicUnit, n: int) -> PadicUnit:
    """Integer power mod p^precision; n may be negative."""
    return PadicUnit(a.p, a.precision, pow(a.residue, n, a.modulus))


def level(a: PadicUnit, require_finite: bool = False):
    """Largest r with a ≡ 1 (mod p^r); INF when a is the identity at full precision.

    The result is precision-independent for r < precision.  With require_finite,
    an identity residue raises 'precision-exhausted' instead of returning INF.
    """
    d = (a.residue - 1) % a.modulus
    if d == 0:
        if require_finite:
            raise ValidationError(
                "precision-exhausted",
                f"{a} is 1 at full precision; no finite level certified",
            )
        return INF
    r = 0
    while d % a.p == 0:
        d //= a.p
        r += 1
    return r


def ratio_level(a: PadicUnit, b: PadicUnit):
    """level(a · b⁻¹), the level at which a and b agree."""
    return level(unit_mul(a, unit_inv(b)))


_UNIT_RE = re.compile(r"^\s*(\d+)\s*mod\s*(\d+)\s*\^\s*(\d+)\s*$")


def parse_unit(text: str) -> PadicUnit:
    """Parse the textual form \"R mod p^k\", e.g. \"4 mod 3^4\"."""
    m = _UNIT_RE.match(text)
    if not m:
        raise ValidationError("not-a-unit", f"cannot parse unit text {text!r}")
    residue, p, k = (int(g) for g in m.groups())
    return PadicUnit(p, k, residue)


def format_unit(a: PadicUnit) -> str:
    """Inverse of parse_unit."""
    return str(a)


def sample_units(p: int, precision: int, lvl, count: int = 3) -> list[PadicUnit]:
    """Deterministic distinct units of exact level `lvl` (the identity for INF)."""
    if lvl == INF:
        return [one(p, precision)]
    if not (isinstance(lvl, int) and 1 <= lvl < precision):
        raise ValidationError("precision-exhausted", f"cannot realize level {lvl} at precision {precision}")
    out = []
    step = p**lvl
    a = 1
    while len(out) < count:
        if a % p != 0:  # keep the level exactly lvl
            residue = 1 + a * step
            if residue >= p**precision:
                raise ValidationError(
                    "precision-exhausted",
                    f"only {len(out)} units of level {lvl} fit at precision {precision}",
                )
            out.append(PadicUnit(p, precision, residue))
        a += 1
    return out
