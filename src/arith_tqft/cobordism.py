"""Symbolic (1+1)-dimensional cobordisms over ℤ_p: diagrams, invariants, rewriting.

A diagram is a word in the generators, written in slices read top to bottom:

    m   merge (2 strands → 1)          cup  close a strand (1 → 0)
    d   split (1 strand → 2)           cap  open a strand (0 → 1)
    id  plain strand                   swap cross two strands
    tw(R mod P^K)  strand twisted by a p-adic unit
    tor(r)         strand through a handle of orientability level r (or 'inf')

Text form: slices separated by ';', parallel items inside a slice by ','.
Example: ``d; tw(4 mod 3^2), id; m`` is a twice-punctured torus of level 1.

Every diagram carries a complete system of invariants per connected component —
genus, orientability level, leg count, and boundary twist residues — computed
from the gluing graph.  The rewrite rules R1–R12 and RS1–RS5 act locally and
preserve these invariants; `canonicalize` is the resulting normal form.  A
diagram is immutable, so its gluing graph is walked once, on first use, and
the components and the canonical form are kept on it: a rewrite certifies
itself with both sides' forms, and asking for them again costs nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ComputationError, ValidationError
from .units import (
    INF,
    PadicUnit,
    format_unit,
    is_valid_level,
    level,
    level_to_json,
    p_power,
    parse_unit,
    unit,
    unit_inv,
    unit_mul,
)

# -- tokens ------------------------------------------------------------------------

_ARITY = {
    "m": (2, 1),
    "d": (1, 2),
    "cup": (1, 0),
    "cap": (0, 1),
    "id": (1, 1),
    "tw": (1, 1),
    "swap": (2, 2),
    "tor": (1, 1),
}

# Euler characteristic of the surface piece each token names (strands are cylinders).
_CHI = {"m": -1, "d": -1, "cup": 1, "cap": 1, "tor": -2}


@dataclass(frozen=True)
class Token:
    kind: str
    unit: PadicUnit | None = None
    level: object = None

    @property
    def arity(self):
        return _ARITY[self.kind]

    def __str__(self):
        if self.kind == "tw":
            return f"tw({format_unit(self.unit)})"
        if self.kind == "tor":
            return f"tor({level_to_json(self.level)})"
        return self.kind


P21 = Token("m")
P12 = Token("d")
CUP = Token("cup")
CAP = Token("cap")
CYL = Token("id")
SWAP = Token("swap")


def TWIST(u: PadicUnit) -> Token:
    if not isinstance(u, PadicUnit):
        raise ValidationError("not-a-unit", f"tw takes a PadicUnit, got {type(u).__name__}")
    return Token("tw", unit=u)


def TORUS(r) -> Token:
    if not is_valid_level(r):
        raise ValidationError("bad-level", f"tor level must be a positive integer or INF, got {r!r}")
    return Token("tor", level=r)


# -- diagrams ---------------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    """An immutable word of slices.  `wires` gives the arity of a sliceless identity.

    The arities are read once, here: `in_arity` and `out_arity` at the
    boundaries, and `widest`, the most strands at any cut between slices
    (the inputs included), which the dimension guard reads.
    """

    slices: tuple = ()
    wires: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(tuple(s) for s in self.slices))
        if not self.slices:
            if self.wires is None or self.wires < 0:
                raise ValidationError("bad-spec", "a diagram with no slices needs a wire count ≥ 0")
            object.__setattr__(self, "in_arity", self.wires)
            object.__setattr__(self, "out_arity", self.wires)
            object.__setattr__(self, "widest", self.wires)
        else:
            width = widest = sum(t.arity[0] for t in self.slices[0])
            object.__setattr__(self, "in_arity", width)
            for i, sl in enumerate(self.slices):
                need = sum(t.arity[0] for t in sl)
                if need != width:
                    raise ValidationError(
                        "arity-mismatch",
                        f"slice {i - 1} produces {width} strands but slice {i} consumes {need}",
                    )
                width = sum(t.arity[1] for t in sl)
                widest = max(widest, width)
            object.__setattr__(self, "out_arity", width)
            object.__setattr__(self, "widest", widest)
        p = prec = None
        for sl in self.slices:
            for t in sl:
                if t.kind == "tw":
                    if p is None:
                        p, prec = t.unit.p, t.unit.precision
                    elif (p, prec) != (t.unit.p, t.unit.precision):
                        raise ValidationError(
                            "incompatible-units",
                            f"diagram mixes units mod {p}^{prec} and mod {t.unit.p}^{t.unit.precision}",
                        )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", prec)

    def __str__(self):
        return print_diagram(self)

    # Derived from the gluing graph on first use and kept, like the arities:
    # a diagram never changes.  `cached_property` writes the instance dict, so
    # equality, hash and repr, which read the fields only, stay those of the word.

    @cached_property
    def _components(self) -> tuple:
        return _walk(self)

    @cached_property
    def _canonical(self) -> CanonicalForm:
        comps = sorted(self._components, key=_component_sort_key)
        has_twists = any(c.twists for c in comps)
        return CanonicalForm(
            in_arity=self.in_arity,
            out_arity=self.out_arity,
            p=self.p if has_twists else None,
            precision=self.precision if has_twists else None,
            components=tuple(comps),
        )


def identity_diagram(n: int) -> Diagram:
    return Diagram((), n)


def print_diagram(D: Diagram) -> str:
    return "; ".join(", ".join(str(t) for t in sl) for sl in D.slices if sl)


def _parse_item(text: str, offset: int) -> Token:
    if text in ("m", "d", "cup", "cap", "id", "swap"):
        return Token(text)
    m = re.fullmatch(r"tw\((.*)\)", text)
    if m:
        try:
            return TWIST(parse_unit(m.group(1)))
        except ValidationError as e:
            raise ValidationError(e.code, f"at position {offset}: {e.message}") from None
    m = re.fullmatch(r"tor\(\s*([0-9]+|inf)\s*\)", text)
    if m:
        r = INF if m.group(1) == "inf" else int(m.group(1))
        try:
            return TORUS(r)
        except ValidationError as e:
            raise ValidationError(e.code, f"at position {offset}: {e.message}") from None
    raise ValidationError("syntax-error", f"unrecognized item {text!r} at position {offset}")


def parse_diagram(text: str) -> Diagram:
    """Parse the slice DSL; see the module docstring for the grammar."""
    if not isinstance(text, str) or not text.strip():
        raise ValidationError("syntax-error", "empty diagram text at position 0")
    slices = []
    seg_start = 0
    segments = []
    for i, ch in enumerate(text):
        if ch == ";":
            segments.append((seg_start, text[seg_start:i]))
            seg_start = i + 1
    segments.append((seg_start, text[seg_start:]))
    for seg_off, seg in segments:
        items = []
        part_start = 0
        parts = []
        for i, ch in enumerate(seg):
            if ch == ",":
                parts.append((part_start, seg[part_start:i]))
                part_start = i + 1
        parts.append((part_start, seg[part_start:]))
        for part_off, part in parts:
            stripped = part.strip()
            at = seg_off + part_off + (len(part) - len(part.lstrip()))
            if not stripped:
                raise ValidationError("syntax-error", f"empty item at position {at}")
            items.append(_parse_item(stripped, at))
        slices.append(tuple(items))
    return Diagram(tuple(slices))


def compose(D1: Diagram, D2: Diagram) -> Diagram:
    """D1 followed by D2 (D1's outputs glued to D2's inputs)."""
    if D1.out_arity != D2.in_arity:
        raise ValidationError(
            "arity-mismatch", f"cannot glue {D1.out_arity} output strands to {D2.in_arity} inputs"
        )
    slices = D1.slices + D2.slices
    return Diagram(slices, None if slices else D1.wires)


def tensor(D1: Diagram, D2: Diagram) -> Diagram:
    """Side-by-side placement, D1 on the left."""
    rows = max(len(D1.slices), len(D2.slices))
    if rows == 0:
        return Diagram((), D1.wires + D2.wires)

    def row(D, t):
        return D.slices[t] if t < len(D.slices) else (CYL,) * D.out_arity

    return Diagram(tuple(row(D1, t) + row(D2, t) for t in range(rows)))


# -- gluing graph and invariants -------------------------------------------------------


def _u_mul(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return unit_mul(a, b)


def _u_inv(a):
    return None if a is None else unit_inv(a)


def _graph(D: Diagram):
    """(nodes, edges): nodes are (kind, tor_level); edges (src, dst, unit) follow the flow."""
    wires = [(("in", i), None) for i in range(D.in_arity)]
    nodes, edges = [], []
    for sl in D.slices:
        new = []
        pos = 0
        for tok in sl:
            k = tok.kind
            if k == "id":
                new.append(wires[pos])
                pos += 1
            elif k == "tw":
                src, u = wires[pos]
                pos += 1
                new.append((src, _u_mul(u, tok.unit)))
            elif k == "swap":
                new.append(wires[pos + 1])
                new.append(wires[pos])
                pos += 2
            else:
                v = ("node", len(nodes))
                nodes.append((k, tok.level))
                n_in, n_out = _ARITY[k]
                for _ in range(n_in):
                    src, u = wires[pos]
                    pos += 1
                    edges.append((src, v, u))
                for _ in range(n_out):
                    new.append((v, None))
        wires = new
    for j, (src, u) in enumerate(wires):
        edges.append((src, ("out", j), u))
    return nodes, edges


@dataclass(frozen=True)
class Component:
    """One connected piece: genus, level, legs, and boundary twist residues."""

    g: int
    r: object
    in_legs: tuple
    out_legs: tuple
    twists: tuple  # ((kind, index, residue) ...) for legs twisted relative to the first leg

    def to_json(self):
        return {
            "g": self.g,
            "r": level_to_json(self.r),
            "in_legs": list(self.in_legs),
            "out_legs": list(self.out_legs),
            "twists": [list(t) for t in self.twists],
        }


@dataclass(frozen=True)
class CanonicalForm:
    in_arity: int
    out_arity: int
    p: int | None
    precision: int | None
    components: tuple

    def to_json(self):
        return {
            "in_arity": self.in_arity,
            "out_arity": self.out_arity,
            "p": self.p,
            "precision": self.precision,
            "components": [c.to_json() for c in self.components],
        }


def _level_key(r):
    return (1, 0) if r == INF else (0, r)


def _component_sort_key(c: Component):
    legs = [("in", i) for i in c.in_legs] + [("out", j) for j in c.out_legs]
    if legs:
        kind, idx = min(legs, key=lambda t: (t[0] == "out", t[1]))
        return (0, kind == "out", idx)
    return (1, c.g, _level_key(c.r))


def _walk(D: Diagram) -> tuple:
    """D's connected components in walk order, from one breadth-first pass over its gluing graph."""
    nodes, edges = _graph(D)
    adj = {}
    for e_idx, (a, b, _) in enumerate(edges):
        adj.setdefault(a, []).append((e_idx, b))
        adj.setdefault(b, []).append((e_idx, a))
    for i in range(D.in_arity):
        adj.setdefault(("in", i), [])
    for j in range(D.out_arity):
        adj.setdefault(("out", j), [])

    visited = set()
    used_edges = set()
    components = []
    order = sorted(adj, key=lambda v: (v[0] != "in", v[0] != "out", v[1]))
    for root in order:
        if root in visited:
            continue
        pot = {root: None}
        members = [root]
        visited.add(root)
        queue = [root]
        cycle_levels = []
        while queue:
            v = queue.pop(0)
            for e_idx, w in adj[v]:
                if e_idx in used_edges:
                    continue
                used_edges.add(e_idx)
                a, b, q = edges[e_idx]
                if w in visited:
                    hol = _u_mul(_u_mul(pot[a], q), _u_inv(pot[b]))
                    cycle_levels.append(INF if hol is None else level(hol))
                else:
                    pot[w] = _u_mul(pot[v], q) if v == a else _u_mul(pot[v], _u_inv(q))
                    visited.add(w)
                    members.append(w)
                    queue.append(w)
        in_legs = sorted(i for kind, i in members if kind == "in")
        out_legs = sorted(j for kind, j in members if kind == "out")
        node_ids = [i for kind, i in members if kind == "node"]
        chi = sum(_CHI[nodes[i][0]] for i in node_ids)
        levels = [nodes[i][1] for i in node_ids if nodes[i][0] == "tor"] + cycle_levels
        r = min(levels, key=_level_key) if levels else INF
        doubled = 2 - chi - len(in_legs) - len(out_legs)
        if doubled < 0 or doubled % 2:
            raise ComputationError("invariant", f"Euler bookkeeping broke: χ={chi} on {members}")
        legs = [("in", i) for i in in_legs] + [("out", j) for j in out_legs]
        twists = []
        if len(legs) >= 2:
            base_inv = _u_inv(pot[legs[0]])
            for kind, idx in legs[1:]:
                t = _u_mul(base_inv, pot[(kind, idx)])
                if t is None:
                    continue
                cut = t.precision if r == INF else min(r, t.precision)
                residue = t.residue % p_power(t.p, cut)
                if residue != 1:
                    twists.append((kind, idx, residue))
        components.append(
            Component(
                g=doubled // 2,
                r=r,
                in_legs=tuple(in_legs),
                out_legs=tuple(out_legs),
                twists=tuple(twists),
            )
        )
    return tuple(components)


def invariant_of(D: Diagram):
    """Sorted multiset of (g, r, n, u) over the diagram's connected components."""
    return tuple(
        sorted(
            (c.g, c.r, len(c.in_legs), len(c.out_legs)) for c in D._components
        )
    )


def canonicalize(D: Diagram) -> CanonicalForm:
    """D's normal form: the components sorted by their first leg, closed ones last."""
    return D._canonical


def diagrams_equal(D1: Diagram, D2: Diagram) -> bool:
    c1, c2 = canonicalize(D1), canonicalize(D2)
    if c1.p is not None and c2.p is not None and (c1.p, c1.precision) != (c2.p, c2.precision):
        raise ValidationError(
            "incompatible-units",
            "equality across different unit rings (p, precision) is not certified",
        )
    return c1 == c2


def surface_diagram(g: int, r, n: int, u: int) -> Diagram:
    """A connected model surface with the given invariant (g, r, n, u)."""
    if g < 0 or n < 0 or u < 0:
        raise ValidationError("bad-spec", "g, n, u must be nonnegative")
    if not is_valid_level(r):
        raise ValidationError("bad-level", f"bad level {r!r}")
    if g == 0 and r != INF:
        raise ValidationError("bad-level", "a genus-0 surface has no handles: r must be INF")
    slices = []
    current = n
    if n == 0:
        slices.append((CAP,))
        current = 1
    while current > 1:
        slices.append((P21,) + (CYL,) * (current - 2))
        current -= 1
    if g >= 1:
        slices.append((TORUS(r),))
        for _ in range(g - 1):
            slices.append((TORUS(INF),))
    if u == 0:
        slices.append((CUP,))
    else:
        while current < u:
            slices.append((P12,) + (CYL,) * (current - 1))
            current += 1
    if not slices:
        return identity_diagram(n)
    return Diagram(tuple(slices))


# -- rewrite rules ------------------------------------------------------------------


class _NoMatch(Exception):
    pass


def _lit(kind):
    return ("lit", kind)


_M, _D, _CUP, _CAP, _I, _SW = (_lit(k) for k in ("m", "d", "cup", "cap", "id", "swap"))


def _tw(v):
    return ("tw", v)


def _tor(v):
    return ("tor", v)


def instantiate(rows, bindings) -> Diagram:
    """Materialize pattern rows into a Diagram using `bindings` for tw/tor variables."""
    out = []
    for row in rows:
        slice_tokens = []
        for item in row:
            tag = item[0]
            if tag == "lit":
                slice_tokens.append(Token(item[1]))
            elif tag == "tw":
                slice_tokens.append(TWIST(bindings[item[1]]))
            else:
                slice_tokens.append(TORUS(bindings[item[1]]))
        out.append(tuple(slice_tokens))
    return Diagram(tuple(out))


def _match_item(item, tok: Token, bindings) -> bool:
    tag = item[0]
    if tag == "lit":
        return tok.kind == item[1]
    if tag == "tw":
        if tok.kind != "tw":
            return False
        var = item[1]
        if var in bindings:
            return bindings[var] == tok.unit
        bindings[var] = tok.unit
        return True
    if tok.kind != "tor":
        return False
    var = item[1]
    if var in bindings:
        return bindings[var] == tok.level
    bindings[var] = tok.level
    return True


def _offsets(sl, which):
    out = [0]
    for t in sl:
        out.append(out[-1] + t.arity[which])
    return out


def _match_at(D: Diagram, pattern, position):
    si, ii = position
    rows = len(pattern)
    if si < 0 or si + rows > len(D.slices):
        raise _NoMatch(f"needs {rows} consecutive slices at slice {si}")
    bindings = {}
    windows = []
    target = None
    for t, prow in enumerate(pattern):
        sl = D.slices[si + t]
        ins = _offsets(sl, 0)
        if t == 0:
            candidates = [ii] if 0 <= ii <= len(sl) - len(prow) else []
        else:
            candidates = [j for j in range(len(sl) - len(prow) + 1) if ins[j] == target]
        matched = None
        for j in candidates:
            trial = dict(bindings)
            if all(_match_item(prow[k], sl[j + k], trial) for k in range(len(prow))):
                matched, bindings = j, trial
                break
        if matched is None:
            found = (
                ", ".join(str(x) for x in sl[ii : ii + len(prow)]) if t == 0 else ", ".join(str(x) for x in sl)
            )
            want = ", ".join(i[1] if i[0] == "lit" else f"{i[0]}({i[1]})" for i in prow)
            raise _NoMatch(f"slice {si + t}: expected [{want}], found [{found}]")
        outs = _offsets(sl, 1)
        target = outs[matched]
        windows.append((matched, matched + len(prow)))
    return bindings, windows


def _substituter(rows):
    def build(bindings, kwargs, D):
        return [list(instantiate([row], bindings).slices[0]) for row in rows]

    return build


@dataclass(frozen=True)
class RuleVariant:
    lhs: tuple
    build: object  # (bindings, kwargs, Diagram) -> list of token rows


def _both(lhs, rhs):
    return [RuleVariant(lhs, _substituter(rhs)), RuleVariant(rhs, _substituter(lhs))]


def _context_unit(D, kwargs, r):
    """A unit of level r, from kwargs['unit'] or synthesized from the diagram's ring."""
    u = kwargs.get("unit")
    if u is not None:
        if level(u) != r:
            raise _NoMatch(f"provided unit has level {level(u)}, need exactly {r}")
        return u
    p = kwargs.get("p", D.p)
    prec = kwargs.get("precision", D.precision)
    if p is None or prec is None:
        raise _NoMatch("no unit ring in scope: pass unit=, or p= and precision=")
    if r == INF:
        return unit(1, p, prec)
    if prec <= r:
        raise ValidationError("precision-exhausted", f"cannot represent level {r} at precision {prec}")
    return unit(1 + p**r, p, prec)


def _r10_forward(bindings, kwargs, D):
    r = bindings["r"]
    if r == INF and "unit" not in kwargs and (kwargs.get("p", D.p) is None):
        return [[P12], [P21]]
    a = _context_unit(D, kwargs, r)
    return [[P12], [TWIST(a), CYL], [P21]]


def _r10_back(bindings, kwargs, D):
    return [[TORUS(level(bindings["a"]))]]


def _r11_forward(bindings, kwargs, D):
    if "level" in kwargs:
        raise _NoMatch("level= only applies when re-filling an inf handle (backward direction)")
    r, s = bindings["r"], bindings["s"]
    return [[TORUS(INF)], [TORUS(min(r, s, key=_level_key))]]


def _r11_back(bindings, kwargs, D):
    if bindings["r"] != INF:
        raise _NoMatch("backward R11 needs the first handle at level INF")
    m = bindings["s"]
    k = kwargs.get("level", m)
    if not is_valid_level(k) or _level_key(k) < _level_key(m):
        raise _NoMatch(f"replacement level {k!r} must be a level ≥ {m}")
    return [[TORUS(m)], [TORUS(k)]]


def _r12_forward(bindings, kwargs, D):
    r = bindings["r"]
    if _level_key(level(bindings["a"])) < _level_key(r):
        raise _NoMatch(f"twist level {level(bindings['a'])} < handle level {r}: not absorbable")
    return [[TORUS(r)]]


def _r12_back(bindings, kwargs, D):
    u = kwargs.get("unit")
    if u is None:
        raise _NoMatch("reverse R12 needs unit=")
    r = bindings["r"]
    if _level_key(level(u)) < _level_key(r):
        raise _NoMatch(f"unit level {level(u)} < handle level {r}")
    return [[TORUS(r)], [TWIST(u)]]


def _tw_insert_back(rows_builder):
    def build(bindings, kwargs, D):
        u = kwargs.get("unit")
        if u is None:
            raise _NoMatch("reverse direction needs unit=")
        return rows_builder(u)

    return build


RULES = {
    "R1": [
        RuleVariant(((_CAP, _I), (_M,)), _substituter([[_I]])),
        RuleVariant(((_I, _CAP), (_M,)), _substituter([[_I]])),
        RuleVariant(((_I,),), _substituter([[_CAP, _I], [_M]])),
    ],
    "R2": [
        RuleVariant(((_D,), (_I, _CUP)), _substituter([[_I]])),
        RuleVariant(((_D,), (_CUP, _I)), _substituter([[_I]])),
        RuleVariant(((_I,),), _substituter([[_D], [_I, _CUP]])),
    ],
    "R3": _both([[_M, _I], [_M]], [[_I, _M], [_M]]),
    "R4": _both([[_D], [_D, _I]], [[_D], [_I, _D]]),
    "R5": _both([[_M], [_D]], [[_I, _D], [_M, _I]])
    + [RuleVariant(((_D, _I), (_I, _M)), _substituter([[_M], [_D]]))],
    "R6": [
        RuleVariant(((_CAP,), (_tw("a"),)), _substituter([[_CAP]])),
        RuleVariant(((_CAP,),), _tw_insert_back(lambda u: [[CAP], [TWIST(u)]])),
    ],
    "R7": [
        RuleVariant(((_tw("a"),), (_CUP,)), _substituter([[_CUP]])),
        RuleVariant(((_CUP,),), _tw_insert_back(lambda u: [[TWIST(u)], [CUP]])),
    ],
    "R8": _both([[_tw("a"), _tw("a")], [_M]], [[_M], [_tw("a")]]),
    "R9": _both([[_tw("a")], [_D]], [[_D], [_tw("a"), _tw("a")]]),
    "R10": [
        RuleVariant(((_tor("r"),),), _r10_forward),
        RuleVariant(((_D,), (_tw("a"), _I), (_M,)), _r10_back),
        RuleVariant(((_D,), (_I, _tw("a")), (_M,)), _r10_back),
        RuleVariant(((_D,), (_M,)), _substituter([[_tor("inf_level")]])),
    ],
    "R11": [
        RuleVariant(((_tor("r"),), (_tor("s"),)), _r11_back),
        RuleVariant(((_tor("r"),), (_tor("s"),)), _r11_forward),
    ],
    "R12": [
        RuleVariant(((_tor("r"),), (_tw("a"),)), _r12_forward),
        RuleVariant(((_tw("a"),), (_tor("r"),)), _r12_forward),
        RuleVariant(((_tor("r"),),), _r12_back),
    ],
    "RS1": _both([[_SW], [_SW]], [[_I, _I]]),
    "RS2": _both([[_SW], [_M]], [[_M]]),
    "RS3": _both([[_D], [_SW]], [[_D]]),
    "RS4": _both([[_tw("a"), _tw("b")], [_SW]], [[_SW], [_tw("b"), _tw("a")]]),
    "RS5": _both([[_SW, _I], [_I, _SW], [_SW, _I]], [[_I, _SW], [_SW, _I], [_I, _SW]]),
}


def rule_ids():
    return sorted(RULES)


def _replace(D: Diagram, si: int, windows, rhs_rows) -> Diagram:
    k, m = len(windows), len(rhs_rows)
    new_slices = [list(sl) for sl in D.slices]
    for t in range(min(k, m)):
        a, b = windows[t]
        sl = new_slices[si + t]
        new_slices[si + t] = sl[:a] + list(rhs_rows[t]) + sl[b:]
    if m < k:
        pad_width = sum(t.arity[1] for t in rhs_rows[m - 1])
        for t in range(m, k):
            a, b = windows[t]
            sl = new_slices[si + t]
            new_slices[si + t] = sl[:a] + [CYL] * pad_width + sl[b:]
    elif m > k:
        a, b = windows[k - 1]
        sl = D.slices[si + k - 1]
        left = sum(t.arity[1] for t in sl[:a])
        right = sum(t.arity[1] for t in sl[b:])
        inserted = [[CYL] * left + list(rhs_rows[t]) + [CYL] * right for t in range(k, m)]
        new_slices = new_slices[: si + k] + inserted + new_slices[si + k :]
    new_slices = [tuple(sl) for sl in new_slices if sl and not all(t.kind == "id" for t in sl)]
    return Diagram(tuple(new_slices), D.in_arity if not new_slices else None)


def apply_relation(D: Diagram, rule_id: str, position, **kwargs) -> Diagram:
    """Rewrite D locally by one of R1–R12/RS1–RS5 at position = (slice, item).

    Either orientation of the rule is tried.  Expanding directions that
    introduce fresh data take keyword arguments: `unit=` (R6, R7, R12 reverse;
    optional for R10 forward), `level=` (R11 backward), `p=`/`precision=`
    (R10 forward on a diagram with no units in scope).
    """
    if rule_id not in RULES:
        raise ValidationError("bad-spec", f"unknown rule {rule_id!r}; known: {', '.join(rule_ids())}")
    W = D  # the word the patterns match: a sliceless identity becomes one slice of strands
    if not D.slices and D.in_arity:
        W = Diagram(((CYL,) * D.in_arity,))
    reasons = []
    for variant in RULES[rule_id]:
        try:
            bindings, windows = _match_at(W, variant.lhs, position)
            bindings.setdefault("inf_level", INF)
            rhs_rows = variant.build(bindings, kwargs, W)
        except _NoMatch as e:
            if str(e) not in reasons:
                reasons.append(str(e))
            continue
        result = _replace(W, position[0], windows, rhs_rows)
        if canonicalize(result) != canonicalize(D):  # D's own form, kept on it for the caller
            raise ComputationError(
                "invariant", f"rewrite {rule_id} at {position} changed the canonical form"
            )
        return result
    raise ValidationError(
        "pattern-mismatch", f"rule {rule_id} does not apply at {position}: " + "; ".join(reasons)
    )
