"""Brute-force enumeration twin of the counting formulas.

Everything here counts by direct iteration: tuples (x₁,y₁,…,xₙ,yₙ) in a finite
group are checked against the relator x₁^{p^r}·[x₁,y₁]⋯[xₙ,yₙ] = e one by one
(at r = INF the power factor is x₁⁰ = e, leaving a pure product of
commutators).  No character theory, no Möbius inversion — the point is that
these numbers are obtained by a route disjoint from `dw`, so agreement is
evidence rather than tautology.

The one blessed shortcut is the conjugation quotient: when nothing pins x₁,
the outer loop runs over class representatives and each hit counts with
multiplicity |class|.  Conjugating a whole tuple preserves the relator, every
boundary class, the generated subgroup's order, and surjectivity, so the
quotient is count-preserving.  `raw=True` turns it off (useful for timing the
honest full scan).

Budgets are enforced on the predicted loop count before any work starts; the
reported "scanned" figure is the logical search space the run accounts for,
which is the same with or without the conjugation quotient.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .dw import FREE, RelatorSpec
from .errors import ValidationError
from .pgroup import FiniteGroup, group_from_spec, is_power_of, unique_prime_factor
from .units import INF, level_from_json, p_power

DEFAULT_BUDGET = 10**8


def _resolved_budget(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("ARITH_TQFT_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class EnumerationTask:
    """One enumeration problem: a relator spec scanned over a target group.

    `boundary` prescribes conjugacy classes for designated generators, as a
    mapping from letter index (position in (x₁,y₁,…,xₙ,yₙ), or in the free
    generators) to a representative element; the constraint is membership in
    that element's class.  `p_image` additionally requires the generated
    subgroup to have p-power order.  `p` may be omitted when the target is a
    p-group; a finite relator level or a p-image check on a mixed-order group
    needs it spelled out.  `budget` caps the predicted loop count (default
    10^8, or the ARITH_TQFT_BUDGET environment variable); `raw` disables the
    conjugation quotient on x₁.
    """

    group: FiniteGroup
    spec: RelatorSpec
    p: int | None = None
    boundary: tuple = ()
    p_image: bool = False
    budget: int | None = None
    raw: bool = False

    def __post_init__(self):
        object.__setattr__(self, "group", group_from_spec(self.group))
        if not isinstance(self.spec, RelatorSpec):
            raise ValidationError("bad-spec", f"expected a RelatorSpec, got {type(self.spec).__name__}")
        bound = self.boundary
        if isinstance(bound, dict):
            bound = tuple(sorted(bound.items()))
        object.__setattr__(self, "boundary", tuple((int(i), int(g)) for i, g in bound))
        letters = self.spec.letters()
        for i, g in self.boundary:
            if not 0 <= i < letters:
                raise ValidationError("bad-spec", f"boundary index {i} outside the {letters} letters")
            if not 0 <= g < self.group.order:
                raise ValidationError("bad-spec", f"boundary element {g} outside the group")


def _task_p(task: EnumerationTask) -> int | None:
    """The prime the relator power and the p-image test refer to."""
    inferred = unique_prime_factor(task.group.order)
    if task.p is not None:
        if inferred is not None and task.p != inferred:
            raise ValidationError("bad-spec", f"p={task.p} clashes with the {inferred}-group target")
        return task.p
    return inferred


def _mul_tables(G: FiniteGroup):
    """(mul rows, commutator rows) as plain nested lists, cached per group."""
    key = ("oracle-tables",)
    if key not in G._cache:
        n = G.order
        rows = [[G.mul(a, b) for b in range(n)] for a in range(n)]
        comm = [[G.commutator(a, b) for b in range(n)] for a in range(n)]
        G._cache[key] = (rows, comm)
    return G._cache[key]


def _power_table(G: FiniteGroup, exponent: int):
    key = ("oracle-powers", exponent % max(G.exponent(), 1))
    if key not in G._cache:
        G._cache[key] = [G.power(a, exponent) for a in range(G.order)]
    return G._cache[key]


def _closure_size(G: FiniteGroup, elements) -> int:
    cache = G._cache.setdefault(("closure-sizes",), {})
    key = frozenset(elements)
    if key not in cache:
        cache[key] = len(G.closure(key))
    return cache[key]


def _scan(task: EnumerationTask, need_epi: bool):
    """Core enumeration; returns (count, scanned).

    `scanned` is the number of tuples the run accounts for: the product of the
    candidate-set sizes, independent of the conjugation quotient.
    """
    G, spec = task.group, task.spec
    N, ident = G.order, G.identity
    letters = spec.letters()
    conj = G.conjugacy_classes()
    bound = dict(task.boundary)
    p = _task_p(task)
    if task.p_image and p is None:
        raise ValidationError("bad-spec", "a p-image restriction on a mixed-order group needs an explicit p")

    if not spec.is_free and spec.r != INF and p is None:
        raise ValidationError("bad-spec", "a finite relator level on a mixed-order group needs an explicit p")

    cand = []
    for idx in range(letters):
        if idx in bound:
            cls = conj.class_of[bound[idx]]
            cand.append([x for x in range(N) if conj.class_of[x] == cls])
        else:
            cand.append(list(range(N)))
    scanned = 1
    for c in cand:
        scanned *= len(c)

    need_tuple = need_epi or task.p_image
    plain_free = spec.is_free and not need_tuple
    if plain_free:
        return scanned, scanned  # no relator, class constraints are already per-letter

    use_reps = letters > 0 and not task.raw and 0 not in bound
    if use_reps:
        outer = [(conj.reps[i], conj.sizes[i]) for i in range(len(conj))]
    else:
        outer = [(x, 1) for x in cand[0]] if letters else []
    predicted = len(outer)
    for c in cand[1:]:
        predicted *= len(c)
    budget = _resolved_budget(task.budget)
    if predicted > budget:
        raise ValidationError(
            "budget-exceeded",
            f"scan needs {predicted} loop steps; raise the budget to at least {predicted} (configured {budget})",
        )

    def accept(chosen) -> int:
        if task.p_image and not is_power_of(_closure_size(G, chosen), p):
            return 0
        if need_epi and _closure_size(G, chosen) != N:
            return 0
        return 1

    if letters == 0:
        return accept(()) , scanned

    rows, comm = _mul_tables(G)
    total = 0

    if spec.is_free:
        # constraint-only scan: every tuple satisfies the (absent) relator
        for x1, mult in outer:
            for rest in product(*cand[1:]):
                total += mult * accept((x1, *rest))
        return total, scanned

    xp = _power_table(G, p_power(p, spec.r)) if spec.r != INF else None
    n = spec.n

    if n == 1:
        y_cands = cand[1]
        for x1, mult in outer:
            head = rows[xp[x1]] if xp is not None else rows[ident]
            cx = comm[x1]
            if need_tuple:
                for y1 in y_cands:
                    if head[cx[y1]] == ident:
                        total += mult * accept((x1, y1))
            else:
                total += mult * sum(1 for y1 in y_cands if head[cx[y1]] == ident)
        return total, scanned

    def descend(pair: int, prefix: int, chosen: tuple, mult: int):
        nonlocal total
        xs, ys = cand[2 * pair], cand[2 * pair + 1]
        if pair == n - 1:
            prow = rows[prefix]
            for x in xs:
                cx = comm[x]
                if need_tuple:
                    for y in ys:
                        if prow[cx[y]] == ident:
                            total += mult * accept(chosen + (x, y))
                else:
                    total += mult * sum(1 for y in ys if prow[cx[y]] == ident)
            return
        prow = rows[prefix]
        for x in xs:
            cx = comm[x]
            for y in ys:
                descend(pair + 1, prow[cx[y]], chosen + (x, y), mult)

    for x1, mult in outer:
        start = xp[x1] if xp is not None else ident
        cx = comm[x1]
        srow = rows[start]
        for y1 in cand[1]:
            descend(1, srow[cx[y1]], (x1, y1), mult)
    return total, scanned


def count_solutions(task: EnumerationTask) -> int:
    """Number of tuples satisfying the relator (and any boundary/p-image constraints)."""
    return _scan(task, need_epi=False)[0]


def count_epis(task: EnumerationTask) -> int:
    """As count_solutions, but the tuple must generate the full target group."""
    return _scan(task, need_epi=True)[0]


def run_task(task, mode: str | None = None) -> dict:
    """Batch entry point: run one task and report {"count", "scanned", "seconds"}."""
    if isinstance(task, dict):
        task, json_mode = task_from_json(task)
        mode = mode or json_mode
    start = time.perf_counter()
    count, scanned = _scan(task, need_epi=(mode == "epis"))
    return {"count": count, "scanned": scanned, "seconds": time.perf_counter() - start}


def task_from_json(obj: dict):
    """Decode a task description; returns (task, mode) with mode "solutions" or "epis"."""
    if "group" not in obj or "spec" not in obj:
        raise ValidationError("bad-spec", "a task needs at least \"group\" and \"spec\"")
    spec_obj = obj["spec"]
    if isinstance(spec_obj, dict) and "free" in spec_obj:
        spec = FREE(int(spec_obj["free"]))
    elif isinstance(spec_obj, dict):
        spec = RelatorSpec(int(spec_obj["n"]), level_from_json(spec_obj["r"]))
    else:
        raise ValidationError("bad-spec", f"unrecognized spec {spec_obj!r}")
    boundary = obj.get("boundary") or {}
    if isinstance(boundary, dict):
        boundary = {int(k): int(v) for k, v in boundary.items()}
    task = EnumerationTask(
        group=group_from_spec(obj["group"]),
        spec=spec,
        p=obj.get("p"),
        boundary=boundary,
        p_image=bool(obj.get("p_image", False)),
        budget=obj.get("budget"),
        raw=bool(obj.get("raw", False)),
    )
    return task, ("epis" if obj.get("epis") else "solutions")


# -- decorated generator entries ---------------------------------------------------------


def _pants_table(G: FiniteGroup):
    """raw[i][j][m] = #{(x,y) ∈ K_i×K_j : xy ∈ K_m}, one pass over Γ²."""
    key = ("oracle-pants",)
    if key not in G._cache:
        conj = G.conjugacy_classes()
        k, N = len(conj), G.order
        cls = conj.class_of
        rows, _ = _mul_tables(G)
        table = [[[0] * k for _ in range(k)] for _ in range(k)]
        for x in range(N):
            ci, row = cls[x], rows[x]
            for y in range(N):
                table[ci][cls[y]][cls[row[y]]] += 1
        G._cache[key] = table
    return G._cache[key]


def _torus_table(G: FiniteGroup, r):
    """raw[i][o] = #{(x,a,b) ∈ K_i×Γ² : x·a^{p^r}·[a,b] ∈ K_o}, one pass over Γ³."""
    p = unique_prime_factor(G.order)
    if p is None:
        raise ValidationError("bad-spec", "decorated torus counts need a p-group target")
    q = p_power(p, r) % G.exponent()
    key = ("oracle-torus", q)
    if key not in G._cache:
        conj = G.conjugacy_classes()
        k, N = len(conj), G.order
        cls = conj.class_of
        rows, comm = _mul_tables(G)
        xq = _power_table(G, q)
        table = [[0] * k for _ in range(k)]
        for a in range(N):
            qa_row, ca = rows[xq[a]], comm[a]
            for b in range(N):
                core = qa_row[ca[b]]
                for x in range(N):
                    table[cls[x]][cls[rows[x][core]]] += 1
        G._cache[key] = table
    return G._cache[key]


def _class_tuple(G: FiniteGroup, data, want: int, side: str):
    conj = G.conjugacy_classes()
    ids = (data,) if isinstance(data, int) else tuple(data)
    if len(ids) != want:
        raise ValidationError("bad-spec", f"{side} side wants {want} class(es), got {len(ids)}")
    for c in ids:
        if not isinstance(c, int) or not 0 <= c < len(conj):
            raise ValidationError("bad-spec", f"{c!r} is not a class id of the target group")
    return ids


def decorated_generator_count(G, token, p1, p2) -> Fraction:
    """Exact bundle-count entry of one generator cobordism between decorated boundaries.

    `p1`/`p2` are conjugacy-class ids for the incoming/outgoing circles.  The
    weight of each bundle is |Aut(p₂)|/|Aut(p)|; summed over the groupoid this
    collapses to (Π_out |centralizer|)·(raw hom count)/|Γ|, which is what the
    tabulated scans compute.
    """
    G = group_from_spec(G)
    conj = G.conjugacy_classes()
    N = G.order
    budget = _resolved_budget(None)
    kind = getattr(token, "kind", None)
    if kind == "m":
        if N * N > budget:
            raise ValidationError("budget-exceeded", f"Γ² scan needs {N * N} steps over budget {budget}")
        (i, j), (m,) = _class_tuple(G, p1, 2, "incoming"), _class_tuple(G, p2, 1, "outgoing")
        raw = _pants_table(G)[i][j][m]
        return Fraction(conj.centralizers[m] * raw, N)
    if kind == "d":
        if N * N > budget:
            raise ValidationError("budget-exceeded", f"Γ² scan needs {N * N} steps over budget {budget}")
        (i,), (a, c) = _class_tuple(G, p1, 1, "incoming"), _class_tuple(G, p2, 2, "outgoing")
        raw = _pants_table(G)[a][c][i]
        return Fraction(conj.centralizers[a] * conj.centralizers[c] * raw, N)
    if kind == "tor":
        if N**3 > budget:
            raise ValidationError("budget-exceeded", f"Γ³ scan needs {N ** 3} steps over budget {budget}")
        (i,), (o,) = _class_tuple(G, p1, 1, "incoming"), _class_tuple(G, p2, 1, "outgoing")
        raw = _torus_table(G, token.level)[i][o]
        return Fraction(conj.centralizers[o] * raw, N)
    raise ValidationError("unknown-token", f"decorated counts cover P21, P12 and TORUS(r), not {token!r}")
