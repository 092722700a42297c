"""Brute-force twin of the counting formulas: counts read off the Cayley table.

A tuple (x₁,y₁,…,xₙ,yₙ) of a finite group solves the relator
x₁^{p^r}·[x₁,y₁]⋯[xₙ,yₙ] = e (at r = INF the power factor is x₁⁰ = e, leaving
a pure product of commutators) when its last prefix product is e.  So the
count needs only the value of each prefix: it is a dynamic program over the
letter pairs, which carries the number of prefixes with each value from pair
to pair and reads the number at e.  That is the sum over every tuple, grouped
by associativity.  It reads only `G.table`: no character theory, no Möbius
inversion.  These numbers are obtained by a route disjoint from `dw`, so
agreement is evidence rather than tautology.

The epi and p-image tests need the order of the subgroup a tuple generates.
There the state is (subgroup id, prefix value): the subgroup generated by the
letters chosen so far, extended one letter at a time, ⟨H, x⟩, through a memo
that runs `FiniteGroup.closure` once per (subgroup, element) pair.  A p-image
state whose subgroup is not a p-group is dropped at once, since the
generated subgroup only grows.  A free spec runs the same program one letter
at a time, with no prefix value.

The budget caps the program's work: states × letter choices summed over the
pairs, checked before each pair allocates anything, plus, in a count that
tracks subgroups, each state's fold, target subgroups × N², checked before
the fold runs.  The reported "scanned" figure is the number of tuples the
count accounts for.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dw import FREE, RelatorSpec
from .errors import INT_EXACT, ValidationError, check_dense
from .pgroup import FiniteGroup, group_from_spec, is_power_of, unique_prime_factor
from .units import INF, level_from_json, p_power

DEFAULT_BUDGET = 10**8
_TASK_KEYS = ("group", "spec", "p", "boundary", "p_image", "budget", "epis")


def _resolved_budget(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("ARITH_TQFT_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class EnumerationTask:
    """One enumeration problem: a relator spec counted over a target group.

    `boundary` prescribes conjugacy classes for designated generators, as a
    mapping from letter index (position in (x₁,y₁,…,xₙ,yₙ), or in the free
    generators) to a representative element; the constraint is membership in
    that element's class.  `p_image` additionally requires the generated
    subgroup to have p-power order.  `p` may be omitted when the target is a
    p-group; a finite relator level or a p-image check on a mixed-order group
    needs it spelled out.  `budget` caps the count's work (default 10^8, or
    the ARITH_TQFT_BUDGET environment variable).
    """

    group: FiniteGroup
    spec: RelatorSpec
    p: int | None = None
    boundary: tuple = ()
    p_image: bool = False
    budget: int | None = None

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


def _commutators(G: FiniteGroup) -> np.ndarray:
    """comm[a, b] = [a, b] = (ab)·(a⁻¹b⁻¹) for every pair, by one gather."""
    t, inv = G.table, np.array(G.inverse)
    return t[t, t[inv][:, inv]]


def _powers(G: FiniteGroup, k: int) -> np.ndarray:
    """x^k for every element x."""
    return np.array([G.power(a, k) for a in range(G.order)], dtype=np.int64)


def _pair_values(G: FiniteGroup, comm, head, xs, ys) -> np.ndarray:
    """head[x]·[x, y] for every x ∈ xs and y ∈ ys, as a (len(xs), len(ys)) array."""
    return G.table[head[xs][:, None], comm[np.ix_(xs, ys)]]


class _Joins:
    """Subgroups met by one count, as integer ids, with a memo of ⟨H, x⟩.

    `join(hs, xs)` gives the id of ⟨h, x⟩ for each pair of subgroup id h and
    element x, or -1 where h is -1 or ⟨h, x⟩ fails the count's `keep` test
    on its order.  The first time a pair comes up, `G.closure` runs on the
    generators that first produced h plus x, and the answer is stored for the
    whole coset H·x, as ⟨H, hx⟩ = ⟨H, x⟩.  Id 0 is the trivial subgroup, and
    `members[h]` holds the elements of subgroup h.
    """

    def __init__(self, G: FiniteGroup, keep):
        self.G = G
        self.keep = keep
        self.ids: dict = {}
        self.gens: list = []
        self.members: list = []
        self.rows: list = []  # rows[h][x]: the id of ⟨h, x⟩, -2 until asked for
        self._register(frozenset((G.identity,)), ())

    def _register(self, elements: frozenset, gens: tuple) -> int:
        h = self.ids.get(elements)
        if h is None:
            h = self.ids[elements] = len(self.gens)
            self.gens.append(gens)
            self.members.append(np.fromiter(elements, dtype=np.int64))
            self.rows.append(None)
        return h if self.keep(len(elements)) else -1

    def join(self, hs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        out = np.full(len(xs), -1)
        for h in np.unique(hs[hs >= 0]).tolist():
            if self.rows[h] is None:
                self.rows[h] = np.full(self.G.order, -2)
                self.rows[h][self.members[h]] = h
            row, at = self.rows[h], np.flatnonzero(hs == h)
            for x in np.unique(xs[at][row[xs[at]] == -2]).tolist():
                if row[x] == -2:  # not filled by the coset of an earlier x
                    gens = self.gens[h] + (x,)
                    row[self.G.table[self.members[h], x]] = self._register(self.G.closure(gens), gens)
            out[at] = row[xs[at]]
        return out


def _scan(task: EnumerationTask, need_epi: bool):
    """Core count, a dynamic program over the letter pairs; returns (count, scanned).

    `scanned` is the number of tuples the count accounts for: the product of
    the candidate-set sizes.  `states` maps a subgroup id (always 0 when no
    subgroup is tracked) to the vector v of prefix counts by value.  A pair's
    letter choices of value w that take subgroup h to subgroup j are tallied
    in c_j(w), by one bincount, and fold into v′_j(g·w) += v_h(g)·c_j(w): one
    product of the tally with v_h(g·w⁻¹).  Only the count at e is read after
    the last pair, so there a choice of value w is joined only when some
    prefix has value w⁻¹.  Counts are int64 while the tuples chosen so far
    number below 2⁶³, and exact Python integers past that.
    """
    G, spec = task.group, task.spec
    N = G.order
    p = _task_p(task)
    if task.p_image and p is None:
        raise ValidationError("bad-spec", "a p-image restriction on a mixed-order group needs an explicit p")
    if not spec.is_free and spec.r != INF and p is None:
        raise ValidationError("bad-spec", "a finite relator level on a mixed-order group needs an explicit p")

    cls = np.array(G.conjugacy_classes().class_of)
    bound = dict(task.boundary)
    cand = [np.flatnonzero(cls == cls[bound[i]]) if i in bound else np.arange(N) for i in range(spec.letters())]
    scanned = 1
    for c in cand:
        scanned *= len(c)
    need_tuple = need_epi or task.p_image
    if spec.is_free and not need_tuple:
        return scanned, scanned  # no relator, class constraints are already per-letter

    if spec.is_free:  # one letter a step and no prefix value: every value is 0, of a one-element group
        steps, e, inv = [(c, None) for c in cand], 0, np.zeros(1, dtype=np.int64)
        right = inv[:, None]
    else:
        steps, e, inv = [(cand[i], cand[i + 1]) for i in range(0, len(cand), 2)], G.identity, np.array(G.inverse)
        comm, plain = _commutators(G), np.full(N, e)
        first = _powers(G, p_power(p, spec.r) % G.exponent())
        right = G.table[:, inv].T  # right[w, g] = g·w⁻¹
    joins = None
    if need_tuple:
        joins = _Joins(G, (lambda size: is_power_of(size, p)) if task.p_image else (lambda size: True))
    budget = _resolved_budget(task.budget)
    v = np.zeros(len(inv), dtype=np.int64)
    v[e] = 1
    states, work, tuples = {0: v}, 0, 1

    def charge(cost: int, i: int):
        nonlocal work
        work += cost
        if work > budget:
            raise ValidationError(
                "budget-exceeded",
                f"the count's work reaches {work} steps at step {i + 1} of {len(steps)}, over the budget {budget}",
            )

    for i, (xs, ys) in enumerate(steps):
        choices = len(xs) * (1 if ys is None else len(ys))
        charge(len(states) * choices, i)
        if ys is None:
            values = np.zeros(len(xs), dtype=np.int64)
        else:
            values = _pair_values(G, comm, first if i == 0 else plain, xs, ys)
        tuples *= choices
        if tuples >= INT_EXACT:
            states = {h: v.astype(object) for h, v in states.items()}
        folded: dict = {}
        for h, v in states.items():
            if joins is None:
                ids, key = (0,), values.ravel()
            else:
                live = v[inv[values]] != 0 if i == len(steps) - 1 else np.ones(values.shape, dtype=bool)
                at = np.nonzero(live)
                J = np.full(values.shape, -1)
                J[at] = joins.join(np.full(len(xs), h), xs)[at[0]]
                if ys is not None:
                    J[at] = joins.join(J[at], ys[at[1]])
                ids, where = np.unique(J[J >= 0], return_inverse=True)
                key = where * len(inv) + values[J >= 0]
                ids = ids.tolist()
                charge(len(ids) * len(inv) ** 2, i)  # the fold below: one (ids × N) by (N × N) product
            tally = np.bincount(key, minlength=len(ids) * len(inv)).reshape(len(ids), len(inv))
            for j, w in zip(ids, tally @ v[right]):
                folded[j] = folded[j] + w if j in folded else w
        states = folded
    hits = [v[e] for h, v in states.items() if not need_epi or len(joins.members[h]) == N]
    return int(sum(hits)), scanned


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
    unknown = sorted(set(obj) - set(_TASK_KEYS))
    if unknown:
        raise ValidationError(
            "bad-spec", f"unknown task key(s) {', '.join(map(repr, unknown))}; known: {', '.join(_TASK_KEYS)}"
        )
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
    )
    return task, ("epis" if obj.get("epis") else "solutions")


# -- decorated generator entries ---------------------------------------------------------


def _pants_table(G: FiniteGroup):
    """hits[i][j][m] = #{(x,y) ∈ K_i×K_j : xy ∈ K_m}, one pass over Γ²."""
    key = ("oracle-pants",)
    if key not in G._cache:
        conj = G.conjugacy_classes()
        k = len(conj)
        check_dense("the decorated pants table", k**3)
        cls = np.array(conj.class_of, dtype=np.int64)
        cell = (cls[:, None] * k + cls[None, :]) * k + cls[G.table]  # the (i, j, m) of every pair (x, y)
        G._cache[key] = np.bincount(cell.ravel(), minlength=k**3).reshape(k, k, k).tolist()
    return G._cache[key]


def _torus_table(G: FiniteGroup, r):
    """hits[i][o] = #{(x,a,b) ∈ K_i×Γ² : x·a^{p^r}·[a,b] ∈ K_o}.

    With c(w) = #{(a, b) : a^{p^r}·[a,b] = w}, the tally of one relator pair,
    hits[i][o] = Σ_{x∈K_i} Σ_w c(w)·[x·w ∈ K_o]: one pass over Γ².
    """
    p = unique_prime_factor(G.order)
    if p is None:
        raise ValidationError("bad-spec", "decorated torus counts need a p-group target")
    q = p_power(p, r) % G.exponent()
    key = ("oracle-torus", q)
    if key not in G._cache:
        conj = G.conjugacy_classes()
        k, N = len(conj), G.order
        cls = np.array(conj.class_of, dtype=np.int64)
        every = np.arange(N)
        c = np.bincount(_pair_values(G, _commutators(G), _powers(G, q), every, every).ravel(), minlength=N)
        hits = np.zeros(k * k, dtype=np.int64)
        np.add.at(hits, (cls[:, None] * k + cls[G.table]).ravel(), np.tile(c, N))
        G._cache[key] = hits.reshape(k, k).tolist()
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
    collapses to (Π_out |centralizer|)·(plain hom count)/|Γ|, which is what the
    tabulated counts compute.
    """
    G = group_from_spec(G)
    conj = G.conjugacy_classes()
    N = G.order
    kind = getattr(token, "kind", None)
    if kind not in ("m", "d", "tor"):
        raise ValidationError("unknown-token", f"decorated counts cover P21, P12 and TORUS(r), not {token!r}")
    budget = _resolved_budget(None)
    if N * N > budget:
        raise ValidationError("budget-exceeded", f"Γ² scan needs {N * N} steps over budget {budget}")
    if kind == "m":
        (i, j), (m,) = _class_tuple(G, p1, 2, "incoming"), _class_tuple(G, p2, 1, "outgoing")
        return Fraction(conj.centralizers[m] * _pants_table(G)[i][j][m], N)
    if kind == "d":
        (i,), (a, c) = _class_tuple(G, p1, 1, "incoming"), _class_tuple(G, p2, 2, "outgoing")
        return Fraction(conj.centralizers[a] * conj.centralizers[c] * _pants_table(G)[a][c][i], N)
    (i,), (o,) = _class_tuple(G, p1, 1, "incoming"), _class_tuple(G, p2, 1, "outgoing")
    return Fraction(conj.centralizers[o] * _torus_table(G, token.level)[i][o], N)
