"""Brute-force twin of the counting formulas: counts read off the Cayley table.

A tuple (x₁,y₁,…,xₙ,yₙ) of a finite group solves the relator
x₁^{p^r}·[x₁,y₁]⋯[xₙ,yₙ] = e (at r = INF the power factor is x₁⁰ = e, leaving
a pure product of commutators) when its last prefix product is e.  So the
count needs only the value of each prefix: it is a dynamic program over the
letter pairs, which carries the number of prefixes with each value from pair
to pair and reads the number at e.  That is the sum over every tuple, grouped
by associativity.  Each step does only what the answer reads: the first
pair's tallies are the states themselves, a middle pair folds its tally into
them, and the last pair sums, over its letter choices, the prefixes that the
choice takes to e.  It reads only `G.table`: no character theory, no Möbius
inversion.  These numbers are obtained by a route disjoint from `dw`, so
agreement is evidence rather than tautology.

The epi and p-image tests need the order of the subgroup a tuple generates.
There the state is (subgroup id, prefix value): the subgroup generated by the
letters chosen so far, extended one letter at a time, ⟨H, x⟩, through a dense
memo with a row for each subgroup joined from, filled by `FiniteGroup.closure`
at most once per (subgroup, element) pair, each closure filling a whole double
coset.  A p-image state whose subgroup is not a p-group is dropped at once,
since the generated subgroup only grows.  A free spec runs the same program one letter
at a time, with no prefix value.

The budget caps the program's work: states × letter choices summed over the
pairs, checked before each pair allocates anything, plus, in a count that
tracks subgroups, each state's fold, target subgroups × N², checked before
the fold runs.  The last pair runs no fold but is still charged for one, so
the figures stay those of the fold model and overstate that pair's work.
The reported "scanned" figure is the number of tuples the count accounts for.

Decorated bundle counts read the one entry they return, and the budget is
charged what each reads: a pair of pants gathers the table over K_i×K_j, a
handle tallies one relator pair over Γ².
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dw import FREE, RelatorSpec
from .errors import INT_EXACT, MAX_DENSE_ENTRIES, ValidationError, check_dense, check_int
from .pgroup import FiniteGroup, group_from_spec, is_power_of, is_prime, unique_prime_factor
from .units import INF, level_from_json, p_power

DEFAULT_BUDGET = 10**8
BLOCK_ENTRIES = 1 << 18  # (state, letter choice) entries a step holds at once, or one state's choices
_TASK_KEYS = ("group", "spec", "p", "boundary", "p_image", "budget", "epis")


def _resolved_budget(value) -> int:
    if value is not None:
        return check_int(value, "budget")
    env = os.environ.get("ARITH_TQFT_BUDGET")
    return check_int(env, "ARITH_TQFT_BUDGET") if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class EnumerationTask:
    """One enumeration problem: a relator spec counted over a target group.

    `boundary` prescribes conjugacy classes for designated generators, as a
    mapping from letter index (position in (x₁,y₁,…,xₙ,yₙ), or in the free
    generators) to a representative element; the constraint is membership in
    that element's class.  `p_image` additionally requires the generated
    subgroup to have p-power order.  `p` may be omitted when the target is a
    p-group; a finite relator level or a p-image check on a mixed-order group
    needs it spelled out, and it must be a prime.  `budget` caps the count's
    work (default 10^8, or the ARITH_TQFT_BUDGET environment variable).
    Indices, elements, p and the budget are integers, or strings of one.
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
        if self.p is not None:
            object.__setattr__(self, "p", check_int(self.p, "p"))
            if not is_prime(self.p):
                raise ValidationError("bad-spec", f"p={self.p} is not a prime")
        if self.budget is not None:
            object.__setattr__(self, "budget", check_int(self.budget, "budget"))
        bound = self.boundary
        try:
            pairs = [
                (check_int(i, "a boundary index"), check_int(g, "a boundary element"))
                for i, g in (bound.items() if isinstance(bound, dict) else bound)
            ]
        except (TypeError, ValueError):  # neither a mapping nor pairs
            raise ValidationError("bad-spec", f"a boundary maps letter indices to elements, got {bound!r}") from None
        object.__setattr__(self, "boundary", tuple(sorted(pairs) if isinstance(bound, dict) else pairs))
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


def _pair_values(G: FiniteGroup, comm, head, xs, ys) -> np.ndarray:
    """head[x]·[x, y] for every x ∈ xs and y ∈ ys, as a (len(xs), len(ys)) array; no head is x⁰ = e."""
    values = comm[np.ix_(xs, ys)]
    return values if head is None else G.table[head[xs][:, None], values]


class _Joins:
    """Subgroups met by one count, as integer ids, with a dense memo of ⟨H, x⟩.

    `memo[row[h], x]` is the id of ⟨H, x⟩ for a subgroup id h and an element
    x: -1 until known, and 0 where ⟨H, x⟩ fails the count's `keep` test on
    its order.  Id 0 is that dead subgroup, whose row 0 is all 0, so a dead
    state stays dead through every gather; id 1 is the trivial subgroup, and
    `whole` is the id of the whole group once met.  A subgroup gets a memo row
    of its own the first time it is joined from; until then its row is row 1,
    which stays all -1.  The rows double as they fill, up to the dense bound.
    A pair still unknown when asked for runs `G.closure` once, on the
    generators that first produced H plus x, and its answer is stored for
    every y in the double coset H·{x^u : gcd(u, m) = 1}·H, where x^m is the
    first power of x in H: ⟨H, y⟩ = ⟨H, x⟩ for all of them, as x is a power
    of x^u times a power of x^m.  That is at most N·|H| entries a fill.
    """

    def __init__(self, G: FiniteGroup, keep):
        self.G = G
        self.keep = keep
        self.ids: dict = {}
        self.sets: list = [frozenset()]  # sets[h]: the elements of subgroup h
        self.gens: list = [()]
        self.members: dict = {}  # the elements of each subgroup with a row, as an array
        self.row = np.ones(4, dtype=np.int64)
        self.row[0] = 0
        self.memo = np.full((4, G.order), -1)
        self.memo[0] = 0
        self.rows_used = 2
        self.whole = -1
        self._register(frozenset((G.identity,)), ())

    def _register(self, elements: frozenset, gens: tuple) -> int:
        if not self.keep(len(elements)):
            return 0
        h = self.ids.get(elements)
        if h is None:
            h = self.ids[elements] = len(self.gens)
            self.sets.append(elements)
            self.gens.append(gens)
            if h == len(self.row):
                self.row = np.concatenate([self.row, np.ones_like(self.row)])
            if len(elements) == self.G.order:
                self.whole = h
        return h

    def _give_row(self, h: int):
        r, n = self.rows_used, self.G.order
        if r == len(self.memo):
            grown = max(r + 1, min(2 * r, MAX_DENSE_ENTRIES // n))
            check_dense("the oracle's join memo", grown * n)
            self.memo = np.concatenate([self.memo, np.full((grown - r, n), -1)])
        self.rows_used, self.row[h] = r + 1, r
        H = self.members[h] = np.fromiter(self.sets[h], dtype=np.int64, count=len(self.sets[h]))
        self.memo[r, H] = h

    def _fill(self, h: int, r: int, x: int):
        G = self.G
        gens, t, n = self.gens[h] + (x,), G._t, G.order
        joined = self._register(G.closure(gens), gens)
        cycle = [x]  # cycle[u − 1] = x^u, ending at x^m, the first power in H (memo[r, y] = h just for y ∈ H)
        while self.memo.item(r, cycle[-1]) != h:
            cycle.append(t[cycle[-1] * n + x])
        ends = [y for u, y in enumerate(cycle, 1) if math.gcd(u, len(cycle)) == 1]
        left = G.table[self.members[h][:, None], ends]  # φ(m) disjoint cosets H·x^u: at most N elements
        self.memo[r, G.table[left[..., None], self.members[h]]] = joined

    def join(self, hs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """The id of ⟨H, x⟩ for each subgroup id h in hs and element x in xs, broadcast together."""
        out = self.memo[self.row[hs], xs]
        miss = out < 0
        if miss.any():
            hs, xs = (a[miss] for a in np.broadcast_arrays(hs, xs))
            ph, px = np.divmod(np.unique(hs * self.G.order + xs), self.G.order)
            for h in dict.fromkeys(ph[self.row[ph] == 1].tolist()):  # the subgroups joined from for the first time
                self._give_row(h)
            for h, r, x in zip(ph.tolist(), self.row[ph].tolist(), px.tolist()):
                if self.memo.item(r, x) < 0:  # not filled by the double coset of an earlier pair
                    self._fill(h, r, x)
            out[miss] = self.memo[self.row[hs], xs]
        return out


def _scan(task: EnumerationTask, need_epi: bool):
    """Core count, a dynamic program over the letter pairs; returns (count, scanned).

    `scanned` is the number of tuples the count accounts for: the product of
    the candidate-set sizes.  The states are rows V[s] of prefix counts by
    value, one per subgroup id hs[s] (a single row when no subgroup is
    tracked).  A pair's letter choices of value w that take subgroup h to
    subgroup j are tallied in c_j(w), by one bincount, and fold into
    v′_j(g·w) += v_h(g)·c_j(w): one product of the tally with v_h(g·w⁻¹).
    The first pair starts from v = δ_e, so its tallies are the new states.
    After the last pair only the count at e is read: the sum of V[s, w⁻¹]
    over the choices of value w whose subgroup passes, joined only where
    V[s, w⁻¹] is not 0.  States go in blocks of at most `BLOCK_ENTRIES`
    (state, choice) entries.  Counts are int64 while the tuples chosen so far
    number below 2⁶³, and exact Python integers past that.
    """
    G, spec = task.group, task.spec
    N = G.order
    p = _task_p(task)
    if task.p_image and p is None:
        raise ValidationError("bad-spec", "a p-image restriction on a mixed-order group needs an explicit p")
    if not spec.is_free and spec.r != INF and p is None:
        raise ValidationError("bad-spec", "a finite relator level on a mixed-order group needs an explicit p")

    bound = dict(task.boundary)
    cls = np.array(G.conjugacy_classes().class_of) if bound else None
    cand = [np.flatnonzero(cls == cls[bound[i]]) if i in bound else np.arange(N) for i in range(spec.letters())]
    scanned = math.prod(len(c) for c in cand)
    need_tuple = need_epi or task.p_image
    if spec.is_free and not need_tuple:
        return scanned, scanned  # no relator, class constraints are already per-letter
    if not cand:  # the empty tuple, which generates the trivial group
        return int(not need_epi or N == 1), scanned

    if spec.is_free:  # one letter a step and no prefix value: every value is 0, of a one-element group
        steps, e, inv, head = [(c, None) for c in cand], 0, np.zeros(1, dtype=np.int64), None
    else:
        steps, e, inv = [(cand[i], cand[i + 1]) for i in range(0, len(cand), 2)], G.identity, np.array(G.inverse)
        comm, q = _commutators(G), p_power(p, spec.r) % G.exponent()
        head = G.powers(q) if q else None
    M = len(inv)
    joins = None
    if need_tuple:
        joins = _Joins(G, (lambda size: is_power_of(size, p)) if task.p_image else (lambda size: True))
    budget = _resolved_budget(task.budget)
    hs, V = np.ones(1, dtype=np.int64), np.zeros((1, M), dtype=np.int64)
    V[0, e] = 1
    work, tuples, right = 0, 1, None

    def charge(cost: int, i: int):
        nonlocal work
        work += cost
        if work > budget:
            raise ValidationError(
                "budget-exceeded",
                f"the count's work reaches {work} steps at step {i + 1} of {len(steps)}, over the budget {budget}",
            )

    def fold(tally, v):
        nonlocal right
        if right is None:
            right = G.table[:, inv].T if M > 1 else inv[:, None]  # right[w, g] = g·w⁻¹
        return tally @ v[right]

    def pair(i: int, xs, ys):
        """Charge the pair's letter choices from every state; return its values and the states per block."""
        nonlocal V, tuples
        choices = len(xs) * (1 if ys is None else len(ys))
        charge(len(V) * choices, i)
        tuples *= choices
        if tuples >= INT_EXACT and V.dtype != object:
            V = V.astype(object)
        if ys is None:
            values = np.zeros((len(xs), 1), dtype=np.int64)
        else:
            values = _pair_values(G, comm, head if i == 0 else None, xs, ys)
        return values, max(1, BLOCK_ENTRIES // values.size)

    for i, (xs, ys) in enumerate(steps[:-1]):
        values, rows = pair(i, xs, ys)
        if joins is None:
            tally = np.bincount(values.ravel(), minlength=M)[None]
            V = tally if i == 0 else fold(tally, V[0])
            continue
        folded: dict = {}
        for lo in range(0, len(V), rows):
            J = joins.join(hs[lo : lo + rows, None], xs)
            J = joins.join(J[:, :, None], ys) if ys is not None else J[:, :, None]
            for s, Js in enumerate(J, lo):
                alive = Js > 0
                ids, where = np.unique(Js[alive], return_inverse=True)
                charge(len(ids) * M**2, i)  # the fold below: one (ids × N) by (N × N) product
                tally = np.bincount(where * M + values[alive], minlength=len(ids) * M).reshape(len(ids), M)
                for j, w in zip(ids.tolist(), tally if i == 0 else fold(tally, V[s])):
                    folded[j] = folded[j] + w if j in folded else w
        hs = np.fromiter(folded, dtype=np.int64, count=len(folded))
        V = np.stack(list(folded.values())) if folded else np.zeros((0, M), dtype=V.dtype)

    i, (xs, ys) = len(steps) - 1, steps[-1]
    values, rows = pair(i, xs, ys)
    if joins is None:
        return int(np.bincount(values.ravel(), minlength=M) @ V[0][inv]), scanned
    completes, count = inv[values], 0
    for lo in range(0, len(V), rows):
        W = V[lo : lo + rows][:, completes]  # W[s, a, b]: the prefixes that the choice (a, b) takes to e
        s, a, b = np.nonzero(W)
        J = joins.join(hs[lo + s], xs[a])
        if ys is not None:
            J = joins.join(J, ys[b])
        alive, kinds = J > 0, len(joins.gens)
        reached = np.unique(s[alive] * kinds + J[alive]) // kinds  # the state of each (state, subgroup) reached
        for ids in np.bincount(reached, minlength=len(W)).tolist():
            charge(ids * M**2, i)  # the fold a middle pair would run: target subgroups × N²
        passes = J == joins.whole if need_epi else alive
        count += W[s, a, b][passes].sum()
    return int(count), scanned


def count_solutions(task: EnumerationTask) -> int:
    """Number of tuples satisfying the relator (and any boundary/p-image constraints)."""
    return _scan(task, need_epi=False)[0]


def count_epis(task: EnumerationTask) -> int:
    """As count_solutions, but the tuple must generate the full target group."""
    return _scan(task, need_epi=True)[0]


def run_task(task, mode: str | None = None) -> dict:
    """Batch entry point: run one task and report {"count", "scanned", "seconds"}."""
    if not isinstance(task, EnumerationTask):
        task, json_mode = task_from_json(task)
        mode = mode or json_mode
    start = time.perf_counter()
    count, scanned = _scan(task, need_epi=(mode == "epis"))
    return {"count": count, "scanned": scanned, "seconds": time.perf_counter() - start}


def task_from_json(obj: dict):
    """Decode a task description; returns (task, mode) with mode "solutions" or "epis"."""
    if not isinstance(obj, dict):
        raise ValidationError("bad-spec", f"a task is a JSON object, got {obj!r}")
    if "group" not in obj or "spec" not in obj:
        raise ValidationError("bad-spec", "a task needs at least \"group\" and \"spec\"")
    unknown = sorted(set(obj) - set(_TASK_KEYS))
    if unknown:
        raise ValidationError(
            "bad-spec", f"unknown task key(s) {', '.join(map(repr, unknown))}; known: {', '.join(_TASK_KEYS)}"
        )
    spec_obj = obj["spec"]
    if isinstance(spec_obj, dict) and "free" in spec_obj:
        spec = FREE(check_int(spec_obj["free"], "free"))
    elif isinstance(spec_obj, dict) and "n" in spec_obj and "r" in spec_obj:
        spec = RelatorSpec(check_int(spec_obj["n"], "n"), level_from_json(spec_obj["r"]))
    else:
        raise ValidationError("bad-spec", f"a spec is {{\"n\", \"r\"}} or {{\"free\"}}, got {spec_obj!r}")
    boundary = obj.get("boundary") or {}
    if not isinstance(boundary, dict):
        raise ValidationError("bad-spec", f"boundary must be an object of letter index to element, got {boundary!r}")
    task = EnumerationTask(
        group=group_from_spec(obj["group"]),
        spec=spec,
        p=obj.get("p"),
        boundary=boundary,
        p_image=_flag(obj, "p_image"),
        budget=obj.get("budget"),
    )
    return task, ("epis" if _flag(obj, "epis") else "solutions")


def _flag(obj: dict, key: str) -> bool:
    """A task's boolean flag, false when absent; any other value is refused, so no string reads as true."""
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise ValidationError("bad-spec", f"{key} must be true or false, got {value!r}")
    return value


# -- decorated generator entries ---------------------------------------------------------


def _pants_count(G: FiniteGroup, cls, i: int, j: int, m: int) -> int:
    """#{(x, y) ∈ K_i×K_j : xy ∈ K_m}, by one |K_i|×|K_j| gather of the table."""
    return int(np.count_nonzero(cls[G.table[np.ix_(np.flatnonzero(cls == i), np.flatnonzero(cls == j))]] == m))


def _torus_count(G: FiniteGroup, cls, i: int, o: int, r) -> int:
    """#{(x, a, b) ∈ K_i×Γ² : x·a^{p^r}·[a,b] ∈ K_o}.

    With c(w) = #{(a, b) : a^{p^r}·[a,b] = w}, the tally of one relator pair,
    the count is Σ_w c(w)·#{x ∈ K_i : x·w ∈ K_o}: one tally over Γ², then one
    |K_i|×N gather.
    """
    p = unique_prime_factor(G.order)
    if p is None:
        raise ValidationError("bad-spec", "decorated torus counts need a p-group target")
    q = p_power(p, r) % G.exponent()
    every = np.arange(G.order)
    values = _pair_values(G, _commutators(G), G.powers(q) if q else None, every, every)
    c = np.bincount(values.ravel(), minlength=G.order)
    return int(c @ np.count_nonzero(cls[G.table[np.flatnonzero(cls == i)]] == o, axis=0))


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

    def charge(steps: int, what: str):
        if steps > budget:
            raise ValidationError("budget-exceeded", f"{what} needs {steps} steps over budget {budget}")

    cls = np.array(conj.class_of)
    if kind == "m":
        (i, j), (m,) = _class_tuple(G, p1, 2, "incoming"), _class_tuple(G, p2, 1, "outgoing")
        charge(conj.sizes[i] * conj.sizes[j], "the K_i×K_j gather")
        return Fraction(conj.centralizers[m] * _pants_count(G, cls, i, j, m), N)
    if kind == "d":
        (i,), (a, c) = _class_tuple(G, p1, 1, "incoming"), _class_tuple(G, p2, 2, "outgoing")
        charge(conj.sizes[a] * conj.sizes[c], "the K_a×K_c gather")
        return Fraction(conj.centralizers[a] * conj.centralizers[c] * _pants_count(G, cls, a, c, i), N)
    (i,), (o,) = _class_tuple(G, p1, 1, "incoming"), _class_tuple(G, p2, 1, "outgoing")
    charge(N * N, "the Γ² tally")
    return Fraction(conj.centralizers[o] * _torus_count(G, cls, i, o, token.level), N)
