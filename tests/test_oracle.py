"""Brute-force enumeration cross-checks for every closed-form count in the package."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from arith_tqft.cobordism import P12, P21, TORUS, Token
from arith_tqft.dw import (
    FREE,
    RelatorSpec,
    dw_generator_map_exact,
    epi_count,
    hom_count,
)
from arith_tqft import oracle
from arith_tqft.errors import ValidationError
from arith_tqft.oracle import (
    EnumerationTask,
    count_epis,
    count_solutions,
    decorated_generator_count,
    run_task,
    task_from_json,
)
from arith_tqft.pgroup import (
    FiniteGroup,
    cyclic,
    elementary_abelian,
    extraspecial_exp_p2,
    from_permutations,
    gl2,
    group_from_spec,
    heisenberg,
)
from arith_tqft.units import INF

C3 = cyclic(3)
C9 = cyclic(9)
E9 = elementary_abelian(3, 2)
HEIS = heisenberg(3)
XSP = extraspecial_exp_p2(3)
D8 = from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]], degree=4)
C4XC4 = group_from_spec({"kind": "product", "factors": ["named:cyclic:4", "named:cyclic:4"]})
GRID_GROUPS = (C3, C9, E9, HEIS, XSP)


# -- direct counts ------------------------------------------------------------------------


def test_single_relator_on_c3():
    task = EnumerationTask(C3, RelatorSpec(1, 1))
    assert count_solutions(task) == 9
    assert count_epis(task) == 8


def test_single_relator_on_heisenberg():
    assert count_solutions(EnumerationTask(HEIS, RelatorSpec(1, 1))) == 297


def test_free_pairs_generating_the_elementary_abelian_group():
    assert count_epis(EnumerationTask(E9, FREE(2))) == 48


def test_rank_zero_free_group():
    assert count_solutions(EnumerationTask(C3, FREE(0))) == 1
    assert count_epis(EnumerationTask(C3, FREE(0))) == 0
    assert count_epis(EnumerationTask(cyclic(1), FREE(0))) == 1


def test_gl2_with_p_image_constraint():
    task = EnumerationTask(gl2(3), RelatorSpec(1, 1), p=3, p_image=True)
    out = run_task(task)
    assert out["count"] == 33
    assert out["scanned"] == 48 * 48


def test_scan_agrees_with_character_formula_on_a_grid():
    for G in GRID_GROUPS:
        for n in (1, 2):
            for r in (1, 2, INF):
                spec = RelatorSpec(n, r)
                assert count_solutions(EnumerationTask(G, spec)) == hom_count(spec, G), (
                    G.order,
                    n,
                    str(r),
                )


def _is_p_power(size: int, p: int) -> bool:
    while size % p == 0:
        size //= p
    return size == 1


def _tuple_reference(task: EnumerationTask, epis: bool) -> int:
    """The count by a closure of every tuple from itertools.product, with no memo or quotient."""
    G, spec = task.group, task.spec
    p = task.p or next(q for q in range(2, G.order + 1) if G.order % q == 0)
    classes = G.conjugacy_classes().class_of
    bound = dict(task.boundary)
    letters = [
        [x for x in range(G.order) if classes[x] == classes[bound[i]]] if i in bound else range(G.order)
        for i in range(spec.letters())
    ]
    total = 0
    for xs in product(*letters):
        if not spec.is_free:
            word = G.identity if spec.r == INF else G.power(xs[0], p**spec.r)
            for i in range(spec.n):
                word = G.mul(word, G.commutator(xs[2 * i], xs[2 * i + 1]))
            if word != G.identity:
                continue
        size = len(G.closure(xs))
        if epis and size != G.order:
            continue
        if task.p_image and not _is_p_power(size, p):
            continue
        total += 1
    return total


def _involution(G: FiniteGroup) -> int:
    return next(x for x in range(G.order) if G.element_order(x) == 2)


def test_join_tracked_scans_match_a_closure_per_tuple():
    tasks = [EnumerationTask(C3, RelatorSpec(3, r)) for r in (1, 2, INF)]  # a pair between the first and last
    tasks += [EnumerationTask(G, RelatorSpec(2, r)) for G in (E9, D8) for r in (1, 2, INF)]
    tasks += [EnumerationTask(HEIS, RelatorSpec(1, r)) for r in (1, 2, INF)]
    tasks += [
        EnumerationTask(HEIS, RelatorSpec(1, 1), boundary={1: HEIS.conjugacy_classes().reps[3]}),
        EnumerationTask(E9, RelatorSpec(2, 1), boundary={0: 1, 3: 2}),
        EnumerationTask(D8, RelatorSpec(2, INF)),
        EnumerationTask(E9, FREE(2)),
        EnumerationTask(D8, FREE(2), boundary={1: 1}),
        EnumerationTask(gl2(3), RelatorSpec(1, 1), p=3, p_image=True),
        EnumerationTask(gl2(3), RelatorSpec(1, INF), p=3, p_image=True),
        EnumerationTask(gl2(3), FREE(2), p=3, p_image=True),
        # counts of 0, or with a state that has no surviving choice: no pair with x² = e generates C4×C4,
        # x₁ of order 9 never meets x₁³ = [x₁,y₁] in C9, and an involution leaves no 3-group to grow
        EnumerationTask(C4XC4, RelatorSpec(2, 1)),
        EnumerationTask(C9, RelatorSpec(1, 1), boundary={0: 1}),
        EnumerationTask(gl2(3), RelatorSpec(1, 1), p=3, p_image=True, boundary={0: _involution(gl2(3))}),
    ]
    for task in tasks:
        label = (task.group.order, str(task.spec), task.boundary, task.p_image)
        assert count_epis(task) == _tuple_reference(task, epis=True), label
        if task.p_image or task.spec.is_free:
            assert count_solutions(task) == _tuple_reference(task, epis=False), label


def test_a_scan_closes_each_subgroup_element_pair_once():
    G = FiniteGroup(HEIS.table)  # a fresh group: no memo carried over from other tests
    calls = Counter()

    def closure(gens):
        gens = tuple(gens)
        calls[FiniteGroup.closure(G, gens[:-1]), gens[-1]] += 1
        return FiniteGroup.closure(G, gens)

    G.closure = closure
    assert count_epis(EnumerationTask(G, RelatorSpec(2, 1))) == epi_count(RelatorSpec(2, 1), HEIS)
    assert calls and max(calls.values()) == 1


def test_an_epi_count_on_heis5_fills_a_double_coset_per_closure():
    G = FiniteGroup(heisenberg(5).table)
    calls = []

    def closure(gens):
        calls.append(tuple(gens))
        return FiniteGroup.closure(G, gens)

    G.closure = closure
    assert count_epis(EnumerationTask(G, RelatorSpec(1, 1))) == 0
    # a closure per (subgroup, coset) pair took 268; one per double coset H·{x^u}·H takes 67
    assert 0 < len(calls) < 268 // 2


def test_a_double_coset_fill_holds_no_more_than_the_table():
    G = cyclic(729)
    G.table, G._t  # built before tracing: only the scan's own arrays are measured
    tracemalloc.start()
    try:
        assert count_epis(EnumerationTask(G, FREE(2))) == 729**2 - 243**2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # joining C₂₄₃ with a generator x fills the two cosets H·x and H·x² times H, 486 × 243 entries;
    # the |H| × φ(|x|) × |H| gather of H·{x^u : gcd(u, 729) = 1}·H, with repeats, would take 230 MB
    assert peak < 32 * 2**20


def test_the_join_memo_holds_rows_only_for_subgroups_joined_from(monkeypatch):
    made, joined_from = [], set()
    join = oracle._Joins.join

    def spy(self, hs, xs):
        made.append(self)
        joined_from.update(np.unique(hs).tolist())
        return join(self, hs, xs)

    monkeypatch.setattr(oracle._Joins, "join", spy)
    E27 = elementary_abelian(3, 3)
    assert count_epis(EnumerationTask(E27, FREE(2))) == 0
    joins = made[-1]
    with_rows = {h for h in range(len(joins.gens)) if joins.row[h] > 1}
    assert with_rows == joined_from - {0}
    # the trivial group and the 13 lines are joined from; the 13 planes, met at the last letter, are not
    assert len(with_rows) == 14 and len(joins.gens) == 28


def test_a_scan_with_no_boundary_reads_no_conjugacy_classes():
    G = FiniteGroup(HEIS.table)

    def classes():
        raise AssertionError("conjugacy classes computed for a scan with no boundary")

    G.conjugacy_classes = classes
    for spec in (RelatorSpec(1, 1), RelatorSpec(2, INF), FREE(2)):
        assert count_solutions(EnumerationTask(G, spec)) == hom_count(spec, HEIS)
        assert count_epis(EnumerationTask(G, spec)) == epi_count(spec, HEIS)


def test_tracked_counts_through_a_middle_pair_match_the_moebius_formula():
    for G in (D8, HEIS):
        for r in (1, 2, INF):
            spec = RelatorSpec(3, r)
            assert count_epis(EnumerationTask(G, spec)) == epi_count(spec, G), (G.order, str(r))


def test_a_p_image_count_of_two_pairs_with_a_boundary_matches_a_closure_per_tuple():
    G = gl2(3)
    conj = G.conjugacy_classes()
    third = next(r for r in conj.reps if G.element_order(r) == 3)
    task = EnumerationTask(G, RelatorSpec(2, 1), p=3, p_image=True, boundary={0: third, 1: third, 3: third})
    assert count_solutions(task) == _tuple_reference(task, epis=False)


def test_counts_do_not_depend_on_the_state_blocks(monkeypatch):
    tasks = [EnumerationTask(G, RelatorSpec(n, r)) for G in (D8, HEIS) for n in (2, 3) for r in (1, INF)]
    tasks += [EnumerationTask(gl2(3), RelatorSpec(2, 1), p=3, p_image=True), EnumerationTask(E9, FREE(3))]
    whole = [(count_solutions(task), count_epis(task)) for task in tasks]
    monkeypatch.setattr(oracle, "BLOCK_ENTRIES", 1)  # one state per block
    assert [(count_solutions(task), count_epis(task)) for task in tasks] == whole


def test_scan_agrees_with_moebius_epi_formula():
    for G in (C9, HEIS):
        for spec in (RelatorSpec(1, 1), RelatorSpec(1, INF), FREE(2)):
            assert count_epis(EnumerationTask(G, spec)) == epi_count(spec, G)


# -- boundary constraints -----------------------------------------------------------------


def test_boundary_partition_sums_to_total():
    conj = HEIS.conjugacy_classes()
    for index in (0, 1):
        parts = [
            count_solutions(EnumerationTask(HEIS, RelatorSpec(1, 1), boundary={index: rep}))
            for rep in conj.reps
        ]
        assert sum(parts) == 297


def test_boundary_constraint_is_a_class_condition():
    conj = HEIS.conjugacy_classes()
    g = conj.reps[3]
    base = count_solutions(EnumerationTask(HEIS, RelatorSpec(1, 1), boundary={0: g}))
    for t in range(HEIS.order):
        h = HEIS.conj(t, g)
        same = count_solutions(EnumerationTask(HEIS, RelatorSpec(1, 1), boundary={0: h}))
        assert same == base


def test_boundary_validation():
    with pytest.raises(ValidationError) as e:
        EnumerationTask(C3, RelatorSpec(1, 1), boundary={5: 0})
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError) as e:
        EnumerationTask(C3, RelatorSpec(1, 1), boundary={0: 99})
    assert e.value.code == "bad-spec"


def test_task_normalizes_inputs():
    task = EnumerationTask("named:cyclic:3", RelatorSpec(1, 1), boundary={1: 2, 0: 1})
    assert task.group.order == 3
    assert task.boundary == ((0, 1), (1, 2))


# -- p-image and p flags ------------------------------------------------------------------


def test_p_image_is_vacuous_on_a_p_group():
    spec = RelatorSpec(1, 1)

    a = count_solutions(EnumerationTask(HEIS, spec))
    b = count_solutions(EnumerationTask(HEIS, spec, p_image=True))
    assert a == b == 297


def test_mixed_order_group_needs_p():
    with pytest.raises(ValidationError) as e:
        count_solutions(EnumerationTask(gl2(3), RelatorSpec(1, 1)))
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError) as e:
        count_solutions(EnumerationTask(gl2(3), FREE(2), p_image=True))
    assert e.value.code == "bad-spec"


def test_p_clash_with_group_order():
    with pytest.raises(ValidationError) as e:
        count_solutions(EnumerationTask(HEIS, RelatorSpec(1, 1), p=2))
    assert e.value.code == "bad-spec"


def test_free_scan_on_mixed_order_group_is_fine_without_p():
    out = run_task(EnumerationTask(gl2(3), FREE(2)))
    assert out["count"] == out["scanned"] == 48 * 48


# -- budget -------------------------------------------------------------------------------


def test_budget_counts_loop_steps_not_search_space():
    # heis at n = 1 is one pair: one state times 27·27 letter choices, 729 steps for 729 tuples;
    # at n = 2 the second pair adds 729 more, while the search space is 27⁴
    spec = RelatorSpec(1, 1)
    ok = run_task(EnumerationTask(HEIS, spec, budget=729))
    assert (ok["count"], ok["scanned"]) == (297, 729)
    with pytest.raises(ValidationError) as e:
        count_solutions(EnumerationTask(HEIS, spec, budget=728))
    assert e.value.code == "budget-exceeded"
    assert "729" in str(e.value) and "728" in str(e.value)
    two = run_task(EnumerationTask(HEIS, RelatorSpec(2, 1), budget=2 * 729))
    assert (two["count"], two["scanned"]) == (hom_count(RelatorSpec(2, 1), HEIS), 27**4)


def test_a_tracked_count_is_charged_its_fold():
    # the epi count of the same pair adds its fold: 18 target subgroups × 27², on top of the 729 choices
    task = EnumerationTask(HEIS, RelatorSpec(1, 1), budget=729 + 18 * 729)
    assert count_epis(task) == 0
    with pytest.raises(ValidationError) as e:
        count_epis(EnumerationTask(HEIS, RelatorSpec(1, 1), budget=729 + 18 * 729 - 1))
    assert e.value.code == "budget-exceeded" and "13851" in str(e.value)


def test_budget_from_environment(monkeypatch):
    monkeypatch.setenv("ARITH_TQFT_BUDGET", "50")
    with pytest.raises(ValidationError) as e:
        count_solutions(EnumerationTask(C9, RelatorSpec(1, 1)))
    assert e.value.code == "budget-exceeded"
    # an explicit task budget wins over the environment
    assert count_solutions(EnumerationTask(C9, RelatorSpec(1, 1), budget=10**6)) == 27


# -- decorated generator entries ----------------------------------------------------------


def test_decorated_pair_of_pants_entries_on_c3():
    conj = C3.conjugacy_classes()
    g = conj.class_of[next(x for x in range(3) if x != C3.identity)]
    gg = conj.class_of[C3.mul(conj.reps[g], conj.reps[g])]
    assert decorated_generator_count(C3, P21, (g, g), gg) == 1
    assert decorated_generator_count(C3, P21, (g, g), g) == 0


def test_decorated_entries_match_the_gauge_theory_matrices():
    for G in (C3, HEIS, C9, XSP):
        conj = G.conjugacy_classes()
        k = len(conj)
        m = dw_generator_map_exact(G, P21)
        d = dw_generator_map_exact(G, P12)
        for i in range(k):
            for j in range(k):
                for o in range(k):
                    assert m.rows[o][i * k + j] == decorated_generator_count(G, P21, (i, j), o)
                    assert d.rows[j * k + o][i] == decorated_generator_count(G, P12, i, (j, o))
        for r in (1, INF):
            t = dw_generator_map_exact(G, TORUS(r))
            for i in range(k):
                for o in range(k):
                    assert t.rows[o][i] == decorated_generator_count(G, TORUS(r), i, o)


def test_decorated_tables_match_plain_loops():
    for G in (C9, HEIS, XSP):
        conj, N = G.conjugacy_classes(), G.order
        classes, cent, k = conj.class_of, conj.centralizers, len(conj)
        pants = [[[0] * k for _ in range(k)] for _ in range(k)]
        for x in range(N):
            for y in range(N):
                pants[classes[x]][classes[y]][classes[G.mul(x, y)]] += 1
        for i, j, m in product(range(k), repeat=3):
            assert decorated_generator_count(G, P21, (i, j), m) == Fraction(cent[m] * pants[i][j][m], N)
            assert decorated_generator_count(G, P12, m, (i, j)) == Fraction(cent[i] * cent[j] * pants[i][j][m], N)
        for r in (1, 2, INF):
            torus = [[0] * k for _ in range(k)]
            for a in range(N):
                head = G.identity if r == INF else G.power(a, 3**r)
                for b in range(N):
                    core = G.mul(head, G.commutator(a, b))
                    for x in range(N):
                        torus[classes[x]][classes[G.mul(x, core)]] += 1
            for i, o in product(range(k), repeat=2):
                got = decorated_generator_count(G, TORUS(r), i, o)
                assert got == Fraction(cent[o] * torus[i][o], N), (N, str(r), i, o)


def test_decorated_validation():
    with pytest.raises(ValidationError) as e:
        decorated_generator_count(C3, Token("zz"), 0, 0)
    assert e.value.code == "unknown-token"
    with pytest.raises(ValidationError) as e:
        decorated_generator_count(C3, P21, (0,), 0)
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError) as e:
        decorated_generator_count(C3, P21, (0, 7), 0)
    assert e.value.code == "bad-spec"


def test_decorated_entries_are_charged_what_they_read(monkeypatch):
    # Heis(3) under a budget of 700 < 27²: a pants entry on two central
    # classes reads 1×1 products and answers, while the handle tallies Γ²
    conj = HEIS.conjugacy_classes()
    i, j = [c for c, size in enumerate(conj.sizes) if size == 1][1:3]
    m = conj.class_of[HEIS.mul(conj.reps[i], conj.reps[j])]
    want = decorated_generator_count(HEIS, P21, (i, j), m), decorated_generator_count(HEIS, P12, m, (i, j))
    assert want[0] > 0
    monkeypatch.setenv("ARITH_TQFT_BUDGET", "700")
    assert (decorated_generator_count(HEIS, P21, (i, j), m), decorated_generator_count(HEIS, P12, m, (i, j))) == want
    with pytest.raises(ValidationError) as e:
        decorated_generator_count(HEIS, TORUS(1), i, i)
    assert e.value.code == "budget-exceeded" and "729" in e.value.message


# -- batch JSON ---------------------------------------------------------------------------


def test_task_from_json_roundtrip():
    task, mode = task_from_json(
        {"group": "named:cyclic:3", "spec": {"n": 1, "r": 1}, "boundary": {"0": 1}}
    )
    assert mode == "solutions"
    assert task.boundary == ((0, 1),)
    out = run_task({"group": "named:cyclic:3", "spec": {"n": 1, "r": 1}})
    assert out["count"] == 9 and out["scanned"] == 9 and out["seconds"] >= 0
    assert run_task({"group": "named:cyclic:3", "spec": {"n": 1, "r": 1}, "epis": True})["count"] == 8
    assert run_task({"group": "named:cyclic:3", "spec": {"free": 2}})["count"] == 9
    assert run_task({"group": "named:cyclic:9", "spec": {"n": 1, "r": "inf"}})["count"] == 81


def test_task_from_json_validation():
    with pytest.raises(ValidationError) as e:
        task_from_json({"group": "named:cyclic:3"})
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError):
        task_from_json({"group": "named:cyclic:3", "spec": "x^3"})
    for stale in ("epi", "p-image", "raw"):  # near misses of "epis" and "p_image", and a removed switch
        with pytest.raises(ValidationError) as e:
            task_from_json({"group": "named:cyclic:3", "spec": {"n": 1, "r": 1}, stale: True})
        assert e.value.code == "bad-spec" and repr(stale) in e.value.message
