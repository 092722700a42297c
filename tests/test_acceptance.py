"""The nine acceptance gates, one test per criterion, each printing a PASS line.

Every numeric expectation here is either produced by the independent
brute-force oracle in the same run or is a small closed-form value that the
oracle corroborates elsewhere in the suite.  Time budgets are asserted where
the criterion states one.
"""

import random
import time
from fractions import Fraction

from arith_tqft.chartab import character_table_mod, split_primes
from arith_tqft.cobordism import (
    P12,
    P21,
    TORUS,
    Diagram,
    apply_relation,
    canonicalize,
    identity_diagram,
    invariant_of,
    parse_diagram,
    tensor,
)
from arith_tqft.dw import (
    FREE,
    DWAlgebra,
    RelatorSpec,
    dw_generator_map_exact,
    epi_count,
    extension_count,
    general_gauge_count,
    hom_count,
    uncached_hom_count,
)
from arith_tqft.frobenius import UniversalAlgebra, check_axioms, evaluate_diagram
from arith_tqft.dw import evaluate_dw
from arith_tqft.oracle import EnumerationTask, count_epis, count_solutions, decorated_generator_count
from arith_tqft.pgroup import (
    cyclic,
    elementary_abelian,
    extraspecial_exp_p2,
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
E27 = elementary_abelian(3, 3)
HEIS_C3 = group_from_spec({"kind": "product", "factors": ["named:heisenberg:3", "named:cyclic:3"]})


def _passed(k, detail, seconds=None):
    stamp = f" ({seconds:.3f}s)" if seconds is not None else ""
    print(f"criterion {k}: PASS — {detail}{stamp}")


def test_criterion_1_universal_identities():
    t0 = time.perf_counter()
    U = UniversalAlgebra()
    genus3 = evaluate_diagram(parse_diagram("cap; tor(inf); tor(inf); tor(inf); cup"), U)
    assert str(genus3.rows[0][0]) == "2h^2 + 8t"
    # same surface assembled from raw pants instead of torus tokens
    pants = evaluate_diagram(parse_diagram("cap; d; m; d; m; d; m; cup"), U)
    assert genus3.rows == pants.rows

    md2 = evaluate_diagram(parse_diagram("d; m; d; m"), U)
    assert str(md2.rows[0][0]) == "h^2 + 4t"
    assert md2.rows[1][1] == md2.rows[0][0]
    assert str(md2.rows[0][1]) == "0" and str(md2.rows[1][0]) == "0"

    for r in range(1, 5):
        for s in range(1, 5):
            lhs = evaluate_diagram(parse_diagram(f"cap, cap; tor({r}), tor({s}); m"), U)
            rhs = evaluate_diagram(parse_diagram(f"cap; tor({min(r, s)}); d; m"), U)
            assert lhs.rows == rhs.rows, (r, s)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _passed(1, "genus-3 word = 2h^2 + 8t, (m∘Δ)² = (h²+4t)·id, κ_r·κ_r' = m∘Δ∘κ_min for r,r' ≤ 4", dt)


def test_criterion_2_axiom_suite():
    t0 = time.perf_counter()
    report = check_axioms(UniversalAlgebra(), levels=(1, 2, 3, 4))
    assert len(report) == 13 and all(ok for ok, _ in report.values())
    checked = ["universal levels 1..4"]
    for G in (C3, C9, E9, HEIS):
        for l in split_primes(G, count=2):
            report = check_axioms(DWAlgebra(G, l))
            assert len(report) == 13 and all(ok for ok, _ in report.values()), (G.order, l)
            checked.append(f"|Γ|={G.order} mod {l}")
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _passed(2, f"13 axioms hold on {len(checked)} algebras: " + ", ".join(checked), dt)


def test_criterion_3_counting_grid():
    t0 = time.perf_counter()
    grid = [(G, (1, 2)) for G in (C3, C9, E9, HEIS, XSP)]
    grid += [(G, range(1, 7)) for G in (E27, elementary_abelian(5, 2), heisenberg(5), HEIS_C3, heisenberg(7))]
    cells = 0
    for G, ns in grid:
        for n in ns:
            for r in (1, 2, INF):
                spec = RelatorSpec(n, r)
                formula = hom_count(spec, G)
                scan = count_solutions(EnumerationTask(G, spec))
                assert formula == scan, (G.order, n, str(r), formula, scan)
                cells += 1
    epi_cells = 0
    for G in (HEIS, XSP, E27, HEIS_C3):
        for n in (1, 2):
            for r in (1, 2, INF):
                spec = RelatorSpec(n, r)
                assert epi_count(spec, G) == count_epis(EnumerationTask(G, spec)), (G.order, n, str(r))
                epi_cells += 1
    # GL2(F_5)'s six Sylow C_5's meet trivially, so its 5-image tuples number 6·(5^{2n} − 1) + 1
    gl2_5 = gl2(5)
    for n, expected in ((1, 145), (2, 3745)):
        assert count_solutions(EnumerationTask(gl2_5, RelatorSpec(n, 1), p=5, p_image=True)) == expected
        assert expected == 6 * (5 ** (2 * n) - 1) + 1
    assert hom_count(RelatorSpec(1, 1), C3) == 9
    assert hom_count(RelatorSpec(2, 1), C3) == 81
    assert hom_count(RelatorSpec(1, INF), HEIS) == 297
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _passed(
        3,
        f"formula = oracle on all {cells} hom and {epi_cells} epi cells; GL2(F_5) 5-images 145, 3745; "
        "spot values 9/81/297",
        dt,
    )


def test_criterion_4_gl2_example():
    t0 = time.perf_counter()
    count, cardinality = general_gauge_count(gl2(3), 3, RelatorSpec(1, 1))
    assert count == 33
    assert cardinality == Fraction(11, 16)
    p, n = 3, 1
    closed_form = Fraction(p ** (2 * n) + p ** (2 * n - 1) - 1, (p - 1) ** 2 * (p + 1))
    assert cardinality == closed_form
    oracle = count_solutions(EnumerationTask(gl2(3), RelatorSpec(1, 1), p=3, p_image=True))
    assert oracle == 33
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _passed(4, "GL2(F_3): hom count 33, homotopy cardinality 11/16 = closed form, oracle agrees", dt)


def test_criterion_5_extension_counts():
    assert extension_count(FREE(2), C3) == 4
    assert extension_count(RelatorSpec(2, 1), C3) == 40
    # hyperplane cross-check: epis from the rank-4 abelianization modulo |Aut(C_3)|
    hyperplane_epis = (3**4 - 1) // (3 - 1) * 2  # 40 index-3 subgroups hit twice
    assert extension_count(RelatorSpec(2, 1), C3) == Fraction(hyperplane_epis, 2)
    _passed(5, "4 unramified-type and 40 level-1 extensions with group C_3")


def test_criterion_6_generator_matrix_fidelity():
    t0 = time.perf_counter()
    entries = 0
    for G in (C3, HEIS):
        k = len(G.conjugacy_classes())
        for token in (P21, P12, TORUS(1), TORUS(INF)):
            mat = dw_generator_map_exact(G, token)
            rows, cols = mat.shape
            for a in range(rows):
                for b in range(cols):
                    if token.kind == "m":
                        p1, p2 = (b // k, b % k), a
                    elif token.kind == "d":
                        p1, p2 = b, (a // k, a % k)
                    else:
                        p1, p2 = b, a
                    assert mat.rows[a][b] == decorated_generator_count(G, token, p1, p2)
                    entries += 1
    dt = time.perf_counter() - t0
    _passed(6, f"{entries} decorated bundle counts equal the generator matrices exactly", dt)


# -- criterion 7: randomized relation soundness -------------------------------------------

_PROTOTYPES = [
    ("R1", "cap, id; m", {}),
    ("R2", "d; id, cup", {}),
    ("R3", "m, id; m", {}),
    ("R4", "d; d, id", {}),
    ("R5", "m; d", {}),
    ("R6", "cap; tw(4 mod 3^2)", {}),
    ("R7", "tw(4 mod 3^2); cup", {}),
    ("R8", "tw(4 mod 3^2), tw(4 mod 3^2); m", {}),
    ("R9", "tw(4 mod 3^2); d", {}),
    ("R10", "tor(2)", {"p": 3, "precision": 3}),
    ("R11", "tor(2); tor(1)", {}),
    ("R12", "tor(1); tw(4 mod 3^2)", {}),
    ("RS1", "swap; swap", {}),
    ("RS2", "swap; m", {}),
    ("RS3", "d; swap", {}),
    ("RS4", "tw(4 mod 3^2), tw(7 mod 3^2); swap", {}),
    ("RS5", "swap, id; id, swap; swap, id", {}),
]

_ARITY_OUT = {"m": 1, "d": 2, "cup": 0, "cap": 1, "id": 1, "tw": 1, "tor": 1, "swap": 2}


def _max_width(D):
    widths = [D.in_arity]
    for sl in D.slices:
        widths.append(sum(_ARITY_OUT[tok.kind] for tok in sl))
    return max(widths)


def _criterion_7_instances():
    """(i, rule, D, E): 200 seeded rule instances in context, E the rewrite of D."""
    rng = random.Random(20260819)
    for i in range(200):
        rule, text, kwargs = _PROTOTYPES[i % len(_PROTOTYPES)]
        core = parse_diagram(text)
        core_rw = apply_relation(core, rule, (0, 0), **kwargs)
        # context must keep both sides of the rewrite inside the universal window (2^6)
        room = 6 - max(_max_width(core), _max_width(core_rw))
        left = rng.randrange(0, min(room, 2) + 1)
        right = rng.randrange(0, min(room - left, 2) + 1)
        D = core
        if left:
            D = tensor(identity_diagram(left), D)
        if right:
            D = tensor(D, identity_diagram(right))
        yield i, rule, D, apply_relation(D, rule, (0, left), **kwargs)


def test_criterion_7_relation_soundness():
    t0 = time.perf_counter()
    U = UniversalAlgebra()
    narrow = 0
    for i, rule, D, E in _criterion_7_instances():
        assert invariant_of(E) == invariant_of(D), (i, rule)
        assert canonicalize(E) == canonicalize(D), (i, rule)
        assert evaluate_diagram(D, U).rows == evaluate_diagram(E, U).rows, (i, rule)
        for l in (7, 13):
            assert evaluate_dw(D, C3, l) == evaluate_dw(E, C3, l), (i, rule, l)
        if max(_max_width(D), _max_width(E)) <= 3:
            narrow += 1
            for l in (19, 37):
                assert evaluate_dw(D, C9, l) == evaluate_dw(E, C9, l), (i, rule, l)
    dt = time.perf_counter() - t0
    _passed(7, f"200 random rule instances sound (invariant, universal, C_3 mod 7/13; {narrow} also C_9 mod 19/37)", dt)


def test_kept_forms_are_those_of_a_fresh_equal_diagram():
    # both sides already carry the forms the rewrite certified itself with; a
    # freshly built equal word computes the same ones, and keeping them
    # changes neither equality, nor hash, nor repr
    for i, rule, *sides in _criterion_7_instances():
        for D in sides:
            fresh = Diagram(D.slices, D.wires)
            word = (hash(fresh), repr(fresh))
            assert canonicalize(fresh) == canonicalize(D), (i, rule)
            assert invariant_of(fresh) == invariant_of(D), (i, rule)
            assert fresh == D and (hash(fresh), repr(fresh)) == word == (hash(D), repr(D)), (i, rule)


def test_criterion_8_character_table_properties():
    t0 = time.perf_counter()
    tables = 0
    for G in (C3, C9, E9, HEIS, XSP):
        N = G.order
        for l in split_primes(G, count=2):
            tab = character_table_mod(G, l)
            k = len(tab.rows)
            assert sum(d * d for d in tab.degrees) == N
            for a in range(k):
                for b in range(k):
                    row_ip = sum(
                        tab.sizes[j] * tab.rows[a][j] * tab.rows[b][tab.inverse_class[j]]
                        for j in range(k)
                    ) % l
                    assert row_ip == (N % l if a == b else 0), ("rows", G.order, l, a, b)
                    col_ip = sum(
                        tab.rows[rho][a] * tab.rows[rho][tab.inverse_class[b]] for rho in range(k)
                    ) % l
                    centralizer = N // tab.sizes[a]
                    assert col_ip == (centralizer % l if a == b else 0), ("cols", G.order, l, a, b)
            tables += 1
    heis_degrees = sorted(character_table_mod(HEIS, 61).degrees)
    assert heis_degrees == [1] * 9 + [3, 3]
    dt = time.perf_counter() - t0
    _passed(8, f"orthogonality and Σd² = |Γ| on {tables} tables; heis degrees 1⁹3²", dt)


def _tuple_by_tuple_count(G, q: int) -> int:
    """#{(x₁,y₁,x₂,y₂) : x₁^q·[x₁,y₁]·[x₂,y₂] = e}, one tuple at a time over list tables."""
    N, e = G.order, G.identity
    rows = G.table.tolist()
    comm = [[G.commutator(x, y) for y in range(N)] for x in range(N)]
    total = 0
    for x1 in range(N):
        head = G.power(x1, q)
        for y1 in range(N):
            prefix = rows[rows[head][comm[x1][y1]]]
            for x2 in range(N):
                cx = comm[x2]
                total += sum(1 for y2 in range(N) if prefix[cx[y2]] == e)
    return total


def test_criterion_9_performance_contrast():
    G = heisenberg(3)
    spec = RelatorSpec(2, 1)
    expected = hom_count(spec, G)  # builds the class algebra's data once

    formula_seconds = None
    for _ in range(9):
        t0 = time.perf_counter()
        value = uncached_hom_count(spec, G)
        dt = time.perf_counter() - t0
        assert value == expected
        formula_seconds = dt if formula_seconds is None else min(formula_seconds, dt)
    assert formula_seconds < 1.0

    t0 = time.perf_counter()
    scan = _tuple_by_tuple_count(G, 3)
    loop_seconds = time.perf_counter() - t0
    assert scan == expected == 181521

    speedup = loop_seconds / formula_seconds
    assert speedup >= 100.0, f"formula only {speedup:.0f}x faster"
    _passed(
        9,
        f"hom formula {formula_seconds * 1e6:.0f}µs vs 27⁴-tuple loop {loop_seconds:.3f}s — {speedup:.0f}x",
    )
