"""Finite-group core: constructors, conjugacy, subgroups, automorphisms."""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest

from arith_tqft.dw import hall_mobius
from arith_tqft.errors import ValidationError
from arith_tqft.pgroup import (
    MAX_AUT_CANDIDATES,
    MAX_ORDER,
    MAX_PRIME_TEST,
    ConjugacyData,
    FiniteGroup,
    cyclic,
    direct_product,
    elementary_abelian,
    extraspecial_exp_p2,
    from_permutations,
    gl2,
    group_from_spec,
    heisenberg,
    is_power_of,
    is_prime,
)
from arith_tqft.units import INF, p_power_minus_one


def test_cyclic_basics():
    g = cyclic(3)
    assert g.order == 3
    assert g.identity == 0
    assert g.mul(1, 2) == 0
    assert g.inv(2) == 1
    assert len(g.conjugacy_classes()) == 3  # abelian: singleton classes
    assert g.exponent() == 3


def test_heisenberg_class_equation():
    g = heisenberg(3)
    assert g.order == 27
    assert g.exponent() == 3
    conj = g.conjugacy_classes()
    assert len(conj) == 11
    assert sorted(conj.sizes) == [1, 1, 1] + [3] * 8
    assert sum(conj.sizes) == 27
    # orbit-stabilizer: |class| · |centralizer| = |G|
    assert all(s * c == 27 for s, c in zip(conj.sizes, conj.centralizers))


def test_extraspecial_exp_p2():
    g = extraspecial_exp_p2(3)
    assert g.order == 27
    assert g.exponent() == 9
    assert len(g.conjugacy_classes()) == 11
    assert not g.is_abelian()


def test_gl2_order_and_exponent():
    g = gl2(3)
    assert g.order == 48
    assert g.exponent() == 24
    assert not g.is_abelian()


def test_power_map_conventions():
    g = cyclic(9)
    assert g.power(2, 3) == 6
    assert g.power(2, 0) == 0
    # negative exponents reduce mod the element order
    assert g.power(2, -1) == g.inv(2) == 7
    # the infinite level enters through exponent p^r − 1 → −1
    assert p_power_minus_one(3, INF) == -1
    h = heisenberg(3)
    for x in range(h.order):
        assert h.power(x, p_power_minus_one(3, INF)) == h.inv(x)


def test_class_power_well_defined():
    g = heisenberg(3)
    conj = g.conjugacy_classes()
    assert g.class_powers(-1).tolist() == list(conj.inverse_class)
    assert "_t" not in vars(g)  # gathers on g.table: the flat list is never built
    assert g.class_powers(1).tolist() == list(range(len(conj)))
    squares = g.class_powers(2)
    for j, rep in enumerate(conj.reps):
        # all members of a class land in the class of rep_j², by the scalar power loop
        for h in range(g.order):
            assert conj.class_of[g.power(g.conj(h, rep), 2)] == squares[j]


def test_cyclic9_subgroups():
    g = cyclic(9)
    subs = g.all_subgroups()
    assert sorted(len(s) for s in subs) == [1, 3, 9]


def test_elementary_abelian_lattice():
    g = elementary_abelian(3, 2)
    assert g.order == 9
    assert g.is_abelian()
    subs = g.all_subgroups()
    assert sorted(len(s) for s in subs) == [1, 3, 3, 3, 3, 9]
    trivial = next(s for s in subs if len(s) == 1)
    whole = next(s for s in subs if len(s) == 9)
    assert all(trivial <= s <= whole for s in subs)
    # the four lines of F_3² meet only at the origin
    lines = [s for s in subs if len(s) == 3]
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            assert a & b == {g.identity}


def test_heisenberg_subgroup_list():
    g = heisenberg(3)
    subs = g.all_subgroups()
    # trivial + 13 C_3's + four order-9 planes above the centre + G itself
    assert sorted(len(s) for s in subs) == [1] + [3] * 13 + [9] * 4 + [27]
    assert all(27 % len(s) == 0 for s in subs)  # Lagrange


def test_sylow_gl2():
    g = gl2(3)
    sylows = g.sylow_p_subgroups(3)
    assert len(sylows) == 4
    assert all(len(s) == 3 for s in sylows)
    for i, a in enumerate(sylows):
        assert is_power_of(len(a), 3)
        for b in sylows[i + 1 :]:
            assert a & b == {g.identity}
    # Sylow count: ≡ 1 mod p and divides |G|
    assert len(sylows) % 3 == 1
    assert 48 % len(sylows) == 0


def test_sylow_degenerate_cases():
    h = heisenberg(3)
    assert h.sylow_p_subgroups(3) == [frozenset(range(27))]
    assert is_power_of(h.order, 3)
    assert not is_power_of(gl2(3).order, 3)
    assert cyclic(9).sylow_p_subgroups(2) == [frozenset({0})]


def test_automorphism_counts():
    assert cyclic(3).automorphism_count() == 2
    assert cyclic(9).automorphism_count() == 6
    # Aut((Z/3)²) = GL_2(F_3)
    assert elementary_abelian(3, 2).automorphism_count() == 48
    assert heisenberg(3).automorphism_count() == 432
    assert heisenberg(5).automorphism_count() == 12000
    assert elementary_abelian(3, 3).automorphism_count() == 11232  # |GL_3(F_3)|
    assert elementary_abelian(5, 2).automorphism_count() == 480  # |GL_2(F_5)|


def test_automorphism_counts_of_non_abelian_groups():
    d8 = from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]], degree=4)
    q8 = from_permutations(_quaternion_generators(), 8)
    for G, want in (
        (q8, 24),  # Aut Q_8 ≅ S_4
        (direct_product(d8, cyclic(2)), 64),
        (direct_product(q8, cyclic(2)), 192),
        (direct_product(d8, cyclic(4)), 128),
        (extraspecial_exp_p2(3), 54),  # p³(p − 1)
        (extraspecial_exp_p2(5), 500),
        (direct_product(heisenberg(3), cyclic(3)), 23_328),
        (heisenberg(7), 98_784),  # 7²·|GL_2(7)|: order 343 was past the old search's order limit
    ):
        assert G.automorphism_count() == want
    assert cyclic(1).automorphism_count() == 1
    with pytest.raises(ValidationError) as e:  # |GL_2(3)| = 48 is not a prime power
        gl2(3).automorphism_count()
    assert e.value.code == "bad-spec"


def _abelian_p_groups(limit):
    """(A, p, (e_1, …)) for every abelian p-group A ≅ ⊕ ℤ/p^{e_i} of order ≤ limit, built from cyclic factors."""

    def partitions(k, top):
        if k == 0:
            yield ()
        for e in range(min(k, top), 0, -1):
            yield from ((e,) + rest for rest in partitions(k - e, e))

    for p in filter(is_prime, range(2, limit + 1)):
        for k in (k for k in range(1, limit.bit_length()) if p**k <= limit):
            for e in partitions(k, k):
                factors = [cyclic(p**x) for x in e]
                A = factors[0]
                for f in factors[1:]:
                    A = direct_product(A, f)
                yield A, p, e


def _automorphism_reference(A, p, invariants):
    """|Aut A| as the surjective endomorphisms of A, by Hall's Möbius sum Σ_{H ⊇ Φ(A)} μ(H)·#Hom(A → H).

    A homomorphism ⊕ ℤ/p^{e_i} → H sends the i-th cyclic generator anywhere in
    H[p^{e_i}], and a surjective endomorphism of a finite group is bijective.
    """
    orders = A.element_orders()
    return sum(
        mu * math.prod(int((orders[sorted(h)] <= p**e).sum()) for e in invariants)
        for h, mu in hall_mobius(A).items()
    )


def test_abelian_automorphism_counts_match_a_count_of_surjective_endomorphisms():
    seen = 0
    for A, p, invariants in _abelian_p_groups(64):
        assert A.automorphism_count() == _automorphism_reference(A, p, invariants), (p, invariants)
        seen += 1
    assert seen == 55  # 29 + 6 + 3 + 3 types of order 2^k, 3^k, 5^k, 7^k, and ℤ/p for the 14 primes 11..61


def test_automorphism_search_refuses_a_grid_past_its_limit():
    # (Z/2)^5 and (Z/3)^4 used to be refused (31^5 and 80^4 candidate images); now a closed form
    for G, want in ((elementary_abelian(2, 5), 9_999_360), (elementary_abelian(3, 4), 24_261_120)):
        start = time.perf_counter()
        assert G.automorphism_count() == want  # |GL_5(F_2)|, |GL_4(F_3)|
        assert time.perf_counter() - start < 1
    # Heis(3)×(Z/3)² has d = 4: |GL_4(F_3)|·|Φ|^4 = 24,261,120·3^4 candidate images
    G = direct_product(heisenberg(3), elementary_abelian(3, 2))
    start = time.perf_counter()
    with pytest.raises(ValidationError) as e:
        G.automorphism_count()
    assert time.perf_counter() - start < 1
    assert e.value.code == "bound-exceeded"
    assert f"{24_261_120 * 81:,}" in e.value.message and f"{MAX_AUT_CANDIDATES:,}" in e.value.message
    assert "MAX_AUT_CANDIDATES" in e.value.message


def test_structure_constants_count_class_products():
    d8 = from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]], degree=4)
    for G in (cyclic(9), d8, heisenberg(3), gl2(3)):  # GL_2(3): tables are built for non-p-groups too
        conj = G.conjugacy_classes()
        k = len(conj)
        want = np.zeros((k, k, k), dtype=np.int64)
        for x in range(G.order):
            for y in range(G.order):
                z = G.mul(x, y)
                if z in conj.reps:
                    want[conj.class_of[x], conj.class_of[y], conj.reps.index(z)] += 1
        a = G.structure_constants()
        assert a.dtype == np.int64 and np.array_equal(a, want)
        assert G.structure_constants() is a and not a.flags.writeable


def test_subgroup_as_group():
    g = cyclic(9)
    sub = next(s for s in g.all_subgroups() if len(s) == 3)
    h, ambient = sub and g.subgroup_as_group(sub)
    assert h.order == 3
    assert len(h.conjugacy_classes()) == 3
    assert sorted(ambient) == sorted(sub)
    with pytest.raises(ValidationError) as exc:  # 1 + 1 = 2 is not among the elements
        cyclic(4).subgroup_as_group({0, 1, 3})
    assert exc.value.code == "bad-spec"


def test_constructors_refuse_past_the_order_limit_before_tabulating():
    for make in (lambda: cyclic(MAX_ORDER + 1), lambda: heisenberg(23), lambda: gl2(11)):
        start = time.perf_counter()
        with pytest.raises(ValidationError) as exc:
            make()
        assert exc.value.code == "bound-exceeded" and time.perf_counter() - start < 1


def test_direct_product_matches_elementary_abelian():
    g = direct_product(cyclic(3), cyclic(3))
    assert g.order == 9
    assert g.is_abelian()
    assert len(g.all_subgroups()) == 6
    assert g.exponent() == 3


def test_permutation_closure():
    # S_3 from a transposition and a 3-cycle
    g = from_permutations([(1, 0, 2), (1, 2, 0)], degree=3)
    assert g.order == 6
    assert len(g.conjugacy_classes()) == 3
    assert sorted(g.conjugacy_classes().sizes) == [1, 2, 3]


def _dict_composed_table(gens, degree):
    """The permutation-closure table by tuple composition through a dict, in the same walk order."""
    ident = tuple(range(degree))
    elems, order, walk = {ident: 0}, [ident], [ident]
    while walk:
        x = walk.pop()
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in elems:
                elems[y] = len(order)
                order.append(y)
                walk.append(y)
    return [[elems[tuple(x[y[i]] for i in range(degree))] for y in order] for x in order]


def _quaternion_generators():
    """Left multiplication by i and j on Q_8 = {±1, ±i, ±j, ±k}, element s·u coded 4s + u (u = 1, i, j, k)."""
    units = {(0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3), (1, 0): (0, 1), (1, 1): (1, 0),
             (1, 2): (0, 3), (1, 3): (1, 2), (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1)}
    gens = []
    for a in (1, 2):
        image = []
        for code in range(8):
            sign, u = divmod(code, 4)
            s, v = units[(a, u)]
            image.append(4 * ((sign + s) % 2) + v)
        gens.append(image)
    return gens


def test_permutation_closure_matches_dict_composition():
    for gens, degree, order in (
        ([[1, 2, 3, 0], [3, 2, 1, 0]], 4, 8),  # D_8
        (_quaternion_generators(), 8, 8),  # Q_8, regular
        ([[1, 2, 3, 0], [1, 0, 2, 3]], 4, 24),  # S_4
        ([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5, 120),  # S_5
    ):
        G = from_permutations(gens, degree)
        assert G.order == order
        assert G.table.tolist() == _dict_composed_table(gens, degree)
    assert not from_permutations(_quaternion_generators(), 8).is_abelian()
    assert sorted(from_permutations(_quaternion_generators(), 8).element_orders().tolist()) == [1, 2] + [4] * 6
    with pytest.raises(ValidationError) as e:
        from_permutations([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5, max_order=60)
    assert e.value.code == "bound-exceeded"


def test_group_from_spec_strings():
    assert group_from_spec("named:cyclic:3").order == 3
    assert group_from_spec("named:elementary_abelian:3:2").order == 9
    assert group_from_spec("named:heisenberg:3").order == 27
    assert group_from_spec("named:gl2:3").order == 48


def test_group_from_spec_dicts(tmp_path):
    g = group_from_spec({"kind": "cayley", "mul": [[0, 1], [1, 0]]})
    assert g.order == 2
    g = group_from_spec({"kind": "perm", "degree": 3, "gens": [[1, 2, 0]]})
    assert g.order == 3
    g = group_from_spec({"kind": "product", "factors": ["named:cyclic:3", "named:cyclic:3"]})
    assert g.order == 9
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"kind": "cayley", "mul": [[0, 1], [1, 0]]}))
    assert group_from_spec(f"file:{path}").order == 2


def test_group_from_spec_rejects_garbage():
    for bad in ["named:nonsense:3", "named:cyclic", "mystery", {"kind": "wat"}, 17]:
        with pytest.raises(ValidationError) as exc:
            group_from_spec(bad)
        assert exc.value.code == "bad-spec"


def test_non_associative_table_rejected():
    # Z/8 with a 2×2 intercalate flipped: still a Latin square with identity
    # and two-sided inverses, but (1·1)·1 ≠ 1·(1·1).
    table = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    table[1][2], table[1][6] = table[1][6], table[1][2]
    table[5][2], table[5][6] = table[5][6], table[5][2]
    with pytest.raises(ValidationError) as exc:
        FiniteGroup(table)
    assert exc.value.code == "bad-spec"
    assert "associativity" in exc.value.message
    # Z/500 with the intercalate at rows 3, 253 and columns 5, 255 swapped: (3·5)·1 ≠ 3·(5·1) is
    # one of 7952 bad triples in 500³, so a sample of 2000 random triples most likely misses them all
    table = [[(i + j) % 500 for j in range(500)] for i in range(500)]
    for row in (3, 253):
        table[row][5], table[row][255] = table[row][255], table[row][5]
    with pytest.raises(ValidationError) as exc:
        FiniteGroup(table)
    assert exc.value.code == "bad-spec"
    assert "associativity" in exc.value.message
    assert FiniteGroup([[(i + j) % 500 for j in range(500)] for i in range(500)]).order == 500


def test_non_latin_table_rejected():
    with pytest.raises(ValidationError) as exc:
        FiniteGroup([[0, 1], [1, 1]])
    assert exc.value.code == "bad-spec"
    # entries outside 0..n−1 are refused before any indexing: −2 would wrap to the identity as a
    # numpy index; the ragged rows flatten to a valid table of Z/3
    for table, words in (
        ([[0, 1], [1, 2]], "0..1"),
        ([[0, 1], [1, -2]], "0..1"),
        ([[0, 1, 2, 1], [2, 0], [2, 0, 1]], "not square"),
    ):
        with pytest.raises(ValidationError) as exc:
            FiniteGroup(table)
        assert exc.value.code == "bad-spec" and words in exc.value.message


def _reference_group(rows, names):
    """The table-derived data by the original loops: identity, inverses, classes, element orders."""
    n = len(rows)
    e = next(e for e in range(n) if all(rows[e][x] == x and rows[x][e] == x for x in range(n)))
    inv = [next(b for b in range(n) if rows[a][b] == e) for a in range(n)]
    class_of, reps, sizes = [-1] * n, [], []
    for x in range(n):
        if class_of[x] < 0:
            orbit = {rows[rows[g][x]][inv[g]] for g in range(n)}
            for y in orbit:
                class_of[y] = len(reps)
            reps.append(min(orbit))
            sizes.append(len(orbit))
    conj = ConjugacyData(
        tuple(class_of), tuple(reps), tuple(sizes), tuple(n // s for s in sizes), tuple(class_of[inv[r]] for r in reps)
    )
    orders = []
    for a in range(n):
        k, x = 1, a
        while x != e:
            k, x = k + 1, rows[x][a]
        orders.append(k)
    return rows, list(names), e, inv, conj, orders


def _reference_tabulation(elements, product, name):
    index = {x: i for i, x in enumerate(elements)}
    return [[index[product(x, y)] for y in elements] for x in elements], [name(x) for x in elements]


def test_constructors_match_the_loop_tabulation():
    def cyclic_ref(m):
        return _reference_tabulation(range(m), lambda a, b: (a + b) % m, str)

    def vectors(p, k):
        return list(itertools.product(range(p), repeat=k))

    def elementary_ref(p, k):
        return _reference_tabulation(
            vectors(p, k), lambda x, y: tuple((a + b) % p for a, b in zip(x, y)), lambda v: f"({','.join(map(str, v))})"
        )

    def heisenberg_ref(p):
        return _reference_tabulation(
            vectors(p, 3),
            lambda u, v: ((u[0] + v[0]) % p, (u[1] + v[1]) % p, (u[2] + v[2] + u[0] * v[1]) % p),
            lambda t: f"({t[0]},{t[1]},{t[2]})",
        )

    def xsp_ref(p):
        pp = p * p
        return _reference_tabulation(
            [(i, j) for i in range(pp) for j in range(p)],
            lambda u, v: ((u[0] + v[0] * pow(1 + p, u[1], pp)) % pp, (u[1] + v[1]) % p),
            lambda t: f"a^{t[0]}b^{t[1]}",
        )

    def gl2_ref(p):
        def mul(m, w):
            (a, b, c, d), (e, f, g, h) = m, w
            return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)

        mats = [m for m in vectors(p, 4) if (m[0] * m[3] - m[1] * m[2]) % p]
        return _reference_tabulation(mats, mul, lambda m: f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]")

    def perm_ref(gens, degree):
        elems, frontier = [tuple(range(degree))], [tuple(range(degree))]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple(x[g[i]] for i in range(degree))
                if y not in elems:
                    elems.append(y)
                    frontier.append(y)
        return _reference_tabulation(elems, lambda x, y: tuple(x[i] for i in y), lambda _: "")[0]

    heis = heisenberg(3)
    rows, names = heisenberg_ref(3)
    c3_rows, c3_names = cyclic_ref(3)
    d8_gens = [[1, 2, 3, 0], [3, 2, 1, 0]]
    cases = [(cyclic(m), *cyclic_ref(m)) for m in (1, 3, 27)]
    cases += [(elementary_abelian(p, k), *elementary_ref(p, k)) for p, k in ((2, 5), (3, 3))]
    cases += [(heisenberg(p), *heisenberg_ref(p)) for p in (3, 5)]
    cases += [(extraspecial_exp_p2(p), *xsp_ref(p)) for p in (3, 5)]
    cases += [(gl2(p), *gl2_ref(p)) for p in (2, 3)]
    cases.append(
        (
            direct_product(heis, cyclic(3)),
            [
                [rows[a1][b1] * 3 + c3_rows[a2][b2] for b1 in range(27) for b2 in range(3)]
                for a1 in range(27)
                for a2 in range(3)
            ],
            [f"({x},{y})" for x in names for y in c3_names],
        )
    )
    d8 = perm_ref(d8_gens, 4)
    cases.append((group_from_spec({"kind": "perm", "degree": 4, "gens": d8_gens}), d8, [str(i) for i in range(8)]))
    for sub in heis.all_subgroups():
        elems = sorted(sub)
        index = {g: i for i, g in enumerate(elems)}
        sub_rows = [[index[rows[a][b]] for b in elems] for a in elems]
        cases.append((heis.subgroup_as_group(sub)[0], sub_rows, [names[g] for g in elems]))
    for G, ref_rows, ref_names in cases:
        t = G.table
        assert t.dtype == np.int64 and not t.flags.writeable
        conj = G.conjugacy_classes()
        got = (t.tolist(), G.names, G.identity, G.inverse, conj, [G.element_order(x) for x in range(G.order)])
        ref = _reference_group(ref_rows, ref_names)
        assert got == ref
        assert type(G.identity) is int
        assert json.dumps(dataclasses.asdict(conj)) == json.dumps(dataclasses.asdict(ref[4]))
        assert G.exponent() == math.lcm(*ref[5])


def test_closure_and_generators():
    g = heisenberg(3)
    gens = g.generating_set()
    assert len(gens) == 2  # extraspecial p^{1+2} needs exactly two generators
    assert len(g.closure(gens)) == 27
    assert g.closure([]) == {g.identity}


def test_generating_set_walks_closure_once(monkeypatch):
    g = heisenberg(5)
    calls, span = [], g._span
    monkeypatch.setattr(g, "_span", lambda gens: calls.append(list(gens)) or span(gens))
    first = g.generating_set()
    walked = len(calls)
    second = g.generating_set()
    assert walked and len(calls) == walked
    assert first == second and first is not second
    first.append(g.identity)  # the caller owns its list
    assert g.generating_set() == second


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if is_prime(n) != trial(n)] == []


def test_is_prime_is_deterministic_up_to_its_limit():
    # a strong pseudoprime to every prime base up to 37: only the base 41 rejects it
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3215031751) and not is_prime(561)  # strong pseudoprime to 2, 3, 5, 7; Carmichael
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and not is_prime((2**31 - 1) * 1000003)
    assert not is_prime(3 * MAX_PRIME_TEST)  # a factor among the bases answers at any size
    for n in (MAX_PRIME_TEST, 2**89 - 1):  # the bound is itself a strong pseudoprime to all 13 bases
        with pytest.raises(ValidationError) as e:
            is_prime(n)
        assert e.value.code == "bound-exceeded" and str(MAX_PRIME_TEST) in e.value.message


def test_the_flat_table_is_built_only_by_a_scalar_loop():
    from arith_tqft.dw import RelatorSpec, epi_count, hom_count

    G = elementary_abelian(3, 6)
    spec = RelatorSpec(3, 1)
    gl6 = math.prod(3**6 - 3**i for i in range(6))
    assert hom_count(spec, G) == 729**6  # every tuple solves the relator of an abelian group of exponent 3
    assert epi_count(spec, G) == gl6
    assert G.automorphism_count() == gl6
    assert "_t" not in G.__dict__
    assert G.mul(1, 2) == int(G.table[1, 2]) and "_t" in G.__dict__
