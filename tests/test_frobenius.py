"""Universal scalars, the rank-2 universal algebra, axiom checks, evaluation."""

import random

import numpy as np
import pytest

from arith_tqft import frobenius
from arith_tqft.cobordism import TORUS, TWIST, Diagram, Token, canonicalize, parse_diagram, surface_diagram
from arith_tqft.dw import DWAlgebra
from arith_tqft.errors import ComputationError, ValidationError
from arith_tqft.frobenius import (
    AXIOMS,
    H,
    ONE,
    T,
    X,
    GenericMatrix,
    UniversalAlgebra,
    UniversalElem,
    UniversalScalar,
    bracket,
    check_axioms,
    ensure_prechecked,
    evaluate_diagram,
    universal_delta,
    universal_eps,
    universal_iota,
    universal_mul,
    universal_phi,
)
from arith_tqft.pgroup import cyclic, heisenberg
from arith_tqft.units import INF, level, one, sample_units, unit


# -- scalar ring ---------------------------------------------------------------------


def test_scalar_ring_basics():
    assert H + H == 2 * H
    assert (H + T) * (H - T) == H**2 - T**2
    assert 3 * H - 3 * H == 0
    assert str(2 * H**2 + 8 * T) == "2h^2 + 8t"
    assert str(H - T) == "h - t"
    assert str(UniversalScalar()) == "0"
    assert str(bracket(2)) == "[2]"
    assert str(H * bracket(1) + T) == "t + h[1]"


def test_bracket_relations():
    assert bracket(INF) == 0
    assert bracket(1) + bracket(1) == 0  # 2[r] = 0
    assert bracket(1) * bracket(1) == H * bracket(1)  # [r]² = h[r]
    b12 = bracket(1) * bracket(2)
    assert b12 == H * (bracket(1) + bracket(2) + bracket(1))  # -[min] ≡ +[min]
    assert b12 == H * bracket(2)
    assert bracket(2) * bracket(5) == H * (bracket(5) + bracket(2) + bracket(2)) == H * bracket(5)
    # brackets never leak into the free part
    s = (1 + bracket(3)) * (1 + bracket(3))
    assert s == 1 + H * bracket(3)


def test_bracket_window():
    assert bracket(6) == bracket(6)
    with pytest.raises(ValidationError) as e:
        bracket(7)
    assert e.value.code == "level-window"
    with pytest.raises(ValidationError):
        bracket(0)
    assert bracket(9, max_level=10) != 0


def test_scalar_json_round_trip_fields():
    s = 2 * H + bracket(1) * T
    js = s.to_json()
    assert js["free"] == [[1, 0, 2]]
    assert js["brackets"] == [[1, [[0, 1, 1]]]]


def test_scalar_strings_and_json_are_stable():
    # recorded from the earlier free-part-plus-bracket-polynomials representation
    cases = [
        ((H - 2 * T) ** 2 + 3, "h^2 - 4ht + 4t^2 + 3",
         {"free": [[0, 0, 3], [0, 2, 4], [1, 1, -4], [2, 0, 1]], "brackets": []}),
        ((1 + bracket(3)) * (T + bracket(1)), "t + [1] + (h + t)[3]",
         {"free": [[0, 1, 1]], "brackets": [[1, [[0, 0, 1]]], [3, [[0, 1, 1], [1, 0, 1]]]]}),
        ((H + T * bracket(2)) * (H * T - bracket(5) + bracket(2)), "h^2t + (ht^2 + ht + h)[2] + (ht + h)[5]",
         {"free": [[2, 1, 1]], "brackets": [[2, [[1, 0, 1], [1, 1, 1], [1, 2, 1]]], [5, [[1, 0, 1], [1, 1, 1]]]]}),
        (-3 * H * T**2 + 5 * bracket(4) - T, "-3ht^2 - t + [4]",
         {"free": [[0, 1, -1], [1, 2, -3]], "brackets": [[4, [[0, 0, 1]]]]}),
        (7 - (bracket(1) + bracket(6)) * (bracket(2) + T), "7 + t[1] + h[2] + (h + t)[6]",
         {"free": [[0, 0, 7]], "brackets": [[1, [[0, 1, 1]]], [2, [[1, 0, 1]]], [6, [[0, 1, 1], [1, 0, 1]]]]}),
        (H * bracket(2) - 1, "-1 + h[2]", {"free": [[0, 0, -1]], "brackets": [[2, [[1, 0, 1]]]]}),
        (2 * bracket(1), "0", {"free": [], "brackets": []}),
    ]
    for s, text, js in cases:
        assert (str(s), s.to_json()) == (text, js)


def test_bracket_products_follow_the_level_maximum():
    for r in range(1, 7):
        for s in range(1, 7):
            prod = bracket(r) * bracket(s)
            assert prod == H * (bracket(r) + bracket(s) - bracket(min(r, s)))  # the defining relation
            assert prod == H * bracket(max(r, s))
            assert str(prod) == f"h[{max(r, s)}]"
            assert prod.to_json() == {"free": [], "brackets": [[max(r, s), [[1, 0, 1]]]]}


def _model_mul(a, b):
    """Test-side product of {level: {(i, j): c}} scalars by the relation [r][s] = h([r] + [s] − [min])."""
    out = {}

    def put(r, key, c):
        out.setdefault(r, {})[key] = out.get(r, {}).get(key, 0) + c

    for r, pa in a.items():
        for s, pb in b.items():
            for (i1, j1), c1 in pa.items():
                for (i2, j2), c2 in pb.items():
                    key, c = (i1 + i2, j1 + j2), c1 * c2
                    if not (r and s):
                        put(r or s, key, c)
                    else:
                        hkey = (key[0] + 1, key[1])
                        put(r, hkey, c)
                        put(s, hkey, c)
                        put(min(r, s), hkey, -c)
    return out


def _model_json(a):
    norm = {r: {key: c % 2 if r else c for key, c in poly.items()} for r, poly in a.items()}
    return {
        "free": [[i, j, c] for (i, j), c in sorted(norm.get(0, {}).items()) if c],
        "brackets": [
            [r, [[i, j, c] for (i, j), c in sorted(poly.items()) if c]]
            for r, poly in sorted(norm.items())
            if r and any(poly.values())
        ],
    }


def test_scalar_ring_laws_on_random_scalars():
    rng = random.Random(20)

    def draw():
        model, s = {}, UniversalScalar()
        for _ in range(rng.randrange(0, 5)):
            c, i, j = rng.randrange(-5, 6), rng.randrange(3), rng.randrange(3)
            r = rng.choice((0, 0, 1, 2, 3, 6))
            model.setdefault(r, {})[(i, j)] = model.get(r, {}).get((i, j), 0) + c
            s = s + c * H**i * T**j * (bracket(r) if r else 1)
        return model, s

    for _ in range(60):
        (ma, a), (mb, b), (_, c) = draw(), draw(), draw()
        assert a.to_json() == _model_json(ma)
        assert (a * b).to_json() == _model_json(_model_mul(ma, mb))
        assert a * b == b * a and a + b == b + a
        assert (a * b) * c == a * (b * c) and (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0 and a + (-a) == 0 and -(-a) == a
        for k in (0, 1, -1, rng.randrange(2, 9), -rng.randrange(2, 9)):
            assert a * k == k * a == a * UniversalScalar.from_int(k)
            assert (a * k).to_json() == _model_json(_model_mul(ma, {0: {(0, 0): k}}))
            assert a + k == k + a == a + UniversalScalar.from_int(k)
            assert a - k == -(k - a)
        assert a * 0 == 0 and 0 * a == 0 and a * 1 == a and a * -1 == -a
        assert a * 2 == a + a and -3 * a == -(a + a + a)
    assert hash(UniversalScalar.from_int(-4)) == hash(-4) and hash(UniversalScalar()) == hash(0)
    with pytest.raises(ValidationError) as e:
        H * 1.5
    assert e.value.code == "bad-spec"


# -- element operations ----------------------------------------------------------------


def test_multiplication_table():
    assert universal_mul(ONE, X) == X
    assert universal_mul(X, X) == UniversalElem(T, H)  # x² = t + hx
    assert universal_mul(X, universal_mul(X, X)) == universal_mul(universal_mul(X, X), X)


def test_counit_and_unit():
    assert universal_eps(X) == 1
    assert universal_eps(ONE) == 0
    assert universal_iota(5) == UniversalElem(5, 0)
    assert universal_mul(universal_iota(1), X) == X


def test_delta_in_simple_tensors():
    pairs = universal_delta(ONE)
    # Σ ε(u)·w recovers the element
    total = UniversalElem()
    for u, w in pairs:
        total = total + w.scale(universal_eps(u))
    assert total == ONE
    # m∘Δ is multiplication by the handle element 2x - h
    total = UniversalElem()
    for u, w in universal_delta(X):
        total = total + universal_mul(u, w)
    assert total == universal_mul(UniversalElem(-H, 2), X)


def test_phi_action_and_involution():
    a = unit(4, 3, 4)  # level 1
    assert universal_phi(a, X) == UniversalElem(bracket(1), 1)
    assert universal_phi(a, universal_phi(a, X)) == X
    assert universal_phi(one(3, 4), X) == X  # level inf acts trivially
    deep = unit(1 + 3**7, 3, 9)
    with pytest.raises(ValidationError) as e:
        universal_phi(deep, X)
    assert e.value.code == "level-window"


def test_phi_is_determined_by_the_level():
    v = UniversalElem(H, T + 3)
    for a in sample_units(3, 5, 2, count=3):
        assert universal_phi(a, v) == UniversalElem(H + bracket(2) * (T + 3), T + 3)
    b = unit(1 + 5**2, 5, 4)  # same level, different prime
    assert universal_phi(b, v) == universal_phi(sample_units(3, 5, 2)[0], v)


# -- matrices and the algebra --------------------------------------------------------


def test_token_matrices_match_the_table():
    A = UniversalAlgebra()
    m = A.token_matrix(Token("m"))
    assert m.rows == ((1, 0, 0, T), (0, 1, 1, H))
    d = A.token_matrix(Token("d"))
    assert d.rows == ((-H, T), (1, 0), (1, 0), (0, 1))
    assert A.token_matrix(Token("cup")).rows == ((0, 1),)
    assert A.token_matrix(Token("cap")).rows == ((1,), (0,))
    tor1 = A.token_matrix(TORUS(1))
    assert tor1.rows == ((-H + bracket(1), 2 * T), (2, H + bracket(1)))
    tor_inf = A.token_matrix(TORUS(INF))
    assert tor_inf.rows == ((-H, 2 * T), (2, H))


def test_kappa_is_cached_and_level_dependent():
    A = UniversalAlgebra()
    k1 = A.kappa(1)
    assert k1 is A.kappa(1)
    assert k1 == UniversalElem(-H + bracket(1), 2)
    assert A.kappa(INF) == UniversalElem(-H, 2)


def test_axioms_all_pass_for_the_universal_algebra():
    A = UniversalAlgebra()
    report = check_axioms(A, levels=(1, 2, 3, 4))
    assert set(report) == set(AXIOMS)
    for name, (ok, witness) in report.items():
        assert ok, (name, witness)


def test_f11_closed_form():
    A = UniversalAlgebra()
    lhs = universal_mul(A.kappa(1), A.kappa(2))
    rhs = universal_mul(A.kappa(INF), A.kappa(1))
    assert lhs == rhs == UniversalElem(H**2 + 4 * T + H * bracket(1), 0)


def test_f12_needs_the_level_bound():
    # φ_α fixes the image of a level-r handle exactly when level(α) ≥ r
    A = UniversalAlgebra()
    k2 = A.kappa(2)
    lvl2 = sample_units(3, 5, 2)[0]
    lvl1 = sample_units(3, 5, 1)[0]
    v = universal_mul(k2, X)
    assert universal_phi(lvl2, v) == v
    assert universal_phi(lvl1, v) != v


def test_broken_counit_is_reported_with_witness():
    bad_eps = GenericMatrix(((1, 0),))  # ε'(a + bx) = a
    A = UniversalAlgebra(overrides={"cup": bad_eps})
    report = check_axioms(A, axioms=("F1", "F2"))
    ok, witness = report["F2"]
    assert not ok and witness == "x"
    assert report["F1"][0]
    with pytest.raises(ValidationError) as e:
        evaluate_diagram(parse_diagram("d; m"), A)
    assert e.value.code == "axiom-failure"
    assert "F2" in e.value.message and "x" in e.value.message


def test_evaluation_genus_three_closed_surface():
    A = UniversalAlgebra()
    D = surface_diagram(3, INF, 0, 0)
    val = evaluate_diagram(D, A)
    assert val.shape == (1, 1)
    assert val.rows[0][0] == 2 * H**2 + 8 * T


def test_evaluation_handle_operator_squared():
    A = UniversalAlgebra()
    M = evaluate_diagram(parse_diagram("d; m; d; m"), A)
    c = H**2 + 4 * T
    assert M.rows == ((c, 0), (0, c))


def test_evaluation_respects_canonical_equality():
    A = UniversalAlgebra()
    D1 = parse_diagram("d; tw(4 mod 3^2), id; m")
    D2 = parse_diagram("tor(1)")
    assert evaluate_diagram(D1, A).rows == evaluate_diagram(D2, A).rows
    D3 = parse_diagram("d; tw(4 mod 3^2), tw(4 mod 3^2); m")
    D4 = parse_diagram("d; m; tw(4 mod 3^2)")
    assert evaluate_diagram(D3, A).rows == evaluate_diagram(D4, A).rows


def test_evaluation_torus_with_puncture_pair():
    A = UniversalAlgebra()
    # a level-2 handle then a level-1 handle equals inf + min as operators
    lhs = evaluate_diagram(parse_diagram("tor(2); tor(1)"), A)
    rhs = evaluate_diagram(parse_diagram("tor(inf); tor(1)"), A)
    assert lhs.rows == rhs.rows


def test_dimension_guard():
    A = UniversalAlgebra()
    wide = parse_diagram("; ".join(["id, id, id, id, id, id, id"]))
    with pytest.raises(ComputationError) as e:
        evaluate_diagram(wide, A)
    assert e.value.code == "dimension-guard"


def test_evaluation_of_identity_is_identity():
    from arith_tqft.cobordism import identity_diagram

    A = UniversalAlgebra()
    M = evaluate_diagram(identity_diagram(2), A)
    assert M == GenericMatrix.identity(4)


def test_level_window_on_torus_tokens():
    A = UniversalAlgebra(max_level=3)
    with pytest.raises(ValidationError) as e:
        evaluate_diagram(parse_diagram("tor(4)"), A)
    assert e.value.code == "level-window"
    B = UniversalAlgebra(max_level=4)
    assert evaluate_diagram(parse_diagram("tor(4)"), B).shape == (2, 2)


# -- evaluation against an independent Kronecker reference ----------------------------

KINDS_BY_INPUTS = {0: ("cap",), 1: ("id", "tw", "tor", "d", "cup"), 2: ("m", "swap")}
REFERENCE_UNITS = [u for r in (1, 2, INF) for u in sample_units(3, 4, r)]
REFERENCE_COST = 10**7  # multiply-adds the reference may spend on one diagram
# the universal algebra draws handles at every level of its window and twists
# at levels 1–3; its reference multiplies symbolic scalars, so it gets less cost
UNIVERSAL_POOLS = {
    "units": [u for r in (1, 2, 3, INF) for u in sample_units(3, 5, r, count=2)],
    "levels": (1, 2, 3, 4, 5, 6, INF),
    "cost_limit": 2**14,
}
UNIVERSAL_FIXED = [
    "; ".join(f"tor({r})" for r in ("1", "2", "3", "4", "5", "6", "inf")),
    "m, m, id; m, id; m; tor(5)",  # 5 → 1, top-down
    "d; d, id; tor(6), d, id; id, id, id, d",  # 1 → 5
    "tw(28 mod 3^5), tw(10 mod 3^5), tw(4 mod 3^5), tor(3), id; swap, m, id",
    "tor(1), tor(2), tor(3), tor(4), tor(inf); m, m, id; m, id; m",
]
REFERENCE_ALGEBRAS = {
    "universal": (UniversalAlgebra, 5, UNIVERSAL_POOLS),
    "C3": (lambda: DWAlgebra(cyclic(3), 7), 4, {}),
    "C9": (lambda: DWAlgebra(cyclic(9), 19), 3, {}),
    "Heis3": (lambda: DWAlgebra(heisenberg(3), 61), 3, {}),
    # ℓ > 2²⁸: the counit entry 1/3 mod ℓ times a reduced entry can pass 2⁵³,
    # so the evaluator must leave float64 for exact integers
    "C3 exact": (lambda: DWAlgebra(cyclic(3), 268435459), 4, {}),
}


def _kron_reference(D, A):
    """The product of np.kron-assembled slice matrices, exact, as tuples of rows."""
    # int64 stays exact while k^width·(ℓ−1)² < 2⁶³ for every reduced product below
    l = getattr(A, "l", None)
    dtype = object if l is None or A.dim ** D.widest * (l - 1) ** 2 >= 2**63 else np.int64
    reduce = (lambda M: M) if l is None else (lambda M: M % l)
    total = np.eye(A.dim**D.in_arity, dtype=dtype)
    for sl in D.slices:
        S = np.ones((1, 1), dtype=dtype)
        for tok in sl:
            S = reduce(np.kron(S, np.array(A.token_matrix(tok).rows, dtype=dtype)))
        total = reduce(S @ total)
    return tuple(map(tuple, total.tolist()))


class _ArraySpy:
    """numpy as `frobenius` sees it, noting the entries per monomial component of every state it forms.

    A product by the monomial 1 is (ν, …): one component counts; a batched
    product is (μ, ν, …): one pair counts.  A state built otherwise counts whole.
    """

    FORMING = {"matmul", "multiply", "ones", "zeros", "full", "eye"}

    def __init__(self, monkeypatch):
        self.sizes = []
        monkeypatch.setattr(frobenius, "np", self)

    def __getattr__(self, name):
        f = getattr(np, name)
        if name not in self.FORMING:
            return f

        def recording(*args, **kwargs):
            out = f(*args, **kwargs)
            lead = {4: 1, 5: 2}.get(out.ndim, 0) if name in ("matmul", "multiply") else 0
            self.sizes.append(out[(0,) * lead].size)
            return out

        return recording


@pytest.mark.parametrize("text", ["d, cup", "cap, m", "m, cap; m", "m, d; m, id", "id, m, id; d, id, id"])
@pytest.mark.parametrize("make", [UniversalAlgebra, lambda: DWAlgebra(cyclic(3), 7)])
def test_state_never_outgrows_the_slice_boundaries(make, text, monkeypatch):
    # a widening token applied before a narrowing one in the same slice would
    # make the state k times wider than either boundary of that slice
    A, D = make(), parse_diagram(text)
    ensure_prechecked(A)
    spy = _ArraySpy(monkeypatch)
    got = frobenius._contract(D, A, frobenius._modulus(A))  # whole, as DW evaluation would split it
    monkeypatch.undo()
    widths = [D.in_arity] + [sum(t.arity[1] for t in sl) for sl in D.slices]
    columns = A.dim ** min(D.in_arity, D.out_arity)
    assert spy.sizes and max(spy.sizes) <= A.dim ** max(widths) * columns
    assert tuple(map(tuple, got.tolist())) == _kron_reference(D, A)
    assert evaluate_diagram(D, A).rows == _kron_reference(D, A)


def test_f5_forms_no_array_past_k4_entries(monkeypatch):
    # d ⊗ id leaves k⁴ nonzeros in a k³ × k² matrix; with input 1 passing
    # through until m reads it, no array of the law's left side holds more
    from arith_tqft.chartab import split_primes

    G = heisenberg(5)
    A = DWAlgebra(G, split_primes(G, count=1)[0])
    k = A.dim
    assert k == 29 and k**4 <= frobenius._STATE_ENTRIES  # one block
    spy = _ArraySpy(monkeypatch)
    lhs = frobenius._contract(parse_diagram("d, id; id, m"), A, A.l)
    monkeypatch.undo()
    assert max(spy.sizes) <= k**4
    assert lhs.shape == (k**2, k**2) and np.array_equal(lhs, frobenius._contract(parse_diagram("m; d"), A, A.l))


F5_LEFT_SIDES = ("d, id; id, m", "id, d; m, id")


@pytest.mark.parametrize("entries", [1, 50])
def test_column_blocks_give_the_same_matrix(entries, monkeypatch):
    monkeypatch.setattr(frobenius, "_STATE_ENTRIES", entries)
    for A in (UniversalAlgebra(), DWAlgebra(cyclic(3), 7)):
        ensure_prechecked(A)
        texts = ("m, d; m, id", "d; d, id", "cap, id; swap; m; cup", "cap", "tor(1), tor(3); tor(inf), tor(2); m")
        for text in texts + F5_LEFT_SIDES:
            D = parse_diagram(text)
            assert evaluate_diagram(D, A).rows == _kron_reference(D, A), text
            want = np.array(_kron_reference(D, A), dtype=object)
            assert np.array_equal(frobenius._contract(D, A, frobenius._modulus(A)), want), text


def test_wide_dw_column_blocks_match_one_block(monkeypatch):
    # 7 strands in and out on C₃: the 2187² state goes through in column blocks
    A = DWAlgebra(cyclic(3), 7)
    ensure_prechecked(A)
    D = parse_diagram("swap, m, d, swap; id, swap, m, d, id; swap, tor(1), swap, swap")
    assert D.in_arity == D.out_arity == 7 and 3**14 > frobenius._STATE_ENTRIES
    blocked = frobenius._contract(D, A, 7)  # whole: evaluation would split it into pieces
    assert np.array_equal(blocked, evaluate_diagram(D, A).a)
    monkeypatch.setattr(frobenius, "_STATE_ENTRIES", 2**26)
    assert np.array_equal(blocked, frobenius._contract(D, A, 7))


def _random_token(rng, kind, units=REFERENCE_UNITS, levels=(1, 2, INF)):
    if kind == "tw":
        return TWIST(rng.choice(units))
    if kind == "tor":
        return TORUS(rng.choice(levels))
    return Token(kind)


def _random_slice(rng, width, max_width, **pools):
    while True:
        toks, left = [], width
        while left or rng.random() < 0.3:
            kind = rng.choice([k for a, kinds in KINDS_BY_INPUTS.items() if a <= left for k in kinds])
            toks.append(_random_token(rng, kind, **pools))
            left -= toks[-1].arity[0]
        if toks and sum(t.arity[1] for t in toks) <= max_width:
            return toks


def _random_diagram(rng, k, max_width, cost_limit=REFERENCE_COST, **pools):
    while True:
        width = rng.randint(0, max_width)
        slices, cost = [], 0
        for _ in range(rng.randint(1, 4)):
            slices.append(_random_slice(rng, width, max_width, **pools))
            out = sum(t.arity[1] for t in slices[-1])
            cost += k ** (width + out)
            width = out
        D = Diagram(slices)
        if cost * k**D.in_arity <= cost_limit:
            return D


@pytest.mark.parametrize("name", list(REFERENCE_ALGEBRAS))
def test_evaluation_matches_a_kronecker_reference(name):
    make, max_width, pools = REFERENCE_ALGEBRAS[name]
    A = make()
    rng = random.Random(20251018)
    fixed = [
        "m, id; m",  # out < in: evaluated top-down
        "d; d, id",  # in < out
        "cap, id; swap; m; cup",
        "tw(4 mod 3^2), cap; id, d; m, id; cup, cup",
        "; ".join(["d; m"] * 20),  # long enough to force a reduction mod ℓ
        "cap, swap; id, m; m",  # out < in, a swap at offset 1 in a widening slice
        "d, d; id, swap, id; m, m",  # a swap with strands on both sides
        "swap, swap; m, m",  # two swaps in one slice
        "d, swap; m, m; m",  # out < in, a swap beside a widening d
    ] + (UNIVERSAL_FIXED if pools else [])
    diagrams = [parse_diagram(text) for text in fixed]
    diagrams = [D for D in diagrams if D.widest <= max_width]
    diagrams += [_random_diagram(rng, A.dim, max_width, **pools) for _ in range(30)]
    toks = [t for D in diagrams for sl in D.slices for t in sl]
    assert {"cup", "cap", "swap", "tw", "m", "d", "tor"} <= {t.kind for t in toks}
    assert {t.level for t in toks if t.kind == "tor"} == set(pools.get("levels", (1, 2, INF)))
    assert {level(t.unit) for t in toks if t.kind == "tw"} == {level(u) for u in pools.get("units", REFERENCE_UNITS)}
    assert any(D.out_arity < D.in_arity for D in diagrams)
    assert any(D.in_arity < D.out_arity for D in diagrams)
    assert max(D.widest for D in diagrams) == max_width
    for D in diagrams:
        assert evaluate_diagram(D, A).rows == _kron_reference(D, A), str(D)


# each splits into pieces: strands of different pieces crossing, a swap inside one
# piece, twisted bare strands, closed pieces beside open ones, cap and cup pieces,
# and pieces whose legs interleave on both boundaries; the first five are cheap
# enough for the Kronecker reference at every k here, the sixth at k = 3
SPLIT_DIAGRAMS = [
    "tor(1), tor(2); swap",  # two pieces cross
    "d, cup; swap",  # a swap inside the d piece, beside a cup
    "tw(4 mod 3^2), tw(7 mod 3^2); tw(7 mod 3^2), id",  # twisted bare strands
    "cap, tor(1); tor(inf), id; cup, id",  # a closed piece beside an open one
    "cup, cap",
    "tw(4 mod 3^2), d; swap, id",  # a twisted bare strand crosses a strand of d
    "m, tor(1); swap",  # the outputs of two pieces cross
    "id, swap; m, id",  # inputs 0 and 2 join, 1 is bare: columns out of place
    "d, tor(1); swap, id; m, id",  # a swap inside the d … m piece, beside tor(1)
    "tw(4 mod 3^2), m; id, tw(7 mod 3^2)",
    "cap, cap, id; tor(inf), cup, d; cup, id, id",  # two closed pieces
    "cup, cap, id",
    "id, swap; m, id; d, id; id, swap",  # legs interleave on both boundaries
    # a twist tells a piece's own legs apart, so these see each piece's leg order
    "d, tor(1); tw(4 mod 3^2), swap",  # d's outputs 0 (twisted) and 2, tor(1) between
    "tw(4 mod 3^2), swap; m, tor(1)",  # m's inputs 0 (twisted) and 2, tor(1) between
]


def _reference_cost(D, k):
    """Multiply-adds `_kron_reference` spends on D, as `_random_diagram` bounds them."""
    widths = [D.in_arity] + [sum(t.arity[1] for t in sl) for sl in D.slices]
    return sum(k ** (a + b) for a, b in zip(widths, widths[1:])) * k**D.in_arity


def _split_algebras():
    for name in ("C3", "C9", "Heis3", "C3 exact"):
        yield name, REFERENCE_ALGEBRAS[name][0]
    yield "C3 mod 2^61-1", lambda: DWAlgebra(cyclic(3), 2**61 - 1)


@pytest.mark.parametrize("name, make", list(_split_algebras()))
def test_split_evaluation_matches_a_kronecker_reference(name, make):
    # the idempotent walk also against the whole-diagram contraction, which it
    # bypasses; without a splitting the evaluation is that contraction, so the
    # Kronecker reference where its cost allows is the check
    A = make()
    diagrams = [parse_diagram(text) for text in SPLIT_DIAGRAMS]
    rng = random.Random(20261019)
    while len(diagrams) < len(SPLIT_DIAGRAMS) + 20:  # random ones that split, up to 3 strands wide
        D = _random_diagram(rng, A.dim, 3)
        if D.in_arity + D.out_arity and len(canonicalize(D).components) > 1:
            diagrams.append(D)
    referenced = 0
    for D in diagrams:
        assert len(canonicalize(D).components) > 1, str(D)
        got = evaluate_diagram(D, A)
        if A.splitting is not None:
            assert np.array_equal(got.a, frobenius._contract(D, A, A.l)), str(D)
        if _reference_cost(D, A.dim) <= REFERENCE_COST:
            referenced += 1
            assert got.rows == _kron_reference(D, A), str(D)
    assert referenced >= (len(diagrams) if A.dim == 3 else 26)


# inputs that idle before their first reader: swapped, twisted only later, read
# after one or more slices, or never read at all, in both directions and beside
# closed pieces
IDLE_DIAGRAMS = [
    "swap; id, id; m",  # both inputs swapped while idle, then read in crossed order
    "id, id; tw(4 mod 3^2), id; m",  # a twist is the first reader, a slice late
    "id, id; swap; id, tw(7 mod 3^2); m",
    "id, m, id; id, d, id",  # inputs 0 and 3 are never read
    "id, m; swap; d, id",  # input 0 is read by nothing, but crosses m's output
    "id, id, id; swap, id; id, m; m",  # out < in: top-down, the output idles first
    "id, m, id; swap, id",  # out < in, two inputs never read
    "id, cap, id; id, tor(1), id; id, cup, id",  # a closed piece between idle strands
    "cap, id; swap; id, cup",  # a closed piece crosses the idle strand
    "id, swap; id, id, id; m, id; m",  # out < in, swapped while idle, read in order 2 1 0
    "id, d; id, id, tor(inf); swap, id; id, m",  # input 0 idles three slices, crossed by d's output
]


def _idle_diagram(rng, k, max_width, **pools):
    """A random diagram with idle slices of `id`, `swap` and twists before it and never-read strands beside it."""
    while True:
        core = _random_diagram(rng, k, max_width, **pools)
        left, right = rng.randint(0, 1), rng.randint(0, 1)
        pad = lambda toks: [Token("id")] * left + list(toks) + [Token("id")] * right
        slices = [pad(sl) for sl in core.slices]
        for _ in range(rng.randint(1, 2)):  # idle slices ahead of the core
            toks, left_over = [], core.in_arity + left + right
            while left_over:
                kind = rng.choice(["id", "id", "tw"] + ["swap"] * (left_over >= 2))
                toks.append(_random_token(rng, kind, **{key: v for key, v in pools.items() if key != "cost_limit"}))
                left_over -= toks[-1].arity[0]
            slices.insert(0, toks)
        D = Diagram(slices)
        if D.in_arity and D.widest <= max_width and _reference_cost(D, k) <= pools.get("cost_limit", REFERENCE_COST):
            return D


def _idle_algebras():
    yield "universal", UniversalAlgebra
    for name in ("C3", "Heis3", "C3 exact"):
        yield name, REFERENCE_ALGEBRAS[name][0]
    yield "C3 mod 2^61-1", lambda: DWAlgebra(cyclic(3), 2**61 - 1)


@pytest.mark.parametrize("name, make", list(_idle_algebras()))
def test_idle_inputs_match_a_kronecker_reference(name, make):
    A = make()
    pools = UNIVERSAL_POOLS if name == "universal" else {}
    max_width = 5 if name == "universal" else 4 if A.dim == 3 else 3
    rng = random.Random(20261020)
    diagrams = [parse_diagram(text) for text in IDLE_DIAGRAMS]
    diagrams = [D for D in diagrams if D.widest <= max_width]
    diagrams += [_idle_diagram(rng, A.dim, max_width, **pools) for _ in range(20)]
    assert any(D.out_arity < D.in_arity for D in diagrams) and len(diagrams) >= 29
    l, referenced = frobenius._modulus(A), 0
    # the Kronecker reference where its cost allows, else the idempotent walk or
    # the universal rows; without a splitting the evaluation is the contraction
    # itself, and at k = 3 every diagram meets the reference
    for D in diagrams:
        got = tuple(map(tuple, frobenius._contract(D, A, l).tolist()))
        assert got == evaluate_diagram(D, A).rows, str(D)
        if _reference_cost(D, A.dim) <= REFERENCE_COST:
            referenced += 1
            assert got == _kron_reference(D, A), str(D)
    assert referenced >= (len(diagrams) if A.dim <= 3 else 20)


def test_the_widest_gauge_cell_reaches_the_contraction_piece_by_piece(monkeypatch):
    # C₃ at width 7: the whole diagram holds a 3⁷-row state over 3⁶ columns;
    # the walk in the idempotent basis builds each piece's matrix on its own
    # legs, at most 3³ rows and columns
    A = DWAlgebra(cyclic(3), 7)
    ensure_prechecked(A)
    D = parse_diagram("swap, d, m, tor(inf), id; m, id, id, id, id, id")
    whole = frobenius._contract(D, A, 7)
    factor, widths = A.splitting._factor, []

    def spy(w, outs, ins):
        widths.append(max(len(outs), len(ins)))
        return factor(w, outs, ins)

    monkeypatch.setattr(A.splitting, "_factor", spy)
    got = evaluate_diagram(D, A)
    monkeypatch.undo()
    assert widths and A.dim ** max(widths) <= 3**3
    assert got.shape == (3**6, 3**7) and np.array_equal(got.a, whole)


@pytest.mark.parametrize("g", [63, 65, 101])
def test_closed_surfaces_past_int64_are_exact(g):
    # ε(κ^g) with κ = 2x − h; its coefficients pass 2⁶³ from genus 63 on
    A = UniversalAlgebra()
    power = ONE
    for _ in range(g):
        power = universal_mul(power, A.kappa(INF))
    want = universal_eps(power)
    assert max(abs(c) for _, c in want.terms) >= 2**63
    got = evaluate_diagram(parse_diagram("cap; " + "tor(inf); " * g + "cup"), A)
    assert got.shape == (1, 1) and got.rows[0][0] == want
    assert str(got.rows[0][0]) == str(want) and got.rows[0][0].to_json() == want.to_json()


@pytest.mark.parametrize(
    "text, shape",
    [
        ("cap; tor(inf); tor(inf); cup", (1, 1)),  # ε(κ²) = ε(h² + 4t) = 0
        ("cap; tor(1); tor(inf); cup", (1, 1)),
        ("cap, id; tor(1), id; tor(inf), id; cup, id", (2, 2)),
    ],
)
def test_zero_results_keep_their_shape(text, shape):
    M = evaluate_diagram(parse_diagram(text), UniversalAlgebra())
    assert M.shape == shape
    assert all(v == 0 and str(v) == "0" for row in M.rows for v in row)


@pytest.mark.parametrize(
    "text",
    [
        "cap; tor(1); tor(inf); cup",
        "d; tw(4 mod 3^2), id; m",
        "cap, id; tor(1), id; tor(inf), id; cup, id",
        "d, d; id, m, id; m, tor(2); d, id",
    ],
)
def test_universal_rows_are_the_contracted_scalars(text):
    # the rows are tuples holding the very scalars of the contracted array
    A = UniversalAlgebra()
    D = parse_diagram(text)
    rows = evaluate_diagram(D, A).rows
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(v) is UniversalScalar for row in rows for v in row)
    assert rows == tuple(tuple(row) for row in frobenius._contract(D, A, None))


# -- the walk in the character idempotent basis ------------------------------------

# (group, split prime, widest slice of the seeded diagrams, their contraction cost bound)
WALK_ALGEBRAS = {
    "C3": (lambda: cyclic(3), 7, 4, REFERENCE_COST),
    "C9": (lambda: cyclic(9), 19, 3, REFERENCE_COST),
    "Heis3": (lambda: heisenberg(3), 61, 3, REFERENCE_COST),
    "C27": (lambda: cyclic(27), 109, 2, 10**8),
    "Heis5": (lambda: heisenberg(5), 251, 2, 10**8),
    "C3 exact": (lambda: cyclic(3), 268435459, 4, REFERENCE_COST),
}
# twists of level 1 ({u}), 2 ({v}) and inf ({w}), handles at every level, caps
# and cups, swaps inside and across pieces, closed pieces beside open ones
WALK_DIAGRAMS = [
    "tw({u}); d",  # a twist on an input leg, then Δ: the leg keeps its own map
    "tw({u}), tw({v}); m",  # two twisted inputs joined
    "d; tw({u}), id; m",  # one group: m multiplies by [σ₁ = σ₂]
    "d; tw({v}), tw({w}); swap; m; tw({u})",
    "cap; d; tw({v}), tor(2); m; cup",  # a closed twisted handle
    "cap, id; tor(1), tw({u}); m; d; swap",  # a cap joins an input
    "m; d; tor(1), tor(2)",
    "tor(1), tor(2), tor(3), tor(inf)",
    "cap, id; tor(2), tw({u}); cup, id",  # a closed piece beside an open one
    "id, swap; m, id; d, id",  # a swap across pieces, legs interleaved
    "swap; m; d; swap",  # swaps inside one piece
    "d, d; id, swap, id; m, m",  # two groups cross and join twice
    "tw({u}), id; swap; m; cup",
    "cap, cap; m; cup, cap; tor(1); cup",  # closed pieces only
    "cap, cap; tw({v}), tor(3); cup, cup",
    "d, cap; id, m; tw({u}), tor(inf); m",
    "id, cap, id; m, tw({u}); m",  # a cap between two inputs, all joined
]


def _walk_units(p):
    """Twists at levels 1, 2, 3 and inf, mod p⁴."""
    return [u for r in (1, 2, 3, INF) for u in sample_units(p, 4, r, count=2)]


@pytest.mark.parametrize("name", list(WALK_ALGEBRAS))
def test_the_idempotent_walk_matches_the_whole_contraction(name):
    group, l, max_width, cost_limit = WALK_ALGEBRAS[name]
    A = DWAlgebra(group(), l)
    assert A.splitting is not None
    ensure_prechecked(A)
    p, units = A.p, _walk_units(A.p)
    named = {key: f"{u.residue} mod {p}^4" for key, u in zip("uvw", (units[0], units[2], units[-1]))}
    diagrams = [parse_diagram(text.format(**named)) for text in WALK_DIAGRAMS]
    diagrams = [D for D in diagrams if A.dim ** D.widest <= A.max_dim]  # inside the dimension guard
    rng = random.Random(20261021)
    pools = {"units": units, "levels": (1, 2, 3, INF), "cost_limit": cost_limit}
    diagrams += [_random_diagram(rng, A.dim, max_width, **pools) for _ in range(40)]
    toks = [t for D in diagrams for sl in D.slices for t in sl]
    assert {level(t.unit) for t in toks if t.kind == "tw"} == {1, 2, 3, INF}
    assert {t.level for t in toks if t.kind == "tor"} == {1, 2, 3, INF}
    for D in diagrams:
        assert np.array_equal(evaluate_diagram(D, A).a, frobenius._contract(D, A, l)), str(D)


def test_a_tor_diagonal_with_zeros_is_read_as_a_diagonal():
    # tor(1) on C₉ kills the characters of order 9, so its diagonal holds
    # zeros and no permutation can be read off it by argmax
    A = DWAlgebra(cyclic(9), 19)
    ensure_prechecked(A)
    diagonal = A.splitting.form(TORUS(1))
    assert 0 in diagonal.tolist() and len(set(diagonal.tolist())) > 1
    texts = ("tor(1)", "cap; tor(1); cup", "tor(1); tor(1); d", "cap; tor(1); d; m; tor(2)", "id, tor(1); m; d")
    for text in texts:
        D = parse_diagram(text)
        assert np.array_equal(evaluate_diagram(D, A).a, frobenius._contract(D, A, 19)), text


def test_a_twisted_input_leg_keeps_its_own_map():
    # the twist moves the strand's character, not the character its input leg reads
    A = DWAlgebra(cyclic(9), 19)
    ensure_prechecked(A)
    for text in ("tw(16 mod 3^3); d", "tw(16 mod 3^3), id; m", "id, tw(16 mod 3^3); m; d; tw(16 mod 3^3), id"):
        D = parse_diagram(text)
        assert np.array_equal(evaluate_diagram(D, A).a, frobenius._contract(D, A, 19)), text


@pytest.mark.parametrize(
    "G, l",
    [(cyclic(9), 7), (heisenberg(3), 19), (cyclic(3), 2**61 - 1)],
    ids=["C9 mod 7", "Heis3 mod 19", "C3 mod 2^61-1"],
)
def test_a_prime_without_a_character_table_keeps_the_contraction(G, l):
    # ℓ ≢ 1 mod exp Γ, ℓ < 2|Γ|, k·(ℓ−1)² ≥ 2⁶³: no splitting, and each still
    # answers; the evaluation is the whole-diagram contraction, so the check is
    # the Kronecker reference, wherever its cost allows
    A = DWAlgebra(G, l)
    assert A.splitting is None
    texts, referenced = SPLIT_DIAGRAMS[:6] + ["m; d", "cap; d; m; tor(1); cup"], 0
    for text in texts:
        D = parse_diagram(text)
        got = evaluate_diagram(D, A)
        assert got.shape == (A.dim**D.out_arity, A.dim**D.in_arity), text
        if _reference_cost(D, A.dim) <= REFERENCE_COST:
            referenced += 1
            assert got.rows == _kron_reference(D, A), text
    assert referenced >= len(texts) - 1


def test_without_a_splitting_the_whole_diagram_is_one_contraction(monkeypatch):
    # 5 ≢ 1 mod 3: C₃ mod 5 has no splitting, and a diagram of three pieces,
    # two of them closed, is contracted once, whole, and never assembled
    A = DWAlgebra(cyclic(3), 5)
    assert A.splitting is None
    ensure_prechecked(A)
    D = parse_diagram("cap, cap, id; tor(inf), cup, d; cup, id, id")
    assert len(canonicalize(D).components) == 3
    contract, calls = frobenius._contract, []

    def spy(E, B, l):
        calls.append(E)
        return contract(E, B, l)

    monkeypatch.setattr(frobenius, "_contract", spy)
    monkeypatch.setattr(frobenius, "_assemble", lambda *args: pytest.fail("the pieces were assembled"))
    got = evaluate_diagram(D, A)
    monkeypatch.undo()
    assert calls == [D] and calls[0] is D
    assert got.rows == _kron_reference(D, A)


def test_an_oversized_precheck_is_refused_before_any_law_runs(monkeypatch):
    # (ℤ/3)⁵ has k = 243 classes: F3's sides would hold k⁴ ≈ 3.5·10⁹ entries,
    # so no law, not even F1, is contracted
    class Wide:
        dim, p = 243, 3

        def default_levels(self):
            return (1, INF)

    monkeypatch.setattr(frobenius, "_contract", lambda *args: pytest.fail("a law was contracted"))
    with pytest.raises(ValidationError) as e:
        check_axioms(Wide(), axioms=frobenius.STRUCTURAL_AXIOMS)
    assert e.value.code == "bound-exceeded" and "F3" in e.value.message and "MAX_DENSE_ENTRIES" in e.value.message


@pytest.mark.parametrize(
    "G, l, dtype, split",
    [
        (cyclic(3), 7, np.uint8, True),
        (heisenberg(5), 251, np.uint8, True),
        (cyclic(9), 271, np.uint16, True),
        (cyclic(3), 65539, np.uint32, True),
        (cyclic(3), 2**61 - 1, np.int64, False),
        (cyclic(9), 7, np.uint8, False),
    ],
    ids=["C3 mod 7", "Heis5 mod 251", "C9 mod 271", "C3 mod 65539", "C3 mod 2^61-1", "C9 mod 7"],
)
def test_results_come_in_the_narrowest_residue_dtype(G, l, dtype, split):
    # the walk writes ℓ's dtype itself; a contraction without a splitting is
    # narrowed once; either way the values are the contraction's
    A = DWAlgebra(G, l)
    ensure_prechecked(A)
    assert frobenius.residue_dtype(l) == dtype and (A.splitting is not None) == split
    for text in ("m; d; swap", "cap; d; m; tor(1); cup", "swap, tor(1); m, id", "d, id; id, m"):
        D = parse_diagram(text)
        if A.dim ** D.widest > A.max_dim:
            continue
        got = evaluate_diagram(D, A)
        assert got.a.dtype == dtype and A.token_matrix(Token("m")).a.dtype == dtype, text
        assert np.array_equal(got.a, frobenius._contract(D, A, l)), text
        assert got.rows == tuple(tuple(int(x) for x in row) for row in got.a), text


@pytest.mark.parametrize("k, in_float32", [(268, True), (269, False)])
def test_the_narrow_product_is_exact_on_either_side_of_the_float32_bound(k, in_float32):
    # ℓ = 251: k·(ℓ−1)² + ℓ is 16,750,251 < 2²⁴ at k = 268 (float32) and
    # 16,812,751 past it at k = 269 (int64); entries ℓ − 1 reach the bound,
    # and the odd products (ℓ−2)² in a few entries make sums that float32
    # could not hold past it, so float32 there gives wrong entries
    from types import SimpleNamespace

    from arith_tqft.dw import Splitting

    l, rows, cols = 251, 40, 600
    assert (k * (l - 1) ** 2 + l < 2**24) is in_float32
    rng = np.random.default_rng(k)
    a = np.full((rows, k), l - 1, dtype=np.int64)
    b = np.full((k, cols), l - 1, dtype=np.int64)
    a[1::2, 0] -= 1
    b[0, 1::2] -= 1
    a[-8:] = rng.integers(0, l, (8, k))
    S = SimpleNamespace(l=l, k=k, _float=in_float32)
    want = a @ b % l
    assert want.max() > 0 and len(np.unique(want)) > 2
    for dtype in (np.uint8, np.int64):
        got = Splitting._mul(S, a, b, dtype)
        assert got.dtype == dtype and np.array_equal(got, want)
    if not in_float32:
        S._float = True
        assert not np.array_equal(Splitting._mul(S, a, b, np.int64), want)


def test_token_terms_upcast_a_narrow_token_matrix():
    # a uint8 Δ on Heis(5) mod 251 gives the same bounds and int64 matrices as
    # its int64 copy: no narrow sum is promoted to float64
    A = DWAlgebra(heisenberg(5), 251)
    narrow = A.token_matrix(Token("d"))
    wide = frobenius.ModMatrix.__new__(frobenius.ModMatrix)
    wide.a, wide.l, wide._rows = narrow.a.astype(np.int64), 251, None
    got, want = frobenius.TokenTerms.of(narrow), frobenius.TokenTerms.of(wide)
    assert narrow.a.dtype == np.uint8 and got.grow == want.grow
    assert all(type(g) is int for g in got.grow)
    assert all(m.dtype == np.int64 and np.array_equal(m, w) for m, w in zip(got.mats, want.mats))
