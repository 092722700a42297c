"""Gauge-theory matrices and counting formulas: structure, axioms, known values."""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from arith_tqft.chartab import char_sum, character_table_mod, recover_integer, split_primes
from arith_tqft.cobordism import (
    CAP,
    CUP,
    P12,
    P21,
    SWAP,
    TORUS,
    TWIST,
    Token,
    identity_diagram,
    parse_diagram,
    surface_diagram,
    tensor,
)
from arith_tqft.dw import (
    FREE,
    DWAlgebra,
    ModMatrix,
    RelatorSpec,
    classification_data,
    counting_summary,
    dw_generator_map_exact,
    epi_count,
    evaluate_dw,
    extension_count,
    general_gauge_count,
    hall_mobius,
    hom_count,
    yamagishi_count,
)
from arith_tqft.errors import ComputationError, ValidationError
from arith_tqft.frobenius import check_axioms, default_unit_samples, ensure_prechecked, evaluate_diagram, residue_dtype
from arith_tqft.pgroup import (
    FiniteGroup,
    cyclic,
    direct_product,
    elementary_abelian,
    extraspecial_exp_p2,
    from_permutations,
    gl2,
    group_from_spec,
    group_prime,
    heisenberg,
    is_prime,
)
from arith_tqft.units import INF, level_from_json, one, p_power, sample_units, unit

C3 = cyclic(3)
C9 = cyclic(9)
E9 = elementary_abelian(3, 2)
HEIS = heisenberg(3)
XSP = extraspecial_exp_p2(3)


# -- relator specs ---------------------------------------------------------------------


def test_relator_spec_forms():
    s = RelatorSpec(2, 1)
    assert (s.n, s.r, s.is_free, s.letters()) == (2, 1, False, 4)
    assert str(s) == "surface(n=2, r=1)"
    assert str(RelatorSpec(1, INF)) == "surface(n=1, r=inf)"
    f = FREE(3)
    assert (f.free_rank, f.is_free, f.letters()) == (3, True, 3)
    assert str(f) == "free(3)"


def test_relator_spec_validation():
    with pytest.raises(ValidationError) as e:
        RelatorSpec(-1, 1)
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError) as e:
        RelatorSpec(1, 0)
    assert e.value.code == "bad-level"
    with pytest.raises(ValidationError):
        FREE(-1)
    with pytest.raises(ValidationError):
        RelatorSpec(n=1, r=1, free_rank=2)


# -- structural matrices ---------------------------------------------------------------


def test_counit_and_unit_on_c3():
    eps = dw_generator_map_exact(C3, CUP)
    assert eps.rows == ((Fraction(1, 3), 0, 0),)
    iota = dw_generator_map_exact(C3, CAP)
    assert iota.rows == ((1,), (0,), (0,))


def test_convolution_of_indicators_is_indicator_of_product():
    # C_3 is abelian: classes are elements, and delta_g * delta_g = delta_{g^2}
    m = dw_generator_map_exact(C3, P21)
    conj = C3.conjugacy_classes()
    g = next(x for x in range(3) if x != C3.identity)
    i = conj.class_of[g]
    col = [m.rows[row][i * 3 + i] for row in range(3)]
    expect = [0, 0, 0]
    expect[conj.class_of[C3.mul(g, g)]] = 1
    assert col == expect


def test_comultiplication_matrix_on_c3():
    d = dw_generator_map_exact(C3, P12)
    # Delta(delta_j) = 3 * sum_a delta_a (x) delta_{a^{-1} g_j} for the cyclic group
    conj = C3.conjugacy_classes()
    for j in range(3):
        for a in range(3):
            for c in range(3):
                want = 3 * int(C3.mul(conj.reps[a], conj.reps[c]) == conj.reps[j])
                assert d.rows[a * 3 + c][j] == want


def test_character_vectors_diagonalize_the_structure():
    # Delta(b_rho) = (N/d) b (x) b and b_rho * b_sigma = delta (N/d) b_rho, mod a split prime
    for G, l in ((HEIS, 61), (C9, 19)):
        tab = character_table_mod(G, l)
        N, k = G.order, len(tab.rows)
        A = DWAlgebra(G, l)
        d_mat = A.token_matrix(P12).a
        m_mat = A.token_matrix(P21).a
        eps = A.token_matrix(CUP).a
        for rho in range(k):
            b = np.array(tab.rows[rho], dtype=np.int64)
            scale = N * pow(int(tab.degrees[rho]), -1, l) % l
            assert np.array_equal(d_mat @ b % l, scale * np.kron(b, b) % l)
            assert eps @ b % l == tab.degrees[rho] * pow(N, -1, l) % l
            for sig in range(k):
                bs = np.array(tab.rows[sig], dtype=np.int64)
                conv = m_mat @ np.kron(b, bs) % l
                want = scale * b % l if sig == rho else np.zeros(k, dtype=np.int64)
                assert np.array_equal(conv, want)


def test_torus_level_one_on_c9():
    t1 = dw_generator_map_exact(C9, TORUS(1))
    assert all(t1.rows[o][i] == 27 * ((o - i) % 3 == 0) for o in range(9) for i in range(9))
    t_inf = dw_generator_map_exact(C9, TORUS(INF))
    # m(Delta(b_rho)) = (N/d)^2 b_rho; every degree is 1 here, but only on characters —
    # in the indicator basis the operator is the full convolution square
    assert t_inf.rows != t1.rows
    l = 19
    tab = character_table_mod(C9, l)
    t_mod = DWAlgebra(C9, l).token_matrix(TORUS(INF)).a
    for rho in range(9):
        b = np.array(tab.rows[rho], dtype=np.int64)
        assert np.array_equal(t_mod @ b % l, 81 * b % l)


def test_torus_on_exponent_p_groups_collapses_to_handle():
    # exponent 3: every unit reduces to 1, so every finite level acts like INF
    for G in (C3, E9, HEIS):
        assert dw_generator_map_exact(G, TORUS(1)).rows == dw_generator_map_exact(G, TORUS(INF)).rows


def test_twist_is_the_power_permutation():
    tw = dw_generator_map_exact(C9, TWIST(unit(4, 3, 4)))
    assert all(tw.rows[(4 * i) % 9][i] == 1 for i in range(9))
    assert dw_generator_map_exact(HEIS, TWIST(unit(4, 3, 4))).rows == tuple(
        tuple(int(i == j) for j in range(11)) for i in range(11)
    )


def test_twist_validation():
    with pytest.raises(ValidationError) as e:
        dw_generator_map_exact(C9, TWIST(one(3, 1)))
    assert e.value.code == "precision-exhausted"
    with pytest.raises(ValidationError) as e:
        dw_generator_map_exact(C9, TWIST(unit(6, 5, 3)))
    assert e.value.code == "incompatible-units"


def test_unknown_token_and_bad_torus_level():
    with pytest.raises(ValidationError) as e:
        dw_generator_map_exact(C3, Token("zz"))
    assert e.value.code == "unknown-token"
    with pytest.raises(ValidationError) as e:
        dw_generator_map_exact(C3, Token("tor", level=0))
    assert e.value.code == "bad-level"


def test_swap_matrix_exchanges_strands():
    s = dw_generator_map_exact(C3, SWAP)
    for c in range(3):
        for d in range(3):
            col = [s.rows[r][c * 3 + d] for r in range(9)]
            assert col[d * 3 + c] == 1 and sum(col) == 1


# -- the algebra object ------------------------------------------------------------------


def test_algebra_validation():
    with pytest.raises(ValidationError) as e:
        DWAlgebra(C3, 10)
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError) as e:
        DWAlgebra(HEIS, 3)
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError) as e:
        DWAlgebra(gl2(3), 97)
    assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError):
        DWAlgebra(cyclic(1), 7)


def test_token_matrices_reduce_the_exact_generators():
    for G, l in ((C3, 7), (C9, 19), (HEIS, 61), (heisenberg(5), 251), (C3, 268435459)):
        A = DWAlgebra(G, l)
        p = A.p
        for text in ("m", "d", "cup", "cap", "id", "swap", "tor(1)", "tor(inf)", f"tw({1 + p} mod {p}^3)"):
            tok = parse_diagram(text).slices[0][0]
            want = [
                [x.numerator * pow(x.denominator, -1, l) % l if isinstance(x, Fraction) else x % l for x in row]
                for row in dw_generator_map_exact(G, tok).rows
            ]
            assert np.array_equal(A.token_matrix(tok).a, np.array(want, dtype=np.int64)), (G.order, l, text)


def test_algebra_shape():
    A = DWAlgebra(HEIS, 61)
    assert (A.dim, A.p, len(A.basis_names)) == (11, 3, 11)
    assert A.max_dim == 4096
    assert A.default_levels() == (1, INF)
    assert DWAlgebra(C9, 19).default_levels() == (1, 2, INF)
    samples = default_unit_samples(A.p, A.default_levels())
    assert len([u for u in samples if u.residue != 1]) >= 3


def test_axioms_pass_for_gauge_theories():
    for G, l in ((C9, 19), (HEIS, 61), (heisenberg(5), 251)):
        report = check_axioms(DWAlgebra(G, l))
        failing = {name: r for name, r in report.items() if not r[0]}
        assert not failing


# -- diagram evaluation ------------------------------------------------------------------


def test_identity_diagram_evaluates_to_identity():
    out = evaluate_dw(identity_diagram(1), HEIS, 61)
    assert out == ModMatrix(np.eye(11), 61)
    assert out != ModMatrix(np.eye(11), 67)
    assert ModMatrix([[1, 2], [3, 4]], 7) != ModMatrix([[1, 2], [3, 5]], 7)


def test_closed_surfaces_give_normalized_hom_counts():
    assert evaluate_dw(surface_diagram(1, INF, 0, 0), C3, 7).rows == ((3,),)
    assert evaluate_dw(surface_diagram(2, INF, 0, 0), C3, 7).rows == ((27 % 7,),)
    two = tensor(surface_diagram(1, INF, 0, 0), surface_diagram(1, INF, 0, 0))
    assert evaluate_dw(two, C3, 7).rows == ((9 % 7,),)
    # genus 1 at level 1 on C_9: hom/|G| = 27/9 = 3
    assert evaluate_dw(surface_diagram(1, 1, 0, 0), C9, 19).rows == ((3,),)


D8 = {"kind": "perm", "degree": 4, "gens": [[1, 2, 3, 0], [3, 2, 1, 0]]}


@pytest.mark.parametrize(
    "spec", ["named:cyclic:4", "named:cyclic:8", "named:elementary_abelian:2:3", D8], ids=["C4", "C8", "E8", "D8"]
)
def test_two_groups_evaluate_closed_surfaces(spec):
    # the structural precheck samples no units, so a 2-group's DW algebra
    # evaluates; a twist still needs an odd prime and is refused typed
    G = group_from_spec(spec)
    l = split_primes(G, count=1)[0]
    A = DWAlgebra(G, l)
    for text, g, r in (
        ("cap; cup", 0, INF),
        ("cap; d; m; cup", 1, INF),
        ("cap; d; m; d; m; cup", 2, INF),
        ("cap; tor(1); cup", 1, 1),
        ("cap; tor(2); tor(inf); cup", 2, 2),
    ):
        want = hom_count(RelatorSpec(g, r), G) * pow(G.order, -1, l) % l
        assert evaluate_diagram(parse_diagram(text), A).rows == ((want,),), text
    with pytest.raises(ValidationError) as e:
        evaluate_diagram(parse_diagram("tw(3 mod 2^3)"), A)
    assert e.value.code == "not-a-unit"
    with pytest.raises(ValidationError) as e:
        evaluate_diagram(parse_diagram("tw(4 mod 3^2)"), A)
    assert e.value.code == "incompatible-units"


def test_evaluation_respects_handle_rewrites():
    a = evaluate_dw(parse_diagram("tor(1); tor(2)"), C9, 19)
    b = evaluate_dw(parse_diagram("tor(inf); tor(1)"), C9, 19)
    assert a == b
    assert evaluate_dw(parse_diagram("d; m"), C9, 19) == evaluate_dw(parse_diagram("tor(inf)"), C9, 19)


def test_swap_needs_no_dense_matrix_and_results_come_reduced():
    # swap flips two strand axes of the state: neither the precheck's FS law
    # nor an evaluation builds the k²×k² swap matrix (841×841 on Heis5)
    G = heisenberg(5)
    A = DWAlgebra(G, 251)
    ensure_prechecked(A)
    out = evaluate_diagram(parse_diagram("swap; m"), A)
    assert ("dw-exact", "swap") not in G._cache
    assert out.a.dtype == residue_dtype(251) == np.uint8 and out.shape == (29, 841)
    assert out.a.min() >= 0 and out.a.max() < 251
    assert out == evaluate_diagram(parse_diagram("m"), A)  # m is commutative


@pytest.mark.parametrize(
    "G, l, kind, entry, witnesses",
    [
        (cyclic(3), 7, "m", (0, 5), {"F3": "K(2)⊗K(2)⊗K(2)", "F5": "K(2)⊗K(2)"}),
        (cyclic(3), 7, "d", (7, 2), {"F4": "K(2)", "F5": "K(2)⊗K(2)"}),
        (heisenberg(3), 61, "m", (3, 5), {"F3": "K((2,2,0))⊗K((1,1,0))⊗K((1,0,0))", "F5": "K((2,2,0))⊗K((1,0,0))"}),
        (heisenberg(3), 61, "d", (7, 2), {"F4": "K((2,2,0))", "F5": "K((2,2,0))⊗K((1,1,0))"}),
    ],
)
def test_precheck_catches_one_perturbed_entry(G, l, kind, entry, witnesses):
    # one entry of m or Δ moved by 1 through the token terms the contraction
    # reads; the witnesses are the first failing input basis tensors.  A split
    # algebra is prechecked on its forms and reads no token terms, so the
    # evaluation is refused at 5 ≢ 1 mod 3, where neither group has a
    # character table and the class-basis precheck runs
    from arith_tqft.frobenius import TokenTerms

    def perturbed(l):
        A = DWAlgebra(G, l)
        M = A.token_matrix(Token(kind)).a.copy()
        M[entry] = (M[entry] + 1) % l
        bad, terms = TokenTerms.of(ModMatrix(M, l)), A.token_terms
        A.token_terms = lambda tok: bad if tok.kind == kind else terms(tok)
        return A

    A = perturbed(l)
    report = check_axioms(A, axioms=A.precheck)
    for name, witness in witnesses.items():
        assert report[name] == (False, witness)
    A = perturbed(5)
    assert A.splitting is None
    report = check_axioms(A, axioms=A.precheck)
    assert all(report[name] == (False, witness) for name, witness in witnesses.items())
    with pytest.raises(ValidationError) as e:
        evaluate_diagram(parse_diagram("d; m"), A)
    assert e.value.code == "axiom-failure"
    first = next(name for name in A.precheck if not report[name][0])
    assert e.value.message.startswith(f"{first} fails") and report[first][1] in e.value.message


@pytest.mark.parametrize(
    "group, fault, law",
    [
        ("named:cyclic:9", "lambda", "F2"),
        ("named:cyclic:9", "orbit", "F7"),
        ("named:cyclic:9", "collapse", "F6"),
        ("named:heisenberg:3", "collapse", "F9"),
    ],
    ids=["F2 on C9", "F7 on C9", "F6 on C9", "F9 on Heis3"],
)
def test_a_form_that_breaks_a_law_is_refused(group, fault, law, monkeypatch):
    # faults in the forms the walk reads: λ·μ ≢ 1 at one character breaks F2
    # (Δ, then ε on one leg); λ and μ scaled inversely per character keep F2
    # but are not constant on the orbits of tw(4) (F7); a class power map
    # that sends every class to the identity sends every character to one
    # class function, the trivial character on C₉ (no permutation, F6) and a
    # constant 3 on Heis(3), no character at all (F9)
    G = group_from_spec(group)
    A = DWAlgebra(G, split_primes(G, count=1)[0])
    S, l = A.splitting, A.l
    if fault == "lambda":
        S.mu[-1] = S.mu[-1] * 2 % l
    elif fault == "orbit":
        w = np.arange(1, A.dim + 1)
        S.lam[:] = S.lam * w % l
        S.mu[:] = S.mu * [pow(int(x), -1, l) for x in w] % l
    else:
        e = G.conjugacy_classes().class_of[G.identity]
        monkeypatch.setattr(G, "class_powers", lambda power: np.full(A.dim, e))
    with pytest.raises(ValidationError) as err:
        evaluate_diagram(parse_diagram("tw(4 mod 3^3); d"), A)
    assert err.value.code == "axiom-failure" and err.value.message.startswith(f"{law} fails on {A.name}")


SD16 = {"kind": "perm", "degree": 8, "gens": [[1, 2, 3, 4, 5, 6, 7, 0], [0, 3, 6, 1, 4, 7, 2, 5]]}  # i ↦ 3i mod 8


@pytest.mark.parametrize(
    "spec",
    [
        "named:cyclic:3",
        "named:cyclic:9",
        "named:cyclic:27",
        D8,
        "named:heisenberg:3",
        "named:extraspecial_exp_p2:3",
        "named:heisenberg:5",
        SD16,
    ],
    ids=["C3", "C9", "C27", "D8", "Heis3", "XSP3", "Heis5", "SD16"],
)
def test_forms_from_the_table_equal_the_class_basis_read_off(spec):
    # the forms built from the character table and the class power map are
    # the class-basis generators conjugated into the idempotent basis
    from arith_tqft.dw import _generator_key, _unit_generators

    G = group_from_spec(spec)
    A = DWAlgebra(G, split_primes(G, count=1)[0])
    S = A.splitting
    for kind in ("m", "cap"):  # m = δ and the unit Σ_χ e_χ: the read-off checks the shape; no data
        assert S.form(Token(kind)) is None and S.read_off((kind,)) is None
    for kind in ("d", "cup"):
        assert np.array_equal(S.form(Token(kind)), S.read_off((kind,)))
    for r in A.default_levels():
        assert np.array_equal(S.form(TORUS(r)), S.read_off(_generator_key(G, A.p, TORUS(r))))
    e = G.exponent()
    for u in _unit_generators(A.p, e):
        pi = S.power_map(u)
        assert sorted(pi.tolist()) == list(range(A.dim))
        assert np.array_equal(pi, S.read_off(("tw", u % e)))
    if spec is SD16:
        # tor(1) fixes what g ↦ g^{-1} fixes; g ↦ g³ also fixes the character with value ζ₈ + ζ₈³
        assert S.form(TORUS(1)).tolist() == [10, 10, 10, 10, 23, 0, 0]
        assert (S.mu * (S.power_map(3) == np.arange(A.dim)) % A.l).tolist() == [10, 10, 10, 10, 23, 23, 23]


def test_a_split_algebra_builds_no_class_basis_matrix(monkeypatch):
    # set-up, precheck and walk on Heis(5) mod 251 read the character table
    # and the class power map: no diagram is contracted and no class matrix
    # of m, Δ, tw or tor is built
    from arith_tqft import dw, frobenius

    generator = dw._generator

    def spy(G, key):
        if key[0] in ("m", "d", "tw", "tor"):
            pytest.fail(f"the class matrix of {key} was built")
        return generator(G, key)

    monkeypatch.setattr(frobenius, "_contract", lambda *args: pytest.fail("a diagram was contracted"))
    monkeypatch.setattr(dw, "_generator", spy)
    G = heisenberg(5)
    A = DWAlgebra(G, 251)
    ensure_prechecked(A)
    diagrams = [parse_diagram(text) for text in ("m; d; swap", "tw(6 mod 5^2); d", "id, tor(1); m")]
    got = [evaluate_diagram(D, A) for D in diagrams + [surface_diagram(3, 1, 0, 0)]]
    monkeypatch.undo()
    for D, M in zip(diagrams, got):
        assert np.array_equal(M.a, frobenius._contract(D, A, 251)), str(D)
    assert got[-1].rows == ((hom_count(RelatorSpec(3, 1), G) * pow(G.order, -1, 251) % 251,),)


@pytest.mark.parametrize("G", [C9, HEIS, cyclic(27)], ids=["C9", "Heis3", "C27"])
def test_classification_data_gives_the_closed_surface_counts(G):
    # Σ_χ λ_χ·Π_i τ_{r_i}(χ) is the genus-g surface with handles at levels r_i
    from itertools import product

    l = split_primes(G, count=1)[0]
    data = classification_data(G, l)
    lam = np.array(data["lambda"], dtype=object)
    tor = {level_from_json(int(r) if r.isdigit() else r): np.array(d, dtype=object) for r, d in data["tor"].items()}
    assert set(tor) == set(DWAlgebra(G, l).default_levels())
    for g in range(5):
        for levels in product(tor, repeat=g):
            value = sum(lam * np.prod([tor[r] for r in levels], axis=0)) if g else sum(lam)
            want = hom_count(RelatorSpec(g, min(levels, default=INF)), G) * pow(G.order, -1, l)
            assert value % l == want % l, (g, levels)
    # each tw(u) permutes the characters as Galois conjugation: χ ↦ χ(g^{u⁻¹})
    table = character_table_mod(G, l)
    for u, perm in data["tw"].items():
        u_inv = pow(int(u), -1, G.exponent())
        assert sorted(perm) == list(range(len(perm)))
        for chi, image in enumerate(perm):
            assert table.rows[image] == tuple(table.rows[chi][j] for j in G.class_powers(u_inv).tolist())


def test_dimension_guard():
    wide = identity_diagram(8)  # 3^8 = 6561 states, over the 4096 guard
    with pytest.raises(ComputationError) as e:
        evaluate_dw(wide, C3, 7)
    assert e.value.code == "dimension-guard"
    with pytest.raises(ComputationError):
        evaluate_dw(identity_diagram(4), C9, 19)


# -- the idempotent walk -------------------------------------------------------------------

# The gauge benchmark's four algebras at their smallest split prime, and Heis3 at
# the largest split prime the walk takes: ℓ ≡ 1 mod 3 with 11·(ℓ−1)² < 2⁶³.
# There three residues can pass 2⁶³, so a weight holds only two unreduced.
WIDE_PRIME = 915690067
WALK_GAUGES = {
    "C3": (C3, None),
    "C9": (C9, None),
    "Heis3": (HEIS, None),
    "Heis5": (heisenberg(5), None),
    "Heis3 wide": (HEIS, WIDE_PRIME),
}


def _walk_gauge(name):
    G, l = WALK_GAUGES[name]
    A = DWAlgebra(G, l or split_primes(G, count=1)[0])
    ensure_prechecked(A)
    assert A.splitting is not None
    return A


def test_the_wide_prime_is_the_largest_the_walk_takes():
    k, l = len(HEIS.conjugacy_classes()), WIDE_PRIME
    assert is_prime(l) and (l - 1) % 3 == 0 and k * (l - 1) ** 2 < 2**63 <= (l - 1) ** 3
    past = math.isqrt((2**63 - 1) // k) + 2  # the least q with k·(q−1)² ≥ 2⁶³
    assert k * (past - 2) ** 2 < 2**63 <= k * (past - 1) ** 2
    assert not any(is_prime(q) for q in range(l + 3, past, 3))
    assert _walk_gauge("Heis3 wide").splitting._top == 2


@pytest.mark.parametrize("name, width", [("C3", 8), ("C9", 4), ("Heis3", 4), ("Heis5", 3)])
def test_the_gauge_cells_one_past_the_guard_are_refused(name, width):
    A = _walk_gauge(name)
    assert A.dim ** (width - 1) <= A.max_dim < A.dim**width
    pad = ", id" * (width - 2)
    full = parse_diagram(f"swap{pad}; m{pad}")  # the benchmark's shape: one slice at full width, then m
    middle = parse_diagram(f"d{pad}; m{pad}")  # one strand fewer at both ends
    for D in (full, middle):
        assert D.widest == width
        with pytest.raises(ComputationError) as e:
            evaluate_diagram(D, A)
        assert e.value.code == "dimension-guard"
        assert e.value.message.startswith(f"slice of width {width} needs dimension {A.dim}^{width}")
    at_guard = parse_diagram("d" + pad[4:] + "; m" + pad[4:])
    assert at_guard.widest == width - 1
    assert evaluate_diagram(at_guard, A).shape == (A.dim ** (width - 2),) * 2


def _closed_surface(rng, genus, twist=None):
    """A seeded genus-g surface as the gauge benchmark draws it, with its level: one handle d; m, the rest tor(r)."""
    levels = [rng.choice((1, 2, 3, INF)) for _ in range(genus - 1)]
    handles = [f"tor({'inf' if r == INF else r})" for r in levels]
    handles.insert(rng.randrange(genus), "d; m")
    cap = f"cap; tw({twist})" if twist else "cap"  # dies on the cap (R6), but takes σ off the identity
    return parse_diagram(f"{cap}; " + "; ".join(handles) + "; cup"), min(levels, default=INF)


@pytest.mark.parametrize("name", list(WALK_GAUGES))
def test_closed_surfaces_to_genus_30_are_the_normalized_hom_counts(name):
    A = _walk_gauge(name)
    G, l, p = A.group, A.l, A.p
    rng = random.Random(20261021)
    for genus in range(1, 31):
        D, r = _closed_surface(rng, genus, f"{p + 1} mod {p}^4" if genus % 2 else None)
        want = hom_count(RelatorSpec(genus, r), G) * pow(G.order, -1, l) % l
        assert evaluate_diagram(D, A).rows == ((want,),), (genus, str(D))


def test_at_the_wide_prime_the_reduction_rule_is_what_keeps_the_walk_exact(monkeypatch):
    A = _walk_gauge("Heis3 wide")
    D = parse_diagram("cap; " + "; ".join(["tor(1)"] * 29) + "; d; m; cup")
    want = ((hom_count(RelatorSpec(30, 1), HEIS) * pow(HEIS.order, -1, WIDE_PRIME) % WIDE_PRIME,),)
    assert evaluate_diagram(D, A).rows == want
    monkeypatch.setattr(A.splitting, "_top", 10**6)  # never reduce: the int64 products wrap
    assert evaluate_diagram(D, A).rows != want


@pytest.mark.parametrize("route", ["float32", "int64"])
def test_the_blocked_product_mod_l_at_the_block_edges(route, monkeypatch):
    from arith_tqft import dw, frobenius

    A = _walk_gauge("Heis5")
    S, l, k, cols = A.splitting, A.l, A.dim, 256
    if route == "float32":
        assert S._float
        block = dw._FLOAT32_BLOCK // cols
    else:
        monkeypatch.setattr(S, "_float", False)
        block = frobenius._MOD_BLOCK // cols
    rng = np.random.default_rng(5)
    b = rng.integers(0, l, (k, cols))
    for rows in (1, block - 1, block, 2 * block, 2 * block + 3):  # below one block, whole blocks, a partial last one
        a = rng.integers(0, l, (k, rows)).T  # transposed, as `_factor` passes U
        want = a @ b % l
        for dtype in (np.int64, residue_dtype(l)):
            got = S._mul(a, b, dtype)
            assert got.dtype == dtype and np.array_equal(got, want), (rows, dtype)


# a twist on an input leg (σ ≠ id), long handle chains on it, two such chains
# joined under m, m inside one group at σ₁ ≠ σ₂, and a cap joining an input;
# tor(1) kills the characters a level-1 twist moves, so the chains mostly avoid it
WALK_OPEN = [
    "tw({u}); " + "; ".join(["tor(2)", "d; m", "tor(inf)", "tor(3)"] * 3),
    "tw({u}), tw({v}); " + "; ".join(["tor(2), tor(inf)", "tor(inf), tor(3)"] * 2) + "; m",
    "tw({u}), id; " + "; ".join(["tor(inf), tor(2)"] * 5) + "; m; d",
    "d; tw({u}), id; m; tor(2); tor(inf)",
    "cap, id; tw({u}), tor(2); tor(inf), tor(3); m; d; tw({v}), id",
    "tw({v}); d; tor(1), tw({u}); tor(2), tor(2); swap; m; tor(3); cup",
    "tw({u}); d; tor(inf), tw({u}); tor(2), id",
]


@pytest.mark.parametrize("name", list(WALK_GAUGES))
def test_open_walks_with_twists_match_the_class_basis_contraction(name):
    from arith_tqft import frobenius

    A = _walk_gauge(name)
    p = A.p
    u, v = (f"{w.residue} mod {p}^4" for w in (sample_units(p, 4, 1)[0], sample_units(p, 4, 2)[0]))
    for text in WALK_OPEN:
        D = parse_diagram(text.format(u=u, v=v))
        assert np.array_equal(evaluate_diagram(D, A).a, frobenius._contract(D, A, A.l)), str(D)
    if A.group.exponent() > p:  # units ≡ 1 mod p act on Γ, so the twists move characters
        assert (A.splitting.power_map(int(u.split()[0])) != np.arange(A.dim)).any()


# -- counting ----------------------------------------------------------------------------


def test_hom_count_known_values():
    assert hom_count(RelatorSpec(1, 1), C3) == 9
    assert hom_count(RelatorSpec(2, 1), C3) == 81
    assert hom_count(RelatorSpec(1, INF), C3) == 9
    assert hom_count(RelatorSpec(1, 1), HEIS) == 297
    assert hom_count(RelatorSpec(1, INF), HEIS) == 297
    assert hom_count(RelatorSpec(1, 1), C9) == 27
    assert hom_count(RelatorSpec(1, INF), C9) == 81
    assert hom_count(RelatorSpec(30, 1), C3) == 3**60
    assert hom_count(RelatorSpec(12, 1), HEIS) == 7509466515032902432664630964833121
    # abelian A: |A|^{2n-1}·|A[p^r]|, and C3×C9 has |A[3]| = 9
    assert hom_count(RelatorSpec(2, 1), direct_product(C3, C9)) == 27**3 * 9
    # groups with many classes at the counting prime: C3³ and C5² at ℓ = 61, C81 at ℓ = 163
    assert hom_count(RelatorSpec(2, 1), elementary_abelian(3, 3)) == 531441
    assert hom_count(RelatorSpec(2, 1), elementary_abelian(5, 2)) == 390625
    assert hom_count(RelatorSpec(2, 1), cyclic(81)) == 1594323
    assert hom_count(RelatorSpec(2, 1), elementary_abelian(7, 2)) == 5764801
    assert hom_count(RelatorSpec(2, 1), heisenberg(5)) == 49140625
    assert hom_count(RelatorSpec(2, 1), heisenberg(7)) == 1982268001


def test_hom_count_free_and_degenerate():
    assert hom_count(FREE(2), HEIS) == 729
    assert hom_count(FREE(0), HEIS) == 1
    assert hom_count(RelatorSpec(0, 1), HEIS) == 1
    assert hom_count(RelatorSpec(1, 1), cyclic(1)) == 1


def test_hom_count_matches_closed_surface_character_formula():
    # at the infinite level the count is |G|^{2n-1} * sum over irreducibles of d^{2-2n}
    for G in (C3, C9, E9, HEIS, XSP):
        degrees = character_table_mod(G, next(iter(_split(G)))).degrees
        for n in (1, 2, 12, 14):
            total = sum(Fraction(1, d ** (2 * n - 2)) for d in degrees) * G.order ** (2 * n - 1)
            assert total.denominator == 1
            assert hom_count(RelatorSpec(n, INF), G) == total


def _split(G):
    from arith_tqft.chartab import split_primes

    return split_primes(G, count=1)


def test_hall_mobius_values():
    mu = hall_mobius(C3)
    assert sorted(mu.values()) == [-1, 1]
    mu9 = hall_mobius(E9)
    assert sorted(mu9.values()) == [-1, -1, -1, -1, 1, 3]
    # the trivial subgroup carries the 3, the four C_3 lines carry the -1s
    assert mu9[frozenset({E9.identity})] == 3


def test_mobius_inversion_detects_non_cyclicity():
    # epimorphisms from a rank-1 free group onto heis(3): none, it is not cyclic
    assert epi_count(FREE(1), HEIS) == 0
    assert epi_count(FREE(1), C9) == 6  # the six generators of C_9


def test_epi_and_extension_counts():
    assert epi_count(RelatorSpec(1, 1), C3) == 8
    assert epi_count(FREE(2), E9) == 48
    # the Möbius sums reach C3³ and C5² subgroups; the values are Hall's closed form
    assert epi_count(RelatorSpec(2, 1), elementary_abelian(3, 3)) == 449280
    assert epi_count(RelatorSpec(2, 1), elementary_abelian(5, 2)) == 386880
    assert epi_count(RelatorSpec(2, 1), heisenberg(5)) == 46800000
    assert extension_count(FREE(2), C3) == 4
    assert extension_count(RelatorSpec(2, 1), C3) == 40


@pytest.mark.parametrize("spec", [D8, "named:heisenberg:3", "named:extraspecial_exp_p2:3"], ids=["D8", "Heis3", "XSP3"])
def test_one_frattini_labelling_per_query(spec, monkeypatch):
    # the epimorphism walk and the automorphism count both read Γ/Φ(Γ); a
    # cold query labels the group's elements once and keeps the labelling
    from arith_tqft import dw, pgroup

    labelled, calls = [], []
    cosets = pgroup._frattini_cosets

    def spy(G, p):
        calls.append(G)
        if "frattini" not in G._cache:
            labelled.append(G)
        return cosets(G, p)

    monkeypatch.setattr(pgroup, "_frattini_cosets", spy)
    monkeypatch.setattr(dw, "_frattini_cosets", spy)
    G = group_from_spec(spec)
    counting_summary(RelatorSpec(2, 1), G)
    assert len(calls) >= 2 and labelled == [G]
    assert not G._cache["frattini"].flags.writeable


def test_yamagishi_count():
    assert yamagishi_count(2, 1, C3) == 81
    assert yamagishi_count(2, 1, C9) == hom_count(RelatorSpec(2, 1), C9)
    with pytest.raises(ValidationError) as e:
        yamagishi_count(3, 1, C3)
    assert e.value.code == "odd-degree"
    with pytest.raises(ValidationError) as e:
        yamagishi_count(0, 1, C3)
    assert e.value.code == "bad-spec"


def test_general_gauge_count_gl2():
    count, card = general_gauge_count(gl2(3), 3, RelatorSpec(1, 1))
    assert count == 33
    assert card == Fraction(11, 16)
    # cross-formula for one Demushkin relator at level 1, p = 3, n = 1
    p, n = 3, 1
    assert card == Fraction(p ** (2 * n) + p ** (2 * n - 1) - 1, (p - 1) ** 2 * (p + 1))


def test_general_gauge_count_on_p_group_is_hom_count():
    spec = RelatorSpec(1, 1)
    count, card = general_gauge_count(HEIS, 3, spec)
    assert count == hom_count(spec, HEIS) == 297
    assert card == Fraction(297, 27)


def test_general_gauge_count_without_p_part():
    count, card = general_gauge_count(C3, 2, RelatorSpec(1, 1))
    assert (count, card) == (1, Fraction(1, 3))


def test_counting_summary():
    out = counting_summary(RelatorSpec(1, 1), C3)
    assert out == {"hom_count": 9, "epi_count": 8, "extensions": 4, "primes_used": []}
    free = counting_summary(FREE(2), C3)
    assert free["hom_count"] == 9 and free["primes_used"] == []
    assert counting_summary(RelatorSpec(1, 1), HEIS)["primes_used"] == []  # genus 1: the class power map
    assert counting_summary(RelatorSpec(14, INF), HEIS)["primes_used"] == []  # the class algebra: no table


# -- Hall–Frattini Möbius sums and dual-group counts ------------------------------------

D8 = from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]], degree=4)
# every group here has order ≤ 200, inside the old subgroup-lattice route, so the
# lattice Möbius sum written below is a reference for the Hall–Frattini sum
HALL_GROUPS = {
    "C3": C3,
    "C9": C9,
    "C27": cyclic(27),
    "E9": E9,
    "E27": elementary_abelian(3, 3),
    "C3xC9": direct_product(cyclic(3), C9),
    "D8": D8,
    "Q8": from_permutations([[1, 4, 3, 6, 5, 0, 7, 2], [2, 7, 4, 1, 6, 3, 0, 5]], degree=8),
    "D16": from_permutations([[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]], degree=8),
    "D8xC2": direct_product(D8, cyclic(2)),
    "Heis3": HEIS,
    "XSP3": XSP,
    "Heis3xC3": direct_product(HEIS, C3),
    "E16": elementary_abelian(2, 4),
}
HALL_SPECS = [RelatorSpec(n, r) for n in (1, 2) for r in (1, 2, 3, INF)] + [FREE(k) for k in (1, 2, 3)]


def _lattice_mobius(G):
    """μ over the whole subgroup lattice: μ(Γ) = 1 and Σ_{K ⊇ H} μ(K) = 0 for every H < Γ."""
    subs = sorted(G.all_subgroups(), key=len, reverse=True)
    mu = {subs[0]: 1}
    for h in subs[1:]:
        mu[h] = -sum(mu[k] for k in mu if k > h)
    return mu


@pytest.mark.parametrize("name", HALL_GROUPS)
def test_hall_frattini_sum_matches_the_lattice_mobius_sum(name):
    # μ ≠ 0 exactly on the subgroups containing Φ(Γ), and both sums give the same #Epi
    G = HALL_GROUPS[name]
    mu = {h: m for h, m in _lattice_mobius(G).items() if m}
    assert hall_mobius(G) == mu
    groups = {h: G.subgroup_as_group(h)[0] for h in mu}
    for spec in HALL_SPECS:
        assert epi_count(spec, G) == sum(m * hom_count(spec, groups[h]) for h, m in mu.items()), (name, spec)


def _character_sum_count(G, n, r):
    """Σ_ρ (|Γ|/ρ(1))^{2n−2}·S_ρ(r), each character sum a centered lift mod a split prime ℓ > 2|Γ|·|Γ:Z(Γ)|."""
    centre = G.conjugacy_classes().sizes.count(1)
    l = split_primes(G, count=1, above=2 * G.order * (G.order // centre))[0]
    table = character_table_mod(G, l)
    sums = char_sum(table, r, p=group_prime(G))
    return sum((G.order // d) ** (2 * n - 2) * recover_integer(s, l) for d, s in zip(table.degrees, sums))


@pytest.mark.parametrize("name", [k for k, G in HALL_GROUPS.items() if G.is_abelian()])
def test_dual_group_hom_count_matches_the_character_sum(name):
    # the element-order count of an abelian group against Σ_ρ (|Γ|/χ(1))^{2n−2}·S_ρ from a Dixon table
    G = HALL_GROUPS[name]
    for n in (1, 2, 3):
        for r in (1, 2, 3, INF):
            assert hom_count(RelatorSpec(n, r), G) == _character_sum_count(G, n, r), (name, n, r)


# ten non-abelian groups, 16 (n, r) cells each: the fixity count's grid
FIXITY_GROUPS = {
    **{name: HALL_GROUPS[name] for name in ("Heis3", "XSP3", "D8", "Q8", "D16", "Heis3xC3")},
    "Heis5": heisenberg(5),
    "XSP5": extraspecial_exp_p2(5),
    "Heis7": heisenberg(7),
    "SD16": group_from_spec(SD16),
}


@pytest.mark.parametrize("name", FIXITY_GROUPS)
def test_fixity_count_matches_the_character_sums(name):
    # |Γ|·tr(Φ_c·L_ζ^{n−1}) on the class algebra (genus 1 from the class power map, else the
    # fixed characters of each degree from traces mod a fixed prime) against the integer
    # character sums of a Dixon table at a prime that bounds them
    G = FIXITY_GROUPS[name]
    for n in (1, 2, 3, 6):
        for r in (1, 2, 3, INF):
            assert hom_count(RelatorSpec(n, r), G) == _character_sum_count(G, n, r), (name, n, r)


PRODUCT_FACTORS = {
    "Heis3xHeis3": (HEIS, HEIS),  # degrees 1, 3 and 9: three unknowns f_j
    "Heis3xXSP3": (HEIS, XSP),
    "D8xQ8": (HALL_GROUPS["D8"], HALL_GROUPS["Q8"]),
}


@pytest.mark.parametrize("name", PRODUCT_FACTORS)
def test_hom_counts_multiply_over_direct_products(name):
    # Hom(π, A×B) = Hom(π, A)×Hom(π, B): the product's class algebra shares no data with its factors'
    A, B = PRODUCT_FACTORS[name]
    G = direct_product(A, B)
    for n in (1, 2, 3, 6):
        for r in (1, 2, 3, INF):
            spec = RelatorSpec(n, r)
            assert hom_count(spec, G) == hom_count(spec, A) * hom_count(spec, B), (name, n, r)


def test_a_degree_bound_below_the_truth_is_an_invariant_failure(monkeypatch):
    # Heis3×Heis3 has characters of degree 9 = 3²; solving for degrees up to 3¹ only leaves
    # the equation m = J + 1 unmet
    from arith_tqft import dw

    G = direct_product(HEIS, HEIS)
    assert dw._degree_bound(G, 3) == 2 and dw._fixed_degrees(G, 3, 1) == [81, 36, 4]
    for top in (0, 1):
        monkeypatch.setattr(dw, "_degree_bound", lambda G, p: top)
        with pytest.raises(ComputationError) as e:
            dw._fixed_degrees(G, 3, 1)
        assert e.value.code == "invariant"


@pytest.mark.parametrize("name", FIXITY_GROUPS)
def test_genus_one_fixed_classes_equal_fixed_characters(name):
    # Brauer's permutation lemma: g ↦ g^u fixes as many classes as its Galois action π_u fixes
    # characters, for every unit u mod exp Γ; at u = c = 1 − p^r that is the genus-1 count over |Γ|
    G = FIXITY_GROUPS[name]
    e, p = G.exponent(), group_prime(G)
    S = DWAlgebra(G, split_primes(G, count=1)[0]).splitting
    ident = np.arange(S.k)
    for u in range(1, e):
        if u % p:
            assert (G.class_powers(u) == ident).sum() == (S.power_map(u) == ident).sum(), (name, u)
    for r in (1, 2, 3, INF):
        fixed = (S.power_map((1 - p_power(p, r)) % e) == ident).sum()
        assert hom_count(RelatorSpec(1, r), G) == G.order * fixed, (name, r)


def _mednykh(order, degrees, n):
    """#Hom(surface of genus n → H) = |H|·Σ_ρ (|H|/dim ρ)^{2n−2}, with degrees as (dim ρ, multiplicity)."""
    return order * sum(m * (order // d) ** (2 * n - 2) for d, m in degrees)


def _surjections(q, d, k):
    """Surjective linear maps 𝔽_q^k → 𝔽_q^d."""
    return math.prod(q**k - q**i for i in range(d))


def test_counts_past_the_old_subgroup_limit_match_closed_forms():
    # the subgroup-lattice route refused every epi count here (order > 200), and
    # its Dixon table made the (Z/3)^6 hom count take minutes
    t0 = time.perf_counter()
    heis7 = heisenberg(7)  # Hall: Γ, then p + 1 = 8 maximal C_7², then Φ = Z ≅ C_7 with μ = 7
    for n in (1, 2):
        want = _mednykh(343, ((1, 49), (7, 6)), n) - 8 * 49 ** (2 * n) + 7 * 7 ** (2 * n)
        for r in (1, INF):  # exponent 7: the power factor x^{7^r} vanishes at every level
            assert epi_count(RelatorSpec(n, r), heis7) == want
    assert time.perf_counter() - t0 < 10

    t0 = time.perf_counter()
    g = direct_product(HEIS, C9)  # Φ = Z(Heis3)×⟨3⟩ ≅ C_3², Γ/Φ ≅ 𝔽_3³
    terms = (  # (μ, how many, order, degrees) over H ⊇ Φ
        (1, 1, 243, ((1, 81), (3, 18))),
        (-1, 9, 81, ((1, 27), (3, 6))),  # the maximal H mapping onto Heis3/Φ(Heis3): non-abelian
        (-1, 4, 81, ((1, 81),)),  # the maximal H containing C_9: abelian
        (3, 13, 27, ((1, 27),)),
        (-27, 1, 9, ((1, 9),)),
    )
    for n in (1, 2):
        want = sum(mu * k * _mednykh(order, degrees, n) for mu, k, order, degrees in terms)
        for r in (2, INF):  # exponent 9: Mednykh holds from level 2 on
            assert epi_count(RelatorSpec(n, r), g) == want
    assert time.perf_counter() - t0 < 10

    t0 = time.perf_counter()
    e243 = elementary_abelian(3, 5)  # an epimorphism onto 𝔽_3^5 is a surjective linear map
    for n in (1, 2, 3):
        for r in (1, INF):
            assert epi_count(RelatorSpec(n, r), e243) == _surjections(3, 5, 2 * n)
    assert epi_count(FREE(6), e243) == _surjections(3, 5, 6)
    assert time.perf_counter() - t0 < 10

    t0 = time.perf_counter()
    e729 = elementary_abelian(3, 6)
    for n in (1, 2):
        for r in (1, INF):
            assert hom_count(RelatorSpec(n, r), e729) == 3 ** (12 * n)
    assert time.perf_counter() - t0 < 10


def test_cold_homcount_builds_no_character_table(monkeypatch, capsys, tmp_path):
    from arith_tqft import chartab, cli, dw
    from arith_tqft.cli import run

    built, original = [], chartab.character_table_mod

    def counted(G, l, seed=0):
        if ("chartab", l, seed) not in G._cache:
            built.append(G.order)
        return original(G, l, seed)

    for module in (chartab, dw, cli):
        monkeypatch.setattr(module, "character_table_mod", counted)
    monkeypatch.setattr(dw, "DWAlgebra", lambda *a: pytest.fail("a count built a DW algebra"))
    c3xc9 = tmp_path / "c3xc9.json"
    c3xc9.write_text('{"kind": "product", "factors": ["named:cyclic:3", "named:cyclic:9"]}')
    d8 = tmp_path / "d8.json"
    d8.write_text('{"kind": "perm", "degree": 4, "gens": [[1, 2, 3, 0], [3, 2, 1, 0]]}')
    for group in ("named:cyclic:3", f"file:{c3xc9}", "named:elementary_abelian:3:3", "named:heisenberg:3", f"file:{d8}"):
        for n in (1, 2, 5):
            assert run(["homcount", "--group", group, "--n", str(n), "--r", "1"]) == 0
    assert built == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["homcount", "--group", "named:heisenberg:3", "--n", "2", "--r", "1"],
        ["evaluate", "--algebra", "dw", "--group", "named:heisenberg:3", "--dsl", "cap; cup"],
        ["chartab", "--group", "named:heisenberg:3"],
    ],
    ids=["homcount", "evaluate", "chartab"],
)
def test_cold_counts_leave_no_reference_cycles(argv, capsys):
    # a DW algebra cached on its group, or a splitting pointing back at its algebra, is a cycle
    import gc

    from arith_tqft.cli import run

    assert run(argv) == 0  # warm-up: first-use caches of the interpreter and numpy
    gc.collect()
    gc.disable()  # no automatic pass may collect a cycle before the count below
    try:
        for _ in range(20):
            assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_the_hall_walk_keeps_counts_not_groups(monkeypatch):
    # each non-abelian H ⊇ Φ(Γ) is counted on a relabelled group that is dropped once counted
    g = direct_product(HEIS, HEIS)  # d = 4, so the walk runs from genus 2 on
    assert epi_count(RelatorSpec(3, 1), g) == 15_523_598_064_199_680
    assert not any(key[0] == "subgroup-group" for key in g._cache if isinstance(key, tuple))
    assert not any(isinstance(v, type(g)) for v in g._cache.values())
    # Γ keeps each H's fixed-degree counts per level, so another genus at that level relabels no H
    expected = epi_count(RelatorSpec(2, 1), direct_product(HEIS, HEIS))
    relabelled, relabel = [], FiniteGroup.subgroup_as_group
    monkeypatch.setattr(FiniteGroup, "subgroup_as_group", lambda G, e: relabelled.append(len(e)) or relabel(G, e))
    assert epi_count(RelatorSpec(2, 1), g) == expected and relabelled == []


def test_a_genus_one_count_builds_no_flat_table():
    # Heis(5)×(Z/5)^2, order 3,125: the Frattini labelling and the generating set read the
    # generators' columns of the table, not its 9.8M-entry flat list
    g = direct_product(heisenberg(5), elementary_abelian(5, 2))
    assert counting_summary(RelatorSpec(1, 1), g) == {
        "hom_count": 3125 * 725, "epi_count": 0, "extensions": 0, "primes_used": []
    }
    assert "_t" not in g.__dict__


def test_the_subspace_bound_refuses_before_enumerating(monkeypatch):
    from arith_tqft import dw

    monkeypatch.setattr(dw, "_subspaces", lambda p, d: pytest.fail("subspaces enumerated past the bound"))
    G = elementary_abelian(2, 10)  # 𝔽_2^10 has 229,755,605 subspaces
    assert epi_count(FREE(10), G) == _surjections(2, 10, 10)  # abelian: the closed form walks none
    # D8×(Z/2)^6 is not abelian, and its Γ/Φ(Γ) ≅ 𝔽_2^8 has 417,199 subspaces; it needs
    # 8 generators, so a spec with fewer letters has no epimorphism and walks none either
    big = direct_product(D8, elementary_abelian(2, 6))
    assert epi_count(RelatorSpec(1, 1), big) == 0 == epi_count(FREE(7), big)
    for count in (lambda: hall_mobius(G), lambda: epi_count(RelatorSpec(4, 1), big)):
        with pytest.raises(ValidationError) as e:
            count()
        assert e.value.code == "bound-exceeded" and "MAX_FRATTINI_SUBSPACES" in e.value.message


def test_abelian_epi_closed_form_matches_the_hall_sum():
    # the Hall walk behind hall_mobius, over every H ⊇ Φ(A), each H counted through its
    # element orders: #Hom(G_{n,r} → H) = |H|^{2n−1}·|H[p^r]|, |H|^{2n} at r = ∞, |H|^k for FREE(k)
    from arith_tqft.dw import _frattini_subgroups

    C2xC4 = direct_product(cyclic(2), cyclic(4))
    for A in (C9, elementary_abelian(3, 3), direct_product(C3, C9), direct_product(C2xC4, cyclic(8)),
              elementary_abelian(2, 4), direct_product(C9, C9), elementary_abelian(3, 6)):
        p, orders = group_prime(A), A.element_orders()
        terms = Counter(
            (mu, len(h), int((orders[h] <= p).sum()), int((orders[h] <= p * p).sum()))
            for h, mu in _frattini_subgroups(A)
        )
        for n in (1, 2, 3):
            for r in (1, 2, INF):
                want = sum(
                    k * mu * size ** (2 * n - 1) * {1: t1, 2: t2, INF: size}[r]
                    for (mu, size, t1, t2), k in terms.items()
                )
                assert epi_count(RelatorSpec(n, r), A) == want, (A.order, n, r)
            assert epi_count(FREE(n), A) == sum(k * mu * size**n for (mu, size, _, _), k in terms.items())
        assert epi_count(RelatorSpec(0, 1), A) == 0 == epi_count(FREE(0), A)


def test_no_epimorphism_needs_no_automorphism_count(monkeypatch):
    from arith_tqft.pgroup import FiniteGroup

    # Heis(3)×(Z/3)^2 needs 4 generators, and its |Aut| is refused past MAX_AUT_CANDIDATES
    big = direct_product(HEIS, E9)
    with pytest.raises(ValidationError):
        big.automorphism_count()
    monkeypatch.setattr(FiniteGroup, "automorphism_count", lambda G: pytest.fail("|Aut Γ| counted for no epimorphism"))
    assert counting_summary(FREE(3), big) == {"hom_count": 243**3, "epi_count": 0, "extensions": 0, "primes_used": []}
    assert extension_count(RelatorSpec(1, 1), big) == 0  # 2 letters
    assert extension_count(RelatorSpec(1, 1), HEIS) == 0  # Hall's sum is 0: 297 − 4·81 + 3·9


def test_epi_count_on_the_trivial_group_and_a_mixed_order_group():
    assert epi_count(RelatorSpec(2, 1), cyclic(1)) == 1 == epi_count(FREE(3), cyclic(1))
    for spec in (RelatorSpec(1, 1), FREE(2)):
        with pytest.raises(ValidationError) as e:
            epi_count(spec, cyclic(6))
        assert e.value.code == "bad-spec"
    with pytest.raises(ValidationError) as e:
        hom_count(RelatorSpec(1, 1), cyclic(6))
    assert e.value.code == "bad-spec"


def test_counting_summary_counts_epimorphisms_once(monkeypatch, capsys):
    from arith_tqft import dw
    from arith_tqft.cli import run

    calls, epi = [], dw.epi_count

    def counted(spec, G):
        calls.append(spec)
        return epi(spec, G)

    monkeypatch.setattr(dw, "epi_count", counted)
    out = counting_summary(RelatorSpec(1, 1), cyclic(9))
    assert len(calls) == 1
    assert out["extensions"] == extension_count(RelatorSpec(1, 1), cyclic(9))
    calls.clear()
    assert run(["homcount", "--group", "named:heisenberg:3", "--n", "2", "--r", "1"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_a_large_prime_modulus_answers_at_once():
    t0 = time.perf_counter()
    M = evaluate_dw(parse_diagram("d; m"), cyclic(3), 2**61 - 1)
    assert time.perf_counter() - t0 < 1.0
    assert M.rows == ((9, 0, 0), (0, 9, 0), (0, 0, 9))
