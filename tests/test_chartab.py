"""Modular character tables: Dixon separation, orthogonality, exact recovery."""

import pytest

from arith_tqft.chartab import (
    char_sum,
    character_table_mod,
    recover_integer,
    split_primes,
)
from arith_tqft.errors import ValidationError
from arith_tqft.pgroup import (
    cyclic,
    elementary_abelian,
    extraspecial_exp_p2,
    gl2,
    heisenberg,
)
from arith_tqft.units import INF


def test_split_primes():
    assert split_primes(cyclic(3)) == [7, 13]
    assert split_primes(cyclic(9)) == [19, 37]
    assert split_primes(heisenberg(3)) == [61, 67]
    assert split_primes(extraspecial_exp_p2(3)) == [73, 109]
    assert split_primes(gl2(3)) == [97, 193]
    assert split_primes(elementary_abelian(3, 2), count=3) == [19, 31, 37]
    # the search starts above the floor instead of walking up to it from exp G + 1
    assert split_primes(cyclic(3), count=1, above=2**32) == [4294967311]
    assert split_primes(heisenberg(3), count=2, above=100) == [103, 109]


def test_cyclic3_table_mod_7():
    t = character_table_mod(cyclic(3), 7)
    assert t.l == 7
    assert t.omega == 2  # least residue of order 3 mod 7
    assert t.degrees == (1, 1, 1)
    assert sorted(t.rows) == [(1, 1, 1), (1, 2, 4), (1, 4, 2)]


def test_degree_patterns():
    t = character_table_mod(heisenberg(3), 61)
    assert sorted(t.degrees) == [1] * 9 + [3] * 2
    assert sum(d * d for d in t.degrees) == 27
    t = character_table_mod(gl2(3), 97)
    assert sorted(t.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in t.degrees) == 48
    t = character_table_mod(extraspecial_exp_p2(3), 73)
    assert sorted(t.degrees) == [1] * 9 + [3] * 2
    t = character_table_mod(cyclic(9), 19)
    assert t.degrees == (1,) * 9


def test_orthogonality_both_primes():
    for G in (cyclic(9), heisenberg(3), elementary_abelian(3, 3), elementary_abelian(5, 2)):
        for l in split_primes(G):
            t = character_table_mod(G, l)
            k = len(t.rows)
            for a in range(k):
                for b in range(k):
                    s = sum(t.sizes[j] * t.rows[a][j] * t.rows[b][t.inverse_class[j]] for j in range(k)) % l
                    assert s == (G.order % l if a == b else 0)
            for i in range(k):
                for j in range(k):
                    s = sum(t.rows[r][i] * t.rows[r][t.inverse_class[j]] for r in range(k)) % l
                    assert s == ((G.order // t.sizes[i]) % l if i == j else 0)


def test_determinism_and_seed():
    t1 = character_table_mod(cyclic(9), 19)
    t2 = character_table_mod(cyclic(9), 19)
    assert t1.rows == t2.rows and t1.seed == t2.seed
    j = t1.to_json()
    assert set(j) == {"l", "omega", "degrees", "rows", "seed"}


def test_char_sum_cyclic3():
    for l in (7, 13):
        t = character_table_mod(cyclic(3), l)
        assert char_sum(t, 1) == (3, 3, 3)


def test_char_sum_infinite_level():
    t = character_table_mod(cyclic(9), 19)
    assert char_sum(t, INF) == (9,) * 9
    t = character_table_mod(heisenberg(3), 61)
    assert char_sum(t, INF) == (27,) * 11


def test_char_sum_needs_p_for_mixed_order():
    t = character_table_mod(gl2(3), 97)
    with pytest.raises(ValidationError):
        char_sum(t, 1)
    sums = char_sum(t, 1, p=3)
    assert len(sums) == 8


def test_recover_integer():
    # the centered lift of a residue mod ℓ: the representative in (−ℓ/2, ℓ/2]
    assert recover_integer(3, 7) == 3
    assert recover_integer(4, 7) == -3
    assert recover_integer(-5, 13) == -5
    assert recover_integer(6, 13) == 6 and recover_integer(7, 13) == -6
    assert recover_integer(0, 61) == 0
    assert recover_integer(81 % 163, 163) == 81 and recover_integer(-81 % 163, 163) == -81
    assert recover_integer(10**12 + 5, 10**12 + 39) == -34  # residues are reduced first


def test_bad_modulus_rejected():
    with pytest.raises(ValidationError):
        character_table_mod(cyclic(3), 8)  # composite
    with pytest.raises(ValidationError):
        character_table_mod(cyclic(3), 5)  # too small
    with pytest.raises(ValidationError):
        character_table_mod(cyclic(9), 23)  # 23 ≢ 1 mod 9
    with pytest.raises(ValidationError) as exc:  # ℓ = 2³² + 15 is prime, 3·(ℓ−1)² ≥ 2⁶³
        character_table_mod(cyclic(3), 4_294_967_311)
    assert exc.value.code == "bound-exceeded"


def test_abelian_rows_are_homomorphisms():
    # for C_9 mod 19 every row is χ(g_i g_j) = χ(g_i)χ(g_j)
    G = cyclic(9)
    t = character_table_mod(G, 19)
    conj = G.conjugacy_classes()
    for row in t.rows:
        for i in range(9):
            for j in range(9):
                meet = conj.class_of[G.mul(conj.reps[i], conj.reps[j])]
                assert row[meet] == row[i] * row[j] % 19


@pytest.mark.parametrize("make", [heisenberg, extraspecial_exp_p2, lambda p: cyclic(p**3)], ids=["Heis3", "XSP3", "C27"])
def test_tables_past_the_scan_limit_match_the_scan(make, monkeypatch):
    # past _SCAN_LIMIT the eigenvalues come from Cantor–Zassenhaus splitting;
    # the scan of every residue gives the same table, and omega is the least
    # residue of order exp Γ either way
    from arith_tqft import chartab

    G = make(3)
    l = split_primes(G, count=1, above=chartab._SCAN_LIMIT)[0]
    split = character_table_mod(G, l)
    monkeypatch.setattr(chartab, "_SCAN_LIMIT", l)
    scanned = character_table_mod(make(3), l)
    assert split.rows == scanned.rows and split.degrees == scanned.degrees
    e = G.exponent()  # a power of 3, so g has order e when g^e = 1 ≠ g^(e/3)
    assert split.omega == next(g for g in range(2, l) if pow(g, e, l) == 1 != pow(g, e // 3, l))


def test_roots_of_polynomials_that_do_not_split():
    # both primes are 3 mod 4, so x² + 1 has no root; x² has a double one, x² − 1 two
    from arith_tqft import chartab

    for l in (7, 2**31 - 1):
        assert chartab._roots([1, 0, 1], l).tolist() == []
        assert chartab._roots([0, 0, 1], l).tolist() == [0]
        assert chartab._roots([l - 1, 0, 1], l).tolist() == [1, l - 1]


def test_a_table_mod_a_large_prime_is_quick():
    # C₃ mod 268435459 (≈ 2²⁸): omega without a walk over the residues, roots without a scan
    import time

    t0 = time.perf_counter()
    table = character_table_mod(cyclic(3), 268435459)
    assert time.perf_counter() - t0 < 1.0
    assert table.degrees == (1, 1, 1) and pow(table.omega, 3, 268435459) == 1 != table.omega
