import itertools
import math
from collections import Counter, defaultdict
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import skos.exact_linalg
from skos.complexes import build_derham, build_koszul, specialize_koszul
from skos.exact_linalg import (
    ExactMatrix,
    _rank_fractions,
    is_prime,
    kernel_rank,
    homology,
    parse_base,
    rank,
    smith_normal_form,
)
from skos.multilinear import SuperDim


def snf_by_minor_gcds(dense):
    """Independent SNF oracle: d_k = gcd of all k x k minors."""
    m = len(dense)
    n = len(dense[0]) if m else 0

    def minor_gcd(k):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[dense[r][c] for c in cols] for r in rows]
                g = math.gcd(g, _det(sub))
        return g

    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = minor_gcd(k)
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return tuple(factors)


def _det(sub):
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        if sub[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * _det(minor)
    return total


def _dense_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _unimodular(k, rng):
    """Sparse k x k product of a row permutation and k transvections."""
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(k):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [u + c * v for u, v in zip(U[i], U[j])]
    rng.shuffle(U)
    return U


class TestSmithNormalForm:
    def test_diag_2_3(self):
        factors, r = smith_normal_form(ExactMatrix.from_dense([[2, 0], [0, 3]]))
        assert (factors, r) == ((1, 6), 2)
        assert snf_by_minor_gcds([[2, 0], [0, 3]]) == (1, 6)

    def test_identity(self):
        factors, r = smith_normal_form(ExactMatrix.identity(4))
        assert factors == (1, 1, 1, 1) and r == 4

    def test_zero(self):
        assert smith_normal_form(ExactMatrix.zeros(2, 3)) == ((), 0)

    def test_divisibility_chain_against_minor_oracle(self):
        rng = random.Random(2024)
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            dense = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            factors, r = smith_normal_form(ExactMatrix.from_dense(dense))
            assert factors == snf_by_minor_gcds(dense)
            for d1, d2 in zip(factors, factors[1:]):
                assert d2 % d1 == 0
            assert r == len(factors)

    def test_residual_core_beyond_minor_oracle(self):
        # M = U D V with U, V unimodular: the +-1 pivots are eliminated
        # sparsely, and the factors 2, 6, 12 can only come from the core
        rng = random.Random(11)
        for m, n in ((20, 20), (30, 26), (40, 36)):
            diag = [1] * (m // 2) + [2, 6, 12]
            D = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]
            M = ExactMatrix.from_dense(_dense_mul(_dense_mul(_unimodular(m, rng), D), _unimodular(n, rng)))
            assert smith_normal_form(M) == (tuple(diag), len(diag))
            assert rank(M, "Q") == len(diag)
            assert rank(M, "Fp:2") == sum(1 for d in diag if d % 2)
            assert rank(M, "Fp:5") == sum(1 for d in diag if d % 5)

    def test_big_entries(self):
        dense = [[2**40, 3**25], [5**17, 7**13]]
        factors, r = smith_normal_form(ExactMatrix.from_dense(dense))
        assert r == 2
        assert factors == snf_by_minor_gcds(dense)

    def test_entries_stay_below_a_core_minor(self):
        # no entry is +-1, so the whole matrix is the core; worked on plain
        # integers, Euclidean steps grow its entries to millions of bits
        dense = [[0, -872274, 0], [389310, 709277, -117879], [-725770, -681577, 0], [0, 0, 0], [0, 0, -7014]]
        assert smith_normal_form(dense) == ((1, 1, 60), 3)


@settings(max_examples=150, deadline=None)
# worked on plain integers, Euclidean steps grow this one's entries without bound
@example([[-219979, -275368, 0, 0], [200577, 0, -297292, 0], [-680967, 809153, 0, 737862]])
@given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10**6, 10**6) | st.sampled_from((0, 0, 1, -1, 2)), min_size=n, max_size=n),
    min_size=m, max_size=m))))
def test_snf_against_minor_oracle(dense):
    want = snf_by_minor_gcds(dense)
    assert smith_normal_form(dense) == (want, len(want))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3),
    st.randoms(use_true_random=False),
)
def test_snf_invariant_under_permutations(dense, rng):
    base = smith_normal_form(ExactMatrix.from_dense(dense))
    rows = dense[:]
    rng.shuffle(rows)
    cols = list(range(3))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in rows]
    assert smith_normal_form(ExactMatrix.from_dense(permuted)) == base


def rank_by_dense_gauss(dense, n):
    """Independent rank-over-Q oracle: dense Gauss elimination on Fractions."""
    A = [[Fraction(v) for v in row] for row in dense]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        for i in range(r + 1, len(A)):
            f = A[i][c] / A[r][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        r += 1
    return r


def _rank_mod_5(dense, n):
    """Rank over F_5: dense Gauss elimination on residues."""
    A = [[v % 5 for v in row] for row in dense]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        for i in range(r + 1, len(A)):
            f = A[i][c] * pow(A[r][c], -1, 5)
            A[i] = [(a - f * b) % 5 for a, b in zip(A[i], A[r])]
        r += 1
    return r


def _check_rank_against_oracle(dense, n):
    M = ExactMatrix.from_dense(dense) if dense else ExactMatrix.zeros(0, n)
    rq = _rank_fractions(M)
    assert rq == rank(M, "Q") == rank_by_dense_gauss(dense, n)
    for p in (2, 3, 5):
        assert rank(M, f"Fp:{p}") <= rq
    return rq


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 14),
    st.integers(1, 14),
    st.lists(st.sampled_from((0, 2, 3, 6, 12, 30)), max_size=6),
    st.randoms(use_true_random=False),
)
def test_rank_q_of_unimodular_products(m, n, factors, rng):
    # M = U D V with U, V sparse unimodular and D holding non-unit
    # invariant factors, so the +-1 pass leaves a large residual core
    factors = factors[: min(m, n)]
    D = [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)] for i in range(m)]
    U = _unimodular(m, rng) if m > 1 else [[1]]
    V = _unimodular(n, rng) if n > 1 else [[1]]
    dense = _dense_mul(_dense_mul(U, D), V)
    assert _check_rank_against_oracle(dense, n) == sum(1 for f in factors if f)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 6)), min_size=n, max_size=n),
                max_size=9,
            ),
        )
    )
)
def test_rank_q_of_sparse_matrices(shape_and_rows):
    n, dense = shape_and_rows
    _check_rank_against_oracle(dense, n)


def rank_mod_p_by_dense_gauss(dense, n, p):
    """Independent rank-over-F_p oracle: dense Gauss elimination on residues."""
    A = [[v % p for v in row] for row in dense]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = pow(A[r][c], -1, p)
        for i in range(r + 1, len(A)):
            f = A[i][c] * inv % p
            A[i] = [(a - f * b) % p for a, b in zip(A[i], A[r])]
        r += 1
    return r


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.just(p),
        st.just(n),
        st.lists(
            # every nonzero multiple of p here reduces to a zero the kernel must not pivot on
            st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, p, -p, 2 * p, p * p + 1)), min_size=n, max_size=n),
            max_size=9,
        ),
    )))
)
def test_rank_mod_p_of_sparse_matrices(case):
    p, n, dense = case
    M = ExactMatrix.from_dense(dense) if dense else ExactMatrix.zeros(0, n)
    assert rank(M, f"Fp:{p}") == rank_mod_p_by_dense_gauss(dense, n, p)


def test_rank_q_without_core_builds_no_fraction(monkeypatch):
    # every pivot of this Koszul differential is +-1, so no entry may
    # leave the integers on the way to its rank
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(skos.exact_linalg, "Fraction", CountingFraction)
    d = build_koszul(3, 2, 4, 4).diff_at[-2]
    assert rank(d, "Q") == 84
    assert built == []
    # a matrix with a core does go through Fraction, through the same global
    assert rank(ExactMatrix.from_dense([[2, 0], [0, 3]]), "Q") == 2
    assert built


def _specialized_homology(base):
    return subprocess.run(
        [sys.executable, "-m", "skos", "homology", "--kind", "specialize", "--rank", "6,0",
         "--omega", "6,10,15,21,35,14", "--base", base, "--position", "-3"],
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_rank_q_core_never_reaches_dense_smith_form():
    # no entry of this request's differentials is +-1, so each whole block
    # is a residual core; over Q it is ranked by elimination alone
    proc = _specialized_homology("Q")
    assert proc.returncode == 0, proc.stderr
    assert "free=(0|0)" in proc.stdout


def test_z_core_smith_form_stays_bounded():
    # the same cores over Z: Euclidean steps on plain integers let their
    # entries reach millions of bits; modulo a minor of each core they
    # stay small, and gcd(omega) = 1 leaves every group 0
    proc = _specialized_homology("Z")
    assert proc.returncode == 0, proc.stderr
    assert "free=(0|0) torsion_even=[] torsion_odd=[]" in proc.stdout


class TestRanks:
    def test_kernel_rank_examples(self):
        assert kernel_rank(ExactMatrix.from_dense([[2, 3]]), "Q") == 1
        assert kernel_rank(ExactMatrix.from_dense([[2]]), "Fp:2") == 1
        assert kernel_rank(ExactMatrix.from_dense([[2]]), "Q") == 0

    def test_rank_mod_p_bounded_by_rational_rank(self):
        rng = random.Random(7)
        for _ in range(30):
            dense = [[rng.randint(-8, 8) for _ in range(4)] for _ in range(3)]
            M = ExactMatrix.from_dense(dense)
            rq = rank(M, "Q")
            factors, _ = smith_normal_form(M)
            for p in (2, 3, 5, 7, 11, 13):
                rp = rank(M, f"Fp:{p}")
                assert rp <= rq
                if all(f % p for f in factors):
                    assert rp == rq

    def test_rank_over_z_is_rational_rank(self):
        M = ExactMatrix.from_dense([[2, 4], [1, 2]])
        assert rank(M, "Z") == rank(M, "Q") == 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="composite"):
            parse_base("Fp:6")
        with pytest.raises(ValueError, match="composite"):
            kernel_rank(ExactMatrix.identity(2), "Fp:9")

    def test_base_parsing(self):
        assert parse_base("Z") == ("Z", None)
        assert parse_base("Q") == ("Q", None)
        assert parse_base("Fp:101") == ("Fp", 101)
        with pytest.raises(ValueError):
            parse_base("R")
        assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)

    def test_primality_of_large_moduli(self):
        # neither has a factor below 10**9, out of reach of trial division
        assert is_prime(10**18 + 3)
        assert not is_prime((10**9 + 7) * (10**9 + 9))
        assert parse_base("Fp:1000000000000000003") == ("Fp", 10**18 + 3)
        # the least strong pseudoprime to every base used: no exact answer from there on
        for p in (3317044064679887385961981, 2**89 - 1):
            with pytest.raises(ValueError, match="below 3317044064679887385961981 only"):
                parse_base(f"Fp:{p}")

    def test_primality_is_cached_and_composites_stay_rejected(self):
        assert is_prime.cache_parameters()["maxsize"] is not None
        for _ in range(3):
            assert parse_base("Fp:32003") == ("Fp", 32003)
            with pytest.raises(ValueError, match="composite modulus rejected: 91"):
                parse_base("Fp:91")


class TestMatrixOps:
    def test_matmul_against_dense(self):
        rng = random.Random(3)
        A = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        B = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(4)]
        got = ExactMatrix.from_dense(A) @ ExactMatrix.from_dense(B)
        want = [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(2)] for i in range(3)]
        assert got == ExactMatrix.from_dense(want)

    @settings(max_examples=150, deadline=None)
    @example(([0, 1, 0], [1, 0, 0], [[0, 0, 0], [4, 0, 6], [0, 8, 0]]))
    @example(([], [1, 1], []))
    @given(st.integers(0, 6).flatmap(lambda m: st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=m, max_size=m),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.lists(st.sampled_from((0, 0, 1, -1, 2, -2, 3, 4, 6)), min_size=n, max_size=n),
                 min_size=m, max_size=m)))))
    def test_parity_blocks(self, case):
        """Ranks over Q and F_5 and invariant factors over Z of each parity
        block of an even map, counted off one elimination of the whole
        matrix, against the blocks cut out of the dense matrix here."""
        row_parity, col_parity, dense = case
        dense = [[v if r == c else 0 for v, c in zip(row, col_parity)] for row, r in zip(dense, row_parity)]
        M = ExactMatrix.from_dense(dense) if dense else ExactMatrix.zeros(0, len(col_parity))
        blocks = [
            [[v for v, c in zip(row, col_parity) if c == q] for row, r in zip(dense, row_parity) if r == q]
            for q in (0, 1)
        ]
        widths = [col_parity.count(q) for q in (0, 1)]
        assert rank(M, "Q", row_parity) == SuperDim(*map(rank_by_dense_gauss, blocks, widths))
        assert rank(M, "Fp:5", row_parity) == SuperDim(*(_rank_mod_5(b, w) for b, w in zip(blocks, widths)))
        assert skos.exact_linalg._block_homology_z(M, row_parity) == tuple(
            tuple(f for f in snf_by_minor_gcds(b) if f > 1) if b else () for b in blocks)

    def test_triplets_sorted(self):
        M = ExactMatrix.from_triplets(2, 2, [(1, 1, 5), (0, 0, 1), (1, 1, -5)])
        assert M.triplets() == [(0, 0, 1)]

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            ExactMatrix.from_dense([[0.5]])

    @pytest.mark.parametrize("triplet, error", [
        ((2, 0, 1), ValueError), ((0, -1, 1), ValueError), ((0, 0, 0.5), TypeError),
        ((0, 0, Fraction(1, 2)), TypeError), ((0, 0, "1"), TypeError),
    ])
    def test_from_triplets_rejects_bad_entries(self, triplet, error):
        with pytest.raises(error):
            ExactMatrix.from_triplets(2, 2, [(0, 1, 3), triplet])


class TestHomology:
    def test_odd_line_torsion(self):
        # weight-(i+1) slice, position -i: single torsion factor i+1 of parity (i+1) % 2
        C = build_koszul(0, 1, 3, 3)
        h = homology(C, "Z", -2)
        assert h.free == SuperDim(0, 0)
        assert h.torsion_even == () and h.torsion_odd == (3,)

    def test_acyclic_over_q_when_weight_invertible(self):
        C = build_koszul(2, 1, 3, 3)
        for pos in C.positions:
            h = homology(C, "Q", pos)
            assert h.free == SuperDim(0, 0)

    def test_weight_zero_slice(self):
        C = build_koszul(2, 2, 0, 0)
        assert homology(C, "Z", 0).free == SuperDim(1, 0)

    def test_rational_free_rank_matches_integer_free_rank(self):
        for a, b, n in [(0, 1, 4), (1, 1, 2), (0, 2, 3), (1, 0, 3)]:
            K = build_koszul(a, b, n, n)
            D = build_derham(a, b, n, n)
            for C in (K, D):
                for pos in C.positions:
                    assert homology(C, "Z", pos).free == homology(C, "Q", pos).free

    def test_prime_field_homology_case_by_case(self):
        # weight-2 slice of the odd line: a single [2] differential between
        # the even-parity monomials dt1^2 and t1*dt1, so the slice is exact
        # over F3 but completely degenerate over F2
        C = build_koszul(0, 1, 2, 2)
        h2 = homology(C, "Fp:2", -1)
        assert h2.free == SuperDim(1, 0) and not h2.torsion_even
        assert homology(C, "Fp:2", -2).free == SuperDim(1, 0)
        assert homology(C, "Fp:3", -1).free == SuperDim(0, 0)
        assert homology(C, "Fp:3", -2).free == SuperDim(0, 0)

    @pytest.mark.parametrize("base", ["Z", "Q", "Fp:3"])
    def test_not_a_complex_raises(self, base):
        C = build_koszul(1, 1, 3, 3)
        d = C.diff_at[-2]
        (r, c, v), *rest = d.triplets()
        C.diff_at[-2] = ExactMatrix.from_triplets(d.rows, d.cols, [(r, c, 2 * v)] + rest)
        with pytest.raises(ArithmeticError, match="position -2"):
            homology(C, base, -2)

    def test_homology_record(self):
        C = build_koszul(0, 1, 3, 3)
        rec = homology(C, "Z", -2).to_record()
        assert rec == {
            "position": -2,
            "even_rank": 0,
            "odd_rank": 0,
            "torsion_even": [],
            "torsion_odd": [3],
        }


def _content(M):
    return M.rows, M.cols, frozenset(M._d.items())


@pytest.mark.parametrize("build", [build_koszul, build_derham])
def test_each_block_is_reduced_once_per_complex(build, monkeypatch):
    """A sweep over every position and base ranks the parity blocks of each
    differential off one elimination of the whole differential, at most
    once per base field: one unit core, shared by Z and Q, and one
    elimination mod each prime."""
    C = build(2, 2, 5)
    # how many differentials hold each content
    owners = Counter(_content(M) for M in C.diff_at.values() if M.nnz)
    reductions = Counter()
    unit_core, rank_mod_p = skos.exact_linalg._unit_core, skos.exact_linalg._rank_mod_p

    def counted_unit_core(M):
        if M.nnz:
            reductions[_content(M), "core"] += 1
        return unit_core(M)

    def counted_rank_mod_p(M, p):
        if M.nnz:
            reductions[_content(M), p] += 1
        return rank_mod_p(M, p)

    monkeypatch.setattr(skos.exact_linalg, "_unit_core", counted_unit_core)
    monkeypatch.setattr(skos.exact_linalg, "_rank_mod_p", counted_rank_mod_p)
    for base in ("Z", "Q", "Fp:2", "Fp:3", "Fp:32003"):
        for pos in C.positions:
            homology(C, base, pos)
    assert {tag for _, tag in reductions} == {"core", 2, 3, 32003}
    over = {(key[:2], tag): n for (key, tag), n in reductions.items() if n > owners[key]}
    assert not over, f"differentials eliminated more than once: {over}"


@pytest.mark.parametrize("build", [build_koszul, build_derham])
def test_each_differential_is_copied_once_whatever_the_base(build, monkeypatch):
    """The unit core is the only reduction of a whole differential: Z, Q
    and every prime finish the one core in its memo, so each differential
    with entries is copied into rows once in all."""
    C = build(2, 2, 5)
    owners = Counter(_content(M) for M in C.diff_at.values() if M.nnz)
    copies = Counter()
    copy_rows = skos.exact_linalg._rows

    def counted_rows(M):
        copies[_content(M)] += 1
        return copy_rows(M)

    monkeypatch.setattr(skos.exact_linalg, "_rows", counted_rows)
    for base in ("Z", "Q", "Fp:2", "Fp:3", "Fp:32003"):
        for pos in C.positions:
            homology(C, base, pos)
    assert copies == owners


def test_gcd_of_omega_kills_every_specialized_complex():
    """On the Koszul complex of omega, dx_i ^ . is a homotopy from omega_i
    to 0, so N = gcd(omega) kills the homology: ``homology`` checks every
    answer against it and raises ArithmeticError on a wrong rank or
    invariant factor.  With N = 0 the differentials vanish."""
    rng = random.Random(23)
    checked = torsion = 0
    for _ in range(60):
        a, b = rng.randint(0, 4), rng.randint(0, 2)
        omega = tuple(rng.randint(-3, 3) for _ in range(a)) + (0,) * b
        C = specialize_koszul(a, b, omega, 3)
        n = math.gcd(*omega)
        for pos in C.positions if C.support_min is not None else C.positions[1:]:  # the cap's edge has no neighbor
            for base in ("Z", "Q", "Fp:2", "Fp:3"):
                h = homology(C, base, pos)
                if not n:
                    assert h.free == C.basis_at[pos].dims(), (omega, pos, base)
                elif base == "Z":
                    factors = h.torsion_even + h.torsion_odd
                    assert h.free.total == 0 and all(n % f == 0 for f in factors), (omega, pos)
                    checked, torsion = checked + 1, torsion + bool(factors)
    assert (checked, torsion) == (164, 18)


def test_cartan_homotopy_kills_every_slice():
    """On weight n, i_E d + d i_E = n, so n kills the homology of every
    Koszul and De Rham slice: it is zero over Q and over F_p for p not
    dividing n, and over Z every invariant factor divides n."""
    zero, positions, torsion = SuperDim(0, 0), 0, 0
    for a, b in ((a, s - a) for s in range(1, 5) for a in range(s + 1)):
        for n in range(1, 5 if a + b == 4 else 6):
            for C in (build_koszul(a, b, n), build_derham(a, b, n)):
                for pos in C.positions:
                    where = (C.kind, a, b, n, pos)
                    assert homology(C, "Q", pos).free == zero, where
                    for p in (2, 3, 5):
                        assert n % p == 0 or homology(C, f"Fp:{p}", pos).free == zero, (p, where)
                    h = homology(C, "Z", pos)
                    factors = h.torsion_even + h.torsion_odd
                    assert h.free == zero and all(n % f == 0 for f in factors), where
                    positions, torsion = positions + 1, torsion + bool(factors)
    assert (positions, torsion) == (462, 84)


def test_only_exact_linalg_owns_a_matrix_memo():
    """Every matrix memo is read and filled in ``skos.exact_linalg`` alone,
    so no other module keeps a second copy of a split or a reduction."""
    src = Path(skos.exact_linalg.__file__).parent
    owners = sorted(path.name for path in src.glob("*.py") if "_memo" in path.read_text(encoding="utf-8"))
    assert owners == ["exact_linalg.py"]


def test_entry_free_matrices_never_reach_the_kernel(monkeypatch):
    """Every slice ends in zero modules, so a sweep meets many entry-free
    differentials and blocks; none of them may be read into rows,
    eliminated or multiplied, while the d∘d check still runs."""
    el = skos.exact_linalg
    rows, eliminate, matmul = el._rows, el._eliminate, ExactMatrix.__matmul__

    def guarded_rows(M):
        assert M.nnz, "_rows of an entry-free matrix"
        return rows(M)

    def guarded_eliminate(rows_in, *args, **kwargs):
        assert any(rows_in.values()), "_eliminate of entry-free rows"
        return eliminate(rows_in, *args, **kwargs)

    def guarded_matmul(A, B):
        assert A.nnz and B.nnz, "product with an entry-free factor"
        return matmul(A, B)

    monkeypatch.setattr(el, "_rows", guarded_rows)
    monkeypatch.setattr(el, "_eliminate", guarded_eliminate)
    monkeypatch.setattr(ExactMatrix, "__matmul__", guarded_matmul)
    bases = ("Z", "Q", "Fp:3")
    for build in (build_koszul, build_derham):
        for a in range(4):
            for b in range(4 - a):
                for weight in range(3):
                    C = build(a, b, weight)
                    for base in bases:
                        for pos in C.positions:
                            homology(C, base, pos)
    C = build_koszul(1, 1, 3, 3)
    d = C.diff_at[-2]
    (r, c, v), *rest = d.triplets()
    C.diff_at[-2] = ExactMatrix.from_triplets(d.rows, d.cols, [(r, c, 2 * v)] + rest)
    for base in bases:
        with pytest.raises(ArithmeticError, match="position -2"):
            homology(C, base, -2)


def _eliminate_by_min(rows, inverse, p=None, units=None):
    """The elimination kernel as it chose pivots before: by ``min`` over the
    held columns with a key function, kept here as an oracle of the rule."""
    where = defaultdict(set)
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    todo = sorted(range(len(rows)), key=lambda i: len(rows[i]))
    while True:
        waiting = []
        for i in todo:
            row = rows[i]
            held = row if units is None else [c for c, v in row.items() if v in units]
            if not held:
                waiting.append(i)
                continue
            pc = min(held, key=lambda c: (len(where[c]), c))
            for c in row:
                where[c].discard(i)
            pinv = inverse(row.pop(pc))
            for j in where.pop(pc):
                other = rows[j]
                f = other.pop(pc) * pinv
                for c, v in row.items():
                    nv = other.get(c, 0) - f * v
                    if p:
                        nv %= p
                    if nv:
                        if c not in other:
                            where[c].add(j)
                        other[c] = nv
                    elif c in other:
                        del other[c]
                        where[c].discard(j)
        if len(waiting) == len(todo):
            return len(rows) - len(waiting), [rows[i] for i in waiting if rows[i]]
        todo = waiting


_PIVOT_P = 5
_KERNELS = {
    # base: (entry of a row, inverse, p, units)
    "Z": (int, int, None, (1, -1)),
    "Q": (Fraction, lambda v: 1 / v, None, None),
    "Fp": (lambda v: v % _PIVOT_P, lambda v: pow(v, -1, _PIVOT_P), _PIVOT_P, None),
}


@settings(max_examples=200, deadline=None)
# every column held by two rows, and every row by two columns: each pivot is a tie
@example("Z", [{0: 1, 1: -1}, {1: 1, 2: 1}, {2: -1, 0: 1}])
@example("Q", [{3: 2, 0: 1}, {0: 3, 1: 1}, {1: 2, 2: 1}, {2: 5, 3: 1}])
@given(
    st.sampled_from(sorted(_KERNELS)),
    # few columns for many rows, so column counts tie often
    st.lists(st.dictionaries(st.integers(0, 5), st.sampled_from((1, -1, 2, -2, 3, 4)), min_size=1, max_size=4),
             max_size=8),
)
def test_pivot_rule_matches_min_oracle(base, dense_rows):
    entry, inverse, p, units = _KERNELS[base]

    def copy():
        return [{c: entry(v) for c, v in row.items() if entry(v)} for row in dense_rows]

    want = _eliminate_by_min(copy(), inverse, p, units)
    got = skos.exact_linalg._eliminate(dict(enumerate(copy())), inverse, p, units)
    assert len(got[0]) == want[0]
    assert [list(row.items()) for row in got[1].values()] == [list(row.items()) for row in want[1]]


def test_z_homology_of_the_large_koszul_slice_stays_fast():
    """Z homology at every position of the (0|6) weight-8 Koszul slice
    (dimensions up to 6930) takes well under a second; before the Smith
    form worked modulo a core minor it took 6-8 s."""
    code = (
        "from skos.complexes import build_koszul\n"
        "from skos.exact_linalg import homology\n"
        "C = build_koszul(0, 6, 8)\n"
        "for pos in C.positions:\n"
        "    h = homology(C, 'Z', pos)\n"
        "    print(h.position, h.free, len(h.torsion_even), len(h.torsion_odd), max(h.torsion_even, default=1))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "-8 (0|0) 0 0 1", "-7 (0|0) 126 0 8", "-6 (0|0) 210 0 4", "-5 (0|0) 105 0 2", "-4 (0|0) 15 0 2",
        "-3 (0|0) 0 0 1", "-2 (0|0) 0 0 1", "-1 (0|0) 0 0 1", "0 (0|0) 0 0 1", "",
    ]
