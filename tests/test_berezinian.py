import json
import random
import re
from fractions import Fraction

import pytest

import skos.berezinian
from skos.berezinian import (
    GrassmannElement,
    SuperMatrix,
    ber,
    det_even,
    invert_unit,
    is_invertible,
    random_grassmann,
    random_invertible_supermatrix,
)
from skos.complexes import build_berezinian
from skos.exact_linalg import homology
from skos.multilinear import SuperDim
from skos.super_poly import GeneratorSet, parse_poly


def G(terms, gens=4):
    return GrassmannElement.make(gens, terms)


ONE = GrassmannElement.scalar(4, 1)
ZERO = GrassmannElement.zero(4)


def laplace(M):
    """Determinant by cofactor expansion along the first row: no division."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = GrassmannElement.zero(M[0][0].gens)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * laplace(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


class TestGrassmannElement:
    def test_anticommutation(self):
        t1 = G({(1,): 1})
        t2 = G({(2,): 1})
        assert t1 * t2 == G({(1, 2): 1})
        assert t2 * t1 == G({(1, 2): -1})
        assert (t1 * t1).is_zero()

    def test_body_and_parity(self):
        e = G({(): 2, (1, 2): 3})
        assert e.body == 2 and e.parity() == 0
        assert G({(1,): 1, (1, 2): 1}).parity() is None
        assert ZERO.parity() == 0

    def test_product_truncates_at_capacity(self):
        full = G({(1, 2): 1}) * G({(3, 4): 1})
        assert full == G({(1, 2, 3, 4): 1})
        assert (full * G({(1,): 1})).is_zero()

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            G({(0,): 1})
        with pytest.raises(ValueError):
            G({(2, 1): 1})

    def test_rejects_negative_generator_count(self):
        with pytest.raises(ValueError, match="negative Grassmann generator count"):
            GrassmannElement.make(-1, {})
        with pytest.raises(ValueError, match="negative Grassmann generator count: -1"):
            GrassmannElement.zero(-1)

    @pytest.mark.parametrize("gens", range(7))
    @pytest.mark.parametrize("parity", [0, 1])
    def test_text_reads_back_as_a_super_polynomial(self, gens, parity):
        """A Grassmann element prints as a polynomial in the odd generators
        t1..tg, which ``parse_poly`` over (0|g) reads back term by term."""
        rng = random.Random(f"text {gens} {parity}")
        for _ in range(20):
            e = random_grassmann(rng, gens, parity)
            back = parse_poly(GeneratorSet(0, gens), str(e))
            assert all(not m.dxs and not any(m.dt_pow) for m in back.terms)
            assert sorted((m.thetas, c) for m, c in back.terms.items()) == list(e.terms)
            assert str(back) == str(e)

    @pytest.mark.parametrize("value", [0.1, 0.5, "1/3", True, None], ids=repr)
    def test_inexact_coefficients_rejected(self, value):
        shown = f"got {value!r}"
        g = G({(): 1, (1,): 2})
        for build in (
            lambda: GrassmannElement.make(2, {(): value}),
            lambda: GrassmannElement.make(2, {(1,): 1, (1, 2): value}),
            lambda: GrassmannElement.scalar(2, value),
            lambda: g + value,
            lambda: value + g,
            lambda: g - value,
            lambda: value - g,
            lambda: g * value,
            lambda: value * g,
        ):
            with pytest.raises(TypeError, match=re.escape(shown)):
                build()

    def test_int_and_fraction_coefficients_unchanged(self):
        third = Fraction(1, 3)
        e = GrassmannElement.make(4, {(): third, (1, 2): 2, (3, 4): Fraction(4, 2)})
        assert e.terms == (((), third), ((1, 2), Fraction(2)), ((3, 4), Fraction(2)))
        assert GrassmannElement.scalar(4, 0) == ZERO
        assert GrassmannElement.scalar(4, third).body == third
        assert e + 1 == 1 + e == G({(): Fraction(4, 3), (1, 2): 2, (3, 4): 2})
        assert e - third == G({(1, 2): 2, (3, 4): 2})
        assert e * 3 == 3 * e == G({(): 1, (1, 2): 6, (3, 4): 6})
        assert e * third == third * e == G({(): Fraction(1, 9), (1, 2): Fraction(2, 3), (3, 4): Fraction(2, 3)})
        assert 1 - e == -(e - 1) == G({(): Fraction(2, 3), (1, 2): -2, (3, 4): -2})
        assert third - e == G({(1, 2): -2, (3, 4): -2})


class TestInvertUnit:
    def test_nilpotent_perturbation(self):
        u = ONE + G({(1, 2): 1})
        assert invert_unit(u) == ONE - G({(1, 2): 1})

    def test_scalar(self):
        assert invert_unit(G({(): 2})) == G({(): Fraction(1, 2)})

    def test_three_plus_nilpotent(self):
        u = G({(): 3, (1, 2): 1})
        assert invert_unit(u) == G({(): Fraction(1, 3), (1, 2): Fraction(-1, 9)})

    def test_product_is_one_on_random_units(self):
        rng = random.Random(11)
        for _ in range(25):
            u = random_grassmann(rng, 4, 0) + GrassmannElement.scalar(4, rng.choice([1, 2, -3]))
            if u.body == 0:
                continue
            assert u * invert_unit(u) == ONE

    def test_zero_body_rejected(self):
        with pytest.raises(ZeroDivisionError):
            invert_unit(G({(1, 2): 1}))

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            invert_unit(G({(1,): 1}))


class TestDetEven:
    def test_diagonal(self):
        a = G({(): 2, (1, 2): 1})
        d = G({(): 3})
        assert det_even([[a, ZERO], [ZERO, d]]) == a * d

    def test_identity(self):
        assert det_even([[ONE, ZERO], [ZERO, ONE]]) == ONE

    def test_worked_two_by_two(self):
        tt = G({(1, 2): 1})
        got = det_even([[ONE + tt, tt], [tt, ONE]])
        assert got == ONE + tt  # the square of a two-generator term vanishes

    def test_against_laplace_expansion(self):
        rng = random.Random(5)
        for _ in range(10):
            M = [[random_grassmann(rng, 4, 0) for _ in range(3)] for _ in range(3)]
            assert det_even(M) == laplace(M)

    def test_nilpotent_pivot_column(self):
        # column 0 has no unit entry: the determinant is an expansion along it
        tt = G({(1, 2): 1})
        assert det_even([[tt, ZERO], [ZERO, ONE]]) == tt
        assert det_even([[ONE, ZERO], [ZERO, tt]]) == tt
        assert det_even([[tt, ONE], [ONE, ZERO]]) == -ONE

    def test_row_swap_changes_sign(self):
        a = G({(): 2, (1, 2): 1})
        assert det_even([[ZERO, ONE], [a, ONE]]) == -a

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("defect", ["first", "last"])
    def test_singular_body_against_laplace(self, n, defect):
        # A singular body leaves some column without a unit pivot, so the
        # elimination hands a trailing block to the expansion: at once when
        # the first column is nilpotent, late when the last column's body
        # repeats the first column's.
        rng = random.Random(f"{n}{defect}")
        for _ in range(15):
            M = [[random_grassmann(rng, 5, 0) for _ in range(n)] for _ in range(n)]
            for row in M:
                if defect == "first":
                    row[0] = row[0] - GrassmannElement.scalar(5, row[0].body)
                else:
                    row[0] = row[0] + GrassmannElement.scalar(5, rng.choice([1, -1, 2]))
                    row[-1] = row[-1] + GrassmannElement.scalar(5, row[0].body - row[-1].body)
            expected = laplace(M)
            assert expected.body == 0
            assert det_even(M) == expected

    def test_zero_matrix(self):
        assert det_even([[ZERO] * 3 for _ in range(3)]) == ZERO

    def test_body_free_block_is_not_expanded_past_the_generators(self, monkeypatch):
        # every product of 5 body-free even entries over 4 generators vanishes,
        # so the 8 x 8 block needs no cofactor expansion (8! terms before)
        import skos.berezinian as berezinian_mod

        calls = []
        det = berezinian_mod._det
        monkeypatch.setattr(berezinian_mod, "_det", lambda A: calls.append(1) or det(A))
        e = G({(1, 2): 1, (3, 4): 2})
        assert det_even([[e] * 8 for _ in range(8)]) == ZERO
        assert len(calls) <= 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_body_free_matrix_against_laplace(self, n):
        rng = random.Random(n)
        for _ in range(10):
            M = [[random_grassmann(rng, 4, 0) for _ in range(n)] for _ in range(n)]
            M = [[e - GrassmannElement.scalar(4, e.body) for e in row] for row in M]
            assert det_even(M) == laplace(M)

    def test_odd_entry_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            det_even([[G({(1,): 1})]])


class TestInvertibility:
    def test_identity_invertible(self):
        assert is_invertible(SuperMatrix.identity(2, 2, 4))

    def test_zero_block_not_invertible(self):
        M = SuperMatrix.from_blocks(1, 1, 4, [[ZERO]], [[ZERO]], [[ZERO]], [[ONE]])
        assert not is_invertible(M)

    def test_unit_body_with_nilpotent(self):
        M = SuperMatrix.from_blocks(1, 0, 4, [[ONE + G({(1, 2): 1})]], [[]], [], [])
        assert is_invertible(M)

    def test_parity_structure_enforced(self):
        with pytest.raises(ValueError, match="parity"):
            SuperMatrix.from_blocks(1, 1, 4, [[ONE]], [[ONE]], [[ZERO]], [[ONE]])


class TestBer:
    def test_block_diagonal(self):
        rng = random.Random(21)
        for _ in range(10):
            M = random_invertible_supermatrix(rng, 2, 2, 4)
            zero_row = [[ZERO] * 2] * 2
            D = SuperMatrix.from_blocks(2, 2, 4, M.X, zero_row, zero_row, M.T)
            assert ber(D) == det_even(M.X) * invert_unit(det_even(M.T))

    def test_identity(self):
        assert ber(SuperMatrix.identity(3, 2, 4)) == ONE

    def test_worked_one_one_example(self):
        tt = G({(1, 2): 1})
        M = SuperMatrix.from_blocks(
            1, 1, 4, [[ONE + tt]], [[G({(1,): 1})]], [[G({(2,): 1})]], [[ONE]]
        )
        assert ber(M) == ONE

    def test_multiplicativity_seeded(self):
        rng = random.Random(12345)
        for _ in range(30):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            if p == q == 0:
                p = 1
            gens = rng.randint(1, 4)
            M = random_invertible_supermatrix(rng, p, q, gens)
            N = random_invertible_supermatrix(rng, p, q, gens)
            assert ber(M @ N) == ber(M) * ber(N)

    def test_unipotent_triangular(self):
        rng = random.Random(3)
        for _ in range(10):
            M = random_invertible_supermatrix(rng, 2, 2, 4)
            eye = SuperMatrix.identity(2, 2, 4)
            zeros = [[ZERO] * 2] * 2
            lower = SuperMatrix.from_blocks(2, 2, 4, eye.X, zeros, M.Z, eye.T)
            upper = SuperMatrix.from_blocks(2, 2, 4, eye.X, M.Y, zeros, eye.T)
            assert ber(lower) == ONE
            assert ber(upper) == ONE
            # block upper triangular: ber = det(X) det(T)^-1
            tri = SuperMatrix.from_blocks(2, 2, 4, M.X, M.Y, zeros, M.T)
            assert ber(tri) == det_even(M.X) * invert_unit(det_even(M.T))

    def test_scalar_blocks_closed_form(self):
        # p = q = 1 reduces to (a - b d^-1 c) * d^-1 in the even subring
        rng = random.Random(31)
        for _ in range(25):
            M = random_invertible_supermatrix(rng, 1, 1, 4)
            a, b, c, d = M.X[0][0], M.Y[0][0], M.Z[0][0], M.T[0][0]
            dinv = invert_unit(d)
            assert ber(M) == (a - b * dinv * c) * dinv

    def test_purely_even_and_purely_odd(self):
        rng = random.Random(99)
        for _ in range(10):
            M = random_invertible_supermatrix(rng, 2, 0, 3)
            assert ber(M) == det_even(M.X)
            N = random_invertible_supermatrix(rng, 0, 2, 3)
            assert ber(N) == invert_unit(det_even(N.T))

    def test_disagreeing_closed_forms_raise(self, monkeypatch):
        """``ber`` compares its two closed forms: with one determinant off by 1,
        the first form no longer equals the second."""
        M = random_invertible_supermatrix(random.Random(21), 2, 2, 4)
        ber(M)
        real, calls = skos.berezinian.det_even, []

        def first_off_by_one(rows):
            calls.append(rows)
            return real(rows) + (1 if len(calls) == 1 else 0)

        monkeypatch.setattr(skos.berezinian, "det_even", first_off_by_one)
        with pytest.raises(ArithmeticError, match="the two Berezin determinant forms disagree"):
            ber(M)
        assert len(calls) == 2

    def test_non_invertible_rejected(self):
        M = SuperMatrix.from_blocks(1, 1, 2, [[ZERO_2 := GrassmannElement.zero(2)]],
                                    [[ZERO_2]], [[ZERO_2]], [[GrassmannElement.scalar(2, 1)]])
        with pytest.raises(ValueError, match="not invertible"):
            ber(M)


def _swapping_supermatrix(rng, gens=4):
    """(2|2) supermatrix whose X and T bodies have a zero (0,0) entry, so
    both block eliminations must swap rows to find their first pivot."""

    def even(body):
        e = random_grassmann(rng, gens, 0)
        return e - e.body + body

    def diagonal():
        unit = [1, -1, 2]
        return [[even(0), even(rng.choice(unit))],
                [even(rng.choice(unit)), even(rng.randint(-2, 2))]]

    def odd():
        return [[random_grassmann(rng, gens, 1) for _ in range(2)] for _ in range(2)]

    return SuperMatrix.from_blocks(2, 2, gens, diagonal(), odd(), odd(), diagonal())


def _mul2(A, B):
    return [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)] for i in range(2)]


def _det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


class TestBerBlockElimination:
    def test_row_swaps_against_closed_form(self):
        # ber = det(X - Y T^-1 Z) * det(T)^-1 with T^-1 = adj(T) * det(T)^-1
        rng = random.Random(77)
        for _ in range(15):
            M = _swapping_supermatrix(rng)
            assert M.X[0][0].body == M.T[0][0].body == 0
            det_t_inv = invert_unit(_det2(M.T))
            adj = [[M.T[1][1], -M.T[0][1]], [-M.T[1][0], M.T[0][0]]]
            t_inv = [[e * det_t_inv for e in row] for row in adj]
            ytz = _mul2(_mul2(M.Y, t_inv), M.Z)
            schur = [[M.X[i][j] - ytz[i][j] for j in range(2)] for i in range(2)]
            assert ber(M) == _det2(schur) * det_t_inv

    def test_singular_x_body_rejected(self):
        rng = random.Random(5)
        M = _swapping_supermatrix(rng)
        nil = G({(1, 2): 1})
        X = [[ONE + nil, ONE * 2], [ONE * 2, ONE * 4 + nil]]  # body [[1, 2], [2, 4]]
        singular = SuperMatrix.from_blocks(2, 2, 4, X, M.Y, M.Z, M.T)
        assert not is_invertible(singular)
        with pytest.raises(ValueError, match="not invertible"):
            ber(singular)

    def test_verdict_comes_from_the_two_block_eliminations(self, monkeypatch):
        # each even entry's body is 0 with chance 4/7, so bodies are often singular
        # (78 of these 108); for every shape ber rejects exactly the matrices
        # is_invertible rejects, without asking it
        rng = random.Random(11)
        verdicts = []
        for p, q in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 0), (2, 0), (0, 1), (0, 2)):
            for _ in range(12):
                def block(rows, cols, parity):
                    return [[random_grassmann(rng, 3, parity) for _ in range(cols)] for _ in range(rows)]

                M = SuperMatrix.from_blocks(p, q, 3, block(p, p, 0), block(p, q, 1), block(q, p, 1), block(q, q, 0))
                invertible = is_invertible(M)
                with monkeypatch.context() as patch:
                    patch.setattr(skos.berezinian, "is_invertible", None)
                    try:
                        ber(M)
                    except ValueError as e:
                        assert str(e) == "supermatrix is not invertible (a diagonal block body is singular)"
                        verdicts.append((invertible, False))
                    else:
                        verdicts.append((invertible, True))
        assert all(want == got for want, got in verdicts)
        assert {got for _, got in verdicts} == {True, False}


class TestModuleRank:
    def test_module_ranks(self):
        """One class at position p of the weight q - p slice, odd when q is odd;
        acceptance c06 covers p, q <= 2, this is (p|q) = (3|2)."""
        B = build_berezinian(3, 2, -1, 4)
        free = [homology(B, "Q", pos).free for pos in range(4)]
        assert free == [SuperDim(0, 0)] * 3 + [SuperDim(1, 0)]
        with pytest.raises(ValueError, match="nonnegative"):
            build_berezinian(-1, 0, 0, 2)


class TestRecordFormat:
    def test_round_trip(self):
        rng = random.Random(5)
        M = random_invertible_supermatrix(rng, 2, 1, 3)
        rec = json.loads(json.dumps(M.to_record(), sort_keys=True))
        assert SuperMatrix.from_record(rec) == M

    def test_entry_count_checked(self):
        rec = SuperMatrix.identity(1, 1, 2).to_record()
        rec["entries"] = rec["entries"][:-1]
        with pytest.raises(ValueError, match="entries"):
            SuperMatrix.from_record(rec)

    @pytest.mark.parametrize(
        "thetas, message",
        [
            ([0], "theta index out of range in (0,)"),
            ([-2], "theta index out of range in (-2,)"),
            ([3], "theta index out of range in (3,)"),
            ([1, 1], "theta indices must be strictly increasing: (1, 1)"),
            ([2, 1], "theta indices must be strictly increasing: (2, 1)"),
            ([2, 1, 3], "theta index out of range in (2, 1, 3)"),
            ([True], "supermatrix record field 'entries[1]' is malformed: "
                     "expected an integer, got True"),
            ([1.5], "supermatrix record field 'entries[1]' is malformed: "
                    "expected an integer, got 1.5"),
            ([1.0], "supermatrix record field 'entries[1]' is malformed: "
                    "expected an integer, got 1.0"),
            ([0, True], "supermatrix record field 'entries[1]' is malformed: "
                        "expected an integer, got True"),
        ],
        ids=["zero", "negative", "above-gens", "repeated", "decreasing",
             "range-before-order", "true", "float", "integral-float", "type-before-range"],
    )
    def test_bad_theta_message(self, thetas, message):
        # entries[0] reads [1] first; [True] and [1.0] equal it under == and
        # must still be rejected
        rec = SuperMatrix.identity(1, 1, 2).to_record()
        rec["entries"][0] = [{"coeff": "1", "thetas": []}, {"coeff": "0", "thetas": [1]}]
        rec["entries"][1] = [{"coeff": "1", "thetas": thetas}]
        with pytest.raises(ValueError) as info:
            SuperMatrix.from_record(rec)
        assert str(info.value) == message

    def test_bad_coefficient_outranks_bad_theta_in_one_entry(self):
        rec = SuperMatrix.identity(1, 0, 2).to_record()
        rec["entries"][0] = [{"coeff": "1", "thetas": [0]}, {"coeff": "x", "thetas": []}]
        with pytest.raises(ValueError, match=r"'entries\[0\]' is malformed: expected a rational"):
            SuperMatrix.from_record(rec)

    @pytest.mark.parametrize(
        "terms, blamed",
        [
            ([((0,), True)], "theta index out of range in (0,)"),
            ([((2, 1), True), ((1,), True)], "theta indices must be strictly increasing: (2, 1)"),
            ([((1,), False)], None),
            ([((0,), False)], None),
            ([((3,), True), ((), False)], None),
            ([((), False), ((1, 1), True)], None),
        ],
        ids=["index", "order", "coefficient", "both-in-one-term", "index-then-coefficient",
             "coefficient-then-index"],
    )
    def test_make_and_record_blame_the_same_part(self, terms, blamed):
        """One reader serves both: a bad coefficient (a float for ``make``, a
        non-rational string in a record) outranks a bad theta index anywhere
        in the element, and a bad index alone gives one message to both."""
        rec = SuperMatrix.identity(1, 0, 2).to_record()
        rec["entries"][0] = [{"coeff": "1" if ok else "0.5x", "thetas": list(t)} for t, ok in terms]
        with pytest.raises((TypeError, ValueError)) as made:
            GrassmannElement.make(2, {t: 1 if ok else 0.5 for t, ok in terms})
        with pytest.raises(ValueError) as read:
            SuperMatrix.from_record(rec)
        if blamed is None:
            assert (made.type, str(made.value)) == (TypeError, "Grassmann coefficients must be int or Fraction, got 0.5")
            assert str(read.value) == ("supermatrix record field 'entries[0]' is malformed: "
                                       "expected a rational string, got '0.5x'")
        else:
            assert (made.type, str(made.value), str(read.value)) == (ValueError, blamed, blamed)


T1, T2, T12 = G({(1,): 1}), G({(2,): 1}), G({(1, 2): 1})
WRONG_GENS = GrassmannElement.make(3, {(1,): 1})
# ({(row, column): entry}, message): of the bad entries of a (2|1) matrix,
# the first in block order X, Y, Z, T, each row by row, is reported
BAD_ENTRY = [
    pytest.param({(0, 2): ONE + T12, (2, 1): ONE + T1},
                 "entry parity violates even supermatrix structure: 1 + t1*t2", id="Y even, T inhomogeneous"),
    pytest.param({(2, 0): ONE + T1, (1, 1): T2},
                 "entry parity violates even supermatrix structure: t2", id="X odd, Z inhomogeneous"),
    pytest.param({(1, 0): T1 + T12, (0, 2): ONE},
                 "inhomogeneous entry: t1 + t1*t2", id="X inhomogeneous, Y even"),
    pytest.param({(1, 0): T1, (0, 1): T1 + T2, (2, 2): ONE + T1},
                 "entry parity violates even supermatrix structure: t1 + t2", id="X odd twice, row by row"),
    pytest.param({(2, 1): ONE + T2, (2, 2): T1},
                 "inhomogeneous entry: 1 + t2", id="Z inhomogeneous, T odd"),
]


def _with(entries):
    """The (2|1) identity over 4 generators with ``entries`` put in, built
    unchecked so that its blocks and its record carry the bad entries."""
    rows = [list(r) for r in SuperMatrix.identity(2, 1, 4).rows]
    for (i, j), e in entries.items():
        rows[i][j] = e
    return SuperMatrix(2, 1, 4, tuple(map(tuple, rows)))


def _blocks(M):
    return M.X, M.Y, M.Z, M.T


class TestSuperMatrixLayout:
    @pytest.mark.parametrize("entries, message", BAD_ENTRY)
    def test_first_bad_entry_in_block_order_is_reported(self, entries, message):
        M = _with(entries)
        with pytest.raises(ValueError) as info:
            SuperMatrix.from_blocks(2, 1, 4, *_blocks(M))
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            SuperMatrix.from_record(M.to_record())
        assert str(info.value) == message

    def test_generator_count_checked_in_block_order(self):
        # Z has a wrong generator count, X an odd entry: X comes first
        M = _with({(2, 0): WRONG_GENS, (0, 1): T1})
        with pytest.raises(ValueError, match="entry parity violates even supermatrix structure: t1$"):
            SuperMatrix.from_blocks(2, 1, 4, *_blocks(M))
        # Y has a wrong generator count, T an inhomogeneous entry: Y comes first
        M = _with({(1, 2): WRONG_GENS, (2, 2): ONE + T1})
        with pytest.raises(ValueError) as info:
            SuperMatrix.from_blocks(2, 1, 4, *_blocks(M))
        assert str(info.value) == "mismatched Grassmann generator counts"

    @pytest.mark.parametrize("block", range(4), ids="XYZT")
    def test_block_shape_mismatch(self, block):
        blocks = list(_blocks(SuperMatrix.identity(2, 1, 4)))
        rows = blocks[block]
        for bad in (rows[:-1], rows + rows[:1], [r[:-1] for r in rows], [r + (ZERO,) for r in rows]):
            wrong = blocks[:block] + [bad] + blocks[block + 1 :]
            with pytest.raises(ValueError) as info:
                SuperMatrix.from_blocks(2, 1, 4, *wrong)
            assert str(info.value) == "block shape mismatch"

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2), (2, 0), (0, 2), (0, 0)])
    def test_views_are_the_blocks_passed_in(self, p, q):
        rng = random.Random(f"views {p} {q}")

        def block(rows, cols, parity):
            return [[random_grassmann(rng, 3, parity) for _ in range(cols)] for _ in range(rows)]

        X, Y, Z, T = block(p, p, 0), block(p, q, 1), block(q, p, 1), block(q, q, 0)
        M = SuperMatrix.from_blocks(p, q, 3, X, Y, Z, T)
        as_tuples = lambda B: tuple(map(tuple, B))
        assert (M.X, M.Y, M.Z, M.T) == tuple(map(as_tuples, (X, Y, Z, T)))
        assert M.rows == tuple(x + y for x, y in zip(M.X, M.Y)) + tuple(z + t for z, t in zip(M.Z, M.T))

    def test_rows_follow_the_record_order(self):
        p, q, gens = 2, 1, 3
        n = p + q
        # entry k of the record is k + 1, times t1 in the odd blocks
        t1 = GrassmannElement.make(gens, {(1,): 1})
        flat = [t1 * (k + 1) if (k // n < p) != (k % n < p) else GrassmannElement.scalar(gens, k + 1)
                for k in range(n * n)]
        record = {"p": p, "q": q, "grassmann_gens": gens, "entries": [e.to_record() for e in flat]}
        M = SuperMatrix.from_record(record)
        assert [e for row in M.rows for e in row] == flat
        assert M.to_record()["entries"] == [e.to_record() for e in flat]
        assert M.Y == ((flat[2],), (flat[5],)) and M.Z == ((flat[6], flat[7]),)

    @pytest.mark.parametrize("p, q, message", [(-1, 0, "negative supermatrix size p = -1"),
                                                (0, -2, "negative supermatrix size q = -2")])
    def test_identity_refuses_a_negative_size(self, p, q, message):
        with pytest.raises(ValueError) as info:
            SuperMatrix.identity(p, q, 2)
        assert str(info.value) == message

    @pytest.mark.parametrize("p, q", [(2, 1), (0, 2), (3, 0)])
    def test_identity_blocks(self, p, q):
        M = SuperMatrix.identity(p, q, 4)
        eye = lambda n: tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        zeros = lambda r, c: tuple((ZERO,) * c for _ in range(r))
        assert (M.X, M.Y, M.Z, M.T) == (eye(p), zeros(p, q), zeros(q, p), eye(q))
        assert M.rows == eye(p + q)


def _block_mul(A, B, rows, cols, gens):
    """rows x cols product of two blocks, summed with ``GrassmannElement``
    arithmetic; an empty inner dimension gives zeros."""
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), GrassmannElement.zero(gens)) for j in range(cols))
        for i in range(rows)
    )


def _block_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 2)])
def test_matmul_blocks_follow_the_block_formulas(p, q):
    rng = random.Random(f"matmul {p} {q}")
    for gens in (2, 3, 4):
        M = random_invertible_supermatrix(rng, p, q, gens)
        N = random_invertible_supermatrix(rng, p, q, gens)
        P = M @ N

        def mul(A, B, rows, cols):
            return _block_mul(A, B, rows, cols, gens)

        assert P.X == _block_add(mul(M.X, N.X, p, p), mul(M.Y, N.Z, p, p))
        assert P.Y == _block_add(mul(M.X, N.Y, p, q), mul(M.Y, N.T, p, q))
        assert P.Z == _block_add(mul(M.Z, N.X, q, p), mul(M.T, N.Z, q, p))
        assert P.T == _block_add(mul(M.Z, N.Y, q, q), mul(M.T, N.T, q, q))
